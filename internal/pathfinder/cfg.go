// Package pathfinder implements the Pathfinder tool of §6 of the paper:
// given a victim binary (an ISA program — the stand-in for angr's binary
// analysis) and an observed PHR value, it reconstructs the control-flow
// graph and recovers the execution path that produced the PHR, including
// the outcome of every conditional branch instance and loop trip counts.
//
// The search runs backward from the point where execution ended. The PHR
// update is linear over GF(2) in shifted branch footprints, and the lowest
// doublet of the register is written only by the most recent taken branch,
// so candidate predecessors are pruned on doublet 0 exactly as the paper
// describes; each accepted reversal peels one taken branch off the
// register. Doublets shifted out beyond the PHR window can be supplied
// from the Extended Read PHR primitive (§5) to recover unbounded history.
package pathfinder

import (
	"fmt"
	"sort"

	"pathfinder/internal/isa"
	"pathfinder/internal/phr"
)

// EdgeKind classifies how control reached a target.
type EdgeKind uint8

// Edge kinds.
const (
	EdgeCondTaken EdgeKind = iota
	EdgeJump
	EdgeCall
	EdgeReturn
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCondTaken:
		return "cond-taken"
	case EdgeJump:
		return "jmp"
	case EdgeCall:
		return "call"
	case EdgeReturn:
		return "ret"
	}
	return "edge?"
}

// TakenEdge is one possible taken-branch transition with its PHR footprint.
type TakenEdge struct {
	From      uint64 // branch instruction address
	To        uint64 // target address
	Kind      EdgeKind
	Footprint uint16
}

// CFG is the control-flow model of a program: basic blocks for reporting
// and a taken-edge catalog for the path search. The catalog is indexed by
// instruction position, with every source already resolved, so the search
// never consults an address map.
type CFG struct {
	Prog   *isa.Program
	Blocks []*Block

	arrivals  [][]arrival         // target index -> possible taken arrivals, in catalog order
	transfers [][]int32           // handler entry index -> SYSCALL/EENTER site indices
	blockOf   map[uint64]int      // leader address -> block index
	indirects map[uint64][]uint64 // JR address -> candidate targets
}

// arrival is one catalogued taken edge into an instruction. fromIdx is the
// program index of the branch, or -1 when the source is not an instruction
// (the search skips such edges).
type arrival struct {
	edge    TakenEdge
	fromIdx int32
}

// Block is a straight-line run of instructions ending at a control
// transfer (or the program end).
type Block struct {
	ID    int
	Start uint64 // address of the leader
	End   uint64 // address of the last instruction
	Size  int    // instruction count
	Succs []uint64
}

// Build constructs the CFG of a program.
func Build(p *isa.Program) (*CFG, error) {
	c := &CFG{
		Prog:      p,
		arrivals:  make([][]arrival, len(p.Instrs)),
		transfers: make([][]int32, len(p.Instrs)),
		blockOf:   make(map[uint64]int),
		indirects: make(map[uint64][]uint64),
	}
	c.buildEdges()
	c.buildBlocks()
	return c, nil
}

// AddTransfer registers a SYSCALL or EENTER binding: the instruction at
// from transfers control to the handler at entry without a PHR-visible
// branch, and the handler's returns land on the instruction after from as
// ordinary (PHR-visible) indirect branches. The binding lives in the
// machine, not the binary, so callers must provide it — the analogue of
// giving angr a syscall model.
func (c *CFG) AddTransfer(from, entry uint64) {
	idx, ok := c.Prog.IndexOf(from)
	if !ok {
		return
	}
	if e, ok := c.Prog.IndexOf(entry); ok {
		c.transfers[e] = append(c.transfers[e], int32(idx))
	}
	if idx+1 >= len(c.Prog.Instrs) {
		return
	}
	pad := c.Prog.Instrs[idx+1].Addr
	for _, r := range c.reachableRets(entry) {
		c.addEdge(TakenEdge{From: r, To: pad, Kind: EdgeReturn, Footprint: phr.Footprint(r, pad)})
	}
}

// AddIndirectTargets registers candidate targets for an indirect jump (JR)
// at addr — the information angr sometimes misses (§6); callers provide it
// from symbols or profiling.
func (c *CFG) AddIndirectTargets(addr uint64, targets ...uint64) {
	c.indirects[addr] = append(c.indirects[addr], targets...)
	for _, t := range targets {
		c.addEdge(TakenEdge{From: addr, To: t, Kind: EdgeJump, Footprint: phr.Footprint(addr, t)})
	}
}

// addEdge catalogues a taken edge under its target's index. Edges into
// non-instructions are dropped: no search state sits there.
func (c *CFG) addEdge(e TakenEdge) {
	to, ok := c.Prog.IndexOf(e.To)
	if !ok {
		return
	}
	from := int32(-1)
	if i, ok := c.Prog.IndexOf(e.From); ok {
		from = int32(i)
	}
	c.arrivals[to] = append(c.arrivals[to], arrival{edge: e, fromIdx: from})
}

func (c *CFG) buildEdges() {
	p := c.Prog
	// Return pads: instruction following each CALL, keyed by callee entry.
	type padInfo struct {
		pad    uint64
		callee uint64
	}
	var pads []padInfo
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case isa.BR:
			c.addEdge(TakenEdge{From: in.Addr, To: in.Target, Kind: EdgeCondTaken, Footprint: phr.Footprint(in.Addr, in.Target)})
		case isa.JMP:
			c.addEdge(TakenEdge{From: in.Addr, To: in.Target, Kind: EdgeJump, Footprint: phr.Footprint(in.Addr, in.Target)})
		case isa.CALL:
			c.addEdge(TakenEdge{From: in.Addr, To: in.Target, Kind: EdgeCall, Footprint: phr.Footprint(in.Addr, in.Target)})
			if i+1 < len(p.Instrs) {
				pads = append(pads, padInfo{pad: p.Instrs[i+1].Addr, callee: in.Target})
			}
		}
	}
	// RET edges: a return in function F may land on any pad of a call to F.
	// Function membership is intraprocedural reachability from the callee
	// entry, treating calls as straight-through.
	retsOf := map[uint64][]uint64{} // callee entry -> RET addresses
	for _, pi := range pads {
		if _, seen := retsOf[pi.callee]; !seen {
			retsOf[pi.callee] = c.reachableRets(pi.callee)
		}
	}
	for _, pi := range pads {
		for _, r := range retsOf[pi.callee] {
			c.addEdge(TakenEdge{From: r, To: pi.pad, Kind: EdgeReturn, Footprint: phr.Footprint(r, pi.pad)})
		}
	}
}

// reachableRets walks forward from entry without descending into callees
// and returns the RET instructions encountered.
func (c *CFG) reachableRets(entry uint64) []uint64 {
	p := c.Prog
	start, ok := p.IndexOf(entry)
	if !ok {
		return nil
	}
	seen := map[int]bool{}
	var rets []uint64
	stack := []int{start}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for ; i < len(p.Instrs) && !seen[i]; i++ {
			seen[i] = true
			in := &p.Instrs[i]
			switch in.Op {
			case isa.RET:
				rets = append(rets, in.Addr)
			case isa.HALT:
			case isa.JMP:
				if t, ok := p.IndexOf(in.Target); ok {
					stack = append(stack, t)
				}
			case isa.BR:
				if t, ok := p.IndexOf(in.Target); ok {
					stack = append(stack, t)
				}
				continue // plus fallthrough
			case isa.CALL:
				continue // treat as straight-through (the callee returns)
			case isa.JR:
				for _, t := range c.indirects[in.Addr] {
					if ti, ok := p.IndexOf(t); ok {
						stack = append(stack, ti)
					}
				}
			default:
				continue
			}
			break // control transferred; stop linear scan
		}
	}
	sort.Slice(rets, func(a, b int) bool { return rets[a] < rets[b] })
	return rets
}

// buildBlocks splits the program into basic blocks for reporting.
func (c *CFG) buildBlocks() {
	p := c.Prog
	leader := map[int]bool{0: true}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.IsControl() {
			if i+1 < len(p.Instrs) {
				leader[i+1] = true
			}
			if in.Op == isa.BR || in.Op == isa.JMP || in.Op == isa.CALL {
				if t, ok := p.IndexOf(in.Target); ok {
					leader[t] = true
				}
			}
		}
	}
	var starts []int
	for i := range leader {
		starts = append(starts, i)
	}
	sort.Ints(starts)
	for bi, s := range starts {
		end := len(p.Instrs)
		if bi+1 < len(starts) {
			end = starts[bi+1]
		}
		b := &Block{ID: bi, Start: p.Instrs[s].Addr, End: p.Instrs[end-1].Addr, Size: end - s}
		last := &p.Instrs[end-1]
		switch {
		case last.Op == isa.BR:
			b.Succs = append(b.Succs, last.Target)
			if end < len(p.Instrs) {
				b.Succs = append(b.Succs, p.Instrs[end].Addr)
			}
		case last.Op == isa.JMP || last.Op == isa.CALL:
			b.Succs = append(b.Succs, last.Target)
		case last.Op == isa.RET || last.Op == isa.HALT || last.Op == isa.JR:
		default:
			if end < len(p.Instrs) {
				b.Succs = append(b.Succs, p.Instrs[end].Addr)
			}
		}
		c.Blocks = append(c.Blocks, b)
		c.blockOf[b.Start] = b.ID
	}
}

// BlockAt returns the basic block containing addr.
func (c *CFG) BlockAt(addr uint64) (*Block, bool) {
	idx, ok := c.Prog.IndexOf(addr)
	if !ok {
		return nil, false
	}
	// Walk back to the nearest leader.
	for i := idx; i >= 0; i-- {
		if b, ok := c.blockOf[c.Prog.Instrs[i].Addr]; ok {
			return c.Blocks[b], true
		}
	}
	return nil, false
}

// EdgesTo lists the possible taken arrivals at an instruction address.
func (c *CFG) EdgesTo(addr uint64) []TakenEdge {
	idx, ok := c.Prog.IndexOf(addr)
	if !ok {
		return nil
	}
	out := make([]TakenEdge, len(c.arrivals[idx]))
	for i, a := range c.arrivals[idx] {
		out[i] = a.edge
	}
	return out
}

// Dump renders the blocks and their successors, Figure-6 style.
func (c *CFG) Dump() string {
	s := ""
	for _, b := range c.Blocks {
		s += fmt.Sprintf("BB%-3d %#x..%#x (%d instrs) ->", b.ID, b.Start, b.End, b.Size)
		for _, t := range b.Succs {
			s += fmt.Sprintf(" %#x", t)
		}
		s += "\n"
	}
	return s
}
