package pathfinder

import (
	"fmt"
	"strings"

	"pathfinder/internal/isa"
	"pathfinder/internal/phr"
)

// Step is one recovered branch event, in execution order.
type Step struct {
	Addr        uint64
	Target      uint64 // meaningful when Taken
	Taken       bool
	Conditional bool
	Kind        EdgeKind // for taken steps
}

func (s Step) String() string {
	dir := "T"
	if !s.Taken {
		dir = "N"
	}
	if s.Conditional {
		return fmt.Sprintf("%#x:%s", s.Addr, dir)
	}
	return fmt.Sprintf("%#x:%s->%#x", s.Addr, s.Kind, s.Target)
}

// Path is one execution history consistent with the observed PHR.
type Path struct {
	Steps []Step
	// Complete is true when the path reaches the entry with the whole known
	// history window accounted for (an all-zero remainder, matching the
	// cleared-PHR start of the capture protocol).
	Complete bool
}

// Outcomes returns the ordered conditional-branch outcomes of the path —
// the per-instance taken/not-taken stream the paper highlights as
// unavailable to PHT-only attacks.
func (p Path) Outcomes() []Step {
	var out []Step
	for _, s := range p.Steps {
		if s.Conditional {
			out = append(out, s)
		}
	}
	return out
}

// VisitCount returns how many times the branch at addr executed (any
// direction) along the path.
func (p Path) VisitCount(addr uint64) int {
	n := 0
	for _, s := range p.Steps {
		if s.Addr == addr {
			n++
		}
	}
	return n
}

// TakenCount returns how many times the branch at addr was taken.
func (p Path) TakenCount(addr uint64) int {
	n := 0
	for _, s := range p.Steps {
		if s.Addr == addr && s.Taken {
			n++
		}
	}
	return n
}

// BlockSequence maps the path to the basic blocks visited between entry and
// final, collapsing consecutive duplicates — the Figure 6 view. Use
// Path.VisitCount / TakenCount for loop trip counts.
func (p Path) BlockSequence(c *CFG, entry, final uint64) []int {
	var seq []int
	push := func(addr uint64) {
		if b, ok := c.BlockAt(addr); ok {
			if len(seq) == 0 || seq[len(seq)-1] != b.ID {
				seq = append(seq, b.ID)
			}
		}
	}
	push(entry)
	for _, s := range p.Steps {
		push(s.Addr)
		if s.Taken {
			push(s.Target)
		}
	}
	push(final)
	return seq
}

func (p Path) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "path(%d steps, complete=%v):", len(p.Steps), p.Complete)
	for _, s := range p.Steps {
		b.WriteByte(' ')
		b.WriteString(s.String())
	}
	return b.String()
}

// Spec describes one path-recovery problem.
type Spec struct {
	// Observed is the PHR window recovered by Read_PHR (doublet 0 most
	// recent).
	Observed *phr.Reg
	// Ext holds doublets beyond the window from Extended_Read_PHR:
	// Ext[0] is the first doublet shifted out (history position Size),
	// Ext[1] the next older one, and so on.
	Ext []phr.Doublet
	// Entry is the victim's entry address; recovery stops there.
	Entry uint64
	// Final is the address at which execution ended: the instruction after
	// the last executed one (a return pad, HALT, or the final RET itself).
	Final uint64
	// MaxNodes caps the search (default 4M states).
	MaxNodes int
	// MaxPaths caps how many paths Search returns (default 16).
	MaxPaths int
	// MaxReversals, when positive, stops each search branch after that many
	// taken-branch reversals and emits the (incomplete) suffix. The
	// Extended Read PHR driver uses this as a bounded lookahead.
	MaxReversals int
}

// NodeID names one state of a search DAG.
type NodeID int32

// NoNode is the NodeID of an absent state (DAG.Deepest when the search
// found no truncation point).
const NoNode NodeID = -1

// Edge is one DAG edge: From is the earlier state, To the later one, and
// Step the branch event between them (HasStep false = plain fallthrough or
// a SYSCALL/EENTER transfer, neither of which the PHR sees).
type Edge struct {
	From, To NodeID
	Step     Step
	HasStep  bool
}

// DAG is the full result of a backward search: every observation-consistent
// execution suffix, shared-substructure-compressed. Each state is the
// working register after R reversals, positioned at an instruction; states
// reached along different histories merge, turning the search tree into a
// DAG and keeping systematically ambiguous programs (repeated blocks,
// colliding footprints) tractable. Terminals are the verified entry states
// (complete recoveries) in discovery order; Deepest is the first truncated
// state with the most reversals.
//
// States and edges live in flat, pointer-free arenas addressed by NodeID,
// so a search of millions of states gives the garbage collector nothing to
// scan; the accessors below are the read-only view.
type DAG struct {
	Root      NodeID // the final state the search started from
	Terminals []NodeID
	Deepest   NodeID

	prog   *isa.Program
	size   int // PHR doublets
	nodes  arena[node]
	edges  arena[Edge] // each node's predecessor edges, one contiguous run per node
	succs  []Edge      // all edges grouped by From, in creation order per group
	succAt []int32     // node n's successors are succs[succAt[n]:succAt[n+1]]
}

// node is one search state. Its predecessor edges are the run
// edges[pred0 : pred0+npred], all created while the node was expanded.
type node struct {
	reg   [7]uint64 // packed PHR content (phr.Reg.Words)
	idx   int32     // instruction index
	r     int32     // reversals between here and the final state
	pred0 int32
	npred int32
	flags uint8
}

const (
	flagComplete  uint8 = 1 << iota // at the entry with a verified zero start
	flagAlive                       // can reach a truncation point or a terminal
	flagTruncated                   // history exhausted or lookahead bound hit
)

// Addr returns the instruction address of state n.
func (d *DAG) Addr(n NodeID) uint64 { return d.prog.Instrs[d.nodes.at(int32(n)).idx].Addr }

// R returns the number of reversals between state n and the final state.
func (d *DAG) R(n NodeID) int { return int(d.nodes.at(int32(n)).r) }

// Reg returns a fresh copy of the PHR value at state n.
func (d *DAG) Reg(n NodeID) *phr.Reg { return phr.FromWords(d.size, d.nodes.at(int32(n)).reg) }

// Alive reports whether the backward walk from state n can still reach a
// truncation point or a verified entry; dead states are search hypotheses
// that ran out of consistent predecessors.
func (d *DAG) Alive(n NodeID) bool { return d.nodes.at(int32(n)).flags&flagAlive != 0 }

// Complete reports whether state n is at the entry with a verified zero
// start.
func (d *DAG) Complete(n NodeID) bool { return d.nodes.at(int32(n)).flags&flagComplete != 0 }

// Preds lists every observation-consistent way state n could have been
// reached: edges leading backward in time. The slice is read-only.
func (d *DAG) Preds(n NodeID) []Edge {
	nd := d.nodes.at(int32(n))
	return d.edges.run(nd.pred0, nd.npred)
}

// Succs lists the edges leading forward in time from state n toward the
// final state. A conditional branch state with both continuations
// consistent has two, a junction. The slice is read-only.
func (d *DAG) Succs(n NodeID) []Edge { return d.succs[d.succAt[n]:d.succAt[n+1]:d.succAt[n+1]] }

// arena is a paged, append-only store: growth adds a page and never moves
// existing elements, so a search of millions of states neither copies nor
// invalidates what it has built.
type arena[T any] struct {
	shift uint
	pages [][]T
	n     int32 // next free index
}

func (a *arena[T]) at(i int32) *T { return &a.pages[i>>a.shift][i&(1<<a.shift-1)] }

// alloc returns the index of a fresh zero element and a pointer to it,
// for the caller to fill in place.
func (a *arena[T]) alloc() (int32, *T) {
	if int(a.n) == len(a.pages)<<a.shift {
		a.pages = append(a.pages, make([]T, 1<<a.shift))
	}
	i := a.n
	a.n++
	return i, a.at(i)
}

// reserve guarantees that the next k allocs land on one page, skipping the
// tail of the current page if needed, so they can be read back as one
// slice. k must not exceed the page size.
func (a *arena[T]) reserve(k int) {
	if off := int(a.n) & (1<<a.shift - 1); off != 0 && off+k > 1<<a.shift {
		a.n = int32(len(a.pages)) << a.shift
	}
}

// run returns the k elements from index i, which reserve placed on one page,
// capped so that an append by the caller cannot overwrite the next run.
func (a *arena[T]) run(i, k int32) []T {
	if k == 0 {
		return nil
	}
	off := i & (1<<a.shift - 1)
	return a.pages[i>>a.shift][off : off+k : off+k]
}

// nodePageShift sizes node pages at 4096 states (320 KiB).
const nodePageShift = 12

type searcher struct {
	c     *CFG
	spec  Spec
	d     *DAG
	entry int32 // instruction index of spec.Entry, -1 if none

	// tables[r] indexes the states with r reversals. The breadth-first
	// frontier spans few reversal counts at a time, so the tables it
	// probes stay cache-resident where one table over every state would
	// miss on almost every lookup (nearly all lookups create a state).
	tables []dedupTable
}

// dedupTable is an open-addressed index over (idx, reg) for one reversal
// count, kept at most half full. A slot holds the key's 32-bit hash
// fingerprint above its NodeID+1, 0 when empty; the home slot is the
// fingerprint's top bits (len(slots) == 1<<(32-shift)), so probes compare
// fingerprints and read a node only on a likely match.
type dedupTable struct {
	slots []uint64
	shift uint
	n     int
}

// dedupInitBits sizes a fresh per-reversal table at 64 slots.
const dedupInitBits = 6

// Search recovers the execution paths consistent with the observed PHR.
// Most programs yield exactly one complete path (§6); crafted ambiguity,
// footprint collisions or exhausted history windows can yield several or
// incomplete ones.
func (c *CFG) Search(spec Spec) ([]Path, error) {
	if spec.MaxPaths == 0 {
		spec.MaxPaths = 16
	}
	dag, err := c.SearchDAG(spec)
	if err != nil {
		return nil, err
	}
	if len(dag.Terminals) > 0 {
		return dag.paths(dag.Terminals, true, spec.MaxPaths), nil
	}
	if dag.Deepest != NoNode {
		return dag.paths([]NodeID{dag.Deepest}, false, spec.MaxPaths), nil
	}
	return nil, nil
}

// SearchDAG runs the backward search and returns the full state DAG, for
// callers (like Extended Read PHR) that resolve ambiguity with additional
// side-channel measurements rather than path enumeration.
//
// The search is breadth-first in state creation order: NodeIDs are handed
// out in that order, so the expansion queue is the ID sequence itself
// (terminal states are never expanded).
func (c *CFG) SearchDAG(spec Spec) (*DAG, error) {
	if spec.Observed == nil {
		return nil, fmt.Errorf("pathfinder: Spec.Observed required")
	}
	if spec.MaxNodes == 0 {
		spec.MaxNodes = 4 << 20
	}
	idx, ok := c.Prog.IndexOf(spec.Final)
	if !ok {
		return nil, fmt.Errorf("pathfinder: final position %#x is not an instruction", spec.Final)
	}
	// Every predecessor run of one state must fit on one edge page.
	maxPreds := 1
	for i := range c.arrivals {
		maxPreds = max(maxPreds, len(c.arrivals[i])+len(c.transfers[i])+1)
	}
	edgeShift := uint(12)
	for 1<<edgeShift < maxPreds {
		edgeShift++
	}
	d := &DAG{
		Deepest: NoNode,
		prog:    c.Prog,
		size:    spec.Observed.Size(),
		nodes:   arena[node]{shift: nodePageShift},
		edges:   arena[Edge]{shift: edgeShift},
	}
	s := &searcher{c: c, spec: spec, d: d, entry: -1}
	if e, ok := c.Prog.IndexOf(spec.Entry); ok {
		s.entry = int32(e)
	}
	root := spec.Observed.Words()
	rootID, _ := s.intern(int32(idx), &root, 0)
	d.Root = NodeID(rootID)
	for id := int32(0); id < d.nodes.n; id++ {
		nd := d.nodes.at(id)
		if nd.flags&flagComplete != 0 {
			continue
		}
		if int(d.nodes.n) > spec.MaxNodes {
			return nil, fmt.Errorf("pathfinder: search exceeded %d states", spec.MaxNodes)
		}
		s.expand(id, nd, maxPreds)
	}
	d.buildSuccs()
	d.markAlive()
	return d, nil
}

// known returns how many doublets of the working register are still
// trustworthy after r reversals.
func (s *searcher) known(r int) int {
	n := s.d.size
	over := r - len(s.spec.Ext)
	if over > 0 {
		n -= over
	}
	return n
}

// zeroKnown reports whether the working register is consistent with the
// cleared-PHR start after r reversals. Position p of the register is
// trustworthy unless it was refilled by a reversal whose shifted-out
// doublet is genuinely unknown: refill r' lands at position size-r+r', is
// oracle-verified for r' < len(Ext), and is *provably zero under this
// path hypothesis* once its history position exceeds the last branch's
// footprint reach (positions >= FootprintDoublets). Only the window
// [size-r+len(Ext), FootprintDoublets) is unverifiable; the Extended Read
// driver keeps that window empty before accepting a path.
func (s *searcher) zeroKnown(reg *[7]uint64, r int) bool {
	n := s.d.size
	lo := n - r + len(s.spec.Ext) // first untrusted refill position
	for p := 0; p < n; p++ {
		if p >= lo && p < phr.FootprintDoublets {
			continue // genuinely unknown refill; not checkable
		}
		if phr.WordsDoublet(reg, p) != 0 {
			return false
		}
	}
	return true
}

// hashState mixes a state key into a 64-bit hash. The idx/r word is
// multiplied before the register words are folded in, so a difference in
// the position cannot cancel one in the low doublets.
func hashState(idx int32, reg *[7]uint64, r int32) uint64 {
	h := (uint64(uint32(idx)) | uint64(uint32(r))<<32) * 0xbf58476d1ce4e5b9
	for _, w := range reg {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h * 0x94d049bb133111eb
}

// intern returns the state (idx, reg, r), creating it when first seen.
func (s *searcher) intern(idx int32, reg *[7]uint64, r int32) (int32, bool) {
	for int(r) >= len(s.tables) {
		s.tables = append(s.tables, dedupTable{slots: make([]uint64, 1<<dedupInitBits), shift: 32 - dedupInitBits})
	}
	t := &s.tables[r]
	fp := hashState(idx, reg, r) >> 32
	mask := len(t.slots) - 1
	i := int(fp >> t.shift)
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if e := t.slots[i]; e>>32 == fp {
			id := int32(uint32(e)) - 1
			if nd := s.d.nodes.at(id); nd.idx == idx && nd.reg == *reg {
				return id, false
			}
		}
	}
	id, nd := s.d.nodes.alloc()
	nd.reg, nd.idx, nd.r = *reg, idx, r
	t.slots[i] = fp<<32 | uint64(id+1)
	if t.n++; 2*t.n > len(t.slots) {
		t.grow()
	}
	return id, true
}

// grow doubles the table. Slots carry their key's fingerprint, which is also
// its home position, so the old table is rehashed by one sequential scan
// without touching a node.
func (t *dedupTable) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int((e >> 32) >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// link records that predecessor state (idx, reg, r) leads to state to via
// step, creating the predecessor when first seen. A new state at the entry
// becomes a terminal when its zero start verifies.
func (s *searcher) link(to int32, idx int32, reg *[7]uint64, r int32, step Step, hasStep bool) {
	from, fresh := s.intern(idx, reg, r)
	if fresh && idx == s.entry {
		// A path is complete only when every refill it used was verified:
		// refills beyond Ext are sound only where the history position
		// provably precedes the first taken branch (cleared PHR), bounding
		// the reversal count.
		verifiable := int(r) <= len(s.spec.Ext)+s.d.size-phr.FootprintDoublets
		if verifiable && s.zeroKnown(reg, int(r)) {
			s.d.nodes.at(from).flags |= flagComplete
			s.d.Terminals = append(s.d.Terminals, NodeID(from))
		}
	}
	_, e := s.d.edges.alloc()
	e.From, e.To, e.Step, e.HasStep = NodeID(from), NodeID(to), step, hasStep
}

// expand enumerates the possible predecessors of a state. Its predecessor
// edges are created here and nowhere else, which is what makes them one
// contiguous run (at most maxPreds long).
func (s *searcher) expand(id int32, nd *node, maxPreds int) {
	r := int(nd.r)
	if s.known(r) <= 0 || (s.spec.MaxReversals > 0 && r >= s.spec.MaxReversals) {
		// History exhausted or lookahead bound: candidate truncation point.
		nd.flags |= flagTruncated
		if d := s.d; d.Deepest == NoNode || nd.r > d.nodes.at(int32(d.Deepest)).r {
			d.Deepest = NodeID(id)
		}
		return
	}
	d, c := s.d, s.c
	d.edges.reserve(maxPreds)
	start := d.edges.n
	reg := nd.reg
	pos := c.Prog.Instrs[nd.idx].Addr

	// Arrival by a taken branch.
	var top phr.Doublet
	if r < len(s.spec.Ext) {
		top = s.spec.Ext[r]
	}
	for _, a := range c.arrivals[nd.idx] {
		e := &a.edge
		if uint64(e.Footprint&3) != reg[0]&3 || a.fromIdx < 0 {
			continue // the paper's lowest-doublet pruning
		}
		next := reg
		phr.ReverseWords(&next, d.size, e.Footprint, top)
		s.link(id, a.fromIdx, &next, nd.r+1, Step{
			Addr: e.From, Target: pos, Taken: true,
			Conditional: e.Kind == EdgeCondTaken, Kind: e.Kind,
		}, true)
	}

	// Arrival by a SYSCALL/EENTER transfer (not PHR-visible).
	for _, from := range c.transfers[nd.idx] {
		s.link(id, from, &reg, nd.r, Step{}, false)
	}

	// Arrival by falling through from the previous instruction.
	if nd.idx > 0 {
		prev := &c.Prog.Instrs[nd.idx-1]
		switch prev.Op {
		case isa.JMP, isa.CALL, isa.RET, isa.JR, isa.HALT, isa.SYSCALL, isa.EENTER:
			// cannot fall through
		case isa.BR:
			s.link(id, nd.idx-1, &reg, nd.r, Step{Addr: prev.Addr, Taken: false, Conditional: true}, true)
		default:
			s.link(id, nd.idx-1, &reg, nd.r, Step{}, false)
		}
	}
	nd.pred0, nd.npred = start, d.edges.n-start
}

// buildSuccs groups every edge by its From state with a stable counting
// sort. Edges are visited in creation order (states in ID order, each
// state's predecessor run in link order), so each successor list keeps the
// order in which the search discovered it.
func (d *DAG) buildSuccs() {
	n := d.nodes.n
	d.succAt = make([]int32, n+1)
	total := int32(0)
	for id := int32(0); id < n; id++ {
		for _, e := range d.Preds(NodeID(id)) {
			d.succAt[e.From+1]++
			total++
		}
	}
	for i := int32(1); i <= n; i++ {
		d.succAt[i] += d.succAt[i-1]
	}
	d.succs = make([]Edge, total)
	fill := make([]int32, n)
	copy(fill, d.succAt[:n])
	for id := int32(0); id < n; id++ {
		for _, e := range d.Preds(NodeID(id)) {
			d.succs[fill[e.From]] = e
			fill[e.From]++
		}
	}
}

// markAlive flags every state that can reach a truncation point or a
// complete entry state by walking predecessors, by propagating aliveness
// forward along successor edges from those anchor states.
func (d *DAG) markAlive() {
	var stack []NodeID
	for id := int32(0); id < d.nodes.n; id++ {
		if nd := d.nodes.at(id); nd.flags&(flagTruncated|flagComplete) != 0 {
			nd.flags |= flagAlive
			stack = append(stack, NodeID(id))
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range d.Succs(n) {
			if to := d.nodes.at(int32(e.To)); to.flags&flagAlive == 0 {
				to.flags |= flagAlive
				stack = append(stack, e.To)
			}
		}
	}
}

// paths enumerates forward paths from the given start states through the
// successor DAG, up to limit.
func (d *DAG) paths(starts []NodeID, complete bool, limit int) []Path {
	var out []Path
	var steps []Step
	var walk func(n NodeID)
	walk = func(n NodeID) {
		if len(out) >= limit {
			return
		}
		succs := d.Succs(n)
		if len(succs) == 0 {
			cp := make([]Step, len(steps))
			copy(cp, steps)
			out = append(out, Path{Steps: cp, Complete: complete})
			return
		}
		for _, e := range succs {
			if e.HasStep {
				steps = append(steps, e.Step)
			}
			walk(e.To)
			if e.HasStep {
				steps = steps[:len(steps)-1]
			}
		}
	}
	for _, st := range starts {
		if len(out) >= limit {
			break
		}
		walk(st)
	}
	return out
}
