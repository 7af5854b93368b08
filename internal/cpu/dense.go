package cpu

import (
	"fmt"

	"pathfinder/internal/aes"
	"pathfinder/internal/bpu"
	"pathfinder/internal/isa"
)

// This file is the machine's execution engine: a flattened-dispatch
// interpreter over a predecoded instruction stream. Every architectural run
// executes here; runTransient (transient.go) is the separate sandboxed
// wrong-path model. The engine goldens (testdata/engine_golden.json, recorded
// from the original scalar reference interpreter) pin its exact behaviour on
// every hook combination, and FuzzEngineVsOracle holds it to the refmodel
// oracle.
//
// Why the stream is dense:
//
//   - denseInstr is 40 bytes against isa.Instr's 72 and drops the Sym
//     string, so the dispatch loop walks a compact, pointer-free stream.
//   - Direct control transfers are pre-resolved to program indices at
//     decode time, so hand-built instructions resolve once, not per run.
//   - The built-in predictor is called through the concrete bpu.CBP fast
//     paths (PredictReg, UpdateReg), which devirtualize the fold and memo
//     probes all the way down to *phr.Reg.
//   - Instruction and cycle counts accumulate in locals and are flushed to
//     m.stats only around the cold paths that observe them.
//
// Hooks — the fault injector, the TraceTaken observer and an
// Options.NewPredictor substitute — are hoisted into locals and guarded by
// nil checks inline, so a hook-free run pays only predictable branches and
// no out-of-line call. Armed hooks fire in a fixed order, which is what
// keeps faulted runs deterministic:
//
//   - conditional branch: predict, speculate on a mispredict, then
//     Injector.TrainingTarget filters the predictor update (trainHooked);
//   - taken branch: TraceTaken, the PHR update, Injector.BranchEvent, then
//     the BTB/IBP insert;
//   - data access: the cache access, then Injector.CacheEvict and
//     Injector.JitterLatency (faultAccess).

// denseInstr is one predecoded instruction.
type denseInstr struct {
	addr      uint64
	imm       int64
	target    uint64
	targetIdx int32 // pre-resolved program index; -1 = unresolvable hole
	op        isa.Op
	cond      isa.Cond
	rd, rs    uint8
	rt, vd    uint8
}

// denseFor returns the predecoded stream for prog, rebuilding it when the
// program's version moved (Reindex bumps it after in-place mutation).
func (m *Machine) denseFor(ps *progState, prog *isa.Program) []denseInstr {
	if ps.denseOK && ps.denseVersion == prog.Version() && len(ps.dense) == len(prog.Instrs) {
		return ps.dense
	}
	if cap(ps.dense) < len(prog.Instrs) {
		ps.dense = make([]denseInstr, len(prog.Instrs))
	}
	ps.dense = ps.dense[:len(prog.Instrs)]
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		d := &ps.dense[i]
		*d = denseInstr{
			addr:      in.Addr,
			imm:       in.Imm,
			target:    in.Target,
			targetIdx: in.TargetIdx,
			op:        in.Op,
			cond:      in.Cond,
			rd:        uint8(in.Rd),
			rs:        uint8(in.Rs),
			rt:        uint8(in.Rt),
			vd:        uint8(in.Vd),
		}
		if d.targetIdx < 0 && (in.Op == isa.BR || in.Op == isa.JMP || in.Op == isa.CALL) {
			// Hand-built instructions: resolve through the address map once
			// at decode time instead of per execution. A hole stays -1 and
			// errors when the transfer executes.
			if ti, ok := prog.IndexOf(in.Target); ok {
				d.targetIdx = int32(ti)
			}
		}
	}
	ps.denseVersion = prog.Version()
	ps.denseOK = true
	return ps.dense
}

// execDense runs prog on hart h from program index idx until HALT, a
// return from the entry frame, or an error. See the file comment for the
// hook contract.
func (m *Machine) execDense(h *Hart, prog *isa.Program, idx int) error {
	ps := m.progState(prog)
	code := m.denseFor(ps, prog)
	cbp := m.BPU.CBP
	inj, trace := m.inj, m.TraceTaken
	var custom bpu.Predictor // non-nil only for an Options.NewPredictor machine
	if m.opts.NewPredictor != nil {
		custom = m.cbp
	}
	steps := uint64(0)
	limit := m.opts.StepLimit
	// Local counter images; flushStats writes them back before any cold
	// path that reads m.stats (speculate, RDCYCLE) and before returning.
	instrs, cycles := m.stats.Instructions, m.stats.Cycles
	flushStats := func() {
		m.stats.Instructions, m.stats.Cycles = instrs, cycles
	}
	for {
		if idx < 0 || idx >= len(code) {
			flushStats()
			return fmt.Errorf("cpu: execution ran off the program (index %d)", idx)
		}
		if steps >= limit {
			flushStats()
			return fmt.Errorf("cpu: step limit %d exceeded at %#x", limit, code[idx].addr)
		}
		steps++
		instrs++
		cycles++
		in := &code[idx]

		switch in.op {
		case isa.NOP:
		case isa.HALT:
			flushStats()
			return nil

		case isa.MOVI:
			h.regs[in.rd] = uint64(in.imm)
			h.ready[in.rd] = cycles
		case isa.MOV:
			h.regs[in.rd] = h.regs[in.rs]
			h.ready[in.rd] = maxu(cycles, h.ready[in.rs])
		case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.MUL:
			h.regs[in.rd] = alu(in.op, h.regs[in.rs], h.regs[in.rt])
			h.ready[in.rd] = maxu(cycles, maxu(h.ready[in.rs], h.ready[in.rt]))
		case isa.ADDI:
			h.regs[in.rd] = h.regs[in.rs] + uint64(in.imm)
			h.ready[in.rd] = maxu(cycles, h.ready[in.rs])
		case isa.XORI:
			h.regs[in.rd] = h.regs[in.rs] ^ uint64(in.imm)
			h.ready[in.rd] = maxu(cycles, h.ready[in.rs])
		case isa.SHLI:
			h.regs[in.rd] = h.regs[in.rs] << uint64(in.imm)
			h.ready[in.rd] = maxu(cycles, h.ready[in.rs])
		case isa.SHRI:
			h.regs[in.rd] = h.regs[in.rs] >> uint64(in.imm)
			h.ready[in.rd] = maxu(cycles, h.ready[in.rs])

		case isa.LD, isa.LDB, isa.TIMEDLD:
			addr := h.regs[in.rs] + uint64(in.imm)
			lat, _ := m.Data.Access(addr)
			if inj != nil {
				lat = m.faultAccess(lat)
			}
			switch in.op {
			case isa.LD:
				h.regs[in.rd] = m.Mem.Read64(addr)
			case isa.LDB:
				h.regs[in.rd] = uint64(m.Mem.Read8(addr))
			case isa.TIMEDLD:
				h.regs[in.rd] = uint64(lat)
			}
			h.ready[in.rd] = cycles + uint64(lat)
		case isa.ST:
			addr := h.regs[in.rs] + uint64(in.imm)
			lat, _ := m.Data.Access(addr)
			if inj != nil {
				m.faultAccess(lat)
			}
			m.Mem.Write64(addr, h.regs[in.rt])
		case isa.STB:
			addr := h.regs[in.rs] + uint64(in.imm)
			lat, _ := m.Data.Access(addr)
			if inj != nil {
				m.faultAccess(lat)
			}
			m.Mem.Write8(addr, byte(h.regs[in.rt]))
		case isa.CLFLUSH:
			m.Data.Flush(h.regs[in.rs] + uint64(in.imm))

		case isa.RAND:
			h.regs[in.rd] = h.rng.next()
			h.ready[in.rd] = cycles
		case isa.RDCYCLE:
			h.regs[in.rd] = cycles
			h.ready[in.rd] = cycles

		case isa.VLD:
			addr := h.regs[in.rs] + uint64(in.imm)
			lat, _ := m.Data.Access(addr)
			if inj != nil {
				m.faultAccess(lat)
			}
			h.vregs[in.vd] = m.Mem.Read128(addr)
		case isa.VST:
			addr := h.regs[in.rs] + uint64(in.imm)
			lat, _ := m.Data.Access(addr)
			if inj != nil {
				m.faultAccess(lat)
			}
			m.Mem.Write128(addr, h.vregs[in.vd])
		case isa.VXOR:
			addr := h.regs[in.rs] + uint64(in.imm)
			lat, _ := m.Data.Access(addr)
			if inj != nil {
				m.faultAccess(lat)
			}
			h.vregs[in.vd] = aes.XorBlocks(h.vregs[in.vd], m.Mem.Read128(addr))
		case isa.AESENC:
			addr := h.regs[in.rs] + uint64(in.imm)
			lat, _ := m.Data.Access(addr)
			if inj != nil {
				m.faultAccess(lat)
			}
			h.vregs[in.vd] = aes.EncRound(h.vregs[in.vd], m.Mem.Read128(addr))
		case isa.AESENCLAST:
			addr := h.regs[in.rs] + uint64(in.imm)
			lat, _ := m.Data.Access(addr)
			if inj != nil {
				m.faultAccess(lat)
			}
			h.vregs[in.vd] = aes.EncLastRound(h.vregs[in.vd], m.Mem.Read128(addr))

		case isa.BR:
			taken := in.cond.Eval(h.regs[in.rs], h.regs[in.rt])
			var pred bpu.Prediction
			if custom == nil {
				pred = cbp.PredictReg(in.addr, h.PHR)
			} else {
				pred = custom.Predict(in.addr, h.PHR)
			}
			ref := &ps.stats[idx]
			if ref.s == nil || ref.addr != in.addr {
				ref.addr, ref.s = in.addr, m.branchStat(in.addr)
			}
			st := ref.s
			st.Executed++
			m.stats.CondBranches++
			if taken {
				st.Taken++
			}
			if pred.Taken != taken {
				st.Mispredicted++
				m.stats.Mispredicts++
				flushStats()
				m.speculate(h, prog, idx, pred.Taken)
				cycles = m.stats.Cycles + uint64(m.opts.MispredictPenalty)
			}
			if inj == nil && custom == nil {
				cbp.UpdateReg(in.addr, h.PHR, taken, pred)
			} else {
				m.trainHooked(in.addr, h, taken, pred)
			}
			if taken {
				if trace != nil {
					trace(in.addr, in.target)
				}
				h.PHR.UpdateBranch(in.addr, in.target)
				if inj != nil {
					inj.BranchEvent(h.PHR)
				}
				m.stats.TakenBranches++
				m.BPU.BTB.Insert(in.addr, in.target)
				if in.targetIdx < 0 {
					flushStats()
					return fmt.Errorf("cpu: branch at %#x to hole %#x", in.addr, in.target)
				}
				idx = int(in.targetIdx)
				continue
			}

		case isa.JMP:
			if trace != nil {
				trace(in.addr, in.target)
			}
			h.PHR.UpdateBranch(in.addr, in.target)
			if inj != nil {
				inj.BranchEvent(h.PHR)
			}
			m.stats.TakenBranches++
			m.BPU.BTB.Insert(in.addr, in.target)
			if in.targetIdx < 0 {
				flushStats()
				return fmt.Errorf("cpu: jmp at %#x to hole %#x", in.addr, in.target)
			}
			idx = int(in.targetIdx)
			continue

		case isa.CALL:
			if idx+1 >= len(code) {
				flushStats()
				return fmt.Errorf("cpu: call at %#x has no return point", in.addr)
			}
			h.stack = append(h.stack, frame{retIdx: idx + 1})
			if trace != nil {
				trace(in.addr, in.target)
			}
			h.PHR.UpdateBranch(in.addr, in.target)
			if inj != nil {
				inj.BranchEvent(h.PHR)
			}
			m.stats.TakenBranches++
			m.BPU.BTB.Insert(in.addr, in.target)
			if in.targetIdx < 0 {
				flushStats()
				return fmt.Errorf("cpu: call at %#x to hole %#x", in.addr, in.target)
			}
			idx = int(in.targetIdx)
			continue

		case isa.RET:
			if len(h.stack) == 0 {
				flushStats()
				return nil // return from the entry frame ends the run
			}
			f := h.stack[len(h.stack)-1]
			h.stack = h.stack[:len(h.stack)-1]
			if f.restoreDomain {
				h.Domain = f.prevDomain
			}
			if f.retIdx < 0 || f.retIdx >= len(code) {
				flushStats()
				return nil
			}
			target := code[f.retIdx].addr
			if trace != nil {
				trace(in.addr, target)
			}
			h.PHR.UpdateBranch(in.addr, target)
			if inj != nil {
				inj.BranchEvent(h.PHR)
			}
			m.stats.TakenBranches++
			m.BPU.IBP.Insert(in.addr, h.PHR, target)
			idx = f.retIdx
			continue

		case isa.JR:
			target := h.regs[in.rs]
			ti, ok := prog.IndexOf(target)
			if !ok {
				flushStats()
				return fmt.Errorf("cpu: jr at %#x to hole %#x", in.addr, target)
			}
			if trace != nil {
				trace(in.addr, target)
			}
			h.PHR.UpdateBranch(in.addr, target)
			if inj != nil {
				inj.BranchEvent(h.PHR)
			}
			m.stats.TakenBranches++
			m.BPU.IBP.Insert(in.addr, h.PHR, target)
			idx = ti
			continue

		case isa.SYSCALL, isa.EENTER:
			ti, err := m.enterStub(h, prog, idx, in.op, in.imm, in.addr)
			if err != nil {
				flushStats()
				return err
			}
			idx = ti
			continue

		case isa.IBPB:
			m.BPU.IBPB()

		default:
			flushStats()
			return fmt.Errorf("cpu: unimplemented op %v at %#x", in.op, in.addr)
		}
		idx++
	}
}

// trainHooked applies one conditional branch's predictor update on a machine
// with an armed injector or a custom predictor: the injector may drop the
// update (counter decay) or land it on an aliased PC (destructive
// interference), and the update reaches the predictor through the
// bpu.Predictor interface.
func (m *Machine) trainHooked(pc uint64, h *Hart, taken bool, pred bpu.Prediction) {
	if m.inj != nil {
		var ok bool
		if pc, ok = m.inj.TrainingTarget(pc); !ok {
			return
		}
	}
	m.cbp.Update(pc, h.PHR, taken, pred)
}
