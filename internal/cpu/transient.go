package cpu

import (
	"pathfinder/internal/aes"
	"pathfinder/internal/isa"
)

// speculate models the wrong-path execution that follows a mispredicted
// conditional branch at prog.Instrs[idx]. The transient window — how many
// wrong-path instructions execute before the squash — equals the branch's
// resolution delay: at least the pipeline depth (the mispredict penalty),
// and longer when an operand of the branch is still in flight from a cache
// miss. The §9 attack flushes the victim's round count precisely to widen
// this window.
func (m *Machine) speculate(h *Hart, prog *isa.Program, idx int, predictedTaken bool) {
	in := &prog.Instrs[idx]
	window := m.opts.MispredictPenalty
	if resolveAt := maxu(h.ready[in.Rs], h.ready[in.Rt]); resolveAt > m.stats.Cycles {
		if d := int(resolveAt - m.stats.Cycles); d > window {
			window = d
		}
	}
	if window > m.opts.MaxTransientWindow {
		window = m.opts.MaxTransientWindow
	}
	if m.opts.Noise > 0 && m.noise.float() < m.opts.Noise {
		// Noise model: occasionally the branch resolves before any
		// wrong-path work issues (competing execution, replay, partial
		// pipeline flushes); this is what keeps end-to-end success rates
		// below 100% as in the paper's evaluation.
		return
	}

	start := idx + 1
	if predictedTaken {
		ti, ok := transientTarget(prog, in)
		if !ok {
			return
		}
		start = ti
	}
	m.runTransient(h, prog, start, window)
}

// transientTarget resolves a direct transfer on the wrong path: TargetIdx
// when pre-resolved by the assembler, address map otherwise. A hole simply
// stalls speculation rather than erroring.
func transientTarget(prog *isa.Program, in *isa.Instr) (int, bool) {
	if ti := int(in.TargetIdx); ti >= 0 {
		return ti, true
	}
	return prog.IndexOf(in.Target)
}

// transientState is the sandboxed copy of architectural state used on the
// wrong path. Stores land in a private buffer (a store queue that will be
// squashed); loads see the buffer first, then memory. Cache state is shared
// with architectural execution — that is the covert channel.
type transientState struct {
	regs  [isa.NumRegs]uint64
	vregs [isa.NumVRegs][16]byte
	stack []frame
	rng   splitmix64
	store map[uint64]byte
}

func (t *transientState) read8(m *Memory, addr uint64) byte {
	if v, ok := t.store[addr]; ok {
		return v
	}
	return m.Read8(addr)
}

func (t *transientState) read64(m *Memory, addr uint64) uint64 {
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(t.read8(m, addr+i)) << (8 * i)
	}
	return v
}

func (t *transientState) read128(m *Memory, addr uint64) [16]byte {
	var b [16]byte
	for i := range b {
		b[i] = t.read8(m, addr+uint64(i))
	}
	return b
}

func (t *transientState) write(addr uint64, bs ...byte) {
	for i, b := range bs {
		t.store[addr+uint64(i)] = b
	}
}

// runTransient executes up to window instructions starting at startIdx on a
// sandboxed state. Only the shared cache observes the execution. The sandbox
// itself (m.tscr) is reused across mispredicts: execDense is not reentrant,
// and a nested transient BR only consults the predictor — it never
// speculates — so a single scratch state per machine suffices.
func (m *Machine) runTransient(h *Hart, prog *isa.Program, startIdx, window int) {
	ts := &m.tscr
	ts.regs = h.regs
	ts.vregs = h.vregs
	ts.stack = append(ts.stack[:0], h.stack...)
	ts.rng = h.rng
	if ts.store == nil {
		ts.store = make(map[uint64]byte, 16)
	} else {
		clear(ts.store)
	}
	idx := startIdx
	for n := 0; n < window; n++ {
		if idx < 0 || idx >= len(prog.Instrs) {
			return
		}
		in := &prog.Instrs[idx]
		m.stats.TransientInstrs++
		switch in.Op {
		case isa.NOP:
		case isa.HALT, isa.SYSCALL, isa.EENTER, isa.IBPB, isa.CLFLUSH:
			// Serializing or privileged operations do not execute
			// speculatively; the wrong path stalls here until the squash.
			return

		case isa.MOVI:
			ts.regs[in.Rd] = uint64(in.Imm)
		case isa.MOV:
			ts.regs[in.Rd] = ts.regs[in.Rs]
		case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.MUL:
			ts.regs[in.Rd] = alu(in.Op, ts.regs[in.Rs], ts.regs[in.Rt])
		case isa.ADDI:
			ts.regs[in.Rd] = ts.regs[in.Rs] + uint64(in.Imm)
		case isa.XORI:
			ts.regs[in.Rd] = ts.regs[in.Rs] ^ uint64(in.Imm)
		case isa.SHLI:
			ts.regs[in.Rd] = ts.regs[in.Rs] << uint64(in.Imm)
		case isa.SHRI:
			ts.regs[in.Rd] = ts.regs[in.Rs] >> uint64(in.Imm)

		case isa.LD:
			addr := ts.regs[in.Rs] + uint64(in.Imm)
			m.access(addr) // the covert channel
			ts.regs[in.Rd] = ts.read64(m.Mem, addr)
		case isa.LDB:
			addr := ts.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			ts.regs[in.Rd] = uint64(ts.read8(m.Mem, addr))
		case isa.TIMEDLD:
			addr := ts.regs[in.Rs] + uint64(in.Imm)
			lat := m.access(addr)
			ts.regs[in.Rd] = uint64(lat)
		case isa.ST:
			addr := ts.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			v := ts.regs[in.Rt]
			ts.write(addr, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		case isa.STB:
			addr := ts.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			ts.write(addr, byte(ts.regs[in.Rt]))

		case isa.RAND:
			ts.regs[in.Rd] = ts.rng.next()
		case isa.RDCYCLE:
			ts.regs[in.Rd] = m.stats.Cycles

		case isa.VLD:
			addr := ts.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			ts.vregs[in.Vd] = ts.read128(m.Mem, addr)
		case isa.VST:
			addr := ts.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			ts.write(addr, ts.vregs[in.Vd][:]...)
		case isa.VXOR:
			addr := ts.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			ts.vregs[in.Vd] = aes.XorBlocks(ts.vregs[in.Vd], ts.read128(m.Mem, addr))
		case isa.AESENC:
			addr := ts.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			ts.vregs[in.Vd] = aes.EncRound(ts.vregs[in.Vd], ts.read128(m.Mem, addr))
		case isa.AESENCLAST:
			addr := ts.regs[in.Rs] + uint64(in.Imm)
			m.access(addr)
			ts.vregs[in.Vd] = aes.EncLastRound(ts.vregs[in.Vd], ts.read128(m.Mem, addr))

		case isa.BR:
			// Nested speculation follows the predictor without updating it.
			pred := m.cbp.Predict(in.Addr, h.PHR)
			if pred.Taken {
				ti, ok := transientTarget(prog, in)
				if !ok {
					return
				}
				idx = ti
				continue
			}
		case isa.JMP:
			ti, ok := transientTarget(prog, in)
			if !ok {
				return
			}
			idx = ti
			continue
		case isa.CALL:
			ti, ok := transientTarget(prog, in)
			if !ok || idx+1 >= len(prog.Instrs) {
				return
			}
			ts.stack = append(ts.stack, frame{retIdx: idx + 1})
			idx = ti
			continue
		case isa.RET:
			if len(ts.stack) == 0 {
				return
			}
			f := ts.stack[len(ts.stack)-1]
			ts.stack = ts.stack[:len(ts.stack)-1]
			if f.retIdx < 0 || f.retIdx >= len(prog.Instrs) {
				return
			}
			idx = f.retIdx
			continue
		case isa.JR:
			ti, ok := prog.IndexOf(ts.regs[in.Rs])
			if !ok {
				return
			}
			idx = ti
			continue
		default:
			return
		}
		idx++
	}
}
