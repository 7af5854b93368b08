package cpu

import (
	"testing"

	"pathfinder/internal/isa"
)

// allOpsProgram touches every ISA mnemonic the machine implements — scalar
// ALU, byte/word/vector memory, AES rounds, timed loads around a flush, all
// control-transfer kinds (conditional both ways, Brz, Jmp, Call/Ret, Jr,
// Syscall, EEnter) and IBPB — so every dispatch arm of the engine runs in one
// program.
func allOpsProgram(t testing.TB) *isa.Program {
	t.Helper()
	a := isa.NewAssembler()
	a.Label("main")
	a.MovI(isa.R1, 5)
	a.Mov(isa.R2, isa.R1)
	a.Add(isa.R3, isa.R1, isa.R2)
	a.Sub(isa.R4, isa.R3, isa.R1)
	a.And(isa.R5, isa.R3, isa.R1)
	a.Or(isa.R6, isa.R3, isa.R1)
	a.Xor(isa.R7, isa.R3, isa.R1)
	a.XorI(isa.R7, isa.R7, 0x5a)
	a.ShlI(isa.R8, isa.R1, 3)
	a.ShrI(isa.R9, isa.R8, 2)
	a.Mul(isa.R10, isa.R1, isa.R2)
	a.AddI(isa.R11, isa.R10, -3)
	a.MovI(isa.R12, 0x8000)
	a.St(isa.R12, 0, isa.R10)
	a.Ld(isa.R13, isa.R12, 0)
	a.StB(isa.R12, 64, isa.R7)
	a.LdB(isa.R14, isa.R12, 64)
	a.TimedLd(isa.R15, isa.R12, 0)
	a.Clflush(isa.R12, 0)
	a.TimedLd(isa.Reg(16), isa.R12, 0)
	a.Rand(isa.Reg(17))
	a.RdCycle(isa.Reg(18))
	a.VLd(isa.V0, isa.R12, 0)
	a.VXor(isa.V0, isa.R12, 16)
	a.AesEnc(isa.V1, isa.R12, 0)
	a.AesEncLast(isa.V1, isa.R12, 16)
	a.VSt(isa.R12, 32, isa.V1)
	// Conditional branch taken and (on exit) not taken, then Brz against the
	// never-written R20 == R31 == 0.
	a.MovI(isa.Reg(19), 0)
	a.Label("loop")
	a.AddI(isa.Reg(19), isa.Reg(19), 1)
	a.Br(isa.LT, isa.Reg(19), isa.R1, "loop")
	a.Brz(isa.Reg(20), "brz_taken")
	a.Halt() // dead: Brz above always fires
	a.Label("brz_taken")
	a.Call("leaf")
	// Indirect jump through a target the driver plants at 0x9000.
	a.MovI(isa.Reg(21), 0x9000)
	a.Ld(isa.Reg(22), isa.Reg(21), 0)
	a.Jr(isa.Reg(22))
	a.Halt() // dead: jr above always fires
	a.Align(64, 0)
	a.Label("after_jr")
	a.Syscall(1)
	a.EEnter(2)
	a.Ibpb()
	a.Nop()
	a.Jmp("end")
	a.Halt() // dead: jmp above skips it
	a.Label("end")
	a.Halt()
	a.Label("leaf")
	a.AddI(isa.Reg(23), isa.Reg(23), 7)
	a.Ret()
	a.Label("kstub")
	a.AddI(isa.Reg(24), isa.Reg(24), 1)
	a.Ret()
	a.Label("estub")
	a.AddI(isa.Reg(25), isa.Reg(25), 1)
	a.Ret()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// setupAllOps prepares a machine for allOpsProgram: the indirect-jump
// target the program loads from 0x9000, both stub registrations, and IBRS so
// the kernel entry exercises the indirect-predictor flush inside enterStub.
func setupAllOps(m *Machine, p *isa.Program) {
	m.IBRS = true
	m.Mem.Write64(0x9000, p.MustSymbol("after_jr"))
	m.RegisterKernelStub(1, "kstub")
	m.RegisterEnclaveStub(2, "estub")
}

// TestAllOpcodesLaneMatchesStandalone runs the all-mnemonic program on a
// standalone machine and on an arena lane of a batch and requires identical
// architectural and predictor-visible state: no dispatch arm, cold paths
// (stub transfers under IBRS, IBPB, indirect jumps) included, may observe
// arena placement. The engine goldens pin the program's exact outcome.
func TestAllOpcodesLaneMatchesStandalone(t *testing.T) {
	p := allOpsProgram(t)
	opts := Options{Seed: 42}
	run := func(m *Machine) *Machine {
		setupAllOps(m, p)
		if err := m.Run(p, "main"); err != nil {
			t.Fatal(err)
		}
		return m
	}
	solo := run(New(opts))
	lane := run(NewBatch(opts, 3).Lane(2))
	compareLanes(t, "lane-vs-standalone", 2, lane, solo)
	for v := 0; v < isa.NumVRegs; v++ {
		if got, want := lane.Hart(0).VReg(isa.VReg(v)), solo.Hart(0).VReg(isa.VReg(v)); got != want {
			t.Errorf("V%d: lane %x, standalone %x", v, got, want)
		}
	}
	if got, want := lane.Snapshot().Hash(), solo.Snapshot().Hash(); got != want {
		t.Errorf("snapshot hash: lane %#x, standalone %#x", got, want)
	}
	// The stub handlers really ran, in their own domains, and returned.
	h := solo.Hart(0)
	if h.Reg(isa.Reg(23)) != 7 || h.Reg(isa.Reg(24)) != 1 || h.Reg(isa.Reg(25)) != 1 {
		t.Errorf("leaf/kstub/estub side effects missing: R23=%d R24=%d R25=%d",
			h.Reg(isa.Reg(23)), h.Reg(isa.Reg(24)), h.Reg(isa.Reg(25)))
	}
	if h.Domain != User {
		t.Errorf("domain after stub returns = %v, want %v", h.Domain, User)
	}
}

func TestDomainString(t *testing.T) {
	cases := map[Domain]string{
		User:      "user",
		Kernel:    "kernel",
		Enclave:   "enclave",
		Domain(9): "domain(9)",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("Domain(%d).String() = %q, want %q", uint8(d), got, want)
		}
	}
}

func TestMachineAccessors(t *testing.T) {
	m := New(Options{Seed: 1})
	if m.NumHarts() != 1 {
		t.Fatalf("NumHarts = %d, want 1", m.NumHarts())
	}
	if m.Predictor() == nil {
		t.Fatal("Predictor returned nil")
	}
	h := m.Hart(0)
	h.SetReg(isa.R1, 99)
	if h.Reg(isa.R1) != 99 {
		t.Errorf("SetReg/Reg round trip lost the value")
	}
	var v [16]byte
	v[3] = 7
	h.SetVReg(isa.V2, v)
	if h.VReg(isa.V2) != v {
		t.Errorf("SetVReg/VReg round trip lost the value")
	}

	p := allOpsProgram(t)
	setupAllOps(m, p)
	if err := m.Run(p, "main"); err != nil {
		t.Fatal(err)
	}
	loop := p.MustSymbol("loop")
	// The loop branch lives one instruction after the label (the AddI).
	br, ok := p.At(loop + 4)
	if !ok || !br.IsCondBranch() {
		// Address stride may differ; find the back edge by scanning.
		for i := range p.Instrs {
			if p.Instrs[i].IsCondBranch() && p.Instrs[i].Target == loop {
				br = &p.Instrs[i]
				break
			}
		}
	}
	st := m.Branch(br.Addr)
	if st.Executed == 0 {
		t.Fatalf("no stats recorded for the loop branch at %#x", br.Addr)
	}
	if r := st.MispredictRate(); r < 0 || r > 1 {
		t.Errorf("MispredictRate = %v, want within [0,1]", r)
	}
	if (BranchStat{}).MispredictRate() != 0 {
		t.Error("MispredictRate of an unexecuted branch should be 0")
	}
	m.ResetStats()
	if s := m.Stats(); s.Instructions != 0 || s.CondBranches != 0 {
		t.Errorf("ResetStats left counters behind: %+v", s)
	}
	if st := m.Branch(br.Addr); st.Executed != 0 {
		t.Errorf("ResetStats left per-branch stats behind: %+v", st)
	}

	src := []byte("pathfinder")
	m.Mem.WriteBytes(0x4000, src)
	dst := make([]byte, len(src))
	m.Mem.ReadBytes(0x4000, dst)
	if string(dst) != string(src) {
		t.Errorf("ReadBytes = %q, want %q", dst, src)
	}
	m.Mem.Reset()
	m.Mem.ReadBytes(0x4000, dst)
	for _, b := range dst {
		if b != 0 {
			t.Fatalf("memory survived Reset: %q", dst)
		}
	}
}
