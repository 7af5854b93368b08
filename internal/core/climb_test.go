package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/jpeg"
	"pathfinder/internal/media"
	"pathfinder/internal/pathfinder"
)

// chainVictim mimics the image victim's shape in-package: a loop with a
// per-iteration secret branch, long enough to exceed the window, and
// junction-heavy through a seven-way check chain converging on one label.
func chainVictim(trips int64, pattern []byte) Victim {
	return Victim{
		Entry: "victim",
		Emit: func(a *isa.Assembler) {
			a.VariableStride()
			a.Label("victim")
			a.MovI(isa.R1, 0)
			a.MovI(isa.R2, trips)
			a.MovI(isa.R5, patternAddr)
			a.Label("vloop")
			a.Add(isa.R3, isa.R5, isa.R1)
			a.LdB(isa.R4, isa.R3, 0)
			for k := 1; k <= 7; k++ {
				a.MovI(isa.R6, int64(k))
				a.Label(fmt.Sprintf("chk%d", k))
				a.Br(isa.EQ, isa.R4, isa.R6, "complex")
			}
			a.AddI(isa.R8, isa.R8, 1)
			a.Jmp("next")
			a.Label("complex")
			a.AddI(isa.R9, isa.R9, 1)
			a.Label("next")
			a.AddI(isa.R1, isa.R1, 1)
			a.Label("vback")
			a.Br(isa.LT, isa.R1, isa.R2, "vloop")
			a.Ret()
		},
		Setup: func(m *cpu.Machine) { m.Mem.WriteBytes(patternAddr, pattern) },
	}
}

// captureTruth traces the capture run's taken branches on a fresh machine
// and drops the clear chain, leaving the history the search recovers.
func captureTruth(t *testing.T, seed int64, v Victim, capProg *isa.Program) []pathfinder.Step {
	t.Helper()
	m := cpu.New(cpu.Options{Seed: seed})
	var truth []pathfinder.Step
	m.TraceTaken = func(pc, tgt uint64) { truth = append(truth, pathfinder.Step{Addr: pc, Target: tgt, Taken: true}) }
	if v.Setup != nil {
		v.Setup(m)
	}
	if err := m.Run(capProg, "cap_main"); err != nil {
		t.Fatal(err)
	}
	return truth[m.Arch().PHRSize:]
}

// climbAgainstTruth searches the window alone, climbs the suffix with the
// PHT oracle and checks its first n steps (most recent first) against the
// forward trace.
func climbAgainstTruth(t *testing.T, seed int64, v Victim, n int) {
	t.Helper()
	m := cpu.New(cpu.Options{Seed: seed})
	capProg, err := buildCaptureProgram(m, v)
	if err != nil {
		t.Fatal(err)
	}
	truth := captureTruth(t, seed, v, capProg)
	window, err := ReadPHR(m, v, ReadPHROptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := pathfinder.Build(capProg)
	if err != nil {
		t.Fatal(err)
	}
	entry := capProg.MustSymbol("cap_call")
	dag, err := cfg.SearchDAG(pathfinder.Spec{Observed: window, Entry: entry, Final: entry + 1, MaxReversals: window.Size()})
	if err != nil {
		t.Fatal(err)
	}
	suffix, _, err := climbSuffix(m, v, capProg, window, dag, nil, ExtendedOptions{Rounds: 6, MaxUnknownRun: 3, Batch: 64}, map[instanceKey]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if len(suffix) == 0 {
		t.Fatal("empty climbed suffix")
	}
	for i := 0; i < len(suffix) && i < n; i++ {
		want := truth[len(truth)-1-i]
		if suffix[i].Addr != want.Addr || suffix[i].Target != want.Target {
			t.Fatalf("suffix[%d] = %#x->%#x, truth %#x->%#x", i, suffix[i].Addr, suffix[i].Target, want.Addr, want.Target)
		}
	}
}

// TestClimbSuffixMatchesTruthOnCheckChain climbs a junction-heavy history
// (every iteration passes a seven-way check chain) and requires the whole
// climbed suffix to match the forward trace.
func TestClimbSuffixMatchesTruthOnCheckChain(t *testing.T) {
	const trips = 120
	pattern := make([]byte, trips)
	for i := range pattern {
		pattern[i] = byte((i * 7) % 9) // values 0..8; 1..7 go complex at chk k
	}
	climbAgainstTruth(t, 5, chainVictim(trips, pattern), trips*8)
}

// TestExtendedReadPHRExactOnCheckChain recovers a check-chain history far
// beyond the window and requires it to equal the forward trace.
func TestExtendedReadPHRExactOnCheckChain(t *testing.T) {
	const trips = 120
	rng := rand.New(rand.NewSource(31))
	pattern := make([]byte, trips)
	for i := range pattern {
		pattern[i] = byte(rng.Intn(9))
	}
	v := chainVictim(trips, pattern)
	m := cpu.New(cpu.Options{Seed: 5})
	res, err := ExtendedReadPHR(m, v, ExtendedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Path.Complete {
		t.Fatal("recovered path incomplete")
	}
	truth := captureTruth(t, 5, v, res.CaptureProgram)
	var rec []pathfinder.Step
	for _, s := range res.Path.Steps {
		if s.Taken {
			rec = append(rec, s)
		}
	}
	if len(rec) != len(truth) {
		t.Fatalf("recovered %d taken branches, truth has %d", len(rec), len(truth))
	}
	for i := range rec {
		if rec[i].Addr != truth[i].Addr || rec[i].Target != truth[i].Target {
			t.Fatalf("divergence at taken branch %d", i)
		}
	}
}

const xCoefBase = 0x0040_0000

func xIDCTVictim(nblocks int, coef []jpeg.Block) Victim {
	return Victim{
		Entry: "idct_entry",
		Emit: func(a *isa.Assembler) {
			a.VariableStride()
			a.Label("idct_entry")
			a.MovI(isa.R1, 0)
			a.MovI(isa.R2, int64(nblocks))
			a.MovI(isa.R12, 0)
			a.MovI(isa.R13, 8)
			a.MovI(isa.R14, xCoefBase)
			a.Label("idct_blkloop")
			a.ShlI(isa.R3, isa.R1, 9)
			a.Add(isa.R3, isa.R14, isa.R3)
			a.MovI(isa.R5, 0)
			a.Label("idct_colloop")
			a.ShlI(isa.R6, isa.R5, 3)
			a.Add(isa.R6, isa.R3, isa.R6)
			for k := 1; k <= 7; k++ {
				a.Ld(isa.R7, isa.R6, int64(64*k))
				a.Label(fmt.Sprintf("idct_colchk%d", k))
				a.Br(isa.NE, isa.R7, isa.R12, "idct_colcomplex")
			}
			a.AddI(isa.R8, isa.R8, 1)
			a.Jmp("idct_colnext")
			a.Label("idct_colcomplex")
			a.AddI(isa.R9, isa.R9, 1)
			a.AddI(isa.R9, isa.R9, 1)
			a.Label("idct_colnext")
			a.AddI(isa.R5, isa.R5, 1)
			a.Label("idct_colback")
			a.Br(isa.LT, isa.R5, isa.R13, "idct_colloop")
			a.MovI(isa.R5, 0)
			a.Label("idct_rowloop")
			a.ShlI(isa.R6, isa.R5, 6)
			a.Add(isa.R6, isa.R3, isa.R6)
			for k := 1; k <= 7; k++ {
				a.Ld(isa.R7, isa.R6, int64(8*k))
				a.Label(fmt.Sprintf("idct_rowchk%d", k))
				a.Br(isa.NE, isa.R7, isa.R12, "idct_rowcomplex")
			}
			a.AddI(isa.R8, isa.R8, 1)
			a.Jmp("idct_rownext")
			a.Label("idct_rowcomplex")
			a.AddI(isa.R9, isa.R9, 1)
			a.AddI(isa.R9, isa.R9, 1)
			a.Label("idct_rownext")
			a.AddI(isa.R5, isa.R5, 1)
			a.Label("idct_rowback")
			a.Br(isa.LT, isa.R5, isa.R13, "idct_rowloop")
			a.AddI(isa.R1, isa.R1, 1)
			a.Label("idct_blkback")
			a.Br(isa.LT, isa.R1, isa.R2, "idct_blkloop")
			a.Ret()
		},
		Setup: func(m *cpu.Machine) {
			for b := range coef {
				for i, vv := range coef[b] {
					m.Mem.Write64(xCoefBase+uint64((b*64+i)*8), uint64(int64(vv)))
				}
			}
		},
	}
}

// TestClimbSuffixMatchesTruthOnIDCT climbs the image victim's IDCT history
// on a 24 px QR-like image and checks the 40 most recent taken branches
// against the forward trace.
func TestClimbSuffixMatchesTruthOnIDCT(t *testing.T) {
	img := media.QRLike(24, 24, 7)
	enc, _ := jpeg.Encode(img.Pix, img.W, img.H, 60)
	_, blocks, _ := jpeg.DecodeBlocks(enc)
	climbAgainstTruth(t, 9, xIDCTVictim(len(blocks), blocks), 40)
}
