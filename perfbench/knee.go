package main

import (
	"fmt"

	"pathfinder/internal/bpu"
	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
)

// The model-validation probe measures how far back the simulated predictor
// correlates two branches, after the CorrelatedBranches microbenchmark:
// one branch with a random outcome, then n always-taken pad jumps, then a
// second branch with the same outcome. While the first branch's footprint
// is still inside the path history register, the second branch is predicted
// perfectly; once n pads have shifted it out, the second branch is a coin
// flip. The smallest n at which it mispredicts is the knee, which must sit
// at the PHR depth of Table 1.

const (
	kneeIters    = 1500 // loop iterations per probe point
	kneeMinPads  = 8    // with no pads the pair shares one history slot
	kneeMaxPads  = 512  // upper end of the search; beyond every modelled PHR
	kneeHalfRate = 0.25 // midway between "perfectly predicted" and "coin flip"
	kneeMaxError = 2    // tolerated |knee - PHR size|
)

// kneeResult is one architecture's measured knee against its Table 1 PHR
// size.
type kneeResult struct {
	Arch    string `json:"arch"`
	PHRSize int    `json:"phr_size"`
	Knee    int    `json:"knee"`
	Error   int    `json:"error"`
	Probes  int    `json:"probes"`
}

func (k kneeResult) ok() bool { return k.Error >= -kneeMaxError && k.Error <= kneeMaxError }

// kneeProgram assembles the probe for n pad jumps. It returns the program
// and the address of the second (correlated) branch.
func kneeProgram(n int) (*isa.Program, uint64, error) {
	a := isa.NewAssembler()
	a.VariableStride()
	a.Label("kn_entry")
	a.MovI(isa.R1, 0)
	a.MovI(isa.R2, kneeIters)
	a.MovI(isa.R3, 1)
	a.Label("kn_loop")
	a.Rand(isa.R4)
	a.And(isa.R4, isa.R4, isa.R3)
	a.Br(isa.EQ, isa.R4, isa.R3, "kn_a")
	a.Nop()
	a.Label("kn_a")
	for i := 0; i < n; i++ {
		next := fmt.Sprintf("kn_pad%d", i)
		a.Jmp(next)
		a.Label(next)
	}
	a.Label("kn_second")
	a.Br(isa.EQ, isa.R4, isa.R3, "kn_b")
	a.Nop()
	a.Label("kn_b")
	a.AddI(isa.R1, isa.R1, 1)
	a.Br(isa.LT, isa.R1, isa.R2, "kn_loop")
	a.Ret()
	prog, err := a.Assemble()
	if err != nil {
		return nil, 0, err
	}
	return prog, prog.MustSymbol("kn_second"), nil
}

// kneeRate runs the probe with n pads on a fresh machine and returns the
// second branch's misprediction rate after warm-up.
func kneeRate(arch bpu.Config, seed int64, n int) (float64, error) {
	prog, pc, err := kneeProgram(n)
	if err != nil {
		return 0, err
	}
	m := cpu.New(cpu.Options{Arch: arch, Seed: seed})
	// Warm-up: a first run trains the tagged tables; its misses are
	// discarded by differencing the branch statistics.
	if err := m.Run(prog, "kn_entry"); err != nil {
		return 0, err
	}
	before := m.Branch(pc)
	if err := m.Run(prog, "kn_entry"); err != nil {
		return 0, err
	}
	after := m.Branch(pc)
	exec := after.Executed - before.Executed
	if exec == 0 {
		return 0, fmt.Errorf("knee probe: correlated branch never executed")
	}
	return float64(after.Mispredicted-before.Mispredicted) / float64(exec), nil
}

// measureKnee binary-searches the smallest pad count whose misprediction
// rate crosses kneeHalfRate.
func measureKnee(arch bpu.Config, seed int64) (kneeResult, error) {
	res := kneeResult{Arch: arch.Name, PHRSize: arch.PHRSize}
	lo, hi := kneeMinPads, kneeMaxPads
	rate := func(n int) (bool, error) {
		res.Probes++
		r, err := kneeRate(arch, seed, n)
		return r >= kneeHalfRate, err
	}
	if miss, err := rate(lo); err != nil || miss {
		return res, fmt.Errorf("knee probe %s: %d pads already unpredictable (err %v)", arch.Name, lo, err)
	}
	if miss, err := rate(hi); err != nil || !miss {
		return res, fmt.Errorf("knee probe %s: %d pads still predictable (err %v)", arch.Name, hi, err)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		miss, err := rate(mid)
		if err != nil {
			return res, err
		}
		if miss {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.Knee = hi
	res.Error = hi - arch.PHRSize
	return res, nil
}
