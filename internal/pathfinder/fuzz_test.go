package pathfinder_test

import (
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/pathfinder"
	"pathfinder/internal/phr"
	"pathfinder/internal/victim"
)

// FuzzSearchVsForward checks the backward search against an independent
// forward oracle: a random-CFG victim runs in the capture program on the
// simulator with its taken branches traced, the PHR is rebuilt from the
// trace with UpdateBranch (no search code involved), and when the history
// fits the verifiable window Search must return the traced taken-step
// sequence among its complete paths.
func FuzzSearchVsForward(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(6))
	}
	f.Add(int64(23), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, segments uint8) {
		v := victim.RandomCFG(seed, 1+int(segments%10))
		m := cpu.New(cpu.Options{Seed: seed})
		prog, err := core.BuildCaptureProgram(m, v)
		if err != nil {
			t.Fatal(err)
		}
		var trace []pathfinder.Step
		m.TraceTaken = func(pc, tgt uint64) { trace = append(trace, pathfinder.Step{Addr: pc, Target: tgt}) }
		v.Setup(m)
		if err := m.Run(prog, "cap_main"); err != nil {
			t.Fatal(err)
		}
		size := m.Arch().PHRSize
		trace = trace[size:] // the clear chain
		reg := phr.New(size)
		for _, s := range trace {
			reg.UpdateBranch(s.Addr, s.Target)
		}
		if !reg.Equal(m.Hart(0).PHR) {
			t.Fatalf("forward PHR %v disagrees with the simulator's %v", reg, m.Hart(0).PHR)
		}
		if len(trace) > size-phr.FootprintDoublets {
			return // beyond the window a complete path needs Extended Read PHR
		}
		cfg, err := pathfinder.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		call := prog.MustSymbol("cap_call")
		const maxPaths = 256
		paths, err := cfg.Search(pathfinder.Spec{Observed: reg, Entry: call, Final: call + 1, MaxPaths: maxPaths})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if p.Complete && sameTaken(p, trace) {
				return
			}
		}
		if len(paths) == maxPaths {
			t.Skip("more consistent paths than enumerated")
		}
		t.Fatalf("true history (%d taken branches) not among %d paths", len(trace), len(paths))
	})
}

// sameTaken reports whether the path's taken steps are exactly the trace.
func sameTaken(p pathfinder.Path, trace []pathfinder.Step) bool {
	i := 0
	for _, s := range p.Steps {
		if !s.Taken {
			continue
		}
		if i >= len(trace) || s.Addr != trace[i].Addr || s.Target != trace[i].Target {
			return false
		}
		i++
	}
	return i == len(trace)
}
