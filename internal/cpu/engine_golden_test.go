package cpu

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pathfinder/internal/bpu"
	"pathfinder/internal/faultinject"
	"pathfinder/internal/isa"
	"pathfinder/internal/refmodel"
)

// -update rewrites testdata/engine_golden.json. The recorded file pins the
// engine's observable behaviour on every hook combination: it was captured
// from the original scalar reference interpreter, so the single engine is
// held to that interpreter's exact semantics — fault-injector draw order,
// taken-branch trace, predictor training and error strings included.
var update = flag.Bool("update", false, "rewrite the engine goldens in testdata/")

const engineGoldenFile = "engine_golden.json"

// parityCorpus seeds the generated-program differential: the empty input,
// coin-heavy, call-heavy, mixed and address-scatter-heavy shapes.
var parityCorpus = [][]byte{
	nil,
	{5, 1, 5, 0, 5, 1},
	{7, 3, 9, 250, 4, 4, 5, 6, 7, 8, 9, 0, 1, 2},
	{200, 199, 198, 5, 5, 5, 6, 6, 6, 9, 9, 9, 7, 7},
	{13, 42, 99, 5, 250, 17, 6, 88, 3, 1, 4, 1, 5, 9, 2, 6},
}

// goldenFaults is the fault profile of the faulted arms: every injector
// hook armed, with PHR pollution frequent enough to fire inside each run.
func goldenFaults() *faultinject.Profile {
	p := faultinject.Default().WithPollution(0.2, 8)
	return &p
}

// engineArm is one recorded engine run: a program, a machine configuration
// and a hook combination, executed twice on one machine (a training run and
// a measured run, as the attacks do).
type engineArm struct {
	name  string
	prog  *isa.Program
	opts  Options
	setup func(m *Machine)
}

// engineResult is the observable outcome of an arm.
type engineResult struct {
	Errs     []string    `json:"errs"` // per run; "" on success
	Counters Counters    `json:"counters"`
	Trace    [][2]uint64 `json:"trace"` // architecturally taken (pc, target) pairs
	PHR      []uint64    `json:"phr"`
	Regs     []uint64    `json:"regs"`
	VRegs    []string    `json:"vregs"`
	Hash     uint64      `json:"snapshot_hash,omitempty"` // absent on custom-predictor arms
}

// engineArms enumerates the recorded arms: the parity corpus × every
// microarchitecture × {no faults, faults} × {CBP, refmodel oracle}, plus the
// all-opcode program with faults off and on.
func engineArms(t *testing.T) []engineArm {
	t.Helper()
	var arms []engineArm
	for ci, data := range parityCorpus {
		prog, err := fuzzProgram(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range bpu.Configs() {
			for _, faulted := range []bool{false, true} {
				for _, oracle := range []bool{false, true} {
					o := Options{Arch: cfg, Seed: 1000 + int64(ci), StepLimit: fuzzStepLimit}
					name := fmt.Sprintf("corpus%d/%s", ci, cfg.Name)
					if faulted {
						o.Faults = goldenFaults()
						name += "/faults"
					}
					if oracle {
						o.NewPredictor = refmodel.NewPredictor
						name += "/refmodel"
					}
					arms = append(arms, engineArm{name: name, prog: prog, opts: o})
				}
			}
		}
	}
	p := allOpsProgram(t)
	for _, faulted := range []bool{false, true} {
		o := Options{Seed: 42}
		name := "allops"
		if faulted {
			o.Faults = goldenFaults()
			name += "/faults"
		}
		arms = append(arms, engineArm{name: name, prog: p, opts: o, setup: func(m *Machine) { setupAllOps(m, p) }})
	}
	return arms
}

// run executes the arm on a fresh machine, with or without the taken-branch
// trace hook installed.
func (a engineArm) run(traced bool) engineResult {
	m := New(a.opts)
	var res engineResult
	if traced {
		res.Trace = [][2]uint64{}
		m.TraceTaken = func(pc, target uint64) { res.Trace = append(res.Trace, [2]uint64{pc, target}) }
	}
	if a.setup != nil {
		a.setup(m)
	}
	for r := 0; r < 2; r++ {
		msg := ""
		if err := m.Run(a.prog, "main"); err != nil {
			msg = err.Error()
		}
		res.Errs = append(res.Errs, msg)
	}
	res.Counters = m.Stats()
	h := m.Hart(0)
	w := h.PHR.Words()
	res.PHR = w[:]
	for r := 0; r < isa.NumRegs; r++ {
		res.Regs = append(res.Regs, h.Reg(isa.Reg(r)))
	}
	for v := 0; v < isa.NumVRegs; v++ {
		res.VRegs = append(res.VRegs, fmt.Sprintf("%x", h.VReg(isa.VReg(v))))
	}
	if a.opts.NewPredictor == nil {
		res.Hash = m.Snapshot().Hash()
	}
	return res
}

// diffResults names the first field where got departs from want, or "".
func diffResults(got, want engineResult) string {
	switch {
	case !reflect.DeepEqual(got.Errs, want.Errs):
		return fmt.Sprintf("errors %q, want %q", got.Errs, want.Errs)
	case got.Counters != want.Counters:
		return fmt.Sprintf("counters %+v, want %+v", got.Counters, want.Counters)
	case !reflect.DeepEqual(got.Trace, want.Trace):
		n := min(len(got.Trace), len(want.Trace))
		i := 0
		for i < n && got.Trace[i] == want.Trace[i] {
			i++
		}
		return fmt.Sprintf("taken-branch trace diverges at step %d of %d/%d", i, len(got.Trace), len(want.Trace))
	case !reflect.DeepEqual(got.PHR, want.PHR):
		return fmt.Sprintf("PHR words %x, want %x", got.PHR, want.PHR)
	case !reflect.DeepEqual(got.Regs, want.Regs):
		return fmt.Sprintf("registers %x, want %x", got.Regs, want.Regs)
	case !reflect.DeepEqual(got.VRegs, want.VRegs):
		return fmt.Sprintf("vector registers %v, want %v", got.VRegs, want.VRegs)
	case got.Hash != want.Hash:
		return fmt.Sprintf("snapshot hash %#x, want %#x", got.Hash, want.Hash)
	}
	return ""
}

// TestEngineGoldens replays every recorded arm and requires the engine to
// reproduce it exactly, then reruns each arm without the trace hook: the
// hook observes execution and must never perturb it.
func TestEngineGoldens(t *testing.T) {
	arms := engineArms(t)
	got := make(map[string]engineResult, len(arms))
	for _, a := range arms {
		got[a.name] = a.run(true)
	}
	path := filepath.Join("testdata", engineGoldenFile)
	if *update {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing engine goldens (run with -update): %v", err)
	}
	var want map[string]engineResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(arms) {
		t.Errorf("golden file records %d arms, test enumerates %d", len(want), len(arms))
	}
	for _, a := range arms {
		w, ok := want[a.name]
		if !ok {
			t.Errorf("%s: no recorded golden", a.name)
			continue
		}
		if d := diffResults(got[a.name], w); d != "" {
			t.Errorf("%s: %s", a.name, d)
		}
		untraced := a.run(false)
		untraced.Trace = w.Trace
		if d := diffResults(untraced, w); d != "" {
			t.Errorf("%s without the trace hook: %s", a.name, d)
		}
	}
}
