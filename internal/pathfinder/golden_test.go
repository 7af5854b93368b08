package pathfinder_test

import (
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/jpeg"
	"pathfinder/internal/media"
	"pathfinder/internal/pathfinder"
	"pathfinder/internal/phr"
	"pathfinder/internal/victim"
	"pathfinder/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/search_golden.json from fresh simulations")

const goldenFile = "testdata/search_golden.json"

// goldenSpec is one recorded search problem and its expected outcome. The
// program, window and extension are stored verbatim, so checking a spec
// runs the search alone and no simulation.
type goldenSpec struct {
	Name         string      `json:"name"`
	Program      string      `json:"program"` // key into goldenCorpus.Programs
	Window       string      `json:"window"`  // doublets, most recent first
	Ext          string      `json:"ext,omitempty"`
	Entry        uint64      `json:"entry"`
	Final        uint64      `json:"final"`
	MaxReversals int         `json:"max_reversals,omitempty"`
	Transfers    [][2]uint64 `json:"transfers,omitempty"` // (SYSCALL/EENTER site, handler entry)
	Want         goldenOut   `json:"want"`
}

// goldenCorpus is the file layout: programs are stored once (base64 isa
// wire encoding) and shared by the specs searching them.
type goldenCorpus struct {
	Programs map[string]string `json:"programs"`
	Specs    []goldenSpec      `json:"specs"`
}

// goldenOut pins everything a consumer can observe of a search: the
// enumerated paths, the terminal states in order, the deepest truncated
// state and how many states stay alive.
type goldenOut struct {
	Err       string        `json:"err,omitempty"`
	Paths     []goldenPath  `json:"paths"`
	Terminals []goldenState `json:"terminals"`
	Deepest   *goldenState  `json:"deepest"`
	Alive     int           `json:"alive"`
}

type goldenPath struct {
	Steps    int    `json:"steps"`
	Complete bool   `json:"complete"`
	Digest   string `json:"digest"` // FNV-1a of Path.String()
}

type goldenState struct {
	Addr uint64    `json:"addr"`
	R    int       `json:"r"`
	Reg  [7]uint64 `json:"reg"`
}

func doubletString(ds []phr.Doublet) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteByte('0' + d)
	}
	return b.String()
}

func parseDoublets(s string) []phr.Doublet {
	out := make([]phr.Doublet, len(s))
	for i := range s {
		out[i] = s[i] - '0'
	}
	return out
}

func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

func encodeProgram(p *isa.Program) string {
	w := wire.NewWriter(0)
	p.EncodeWire(w)
	return base64.StdEncoding.EncodeToString(w.Bytes())
}

// load rebuilds the CFG and spec of a recorded problem.
func (g *goldenSpec) load(t testing.TB, programs map[string]string) (*pathfinder.CFG, pathfinder.Spec) {
	t.Helper()
	raw, err := base64.StdEncoding.DecodeString(programs[g.Program])
	if err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(raw)
	prog := isa.DecodeWireProgram(rd)
	if rd.Err() != nil {
		t.Fatal(rd.Err())
	}
	cfg, err := pathfinder.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range g.Transfers {
		cfg.AddTransfer(tr[0], tr[1])
	}
	window := parseDoublets(g.Window)
	obs := phr.New(len(window))
	obs.SetDoublets(window)
	var ext []phr.Doublet
	if g.Ext != "" {
		ext = parseDoublets(g.Ext)
	}
	return cfg, pathfinder.Spec{Observed: obs, Ext: ext, Entry: g.Entry, Final: g.Final, MaxReversals: g.MaxReversals}
}

func stateOf(d *pathfinder.DAG, n pathfinder.NodeID) goldenState {
	return goldenState{Addr: d.Addr(n), R: d.R(n), Reg: d.Reg(n).Words()}
}

// observe runs both search entry points on a spec.
func observe(cfg *pathfinder.CFG, spec pathfinder.Spec) goldenOut {
	var out goldenOut
	dag, err := cfg.SearchDAG(spec)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Terminals = []goldenState{}
	for _, n := range dag.Terminals {
		out.Terminals = append(out.Terminals, stateOf(dag, n))
	}
	if dag.Deepest != pathfinder.NoNode {
		st := stateOf(dag, dag.Deepest)
		out.Deepest = &st
	}
	// Every state is a predecessor of some earlier one, so walking
	// predecessors from the root visits them all. NodeIDs are dense, so a
	// slice indexed by ID records the visits.
	seen := []bool{}
	mark := func(n pathfinder.NodeID) bool {
		for int(n) >= len(seen) {
			seen = append(seen, false)
		}
		was := seen[n]
		seen[n] = true
		return was
	}
	mark(dag.Root)
	stack := []pathfinder.NodeID{dag.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if dag.Alive(n) {
			out.Alive++
		}
		for _, e := range dag.Preds(n) {
			if !mark(e.From) {
				stack = append(stack, e.From)
			}
		}
	}
	paths, err := cfg.Search(spec)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Paths = []goldenPath{}
	for _, p := range paths {
		out.Paths = append(out.Paths, goldenPath{Steps: len(p.Steps), Complete: p.Complete, Digest: digest(p.String())})
	}
	return out
}

// TestSearchGolden pins the backward search on a recorded corpus: the
// hand-written programs of pathfinder_test.go, random-CFG and patterned-loop
// victims, a junction-heavy check chain and the final spec of the 16 px
// Fig. 7 qr-1 capture. Regenerate with -update.
func TestSearchGolden(t *testing.T) {
	if *update {
		recordGolden(t)
	}
	corpus := loadCorpus(t)
	for i := range corpus.Specs {
		g := &corpus.Specs[i]
		t.Run(g.Name, func(t *testing.T) {
			cfg, spec := g.load(t, corpus.Programs)
			got := observe(cfg, spec)
			if !reflect.DeepEqual(got, g.Want) {
				gj, _ := json.Marshal(got)
				wj, _ := json.Marshal(g.Want)
				t.Fatalf("search outcome drifted\n got: %.600s\nwant: %.600s", gj, wj)
			}
		})
	}
}

func loadCorpus(t testing.TB) goldenCorpus {
	t.Helper()
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var corpus goldenCorpus
	if err := json.Unmarshal(raw, &corpus); err != nil {
		t.Fatal(err)
	}
	return corpus
}

// recordGolden simulates every corpus victim, records its search problems
// and writes them with their current outcomes.
func recordGolden(t *testing.T) {
	corpus := goldenCorpus{Programs: map[string]string{}}
	add := func(name, progName string, prog *isa.Program, window *phr.Reg, ext []phr.Doublet, entry, final uint64, maxRev int, transfers [][2]uint64) {
		corpus.Programs[progName] = encodeProgram(prog)
		g := goldenSpec{
			Name: name, Program: progName, Window: doubletString(window.Doublets()),
			Ext: doubletString(ext), Entry: entry, Final: final, MaxReversals: maxRev, Transfers: transfers,
		}
		cfg, spec := g.load(t, corpus.Programs)
		g.Want = observe(cfg, spec)
		corpus.Specs = append(corpus.Specs, g)
	}
	// Each traced problem is recorded twice: with the true extension (the
	// search must complete) and as the window-bounded lookahead the
	// Extended Read PHR driver starts from.
	addTraced := func(name string, tr traced) {
		add(name+"/ext", name, tr.prog, tr.window, tr.ext, tr.entry, tr.final, 0, tr.transfers)
		add(name+"/lookahead", name, tr.prog, tr.window, nil, tr.entry, tr.final, tr.window.Size(), tr.transfers)
	}
	for _, cp := range pathfinder.CorpusPrograms() {
		m := cpu.New(cpu.Options{})
		if cp.Setup != nil {
			cp.Setup(m)
		}
		addTraced(cp.Name, runForward(t, m, cp.Prog, "entry", cp.Prog.MustSymbol("entry"), cp.Prog.MustSymbol("end"), nil))
	}
	for _, seed := range []int64{0, 1, 2, 3, 4, 23, 24, 25} {
		segs := 6
		if seed >= 23 {
			segs += int(seed - 23)
		}
		addTraced(fmt.Sprintf("randomcfg-%d", seed), captureVictim(t, cpu.New(cpu.Options{Seed: seed}), victim.RandomCFG(seed, segs)))
	}
	for i, trips := range []int{40, 150, 220} {
		v := victim.PatternedLoop(trips, victim.RandomPattern(trips, 13+int64(7*i)))
		addTraced(fmt.Sprintf("fig5-loop-%d", trips), captureVictim(t, cpu.New(cpu.Options{Seed: 13}), v))
	}
	addTraced("check-chain", captureVictim(t, cpu.New(cpu.Options{Seed: 5}), checkChainVictim(120, 31)))
	km := cpu.New(cpu.Options{Seed: 71})
	km.RegisterKernelStub(1, "__golden_handler")
	addTraced("syscall-transfer", captureVictim(t, km, syscallVictim()))

	// The final spec the Extended Read PHR driver searched for the first
	// Fig. 7 image (qr-1) at 16 px, on the Fig. 7 machine seed.
	img := media.TestSet(16)[0].Image
	enc, err := jpeg.Encode(img.Pix, img.W, img.H, 60)
	if err != nil {
		t.Fatal(err)
	}
	_, blocks, err := jpeg.DecodeBlocks(enc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.ExtendedReadPHR(cpu.New(cpu.Options{Seed: 29}), victim.IDCTVictim(len(blocks), blocks), core.ExtendedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	add("fig7-qr1-16px/final", "fig7-qr1-16px", rec.CaptureProgram, rec.Window, rec.Ext, rec.Entry, rec.Final, len(rec.Ext)+rec.Window.Size(), nil)
	// The same window under a 32-reversal lookahead: a mid-sized problem
	// (tens of thousands of states) for BenchmarkSearchDAG.
	add("fig7-qr1-16px/lookahead-32", "fig7-qr1-16px", rec.CaptureProgram, rec.Window, rec.Ext, rec.Entry, rec.Final, 32, nil)

	raw, err := json.MarshalIndent(corpus, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// traced is a search problem taken from a forward run: the final window and
// the true history beyond it.
type traced struct {
	prog         *isa.Program
	window       *phr.Reg
	ext          []phr.Doublet
	entry, final uint64
	transfers    [][2]uint64
}

// runForward runs prog from label on m (data already installed) and
// rebuilds the unbounded doublet history from the taken-branch trace.
func runForward(t *testing.T, m *cpu.Machine, prog *isa.Program, label string, entry, final uint64, transfers [][2]uint64) traced {
	t.Helper()
	var fps []uint16
	m.TraceTaken = func(pc, target uint64) { fps = append(fps, phr.Footprint(pc, target)) }
	if err := m.Run(prog, label); err != nil {
		t.Fatal(err)
	}
	window := m.Hart(0).PHR.Clone()
	virt := make([]phr.Doublet, len(fps)+phr.FootprintDoublets)
	for _, f := range fps {
		copy(virt[1:], virt)
		virt[0] = 0
		for i := 0; i < phr.FootprintDoublets; i++ {
			virt[i] ^= phr.Doublet(f>>(2*i)) & 3
		}
	}
	var ext []phr.Doublet
	if len(virt) > window.Size() {
		ext = virt[window.Size():]
	}
	return traced{prog: prog, window: window, ext: ext, entry: entry, final: final, transfers: transfers}
}

// captureVictim runs a victim inside the capture program (cleared PHR,
// aligned call) exactly as the attack observes it.
func captureVictim(t *testing.T, m *cpu.Machine, v core.Victim) traced {
	t.Helper()
	prog, err := core.BuildCaptureProgram(m, v)
	if err != nil {
		t.Fatal(err)
	}
	var transfers [][2]uint64
	for from, entry := range v.Transfers {
		transfers = append(transfers, [2]uint64{prog.MustSymbol(from), prog.MustSymbol(entry)})
	}
	if v.Setup != nil {
		v.Setup(m)
	}
	call := prog.MustSymbol("cap_call")
	return runForward(t, m, prog, "cap_main", call, call+1, transfers)
}

// checkChainVictim is a junction-heavy loop: a seven-way check chain
// converging on one label, like the IDCT's zero checks. It is the shape of
// internal/core's test chain victim, whose test files this package cannot
// import.
func checkChainVictim(trips int64, seed int64) core.Victim {
	const dataAddr = 0x00e0_0000
	rng := rand.New(rand.NewSource(seed))
	pattern := make([]byte, trips)
	for i := range pattern {
		pattern[i] = byte(rng.Intn(9))
	}
	return core.Victim{
		Entry: "victim",
		Emit: func(a *isa.Assembler) {
			a.VariableStride()
			a.Label("victim")
			a.MovI(isa.R1, 0)
			a.MovI(isa.R2, trips)
			a.MovI(isa.R5, dataAddr)
			a.Label("vloop")
			a.Add(isa.R3, isa.R5, isa.R1)
			a.LdB(isa.R4, isa.R3, 0)
			for k := 1; k <= 7; k++ {
				a.MovI(isa.R6, int64(k))
				a.Br(isa.EQ, isa.R4, isa.R6, "complex")
			}
			a.AddI(isa.R8, isa.R8, 1)
			a.Jmp("next")
			a.Label("complex")
			a.AddI(isa.R9, isa.R9, 1)
			a.Label("next")
			a.AddI(isa.R1, isa.R1, 1)
			a.Br(isa.LT, isa.R1, isa.R2, "vloop")
			a.Ret()
		},
		Setup: func(m *cpu.Machine) { m.Mem.WriteBytes(dataAddr, pattern) },
	}
}

// syscallVictim enters a kernel handler with a data-dependent branch
// through SYSCALL, a transfer the PHR does not see.
func syscallVictim() core.Victim {
	const dataAddr = 0x00d0_0000
	return core.Victim{
		Entry: "sv_entry",
		Emit: func(a *isa.Assembler) {
			a.Label("sv_entry")
			a.Label("sv_sys")
			a.Syscall(1)
			a.Ret()
			victim.EmitKernelStub(a, "__golden_handler", func(a *isa.Assembler) {
				a.MovI(isa.R1, dataAddr)
				a.LdB(isa.R2, isa.R1, 0)
				a.MovI(isa.R3, 1)
				a.Br(isa.EQ, isa.R2, isa.R3, "sv_after")
				a.Nop()
				a.Label("sv_after")
				a.Nop()
			})
		},
		Setup:     func(m *cpu.Machine) { m.Mem.Write8(dataAddr, 1) },
		Transfers: map[string]string{"sv_sys": "__golden_handler"},
	}
}
