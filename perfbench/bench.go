package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pathfinder/internal/cpu"
)

// opOut is what one op hands back to the loop: the identity of its inputs,
// its quality figure, the simulated work it did, and any failed check.
type opOut struct {
	key      string // ops with equal keys ran identical inputs
	accuracy float64
	counters cpu.Counters
	failure  string    // non-empty when an output check failed
	jobsMS   []float64 // per-job latencies (cluster-sweep)
}

// workload is one named benchmark workload. setup prepares set-up r from
// empty caches and runs its first op; op runs steady-state op i. traced
// runs op i as the public-layer calls the harness driver makes, with spans,
// and layers adds the per-layer figures the traced run replays.
type workload struct {
	name      string
	setupReps int // set-ups per run; setup_s is their median
	warmOps   int // untimed ops between the set-ups and the measured window
	minOps    int // measured ops per run even past the deadline
	params    func(seed int64) map[string]any
	setup     func(ctx context.Context, b *bench, r int) (opOut, error)
	op        func(ctx context.Context, b *bench, i int) (opOut, error)
	traced    func(ctx context.Context, b *bench, i int, tr *tracer) (opOut, error)
	layers    func(ctx context.Context, b *bench, tr *tracer, l layerSet) error
	close     func(b *bench)
	// prepareTraced readies the traced pass (outside the measured ops).
	prepareTraced func(ctx context.Context, b *bench, tr *tracer) error
	// verify checks outputs the ops deferred, after the measured window.
	verify func(ctx context.Context, b *bench, rep *report) error
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench carries a run's configuration and the state workloads keep between
// set-up and ops.
type bench struct {
	cfg   config
	state any
	ops   int // ops issued so far; the next op's index
	// setupTracer records the set-up of a traced run; nil otherwise.
	setupTracer *tracer
}

func newBench(cfg config) *bench { return &bench{cfg: cfg} }

// report accumulates a run's measurements and check failures.
type report struct {
	workload  string
	e2e       map[string]metric
	e2eN      map[string]int
	layer     layerSet
	extra     []string // human-readable lines printed before the result
	attempted int
	failed    int
	problems  []string
	counters  map[string]cpu.Counters // one op's simulated counters per input key
}

func newReport(name string) *report {
	return &report{workload: name, e2e: map[string]metric{}, e2eN: map[string]int{}, layer: layerSet{},
		counters: map[string]cpu.Counters{}}
}

func (r *report) addCounters(key string, c cpu.Counters) {
	if _, ok := r.counters[key]; !ok {
		r.counters[key] = c
	}
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records one attempted op and its outcome.
func (r *report) check(what string, out opOut, err error) {
	r.attempted++
	switch {
	case err != nil:
		r.failed++
		r.fail("%s: %v", what, err)
	case out.failure != "":
		r.failed++
		r.fail("%s: %s", what, out.failure)
	}
}

func (r *report) set(name, unit string, v float64, n int) {
	r.e2e[name] = metric{Value: v, Unit: unit}
	r.e2eN[name] = n
}

// result renders the contract object: end-to-end metrics untraced, the
// per-layer set traced.
func (r *report) result(traced bool) result {
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for _, d := range layerDefs {
			res.Metrics[d.name] = metric{Value: r.layer[d.name], Unit: d.unit}
		}
		return res
	}
	for _, name := range e2eNames {
		res.Metrics[name] = r.e2e[name]
	}
	return res
}

func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s: %d ops attempted, %d failed\n", r.workload, r.attempted, r.failed)
	keys := make([]string, 0, len(r.counters))
	for k := range r.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > maxKeyLines {
		fmt.Fprintf(out, "cpu.Counters: %d distinct inputs, showing %d\n", len(keys), maxKeyLines)
		keys = keys[:maxKeyLines]
	}
	for _, k := range keys {
		c, _ := json.Marshal(r.counters[k])
		fmt.Fprintf(out, "cpu.Counters[%s] %s\n", k, c)
	}
	names := make([]string, 0, len(r.e2e))
	for n := range r.e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.e2e[n]
		fmt.Fprintf(out, "e2e   %-22s %22s %-6s n=%d\n", n, fmtFloat(m.Value), m.Unit, r.e2eN[n])
	}
	for _, d := range layerDefs {
		if v, ok := r.layer[d.name]; ok {
			fmt.Fprintf(out, "layer %-30s %22s %s\n", d.name, fmtFloat(v), d.unit)
		}
	}
	for _, line := range r.extra {
		fmt.Fprintln(out, line)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
}

// maxKeyLines caps the per-input lines of the human-readable table.
const maxKeyLines = 8

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// e2eNames are the end-to-end metrics every workload reports, in
// BENCHMARK.json order.
var e2eNames = []string{"setup_s", "op_p50_ms", "op_p90_ms", "allocs_per_op", "peak_mem_mb", "accuracy"}

// quantile is the Harrell–Davis estimate of the q-quantile of vs: a
// Beta-weighted average of all order statistics. Cluster latencies move in
// heartbeat-sized steps, and a sample quantile of stepped data jumps a whole
// step between runs; this estimator moves smoothly.
func quantile(vs []float64, q float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	sum, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		sum += (cur - prev) * s[i-1]
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function
// (modified Lentz method).
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 500; m++ {
		fm, m2 := float64(m), float64(2*m)
		aa := fm * (b - fm) * x / ((a - 1 + m2) * (a + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + fm) * (a + b + fm) * x / ((a + m2) * (a + 1 + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// procMemMB reads a memory field of a process's /proc status in MiB (0 when
// unavailable): "VmRSS:", the current resident set size, or "VmHWM:", its
// high-water mark over the process's lifetime.
func procMemMB(pid int, field string) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			if f := strings.Fields(rest); len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// rssSampler polls the resident memory of the processes doing the work and
// keeps the peak since it was last taken, so each op gets its own peak.
type rssSampler struct {
	read func() float64
	mu   sync.Mutex
	peak float64
	stop chan struct{}
	done chan struct{}
}

const rssEvery = 5 * time.Millisecond

func startSampler(read func() float64) *rssSampler {
	s := &rssSampler{read: read, peak: read(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	v := s.read()
	s.mu.Lock()
	s.peak = max(s.peak, v)
	s.mu.Unlock()
}

// take returns the peak since the previous take and restarts from now.
func (s *rssSampler) take() float64 {
	v := s.read()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := max(s.peak, v)
	s.peak = v
	return p
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// procStats is a cumulative snapshot of this process's allocation and GC
// CPU counters.
type procStats struct {
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var procSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() procStats {
	s := make([]metrics.Sample, len(procSamples))
	for i, name := range procSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return procStats{
		mallocs:    s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// loopOut is the measured window of an untraced pass: per-op latencies
// (ms), per-op peak resident memory (MiB), outputs, and the process
// counters around it.
type loopOut struct {
	opMS   []float64
	memMB  []float64
	outs   []opOut
	before procStats
	after  procStats
}

// externalWork is implemented by workload state whose work happens in
// other processes, so allocation and memory figures come from them.
type externalWork interface {
	beginWindow()
	allocsPerOp(ops int) float64
	memMB(field string) float64
}

// runSetups performs the workload's set-ups, then its warm-up ops, and
// returns the set-up durations and the first set-up's peak memory: the
// lifetime high-water mark of the processes doing the work, read when it
// ends (for an in-process workload it also covers the model-validation
// probe that ran before it).
func runSetups(ctx context.Context, w *workload, b *bench, rep *report) ([]float64, float64, error) {
	var times []float64
	var peak float64
	for r := 0; r < w.setupReps; r++ {
		t0 := time.Now()
		out, err := w.setup(ctx, b, r)
		times = append(times, time.Since(t0).Seconds())
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		rep.check(fmt.Sprintf("set-up %d", r), out, err)
		if r == 0 {
			peak = procMemMB(os.Getpid(), "VmHWM:")
			if ext, ok := b.state.(externalWork); ok {
				peak = ext.memMB("VmHWM:")
			}
		}
	}
	for i := 0; i < w.warmOps; i++ {
		out, err := w.op(ctx, b, b.next())
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		rep.check(fmt.Sprintf("warm-up op %d", i), out, err)
	}
	return times, peak, nil
}

func (b *bench) next() int {
	b.ops++
	return b.ops - 1
}

// steady runs untraced ops until the window closes: an op starts only if
// the previous op's latency still fits, and at least minOps run.
func steady(ctx context.Context, w *workload, b *bench, rep *report, window time.Duration) (*loopOut, error) {
	lo := &loopOut{}
	read := func() float64 { return procMemMB(os.Getpid(), "VmRSS:") }
	ext, external := b.state.(externalWork)
	if external {
		read = func() float64 { return ext.memMB("VmRSS:") }
	}
	runtime.GC()
	if external {
		ext.beginWindow()
	}
	sampler := startSampler(read)
	defer sampler.close()
	lo.before = readProc()
	start := time.Now()
	last := time.Duration(0)
	for n := 0; n < w.minOps || time.Since(start)+last <= window; n++ {
		i := b.next()
		sampler.take()
		t0 := time.Now()
		out, err := w.op(ctx, b, i)
		last = time.Since(t0)
		mem := sampler.take()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rep.check(fmt.Sprintf("op %d", i), out, err)
		if err != nil {
			continue
		}
		lo.opMS = append(lo.opMS, float64(last.Nanoseconds())/1e6)
		lo.memMB = append(lo.memMB, mem)
		lo.outs = append(lo.outs, out)
	}
	lo.after = readProc()
	return lo, nil
}

// run executes the workload in the mode the configuration selects.
func (w *workload) run(ctx context.Context, b *bench) (*report, error) {
	rep := newReport(w.name)
	if w.close != nil {
		defer w.close(b)
	}
	window := time.Duration(b.cfg.seconds * float64(time.Second))
	if b.cfg.trace {
		return w.runTraced(ctx, b, rep, window)
	}
	setups, setupPeak, err := runSetups(ctx, w, b, rep)
	if err != nil {
		return nil, err
	}
	lo, err := steady(ctx, w, b, rep, window)
	if err != nil {
		return nil, err
	}
	w.endToEnd(b, rep, setups, setupPeak, lo)
	return rep, w.runVerify(ctx, b, rep)
}

func (w *workload) runVerify(ctx context.Context, b *bench, rep *report) error {
	if w.verify == nil {
		return nil
	}
	if err := w.verify(ctx, b, rep); err != nil {
		if ctx.Err() != nil {
			return err
		}
		rep.fail("verification: %v", err)
	}
	return nil
}

// endToEnd derives the end-to-end metrics from an untraced run.
// The first set-up is an op too, from empty caches, so its peak memory joins
// the measured ops' peaks: fig7-image measures only two ops, and one
// garbage collection landing badly in either moved their median by a third.
func (w *workload) endToEnd(b *bench, rep *report, setups []float64, setupPeak float64, lo *loopOut) {
	n := len(lo.opMS)
	rep.set("setup_s", "s", quantile(setups, 0.5), len(setups))
	rep.set("op_p50_ms", "ms", quantile(lo.opMS, 0.5), n)
	rep.set("op_p90_ms", "ms", quantile(lo.opMS, 0.9), n)
	rep.set("peak_mem_mb", "MB", quantile(append(lo.memMB, setupPeak), 0.5), n+1)
	allocs := ratio(float64(lo.after.mallocs-lo.before.mallocs), float64(n))
	if ext, ok := b.state.(externalWork); ok {
		allocs = ext.allocsPerOp(n)
	}
	rep.set("allocs_per_op", "count", allocs, n)

	var acc, jobs []float64
	byKey := map[string][]float64{}
	var keys []string
	for _, o := range lo.outs {
		acc = append(acc, o.accuracy)
		jobs = append(jobs, o.jobsMS...)
		rep.addCounters(o.key, o.counters)
		if _, ok := byKey[o.key]; !ok {
			keys = append(keys, o.key)
		}
		byKey[o.key] = append(byKey[o.key], o.accuracy)
	}
	rep.set("accuracy", "ratio", mean(acc), len(acc))
	line := func(name, unit string, v float64, n int) {
		rep.extra = append(rep.extra, fmt.Sprintf("e2e   %-22s %22s %-6s n=%d", name, fmtFloat(v), unit, n))
	}
	line("op_failure_ratio", "ratio", ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted)
	if len(jobs) > 0 {
		line("job_p50_ms", "ms", quantile(jobs, 0.5), len(jobs))
		line("job_p90_ms", "ms", quantile(jobs, 0.9), len(jobs))
	}
	if len(keys) > 1 && len(keys) <= maxKeyLines {
		sort.Strings(keys)
		for _, k := range keys {
			line("accuracy["+k+"]", "ratio", mean(byKey[k]), len(byKey[k]))
		}
	}
}
