package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans of one op share its op id; parent 0 marks a top-level span.
type span struct {
	name   string
	op     int
	id     int
	parent int
	start  time.Duration // since the tracer's epoch
	end    time.Duration
	work   uint64 // simulated instructions, for cpu.Machine.Run spans
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so traced code paths can run untraced.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (0 = top level) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, op: t.op, id: id, parent: parent, start: now})
	return id
}

// stop closes span id, recording work (simulated instructions) if any.
func (t *tracer) stop(id int, work uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.spans[id-1].work = work
	t.mu.Unlock()
}

// setOp tags subsequent spans with op id i (negative ids mark set-up and
// replay work outside the measured ops).
func (t *tracer) setOp(i int) {
	t.mu.Lock()
	t.op = i
	t.mu.Unlock()
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			out = append(out, float64(s.dur().Nanoseconds()))
		}
	}
	return out
}

// union is the total length of the union of the given intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var cs, ce time.Duration
	open := false
	for _, v := range iv {
		if !open || v[0] > ce {
			if open {
				total += ce - cs
			}
			cs, ce, open = v[0], v[1], true
			continue
		}
		if v[1] > ce {
			ce = v[1]
		}
	}
	if open {
		total += ce - cs
	}
	return total
}

// selfTimes sums, per span name, the total and the self time: a span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string][3]float64 {
	kids := map[int][][2]time.Duration{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	out := map[string][3]float64{}
	for _, s := range t.spans {
		self := s.dur() - union(kids[s.id])
		v := out[s.name]
		v[0]++
		v[1] += float64(s.dur().Nanoseconds()) / 1e6
		v[2] += float64(self.Nanoseconds()) / 1e6
		out[s.name] = v
	}
	return out
}

// coverage is the wall time op i's top-level spans cover.
func (t *tracer) coverage(op int) time.Duration {
	var iv [][2]time.Duration
	for _, s := range t.spans {
		if s.op == op && s.parent == 0 {
			iv = append(iv, [2]time.Duration{s.start, s.end})
		}
	}
	return union(iv)
}

// layerSet holds per-layer metric values by name.
type layerSet map[string]float64

type layerDef struct {
	name, unit string
	spans      []string // spans whose median duration the metric is, if any
	scale      float64  // nanoseconds per unit for span metrics
}

// layerDefs is the per-layer metric set, in BENCHMARK.json order. A layer a
// workload bypasses reports 0.
var layerDefs = []layerDef{
	{name: "harness.warm_hit_ratio", unit: "ratio"},
	{name: "harness.store_hit_ratio", unit: "ratio"},
	{name: "harness.planner_shared_ratio", unit: "ratio"},
	{name: "harness.prefetch_hit_ratio", unit: "ratio"},
	{name: "attack.trial_warm_us", unit: "us", spans: []string{"attack.Fork+Warm"}, scale: 1e3},
	{name: "attack.query_us", unit: "us", spans: []string{"attack.LeakReducedRound"}, scale: 1e3},
	{name: "attack.recover_key_ms", unit: "ms", spans: []string{"attack.RecoverKey"}, scale: 1e6},
	{name: "attack.image_s", unit: "s", spans: []string{"attack.ImageRecovery.Recover"}, scale: 1e9},
	{name: "attack.edge_correlation", unit: "ratio"},
	{name: "core.extended_read_ms", unit: "ms", spans: []string{"core.ExtendedReadPHR"}, scale: 1e6},
	{name: "core.read_phr_ms", unit: "ms", spans: []string{"core.ReadPHR"}, scale: 1e6},
	{name: "core.probes", unit: "count"},
	{name: "core.taken_branches", unit: "count"},
	{name: "core.write_pht_us", unit: "us", spans: []string{"core.WritePHT"}, scale: 1e3},
	{name: "core.write_pht_allocs", unit: "count"},
	{name: "pathfinder.search_ms", unit: "ms", spans: []string{"pathfinder.Build+SearchDAG"}, scale: 1e6},
	{name: "pathfinder.search_allocs", unit: "count"},
	{name: "pathfinder.search_alloc_mb", unit: "MB"},
	{name: "cpu.host_ns_per_instr", unit: "ns/instr"},
	{name: "cpu.construct_us", unit: "us", spans: []string{"cpu.New", "cpu.NewBatch", "cpu.Recycle"}, scale: 1e3},
	{name: "cpu.restore_us", unit: "us", spans: []string{"cpu.RestoreFrom"}, scale: 1e3},
	{name: "cpu.snapshot_us", unit: "us", spans: []string{"cpu.Snapshot"}, scale: 1e3},
	{name: "cpu.sim_instructions", unit: "count"},
	{name: "cpu.sim_cycles", unit: "count"},
	{name: "cpu.mispredicts", unit: "count"},
	{name: "cpu.transient_instrs", unit: "count"},
	{name: "cpu.runs", unit: "count"},
	{name: "victim.flush_reload_us", unit: "us", spans: []string{"victim.FlushProbe+ReadProbe"}, scale: 1e3},
	{name: "snapstore.load_us", unit: "us", spans: []string{"snapstore.Load"}, scale: 1e3},
	{name: "snapstore.save_us", unit: "us", spans: []string{"snapstore.Save"}, scale: 1e3},
	{name: "snapstore.bytes", unit: "bytes"},
	{name: "snapstore.entries", unit: "count"},
	{name: "wire.encode_us", unit: "us", spans: []string{"wire.MarshalBinary"}, scale: 1e3},
	{name: "wire.decode_us", unit: "us", spans: []string{"wire.DecodeSnapshot"}, scale: 1e3},
	{name: "wire.delta_ratio", unit: "ratio"},
	{name: "cluster.queue_wait_ms", unit: "ms"},
	{name: "cluster.run_ms", unit: "ms"},
	{name: "cluster.report_lag_ms", unit: "ms"},
	{name: "cluster.job_p50_ms", unit: "ms"},
	{name: "cluster.job_p90_ms", unit: "ms"},
	{name: "cluster.affinity_hit_ratio", unit: "ratio"},
	{name: "cluster.warm_fetch_hits", unit: "count"},
	{name: "cluster.delta_serves", unit: "count"},
	{name: "cluster.heartbeats_per_op", unit: "count"},
	{name: "cluster.lease_reassignments", unit: "count"},
	{name: "runtime.gc_cpu_share", unit: "ratio"},
	{name: "runtime.alloc_mb_per_op", unit: "MB"},
	{name: "trace.coverage", unit: "ratio"},
	{name: "trace.overhead", unit: "ratio"},
	{name: "trace.op_p50_ms", unit: "ms"},
}

// setCounters records one op's simulated counters as per-layer metrics.
func (l layerSet) setCounters(c cpu.Counters) {
	l["cpu.sim_instructions"] = float64(c.Instructions)
	l["cpu.sim_cycles"] = float64(c.Cycles)
	l["cpu.mispredicts"] = float64(c.Mispredicts)
	l["cpu.transient_instrs"] = float64(c.TransientInstrs)
	l["cpu.runs"] = float64(c.Runs)
}

// runTraced is the traced mode: the set-ups, an untraced pass over half
// the window, a traced pass over the other half whose ops must reproduce
// the untraced simulated counters of the same inputs exactly, then the
// workload's layer replays.
func (w *workload) runTraced(ctx context.Context, b *bench, rep *report, window time.Duration) (*report, error) {
	tr := newTracer()
	tr.setOp(-1)
	b.setupTracer = tr
	_, _, err := runSetups(ctx, w, b, rep)
	b.setupTracer = nil
	if err != nil {
		return nil, err
	}
	wh0, wm0 := harness.WarmCacheStats()
	sh0, sm0 := harness.SnapStoreStats()
	_, pc0, ps0, ph0, pm0 := harness.PlannerStats()
	lo, err := steady(ctx, w, b, rep, window/2)
	if err != nil {
		return nil, err
	}
	wh1, wm1 := harness.WarmCacheStats()
	sh1, sm1 := harness.SnapStoreStats()
	_, pc1, ps1, ph1, pm1 := harness.PlannerStats()
	l := rep.layer
	for _, d := range layerDefs {
		l[d.name] = 0
	}
	l["harness.warm_hit_ratio"] = ratio(float64(wh1-wh0), float64(wh1-wh0+wm1-wm0))
	l["harness.store_hit_ratio"] = ratio(float64(sh1-sh0), float64(sh1-sh0+sm1-sm0))
	l["harness.planner_shared_ratio"] = ratio(float64(ps1-ps0), float64(pc1-pc0))
	l["harness.prefetch_hit_ratio"] = ratio(float64(ph1-ph0), float64(ph1-ph0+pm1-pm0))
	ref := map[string]cpu.Counters{}
	for _, o := range lo.outs {
		if _, ok := ref[o.key]; !ok {
			ref[o.key] = o.counters
			rep.addCounters(o.key, o.counters)
		}
	}
	if len(lo.outs) > 0 {
		l.setCounters(lo.outs[0].counters)
	}
	n := float64(len(lo.opMS))
	cpuS := lo.after.totalCPU - lo.before.totalCPU
	l["runtime.gc_cpu_share"] = ratio(lo.after.gcCPU-lo.before.gcCPU, cpuS)
	l["runtime.alloc_mb_per_op"] = ratio(float64(lo.after.allocBytes-lo.before.allocBytes)/(1<<20), n)
	untracedP50 := quantile(lo.opMS, 0.5)

	// Traced pass.
	if w.prepareTraced != nil {
		if err := w.prepareTraced(ctx, b, tr); err != nil {
			return nil, err
		}
	}
	var tracedMS, cover []float64
	start := time.Now()
	last := time.Duration(0)
	for k := 0; k < w.minOps || time.Since(start)+last <= window/2; k++ {
		i := b.next()
		tr.setOp(i)
		t0 := time.Now()
		out, err := w.traced(ctx, b, i, tr)
		last = time.Since(t0)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if c, ok := ref[out.key]; err == nil && out.failure == "" && ok && out.counters != c {
			out.failure = fmt.Sprintf("simulated counters %+v differ from the untraced op's %+v", out.counters, c)
		}
		rep.check(fmt.Sprintf("traced op %d", i), out, err)
		if err != nil {
			continue
		}
		tracedMS = append(tracedMS, float64(last.Nanoseconds())/1e6)
		cover = append(cover, ratio(float64(tr.coverage(i).Nanoseconds())/1e6, untracedP50))
	}
	tracedP50 := quantile(tracedMS, 0.5)
	l["trace.op_p50_ms"] = tracedP50
	l["trace.overhead"] = ratio(tracedP50, untracedP50)
	l["trace.coverage"] = quantile(cover, 0.5)

	// Layer replays run outside the measured ops.
	tr.setOp(-2)
	if w.layers != nil {
		if err := w.layers(ctx, b, tr, l); err != nil {
			rep.fail("layer replay: %v", err)
		}
	}
	if err := w.runVerify(ctx, b, rep); err != nil {
		return nil, err
	}
	for _, d := range layerDefs {
		var ds []float64
		for _, name := range d.spans {
			ds = append(ds, tr.durations(name)...)
		}
		if len(ds) > 0 {
			l[d.name] = quantile(ds, 0.5) / d.scale
		}
	}
	var runNS, runInstr float64
	for _, s := range tr.spans {
		if s.name == "cpu.Machine.Run" {
			runNS += float64(s.dur().Nanoseconds())
			runInstr += float64(s.work)
		}
	}
	l["cpu.host_ns_per_instr"] = ratio(runNS, runInstr)

	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := self[name]
		rep.extra = append(rep.extra, fmt.Sprintf("span  %-34s calls=%-6d total_ms=%-12.3f self_ms=%.3f", name, int(v[0]), v[1], v[2]))
	}
	rep.extra = append(rep.extra, fmt.Sprintf("trace untraced op_p50_ms=%s (n=%d) traced op_p50_ms=%s (n=%d) spans=%d",
		fmtFloat(untracedP50), len(lo.opMS), fmtFloat(tracedP50), len(tracedMS), len(tr.spans)))
	return rep, nil
}
