package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pathfinder/internal/cluster"
	"pathfinder/internal/cpu"
	"pathfinder/internal/service"
)

// cluster-sweep: three pathfinderd processes (a coordinator and two
// workers with -workers 1 -heartbeat 100ms). One op is a 12-job aes batch
// (2 archs x 6 fresh seeds, 8 trials, zero noise) POSTed to /v1/batch and
// polled until its report completes.
const (
	clusterTrials   = 8
	clusterSeedsPer = 6
	clusterPoll     = 10 * time.Millisecond
	clusterOpLimit  = 120 * time.Second
	// clusterWarmOps run untimed after the set-ups: a fresh cluster's first
	// half-dozen batches take ~1.5x the steady latency while the daemons'
	// heaps grow and affinity routing learns the warm-state holders.
	clusterWarmOps = 6
)

var clusterArchs = []string{"alderlake", "skylake"}

// clusterWorkerFlags are the worker flags the workload fixes; every other
// flag keeps its default apart from the listen and pprof addresses.
var clusterWorkerFlags = []string{"-workers", "1", "-heartbeat", "100ms"}

// clusterSeeds are op k's six fresh seeds; every op of a run gets its own.
func clusterSeeds(seed int64, k int) []int64 {
	out := make([]int64, clusterSeedsPer)
	for j := range out {
		out[j] = 10000*seed + int64(clusterSeedsPer*k+j) + 1
	}
	return out
}

// daemon is one running pathfinderd process.
type daemon struct {
	cmd   *exec.Cmd
	url   string // API base URL
	pprof string // pprof base URL
	done  chan struct{}
}

// daemonFlags go to every daemon: free loopback ports for the API and for
// pprof, whose heap endpoint is the only export of the Go allocation
// counters.
var daemonFlags = []string{"-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0"}

func startDaemon(bin, dir, name string, args ...string) (*daemon, error) {
	args = append(args, daemonFlags...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	// The daemons must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer logf.Close()
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, "pprof listening on "); ok {
				d.pprof = strings.TrimSuffix(rest, "/debug/pprof/")
			}
			if rest, ok := strings.CutPrefix(line, "pathfinderd listening on "); ok {
				d.url = rest
				close(ready)
			}
		}
		io.Copy(io.Discard, out)
	}()
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening (see %s.log)", name, name)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not start listening", name)
	}
}

// stop drains the daemon with SIGTERM, then kills it if it lingers, and
// waits until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// heapStats reads the daemon's cumulative allocation count, allocated
// bytes and GC CPU fraction from its pprof heap endpoint.
func (d *daemon) heapStats() (mallocs, allocBytes uint64, gcFrac float64, err error) {
	body, err := httpGet(d.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			mallocs, err = strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			found++
		} else if rest, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			allocBytes, err = strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			found++
		} else if rest, ok := strings.CutPrefix(line, "# GCCPUFraction = "); ok {
			gcFrac, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
			found++
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
	if found != 3 {
		return 0, 0, 0, fmt.Errorf("heap profile of %s lacks the MemStats lines", d.url)
	}
	return mallocs, allocBytes, gcFrac, nil
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return body, nil
}

// clusterOp is a finished op awaiting its standalone comparison.
type clusterOp struct {
	k        int
	report   []byte
	counters cpu.Counters
	failed   bool // already counted as failed by its own checks
}

type clusterState struct {
	coord, w0, w1 *daemon
	pending       []clusterOp
	mallocs0      uint64 // daemon allocation counters at the window start
	alloc0        uint64
	svc           *service.Service // in-process standalone reference
	// Traced-pass figures.
	tracedOps                  int
	queueMS, runMS, lagMS, job []float64
	metrics0                   map[string]float64
}

func (s *clusterState) daemons() []*daemon {
	var out []*daemon
	for _, d := range []*daemon{s.coord, s.w0, s.w1} {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

func (s *clusterState) stopAll() {
	for _, d := range s.daemons() {
		d.stop()
	}
	s.coord, s.w0, s.w1 = nil, nil, nil
}

func (s *clusterState) beginWindow() {
	s.mallocs0, s.alloc0, _, _ = s.heapTotals()
}

// heapTotals sums the daemons' allocation counters and averages their GC
// CPU fractions.
func (s *clusterState) heapTotals() (mallocs, allocBytes uint64, gcFrac float64, err error) {
	ds := s.daemons()
	for _, d := range ds {
		m, b, g, err := d.heapStats()
		if err != nil {
			return 0, 0, 0, err
		}
		mallocs += m
		allocBytes += b
		gcFrac += g / float64(len(ds))
	}
	return mallocs, allocBytes, gcFrac, nil
}

func (s *clusterState) allocsPerOp(ops int) float64 {
	n, _, _, err := s.heapTotals()
	if err != nil {
		return 0
	}
	return ratio(float64(n-s.mallocs0), float64(ops))
}

// memMB sums a /proc memory field over the three daemons.
func (s *clusterState) memMB(field string) float64 {
	t := 0.0
	for _, d := range s.daemons() {
		t += procMemMB(d.cmd.Process.Pid, field)
	}
	return t
}

// clusterSetup starts a fresh coordinator and two workers, waits until both
// workers have joined, and runs the first op against the empty caches.
func clusterSetup(ctx context.Context, b *bench, r int) (opOut, error) {
	st, _ := b.state.(*clusterState)
	if st == nil {
		st = &clusterState{}
		b.state = st
	}
	st.stopAll()
	if b.cfg.daemon == "" {
		return opOut{}, fmt.Errorf("cluster-sweep needs -pathfinderd")
	}
	dir := filepath.Join(b.cfg.workdir, fmt.Sprintf("cluster-%d", r))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return opOut{}, err
	}
	var err error
	if st.coord, err = startDaemon(b.cfg.daemon, dir, "coordinator", "-role", "coordinator"); err != nil {
		return opOut{}, err
	}
	for i, w := range []**daemon{&st.w0, &st.w1} {
		args := append([]string{"-role", "worker", "-coordinator", st.coord.url}, clusterWorkerFlags...)
		if *w, err = startDaemon(b.cfg.daemon, dir, fmt.Sprintf("worker%d", i), args...); err != nil {
			return opOut{}, err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var sv cluster.StatusView
		body, err := httpGet(st.coord.url + "/cluster/status")
		if err == nil && json.Unmarshal(body, &sv) == nil && len(sv.Workers) == 2 {
			break
		}
		if time.Now().After(deadline) {
			return opOut{}, fmt.Errorf("workers did not join the coordinator")
		}
		time.Sleep(clusterPoll)
	}
	return clusterRun(ctx, b, st, b.next(), nil)
}

// clusterRun submits one batch and polls it to completion. Its output is
// checked for lost or duplicated jobs now, and against the standalone run
// after the measured window (clusterVerify).
func clusterRun(ctx context.Context, b *bench, st *clusterState, k int, tr *tracer) (opOut, error) {
	if st == nil || st.coord == nil || st.w0 == nil || st.w1 == nil {
		return opOut{}, fmt.Errorf("cluster is not running")
	}
	req := service.BatchRequest{
		Experiment: "aes",
		Params:     service.Params{Trials: clusterTrials, Noise: -1},
		Sweep:      &service.Sweep{Archs: clusterArchs, Seeds: clusterSeeds(b.cfg.seed, k)},
	}
	raw, _ := json.Marshal(req)
	submit := time.Now()
	id := tr.start("pathfinderd.POST /v1/batch", 0)
	resp, err := httpClient.Post(st.coord.url+"/v1/batch", "application/json", bytes.NewReader(raw))
	var sub struct {
		Batch string `json:"batch"`
		Error string `json:"error"`
	}
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
	}
	tr.stop(id, 0)
	if err != nil {
		return opOut{}, err
	}
	if sub.Batch == "" || sub.Error != "" {
		return opOut{}, fmt.Errorf("batch submission rejected: %s", sub.Error)
	}
	want := len(clusterArchs) * clusterSeedsPer
	seen := map[string]time.Time{} // job id -> first observed terminal
	var jobs []cluster.JobView
	for {
		if ctx.Err() != nil {
			return opOut{}, ctx.Err()
		}
		if time.Since(submit) > clusterOpLimit {
			return opOut{}, fmt.Errorf("batch %s unfinished after %s", sub.Batch, clusterOpLimit)
		}
		id := tr.start("pathfinderd.GET /v1/batch/{id}", 0)
		body, err := httpGet(st.coord.url + "/v1/batch/" + sub.Batch)
		tr.stop(id, 0)
		if err != nil {
			return opOut{}, err
		}
		now := time.Now()
		var bv struct {
			Jobs []cluster.JobView `json:"jobs"`
		}
		if err := json.Unmarshal(body, &bv); err != nil {
			return opOut{}, err
		}
		jobs = bv.Jobs
		for _, j := range jobs {
			if _, ok := seen[j.ID]; !ok && isTerminal(j.State) {
				seen[j.ID] = now
			}
		}
		if len(seen) == len(jobs) && len(jobs) >= want {
			break
		}
		time.Sleep(clusterPoll)
	}
	id = tr.start("pathfinderd.GET /v1/batch/{id}/report", 0)
	report, err := httpGet(st.coord.url + "/v1/batch/" + sub.Batch + "/report")
	tr.stop(id, 0)
	if err != nil {
		return opOut{}, fmt.Errorf("report of batch %s: %w", sub.Batch, err)
	}

	out := opOut{key: fmt.Sprintf("op=%d", k)}
	var rep service.Report
	if err := json.Unmarshal(report, &rep); err != nil {
		return opOut{}, err
	}
	keys := map[string]bool{}
	var acc []float64
	for _, row := range rep.Rows {
		p, _ := json.Marshal(row.Params)
		if keys[string(p)] {
			out.failure = fmt.Sprintf("job %s duplicated in the report", p)
		}
		keys[string(p)] = true
		if row.State != service.StateDone {
			out.failure = fmt.Sprintf("job %s ended %s: %s", p, row.State, row.Error)
		}
		var r struct {
			SuccessRate float64 `json:"success_rate"`
		}
		if err := json.Unmarshal(row.Result, &r); err != nil {
			out.failure = fmt.Sprintf("job %s result: %v", p, err)
		}
		acc = append(acc, r.SuccessRate)
	}
	if rep.Total != want || len(rep.Rows) != want || len(jobs) != want {
		out.failure = fmt.Sprintf("batch holds %d jobs (report %d rows), want %d", len(jobs), len(rep.Rows), want)
	}
	out.accuracy = mean(acc)
	for _, j := range jobs {
		done := seen[j.ID]
		out.jobsMS = append(out.jobsMS, float64(done.Sub(submit).Nanoseconds())/1e6)
		if j.SimStats != nil {
			out.counters.Add(*j.SimStats)
		}
		if tr != nil && j.Started != nil && j.Finished != nil {
			st.queueMS = append(st.queueMS, float64(j.Started.Sub(j.Submitted).Nanoseconds())/1e6)
			st.runMS = append(st.runMS, float64(j.Finished.Sub(*j.Started).Nanoseconds())/1e6)
			st.lagMS = append(st.lagMS, float64(done.Sub(*j.Finished).Nanoseconds())/1e6)
		}
	}
	if tr != nil {
		st.job = append(st.job, out.jobsMS...)
		st.tracedOps++
	}
	st.pending = append(st.pending, clusterOp{k: k, report: report, counters: out.counters, failed: out.failure != ""})
	return out, nil
}

func isTerminal(s service.State) bool {
	return s == service.StateDone || s == service.StateFailed || s == service.StateCancelled
}

// clusterVerify runs every finished op's sweep on an in-process standalone
// service and compares report bytes and simulated counters.
func clusterVerify(ctx context.Context, b *bench, rep *report) error {
	st, ok := b.state.(*clusterState)
	if !ok {
		return nil
	}
	if st.svc == nil {
		st.svc = service.New(service.Config{Workers: 2})
	}
	for _, op := range st.pending {
		batch, _, err := st.svc.SubmitSweep("aes", service.Params{Trials: clusterTrials, Noise: -1},
			clusterArchs, clusterSeeds(b.cfg.seed, op.k), 0)
		if err != nil {
			return err
		}
		var views []service.JobView
		for {
			views = st.svc.List(service.ListFilter{Batch: batch})
			all := true
			for _, v := range views {
				all = all && isTerminal(v.State)
			}
			if all {
				break
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			time.Sleep(clusterPoll)
		}
		want, err := service.BuildReport(views).Render()
		if err != nil {
			return err
		}
		var counters cpu.Counters
		for _, v := range views {
			if v.SimStats != nil {
				counters.Add(*v.SimStats)
			}
		}
		var problem string
		switch {
		case !bytes.Equal(want, op.report):
			problem = "cluster report differs from the standalone run"
		case counters != op.counters:
			problem = fmt.Sprintf("cluster simulated counters %+v differ from the standalone run's %+v", op.counters, counters)
		}
		if problem != "" {
			if !op.failed {
				rep.failed++
			}
			rep.fail("op %d: %s", op.k, problem)
		}
	}
	st.pending = nil
	return nil
}

// scrapeMetrics reads every daemon's /metrics and sums each series (name
// plus label set) across the daemons.
func (s *clusterState) scrapeMetrics() (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range s.daemons() {
		body, err := httpGet(d.url + "/metrics")
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			f := strings.Fields(line)
			if len(f) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				continue
			}
			out[f[0]] += v
		}
	}
	return out, nil
}

func clusterLayers(b *bench, l layerSet) error {
	st := b.state.(*clusterState)
	m1, err := st.scrapeMetrics()
	if err != nil {
		return err
	}
	d := func(name string) float64 { return m1[name] - st.metrics0[name] }
	hit := d(`pathfinderd_cluster_affinity_total{outcome="hit"}`)
	miss := d(`pathfinderd_cluster_affinity_total{outcome="miss"}`)
	l["cluster.affinity_hit_ratio"] = ratio(hit, hit+miss)
	l["cluster.warm_fetch_hits"] = d(`pathfinderd_worker_warm_fetch_total{outcome="hit"}`)
	l["cluster.delta_serves"] = d(`pathfinderd_worker_snapshot_delta_total{event="served"}`)
	l["cluster.heartbeats_per_op"] = ratio(d("pathfinderd_cluster_heartbeats_total"), float64(st.tracedOps))
	l["cluster.lease_reassignments"] = d("pathfinderd_cluster_lease_reassignments_total")
	l["cluster.queue_wait_ms"] = quantile(st.queueMS, 0.5)
	l["cluster.run_ms"] = quantile(st.runMS, 0.5)
	l["cluster.report_lag_ms"] = quantile(st.lagMS, 0.5)
	l["cluster.job_p50_ms"] = quantile(st.job, 0.5)
	l["cluster.job_p90_ms"] = quantile(st.job, 0.9)
	// The work runs in the daemons, so the runtime figures are theirs: GC
	// CPU share since start (averaged), allocation per traced op (summed).
	_, alloc, gc, err := st.heapTotals()
	if err != nil {
		return err
	}
	l["runtime.gc_cpu_share"] = gc
	l["runtime.alloc_mb_per_op"] = ratio(float64(alloc-st.alloc0)/(1<<20), float64(st.tracedOps))
	return nil
}

func init() {
	register(&workload{
		name:      "cluster-sweep",
		setupReps: 2,
		warmOps:   clusterWarmOps,
		minOps:    5,
		params: func(seed int64) map[string]any {
			return map[string]any{"daemons": "pathfinderd coordinator + 2 workers", "worker_flags": clusterWorkerFlags,
				"all_daemon_flags": daemonFlags, "warm_up_ops": clusterWarmOps,
				"experiment": "aes", "archs": clusterArchs, "seeds_per_op": clusterSeedsPer, "trials": clusterTrials,
				"noise": -1, "first_seeds": clusterSeeds(seed, 0), "poll": clusterPoll.String()}
		},
		setup: clusterSetup,
		op: func(ctx context.Context, b *bench, i int) (opOut, error) {
			st, _ := b.state.(*clusterState)
			return clusterRun(ctx, b, st, i, nil)
		},
		verify: clusterVerify,
		prepareTraced: func(ctx context.Context, b *bench, tr *tracer) error {
			st := b.state.(*clusterState)
			var err error
			if st.metrics0, err = st.scrapeMetrics(); err != nil {
				return err
			}
			st.beginWindow()
			return nil
		},
		traced: func(ctx context.Context, b *bench, i int, tr *tracer) (opOut, error) {
			st, _ := b.state.(*clusterState)
			return clusterRun(ctx, b, st, i, tr)
		},
		layers: func(ctx context.Context, b *bench, tr *tracer, l layerSet) error { return clusterLayers(b, l) },
		close: func(b *bench) {
			if st, ok := b.state.(*clusterState); ok {
				st.stopAll()
				if st.svc != nil {
					st.svc.Shutdown(context.Background())
				}
			}
		},
	})
}
