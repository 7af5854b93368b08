// Command perfbench is the repository's benchmark: one closed-loop client
// drives one paper workload for a fixed time, checks every output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer split) as
// a single JSON object on its last line of standard output.
//
//	perfbench -workload aes-keyrec -seed 1 -seconds 20 -trace 0
//
// Workloads: aes-keyrec, fig7-image, grid-resume, cluster-sweep. Every
// input derives from -seed; see NOTES.md for the seed mapping and the
// legacy BENCH_*.json figures each workload replaces.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pathfinder/internal/bpu"
)

// defaultSeed reproduces the legacy inputs: AES seed 31, Fig. 7 seed 29,
// grid seeds 101..103.
const defaultSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the parsed command line plus the environment the workloads run
// in.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // pathfinderd binary for cluster-sweep
	workdir  string // scratch directory inside the checkout
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "aes-keyrec", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed; every input derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured steady-state window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.daemon, "pathfinderd", "", "pathfinderd binary (cluster-sweep)")
	fs.StringVar(&cfg.workdir, "workdir", "", "scratch directory for stores and daemon data")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	if cfg.workdir == "" {
		return 2, fmt.Errorf("-workdir is required")
	}
	var err error
	if cfg.workdir, err = filepath.Abs(cfg.workdir); err != nil {
		return 2, err
	}
	if cfg.daemon != "" {
		if cfg.daemon, err = filepath.Abs(cfg.daemon); err != nil {
			return 2, err
		}
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return 2, err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	prov := provenance(cfg, w)
	printJSON(out, "provenance", prov)

	// Model validation: the simulated predictor's history depth must match
	// Table 1 before any of its results are worth timing.
	knees, kneeErr := validateModel(cfg.seed)
	printJSON(out, "model-validation", knees)

	b := newBench(cfg)
	rep, err := w.run(ctx, b)
	if err != nil {
		return 1, err
	}
	if kneeErr != nil {
		rep.fail("model validation: %v", kneeErr)
	}
	rep.print(out)
	res := rep.result(cfg.trace)
	raw, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(raw))
	if !res.Correct {
		return 1, fmt.Errorf("%s: %d of %d ops failed their output checks; %s", cfg.workload, res.Failed, res.Attempted, strings.Join(rep.problems, "; "))
	}
	return 0, nil
}

// validateModel runs the PHR-depth knee probe on Alder Lake and Skylake.
func validateModel(seed int64) ([]kneeResult, error) {
	var out []kneeResult
	for _, arch := range []bpu.Config{bpu.AlderLake, bpu.Skylake} {
		k, err := measureKnee(arch, seed)
		out = append(out, k)
		if err != nil {
			return out, err
		}
		if !k.ok() {
			return out, fmt.Errorf("%s knee %d is %d away from the Table 1 PHR size %d (limit %d)", k.Arch, k.Knee, k.Error, k.PHRSize, kneeMaxError)
		}
	}
	return out, nil
}

// provenance records where and how a result was measured.
func provenance(cfg config, w *workload) map[string]any {
	host, _ := os.Hostname()
	p := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"params":     w.params(cfg.seed),
		"host":       host,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"started_at": time.Now().UTC().Format(time.RFC3339),
	}
	return p
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision the runner passed in PERFBENCH_COMMIT
// (a git commit, or a digest of the Go sources in a checkout without git).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func printJSON(out io.Writer, label string, v any) {
	raw, _ := json.Marshal(v)
	fmt.Fprintf(out, "%s %s\n", label, raw)
}
