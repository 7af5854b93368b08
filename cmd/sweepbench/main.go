// Command sweepbench regenerates BENCH_sweep.json: wall-clock of a
// cold-process AES grid sweep with no snapshot store and backed by a
// pre-warmed persistent snapshot store. Each measured run starts from an
// empty in-process warm cache, simulating a freshly started daemon, and
// both paths must produce byte-identical reports.
//
//	go run ./cmd/sweepbench -trials 6 -seeds 3 -runs 2 -o BENCH_sweep.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pathfinder/internal/bpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/snapstore"
)

type phaseReport struct {
	Name      string `json:"name"`
	Runs      int    `json:"runs"`
	AvgNS     int64  `json:"avg_ns"`
	BestNS    int64  `json:"best_ns"`
	StoreHits uint64 `json:"store_hits"`
}

type benchReport struct {
	Description   string        `json:"description"`
	Trials        int           `json:"trials"`
	Archs         []string      `json:"archs"`
	Seeds         []int64       `json:"seeds"`
	Runs          int           `json:"runs"`
	Phases        []phaseReport `json:"phases"`
	SpeedupStore  float64       `json:"speedup_store_warm"`
	ByteIdentical bool          `json:"byte_identical"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweepbench", flag.ContinueOnError)
	trials := fs.Int("trials", 6, "oracle-query trials per grid cell")
	nseeds := fs.Int("seeds", 3, "number of base seeds in the grid")
	runs := fs.Int("runs", 2, "measured cold-process repetitions per phase")
	minSpeedup := fs.Float64("min-speedup", 0, "fail unless the store-warm path is at least this many times faster than the naive path (0 = report only)")
	out := fs.String("o", "", "output path (empty = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials <= 0 || *nseeds <= 0 || *runs <= 0 {
		return fmt.Errorf("-trials, -seeds and -runs must all be positive")
	}

	archs := []bpu.Config{bpu.AlderLake, bpu.Skylake}
	seeds := make([]int64, *nseeds)
	for i := range seeds {
		seeds[i] = int64(101 + i)
	}
	noises := []float64{0}

	// grid runs one simulated cold process: the in-process warm cache is
	// emptied first, so all training state comes from compute or — when a
	// store is installed — from disk.
	grid := func() ([]byte, time.Duration, error) {
		harness.ResetWarmCache()
		opts := harness.Options{Seed: seeds[0]}
		t0 := time.Now()
		rep, err := harness.AESGridSweep(context.Background(), opts, *trials, archs, seeds, noises)
		elapsed := time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		raw, err := json.Marshal(rep)
		return raw, elapsed, err
	}

	measure := func(name string) (phaseReport, []byte, error) {
		ph := phaseReport{Name: name, Runs: *runs}
		harness.ResetSnapStoreStats()
		var canonical []byte
		var best time.Duration
		var total time.Duration
		for r := 0; r < *runs; r++ {
			raw, elapsed, err := grid()
			if err != nil {
				return ph, nil, fmt.Errorf("%s run %d: %w", name, r, err)
			}
			if canonical == nil {
				canonical = raw
			} else if !bytes.Equal(canonical, raw) {
				return ph, nil, fmt.Errorf("%s run %d: report bytes diverged", name, r)
			}
			total += elapsed
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		hits, _ := harness.SnapStoreStats()
		ph.AvgNS = total.Nanoseconds() / int64(*runs)
		ph.BestNS = best.Nanoseconds()
		ph.StoreHits = hits
		return ph, canonical, nil
	}

	// Phase 1: the naive path — no store, every prefix trained per process.
	harness.SetSnapStore(nil)
	naive, rawNaive, err := measure("naive")
	if err != nil {
		return err
	}

	// Phase 2: persistent store. One unmeasured priming run fills the
	// store; the measured cold processes then restore their training
	// prefixes from disk, each next prefix prefetched while a cell runs.
	storeDir, err := os.MkdirTemp("", "sweepbench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	st, err := snapstore.Open(storeDir, snapstore.DefaultMaxBytes)
	if err != nil {
		return err
	}
	harness.SetSnapStore(st)
	defer harness.SetSnapStore(nil)
	if _, _, err := grid(); err != nil {
		return fmt.Errorf("priming run: %w", err)
	}
	warm, rawWarm, err := measure("store-warm")
	if err != nil {
		return err
	}

	identical := bytes.Equal(rawNaive, rawWarm)
	if !identical {
		return fmt.Errorf("execution paths disagree: both phases must produce byte-identical reports")
	}

	archNames := make([]string, len(archs))
	for i, a := range archs {
		archNames[i] = a.Name
	}
	rep := benchReport{
		Description: "Cold-process AES grid sweep (arch x seed, noise 0) with no snapshot " +
			"store (naive) and backed by a pre-warmed persistent snapshot store. Every " +
			"measured run starts from an empty warm cache; speedup_store_warm is " +
			"naive avg / store-warm avg. " +
			"Regenerate with: go run ./cmd/sweepbench -o BENCH_sweep.json",
		Trials: *trials, Archs: archNames, Seeds: seeds, Runs: *runs,
		Phases:        []phaseReport{naive, warm},
		SpeedupStore:  float64(naive.AvgNS) / float64(warm.AvgNS),
		ByteIdentical: identical,
	}
	if *minSpeedup > 0 && rep.SpeedupStore < *minSpeedup {
		return fmt.Errorf("store-warm speedup %.2fx is below the %.2fx floor", rep.SpeedupStore, *minSpeedup)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, err = stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "naive %.1fms, store-warm %.1fms (%.2fx), byte-identical %v\n",
		float64(naive.AvgNS)/1e6, float64(warm.AvgNS)/1e6, rep.SpeedupStore, identical)
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}
