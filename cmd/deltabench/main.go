// Command deltabench regenerates BENCH_delta.json: the three costs the
// differential-snapshot layer attacks, each measured full-fat versus
// delta. Restore: the warm per-trial rewind on the real AES path, flat
// full-copy versus dirty-tracked. Wire: one noise-sibling grid cell's
// snapshot, full PFSN blob versus PFWD delta frame. Store: the on-disk
// footprint of an AES grid sweep, full blobs versus delta chains — with
// the delta-on and delta-off sweep reports compared byte for byte.
//
//	go run ./cmd/deltabench -min-speedup 3 -min-wire-ratio 5 -min-store-ratio 5 -o BENCH_delta.json
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

	"pathfinder/internal/aes"
	"pathfinder/internal/attack"
	"pathfinder/internal/bpu"
	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/snapstore"
	"pathfinder/internal/wire"
)

type benchReport struct {
	Description     string  `json:"description"`
	RestoreIters    int     `json:"restore_iters"`
	RestoreFullNS   int64   `json:"restore_full_ns"`
	RestoreDirtyNS  int64   `json:"restore_dirty_ns"`
	RestoreSpeedup  float64 `json:"restore_speedup"`
	WireFullBytes   int     `json:"wire_full_bytes"`
	WireDeltaBytes  int     `json:"wire_delta_bytes"`
	WireRatio       float64 `json:"wire_ratio"`
	StoreFullBytes  int64   `json:"store_full_bytes"`
	StoreDeltaBytes int64   `json:"store_delta_bytes"`
	StoreRatio      float64 `json:"store_ratio"`
	ByteIdentical   bool    `json:"byte_identical"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("deltabench", flag.ContinueOnError)
	iters := fs.Int("iters", 200, "timed restore repetitions per path")
	trials := fs.Int("trials", 6, "oracle-query trials per grid cell in the store phase")
	nseeds := fs.Int("seeds", 2, "number of base seeds in the store-phase grid")
	minSpeedup := fs.Float64("min-speedup", 0, "fail unless the dirty-tracked restore is at least this many times faster than the flat copy (0 = report only)")
	minWire := fs.Float64("min-wire-ratio", 0, "fail unless the PFWD delta is at least this many times smaller than the full blob (0 = report only)")
	minStore := fs.Float64("min-store-ratio", 0, "fail unless delta chains shrink the on-disk grid at least this many times (0 = report only)")
	out := fs.String("o", "", "output path (empty = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *iters <= 0 || *trials <= 0 || *nseeds <= 0 {
		return fmt.Errorf("-iters, -trials and -seeds must all be positive")
	}

	rep := benchReport{
		Description: "Differential-snapshot costs on the AES path: warm per-trial restore " +
			"(flat full copy vs dirty-tracked), encoded snapshot bytes (full PFSN blob vs " +
			"PFWD delta between noise-sibling phase-1 states), and on-disk footprint of an " +
			"arch x seed x noise grid (full blobs vs bounded delta chains), with delta " +
			"on/off sweep reports compared byte for byte. " +
			"Regenerate with: go run ./cmd/deltabench -o BENCH_delta.json",
		RestoreIters: *iters,
	}

	// Phase 1 — restore. Build the real AES per-trial shape: phase-1
	// control-flow recovery on a primary machine, Fork+Warm(2) on a trial
	// machine, snapshot, then repeatedly run a trial and rewind. The full
	// path forgets restore-sync before every rewind (the cost every trial
	// paid before dirty tracking); the dirty path keeps it, so each rewind
	// copies only what its trial touched.
	key := []byte("pathfinder-aes16")
	primary := cpu.New(cpu.Options{Arch: bpu.AlderLake, Seed: 1})
	a, err := attack.NewAESAttack(primary, append([]byte(nil), key...))
	if err != nil {
		return err
	}
	if err := a.RecoverControlFlow(); err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}
	tm := cpu.New(cpu.Options{Arch: bpu.AlderLake, Seed: 2})
	ta, err := a.Fork(tm)
	if err != nil {
		return err
	}
	if err := ta.Warm(2); err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	snap := tm.Snapshot()
	var pt aes.Block
	for i := range pt {
		pt[i] = byte(i * 17)
	}
	trial := func(i int) error {
		tm.Reseed(int64(100 + i))
		_, _, err := ta.LeakReducedRound(pt, i%9)
		return err
	}
	measure := func(forget bool) (int64, error) {
		tm.RestoreFrom(snap) // establish restore-sync
		var total time.Duration
		for i := 0; i < *iters; i++ {
			if err := trial(i); err != nil {
				return 0, err
			}
			if forget {
				tm.ForgetRestoreSync()
			}
			t0 := time.Now()
			tm.RestoreFrom(snap)
			total += time.Since(t0)
		}
		return total.Nanoseconds() / int64(*iters), nil
	}
	if rep.RestoreFullNS, err = measure(true); err != nil {
		return fmt.Errorf("full restore: %w", err)
	}
	if rep.RestoreDirtyNS, err = measure(false); err != nil {
		return fmt.Errorf("dirty restore: %w", err)
	}
	rep.RestoreSpeedup = float64(rep.RestoreFullNS) / float64(rep.RestoreDirtyNS)

	// Phase 2 — wire. Two noise-sibling phase-1 states: the adjacent cells
	// of a noise sweep, the pair a store delta chain links — the PFWD frame
	// against the previous noise point's state versus the full blob.
	sibling := cpu.New(cpu.Options{Arch: bpu.AlderLake, Seed: 1, Noise: 0.02})
	sa, err := attack.NewAESAttack(sibling, append([]byte(nil), key...))
	if err != nil {
		return err
	}
	if err := sa.RecoverControlFlow(); err != nil {
		return fmt.Errorf("sibling phase 1: %w", err)
	}
	baseBlob, err := primary.Snapshot().MarshalBinary()
	if err != nil {
		return err
	}
	targetBlob, err := sibling.Snapshot().MarshalBinary()
	if err != nil {
		return err
	}
	delta := wire.EncodeDelta(baseBlob, targetBlob)
	if got, err := wire.DecodeDelta(baseBlob, delta); err != nil {
		return fmt.Errorf("delta round trip: %w", err)
	} else if !bytes.Equal(got, targetBlob) {
		return fmt.Errorf("delta round trip diverged")
	}
	rep.WireFullBytes = len(targetBlob)
	rep.WireDeltaBytes = len(delta)
	rep.WireRatio = float64(rep.WireFullBytes) / float64(rep.WireDeltaBytes)

	// Phase 3 — store. An arch x seed x noise AES grid spilled to two fresh
	// stores, delta chains off then on; the footprint ratio is the on-disk
	// saving and the two reports must be byte-identical (delta persistence
	// is correctness-neutral). The noise axis is where chains earn their
	// keep: noise points share a training prefix, so their checkpoints
	// delta to a few dozen bytes.
	archs := []bpu.Config{bpu.AlderLake, bpu.Skylake}
	seeds := make([]int64, *nseeds)
	for i := range seeds {
		seeds[i] = int64(101 + i)
	}
	noises := []float64{0, 0.02, 0.04, 0.06}
	grid := func(deltaOn bool) ([]byte, int64, error) {
		dir, err := os.MkdirTemp("", "deltabench-store-*")
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
		st, err := snapstore.Open(dir, snapstore.DefaultMaxBytes)
		if err != nil {
			return nil, 0, err
		}
		harness.ResetWarmCache()
		harness.SetStoreDeltaEnabled(deltaOn)
		harness.SetSnapStore(st)
		defer harness.SetSnapStore(nil)
		defer harness.SetStoreDeltaEnabled(true)
		// Parallelism 1 keeps the spill order — and with it the delta-chain
		// shapes and the footprint ratio — deterministic across machines.
		repo, err := harness.AESGridSweep(context.Background(),
			harness.Options{Seed: seeds[0], Parallelism: 1},
			*trials, archs, seeds, noises)
		if err != nil {
			return nil, 0, err
		}
		raw, err := json.Marshal(repo)
		if err != nil {
			return nil, 0, err
		}
		_, _, _, _, bytes, _ := st.Stats()
		return raw, bytes, nil
	}
	rawFull, fullBytes, err := grid(false)
	if err != nil {
		return fmt.Errorf("store grid (full): %w", err)
	}
	rawDelta, deltaBytes, err := grid(true)
	if err != nil {
		return fmt.Errorf("store grid (delta): %w", err)
	}
	rep.StoreFullBytes = fullBytes
	rep.StoreDeltaBytes = deltaBytes
	rep.StoreRatio = float64(fullBytes) / float64(deltaBytes)
	rep.ByteIdentical = bytes.Equal(rawFull, rawDelta)
	if !rep.ByteIdentical {
		return fmt.Errorf("delta-on and delta-off sweep reports diverged: delta persistence must be correctness-neutral")
	}

	switch {
	case *minSpeedup > 0 && rep.RestoreSpeedup < *minSpeedup:
		return fmt.Errorf("dirty restore speedup %.2fx is below the %.2fx floor (full %dns, dirty %dns)",
			rep.RestoreSpeedup, *minSpeedup, rep.RestoreFullNS, rep.RestoreDirtyNS)
	case *minWire > 0 && rep.WireRatio < *minWire:
		return fmt.Errorf("wire ratio %.2fx is below the %.2fx floor (full %dB, delta %dB)",
			rep.WireRatio, *minWire, rep.WireFullBytes, rep.WireDeltaBytes)
	case *minStore > 0 && rep.StoreRatio < *minStore:
		return fmt.Errorf("store ratio %.2fx is below the %.2fx floor (full %dB, delta %dB)",
			rep.StoreRatio, *minStore, rep.StoreFullBytes, rep.StoreDeltaBytes)
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
	fmt.Fprintf(stdout, "restore %dns -> %dns (%.2fx), wire %dB -> %dB (%.2fx), store %dB -> %dB (%.2fx), byte-identical %v\n",
		rep.RestoreFullNS, rep.RestoreDirtyNS, rep.RestoreSpeedup,
		rep.WireFullBytes, rep.WireDeltaBytes, rep.WireRatio,
		rep.StoreFullBytes, rep.StoreDeltaBytes, rep.StoreRatio, rep.ByteIdentical)
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}
