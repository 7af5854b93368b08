package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"

	"pathfinder/internal/bpu"
	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/snapstore"
	"pathfinder/internal/wire"
)

// grid-resume: a cold-process harness.AESGridSweep over {Alder Lake,
// Skylake} x 8 seeds x noise 0 at 6 trials per cell (the BENCH_sweep.json
// grid has the first 3 of these seeds). Set-up populates a snapshot store;
// each op empties the in-process warm cache first, so every training
// prefix comes back from disk. Eight seeds make an op (~155 ms on a 2-vCPU
// VM) long enough to average out the sub-second bursts in which the other
// vCPU of a shared host is busy; a 3-seed op is not (see NOTES.md).
const (
	gridTrials = 6
	gridSeedN  = 8
)

var gridArchs = []bpu.Config{bpu.AlderLake, bpu.Skylake}

// gridSeeds maps the workload seed to the grid's base seeds; the default
// workload seed gives 101..108, whose first three are the BENCH_sweep.json
// seeds.
func gridSeeds(seed int64) []int64 {
	out := make([]int64, gridSeedN)
	for j := range out {
		out[j] = 100 + seed + int64(j)
	}
	return out
}

// tracedStore wraps the snapshot store so the benchmark can time every
// call the harness makes into it. While no tracer is attached it forwards
// untimed.
type tracedStore struct {
	*snapstore.Store
	tr     atomic.Pointer[tracer]
	parent atomic.Int64
}

func (s *tracedStore) Load(key string) (*cpu.Snapshot, *core.ExtendedResult, bool) {
	tr := s.tr.Load()
	id := tr.start("snapstore.Load", int(s.parent.Load()))
	snap, rec, ok := s.Store.Load(key)
	tr.stop(id, 0)
	return snap, rec, ok
}

func (s *tracedStore) Save(key string, snap *cpu.Snapshot, rec *core.ExtendedResult) {
	tr := s.tr.Load()
	id := tr.start("snapstore.Save", int(s.parent.Load()))
	s.Store.Save(key, snap, rec)
	tr.stop(id, 0)
}

// SaveDelta keeps the wrapper a harness.DeltaSaver, so the harness still
// persists delta chains through it exactly as through the bare store.
func (s *tracedStore) SaveDelta(key string, snap *cpu.Snapshot, rec *core.ExtendedResult, baseKey string) {
	tr := s.tr.Load()
	id := tr.start("snapstore.Save", int(s.parent.Load()))
	s.Store.SaveDelta(key, snap, rec, baseKey)
	tr.stop(id, 0)
}

type gridState struct {
	store *tracedStore
	ref   []byte // the set-up run's report bytes
}

func gridSweep(ctx context.Context, seed int64) ([]byte, opOut, error) {
	seeds := gridSeeds(seed)
	harness.ResetWarmCache()
	rep, err := harness.AESGridSweep(ctx, harness.Options{Seed: seeds[0]}, gridTrials, gridArchs, seeds, []float64{0})
	if err != nil {
		return nil, opOut{}, err
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return nil, opOut{}, err
	}
	var acc []float64
	for _, p := range rep.Points {
		acc = append(acc, p.Result.SuccessRate)
	}
	return raw, opOut{key: "grid", accuracy: mean(acc), counters: rep.Stats}, nil
}

// gridSetup opens a fresh store, installs it, and runs the populating
// sweep, whose report becomes the reference every op must reproduce.
func gridSetup(ctx context.Context, b *bench, r int) (opOut, error) {
	st, _ := b.state.(*gridState)
	if st == nil {
		st = &gridState{}
		b.state = st
	}
	dir := filepath.Join(b.cfg.workdir, fmt.Sprintf("store-%d", r))
	if err := os.RemoveAll(dir); err != nil {
		return opOut{}, err
	}
	store, err := snapstore.Open(dir, snapstore.DefaultMaxBytes)
	if err != nil {
		return opOut{}, err
	}
	ts := &tracedStore{Store: store}
	ts.tr.Store(b.setupTracer)
	if st.store != nil {
		os.RemoveAll(st.store.Dir())
	}
	st.store = ts
	harness.SetSnapStore(ts)
	raw, out, err := gridSweep(ctx, b.cfg.seed)
	if err != nil {
		return opOut{}, err
	}
	if st.ref != nil && !bytes.Equal(raw, st.ref) {
		out.failure = "set-up report bytes differ from the first set-up's"
	}
	st.ref = raw
	return out, nil
}

func gridOp(ctx context.Context, b *bench, tr *tracer) (opOut, error) {
	st := b.state.(*gridState)
	st.store.tr.Store(tr)
	id := tr.start("harness.AESGridSweep", 0)
	st.store.parent.Store(int64(id))
	raw, out, err := gridSweep(ctx, b.cfg.seed)
	tr.stop(id, 0)
	if err != nil {
		return opOut{}, err
	}
	if !bytes.Equal(raw, st.ref) {
		out.failure = "report bytes differ from the set-up run"
	}
	return out, nil
}

// gridLayers replays the warm-state tiers over the populated store: load,
// wire encode and decode, machine construction, restore and snapshot of
// every entry, and the delta size between sibling snapshots.
func gridLayers(b *bench, tr *tracer, l layerSet) error {
	st := b.state.(*gridState)
	st.store.tr.Store(nil)
	_, _, _, _, size, entries := st.store.Stats()
	l["snapstore.bytes"] = float64(size)
	l["snapstore.entries"] = float64(entries)
	ents := st.store.Entries()
	sort.Slice(ents, func(i, j int) bool { return ents[i].Key < ents[j].Key })
	blobs := map[string][][]byte{} // arch -> encoded snapshots, key order
	for _, e := range ents {
		id := tr.start("snapstore.Load", 0)
		snap, _, ok := st.store.Store.Load(e.Key)
		tr.stop(id, 0)
		if !ok {
			return fmt.Errorf("store entry %s vanished", e.Key)
		}
		id = tr.start("wire.MarshalBinary", 0)
		raw, err := snap.MarshalBinary()
		tr.stop(id, 0)
		if err != nil {
			return err
		}
		id = tr.start("wire.DecodeSnapshot", 0)
		dec, err := cpu.DecodeSnapshot(raw)
		tr.stop(id, 0)
		if err != nil {
			return err
		}
		blobs[dec.Arch()] = append(blobs[dec.Arch()], raw)
		arch, ok := archByName(dec.Arch())
		if !ok {
			return fmt.Errorf("snapshot arch %q unknown", dec.Arch())
		}
		id = tr.start("cpu.New", 0)
		m := cpu.New(cpu.Options{Arch: arch})
		tr.stop(id, 0)
		id = tr.start("cpu.RestoreFrom", 0)
		m.RestoreFrom(dec)
		tr.stop(id, 0)
		id = tr.start("cpu.Snapshot", 0)
		m.Snapshot()
		tr.stop(id, 0)
	}
	var full, delta float64
	for _, list := range blobs {
		for i := 1; i < len(list); i++ {
			full += float64(len(list[i]))
			delta += float64(len(wire.EncodeDelta(list[i-1], list[i])))
		}
	}
	l["wire.delta_ratio"] = ratio(full, delta)
	return nil
}

func archByName(name string) (bpu.Config, bool) {
	for _, c := range bpu.Configs() {
		if c.Name == name {
			return c, true
		}
	}
	return bpu.Config{}, false
}

func init() {
	register(&workload{
		name:      "grid-resume",
		setupReps: 3,
		warmOps:   3,
		minOps:    20,
		params: func(seed int64) map[string]any {
			return map[string]any{"driver": "harness.AESGridSweep", "trials": gridTrials, "archs": []string{bpu.AlderLake.Name, bpu.Skylake.Name},
				"seeds": gridSeeds(seed), "noises": []float64{0}, "store": "snapstore, default cap", "parallelism": runtime.GOMAXPROCS(0)}
		},
		setup:  gridSetup,
		op:     func(ctx context.Context, b *bench, i int) (opOut, error) { return gridOp(ctx, b, nil) },
		traced: func(ctx context.Context, b *bench, i int, tr *tracer) (opOut, error) { return gridOp(ctx, b, tr) },
		layers: func(ctx context.Context, b *bench, tr *tracer, l layerSet) error { return gridLayers(b, tr, l) },
		close: func(b *bench) {
			harness.SetSnapStore(nil)
			if st, ok := b.state.(*gridState); ok && st.store != nil {
				os.RemoveAll(st.store.Dir())
			}
		},
	})
}
