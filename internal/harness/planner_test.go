package harness

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"pathfinder/internal/bpu"
	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/snapstore"
)

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{{}, {Parallelism: 4, BatchSize: 1}, {Parallelism: 1}} {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	cases := []struct {
		opts  Options
		field string
	}{
		{Options{Parallelism: -1}, "Parallelism"},
		{Options{BatchSize: -3}, "BatchSize"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		var oe *OptionsError
		if !errors.As(err, &oe) {
			t.Fatalf("Validate(%+v) = %v, want *OptionsError", tc.opts, err)
		}
		if oe.Field != tc.field {
			t.Errorf("rejected field %q, want %q", oe.Field, tc.field)
		}
	}
	// The sharded drivers must refuse to start rather than absorb the value.
	if _, err := AESLeakEval(context.Background(), Options{Parallelism: -2}, 1, 0); err == nil {
		t.Error("AESLeakEval accepted negative Parallelism")
	}
	if _, err := ReadPHRRandomEval(context.Background(), Options{BatchSize: -1}, 1, 1); err == nil {
		t.Error("ReadPHRRandomEval accepted negative BatchSize")
	}
	if _, err := AESGridSweep(context.Background(), Options{Parallelism: -1}, 1, nil, nil, nil); err == nil {
		t.Error("AESGridSweep accepted negative Parallelism")
	}
}

// fakeSnapStore is an in-memory SnapStore for the cache-tier unit tests.
type fakeSnapStore struct {
	mu    sync.Mutex
	m     map[string]*warmEntry
	saves int
	loads int
}

func newFakeSnapStore() *fakeSnapStore { return &fakeSnapStore{m: make(map[string]*warmEntry)} }

func (f *fakeSnapStore) Load(key string) (*cpu.Snapshot, *core.ExtendedResult, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads++
	e, ok := f.m[key]
	if !ok {
		return nil, nil, false
	}
	return e.snap, e.rec, true
}

func (f *fakeSnapStore) Save(key string, snap *cpu.Snapshot, rec *core.ExtendedResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.m[key]; ok {
		return
	}
	f.m[key] = &warmEntry{snap: snap, rec: rec}
	f.saves++
}

func (f *fakeSnapStore) Stats() (hits, misses, puts, evictions uint64, bytes int64, entries int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return 0, 0, uint64(f.saves), 0, 0, len(f.m)
}

// installFakeStore swaps in a fake store and resets every global the spill
// tier touches, restoring the world on cleanup.
func installFakeStore(t *testing.T) *fakeSnapStore {
	t.Helper()
	f := newFakeSnapStore()
	SetSnapStore(f)
	warm.reset()
	ResetSnapStoreStats()
	ResetPlannerStats()
	t.Cleanup(func() {
		SetSnapStore(nil)
		warm.reset()
		ResetSnapStoreStats()
		ResetPlannerStats()
	})
	return f
}

// TestWarmCacheStoreTier: the in-memory cache must spill to the installed
// store on both population paths and consult it on both miss paths.
func TestWarmCacheStoreTier(t *testing.T) {
	f := installFakeStore(t)
	snap := cpu.New(cpu.Options{Seed: 1}).Snapshot()
	key := warmKey{kind: "tier", arch: "a", seed: 9}

	// do: a computed entry spills.
	computes := 0
	if _, err := warm.do(key, func() (*warmEntry, error) {
		computes++
		return &warmEntry{snap: snap}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if f.saves != 1 {
		t.Fatalf("do spilled %d entries, want 1", f.saves)
	}

	// Cold cache, warm store: do must restore instead of recomputing.
	warm.reset()
	e, err := warm.do(key, func() (*warmEntry, error) {
		computes++
		return nil, errors.New("unreachable: store should have served this")
	})
	if err != nil || e == nil || e.snap == nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	if hits, _ := SnapStoreStats(); hits != 1 {
		t.Fatalf("store consult hits = %d, want 1", hits)
	}

	// putIfAbsent spills; getOrFetch consults the store before the fetcher.
	key2 := warmKey{kind: "tier", arch: "a", seed: 10}
	warm.putIfAbsent(key2, &warmEntry{snap: snap})
	if f.saves != 2 {
		t.Fatalf("putIfAbsent spilled %d entries total, want 2", f.saves)
	}
	warm.reset()
	SetWarmFetch(func(WarmStateKey) (*cpu.Snapshot, bool) {
		t.Error("fetcher consulted although the store holds the key")
		return nil, false
	})
	defer SetWarmFetch(nil)
	if _, ok := warm.getOrFetch(key2); !ok {
		t.Fatal("getOrFetch missed an entry the store holds")
	}
}

// TestSweepPrefetchPipeline: while one prefix run executes, the next
// run's prefix must be pulled from the store into the warm cache in the
// background, so the run's first cell starts from a resident entry.
func TestSweepPrefetchPipeline(t *testing.T) {
	f := installFakeStore(t)
	snap := cpu.New(cpu.Options{Seed: 2}).Snapshot()
	kA := WarmStateKey{Kind: "pf", Arch: "a", Seed: 1}
	kB := WarmStateKey{Kind: "pf", Arch: "a", Seed: 2}
	f.m[kB.String()] = &warmEntry{snap: snap} // only B is disk-resident

	sawResident := false
	cells := []sweepCell{
		{label: "a", prefix: kA, run: func(context.Context) error { return nil }},
		{label: "b", prefix: kB, run: func(context.Context) error {
			// The loop waits for B's prefetch before running this cell, so
			// the entry must already be in the in-memory cache.
			sawResident = warm.touch(kB.internal())
			return nil
		}},
	}
	if err := runSweep(context.Background(), Options{WarmCache: WarmCacheOn}, cells); err != nil {
		t.Fatal(err)
	}
	if !sawResident {
		t.Fatal("run B's prefix was not resident when its cell ran")
	}
	groups, ncells, shared, pfHits, _ := PlannerStats()
	if groups != 2 || ncells != 2 || shared != 0 {
		t.Fatalf("sweep stats groups=%d cells=%d shared=%d", groups, ncells, shared)
	}
	if pfHits != 1 {
		t.Fatalf("prefetch hits = %d, want 1", pfHits)
	}
}

// TestAESGridSweepPrefetchLeavesLookupCounts: the prefetch's residency
// check is not a warm-cache lookup. Over a warm store, a grid sweep of
// distinct cells records exactly the warm-cache lookups of the same cells
// run as plain AESLeakEval calls in the same order: the prefetch turns the
// phase-1 misses into hits but adds no lookups of its own.
func TestAESGridSweepPrefetchLeavesLookupCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	seeds := []int64{31, 32, 33}
	opts := Options{Parallelism: 1, WarmCache: WarmCacheOn}
	const trials = 2
	dir := t.TempDir()
	coldProcess := func(t *testing.T) {
		t.Helper()
		warm.reset()
		ResetPlannerStats()
		s, err := snapstore.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		SetSnapStore(s)
	}
	defer SetSnapStore(nil)
	defer ResetPlannerStats()

	coldProcess(t) // priming run: fills the store
	if _, err := AESGridSweep(ctx, opts, trials, nil, seeds, nil); err != nil {
		t.Fatal(err)
	}

	coldProcess(t)
	for _, s := range seeds {
		o := opts
		o.Seed = s
		if _, err := AESLeakEval(ctx, o, trials, 0); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := WarmCacheStats()
	want := hits + misses

	coldProcess(t)
	if _, err := AESGridSweep(ctx, opts, trials, nil, seeds, nil); err != nil {
		t.Fatal(err)
	}
	hits, misses = WarmCacheStats()
	if got := hits + misses; got != want {
		t.Errorf("sweep recorded %d warm-cache lookups, want the drivers' own %d", got, want)
	}
	if _, _, _, pfHits, _ := PlannerStats(); pfHits != uint64(len(seeds)-1) {
		t.Errorf("prefetch hits = %d, want %d", pfHits, len(seeds)-1)
	}
}

// TestSweepCellError: a failing cell aborts the sweep with its label.
func TestSweepCellError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	cells := []sweepCell{
		{label: "ok", run: func(context.Context) error { ran++; return nil }},
		{label: "bad", run: func(context.Context) error { return boom }},
		{label: "never", run: func(context.Context) error { ran++; return nil }},
	}
	err := runSweep(context.Background(), Options{}, cells)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v, want the failing cell's label", err)
	}
	if ran != 1 {
		t.Fatalf("%d cells ran after the failure, want sweep aborted", ran)
	}
}

// TestAESGridSweepPlannerStoreByteIdentical is the sweep's determinism
// contract: the grid report is byte-identical with the warm cache and the
// persistent store off, cold or warm, at sequential and parallel
// Parallelism and at per-trial and auto BatchSize.
func TestAESGridSweepPlannerStoreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	archs := []bpu.Config{bpu.AlderLake, bpu.Skylake}
	seeds := []int64{31}
	const trials = 3

	run := func(t *testing.T, opts Options, store SnapStore) string {
		t.Helper()
		warm.reset()
		SetSnapStore(store)
		defer SetSnapStore(nil)
		rep, err := AESGridSweep(ctx, opts, trials, archs, seeds, nil)
		if err != nil {
			t.Fatal(err)
		}
		return marshalReport(t, rep)
	}

	want := run(t, Options{Parallelism: 1, WarmCache: WarmCacheOff}, nil)

	dir := t.TempDir()
	openStore := func(t *testing.T) *snapstore.Store {
		s, err := snapstore.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	cases := []struct {
		name  string
		opts  Options
		store bool
	}{
		{"planner-on", Options{WarmCache: WarmCacheOn}, false},
		{"planner-on-store-cold", Options{WarmCache: WarmCacheOn}, true},
		{"planner-on-store-warm", Options{WarmCache: WarmCacheOn}, true},
		{"p1-batch1-store-warm", Options{Parallelism: 1, BatchSize: 1, WarmCache: WarmCacheOn}, true},
		{"p4-store-warm", Options{Parallelism: 4, WarmCache: WarmCacheOn}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s SnapStore
			if tc.store {
				s = openStore(t) // fresh Open each run: the cold-process path
			}
			if got := run(t, tc.opts, s); got != want {
				t.Errorf("report diverges from the cache-off sequential baseline\ngot:  %s\nwant: %s", got, want)
			}
		})
	}

	// After the warm runs above, a cold process (fresh warm cache, fresh
	// store handle over the same directory) must resume from disk.
	warm.reset()
	ResetSnapStoreStats()
	s := openStore(t)
	SetSnapStore(s)
	defer SetSnapStore(nil)
	rep, err := AESGridSweep(ctx, Options{WarmCache: WarmCacheOn}, trials, archs, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalReport(t, rep); got != want {
		t.Error("cold-process store-warm report diverges")
	}
	if hits, _ := SnapStoreStats(); hits == 0 {
		t.Error("cold-process rerun never hit the snapshot store")
	}
}

// TestAESGridSweepStoreUsesDeltaChains: spilling a multi-seed grid through
// the real store must persist later cells of each warm-key class as delta
// entries (the tentpole's on-disk reduction), stay fully loadable, and
// degrade to all-full-blob spills when delta persistence is toggled off.
func TestAESGridSweepStoreUsesDeltaChains(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	archs := []bpu.Config{bpu.AlderLake}
	seeds := []int64{31, 32}

	sweep := func(t *testing.T, dir string) *snapstore.Store {
		t.Helper()
		s, err := snapstore.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		warm.reset()
		SetSnapStore(s)
		t.Cleanup(func() { SetSnapStore(nil) })
		if _, err := AESGridSweep(ctx, Options{WarmCache: WarmCacheOn}, 2, archs, seeds, nil); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := sweep(t, t.TempDir())
	var full, delta int
	for _, e := range s.Entries() {
		if e.Delta {
			delta++
		} else {
			full++
		}
	}
	if full == 0 || delta == 0 {
		t.Fatalf("store holds %d full / %d delta entries; a two-seed grid must chain (full anchors plus deltas)", full, delta)
	}
	for _, e := range s.Entries() {
		if _, _, ok := s.Load(e.Key); !ok {
			t.Fatalf("entry %q unloadable (delta=%v base=%q)", e.Key, e.Delta, e.Base)
		}
	}

	SetStoreDeltaEnabled(false)
	defer SetStoreDeltaEnabled(true)
	s2 := sweep(t, t.TempDir())
	for _, e := range s2.Entries() {
		if e.Delta {
			t.Fatalf("entry %q stored as a delta with delta persistence disabled", e.Key)
		}
	}
}

// TestAESGridSweepRepeatedPrefix: a grid whose seeds repeat a prefix
// non-adjacently runs in input order — the repeat restores the resident
// checkpoint instead of retraining — and reproduces the cache-off report.
// Groups count runs of consecutive same-prefix cells, so {101, 102, 101}
// is three groups with nothing shared, and doubling the noise dimension
// pairs each cell with an identical neighbour.
func TestAESGridSweepRepeatedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	archs := []bpu.Config{bpu.AlderLake}
	seeds := []int64{101, 102, 101}
	for _, tc := range []struct {
		name                  string
		noises                []float64
		groups, cells, shared uint64
	}{
		{"seeds", nil, 3, 3, 0},
		{"seeds-x-repeated-noise", []float64{0, 0}, 3, 6, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warm.reset()
			off, err := AESGridSweep(ctx, Options{Parallelism: 1, WarmCache: WarmCacheOff}, 2, archs, seeds, tc.noises)
			if err != nil {
				t.Fatal(err)
			}
			want := marshalReport(t, off)

			installFakeStore(t)
			on, err := AESGridSweep(ctx, Options{WarmCache: WarmCacheOn}, 2, archs, seeds, tc.noises)
			if err != nil {
				t.Fatal(err)
			}
			if got := marshalReport(t, on); got != want {
				t.Errorf("repeated-prefix sweep diverges:\ngot:  %s\nwant: %s", got, want)
			}
			if g, c, sh, _, _ := PlannerStats(); g != tc.groups || c != tc.cells || sh != tc.shared {
				t.Errorf("sweep stats groups=%d cells=%d shared=%d, want %d/%d/%d", g, c, sh, tc.groups, tc.cells, tc.shared)
			}
		})
	}
}

// TestAESNoiseSweepPlannerByteIdentical: the ladder shares one phase-1
// prefix, so it runs as a single group behind one recovery and must
// reproduce the cache-off report.
func TestAESNoiseSweepPlannerByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	intensities := []float64{0, 0.004}
	warm.reset()
	off, err := AESNoiseSweep(ctx, Options{Parallelism: 1, WarmCache: WarmCacheOff}, 2, 0.015, intensities)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, off)
	warm.reset()
	ResetPlannerStats()
	defer ResetPlannerStats()
	on, err := AESNoiseSweep(ctx, Options{WarmCache: WarmCacheOn}, 2, 0.015, intensities)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalReport(t, on); got != want {
		t.Errorf("cached noise sweep diverges:\ngot:  %s\nwant: %s", got, want)
	}
	n := uint64(len(intensities))
	if groups, cells, shared, _, _ := PlannerStats(); groups != 1 || cells != n || shared != n-1 {
		t.Errorf("noise ladder ran as groups=%d cells=%d shared=%d, want 1/%d/%d", groups, cells, shared, n, n-1)
	}
}

// TestAESLeakEvalStoreColdProcess: the §9 driver itself (no sweep) must
// resume from the persistent store after a simulated process restart, with
// a byte-identical report and zero phase-1 retraining.
func TestAESLeakEvalStoreColdProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	dir := t.TempDir()
	warm.reset()
	ResetSnapStoreStats()
	s1, err := snapstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	SetSnapStore(s1)
	defer SetSnapStore(nil)
	first, err := AESLeakEval(ctx, Options{WarmCache: WarmCacheOn}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, first)

	// Simulated restart: empty warm cache, fresh store handle, same disk.
	warm.reset()
	ResetSnapStoreStats()
	s2, err := snapstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	SetSnapStore(s2)
	second, err := AESLeakEval(ctx, Options{WarmCache: WarmCacheOn}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalReport(t, second); got != want {
		t.Errorf("store-resumed report diverges:\ngot:  %s\nwant: %s", got, want)
	}
	hits, _ := SnapStoreStats()
	if hits == 0 {
		t.Fatal("restarted run never hit the snapshot store")
	}
	if sh, _, _, _, _, _ := s2.Stats(); sh == 0 {
		t.Fatal("store-level stats recorded no hits")
	}
}
