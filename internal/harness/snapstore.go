package harness

import (
	"sync"
	"sync/atomic"

	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
)

// The snapshot-store spill tier: an optional persistent backing store for
// the process-global warm cache. When one is installed (pathfinderd and
// noisebench open internal/snapstore under their data directory), warm
// entries spill to disk as they are trained and a cache miss consults the
// store before recomputing — so a cold process (daemon restart, fresh
// cluster worker, new benchmark run) restores millisecond snapshots instead
// of re-running training phases.
//
// The tier is correctness-neutral for the same reason the in-memory cache
// is: entries are content-addressed by the full WarmStateKey, snapshots are
// immutable with copy-on-use restore, and the store verifies an FNV-1a
// payload hash plus the snapshot envelope's own content hash before
// anything is restored. A store hit is observationally identical to a local
// recompute, so reports stay byte-identical with the store installed or
// not — the grid store invariance tests pin that.

// SnapStore is the persistent tier's contract. Keys are canonical
// WarmStateKey spellings (WarmStateKey.String). Load reports a verified
// entry or a miss — never a partially decoded one; Save must be atomic and
// tolerate concurrent callers (first writer wins). *snapstore.Store
// implements this natively.
type SnapStore interface {
	Load(key string) (*cpu.Snapshot, *core.ExtendedResult, bool)
	Save(key string, snap *cpu.Snapshot, rec *core.ExtendedResult)
	Stats() (hits, misses, puts, evictions uint64, bytes int64, entries int)
}

// DeltaSaver is the optional delta-persistence extension of SnapStore: a
// store implementing it can persist an entry as a delta against a base
// entry it already holds, falling back to a full blob on its own judgment
// (missing or corrupt base, chain too deep). *snapstore.Store implements
// it. The harness type-asserts rather than widening SnapStore so existing
// stores and test fakes keep working unchanged.
type DeltaSaver interface {
	SaveDelta(key string, snap *cpu.Snapshot, rec *core.ExtendedResult, baseKey string)
}

var (
	snapStoreMu sync.RWMutex
	snapStore   SnapStore

	// Harness-side consult counters: how many warm-cache misses the store
	// resolved versus passed through. Distinct from the store's own Stats —
	// these count only lookups driven by the cache, not peer serving.
	snapStoreHits   atomic.Uint64
	snapStoreMisses atomic.Uint64
)

// SetSnapStore installs (or, with nil, removes) the process-global snapshot
// store. Install before starting drivers; swapping mid-run is safe but
// leaves earlier entries only in whichever store received them. Delta-chain
// base tracking restarts with the new store (bases recorded against the old
// one are meaningless in it).
func SetSnapStore(s SnapStore) {
	snapStoreMu.Lock()
	snapStore = s
	snapStoreMu.Unlock()
	storeDeltaMu.Lock()
	clear(deltaBases)
	storeDeltaMu.Unlock()
}

// InstalledSnapStore returns the currently installed store, if any.
func InstalledSnapStore() SnapStore {
	snapStoreMu.RLock()
	defer snapStoreMu.RUnlock()
	return snapStore
}

// SnapStoreStats reports how many warm-cache misses the installed store
// resolved and how many it could not.
func SnapStoreStats() (hits, misses uint64) {
	return snapStoreHits.Load(), snapStoreMisses.Load()
}

// ResetSnapStoreStats zeroes the consult counters — test and benchmark
// isolation only.
func ResetSnapStoreStats() {
	snapStoreHits.Store(0)
	snapStoreMisses.Store(0)
}

// storeLoad consults the installed store for a warm-cache miss. It runs
// outside the cache lock (disk read plus decode) and only ever returns
// fully verified entries.
func storeLoad(key warmKey) (*warmEntry, bool) {
	s := InstalledSnapStore()
	if s == nil {
		return nil, false
	}
	snap, rec, ok := s.Load(exportKey(key).String())
	if !ok || snap == nil {
		snapStoreMisses.Add(1)
		return nil, false
	}
	snapStoreHits.Add(1)
	return &warmEntry{snap: snap, rec: rec}, true
}

var (
	// Delta-chain base selection: grid cells that share a warm-key "class"
	// (everything but seed and noise — same kind, arch, PHR size and
	// program) differ in a few PHT counters and the PHR tail, so each spill
	// records itself as the class's base and the next spill in the class
	// persists as a delta against it. The store bounds chain depth with
	// periodic full-blob anchors, so the harness can chain indefinitely.
	storeDeltaMu sync.Mutex
	storeDeltaOn = true
	deltaBases   = make(map[warmKey]warmKey)
)

// SetStoreDeltaEnabled toggles delta-chain persistence of warm entries
// (pathfinderd's -store-delta flag). Off means every spill is a full blob,
// exactly the pre-delta behavior. The setting is correctness-neutral either
// way; it trades on-disk bytes against a bounded base-resolution cost at
// load time.
func SetStoreDeltaEnabled(on bool) {
	storeDeltaMu.Lock()
	storeDeltaOn = on
	clear(deltaBases)
	storeDeltaMu.Unlock()
}

// storeDeltaClass is the chain-grouping key: the warm key with its per-cell
// axes (seed, noise) zeroed.
func storeDeltaClass(k warmKey) warmKey {
	k.seed, k.noise = 0, 0
	return k
}

// storeSpill persists a warm entry. Re-spilling a resident key is a cheap
// no-op (the store is first-writer-wins), so callers spill unconditionally
// after populating the in-memory cache. When the store can persist deltas,
// the entry is saved against its class's previous spill; concurrent spills
// of one class race benignly (a stale or missing base makes the store fall
// back to a full blob).
func storeSpill(key warmKey, e *warmEntry) {
	if e == nil || e.snap == nil {
		return
	}
	s := InstalledSnapStore()
	if s == nil {
		return
	}
	ks := exportKey(key).String()
	if ds, ok := s.(DeltaSaver); ok {
		storeDeltaMu.Lock()
		on := storeDeltaOn
		var base warmKey
		var hasBase bool
		if on {
			base, hasBase = deltaBases[storeDeltaClass(key)]
			deltaBases[storeDeltaClass(key)] = key
		}
		storeDeltaMu.Unlock()
		if on && hasBase && base != key {
			ds.SaveDelta(ks, e.snap, e.rec, exportKey(base).String())
			return
		}
	}
	s.Save(ks, e.snap, e.rec)
}
