package harness

import (
	"container/list"
	"os"
	"strings"
	"sync"

	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
)

// The warm-state cache: content-addressed machine snapshots shared across
// driver calls and across trials within one call, so repeated near-identical
// simulations skip their training phases.
//
// Two usage patterns share one bounded LRU:
//
//   - Blocking singleflight (do): phase-level checkpoints like the AES
//     phase-1 control-flow recovery. Concurrent callers with the same key
//     wait for the one computation instead of duplicating ~60% of the
//     evaluation's simulated work.
//   - Opportunistic sharing (get/putIfAbsent): per-trial warm-up state. A
//     trial that finds the donor snapshot restores it; one that does not
//     runs the ordinary warm-up and offers its own snapshot. Early trials
//     racing to populate do redundant warm-ups but never block, so the
//     sharded drivers keep their full parallelism.
//
// Correctness rests on the cpu.Snapshot contract: snapshots are immutable,
// restore is copy-on-use, and a restored machine is observationally
// identical to one that did the work itself. Every key includes the full
// configuration the captured state depends on — program/content hash,
// microarchitecture, seed phase — and entries are only shared where the
// captured state is provably independent of what the key omits (documented
// at each call site). Reports therefore stay byte-identical with the cache
// on or off, at every Parallelism level; the determinism tests pin exactly
// that.

// WarmCacheMode selects the warm-state cache policy for a driver run.
type WarmCacheMode int

// Warm-cache modes. The zero value (Auto) keeps the cache on, so zero
// Options preserve the default-on contract; the PATHFINDER_WARMCACHE
// environment variable ("off", "0", "false", "no") is Auto's kill switch.
// Explicit On/Off win over the environment.
const (
	WarmCacheAuto WarmCacheMode = iota
	WarmCacheOff
	WarmCacheOn
)

// warmCacheEnvOff reports whether the environment kills the cache.
func warmCacheEnvOff() bool {
	switch strings.ToLower(os.Getenv("PATHFINDER_WARMCACHE")) {
	case "off", "0", "false", "no":
		return true
	}
	return false
}

// warmOn resolves the effective cache policy for this run. The refmodel
// oracle always bypasses the cache: a custom predictor's state cannot be
// captured (cpu.Snapshot panics), mirroring the machine-pool rule.
func (o Options) warmOn() bool {
	if o.RefModel {
		return false
	}
	switch o.WarmCache {
	case WarmCacheOn:
		return true
	case WarmCacheOff:
		return false
	}
	return !warmCacheEnvOff()
}

// warmKey is the content address of one cached snapshot. All fields are
// comparable; zero fields mean "not applicable" for the entry kind.
type warmKey struct {
	kind    string // entry family, e.g. "aes-phase1", "aes-warm"
	arch    string // microarchitecture name
	phrSize int
	prog    uint64  // content hash: program hash or input-material hash
	seed    int64   // seed phase; 0 for seed-independent entries
	noise   float64 // transient-collapse probability baked into the state
}

// warmEntry is one cached checkpoint: the machine snapshot plus whatever
// derived artifacts the driver needs to resume from it.
type warmEntry struct {
	snap *cpu.Snapshot
	rec  *core.ExtendedResult // phase-1 recovery result, when applicable
}

// warmCall is an in-flight singleflight computation.
type warmCall struct {
	done chan struct{}
	e    *warmEntry
	err  error
}

// warmCache is a bounded LRU of warm entries with singleflight dedup.
type warmCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // most-recent first; values are warmKey
	items    map[warmKey]*warmItem
	inflight map[warmKey]*warmCall

	hits, misses uint64 // get/do lookups; for tests and diagnostics
}

type warmItem struct {
	e   *warmEntry
	ele *list.Element
}

func newWarmCache(capacity int) *warmCache {
	return &warmCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[warmKey]*warmItem),
		inflight: make(map[warmKey]*warmCall),
	}
}

// warm is the process-global cache. Snapshots are about a megabyte each
// (dominated by the cache-line array), so the default bound keeps the cache
// a few tens of megabytes at worst.
var warm = newWarmCache(32)

// get returns the cached entry for key, if present, marking it
// most-recently used.
func (c *warmCache) get(key warmKey) (*warmEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(it.ele)
	return it.e, true
}

// touch reports whether key is resident, marking it most-recently used.
// Unlike get it is not a lookup and leaves the hit/miss counters alone.
func (c *warmCache) touch(key warmKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[key]
	if ok {
		c.order.MoveToFront(it.ele)
	}
	return ok
}

// putIfAbsent stores e under key unless another entry got there first,
// evicting the least-recently-used entry when over capacity. The entry also
// spills to the persistent snapshot store (outside the cache lock — Save is
// disk I/O), so warm state trained or fetched in this process survives a
// restart; a re-spill of a resident key is a no-op.
func (c *warmCache) putIfAbsent(key warmKey, e *warmEntry) {
	c.mu.Lock()
	c.storeLocked(key, e)
	c.mu.Unlock()
	storeSpill(key, e)
}

func (c *warmCache) storeLocked(key warmKey, e *warmEntry) {
	if _, ok := c.items[key]; ok {
		return
	}
	c.items[key] = &warmItem{e: e, ele: c.order.PushFront(key)}
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(warmKey))
	}
}

// do returns the entry for key, computing it at most once across concurrent
// callers. compute runs without the cache lock held; concurrent callers
// with the same key block until it finishes. Errors are not cached — the
// next caller retries. The caller can tell whether its own compute ran by
// the side effects of compute itself.
//
// A miss consults the persistent snapshot store before computing — the
// singleflight also dedups store reads — and a successful compute spills
// there, so phase-level checkpoints survive process restarts.
func (c *warmCache) do(key warmKey, compute func() (*warmEntry, error)) (*warmEntry, error) {
	c.mu.Lock()
	if it, ok := c.items[key]; ok {
		c.hits++
		c.order.MoveToFront(it.ele)
		c.mu.Unlock()
		return it.e, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, call.err
		}
		return call.e, nil
	}
	c.misses++
	call := &warmCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	if e, ok := storeLoad(key); ok {
		call.e = e
	} else {
		call.e, call.err = compute()
		if call.err == nil {
			storeSpill(key, call.e)
		}
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.storeLocked(key, call.e)
	}
	c.mu.Unlock()
	close(call.done)
	return call.e, call.err
}

// stats returns cumulative lookup counters, for the cache's own tests.
func (c *warmCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// reset drops every entry and counter — test isolation only.
func (c *warmCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.items)
	c.hits, c.misses = 0, 0
}

// hashBytes folds a byte string FNV-1a style, for content-addressing input
// material (e.g. an AES key) that is not a program.
func hashBytes(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, x := range b {
		h = (h ^ uint64(x)) * 0x100000001b3
	}
	return h
}
