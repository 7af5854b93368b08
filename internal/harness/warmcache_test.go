package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func warmTestEntry(n uint64) *warmEntry {
	return &warmEntry{} // identity is all the cache tests need
}

func TestWarmCacheLRUEviction(t *testing.T) {
	c := newWarmCache(2)
	k := func(i int) warmKey { return warmKey{kind: "t", seed: int64(i)} }
	a, b, d := warmTestEntry(1), warmTestEntry(2), warmTestEntry(3)
	c.putIfAbsent(k(1), a)
	c.putIfAbsent(k(2), b)
	if _, ok := c.get(k(1)); !ok { // refresh 1: now 2 is least recent
		t.Fatal("entry 1 missing before capacity reached")
	}
	c.putIfAbsent(k(3), d)
	if _, ok := c.get(k(2)); ok {
		t.Error("least-recently-used entry 2 survived eviction")
	}
	if e, ok := c.get(k(1)); !ok || e != a {
		t.Error("recently-used entry 1 was evicted")
	}
	if e, ok := c.get(k(3)); !ok || e != d {
		t.Error("newest entry 3 was evicted")
	}
}

func TestWarmCachePutIfAbsentKeepsFirst(t *testing.T) {
	c := newWarmCache(4)
	key := warmKey{kind: "t"}
	first, second := warmTestEntry(1), warmTestEntry(2)
	c.putIfAbsent(key, first)
	c.putIfAbsent(key, second)
	if e, _ := c.get(key); e != first {
		t.Error("putIfAbsent replaced an existing entry")
	}
}

func TestWarmCacheSingleflight(t *testing.T) {
	c := newWarmCache(4)
	key := warmKey{kind: "t"}
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*warmEntry, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.do(key, func() (*warmEntry, error) {
				computes.Add(1)
				<-release // hold the flight open so every caller joins it
				return warmTestEntry(0), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = e
		}(i)
	}
	// Wait until the one compute is in flight, then release it.
	for {
		c.mu.Lock()
		n := len(c.inflight)
		c.mu.Unlock()
		if n == 1 {
			break
		}
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, e := range results {
		if e != results[0] {
			t.Fatalf("caller %d got a different entry", i)
		}
	}
}

func TestWarmCacheErrorsNotCached(t *testing.T) {
	c := newWarmCache(4)
	key := warmKey{kind: "t"}
	boom := errors.New("boom")
	if _, err := c.do(key, func() (*warmEntry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	ran := false
	e, err := c.do(key, func() (*warmEntry, error) { ran = true; return warmTestEntry(0), nil })
	if err != nil || e == nil {
		t.Fatalf("retry after error failed: %v", err)
	}
	if !ran {
		t.Fatal("failed computation was cached; retry did not run")
	}
}

func TestWarmCacheStats(t *testing.T) {
	c := newWarmCache(4)
	key := warmKey{kind: "t"}
	c.get(key) // miss
	c.putIfAbsent(key, warmTestEntry(0))
	c.get(key) // hit
	if _, err := c.do(key, func() (*warmEntry, error) { return nil, errors.New("unreachable") }); err != nil {
		t.Fatal(err)
	} // hit
	hits, misses := c.stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 2 / 1", hits, misses)
	}
}

func TestWarmCacheModeResolution(t *testing.T) {
	cases := []struct {
		name string
		env  string
		opts Options
		want bool
	}{
		{"auto default on", "", Options{}, true},
		{"auto env kills", "off", Options{}, false},
		{"auto env kills 0", "0", Options{}, false},
		{"auto env kills FALSE", "FALSE", Options{}, false},
		{"explicit on beats env", "off", Options{WarmCache: WarmCacheOn}, true},
		{"explicit off", "", Options{WarmCache: WarmCacheOff}, false},
		{"refmodel always off", "", Options{RefModel: true, WarmCache: WarmCacheOn}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("PATHFINDER_WARMCACHE", tc.env)
			if got := tc.opts.warmOn(); got != tc.want {
				t.Errorf("warmOn() = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestAESWarmCacheByteIdentical is the cache half of the determinism
// contract: AESLeakEval must emit byte-identical reports with the warm-state
// cache off or on, cold or already populated, at every Parallelism level.
// noise = 0 exercises the per-trial snapshot sharing; noise = 0.015 takes
// the phase-1-only path (per-trial sharing is gated off under noise).
func TestAESWarmCacheByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	for _, noise := range []float64{0, 0.015} {
		t.Run(fmt.Sprintf("noise=%v", noise), func(t *testing.T) {
			off, err := AESLeakEval(ctx, Options{Parallelism: 1, WarmCache: WarmCacheOff}, 4, noise)
			if err != nil {
				t.Fatal(err)
			}
			want := marshalReport(t, off)
			for _, w := range []int{1, 4, 0} {
				warm.reset()
				for _, state := range []string{"cold", "warm"} {
					rep, err := AESLeakEval(ctx, Options{Parallelism: w, WarmCache: WarmCacheOn}, 4, noise)
					if err != nil {
						t.Fatalf("parallelism %d (%s cache): %v", w, state, err)
					}
					if got := marshalReport(t, rep); got != want {
						t.Errorf("parallelism %d (%s cache) diverges from cache-off sequential:\ngot:  %s\nwant: %s",
							w, state, got, want)
					}
				}
				if hits, _ := warm.stats(); hits == 0 {
					t.Errorf("parallelism %d: second run never hit the warm cache", w)
				}
			}
		})
	}
}
