package harness

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Sweep execution for grids of driver cells. A sweep — arch × seed grids,
// noise-intensity ladders — is a list of cells, each with an expensive
// training prefix: the phase-level warm-cache entry its driver computes
// under, e.g. the AES phase-1 control-flow recovery. Cells run in input
// order; cells that share a prefix find it through the warm cache's
// content-addressed contract. The one thing the loop adds is a depth-1
// pipeline: while a cell executes, the next cell's prefix, when different,
// is prefetched from the persistent snapshot store in the background, so
// its disk read and wire decode overlap simulation instead of serializing
// in front of it.
//
// Cells are independent (each writes its own slot; the caller assembles
// the report in cell-index order), so the loop never touches results and
// reports are byte-identical with or without the store — the grid
// invariance tests pin that.

// sweepCell is one point of a sweep grid. prefix is the content address of
// the cell's training prefix — the warm-cache key its driver computes
// under. run executes the cell; it must write its result into
// caller-owned storage keyed by cell identity.
type sweepCell struct {
	label  string
	prefix WarmStateKey
	run    func(ctx context.Context) error
}

// Sweep accounting, process-global like the warm cache it feeds. A group
// is a run of consecutive cells with the same prefix.
var (
	plannerGroups         atomic.Uint64 // prefix runs executed
	plannerCells          atomic.Uint64 // sweep cells executed
	plannerSharedCells    atomic.Uint64 // cells that reused the previous cell's prefix
	plannerPrefetchHits   atomic.Uint64 // background store prefetches that installed an entry
	plannerPrefetchMisses atomic.Uint64 // background prefetches the store could not serve
)

// PlannerStats reports cumulative sweep counters: executed groups (runs of
// consecutive cells with the same prefix) and cells, cells that rode the
// previous cell's prefix, and background store-prefetch outcomes. Surfaced
// on the daemon's /metrics.
func PlannerStats() (groups, cells, shared, prefetchHits, prefetchMisses uint64) {
	return plannerGroups.Load(), plannerCells.Load(), plannerSharedCells.Load(),
		plannerPrefetchHits.Load(), plannerPrefetchMisses.Load()
}

// ResetPlannerStats zeroes the sweep counters — test and benchmark
// isolation only.
func ResetPlannerStats() {
	plannerGroups.Store(0)
	plannerCells.Store(0)
	plannerSharedCells.Store(0)
	plannerPrefetchHits.Store(0)
	plannerPrefetchMisses.Store(0)
}

// prefetchPrefix pulls key's entry from the persistent store into the warm
// cache in the background, returning a channel closed when done. It is
// purely an optimization: a miss just means the next cell consults the
// store (or trains) itself. The residency check is not a lookup, so it
// leaves the warm cache's hit/miss counters to the drivers.
func prefetchPrefix(key WarmStateKey) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		k := key.internal()
		if warm.touch(k) {
			return // already resident; nothing to overlap
		}
		if e, ok := storeLoad(k); ok {
			warm.putIfAbsent(k, e)
			plannerPrefetchHits.Add(1)
		} else {
			plannerPrefetchMisses.Add(1)
		}
	}()
	return done
}

// runSweep executes cells in input order. Whenever the next cell's prefix
// differs from the current one, it is prefetched from the store while the
// current cell runs (when the warm cache is on and a store is installed).
// Cell parallelism lives inside each cell's driver (Options.Parallelism);
// the loop itself is sequential.
func runSweep(ctx context.Context, opts Options, cells []sweepCell) error {
	prefetch := opts.warmOn() && InstalledSnapStore() != nil
	var next <-chan struct{}
	defer func() {
		if next != nil {
			<-next
		}
	}()
	for i, cell := range cells {
		if next != nil {
			<-next // this cell's prefix prefetch, started with the last cell
			next = nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		shared := i > 0 && cell.prefix == cells[i-1].prefix
		if !shared {
			plannerGroups.Add(1)
		}
		if prefetch && i+1 < len(cells) && cells[i+1].prefix != cell.prefix {
			next = prefetchPrefix(cells[i+1].prefix)
		}
		if err := cell.run(ctx); err != nil {
			return fmt.Errorf("harness: sweep cell %s: %w", cell.label, err)
		}
		plannerCells.Add(1)
		if shared {
			plannerSharedCells.Add(1)
		}
	}
	return ctx.Err()
}
