package main

import (
	"math"
	"testing"
	"time"

	"pathfinder/internal/bpu"
)

func TestQuantileHarrellDavis(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := quantile([]float64{7, 7, 7, 7}, 0.9); !near(got, 7) {
		t.Errorf("constant sample: p90 = %v, want 7", got)
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); !near(got, 2) {
		t.Errorf("symmetric sample: median = %v, want 2", got)
	}
	if got := quantile([]float64{10, 20}, 0.5); !near(got, 15) {
		t.Errorf("two values: median = %v, want 15", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v, want 0", got)
	}
	// Stepped data: moving one sample across the step moves the estimate
	// by a fraction of the step, not the whole step.
	lo := quantile([]float64{700, 700, 700, 700, 700, 800, 800, 800, 800, 800}, 0.5)
	hi := quantile([]float64{700, 700, 700, 700, 800, 800, 800, 800, 800, 800}, 0.5)
	if !(lo > 700 && hi < 800 && hi-lo < 50) {
		t.Errorf("stepped medians %v and %v should sit strictly inside the step", lo, hi)
	}
	if p50, p90 := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5), quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); !(p50 < p90) {
		t.Errorf("p50 %v not below p90 %v", p50, p90)
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	ms := time.Millisecond
	if got := union([][2]time.Duration{{0, 10 * ms}, {5 * ms, 15 * ms}, {20 * ms, 25 * ms}}); got != 20*ms {
		t.Errorf("union = %v, want 20ms", got)
	}
	tr := &tracer{spans: []span{
		{name: "parent", id: 1, start: 0, end: 10 * ms},
		{name: "child", id: 2, parent: 1, start: 2 * ms, end: 5 * ms},
		{name: "child", id: 3, parent: 1, start: 4 * ms, end: 6 * ms},
	}}
	self := tr.selfTimes()
	if got := self["parent"][2]; math.Abs(got-6) > 1e-9 {
		t.Errorf("parent self time %v ms, want 6", got)
	}
	if got := tr.coverage(0); got != 10*ms {
		t.Errorf("coverage %v, want 10ms", got)
	}
}

func TestKneeMatchesTable1(t *testing.T) {
	for _, arch := range []bpu.Config{bpu.AlderLake, bpu.Skylake} {
		k, err := measureKnee(arch, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !k.ok() {
			t.Errorf("%s: knee %d, PHR size %d", arch.Name, k.Knee, arch.PHRSize)
		}
	}
}
