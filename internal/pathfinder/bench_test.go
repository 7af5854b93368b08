package pathfinder_test

import "testing"

// BenchmarkSearchDAG times one backward search over a recorded Fig. 7
// problem: the first 16 px image's window under a 32-reversal lookahead
// (tens of thousands of states). Allocations per search are gated exactly.
func BenchmarkSearchDAG(b *testing.B) {
	corpus := loadCorpus(b)
	for i := range corpus.Specs {
		g := &corpus.Specs[i]
		if g.Name != "fig7-qr1-16px/lookahead-32" {
			continue
		}
		cfg, spec := g.load(b, corpus.Programs)
		b.ReportAllocs()
		for b.Loop() {
			if _, err := cfg.SearchDAG(spec); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatal("benchmark spec missing from the golden corpus")
}
