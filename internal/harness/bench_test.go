package harness

import "testing"

// BenchmarkExperiments regenerates every registered experiment, one
// sub-benchmark per id, at a scale that keeps the suite fast while
// preserving every paper shape. The tables are simulated cost, so the
// interesting number is wall time per regeneration.
func BenchmarkExperiments(b *testing.B) {
	r := New(Config{MicroRows: 100_000, SkewRows: 150_000, TPCHOrders: 5_000, Seed: 1})
	for _, id := range IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab, err := r.ByID(id)
				if err != nil {
					b.Fatal(err)
				}
				if len(tab.Rows) == 0 {
					b.Fatal("empty experiment result")
				}
			}
		})
	}
}
