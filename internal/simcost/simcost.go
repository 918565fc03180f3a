// Package simcost centralises the CPU cost constants of the
// simulation, expressed in the same units as disk I/O costs (one
// sequential 8 KB page read = 1 unit).
//
// The paper's premise (Section III-A, citing Graefe) is that one I/O
// corresponds to about a million CPU instructions, so per-tuple CPU
// work is orders of magnitude cheaper than a page fetch: Smooth Scan
// "invests CPU cycles for reading additional tuples from each page
// with minimal CPU overhead". The constants keep that ratio: scanning
// all ~100 tuples of a page costs ~0.1 units against 1–10 units for
// fetching it.
//
// Every constant is a whole number of Ticks, so the simulated CPU
// clock is an integer: charges add exactly, in any order and from any
// number of goroutines.
package simcost

// Ticks is simulated CPU time in units of 10⁻⁴ cost units.
type Ticks int64

// TicksPerUnit is the number of Ticks in one cost unit.
const TicksPerUnit = 10_000

// Units returns t in cost units.
func (t Ticks) Units() float64 { return float64(t) / TicksPerUnit }

const (
	// Tuple is the cost of decoding one tuple and evaluating a simple
	// predicate on it (0.001 units).
	Tuple Ticks = 10
	// Compare is the cost of one comparison during sorting (0.0002
	// units).
	Compare Ticks = 2
	// Hash is the cost of hashing a tuple into a hash table (build or
	// probe side; 0.0005 units).
	Hash Ticks = 5
	// Aggregate is the cost of folding one tuple into an aggregate
	// (0.0003 units).
	Aggregate Ticks = 3
)

// SortCost returns the CPU cost of sorting n items: n·log2(n)
// comparisons at Compare each.
func SortCost(n int) Ticks {
	if n < 2 {
		return 0
	}
	log2 := 0
	for v := n; v > 1; v >>= 1 {
		log2++
	}
	return Ticks(n) * Ticks(log2) * Compare
}
