//go:build race

package smoothscan_test

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a quarter of its Puts on purpose, so a budget that counts on a
// pooled buffer coming back does not hold.
const raceEnabled = true
