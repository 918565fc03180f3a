//go:build !race

package smoothscan_test

const raceEnabled = false
