package smoothscan

// WaitGoroutines is waitGoroutines for package smoothscan_test.
var WaitGoroutines = waitGoroutines
