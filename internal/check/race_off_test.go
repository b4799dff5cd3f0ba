//go:build !race

package check_test

// raceEnabled reports whether the race detector is on; the large-n theorem
// cells skip under it.
const raceEnabled = false
