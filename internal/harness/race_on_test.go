//go:build race

package harness

// raceEnabled reports whether the race detector is on; the large-n theorem
// cells skip under it.
const raceEnabled = true
