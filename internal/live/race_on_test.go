//go:build race

package live

// raceEnabled reports whether the race detector is on; allocation locks that
// count a whole run skip under it.
const raceEnabled = true
