//go:build race

package sim

// raceEnabled reports whether the race detector is on; allocation gates
// skip under it.
const raceEnabled = true
