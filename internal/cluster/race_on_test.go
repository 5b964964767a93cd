//go:build race

package cluster

// raceEnabled reports whether the race detector is active; allocation
// counts are not meaningful under it.
const raceEnabled = true
