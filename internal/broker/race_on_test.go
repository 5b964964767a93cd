//go:build race

package broker

// raceEnabled reports whether the race detector is active; allocation
// gates that skip under it say why.
const raceEnabled = true
