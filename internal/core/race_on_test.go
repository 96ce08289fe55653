//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; allocation
// tests skip under it because its instrumentation allocates.
const raceEnabled = true
