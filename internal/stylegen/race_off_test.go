//go:build !race

package stylegen

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation pins skip under it.
const raceEnabled = false
