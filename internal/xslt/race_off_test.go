//go:build !race

package xslt_test

// raceEnabled reports whether the race detector is compiled in; it
// slows the executor several times over, so wall-clock bounds skip
// under it.
const raceEnabled = false
