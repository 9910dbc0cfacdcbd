//go:build !race

package index

// raceEnabled reports whether the race detector is compiled in; it
// adds shadow memory to every allocation, so heap pins do not hold.
const raceEnabled = false
