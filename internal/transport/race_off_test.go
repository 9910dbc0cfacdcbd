//go:build !race

package transport

// raceEnabled reports whether the race detector is compiled in; its
// sync.Pool drops a quarter of what is put back, so pooled buffers
// allocate again at random.
const raceEnabled = false
