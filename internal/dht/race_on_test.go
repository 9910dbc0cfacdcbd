//go:build race

package dht

// raceEnabled reports whether the race detector is compiled in; its
// sync.Pool drops a quarter of what is put back, so pooled scratch
// allocates again at random.
const raceEnabled = true
