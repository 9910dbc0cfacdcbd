package sim

import (
	"encoding/binary"
	"hash/fnv"
	"time"

	"repro/internal/transport"
)

// linkLatency builds the cluster's per-link latency model: each
// directed link gets a fixed latency in [base-jitter, base+jitter),
// clamped at zero; with no jitter every link reports base exactly.
// The value comes from hashing (seed, from, to) instead of consuming a
// shared PRNG, so what a link reports does not depend on how many
// other links were evaluated first — a property golden-trace
// determinism relies on and that stateful RNG models lack.
func linkLatency(seed int64, base, jitter time.Duration) func(from, to transport.PeerID) time.Duration {
	return func(from, to transport.PeerID) time.Duration {
		d := base
		if jitter > 0 {
			d += time.Duration((2*linkFrac(seed, from, to) - 1) * float64(jitter))
		}
		if d < 0 {
			d = 0
		}
		return d
	}
}

// linkFrac hashes a directed link to a uniform fraction in [0, 1).
func linkFrac(seed int64, from, to transport.PeerID) float64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	// 53 bits of hash → float64 fraction.
	return float64(h.Sum64()>>11) / float64(1<<53)
}
