package sim

import (
	"testing"
	"time"

	"repro/internal/transport"
)

func TestLinkLatencyDeterministicAndBounded(t *testing.T) {
	m := linkLatency(7, 20*time.Millisecond, 10*time.Millisecond)
	a := m("p1", "p2")
	if b := m("p1", "p2"); b != a {
		t.Errorf("latency not stable: %v vs %v", a, b)
	}
	lo, hi := 10*time.Millisecond, 30*time.Millisecond
	saw := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		from := transport.PeerID("p" + string(rune('a'+i%26)))
		to := transport.PeerID("q" + string(rune('a'+i/26)))
		d := m(from, to)
		if d < lo || d > hi {
			t.Errorf("latency %v outside [%v, %v]", d, lo, hi)
		}
		saw[d] = true
	}
	if len(saw) < 10 {
		t.Errorf("latency model degenerate: %d distinct values", len(saw))
	}
	// A different seed reshuffles links.
	m2 := linkLatency(8, 20*time.Millisecond, 10*time.Millisecond)
	if m2("p1", "p2") == a && m2("p1", "p3") == m("p1", "p3") && m2("p2", "p1") == m("p2", "p1") {
		t.Error("seed has no effect on latency model")
	}
	// Without jitter every link reports the base latency exactly.
	if d := linkLatency(7, 20*time.Millisecond, 0)("p1", "p2"); d != 20*time.Millisecond {
		t.Errorf("zero-jitter latency = %v, want 20ms", d)
	}
}
