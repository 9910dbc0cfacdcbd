package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// liveHeap collects until the live heap stops falling, at most three
// cycles, and reads it: one collection can leave a sync.Pool's victim
// cache or a finalizer's referent standing.
func liveHeap() uint64 {
	var ms runtime.MemStats
	last := ^uint64(0)
	for range 3 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= last {
			break
		}
		last = ms.HeapAlloc
	}
	return last
}

// peerHeapKB builds a quiescent DHT cluster of the given size, shaped
// as the sim-dht-churn workload's (same links, same join), and returns
// the live heap it holds per peer in KB. With docs it also seeds that
// workload's community on every peer and publishes its corpus, one
// object per peer, round robin; the corpus itself is not counted.
func peerHeapKB(tb testing.TB, peers int, docs bool) float64 {
	tb.Helper()
	base := liveHeap()
	c, err := NewCluster(Config{
		Peers: peers, Protocol: DHT, Seed: 1,
		Latency: 30 * time.Millisecond, Jitter: 20 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if docs {
		comm, err := c.SeedCommunity(0, core.CommunitySpec{
			Name: "patterns", Keywords: "gof design software", SchemaSrc: corpus.PatternSchemaSrc,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if err := c.InstallCommunityAll(comm); err != nil {
			tb.Fatal(err)
		}
		if _, err := c.PublishRoundRobin(comm.ID, corpus.DesignPatterns(peers, 1).Objects); err != nil {
			tb.Fatal(err)
		}
	}
	held := liveHeap()
	runtime.KeepAlive(c)
	return (float64(held) - float64(base)) / 1024 / float64(peers)
}

// BenchmarkSimPeerHeap reports the live heap one peer of a quiescent
// DHT cluster holds, empty and with the sim-dht-churn corpus, at 200
// and 1 000 peers: the fixed cost of a peer and what its records add.
func BenchmarkSimPeerHeap(b *testing.B) {
	for _, peers := range []int{200, 1000} {
		for _, docs := range []bool{false, true} {
			name := fmt.Sprintf("empty-%d", peers)
			if docs {
				name = fmt.Sprintf("corpus-%d", peers)
			}
			b.Run(name, func(b *testing.B) {
				var kb float64
				for range b.N {
					kb = peerHeapKB(b, peers, docs)
				}
				b.ReportMetric(kb, "KB/peer")
			})
		}
	}
}

// TestEmptyPeerHeap bounds what a DHT peer holds before it holds a
// record: its routing table, node, servent and store. A routing table
// that allocated every one of its k-buckets up front read 15 KB here.
func TestEmptyPeerHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates every allocation")
	}
	const peers, limitKB = 200, 9
	kb := peerHeapKB(t, peers, false)
	t.Logf("an empty DHT peer holds %.2f KB of heap (%d peers)", kb, peers)
	if kb > limitKB {
		t.Errorf("an empty DHT peer holds %.2f KB of heap, want at most %d", kb, limitKB)
	}
}
