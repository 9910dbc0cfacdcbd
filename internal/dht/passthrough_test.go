package dht

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// ctxLog records the trace context of every frame sent through the
// endpoints it wraps.
type ctxLog struct {
	mu   sync.Mutex
	sent []transport.Message // header fields only: payloads are lent
}

type ctxLogEndpoint struct {
	transport.Endpoint
	log *ctxLog
}

func (e *ctxLogEndpoint) Send(msg transport.Message) error {
	e.log.mu.Lock()
	e.log.sent = append(e.log.sent, transport.Message{From: e.ID(), To: msg.To, Type: msg.Type,
		TraceID: msg.TraceID, SpanID: msg.SpanID})
	e.log.mu.Unlock()
	return e.Endpoint.Send(msg)
}

// check requires the frames recorded since the last check to be at
// least one, each stamped want, forgets and returns them.
func (l *ctxLog) check(t *testing.T, what string, want trace.Context) []transport.Message {
	t.Helper()
	l.mu.Lock()
	sent := l.sent
	l.sent = nil
	l.mu.Unlock()
	if len(sent) == 0 {
		t.Fatalf("%s sent no frames", what)
	}
	for _, m := range sent {
		if got := (trace.Context{Trace: m.TraceID, Span: m.SpanID}); got != want {
			t.Errorf("%s: %s %s→%s carries %+v, want %+v", what, m.Type, m.From, m.To, got, want)
		}
	}
	return sent
}

// TestUntracedNodesPassTheTraceOn pins what outside-in tracing relies
// on: with no tracer on any node, every frame of a search's lookup —
// FIND_VALUE waves, their replies and the caching STORE — carries the
// context the search was given, and publish and retrieve traffic,
// which has none, carries zero.
func TestUntracedNodesPassTheTraceOn(t *testing.T) {
	// 64 nodes at k=4 so lookups take several hops and pass
	// non-holders, where a caching STORE lands.
	net := transport.NewMemNetwork(transport.WithSeed(1))
	log := &ctxLog{}
	nodes := make([]*Node, 64)
	for i := range nodes {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("peer%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(&ctxLogEndpoint{Endpoint: ep, log: log}, index.NewStore(), Config{K: 4, Alpha: 2, CacheRecords: true})
	}
	for i := 1; i < len(nodes); i++ {
		nodes[i].Bootstrap(nodes[0].PeerID())
	}
	log.check(t, "bootstrap", trace.Context{})

	for i := 0; i < 6; i++ {
		if err := nodes[i].Publish(doc(i, "patterns", "behavioral")); err != nil {
			t.Fatal(err)
		}
	}
	log.check(t, "publish", trace.Context{})

	traced := trace.Context{Trace: 0x7ace, Span: 0x5a11}
	cacheStores := 0
	for searcher := 20; searcher < 32; searcher++ {
		rs, err := nodes[searcher].Search("patterns", query.MatchAll{}, p2p.SearchOptions{Trace: traced})
		if err != nil || len(rs) != 6 {
			t.Fatalf("searcher %d: %d results, %v", searcher, len(rs), err)
		}
		for _, m := range log.check(t, "search", traced) {
			if m.Type == MsgStore {
				cacheStores++
			}
		}
	}
	if cacheStores == 0 {
		t.Error("no search planted a cached copy: the caching STORE went unchecked")
	}

	if _, err := nodes[40].Retrieve(index.DocID("d-0002"), nodes[2].PeerID()); err != nil {
		t.Fatal(err)
	}
	log.check(t, "retrieve", trace.Context{})
}
