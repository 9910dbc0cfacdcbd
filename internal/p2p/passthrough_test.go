package p2p_test

import (
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// sentFrame is what a frameLog keeps of one sent message: payloads are
// only lent for the Send call, the header fields are all a check needs.
type sentFrame struct {
	from, to transport.PeerID
	typ      string
	ctx      trace.Context
}

// frameLog records every frame sent through the endpoints it wraps.
type frameLog struct {
	mu   sync.Mutex
	sent []sentFrame
}

func (l *frameLog) wrap(ep transport.Endpoint) transport.Endpoint {
	return &loggedEndpoint{Endpoint: ep, log: l}
}

// take returns the frames recorded since the last take.
func (l *frameLog) take() []sentFrame {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.sent
	l.sent = nil
	return out
}

type loggedEndpoint struct {
	transport.Endpoint
	log *frameLog
}

func (e *loggedEndpoint) Send(msg transport.Message) error {
	e.log.mu.Lock()
	e.log.sent = append(e.log.sent, sentFrame{e.ID(), msg.To, msg.Type,
		trace.Context{Trace: msg.TraceID, Span: msg.SpanID}})
	e.log.mu.Unlock()
	return e.Endpoint.Send(msg)
}

// checkFrames requires at least one frame, each stamped want.
func checkFrames(t *testing.T, what string, frames []sentFrame, want trace.Context) {
	t.Helper()
	if len(frames) == 0 {
		t.Fatalf("%s sent no frames", what)
	}
	for _, f := range frames {
		if f.ctx != want {
			t.Errorf("%s: %s %s→%s carries %+v, want %+v", what, f.typ, f.from, f.to, f.ctx, want)
		}
	}
}

// TestUntracedNodesPassTheTraceOn pins what outside-in tracing relies
// on: with no tracer on any node, every frame a search causes — on
// every hop, requests and replies alike — carries the context the
// search was given, and publish and retrieve traffic, which has none,
// carries zero.
func TestUntracedNodesPassTheTraceOn(t *testing.T) {
	// Each deployment puts at least one node between searcher and
	// provider, so the context has to survive a relay.
	deployments := []struct {
		name  string
		build func(ep func(transport.PeerID) transport.Endpoint) (searcher, provider p2p.Network)
	}{
		{"centralized", func(ep func(transport.PeerID) transport.Endpoint) (p2p.Network, p2p.Network) {
			p2p.NewIndexServer(ep("server"))
			return p2p.NewCentralizedClient(ep("a"), "server", index.NewStore()),
				p2p.NewCentralizedClient(ep("b"), "server", index.NewStore())
		}},
		{"gnutella", func(ep func(transport.PeerID) transport.Endpoint) (p2p.Network, p2p.Network) {
			a := p2p.NewGnutellaNode(ep("a"), index.NewStore())
			mid := p2p.NewGnutellaNode(ep("mid"), index.NewStore())
			b := p2p.NewGnutellaNode(ep("b"), index.NewStore())
			a.AddNeighbor("mid")
			mid.AddNeighbor("a")
			mid.AddNeighbor("b")
			b.AddNeighbor("mid")
			return a, b
		}},
		{"fasttrack", func(ep func(transport.PeerID) transport.Endpoint) (p2p.Network, p2p.Network) {
			s0, s1 := p2p.NewSuperPeer(ep("super0")), p2p.NewSuperPeer(ep("super1"))
			s0.AddNeighbor("super1")
			s1.AddNeighbor("super0")
			return p2p.NewFastTrackLeaf(ep("a"), "super0", index.NewStore()),
				p2p.NewFastTrackLeaf(ep("b"), "super1", index.NewStore())
		}},
	}
	traced := trace.Context{Trace: 0x7ace, Span: 0x5a11}
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			net := transport.NewMemNetwork()
			log := &frameLog{}
			searcher, provider := d.build(func(id transport.PeerID) transport.Endpoint {
				ep, err := net.Endpoint(id)
				if err != nil {
					t.Fatal(err)
				}
				return log.wrap(ep)
			})
			log.take()

			if err := provider.Publish(object("theirs")); err != nil {
				t.Fatal(err)
			}
			for _, f := range log.take() {
				if f.ctx != (trace.Context{}) {
					t.Errorf("publish: %s %s→%s carries %+v, want zero", f.typ, f.from, f.to, f.ctx)
				}
			}

			rs, err := searcher.Search("c", query.MatchAll{}, p2p.SearchOptions{Limit: 1, Trace: traced})
			if err != nil || len(rs) != 1 {
				t.Fatalf("search = %+v, %v", rs, err)
			}
			checkFrames(t, "search", log.take(), traced)

			if _, err := searcher.Retrieve("theirs", provider.PeerID()); err != nil {
				t.Fatal(err)
			}
			checkFrames(t, "retrieve", log.take(), trace.Context{})
		})
	}
}
