package p2p_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// peerNode is what every servent-side node kind gets from the p2p.Peer
// it embeds, on top of its own Publish/Search.
type peerNode interface {
	p2p.Network
	SetMetrics(*metrics.Registry)
	SetTracer(*trace.Tracer)
	PendingRequests() int
}

// peerKinds builds, for each Network implementation, a requester and a
// provider that can reach each other on net.
var peerKinds = []struct {
	name string
	// indexer names the node of the deployment that indexes for others and
	// shares nothing itself, if the protocol has one.
	indexer transport.PeerID
	build   func(t *testing.T, ep func(transport.PeerID) transport.Endpoint) (requester, provider peerNode)
}{
	{"centralized", "server", func(t *testing.T, ep func(transport.PeerID) transport.Endpoint) (peerNode, peerNode) {
		p2p.NewIndexServer(ep("server"))
		return p2p.NewCentralizedClient(ep("a"), "server", index.NewStore()),
			p2p.NewCentralizedClient(ep("b"), "server", index.NewStore())
	}},
	{"fasttrack", "super", func(t *testing.T, ep func(transport.PeerID) transport.Endpoint) (peerNode, peerNode) {
		p2p.NewSuperPeer(ep("super"))
		return p2p.NewFastTrackLeaf(ep("a"), "super", index.NewStore()),
			p2p.NewFastTrackLeaf(ep("b"), "super", index.NewStore())
	}},
	{"gnutella", "", func(t *testing.T, ep func(transport.PeerID) transport.Endpoint) (peerNode, peerNode) {
		a, b := p2p.NewGnutellaNode(ep("a"), index.NewStore()), p2p.NewGnutellaNode(ep("b"), index.NewStore())
		a.AddNeighbor("b")
		b.AddNeighbor("a")
		return a, b
	}},
	{"dht", "", func(t *testing.T, ep func(transport.PeerID) transport.Endpoint) (peerNode, peerNode) {
		a, b := dht.NewNode(ep("a"), index.NewStore(), dht.Config{}), dht.NewNode(ep("b"), index.NewStore(), dht.Config{})
		b.Bootstrap("a")
		return a, b
	}},
}

func object(id string) *index.Document {
	attrs := query.Attrs{}
	attrs.Add("k", "v")
	return &index.Document{ID: index.DocID(id), CommunityID: "c", Title: "T-" + id,
		XML: "<obj><title>T-" + id + "</title></obj>", Attrs: attrs}
}

// TestPeerRetrievalAndLifecycle runs the behaviour p2p.Peer defines once
// — Retrieve, RetrieveAttachment, Close, and rewiring under load — over
// every Network implementation that embeds it.
func TestPeerRetrievalAndLifecycle(t *testing.T) {
	for _, kind := range peerKinds {
		t.Run(kind.name, func(t *testing.T) {
			// loseReplies cuts the provider→requester direction only, so a
			// request arrives and its reply does not.
			var loseReplies atomic.Bool
			netReg := metrics.NewRegistry()
			net := transport.NewMemNetwork(transport.WithMetrics(netReg), transport.WithDropModel(func(from, to transport.PeerID) float64 {
				if loseReplies.Load() && from == "b" && to == "a" {
					return 1
				}
				return 0
			}))
			a, b := kind.build(t, func(id transport.PeerID) transport.Endpoint {
				ep, err := net.Endpoint(id)
				if err != nil {
					t.Fatal(err)
				}
				return ep
			})
			reg := metrics.NewRegistry()
			a.SetMetrics(reg)
			if err := a.Publish(object("mine")); err != nil {
				t.Fatal(err)
			}
			if err := b.Publish(object("theirs")); err != nil {
				t.Fatal(err)
			}
			b.SetAttachmentProvider(func(uri string) ([]byte, bool) {
				return []byte("class Observer {}"), uri == "file:pattern.code"
			})
			delivered := func() int64 { return netReg.Snapshot().Counter("transport.msgs_delivered") }

			t.Run("local", func(t *testing.T) {
				before := delivered()
				got, err := a.Retrieve("mine", a.PeerID())
				if err != nil || got.Title != "T-mine" {
					t.Fatalf("self retrieve = %+v, %v", got, err)
				}
				if d := delivered() - before; d != 0 {
					t.Errorf("self retrieve sent %d messages", d)
				}
			})
			t.Run("remote", func(t *testing.T) {
				before := delivered()
				got, err := a.Retrieve("theirs", b.PeerID())
				if err != nil || got.Title != "T-theirs" || got.XML == "" {
					t.Fatalf("retrieve = %+v, %v", got, err)
				}
				if d := delivered() - before; d != 2 {
					t.Errorf("retrieve took %d messages, want fetch + fetch-reply", d)
				}
				if n := reg.Snapshot().Label("p2p.fetches", kind.name); n != 1 {
					t.Errorf("p2p.fetches{%s} = %d, want 1", kind.name, n)
				}
			})
			t.Run("attachment", func(t *testing.T) {
				data, err := a.RetrieveAttachment("file:pattern.code", b.PeerID())
				if err != nil || string(data) != "class Observer {}" {
					t.Fatalf("attachment = %q, %v", data, err)
				}
			})
			t.Run("not-provided", func(t *testing.T) {
				if _, err := a.Retrieve("ghost", b.PeerID()); !errors.Is(err, p2p.ErrNotProvided) {
					t.Errorf("missing document: err = %v", err)
				}
				if _, err := a.RetrieveAttachment("file:missing", b.PeerID()); !errors.Is(err, p2p.ErrNotProvided) {
					t.Errorf("missing attachment: err = %v", err)
				}
				// a itself installed no provider at all.
				if _, err := b.RetrieveAttachment("file:pattern.code", a.PeerID()); !errors.Is(err, p2p.ErrNotProvided) {
					t.Errorf("no provider: err = %v", err)
				}
				if n := reg.Snapshot().Label("errors", "p2p.not_provided"); n != 2 {
					t.Errorf("errors{p2p.not_provided} = %d, want a's 2", n)
				}
				if kind.indexer != "" {
					if _, err := a.Retrieve("theirs", kind.indexer); !errors.Is(err, p2p.ErrNotProvided) {
						t.Errorf("fetch from the indexing node: err = %v", err)
					}
				}
			})
			t.Run("timeout", func(t *testing.T) {
				loseReplies.Store(true)
				defer loseReplies.Store(false)
				if _, err := a.Retrieve("theirs", b.PeerID()); !errors.Is(err, p2p.ErrTimeout) {
					t.Errorf("lost fetch-reply: err = %v", err)
				}
				if _, err := a.RetrieveAttachment("file:pattern.code", b.PeerID()); !errors.Is(err, p2p.ErrTimeout) {
					t.Errorf("lost attachment-reply: err = %v", err)
				}
				if n := a.PendingRequests(); n != 0 {
					t.Errorf("%d request ids still pending after the timeouts", n)
				}
			})
			t.Run("rewire-under-load", func(t *testing.T) {
				// SetMetrics and SetTracer are the two setters allowed while
				// traffic flows; under -race this is the proof.
				var wg sync.WaitGroup
				for _, n := range []peerNode{a, b} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 50; i++ {
							if _, err := n.Search("c", query.MustParse("(k=v)"), p2p.SearchOptions{}); err != nil {
								t.Errorf("search: %v", err)
							}
							if _, err := a.Retrieve("theirs", b.PeerID()); err != nil {
								t.Errorf("retrieve: %v", err)
							}
						}
					}()
				}
				for i := 0; i < 50; i++ {
					for _, n := range []peerNode{a, b} {
						n.SetMetrics(metrics.NewRegistry())
						n.SetTracer(trace.New(string(n.PeerID()), kind.name, trace.WithSampling(1)))
					}
				}
				wg.Wait()
			})
			t.Run("close", func(t *testing.T) {
				if err := a.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				if err := a.Close(); err != nil {
					t.Errorf("second close: %v", err)
				}
				if _, err := a.Retrieve("theirs", b.PeerID()); err == nil {
					t.Error("retrieve on a closed node succeeded")
				}
				if n := a.PendingRequests(); n != 0 {
					t.Errorf("%d request ids pending after a failed send", n)
				}
			})
		})
	}
}
