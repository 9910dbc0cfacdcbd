package p2p

import (
	"fmt"
	"sync"

	"repro/internal/index"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

// IndexServer is the Napster-style central index. It stores only
// metadata (attributes + provider) in its registry; objects stay on
// their publishing peers and are fetched peer-to-peer, exactly like
// Napster's split between central search and direct download.
type IndexServer struct {
	Peer
	registry
}

// NewIndexServer attaches a server to the given endpoint with a
// default store configuration.
func NewIndexServer(ep transport.Endpoint) *IndexServer {
	return NewIndexServerOn(ep, index.NewStore())
}

// NewIndexServerOn attaches a server backed by the given store, so
// deployments choose its cache size, metrics registry and log.
func NewIndexServerOn(ep transport.Endpoint, store *index.Store) *IndexServer {
	s := &IndexServer{registry: registry{store: store}}
	// The store is metadata only: the server shares no objects itself.
	s.InitPeer(ep, nil, "centralized")
	ep.SetHandler(s.handle)
	return s
}

func (s *IndexServer) handle(msg transport.Message) {
	if s.serveRegistration(&s.Peer, msg) {
		return
	}
	switch msg.Type {
	case MsgSearch:
		s.serveSearch(msg)
	default:
		s.HandleRetrieval(msg)
	}
}

// serveSearch answers a client's search from the registry, in place:
// the request is read as views of its payload and answered by appendHit
// in pooled scratch, so it allocates nothing. A filter that does not
// parse is answered with no results.
func (s *IndexServer) serveSearch(msg transport.Message) {
	var req searchRequest
	if err := req.read(msg.Payload); err != nil {
		return
	}
	communityID := codec.StringView(req.community)
	sp := s.StartSpan(msg, "search.serve")
	sp.SetCommunity(communityID)
	hit := codec.Scratch()
	var err error
	if *hit, _, err = appendHit(*hit, req.ReqID, &s.registry, communityID, req.filter, req.Limit, 0); err != nil {
		s.NodeMetrics().CountError(err)
		*hit = appendResults(codec.AppendUvarint(*hit, req.ReqID), nil)
	}
	_ = s.SendPayload(msg.From, MsgSearchHit, *hit, &sp) // a lost reply is the client's timeout
	codec.Release(hit)
	sp.Finish()
}

// CentralizedClient is a peer in the centralized protocol: it keeps
// its shared objects in a local store, registers their metadata with
// the index server, and serves fetches from other peers directly.
type CentralizedClient struct {
	Peer

	mu     sync.RWMutex
	server transport.PeerID // mutable: Rehome repoints it after failover
}

var _ Network = (*CentralizedClient)(nil)

// NewCentralizedClient attaches a client to the network; server is the
// index server's peer ID. store holds the peer's shared objects.
func NewCentralizedClient(ep transport.Endpoint, server transport.PeerID, store *index.Store) *CentralizedClient {
	return newRegisteringClient(ep, server, store, "centralized")
}

// newRegisteringClient builds the client under the given telemetry
// label: "fasttrack" for a leaf, which is this client pointed at a
// super-peer.
func newRegisteringClient(ep transport.Endpoint, server transport.PeerID, store *index.Store, proto string) *CentralizedClient {
	c := &CentralizedClient{server: server}
	c.InitPeer(ep, store, proto)
	ep.SetHandler(c.handle)
	return c
}

// Server returns the index server (or super-peer) this client is
// currently attached to.
func (c *CentralizedClient) Server() transport.PeerID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.server
}

// Publish implements Network: store locally, register centrally. The
// registration is the stored entry's.
func (c *CentralizedClient) Publish(doc *index.Document) error {
	e := index.NewEntry(doc)
	if err := c.shared.PutEntries([]*index.Entry{e}); err != nil {
		return err
	}
	c.NodeMetrics().Publishes.Inc()
	server := c.Server()
	sp := c.Tracer().Root("publish")
	sp.SetPeer(string(server))
	sp.SetCommunity(e.CommunityID)
	defer sp.Finish()
	reg := registerPayloadFor(e)
	return c.Send(server, MsgRegister, &reg, &sp)
}

// PublishBatch implements Network: one local store batch plus one
// register-batch frame per chunk, so bulk publication costs one store
// lock round and one server message per few hundred documents instead
// of one each per document.
func (c *CentralizedClient) PublishBatch(docs []*index.Document) error {
	if len(docs) == 0 {
		return nil
	}
	es := index.NewEntries(docs)
	if err := c.shared.PutEntries(es); err != nil {
		return err
	}
	c.NodeMetrics().Publishes.Add(int64(len(docs)))
	return c.registerBatch(c.Server(), es)
}

// registerBatch streams entries to the given server in register-batch
// chunks, recorded as one "register" root span when sampled.
func (c *CentralizedClient) registerBatch(server transport.PeerID, es []*index.Entry) error {
	sp := c.Tracer().Root("register")
	sp.SetPeer(string(server))
	defer sp.Finish()
	for start := 0; start < len(es); start += registerBatchChunk {
		end := start + registerBatchChunk
		if end > len(es) {
			end = len(es)
		}
		regs := make([]registerPayload, 0, end-start)
		for _, e := range es[start:end] {
			regs = append(regs, registerPayloadFor(e))
		}
		if err := c.Send(server, MsgRegisterBatch, &registerBatchPayload{Docs: regs}, &sp); err != nil {
			sp.SetErr(err)
			return err
		}
	}
	return nil
}

// Rehome repoints the client at a new server (FastTrack leaves call
// this when their super-peer fails) and re-registers every locally
// stored document with it — Reannounce over the register-batch wire
// path, driven by the caller's failure-detection schedule rather than
// an internal wall-clock timer.
func (c *CentralizedClient) Rehome(server transport.PeerID) error {
	if c.Closed() {
		return ErrClosed
	}
	c.mu.Lock()
	c.server = server
	c.mu.Unlock()
	return c.Reannounce(func(es []*index.Entry) error {
		return c.registerBatch(server, es)
	})
}

// Unpublish implements Network.
func (c *CentralizedClient) Unpublish(id index.DocID) error {
	c.shared.Delete(id)
	return c.Send(c.Server(), MsgUnregister, &unregisterPayload{DocID: id}, nil)
}

// Search implements Network: one round trip to the index server.
func (c *CentralizedClient) Search(communityID string, f query.Filter, opts SearchOptions) ([]Result, error) {
	if f == nil {
		f = query.MatchAll{}
	}
	start := c.clk.Now()
	server := c.Server()
	sp := c.Tracer().Start(opts.Trace, "search")
	sp.SetCommunity(communityID)
	sp.SetPeer(string(server))
	defer sp.Finish()
	got, err := c.Call(server, MsgSearch, &searchPayload{
		CommunityID: communityID,
		Filter:      f.String(),
		Limit:       opts.Limit,
	}, &sp, opts.Timeout)
	if err != nil {
		return nil, err
	}
	hit, ok := got.(*searchHitPayload)
	if !ok {
		return nil, fmt.Errorf("p2p: search reply: unexpected frame %T", got)
	}
	c.NodeMetrics().ObserveSearch(c.clk, start, len(hit.Results))
	return hit.Results, nil
}

func (c *CentralizedClient) handle(msg transport.Message) {
	switch msg.Type {
	case MsgSearchHit:
		hit := new(searchHitPayload)
		if hit.DecodeBinary(msg.Payload) == nil {
			c.Resolve(hit.ReqID, hit)
		}
	default:
		c.HandleRetrieval(msg)
	}
}
