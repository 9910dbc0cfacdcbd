package p2p

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/transport"
)

// GnutellaNode is a peer in the distributed protocol: queries flood
// the overlay with a TTL, each peer answers from its local metadata
// index, and query hits travel back along the reverse path — the
// classic Gnutella 0.4 design the paper names. The flooding itself is
// the embedded floodRouter's; the node adds the local store, retrieval
// and Ping/Pong discovery.
type GnutellaNode struct {
	floodRouter
	store   *index.Store
	pending *PendingTable

	// Guarded by the router's mu.
	nm     *NodeMetrics
	attach AttachmentProvider
	disc   *discoveryState
}

var _ Network = (*GnutellaNode)(nil)

// NewGnutellaNode attaches a node to the overlay. Topology is supplied
// via AddNeighbor (the simulator wires it; over TCP a bootstrap list
// plays the same role).
func NewGnutellaNode(ep transport.Endpoint, store *index.Store) *GnutellaNode {
	g := &GnutellaNode{
		store:   store,
		pending: NewPendingTable(),
		nm:      NewNodeMetrics(metrics.Discard(), "gnutella"),
	}
	g.floodRouter.init(ep, g.answer)
	ep.SetHandler(g.handle)
	return g
}

// SetMetrics points the node's telemetry at reg, labeled "gnutella".
// Like SetClock, call before traffic starts; metrics are discarded
// until then.
func (g *GnutellaNode) SetMetrics(reg *metrics.Registry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nm = NewNodeMetrics(reg, "gnutella")
}

func (g *GnutellaNode) nodeMetrics() *NodeMetrics {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nm
}

// SetAttachmentProvider implements Network.
func (g *GnutellaNode) SetAttachmentProvider(p AttachmentProvider) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attach = p
}

// Publish implements Network: in Gnutella metadata stays local; the
// object becomes discoverable because queries reach this peer.
func (g *GnutellaNode) Publish(doc *index.Document) error {
	if err := g.store.Put(doc); err != nil {
		return err
	}
	g.nodeMetrics().Publishes.Inc()
	return nil
}

// PublishBatch implements Network: with no registration protocol, a
// batch is purely a local store batch (one shard lock round).
func (g *GnutellaNode) PublishBatch(docs []*index.Document) error {
	if err := g.store.PutBatch(docs); err != nil {
		return err
	}
	g.nodeMetrics().Publishes.Add(int64(len(docs)))
	return nil
}

// Unpublish implements Network.
func (g *GnutellaNode) Unpublish(id index.DocID) error {
	g.store.Delete(id)
	return nil
}

// Search implements Network: flood a query with a TTL and collect
// reverse-path hits. On the synchronous simulator the entire flood
// completes before the sends return, so collection is exact; on
// asynchronous transports we wait for the timeout (or the limit).
func (g *GnutellaNode) Search(communityID string, f query.Filter, opts SearchOptions) ([]Result, error) {
	if f == nil {
		f = query.MatchAll{}
	}
	ttl := opts.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	nm := g.nodeMetrics()
	start := g.clk.Now()
	sp := g.tr().Start(opts.Trace, "search")
	sp.SetCommunity(communityID)
	defer sp.Finish()
	// Answer from the local index first (a peer is also a member of
	// the network it searches).
	local := g.localResults(communityID, f, opts.Limit)
	guid, col, err := g.originate(communityID, f, ttl, opts.Limit, local, &sp, sp.ContextOr(opts.Trace))
	if err != nil {
		nm.CountError(err)
		sp.SetErr(err)
		return nil, err
	}
	defer g.release(guid)
	if !g.ep.Synchronous() {
		select {
		case <-col.done:
		case <-g.clk.After(timeoutOr(opts.Timeout)):
		}
	}
	out := col.snapshot(opts.Limit)
	nm.ObserveSearch(g.clk, start, len(out))
	return out, nil
}

// Retrieve implements Network: direct download from the provider, as
// Gnutella does out-of-band from the overlay.
func (g *GnutellaNode) Retrieve(id index.DocID, from transport.PeerID) (*index.Document, error) {
	if from == g.PeerID() {
		return g.store.Get(id)
	}
	nm := g.nodeMetrics()
	sp := g.tr().Root("fetch")
	sp.SetPeer(string(from))
	defer sp.Finish()
	doc, err := RetrieveFrom(g.cdc, g.clk, g.ep, g.pending, &sp, id, from, 0)
	if err != nil {
		nm.CountError(err)
		return nil, err
	}
	nm.Fetches.Inc()
	return doc, nil
}

// RetrieveAttachment implements Network.
func (g *GnutellaNode) RetrieveAttachment(uri string, from transport.PeerID) ([]byte, error) {
	sp := g.tr().Root("attachment")
	sp.SetPeer(string(from))
	defer sp.Finish()
	return RetrieveAttachmentFrom(g.cdc, g.clk, g.ep, g.pending, &sp, uri, from, 0)
}

// localResults answers this node's own search: copies of the matching
// documents' metadata, because the results are handed to the caller.
func (g *GnutellaNode) localResults(communityID string, f query.Filter, limit int) []Result {
	return g.resultsOf(g.store.Search(communityID, f, limit))
}

// answer serves a remote query straight from the store: the results
// alias the store's documents, which are never mutated in place, and
// live only until the router has encoded them.
func (g *GnutellaNode) answer(communityID string, f query.Filter) []Result {
	return g.resultsOf(g.store.SearchReadOnly(communityID, f, 0))
}

func (g *GnutellaNode) resultsOf(docs []*index.Document) []Result {
	out := make([]Result, 0, len(docs))
	for _, d := range docs {
		out = append(out, Result{
			DocID:       d.ID,
			Provider:    g.ep.ID(),
			CommunityID: d.CommunityID,
			Title:       d.Title,
			Attrs:       d.Attrs,
		})
	}
	return out
}

func (g *GnutellaNode) handle(msg transport.Message) {
	switch msg.Type {
	case MsgQuery:
		g.handleQuery(msg)
	case MsgQueryHit:
		g.handleQueryHit(msg)
	case MsgPing:
		g.handlePing(msg)
	case MsgPong:
		g.handlePong(msg)
	case MsgFetch:
		ServeFetch(g.cdc, g.tr(), g.ep, g.store, msg)
	case MsgFetchReply, MsgAttachmentReply:
		ResolveRetrievalReply(g.cdc, g.pending, msg)
	case MsgAttachment:
		g.mu.RLock()
		p := g.attach
		g.mu.RUnlock()
		ServeAttachment(g.cdc, g.tr(), g.ep, p, msg)
	}
}

// String describes the node.
func (g *GnutellaNode) String() string {
	return fmt.Sprintf("gnutella(%s, %d neighbors)", g.ep.ID(), len(g.Neighbors()))
}
