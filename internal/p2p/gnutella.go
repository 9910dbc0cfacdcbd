package p2p

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

// GnutellaNode is a peer in the distributed protocol: queries flood
// the overlay with a TTL, each peer answers from its local metadata
// index, and query hits travel back along the reverse path — the
// classic Gnutella 0.4 design the paper names. The flooding itself is
// the embedded floodRouter's; the node adds the answers from its shared
// store and Ping/Pong discovery.
type GnutellaNode struct {
	floodRouter
}

var _ Network = (*GnutellaNode)(nil)

// NewGnutellaNode attaches a node to the overlay. Topology is supplied
// via AddNeighbor (the simulator wires it; over TCP a bootstrap list
// plays the same role).
func NewGnutellaNode(ep transport.Endpoint, store *index.Store) *GnutellaNode {
	g := &GnutellaNode{}
	g.floodRouter.init(ep, store, "gnutella", g)
	ep.SetHandler(g.handle)
	return g
}

// Publish implements Network: in Gnutella metadata stays local; the
// object becomes discoverable because queries reach this peer.
func (g *GnutellaNode) Publish(doc *index.Document) error {
	if err := g.shared.Put(doc); err != nil {
		return err
	}
	g.NodeMetrics().Publishes.Inc()
	return nil
}

// PublishBatch implements Network: with no registration protocol, a
// batch is purely a local store batch (one store lock round).
func (g *GnutellaNode) PublishBatch(docs []*index.Document) error {
	if err := g.shared.PutBatch(docs); err != nil {
		return err
	}
	g.NodeMetrics().Publishes.Add(int64(len(docs)))
	return nil
}

// Unpublish implements Network.
func (g *GnutellaNode) Unpublish(id index.DocID) error {
	g.shared.Delete(id)
	return nil
}

// Search implements Network: flood a query with a TTL and collect
// reverse-path hits until the limit is met or opts.Timeout passes.
func (g *GnutellaNode) Search(communityID string, f query.Filter, opts SearchOptions) ([]Result, error) {
	if f == nil {
		f = query.MatchAll{}
	}
	ttl := opts.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	start := g.clk.Now()
	sp := g.Tracer().Start(opts.Trace, "search")
	sp.SetCommunity(communityID)
	defer sp.Finish()
	// Answer from the local index first (a peer is also a member of
	// the network it searches).
	local := g.localResults(communityID, f, opts.Limit)
	col, err := g.originate(communityID, f, ttl, opts.Limit, local, &sp)
	if err != nil {
		return nil, g.fail(&sp, err)
	}
	out := g.collected(col, opts.Timeout)
	g.NodeMetrics().ObserveSearch(g.clk, start, len(out))
	return out, nil
}

// localResults answers this node's own search, in the slice the
// search's collector then decodes the hits onto. Each result shares its
// store entry's strings and attribute set (ResultOf).
func (g *GnutellaNode) localResults(communityID string, f query.Filter, limit int) []Result {
	es := g.shared.Search(communityID, f, limit)
	out := make([]Result, len(es))
	for i, e := range es {
		out[i] = ResultOf(e, g.PeerID())
	}
	return out
}

// appendAnswer implements answerer: this node's matches, written
// straight from its store's entries, each provided by this node.
func (g *GnutellaNode) appendAnswer(dst []byte, sc *serveScratch, communityID string, f query.Filter, limit, hops int) ([]byte, int) {
	es := g.shared.Search(communityID, f, limit, sc.matches[:0]...)
	sc.matches = es
	dst = codec.AppendUvarint(dst, uint64(len(es)))
	for _, e := range es {
		dst = appendEntryResult(dst, e, g.PeerID(), hops)
	}
	return dst, len(es)
}

func (g *GnutellaNode) handle(msg transport.Message) {
	switch msg.Type {
	case MsgQuery, MsgPing:
		g.handleFlood(msg)
	case MsgQueryHit, MsgPong:
		g.handleHit(msg)
	default:
		g.HandleRetrieval(msg)
	}
}

// String describes the node.
func (g *GnutellaNode) String() string {
	return fmt.Sprintf("gnutella(%s, %d neighbors)", g.PeerID(), len(g.Neighbors()))
}
