package p2p

import (
	"sync"

	"repro/internal/p2p/codec"
	"repro/internal/transport"
)

// Gnutella Ping/Pong peer discovery (protocol v0.4 descriptors 0x00
// and 0x01): a Ping floods like a query; every node that receives it
// answers with a Pong carrying its address, routed back along the
// reverse path. The originator learns of peers beyond its immediate
// neighbors and links to them, growing the overlay without any
// central directory — the mechanism real Gnutella used after the
// initial bootstrap hosts.

// Ping/Pong message types.
const (
	MsgPing = "ping"
	MsgPong = "pong"
)

type pingPayload struct {
	GUID   uint64           `json:"guid"`
	Origin transport.PeerID `json:"origin"`
	TTL    int              `json:"ttl"`
	Hops   int              `json:"hops"`
}

type pongPayload struct {
	GUID uint64           `json:"guid"`
	Peer transport.PeerID `json:"peer"`
	Hops int              `json:"hops"`
}

// MaxNeighbors caps a node's overlay degree during discovery, like the
// connection limits of real Gnutella servents.
const MaxNeighbors = 8

// discoveryState tracks outstanding pings on a GnutellaNode.
type discoveryState struct {
	mu sync.Mutex
	// pongs collects discovered peers for pings this node originated.
	pongs map[uint64][]transport.PeerID
}

func newDiscoveryState() *discoveryState {
	return &discoveryState{pongs: make(map[uint64][]transport.PeerID)}
}

// Discover floods a Ping with the given TTL and links to every peer
// that answers, up to MaxNeighbors total neighbors. It returns the
// newly discovered peers. On the synchronous simulator all pongs have
// arrived when the sends return.
func (g *GnutellaNode) Discover(ttl int) []transport.PeerID {
	if ttl <= 0 {
		ttl = 2
	}
	if g.Closed() {
		return nil
	}
	guid := g.guids.next()
	now := g.clk.Now()
	g.mu.Lock()
	if g.disc == nil {
		g.disc = newDiscoveryState()
	}
	g.seen.insert(guid, g.PeerID(), now)
	neighbors := g.neighbors
	g.mu.Unlock()
	g.disc.mu.Lock()
	g.disc.pongs[guid] = nil
	g.disc.mu.Unlock()

	payload := codec.Borrow(&pingPayload{GUID: guid, Origin: g.PeerID(), TTL: ttl})
	for _, n := range neighbors {
		_ = g.SendPayload(n, MsgPing, *payload, nil)
	}
	codec.Release(payload)

	g.disc.mu.Lock()
	discovered := g.disc.pongs[guid]
	delete(g.disc.pongs, guid)
	g.disc.mu.Unlock()

	var added []transport.PeerID
	for _, peer := range discovered {
		g.mu.Lock()
		grown := peerSliceAdd(g.neighbors, peer)
		if len(grown) > len(g.neighbors) && len(g.neighbors) < MaxNeighbors && peer != g.PeerID() {
			g.neighbors = grown
			added = append(added, peer)
		}
		g.mu.Unlock()
	}
	return added
}

// handlePing answers with a Pong and forwards the flood.
func (g *GnutellaNode) handlePing(msg transport.Message) {
	var p pingPayload
	if err := p.DecodeBinary(msg.Payload); err != nil {
		return
	}
	neighbors, first := g.markSeen(p.GUID, msg.From)
	if !first {
		return
	}
	hops := p.Hops + 1
	// Pong back toward the origin along the reverse path.
	_ = g.Send(msg.From, MsgPong, &pongPayload{GUID: p.GUID, Peer: g.PeerID(), Hops: hops}, nil)
	if p.TTL <= 1 {
		return
	}
	fwd := p
	fwd.TTL--
	fwd.Hops = hops
	payload := codec.Borrow(&fwd)
	for _, n := range neighbors {
		if n != msg.From {
			_ = g.SendPayload(n, MsgPing, *payload, nil)
		}
	}
	codec.Release(payload)
}

// handlePong collects at the origin or relays backward.
func (g *GnutellaNode) handlePong(msg transport.Message) {
	var p pongPayload
	if err := p.DecodeBinary(msg.Payload); err != nil {
		return
	}
	g.mu.RLock()
	disc := g.disc
	back, seen := g.seen.lookup(p.GUID)
	self := g.PeerID()
	g.mu.RUnlock()
	if disc != nil {
		disc.mu.Lock()
		if _, mine := disc.pongs[p.GUID]; mine {
			disc.pongs[p.GUID] = append(disc.pongs[p.GUID], p.Peer)
			disc.mu.Unlock()
			return
		}
		disc.mu.Unlock()
	}
	if !seen || back == self {
		return
	}
	_ = g.SendPayload(back, MsgPong, msg.Payload, nil)
}
