package p2p

import (
	"repro/internal/transport"
)

// Gnutella Ping/Pong peer discovery (protocol v0.4 descriptors 0x00
// and 0x01): a Ping floods like a query; every node that receives it
// answers with a Pong carrying its address, routed back along the
// reverse path. The originator learns of peers beyond its immediate
// neighbors and links to them, growing the overlay without any
// central directory — the mechanism real Gnutella used after the
// initial bootstrap hosts. Both ride the flood router (flood.go): a
// ping is flooded and answered as a query is, and a pong is collected
// or relayed as a query-hit is.

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

// Discover floods a Ping with the given TTL (2 when it is not
// positive), collects the Pongs for DefaultTimeout, as a search with no
// limit collects its hits, and links to every peer that answered, up
// to MaxNeighbors neighbors in all. It returns the newly linked peers.
func (g *GnutellaNode) Discover(ttl int) []transport.PeerID {
	if ttl <= 0 {
		ttl = 2
	}
	guid := g.guids.next()
	col, err := g.flood(guid, MsgPing, &pingPayload{GUID: guid, Origin: g.PeerID(), TTL: ttl}, 0, nil, nil)
	if err != nil {
		return nil
	}
	pongs := g.collected(col, DefaultTimeout)
	var added []transport.PeerID
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, pong := range pongs {
		grown := peerSliceAdd(g.neighbors, pong.Provider)
		if len(grown) > len(g.neighbors) && len(g.neighbors) < MaxNeighbors && pong.Provider != g.PeerID() {
			g.neighbors = grown
			added = append(added, pong.Provider)
		}
	}
	return added
}
