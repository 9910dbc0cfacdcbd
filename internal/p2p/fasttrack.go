package p2p

import (
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/transport"
)

// FastTrack-style super-peer protocol: the third network named in the
// paper's Fig. 3 protocol enumeration. Ordinary peers (leaves) attach
// to one super-peer and upload their metadata to it, as Napster
// clients do to the central server; super-peers flood queries among
// themselves, as Gnutella nodes do. The hybrid bounds flooding to the
// (much smaller) super-peer overlay while avoiding a single central
// index.
//
// Message reuse: leaves speak the centralized wire protocol
// (register/unregister/search) to their super-peer; super-peers speak
// the Gnutella wire protocol (query/query-hit) among themselves.
// Retrieval is the shared direct fetch protocol in both roles.

// SuperPeer is a FastTrack hub: it indexes its leaves' registrations
// in the registry the IndexServer uses, and floods queries across the
// super-peer overlay through the floodRouter it shares with
// GnutellaNode.
type SuperPeer struct {
	floodRouter
	registry
}

// leafSearchWait is how long a super-peer collects flood hits for a
// leaf's search (unless the search's limit is met first) before it
// answers: half the leaf's default Call timeout, so the answer lands
// before the leaf gives up.
const leafSearchWait = DefaultTimeout / 2

// NewSuperPeer attaches a super-peer to the network.
func NewSuperPeer(ep transport.Endpoint) *SuperPeer {
	s := &SuperPeer{registry: registry{store: index.NewStore()}}
	// A super-peer indexes its leaves' metadata and shares no objects.
	s.floodRouter.init(ep, nil, "fasttrack", &s.registry)
	ep.SetHandler(s.handle)
	return s
}

func (s *SuperPeer) handle(msg transport.Message) {
	if s.serveRegistration(&s.Peer, msg) {
		return
	}
	switch msg.Type {
	case MsgSearch:
		// A leaf's search: answer from the registry, then flood the
		// super-peer overlay and merge.
		s.handleLeafSearch(msg)
	case MsgQuery:
		s.handleFlood(msg)
	case MsgQueryHit:
		s.handleHit(msg)
	default:
		s.HandleRetrieval(msg)
	}
}

// handleLeafSearch serves a leaf: its own leaves' matches at once, the
// other super-peers' gathered by flooding them, for the limit or
// leafSearchWait. When that wait blocks, it runs off the handler's
// goroutine, so the frames behind this one are not held up.
func (s *SuperPeer) handleLeafSearch(msg transport.Message) {
	var req searchPayload
	if err := req.DecodeBinary(msg.Payload); err != nil {
		return
	}
	sp := s.StartSpan(msg, "leaf.search")
	sp.SetCommunity(req.CommunityID)
	f, err := query.Parse(req.Filter)
	if err != nil {
		f = query.MatchAll{}
	}
	local := s.search(req.CommunityID, f, req.Limit)
	col, err := s.originate(req.CommunityID, f, DefaultTTL, req.Limit, local, &sp)
	if err != nil {
		sp.Finish()
		return
	}
	reply := func() {
		merged := s.collected(col, leafSearchWait)
		// A lost reply is the leaf's timeout.
		_ = s.Send(msg.From, MsgSearchHit, &searchHitPayload{ReqID: req.ReqID, Results: merged}, &sp)
		sp.Finish()
	}
	if s.waits(col.x) {
		go reply()
		return
	}
	reply()
}

// FastTrackLeaf is an ordinary peer in the super-peer network. Its
// wire behaviour toward the super-peer is exactly the centralized
// client's, so it simply wraps one — including Rehome, which moves the
// leaf to a live super-peer and re-registers its documents after its
// super-peer fails.
type FastTrackLeaf struct {
	*CentralizedClient
}

var _ Network = (*FastTrackLeaf)(nil)

// NewFastTrackLeaf attaches a leaf to its super-peer.
func NewFastTrackLeaf(ep transport.Endpoint, super transport.PeerID, store *index.Store) *FastTrackLeaf {
	return &FastTrackLeaf{newRegisteringClient(ep, super, store, "fasttrack")}
}
