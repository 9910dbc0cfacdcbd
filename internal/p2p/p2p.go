// Package p2p implements U-P2P's protocol-independent network layer.
//
// The paper deliberately refuses to fix a network architecture: "U-P2P
// does not focus on the underlying network architecture or
// discriminate between centralized or distributed approaches" (§IV.B),
// and its future-work section proposes "a generic interface with
// primitives for create, search and retrieve" (§VI). Network is that
// interface. Three real implementations are provided, matching the
// full protocol enumeration of the community schema (Fig. 3):
//
//   - Centralized: a Napster-style index server; peers register
//     metadata centrally, search costs O(1) messages, retrieval is
//     peer-to-peer.
//   - Gnutella: fully distributed TTL-bounded query flooding with
//     reverse-path query-hit routing and Ping/Pong neighbor
//     discovery; metadata stays on the publishing peer.
//   - FastTrack: super-peer hybrid; leaves register with a super-peer
//     exactly as centralized clients register with the index server,
//     and queries flood only the super-peer overlay.
//
// All run over any transport.Endpoint, so the same protocol code
// serves the in-memory simulator and real TCP.
//
// # One runtime under every node
//
// Every node kind — CentralizedClient and IndexServer, GnutellaNode,
// SuperPeer and FastTrackLeaf here, dht.Node in internal/dht — embeds
// Peer (peer.go), which owns what a protocol does not vary:
//
//   - the endpoint and the node's wiring: clock, tracer, metrics
//     (SetClock, SetTracer, SetMetrics — Peer's doc states the one
//     contract for when each may be called);
//   - sending (Send, SendPayload: encode into borrowed scratch, stamp
//     the trace context of the span the frame is sent for and attribute
//     the frame to it; the scratch goes back when the last Send returns,
//     since no transport keeps a payload past it) and handler spans
//     (StartSpan);
//   - request/response (Call, or StartCall + Await for a wave of them,
//     and Resolve on the reply's way in): one pending table, one
//     timeout on the node's clock, ids dropped on every failure path.
//     A flood's collection is an exchange of the same table, so Await
//     is every node's one wait, and its doc states, once, what a
//     synchronous transport changes;
//   - retrieval (Retrieve, RetrieveAttachment, SetAttachmentProvider,
//     HandleRetrieval) and Close.
//
// A new protocol writes three things: a constructor that calls InitPeer
// and installs its handler, the handler's switch over its own message
// types with HandleRetrieval as the default, and Publish / Unpublish /
// Search. Everything else Network asks for is promoted from Peer.
//
// # One registry under both hubs
//
// The IndexServer and a SuperPeer are hubs: nodes that index other
// peers' registrations. Both embed registry (registry.go), which serves
// the register, register-batch and unregister frames and defines
// register, unregister, DropPeer, search and Len once, over an
// index.Store plus each document's providers in registration order.
// Registrations are soft state the peers re-announce, so hubs keep them
// in memory only.
package p2p

import (
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Message types on the wire.
const (
	// Centralized protocol.
	MsgRegister = "register"
	// MsgRegisterBatch registers many documents in one frame: the wire
	// half of the store's batched ingest path.
	MsgRegisterBatch = "register-batch"
	MsgUnregister    = "unregister"
	MsgSearch        = "search"
	MsgSearchHit     = "search-hit"
	// Gnutella protocol.
	MsgQuery    = "query"
	MsgQueryHit = "query-hit"
	// Shared retrieval protocol (§IV.C.2: download from the providing
	// peer, including attachments).
	MsgFetch           = "fetch"
	MsgFetchReply      = "fetch-reply"
	MsgAttachment      = "attachment"
	MsgAttachmentReply = "attachment-reply"
)

// Result is one search hit: the full metadata of a matching object
// plus its provider, per §IV.C.2 ("Results ... will consist of full
// meta-data for each search result").
type Result struct {
	DocID       index.DocID      `json:"docId"`
	Provider    transport.PeerID `json:"provider"`
	CommunityID string           `json:"communityId"`
	Title       string           `json:"title"`
	Attrs       query.Fields     `json:"attrs"`
	Hops        int              `json:"hops"`
}

// ResultOf is the result one of a store's entries makes, provided by
// provider. It shares the entry's strings and attribute set, which no
// one modifies (index.Entry), so it copies nothing.
func ResultOf(e *index.Entry, provider transport.PeerID) Result {
	return Result{DocID: e.ID, Provider: provider, CommunityID: e.CommunityID, Title: e.Title, Attrs: e.Attrs}
}

// SearchOptions tune one search call.
type SearchOptions struct {
	// Limit caps the number of results (0 = unlimited).
	Limit int
	// TTL bounds flooding depth (Gnutella only; 0 uses DefaultTTL).
	TTL int
	// Timeout bounds result collection (0 uses DefaultTimeout), as
	// DefaultTimeout bounds GnutellaNode.Discover's collection of
	// pongs; the wait is Peer.Await's, which on a synchronous transport
	// ends at once.
	Timeout time.Duration
	// Trace is the caller's trace context; when valid (the query was
	// sampled upstream), the search records a child span and stamps it
	// on every wire message the search fans out.
	Trace trace.Context
}

// Defaults for SearchOptions.
const (
	DefaultTTL     = 7
	DefaultTimeout = 2 * time.Second
)

// AttachmentProvider resolves a local attachment URI to its bytes.
// The servent installs one so peers can download flagged attachments.
type AttachmentProvider func(uri string) ([]byte, bool)

// Network is the generic peer-to-peer interface: create (Publish),
// search, and retrieve.
type Network interface {
	// PeerID returns this node's network identity.
	PeerID() transport.PeerID
	// Publish makes a document discoverable on the network.
	Publish(doc *index.Document) error
	// PublishBatch makes many documents discoverable at once. It is
	// semantically a loop over Publish, but implementations amortize:
	// one store batch locally and (where a registration protocol
	// exists) one register-batch message instead of one per document.
	PublishBatch(docs []*index.Document) error
	// Unpublish withdraws a document.
	Unpublish(id index.DocID) error
	// Search finds matching documents within a community.
	Search(communityID string, f query.Filter, opts SearchOptions) ([]Result, error)
	// Retrieve downloads the full document from a providing peer.
	Retrieve(id index.DocID, from transport.PeerID) (*index.Document, error)
	// RetrieveAttachment downloads one attachment from a peer.
	RetrieveAttachment(uri string, from transport.PeerID) ([]byte, error)
	// SetAttachmentProvider installs the resolver for local attachments.
	SetAttachmentProvider(p AttachmentProvider)
	// Tracer returns the node's span recorder, nil when tracing is off.
	// The servent roots its query spans on it.
	Tracer() *trace.Tracer
	// Close detaches from the network.
	Close() error
}

// Common errors, carrying structured codes ("p2p.<name>") for the
// metrics registry's error counter family. Identity semantics are
// unchanged: errors.Is against the sentinels still holds through
// fmt.Errorf("%w: ...") wrapping.
var (
	ErrTimeout     error = errs.New("p2p.timeout", "p2p: timed out awaiting response")
	ErrNotProvided error = errs.New("p2p.not_provided", "p2p: peer does not provide the requested item")
	ErrClosed      error = errs.New("p2p.closed", "p2p: node closed")
)

// --- wire payloads ---

type searchPayload struct {
	ReqID       uint64 `json:"reqId"`
	CommunityID string `json:"communityId"`
	Filter      string `json:"filter"`
	Limit       int    `json:"limit"`
}

type searchHitPayload struct {
	ReqID   uint64   `json:"reqId"`
	Results []Result `json:"results"`
}

type registerPayload struct {
	DocID       index.DocID  `json:"docId"`
	CommunityID string       `json:"communityId"`
	Title       string       `json:"title"`
	Attrs       query.Fields `json:"attrs"`
}

type registerBatchPayload struct {
	Docs []registerPayload `json:"docs"`
}

// registerPayloadFor extracts the registered metadata of an entry,
// sharing its strings.
func registerPayloadFor(e *index.Entry) registerPayload {
	return registerPayload{DocID: e.ID, CommunityID: e.CommunityID, Title: e.Title, Attrs: e.Attrs}
}

// entry is the store entry a registration makes on a hub: metadata
// only, and the registration's own strings, which its frame decoder
// copied out of the frame (readFrom).
func (p *registerPayload) entry() *index.Entry {
	return &index.Entry{ID: p.DocID, CommunityID: p.CommunityID, Title: p.Title, Attrs: p.Attrs}
}

// registerBatchChunk bounds documents per register-batch frame so a
// large batch cannot exceed the transport's frame limit.
const registerBatchChunk = 512

type unregisterPayload struct {
	DocID index.DocID `json:"docId"`
}

type queryPayload struct {
	GUID        uint64           `json:"guid"`
	Origin      transport.PeerID `json:"origin"`
	CommunityID string           `json:"communityId"`
	Filter      string           `json:"filter"`
	TTL         int              `json:"ttl"`
	Hops        int              `json:"hops"`
}

type queryHitPayload struct {
	GUID    uint64   `json:"guid"`
	Results []Result `json:"results"`
}

type fetchPayload struct {
	ReqID uint64      `json:"reqId"`
	DocID index.DocID `json:"docId"`
}

type fetchReplyPayload struct {
	ReqID uint64       `json:"reqId"`
	Found bool         `json:"found"`
	Doc   *index.Entry `json:"doc,omitempty"`
}

type attachmentPayload struct {
	ReqID uint64 `json:"reqId"`
	URI   string `json:"uri"`
}

type attachmentReplyPayload struct {
	ReqID uint64 `json:"reqId"`
	Found bool   `json:"found"`
	Data  []byte `json:"data,omitempty"`
}

// SetReqID implements Request for the three requests of these protocols.
func (p *searchPayload) SetReqID(id uint64)     { p.ReqID = id }
func (p *fetchPayload) SetReqID(id uint64)      { p.ReqID = id }
func (p *attachmentPayload) SetReqID(id uint64) { p.ReqID = id }

// guidSource issues query GUIDs that are unique across the network yet
// deterministic per run: the high bits hash the issuing peer's ID, the
// low 24 bits count locally. A process-global counter would leak state
// between runs and break golden-trace reproducibility (two identical
// scenarios in one process would flood with different GUIDs).
type guidSource struct {
	prefix uint64
	ctr    atomic.Uint64
}

func newGUIDSource(id transport.PeerID) *guidSource {
	h := fnv.New64a()
	h.Write([]byte(id))
	return &guidSource{prefix: h.Sum64() << 24}
}

func (g *guidSource) next() uint64 { return g.prefix | (g.ctr.Add(1) & (1<<24 - 1)) }

// Neighbor sets are copy-on-write sorted slices: membership changes
// (rare: wiring, churn) build a fresh slice, reads (hot: every flood)
// share the current one with no snapshot, no sort, no allocation —
// and iteration order is deterministic by construction.

// peerSliceAdd returns a new sorted slice with peer inserted (no-op
// when already present). The input slice is never mutated.
func peerSliceAdd(s []transport.PeerID, peer transport.PeerID) []transport.PeerID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= peer })
	if i < len(s) && s[i] == peer {
		return s
	}
	out := make([]transport.PeerID, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, peer)
	return append(out, s[i:]...)
}

// peerSliceRemove returns a new sorted slice without peer (no-op when
// absent). The input slice is never mutated.
func peerSliceRemove(s []transport.PeerID, peer transport.PeerID) []transport.PeerID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= peer })
	if i >= len(s) || s[i] != peer {
		return s
	}
	out := make([]transport.PeerID, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}
