// Package dht implements a Kademlia-style structured overlay as a
// fourth p2p.Network protocol, alongside the paper's centralized,
// Gnutella, and FastTrack architectures. Where those either flood
// queries or depend on index servers, the DHT routes every operation
// through a 160-bit XOR keyspace: node IDs and content keys share one
// space, each node keeps k-bucket routing state of O(k log n)
// contacts, and iterative lookups with parallelism α converge on the
// k nodes closest to any key in O(log n) hops.
//
// Mapping U-P2P's community model onto the keyspace:
// KeyForCommunity(communityID) is the community's slice of the
// distributed index. Publishing a document STOREs its metadata record
// (the same fields the centralized register frame carries, plus its
// provider) on the k nodes closest to that key; searching a community
// is one iterative FIND_VALUE toward it, with the attribute filter
// evaluated holder-side so only matching records travel back. A hit
// names its provider, so retrieval needs no second key. A record is a
// p2p.Result from publish to caller — held, cached, shipped, merged and
// returned as one type, replicas content-addressed by (DocID, Provider)
// — and its Hops, the search's own count, never travels.
//
// A search ships the record set once. Every FIND_VALUE reply carries a
// 12-byte digest of the responder's matching set (setDigest); records
// travel only when the querier can use them:
//
//   - Every RPC is stamped with a digest (Have). A holder of that very
//     set answers with contacts, digest and flags; one with a different
//     set ships it in the same reply, unless asked DigestOnly.
//   - Have is the set most responders announced, once it is in hand;
//     until then all the querier holds (at first its own held slice),
//     and only a wave's closest candidate may ship.
//   - A responder whose announced set is not in hand is asked once more
//     (a pull) after convergence — or at once when a limit or a Complete
//     cached set would end the lookup early: it ends on records, never
//     on a digest. A lost pull lets the lookup converge on, and its
//     result is never cache-STOREd.
//
// Holders in agreement ship one copy of the records, not k, in not one
// message more. Replicas that differ (churn, a lost STORE, the partial
// slice over-replication leaves just outside the k closest) still
// merge, so recall stays exact, and show: dht.digest_replies counts the
// sets a digest stood in for, dht.digest_mismatches those shipped in
// answer to the most-announced one. A lying holder can withhold its
// copy behind a false digest; it cannot inject: Search re-checks
// community and filter on every record.
//
// Records expire after Config.RecordTTL on their holders; publishers
// counter expiry — and re-replicate around churn — by periodic
// republish (Node.Refresh, p2p.Peer.Reannounce over the STORE path),
// driven by the caller's schedule on a dsim.Clock rather than
// internal wall-clock timers, exactly like FastTrack's rehoming. A
// round is kept small: one liveness ping per bucket, then per community
// key one FIND_NODE to a holder the last announce reached. Holders still
// in place cost that round trip; changed ones get their STOREs on the
// holder's answer; only a key with no holder left to answer, or with
// records halfway to expiry, pays an iterative lookup.
// Retrieval reuses the shared direct fetch protocol of package p2p.
//
// Everything iterates in sorted orders (bucket scans, shortlists,
// record sets), uses per-node request IDs, and probes liveness only
// on schedule, so a simulated deployment reproduces its message trace
// bit-for-bit from the seed like the other three protocols.
package dht

import (
	"time"

	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/transport"
)

// Tunables (zero values in Config select these).
const (
	// DefaultK is the bucket capacity and replication factor.
	DefaultK = 16
	// DefaultAlpha is the lookup parallelism.
	DefaultAlpha = 3
	// DefaultRecordTTL is how long a holder keeps a stored record
	// without a refresh.
	DefaultRecordTTL = 10 * time.Minute
	// DefaultRPCTimeout bounds one lookup RPC on asynchronous
	// transports (the synchronous simulator resolves instantly).
	DefaultRPCTimeout = time.Second
	// DefaultMaxRecordsPerKey caps how many records one holder keeps
	// under a single key: past it, deterministic eviction (cached
	// entries first, then earliest-expiring primaries) keeps a flash
	// crowd of publishes from exhausting the holder's memory.
	DefaultMaxRecordsPerKey = 1024
)

// Config tunes a Node. The zero value selects the defaults above.
type Config struct {
	// K is the bucket capacity and the replication factor: records
	// are stored on the K nodes closest to their key.
	K int
	// Alpha is the number of parallel RPCs per lookup round.
	Alpha int
	// RecordTTL is the holder-side record lifetime; publishers must
	// refresh within it or their records expire.
	RecordTTL time.Duration
	// RPCTimeout bounds one lookup RPC on asynchronous transports.
	RPCTimeout time.Duration
	// CacheRecords enables Kademlia's caching STORE: FIND_VALUE
	// lookups terminate at the first wave that returns records, and
	// the querier then replicates the (complete, filter-tagged) result
	// set onto the closest observed node that did not hold it, with a
	// halved TTL. Under a flash crowd the cached copies spread outward
	// from the key's neighborhood and absorb the load before it ever
	// reaches the k holders. Off by default: enabling it changes the
	// message trace, so golden-trace baselines keep it off.
	CacheRecords bool
	// MaxRecordsPerKey caps per-key holder state (0 selects
	// DefaultMaxRecordsPerKey).
	MaxRecordsPerKey int
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = DefaultK
	}
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
	if c.RecordTTL <= 0 {
		c.RecordTTL = DefaultRecordTTL
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = DefaultRPCTimeout
	}
	if c.MaxRecordsPerKey <= 0 {
		c.MaxRecordsPerKey = DefaultMaxRecordsPerKey
	}
	return c
}

// Message types on the wire. They ride the same transport.Message
// frames (and trace hashing, and Stats.PerType accounting) as the
// other protocols' messages.
const (
	MsgPing           = "dht-ping"
	MsgPong           = "dht-pong"
	MsgFindNode       = "dht-find-node"
	MsgFindNodeReply  = "dht-find-node-reply"
	MsgFindValue      = "dht-find-value"
	MsgFindValueReply = "dht-find-value-reply"
	// MsgStore replicates records to a key's closest nodes; it is
	// fire-and-forget like Kademlia's STORE (expiry plus republish
	// repair lost copies, so an ack would buy nothing).
	MsgStore = "dht-store"
	// MsgUnstore withdraws one provider's record under a key.
	MsgUnstore = "dht-unstore"
)

// ownRecord makes rec a copy that shares no memory with what it was
// decoded from: its four scalars cut from one new string, its attributes
// from another (query.Fields.Clone). A holder keeps what it owns for a
// TTL, and the recordStore orders by its DocID and Provider, so neither
// a frame nor a neighbouring record stays alive through it.
func ownRecord(rec *p2p.Result) {
	all := string(rec.DocID) + rec.CommunityID + rec.Title + string(rec.Provider)
	d, c, t := len(rec.DocID), len(rec.CommunityID), len(rec.Title)
	rec.DocID, rec.CommunityID, rec.Title = index.DocID(all[:d]), all[d:d+c], all[d+c:d+c+t]
	rec.Provider = transport.PeerID(all[d+c+t:])
	rec.Attrs = rec.Attrs.Clone()
}

// --- wire payloads ---

type pingPayload struct {
	ReqID uint64 `json:"reqId"`
}

type findNodePayload struct {
	ReqID  uint64 `json:"reqId"`
	Target ID     `json:"target"`
}

// SetReqID implements p2p.Request, here and below.
func (p *pingPayload) SetReqID(id uint64)      { p.ReqID = id }
func (p *findNodePayload) SetReqID(id uint64)  { p.ReqID = id }
func (p *findValuePayload) SetReqID(id uint64) { p.ReqID = id }

type findNodeReplyPayload struct {
	ReqID uint64             `json:"reqId"`
	Peers []transport.PeerID `json:"peers"`
}

// setDigest summarizes a record set in 12 wire bytes: how many records
// and the sum mod 2^64 of their recordHash values — order-independent,
// so a holder accumulates it in its match loop with no sort and no
// allocation. The zero value is the empty set.
type setDigest struct {
	Count uint32 `json:"count"`
	Sum   uint64 `json:"sum"`
}

func (d *setDigest) add(hash uint64) {
	d.Count++
	d.Sum += hash
}

// recordHash is the per-record term of a setDigest: FNV-1a over
// DocID‖0‖Provider, then murmur3's fmix64 — raw FNV terms of keys that
// differ in their last byte sum to equal totals far too easily.
func recordHash(docID index.DocID, provider transport.PeerID) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(docID); i++ {
		h = (h ^ uint64(docID[i])) * prime
	}
	h *= prime // the 0 separator: h ^ 0 == h
	for i := 0; i < len(provider); i++ {
		h = (h ^ uint64(provider[i])) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

type findValuePayload struct {
	ReqID uint64 `json:"reqId"`
	Key   ID     `json:"key"`
	// CommunityID/Filter/Limit let the holder evaluate the query
	// server-side, so only matching records travel back.
	CommunityID string `json:"communityId"`
	Filter      string `json:"filter"`
	Limit       int    `json:"limit"`
	// Have digests the matching set the querier already holds: a holder
	// of the same set, or any holder asked DigestOnly, ships no records.
	Have       setDigest `json:"have"`
	DigestOnly bool      `json:"digestOnly,omitempty"`
}

type findValueReplyPayload struct {
	ReqID uint64 `json:"reqId"`
	// Records is the matching set, unless the request's Have or
	// DigestOnly suppressed it; Digest describes it either way.
	Records []p2p.Result       `json:"records,omitempty"`
	Digest  setDigest          `json:"digest"`
	Peers   []transport.PeerID `json:"peers"`
	// Complete marks records served from a cached copy for exactly the
	// query's filter — a complete result set by construction (only
	// full, unlimited sets are ever cache-STOREd). A value-terminating
	// lookup may stop on a Complete reply without losing recall;
	// ordinary holder replies carry no such guarantee (a record set,
	// unlike Kademlia's atomic values, can be partially replicated).
	Complete bool `json:"complete,omitempty"`
}

type storePayload struct {
	Key     ID           `json:"key"`
	Records []p2p.Result `json:"records"`
	// Cached marks a caching STORE from a FIND_VALUE querier: the
	// holder keeps the records with a halved TTL, tagged with Filter,
	// and never lets them displace primary replicas. Cached records
	// carry third-party providers, so the provider==sender provenance
	// rule is relaxed for them — the copies are short-lived and
	// age out first by construction.
	Cached bool `json:"cached,omitempty"`
	// Filter is the canonical filter string a cached record set is
	// complete for; holders serve cached entries only to queries
	// carrying the identical filter, so a cache never truncates the
	// result set of a different query.
	Filter string `json:"filter,omitempty"`
}

type unstorePayload struct {
	Key      ID               `json:"key"`
	DocID    index.DocID      `json:"docId"`
	Provider transport.PeerID `json:"provider"`
}
