package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
)

// MemNetwork is a deterministic in-memory network hub. Delivery is
// synchronous: Send invokes the receiver's handler on the caller's
// goroutine, so when a flood's initial Send returns, the entire
// cascade has completed — which makes simulation experiments exact
// rather than timing-dependent.
//
// Fault injection: per-message drop probability (seeded PRNG) and
// pairwise partitions. A latency model charges virtual time per hop
// without sleeping; totals are available in Stats.
type MemNetwork struct {
	mu        sync.RWMutex
	endpoints map[PeerID]*memEndpoint
	rng       *rand.Rand
	rngMu     sync.Mutex
	dropRate  float64
	dropModel func(from, to PeerID) float64
	latency   func(from, to PeerID) time.Duration
	parts     map[[2]PeerID]bool

	// Delivery accounting lives in the metrics registry: atomic handles
	// resolved once at construction, so the record path takes no lock
	// and allocates nothing. statsMu below only guards the path-latency
	// high-water mark and the trace hash, which need ordered folding.
	reg        *metrics.Registry
	mDelivered *metrics.Counter
	mBytes     *metrics.Counter
	mDropped   *metrics.Counter
	mSimLat    *metrics.Counter
	mPerType   *metrics.CounterVec
	mHopLat    *metrics.Histogram

	statsMu sync.Mutex
	// maxVT is the high-water cumulative virtual latency reached by any
	// delivery since the last ResetPath: on the synchronous network a
	// cascade's maxVT is the virtual instant its last message lands,
	// i.e. the query's virtual completion latency.
	maxVT time.Duration
	// peerLoad, when enabled, counts delivered messages per receiving
	// peer — the per-node load distribution hotspot experiments read
	// skew from. Guarded by statsMu like the other ordered folds.
	peerLoad map[PeerID]int64
	// trace, when enabled, folds every delivery attempt (including
	// drops) into a running FNV-1a hash: two runs of one deterministic
	// scenario produce identical hashes, and any divergence in message
	// order, content, or loss decisions changes the hash.
	traceOn  bool
	trace    uint64
	traceLen uint64
}

// MemOption configures a MemNetwork.
type MemOption func(*MemNetwork)

// WithSeed sets the PRNG seed for drop decisions (default 1).
func WithSeed(seed int64) MemOption {
	return func(n *MemNetwork) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithDropRate sets the probability in [0,1) that any message is lost.
func WithDropRate(p float64) MemOption {
	return func(n *MemNetwork) { n.dropRate = p }
}

// WithLatencyModel sets the per-hop virtual latency function.
func WithLatencyModel(f func(from, to PeerID) time.Duration) MemOption {
	return func(n *MemNetwork) { n.latency = f }
}

// WithDropModel sets a per-link drop probability, overriding the
// global drop rate for links where it returns a positive value. Loss
// decisions still come from the seeded PRNG so they stay reproducible
// given a deterministic delivery order.
func WithDropModel(f func(from, to PeerID) float64) MemOption {
	return func(n *MemNetwork) { n.dropModel = f }
}

// WithTrace enables message-trace hashing from the start (see
// TraceHash).
func WithTrace() MemOption {
	return func(n *MemNetwork) { n.traceOn = true }
}

// WithPeerLoad enables per-receiver delivery counting (see PeerLoad).
// Off by default: a map update per delivery is cheap but not free.
func WithPeerLoad() MemOption {
	return func(n *MemNetwork) { n.peerLoad = make(map[PeerID]int64) }
}

// WithMetrics records delivery accounting into reg instead of a
// private registry — pass a shared registry to aggregate a cluster, or
// metrics.Discard() to turn accounting off entirely.
func WithMetrics(reg *metrics.Registry) MemOption {
	return func(n *MemNetwork) { n.reg = reg }
}

// NewMemNetwork creates an empty hub.
func NewMemNetwork(opts ...MemOption) *MemNetwork {
	n := &MemNetwork{
		endpoints: make(map[PeerID]*memEndpoint),
		rng:       rand.New(rand.NewSource(1)),
		parts:     make(map[[2]PeerID]bool),
	}
	for _, o := range opts {
		o(n)
	}
	if n.reg == nil {
		n.reg = metrics.NewRegistry()
	}
	n.mDelivered = n.reg.Counter("transport.msgs_delivered")
	n.mBytes = n.reg.Counter("transport.bytes_delivered")
	n.mDropped = n.reg.Counter("transport.msgs_dropped")
	n.mSimLat = n.reg.Counter("transport.sim_latency_ns")
	n.mPerType = n.reg.CounterVec("transport.msgs_by_type", "type")
	n.mHopLat = n.reg.Histogram("transport.hop_latency_ns")
	return n
}

// Endpoint attaches a new peer. Attaching an existing live ID fails.
func (n *MemNetwork) Endpoint(id PeerID) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.endpoints[id]; exists {
		return nil, fmt.Errorf("transport: peer %q already attached", id)
	}
	ep := &memEndpoint{net: n, id: id}
	n.endpoints[id] = ep
	return ep, nil
}

// Partition blocks traffic between a and b (both directions).
func (n *MemNetwork) Partition(a, b PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parts[pairKey(a, b)] = true
}

// Heal removes a partition between a and b.
func (n *MemNetwork) Heal(a, b PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.parts, pairKey(a, b))
}

// MaxPathLatency returns the largest cumulative virtual latency any
// delivery chain has reached since the last ResetPath. With a latency
// model installed, ResetPath before a synchronous operation and
// MaxPathLatency after it yield that operation's virtual completion
// time — the "how long would this search have taken" number the
// scenario experiments report percentiles of, measured without any
// real waiting.
func (n *MemNetwork) MaxPathLatency() time.Duration {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	return n.maxVT
}

// ResetPath zeroes the path-latency high-water mark.
func (n *MemNetwork) ResetPath() {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	n.maxVT = 0
}

// PeerLoad returns a copy of the per-receiver delivered-message
// counts since construction, or nil unless WithPeerLoad was set.
// Snapshot one before and one after a window and subtract to get the
// window's load distribution.
func (n *MemNetwork) PeerLoad() map[PeerID]int64 {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	if n.peerLoad == nil {
		return nil
	}
	out := make(map[PeerID]int64, len(n.peerLoad))
	for id, c := range n.peerLoad {
		out[id] = c
	}
	return out
}

// TraceHash returns the running hash over every delivery attempt since
// construction (or the count of hashed events via TraceLen). Zero
// until WithTrace is set.
func (n *MemNetwork) TraceHash() uint64 {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	return n.trace
}

// TraceLen returns how many delivery attempts the trace hash covers.
func (n *MemNetwork) TraceLen() uint64 {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	return n.traceLen
}

// Streaming FNV-1a: the same constants and byte order hash/fnv uses,
// inlined so the per-delivery trace fold allocates nothing (fnv.New64a
// heap-allocates its state every call). Hash values are bit-identical
// to the previous implementation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvFoldByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvFoldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvFoldBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// foldTraceLocked mixes one delivery attempt into the trace hash by
// streaming the frame through FNV-1a. Caller holds statsMu.
func (n *MemNetwork) foldTraceLocked(msg *Message, dropped bool) {
	h := uint64(fnvOffset64)
	if n.trace != 0 {
		for i := 0; i < 8; i++ {
			h = fnvFoldByte(h, byte(n.trace>>(8*i)))
		}
	}
	h = fnvFoldString(h, string(msg.From))
	h = fnvFoldByte(h, 0)
	h = fnvFoldString(h, string(msg.To))
	h = fnvFoldByte(h, 0)
	h = fnvFoldString(h, msg.Type)
	h = fnvFoldByte(h, 0)
	if dropped {
		h = fnvFoldByte(h, 'x')
	}
	h = fnvFoldBytes(h, msg.Payload)
	n.trace = h
	n.traceLen++
}

func pairKey(a, b PeerID) [2]PeerID {
	if a > b {
		a, b = b, a
	}
	return [2]PeerID{a, b}
}

// deliver routes one message. senderVT is the cumulative virtual
// latency of the delivery chain that produced this send (zero for
// top-level sends): the message lands at senderVT plus its own link
// latency, and the receiving endpoint carries that arrival time while
// its handler runs so everything the handler sends in turn inherits
// it. That threads exact per-chain virtual time through a synchronous
// cascade with no real clocks involved.
//
// The message travels by pointer — the network never mutates it, so
// the only copy on the whole path is the one handed to the receiving
// handler, and a delivery allocates nothing (pinned by test).
func (n *MemNetwork) deliver(msg *Message, senderVT time.Duration) error {
	n.mu.RLock()
	dst, ok := n.endpoints[msg.To]
	partitioned := n.parts[pairKey(msg.From, msg.To)]
	latFn := n.latency
	drop := n.dropRate
	dropFn := n.dropModel
	n.mu.RUnlock()
	if !ok {
		n.reg.CountError(ErrUnknownPeer)
		return fmt.Errorf("%w: %s", ErrUnknownPeer, msg.To)
	}
	if partitioned {
		n.reg.CountError(ErrPartitioned)
		return fmt.Errorf("%w: %s <-> %s", ErrPartitioned, msg.From, msg.To)
	}
	if dropFn != nil {
		if p := dropFn(msg.From, msg.To); p > 0 {
			drop = p
		}
	}
	if drop > 0 {
		n.rngMu.Lock()
		lost := n.rng.Float64() < drop
		n.rngMu.Unlock()
		if lost {
			n.mDropped.Inc()
			n.reg.CountError(ErrDropped)
			if n.traceOn {
				n.statsMu.Lock()
				n.foldTraceLocked(msg, true)
				n.statsMu.Unlock()
			}
			return nil // silent loss, like a real datagram network
		}
	}
	var lat time.Duration
	if latFn != nil {
		lat = latFn(msg.From, msg.To)
	}
	arrival := senderVT + lat
	n.mDelivered.Inc()
	n.mBytes.Add(int64(len(msg.Payload)))
	n.mPerType.With(msg.Type).Inc()
	n.mSimLat.Add(int64(lat))
	n.mHopLat.Observe(int64(lat))
	n.statsMu.Lock()
	if arrival > n.maxVT {
		n.maxVT = arrival
	}
	if n.peerLoad != nil {
		n.peerLoad[msg.To]++
	}
	if n.traceOn {
		n.foldTraceLocked(msg, false)
	}
	n.statsMu.Unlock()

	dst.mu.Lock()
	h := dst.handler
	closed := dst.closed
	prevVT := dst.vt
	if !closed {
		dst.vt = arrival
	}
	dst.mu.Unlock()
	if closed {
		n.reg.CountError(ErrClosed)
		return fmt.Errorf("%w: %s", ErrClosed, msg.To)
	}
	if h != nil {
		h(*msg)
	}
	dst.mu.Lock()
	dst.vt = prevVT
	dst.mu.Unlock()
	return nil
}

type memEndpoint struct {
	net     *MemNetwork
	id      PeerID
	mu      sync.RWMutex
	handler Handler
	closed  bool
	// vt is the arrival virtual time of the message currently being
	// handled, inherited by sends the handler makes. Exact under a
	// single experiment driver (the cascade is one call stack);
	// concurrent drivers interleave values without data races, and
	// path accounting simply loses meaning there.
	vt time.Duration
}

var _ Endpoint = (*memEndpoint)(nil)

func (e *memEndpoint) ID() PeerID { return e.id }

func (e *memEndpoint) Send(msg Message) error {
	e.mu.RLock()
	closed := e.closed
	vt := e.vt
	e.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	msg.From = e.id
	return e.net.deliver(&msg, vt)
}

func (e *memEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

func (e *memEndpoint) Synchronous() bool { return true }

// ChainOffset returns the arrival virtual time of the message this
// endpoint is currently handling (zero outside a handler) — see
// transport.ChainOffset.
func (e *memEndpoint) ChainOffset() time.Duration {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.vt
}

func (e *memEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.net.mu.Lock()
	delete(e.net.endpoints, e.id)
	e.net.mu.Unlock()
	return nil
}
