// Package trace implements distributed per-query tracing for the
// U-P2P stack: a TraceID/SpanID context carried in every wire frame,
// per-node bounded ring buffers of finished spans, and a collector
// that reassembles cross-node span trees (see collector.go) and
// renders them as JSON or an ASCII waterfall (see render.go).
//
// The design constraints mirror internal/metrics: tracing must be
// provably inert. Span IDs come from a per-tracer counter (never the
// scenario PRNG), sampling decisions use a deterministic fixed-point
// accumulator, and the trace context rides in Message header fields
// that the golden-trace hash does not cover — so enabling tracing
// cannot perturb a deterministic simulation, and the golden hashes
// are bit-identical with tracing on or off. A nil *Tracer is the
// disabled state: every method is nil-safe and the whole span
// lifecycle (Start, setters, Finish) allocates nothing.
package trace

import (
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"repro/internal/dsim"
	"repro/internal/errs"
)

// Context is the trace context propagated across the wire. The zero
// value means "not traced"; handlers gate on Valid so untraced
// traffic never touches a tracer.
type Context struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether this context belongs to a sampled trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// Span is one finished operation in a trace. Start/Duration are read
// from the tracer's dsim.Clock, so simulated spans carry virtual
// timestamps and are bit-identical across runs. Msgs/Bytes attribute
// the wire messages this span itself sent; Err holds the structured
// errs code when the operation failed.
type Span struct {
	Trace     uint64
	ID        uint64
	Parent    uint64 // zero for a root span
	Op        string
	Node      string
	Peer      string
	Proto     string
	Community string
	Start     time.Time
	Duration  time.Duration
	Msgs      int64
	Bytes     int64
	Err       string
}

// DefaultRingSize bounds a tracer's span ring when WithRingSize is
// not given.
const DefaultRingSize = 4096

// sampleOne is the fixed-point scale of the sampling accumulator.
const sampleOne = 1 << 16

// Tracer records spans for one node into a bounded ring buffer.
// A nil *Tracer is valid and means tracing is disabled: all methods
// are no-ops and the hot path performs zero allocations.
type Tracer struct {
	node  string
	proto string
	clk   dsim.Clock

	// Span IDs are a per-node FNV prefix plus a 24-bit counter —
	// unique across a cluster, deterministic, and independent of any
	// scenario RNG (the same construction as p2p's GUID source).
	idMu sync.Mutex
	idHi uint64
	idCt uint64

	// Head-based sampling state: a fixed-point accumulator admits
	// exactly rate*N of N Root calls with no PRNG involved.
	rateFP uint64
	accum  uint64

	mu    sync.Mutex
	ring  []Span
	next  int
	total uint64
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithClock sets the clock spans are timestamped on (default
// dsim.Wall; simulations pass their VirtualClock).
func WithClock(clk dsim.Clock) Option {
	return func(t *Tracer) {
		if clk != nil {
			t.clk = clk
		}
	}
}

// WithRingSize bounds the span ring (default DefaultRingSize).
func WithRingSize(n int) Option {
	return func(t *Tracer) {
		if n > 0 {
			t.ring = make([]Span, n)
		}
	}
}

// WithSampling sets the head-based sampling rate in [0,1] applied by
// Root (default 1: every root is kept). Child spans are not sampled
// independently — the root's decision propagates via the context.
func WithSampling(rate float64) Option {
	return func(t *Tracer) {
		switch {
		case rate <= 0:
			t.rateFP = 0
		case rate >= 1:
			t.rateFP = sampleOne
		default:
			t.rateFP = uint64(rate * sampleOne)
		}
	}
}

// New creates a tracer labeled with a node identity and protocol
// name.
func New(node, proto string, opts ...Option) *Tracer {
	h := fnv.New64a()
	h.Write([]byte(node))
	t := &Tracer{
		node:   node,
		proto:  proto,
		clk:    dsim.Wall,
		idHi:   h.Sum64() << 24,
		rateFP: sampleOne,
	}
	for _, o := range opts {
		o(t)
	}
	if t.ring == nil {
		t.ring = make([]Span, DefaultRingSize)
	}
	return t
}

// nextID mints a cluster-unique nonzero span ID.
func (t *Tracer) nextID() uint64 {
	t.idMu.Lock()
	t.idCt++
	id := t.idHi | (t.idCt & (1<<24 - 1))
	t.idMu.Unlock()
	if id == 0 {
		id = 1 // zero means "untraced"; never mint it
	}
	return id
}

// sampled advances the sampling accumulator and reports whether this
// root is admitted.
func (t *Tracer) sampled() bool {
	if t.rateFP == 0 {
		return false
	}
	t.idMu.Lock()
	defer t.idMu.Unlock()
	t.accum += t.rateFP
	if t.accum >= sampleOne {
		t.accum -= sampleOne
		return true
	}
	return false
}

// Root starts a new trace, applying the sampling rate. The returned
// span is inactive (and the trace never exists) when the tracer is
// nil or sampling rejects it.
func (t *Tracer) Root(op string) ActiveSpan {
	if t == nil || !t.sampled() {
		return ActiveSpan{}
	}
	id := t.nextID()
	return ActiveSpan{tr: t, s: Span{
		Trace: id,
		ID:    id,
		Op:    op,
		Node:  t.node,
		Proto: t.proto,
		Start: t.clk.Now(),
	}}
}

// Start opens a child span under ctx. Inactive (records nothing)
// when the tracer is nil or ctx is not part of a sampled trace; on a
// nil tracer the inactive span still carries ctx, so a node that
// records nothing passes an inbound trace on to its sends.
func (t *Tracer) Start(ctx Context, op string) ActiveSpan {
	return t.StartAt(ctx, op, 0)
}

// StartAt opens a child span whose start is offset from the clock's
// current reading. On the synchronous simulated network the clock is
// frozen while a delivery cascade runs, so message handlers pass
// transport.ChainOffset(ep) — the cumulative virtual latency of the
// chain that delivered the message — to place the span at its true
// virtual arrival instant.
func (t *Tracer) StartAt(ctx Context, op string, offset time.Duration) ActiveSpan {
	if !ctx.Valid() {
		return ActiveSpan{}
	}
	if t == nil {
		return ActiveSpan{s: Span{Trace: ctx.Trace, ID: ctx.Span}}
	}
	return ActiveSpan{tr: t, s: Span{
		Trace:  ctx.Trace,
		ID:     t.nextID(),
		Parent: ctx.Span,
		Op:     op,
		Node:   t.node,
		Proto:  t.proto,
		Start:  t.clk.Now().Add(offset),
	}}
}

// record copies one finished span into the ring, evicting the oldest
// when full.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.total++
	t.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total >= uint64(len(t.ring)) {
		out := make([]Span, 0, len(t.ring))
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
		return out
	}
	out := make([]Span, t.next)
	copy(out, t.ring[:t.next])
	return out
}

// ActiveSpan is an in-progress span and the one carrier of the trace
// context its sends propagate. The zero value is inactive: every
// method but Context is a no-op, so call sites never branch on
// whether tracing is enabled. It is passed by value and lives on the
// caller's stack — starting and finishing a span allocates nothing
// beyond the ring slot it is copied into.
type ActiveSpan struct {
	tr *Tracer
	// s holds the span being recorded; in an inactive span started on
	// a nil tracer, s.Trace and s.ID hold the context it was started
	// under.
	s Span
}

// Context returns the context a send on behalf of this span carries:
// the span's own when it records, the one it was started under when a
// nil tracer started it (so downstream hops still attribute to the
// nearest traced ancestor), and zero for a nil span or an unsampled
// root.
func (a *ActiveSpan) Context() Context {
	if a == nil {
		return Context{}
	}
	return Context{Trace: a.s.Trace, Span: a.s.ID}
}

// SetPeer records the remote peer this span talked to.
func (a *ActiveSpan) SetPeer(peer string) {
	if a != nil && a.tr != nil {
		a.s.Peer = peer
	}
}

// SetCommunity records the community the operation targeted. A
// recording span keeps a copy of c, so a handler may pass a view of
// its borrowed payload; a span that records nothing copies nothing.
func (a *ActiveSpan) SetCommunity(c string) {
	if a != nil && a.tr != nil {
		a.s.Community = strings.Clone(c)
	}
}

// SetOp overrides the operation name (e.g. when a handler discovers
// what kind of request it is holding).
func (a *ActiveSpan) SetOp(op string) {
	if a != nil && a.tr != nil {
		a.s.Op = op
	}
}

// SetErr records the structured code of a failure (no-op for nil
// errors).
func (a *ActiveSpan) SetErr(err error) {
	if a != nil && a.tr != nil && err != nil {
		a.s.Err = errs.Code(err)
	}
}

// AddMsgs attributes sent wire messages (and their payload bytes) to
// this span.
func (a *ActiveSpan) AddMsgs(msgs, bytes int64) {
	if a != nil && a.tr != nil {
		a.s.Msgs += msgs
		a.s.Bytes += bytes
	}
}

// Finish records the span with a duration read from the clock
// (clamped at zero: on the simulator the clock is frozen during a
// cascade, so handler spans are points and hop timing lives in their
// start offsets).
func (a *ActiveSpan) Finish() {
	if a == nil || a.tr == nil {
		return
	}
	if d := a.tr.clk.Now().Sub(a.s.Start); d > 0 {
		a.s.Duration = d
	}
	a.tr.record(a.s)
	a.tr = nil
}

// FinishWithDuration records the span with an explicitly measured
// duration — the scenario driver closes a query's root span with the
// virtual path latency the harness measured, so the root duration is
// the driver-observed query latency by construction.
func (a *ActiveSpan) FinishWithDuration(d time.Duration) {
	if a == nil || a.tr == nil {
		return
	}
	if d > 0 {
		a.s.Duration = d
	}
	a.tr.record(a.s)
	a.tr = nil
}
