package p2p

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsim"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Peer is the runtime every protocol node embeds — CentralizedClient
// (and through it FastTrackLeaf), GnutellaNode and SuperPeer (through
// their flood router), IndexServer, and dht.Node, which is why it and
// the methods a node outside this package needs are exported. It owns
// the endpoint, the wiring (clock, tracer, metrics), the request/response
// correlation and the shared retrieval protocol, and defines each of them
// once. A protocol writes its constructor (InitPeer, then ep.SetHandler),
// its handle switch (ending in HandleRetrieval) and
// Publish/Unpublish/Search; the rest of Network comes from here.
//
// Every wait of a node — for an RPC's reply, a lookup wave's, a flood's
// answers — is an exchange of its pending table and ends in Await,
// whose doc states the one rule for a synchronous transport.
//
// Every send, call and flood goes out on behalf of a *trace.ActiveSpan:
// the span both counts the frame and supplies the trace context the
// frame carries, so no send takes a context of its own.
//
// Wiring contract, the one place it is stated: SetClock is for the code
// that builds the node and must be called before traffic starts — the
// clock is a plain field, read without synchronisation on every frame.
// SetMetrics, SetTracer and SetAttachmentProvider may be called at any
// time; a frame in flight uses the old or the new handle.
type Peer struct {
	ep transport.Endpoint
	// shared holds the objects this peer shares and serves fetches from;
	// nil on a node that only indexes (IndexServer, SuperPeer), which
	// provides nothing.
	shared *index.Store
	proto  string // the NodeMetrics label
	clk    dsim.Clock

	tracer  atomic.Pointer[trace.Tracer]
	nm      atomic.Pointer[NodeMetrics]
	attach  atomic.Pointer[AttachmentProvider]
	closed  atomic.Bool
	pending pendingTable
}

// discardNodeMetrics is what a node records into until SetMetrics: the
// discard registry hands every protocol the same write-only handles.
var discardNodeMetrics = NewNodeMetrics(metrics.Discard(), "")

// InitPeer attaches the runtime to ep with the defaults: wall clock, no
// tracer, discarded metrics. proto labels the node's
// telemetry ("centralized", "gnutella", "fasttrack", "dht").
func (p *Peer) InitPeer(ep transport.Endpoint, shared *index.Store, proto string) {
	p.ep, p.shared, p.proto = ep, shared, proto
	p.clk = dsim.Wall
	p.nm.Store(discardNodeMetrics)
}

// PeerID returns the node's network identity.
func (p *Peer) PeerID() transport.PeerID { return p.ep.ID() }

// SetMetrics points the node's telemetry at reg, labeled with its
// protocol; metrics are discarded until then.
func (p *Peer) SetMetrics(reg *metrics.Registry) { p.nm.Store(NewNodeMetrics(reg, p.proto)) }

// SetTracer installs the node's span recorder (nil, the default,
// disables tracing).
func (p *Peer) SetTracer(t *trace.Tracer) { p.tracer.Store(t) }

// SetClock installs the clock that paces the node's timeouts and ages
// its time-bounded state (default wall). Call before traffic starts.
func (p *Peer) SetClock(clk dsim.Clock) {
	if clk != nil {
		p.clk = clk
	}
}

// SetAttachmentProvider installs the resolver for local attachments.
func (p *Peer) SetAttachmentProvider(a AttachmentProvider) { p.attach.Store(&a) }

// Tracer returns the node's span recorder; nil (on which every trace
// method is a no-op) when tracing is off.
func (p *Peer) Tracer() *trace.Tracer { return p.tracer.Load() }

// NodeMetrics returns the node's telemetry handles.
func (p *Peer) NodeMetrics() *NodeMetrics { return p.nm.Load() }

// Clock returns the node's clock.
func (p *Peer) Clock() dsim.Clock { return p.clk }

// Shared returns the store of objects this peer shares (nil on a node
// that only indexes).
func (p *Peer) Shared() *index.Store { return p.shared }

// Close detaches the node from the network; a second call is a no-op.
func (p *Peer) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	return p.ep.Close()
}

// Closed reports whether Close was called.
func (p *Peer) Closed() bool { return p.closed.Load() }

// --- sending ---

// Send encodes f into borrowed scratch, sends it to a peer and hands
// the scratch back; see SendPayload.
func (p *Peer) Send(to transport.PeerID, msgType string, f codec.Frame, sp *trace.ActiveSpan) error {
	b := codec.Borrow(f)
	err := p.SendPayload(to, msgType, *b, sp)
	codec.Release(b)
	return err
}

// SendPayload sends one encoded frame on behalf of the span sp: the
// frame carries sp.Context() and is attributed to sp (nil for untraced
// traffic). The transport is done with payload when SendPayload
// returns, so a frame sent to several peers is borrowed once
// (codec.Borrow), handed to SendPayload for each, and released after
// the last.
func (p *Peer) SendPayload(to transport.PeerID, msgType string, payload []byte, sp *trace.ActiveSpan) error {
	sp.AddMsgs(1, int64(len(payload)))
	tc := sp.Context()
	return p.ep.Send(transport.Message{To: to, Type: msgType, Payload: payload,
		TraceID: tc.Trace, SpanID: tc.Span})
}

// StartSpan opens a handler span for an inbound frame. The handler's
// own sends on its behalf carry the span's context, or the inbound one
// when this node's tracer is off, so downstream hops still attribute to
// the nearest traced ancestor.
func (p *Peer) StartSpan(msg transport.Message, op string) trace.ActiveSpan {
	sp := p.Tracer().StartAt(trace.Context{Trace: msg.TraceID, Span: msg.SpanID}, op, transport.ChainOffset(p.ep))
	sp.SetPeer(string(msg.From))
	return sp
}

// --- request/response ---

// Request is a frame that opens a request/response exchange: it carries
// an id, assigned when it is sent, that the reply echoes. Every RPC of
// every protocol has this one shape, as in Kademlia.
type Request interface {
	codec.Frame
	SetReqID(id uint64)
}

// pendingTable matches replies to outstanding requests by id. Ids count
// locally per node, which keeps them deterministic per node per run (a
// requirement of golden-trace reproducibility, like the per-node GUID
// sources). Replies travel as decoded frames, not raw bytes: the
// receiving handler decodes once and resolves with the typed value, and
// the awaiter type-asserts — no payload is unmarshaled twice.
//
// An exchange allocates nothing: it borrows a slot, and a slot keeps its
// reply channel (capacity 1) for the node's lifetime. The table grows
// only to the most exchanges ever outstanding at once. A slot is free
// again once its awaiter has consumed the reply or abandoned the
// exchange, never earlier: Resolve claims an id under the lock and sends
// after it, so an awaiter that finds its id already claimed receives the
// reply in flight before it lets the slot go, and the next exchange on
// the slot never reads a stale reply. The zero value is an empty table.
type pendingTable struct {
	mu    sync.Mutex
	next  uint64
	slots []*pendingSlot // every slot, scanned by claim
	free  []*pendingSlot
}

// pendingSlot carries one exchange at a time. id is the awaited
// request's while its reply is unclaimed, 0 otherwise (ids start at 1).
// timer is the slot's wait deadline, made by the first Await that
// blocks and re-armed by every later one: only the exchange's awaiter
// touches it, so a blocking wait allocates nothing either.
type pendingSlot struct {
	id    uint64
	ch    chan any
	timer dsim.Timer
}

// create assigns the next request id to a free slot.
func (t *pendingTable) create() (uint64, *pendingSlot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s *pendingSlot
	if n := len(t.free); n > 0 {
		s, t.free = t.free[n-1], t.free[:n-1]
	} else {
		s = &pendingSlot{ch: make(chan any, 1)}
		t.slots = append(t.slots, s)
	}
	t.next++
	s.id = t.next
	return t.next, s
}

// claim takes an unclaimed id and returns its slot, nil when the id is
// unknown (never issued, abandoned, or already answered).
func (t *pendingTable) claim(id uint64) *pendingSlot {
	if id == 0 {
		return nil // a free slot's id: no request carries it
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.slots {
		if s.id == id {
			s.id = 0
			return s
		}
	}
	return nil
}

// release frees a slot whose reply its awaiter consumed.
func (t *pendingTable) release(s *pendingSlot) {
	t.mu.Lock()
	t.free = append(t.free, s)
	t.mu.Unlock()
}

// abandon ends an exchange whose reply did not come in time. An id still
// unclaimed is dropped, so a later reply finds nothing; a claimed one
// has its reply in flight, which abandon receives before it frees the
// slot and returns with ok set.
func (t *pendingTable) abandon(x Exchange) (reply any, ok bool) {
	t.mu.Lock()
	if x.slot.id == x.id {
		x.slot.id = 0
		t.free = append(t.free, x.slot)
		t.mu.Unlock()
		return nil, false
	}
	t.mu.Unlock()
	reply = <-x.slot.ch
	t.release(x.slot)
	return reply, true
}

// Exchange is a request that was sent and whose reply is outstanding.
type Exchange struct {
	id   uint64
	slot *pendingSlot
}

// StartCall sends req to a peer under a fresh request id and returns the
// exchange to Await. A lookup wave starts several before it awaits any;
// a single round trip is Call. sp is as in SendPayload. A failed send
// abandons the exchange.
func (p *Peer) StartCall(to transport.PeerID, msgType string, req Request, sp *trace.ActiveSpan) (Exchange, error) {
	id, s := p.pending.create()
	req.SetReqID(id)
	x := Exchange{id, s}
	if err := p.Send(to, msgType, req, sp); err != nil {
		p.pending.abandon(x)
		return Exchange{}, err
	}
	return x, nil
}

// Await waits for the exchange's reply, at most timeout (DefaultTimeout
// when it is not positive) on the node's clock, by the slot's re-armed
// timer; ErrTimeout abandons the exchange, and a reply that arrives
// later is dropped. It is the package's one wait: an RPC's, a lookup
// wave's, and a flood's, whose collection is an exchange resolved once
// its limit is met.
//
// The rule for a synchronous transport, the one place it is applied: the
// reply to a send, if any, was delivered before the send returned, so an
// empty channel is a definitive timeout and Await returns at once
// instead of waiting a wall-clock timeout out. That is what lets lossy
// simulations run 100k queries in seconds and keeps virtual clocks free
// of real waiting.
func (p *Peer) Await(x Exchange, timeout time.Duration) (any, error) {
	select {
	case reply := <-x.slot.ch:
		p.pending.release(x.slot)
		return reply, nil
	default:
	}
	if p.waits(x) {
		s := x.slot
		if s.timer == nil {
			s.timer = p.clk.NewTimer(waitLimit(timeout))
		} else {
			s.timer.Reset(waitLimit(timeout))
		}
		select {
		case reply := <-s.ch:
			s.timer.Stop() // before release: the next awaiter re-arms it
			p.pending.release(s)
			return reply, nil
		case <-s.timer.C():
		}
	}
	if reply, ok := p.pending.abandon(x); ok {
		return reply, nil // claimed as the timeout fired: it was in flight
	}
	return nil, ErrTimeout
}

// waits reports whether Await(x) blocks: on an asynchronous transport,
// while x's reply is not in. A handler that answers after an Await asks
// first, and waits off its goroutine if so.
func (p *Peer) waits(x Exchange) bool { return len(x.slot.ch) == 0 && !p.ep.Synchronous() }

// waitLimit is timeout, or DefaultTimeout when it is not positive.
func waitLimit(timeout time.Duration) time.Duration {
	if timeout <= 0 {
		return DefaultTimeout
	}
	return timeout
}

// Call is one round trip: send req, await the reply its receiver
// resolves. Every failure — the send, the timeout — is marked on sp and
// counted in the node's error family.
func (p *Peer) Call(to transport.PeerID, msgType string, req Request, sp *trace.ActiveSpan, timeout time.Duration) (any, error) {
	x, err := p.StartCall(to, msgType, req, sp)
	if err != nil {
		return nil, p.fail(sp, fmt.Errorf("p2p: %s: %w", msgType, err))
	}
	reply, err := p.Await(x, timeout)
	if err != nil {
		return nil, p.fail(sp, err)
	}
	return reply, nil
}

// fail marks err on sp, counts it in the node's error family, and
// returns it.
func (p *Peer) fail(sp *trace.ActiveSpan, err error) error {
	sp.SetErr(err)
	p.NodeMetrics().CountError(err)
	return err
}

// Resolve hands a decoded reply frame to the request it answers; late
// and unknown replies are dropped.
func (p *Peer) Resolve(id uint64, reply any) {
	if s := p.pending.claim(id); s != nil {
		s.ch <- reply // buffered, and emptied before the slot is reused
	}
}

// --- retrieval (§IV.C.2: download from the providing peer) ---

// Retrieve implements Network: direct peer-to-peer download, out of band
// from whatever overlay found the provider.
func (p *Peer) Retrieve(id index.DocID, from transport.PeerID) (*index.Document, error) {
	if from == p.PeerID() {
		return p.localDoc(id)
	}
	sp := p.Tracer().Root("fetch")
	sp.SetPeer(string(from))
	defer sp.Finish()
	got, err := p.Call(from, MsgFetch, &fetchPayload{DocID: id}, &sp, 0)
	if err != nil {
		return nil, err
	}
	if reply, ok := got.(*fetchReplyPayload); ok && reply.Found && reply.Doc != nil {
		p.NodeMetrics().Fetches.Inc()
		return reply.Doc.Document(), nil
	}
	return nil, p.fail(&sp, fmt.Errorf("%w: %s at %s", ErrNotProvided, id, from))
}

// RetrieveAttachment implements Network.
func (p *Peer) RetrieveAttachment(uri string, from transport.PeerID) ([]byte, error) {
	sp := p.Tracer().Root("attachment")
	sp.SetPeer(string(from))
	defer sp.Finish()
	got, err := p.Call(from, MsgAttachment, &attachmentPayload{URI: uri}, &sp, 0)
	if err != nil {
		return nil, err
	}
	if reply, ok := got.(*attachmentReplyPayload); ok && reply.Found {
		return reply.Data, nil
	}
	return nil, p.fail(&sp, fmt.Errorf("%w: attachment %s at %s", ErrNotProvided, uri, from))
}

// localDoc reads one of this peer's own shared objects.
func (p *Peer) localDoc(id index.DocID) (*index.Document, error) {
	if p.shared == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotProvided, id)
	}
	return p.shared.Get(id)
}

// Reannounce hands announce every object this peer shares, in DocID
// order: the one definition of "re-register everything I hold" behind
// leaf re-registration after super-peer failover (Rehome) and the DHT's
// republish on Refresh. The entries are the store's own: announce may
// keep them but must not modify them.
func (p *Peer) Reannounce(announce func(es []*index.Entry) error) error {
	return announce(p.shared.Search("", query.MatchAll{}, 0))
}

// HandleRetrieval serves the retrieval protocol, the same on every
// node: it answers fetch and attachment requests from the shared store
// and the attachment provider (a node with neither answers "not
// found"), and resolves their replies to the awaiting Retrieve. Any
// other message is ignored: a protocol's handle switch ends with it.
func (p *Peer) HandleRetrieval(msg transport.Message) {
	switch msg.Type {
	case MsgFetch:
		var req fetchPayload
		if req.DecodeBinary(msg.Payload) != nil {
			return
		}
		sp := p.StartSpan(msg, "fetch.serve")
		reply := fetchReplyPayload{ReqID: req.ReqID}
		if p.shared != nil {
			// The reply encodes the store's own entry.
			reply.Doc, reply.Found = p.shared.Entry(req.DocID)
		}
		if !reply.Found {
			sp.SetErr(fmt.Errorf("%w: %s", ErrNotProvided, req.DocID))
		}
		_ = p.Send(msg.From, MsgFetchReply, &reply, &sp) // a lost reply is the requester's timeout
		sp.Finish()
	case MsgAttachment:
		var req attachmentPayload
		if req.DecodeBinary(msg.Payload) != nil {
			return
		}
		sp := p.StartSpan(msg, "attachment.serve")
		reply := attachmentReplyPayload{ReqID: req.ReqID}
		if provider := p.attach.Load(); provider != nil && *provider != nil {
			if data, ok := (*provider)(req.URI); ok {
				reply.Found, reply.Data = true, data
			}
		}
		if !reply.Found {
			sp.SetErr(ErrNotProvided)
		}
		_ = p.Send(msg.From, MsgAttachmentReply, &reply, &sp) // as above
		sp.Finish()
	case MsgFetchReply:
		reply := new(fetchReplyPayload)
		if reply.DecodeBinary(msg.Payload) == nil {
			p.Resolve(reply.ReqID, reply)
		}
	case MsgAttachmentReply:
		reply := new(attachmentReplyPayload)
		if reply.DecodeBinary(msg.Payload) == nil {
			p.Resolve(reply.ReqID, reply)
		}
	}
}
