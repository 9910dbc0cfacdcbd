// Package transport provides message delivery between U-P2P peers.
//
// Two implementations share one interface: an in-memory simulated
// network (deterministic, instrumented with message/byte counters,
// latency model, drop and partition fault injection — the substrate
// for the paper-scale experiments) and a real TCP transport
// (length-prefixed binary frames, one write each — layout at TCPNode)
// proving the protocol code paths do not depend on the simulator.
package transport

import (
	"errors"
	"time"

	"repro/internal/errs"
)

// PeerID identifies a peer on the network.
type PeerID string

// Message is one protocol datagram. Payload encoding is the p2p
// layer's concern (internal/p2p/codec); transports carry the bytes as
// they are.
//
// Payload is borrowed on both sides. A sender's buffer is the
// transport's until Send returns, and no longer: TCP copies it into its
// frame before writing, the in-memory network delivers before Send
// returns. A receiver's is valid until its Handler returns: TCP then
// hands the buffer back for the next frame to be read into. A handler
// that keeps payload bytes must copy them (every codec decoder does).
//
// TraceID/SpanID carry the distributed-tracing context as header
// fields, deliberately outside Payload: the simulator's golden-trace
// hash folds only From/To/Type/Payload, so enabling tracing leaves it
// bit-identical. On a TCP frame each is a uvarint, one byte when zero.
// From and To do not travel per frame there: a connection names its
// dialer once, and To is whoever reads it.
type Message struct {
	From    PeerID
	To      PeerID
	Type    string
	Payload []byte
	TraceID uint64
	SpanID  uint64
}

// Handler consumes inbound messages. Handlers must not block
// indefinitely; they may call Send (transports guarantee this does not
// deadlock), relaying the inbound Payload itself if they like. The
// Payload is only lent for the call: a handler copies whatever of it
// outlives its return.
type Handler func(Message)

// Endpoint is one peer's attachment to a network.
type Endpoint interface {
	// ID returns the peer's identity on the network.
	ID() PeerID
	// Send delivers a message to another peer.
	Send(msg Message) error
	// SetHandler installs the inbound message handler. Must be called
	// before the first message arrives.
	SetHandler(Handler)
	// Synchronous reports whether Send returns only after the message
	// (and everything it transitively triggered) has been handled.
	// True for the in-memory network; false for TCP.
	Synchronous() bool
	// Close detaches the endpoint; subsequent sends to it fail.
	Close() error
}

// Common transport errors. Each carries a structured code
// ("transport.<name>") so the metrics registry's error counter family
// can classify failures; identity semantics (errors.Is against the
// sentinel, including through fmt.Errorf("%w: ...") wrapping) are
// unchanged from the errors.New originals.
var (
	ErrUnknownPeer error = errs.New("transport.unknown_peer", "transport: unknown peer")
	ErrClosed      error = errs.New("transport.closed", "transport: endpoint closed")
	ErrDropped     error = errs.New("transport.dropped", "transport: message dropped")
	ErrPartitioned error = errs.New("transport.partitioned", "transport: peers partitioned")
	// ErrBackpressure: a TCP peer did not drain its socket within the
	// write deadline; the frame is lost and the connection dropped.
	ErrBackpressure error = errs.New("transport.backpressure", "transport: peer not reading")
	// ErrMalformed: an inbound TCP connection sent bytes that are not
	// frames; it is closed, since a binary stream cannot resynchronise.
	ErrMalformed error = errs.New("transport.malformed", "transport: malformed frame")
)

// ChainOffset returns the cumulative virtual latency of the delivery
// chain currently being handled on ep, when the transport tracks one
// (the in-memory simulated network does; real transports return
// zero). Message handlers use it to timestamp trace spans at their
// true virtual arrival instant: the simulator's clock does not
// advance while a synchronous cascade runs, so without the offset
// every span in a flood would appear to start at the same instant.
func ChainOffset(ep Endpoint) time.Duration {
	if co, ok := ep.(interface{ ChainOffset() time.Duration }); ok {
		return co.ChainOffset()
	}
	return 0
}

// IsPeerDead reports whether a Send error definitively means the
// destination peer has left the network (its endpoint closed or was
// never attached), as opposed to transient conditions like loss or a
// partition. Overlay-maintenance code uses this to evict a contact on
// first failure instead of waiting out a liveness probe: the DHT's
// routing-table repair treats it as an authoritative death notice.
func IsPeerDead(err error) bool {
	return errors.Is(err, ErrUnknownPeer) || errors.Is(err, ErrClosed)
}
