package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/p2p/codec"
)

const (
	// maxFrame bounds one frame body (16 MiB) on both sides: Send
	// refuses a larger message before touching the socket, and a
	// reader closes the connection that announces one.
	maxFrame = 16 << 20
	// frameStep is the most a reader allocates ahead of the bytes that
	// have actually arrived, whatever the length prefix claims.
	frameStep = 256 << 10
	// maxPeerID bounds the sender address in a connection's hello.
	maxPeerID = 512
	// maxWireTypes bounds the wire-type strings a reader remembers per
	// connection; the protocols use about a dozen.
	maxWireTypes = 32
	// maxInbound bounds the connections a node reads at once, hello or
	// not; one more is closed at accept. A deployment holds one per
	// peer that sends to the node (tcp-dht-search: 23 per node).
	maxInbound = 1024
	// wireMagic opens a connection's hello frame: four magic bytes and
	// the version of the framing.
	wireMagic = "UP2P\x01"

	// dialTimeout bounds connecting to a peer and, on the accepting
	// side, reading the hello that opens a connection; writeTimeout
	// bounds one frame's Write (plus 1 µs per byte, a 1 MB/s floor, so
	// the largest frame still fits through a slow link). A peer that
	// stays behind any of them is treated as gone, not waited for.
	dialTimeout  = 3 * time.Second
	writeTimeout = 5 * time.Second
)

// TCPNode is a peer endpoint over real TCP. A node dials one
// connection per destination and only writes to it (a parked read
// notices the peer hanging up); what it accepts it only reads.
// Everything on a connection is a frame — a 4-byte big-endian body
// length, then the body:
//
//	hello    "UP2P" | version 0x01 | uvarint len + From
//	message  uvarint len + Type | uvarint TraceID | uvarint SpanID | Payload
//
// The hello is the first frame of a connection and names the dialer
// once; every later frame is one Message whose payload is the raw rest
// of the body (no length of its own, no re-encoding), From is the
// hello's and To the receiving node. A frame is assembled in a pooled
// buffer and leaves in one Write, under a lock that belongs to its
// connection, so frames of one (from, to) pair arrive in Send order
// and a peer that stops draining its socket stalls nobody else. Send
// is synchronous: a dial or write failure is the caller's error.
//
// A connection's reader goroutine waits for the socket to turn
// readable holding no buffer; then it borrows one from the same pool,
// reads whatever has arrived in one read, and hands each whole frame
// in it to the handler as a view of that buffer, so the payload is the
// handler's to read, not to keep (see Message). The buffer goes back
// once the bytes read are all handled, so an idle connection that said
// hello costs ~0.8 KB of heap, both ends counted, beside its reader's
// stack (TestTCPIdleConnectionHeap). A node reads at most maxInbound
// connections at once and closes the rest at accept. A binary stream
// cannot resynchronise, so a reader that meets a bad hello, an
// oversized length or an undecodable header counts ErrMalformed and
// closes the connection.
//
// Peer addressing: TCP has no directory, so peers are identified by
// their listen address ("host:port") — PeerID and dial address
// coincide.
type TCPNode struct {
	ln      net.Listener
	id      PeerID
	hello   []byte // this node's hello frame, written once per dialed connection
	handler atomic.Pointer[Handler]
	m       atomic.Pointer[tcpMetrics]

	mu      sync.Mutex // guards the tables below; never held across I/O or a handler
	conns   map[PeerID]*outConn
	inbound map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
}

type tcpMetrics struct {
	reg                                       *metrics.Registry
	sent, sentB, received, receivedB, refused *metrics.Counter
}

// outConn is a dialed connection; mu admits one frame at a time.
type outConn struct {
	net.Conn
	mu sync.Mutex
}

var _ Endpoint = (*TCPNode)(nil)

// ListenTCP starts a node on addr (use "127.0.0.1:0" for an ephemeral
// port; the assigned address becomes the node's PeerID).
func ListenTCP(addr string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	n := &TCPNode{
		ln:      ln,
		id:      PeerID(ln.Addr().String()),
		conns:   make(map[PeerID]*outConn),
		inbound: make(map[net.Conn]struct{}),
	}
	n.hello = codec.AppendString(append(make([]byte, 4), wireMagic...), string(n.id))
	binary.BigEndian.PutUint32(n.hello, uint32(len(n.hello)-4))
	n.SetMetrics(metrics.Discard())
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// SetMetrics points the node's traffic accounting at reg; metrics are
// discarded until then. transport.tcp_msgs_sent/received count message
// frames, transport.tcp_bytes_sent/received their body bytes and
// transport.tcp_accept_refused the connections closed at accept
// (maxInbound); the gauges transport.tcp_conns_inbound/outbound read
// the connections open now, summed over the nodes that share reg.
func (n *TCPNode) SetMetrics(reg *metrics.Registry) {
	n.m.Store(&tcpMetrics{
		reg:       reg,
		sent:      reg.Counter("transport.tcp_msgs_sent"),
		sentB:     reg.Counter("transport.tcp_bytes_sent"),
		received:  reg.Counter("transport.tcp_msgs_received"),
		receivedB: reg.Counter("transport.tcp_bytes_received"),
		refused:   reg.Counter("transport.tcp_accept_refused"),
	})
	reg.GaugeFunc("transport.tcp_conns_inbound", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return int64(len(n.inbound))
	})
	reg.GaugeFunc("transport.tcp_conns_outbound", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return int64(len(n.conns))
	})
}

// ID implements Endpoint.
func (n *TCPNode) ID() PeerID { return n.id }

// Synchronous implements Endpoint: TCP delivery is asynchronous.
func (n *TCPNode) Synchronous() bool { return false }

// SetHandler implements Endpoint.
func (n *TCPNode) SetHandler(h Handler) { n.handler.Store(&h) }

// frameBufs pools the buffers Send assembles frames in and readers
// read frames into.
var frameBufs = codec.NewBufPool(4096)

// Send implements Endpoint. The destination PeerID is its TCP address.
func (n *TCPNode) Send(msg Message) error {
	bp := frameBufs.Get()
	frame, err := appendFrame(*bp, msg)
	if err == nil {
		err = n.write(msg.To, frame)
	}
	*bp = frame
	frameBufs.Put(bp)
	if err != nil && !errors.Is(err, ErrClosed) { // this node shutting down is no fault
		n.m.Load().reg.CountError(err)
	}
	return err
}

// appendFrame appends msg as one message frame, length prefix
// included; dst comes back unchanged with the error for a message
// over maxFrame.
func appendFrame(dst []byte, msg Message) ([]byte, error) {
	start := len(dst)
	b := append(dst, 0, 0, 0, 0)
	b = codec.AppendString(b, msg.Type)
	b = codec.AppendUvarint(b, msg.TraceID)
	b = codec.AppendUvarint(b, msg.SpanID)
	size := len(b) - start - 4 + len(msg.Payload)
	if size > maxFrame {
		return dst, fmt.Errorf("transport: frame too large (%d bytes)", size)
	}
	b = append(b, msg.Payload...)
	binary.BigEndian.PutUint32(b[start:], uint32(size))
	return b, nil
}

// write sends one assembled frame to a peer, dialing it if need be.
func (n *TCPNode) write(to PeerID, frame []byte) error {
	c, err := n.conn(to)
	if err != nil {
		return err
	}
	c.mu.Lock()
	// A failed SetWriteDeadline means a closed connection; Write reports that.
	_ = c.SetWriteDeadline(time.Now().Add(writeTimeout + time.Duration(len(frame))*time.Microsecond))
	_, err = c.Write(frame)
	c.mu.Unlock()
	if err != nil {
		// Part of the frame may be out: the stream is unusable.
		n.drop(to, c)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return fmt.Errorf("%w: write to %s: %w", ErrBackpressure, to, err)
		}
		return fmt.Errorf("%w: write to %s: %w", ErrDropped, to, err)
	}
	m := n.m.Load()
	m.sent.Inc()
	m.sentB.Add(int64(len(frame) - 4))
	return nil
}

// conn returns the cached connection to a peer or dials a fresh one.
func (n *TCPNode) conn(to PeerID) (*outConn, error) {
	n.mu.Lock()
	c, closed := n.conns[to], n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if c != nil {
		return c, nil
	}
	nc, err := n.dial(to)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		nc.Close()
		return nil, ErrClosed
	}
	if c := n.conns[to]; c != nil { // lost a race with another Send
		nc.Close()
		return c, nil
	}
	c = &outConn{Conn: nc}
	// The address may be a slice of a decoded frame (a search result's
	// provider): the table keeps its own copy, not the frame.
	to = PeerID(strings.Clone(string(to)))
	n.conns[to] = c
	n.wg.Add(1)
	go n.watch(to, c)
	return c, nil
}

// watch parks on a dialed connection until the peer closes or resets
// it — nothing else ever arrives on one — and forgets it. A write to a
// connection the peer has left still succeeds once, silently; with the
// connection gone the next Send dials instead and learns at once that
// nobody listens (IsPeerDead).
func (n *TCPNode) watch(to PeerID, c *outConn) {
	defer n.wg.Done()
	var b [1]byte
	_, _ = c.Read(b[:]) // EOF, a reset, or a peer talking out of turn: all end the connection
	n.drop(to, c)
}

// dial connects to a peer and introduces this node. Nobody listening
// at the address is the one failure that says the peer has left
// (IsPeerDead); the rest may be passing.
func (n *TCPNode) dial(to PeerID) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", string(to), dialTimeout)
	if errors.Is(err, syscall.ECONNREFUSED) {
		return nil, fmt.Errorf("%w: dial %s: %w", ErrUnknownPeer, to, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %w", ErrDropped, to, err)
	}
	_ = c.SetWriteDeadline(time.Now().Add(writeTimeout)) // cannot fail on a fresh connection
	if _, err := c.Write(n.hello); err != nil {
		c.Close()
		return nil, fmt.Errorf("%w: hello to %s: %w", ErrDropped, to, err)
	}
	return c, nil
}

// drop closes a dialed connection and forgets it, unless a newer one
// has taken its place.
func (n *TCPNode) drop(to PeerID, c *outConn) {
	c.Close()
	n.mu.Lock()
	if n.conns[to] == c {
		delete(n.conns, to)
	}
	n.mu.Unlock()
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		if len(n.inbound) >= maxInbound {
			n.mu.Unlock()
			conn.Close()
			n.m.Load().refused.Inc()
			continue
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	fr := newFrameReader(conn, n.id)
	// A connection gets dialTimeout to say hello, as a dial gets to
	// connect; once it has, its frames may be as far apart as they like.
	err := conn.SetReadDeadline(time.Now().Add(dialTimeout))
	if err == nil {
		err = fr.readHello()
	}
	if err == nil {
		err = conn.SetReadDeadline(time.Time{})
	}
	for err == nil {
		var msg Message
		var size int
		if msg, size, err = fr.next(); err == nil {
			m := n.m.Load()
			m.received.Inc()
			m.receivedB.Add(int64(size))
			if h := n.handler.Load(); h != nil && *h != nil {
				(*h)(msg)
			}
		}
	}
	fr.release()
	if errors.Is(err, ErrMalformed) { // anything else is the connection ending
		n.m.Load().reg.CountError(err)
	}
}

// frameReader decodes one inbound connection: the hello, then message
// frames until the stream ends or stops making sense. Errors that
// wrap ErrMalformed are the peer's doing; all others are the
// underlying reader's.
//
// Frames are sliced out of a window, (*bp)[off:end], of a buffer
// borrowed from frameBufs only while bytes flow: one read can carry
// several frames, and the buffer goes back as soon as the window
// drains at a frame boundary. On a socket the reader then waits for
// the next bytes through raw, holding no buffer (park); elsewhere it
// borrows one and blocks in r.Read.
type frameReader struct {
	r     io.Reader
	raw   syscall.RawConn       // r's socket, where one can wait for readiness; nil otherwise
	ready func(fd uintptr) bool // fr.readReady, bound once: a closure passed to raw.Read escapes
	rerr  error                 // how the last readiness read ended
	bp    *[]byte               // the borrowed buffer, full length; nil while parked
	off   int                   // start of the unread bytes
	end   int                   // end of the bytes read
	to    PeerID
	from  PeerID
	types map[string]string // wire types seen, so a frame reuses the string
}

func newFrameReader(r io.Reader, to PeerID) *frameReader {
	fr := &frameReader{r: r, to: to}
	fr.watchReadiness()
	return fr
}

// body slices one length-prefixed frame body of at most limit bytes
// out of the window; it is valid until the next call. A body the
// buffer holds is a view, copied nowhere; a larger one grows the
// buffer as its bytes arrive, to min(size, frameStep) and then
// doubling, so a prefix that lies costs frameStep at most.
func (fr *frameReader) body(limit int) ([]byte, error) {
	if fr.off == fr.end {
		fr.release() // the last body is done with: park holding nothing
	}
	if err := fr.fill(4); err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32((*fr.bp)[fr.off:]))
	if size > limit {
		return nil, fmt.Errorf("%w: %d-byte frame from %q, limit %d", ErrMalformed, size, fr.from, limit)
	}
	fr.off += 4
	if err := fr.fill(size); err != nil {
		return nil, err
	}
	// Filling may have moved the window: slice the buffer only now.
	start := fr.off
	fr.off += size
	return (*fr.bp)[start:fr.off:fr.off], nil
}

// fill reads until the window holds need bytes. A reader with no
// buffer parks first; then a window whose buffer is full moves its
// bytes to the front, or into a larger buffer when need outgrows this
// one, and the rest comes by plain reads.
func (fr *frameReader) fill(need int) error {
	for fr.end-fr.off < need {
		if fr.bp == nil {
			if err := fr.park(); err != nil {
				return err
			}
			continue
		}
		buf := *fr.bp
		if fr.end == len(buf) {
			have := fr.end - fr.off
			if size := min(need, max(frameStep, 2*have)); size > len(buf) {
				buf = make([]byte, size)
				copy(buf, (*fr.bp)[fr.off:fr.end])
				*fr.bp = buf
			} else {
				copy(buf, buf[fr.off:fr.end])
			}
			fr.off, fr.end = 0, have
		}
		n, err := fr.r.Read(buf[fr.end:])
		fr.end += n
		if err != nil && fr.end-fr.off < need {
			if err == io.EOF && fr.end > fr.off {
				err = io.ErrUnexpectedEOF // cut mid-frame
			}
			return err
		}
	}
	return nil
}

// park waits for the next bytes holding no buffer. On a socket the
// wait is for readiness, and readReady borrows a buffer and reads
// whatever has arrived in one read; elsewhere the reader borrows a
// buffer and fill blocks in a plain read.
func (fr *frameReader) park() error {
	if fr.raw == nil {
		fr.borrow()
		return nil
	}
	fr.rerr = nil
	if err := fr.raw.Read(fr.ready); err != nil {
		return err
	}
	return fr.rerr
}

// borrow takes an empty window on a pooled buffer.
func (fr *frameReader) borrow() {
	fr.bp = frameBufs.Get()
	*fr.bp = (*fr.bp)[:cap(*fr.bp)]
	fr.off, fr.end = 0, 0
}

// release hands the borrowed buffer back, if any; the window is empty
// after, and what was sliced from it is no longer valid.
func (fr *frameReader) release() {
	if fr.bp != nil {
		frameBufs.Put(fr.bp)
		fr.bp, fr.off, fr.end = nil, 0, 0
	}
}

// readHello reads the connection's first frame and learns the sender.
func (fr *frameReader) readHello() error {
	body, err := fr.body(len(wireMagic) + binary.MaxVarintLen16 + maxPeerID)
	if err != nil {
		return err
	}
	if len(body) < len(wireMagic) || string(body[:len(wireMagic)]) != wireMagic {
		return fmt.Errorf("%w: hello does not open with %q", ErrMalformed, wireMagic)
	}
	rd := codec.NewReader(body[len(wireMagic):])
	from := rd.String()
	if rd.Err() != nil || from == "" || len(rd.Rest()) != 0 {
		return fmt.Errorf("%w: hello names no sender", ErrMalformed)
	}
	fr.from = PeerID(from)
	return nil
}

// next reads one message frame and reports its body size. Payload
// aliases the frame's borrowed buffer, valid until the next call.
func (fr *frameReader) next() (Message, int, error) {
	body, err := fr.body(maxFrame)
	if err != nil {
		return Message{}, 0, err
	}
	rd := codec.NewReader(body)
	msg := Message{From: fr.from, To: fr.to}
	typ := rd.View()
	msg.TraceID = rd.Uvarint()
	msg.SpanID = rd.Uvarint()
	if payload := rd.Rest(); len(payload) > 0 {
		msg.Payload = payload
	}
	if err := rd.Err(); err != nil {
		return Message{}, 0, fmt.Errorf("%w: header from %q: %v", ErrMalformed, fr.from, err)
	}
	s, ok := fr.types[string(typ)]
	if !ok {
		s = string(typ)
		if fr.types == nil { // made at the first message: a connection that only said hello costs no map
			fr.types = make(map[string]string)
		}
		if len(fr.types) < maxWireTypes {
			fr.types[s] = s
		}
	}
	msg.Type = s
	return msg, len(body), nil
}

// Close implements Endpoint: stops accepting, closes all connections,
// and waits for reader goroutines to exit.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	for id, c := range n.conns {
		c.Close()
		delete(n.conns, id)
	}
	for c := range n.inbound {
		c.Close()
	}
	n.mu.Unlock()
	err := n.ln.Close()
	n.wg.Wait()
	return err
}
