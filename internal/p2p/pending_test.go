package p2p

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/p2p/codec"
	"repro/internal/transport"
)

// heldEndpoint is an asynchronous endpoint that delivers nothing: the
// test resolves each reply itself, when and from where it chooses.
type heldEndpoint struct{}

func (heldEndpoint) ID() transport.PeerID         { return "a" }
func (heldEndpoint) Send(transport.Message) error { return nil }
func (heldEndpoint) SetHandler(transport.Handler) {}
func (heldEndpoint) Synchronous() bool            { return false }
func (heldEndpoint) Close() error                 { return nil }

// TestLateReplyNotMisdelivered: an exchange that timed out gives its slot
// to the next one, and the timed-out request's late reply never reaches
// the new exchange; a reply already claimed when the timeout fires is
// received before the slot is reused.
func TestLateReplyNotMisdelivered(t *testing.T) {
	var p Peer
	p.InitPeer(heldEndpoint{}, nil, "test")
	start := func() Exchange {
		t.Helper()
		x, err := p.StartCall("b", MsgFetch, &fetchPayload{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	a := start()
	if _, err := p.Await(a, time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("A: err = %v, want a timeout", err)
	}
	b := start()
	if b.slot != a.slot {
		t.Fatal("B did not reuse the slot A abandoned")
	}
	// A's reply arrives, from another goroutine, while B awaits.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Resolve(a.id, "reply to A")
	}()
	if got, err := p.Await(b, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("B: got %v, %v; want a timeout, never A's reply", got, err)
	}
	wg.Wait()
	c := start()
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Resolve(a.id, "reply to A")
		p.Resolve(c.id, "reply to C")
	}()
	if got, err := p.Await(c, time.Second); err != nil || got != "reply to C" {
		t.Fatalf("C: got %v, %v; want its own reply", got, err)
	}
	wg.Wait()
	// The race Resolve leaves open: the id is claimed under the lock and
	// the reply sent after it, so the timeout finds the id taken while
	// the reply is still in flight.
	d := start()
	s := p.pending.claim(d.id)
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		s.ch <- "reply to D"
	}()
	if got, err := p.Await(d, time.Millisecond); err != nil || got != "reply to D" {
		t.Fatalf("D: got %v, %v; want the reply in flight", got, err)
	}
	wg.Wait()
	e := start()
	if e.slot != d.slot {
		t.Fatal("E did not reuse D's slot")
	}
	if got, err := p.Await(e, time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("E: got %v, %v; want a timeout, never D's reply", got, err)
	}
	if n := p.PendingRequests(); n != 0 {
		t.Fatalf("%d exchanges still pending", n)
	}
	if n := len(p.pending.slots); n != 1 {
		t.Fatalf("%d slots for one exchange at a time, want 1", n)
	}
}

// TestCallAllocatesNothing: a round trip over MemNetwork whose reply is
// resolved with a ready value allocates nothing, so the pending table
// adds no allocation to an RPC.
func TestCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var p Peer
	p.InitPeer(ep, nil, "test")
	reply := &fetchReplyPayload{}
	dst.SetHandler(func(m transport.Message) {
		var req fetchPayload
		if req.DecodeBinary(m.Payload) == nil {
			p.Resolve(req.ReqID, reply)
		}
	})
	req := &fetchPayload{}
	call := func() {
		if got, err := p.Call("b", MsgFetch, req, nil, 0); err != nil || got != reply {
			t.Fatalf("call: got %v, %v", got, err)
		}
	}
	call() // creates the per-type delivery counter and the first slot
	if allocs := testing.AllocsPerRun(500, call); allocs != 0 {
		t.Fatalf("Call allocs = %v, want 0", allocs)
	}
}

// tcpCallPair is a Peer on loopback TCP and the ID of a second endpoint
// whose handler is serve. The peer resolves every reply by its request
// id (its leading uvarint) with reply, decoding nothing.
func tcpCallPair(t *testing.T, reply any, serve func(srv *transport.TCPNode, m transport.Message)) (*Peer, transport.PeerID) {
	t.Helper()
	listen := func() *transport.TCPNode {
		n, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	ep, srv := listen(), listen()
	p := new(Peer)
	p.InitPeer(ep, nil, "test")
	ep.SetHandler(func(m transport.Message) {
		if id, err := codec.PeekUint(m.Payload); err == nil {
			p.Resolve(id, reply)
		}
	})
	srv.SetHandler(func(m transport.Message) { serve(srv, m) })
	return p, srv.ID()
}

// echo answers a request with its own payload: the reply's leading
// uvarint is the request id, all the caller reads.
func echo(srv *transport.TCPNode, m transport.Message) error {
	return srv.Send(transport.Message{To: m.From, Type: MsgFetchReply, Payload: m.Payload})
}

// TestTCPCallAfterTimeout: over TCP a Call that times out leaves its
// slot's timer fired, and the next Call on the slot re-arms it. That
// Call's reply comes well after the first Call's timeout would have
// fired again, and it gets it: no stale tick ends its wait early, and
// the first request's late reply is not taken for it.
func TestTCPCallAfterTimeout(t *testing.T) {
	reply := &fetchReplyPayload{}
	var late sync.WaitGroup
	calls := 0 // one reader goroutine serves the connection
	p, to := tcpCallPair(t, reply, func(srv *transport.TCPNode, m transport.Message) {
		if calls++; calls == 1 {
			// The first reply is late: it arrives while the second Call waits.
			payload := append([]byte(nil), m.Payload...)
			late.Add(1)
			go func() {
				defer late.Done()
				time.Sleep(40 * time.Millisecond)
				if err := srv.Send(transport.Message{To: m.From, Type: MsgFetchReply, Payload: payload}); err != nil {
					t.Error(err)
				}
			}()
			return
		}
		time.Sleep(80 * time.Millisecond)
		if err := echo(srv, m); err != nil {
			t.Error(err)
		}
	})
	defer late.Wait()
	req := &fetchPayload{}
	if _, err := p.Call(to, MsgFetch, req, nil, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first call: err = %v, want a timeout", err)
	}
	start := time.Now()
	got, err := p.Call(to, MsgFetch, req, nil, time.Second)
	if err != nil || got != reply {
		t.Fatalf("second call: got %v, %v after %v; want its reply", got, err, time.Since(start))
	}
	if req.ReqID != 2 {
		t.Fatalf("second call's request id = %d, want 2", req.ReqID)
	}
	if n := len(p.pending.slots); n != 1 {
		t.Fatalf("%d slots for one exchange at a time, want 1", n)
	}
}

// TestTCPCallAllocatesNothing: after a warm-up Call has dialed and made
// the slot's timer, a Call over loopback TCP whose reply is resolved
// with a ready value allocates nothing: the wait re-arms the slot's
// timer instead of making one.
func TestTCPCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	reply := &fetchReplyPayload{}
	p, to := tcpCallPair(t, reply, func(srv *transport.TCPNode, m transport.Message) {
		if err := echo(srv, m); err != nil {
			t.Error(err)
		}
	})
	req := &fetchPayload{}
	call := func() {
		if got, err := p.Call(to, MsgFetch, req, nil, time.Second); err != nil || got != reply {
			t.Fatalf("call: got %v, %v", got, err)
		}
	}
	call() // dials, says hello, teaches both readers the type strings, makes the timer
	if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
		t.Fatalf("a TCP Call allocates %v times, want 0", allocs)
	}
}
