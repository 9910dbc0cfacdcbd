package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestMemSendReceive(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	b.SetHandler(func(m Message) { got = m })
	if err := a.Send(Message{To: "b", Type: "ping", Payload: []byte("hi")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if got.From != "a" || got.Type != "ping" || string(got.Payload) != "hi" {
		t.Errorf("got = %+v", got)
	}
	if !a.Synchronous() {
		t.Error("mem endpoint not synchronous")
	}
}

func TestMemSynchronousCascade(t *testing.T) {
	// a->b triggers b->c inside b's handler; when a's Send returns, c
	// must already have handled the message.
	net := NewMemNetwork()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	c, _ := net.Endpoint("c")
	var reached bool
	c.SetHandler(func(Message) { reached = true })
	b.SetHandler(func(m Message) {
		_ = b.Send(Message{To: "c", Type: "fwd", Payload: m.Payload})
	})
	if err := a.Send(Message{To: "b", Type: "start"}); err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Error("cascade did not complete synchronously")
	}
}

func TestMemUnknownPeerAndClose(t *testing.T) {
	net := NewMemNetwork()
	a, _ := net.Endpoint("a")
	err := a.Send(Message{To: "ghost", Type: "x"})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("err = %v", err)
	}
	b, _ := net.Endpoint("b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(Message{To: "b", Type: "x"}); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("send to closed = %v", err)
	}
	if err := b.Send(Message{To: "a", Type: "x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("send from closed = %v", err)
	}
	// Re-attach after close is allowed.
	if _, err := net.Endpoint("b"); err != nil {
		t.Errorf("re-attach: %v", err)
	}
}

func TestMemDuplicateAttach(t *testing.T) {
	net := NewMemNetwork()
	if _, err := net.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("a"); err == nil {
		t.Error("duplicate attach succeeded")
	}
}

func TestMemStats(t *testing.T) {
	net := NewMemNetwork(WithLatencyModel(func(PeerID, PeerID) time.Duration { return 5 * time.Millisecond }))
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	b.SetHandler(func(Message) {})
	for i := 0; i < 3; i++ {
		if err := a.Send(Message{To: "b", Type: "query", Payload: []byte("1234")}); err != nil {
			t.Fatal(err)
		}
	}
	snap := net.reg.Snapshot()
	if m, by := snap.Counter("transport.msgs_delivered"), snap.Counter("transport.bytes_delivered"); m != 3 || by != 12 {
		t.Errorf("msgs=%d bytes=%d, want 3/12", m, by)
	}
	if q := snap.Label("transport.msgs_by_type", "query"); q != 3 {
		t.Errorf("per-type query = %d", q)
	}
	if lat := snap.Counter("transport.sim_latency_ns"); lat != int64(15*time.Millisecond) {
		t.Errorf("latency = %d", lat)
	}
	// Phase accounting is snapshot deltas, not resets.
	if d := net.reg.Snapshot().Delta(snap).Counter("transport.msgs_delivered"); d != 0 {
		t.Errorf("quiet-period delta = %d", d)
	}
}

func TestMemDropRateDeterministic(t *testing.T) {
	run := func() int64 {
		net := NewMemNetwork(WithSeed(42), WithDropRate(0.5))
		a, _ := net.Endpoint("a")
		b, _ := net.Endpoint("b")
		var received int64
		b.SetHandler(func(Message) { atomic.AddInt64(&received, 1) })
		for i := 0; i < 100; i++ {
			_ = a.Send(Message{To: "b", Type: "x"})
		}
		return received
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Errorf("non-deterministic drops: %d vs %d", r1, r2)
	}
	if r1 == 0 || r1 == 100 {
		t.Errorf("drop rate not applied: received %d/100", r1)
	}
}

func TestMemPartition(t *testing.T) {
	net := NewMemNetwork()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	b.SetHandler(func(Message) {})
	net.Partition("a", "b")
	if err := a.Send(Message{To: "b", Type: "x"}); !errors.Is(err, ErrPartitioned) {
		t.Errorf("partitioned send = %v", err)
	}
	net.Heal("a", "b")
	if err := a.Send(Message{To: "b", Type: "x"}); err != nil {
		t.Errorf("healed send = %v", err)
	}
}

func TestMemPeers(t *testing.T) {
	net := NewMemNetwork()
	for _, id := range []PeerID{"a", "b"} {
		if _, err := net.Endpoint(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(net.endpoints); got != 2 {
		t.Errorf("peers = %d", got)
	}
	if _, err := net.Endpoint("a"); err == nil {
		t.Error("a live ID attached twice")
	}
}

func TestMemConcurrentSends(t *testing.T) {
	net := NewMemNetwork()
	hub, _ := net.Endpoint("hub")
	var count int64
	hub.SetHandler(func(Message) { atomic.AddInt64(&count, 1) })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		ep, err := net.Endpoint(PeerID(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(e Endpoint) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = e.Send(Message{To: "hub", Type: "x"})
			}
		}(ep)
	}
	wg.Wait()
	if count != 800 {
		t.Errorf("count = %d", count)
	}
}

func TestTCPSendReceive(t *testing.T) {
	n1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	got := make(chan Message, 1)
	n2.SetHandler(func(m Message) { got <- m })
	if err := n1.Send(Message{To: n2.ID(), Type: "query", Payload: []byte(`{"q":1}`)}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case m := <-got:
		if m.From != n1.ID() || m.Type != "query" {
			t.Errorf("got = %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for message")
	}
	if n1.Synchronous() {
		t.Error("tcp reports synchronous")
	}
}

func TestTCPBidirectional(t *testing.T) {
	n1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	pong := make(chan struct{}, 1)
	n2.SetHandler(func(m Message) {
		if m.Type == "ping" {
			_ = n2.Send(Message{To: m.From, Type: "pong"})
		}
	})
	n1.SetHandler(func(m Message) {
		if m.Type == "pong" {
			pong <- struct{}{}
		}
	})
	if err := n1.Send(Message{To: n2.ID(), Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pong:
	case <-time.After(2 * time.Second):
		t.Fatal("no pong")
	}
}

func TestTCPManyMessages(t *testing.T) {
	n1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	var count int64
	done := make(chan struct{}, 1)
	const total = 500
	n2.SetHandler(func(Message) {
		if atomic.AddInt64(&count, 1) == total {
			done <- struct{}{}
		}
	})
	for i := 0; i < total; i++ {
		if err := n1.Send(Message{To: n2.ID(), Type: "x", Payload: []byte("payload")}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/%d arrived", atomic.LoadInt64(&count), total)
	}
}

func TestTCPSendToDeadPeer(t *testing.T) {
	n1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	reg := metrics.NewRegistry()
	n1.SetMetrics(reg)
	// Nothing listens on port 1: connection refused is the socket
	// world's authoritative death notice, like the simulator's
	// ErrUnknownPeer, and what the DHT evicts a contact on.
	err = n1.Send(Message{To: "127.0.0.1:1", Type: "x"})
	if !IsPeerDead(err) || !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("send to dead address = %v, want a peer-dead error", err)
	}
	if got := reg.Snapshot().Label(metrics.ErrorsVecName, "transport.unknown_peer"); got != 1 {
		t.Errorf("errors{code=transport.unknown_peer} = %d, want 1", got)
	}
	// A peer that dies after it was dialed: its hang-up retires the
	// cached connection, so a send soon dials again and gets the same
	// verdict rather than feeding a socket nobody reads. (The sends
	// before that may succeed into the void: TCP cannot tell.)
	n2, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Send(Message{To: n2.ID(), Type: "x"}); err != nil {
		t.Fatal(err)
	}
	n2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for err = nil; !IsPeerDead(err); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("sends to a closed peer never reported it dead, last error: %v", err)
		}
		err = n1.Send(Message{To: n2.ID(), Type: "x"})
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	n, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := n.Send(Message{To: "127.0.0.1:1", Type: "x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v", err)
	}
}

// TestMemDeliveryZeroAlloc pins the MemNetwork hot path: with trace
// hashing, per-peer load counting, a latency model, and metrics all
// enabled, a delivered message must not allocate. This is the floor
// the 10k-peer scale ladder stands on — at millions of deliveries per
// run, one allocation per message is GC-bound, zero is CPU-bound.
func TestMemDeliveryZeroAlloc(t *testing.T) {
	n := NewMemNetwork(
		WithTrace(),
		WithPeerLoad(),
		WithLatencyModel(func(PeerID, PeerID) time.Duration { return 5 * time.Millisecond }),
	)
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	b.SetHandler(func(Message) {})
	msg := Message{To: "b", Type: "query", Payload: []byte("filter=(k=v)")}
	// Warm: first delivery creates the per-type counter and the
	// peer-load map entry.
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(500, func() {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Fatalf("delivery allocs/op = %v, want 0", got)
	}
	if n.TraceHash() == 0 || n.TraceLen() == 0 {
		t.Fatal("trace hashing was not active during the pin")
	}
}
