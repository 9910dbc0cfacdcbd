package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/errs"
	"repro/internal/metrics"
)

// listenTCP starts a loopback node that closes with the test.
func listenTCP(t testing.TB) *TCPNode {
	t.Helper()
	n, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// kept is m as a handler must keep it: the payload is only lent for
// the call (Message), so this copies it.
func kept(m Message) Message {
	m.Payload = bytes.Clone(m.Payload)
	return m
}

// recv waits for one message on ch.
func recv(t testing.TB, ch <-chan Message) Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for message")
		return Message{}
	}
}

// TestTCPRoundTripFields: every Message field survives the envelope —
// trace context, an empty payload, a body of exactly maxFrame — and one
// byte more is refused before any socket is touched.
func TestTCPRoundTripFields(t *testing.T) {
	a, b := listenTCP(t), listenTCP(t)
	regA, regB := metrics.NewRegistry(), metrics.NewRegistry()
	a.SetMetrics(regA)
	b.SetMetrics(regB)
	got := make(chan Message, 1)
	b.SetHandler(func(m Message) { got <- kept(m) })

	header := len(appendFrameOK(t, Message{Type: "bulk"})) - 4
	full := make([]byte, maxFrame-header)
	full[0], full[len(full)-1] = 0xA5, 0x5A
	for _, want := range []Message{
		{Type: "query", Payload: []byte("filter=(k=v)")},
		{Type: "query", Payload: []byte{0}, TraceID: 1<<63 + 7, SpanID: 42},
		{Type: "ping"},
		{Type: "", Payload: []byte("typeless")},
		{Type: "bulk", Payload: full},
	} {
		want.To = b.ID()
		if err := a.Send(want); err != nil {
			t.Fatalf("send %q (%d bytes): %v", want.Type, len(want.Payload), err)
		}
		m := recv(t, got)
		want.From = a.ID()
		if m.From != want.From || m.To != want.To || m.Type != want.Type ||
			m.TraceID != want.TraceID || m.SpanID != want.SpanID || !bytes.Equal(m.Payload, want.Payload) {
			t.Errorf("sent %q trace=%d span=%d %d bytes, got %q from=%q to=%q trace=%d span=%d %d bytes",
				want.Type, want.TraceID, want.SpanID, len(want.Payload),
				m.Type, m.From, m.To, m.TraceID, m.SpanID, len(m.Payload))
		}
	}

	// One byte over the cap, to an address never dialed: the size
	// error comes back, not a dial error, and no connection appears.
	err := a.Send(Message{To: "127.0.0.1:1", Type: "bulk", Payload: make([]byte, len(full)+1)})
	if err == nil || !strings.Contains(err.Error(), "frame too large") {
		t.Errorf("oversize send = %v, want frame too large", err)
	}
	a.mu.Lock()
	dialed := len(a.conns)
	a.mu.Unlock()
	if dialed != 1 {
		t.Errorf("%d outbound connections after the oversize send, want only the one to b", dialed)
	}
	// The connection gauges read the same tables: a dialed b, b reads it.
	for _, g := range []struct {
		reg  *metrics.Registry
		name string
		want int64
	}{
		{regA, "transport.tcp_conns_outbound", 1},
		{regA, "transport.tcp_conns_inbound", 0},
		{regB, "transport.tcp_conns_outbound", 0},
		{regB, "transport.tcp_conns_inbound", 1},
	} {
		if v := g.reg.Snapshot().Gauges[g.name]; v != g.want {
			t.Errorf("%s = %d, want %d", g.name, v, g.want)
		}
	}
}

func appendFrameOK(t testing.TB, msg Message) []byte {
	t.Helper()
	b, err := appendFrame(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTCPConcurrentSendsKeepOrder: goroutines that start sending to a
// peer nobody has dialed yet race for the connection, and all end up on
// one: every frame arrives whole, and each sender's frames arrive in
// the order it sent them — the per-(from, to) FIFO the protocols and
// the ruler's traced wrapper rely on.
func TestTCPConcurrentSendsKeepOrder(t *testing.T) {
	const senders, each = 8, 200
	a, b := listenTCP(t), listenTCP(t)
	var mu sync.Mutex
	next := make(map[string]uint32)
	bad := 0
	done := make(chan struct{})
	b.SetHandler(func(m Message) {
		mu.Lock()
		defer mu.Unlock()
		seq := binary.BigEndian.Uint32(m.Payload)
		if seq != next[m.Type] || len(m.Payload) != 4+int(seq) {
			bad++
		}
		next[m.Type] = seq + 1
		if seq == each-1 && len(next) == senders {
			finished := true
			for _, n := range next {
				finished = finished && n == each
			}
			if finished {
				close(done)
			}
		}
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for seq := uint32(0); seq < each; seq++ {
				payload := binary.BigEndian.AppendUint32(nil, seq)
				payload = append(payload, make([]byte, seq)...) // frames of every size interleave
				if err := a.Send(Message{To: b.ID(), Type: name, Payload: payload}); err != nil {
					t.Errorf("%s send %d: %v", name, seq, err)
					return
				}
			}
		}(fmt.Sprintf("sender-%d", s))
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("not every frame arrived")
	}
	mu.Lock()
	defer mu.Unlock()
	if bad != 0 {
		t.Errorf("%d frames arrived out of order or damaged", bad)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.conns) != 1 {
		t.Errorf("%d connections to one peer", len(a.conns))
	}
}

// helloFrame is the first frame a dialer calling itself from writes.
func helloFrame(from string) []byte {
	body := append([]byte(wireMagic), byte(len(from)))
	body = append(body, from...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// rawSend dials n, writes stream, half-closes, and returns once n has
// closed its side — so whatever n does with the bytes has happened.
func rawSend(t *testing.T, n *TCPNode, stream []byte) {
	t.Helper()
	c, err := net.Dial("tcp", string(n.ID()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(stream); err != nil {
		t.Fatal(err)
	}
	// The node may have hung up already, and closing on unread bytes
	// resets the connection: only running out of time is a failure.
	_ = c.(*net.TCPConn).CloseWrite()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, c); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("node did not close the connection: %v", err)
	}
}

// TestTCPSilentHelloTimesOut: a connection that never says hello is
// closed once dialTimeout has passed, and the node forgets it; one that
// said hello and then idles past the same deadline stays open.
func TestTCPSilentHelloTimesOut(t *testing.T) {
	t.Parallel()
	n, peer := listenTCP(t), listenTCP(t)
	got := make(chan Message, 2) // one per send below
	n.SetHandler(func(m Message) { got <- kept(m) })
	inbound := func() int {
		n.mu.Lock()
		defer n.mu.Unlock()
		return len(n.inbound)
	}
	send := func() {
		if err := peer.Send(Message{To: n.ID(), Type: "ping"}); err != nil {
			t.Fatal(err)
		}
		recv(t, got)
	}
	send() // peer's connection says hello and idles from here on
	silent, err := net.Dial("tcp", string(n.ID()))
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	for deadline := time.Now().Add(5 * time.Second); inbound() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d inbound connections, want 2", inbound())
		}
	}
	start := time.Now()
	silent.SetReadDeadline(start.Add(dialTimeout + 5*time.Second))
	if _, err := silent.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("a connection that never said hello was kept open")
	}
	if waited := time.Since(start); waited < dialTimeout-time.Second {
		t.Errorf("the silent connection was closed after %v, before the hello deadline", waited)
	}
	for deadline := time.Now().Add(5 * time.Second); inbound() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d inbound connections after the silent one closed, want 1", inbound())
		}
	}
	send() // over the connection that idled past the hello deadline
	if inbound() != 1 {
		t.Errorf("%d inbound connections, want the one that said hello", inbound())
	}
}

// TestTCPHostileLengthPrefix: a prefix announcing the largest legal
// frame followed by ten bytes costs the node a bounded step, not 16 MiB.
func TestTCPHostileLengthPrefix(t *testing.T) {
	n := listenTCP(t)
	stream := fuzzStreams(t)["seed-lying-length-prefix"]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rawSend(t, n, stream)
	runtime.ReadMemStats(&after)
	if cost := after.TotalAlloc - before.TotalAlloc; cost >= 1<<20 {
		t.Errorf("a 16 MiB prefix and 10 bytes made the process allocate %d bytes, want < 1 MiB", cost)
	}
}

// TestTCPMalformedClosesConnection plays every fuzz seed stream into a
// real socket. A node delivers exactly the messages that precede the
// first bad byte; bytes that are not frames get the connection closed
// and counted once under transport.malformed, while a stream that is
// merely cut short — a peer dying mid-frame — is no violation.
func TestTCPMalformedClosesConnection(t *testing.T) {
	for name, stream := range fuzzStreams(t) {
		t.Run(name, func(t *testing.T) {
			want, end := readStream(stream)
			if hostile := strings.HasPrefix(name, "hostile-"); hostile != errors.Is(end, ErrMalformed) {
				t.Fatalf("stream ends in %v", end)
			}
			n := listenTCP(t)
			reg := metrics.NewRegistry()
			n.SetMetrics(reg)
			var mu sync.Mutex
			var got []Message
			n.SetHandler(func(m Message) {
				mu.Lock()
				got = append(got, kept(m))
				mu.Unlock()
			})
			rawSend(t, n, stream)
			malformed := reg.Snapshot().Label(metrics.ErrorsVecName, "transport.malformed")
			if errors.Is(end, ErrMalformed) != (malformed == 1) || malformed > 1 {
				t.Errorf("errors{code=transport.malformed} = %d for a stream ending in %v", malformed, end)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(got) != len(want) {
				t.Fatalf("%d messages delivered, want %d: %+v", len(got), len(want), got)
			}
			for i, m := range got {
				if m.From != want[i].From || m.To != n.ID() || m.Type != want[i].Type || !bytes.Equal(m.Payload, want[i].Payload) {
					t.Errorf("message %d = %+v, want %+v", i, m, want[i])
				}
			}
		})
	}
}

// TestTCPSlowPeerIsolated: peer b stops reading. Sends to c keep their
// normal latency while the socket to b fills; the send to b then fails
// within the write deadline with transport.backpressure, is counted,
// and the connection is dropped, so b is reachable again once it wakes.
func TestTCPSlowPeerIsolated(t *testing.T) {
	a, b, c := listenTCP(t), listenTCP(t), listenTCP(t)
	reg := metrics.NewRegistry()
	a.SetMetrics(reg)
	wake := make(chan struct{})
	var wakeOnce sync.Once
	t.Cleanup(func() { wakeOnce.Do(func() { close(wake) }) }) // before b.Close waits for its readers
	fromA := make(chan Message, 1)
	b.SetHandler(func(m Message) {
		<-wake
		if m.Type == "after" {
			fromA <- kept(m)
		}
	})
	echo := make(chan Message, 1)
	c.SetHandler(func(m Message) { echo <- kept(m) })

	type failure struct {
		err  error
		took time.Duration
	}
	stuck := make(chan failure, 1)
	go func() {
		bulk := Message{To: b.ID(), Type: "bulk", Payload: make([]byte, 64<<10)}
		for {
			t0 := time.Now()
			if err := a.Send(bulk); err != nil {
				stuck <- failure{err, time.Since(t0)}
				return
			}
		}
	}()

	var f failure
	var worst time.Duration
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	giveUp := time.After(4 * writeTimeout)
	for sends := 0; f.err == nil; sends++ {
		select {
		case f = <-stuck:
		case <-tick.C:
			t0 := time.Now()
			if err := a.Send(Message{To: c.ID(), Type: "ping"}); err != nil {
				t.Fatalf("send %d to the healthy peer: %v", sends, err)
			}
			recv(t, echo)
			worst = max(worst, time.Since(t0))
		case <-giveUp:
			t.Fatal("send to the stalled peer neither completed nor failed")
		}
	}
	if worst > writeTimeout/10 {
		t.Errorf("a send to the healthy peer took %s while another peer was stalled", worst)
	}
	if !errors.Is(f.err, ErrBackpressure) || errs.Code(f.err) != "transport.backpressure" || IsPeerDead(f.err) {
		t.Errorf("stalled send = %v (code %q), want transport.backpressure", f.err, errs.Code(f.err))
	}
	if f.took > writeTimeout+2*time.Second {
		t.Errorf("stalled send failed after %s, write deadline is %s", f.took, writeTimeout)
	}
	if got := reg.Snapshot().Label(metrics.ErrorsVecName, "transport.backpressure"); got != 1 {
		t.Errorf("errors{code=transport.backpressure} = %d, want 1", got)
	}
	a.mu.Lock()
	_, kept := a.conns[b.ID()]
	a.mu.Unlock()
	if kept {
		t.Error("the stalled connection is still cached")
	}

	wakeOnce.Do(func() { close(wake) })
	if err := a.Send(Message{To: b.ID(), Type: "after"}); err != nil {
		t.Fatalf("send to the woken peer: %v", err)
	}
	recv(t, fromA)
}

// TestTCPConnTableOwnsPeerID: the connection table outlives whatever
// named the peer — a search result's provider is a slice of the frame
// it was decoded from — so it keys the connection by its own copy.
func TestTCPConnTableOwnsPeerID(t *testing.T) {
	a, b := listenTCP(t), listenTCP(t)
	b.SetHandler(func(Message) {})
	frame := "provider:" + string(b.ID()) + strings.Repeat(" and the rest of a frame", 8)
	to := PeerID(frame[len("provider:"):][:len(b.ID())])
	if err := a.Send(Message{To: to, Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.conns) != 1 {
		t.Fatalf("%d connections, want 1", len(a.conns))
	}
	for key := range a.conns {
		if key != to || unsafe.StringData(string(key)) == unsafe.StringData(string(to)) {
			t.Errorf("connection keyed by %q, a slice of the caller's string", key)
		}
	}
}

// TestTCPSplitFrames: senders write their streams to one node over
// loopback in chunks of random size, so one read carries several
// frames, a length prefix splits across reads, and frames both under
// and over the pooled buffer — and over frameStep — end, start and
// grow mid-window. Every payload byte arrives intact and each sender's
// frames arrive in order.
func TestTCPSplitFrames(t *testing.T) {
	const senders, each = 4, 60
	rng := rand.New(rand.NewPCG(1, 2))
	size := func() int {
		switch rng.IntN(8) {
		case 0:
			return 4096 - 64 + rng.IntN(128) // around the pooled buffer
		case 1:
			return frameStep - 64 + rng.IntN(8<<10) // around the growth step
		case 2, 3:
			return 64 + rng.IntN(20<<10)
		default:
			return 1 + rng.IntN(64) // several to a read
		}
	}
	fill := func(b []byte, s, seq int) []byte {
		for i := range b {
			b[i] = byte(s*131 + seq*17 + i*7)
		}
		return b
	}
	n := listenTCP(t)
	var mu sync.Mutex
	sizes := make(map[PeerID][]int, senders)
	next := make(map[PeerID]int, senders)
	bad, delivered := 0, 0
	done := make(chan struct{})
	n.SetHandler(func(m Message) {
		mu.Lock()
		defer mu.Unlock()
		s, seq := int(m.SpanID), next[m.From]
		if int(m.TraceID) != seq || seq >= len(sizes[m.From]) ||
			!bytes.Equal(m.Payload, fill(make([]byte, sizes[m.From][seq]), s, seq)) {
			bad++
		}
		next[m.From] = seq + 1
		if delivered++; delivered == senders*each {
			close(done)
		}
	})
	streams := make([][]byte, senders)
	for s := range streams {
		from := fmt.Sprintf("sender-%d", s)
		streams[s] = helloFrame(from)
		for seq := 0; seq < each; seq++ {
			sz := size()
			sizes[PeerID(from)] = append(sizes[PeerID(from)], sz)
			streams[s] = append(streams[s], appendFrameOK(t, Message{
				Type: "split", TraceID: uint64(seq), SpanID: uint64(s), Payload: fill(make([]byte, sz), s, seq),
			})...)
		}
	}
	var wg sync.WaitGroup
	for s, stream := range streams {
		chunks := rand.New(rand.NewPCG(uint64(s), 3))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", string(n.ID()))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for len(stream) > 0 {
				k := 1 + chunks.IntN(16)
				if chunks.IntN(2) == 0 {
					k = 1 + chunks.IntN(16<<10)
				}
				k = min(k, len(stream))
				if _, err := c.Write(stream[:k]); err != nil {
					t.Error(err)
					return
				}
				stream = stream[k:]
				if chunks.IntN(8) == 0 {
					time.Sleep(50 * time.Microsecond) // let the reader catch up mid-frame
				}
			}
		}()
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		t.Errorf("%d of %d frames arrived", delivered, senders*each)
		mu.Unlock()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if bad != 0 {
		t.Errorf("%d frames arrived out of order or damaged", bad)
	}
}

// TestTCPInboundCap: a node reads at most maxInbound connections at
// once. Past that each accepted connection is closed and counted; the
// node's own sends go on, and once a slot frees a peer is read again.
func TestTCPInboundCap(t *testing.T) {
	const extra = 3
	n, peer := listenTCP(t), listenTCP(t)
	reg := metrics.NewRegistry()
	n.SetMetrics(reg)
	got := make(chan Message, 1)
	n.SetHandler(func(m Message) { got <- kept(m) })
	peer.SetHandler(func(m Message) { got <- kept(m) })
	conns := make([]net.Conn, maxInbound+extra)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	hello := helloFrame("127.0.0.1:7001")
	for i := range conns {
		c, err := net.Dial("tcp", string(n.ID()))
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		if _, err := c.Write(hello); err != nil {
			t.Fatal(err)
		}
	}
	gauge := func() int64 { return reg.Snapshot().Gauges["transport.tcp_conns_inbound"] }
	for deadline := time.Now().Add(10 * time.Second); reg.Snapshot().Counter("transport.tcp_accept_refused") != extra; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections refused, want %d", reg.Snapshot().Counter("transport.tcp_accept_refused"), extra)
		}
	}
	if g := gauge(); g != maxInbound {
		t.Errorf("transport.tcp_conns_inbound = %d, want %d", g, maxInbound)
	}
	// Accept takes connections in the order they were made: the last
	// ones found the table full.
	for _, c := range conns[maxInbound:] {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
			t.Errorf("a connection past the cap reads %v, want it closed", err)
		}
	}
	if err := n.Send(Message{To: peer.ID(), Type: "out"}); err != nil {
		t.Fatalf("send from a full node: %v", err)
	}
	recv(t, got)

	conns[0].Close()
	for deadline := time.Now().Add(5 * time.Second); gauge() != maxInbound-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("transport.tcp_conns_inbound = %d after one hung up, want %d", gauge(), maxInbound-1)
		}
	}
	if err := peer.Send(Message{To: n.ID(), Type: "in"}); err != nil {
		t.Fatal(err)
	}
	if m := recv(t, got); m.Type != "in" || m.From != peer.ID() {
		t.Errorf("got %+v, want the peer's message", m)
	}
}

// TestTCPIdleConnectionHeap: a connection that said hello and went
// quiet holds no frame buffer while its reader waits, so 500 of them
// cost little heap — both ends counted, the dialer's socket and the
// node's reader. A reader yet to take its hello holds no more.
func TestTCPIdleConnectionHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what an allocation weighs")
	}
	const conns, limit = 500, 1536
	n := listenTCP(t)
	heap := func() uint64 {
		var ms runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	inbound := func() int {
		n.mu.Lock()
		defer n.mu.Unlock()
		return len(n.inbound)
	}
	open := make([]net.Conn, 0, conns)
	defer func() {
		for _, c := range open {
			c.Close()
		}
	}()
	hello := helloFrame("127.0.0.1:7001")
	before := heap()
	for len(open) < conns {
		c, err := net.Dial("tcp", string(n.ID()))
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, c)
		if _, err := c.Write(hello); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); inbound() != conns; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d inbound connections, want %d", inbound(), conns)
		}
	}
	after := heap()
	per := (int64(after) - int64(before)) / conns
	t.Logf("idle heap per connection: %d B", per)
	if per > limit {
		t.Errorf("an idle connection holds %d B of heap, want <= %d", per, limit)
	}
}

// TestTCPFrameAllocs pins the steady-state socket path, send and
// receive together, in the manner of TestMemDeliveryZeroAlloc: a
// message allocates nothing, since the frame it is sent in and the body
// its payload is read into are both pooled. Skipped under -race, whose
// sync.Pool drops a quarter of what is put back.
func TestTCPFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	a, b := listenTCP(t), listenTCP(t)
	a.SetMetrics(metrics.NewRegistry())
	b.SetMetrics(metrics.NewRegistry())
	got := make(chan struct{}, 1)
	b.SetHandler(func(Message) { got <- struct{}{} })
	msg := Message{To: b.ID(), Type: "query", Payload: []byte("filter=(k=v)"), TraceID: 9, SpanID: 3}
	roundTrip := func() {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	roundTrip() // dials, says hello, and teaches b's reader the type string
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Fatalf("send+receive allocs/msg = %v, want 0", allocs)
	}
}

// BenchmarkTCPRoundTrip is the TCP stratum's own benchmark: one
// message out, one back, over loopback.
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, size := range []int{64, 2 << 10, 64 << 10} {
		name := fmt.Sprintf("%dB", size)
		if size >= 1<<10 {
			name = fmt.Sprintf("%dKiB", size>>10)
		}
		b.Run(name, func(b *testing.B) {
			x, y := listenTCP(b), listenTCP(b)
			y.SetHandler(func(m Message) {
				if err := y.Send(Message{To: m.From, Type: "pong", Payload: m.Payload}); err != nil {
					b.Error(err)
				}
			})
			back := make(chan struct{}, 1)
			x.SetHandler(func(Message) { back <- struct{}{} })
			ping := Message{To: y.ID(), Type: "ping", Payload: make([]byte, size)}
			roundTrip := func() {
				if err := x.Send(ping); err != nil {
					b.Fatal(err)
				}
				<-back
			}
			roundTrip()
			b.SetBytes(int64(2 * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
		})
	}
}
