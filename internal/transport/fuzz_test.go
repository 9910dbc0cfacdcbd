package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// fuzzStreams is what an inbound connection may carry: seed-* streams
// are well-formed as far as they go, hostile-* ones are not frames.
// testdata/fuzz pins the same streams as the bytes of the framing
// version they were written in.
func fuzzStreams(t testing.TB) map[string][]byte {
	hello := helloFrame("127.0.0.1:7001")
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	prefix := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	query := appendFrameOK(t, Message{Type: "query", Payload: []byte("filter=(k=v)")})
	traced := appendFrameOK(t, Message{Type: "dht-find-value", TraceID: 1<<63 + 7, SpanID: 42})
	return map[string][]byte{
		"seed-hello-only":           hello,
		"seed-query":                cat(hello, query),
		"seed-traced-empty-payload": cat(hello, traced),
		"seed-three-frames":         cat(hello, query, traced, query),
		"seed-cut-mid-frame":        cat(hello, query[:len(query)-5]),
		"seed-lying-length-prefix":  cat(hello, prefix(maxFrame), make([]byte, 10)),
		"hostile-http":              []byte("GET / HTTP/1.1\r\nHost: up2p\r\n\r\n"),
		"hostile-version":           bytes.Replace(cat(hello, query), []byte(wireMagic), []byte("UP2P\x02"), 1),
		"hostile-nameless-hello":    cat(helloFrame(""), query),
		"hostile-hello-trailer":     cat(prefix(uint32(len(hello)-4+1)), hello[4:], []byte{0}, query),
		"hostile-oversize-hello":    cat(prefix(4096), query),
		"hostile-oversize-prefix":   cat(hello, query, prefix(maxFrame+1), query),
		"hostile-type-length":       cat(hello, prefix(3), []byte{200, 0, 0}, query),
		"hostile-empty-body":        cat(hello, prefix(0), query),
	}
}

// readStream plays stream into a frameReader as a connection would and
// returns what it delivered, each payload copied out of the reader's
// borrowed buffer as a handler that keeps it must, and how it ended.
func readStream(stream []byte) (msgs []Message, err error) {
	fr := newFrameReader(bytes.NewReader(stream), "127.0.0.1:7002")
	if err = fr.readHello(); err != nil {
		return nil, err
	}
	for {
		msg, _, err := fr.next()
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, kept(msg))
	}
}

// readBudget is what reading n untrusted bytes may allocate: the
// reader's own buffer, the bodies that did arrive, and at most one
// frameStep for a final prefix that lied.
func readBudget(n int) uint64 { return 4*uint64(n) + frameStep + 16<<10 }

// FuzzTCPFrame: no byte stream makes the connection reader panic or
// allocate beyond readBudget; a stream ends in EOF (it was cut) or in
// ErrMalformed (it was wrong), nothing else; and every message it did
// deliver re-encodes to a frame that reads back the same.
func FuzzTCPFrame(f *testing.F) {
	for _, stream := range fuzzStreams(f) {
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		var msgs []Message
		var err error
		var cost uint64
		// MemStats counts the whole process: a reading over budget is
		// taken again, since what other goroutines allocate in passing
		// does not repeat.
		for try := 0; try < 4; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			msgs, err = readStream(stream)
			runtime.ReadMemStats(&after)
			if cost = after.TotalAlloc - before.TotalAlloc; cost <= readBudget(len(stream)) {
				break
			}
		}
		if cost > readBudget(len(stream)) {
			t.Fatalf("reading %d bytes allocated %d", len(stream), cost)
		}
		if !errors.Is(err, ErrMalformed) && err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Fatalf("stream ended in %v", err)
		}
		again := helloFrame("127.0.0.1:7001")
		for _, m := range msgs {
			if again, err = appendFrame(again, m); err != nil {
				t.Fatalf("delivered message does not re-encode: %v", err)
			}
		}
		back, err := readStream(again)
		if err != io.EOF || len(back) != len(msgs) {
			t.Fatalf("re-encoded stream gave %d of %d messages, then %v", len(back), len(msgs), err)
		}
		for i, m := range msgs {
			b := back[i]
			if b.Type != m.Type || b.TraceID != m.TraceID || b.SpanID != m.SpanID || !bytes.Equal(b.Payload, m.Payload) {
				t.Fatalf("message %d changed in a round trip: %+v -> %+v", i, m, b)
			}
		}
	})
}
