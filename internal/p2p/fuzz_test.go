package p2p

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

// fuzzTypes is every wire type wire.go registers, in the order the fuzz
// input's first argument indexes them (append only: the committed corpus
// under testdata/fuzz refers to positions).
var fuzzTypes = []string{
	MsgRegister, MsgRegisterBatch, MsgUnregister, MsgSearch, MsgSearchHit,
	MsgQuery, MsgQueryHit, MsgFetch, MsgFetchReply, MsgAttachment,
	MsgAttachmentReply, MsgPing, MsgPong,
}

// TestFuzzTypesCoverRegistry: a frame type added to wire.go must be
// added to the fuzz target too. The external tests in this directory link
// internal/dht into the test binary; its frames, all named dht-*, have
// their own fuzz target there.
func TestFuzzTypesCoverRegistry(t *testing.T) {
	sorted := slices.Sorted(slices.Values(fuzzTypes))
	got := slices.DeleteFunc(codec.Types(), func(typ string) bool { return strings.HasPrefix(typ, "dht-") })
	if !slices.Equal(got, sorted) {
		t.Errorf("registered wire types %v, fuzzed %v", got, sorted)
	}
}

// fuzzSeeds is well-formed frames of every wire type, keyed by position
// in fuzzTypes.
func fuzzSeeds() map[int][]codec.Frame {
	attrs := query.Attrs{"classification": {"creational", "structural"}, "name": {"Builder"}, "empty": {}}
	reg := registerPayload{DocID: "doc-1", CommunityID: "patterns", Title: "Builder", Attrs: query.FieldsOf(attrs)}
	results := sampleResults(3)
	full := index.NewEntry(&index.Document{ID: "doc-1", CommunityID: "patterns", Title: "Builder",
		XML: "<pattern><name>Builder</name></pattern>", Attrs: attrs, Attachments: []string{"file:a.png", "file:b.png"}})
	return map[int][]codec.Frame{
		0:  {&reg, &registerPayload{DocID: "bare"}},
		1:  {&registerBatchPayload{Docs: []registerPayload{reg, {DocID: "doc-2", CommunityID: "patterns"}}}, &registerBatchPayload{}},
		2:  {&unregisterPayload{DocID: "doc-1"}},
		3:  {&searchPayload{ReqID: 9, CommunityID: "patterns", Filter: "(classification=creational)", Limit: 25}},
		4:  {&searchHitPayload{ReqID: 9, Results: results}, &searchHitPayload{ReqID: 1 << 40}},
		5:  {&queryPayload{GUID: 0xabcdef0123456789, Origin: "peer001", CommunityID: "patterns", Filter: "(name=*)", TTL: 7, Hops: 2}},
		6:  {&queryHitPayload{GUID: 0xabcdef0123456789, Results: results}, &queryHitPayload{GUID: 3}},
		7:  {&fetchPayload{ReqID: 4, DocID: "doc-1"}},
		8:  {&fetchReplyPayload{ReqID: 4, Found: true, Doc: full}, &fetchReplyPayload{ReqID: 5}},
		9:  {&attachmentPayload{ReqID: 6, URI: "file:a.png"}},
		10: {&attachmentReplyPayload{ReqID: 6, Found: true, Data: []byte{0, 1, 2, 0xff}}, &attachmentReplyPayload{ReqID: 7}},
		11: {&pingPayload{GUID: 11, Origin: "peer001", TTL: 2, Hops: 1}},
		12: {&pongPayload{GUID: 11, Peer: transport.PeerID("127.0.0.1:7001"), Hops: 2}},
	}
}

// TestDecodedFramesOwnTheirBytes: a payload is borrowed — a TCP
// reader reads the next frame into it once the handler returns
// (transport.Message) — so no decoded frame may alias it. A seed of
// every registered wire type is decoded, its input overwritten, and the
// frame must still re-encode to the original bytes. internal/dht's twin
// covers the dht-* types.
func TestDecodedFramesOwnTheirBytes(t *testing.T) {
	seeds := fuzzSeeds()
	for _, typ := range codec.Types() {
		if strings.HasPrefix(typ, "dht-") {
			continue
		}
		frames := seeds[slices.Index(fuzzTypes, typ)]
		if len(frames) == 0 {
			t.Errorf("%s: no seed frame", typ)
		}
		for _, f := range frames {
			want := codec.Encode(f)
			payload := slices.Clone(want)
			got, _ := codec.New(typ)
			if err := got.DecodeBinary(payload); err != nil {
				t.Fatalf("%s: %v", typ, err)
			}
			for i := range payload {
				payload[i] = ^payload[i]
			}
			if again := codec.Encode(got); !bytes.Equal(again, want) {
				t.Errorf("%s: a decoded frame changed with its input buffer:\n %x\nwant\n %x", typ, again, want)
			}
		}
	}
}

// jsonRoundTrip decodes in's encoding/json form into out: the oracle the
// wire format is checked against.
func jsonRoundTrip(t *testing.T, in, out codec.Frame) {
	t.Helper()
	data, err := json.Marshal(in)
	if err == nil {
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		t.Fatalf("%T: json round trip: %v", in, err)
	}
}

// TestBinaryMatchesJSONOracle: every sample frame of every wire type
// reads back from its binary encoding as it reads back from
// encoding/json.
func TestBinaryMatchesJSONOracle(t *testing.T) {
	for which, frames := range fuzzSeeds() {
		for _, f := range frames {
			viaBinary, _ := codec.New(fuzzTypes[which])
			if err := viaBinary.DecodeBinary(codec.Encode(f)); err != nil {
				t.Fatalf("%s: %v", fuzzTypes[which], err)
			}
			viaJSON, _ := codec.New(fuzzTypes[which])
			jsonRoundTrip(t, f, viaJSON)
			if !reflect.DeepEqual(viaBinary, viaJSON) {
				t.Errorf("%s: binary round trip\n %+v\ndiffers from encoding/json's\n %+v", fuzzTypes[which], viaBinary, viaJSON)
			}
		}
	}
}

type hostileFrame struct {
	which int // position in fuzzTypes
	data  []byte
	// fits marks a frame whose count fits its bytes: the lie shows only
	// part way through, so the decode may spend up to decodeBudget.
	fits bool
}

// wideFirstSet is a 44 KB result set declaring 7 334 results — as many
// as six bytes each would fit — whose first result's attribute set holds
// 2 000 keys of one empty value each. The count passes its check, and
// the frame runs out ~5 000 results in. Attribute chunks sized by the
// count alone would reserve 7 334 sets of 4 000 strings, half a
// gigabyte; bounded by the bytes left, they reserve what the frame could
// hold.
func wideFirstSet(lead ...byte) []byte {
	b := codec.AppendUvarint(lead, 7334)
	b = append(b, 0, 0, 0, 0) // DocID, Provider, CommunityID, Title
	b = codec.AppendUvarint(b, 2000)
	for i := 0; i < 2000; i++ {
		b = append(b, 2, byte(i>>8), byte(i), 1, 0) // key i, one empty value
	}
	b = append(b, 0) // Hops
	return append(b, make([]byte, 44<<10-len(b))...)
}

// hostileFrames claim far more elements than their bytes can hold: 1 KB
// frames announcing 1 000 results, registrations, attribute entries,
// attribute values and attachments — and a query-hit whose GUID is fine
// and whose body is not, the frame a relay forwards unread, and the
// wide-first-set hits (wideFirstSet).
func hostileFrames() map[string]hostileFrame {
	pad := func(b ...byte) []byte { return append(b, make([]byte, 1024-len(b))...) }
	k := codec.AppendUvarint(nil, 1000) // two bytes
	return map[string]hostileFrame{
		"register-attrs":      {0, pad(0, 0, 0, k[0], k[1]), false},                           // empty DocID, CommunityID, Title; 1 000 attribute entries
		"register-values":     {0, pad(0, 0, 0, 1, 1, 'k', k[0], k[1])[:512], false},          // one entry "k" with 1 000 values, in 512 bytes
		"register-batch":      {1, pad(k[0], k[1]), false},                                    // 1 000 registrations
		"search-hit-results":  {4, pad(1, k[0], k[1]), false},                                 // ReqID 1, 1 000 results
		"query-hit-results":   {6, pad(1, k[0], k[1]), false},                                 // GUID 1, 1 000 results
		"query-hit-attrs":     {6, pad(1, 1, 0, 0, 0, 0, k[0], k[1]), false},                  // one result whose attribute set claims 1 000 entries
		"query-hit-values":    {6, pad(1, 1, 0, 0, 0, 0, 1, 1, 'k', k[0], k[1])[:512], false}, // one result, one entry "k" with 1 000 values, in 512 bytes
		"search-hit-attrs":    {4, pad(1, 1, 0, 0, 0, 0, k[0], k[1]), false},                  // the same two lies in a search-hit
		"search-hit-values":   {4, pad(1, 1, 0, 0, 0, 0, 1, 1, 'k', k[0], k[1])[:512], false},
		"query-hit-garbage":   {6, append([]byte{42, 3}, "\xff\xff\xff"...), false},      // GUID 42, then a truncated body
		"fetch-reply-attach":  {8, pad(1, 1, 1, 0, 0, 0, 0, 0, k[0], k[1])[:512], false}, // found, a document with 1 000 attachments, in 512 bytes
		"query-string-length": {5, pad(1, k[0], k[1])[:100], false},                      // GUID 1, then a 1 000-byte Origin in a 100-byte frame
		"query-hit-wide":      {6, wideFirstSet(1), true},                                // GUID 1
		"search-hit-wide":     {4, wideFirstSet(1), true},                                // ReqID 1
	}
}

// decodeBudget is what decoding n untrusted bytes may allocate: every
// element count is checked against the bytes left (codec.Reader.Count),
// so the worst case is a run of minimal elements — a six-byte result
// sized into an 80-byte Result, a two-byte attribute entry sized into a
// map — not a count the frame made up.
func decodeBudget(n int) uint64 { return 64*uint64(n) + 4096 }

// decodeCost decodes data as wire type which and reports the error and
// the bytes the decode allocated. MemStats counts the whole process,
// so a reading over the caller's ceiling is taken again: what other
// goroutines (the fuzzing worker's own, a parallel test's) allocate in
// passing does not repeat.
func decodeCost(which int, data []byte, ceiling uint64) (frame codec.Frame, err error, cost uint64) {
	for try := 0; try < 4; try++ {
		frame, _ = codec.New(fuzzTypes[which])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = frame.DecodeBinary(data)
		runtime.ReadMemStats(&after)
		if cost = after.TotalAlloc - before.TotalAlloc; cost <= ceiling {
			break
		}
	}
	return frame, err, cost
}

// TestHostileCountsRejected: a frame whose element count cannot fit in
// its own bytes fails to decode, having allocated next to nothing; one
// whose count fits and whose bytes run out later fails within
// decodeBudget.
func TestHostileCountsRejected(t *testing.T) {
	for name, h := range hostileFrames() {
		ceiling := uint64(4096)
		if h.fits {
			ceiling = decodeBudget(len(h.data))
		}
		_, err, cost := decodeCost(h.which, h.data, ceiling)
		if err == nil {
			t.Errorf("%s: %d-byte %s frame decoded", name, len(h.data), fuzzTypes[h.which])
		}
		if cost > ceiling {
			t.Errorf("%s: rejected frame still allocated %d bytes", name, cost)
		}
	}
}

// FuzzP2PFrameDecode: no input makes a p2p frame decoder panic or
// allocate beyond decodeBudget; whatever decodes re-encodes to
// something that decodes to the same bytes again; for the two frames
// the flood router routes without decoding, the GUID it peeks is the
// GUID a successful full decode reads; and a query-hit decoded straight
// into a search's collector is admitted exactly when the frame decodes,
// with the frame's results up to the collector's limit. The seeds are rebuilt from
// the structs on every run; testdata/fuzz pins the same frames as the
// bytes of the wire version they were written in, which must keep
// decoding safely after the format has moved on.
func FuzzP2PFrameDecode(f *testing.F) {
	for which, frames := range fuzzSeeds() {
		for _, fr := range frames {
			f.Add(uint8(which), fr.AppendBinary(nil))
		}
	}
	for _, h := range hostileFrames() {
		f.Add(uint8(h.which), h.data)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		w := int(which) % len(fuzzTypes)
		frame, err, cost := decodeCost(w, data, decodeBudget(len(data)))
		if cost > decodeBudget(len(data)) {
			t.Fatalf("%s: decoding %d bytes allocated %d", fuzzTypes[w], len(data), cost)
		}
		if hit, ok := frame.(*queryHitPayload); ok {
			checkCollector(t, data, hit, err)
		}
		if err != nil {
			return
		}
		switch fr := frame.(type) {
		case *queryPayload:
			checkPeek(t, data, fr.GUID)
		case *queryHitPayload:
			checkPeek(t, data, fr.GUID)
		}
		again, _ := codec.New(fuzzTypes[w])
		first := frame.AppendBinary(nil)
		if err := again.DecodeBinary(first); err != nil {
			t.Fatalf("%s: re-encoded frame does not decode: %v", fuzzTypes[w], err)
		}
		if second := again.AppendBinary(nil); !bytes.Equal(first, second) {
			t.Fatalf("%s: encoding is not stable:\n%x\n%x", fuzzTypes[w], first, second)
		}
	})
}

func checkPeek(t *testing.T, data []byte, decoded uint64) {
	t.Helper()
	if peeked, err := codec.PeekUint(data); err != nil || peeked != decoded {
		t.Fatalf("peeked GUID %#x (%v), full decode read %#x", peeked, err, decoded)
	}
}

// checkCollector holds a hit collector's decode (hitCollector.addHit) to
// queryHitPayload.DecodeBinary, whose outcome on data was hit and
// decodeErr: the same frames admitted, and the same results, up to the
// collector's limit.
func checkCollector(t *testing.T, data []byte, hit *queryHitPayload, decodeErr error) {
	t.Helper()
	for _, limit := range []int{0, 2} {
		col := newHitCollector(limit, nil)
		_, err := col.addHit(data)
		if (err == nil) != (decodeErr == nil) {
			t.Fatalf("limit %d: collector decode says %v, DecodeBinary %v", limit, err, decodeErr)
		}
		var want []Result
		if decodeErr == nil {
			want = hit.Results
			if limit > 0 {
				want = want[:min(len(want), limit)]
			}
		}
		got := col.snapshot()
		if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("limit %d: collector decoded %+v, DecodeBinary %+v", limit, got, want)
		}
	}
}
