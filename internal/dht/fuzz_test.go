package dht

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/p2p"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

// fuzzTypes is every DHT wire type, in the order the fuzz input's
// first argument indexes them (append only: the committed corpus under
// testdata/fuzz refers to positions).
var fuzzTypes = []string{
	MsgPing, MsgPong, MsgFindNode, MsgFindNodeReply,
	MsgFindValue, MsgFindValueReply, MsgStore, MsgUnstore,
}

// TestFuzzTypesCoverRegistry: a frame type added to dht.go must be added
// to the fuzz target too (the other registered types are p2p's).
func TestFuzzTypesCoverRegistry(t *testing.T) {
	sorted := slices.Sorted(slices.Values(fuzzTypes))
	got := slices.DeleteFunc(codec.Types(), func(typ string) bool { return !strings.HasPrefix(typ, "dht-") })
	if !slices.Equal(got, sorted) {
		t.Errorf("registered DHT wire types %v, fuzzed %v", got, sorted)
	}
}

// fuzzSeeds is one well-formed frame per wire type, with both shapes
// of a FIND_VALUE reply: the full one and the digest-only one.
func fuzzSeeds() map[int][]codec.Frame {
	key := KeyForCommunity("patterns")
	recs := []p2p.Result{rec(1, "peerA"), rec(2, "peerB")}
	recs[1].Attrs = query.FieldsOf(query.Attrs{"classification": {"creational", "structural"}, "name": {"Builder"}, "empty": {}})
	peers := []transport.PeerID{"peer001", "peer002", "127.0.0.1:7001"}
	digest := setDigest{Count: 2, Sum: recordHash(recs[0].DocID, recs[0].Provider) + recordHash(recs[1].DocID, recs[1].Provider)}
	return map[int][]codec.Frame{
		0: {&pingPayload{ReqID: 7}},
		1: {&pingPayload{ReqID: 1 << 40}},
		2: {&findNodePayload{ReqID: 9, Target: key}},
		3: {&findNodeReplyPayload{ReqID: 9, Peers: peers}},
		4: {
			&findValuePayload{ReqID: 11, Key: key, CommunityID: "patterns", Filter: "(classification=behavioral)", Limit: 25},
			&findValuePayload{ReqID: 12, Key: key, CommunityID: "patterns", Filter: "(name=*)", Have: digest, DigestOnly: true},
		},
		5: {
			&findValueReplyPayload{ReqID: 11, Records: recs, Digest: digest, Peers: peers},
			&findValueReplyPayload{ReqID: 12, Digest: digest, Peers: peers, Complete: true},
		},
		6: {
			&storePayload{Key: key, Records: recs},
			&storePayload{Key: key, Records: recs[:1], Cached: true, Filter: "(name=*)"},
		},
		7: {&unstorePayload{Key: key, DocID: recs[0].DocID, Provider: recs[0].Provider}},
	}
}

// TestDecodedFramesOwnTheirBytes: a payload is borrowed — a TCP
// reader reads the next frame into it once the handler returns
// (transport.Message) — so no decoded frame may alias it. A seed of
// every registered DHT wire type is decoded, its input overwritten, and
// the frame must still re-encode to the original bytes. internal/p2p's
// twin covers the other types.
func TestDecodedFramesOwnTheirBytes(t *testing.T) {
	seeds := fuzzSeeds()
	for _, typ := range codec.Types() {
		if !strings.HasPrefix(typ, "dht-") {
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
			data, err := json.Marshal(f)
			if err == nil {
				err = json.Unmarshal(data, viaJSON)
			}
			if err != nil {
				t.Fatalf("%s: json round trip: %v", fuzzTypes[which], err)
			}
			if !reflect.DeepEqual(viaBinary, viaJSON) {
				t.Errorf("%s: binary round trip\n %+v\ndiffers from encoding/json's\n %+v", fuzzTypes[which], viaBinary, viaJSON)
			}
		}
	}
}

// hostileFrames claim far more elements than their bytes can hold: 1 KB
// frames announcing 1 000 records, peers, attribute entries or
// attribute values.
func hostileFrames() map[string]hostileFrame {
	pad := func(b []byte) []byte { return append(b[:len(b):len(b)], make([]byte, 1024-len(b))...) }
	thousand := codec.AppendUvarint(nil, 1000)
	// One record, with empty DocID, CommunityID and Title, whose attribute
	// set claims 1 000 entries, or holds one entry "k" with 1 000 values.
	attrs := append([]byte{1, 0, 0, 0}, thousand...)
	values := append([]byte{1, 0, 0, 0, 1, 1, 'k'}, thousand...)
	reply := func(b []byte) []byte { return append([]byte{1}, b...) }             // ReqID 1
	store := func(b []byte) []byte { return append(make([]byte, IDBytes), b...) } // Key
	return map[string]hostileFrame{
		// A peer is one byte at least, so that lie needs a shorter frame.
		"find-node-reply":         {3, pad(reply(thousand))[:512]},
		"find-value-reply":        {5, pad(reply(thousand))},
		"find-value-reply-attrs":  {5, pad(reply(attrs))},
		"find-value-reply-values": {5, pad(reply(values))[:512]},
		"store":                   {6, pad(store(attrs))},
		"store-values":            {6, pad(store(values))[:512]},
	}
}

// wideFirstSet is a 44 KB FIND_VALUE reply declaring 7 334 records
// whose first record's attribute set holds 2 000 keys of one empty value
// each: the count fits the frame's bytes, the frame runs out ~7 000
// records in, and the decode must stay inside decodeBudget — attribute
// chunks sized by the count alone would reserve 7 334 sets of 4 000
// strings. internal/p2p's hostile hits carry the same set.
func wideFirstSet() []byte {
	b := codec.AppendUvarint([]byte{1}, 7334) // ReqID 1
	b = append(b, 0, 0, 0)                    // DocID, CommunityID, Title
	b = codec.AppendUvarint(b, 2000)
	for i := 0; i < 2000; i++ {
		b = append(b, 2, byte(i>>8), byte(i), 1, 0) // key i, one empty value
	}
	b = append(b, 0) // Provider
	return append(b, make([]byte, 44<<10-len(b))...)
}

type hostileFrame struct {
	which int // position in fuzzTypes
	data  []byte
}

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

// decodeBudget is what decoding n untrusted bytes may allocate: every
// element count is checked against the bytes left (codec.Reader.Count),
// so the worst case is a run of minimal elements — a two-byte
// attribute entry sized into a map — not a count the frame made up.
func decodeBudget(n int) uint64 { return 64*uint64(n) + 4096 }

// TestHostileCountsRejected: a frame whose element count cannot fit in
// its own bytes fails to decode, having allocated next to nothing.
func TestHostileCountsRejected(t *testing.T) {
	const ceiling = 4096
	for name, h := range hostileFrames() {
		_, err, cost := decodeCost(h.which, h.data, ceiling)
		if err == nil {
			t.Errorf("%s: %d-byte %s frame claiming 1000 elements decoded", name, len(h.data), fuzzTypes[h.which])
		}
		if cost > ceiling {
			t.Errorf("%s: rejected frame still allocated %d bytes", name, cost)
		}
	}
}

// FuzzDHTFrameDecode: no input makes a DHT frame decoder panic or
// allocate beyond decodeBudget, and whatever decodes re-encodes to
// something that decodes to the same bytes again. The seeds are rebuilt
// from the structs on every run; testdata/fuzz pins the same frames as
// the bytes of the wire version they were written in, which must keep
// decoding safely after the format has moved on.
func FuzzDHTFrameDecode(f *testing.F) {
	for which, frames := range fuzzSeeds() {
		for _, fr := range frames {
			f.Add(uint8(which), fr.AppendBinary(nil))
		}
	}
	for _, h := range hostileFrames() {
		f.Add(uint8(h.which), h.data)
	}
	f.Add(uint8(slices.Index(fuzzTypes, MsgFindValueReply)), wideFirstSet())
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		w := int(which) % len(fuzzTypes)
		frame, err, cost := decodeCost(w, data, decodeBudget(len(data)))
		if cost > decodeBudget(len(data)) {
			t.Fatalf("%s: decoding %d bytes allocated %d", fuzzTypes[w], len(data), cost)
		}
		if err != nil {
			return
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
