package dht

import (
	"bytes"
	"runtime"
	"testing"

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

// fuzzSeeds is one well-formed frame per wire type, with both shapes
// of a FIND_VALUE reply: the full one and the digest-only one.
func fuzzSeeds() map[int][]codec.Frame {
	key := KeyForCommunity("patterns")
	recs := []Record{rec(1, "peerA"), rec(2, "peerB")}
	recs[1].Attrs = query.Attrs{"classification": {"creational", "structural"}, "name": {"Builder"}}
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
			&findValueReplyPayload{ReqID: 11, Records: recs, Digest: digest, Peers: peers, Split: 8},
			&findValueReplyPayload{ReqID: 12, Digest: digest, Peers: peers, Complete: true},
		},
		6: {
			&storePayload{Key: key, Records: recs},
			&storePayload{Key: key, Records: recs[:1], Cached: true, Filter: "(name=*)"},
		},
		7: {&unstorePayload{Key: key, DocID: recs[0].DocID, Provider: recs[0].Provider}},
	}
}

// hostileFrames claim far more elements than their bytes can hold: a
// 1 KB FIND_VALUE reply announcing 1 000 records, and the same lie for
// a peer list and an attribute map.
func hostileFrames() map[int][]byte {
	pad := func(b []byte) []byte { return append(b[:len(b):len(b)], make([]byte, 1024-len(b))...) }
	thousand := codec.AppendUvarint(nil, 1000)
	reply := append([]byte{1}, thousand...) // ReqID 1, then the count
	store := make([]byte, IDBytes)          // Key
	store = append(store, 1, 0, 0, 0)       // one record, empty DocID, CommunityID and Title,
	store = append(store, thousand...)      // whose attribute map claims 1 000 entries
	// (a peer is one byte at least, so that lie needs a shorter frame)
	return map[int][]byte{3: pad(reply)[:512], 5: pad(reply), 6: pad(store)}
}

// decodeCost decodes data as wire type which and reports the error and
// the bytes the decode allocated. MemStats counts the whole process,
// so a reading over budget is taken again: what other goroutines (the
// fuzzing worker's own) allocate in passing does not repeat.
func decodeCost(which int, data []byte) (frame codec.Frame, err error, cost uint64) {
	for try := 0; try < 4; try++ {
		frame, _ = codec.New(fuzzTypes[which])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = frame.DecodeBinary(data)
		runtime.ReadMemStats(&after)
		if cost = after.TotalAlloc - before.TotalAlloc; cost <= decodeBudget(len(data)) {
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
	for which, data := range hostileFrames() {
		_, err, cost := decodeCost(which, data)
		if err == nil {
			t.Errorf("%s: %d-byte frame claiming 1000 elements decoded", fuzzTypes[which], len(data))
		}
		if cost > 4096 {
			t.Errorf("%s: rejected frame still allocated %d bytes", fuzzTypes[which], cost)
		}
	}
}

// FuzzDHTFrameDecode: no input makes a DHT frame decoder panic or
// allocate beyond decodeBudget or buys more than maxSplitFanout
// sub-lookups, and whatever decodes re-encodes to something that decodes
// to the same bytes again. The seeds are rebuilt
// from the structs on every run; testdata/fuzz pins the same frames as
// the bytes of the wire version they were written in, which must keep
// decoding safely after the format has moved on.
func FuzzDHTFrameDecode(f *testing.F) {
	for which, frames := range fuzzSeeds() {
		for _, fr := range frames {
			f.Add(uint8(which), fr.AppendBinary(nil))
		}
	}
	for which, data := range hostileFrames() {
		f.Add(uint8(which), data)
	}
	f.Add(uint8(5), hostileSplitReply())
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		w := int(which) % len(fuzzTypes)
		frame, err, cost := decodeCost(w, data)
		if cost > decodeBudget(len(data)) {
			t.Fatalf("%s: decoding %d bytes allocated %d", fuzzTypes[w], len(data), cost)
		}
		if err != nil {
			return
		}
		if reply, ok := frame.(*findValueReplyPayload); ok && (reply.Split < 0 || reply.Split > maxSplitFanout) {
			t.Fatalf("a reply advertising %d sub-keys decoded", reply.Split)
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
