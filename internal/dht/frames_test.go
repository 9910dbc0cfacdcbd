package dht

import (
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

// framesFixture holds one line per pinned frame: its name, a space and
// the hex of its payload.
const framesFixture = "testdata/frames.hex"

// storeLog keeps a copy of every caching STORE sent through the
// endpoints it wraps.
type storeLog struct {
	transport.Endpoint
	cached *[][]byte
}

func (e *storeLog) Send(msg transport.Message) error {
	if msg.Type == MsgStore {
		var p storePayload
		if p.DecodeBinary(msg.Payload) == nil && p.Cached {
			*e.cached = append(*e.cached, slices.Clone(msg.Payload))
		}
	}
	return e.Endpoint.Send(msg)
}

// cachingStoreFrame runs searches on a caching network until one of them
// sends a caching STORE, and returns that frame's payload. The searcher
// shares records of its own, so the set mixes the lookup's records with
// its own store's hits.
func cachingStoreFrame(t *testing.T) []byte {
	net := transport.NewMemNetwork(transport.WithSeed(1))
	var cached [][]byte
	nodes := make([]*Node, 64)
	for i := range nodes {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("peer%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(&storeLog{Endpoint: ep, cached: &cached}, index.NewStore(), Config{K: 4, Alpha: 2, CacheRecords: true})
	}
	for _, nd := range nodes[1:] {
		nd.Bootstrap(nodes[0].PeerID())
	}
	for i, d := range patternDocs(24) {
		if err := nodes[i%12].Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes[:12] {
		if _, err := nd.Search("patterns", query.MustParse("(name=*)"), p2p.SearchOptions{}); err != nil {
			t.Fatal(err)
		}
		if len(cached) > 0 {
			return cached[0]
		}
	}
	t.Fatal("no search sent a caching STORE")
	return nil
}

// pinnedFrames encodes every fuzzSeeds frame and the caching STORE, one
// fixture line each.
func pinnedFrames(t *testing.T) string {
	seeds := fuzzSeeds()
	var b strings.Builder
	for which, typ := range fuzzTypes {
		for i, f := range seeds[which] {
			fmt.Fprintf(&b, "%s/%d %s\n", typ, i, hex.EncodeToString(codec.Encode(f)))
		}
	}
	fmt.Fprintf(&b, "cache-store %s\n", hex.EncodeToString(cachingStoreFrame(t)))
	return b.String()
}

// TestDHTFrameBytesPinned: every sample frame, and the caching STORE a
// search builds from its results, encodes to the bytes committed in
// testdata/frames.hex. The golden traces run no caching network, so
// without this nothing would notice the caching STORE's bytes moving.
func TestDHTFrameBytesPinned(t *testing.T) {
	want, err := os.ReadFile(framesFixture)
	if err != nil {
		t.Fatal(err)
	}
	got := pinnedFrames(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		g, w := "", ""
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
