package p2p

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

// hitFrame encodes a query-hit carrying rs.
func hitFrame(guid uint64, rs []Result) []byte {
	return codec.Encode(&queryHitPayload{GUID: guid, Results: rs})
}

// TestCollectedHitOwnsItsBytes: results a collector decoded from a hit
// stay intact after the hit's payload buffer is overwritten — the
// payload is borrowed, the results are the searching caller's.
func TestCollectedHitOwnsItsBytes(t *testing.T) {
	want := sampleResults(5)
	payload := hitFrame(1, want)
	col := newHitCollector(0, nil)
	if err := col.addHit(payload); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = ^payload[i]
	}
	if got := col.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("collected results changed with the payload buffer:\n %+v\nwant\n %+v", got, want)
	}
}

// TestCorruptHitAddsNothing: a hit whose tail does not decode adds none
// of its results, even when the results before the corruption would
// already have met the limit, and the collection stays open for the
// next good hit.
func TestCorruptHitAddsNothing(t *testing.T) {
	local := sampleResults(1)
	good := sampleResults(6)[1:]
	hit := hitFrame(1, good)
	corrupt := hit[:len(hit)-3] // cut inside the last result
	for _, limit := range []int{0, 3, 20} {
		col := newHitCollector(limit, local)
		if err := col.addHit(corrupt); err == nil {
			t.Errorf("limit %d: a hit with a corrupt tail was admitted", limit)
		}
		select {
		case <-col.done:
			t.Errorf("limit %d: a corrupt hit closed the collection", limit)
		default:
		}
		if err := col.addHit(hit); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		want := append(slices.Clone(local), good...)
		if limit > 0 {
			want = want[:min(len(want), limit)]
		}
		got := col.snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("limit %d: collected %d results, want %d:\n %+v", limit, len(got), len(want), got)
		}
	}
}

// TestSnapshotJoinsFrames: an unlimited collection of the caller's own
// results and several hits hands over one slice of exactly their
// number, in arrival order.
func TestSnapshotJoinsFrames(t *testing.T) {
	all := sampleResults(12)
	col := newHitCollector(0, slices.Clone(all[:2]))
	for _, part := range [][]Result{all[2:5], all[5:6], all[6:]} {
		if err := col.addHit(hitFrame(1, part)); err != nil {
			t.Fatal(err)
		}
	}
	got := col.snapshot()
	if !reflect.DeepEqual(got, all) || cap(got) != len(all) {
		t.Errorf("snapshot of %d results in capacity %d, want the %d in order:\n %+v", len(got), cap(got), len(all), got)
	}
}

// TestHitsRacingSnapshot: hits that keep arriving while the origin takes
// its results and releases the query never change the slice it took,
// nor write past its end. Run under -race (make race).
func TestHitsRacingSnapshot(t *testing.T) {
	ep, err := transport.NewMemNetwork().Endpoint("origin")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGnutellaNode(ep, index.NewStore())
	guid, col, err := g.originate("c", query.MatchAll{}, 1, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hit := hitFrame(guid, sampleResults(4))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				// Each delivery in a buffer of its own, as a TCP reader
				// hands them out.
				g.handleQueryHit(transport.Message{Type: MsgQueryHit, From: "far", Payload: slices.Clone(hit)})
			}
		}()
	}
	close(start)
	for landed := 0; landed == 0; runtime.Gosched() { // take mid-stream
		col.mu.Lock()
		landed = col.n
		col.mu.Unlock()
	}
	got := col.snapshot()
	taken := slices.Clone(got)
	g.release(guid)
	wg.Wait()
	if len(got)%4 != 0 || !reflect.DeepEqual(got, taken) {
		t.Errorf("the %d results taken changed after snapshot", len(taken))
	}
	for i, r := range got[len(got):cap(got)] {
		if !reflect.DeepEqual(r, Result{}) {
			t.Fatalf("a hit wrote result %d behind the taken slice", len(got)+i)
		}
	}
}

// TestReadResultsChunkFitsCount: the attribute sets of a hit's results
// are cut from a chunk sized by the hit's result count — its capacity
// is exactly the strings its 25 results decoded, not a guess from the
// frame's bytes.
func TestReadResultsChunkFitsCount(t *testing.T) {
	enc := codec.Encode(&searchHitPayload{ReqID: 1, Results: sampleResults(25)})
	r := codec.NewReader(enc)
	r.Uvarint()
	got := readResults(r, 0)
	if r.Err() != nil || len(got) != 25 {
		t.Fatalf("decoded %d results: %v", len(got), r.Err())
	}
	strings := 0
	for _, res := range got {
		for _, vals := range res.Attrs.All() {
			strings += 1 + len(vals)
		}
	}
	// No API shows the chunk the reader's FieldsBuilder holds; reflection
	// reads its length and capacity.
	kv := reflect.ValueOf(r).Elem().FieldByName("fields").FieldByName("kv")
	if kv.Len() != strings || kv.Cap() != strings {
		t.Errorf("chunk of %d strings in capacity %d, the results decoded %d", kv.Len(), kv.Cap(), strings)
	}
}

// TestReadResultsAllocsFlat: decoding a hit allocates the same number
// of times for 25 results as for 250 — per frame, not per result.
func TestReadResultsAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		enc := codec.Encode(&searchHitPayload{ReqID: 1, Results: sampleResults(n)})
		return testing.AllocsPerRun(50, func() {
			r := codec.NewReader(enc)
			r.Uvarint()
			if got := readResults(r, 0); r.Err() != nil || len(got) != n {
				t.Fatalf("decoded %d of %d results: %v", len(got), n, r.Err())
			}
		})
	}
	if few, many := allocs(25), allocs(250); few != many {
		t.Errorf("%v allocs for 25 results, %v for 250", few, many)
	}
}

// BenchmarkResultDecode: the decode layer's share of a search, a
// search-hit of 25 and of 250 results decoded per op.
func BenchmarkResultDecode(b *testing.B) {
	for _, n := range []int{25, 250} {
		enc := codec.Encode(&searchHitPayload{ReqID: 1, Results: sampleResults(n)})
		b.Run(fmt.Sprintf("results=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				var hit searchHitPayload
				if err := hit.DecodeBinary(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
