package p2p

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

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
	if _, err := col.addHit(payload); err != nil {
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
		met, err := col.addHit(corrupt)
		if err == nil {
			t.Errorf("limit %d: a hit with a corrupt tail was admitted", limit)
		}
		if met || col.closed {
			t.Errorf("limit %d: a corrupt hit closed the collection", limit)
		}
		if _, err := col.addHit(hit); err != nil {
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
		if _, err := col.addHit(hitFrame(1, part)); err != nil {
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
	col, err := g.originate("c", query.MatchAll{}, 1, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hit := hitFrame(col.guid, sampleResults(4))
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
				g.handleHit(transport.Message{Type: MsgQueryHit, From: "far", Payload: slices.Clone(hit)})
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
	g.collected(col, 0)
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

// TestResultDecodeBytes pins the one-copy contract on the bytes a hit
// costs its originator: decoding a 25-result and a 250-result hit
// allocates no more than the frame's bytes, one Result per result and a
// constant, with room for the allocator rounding each of the two up to
// its size class (at most an eighth more) or, past 32 KB, to pages.
// Matching a filter over the decoded sets allocates nothing. A string header per
// key and value, or a second copy of the set, breaks it; the decode
// before flat attribute sets took three times the frame.
func TestResultDecodeBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, n := range []int{25, 250} {
		enc := codec.Encode(&searchHitPayload{ReqID: 1, Results: sampleResults(n)})
		var before, after runtime.MemStats
		const runs = 50
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			var hit searchHitPayload
			if err := hit.DecodeBinary(enc); err != nil || len(hit.Results) != n {
				t.Fatalf("decoded %d of %d results: %v", len(hit.Results), n, err)
			}
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		rounded := func(b int) int { // a size class, or whole pages past 32 KB
			if b > 32<<10 {
				return b + 8<<10
			}
			return b + b/8
		}
		budget := rounded(len(enc)) + rounded(n*int(unsafe.Sizeof(Result{}))) + 256
		if got > uint64(budget) {
			t.Errorf("%d results: %d bytes a decode, over %d: the %d-byte frame and %d-byte results, rounded, plus 256", n, got, budget, len(enc), n*int(unsafe.Sizeof(Result{})))
		}
		t.Logf("%d results: %d-byte frame, %d bytes a decode", n, len(enc), got)
	}

	// Matching a decoded set reads it in place.
	var hit searchHitPayload
	if err := hit.DecodeBinary(codec.Encode(&searchHitPayload{ReqID: 1, Results: sampleResults(25)})); err != nil {
		t.Fatal(err)
	}
	f := query.MustParse("(&(classification=structural)(|(name=alias)(intent~=ABSTRACTION))(!(empty=*)))")
	matched := 0
	allocs := testing.AllocsPerRun(100, func() {
		matched = 0
		for i := range hit.Results {
			if f.Match(&hit.Results[i].Attrs) {
				matched++
			}
		}
	})
	if allocs != 0 || matched != len(hit.Results) {
		t.Errorf("matching 25 decoded sets: %v allocs, %d matched; want 0 and 25", allocs, matched)
	}
}
