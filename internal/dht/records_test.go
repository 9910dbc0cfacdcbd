package dht

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

func rec(i int, provider string) p2p.Result {
	return p2p.Result{
		DocID:       index.DocID(fmt.Sprintf("d-%04d", i)),
		CommunityID: "patterns",
		Title:       fmt.Sprintf("doc %d", i),
		Attrs:       query.FieldsOf(query.Attrs{"classification": {"behavioral"}}),
		Provider:    transport.PeerID(provider),
	}
}

func countersFor(rs *recordStore) (expired, evicted, hits *metrics.Counter) {
	reg := metrics.NewRegistry()
	expired = reg.Counter("dht.records_expired")
	evicted = reg.Counter("dht.records_evicted")
	hits = reg.Counter("dht.cache_hits")
	rs.setCounters(expired, evicted, hits)
	return
}

// TestRecordCapEvictionOrder: past the per-key cap, whole cached sets
// are evicted before any primary, and among primaries the
// deterministic victim is the earliest-expiring, smallest (DocID,
// Provider) record.
func TestRecordCapEvictionOrder(t *testing.T) {
	rs := newRecordStore(time.Minute, 6)
	_, evicted, _ := countersFor(rs)
	key := KeyForCommunity("patterns")
	t0 := time.Unix(1000, 0)

	for i := 0; i < 4; i++ {
		rs.put(key, []p2p.Result{rec(i, "peerA")}, t0)
	}
	f := query.MustParse("(classification=behavioral)")
	fs := f.String()
	rs.putCached(key, []p2p.Result{rec(90, "peerB"), rec(91, "peerB")}, t0, fs)
	if got := rs.len(t0); got != 6 {
		t.Fatalf("records at cap = %d, want 6", got)
	}

	// One more primary: the cached set must go first, whole.
	rs.put(key, []p2p.Result{rec(4, "peerA")}, t0.Add(time.Second))
	if got := evicted.Value(); got != 2 {
		t.Fatalf("evicted after cached-set eviction = %d, want 2 (the whole set)", got)
	}
	if got, _, complete := rs.get(new([]p2p.Result), key, t0.Add(time.Second), &valueQuery{communityID: "patterns", filter: fs, match: f}, setDigest{}); complete || len(got) != 5 {
		t.Fatalf("post-eviction get = %d records, complete=%v; want 5 primaries, incomplete", len(got), complete)
	}

	// Fill back to cap with a later-expiring primary, then overflow:
	// the victim must be the earliest-expiring primary with the
	// smallest (DocID, Provider) — d-0000 from the t0 batch.
	rs.put(key, []p2p.Result{rec(5, "peerA")}, t0.Add(2*time.Second))
	rs.put(key, []p2p.Result{rec(6, "peerA")}, t0.Add(3*time.Second))
	if got := evicted.Value(); got != 3 {
		t.Fatalf("evicted after primary eviction = %d, want 3", got)
	}
	got, _, _ := rs.get(new([]p2p.Result), key, t0.Add(3*time.Second), &valueQuery{communityID: "patterns", filter: fs, match: f}, setDigest{})
	for _, r := range got {
		if r.DocID == "d-0000" {
			t.Fatalf("deterministic victim d-0000 still present: %+v", got)
		}
	}
	if len(got) != 6 {
		t.Fatalf("records after overflow = %d, want 6", len(got))
	}
}

// TestCachedSetHalvedTTL: a cached copy expires at half the record
// TTL, while a primary stored at the same instant lives the full TTL.
func TestCachedSetHalvedTTL(t *testing.T) {
	rs := newRecordStore(time.Minute, 0)
	countersFor(rs)
	key := KeyForCommunity("patterns")
	t0 := time.Unix(1000, 0)
	f := query.MustParse("(classification=behavioral)")
	fs := f.String()

	rs.put(key, []p2p.Result{rec(0, "peerA")}, t0)
	rs.putCached(key, []p2p.Result{rec(1, "peerB")}, t0, fs)

	if got, _, complete := rs.get(new([]p2p.Result), key, t0.Add(29*time.Second), &valueQuery{communityID: "patterns", filter: fs, match: f}, setDigest{}); !complete || len(got) != 2 {
		t.Fatalf("pre-half-TTL get = %d records, complete=%v; want 2, complete", len(got), complete)
	}
	// Past ttl/2 the cached copy is gone; the primary remains.
	if got, _, complete := rs.get(new([]p2p.Result), key, t0.Add(31*time.Second), &valueQuery{communityID: "patterns", filter: fs, match: f}, setDigest{}); complete || len(got) != 1 || got[0].DocID != "d-0000" {
		t.Fatalf("post-half-TTL get = %+v, complete=%v; want only the primary", got, complete)
	}
	// Past the full TTL everything is gone.
	if got, _, _ := rs.get(new([]p2p.Result), key, t0.Add(61*time.Second), &valueQuery{communityID: "patterns", filter: fs, match: f}, setDigest{}); len(got) != 0 {
		t.Fatalf("post-TTL get = %+v, want empty", got)
	}
}

// TestCachedSetCompleteness: a cached set is served — and marked
// complete — only for the exact filter it was stored under, and a
// limit truncation strips the completeness claim.
func TestCachedSetCompleteness(t *testing.T) {
	rs := newRecordStore(time.Minute, 0)
	_, _, hits := countersFor(rs)
	key := KeyForCommunity("patterns")
	t0 := time.Unix(1000, 0)
	f := query.MustParse("(classification=behavioral)")
	fs := f.String()

	rs.putCached(key, []p2p.Result{rec(0, "peerB"), rec(1, "peerB")}, t0, fs)
	if got, _, complete := rs.get(new([]p2p.Result), key, t0, &valueQuery{communityID: "patterns", filter: fs, match: f}, setDigest{}); !complete || len(got) != 2 {
		t.Fatalf("exact-filter get = %d records, complete=%v; want 2, complete", len(got), complete)
	}
	if hits.Value() != 1 {
		t.Fatalf("cache hits = %d, want 1", hits.Value())
	}
	// A different filter must not touch the cached set.
	other := query.MustParse("(classification=creational)")
	if got, _, complete := rs.get(new([]p2p.Result), key, t0, &valueQuery{communityID: "patterns", filter: other.String(), match: other}, setDigest{}); complete || len(got) != 0 {
		t.Fatalf("other-filter get = %d records, complete=%v; want none, incomplete", len(got), complete)
	}
	if hits.Value() != 1 {
		t.Fatalf("cache hits after miss = %d, want still 1", hits.Value())
	}
	// Limit truncation: still served, no longer complete.
	if got, _, complete := rs.get(new([]p2p.Result), key, t0, &valueQuery{communityID: "patterns", filter: fs, match: f, limit: 1}, setDigest{}); complete || len(got) != 1 {
		t.Fatalf("limited get = %d records, complete=%v; want 1, incomplete", len(got), complete)
	}
}

// TestPutCachedNeverDisplacesPrimaries: when a key is at its cap with
// primaries alone, an arriving cached set is dropped whole rather
// than evicting a primary or installing partially.
func TestPutCachedNeverDisplacesPrimaries(t *testing.T) {
	rs := newRecordStore(time.Minute, 4)
	_, evicted, _ := countersFor(rs)
	key := KeyForCommunity("patterns")
	t0 := time.Unix(1000, 0)
	f := query.MustParse("(classification=behavioral)")
	fs := f.String()

	for i := 0; i < 4; i++ {
		rs.put(key, []p2p.Result{rec(i, "peerA")}, t0)
	}
	rs.putCached(key, []p2p.Result{rec(90, "peerB"), rec(91, "peerB")}, t0, fs)
	got, _, complete := rs.get(new([]p2p.Result), key, t0, &valueQuery{communityID: "patterns", filter: fs, match: f}, setDigest{})
	if complete || len(got) != 4 {
		t.Fatalf("get after rejected cache = %d records, complete=%v; want the 4 primaries, incomplete", len(got), complete)
	}
	for _, r := range got {
		if r.Provider == "peerB" {
			t.Fatalf("cached record installed despite full key: %+v", r)
		}
	}
	if evicted.Value() != 0 {
		t.Fatalf("evicted = %d, want 0 (path copies never displace primaries)", evicted.Value())
	}
}

// heldStore keeps BenchmarkRecordStoreGet's store reachable after it
// returns, so that `make heap-profile PKG=./internal/dht
// BENCH=RecordStoreGet` reads its posting lists as resident.
var heldStore *recordStore

// BenchmarkRecordStoreGet times one holder answering FIND_VALUE on a
// 240-record design-pattern key with the six filters of the ruler's
// tcp-dht-search workload, in turn: shipping the matching set, and
// asked for its digest only. "words" asks for one word of each of the
// other four searchable attributes, whose values are names and
// sentences: after it, the key holds lists for all six.
func BenchmarkRecordStoreGet(b *testing.B) {
	rs := newRecordStore(time.Hour, 0)
	key := KeyForCommunity("patterns")
	t0 := time.Unix(1000, 0)
	rs.put(key, patternRecords(240, "peerA"), t0)
	heldStore = rs
	ruler := []string{
		"(classification=behavioral)", "(classification=creational)", "(classification=structural)",
		"(keywords=wrapper)", "(&(classification=behavioral)(keywords=undo))", "(name=*)",
	}
	words := []string{"(name=Observer)", "(intent=object)", "(applicability=object)", "(participants=Subject)"}
	for _, bc := range []struct {
		name string
		ship bool
		srcs []string
	}{{"ship", true, ruler}, {"digest", false, ruler}, {"words", true, words}} {
		filters := make([]query.Filter, len(bc.srcs))
		for i, src := range bc.srcs {
			filters[i] = query.MustParse(src)
		}
		b.Run(bc.name, func(b *testing.B) {
			scratch := make([]p2p.Result, 0, 240)
			into := &scratch
			if !bc.ship {
				into = nil
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % len(filters)
				if _, dig, _ := rs.get(into, key, t0, &valueQuery{communityID: "patterns", filter: bc.srcs[j], match: filters[j]}, setDigest{}); dig.Count == 0 {
					b.Fatalf("%s: no records", bc.srcs[j])
				}
				if into != nil {
					clearRecords(into)
				}
			}
		})
	}
}
