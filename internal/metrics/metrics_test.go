package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
)

// TestRegistryConcurrentRecording hammers one registry from many
// goroutines — counters, histograms, vec labels, snapshots — and
// checks the totals. `make race` runs this under the
// race detector, which is the real assertion.
func TestRegistryConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("fn.sum", func() int64 { return 1 })
	reg.GaugeFunc("fn.sum", func() int64 { return 2 })

	const (
		workers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("test.counter")
			h := reg.Histogram("test.hist")
			vec := reg.CounterVec("test.vec", "kind")
			for i := 0; i < perW; i++ {
				c.Inc()
				h.Observe(int64(i))
				vec.With("a").Inc()
				if i%2 == 0 {
					vec.With("b").Inc()
				}
			}
		}(w)
	}
	// Snapshot concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = reg.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	s := reg.Snapshot()
	if got := s.Counter("test.counter"); got != workers*perW {
		t.Errorf("counter = %d, want %d", got, workers*perW)
	}
	if got := s.Label("test.vec", "a"); got != workers*perW {
		t.Errorf("vec[a] = %d, want %d", got, workers*perW)
	}
	if got := s.Label("test.vec", "b"); got != workers*perW/2 {
		t.Errorf("vec[b] = %d, want %d", got, workers*perW/2)
	}
	if got := s.Histograms["test.hist"].Count; got != workers*perW {
		t.Errorf("hist count = %d, want %d", got, workers*perW)
	}
	if got := s.Gauges["fn.sum"]; got != 3 {
		t.Errorf("sum gauge func = %d, want 3", got)
	}
}

// TestHistogramBucketBoundaries is the bucket-placement property test:
// for every exponent, the values 2^i-1, 2^i, and 2^i+1 land in the
// bucket whose bounds contain them, and random values obey
// 2^(idx-1) <= v <= BucketUpperBound(idx).
func TestHistogramBucketBoundaries(t *testing.T) {
	bucketOf := func(v int64) int {
		h := &Histogram{}
		h.Observe(v)
		for i := range h.buckets {
			if h.buckets[i].Load() == 1 {
				return i
			}
		}
		t.Fatalf("value %d landed in no bucket", v)
		return -1
	}

	if got := bucketOf(0); got != 0 {
		t.Errorf("bucket(0) = %d, want 0", got)
	}
	if got := bucketOf(-5); got != 0 {
		t.Errorf("bucket(-5) = %d, want 0 (clamped)", got)
	}
	for exp := 0; exp < 63; exp++ {
		edge := int64(1) << uint(exp) // bits.Len64 == exp+1, first value of bucket exp+1
		if got, want := bucketOf(edge), exp+1; got != want {
			t.Fatalf("bucket(2^%d) = %d, want %d", exp, got, want)
		}
		if edge > 1 {
			if got, want := bucketOf(edge-1), exp; got != want {
				t.Fatalf("bucket(2^%d-1) = %d, want %d", exp, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		v := rng.Int63()
		idx := bucketOf(v)
		if uint64(v) > BucketUpperBound(idx) {
			t.Fatalf("value %d above bucket %d upper bound %d", v, idx, BucketUpperBound(idx))
		}
		if idx > 0 && uint64(v) <= BucketUpperBound(idx-1) {
			t.Fatalf("value %d not above bucket %d's bound — belongs lower", v, idx-1)
		}
		if want := bits.Len64(uint64(v)); idx != want {
			t.Fatalf("bucket(%d) = %d, want bits.Len64 = %d", v, idx, want)
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a.msgs")
	h := reg.Histogram("a.lat")
	vec := reg.CounterVec("a.by_type", "type")
	c.Add(10)
	h.Observe(100)
	vec.With("x").Add(3)
	before := reg.Snapshot()
	c.Add(5)
	h.Observe(100)
	h.Observe(1 << 30)
	vec.With("x").Inc()
	vec.With("y").Inc()
	d := reg.Snapshot().Delta(before)
	if got := d.Counter("a.msgs"); got != 5 {
		t.Errorf("delta counter = %d, want 5", got)
	}
	if got := d.Label("a.by_type", "x"); got != 1 {
		t.Errorf("delta vec x = %d, want 1", got)
	}
	if got := d.Label("a.by_type", "y"); got != 1 {
		t.Errorf("delta vec y = %d, want 1", got)
	}
	dh := d.Histograms["a.lat"]
	if dh.Count != 2 {
		t.Errorf("delta hist count = %d, want 2", dh.Count)
	}
	total := int64(0)
	for _, b := range dh.Buckets {
		total += b.Count
	}
	if total != 2 {
		t.Errorf("delta hist bucket total = %d, want 2", total)
	}
	if d.Delta(nil) != d {
		t.Errorf("Delta(nil) should return the snapshot unchanged")
	}
}

func TestDiscardRegistryIsInert(t *testing.T) {
	reg := Discard()
	reg.Counter("x.y").Add(9)
	reg.Histogram("x.h").Observe(7)
	reg.CounterVec("x.v", "k").With("a").Inc()
	reg.GaugeFunc("x.f", func() int64 { t.Error("discard registry evaluated a gauge func"); return 0 })
	reg.CountError(errors.New("boom"))
	s := reg.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Labeled) != 0 || len(s.Histograms) != 0 {
		t.Errorf("discard snapshot not empty: %+v", s)
	}
}

func TestCountError(t *testing.T) {
	reg := NewRegistry()
	sentinel := errs.New("transport.unknown_peer", "transport: unknown peer")
	reg.CountError(sentinel)
	reg.CountError(errs.Wrap("dht.lookup_rpc", sentinel, "dht: lookup rpc"))
	reg.CountError(errors.New("plain"))
	reg.CountError(nil)
	s := reg.Snapshot()
	if got := s.Label(ErrorsVecName, "transport.unknown_peer"); got != 1 {
		t.Errorf("unknown_peer count = %d, want 1", got)
	}
	if got := s.Label(ErrorsVecName, "dht.lookup_rpc"); got != 1 {
		t.Errorf("wrapped code count = %d, want 1 (outermost code wins)", got)
	}
	if got := s.Label(ErrorsVecName, "unknown"); got != 1 {
		t.Errorf("uncoded count = %d, want 1", got)
	}
}

func TestExpositionFormats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("transport.msgs_delivered").Add(12)
	reg.GaugeFunc("index.docs", func() int64 { return 4 })
	reg.CounterVec("transport.msgs_by_type", "type").With("query").Add(7)
	reg.Histogram("p2p.search_latency_ns.gnutella").Observe(int64(3 * time.Millisecond))
	snap := reg.Snapshot()

	var jb bytes.Buffer
	if err := snap.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(jb.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v\n%s", err, jb.String())
	}
	if decoded["transport.msgs_delivered"] != float64(12) {
		t.Errorf("JSON counter = %v, want 12", decoded["transport.msgs_delivered"])
	}
	if decoded[`transport.msgs_by_type{type=query}`] != float64(7) {
		t.Errorf("JSON labeled counter missing: %s", jb.String())
	}

	var pb bytes.Buffer
	if err := snap.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	prom := pb.String()
	for _, want := range []string{
		"# TYPE up2p_transport_msgs_delivered counter",
		"up2p_transport_msgs_delivered 12",
		"up2p_index_docs 4",
		`up2p_transport_msgs_by_type{type="query"} 7`,
		"up2p_p2p_search_latency_ns_gnutella_bucket{le=\"+Inf\"} 1",
		"up2p_p2p_search_latency_ns_gnutella_count 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom)
		}
	}
}
