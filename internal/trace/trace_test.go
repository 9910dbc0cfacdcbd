package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dsim"
	"repro/internal/errs"
)

func TestRingEvictionOldestFirst(t *testing.T) {
	tr := New("n0", "gnutella", WithRingSize(4))
	for i := 0; i < 10; i++ {
		sp := tr.Root(fmt.Sprintf("op%d", i))
		sp.Finish()
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot holds %d spans, want ring size 4", len(snap))
	}
	for i, s := range snap {
		want := fmt.Sprintf("op%d", 6+i)
		if s.Op != want {
			t.Errorf("snapshot[%d].Op = %q, want %q (oldest-first after eviction)", i, s.Op, want)
		}
	}
}

func TestPartialRingSnapshot(t *testing.T) {
	tr := New("n0", "dht", WithRingSize(8))
	for _, op := range []string{"a", "b"} {
		sp := tr.Root(op)
		sp.Finish()
	}
	snap := tr.Snapshot()
	if len(snap) != 2 || snap[0].Op != "a" || snap[1].Op != "b" {
		t.Fatalf("partial snapshot = %+v, want [a b]", snap)
	}
}

func TestSamplingExact(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want int
	}{{0, 0}, {1, 100}, {0.25, 25}, {0.5, 50}} {
		tr := New("n0", "dht", WithSampling(tc.rate))
		kept := 0
		for i := 0; i < 100; i++ {
			sp := tr.Root("q")
			if sp.Context().Valid() {
				kept++
				sp.Finish()
			}
		}
		if kept != tc.want {
			t.Errorf("rate %g admitted %d of 100 roots, want exactly %d", tc.rate, kept, tc.want)
		}
	}
}

func TestSamplingDeterministic(t *testing.T) {
	pattern := func() []bool {
		tr := New("n0", "dht", WithSampling(0.3))
		out := make([]bool, 40)
		for i := range out {
			sp := tr.Root("q")
			out[i] = sp.Context().Valid()
			sp.Finish()
		}
		return out
	}
	a, b := pattern(), pattern()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampling decision %d differs between identical tracers", i)
		}
	}
}

// TestDisabledZeroAlloc pins the hot-path contract: with tracing
// disabled (nil tracer, zero sampling, or an unsampled context) the
// whole span lifecycle must not allocate.
func TestDisabledZeroAlloc(t *testing.T) {
	var nilTr *Tracer
	zero := New("n0", "dht", WithSampling(0))
	live := New("n1", "dht")
	cases := map[string]func(){
		"nil tracer": func() {
			sp := nilTr.Root("q")
			sp.SetPeer("p")
			sp.SetCommunity("c")
			sp.AddMsgs(1, 64)
			sp.SetErr(nil)
			child := nilTr.Start(sp.Context(), "child")
			child.Finish()
			sp.Finish()
		},
		"zero sampling": func() {
			sp := zero.Root("q")
			sp.AddMsgs(1, 64)
			sp.Finish()
		},
		"unsampled context": func() {
			sp := live.Start(Context{}, "child")
			sp.SetPeer("p")
			sp.Finish()
		},
		"nil pointer receiver": func() {
			var sp *ActiveSpan
			sp.SetPeer("p")
			sp.AddMsgs(1, 1)
			sp.Finish()
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per op, want 0", name, allocs)
		}
	}
}

func TestSpanIDsClusterUnique(t *testing.T) {
	a := New("peer000", "dht")
	b := New("peer001", "dht")
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		for _, tr := range []*Tracer{a, b} {
			sp := tr.Root("q")
			id := sp.Context().Span
			if id == 0 {
				t.Fatal("minted zero span ID")
			}
			if seen[id] {
				t.Fatalf("duplicate span ID %x across tracers", id)
			}
			seen[id] = true
			sp.Finish()
		}
	}
}

func TestSetErrRecordsCode(t *testing.T) {
	tr := New("n0", "dht")
	sp := tr.Root("q")
	sp.SetErr(fmt.Errorf("wrapped: %w", errs.New("dht.lookup_rpc", "boom")))
	sp.Finish()
	snap := tr.Snapshot()
	if len(snap) != 1 || snap[0].Err != "dht.lookup_rpc" {
		t.Fatalf("span err = %+v, want code dht.lookup_rpc", snap)
	}
}

// buildTestTrace assembles a three-node cross-"node" trace on a
// virtual clock: driver root (50ms), a search child on peer000, and a
// handler grandchild on peer001 offset 25ms into the query.
func buildTestTrace(t *testing.T) (*Collector, *Tracer) {
	t.Helper()
	clk := dsim.NewVirtualClock()
	driver := New("driver", "gnutella", WithClock(clk))
	n1 := New("peer000", "gnutella", WithClock(clk), WithSampling(0))
	n2 := New("peer001", "gnutella", WithClock(clk), WithSampling(0))
	col := NewCollector()
	col.Attach(driver)
	col.Attach(n1)
	col.Attach(n2)
	col.Attach(nil) // must be ignored

	root := driver.Root("query")
	root.SetCommunity("c1")
	search := n1.Start(root.Context(), "search")
	search.AddMsgs(2, 128)
	handler := n2.StartAt(search.Context(), "query", 25*time.Millisecond)
	handler.SetPeer("peer000")
	handler.Finish()
	search.Finish()
	root.FinishWithDuration(50 * time.Millisecond)
	return col, driver
}

func TestCollectorAssemble(t *testing.T) {
	col, _ := buildTestTrace(t)
	trees := col.Assemble(Filter{})
	if len(trees) != 1 {
		t.Fatalf("assembled %d trees, want 1", len(trees))
	}
	tree := trees[0]
	if tree.Partial {
		t.Error("complete trace marked partial")
	}
	if tree.Spans != 3 {
		t.Errorf("tree has %d spans, want 3", tree.Spans)
	}
	if tree.Root.Span.Op != "query" || tree.Root.Span.Node != "driver" {
		t.Errorf("root = %s@%s, want query@driver", tree.Root.Span.Op, tree.Root.Span.Node)
	}
	if tree.Duration() != 50*time.Millisecond {
		t.Errorf("root duration = %s, want 50ms", tree.Duration())
	}
	// Completeness: every non-root span's parent is in the tree, and
	// no span ends after the root.
	ids := make(map[uint64]bool)
	tree.Walk(func(n *Node) { ids[n.Span.ID] = true })
	rootEnd := tree.Root.Span.Start.Add(tree.Duration())
	tree.Walk(func(n *Node) {
		if n.Span.Parent != 0 && !ids[n.Span.Parent] {
			t.Errorf("span %s has missing parent %x", n.Span.Op, n.Span.Parent)
		}
		if end := n.Span.Start.Add(n.Span.Duration); end.After(rootEnd) {
			t.Errorf("span %s ends at %s, after root end %s", n.Span.Op, end, rootEnd)
		}
	})
	// The 25ms hop offset must survive into the grandchild's start.
	search := tree.Root.Children[0]
	if len(search.Children) != 1 {
		t.Fatalf("search has %d children, want 1", len(search.Children))
	}
	if off := search.Children[0].Span.Start.Sub(tree.Root.Span.Start); off != 25*time.Millisecond {
		t.Errorf("handler span offset = %s, want 25ms", off)
	}
}

func TestCollectorFilter(t *testing.T) {
	col, _ := buildTestTrace(t)
	for _, tc := range []struct {
		f    Filter
		want int
	}{
		{Filter{}, 1},
		{Filter{Proto: "gnutella"}, 1},
		{Filter{Proto: "gnutella", Community: "c1"}, 1},
		{Filter{Proto: "dht"}, 0},
		{Filter{Community: "nope"}, 0},
	} {
		if got := len(col.Assemble(tc.f)); got != tc.want {
			t.Errorf("Assemble(%+v) = %d trees, want %d", tc.f, got, tc.want)
		}
	}
}

func TestCollectorPartialTree(t *testing.T) {
	tr := New("n0", "dht")
	col := NewCollector()
	col.Attach(tr)
	// A child whose parent was never gathered (e.g. recorded on a peer
	// this collector cannot see) must surface as a partial tree, not
	// vanish.
	orphan := tr.StartAt(Context{Trace: 0xabc, Span: 0x999}, "findnode.serve", 0)
	orphan.Finish()
	trees := col.Assemble(Filter{})
	if len(trees) != 1 || !trees[0].Partial {
		t.Fatalf("orphan span assembled as %+v, want one partial tree", trees)
	}
	if trees[0].Root.Span.Op != "findnode.serve" {
		t.Errorf("partial root op = %q", trees[0].Root.Span.Op)
	}
}

func TestRecentAndSlowest(t *testing.T) {
	clk := dsim.NewVirtualClock()
	tr := New("driver", "dht", WithClock(clk))
	col := NewCollector()
	col.Attach(tr)
	durs := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 90 * time.Millisecond}
	for i, d := range durs {
		sp := tr.Root(fmt.Sprintf("q%d", i))
		sp.FinishWithDuration(d)
	}
	slow := col.Slowest(Filter{}, 2)
	if len(slow) != 2 || slow[0].Duration() != 90*time.Millisecond || slow[1].Duration() != 30*time.Millisecond {
		t.Errorf("Slowest(2) durations wrong: %+v", slow)
	}
	// All roots share the frozen virtual start, so Recent falls back
	// to trace-ID order; it must still be deterministic and capped.
	recent := col.Recent(Filter{}, 2)
	if len(recent) != 2 {
		t.Errorf("Recent(2) returned %d trees", len(recent))
	}
}

func TestTracerConcurrency(t *testing.T) {
	tr := New("n0", "dht", WithRingSize(64))
	col := NewCollector()
	col.Attach(tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Root("q")
				sp.AddMsgs(1, 10)
				sp.Finish()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			col.Assemble(Filter{})
		}
	}()
	wg.Wait()
	if got := len(tr.Snapshot()); got != 64 {
		t.Fatalf("full ring snapshot = %d spans, want 64", got)
	}
}
