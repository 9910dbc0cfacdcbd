package sim

import (
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/dsim"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/trace"
)

// TestGoldenTraceTracingInert is the determinism guard for the span
// tracer: running the fully loaded golden scenario with per-query
// tracing at full sampling and with tracing disabled must produce
// bit-identical message traces on every protocol. The trace context
// rides in frame header fields the golden hash does not cover, span
// IDs come from per-node counters, and sampling never touches the
// scenario PRNG — so recording spans must never influence delivery
// order, message content, or loss decisions.
func TestGoldenTraceTracingInert(t *testing.T) {
	for _, proto := range []Protocol{Centralized, Gnutella, FastTrack, DHT} {
		t.Run(proto.String(), func(t *testing.T) {
			traced := goldenConfig(proto, 42)
			traced.TraceSample = 1
			r1, err := RunScenario(traced)
			if err != nil {
				t.Fatal(err)
			}

			plain := goldenConfig(proto, 42)
			r2, err := RunScenario(plain)
			if err != nil {
				t.Fatal(err)
			}

			if r1.TraceLen == 0 {
				t.Fatal("empty trace")
			}
			if r1.TraceLen != r2.TraceLen {
				t.Fatalf("trace lengths differ with tracing on/off: %d vs %d", r1.TraceLen, r2.TraceLen)
			}
			if r1.TraceHash != r2.TraceHash {
				t.Fatalf("trace hashes differ with tracing on/off: %x vs %x", r1.TraceHash, r2.TraceHash)
			}
			if r1.Queries != r2.Queries {
				t.Fatalf("query counts differ: %d vs %d", r1.Queries, r2.Queries)
			}
			if len(r1.Samples) != len(r2.Samples) {
				t.Fatalf("sample counts differ: %d vs %d", len(r1.Samples), len(r2.Samples))
			}
			for i := range r1.Samples {
				if r1.Samples[i] != r2.Samples[i] {
					t.Fatalf("sample %d differs: %+v vs %+v", i, r1.Samples[i], r2.Samples[i])
				}
			}
			// The traced run must have captured slow-query exemplars;
			// the untraced run must have captured none.
			if len(r1.SlowTraces) == 0 {
				t.Error("traced run kept no slow-query traces")
			}
			if len(r2.SlowTraces) != 0 {
				t.Errorf("untraced run kept %d traces", len(r2.SlowTraces))
			}
			for _, tree := range r1.SlowTraces {
				if tree.Root.Span.Op != "query" || tree.Root.Span.Node != "driver" {
					t.Errorf("slow trace rooted at %s@%s, want query@driver",
						tree.Root.Span.Op, tree.Root.Span.Node)
				}
			}
		})
	}
}

// TestTraceSpanTreeCompleteness is the structural property test for
// assembled traces: on a small fully-traced cluster of each protocol,
// every driver query must yield exactly one complete span tree — the
// root is the driver span, every non-root span's parent is present in
// the same tree, no span ends after the root ends, and the protocol
// work under the root actually sent messages.
func TestTraceSpanTreeCompleteness(t *testing.T) {
	const peers, queries = 16, 12
	for _, proto := range []Protocol{Centralized, Gnutella, FastTrack, DHT} {
		t.Run(proto.String(), func(t *testing.T) {
			c, err := NewCluster(Config{
				Peers:       peers,
				Protocol:    proto,
				DHT:         dht.Config{K: 4},
				Seed:        7,
				Latency:     10 * time.Millisecond,
				Jitter:      5 * time.Millisecond,
				Clock:       dsim.NewVirtualClock(),
				TraceSample: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			comm, err := c.SeedCommunity(0, spec())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.DiscoverAndJoinAll("patterns", 7); err != nil {
				t.Fatal(err)
			}
			objs := corpus.DesignPatterns(20, 7).Objects
			if _, err := c.PublishRoundRobin(comm.ID, objs); err != nil {
				t.Fatal(err)
			}

			f := query.MustParse("(name=*)")
			for q := 0; q < queries; q++ {
				sp := c.DriverTracer().Root("query")
				sp.SetCommunity(comm.ID)
				c.Net.ResetPath()
				rs, err := c.SearchFrom(q%peers, comm.ID, f,
					p2p.SearchOptions{TTL: 7, Trace: sp.Context()})
				sp.SetErr(err)
				sp.FinishWithDuration(c.Net.MaxPathLatency())
				if err != nil {
					t.Fatalf("query %d: %v", q, err)
				}
				if len(rs) == 0 {
					t.Fatalf("query %d found nothing", q)
				}
			}

			trees := c.TraceCollector().Assemble(trace.Filter{})
			if len(trees) != queries {
				t.Fatalf("assembled %d trees, want %d", len(trees), queries)
			}
			for _, tree := range trees {
				if tree.Partial {
					t.Fatalf("trace %016x assembled partial", tree.TraceID())
				}
				if tree.Root.Span.Op != "query" || tree.Root.Span.Node != "driver" {
					t.Errorf("root = %s@%s, want query@driver", tree.Root.Span.Op, tree.Root.Span.Node)
				}
				if tree.Spans < 2 {
					t.Errorf("trace %016x holds only %d spans; protocol work missing", tree.TraceID(), tree.Spans)
				}
				ids := make(map[uint64]bool, tree.Spans)
				tree.Walk(func(n *trace.Node) { ids[n.Span.ID] = true })
				rootEnd := tree.Root.Span.Start.Add(tree.Duration())
				var msgs int64
				tree.Walk(func(n *trace.Node) {
					s := n.Span
					msgs += s.Msgs
					if s.Parent != 0 && !ids[s.Parent] {
						t.Errorf("trace %016x: span %s@%s parent %x not in tree",
							tree.TraceID(), s.Op, s.Node, s.Parent)
					}
					if end := s.Start.Add(s.Duration); end.After(rootEnd) {
						t.Errorf("trace %016x: span %s@%s ends %s after root end",
							tree.TraceID(), s.Op, s.Node, end.Sub(rootEnd))
					}
				})
				if msgs == 0 {
					t.Errorf("trace %016x recorded zero messages across %d spans", tree.TraceID(), tree.Spans)
				}
			}
		})
	}
}
