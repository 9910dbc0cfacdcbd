package trace

import (
	"sort"
	"sync"
	"time"
)

// Collector assembles cross-node span trees from a set of tracers —
// the simulation attaches one tracer per simulated peer plus the
// scenario driver's, the daemon attaches its single node's.
type Collector struct {
	mu      sync.Mutex
	tracers []*Tracer
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach registers a tracer's ring for gathering. Nil tracers are
// ignored so call sites need no enabled-check.
func (c *Collector) Attach(t *Tracer) {
	if c == nil || t == nil {
		return
	}
	c.mu.Lock()
	c.tracers = append(c.tracers, t)
	c.mu.Unlock()
}

// Gather snapshots every attached ring.
func (c *Collector) Gather() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	tracers := make([]*Tracer, len(c.tracers))
	copy(tracers, c.tracers)
	c.mu.Unlock()
	var out []Span
	for _, t := range tracers {
		out = append(out, t.Snapshot()...)
	}
	return out
}

// Node is one span and its children in an assembled tree.
type Node struct {
	Span     Span
	Children []*Node
}

// Tree is one assembled trace. Partial marks a tree whose root's
// parent span was not gathered (evicted from a ring, or recorded on
// a node this collector cannot see — the normal case for a single
// daemon tracing queries that transit remote peers).
type Tree struct {
	Root    *Node
	Partial bool
	Spans   int
}

// TraceID returns the trace this tree belongs to.
func (t *Tree) TraceID() uint64 { return t.Root.Span.Trace }

// Duration returns the root span's duration.
func (t *Tree) Duration() time.Duration { return t.Root.Span.Duration }

// Walk visits every node in the tree, parents before children.
func (t *Tree) Walk(fn func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		fn(n)
		for _, ch := range n.Children {
			rec(ch)
		}
	}
	rec(t.Root)
}

// Filter restricts which trees Assemble returns. Empty fields are
// wildcards; a tree matches when any of its spans carries the
// requested protocol and community labels.
type Filter struct {
	Proto     string
	Community string
}

func (f Filter) matches(t *Tree) bool {
	if f.Proto == "" && f.Community == "" {
		return true
	}
	ok := false
	t.Walk(func(n *Node) {
		if ok {
			return
		}
		if f.Proto != "" && n.Span.Proto != f.Proto {
			return
		}
		if f.Community != "" && n.Span.Community != f.Community {
			return
		}
		ok = true
	})
	return ok
}

// Assemble gathers all rings and links spans into trees by
// (Trace, Parent). Spans whose parent was not gathered become roots
// of Partial trees. Output is deterministic: children are ordered by
// (start, span ID) and trees by (root start, trace ID, root ID).
func (c *Collector) Assemble(f Filter) []*Tree {
	spans := c.Gather()
	byTrace := make(map[uint64][]Span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var trees []*Tree
	for _, group := range byTrace {
		nodes := make(map[uint64]*Node, len(group))
		for _, s := range group {
			nodes[s.ID] = &Node{Span: s}
		}
		for _, n := range nodes {
			if n.Span.Parent != 0 {
				if p, ok := nodes[n.Span.Parent]; ok && p != n {
					p.Children = append(p.Children, n)
					continue
				}
			}
		}
		for _, n := range nodes {
			if n.Span.Parent == 0 {
				trees = append(trees, &Tree{Root: n, Spans: countNodes(n)})
			} else if _, ok := nodes[n.Span.Parent]; !ok {
				trees = append(trees, &Tree{Root: n, Partial: true, Spans: countNodes(n)})
			}
		}
	}
	for _, t := range trees {
		t.Walk(func(n *Node) {
			sort.Slice(n.Children, func(i, j int) bool {
				a, b := n.Children[i].Span, n.Children[j].Span
				if !a.Start.Equal(b.Start) {
					return a.Start.Before(b.Start)
				}
				return a.ID < b.ID
			})
		})
	}
	sort.Slice(trees, func(i, j int) bool {
		a, b := trees[i].Root.Span, trees[j].Root.Span
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		return a.ID < b.ID
	})
	out := trees[:0]
	for _, t := range trees {
		if f.matches(t) {
			out = append(out, t)
		}
	}
	return out
}

func countNodes(n *Node) int {
	total := 1
	for _, ch := range n.Children {
		total += countNodes(ch)
	}
	return total
}

// Recent returns the n most recently started trees matching f,
// newest first.
func (c *Collector) Recent(f Filter, n int) []*Tree {
	trees := c.Assemble(f)
	// Assemble orders oldest-first; reverse and truncate.
	for i, j := 0, len(trees)-1; i < j; i, j = i+1, j-1 {
		trees[i], trees[j] = trees[j], trees[i]
	}
	if n > 0 && len(trees) > n {
		trees = trees[:n]
	}
	return trees
}

// Slowest returns the n trees with the largest root durations
// matching f, slowest first — the slow-query exemplars the scenario
// harness and /debug/traces surface.
func (c *Collector) Slowest(f Filter, n int) []*Tree {
	trees := c.Assemble(f)
	sort.SliceStable(trees, func(i, j int) bool {
		return trees[i].Duration() > trees[j].Duration()
	})
	if n > 0 && len(trees) > n {
		trees = trees[:n]
	}
	return trees
}
