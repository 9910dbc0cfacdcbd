package dht

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// probeCluster is n bootstrapped nodes whose telemetry and the network's
// delivery counters share one registry, and one published document: what
// a refresh round's traffic is read from. The publisher is the node
// farthest from the key, so it keeps no replica itself and never names
// itself among a holder's contacts.
type probeCluster struct {
	t     *testing.T
	net   *transport.MemNetwork
	reg   *metrics.Registry
	cfg   Config
	nodes []*Node
	pub   *Node
	key   ID
}

func newProbeCluster(t *testing.T, n int, cfg Config) *probeCluster {
	t.Helper()
	reg := metrics.NewRegistry()
	c := &probeCluster{t: t, net: transport.NewMemNetwork(transport.WithSeed(1), transport.WithMetrics(reg)),
		reg: reg, cfg: cfg, key: KeyForCommunity("patterns")}
	for i := 0; i < n; i++ {
		c.add(transport.PeerID(fmt.Sprintf("peer%03d", i)))
	}
	c.pub = c.nodes[0]
	for _, nd := range c.nodes {
		if CompareDistance(nd.self, c.pub.self, c.key) > 0 {
			c.pub = nd
		}
	}
	if err := c.pub.Publish(doc(1, "patterns", "structural")); err != nil {
		t.Fatal(err)
	}
	return c
}

// add attaches a node and, unless it is the first, runs its join.
func (c *probeCluster) add(id transport.PeerID) *Node {
	c.t.Helper()
	ep, err := c.net.Endpoint(id)
	if err != nil {
		c.t.Fatal(err)
	}
	nd := NewNode(ep, index.NewStore(), c.cfg)
	nd.SetMetrics(c.reg)
	if len(c.nodes) > 0 {
		nd.Bootstrap(c.nodes[0].PeerID())
	}
	c.nodes = append(c.nodes, nd)
	return nd
}

// node returns the cluster's node with the given peer ID.
func (c *probeCluster) node(id transport.PeerID) *Node {
	for _, nd := range c.nodes {
		if nd.PeerID() == id {
			return nd
		}
	}
	c.t.Fatalf("no node %s", id)
	return nil
}

// holders returns the publisher's remembered holders, closest first.
func (c *probeCluster) holders() []transport.PeerID {
	n := c.pub
	n.annMu.Lock()
	defer n.annMu.Unlock()
	return slices.Clone(n.lastAnnounce[c.key].holders)
}

// arrival joins a node closer to the key than the peer than.
func (c *probeCluster) arrival(than transport.PeerID) *Node {
	c.t.Helper()
	for i := 0; ; i++ {
		id := transport.PeerID(fmt.Sprintf("arrival%03d", i))
		if CompareDistance(NodeIDFor(id), NodeIDFor(than), c.key) < 0 {
			return c.add(id)
		}
	}
}

// refresh runs the publisher's Refresh and returns the traffic it caused
// and how many pings its CheckLiveness round sends.
func (c *probeCluster) refresh() (delta *metrics.Snapshot, livenessPings int64) {
	c.t.Helper()
	livenessPings = int64(len(c.pub.table.Oldest()))
	before := c.reg.Snapshot()
	if err := c.pub.Refresh(); err != nil {
		c.t.Fatal(err)
	}
	return c.reg.Snapshot().Delta(before), livenessPings
}

// knows fails the test unless nd's routing table holds peer: the
// scenario's precondition.
func (c *probeCluster) knows(nd *Node, peer transport.PeerID) {
	c.t.Helper()
	if !slices.ContainsFunc(nd.table.Closest(c.key, 0), func(ct Contact) bool { return ct.Peer == peer }) {
		c.t.Fatalf("set-up: %s does not route to %s", nd.PeerID(), peer)
	}
}

func sent(d *metrics.Snapshot, msgType string) int64 {
	return d.Label("transport.msgs_by_type", msgType)
}

// TestRefreshIntactKeyCost: on a quiescent cluster a refresh round is
// its liveness pings and their pongs plus one FIND_NODE round trip to a
// holder, which finds the key intact.
func TestRefreshIntactKeyCost(t *testing.T) {
	c := newProbeCluster(t, 16, Config{K: 3, Alpha: 2})
	d, pings := c.refresh()
	if got := sent(d, MsgPing); got != pings {
		t.Errorf("pings = %d, want the liveness round's %d", got, pings)
	}
	if got := sent(d, MsgFindNode); got != 1 {
		t.Errorf("find-node = %d, want 1", got)
	}
	if got, want := d.Counter("transport.msgs_delivered"), 2*pings+2; got != want {
		t.Errorf("messages = %d, want %d: %d pings, their pongs and one round trip", got, want, pings)
	}
	if got := d.Counter("dht.republishes_skipped"); got != 1 {
		t.Errorf("republishes_skipped = %d, want 1", got)
	}
	if got := d.Counter("dht.lookups"); got != 0 {
		t.Errorf("lookups = %d, want 0", got)
	}
}

// TestRefreshStoresToCloserArrival: a peer that joins closer to the key
// than a remembered holder is named by the probed holder, pinged once,
// and gets the records, with no iterative lookup.
func TestRefreshStoresToCloserArrival(t *testing.T) {
	const k = 3
	c := newProbeCluster(t, 16, Config{K: k, Alpha: 2})
	hs := c.holders()
	if len(hs) != k {
		t.Fatalf("set-up: %d holders, want %d", len(hs), k)
	}
	arr := c.arrival(hs[k-1])
	c.knows(c.node(hs[0]), arr.PeerID())
	d, pings := c.refresh()
	if got := d.Counter("dht.lookups"); got != 0 {
		t.Errorf("lookups = %d, want 0", got)
	}
	if got := sent(d, MsgFindNode); got != 1 {
		t.Errorf("find-node = %d, want 1", got)
	}
	if got := sent(d, MsgPing); got != pings+1 {
		t.Errorf("pings = %d, want the liveness round's %d and the arrival's", got, pings)
	}
	if got := d.Counter("dht.store_fanout"); got != k {
		t.Errorf("store_fanout = %d, want %d", got, k)
	}
	if got := arr.RecordCount(); got != 1 {
		t.Errorf("arrival holds %d records, want 1", got)
	}
	if got := c.holders(); !slices.Contains(got, arr.PeerID()) || slices.Contains(got, hs[k-1]) {
		t.Errorf("holders after refresh = %v: want the arrival in place of %s", got, hs[k-1])
	}
}

// TestRefreshProbeSkipsDeadHolder: when the closest remembered holder is
// dead the next one answers, and a dead peer it still names fails its
// ping instead of displacing a live holder. The answering holder has not
// evicted the first one yet, so the key reads intact this round.
func TestRefreshProbeSkipsDeadHolder(t *testing.T) {
	const k = 3
	c := newProbeCluster(t, 16, Config{K: k, Alpha: 2})
	hs := c.holders()
	if len(hs) != k {
		t.Fatalf("set-up: %d holders, want %d", len(hs), k)
	}
	ghost := c.arrival(hs[k-1])
	c.knows(c.node(hs[1]), ghost.PeerID())
	c.knows(c.node(hs[1]), hs[0])
	for _, dead := range []*Node{c.node(hs[0]), ghost} {
		if err := dead.Close(); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := c.refresh()
	if got := d.Counter("dht.lookups"); got != 0 {
		t.Errorf("lookups = %d, want 0: the second holder answered", got)
	}
	if got := sent(d, MsgFindNode); got != 1 {
		t.Errorf("find-node delivered = %d, want 1", got)
	}
	if got := d.Counter("dht.store_fanout"); got != 0 {
		t.Errorf("store_fanout = %d, want 0: the dead arrival displaced %s", got, hs[k-1])
	}
	if got := d.Counter("dht.republishes_skipped"); got != 1 {
		t.Errorf("republishes_skipped = %d, want 1", got)
	}
}
