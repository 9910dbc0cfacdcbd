// Package sim assembles multi-peer U-P2P deployments on the in-memory
// network for the repeatable experiments of EXPERIMENTS.md: N servents
// over either protocol, seeded overlay topologies, workload drivers
// and message accounting.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/dsim"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/xmldoc"
)

// Protocol selects the network layer under the servents.
type Protocol int

// Supported protocols: the three named in the paper's Fig. 3
// enumeration plus the structured overlay the paper leaves
// unexplored.
const (
	Centralized Protocol = iota + 1
	Gnutella
	// FastTrack is the super-peer hybrid: leaves register with a
	// super-peer; queries flood the (small) super-peer overlay.
	FastTrack
	// DHT is the Kademlia-style structured overlay (internal/dht):
	// publications replicate onto the k nodes closest to their
	// community key and searches route there in O(log n) hops.
	DHT
)

func (p Protocol) String() string {
	switch p {
	case Centralized:
		return "centralized"
	case Gnutella:
		return "gnutella"
	case FastTrack:
		return "fasttrack"
	case DHT:
		return "dht"
	default:
		return "protocol?"
	}
}

// Config describes a cluster to build.
type Config struct {
	// Peers is the number of servents.
	Peers int
	// Protocol selects the overlay: centralized, gnutella, fasttrack
	// or dht.
	Protocol Protocol
	// Degree is the Gnutella overlay degree (ring + random chords);
	// ignored for centralized. Default 4.
	Degree int
	// SuperPeers is the number of FastTrack super-peers (default
	// max(2, Peers/8)); ignored for other protocols.
	SuperPeers int
	// DHT configures every DHT node (zero fields take the dht package
	// defaults); ignored for other protocols.
	DHT dht.Config
	// PeerLoad enables per-receiver message counting on the network
	// (transport.WithPeerLoad) — what hotspot experiments read per-node
	// load skew from.
	PeerLoad bool
	// Seed drives topology and fault randomness.
	Seed int64
	// DropRate is the per-message loss probability.
	DropRate float64
	// Latency is the per-hop virtual latency.
	Latency time.Duration
	// Jitter spreads per-link latency by ±Jitter around Latency,
	// deterministically per link (see linkLatency).
	Jitter time.Duration
	// Clock paces protocol timeouts and scenario events; nil means the
	// wall clock. Scenarios install a dsim.VirtualClock so runs never
	// wait in real time.
	Clock dsim.Clock
	// Trace enables message-trace hashing on the network (golden-trace
	// determinism tests).
	Trace bool
	// TraceSample enables distributed per-query tracing at the given
	// head-sampling rate in [0,1]: the scenario driver roots a trace
	// for that fraction of generated queries, and every node records
	// the child spans those queries touch into a small per-node ring.
	// Zero (the default) leaves every tracer nil — the zero-allocation
	// disabled state. Either way the golden trace hash is unaffected:
	// the trace context rides in frame header fields the hash does not
	// cover, and span IDs/sampling never touch the scenario PRNG.
	TraceSample float64
	// Metrics is the registry the whole cluster records into — the
	// network, every peer's protocol node, and every store share it, so
	// one snapshot covers the deployment. Nil means a fresh private
	// registry; pass metrics.Discard() to turn telemetry off.
	Metrics *metrics.Registry
}

// Cluster is a running multi-peer deployment.
type Cluster struct {
	// Net is the underlying instrumented network.
	Net *transport.MemNetwork
	// Server is the central index (nil except under Centralized).
	Server *p2p.IndexServer
	// Servents are the peers, index-addressable. Slots of departed
	// peers stay occupied (Alive reports liveness); arrivals append.
	Servents []*core.Servent

	cfg    Config
	clock  dsim.Clock
	nodes  []*p2p.GnutellaNode // parallel to Servents under Gnutella
	dhts   []*dht.Node         // parallel to Servents under DHT
	supers []*p2p.SuperPeer    // FastTrack super-peer overlay
	// leafSuper maps servent index to its super-peer (FastTrack);
	// -1 when the super failed and the leaf has not rehomed yet.
	leafSuper  []int
	alive      []bool
	superAlive []bool
	rng        *rand.Rand
	reg        *metrics.Registry
	collector  *trace.Collector
	driverTr   *trace.Tracer
}

// simTraceRing bounds each node's span ring in simulations: big
// enough to hold the spans of the slowest queries a scenario keeps,
// small enough that thousand-peer clusters stay cheap.
const simTraceRing = 512

// NewCluster builds and wires a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Peers <= 0 {
		return nil, fmt.Errorf("sim: need at least one peer")
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 4
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	opts := []transport.MemOption{
		transport.WithSeed(cfg.Seed),
		transport.WithMetrics(reg),
		transport.WithLatencyModel(linkLatency(cfg.Seed, cfg.Latency, cfg.Jitter)),
	}
	if cfg.DropRate > 0 {
		opts = append(opts, transport.WithDropRate(cfg.DropRate))
	}
	if cfg.Trace {
		opts = append(opts, transport.WithTrace())
	}
	if cfg.PeerLoad {
		opts = append(opts, transport.WithPeerLoad())
	}
	net := transport.NewMemNetwork(opts...)
	clk := cfg.Clock
	if clk == nil {
		clk = dsim.Wall
	}
	c := &Cluster{Net: net, cfg: cfg, clock: clk, rng: rand.New(rand.NewSource(cfg.Seed)), reg: reg}
	if cfg.TraceSample > 0 {
		// Per-node tracers are created with sampling 0: only the
		// scenario driver roots traces, so every recorded span tree
		// descends from a driver-issued query and the root's duration
		// is the driver-measured query latency.
		c.collector = trace.NewCollector()
		c.driverTr = trace.New("driver", cfg.Protocol.String(),
			trace.WithClock(clk), trace.WithSampling(cfg.TraceSample))
		c.collector.Attach(c.driverTr)
	}

	switch cfg.Protocol {
	case Centralized:
		sep, err := net.Endpoint("server")
		if err != nil {
			return nil, err
		}
		c.Server = p2p.NewIndexServerOn(sep, index.NewStore(index.WithMetrics(reg)))
		c.wire(c.Server)
	case Gnutella, DHT:
		// Peers carry the whole overlay; nothing global to set up.
	case FastTrack:
		superN := cfg.SuperPeers
		if superN <= 0 {
			superN = cfg.Peers / 8
			if superN < 2 {
				superN = 2
			}
		}
		for i := 0; i < superN; i++ {
			ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("super%03d", i)))
			if err != nil {
				return nil, err
			}
			sp := p2p.NewSuperPeer(ep)
			c.wire(sp)
			c.supers = append(c.supers, sp)
			c.superAlive = append(c.superAlive, true)
		}
		// Full mesh: super-peer counts are small (N/8), and a mesh keeps
		// the overlay connected under super-peer failures, so failover
		// recovery is limited by re-registration, not by topology luck.
		for i := 0; i < superN; i++ {
			for j := 0; j < superN; j++ {
				if i != j {
					c.supers[i].AddNeighbor(c.supers[j].PeerID())
				}
			}
		}
	default:
		return nil, fmt.Errorf("sim: unknown protocol %v", cfg.Protocol)
	}
	for i := 0; i < cfg.Peers; i++ {
		if _, err := c.newPeer(); err != nil {
			return nil, err
		}
	}
	switch cfg.Protocol {
	case Gnutella:
		c.wireOverlay(cfg.Degree)
	case DHT:
		// Kademlia join: everyone bootstraps off peer 0 and looks up
		// its own ID, populating tables along the way. Fixed iteration
		// order keeps construction traffic deterministic.
		for i := 1; i < len(c.dhts); i++ {
			c.dhts[i].Bootstrap(c.dhts[0].PeerID())
		}
	}
	return c, nil
}

// newPeer attaches one servent of the cluster's protocol, returning
// its index. It does not wire Gnutella overlay links.
func (c *Cluster) newPeer() (int, error) {
	i := len(c.Servents)
	ep, err := c.Net.Endpoint(peerID(i))
	if err != nil {
		return -1, err
	}
	st := index.NewStore(index.WithMetrics(c.reg))
	var netw p2p.Network
	switch c.cfg.Protocol {
	case Centralized:
		client := p2p.NewCentralizedClient(ep, "server", st)
		c.wire(client)
		netw = client
	case Gnutella:
		node := p2p.NewGnutellaNode(ep, st)
		c.wire(node)
		c.nodes = append(c.nodes, node)
		netw = node
	case DHT:
		node := dht.NewNode(ep, st, c.cfg.DHT)
		c.wire(node)
		c.dhts = append(c.dhts, node)
		netw = node
	case FastTrack:
		var superIdx int
		if i < c.cfg.Peers {
			// Construction: round-robin, the historical placement.
			superIdx = i % len(c.supers)
		} else {
			// Churn arrival: a random live super-peer.
			live := c.liveSupers()
			if len(live) == 0 {
				return -1, fmt.Errorf("sim: no live super-peer for arrival")
			}
			superIdx = live[c.rng.Intn(len(live))]
		}
		leaf := p2p.NewFastTrackLeaf(ep, c.supers[superIdx].PeerID(), st)
		c.wire(leaf)
		c.leafSuper = append(c.leafSuper, superIdx)
		netw = leaf
	default:
		return -1, fmt.Errorf("sim: unknown protocol %v", c.cfg.Protocol)
	}
	sv, err := core.NewServent(netw, st)
	if err != nil {
		return -1, err
	}
	c.Servents = append(c.Servents, sv)
	c.alive = append(c.alive, true)
	return i, nil
}

// AddPeer attaches a new servent mid-run — a churn arrival. Under
// Gnutella the newcomer links to Degree random live peers (its
// bootstrap neighbors); under FastTrack it registers with a random
// live super-peer; under DHT it runs the Kademlia join off a random
// live peer. The caller typically follows with AdoptCommunity and
// publication on the returned servent.
func (c *Cluster) AddPeer() (int, error) {
	i, err := c.newPeer()
	if err != nil {
		return -1, err
	}
	switch c.cfg.Protocol {
	case Gnutella:
		var candidates []int
		for j := range c.nodes {
			if j != i && c.alive[j] && c.nodes[j] != nil {
				candidates = append(candidates, j)
			}
		}
		c.rng.Shuffle(len(candidates), func(a, b int) {
			candidates[a], candidates[b] = candidates[b], candidates[a]
		})
		links := c.cfg.Degree
		if links > len(candidates) {
			links = len(candidates)
		}
		for _, j := range candidates[:links] {
			c.nodes[i].AddNeighbor(c.nodes[j].PeerID())
			c.nodes[j].AddNeighbor(c.nodes[i].PeerID())
		}
	case DHT:
		var candidates []int
		for j := range c.dhts {
			if j != i && c.alive[j] && c.dhts[j] != nil {
				candidates = append(candidates, j)
			}
		}
		if len(candidates) > 0 {
			boot := candidates[c.rng.Intn(len(candidates))]
			c.dhts[i].Bootstrap(c.dhts[boot].PeerID())
		}
	}
	return i, nil
}

// Alive reports whether servent i is still attached.
func (c *Cluster) Alive(i int) bool { return c.alive[i] }

// LivePeers returns the indexes of live servents, ascending.
func (c *Cluster) LivePeers() []int { return c.appendLive(nil) }

// appendLive appends the indexes of live servents to out, ascending.
func (c *Cluster) appendLive(out []int) []int {
	for i, a := range c.alive {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// node is the wiring surface every node kind gets from the p2p.Peer it
// embeds.
type node interface {
	PeerID() transport.PeerID
	SetClock(dsim.Clock)
	SetMetrics(*metrics.Registry)
	SetTracer(*trace.Tracer)
}

// wire points a freshly built node at the cluster's clock, registry and
// (when tracing is on) its own span recorder — before the node sees
// traffic, as p2p.Peer asks.
func (c *Cluster) wire(n node) {
	n.SetClock(c.clock)
	n.SetMetrics(c.reg)
	n.SetTracer(c.nodeTracer(n.PeerID()))
}

// nodeTracer mints one node's span recorder and attaches it to the
// cluster collector; nil (tracing disabled) when TraceSample is 0.
func (c *Cluster) nodeTracer(id transport.PeerID) *trace.Tracer {
	if c.collector == nil {
		return nil
	}
	t := trace.New(string(id), c.cfg.Protocol.String(),
		trace.WithClock(c.clock), trace.WithRingSize(simTraceRing), trace.WithSampling(0))
	c.collector.Attach(t)
	return t
}

// Tracing reports whether per-query tracing is enabled.
func (c *Cluster) Tracing() bool { return c.collector != nil }

// TraceCollector returns the cluster's span collector (nil when
// tracing is disabled).
func (c *Cluster) TraceCollector() *trace.Collector { return c.collector }

// DriverTracer returns the tracer scenario drivers root query traces
// on (nil when tracing is disabled).
func (c *Cluster) DriverTracer() *trace.Tracer { return c.driverTr }

func (c *Cluster) liveSupers() []int {
	var out []int
	for s, a := range c.superAlive {
		if a {
			out = append(out, s)
		}
	}
	return out
}

// FailSuperPeer kills super-peer s: its endpoint closes, surviving
// super-peers unlink it, and its leaves are orphaned — unable to
// search or be found — until RehomeOrphans runs. The gap between the
// two calls is the failure-detection delay, which scenarios model on
// the virtual clock.
func (c *Cluster) FailSuperPeer(s int) {
	if s < 0 || s >= len(c.supers) || !c.superAlive[s] {
		return
	}
	c.superAlive[s] = false
	dead := c.supers[s]
	_ = dead.Close()
	for j, other := range c.supers {
		if j != s && c.superAlive[j] {
			other.RemoveNeighbor(dead.PeerID())
		}
	}
	for i, sp := range c.leafSuper {
		if sp == s {
			c.leafSuper[i] = -1
		}
	}
}

// RehomeOrphans re-attaches every live leaf whose super-peer failed to
// a random live super-peer, re-registering its documents (FastTrack's
// leaf re-registration). It returns how many leaves moved.
func (c *Cluster) RehomeOrphans() (int, error) {
	if c.cfg.Protocol != FastTrack {
		return 0, nil
	}
	live := c.liveSupers()
	if len(live) == 0 {
		return 0, fmt.Errorf("sim: no live super-peers to rehome onto")
	}
	moved := 0
	for i, sp := range c.leafSuper {
		if sp != -1 || !c.alive[i] {
			continue
		}
		leaf, ok := c.Servents[i].Network().(*p2p.FastTrackLeaf)
		if !ok {
			continue
		}
		target := live[c.rng.Intn(len(live))]
		if err := leaf.Rehome(c.supers[target].PeerID()); err != nil {
			return moved, fmt.Errorf("sim: rehome peer %d: %w", i, err)
		}
		c.leafSuper[i] = target
		moved++
	}
	return moved, nil
}

// InstallCommunityAll installs comm on every live servent directly,
// without discovery traffic: the out-of-band bootstrap used by large
// scenarios where per-peer discovery floods would swamp the measured
// workload. Peers that already joined are skipped.
func (c *Cluster) InstallCommunityAll(comm *core.Community) error {
	for i, sv := range c.Servents {
		if !c.alive[i] || sv.IsJoined(comm.ID) {
			continue
		}
		if err := sv.AdoptCommunity(comm); err != nil {
			return fmt.Errorf("sim: install community on peer %d: %w", i, err)
		}
	}
	return nil
}

func peerID(i int) transport.PeerID {
	return transport.PeerID(fmt.Sprintf("peer%03d", i))
}

// wireOverlay links a ring plus random chords for diameter reduction:
// deterministic under the cluster seed.
func (c *Cluster) wireOverlay(degree int) {
	n := len(c.nodes)
	if n < 2 {
		return
	}
	link := func(a, b int) {
		if a == b {
			return
		}
		c.nodes[a].AddNeighbor(c.nodes[b].PeerID())
		c.nodes[b].AddNeighbor(c.nodes[a].PeerID())
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	extra := degree - 2
	for i := 0; i < n && extra > 0; i++ {
		for k := 0; k < extra; k++ {
			link(i, c.rng.Intn(n))
		}
	}
}

// Metrics snapshots the cluster-wide registry: transport, protocol,
// store, and error telemetry in one consistent view. Phase accounting
// is a pair of snapshots and a Delta.
func (c *Cluster) Metrics() *metrics.Snapshot { return c.reg.Snapshot() }

// Registry exposes the cluster's shared registry, for callers that
// want to resolve handles (scenario drivers) or serve it over HTTP.
func (c *Cluster) Registry() *metrics.Registry { return c.reg }

// SeedCommunity creates a community at the given peer.
func (c *Cluster) SeedCommunity(creator int, spec core.CommunitySpec) (*core.Community, error) {
	return c.Servents[creator].CreateCommunity(spec)
}

// DiscoverAndJoinAll makes every other peer discover the community via
// a root-community search (the paper's bootstrap) and join it from the
// providing peer. It returns how many peers joined.
func (c *Cluster) DiscoverAndJoinAll(name string, ttl int) (int, error) {
	joined := 0
	for i, sv := range c.Servents {
		if !c.alive[i] {
			continue
		}
		if has, _ := c.hasCommunityNamed(sv, name); has {
			joined++
			continue
		}
		rs, err := sv.DiscoverCommunities(query.MustParse("(name="+name+")"), p2p.SearchOptions{TTL: ttl})
		if err != nil {
			return joined, fmt.Errorf("sim: peer %d discover: %w", i, err)
		}
		if len(rs) == 0 {
			continue
		}
		if _, err := sv.JoinFromNetwork(rs[0]); err != nil {
			return joined, fmt.Errorf("sim: peer %d join: %w", i, err)
		}
		joined++
	}
	return joined, nil
}

func (c *Cluster) hasCommunityNamed(sv *core.Servent, name string) (bool, string) {
	for _, id := range sv.Joined() {
		if comm, ok := sv.Community(id); ok && comm.Name == name {
			return true, id
		}
	}
	return false, ""
}

// PublishRoundRobin distributes corpus objects across the peers that
// have joined the community. It returns the published doc IDs aligned
// with objs.
func (c *Cluster) PublishRoundRobin(communityID string, objs []corpus.Object) ([]index.DocID, error) {
	var members []*core.Servent
	for i, sv := range c.Servents {
		if c.alive[i] && sv.IsJoined(communityID) {
			members = append(members, sv)
		}
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("sim: no peer joined community %s", communityID)
	}
	// Group each member's share and publish it as one batch: the
	// store's bulk-ingest path, while keeping the round-robin
	// placement (object i still lands on member i mod N).
	ids := make([]index.DocID, len(objs))
	perMember := make([][]int, len(members))
	for i := range objs {
		m := i % len(members)
		perMember[m] = append(perMember[m], i)
	}
	for m, idxs := range perMember {
		if len(idxs) == 0 {
			continue
		}
		batch := make([]*xmldoc.Node, len(idxs))
		for j, i := range idxs {
			batch[j] = objs[i].Doc.Clone()
		}
		got, err := members[m].PublishBatch(communityID, batch)
		if err != nil {
			return nil, fmt.Errorf("sim: publish batch on peer %d: %w", m, err)
		}
		for j, i := range idxs {
			ids[i] = got[j]
		}
	}
	return ids, nil
}

// KillPeer detaches a servent abruptly (churn/fault injection): its
// endpoint closes, the hub it registered with (index server or
// super-peer) drops its registrations, and overlay neighbors unlink it. Killing a dead peer is a no-op.
func (c *Cluster) KillPeer(i int) {
	if !c.alive[i] {
		return
	}
	c.alive[i] = false
	sv := c.Servents[i]
	peer := sv.PeerID()
	_ = sv.Close()
	if c.Server != nil {
		c.Server.DropPeer(peer)
	}
	if c.leafSuper != nil && c.leafSuper[i] >= 0 {
		c.supers[c.leafSuper[i]].DropPeer(peer)
	}
	for j, node := range c.nodes {
		if j != i && node != nil {
			node.RemoveNeighbor(peer)
		}
	}
	if c.nodes != nil {
		c.nodes[i] = nil
	}
	// DHT peers deliberately get no notification: dead contacts
	// linger in routing tables until a failed send or a scheduled
	// liveness check evicts them (RefreshDHT), and the dead peer's
	// record replicas are simply gone — the failure model a UDP-style
	// overlay actually faces, and what E14 measures.
	if c.dhts != nil {
		c.dhts[i] = nil
	}
}

// RefreshDHT runs one maintenance round on every live DHT peer, in
// index order: liveness-check-driven bucket repair plus republication
// of all locally held documents (p2p.Peer.Reannounce over the STORE
// path). It is the DHT's rehome-equivalent, paced by the caller's
// schedule like FastTrack's RehomeOrphans. Returns how many peers
// refreshed.
func (c *Cluster) RefreshDHT() (int, error) {
	if c.cfg.Protocol != DHT {
		return 0, nil
	}
	refreshed := 0
	for i, n := range c.dhts {
		if n == nil || !c.alive[i] {
			continue
		}
		if err := n.Refresh(); err != nil {
			return refreshed, fmt.Errorf("sim: refresh peer %d: %w", i, err)
		}
		refreshed++
	}
	return refreshed, nil
}

// SearchFrom runs a community search from peer i.
func (c *Cluster) SearchFrom(i int, communityID string, f query.Filter, opts p2p.SearchOptions) ([]p2p.Result, error) {
	return c.Servents[i].Search(communityID, f, opts)
}
