package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/stylegen"
	"repro/internal/transport"
	"repro/internal/xmldoc"
)

// scale sizes a workload. The defaults are the documented deployments;
// the tests shrink them to stay inside tier-1's budget.
type scale struct {
	dhtPeers, dhtObjects                int
	floodPeers, floodObjectsPerPeer     int
	centralPeers, centralCommunities    int
	centralObjectsPerCommunity, filters int
	simPeers, simObjects                int
	simVirtual                          time.Duration
	simQueryRate                        float64
	// simNominal is the wall time one scenario takes on the builder's
	// machine; a run of N seconds executes round(N / simNominal)
	// scenarios, so its counts repeat exactly for one (seed, seconds).
	simNominal time.Duration
	// probeDiv divides the probes' iteration counts (1 in a real run).
	probeDiv int
}

var fullScale = scale{
	dhtPeers: 24, dhtObjects: 240,
	floodPeers: 24, floodObjectsPerPeer: 20,
	centralPeers: 16, centralCommunities: 32, centralObjectsPerCommunity: 100, filters: 512,
	simPeers: 200, simObjects: 200, simVirtual: 60 * time.Second, simQueryRate: 350.0 / 60, simNominal: 5 * time.Second,
	probeDiv: 1,
}

const (
	dhtK          = 8
	dhtAlpha      = 3
	rpcTimeout    = 2 * time.Second
	searchTimeout = 2 * time.Second
)

// op is one generated operation.
type op struct {
	kind      opKind
	peer      int
	community string
	filter    *filterSpec
	limit     int
	obj       *xmldoc.Node     // publish
	doc       index.DocID      // retrieve
	from      transport.PeerID // retrieve
}

// filterSpec is a parsed filter with its source text.
type filterSpec struct {
	community string
	src       string
	f         query.Filter
}

// probeInputs are the workload's own inputs, kept for the layer probes.
type probeInputs struct {
	community *core.Community
	objects   []*xmldoc.Node
	filters   []string
}

// deployment is one built workload: servents over loopback TCP, the
// ground truth of what they published, and the op generator.
type deployment struct {
	reg      *metrics.Registry
	servents []*core.Servent
	// peers divides heap_kb_per_peer (servents plus an index server).
	peers   int
	truth   *truth
	rec     *recorder
	closers []func() error
	// next draws the next op; safe for concurrent clients.
	next func(r *rand.Rand) op
	// settle blocks until every acknowledged publish is searchable.
	settle func() error
	// attrsFor extracts a fresh object's attributes driver-side, so the
	// truth knows them before the publish is issued.
	attrsFor func(community string, obj *xmldoc.Node) (query.Attrs, error)
	probe    probeInputs
}

// close tears the deployment down: every node closed, every listening
// socket and temp directory gone.
func (d *deployment) close() error {
	var errs []error
	for i := len(d.closers) - 1; i >= 0; i-- {
		errs = append(errs, d.closers[i]())
	}
	d.closers = nil
	return errors.Join(errs...)
}

// tapMode says what the benchmark puts between the servents and the
// program under test.
type tapMode int

const (
	// tapNone: nothing. The untraced pass runs the program bare.
	tapNone tapMode = iota
	// tapTrace wraps every endpoint and network to record spans.
	tapTrace
	// tapDropHit wraps the networks so that every search loses a hit:
	// the checker's self-test.
	tapDropHit
)

// builder assembles a deployment.
type builder struct {
	d       *deployment
	dropHit bool
}

func newBuilder(tap tapMode) *builder {
	d := &deployment{reg: metrics.NewRegistry(), truth: newTruth(0)}
	if tap == tapTrace {
		d.rec = newRecorder()
	}
	return &builder{d: d, dropHit: tap == tapDropHit}
}

// listen opens a loopback TCP endpoint on an ephemeral port.
func (b *builder) listen() (transport.Endpoint, error) {
	node, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	node.SetMetrics(b.d.reg)
	b.d.closers = append(b.d.closers, node.Close)
	if b.d.rec != nil {
		return &tracedEndpoint{Endpoint: node, rec: b.d.rec}, nil
	}
	return node, nil
}

func (b *builder) store() *index.Store { return index.NewStore(index.WithMetrics(b.d.reg)) }

// servent builds a core.Servent on net, tapped when tracing.
func (b *builder) servent(net p2p.Network, st *index.Store) (*core.Servent, error) {
	if b.d.rec != nil || b.dropHit {
		net = &netTap{Network: net, rec: b.d.rec, dropHit: b.dropHit}
	}
	sv, err := core.NewServent(net, st)
	if err != nil {
		return nil, err
	}
	b.d.servents = append(b.d.servents, sv)
	return sv, nil
}

// adopt installs a community on every servent out of band, as the
// simulator's scenarios do: discovery traffic is not what is measured.
func (b *builder) adopt(c *core.Community) error {
	for _, sv := range b.d.servents {
		if err := sv.AdoptCommunity(c); err != nil {
			return err
		}
	}
	return nil
}

// publishRoundRobin publishes objs across the servents in per-peer
// batches (object i lands on peer i mod N) and records the truth.
func (b *builder) publishRoundRobin(c *core.Community, objs []corpus.Object) error {
	n := len(b.d.servents)
	for p, sv := range b.d.servents {
		var batch []*xmldoc.Node
		for i := p; i < len(objs); i += n {
			batch = append(batch, objs[i].Doc.Clone())
		}
		if len(batch) == 0 {
			continue
		}
		ids, err := sv.PublishBatch(c.ID, batch)
		if err != nil {
			return fmt.Errorf("publish on peer %d: %w", p, err)
		}
		for _, id := range ids {
			doc, err := sv.Store().Get(id)
			if err != nil {
				return err
			}
			b.d.truth.add(c.ID, id, doc.Attrs, sv.PeerID(), time.Time{})
		}
	}
	return nil
}

func patternCommunity() (*core.Community, error) {
	return core.NewCommunity(core.CommunitySpec{
		Name: "patterns", Keywords: "gof design software", SchemaSrc: corpus.PatternSchemaSrc,
	})
}

func mustFilters(community string, srcs ...string) []*filterSpec {
	out := make([]*filterSpec, len(srcs))
	for i, s := range srcs {
		out[i] = &filterSpec{community: community, src: s, f: query.MustParse(s)}
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// freshObject derives a new schema-valid object from base: the first
// child of every corpus schema is a free-text searchable string, so
// tagging it changes the content hash (the DocID) and nothing else.
func freshObject(base *xmldoc.Node, n int64) *xmldoc.Node {
	o := base.Clone()
	first := o.Elements()[0]
	o.SetChildText(first.LocalName(), first.Text()+" #"+strconv.FormatInt(n, 10))
	return o
}

// --- tcp-dht-search ---

func buildDHT(sc scale, seed int64, tap tapMode) (*deployment, error) {
	b := newBuilder(tap)
	d := b.d
	var nodes []*dht.Node
	for i := 0; i < sc.dhtPeers; i++ {
		ep, err := b.listen()
		if err != nil {
			return d, err
		}
		st := b.store()
		node := dht.NewNode(ep, st, dht.Config{K: dhtK, Alpha: dhtAlpha, RPCTimeout: rpcTimeout})
		node.SetMetrics(d.reg)
		nodes = append(nodes, node)
		if _, err := b.servent(node, st); err != nil {
			return d, err
		}
	}
	d.peers = sc.dhtPeers
	for _, n := range nodes[1:] {
		n.Bootstrap(nodes[0].PeerID())
	}
	comm, err := patternCommunity()
	if err != nil {
		return d, err
	}
	if err := b.adopt(comm); err != nil {
		return d, err
	}
	objs := corpus.DesignPatterns(sc.dhtObjects, seed).Objects
	if err := b.publishRoundRobin(comm, objs); err != nil {
		return d, err
	}
	// Six templates of mixed selectivity: a tenth, a fifth, a third,
	// a half and all of the corpus.
	filters := mustFilters(comm.ID,
		"(classification=behavioral)", "(classification=creational)", "(classification=structural)",
		"(keywords=wrapper)", "(&(classification=behavioral)(keywords=undo))", "(name=*)")
	// STOREs are fire-and-forget: the deployment is ready once every
	// peer's search sees every record.
	all := filters[len(filters)-1]
	want := d.truth.required(comm.ID, all.src, all.f, time.Now())
	for _, n := range nodes {
		err := waitFor("dht records to replicate", 20*time.Second, func() bool {
			rs, err := n.Search(comm.ID, all.f, p2p.SearchOptions{Timeout: searchTimeout})
			return err == nil && len(rs) == want
		})
		if err != nil {
			return d, err
		}
	}
	d.next = func(r *rand.Rand) op {
		return op{kind: opSearch, peer: r.Intn(len(d.servents)), community: comm.ID, filter: filters[r.Intn(len(filters))]}
	}
	d.probe = probeInputs{community: comm, objects: docsOf(objs, 64), filters: srcsOf(filters)}
	return d, nil
}

func docsOf(objs []corpus.Object, n int) []*xmldoc.Node {
	n = min(n, len(objs))
	out := make([]*xmldoc.Node, n)
	for i := range out {
		out[i] = objs[i].Doc
	}
	return out
}

func srcsOf(fs []*filterSpec) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.src
	}
	return out
}

// --- tcp-gnutella-flood ---

func buildFlood(sc scale, seed int64, tap tapMode) (*deployment, error) {
	b := newBuilder(tap)
	d := b.d
	var nodes []*p2p.GnutellaNode
	for i := 0; i < sc.floodPeers; i++ {
		ep, err := b.listen()
		if err != nil {
			return d, err
		}
		st := b.store()
		node := p2p.NewGnutellaNode(ep, st)
		node.SetMetrics(d.reg)
		nodes = append(nodes, node)
		if _, err := b.servent(node, st); err != nil {
			return d, err
		}
	}
	n := len(nodes)
	d.peers = n
	// Ring plus one seeded chord per peer. Chords never repeat an edge,
	// so every seed wires the same number of edges (2N at 24 peers) and
	// the flood's query count — which follows the edge set — does not
	// drift with it.
	r := rand.New(rand.NewSource(seed))
	linked := make(map[[2]int]bool)
	link := func(a, c int) bool {
		if a == c || linked[[2]int{min(a, c), max(a, c)}] {
			return false
		}
		linked[[2]int{min(a, c), max(a, c)}] = true
		nodes[a].AddNeighbor(nodes[c].PeerID())
		nodes[c].AddNeighbor(nodes[a].PeerID())
		return true
	}
	for i := range nodes {
		link(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		// A few draws always find a free partner at 24 peers; a tiny
		// overlay that is already complete simply gets no chord.
		for try := 0; try < 8*n && !link(i, r.Intn(n)); try++ {
		}
	}
	comm, err := patternCommunity()
	if err != nil {
		return d, err
	}
	if err := b.adopt(comm); err != nil {
		return d, err
	}
	objs := corpus.DesignPatterns(sc.floodObjectsPerPeer*n, seed).Objects
	if err := b.publishRoundRobin(comm, objs); err != nil {
		return d, err
	}
	filters := mustFilters(comm.ID,
		"(name=*)", "(classification=behavioral)", "(classification=structural)", "(classification=creational)",
		"(!(classification=behavioral))", "(|(classification=creational)(classification=behavioral))")
	// Limit is the ground-truth match count, so a search completes at
	// full recall the moment the last hit arrives, never by timeout.
	limits := make([]int, len(filters))
	for i, f := range filters {
		limits[i] = d.truth.required(comm.ID, f.src, f.f, time.Now())
	}
	d.next = func(r *rand.Rand) op {
		i := r.Intn(len(filters))
		return op{kind: opSearch, peer: r.Intn(n), community: comm.ID, filter: filters[i], limit: limits[i]}
	}
	d.probe = probeInputs{community: comm, objects: docsOf(objs, 64), filters: srcsOf(filters)}
	return d, nil
}

// --- tcp-central-mixed ---

// plainValue admits attribute values that need no escaping in filter
// syntax.
var plainValue = regexp.MustCompile(`^[A-Za-z0-9 ._-]{1,40}$`)

// filtersFor derives up to n distinct filters for one community from
// the attributes it holds: presence filters first, then exact matches
// on its values by falling frequency, so selectivity is mixed. Set-up
// only: it reads the truth without locking.
func filtersFor(t *truth, community string, n int) []*filterSpec {
	type av struct{ attr, val string }
	freq := make(map[av]int)
	attrs := make(map[string]bool)
	for _, id := range t.comms[community].docs {
		for a, vals := range t.docs[id].attrs {
			attrs[a] = true
			for _, v := range vals {
				if plainValue.MatchString(v) {
					freq[av{a, v}]++
				}
			}
		}
	}
	pairs := make([]av, 0, len(freq))
	for p := range freq {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if freq[pairs[i]] != freq[pairs[j]] {
			return freq[pairs[i]] > freq[pairs[j]]
		}
		if pairs[i].attr != pairs[j].attr {
			return pairs[i].attr < pairs[j].attr
		}
		return pairs[i].val < pairs[j].val
	})
	var srcs []string
	names := make([]string, 0, len(attrs))
	for a := range attrs {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names[:min(2, len(names))] {
		srcs = append(srcs, "("+a+"=*)")
	}
	for _, p := range pairs {
		if len(srcs) >= n {
			break
		}
		srcs = append(srcs, "("+p.attr+"="+p.val+")")
	}
	return mustFilters(community, srcs[:min(n, len(srcs))]...)
}

const centralLimit = 25

func buildCentral(sc scale, seed int64, tap tapMode) (*deployment, error) {
	b := newBuilder(tap)
	d := b.d
	// The index server's register frames are handled after Publish
	// returns; see truth.settle.
	d.truth.settle = 500 * time.Millisecond
	walDir, err := os.MkdirTemp("", "up2p-bench-wal-")
	if err != nil {
		return d, err
	}
	d.closers = append(d.closers, func() error { return os.RemoveAll(walDir) })
	serverStore, err := index.OpenStore(index.WithWAL(walDir), index.WithWALFsync(index.FsyncOS), index.WithMetrics(d.reg))
	if err != nil {
		return d, err
	}
	d.closers = append(d.closers, serverStore.Close)
	sep, err := b.listen()
	if err != nil {
		return d, err
	}
	server := p2p.NewIndexServerOn(sep, serverStore)
	for i := 0; i < sc.centralPeers; i++ {
		ep, err := b.listen()
		if err != nil {
			return d, err
		}
		st := b.store()
		client := p2p.NewCentralizedClient(ep, sep.ID(), st)
		client.SetMetrics(d.reg)
		if _, err := b.servent(client, st); err != nil {
			return d, err
		}
	}
	n := len(d.servents)
	d.peers = n + 1

	type community struct {
		c       *core.Community
		indexer *stylegen.Indexer
		base    []*xmldoc.Node
	}
	comms := make([]community, sc.centralCommunities)
	perComm := make([][]*filterSpec, sc.centralCommunities)
	schemas := corpus.Names()
	for k := range comms {
		name := schemas[k%len(schemas)]
		cp, err := corpus.ByName(name, sc.centralObjectsPerCommunity, seed+int64(k))
		if err != nil {
			return d, err
		}
		c, err := core.NewCommunity(core.CommunitySpec{Name: fmt.Sprintf("%s-%d", name, k), SchemaSrc: cp.SchemaSrc})
		if err != nil {
			return d, err
		}
		ix, err := c.Indexer()
		if err != nil {
			return d, err
		}
		if err := b.adopt(c); err != nil {
			return d, err
		}
		if err := b.publishRoundRobin(c, cp.Objects); err != nil {
			return d, err
		}
		comms[k] = community{c: c, indexer: ix, base: docsOf(cp.Objects, len(cp.Objects))}
		perComm[k] = filtersFor(d.truth, c.ID, (sc.filters+len(comms)-1)/len(comms))
		if k == 0 {
			d.probe = probeInputs{community: c, objects: docsOf(cp.Objects, 64)}
		}
	}
	// Publishing is acknowledged when the register frame is written,
	// not when the server has indexed it: ready means the server's
	// Len() has caught up with every distinct published document.
	d.settle = func() error {
		return waitFor("index server to catch up with acknowledged publishes", 10*time.Second,
			func() bool { return server.Len() >= d.truth.docCount() })
	}
	if err := d.settle(); err != nil {
		return d, err
	}
	// The pool is the communities' lists interleaved: rank r is filter
	// r/C of community r%C. Every seed's Zipf head therefore has the
	// same shape (each community's broadest filters first, then exact
	// matches by falling frequency); the seed decides what the corpora
	// hold and which ops are drawn, not how selective the head is.
	var filters []*filterSpec
	for i := 0; len(filters) < sc.filters; i++ {
		added := false
		for _, list := range perComm {
			if i < len(list) && len(filters) < sc.filters {
				filters = append(filters, list[i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	d.probe.filters = srcsOf(filters[:min(64, len(filters))])

	// held[p] is what peer p stores locally; a retrieve targets an
	// object its peer does not hold, so it always crosses the network.
	type ref struct {
		id        index.DocID
		community string
		provider  int
	}
	var refs []ref
	held := make([]map[index.DocID]bool, n)
	for p := range held {
		held[p] = make(map[index.DocID]bool)
	}
	for _, cm := range comms {
		for i, o := range cm.base {
			id := core.DocIDFor(cm.c.ID, o)
			refs = append(refs, ref{id, cm.c.ID, i % n})
			held[i%n][id] = true
		}
	}
	var heldMu sync.Mutex
	var fresh atomic.Int64
	// Zipf(1.1) over the pool, P(rank k) ~ 1/(1+k)^1.1: a hot head the
	// 128-entry shard caches hold, a long tail they do not, and
	// publishes invalidating both. Drawn from a cumulative table, so a
	// draw costs the driver a binary search and no allocation.
	zipf := make([]float64, len(filters))
	sum := 0.0
	for k := range zipf {
		sum += math.Pow(float64(1+k), -1.1)
		zipf[k] = sum
	}
	d.next = func(r *rand.Rand) op {
		peer := r.Intn(n)
		x := r.Intn(10)
		if x < 8 {
			f := filters[min(sort.SearchFloat64s(zipf, r.Float64()*sum), len(filters)-1)]
			return op{kind: opSearch, peer: peer, community: f.community, filter: f, limit: centralLimit}
		}
		if x == 9 {
			heldMu.Lock()
			defer heldMu.Unlock()
			// 3200 objects and 16 peers leave a peer nearly everything
			// to fetch; a peer that draws only held objects (possible at
			// test scale) publishes instead.
			for try := 0; try < 16; try++ {
				ref := refs[r.Intn(len(refs))]
				if ref.provider != peer && !held[peer][ref.id] {
					held[peer][ref.id] = true
					return op{kind: opRetrieve, peer: peer, community: ref.community, doc: ref.id,
						from: d.servents[ref.provider].PeerID()}
				}
			}
		}
		cm := comms[r.Intn(len(comms))]
		return op{kind: opPublish, peer: peer, community: cm.c.ID,
			obj: freshObject(cm.base[r.Intn(len(cm.base))], fresh.Add(1))}
	}
	indexers := make(map[string]*stylegen.Indexer, len(comms))
	for _, cm := range comms {
		indexers[cm.c.ID] = cm.indexer
	}
	d.attrsFor = func(community string, obj *xmldoc.Node) (query.Attrs, error) {
		return indexers[community].Extract(obj)
	}
	return d, nil
}
