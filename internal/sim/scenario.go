package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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
)

// ScenarioConfig describes one discrete-event experiment over a
// cluster: a query workload with optional churn (Poisson arrivals and
// departures), a flash-crowd burst, and super-peer failure/failover,
// all paced on a virtual clock. Every random choice derives from Seed,
// so a scenario is bit-for-bit reproducible: two runs produce the same
// message trace hash.
type ScenarioConfig struct {
	// Cluster is the deployment to drive. Its Clock and Trace fields
	// are overridden (scenarios always run on a fresh virtual clock
	// with tracing on).
	Cluster Config
	// Seed drives workload randomness; 0 borrows Cluster.Seed.
	Seed int64
	// Duration is the virtual length of the run.
	Duration time.Duration
	// QueryRate is the mean query arrival rate per virtual second.
	QueryRate float64
	// InitialObjects seeds the community before the run.
	InitialObjects int
	// ArrivalRate / DepartureRate are mean peer churn rates per virtual
	// second (0 = no churn of that kind).
	ArrivalRate   float64
	DepartureRate float64
	// BurstAt, if positive, triggers a flash crowd: BurstQueries
	// back-to-back queries for one popular filter at that instant.
	BurstAt      time.Duration
	BurstQueries int
	// FailSupersAt, if positive, kills FailSupers random live
	// super-peers at that instant (FastTrack only); orphaned leaves
	// rehome RehomeDelay later.
	FailSupersAt time.Duration
	FailSupers   int
	RehomeDelay  time.Duration
	// DHTRefreshEvery, if positive (DHT protocol only), schedules
	// periodic overlay maintenance: every interval each live peer runs
	// bucket repair and republishes its documents (Cluster.RefreshDHT)
	// — the DHT's rehome-equivalent, which is what lets recall recover
	// from departed record holders.
	DHTRefreshEvery time.Duration
	// TraceSample, when positive, turns on distributed per-query
	// tracing (Config.TraceSample): the driver roots a trace for that
	// fraction of generated queries and the result carries the
	// slowest assembled span trees as exemplars.
	TraceSample float64
}

// slowTraces bounds ScenarioResult.SlowTraces.
const slowTraces = 5

// QuerySample is one measured query.
type QuerySample struct {
	// At is the virtual instant the query ran.
	At time.Duration
	// Recall is found/expected over live ground truth, or -1 when
	// nothing was expected (excluded from aggregates).
	Recall float64
	// Latency is the query's virtual completion time: the cumulative
	// link latency of the longest delivery chain it triggered.
	Latency time.Duration
	// Messages is the number of network messages the query cost.
	Messages int64
	// Results is the number of hits returned.
	Results int
}

// ScenarioResult aggregates one run.
type ScenarioResult struct {
	Protocol string
	Samples  []QuerySample
	Queries  int
	// Failed counts queries that returned an error (e.g. timeouts
	// under loss); they carry recall 0 in Samples.
	Failed     int
	Arrivals   int
	Departures int
	Rehomed    int
	// Refreshes counts DHT maintenance rounds (peer-refreshes summed
	// over all DHTRefreshEvery firings).
	Refreshes  int
	Messages   int64
	Dropped    int64
	TraceHash  uint64
	TraceLen   uint64
	FinalPeers int
	// Elapsed is the real (wall) time the run took — the number that
	// shows virtual hours costing real seconds.
	Elapsed time.Duration
	// SlowTraces holds the slowest assembled query traces (root
	// duration descending) when TraceSample was positive — the
	// exemplar waterfalls an operator reads to see where a slow query
	// spent its virtual time.
	SlowTraces []*trace.Tree
	// Load measures per-node load skew over the flash-crowd burst
	// window; nil unless Cluster.PeerLoad was on and a burst ran.
	Load *LoadSkew
	// Metrics is the final cluster-wide registry snapshot, so callers
	// can read protocol counters (dht.cache_stores, dht.cache_hits, …)
	// after the run without holding the cluster.
	Metrics *metrics.Snapshot
}

// LoadSkew is the per-node message-load distribution across live
// peers during the flash-crowd burst: every message delivered while
// the burst queries ran, bucketed by receiving peer. The hotspot
// headline is the load on the hot key's natural holders (HolderMax /
// HolderMean) against the network average — a flash crowd without
// relief concentrates there.
type LoadSkew struct {
	// Max and Mean are burst-window messages received by the
	// hottest live peer and by the average live peer.
	Max  int64
	Mean float64
	// Skew is Max/Mean (0 when the window saw no traffic).
	Skew float64
	// HolderMsgs are the burst-window message counts of the k live
	// peers whose DHT node IDs are XOR-closest to the bursted
	// community's key — the natural holders of the hot key — closest
	// first. Empty outside the DHT protocol.
	HolderMsgs []int64
	// HolderMax and HolderMean aggregate HolderMsgs: the load on the
	// busiest holder and on the average holder.
	HolderMax  int64
	HolderMean float64
}

// MsgsPerQuery is the mean network cost per query.
func (r *ScenarioResult) MsgsPerQuery() float64 {
	if r.Queries == 0 {
		return 0
	}
	total := int64(0)
	for _, s := range r.Samples {
		total += s.Messages
	}
	return float64(total) / float64(r.Queries)
}

// MeanRecall averages recall over samples with ground truth, within
// [from, to) virtual time; pass 0,0 for the whole run. NaN when the
// window holds no measured queries — absence of data must not read as
// perfect recall.
func (r *ScenarioResult) MeanRecall(from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, s := range r.Samples {
		if s.Recall < 0 {
			continue
		}
		if to > 0 && (s.At < from || s.At >= to) {
			continue
		}
		sum += s.Recall
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// LatencyPercentile returns the p-th percentile (0 < p <= 100) of
// virtual query latency.
func (r *ScenarioResult) LatencyPercentile(p float64) time.Duration {
	if len(r.Samples) == 0 {
		return 0
	}
	lats := make([]time.Duration, len(r.Samples))
	for i, s := range r.Samples {
		lats[i] = s.Latency
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(p/100*float64(len(lats))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return lats[idx]
}

// docTruth is driver-side ground truth for one published object.
type docTruth struct {
	attrs query.Attrs
	// holders is the servent indices holding a copy — a tiny dense
	// slice (most objects have one publisher), not a map: the truth
	// table is consulted on every query, and at 10k+ peers the
	// per-doc map headers dominated its footprint.
	holders []int
}

// scenario is the running state of one RunScenario call.
type scenario struct {
	cfg     ScenarioConfig
	clk     *dsim.VirtualClock
	cluster *Cluster
	comm    *core.Community
	rng     *rand.Rand
	start   time.Time
	end     time.Time
	truth   map[index.DocID]*docTruth
	nextObj int64
	// objs is the scenario's corpus, grown on demand. Generation is
	// prefix-stable (same seed, larger n ⇒ same leading objects), so
	// regrowing never rewrites history.
	objs []corpus.Object
	res  *ScenarioResult
	err  error
	// msgs/bytes/dropped are registry handles resolved once at setup;
	// per-query accounting reads them before and after a search instead
	// of snapshotting the whole registry.
	msgs    *metrics.Counter
	bytes   *metrics.Counter
	dropped *metrics.Counter
}

// queryTemplates are the workload's filter mix. The first is the
// "popular" query flash crowds pile onto.
var queryTemplates = []string{
	"(classification=behavioral)",
	"(classification=creational)",
	"(classification=structural)",
	"(keywords=notification)",
	"(name=*)",
}

// RunScenario executes one scenario and returns its measurements. The
// entire run — churn, bursts, failures, 100k-query workloads — executes
// without any real waiting: virtual time jumps between events and
// protocol timeouts resolve synchronously.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = time.Minute
	}
	if cfg.QueryRate <= 0 {
		cfg.QueryRate = 1
	}
	if cfg.InitialObjects <= 0 {
		cfg.InitialObjects = 2 * cfg.Cluster.Peers
	}
	if cfg.Seed == 0 {
		cfg.Seed = cfg.Cluster.Seed
	}
	started := time.Now()
	clk := dsim.NewVirtualClock()
	ccfg := cfg.Cluster
	ccfg.Clock = clk
	ccfg.Trace = true
	if cfg.TraceSample > 0 {
		ccfg.TraceSample = cfg.TraceSample
	}
	cluster, err := NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	s := &scenario{
		cfg:     cfg,
		clk:     clk,
		cluster: cluster,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		start:   clk.Now(),
		end:     clk.Now().Add(cfg.Duration),
		truth:   make(map[index.DocID]*docTruth),
		res:     &ScenarioResult{Protocol: cfg.Cluster.Protocol.String()},
		msgs:    cluster.Registry().Counter("transport.msgs_delivered"),
		bytes:   cluster.Registry().Counter("transport.bytes_delivered"),
		dropped: cluster.Registry().Counter("transport.msgs_dropped"),
	}
	if err := s.bootstrap(); err != nil {
		return nil, err
	}
	s.scheduleStreams()
	clk.RunUntil(s.end)
	if s.err != nil {
		return nil, s.err
	}
	s.res.Messages = s.msgs.Value()
	s.res.Dropped = s.dropped.Value()
	s.res.Metrics = cluster.Metrics()
	s.res.TraceHash = cluster.Net.TraceHash()
	s.res.TraceLen = cluster.Net.TraceLen()
	s.res.FinalPeers = len(cluster.LivePeers())
	s.res.Elapsed = time.Since(started)
	if cluster.Tracing() {
		s.res.SlowTraces = cluster.TraceCollector().Slowest(trace.Filter{}, slowTraces)
	}
	return s.res, nil
}

// bootstrap creates the community everywhere and seeds the corpus
// round-robin across the initial peers.
func (s *scenario) bootstrap() error {
	comm, err := s.cluster.SeedCommunity(0, core.CommunitySpec{
		Name:      "patterns",
		Keywords:  "gof design software",
		SchemaSrc: corpus.PatternSchemaSrc,
	})
	if err != nil {
		return err
	}
	s.comm = comm
	if err := s.cluster.InstallCommunityAll(comm); err != nil {
		return err
	}
	live := s.cluster.LivePeers()
	for i := 0; i < s.cfg.InitialObjects; i++ {
		if err := s.publishFresh(live[i%len(live)]); err != nil {
			return err
		}
	}
	return nil
}

// publishFresh publishes one new corpus object on peer p and records
// its ground truth. Objects are drawn in sequence from one growing
// corpus — NOT generated one at a time with n=1, which would hand
// every peer the first catalogue entry and collapse the attribute
// distribution to a single classification (leaving the flash-crowd
// filter with an empty result set).
func (s *scenario) publishFresh(p int) error {
	for int(s.nextObj) >= len(s.objs) {
		n := 2 * len(s.objs)
		if n < s.cfg.InitialObjects {
			n = s.cfg.InitialObjects
		}
		if n < 64 {
			n = 64
		}
		s.objs = corpus.DesignPatterns(n, s.cfg.Seed).Objects
	}
	obj := s.objs[s.nextObj]
	s.nextObj++
	sv := s.cluster.Servents[p]
	id, err := sv.Publish(s.comm.ID, obj.Doc.Clone(), nil)
	if err != nil {
		return fmt.Errorf("sim: scenario publish on peer %d: %w", p, err)
	}
	doc, err := sv.Store().Get(id)
	if err != nil {
		return err
	}
	t := s.truth[id]
	if t == nil {
		t = &docTruth{attrs: doc.Attrs}
		s.truth[id] = t
	}
	if !slices.Contains(t.holders, p) {
		t.holders = append(t.holders, p)
	}
	return nil
}

// expected counts ground-truth documents matching f that at least one
// live peer holds.
func (s *scenario) expected(f query.Filter) map[index.DocID]bool {
	out := make(map[index.DocID]bool)
	for id, t := range s.truth {
		if !f.Match(t.attrs) {
			continue
		}
		for _, p := range t.holders {
			if s.cluster.Alive(p) {
				out[id] = true
				break
			}
		}
	}
	return out
}

// scheduleStreams starts the self-rescheduling Poisson event streams
// and the one-shot burst/failure events.
func (s *scenario) scheduleStreams() {
	s.schedulePoisson(s.cfg.QueryRate, func(time.Time) { s.runQuery(s.pickTemplate()) })
	s.schedulePoisson(s.cfg.ArrivalRate, func(time.Time) { s.runArrival() })
	s.schedulePoisson(s.cfg.DepartureRate, func(time.Time) { s.runDeparture() })
	if s.cfg.BurstAt > 0 && s.cfg.BurstQueries > 0 {
		s.clk.Schedule(s.cfg.BurstAt, func(time.Time) {
			// Snapshot per-peer load around the burst so the skew
			// measures exactly the flash crowd, not the background
			// workload before and after it.
			before := s.cluster.Net.PeerLoad()
			for i := 0; i < s.cfg.BurstQueries && s.err == nil; i++ {
				s.runQuery(queryTemplates[0])
			}
			if before != nil && s.err == nil {
				s.res.Load = s.measureLoadSkew(before, s.cluster.Net.PeerLoad())
			}
		})
	}
	if s.cfg.FailSupersAt > 0 && s.cfg.FailSupers > 0 {
		s.clk.Schedule(s.cfg.FailSupersAt, func(time.Time) { s.runSuperFailure() })
	}
	if s.cfg.DHTRefreshEvery > 0 && s.cfg.Cluster.Protocol == DHT {
		var fire func(time.Time)
		fire = func(now time.Time) {
			if s.err != nil || now.After(s.end) {
				return
			}
			moved, err := s.cluster.RefreshDHT()
			if err != nil {
				s.err = err
				return
			}
			s.res.Refreshes += moved
			s.clk.Schedule(s.cfg.DHTRefreshEvery, fire)
		}
		s.clk.Schedule(s.cfg.DHTRefreshEvery, fire)
	}
}

// schedulePoisson schedules fn with exponential inter-event gaps of
// mean 1/rate, each firing rescheduling the next until the horizon.
func (s *scenario) schedulePoisson(rate float64, fn func(time.Time)) {
	if rate <= 0 {
		return
	}
	var fire func(time.Time)
	next := func() time.Duration {
		return time.Duration(s.rng.ExpFloat64() / rate * float64(time.Second))
	}
	fire = func(now time.Time) {
		if s.err != nil || now.After(s.end) {
			return
		}
		fn(now)
		s.clk.Schedule(next(), fire)
	}
	s.clk.Schedule(next(), fire)
}

// measureLoadSkew turns two PeerLoad snapshots bracketing the burst
// into the per-node skew measurement: delta messages per live peer,
// the max and mean over them, and the deltas of the k live peers
// closest (by XOR distance of their DHT node IDs) to the bursted
// community's key — the hot key's natural holders.
func (s *scenario) measureLoadSkew(before, after map[transport.PeerID]int64) *LoadSkew {
	live := s.cluster.LivePeers()
	if len(live) == 0 {
		return nil
	}
	ls := &LoadSkew{}
	total := int64(0)
	delta := make(map[int]int64, len(live))
	for _, p := range live {
		id := s.cluster.Servents[p].PeerID()
		d := after[id] - before[id]
		delta[p] = d
		total += d
		if d > ls.Max {
			ls.Max = d
		}
	}
	ls.Mean = float64(total) / float64(len(live))
	if ls.Mean > 0 {
		ls.Skew = float64(ls.Max) / ls.Mean
	}
	if s.cfg.Cluster.Protocol == DHT {
		key := dht.KeyForCommunity(s.comm.ID)
		ranked := append([]int(nil), live...)
		sort.Slice(ranked, func(i, j int) bool {
			a := dht.NodeIDFor(s.cluster.Servents[ranked[i]].PeerID())
			b := dht.NodeIDFor(s.cluster.Servents[ranked[j]].PeerID())
			return dht.CompareDistance(a, b, key) < 0
		})
		k := s.cfg.Cluster.DHT.K
		if k <= 0 {
			k = dht.DefaultK
		}
		if k > len(ranked) {
			k = len(ranked)
		}
		holderTotal := int64(0)
		for _, p := range ranked[:k] {
			d := delta[p]
			ls.HolderMsgs = append(ls.HolderMsgs, d)
			holderTotal += d
			if d > ls.HolderMax {
				ls.HolderMax = d
			}
		}
		if k > 0 {
			ls.HolderMean = float64(holderTotal) / float64(k)
		}
	}
	return ls
}

func (s *scenario) pickTemplate() string {
	return queryTemplates[s.rng.Intn(len(queryTemplates))]
}

// runQuery issues one search from a random live peer and samples its
// cost, virtual latency, and recall.
func (s *scenario) runQuery(filter string) {
	live := s.cluster.LivePeers()
	if len(live) == 0 {
		return
	}
	from := live[s.rng.Intn(len(live))]
	f := query.MustParse(filter)
	want := s.expected(f)

	// Root one trace per sampled query: the driver is the only tracer
	// with a nonzero sampling rate, so every span tree the collector
	// assembles descends from a query issued here.
	sp := s.cluster.DriverTracer().Root("query")
	sp.SetCommunity(s.comm.ID)
	sp.SetPeer(string(s.cluster.Servents[from].PeerID()))

	before, beforeBytes := s.msgs.Value(), s.bytes.Value()
	s.cluster.Net.ResetPath()
	rs, err := s.cluster.SearchFrom(from, s.comm.ID, f, p2p.SearchOptions{
		Trace: sp.Context(),
	})
	sample := QuerySample{
		At:       s.clk.Now().Sub(s.start),
		Latency:  s.cluster.Net.MaxPathLatency(),
		Messages: s.msgs.Value() - before,
		Results:  len(rs),
	}
	sp.AddMsgs(sample.Messages, s.bytes.Value()-beforeBytes)
	sp.SetErr(err)
	// The root's duration is the driver-measured virtual completion
	// latency — by construction it covers every child span, whose
	// starts are offset by the same per-chain virtual arrival times
	// MaxPathLatency is the maximum of.
	sp.FinishWithDuration(sample.Latency)
	found := 0
	seen := make(map[index.DocID]bool)
	for _, r := range rs {
		if want[r.DocID] && !seen[r.DocID] {
			seen[r.DocID] = true
			found++
		}
	}
	switch {
	case len(want) == 0:
		sample.Recall = -1
	default:
		sample.Recall = float64(found) / float64(len(want))
	}
	if err != nil {
		s.res.Failed++
		if len(want) > 0 {
			sample.Recall = 0
		}
	}
	s.res.Samples = append(s.res.Samples, sample)
	s.res.Queries++
}

// runArrival adds a peer, hands it the community, and has it publish
// one fresh object.
func (s *scenario) runArrival() {
	i, err := s.cluster.AddPeer()
	if err != nil {
		s.err = err
		return
	}
	if err := s.cluster.Servents[i].AdoptCommunity(s.comm); err != nil {
		s.err = err
		return
	}
	if err := s.publishFresh(i); err != nil {
		s.err = err
		return
	}
	s.res.Arrivals++
}

// runDeparture kills a random live peer (keeping at least one).
func (s *scenario) runDeparture() {
	live := s.cluster.LivePeers()
	if len(live) < 2 {
		return
	}
	victim := live[s.rng.Intn(len(live))]
	s.cluster.KillPeer(victim)
	s.res.Departures++
}

// runSuperFailure kills the configured number of random live
// super-peers and schedules the orphans' rehoming. A no-op outside
// FastTrack (no super-peers to fail).
func (s *scenario) runSuperFailure() {
	live := s.cluster.liveSupers()
	if len(live) < 2 {
		return // nothing to fail, or failing would kill the overlay
	}
	kills := s.cfg.FailSupers
	if kills >= len(live) {
		kills = len(live) - 1 // keep the overlay alive
	}
	s.rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
	for _, sp := range live[:kills] {
		s.cluster.FailSuperPeer(sp)
	}
	delay := s.cfg.RehomeDelay
	if delay <= 0 {
		delay = time.Second
	}
	s.clk.Schedule(delay, func(time.Time) {
		moved, err := s.cluster.RehomeOrphans()
		if err != nil {
			s.err = err
			return
		}
		s.res.Rehomed += moved
	})
}
