package p2p

import (
	"time"

	"repro/internal/dsim"
	"repro/internal/metrics"
)

// NodeMetrics bundles the per-protocol telemetry handles every
// p2p.Network implementation records into: query/register/fetch
// counts in protocol-labeled counter families plus an end-to-end
// search-latency histogram. Handles are resolved once, so the record
// path is pure atomics.
type NodeMetrics struct {
	reg       *metrics.Registry
	Searches  *metrics.Counter
	Results   *metrics.Counter
	Publishes *metrics.Counter
	Fetches   *metrics.Counter
	// Duplicates counts flooded queries a node drops because it has
	// already seen their GUID (flooding protocols only; 0 elsewhere).
	Duplicates *metrics.Counter
	SearchLat  *metrics.Histogram
}

// NewNodeMetrics resolves the handles for one protocol ("centralized",
// "gnutella", "fasttrack", "dht") in reg: the families p2p.searches,
// p2p.search_results, p2p.publishes, p2p.fetches and
// p2p.flood_duplicates labeled by protocol, and the histogram
// p2p.search_latency_ns.<proto>.
func NewNodeMetrics(reg *metrics.Registry, proto string) *NodeMetrics {
	return &NodeMetrics{
		reg:        reg,
		Searches:   reg.CounterVec("p2p.searches", "protocol").With(proto),
		Results:    reg.CounterVec("p2p.search_results", "protocol").With(proto),
		Publishes:  reg.CounterVec("p2p.publishes", "protocol").With(proto),
		Fetches:    reg.CounterVec("p2p.fetches", "protocol").With(proto),
		Duplicates: reg.CounterVec("p2p.flood_duplicates", "protocol").With(proto),
		SearchLat:  reg.Histogram("p2p.search_latency_ns." + proto),
	}
}

// CountError feeds the registry's error counter family.
func (m *NodeMetrics) CountError(err error) { m.reg.CountError(err) }

// ObserveSearch records one completed search: the result count and the
// elapsed time since start on the node's clock. On the synchronous
// simulated network elapsed is ~0 (virtual latency lives in the
// transport's path accounting); over TCP it is the real round-trip.
func (m *NodeMetrics) ObserveSearch(clk dsim.Clock, start time.Time, results int) {
	m.Searches.Inc()
	m.Results.Add(int64(results))
	m.SearchLat.Observe(int64(clk.Now().Sub(start)))
}
