package dht

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/transport"
)

// recordStore holds the records this node keeps for keys it is among
// the closest to. Entries carry an expiry instant (measured on the
// owner's clock): a record whose publisher stops refreshing it ages
// out, which is what garbage-collects departed providers without any
// global coordination. Expired entries are pruned lazily on read.
//
// Two extensions beyond plain Kademlia storage:
//
//   - Cached sets (Kademlia's caching STORE): path copies placed by
//     FIND_VALUE queriers, kept at half TTL and keyed by the
//     canonical filter string their record set is complete for. A
//     cached set is atomic — installed, served, evicted, and expired
//     as a whole — because its value is the completeness guarantee
//     that lets a lookup value-terminate on it; a partially evicted
//     set would satisfy queries with silently truncated results.
//     Cached sets never displace primary replicas and are never
//     republished (republish reads the local document store).
//   - A per-key cap (maxPerKey) across primaries and cached copies: a
//     flash crowd of publishes cannot grow one key without bound.
//     Past the cap, eviction is deterministic — whole cached sets
//     first (earliest expiry, ties by filter string), then the
//     earliest-expiring primary, ties by (DocID, Provider) — and
//     counted per record in dht.records_evicted.
type recordStore struct {
	mu        sync.Mutex
	ttl       time.Duration
	maxPerKey int
	// byKey maps key -> (DocID, Provider) -> primary entry.
	byKey map[ID]map[recordKey]recordEntry
	// cached maps key -> canonical filter string -> the complete
	// cached record set for that filter.
	cached map[ID]map[string]cachedSet
	// Telemetry handles (dht.records_expired / records_evicted /
	// cache_hits); installed by the node's SetMetrics before traffic
	// starts.
	expired   *metrics.Counter
	evicted   *metrics.Counter
	cacheHits *metrics.Counter
}

type recordKey struct {
	docID    index.DocID
	provider transport.PeerID
}

type recordEntry struct {
	rec     Record
	hash    uint64 // recordHash of rec, fixed at put
	expires time.Time
}

// cachedSet is one caching STORE's payload: the complete, sorted
// result set for its filter, expiring as a unit.
type cachedSet struct {
	recs    []Record
	expires time.Time
}

func newRecordStore(ttl time.Duration, maxPerKey int) *recordStore {
	if maxPerKey <= 0 {
		maxPerKey = DefaultMaxRecordsPerKey
	}
	discard := metrics.Discard()
	return &recordStore{
		ttl:       ttl,
		maxPerKey: maxPerKey,
		byKey:     make(map[ID]map[recordKey]recordEntry),
		cached:    make(map[ID]map[string]cachedSet),
		expired:   discard.Counter("dht.records_expired"),
		evicted:   discard.Counter("dht.records_evicted"),
		cacheHits: discard.Counter("dht.cache_hits"),
	}
}

// setCounters installs the telemetry handles.
func (rs *recordStore) setCounters(expired, evicted, cacheHits *metrics.Counter) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.expired = expired
	rs.evicted = evicted
	rs.cacheHits = cacheHits
}

// cachedCountLocked is the number of records held in key's cached
// sets. Caller holds rs.mu.
func (rs *recordStore) cachedCountLocked(key ID) int {
	n := 0
	for _, cs := range rs.cached[key] {
		n += len(cs.recs)
	}
	return n
}

// evictCachedSetLocked drops the deterministic cached-set victim of
// key — earliest expiry first, ties broken by filter string — and
// reports whether one was dropped. Caller holds rs.mu.
func (rs *recordStore) evictCachedSetLocked(key ID) bool {
	sets := rs.cached[key]
	victim := ""
	found := false
	for filter, cs := range sets {
		if !found || cs.expires.Before(sets[victim].expires) ||
			(cs.expires.Equal(sets[victim].expires) && filter < victim) {
			victim, found = filter, true
		}
	}
	if !found {
		return false
	}
	rs.evicted.Add(int64(len(sets[victim].recs)))
	delete(sets, victim)
	if len(sets) == 0 {
		delete(rs.cached, key)
	}
	return true
}

// evictPrimaryLocked removes the deterministic primary victim from m:
// earliest expiry first, ties broken by (DocID, Provider). Caller
// holds rs.mu.
func (rs *recordStore) evictPrimaryLocked(m map[recordKey]recordEntry) bool {
	var victim recordKey
	var ve recordEntry
	found := false
	for rk, e := range m {
		if found {
			if e.expires.After(ve.expires) {
				continue
			}
			if e.expires.Equal(ve.expires) &&
				(rk.docID > victim.docID ||
					(rk.docID == victim.docID && rk.provider >= victim.provider)) {
				continue
			}
		}
		victim, ve, found = rk, e, true
	}
	if !found {
		return false
	}
	delete(m, victim)
	rs.evicted.Inc()
	return true
}

// put upserts primary records under key, (re)starting their TTL at
// now. Past the per-key cap, whole cached sets are evicted first, then
// the earliest-expiring primaries.
func (rs *recordStore) put(key ID, recs []Record, now time.Time) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	m := rs.byKey[key]
	if m == nil {
		m = make(map[recordKey]recordEntry)
		rs.byKey[key] = m
	}
	for _, rec := range recs {
		if rec.DocID == "" || rec.Provider == "" {
			continue
		}
		rk := recordKey{rec.DocID, rec.Provider}
		if _, exists := m[rk]; !exists {
			for len(m)+rs.cachedCountLocked(key) >= rs.maxPerKey {
				if !rs.evictCachedSetLocked(key) && !rs.evictPrimaryLocked(m) {
					break
				}
			}
		}
		m[rk] = recordEntry{rec: rec, hash: recordHash(rec.DocID, rec.Provider), expires: now.Add(rs.ttl)}
	}
	if len(m) == 0 {
		delete(rs.byKey, key)
	}
}

// putCached installs one caching STORE's complete record set for
// filter: half TTL, replacing any previous set for the same filter,
// atomically — if the whole set cannot fit under the per-key cap
// after evicting other cached sets, nothing is installed (path
// copies never displace primaries).
func (rs *recordStore) putCached(key ID, recs []Record, now time.Time, filter string) {
	kept := make([]Record, 0, len(recs))
	for _, rec := range recs {
		if rec.DocID != "" && rec.Provider != "" {
			kept = append(kept, rec)
		}
	}
	if len(kept) == 0 {
		return
	}
	sortRecords(kept)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	sets := rs.cached[key]
	if sets == nil {
		sets = make(map[string]cachedSet)
		rs.cached[key] = sets
	}
	delete(sets, filter) // replacing: the old set never counts against us
	for len(rs.byKey[key])+rs.cachedCountLocked(key)+len(kept) > rs.maxPerKey {
		if !rs.evictCachedSetLocked(key) {
			if len(sets) == 0 {
				delete(rs.cached, key)
			}
			return // full of primaries: drop the path copy whole
		}
		if sets = rs.cached[key]; sets == nil {
			sets = make(map[string]cachedSet)
			rs.cached[key] = sets
		}
	}
	sets[filter] = cachedSet{recs: kept, expires: now.Add(rs.ttl / 2)}
}

// get digests the unexpired records under key that match the
// community/filter and — unless into is nil (the caller wants the
// digest only), or the digest equals have (the caller holds this very
// set) — returns them, sorted by (DocID, Provider) so replies are
// deterministic, capped at limit (0 = all; the digest covers the set
// before the cap). One pass evaluates the filter once per record: the
// matches gather in *into while the digest adds up. *into is the
// caller's pooled scratch, and what get returns is a slice of it, valid
// until the caller clears it (clearRecords) — a holder encodes its
// reply from it and clears it once Send returns, so it copies nothing,
// and one that answers with its digest allocates nothing. A cached set
// is served only to the identical canonical filterStr. Expired entries
// are pruned.
//
// The last result reports completeness: true when the reply draws
// on a cached set for exactly this filter (complete by construction
// — only full result sets are ever cache-STOREd, and sets evict and
// expire whole) and no limit truncated it. Primary-only replies are
// never complete: this holder may have only a partial slice of the
// key's records.
func (rs *recordStore) get(into *[]Record, key ID, now time.Time, communityID, filterStr string, f query.Filter, limit int, have setDigest) ([]Record, setDigest, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	dig, fromCache := rs.matchLocked(key, now, communityID, filterStr, f, into)
	hit := fromCache && dig.Count > 0
	if hit {
		rs.cacheHits.Inc()
	}
	complete := hit && (limit <= 0 || int(dig.Count) <= limit)
	if into == nil || dig == have || dig.Count == 0 {
		return nil, dig, complete
	}
	out := *into
	sortRecords(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, dig, complete
}

// clearRecords empties scratch that get gathered matches in, so that
// pooled scratch keeps no record alive.
func clearRecords(recs *[]Record) {
	clear(*recs)
	*recs = (*recs)[:0]
}

// matchLocked is get's pass: it digests — and, when out is non-nil,
// appends to it — the matching primaries, then the cached set for
// exactly filterStr minus what a matching primary covers, and reports
// whether a cached set took part. Caller holds rs.mu.
func (rs *recordStore) matchLocked(key ID, now time.Time, communityID, filterStr string, f query.Filter, out *[]Record) (dig setDigest, fromCache bool) {
	matches := func(rec *Record) bool {
		return (communityID == "" || rec.CommunityID == communityID) && (f == nil || f.Match(rec.Attrs))
	}
	m := rs.byKey[key]
	for rk, e := range m {
		if !e.expires.After(now) {
			delete(m, rk)
			rs.expired.Inc()
			continue
		}
		if !matches(&e.rec) {
			continue
		}
		dig.add(e.hash)
		if out != nil {
			*out = append(*out, e.rec)
		}
	}
	if len(m) == 0 {
		delete(rs.byKey, key)
	}
	sets := rs.cached[key]
	for filter, cs := range sets {
		if !cs.expires.After(now) {
			rs.expired.Add(int64(len(cs.recs)))
			delete(sets, filter)
		}
	}
	if len(sets) == 0 {
		delete(rs.cached, key)
		return dig, false
	}
	cs, ok := sets[filterStr]
	if !ok {
		return dig, false
	}
	for _, rec := range cs.recs {
		if e, dup := m[recordKey{rec.DocID, rec.Provider}]; dup && matches(&e.rec) {
			continue
		}
		dig.add(recordHash(rec.DocID, rec.Provider))
		if out != nil {
			*out = append(*out, rec)
		}
	}
	return dig, true
}

// remove withdraws one provider's record under key, from the
// primaries and from any cached sets holding it (removal reflects a
// global unpublish, so a shrunk cached set stays complete).
func (rs *recordStore) remove(key ID, docID index.DocID, provider transport.PeerID) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if m := rs.byKey[key]; m != nil {
		delete(m, recordKey{docID, provider})
		if len(m) == 0 {
			delete(rs.byKey, key)
		}
	}
	for filter, cs := range rs.cached[key] {
		kept := cs.recs[:0:0]
		for _, rec := range cs.recs {
			if rec.DocID != docID || rec.Provider != provider {
				kept = append(kept, rec)
			}
		}
		if len(kept) != len(cs.recs) {
			if len(kept) == 0 {
				delete(rs.cached[key], filter)
			} else {
				rs.cached[key][filter] = cachedSet{recs: kept, expires: cs.expires}
			}
		}
	}
	if len(rs.cached[key]) == 0 {
		delete(rs.cached, key)
	}
}

// len counts unexpired records (for tests and metrics; prunes as a
// side effect).
func (rs *recordStore) len(now time.Time) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for key, m := range rs.byKey {
		for rk, e := range m {
			if !e.expires.After(now) {
				delete(m, rk)
				rs.expired.Inc()
				continue
			}
			n++
		}
		if len(m) == 0 {
			delete(rs.byKey, key)
		}
	}
	for key, sets := range rs.cached {
		for filter, cs := range sets {
			if !cs.expires.After(now) {
				rs.expired.Add(int64(len(cs.recs)))
				delete(sets, filter)
				continue
			}
			n += len(cs.recs)
		}
		if len(sets) == 0 {
			delete(rs.cached, key)
		}
	}
	return n
}

// sortRecords orders records by (DocID, Provider): the canonical
// deterministic order for every record set that crosses the wire or
// reaches a caller.
func sortRecords(recs []Record) {
	slices.SortFunc(recs, func(a, b Record) int {
		if c := cmp.Compare(a.DocID, b.DocID); c != 0 {
			return c
		}
		return cmp.Compare(a.Provider, b.Provider)
	})
}
