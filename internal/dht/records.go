package dht

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
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
//
// A key's primaries are held the way index.Store holds a community:
// in the order replies travel in, with one sorted array of postings per
// attribute filed by key hash (query.KeyHash), so that a FIND_VALUE
// touches only the records its filter can match (keyRecords).
type recordStore struct {
	mu        sync.Mutex
	ttl       time.Duration
	maxPerKey int
	// byKey maps key -> its primary records, never an empty set.
	byKey map[ID]*keyRecords
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

type recordEntry struct {
	rec     p2p.Result
	hash    uint64 // recordHash of rec, fixed at put
	expires time.Time
}

// keyRecords is one key's primary records, sorted by (DocID,
// Provider): a reply walks them in wire order and sorts nothing. Their
// postings (lists) name them by position.
type keyRecords struct {
	entries []recordEntry
	// community is the CommunityID the key's first record was stored
	// under, and others counts the entries under any other: while it is
	// 0, a request's community is compared once, not once per record.
	community string
	others    int
	// soonest is at most the earliest expiry among entries: until it
	// has passed, no entry can have expired and get skips the prune.
	soonest time.Time
	// gen counts changes to which entries there are and what they hold;
	// postings built at another gen are stale, since a change can move
	// every position after it.
	gen uint64
	// lists maps an attribute to its postings, built the first time an
	// equality conjunct names it (candidates).
	lists map[string]*postings
}

// postings is one attribute's postings over a key's entries, in the
// form index.Store's fields take: one sorted array, an entry filed once
// under the hash (query.KeyHash) of each key query.IndexKeys files its
// values under. A posting is that hash with its low bits (posBits)
// replaced by the entry's position, so the entries holding a key are one
// run of the array, in position order, and keys whose hashes differ only
// in those bits share a run, which only adds candidates. A stale array
// is refilled in place.
type postings struct {
	posts []uint64
	gen   uint64 // keyRecords.gen when filled
}

// cachedSet is one caching STORE's payload: the complete, sorted
// result set for its filter, expiring as a unit.
type cachedSet struct {
	recs    []p2p.Result
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
		byKey:     make(map[ID]*keyRecords),
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

// evictPrimaryLocked removes kr's deterministic primary victim: the
// earliest expiry, and among equals the first in (DocID, Provider)
// order. Caller holds rs.mu.
func (rs *recordStore) evictPrimaryLocked(kr *keyRecords) bool {
	if len(kr.entries) == 0 {
		return false
	}
	victim := 0
	for i := range kr.entries {
		if kr.entries[i].expires.Before(kr.entries[victim].expires) {
			victim = i
		}
	}
	kr.delete(victim)
	rs.evicted.Inc()
	return true
}

// find returns where rec's (DocID, Provider) is or would be in
// kr.entries.
func (kr *keyRecords) find(rec *p2p.Result) (int, bool) {
	return slices.BinarySearchFunc(kr.entries, *rec, func(e recordEntry, rec p2p.Result) int { return compareResults(&e.rec, &rec) })
}

// set stores e at i, inserting it unless an entry with its key is
// there already.
func (kr *keyRecords) set(i int, found bool, e recordEntry) {
	if len(kr.entries) == 0 {
		kr.community, kr.soonest = e.rec.CommunityID, e.expires
	}
	if e.expires.Before(kr.soonest) {
		kr.soonest = e.expires
	}
	if e.rec.CommunityID != kr.community {
		kr.others++
	}
	if !found {
		kr.entries = slices.Insert(kr.entries, i, e)
		kr.gen++
		return
	}
	old := &kr.entries[i]
	if old.rec.CommunityID != kr.community {
		kr.others--
	}
	if !old.rec.Attrs.Equal(e.rec.Attrs) {
		kr.gen++
	}
	*old = e
}

// delete removes the entry at i.
func (kr *keyRecords) delete(i int) {
	if kr.entries[i].rec.CommunityID != kr.community {
		kr.others--
	}
	kr.entries = slices.Delete(kr.entries, i, i+1)
	kr.gen++
}

// pruneLocked drops key's expired primaries, counting each in
// dht.records_expired, once kr.soonest says one may have expired.
// Caller holds rs.mu.
func (rs *recordStore) pruneLocked(key ID, kr *keyRecords, now time.Time) {
	if kr.soonest.After(now) {
		return
	}
	kept := kr.entries[:0]
	for _, e := range kr.entries {
		if !e.expires.After(now) {
			if e.rec.CommunityID != kr.community {
				kr.others--
			}
			rs.expired.Inc()
			continue
		}
		if len(kept) == 0 || e.expires.Before(kr.soonest) {
			kr.soonest = e.expires
		}
		kept = append(kept, e)
	}
	if len(kept) < len(kr.entries) {
		clear(kr.entries[len(kept):])
		kr.gen++
	}
	kr.entries = kept
	if len(kept) == 0 {
		delete(rs.byKey, key)
	}
}

// put upserts primary records under key, (re)starting their TTL at
// now. Past the per-key cap, whole cached sets are evicted first, then
// the earliest-expiring primaries.
func (rs *recordStore) put(key ID, recs []p2p.Result, now time.Time) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	kr := rs.byKey[key]
	if kr == nil {
		kr = new(keyRecords)
		rs.byKey[key] = kr
	}
	for j := range recs {
		rec := &recs[j]
		if rec.DocID == "" || rec.Provider == "" {
			continue
		}
		i, found := kr.find(rec)
		if !found {
			for len(kr.entries)+rs.cachedCountLocked(key) >= rs.maxPerKey {
				if !rs.evictCachedSetLocked(key) && !rs.evictPrimaryLocked(kr) {
					break
				}
			}
			i, _ = kr.find(rec) // an eviction moves what follows it
		}
		kr.set(i, found, recordEntry{rec: *rec, hash: recordHash(rec.DocID, rec.Provider), expires: now.Add(rs.ttl)})
	}
	if len(kr.entries) == 0 {
		delete(rs.byKey, key)
	}
}

// putCached installs one caching STORE's complete record set for
// filter: half TTL, replacing any previous set for the same filter,
// atomically — if the whole set cannot fit under the per-key cap
// after evicting other cached sets, nothing is installed (path
// copies never displace primaries).
func (rs *recordStore) putCached(key ID, recs []p2p.Result, now time.Time, filter string) {
	kept := make([]p2p.Result, 0, len(recs))
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
	primaries := 0
	if kr := rs.byKey[key]; kr != nil {
		primaries = len(kr.entries)
	}
	for primaries+rs.cachedCountLocked(key)+len(kept) > rs.maxPerKey {
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

// get digests the unexpired records under key that match vq's
// community and filter and — unless into is nil (the caller wants the
// digest only), or the digest equals have (the caller holds this very
// set) — returns them, sorted by (DocID, Provider) so replies are
// deterministic, capped at vq.limit (0 = all; the digest covers the set
// before the cap). One pass over the filter's candidates (candidates)
// digests the matches and gathers them in *into, already in order.
// *into is the caller's pooled scratch, and what get returns is a
// slice of it, valid until the caller clears it (clearRecords) — a
// holder encodes its reply from it and clears it once Send returns, so
// it copies nothing, and one that answers with its digest allocates
// nothing. A cached set is served only to the identical canonical
// filter string. Expired entries are pruned.
//
// The last result reports completeness: true when the reply draws
// on a cached set for exactly this filter (complete by construction
// — only full result sets are ever cache-STOREd, and sets evict and
// expire whole) and no limit truncated it. Primary-only replies are
// never complete: this holder may have only a partial slice of the
// key's records.
func (rs *recordStore) get(into *[]p2p.Result, key ID, now time.Time, vq *valueQuery, have setDigest) ([]p2p.Result, setDigest, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	dig, fromCache := rs.matchLocked(key, now, vq, into)
	hit := fromCache && dig.Count > 0
	if hit {
		rs.cacheHits.Inc()
	}
	complete := hit && (vq.limit <= 0 || int(dig.Count) <= vq.limit)
	if into == nil || dig == have || dig.Count == 0 {
		return nil, dig, complete
	}
	return *into, dig, complete
}

// clearRecords empties scratch that get gathered matches in, so that
// pooled scratch keeps no record alive.
func clearRecords(recs *[]p2p.Result) {
	clear(*recs)
	*recs = (*recs)[:0]
}

// matchLocked is get's pass: it digests — and, when out is non-nil,
// appends to it the first vq.limit of — the matching primaries merged
// in (DocID, Provider) order with the cached set for exactly vq.filter,
// less what a matching primary covers, and reports whether a cached
// set took part. Caller holds rs.mu.
func (rs *recordStore) matchLocked(key ID, now time.Time, vq *valueQuery, out *[]p2p.Result) (dig setDigest, fromCache bool) {
	communityID, f, limit := vq.communityID, vq.match, vq.limit
	var entries []recordEntry
	var cand []uint64
	var pos uint64 // the position bits of cand's postings
	indexed, perRecord := false, false
	if kr := rs.byKey[key]; kr != nil {
		rs.pruneLocked(key, kr, now)
		// With every entry under one community, one comparison admits
		// all of them or none.
		if communityID == "" || kr.others > 0 || communityID == kr.community {
			entries, perRecord = kr.entries, communityID != "" && kr.others > 0
			cand, indexed = kr.candidates(f)
			pos = posBits(len(kr.entries))
		}
	}
	cs, fromCache := rs.cachedLocked(key, now, vq.filter)
	emit := func(rec *p2p.Result, hash uint64) {
		dig.add(hash)
		if out != nil && (limit <= 0 || int(dig.Count) <= limit) {
			*out = append(*out, *rec)
		}
	}
	n := len(entries)
	if indexed {
		n = len(cand)
	}
	next := 0 // the first record of cs not yet merged
	for j := 0; j < n; j++ {
		e := &entries[j]
		if indexed {
			e = &entries[cand[j]&pos]
		}
		for ; next < len(cs) && compareResults(&cs[next], &e.rec) < 0; next++ {
			emit(&cs[next], recordHash(cs[next].DocID, cs[next].Provider))
		}
		match := (!perRecord || e.rec.CommunityID == communityID) && (f == nil || f.Match(&e.rec.Attrs))
		for ; next < len(cs) && compareResults(&cs[next], &e.rec) == 0; next++ {
			if !match {
				emit(&cs[next], e.hash)
			}
		}
		if match {
			emit(&e.rec, e.hash)
		}
	}
	for ; next < len(cs); next++ {
		emit(&cs[next], recordHash(cs[next].DocID, cs[next].Provider))
	}
	return dig, fromCache
}

// cachedLocked prunes key's expired cached sets, counting their records
// in dht.records_expired, and returns the set for exactly filterStr.
// Caller holds rs.mu.
func (rs *recordStore) cachedLocked(key ID, now time.Time, filterStr string) ([]p2p.Result, bool) {
	sets := rs.cached[key]
	for filter, cs := range sets {
		if !cs.expires.After(now) {
			rs.expired.Add(int64(len(cs.recs)))
			delete(sets, filter)
		}
	}
	if len(sets) == 0 {
		delete(rs.cached, key)
		return nil, false
	}
	cs, ok := sets[filterStr]
	return cs.recs, ok
}

// candidates returns the run of postings of the entries f can match,
// and true; or false when f has no equality conjunct to look up and
// every entry must be tried. Like index.Store's, the candidates are a
// superset of the matches: the caller matches each with all of f. An
// And takes its shortest run.
func (kr *keyRecords) candidates(f query.Filter) (cand []uint64, indexed bool) {
	pos := posBits(len(kr.entries))
	for attr, key := range query.ExactKeys(f) {
		posts := kr.postingsFor(attr)
		lo := query.KeyHash(key) &^ pos
		i := sort.Search(len(posts), func(j int) bool { return posts[j] >= lo })
		n := sort.Search(len(posts)-i, func(j int) bool { return posts[i+j]&^pos != lo })
		if !indexed || n < len(cand) {
			cand, indexed = posts[i:i+n], true
		}
	}
	return cand, indexed
}

// posBits is the mask of the low bits a posting holds its entry's
// position in, for a key of n entries.
func posBits(n int) uint64 {
	return 1<<bits.Len(uint(n)) - 1
}

// postingsFor returns attr's postings, current as of kr.gen, or nil
// when no entry files a value of attr under any key.
func (kr *keyRecords) postingsFor(attr string) []uint64 {
	p := kr.lists[attr]
	if p != nil && p.gen == kr.gen {
		return p.posts
	}
	if p == nil {
		// An attribute nobody holds gets no postings: a stranger's
		// filters cannot grow the key by naming attributes.
		if !slices.ContainsFunc(kr.entries, func(e recordEntry) bool {
			_, n := e.rec.Attrs.Value(attr, 0)
			return n > 0
		}) {
			return nil
		}
		p = new(postings)
		if kr.lists == nil {
			kr.lists = make(map[string]*postings)
		}
		kr.lists[strings.Clone(attr)] = p // attr is the request filter's: keep a copy of its own
	}
	p.fill(kr.entries, attr)
	p.gen = kr.gen
	if len(p.posts) == 0 {
		delete(kr.lists, attr)
		return nil
	}
	return p.posts
}

// fill rebuilds p over entries: a posting for each entry and key of its
// values of attr, sorted, one of each. An entry filed twice under one
// key, or under two keys that hash alike, is posted there once.
func (p *postings) fill(entries []recordEntry, attr string) {
	pos := posBits(len(entries))
	p.posts = p.posts[:0]
	for i := range entries {
		for v := range entries[i].rec.Attrs.Values(attr) {
			for k := range query.IndexKeys(v) {
				p.posts = append(p.posts, query.KeyHash(k)&^pos|uint64(i))
			}
		}
	}
	slices.Sort(p.posts)
	p.posts = slices.Compact(p.posts)
}

// remove withdraws one provider's record under key, from the
// primaries and from any cached sets holding it (removal reflects a
// global unpublish, so a shrunk cached set stays complete).
func (rs *recordStore) remove(key ID, docID index.DocID, provider transport.PeerID) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if kr := rs.byKey[key]; kr != nil {
		if i, found := kr.find(&p2p.Result{DocID: docID, Provider: provider}); found {
			kr.delete(i)
		}
		if len(kr.entries) == 0 {
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

// holds reports whether an unexpired primary record of provider's
// docID sits under key.
func (rs *recordStore) holds(key ID, docID index.DocID, provider transport.PeerID, now time.Time) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	kr := rs.byKey[key]
	if kr == nil {
		return false
	}
	i, found := kr.find(&p2p.Result{DocID: docID, Provider: provider})
	return found && kr.entries[i].expires.After(now)
}

// len counts unexpired records (for tests and metrics; prunes as a
// side effect).
func (rs *recordStore) len(now time.Time) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for key, kr := range rs.byKey {
		rs.pruneLocked(key, kr, now)
		n += len(kr.entries)
	}
	for key := range rs.cached {
		rs.cachedLocked(key, now, "")
		n += rs.cachedCountLocked(key)
	}
	return n
}

// compareResults is the one (DocID, Provider) order of held records,
// of the sets that cross the wire and of the results a search returns.
func compareResults(a, b *p2p.Result) int {
	if c := cmp.Compare(a.DocID, b.DocID); c != 0 {
		return c
	}
	return cmp.Compare(a.Provider, b.Provider)
}

// sortRecords puts recs in compareResults order.
func sortRecords(recs []p2p.Result) {
	slices.SortFunc(recs, func(a, b p2p.Result) int { return compareResults(&a, &b) })
}
