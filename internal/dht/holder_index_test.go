package dht

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// scanStore is the oracle for recordStore: the same store kept as a map
// per key and answered by matching every record it holds, then sorting.
type scanStore struct {
	ttl                    time.Duration
	maxPerKey              int
	byKey                  map[ID]map[docProvider]recordEntry
	cached                 map[ID]map[string]cachedSet
	expired, evicted, hits int64
}

// docProvider is what the scan store addresses a record by.
type docProvider struct {
	docID    index.DocID
	provider transport.PeerID
}

func newScanStore(ttl time.Duration, maxPerKey int) *scanStore {
	return &scanStore{ttl: ttl, maxPerKey: maxPerKey,
		byKey: make(map[ID]map[docProvider]recordEntry), cached: make(map[ID]map[string]cachedSet)}
}

func (ss *scanStore) cachedCount(key ID) int {
	n := 0
	for _, cs := range ss.cached[key] {
		n += len(cs.recs)
	}
	return n
}

func (ss *scanStore) evictCachedSet(key ID) bool {
	sets := ss.cached[key]
	victim, found := "", false
	for filter, cs := range sets {
		if !found || cs.expires.Before(sets[victim].expires) || cs.expires.Equal(sets[victim].expires) && filter < victim {
			victim, found = filter, true
		}
	}
	if !found {
		return false
	}
	ss.evicted += int64(len(sets[victim].recs))
	delete(sets, victim)
	if len(sets) == 0 {
		delete(ss.cached, key)
	}
	return true
}

func (ss *scanStore) evictPrimary(m map[docProvider]recordEntry) bool {
	var victim docProvider
	var ve recordEntry
	found := false
	for rk, e := range m {
		if !found || e.expires.Before(ve.expires) || e.expires.Equal(ve.expires) &&
			(rk.docID < victim.docID || rk.docID == victim.docID && rk.provider < victim.provider) {
			victim, ve, found = rk, e, true
		}
	}
	if found {
		delete(m, victim)
		ss.evicted++
	}
	return found
}

func (ss *scanStore) put(key ID, recs []p2p.Result, now time.Time) {
	m := ss.byKey[key]
	if m == nil {
		m = make(map[docProvider]recordEntry)
		ss.byKey[key] = m
	}
	for _, rec := range recs {
		rk := docProvider{rec.DocID, rec.Provider}
		if _, exists := m[rk]; !exists {
			for len(m)+ss.cachedCount(key) >= ss.maxPerKey && (ss.evictCachedSet(key) || ss.evictPrimary(m)) {
			}
		}
		m[rk] = recordEntry{rec: rec, hash: recordHash(rec.DocID, rec.Provider), expires: now.Add(ss.ttl)}
	}
	if len(m) == 0 {
		delete(ss.byKey, key)
	}
}

func (ss *scanStore) putCached(key ID, recs []p2p.Result, now time.Time, filter string) {
	kept := slices.Clone(recs)
	sortRecords(kept)
	if ss.cached[key] == nil {
		ss.cached[key] = make(map[string]cachedSet)
	}
	delete(ss.cached[key], filter)
	for len(ss.byKey[key])+ss.cachedCount(key)+len(kept) > ss.maxPerKey {
		if !ss.evictCachedSet(key) {
			if len(ss.cached[key]) == 0 {
				delete(ss.cached, key)
			}
			return
		}
	}
	if ss.cached[key] == nil {
		ss.cached[key] = make(map[string]cachedSet)
	}
	ss.cached[key][filter] = cachedSet{recs: kept, expires: now.Add(ss.ttl / 2)}
}

func (ss *scanStore) remove(key ID, docID index.DocID, provider transport.PeerID) {
	if m := ss.byKey[key]; m != nil {
		delete(m, docProvider{docID, provider})
		if len(m) == 0 {
			delete(ss.byKey, key)
		}
	}
	for filter, cs := range ss.cached[key] {
		kept := slices.DeleteFunc(slices.Clone(cs.recs), func(r p2p.Result) bool { return r.DocID == docID && r.Provider == provider })
		switch {
		case len(kept) == 0:
			delete(ss.cached[key], filter)
		case len(kept) != len(cs.recs):
			ss.cached[key][filter] = cachedSet{recs: kept, expires: cs.expires}
		}
	}
	if len(ss.cached[key]) == 0 {
		delete(ss.cached, key)
	}
}

// prune drops key's expired records, as a get of key does.
func (ss *scanStore) prune(key ID, now time.Time) {
	m := ss.byKey[key]
	for rk, e := range m {
		if !e.expires.After(now) {
			delete(m, rk)
			ss.expired++
		}
	}
	if len(m) == 0 {
		delete(ss.byKey, key)
	}
	sets := ss.cached[key]
	for filter, cs := range sets {
		if !cs.expires.After(now) {
			ss.expired += int64(len(cs.recs))
			delete(sets, filter)
		}
	}
	if len(sets) == 0 {
		delete(ss.cached, key)
	}
}

// get answers as recordStore.get does, by brute force over every
// record the key holds.
func (ss *scanStore) get(key ID, now time.Time, communityID, filterStr string, f query.Filter, limit int) ([]p2p.Result, setDigest, bool) {
	ss.prune(key, now)
	matches := func(rec *p2p.Result) bool {
		return (communityID == "" || rec.CommunityID == communityID) && (f == nil || f.Match(&rec.Attrs))
	}
	var out []p2p.Result
	var dig setDigest
	m := ss.byKey[key]
	for _, e := range m {
		if matches(&e.rec) {
			dig.add(e.hash)
			out = append(out, e.rec)
		}
	}
	cs, fromCache := ss.cached[key][filterStr]
	for _, rec := range cs.recs {
		if e, dup := m[docProvider{rec.DocID, rec.Provider}]; dup && matches(&e.rec) {
			continue
		}
		dig.add(recordHash(rec.DocID, rec.Provider))
		out = append(out, rec)
	}
	hit := fromCache && dig.Count > 0
	if hit {
		ss.hits++
	}
	sortRecords(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, dig, hit && (limit <= 0 || int(dig.Count) <= limit)
}

func (ss *scanStore) len(now time.Time) int {
	n := 0
	for _, key := range slices.Collect(maps.Keys(ss.byKey)) {
		ss.prune(key, now)
		n += len(ss.byKey[key])
	}
	for _, key := range slices.Collect(maps.Keys(ss.cached)) {
		ss.prune(key, now)
		n += ss.cachedCount(key)
	}
	return n
}

// holderValues are attribute values chosen to sit on the edges of the
// key rule: punctuation-only words (filed under no key, matched by
// (attr=)), the Kelvin sign against k, tabs, multi-word values, and
// words that repeat within a value.
var holderValues = []string{
	"behavioral", "creational", "structural", "Behavioral", "wrapper", "undo",
	"", "...", "!", "wrapper, decorator", "undo (redo)", "undo undo", "a\tb", "a b",
	"Kelvin", "\u212Aelvin", "kelvin", "Abstract Factory", "abstract factory", "ß", "SS",
}

// holderFilters are the filters the oracle asks with: equality the
// lists answer, the assertions that scan, and compositions of both.
var holderFilters = []string{
	"(classification=behavioral)", "(classification=creational)", "(keywords=wrapper)",
	"(keywords=undo)", "(keywords=UNDO)", "(name=kelvin)", "(name=\u212Aelvin)", "(name=KELVIN)",
	"(keywords=)", "(keywords=...)", "(keywords=!)", "(name=abstract factory)", "(name=Abstract)",
	"(name=a\tb)", "(name=a b)", "(keywords=decorator)", "(keywords=redo)", "(name=ß)", "(name=ss)",
	"(name=Abs*)", "(name=*)", "(keywords=*)", "(keywords~=wrap)", "(name>=k)", "(name<b)",
	"(&(classification=behavioral)(keywords=undo))", "(&(keywords=)(classification=behavioral))",
	"(&(name=*)(keywords=undo))", "(&(keywords~=un)(name=kelvin))",
	"(|(classification=creational)(keywords=wrapper))", "(!(classification=behavioral))",
	"(&(classification=structural)(!(keywords=wrapper)))", "(absent=x)", "(&(absent=x)(name=*))", "(*)",
}

var holderAttrs = []string{"classification", "keywords", "name", "extra"}

// opReader hands out the bytes of a fuzz input, then zeros.
type opReader []byte

func (r *opReader) next(n int) int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b) % n
}

func (r *opReader) record() p2p.Result {
	var a query.Attrs
	for _, attr := range holderAttrs {
		for v := r.next(4); v > 0; v-- {
			if a == nil {
				a = query.Attrs{}
			}
			a.Add(attr, holderValues[r.next(len(holderValues))])
		}
	}
	comm := "patterns"
	if r.next(8) == 0 {
		comm = "other"
	}
	return p2p.Result{
		DocID:       index.DocID(fmt.Sprintf("d-%02d", r.next(24))),
		CommunityID: comm,
		Title:       "t",
		Attrs:       query.FieldsOf(a),
		Provider:    transport.PeerID(fmt.Sprintf("p%d", r.next(3))),
	}
}

// runHolderOps drives a recordStore and its oracle through the same
// operations, read from ops, and fails at the first answer, count or
// counter on which they differ.
func runHolderOps(t *testing.T, ops []byte) {
	const maxPerKey = 12
	rs := newRecordStore(10*time.Second, maxPerKey)
	reg := metrics.NewRegistry()
	rs.setCounters(reg.Counter("dht.records_expired"), reg.Counter("dht.records_evicted"), reg.Counter("dht.cache_hits"))
	ss := newScanStore(10*time.Second, maxPerKey)
	keys := []ID{KeyForCommunity("patterns"), KeyForCommunity("other")}
	filters := make([]query.Filter, len(holderFilters))
	for i, src := range holderFilters {
		filters[i] = query.MustParse(src)
	}
	now := time.Unix(1000, 0)
	r := opReader(ops)
	for step := 0; len(r) > 0; step++ {
		key := keys[r.next(len(keys))]
		switch r.next(8) {
		case 0, 1:
			recs := make([]p2p.Result, 1+r.next(3))
			for i := range recs {
				recs[i] = r.record()
			}
			rs.put(key, recs, now)
			ss.put(key, recs, now)
		case 2:
			rec := r.record()
			rs.remove(key, rec.DocID, rec.Provider)
			ss.remove(key, rec.DocID, rec.Provider)
		case 3:
			recs := make([]p2p.Result, 1+r.next(4))
			for i := range recs {
				recs[i] = r.record()
			}
			filter := holderFilters[r.next(len(holderFilters))]
			rs.putCached(key, recs, now, filter)
			ss.putCached(key, recs, now, filter)
		case 4:
			now = now.Add(time.Duration(r.next(6)) * time.Second)
		case 5:
			if got, want := rs.len(now), ss.len(now); got != want {
				t.Fatalf("step %d: len = %d, oracle %d", step, got, want)
			}
			counts := reg.Snapshot()
			for name, want := range map[string]int64{"dht.records_expired": ss.expired, "dht.records_evicted": ss.evicted, "dht.cache_hits": ss.hits} {
				if got := counts.Counter(name); got != want {
					t.Fatalf("step %d: %s = %d, oracle %d", step, name, got, want)
				}
			}
		default:
			i := r.next(len(filters))
			comm := [...]string{"patterns", "", "other"}[r.next(3)]
			limit := [...]int{0, 0, 1, 3}[r.next(4)]
			want, wantDig, wantComplete := ss.get(key, now, comm, holderFilters[i], filters[i], limit)
			have := setDigest{}
			if r.next(4) == 0 {
				have = wantDig
			}
			var into *[]p2p.Result
			if r.next(4) != 0 {
				into = new([]p2p.Result)
			}
			got, dig, complete := rs.get(into, key, now, &valueQuery{communityID: comm, filter: holderFilters[i], match: filters[i], limit: limit}, have)
			if into == nil || have == wantDig || wantDig.Count == 0 {
				want = nil
			}
			if dig != wantDig || complete != wantComplete || !sameRecords(got, want) {
				t.Fatalf("step %d: get %s in %q limit %d: %d records %+v complete %v; oracle %d records %+v complete %v",
					step, holderFilters[i], comm, limit, len(got), dig, complete, len(want), wantDig, wantComplete)
			}
		}
	}
}

func sameRecords(a, b []p2p.Result) bool {
	return slices.EqualFunc(a, b, func(x, y p2p.Result) bool {
		return x.DocID == y.DocID && x.Provider == y.Provider && x.CommunityID == y.CommunityID &&
			x.Title == y.Title && x.Attrs.Equal(y.Attrs)
	})
}

// TestHolderIndexMatchesScan: over many seeds of interleaved puts,
// removes, caching STOREs, expiry and eviction, every get the posting
// lists answer agrees with a scan of the same records, and the counts
// and counters agree too.
func TestHolderIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		ops := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(ops)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runHolderOps(t, ops) })
	}
}

// FuzzHolderIndex runs runHolderOps on arbitrary operation streams.
func FuzzHolderIndex(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<14 {
			return
		}
		runHolderOps(t, ops)
	})
}
