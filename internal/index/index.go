// Package index implements U-P2P's local metadata store: the database
// role Magenta played in the paper's prototype. Each servent keeps one
// Store holding the XML objects it shares or has downloaded, plus an
// inverted index over the *indexed attributes* extracted from each
// object by the community's indexing transform (§IV.C.2: only fields
// marked searchable enter the index, keeping "small portions of
// content ... in the search engine instead of the entire XML object").
//
// The inverted index holds no maps and no key strings. Each community
// keeps one field per indexed attribute, sorted by name, and a field is
// one array of postings: an entry pointer under the hash (query.KeyHash,
// which a DHT holder's postings use too) of one of its keys
// (query.IndexKeys), sorted by (hash, ID). The entries holding a key are
// one run of the array, in ID order; keys that hash alike share a run,
// which only adds candidates, since a search re-matches each.
//
// Searches evaluate query.Filter expressions and answer in ID order,
// with one walk that stops at the limit. A filter with exact-match
// assertions (query.ExactKeys) walks the intersection of their runs;
// any other filter walks the community's members, which are kept sorted
// by ID. Either way a community-scoped search sorts nothing.
//
// One lock guards the store. Each community keeps its own members and
// its own fields, so a community-scoped search never walks another
// community's postings. A batch (PutBatch/DeleteBatch) takes the lock
// once and is applied whole: its postings are sorted, and each field it
// touches is rewritten once, however many entries the batch holds. A
// replacement's posting under a key the replaced entry held too is
// written over the old one in place.
package index

import (
	"cmp"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/errs"
	"repro/internal/metrics"
	"repro/internal/query"
)

// DocID identifies a stored document. U-P2P derives it from a content
// hash so replicas of the same object share an ID across peers.
type DocID string

// Document is one shared object plus its indexed metadata, in the map
// form an indexer extracts: what Put and PutBatch take and Get
// returns. The store itself holds Entries.
type Document struct {
	ID          DocID
	CommunityID string
	// Title is a human-readable label (typically the first indexed
	// attribute value).
	Title string
	// XML is the complete serialized object; returned on retrieval,
	// never scanned during search.
	XML string
	// Attrs are the indexed attributes extracted by the community's
	// indexing stylesheet.
	Attrs query.Attrs
	// Attachments lists attachment URIs flagged in the object
	// (§IV.C.1); downloaded only when the object is retrieved.
	Attachments []string
}

// Entry is a document in the form the store holds it: its attributes
// flat, in their wire encoding (query.Fields), so that a search reads
// them in place and an answer copies their bytes onto the wire. An
// entry handed to the store is never written again — Put installs a
// new entry in an old one's place — so Search returns the store's own
// entries, and anyone may keep one, share it or encode it for as long
// as they like, but no one may modify it.
type Entry struct {
	ID          DocID
	CommunityID string
	Title       string
	XML         string
	Attrs       query.Fields
	Attachments []string
}

// NewEntry returns d's entry: its attributes flattened into one string
// of their own and its attachment list copied, so the entry shares
// nothing the caller may change. NewEntry(nil) is nil, which PutEntries
// rejects as it rejects an ID-less entry.
func NewEntry(d *Document) *Entry {
	if d == nil {
		return nil
	}
	return &Entry{ID: d.ID, CommunityID: d.CommunityID, Title: d.Title, XML: d.XML,
		Attrs: query.FieldsOf(d.Attrs), Attachments: append([]string(nil), d.Attachments...)}
}

// NewEntries returns the entries of docs (NewEntry), in order.
func NewEntries(docs []*Document) []*Entry {
	es := make([]*Entry, len(docs))
	for i, d := range docs {
		es[i] = NewEntry(d)
	}
	return es
}

// Document returns the entry in map form, the caller's own: Attrs is
// never nil, and an attribute without values maps to a nil slice. The
// value lists share one array, each capped at its own end, so that an
// append to one never writes into the next.
func (e *Entry) Document() *Document {
	n := 0
	for _, vs := range e.Attrs.All() {
		for range vs {
			n++
		}
	}
	attrs := make(query.Attrs, e.Attrs.Len())
	vals := make([]string, 0, n)
	for k, vs := range e.Attrs.All() {
		start := len(vals)
		vals = slices.AppendSeq(vals, vs)
		attrs[k] = nil
		if len(vals) > start {
			attrs[k] = vals[start:len(vals):len(vals)]
		}
	}
	return &Document{ID: e.ID, CommunityID: e.CommunityID, Title: e.Title, XML: e.XML,
		Attrs: attrs, Attachments: append([]string(nil), e.Attachments...)}
}

// Common errors, carrying structured codes ("index.<name>") for the
// metrics registry's error counter family. Identity semantics are
// unchanged: errors.Is against the sentinels still holds through
// fmt.Errorf("%w: ...") wrapping.
var (
	ErrNotFound error = errs.New("index.not_found", "index: document not found")
	ErrNoID     error = errs.New("index.no_id", "index: document has no ID")
)

// Option configures a Store.
type Option func(*storeConfig)

type storeConfig struct {
	metrics         *metrics.Registry
	logger          *slog.Logger
	walDir          string
	walFsync        FsyncPolicy
	walSegmentBytes int64
	walCompactBytes int64
}

func defaultStoreConfig() storeConfig {
	return storeConfig{
		walFsync:        FsyncAlways,
		walSegmentBytes: DefaultWALSegmentBytes,
		walCompactBytes: DefaultWALCompactBytes,
	}
}

// WithCacheSize does nothing. The store once cached query results;
// its searches now walk sorted lists and stop at the limit, so there
// is nothing to size. It remains because the benchmark's probes still
// pass it.
//
// Deprecated: a search has one path; drop the option.
func WithCacheSize(int) Option {
	return func(*storeConfig) {}
}

// WithMetrics records the store's telemetry (occupancy gauges, WAL
// counters) into reg. Default is a private registry; several
// stores sharing one registry aggregate: the index.docs and
// index.postings gauges sum across stores.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *storeConfig) { c.metrics = reg }
}

// WithLogger routes the store's operational log lines — WAL replay
// ranges, torn-tail truncations, compactions — to l. The default
// discards them; the counters in the metrics registry always record
// these events regardless of the logger.
func WithLogger(l *slog.Logger) Option {
	return func(c *storeConfig) { c.logger = l }
}

// WithWAL arms crash-safe persistence under dir: every write is
// appended to a write-ahead log before it is applied, and OpenStore
// replays snapshot + log on start. Only OpenStore honors this option
// (opening a log can fail); NewStore panics on it.
func WithWAL(dir string) Option {
	return func(c *storeConfig) { c.walDir = dir }
}

// WithWALFsync sets the log's fsync policy (default FsyncAlways).
func WithWALFsync(p FsyncPolicy) Option {
	return func(c *storeConfig) { c.walFsync = p }
}

// WithWALCompactBytes sets the total live-log size beyond which the
// next write triggers automatic compaction; 0 disables auto
// compaction (default DefaultWALCompactBytes).
func WithWALCompactBytes(n int64) Option {
	return func(c *storeConfig) { c.walCompactBytes = n }
}

// Store is a thread-safe metadata store with a per-community inverted
// index. See the package comment for the design.
type Store struct {
	// mu guards docs and communities, and with a WAL armed it also
	// orders log appends: a write is logged and applied under one hold
	// of it, so the log's order is the store's.
	mu          sync.RWMutex
	docs        map[DocID]*Entry
	communities map[string]*community
	reg         *metrics.Registry
	// wal, when non-nil, logs every write before it is applied; see
	// wal.go. Armed only by OpenStore.
	wal *wal
}

// community is one community's share of the store: its entries and
// its inverted index. It exists only while it has members.
type community struct {
	// members are the community's entries, sorted by ID.
	members []*Entry
	// fields is the inverted index, one field per indexed attribute,
	// sorted by name.
	fields []field
}

// field is one attribute's postings. An entry holding a key under the
// attribute is posted once under the key's hash, and the postings are
// sorted by (hash, ID), so the entries holding a key are one run of
// them, in ID order. The index holds no key strings: a run may also
// hold entries whose other keys hash alike, which the search's re-match
// turns away. The attribute name is the field's own copy, since a field
// outlives most of the entries it indexes.
type field struct {
	attr  string
	posts []posting
}

// posting files an entry under the hash of one of its keys.
type posting struct {
	h uint64
	e *Entry
}

// before reports whether p sorts before q: by hash, then by ID.
func before(p, q posting) bool {
	return p.h < q.h || p.h == q.h && p.e.ID < q.e.ID
}

// NewStore returns an empty in-memory store with the given options.
// For a durable store,
// pass WithWAL to OpenStore instead; NewStore panics on WithWAL
// because arming a log can fail and NewStore has no error to return.
func NewStore(opts ...Option) *Store {
	cfg := defaultStoreConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.walDir != "" {
		panic("index: NewStore cannot arm a WAL; use OpenStore")
	}
	return newStore(cfg)
}

// newStore builds the in-memory structures shared by NewStore and
// OpenStore.
func newStore(cfg storeConfig) *Store {
	reg := cfg.metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Store{
		docs:        make(map[DocID]*Entry),
		communities: make(map[string]*community),
		reg:         reg,
	}
	reg.GaugeFunc("index.docs", func() int64 { return int64(s.Len()) })
	reg.GaugeFunc("index.postings", func() int64 { return int64(s.Postings()) })
	return s
}

// Put inserts or replaces a document. The document is copied; the
// caller keeps ownership of its argument. With a WAL armed, the write
// is logged (and, under FsyncAlways, synced) before it is applied; an
// error means the store is unchanged.
func (s *Store) Put(doc *Document) error {
	return s.PutBatch([]*Document{doc})
}

// PutBatch inserts or replaces many documents: PutEntries of their
// entries (NewEntry), so the caller keeps ownership of its arguments.
func (s *Store) PutBatch(docs []*Document) error {
	return s.PutEntries(NewEntries(docs))
}

// PutEntries inserts or replaces many entries under one hold of the
// lock — the one write path, behind Put and PutBatch, corpus seeding,
// snapshot load, log replay and a hub's registrations. The store keeps
// the entries themselves: from here on they are the store's, and the
// caller must not modify them (an entry is immutable; see Entry). The
// batch is validated up front: on a nil or ID-less entry nothing is
// written. Duplicate IDs within one batch behave like sequential Puts
// (the last occurrence wins).
//
// With a WAL armed, the batch is one log record, appended before any
// of it is applied: a nil return means the whole batch is on the log
// (synced, under FsyncAlways) and survives a crash, and an error means
// none of it was applied. The log holds each entry's map form
// (Entry.Document), the bytes it held when the store held documents.
func (s *Store) PutEntries(es []*Entry) error {
	for _, e := range es {
		if e == nil || e.ID == "" {
			return ErrNoID
		}
	}
	if len(es) == 0 {
		return nil
	}
	s.maybeCompact()
	var logged []*Document
	if s.wal != nil {
		logged = make([]*Document, len(es))
		for i, e := range es {
			logged[i] = e.Document()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.appendRecord(walRecord{Op: walOpPut, Docs: logged}); err != nil {
			return err
		}
	}
	var w []change
	for _, e := range es {
		if old := s.putLocked(e); old != nil {
			w = append(w, change{old, true})
		}
	}
	// An entry's own postings are added once the whole batch is placed,
	// since a later entry of its ID displaces it in turn.
	for _, e := range es {
		if s.docs[e.ID] == e {
			w = append(w, change{e, false})
		}
	}
	s.apply(w)
	return nil
}

// Get returns the document in map form, the caller's own copy
// (Entry.Document).
func (s *Store) Get(id DocID) (*Document, error) {
	if e, ok := s.Entry(id); ok {
		return e.Document(), nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// Entry returns the store's own entry for id, which the caller may
// keep but must not modify.
func (s *Store) Entry(id DocID) (*Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.docs[id]
	return e, ok
}

// Has reports whether the document is stored.
func (s *Store) Has(id DocID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.docs[id]
	return ok
}

// Delete removes a document, reporting whether it existed. With a WAL
// armed, a failed log append (counted under wal.append in the error
// family) leaves the document in place and reports false.
func (s *Store) Delete(id DocID) bool {
	return s.DeleteBatch([]DocID{id}) == 1
}

// DeleteBatch removes many documents under one hold of the lock and
// returns how many of the IDs were present. With a WAL armed, the
// present IDs are one log record; a failed append deletes nothing and
// returns 0.
func (s *Store) DeleteBatch(ids []DocID) int {
	s.maybeCompact()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		var present []DocID
		for _, id := range ids {
			if _, ok := s.docs[id]; ok {
				present = append(present, id)
			}
		}
		if len(present) == 0 {
			return 0
		}
		if err := s.wal.appendRecord(walRecord{Op: walOpDel, IDs: present}); err != nil {
			return 0
		}
	}
	var dels []change
	for _, id := range ids {
		if d, ok := s.docs[id]; ok {
			s.removeLocked(d)
			dels = append(dels, change{d, true})
		}
	}
	s.apply(dels)
	return len(dels)
}

// Len returns the number of stored documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// CommunityLen returns the number of documents in one community.
func (s *Store) CommunityLen(communityID string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c := s.communities[communityID]; c != nil {
		return len(c.members)
	}
	return 0
}

// Communities returns the IDs of communities with stored documents,
// sorted.
func (s *Store) Communities() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.communities))
	for id := range s.communities {
		out = append(out, id)
	}
	s.mu.RUnlock()
	slices.Sort(out)
	return out
}

// Postings returns the number of inverted-index entries: the measured
// "index size" of experiment E4.
func (s *Store) Postings() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, c := range s.communities {
		for _, f := range c.fields {
			n += len(f.posts)
		}
	}
	return n
}

// Search returns the entries in the community whose indexed
// attributes satisfy the filter, sorted by ID for determinism. limit <=
// 0 means unlimited. An empty communityID searches all communities.
//
// The entries are the store's own (see Entry): the caller may keep
// them but must not modify them. A community-scoped search is one walk
// in ID order under the read lock, stopping at the limit: over the
// intersection of the runs of postings of the filter's exact-match
// conjuncts when it has any, over the community's members otherwise.
// It allocates the result slice and nothing else.
func (s *Store) Search(communityID string, f query.Filter, limit int) []*Entry {
	if f == nil {
		f = query.MatchAll{}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if communityID != "" {
		if c := s.communities[communityID]; c != nil {
			return c.search(f, limit, nil)
		}
		return nil
	}
	// The first limit matches overall are among each community's first
	// limit matches.
	var out []*Entry
	for _, c := range s.communities {
		out = c.search(f, limit, out)
	}
	slices.SortFunc(out, func(a, b *Entry) int { return cmp.Compare(a.ID, b.ID) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// search appends to out the community's entries f matches, in ID
// order, and stops after limit of them. The candidates are the shortest
// run of postings of f's exact-match conjuncts, kept where every other
// run holds them too, or else every member; f re-checks each, since a
// run may hold entries f does not match. A nil out is allocated on the
// first match, sized for the limit or the candidates left, whichever
// is fewer. Called with the store's lock held.
func (c *community) search(f query.Filter, limit int, out []*Entry) []*Entry {
	var buf [4][]posting
	runs := buf[:0]
	for attr, key := range query.ExactKeys(f) {
		runs = append(runs, c.run(attr, query.KeyHash(key)))
	}
	indexed := len(runs) > 0
	n := len(c.members)
	if indexed {
		for i := range runs {
			if len(runs[i]) < len(runs[0]) {
				runs[0], runs[i] = runs[i], runs[0]
			}
		}
		n = len(runs[0])
	}
	start := len(out)
next:
	for i := 0; i < n; i++ {
		var e *Entry
		if indexed {
			e = runs[0][i].e
			for _, other := range runs[1:] {
				if _, ok := slices.BinarySearchFunc(other, e.ID, func(p posting, id DocID) int { return strings.Compare(string(p.e.ID), string(id)) }); !ok {
					continue next
				}
			}
		} else {
			e = c.members[i]
		}
		if !f.Match(&e.Attrs) {
			continue
		}
		if out == nil {
			size := n - i
			if limit > 0 {
				size = min(size, limit)
			}
			out = make([]*Entry, 0, size)
		}
		out = append(out, e)
		if len(out)-start == limit {
			break
		}
	}
	return out
}

// run returns the run of postings filed under hash h in attr's field.
// Every entry holding a key of that hash under attr is in it; an absent
// field's run is empty.
func (c *community) run(attr string, h uint64) []posting {
	var posts []posting
	if i, ok := c.field(attr); ok {
		posts = c.fields[i].posts
	}
	lo := sort.Search(len(posts), func(j int) bool { return posts[j].h >= h })
	hi := sort.Search(len(posts), func(j int) bool { return posts[j].h > h })
	return posts[lo:hi]
}

// field returns attr's position among the fields, or the position it
// would take, and whether it is there.
func (c *community) field(attr string) (int, bool) {
	return slices.BinarySearchFunc(c.fields, attr, func(f field, attr string) int { return strings.Compare(f.attr, attr) })
}

// find returns id's position among the members, or the position it
// would take, and whether it is there.
func (c *community) find(id DocID) (int, bool) {
	return slices.BinarySearchFunc(c.members, id, func(e *Entry, id DocID) int { return cmp.Compare(e.ID, id) })
}

// putLocked makes e a member of its community, displacing any previous
// version of its ID — in its own community or in another one — which
// it returns. It edits no postings: the caller does.
func (s *Store) putLocked(e *Entry) *Entry {
	old := s.docs[e.ID]
	if old != nil && old.CommunityID != e.CommunityID {
		s.removeLocked(old)
	}
	s.docs[e.ID] = e
	c := s.communities[e.CommunityID]
	if c == nil {
		c = &community{}
		s.communities[e.CommunityID] = c
	}
	if i, ok := c.find(e.ID); ok {
		c.members[i] = e
	} else {
		c.members = slices.Insert(c.members, i, e)
	}
	return old
}

// removeLocked deletes e from the store but for its postings, which
// the caller removes. A community left without members goes with it.
func (s *Store) removeLocked(e *Entry) {
	c := s.communities[e.CommunityID]
	i, _ := c.find(e.ID)
	c.members = slices.Delete(c.members, i, i+1)
	delete(s.docs, e.ID)
	if len(c.members) == 0 {
		delete(s.communities, e.CommunityID)
	}
}

// A change adds an entry's postings to the index or, with del, removes
// them.
type change struct {
	e   *Entry
	del bool
}

// apply makes a write's changes, community by community. A change is
// made in whichever community holds its entry's ID now, if any: a
// removal names the very entry whose postings it removes, so it takes
// out nothing else.
func (s *Store) apply(w []change) {
	slices.SortFunc(w, func(x, y change) int { return strings.Compare(x.e.CommunityID, y.e.CommunityID) })
	var edits []edit
	for len(w) > 0 {
		n := 1
		for n < len(w) && w[n].e.CommunityID == w[0].e.CommunityID {
			n++
		}
		if c := s.communities[w[0].e.CommunityID]; c != nil {
			edits = c.apply(w[:n], edits[:0])
		}
		w = w[n:]
	}
}

// An edit adds a posting to a field or, with del, removes one from it.
// at is its place among the field's postings, which splice sets.
type edit struct {
	at  int32
	del bool
	p   posting
}

// apply makes the changes to the community's fields, field by field,
// using edits as scratch, which it returns. It posts or unposts each
// entry under every key of its attributes: an entry is posted and
// unposted under its own keys, so two of its keys that hash alike share
// one posting, added and removed once. A field left empty goes.
func (c *community) apply(w []change, edits []edit) []edit {
	for _, ch := range w {
		if ch.del {
			continue
		}
		for attr := range ch.e.Attrs.All() {
			if i, ok := c.field(attr); !ok {
				c.fields = slices.Insert(c.fields, i, field{attr: strings.Clone(attr)})
			}
		}
	}
	for i := range c.fields {
		edits = edits[:0]
		for _, ch := range w {
			for v := range ch.e.Attrs.Values(c.fields[i].attr) {
				for h := range query.IndexKeyHashes(v) {
					edits = append(edits, edit{0, ch.del, posting{h, ch.e}})
				}
			}
		}
		c.fields[i].posts = splice(c.fields[i].posts, edits)
	}
	c.fields = slices.DeleteFunc(c.fields, func(f field) bool { return len(f.posts) == 0 })
	return edits
}

// splice sorts one field's edits and makes them on its postings. The
// edits of one posting place — one (hash, ID) — make one change: an add
// is filed there, over the posting held there if any (the entry it
// replaces); removals alone take that posting out if one of them names
// its entry. Filing over a posting moves nothing, so a replace that
// keeps its keys rewrites them in place. The edits' own slice then holds
// the changes left, each at its place, for shift.
func splice(posts []posting, edits []edit) []posting {
	slices.SortFunc(edits, func(x, y edit) int {
		if x.p.h != y.p.h {
			return cmp.Compare(x.p.h, y.p.h)
		}
		return cmp.Compare(x.p.e.ID, y.p.e.ID)
	})
	m, adds, dels := 0, 0, 0
	for g, k := 0, 0; g < len(edits); {
		n := g + 1
		for n < len(edits) && edits[n].p.h == edits[g].p.h && edits[n].p.e.ID == edits[g].p.e.ID {
			n++
		}
		i, held := search(posts[k:], edits[g].p)
		k += i
		add := slices.IndexFunc(edits[g:n], func(d edit) bool { return !d.del })
		switch {
		case add >= 0 && held:
			posts[k] = edits[g+add].p
		case add >= 0:
			edits[m], m, adds = edit{int32(k), false, edits[g+add].p}, m+1, adds+1
		case held && slices.ContainsFunc(edits[g:n], func(d edit) bool { return d.p.e == posts[k].e }):
			edits[m], m, dels = edit{int32(k), true, posts[k]}, m+1, dels+1
		}
		g = n
	}
	return shift(posts, edits[:m], adds, dels)
}

// shift makes changes, sorted by place, on posts: an add goes in before
// the posting at its place, a removal takes out the posting at its
// place. Each block of kept postings between two places moves once, by
// the adds less the removals before it: the blocks moving up first, from
// the last, then those moving down, from the first, so that none lands
// on one not yet moved. The adds then fill the gaps, and the vacated
// tail is cleared, so that no removed entry stays reachable from it.
func shift(posts []posting, changes []edit, adds, dels int) []posting {
	n := len(posts)
	posts = slices.Grow(posts, adds)[:n+adds]
	block := func(t int) (from, to int) {
		from, to = int(changes[t].at), n
		if changes[t].del {
			from++
		}
		if t+1 < len(changes) {
			to = int(changes[t+1].at)
		}
		return from, to
	}
	step := func(t int) int {
		if changes[t].del {
			return -1
		}
		return 1
	}
	off := adds - dels
	for t := len(changes) - 1; t >= 0; t-- {
		if from, to := block(t); off > 0 {
			copy(posts[from+off:], posts[from:to])
		}
		off -= step(t)
	}
	for t := range changes {
		off += step(t)
		if from, to := block(t); off < 0 {
			copy(posts[from+off:], posts[from:to])
		}
	}
	off = 0
	for t, c := range changes {
		if !c.del {
			posts[int(c.at)+off] = c.p
		}
		off += step(t)
	}
	clear(posts[n+adds-dels:])
	return posts[:n+adds-dels]
}

// search returns the position of p's hash and ID in posts, or the
// position they would take, and whether a posting is there.
func search(posts []posting, p posting) (int, bool) {
	i := sort.Search(len(posts), func(k int) bool { return !before(posts[k], p) })
	return i, i < len(posts) && posts[i].h == p.h && posts[i].e.ID == p.e.ID
}
