// Package index implements U-P2P's local metadata store: the database
// role Magenta played in the paper's prototype. Each servent keeps one
// Store holding the XML objects it shares or has downloaded, plus an
// inverted index over the *indexed attributes* extracted from each
// object by the community's indexing transform (§IV.C.2: only fields
// marked searchable enter the index, keeping "small portions of
// content ... in the search engine instead of the entire XML object").
//
// Searches evaluate query.Filter expressions and answer in ID order,
// with one walk that stops at the limit. A filter with exact-match
// assertions walks the intersection of their posting lists, which are
// kept sorted by ID; any other filter walks the community's members,
// which are kept sorted too. Either way a community-scoped search
// sorts nothing.
//
// One lock guards the store. Each community keeps its own members and
// its own slice of the inverted index, so a community-scoped search
// never walks another community's postings. A batch
// (PutBatch/DeleteBatch) takes the lock once and is applied whole.
package index

import (
	"cmp"
	"fmt"
	"log/slog"
	"slices"
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
	// inverted maps attr name -> fold key -> the DocIDs holding it,
	// sorted. Most keys are held by a document or two, where a slice
	// costs a fraction of a set's map.
	inverted map[string]map[string][]DocID
	// postings counts index entries, for the E4 index-size experiment.
	postings int
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
	for _, e := range es {
		s.putLocked(e)
	}
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
	n := 0
	for _, id := range ids {
		if d, ok := s.docs[id]; ok {
			s.removeLocked(d)
			n++
		}
	}
	return n
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
		n += c.postings
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
// intersection of the posting lists of the filter's exact-match
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
			return c.search(s.docs, f, limit, nil)
		}
		return nil
	}
	// The first limit matches overall are among each community's first
	// limit matches.
	var out []*Entry
	for _, c := range s.communities {
		out = c.search(s.docs, f, limit, out)
	}
	slices.SortFunc(out, func(a, b *Entry) int { return cmp.Compare(a.ID, b.ID) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// search appends to out the community's entries f matches, in ID
// order, and stops after limit of them. The candidates are the shortest
// posting list of f's exact-match conjuncts, kept where every other one
// holds them too, or else every member; f re-checks each, since a
// posting list may hold documents f does not match. A nil out is
// allocated on the first match, sized for the limit or the candidates
// left, whichever is fewer. Called with the store's lock held.
func (c *community) search(docs map[DocID]*Entry, f query.Filter, limit int, out []*Entry) []*Entry {
	var buf [4][]DocID
	lists, indexed := c.lists(f, buf[:0])
	n := len(c.members)
	if indexed {
		for i := range lists {
			if len(lists[i]) < len(lists[0]) {
				lists[0], lists[i] = lists[i], lists[0]
			}
		}
		n = len(lists[0])
	}
	start := len(out)
next:
	for i := 0; i < n; i++ {
		var e *Entry
		if indexed {
			id := lists[0][i]
			for _, other := range lists[1:] {
				if _, ok := slices.BinarySearch(other, id); !ok {
					continue next
				}
			}
			e = docs[id]
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

// lists appends to out the posting list of each exact-match conjunct of
// f — f itself when it is an indexable assertion, the conjuncts of an
// And, nested ones included — and reports whether there was one. Every
// document f matches is on each list (an absent key's list is nil).
func (c *community) lists(f query.Filter, out [][]DocID) ([][]DocID, bool) {
	switch t := f.(type) {
	case *query.Assertion:
		key, ok := t.IndexKey()
		if !ok {
			return out, false
		}
		return append(out, c.inverted[t.Attr][key]), true
	case *query.And:
		indexed := false
		for _, sub := range t.Subs {
			var ok bool
			out, ok = c.lists(sub, out)
			indexed = indexed || ok
		}
		return out, indexed
	}
	return out, false
}

// find returns id's position among the members, or the position it
// would take, and whether it is there.
func (c *community) find(id DocID) (int, bool) {
	return slices.BinarySearchFunc(c.members, id, func(e *Entry, id DocID) int { return cmp.Compare(e.ID, id) })
}

// putLocked installs e, displacing any previous version of its ID —
// in its own community or in another one.
func (s *Store) putLocked(e *Entry) {
	if old, ok := s.docs[e.ID]; ok {
		if old.CommunityID != e.CommunityID {
			s.removeLocked(old)
		} else {
			s.communities[old.CommunityID].unindex(old)
		}
	}
	s.docs[e.ID] = e
	c := s.communities[e.CommunityID]
	if c == nil {
		c = &community{inverted: make(map[string]map[string][]DocID)}
		s.communities[e.CommunityID] = c
	}
	if i, ok := c.find(e.ID); ok {
		c.members[i] = e
	} else {
		c.members = slices.Insert(c.members, i, e)
	}
	c.index(e)
}

// removeLocked deletes e from the store entirely. A community left
// without members goes with it.
func (s *Store) removeLocked(e *Entry) {
	c := s.communities[e.CommunityID]
	c.unindex(e)
	i, _ := c.find(e.ID)
	c.members = slices.Delete(c.members, i, i+1)
	delete(s.docs, e.ID)
	if len(c.members) == 0 {
		delete(s.communities, e.CommunityID)
	}
}

// index posts e under every key of its attributes. Most keys are held
// by one document, so every key e is the first to hold gets the same
// one-entry list, allocated once per entry. That list has no spare
// capacity: an insert copies it rather than writing through it, and
// unindex drops a one-entry list rather than emptying it in place.
// A key is a substring of the entry's attribute string, and so is the
// attribute name a field map is first made for unless it is copied:
// it is, because a field map outlives most of the entries it indexes.
func (c *community) index(e *Entry) {
	var own []DocID
	for attr, vals := range e.Attrs.All() {
		field := c.inverted[attr]
		if field == nil {
			field = make(map[string][]DocID)
			c.inverted[strings.Clone(attr)] = field
		}
		for v := range vals {
			for tok := range query.IndexKeys(v) {
				ids := field[tok]
				if len(ids) == 0 {
					if own == nil {
						own = []DocID{e.ID}
					}
					field[tok] = own
					c.postings++
				} else if i, dup := slices.BinarySearch(ids, e.ID); !dup {
					field[tok] = slices.Insert(ids, i, e.ID)
					c.postings++
				}
			}
		}
	}
}

func (c *community) unindex(e *Entry) {
	for attr, vals := range e.Attrs.All() {
		field := c.inverted[attr]
		if field == nil {
			continue
		}
		for v := range vals {
			for tok := range query.IndexKeys(v) {
				ids := field[tok]
				i, ok := slices.BinarySearch(ids, e.ID)
				if !ok {
					continue
				}
				c.postings--
				if len(ids) == 1 {
					delete(field, tok)
				} else {
					field[tok] = slices.Delete(ids, i, i+1)
				}
			}
		}
		if len(field) == 0 {
			delete(c.inverted, attr)
		}
	}
}
