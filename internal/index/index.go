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
	"sync"

	"repro/internal/errs"
	"repro/internal/metrics"
	"repro/internal/query"
)

// DocID identifies a stored document. U-P2P derives it from a content
// hash so replicas of the same object share an ID across peers.
type DocID string

// Document is one shared object plus its indexed metadata.
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

// clone returns a defensive copy so callers cannot mutate store state.
func (d *Document) clone() *Document {
	cp := *d
	cp.Attrs = d.Attrs.Clone()
	cp.Attachments = append([]string(nil), d.Attachments...)
	return &cp
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
	docs        map[DocID]*Document
	communities map[string]*community
	reg         *metrics.Registry
	// wal, when non-nil, logs every write before it is applied; see
	// wal.go. Armed only by OpenStore.
	wal *wal
}

// community is one community's share of the store: its documents and
// its inverted index. It exists only while it has members.
type community struct {
	// members are the community's documents, sorted by ID.
	members []*Document
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
		docs:        make(map[DocID]*Document),
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

// PutBatch inserts or replaces many documents under one hold of the
// lock — the bulk-ingest path for corpus seeding, snapshot load, and
// batched publication. The batch is validated up front: on an ID-less
// document nothing is written. Duplicate IDs within one batch behave
// like sequential Puts (the last occurrence wins).
//
// With a WAL armed, the batch is one log record, appended before any
// of it is applied: a nil return means the whole batch is on the log
// (synced, under FsyncAlways) and survives a crash, and an error means
// none of it was applied.
func (s *Store) PutBatch(docs []*Document) error {
	for _, d := range docs {
		if d == nil || d.ID == "" {
			return ErrNoID
		}
	}
	if len(docs) == 0 {
		return nil
	}
	s.maybeCompact()
	cps := make([]*Document, len(docs))
	for i, d := range docs {
		cps[i] = d.clone()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.appendRecord(walRecord{Op: walOpPut, Docs: cps}); err != nil {
			return err
		}
	}
	for _, cp := range cps {
		s.putLocked(cp)
	}
	return nil
}

// Get returns a copy of the document.
func (s *Store) Get(id DocID) (*Document, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if d, ok := s.docs[id]; ok {
		return d.clone(), nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
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

// Search returns documents in the community whose indexed attributes
// satisfy the filter, sorted by ID for determinism. limit <= 0 means
// unlimited. An empty communityID searches all communities.
//
// The result is the caller's own: every document is a defensive copy.
func (s *Store) Search(communityID string, f query.Filter, limit int) []*Document {
	return cloneDocs(s.SearchReadOnly(communityID, f, limit))
}

// SearchReadOnly is Search without the copies: it returns the store's
// own documents, so the caller must not modify them. That is safe to
// hold for any length of time — a stored Document is immutable, Put
// installs a new one in its place and never writes to the old — and is
// meant for callers that only read the result through, such as a node
// encoding its answer to a remote query onto the wire.
//
// A community-scoped search is one walk in ID order under the read
// lock, stopping at the limit: over the intersection of the posting
// lists of the filter's exact-match conjuncts when it has any, over the
// community's members otherwise. It allocates the result slice and
// nothing else.
func (s *Store) SearchReadOnly(communityID string, f query.Filter, limit int) []*Document {
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
	var out []*Document
	for _, c := range s.communities {
		out = c.search(s.docs, f, limit, out)
	}
	slices.SortFunc(out, func(a, b *Document) int { return cmp.Compare(a.ID, b.ID) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// cloneDocs defensively copies a result set.
func cloneDocs(docs []*Document) []*Document {
	if docs == nil {
		return nil
	}
	out := make([]*Document, len(docs))
	for i, d := range docs {
		out[i] = d.clone()
	}
	return out
}

// search appends to out the community's documents f matches, in ID
// order, and stops after limit of them. The candidates are the shortest
// posting list of f's exact-match conjuncts, kept where every other one
// holds them too, or else every member; f re-checks each, since a
// posting list may hold documents f does not match. A nil out is
// allocated on the first match, sized for the limit or the candidates
// left, whichever is fewer. Called with the store's lock held.
func (c *community) search(docs map[DocID]*Document, f query.Filter, limit int, out []*Document) []*Document {
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
		var d *Document
		if indexed {
			id := lists[0][i]
			for _, other := range lists[1:] {
				if _, ok := slices.BinarySearch(other, id); !ok {
					continue next
				}
			}
			d = docs[id]
		} else {
			d = c.members[i]
		}
		if !f.Match(d.Attrs) {
			continue
		}
		if out == nil {
			size := n - i
			if limit > 0 {
				size = min(size, limit)
			}
			out = make([]*Document, 0, size)
		}
		out = append(out, d)
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
	return slices.BinarySearchFunc(c.members, id, func(d *Document, id DocID) int { return cmp.Compare(d.ID, id) })
}

// putLocked installs d, displacing any previous version of its ID —
// in its own community or in another one.
func (s *Store) putLocked(d *Document) {
	if old, ok := s.docs[d.ID]; ok {
		if old.CommunityID != d.CommunityID {
			s.removeLocked(old)
		} else {
			s.communities[old.CommunityID].unindex(old)
		}
	}
	s.docs[d.ID] = d
	c := s.communities[d.CommunityID]
	if c == nil {
		c = &community{inverted: make(map[string]map[string][]DocID)}
		s.communities[d.CommunityID] = c
	}
	if i, ok := c.find(d.ID); ok {
		c.members[i] = d
	} else {
		c.members = slices.Insert(c.members, i, d)
	}
	c.index(d)
}

// removeLocked deletes d from the store entirely. A community left
// without members goes with it.
func (s *Store) removeLocked(d *Document) {
	c := s.communities[d.CommunityID]
	c.unindex(d)
	i, _ := c.find(d.ID)
	c.members = slices.Delete(c.members, i, i+1)
	delete(s.docs, d.ID)
	if len(c.members) == 0 {
		delete(s.communities, d.CommunityID)
	}
}

// index posts d under every key of its attributes. Most keys are held
// by one document, so every key d is the first to hold gets the same
// one-entry list, allocated once per document. That list has no spare
// capacity: an insert copies it rather than writing through it, and
// unindex drops a one-entry list rather than emptying it in place.
func (c *community) index(d *Document) {
	var own []DocID
	for attr, vals := range d.Attrs {
		field := c.inverted[attr]
		if field == nil {
			field = make(map[string][]DocID)
			c.inverted[attr] = field
		}
		for _, v := range vals {
			for tok := range query.IndexKeys(v) {
				ids := field[tok]
				if len(ids) == 0 {
					if own == nil {
						own = []DocID{d.ID}
					}
					field[tok] = own
					c.postings++
				} else if i, dup := slices.BinarySearch(ids, d.ID); !dup {
					field[tok] = slices.Insert(ids, i, d.ID)
					c.postings++
				}
			}
		}
	}
}

func (c *community) unindex(d *Document) {
	for attr, vals := range d.Attrs {
		field := c.inverted[attr]
		if field == nil {
			continue
		}
		for _, v := range vals {
			for tok := range query.IndexKeys(v) {
				ids := field[tok]
				i, ok := slices.BinarySearch(ids, d.ID)
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
