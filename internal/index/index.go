// Package index implements U-P2P's local metadata store: the database
// role Magenta played in the paper's prototype. Each servent keeps one
// Store holding the XML objects it shares or has downloaded, plus an
// inverted index over the *indexed attributes* extracted from each
// object by the community's indexing transform (§IV.C.2: only fields
// marked searchable enter the index, keeping "small portions of
// content ... in the search engine instead of the entire XML object").
//
// Searches evaluate query.Filter expressions; equality assertions are
// accelerated through the inverted index, everything else scans the
// community's documents.
//
// The store is sharded for concurrency: documents partition across N
// lock-striped shards by a hash of their community ID, so one
// community's documents and its slice of the inverted index colocate
// in a single shard and community-scoped operations contend on exactly
// one lock. Batch ingest (PutBatch/DeleteBatch) takes each shard lock
// once per batch, and a small per-shard LRU caches recent query
// results, invalidated by a per-shard write generation.
package index

import (
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
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

// Store tuning defaults.
const (
	// DefaultShards is the default lock-stripe count. Sixteen shards
	// keep per-shard maps small at millions of documents while the
	// stripe array stays two cache lines of pointers.
	DefaultShards = 16
	// DefaultCacheSize is the default per-shard query-result cache
	// capacity, in cached result sets.
	DefaultCacheSize = 128
	// maxCachedResults bounds the size of one cached result set.
	// Larger results are served uncached: caching them would pin
	// every returned document (including deleted ones, until LRU
	// pressure or a same-key lookup evicts the stale entry) for
	// little win, since huge scans are rarely repeated verbatim.
	maxCachedResults = 256
)

// Option configures a Store.
type Option func(*storeConfig)

type storeConfig struct {
	shards          int
	cacheSize       int
	metrics         *metrics.Registry
	logger          *slog.Logger
	walDir          string
	walFsync        FsyncPolicy
	walSegmentBytes int64
	walCompactBytes int64
}

func defaultStoreConfig() storeConfig {
	return storeConfig{
		shards:          DefaultShards,
		cacheSize:       DefaultCacheSize,
		walFsync:        FsyncAlways,
		walSegmentBytes: DefaultWALSegmentBytes,
		walCompactBytes: DefaultWALCompactBytes,
	}
}

// WithShards sets the shard count (rounded up to a power of two,
// minimum 1). One shard degenerates to a single-lock store — the
// baseline configuration the scaling experiments compare against.
func WithShards(n int) Option {
	return func(c *storeConfig) { c.shards = n }
}

// WithCacheSize sets the per-shard query-result cache capacity in
// entries; 0 disables result caching.
func WithCacheSize(n int) Option {
	return func(c *storeConfig) { c.cacheSize = n }
}

// WithMetrics records the store's telemetry (cache hits/misses,
// occupancy gauges) into reg. Default is a private registry; several
// stores sharing one registry aggregate: the index.docs and
// index.postings gauges sum across stores, index.shard_max_docs takes
// the max.
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
// appended to a per-shard write-ahead log before it is applied, and
// OpenStore replays snapshot + log on start. Only OpenStore honors
// this option (opening a log can fail); NewStore panics on it.
func WithWAL(dir string) Option {
	return func(c *storeConfig) { c.walDir = dir }
}

// WithWALFsync sets the log's fsync policy (default FsyncAlways).
func WithWALFsync(p FsyncPolicy) Option {
	return func(c *storeConfig) { c.walFsync = p }
}

// WithWALSegmentBytes sets the per-shard segment size beyond which
// appends rotate to a fresh file (default DefaultWALSegmentBytes).
func WithWALSegmentBytes(n int64) Option {
	return func(c *storeConfig) { c.walSegmentBytes = n }
}

// WithWALCompactBytes sets the total live-log size beyond which the
// next write triggers automatic compaction; 0 disables auto
// compaction (default DefaultWALCompactBytes).
func WithWALCompactBytes(n int64) Option {
	return func(c *storeConfig) { c.walCompactBytes = n }
}

// Store is a thread-safe sharded metadata store with an inverted
// index. See the package comment for the sharding design.
type Store struct {
	shards []*shard
	mask   uint32
	reg    *metrics.Registry
	hits   *metrics.Counter
	misses *metrics.Counter
	// dir routes DocID-keyed operations (Get/Has/Delete) to the shard
	// holding the document, so they need not know the community.
	// DocIDs are content-addressed over (community, content), so an ID
	// essentially never migrates between communities; sequential
	// cross-community re-publication of one ID is handled
	// (evictForeign), but CONCURRENT re-publication of one ID under
	// two different communities is unsupported — both copies can
	// survive, with the directory pointing at one of them — and needs
	// external serialization (the hubs' registry in internal/p2p
	// serializes registrations for exactly this reason).
	dir sync.Map // DocID -> uint32 shard index
	// wal, when non-nil, logs every write before it is applied; see
	// wal.go. Armed only by OpenStore.
	wal *wal
}

// shard holds one stripe of the store: the documents of every
// community hashing to it, their slice of the inverted index, and a
// result cache. All fields except cache are guarded by mu; cache has
// its own internal lock so reads can fill it while holding mu.RLock.
type shard struct {
	mu          sync.RWMutex
	docs        map[DocID]*Document
	byCommunity map[string]map[DocID]struct{}
	// inverted maps attr name -> normalized token -> posting set.
	inverted map[string]map[string]map[DocID]struct{}
	// postings counts index entries, for the E4 index-size experiment.
	postings int
	// gen counts writes to this shard. Cached results remember the gen
	// they were computed under and are discarded once it moves on, so
	// writers pay one increment — never a cache sweep.
	gen   uint64
	cache *resultCache
}

// NewStore returns an empty in-memory store with the given options
// (default: 16 shards, 128 cached result sets per shard). For a
// durable store, pass WithWAL to OpenStore instead; NewStore panics
// on WithWAL because arming a log can fail and NewStore has no error
// to return.
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
	n := ceilPow2(cfg.shards)
	reg := cfg.metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Store{
		shards: make([]*shard, n),
		mask:   uint32(n - 1),
		reg:    reg,
		hits:   reg.Counter("index.cache_hits"),
		misses: reg.Counter("index.cache_misses"),
	}
	for i := range s.shards {
		sh := &shard{
			docs:        make(map[DocID]*Document),
			byCommunity: make(map[string]map[DocID]struct{}),
			inverted:    make(map[string]map[string]map[DocID]struct{}),
		}
		if cfg.cacheSize > 0 {
			sh.cache = newResultCache(cfg.cacheSize, s.hits, s.misses)
		}
		s.shards[i] = sh
	}
	reg.GaugeFunc("index.docs", func() int64 { return int64(s.Len()) })
	reg.GaugeFunc("index.postings", func() int64 { return int64(s.Postings()) })
	reg.GaugeFuncMax("index.shard_max_docs", func() int64 { return s.maxShardDocs() })
	return s
}

// Metrics returns the registry this store records into.
func (s *Store) Metrics() *metrics.Registry { return s.reg }

// maxShardDocs returns the document count of the fullest shard — the
// occupancy-skew signal behind the index.shard_max_docs gauge.
func (s *Store) maxShardDocs() int64 {
	var max int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		if n := int64(len(sh.docs)); n > max {
			max = n
		}
		sh.mu.RUnlock()
	}
	return max
}

// NumShards reports the shard count (for experiments and diagnostics).
func (s *Store) NumShards() int { return len(s.shards) }

// ceilPow2 rounds n up to the next power of two, minimum 1.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardIndex maps a community to its stripe (FNV-1a).
func (s *Store) shardIndex(communityID string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(communityID); i++ {
		h ^= uint32(communityID[i])
		h *= prime32
	}
	return h & s.mask
}

// shardOf resolves a DocID through the directory; nil if unknown.
func (s *Store) shardOf(id DocID) *shard {
	if v, ok := s.dir.Load(id); ok {
		return s.shards[v.(uint32)]
	}
	return nil
}

// Put inserts or replaces a document. The document is copied; the
// caller keeps ownership of its argument. With a WAL armed, the write
// is logged (and, under FsyncAlways, synced) before it is applied; an
// error means the store is unchanged.
func (s *Store) Put(doc *Document) error {
	if doc == nil || doc.ID == "" {
		return ErrNoID
	}
	s.maybeCompact()
	cp := doc.clone()
	idx := s.shardIndex(cp.CommunityID)
	s.evictForeign(cp.ID, idx)
	sh := s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.appendRecord(idx, walRecord{Op: walOpPut, Docs: []*Document{cp}}); err != nil {
			return err
		}
	}
	sh.putLocked(cp)
	s.dir.Store(cp.ID, idx)
	return nil
}

// PutBatch inserts or replaces many documents, taking each shard lock
// once per shard instead of once per document — the bulk-ingest path
// for corpus seeding, snapshot load, and batched publication. The
// batch is validated up front: on an ID-less document nothing is
// written. Duplicate IDs within one batch behave like sequential Puts
// (the last occurrence wins).
//
// With a WAL armed, each shard's slice of the batch is logged before
// it is applied, and the batch is acknowledged (nil return) only once
// every record is on the log (synced, under FsyncAlways) — an
// acknowledged batch survives a crash. A mid-batch append failure
// leaves earlier shards applied and the failing shard untouched.
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
	// Dedupe by ID, last occurrence winning, preserving first-seen
	// order for determinism.
	order := make([]DocID, 0, len(docs))
	byID := make(map[DocID]*Document, len(docs))
	for _, d := range docs {
		if _, seen := byID[d.ID]; !seen {
			order = append(order, d.ID)
		}
		byID[d.ID] = d
	}
	groups := make(map[uint32][]*Document)
	for _, id := range order {
		cp := byID[id].clone()
		idx := s.shardIndex(cp.CommunityID)
		s.evictForeign(cp.ID, idx)
		groups[idx] = append(groups[idx], cp)
	}
	idxs := make([]uint32, 0, len(groups))
	for idx := range groups {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		sh := s.shards[idx]
		sh.mu.Lock()
		if s.wal != nil {
			if err := s.wal.appendRecord(idx, walRecord{Op: walOpPut, Docs: groups[idx]}); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		for _, cp := range groups[idx] {
			sh.putLocked(cp)
			s.dir.Store(cp.ID, idx)
		}
		sh.mu.Unlock()
	}
	return nil
}

// evictForeign removes a previous copy of id living in a shard other
// than target — the document moved community. Rare: DocIDs embed the
// community in their content hash.
func (s *Store) evictForeign(id DocID, target uint32) {
	v, ok := s.dir.Load(id)
	if !ok {
		return
	}
	old := v.(uint32)
	if old == target {
		return
	}
	sh := s.shards[old]
	sh.mu.Lock()
	if d, ok := sh.docs[id]; ok {
		sh.removeLocked(d)
	}
	sh.mu.Unlock()
}

// Get returns a copy of the document.
func (s *Store) Get(id DocID) (*Document, error) {
	if sh := s.shardOf(id); sh != nil {
		sh.mu.RLock()
		d, ok := sh.docs[id]
		if ok {
			cp := d.clone()
			sh.mu.RUnlock()
			return cp, nil
		}
		sh.mu.RUnlock()
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// Has reports whether the document is stored.
func (s *Store) Has(id DocID) bool {
	if sh := s.shardOf(id); sh != nil {
		sh.mu.RLock()
		_, ok := sh.docs[id]
		sh.mu.RUnlock()
		return ok
	}
	return false
}

// Delete removes a document, reporting whether it existed. With a WAL
// armed, a failed log append (counted under wal.append in the error
// family) leaves the document in place and reports false.
func (s *Store) Delete(id DocID) bool {
	v, ok := s.dir.Load(id)
	if !ok {
		return false
	}
	idx := v.(uint32)
	sh := s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d, present := sh.docs[id]
	if !present {
		return false
	}
	if s.wal != nil {
		if err := s.wal.appendRecord(idx, walRecord{Op: walOpDel, IDs: []DocID{id}}); err != nil {
			return false
		}
	}
	sh.removeLocked(d)
	s.dir.Delete(id)
	return true
}

// DeleteBatch removes many documents, taking each shard lock once per
// shard. It returns how many of the IDs were present.
func (s *Store) DeleteBatch(ids []DocID) int {
	s.maybeCompact()
	groups := make(map[uint32][]DocID)
	for _, id := range ids {
		if v, ok := s.dir.Load(id); ok {
			idx := v.(uint32)
			groups[idx] = append(groups[idx], id)
		}
	}
	idxs := make([]uint32, 0, len(groups))
	for idx := range groups {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	n := 0
	for _, idx := range idxs {
		sh := s.shards[idx]
		sh.mu.Lock()
		if s.wal != nil {
			if err := s.wal.appendRecord(idx, walRecord{Op: walOpDel, IDs: groups[idx]}); err != nil {
				sh.mu.Unlock()
				continue // this shard's deletes are skipped, not half-applied
			}
		}
		for _, id := range groups[idx] {
			if d, ok := sh.docs[id]; ok {
				sh.removeLocked(d)
				s.dir.Delete(id)
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Len returns the number of stored documents.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.docs)
		sh.mu.RUnlock()
	}
	return n
}

// CommunityLen returns the number of documents in one community.
func (s *Store) CommunityLen(communityID string) int {
	sh := s.shards[s.shardIndex(communityID)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.byCommunity[communityID])
}

// Communities returns the IDs of communities with stored documents,
// sorted.
func (s *Store) Communities() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for c := range sh.byCommunity {
			out = append(out, c)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Postings returns the number of inverted-index entries: the measured
// "index size" of experiment E4.
func (s *Store) Postings() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.postings
		sh.mu.RUnlock()
	}
	return n
}

// Search returns documents in the community whose indexed attributes
// satisfy the filter, sorted by ID for determinism. limit <= 0 means
// unlimited. An empty communityID searches all communities (spanning
// every shard, uncached).
//
// The result is the caller's own: every document is a defensive copy.
func (s *Store) Search(communityID string, f query.Filter, limit int) []*Document {
	return cloneDocs(s.SearchReadOnly(communityID, f, limit))
}

// SearchReadOnly is Search without the copies: it returns the store's
// own documents, and possibly a result slice other readers share, so
// the caller must modify neither. That is safe to hold for any length
// of time — a stored Document is immutable, Put installs a new one in
// its place and never writes to the old — and is meant for callers that
// only read the result through, such as a node encoding its answer to a
// remote query onto the wire.
func (s *Store) SearchReadOnly(communityID string, f query.Filter, limit int) []*Document {
	if f == nil {
		f = query.MatchAll{}
	}
	if communityID != "" {
		return s.shards[s.shardIndex(communityID)].search(communityID, f, limit)
	}
	var all []*Document
	for _, sh := range s.shards {
		all = append(all, sh.search("", f, 0)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
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

// search runs one community-scoped (or, with "", shard-wide) query
// against this shard, consulting the result cache first. The returned
// documents are canonical store pointers and the slice may be the
// cache's own.
func (sh *shard) search(communityID string, f query.Filter, limit int) []*Document {
	cacheable := sh.cache != nil && communityID != ""
	var key string
	if cacheable {
		key = cacheKey(communityID, f, limit)
	}
	sh.mu.RLock()
	if cacheable {
		if docs, ok := sh.cache.get(key, sh.gen); ok {
			sh.mu.RUnlock()
			return docs
		}
	}
	matches := sh.searchLocked(communityID, f, limit)
	gen := sh.gen
	sh.mu.RUnlock()
	if cacheable && len(matches) <= maxCachedResults {
		// A write may have slipped in after RUnlock; the entry then
		// carries a stale gen and the next get treats it as a miss.
		sh.cache.put(key, gen, matches)
	}
	return matches
}

// cacheKey identifies one materialized query: community, the filter's
// canonical string form, and the limit.
func cacheKey(communityID string, f query.Filter, limit int) string {
	return communityID + "\x00" + f.String() + "\x00" + strconv.Itoa(limit)
}

func (sh *shard) searchLocked(communityID string, f query.Filter, limit int) []*Document {
	candidates := sh.candidatesLocked(communityID, f)
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].ID < candidates[j].ID })
	var out []*Document
	for _, d := range candidates {
		if communityID != "" && d.CommunityID != communityID {
			continue
		}
		if !f.Match(d.Attrs) {
			continue
		}
		out = append(out, d)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// candidatesLocked narrows the scan set using the inverted index when
// the filter's top level is (or conjoins) an exact-match assertion.
func (sh *shard) candidatesLocked(communityID string, f query.Filter) []*Document {
	if ids := sh.indexedCandidatesLocked(f); ids != nil {
		out := make([]*Document, 0, len(ids))
		for id := range ids {
			if d, ok := sh.docs[id]; ok {
				out = append(out, d)
			}
		}
		return out
	}
	// Full community scan.
	var out []*Document
	if communityID != "" {
		for id := range sh.byCommunity[communityID] {
			out = append(out, sh.docs[id])
		}
		return out
	}
	for _, d := range sh.docs {
		out = append(out, d)
	}
	return out
}

// indexedCandidatesLocked returns a candidate ID set when the filter
// permits index acceleration, or nil to force a scan. Sound but not
// complete: it may return a superset of matches, never a subset.
func (sh *shard) indexedCandidatesLocked(f query.Filter) map[DocID]struct{} {
	switch t := f.(type) {
	case *query.Assertion:
		if t.Op != query.OpEq || strings.ContainsRune(t.Value, '*') {
			return nil
		}
		field := sh.inverted[t.Attr]
		if field == nil {
			return map[DocID]struct{}{}
		}
		// Every way = can match a value — the whole value or one of
		// its words, under case folding — is a key (see indexTokens).
		return field[query.FoldKey(t.Value)]
	case *query.And:
		// Any one accelerable conjunct suffices (superset property).
		for _, sub := range t.Subs {
			if ids := sh.indexedCandidatesLocked(sub); ids != nil {
				return ids
			}
		}
		return nil
	default:
		return nil
	}
}

// putLocked installs cp in this shard, displacing any previous version
// (including one filed under a different community that hashed here).
func (sh *shard) putLocked(cp *Document) {
	if old, ok := sh.docs[cp.ID]; ok {
		sh.unindexLocked(old)
		if old.CommunityID != cp.CommunityID {
			sh.dropMembershipLocked(old)
		}
	}
	sh.docs[cp.ID] = cp
	comm := sh.byCommunity[cp.CommunityID]
	if comm == nil {
		comm = make(map[DocID]struct{})
		sh.byCommunity[cp.CommunityID] = comm
	}
	comm[cp.ID] = struct{}{}
	sh.indexLocked(cp)
	sh.gen++
}

// removeLocked deletes d from this shard entirely.
func (sh *shard) removeLocked(d *Document) {
	sh.unindexLocked(d)
	delete(sh.docs, d.ID)
	sh.dropMembershipLocked(d)
	sh.gen++
}

// dropMembershipLocked removes d from its community's member set.
func (sh *shard) dropMembershipLocked(d *Document) {
	if comm := sh.byCommunity[d.CommunityID]; comm != nil {
		delete(comm, d.ID)
		if len(comm) == 0 {
			delete(sh.byCommunity, d.CommunityID)
		}
	}
}

func (sh *shard) indexLocked(d *Document) {
	for attr, vals := range d.Attrs {
		field := sh.inverted[attr]
		if field == nil {
			field = make(map[string]map[DocID]struct{})
			sh.inverted[attr] = field
		}
		for _, v := range vals {
			for _, tok := range indexTokens(v) {
				set := field[tok]
				if set == nil {
					set = make(map[DocID]struct{})
					field[tok] = set
				}
				if _, dup := set[d.ID]; !dup {
					set[d.ID] = struct{}{}
					sh.postings++
				}
			}
		}
	}
}

func (sh *shard) unindexLocked(d *Document) {
	for attr, vals := range d.Attrs {
		field := sh.inverted[attr]
		if field == nil {
			continue
		}
		for _, v := range vals {
			for _, tok := range indexTokens(v) {
				if set := field[tok]; set != nil {
					if _, ok := set[d.ID]; ok {
						delete(set, d.ID)
						sh.postings--
					}
					if len(set) == 0 {
						delete(field, tok)
					}
				}
			}
		}
		if len(field) == 0 {
			delete(sh.inverted, attr)
		}
	}
}

// indexTokens yields the keys an (attr=word) lookup can arrive with,
// the two ways Assertion.Match equates them with a value: the whole
// value's query.FoldKey and the keys of its query.Words. The empty word
// is not indexed; a lookup for it finds no key and scans.
func indexTokens(v string) []string {
	full := query.FoldKey(v)
	if full == "" {
		return nil
	}
	toks := []string{full}
	for w := range query.Words(full) {
		if w != "" && w != full {
			toks = append(toks, w)
		}
	}
	return toks
}
