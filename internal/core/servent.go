package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/errs"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/stylegen"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Servent is one U-P2P node: "Any browser can be used to interface to
// a U-P2P servent" (§IV.B). It owns the local metadata store, the set
// of joined communities, the attachment store, and a pluggable
// p2p.Network — the protocol independence the paper targets.
type Servent struct {
	net   p2p.Network
	store *index.Store
	// The logger, read on the search path, is an atomic load, never s.mu
	// (the lock Publish write-locks to file attachments).
	logger atomic.Pointer[slog.Logger]

	mu          sync.RWMutex
	communities map[string]*Community
	attachments map[string][]byte
}

// Servent errors.
var (
	ErrNotJoined    = errors.New("core: community not joined")
	ErrNotCommunity = errors.New("core: object is not a community")
)

// NewServent creates a servent on the given network and joins the root
// community. store must be the same Store the network layer was
// constructed with: the servent writes published objects into it and
// the network layer answers remote queries and fetches from it. The
// error is always nil (the root community is compiled in and shared);
// the signature stays for its callers.
func NewServent(net p2p.Network, store *index.Store) (*Servent, error) {
	s := &Servent{
		net:         net,
		store:       store,
		communities: map[string]*Community{RootCommunityID: RootCommunity()},
		attachments: make(map[string][]byte),
	}
	s.logger.Store(discardLogger)
	net.SetAttachmentProvider(s.attachment)
	return s, nil
}

var discardLogger = slog.New(slog.DiscardHandler)

// attachment implements p2p.AttachmentProvider.
func (s *Servent) attachment(uri string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.attachments[uri]
	return data, ok
}

// install registers a community locally without publishing anything.
func (s *Servent) install(c *Community) {
	s.mu.Lock()
	s.communities[c.ID] = c
	s.mu.Unlock()
}

// SetLogger installs a structured logger for operational events
// (failed searches, with their errs code and trace ID). The default
// discards, and so does a nil logger.
func (s *Servent) SetLogger(l *slog.Logger) {
	if l == nil {
		l = discardLogger
	}
	s.logger.Store(l)
}

// PeerID returns the servent's network identity.
func (s *Servent) PeerID() transport.PeerID { return s.net.PeerID() }

// Network exposes the underlying protocol layer (for experiments).
func (s *Servent) Network() p2p.Network { return s.net }

// Store exposes the local metadata store (read-mostly; experiments
// inspect it).
func (s *Servent) Store() *index.Store { return s.store }

// Community returns a joined community.
func (s *Servent) Community(id string) (*Community, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.communities[id]
	return c, ok
}

// Joined lists joined community IDs, sorted, root first.
func (s *Servent) Joined() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.communities))
	for id := range s.communities {
		if id != RootCommunityID {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return append([]string{RootCommunityID}, out...)
}

// IsJoined reports community membership.
func (s *Servent) IsJoined(id string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.communities[id]
	return ok
}

// DocIDFor derives the content-addressed document ID used for
// published objects: replicas coincide across peers.
func DocIDFor(communityID string, obj *xmldoc.Node) index.DocID {
	return docIDOf(communityID, obj.String())
}

// docIDOf is DocIDFor of the object that serializes to xml.
func docIDOf(communityID, xml string) index.DocID {
	h := sha256.New()
	io.WriteString(h, communityID)
	h.Write([]byte{0})
	io.WriteString(h, xml)
	return index.DocID("d-" + hex.EncodeToString(h.Sum(nil))[:20])
}

// Publish validates an object against its community schema, extracts
// its indexed attributes through the community's indexing transform,
// stores it locally, registers attachments, and announces it on the
// network — the Create function of §IV.C.1.
func (s *Servent) Publish(communityID string, obj *xmldoc.Node, attachments map[string][]byte) (index.DocID, error) {
	s.mu.RLock()
	c, joined := s.communities[communityID]
	s.mu.RUnlock()
	if !joined {
		return "", fmt.Errorf("%w: %s", ErrNotJoined, communityID)
	}
	doc, err := c.document(obj)
	if err != nil {
		return "", fmt.Errorf("core: publish: %w", err)
	}
	for uri := range attachments {
		doc.Attachments = append(doc.Attachments, uri)
	}
	sort.Strings(doc.Attachments)
	s.mu.Lock()
	for uri, content := range attachments {
		s.attachments[uri] = content
	}
	s.mu.Unlock()
	if err := s.net.Publish(doc); err != nil {
		return "", fmt.Errorf("core: publish: %w", err)
	}
	return doc.ID, nil
}

// PublishBatch validates, indexes, and publishes many objects of one
// community as a single batch: one store lock round and (on
// registration protocols) one register-batch message, instead of one
// of each per object. It is the bulk-ingest path for corpus seeding
// and imports; objects with attachments go through Publish. The
// returned IDs align with objs. Validation is all-or-nothing: a bad
// object rejects the batch before anything is published.
func (s *Servent) PublishBatch(communityID string, objs []*xmldoc.Node) ([]index.DocID, error) {
	s.mu.RLock()
	c, joined := s.communities[communityID]
	s.mu.RUnlock()
	if !joined {
		return nil, fmt.Errorf("%w: %s", ErrNotJoined, communityID)
	}
	docs := make([]*index.Document, len(objs))
	ids := make([]index.DocID, len(objs))
	for i, obj := range objs {
		doc, err := c.document(obj)
		if err != nil {
			return nil, fmt.Errorf("core: publish batch object %d: %w", i, err)
		}
		docs[i], ids[i] = doc, doc.ID
	}
	if err := s.net.PublishBatch(docs); err != nil {
		return nil, fmt.Errorf("core: publish batch: %w", err)
	}
	return ids, nil
}

// document validates obj against the community's schema and builds the
// index document both publish paths store and announce: the extracted
// attributes, the content-addressed ID, a display title and the
// serialized object.
func (c *Community) document(obj *xmldoc.Node) (*index.Document, error) {
	if err := c.Schema.Validate(obj); err != nil {
		return nil, err
	}
	attrs, err := c.Extract(obj)
	if err != nil {
		return nil, err
	}
	xml := obj.String() // serialized once: hashed into the ID and stored
	return &index.Document{
		ID:          docIDOf(c.ID, xml),
		CommunityID: c.ID,
		Title:       titleFor(obj, attrs),
		XML:         xml,
		Attrs:       attrs,
	}, nil
}

// titleFor picks a display title: the first non-empty indexed
// attribute in a stable order, else the object's text cut to 40 bytes
// at a rune boundary, else the element name.
func titleFor(obj *xmldoc.Node, attrs query.Attrs) string {
	names := attrs.Keys(make([]string, 0, len(attrs)))
	// Prefer fields called name/title when present.
	for _, pref := range []string{"name", "title"} {
		for _, n := range names {
			if n == pref || strings.HasSuffix(n, "/"+pref) {
				if v := attrs.Get(n); v != "" {
					return v
				}
			}
		}
	}
	for _, n := range names {
		if v := attrs.Get(n); v != "" {
			return v
		}
	}
	if t := strings.TrimSpace(obj.Text()); t != "" {
		if len(t) > 40 {
			n := 40
			for n > 0 && !utf8.RuneStart(t[n]) {
				n--
			}
			t = t[:n]
		}
		return t
	}
	return obj.LocalName()
}

// CreateFromForm builds an object from create-form values and
// publishes it: the full generated-application loop.
func (s *Servent) CreateFromForm(communityID string, values map[string][]string) (index.DocID, error) {
	s.mu.RLock()
	c, joined := s.communities[communityID]
	s.mu.RUnlock()
	if !joined {
		return "", fmt.Errorf("%w: %s", ErrNotJoined, communityID)
	}
	obj, err := stylegen.BuildObject(c.Schema, values)
	if err != nil {
		return "", err
	}
	return s.Publish(communityID, obj, nil)
}

// Search runs a community-scoped query across the network (§IV.C.2).
// The servent must have joined the community ("a user must join a
// community by downloading its schema in order to conduct searches").
// A search that arrives without a trace context becomes the root of a
// new (sampled) trace on the network's tracer; one that carries a
// context passes it through.
func (s *Servent) Search(communityID string, f query.Filter, opts p2p.SearchOptions) ([]p2p.Result, error) {
	if !s.IsJoined(communityID) {
		return nil, fmt.Errorf("%w: %s", ErrNotJoined, communityID)
	}
	var sp trace.ActiveSpan
	if !opts.Trace.Valid() {
		sp = s.net.Tracer().Root("query")
		sp.SetCommunity(communityID)
		opts.Trace = sp.Context()
	}
	results, err := s.net.Search(communityID, f, opts)
	sp.SetErr(err)
	sp.Finish()
	if err != nil {
		s.logger.Load().Warn("search failed",
			"community", communityID,
			"code", errs.Code(err),
			"trace_id", fmt.Sprintf("%016x", opts.Trace.Trace),
			"err", err)
	}
	return results, err
}

// SearchLocal queries only the local store (browsing downloads). The
// entries are the store's own: keep them, never modify them.
func (s *Servent) SearchLocal(communityID string, f query.Filter, limit int) []*index.Entry {
	return s.store.Search(communityID, f, limit)
}

// SearchLocalXPath filters local objects with a full XPath boolean
// expression over the object documents themselves — the "richer
// languages such as the XML Query language" direction of §VI,
// implemented over our XPath engine. Unlike attribute filters this
// sees the whole object, not just indexed fields.
func (s *Servent) SearchLocalXPath(communityID, expr string, limit int) ([]*index.Entry, error) {
	compiled, err := xpath.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("core: xpath query: %w", err)
	}
	var out []*index.Entry
	for _, doc := range s.store.Search(communityID, query.MatchAll{}, 0) {
		obj, err := xmldoc.ParseString(doc.XML)
		if err != nil {
			continue // skip undecodable entries rather than failing the query
		}
		if compiled.EvalBool(obj) {
			out = append(out, doc)
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out, nil
}

// SearchForm runs a search built from search-form values.
func (s *Servent) SearchForm(communityID string, values map[string][]string, opts p2p.SearchOptions) ([]p2p.Result, error) {
	return s.Search(communityID, stylegen.BuildFilter(values), opts)
}

// Retrieve downloads an object (and its attachments) from a providing
// peer and stores both locally — the download step of §IV.C.2.
func (s *Servent) Retrieve(id index.DocID, from transport.PeerID) (*index.Document, error) {
	if from == s.PeerID() || s.store.Has(id) {
		return s.store.Get(id)
	}
	doc, err := s.net.Retrieve(id, from)
	if err != nil {
		return nil, err
	}
	for _, uri := range doc.Attachments {
		data, err := s.net.RetrieveAttachment(uri, from)
		if err != nil {
			return nil, fmt.Errorf("core: retrieve attachment %s: %w", uri, err)
		}
		s.mu.Lock()
		s.attachments[uri] = data
		s.mu.Unlock()
	}
	// Downloading replicates: this peer now also provides the object
	// (the Napster robustness effect the paper highlights in §II).
	// Publishing stores it, as it stores every object published.
	if err := s.net.Publish(doc); err != nil {
		return nil, fmt.Errorf("core: republish after download: %w", err)
	}
	return doc, nil
}

// Attachment returns locally stored attachment content.
func (s *Servent) Attachment(uri string) ([]byte, bool) {
	return s.attachment(uri)
}

// View renders a stored object with its community's display
// stylesheet — the View function of §IV.C.3.
func (s *Servent) View(id index.DocID) (string, error) {
	doc, err := s.store.Get(id)
	if err != nil {
		return "", err
	}
	obj, err := xmldoc.ParseString(doc.XML)
	if err != nil {
		return "", fmt.Errorf("core: view: stored object unparseable: %w", err)
	}
	s.mu.RLock()
	c := s.communities[doc.CommunityID]
	s.mu.RUnlock()
	if c == nil {
		// Viewing an object of an un-joined community falls back to
		// the default stylesheet.
		return stylegen.ViewHTML(obj)
	}
	return c.View(obj)
}

// --- community lifecycle ---

// CreateCommunity creates a new community, publishes it into the root
// community (making it discoverable), and joins it locally.
func (s *Servent) CreateCommunity(spec CommunitySpec) (*Community, error) {
	c, err := NewCommunity(spec)
	if err != nil {
		return nil, err
	}
	obj, attachments := c.Marshal()
	if _, err := s.Publish(RootCommunityID, obj, attachments); err != nil {
		return nil, err
	}
	s.install(c)
	return c, nil
}

// AdoptCommunity installs an already-constructed community locally
// without any network traffic: the out-of-band bootstrap path used by
// large simulation scenarios (and by operators distributing a schema
// through other channels), where per-peer discovery floods would
// dominate the workload being measured.
func (s *Servent) AdoptCommunity(c *Community) error {
	if c == nil || c.indexer == nil {
		return ErrNotCommunity
	}
	s.install(c)
	return nil
}

// DiscoverCommunities searches the root community: the paper's
// reduction of community discovery to object search.
func (s *Servent) DiscoverCommunities(f query.Filter, opts p2p.SearchOptions) ([]p2p.Result, error) {
	return s.Search(RootCommunityID, f, opts)
}

// JoinFromNetwork downloads a community object (with its schema and
// stylesheet attachments) from the providing peer and installs it:
// "a user must join a community by downloading its schema" (§IV.A).
func (s *Servent) JoinFromNetwork(r p2p.Result) (*Community, error) {
	if r.CommunityID != RootCommunityID {
		return nil, fmt.Errorf("%w (community %s)", ErrNotCommunity, r.CommunityID)
	}
	doc, err := s.Retrieve(r.DocID, r.Provider)
	if err != nil {
		return nil, err
	}
	return s.JoinFromDocument(doc)
}

// JoinFromDocument installs a community from an already-downloaded
// community object (its attachments must be in the attachment store).
func (s *Servent) JoinFromDocument(doc *index.Document) (*Community, error) {
	if doc.CommunityID != RootCommunityID {
		return nil, fmt.Errorf("%w (community %s)", ErrNotCommunity, doc.CommunityID)
	}
	obj, err := xmldoc.ParseString(doc.XML)
	if err != nil {
		return nil, fmt.Errorf("core: join: %w", err)
	}
	attachments := make(map[string][]byte, len(doc.Attachments))
	s.mu.RLock()
	for _, uri := range doc.Attachments {
		if data, ok := s.attachments[uri]; ok {
			attachments[uri] = data
		}
	}
	s.mu.RUnlock()
	c, err := UnmarshalCommunity(obj, attachments)
	if err != nil {
		return nil, err
	}
	s.install(c)
	return c, nil
}

// Close detaches the servent from the network.
func (s *Servent) Close() error { return s.net.Close() }
