package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
	"repro/internal/xmldoc"
)

const songSchema = `
<schema xmlns="http://www.w3.org/2001/XMLSchema" xmlns:up2p="http://up2p.carleton.ca/ns/community">
 <element name="song">
  <complexType>
   <sequence>
    <element name="title" type="xsd:string" up2p:searchable="true"/>
    <element name="artist" type="xsd:string" up2p:searchable="true"/>
    <element name="album" type="xsd:string" minOccurs="0" up2p:searchable="true"/>
    <element name="bitrate" type="xsd:integer" minOccurs="0"/>
   </sequence>
  </complexType>
 </element>
</schema>`

// fixture builds n servents on one centralized mem-network.
type fixture struct {
	net      *transport.MemNetwork
	server   *p2p.IndexServer
	servents []*Servent
}

func newFixture(t testing.TB, n int) *fixture {
	t.Helper()
	net := transport.NewMemNetwork()
	sep, err := net.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{net: net, server: p2p.NewIndexServer(sep)}
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("peer%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		st := index.NewStore()
		client := p2p.NewCentralizedClient(ep, "server", st)
		sv, err := NewServent(client, st)
		if err != nil {
			t.Fatal(err)
		}
		f.servents = append(f.servents, sv)
	}
	return f
}

func TestRootCommunityBootstrap(t *testing.T) {
	f := newFixture(t, 1)
	sv := f.servents[0]
	if !sv.IsJoined(RootCommunityID) {
		t.Fatal("servent not in root community")
	}
	joined := sv.Joined()
	if len(joined) != 1 || joined[0] != RootCommunityID {
		t.Errorf("joined = %v", joined)
	}
	root, ok := sv.Community(RootCommunityID)
	if !ok {
		t.Fatal("root community not installed")
	}
	if root.Schema.Root.Name != "community" {
		t.Errorf("root schema element = %q", root.Schema.Root.Name)
	}
	// Fig. 3 protocol enumeration present.
	pt, ok := root.Schema.Types["protocolTypes"]
	if !ok || len(pt.Enum) != 4 {
		t.Errorf("protocolTypes = %+v", pt)
	}
}

func TestCreateCommunityAndPublish(t *testing.T) {
	f := newFixture(t, 1)
	sv := f.servents[0]
	c, err := sv.CreateCommunity(CommunitySpec{
		Name:        "mp3",
		Description: "MP3 trading community",
		Keywords:    "music audio mp3",
		Category:    "media",
		Security:    "open",
		Protocol:    "Napster",
		SchemaSrc:   songSchema,
	})
	if err != nil {
		t.Fatalf("create community: %v", err)
	}
	if !sv.IsJoined(c.ID) {
		t.Error("creator did not join own community")
	}
	obj := mustParseXML(`<song><title>So What</title><artist>Miles Davis</artist><album>Kind of Blue</album><bitrate>320</bitrate></song>`)
	docID, err := sv.Publish(c.ID, obj, nil)
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	rs, err := sv.Search(c.ID, query.MustParse("(artist~=miles)"), p2p.SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(rs) != 1 || rs[0].DocID != docID {
		t.Fatalf("results = %+v", rs)
	}
	if rs[0].Title != "So What" {
		t.Errorf("title = %q", rs[0].Title)
	}
	// bitrate is not searchable: not in result attrs.
	if _, present := rs[0].Attrs.Map()["bitrate"]; present {
		t.Error("unsearchable bitrate was indexed")
	}
}

// TestPublishBatchMatchesPublish: the batched ingest path yields the
// same doc IDs, local store state, and network visibility as
// one-by-one Publish — on both the publisher and the index server.
func TestPublishBatchMatchesPublish(t *testing.T) {
	f := newFixture(t, 2)
	batcher, single := f.servents[0], f.servents[1]
	c, err := batcher.CreateCommunity(CommunitySpec{Name: "mp3", SchemaSrc: songSchema})
	if err != nil {
		t.Fatalf("create community: %v", err)
	}
	found, err := single.DiscoverCommunities(query.MustParse("(name=mp3)"), p2p.SearchOptions{})
	if err != nil || len(found) == 0 {
		t.Fatalf("discover = %v, %v", found, err)
	}
	if _, err := single.JoinFromNetwork(found[0]); err != nil {
		t.Fatalf("join: %v", err)
	}
	srcs := []string{
		`<song><title>So What</title><artist>Miles Davis</artist></song>`,
		`<song><title>Naima</title><artist>John Coltrane</artist></song>`,
		`<song><title>Footprints</title><artist>Wayne Shorter</artist></song>`,
	}
	var objs []*xmldoc.Node
	for _, src := range srcs {
		objs = append(objs, mustParseXML(src))
	}
	batchIDs, err := batcher.PublishBatch(c.ID, objs)
	if err != nil {
		t.Fatalf("publish batch: %v", err)
	}
	if len(batchIDs) != len(objs) {
		t.Fatalf("batch ids = %d, want %d", len(batchIDs), len(objs))
	}
	for i, src := range srcs {
		id, err := single.Publish(c.ID, mustParseXML(src), nil)
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if id != batchIDs[i] {
			t.Errorf("object %d: batch id %s != single id %s", i, batchIDs[i], id)
		}
		if !batcher.Store().Has(batchIDs[i]) {
			t.Errorf("object %d missing from batcher's store", i)
		}
	}
	// The server indexed the batch: every object searchable, with both
	// peers as providers.
	rs, err := batcher.Search(c.ID, query.MustParse("(artist~=miles)"), p2p.SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(rs) != 2 {
		t.Fatalf("results = %+v, want the replica from each peer", rs)
	}

	// Validation is all-or-nothing: one bad object rejects the batch.
	_, err = batcher.PublishBatch(c.ID, []*xmldoc.Node{
		mustParseXML(`<song><title>OK</title><artist>A</artist></song>`),
		mustParseXML(`<song><artist>missing title</artist></song>`),
	})
	if err == nil {
		t.Fatal("batch with invalid object accepted")
	}
	if _, err := batcher.PublishBatch("nope", nil); !errors.Is(err, ErrNotJoined) {
		t.Errorf("unjoined community error = %v", err)
	}
}

func TestPublishValidatesAgainstSchema(t *testing.T) {
	f := newFixture(t, 1)
	sv := f.servents[0]
	c, err := sv.CreateCommunity(CommunitySpec{Name: "mp3", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	// Missing required artist.
	_, err = sv.Publish(c.ID, mustParseXML(`<song><title>X</title></song>`), nil)
	if err == nil {
		t.Error("invalid object published")
	}
	// Wrong root element.
	_, err = sv.Publish(c.ID, mustParseXML(`<movie/>`), nil)
	if err == nil {
		t.Error("wrong-rooted object published")
	}
	// Unknown community.
	_, err = sv.Publish("nope", mustParseXML(`<song/>`), nil)
	if !errors.Is(err, ErrNotJoined) {
		t.Errorf("unknown community err = %v", err)
	}
}

func TestCommunityDiscoveryAndJoin(t *testing.T) {
	f := newFixture(t, 2)
	creator, joiner := f.servents[0], f.servents[1]
	_, err := creator.CreateCommunity(CommunitySpec{
		Name:      "design-patterns",
		Keywords:  "gof software design",
		Category:  "computer-science",
		SchemaSrc: songSchema, // schema content irrelevant to discovery
	})
	if err != nil {
		t.Fatal(err)
	}
	// Discovery = searching the root community (the paper's central claim).
	rs, err := joiner.DiscoverCommunities(query.MustParse("(keywords~=gof)"), p2p.SearchOptions{})
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	if len(rs) != 1 {
		t.Fatalf("discovered = %+v", rs)
	}
	if rs[0].Provider != creator.PeerID() {
		t.Errorf("provider = %s", rs[0].Provider)
	}
	// Join: downloads community object + schema/stylesheet attachments.
	c, err := joiner.JoinFromNetwork(rs[0])
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if c.Name != "design-patterns" {
		t.Errorf("joined name = %q", c.Name)
	}
	if !joiner.IsJoined(c.ID) {
		t.Error("not joined after JoinFromNetwork")
	}
	// Schema arrived intact: joiner can search the new community.
	if _, err := joiner.Search(c.ID, query.MatchAll{}, p2p.SearchOptions{}); err != nil {
		t.Errorf("search joined community: %v", err)
	}
	// And publish into it.
	obj := mustParseXML(`<song><title>T</title><artist>A</artist></song>`)
	if _, err := joiner.Publish(c.ID, obj, nil); err != nil {
		t.Errorf("publish to joined community: %v", err)
	}
}

func TestSearchRequiresJoin(t *testing.T) {
	f := newFixture(t, 2)
	creator, outsider := f.servents[0], f.servents[1]
	c, err := creator.CreateCommunity(CommunitySpec{Name: "m", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	_, err = outsider.Search(c.ID, query.MatchAll{}, p2p.SearchOptions{})
	if !errors.Is(err, ErrNotJoined) {
		t.Errorf("outsider search err = %v, want ErrNotJoined", err)
	}
}

func TestRetrieveReplicatesAndDownloadsAttachments(t *testing.T) {
	f := newFixture(t, 2)
	pub, dl := f.servents[0], f.servents[1]
	c, err := pub.CreateCommunity(CommunitySpec{Name: "m", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	attURI := AttachmentURI("song1", "audio.mp3")
	obj := mustParseXML(`<song><title>T</title><artist>A</artist></song>`)
	docID, err := pub.Publish(c.ID, obj, map[string][]byte{attURI: []byte("MP3DATA")})
	if err != nil {
		t.Fatal(err)
	}
	// Joiner discovers + joins + searches + retrieves.
	rs, err := dl.DiscoverCommunities(query.MustParse("(name=m)"), p2p.SearchOptions{})
	if err != nil || len(rs) != 1 {
		t.Fatalf("discover: %v %v", rs, err)
	}
	if _, err := dl.JoinFromNetwork(rs[0]); err != nil {
		t.Fatal(err)
	}
	hits, err := dl.Search(c.ID, query.MustParse("(title=T)"), p2p.SearchOptions{})
	if err != nil || len(hits) != 1 {
		t.Fatalf("search: %v %v", hits, err)
	}
	doc, err := dl.Retrieve(hits[0].DocID, hits[0].Provider)
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	if doc.ID != docID {
		t.Errorf("doc ID = %s", doc.ID)
	}
	// Attachment content arrived.
	data, ok := dl.Attachment(attURI)
	if !ok || string(data) != "MP3DATA" {
		t.Errorf("attachment = %q, %v", data, ok)
	}
	// Replication: downloader is now a provider too.
	rs2, err := pub.Search(c.ID, query.MustParse("(title=T)"), p2p.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	providers := map[transport.PeerID]bool{}
	for _, r := range rs2 {
		providers[r.Provider] = true
	}
	if !providers[dl.PeerID()] {
		t.Errorf("downloader not a provider after retrieve: %v", providers)
	}
}

// overwritingEndpoint overwrites every payload delivered to it once
// the handler it was given returns, as a TCP reader reads its next
// frame into the same buffer.
type overwritingEndpoint struct{ transport.Endpoint }

func (e overwritingEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(m transport.Message) {
		h(m)
		for i := range m.Payload {
			m.Payload[i] = ^m.Payload[i]
		}
	})
}

// TestRetrievedDocumentOwnsItsBytes: the document Retrieve stores is a
// copy of the fetch reply, never a view of it. Every payload the
// downloader receives is overwritten once its handler returns, and the
// stored object, its attributes and its attachment list still read as
// the publisher's, and so does the downloader's answer from its store.
func TestRetrievedDocumentOwnsItsBytes(t *testing.T) {
	net := transport.NewMemNetwork()
	endpoint := func(id transport.PeerID) transport.Endpoint {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	p2p.NewIndexServer(endpoint("server"))
	servent := func(ep transport.Endpoint) *Servent {
		st := index.NewStore()
		sv, err := NewServent(p2p.NewCentralizedClient(ep, "server", st), st)
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	pub, dl := servent(endpoint("pub")), servent(overwritingEndpoint{endpoint("dl")})
	c, err := pub.CreateCommunity(CommunitySpec{Name: "m", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	attURI := AttachmentURI("song1", "audio.mp3")
	docID, err := pub.Publish(c.ID, mustParseXML(`<song><title>Kind of Blue</title><artist>Miles Davis</artist></song>`),
		map[string][]byte{attURI: []byte("MP3DATA")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dl.Retrieve(docID, pub.PeerID()); err != nil {
		t.Fatal(err)
	}
	want, err := pub.Store().Get(docID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dl.Store().Get(docID)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("stored %+v (%v), published %+v", got, err, want)
	}
	if data, ok := dl.Attachment(attURI); !ok || string(data) != "MP3DATA" {
		t.Errorf("attachment = %q, %v", data, ok)
	}
	local := dl.SearchLocal(c.ID, query.MustParse("(artist=miles)"), 0)
	if len(local) != 1 || !local[0].Attrs.Equal(query.FieldsOf(want.Attrs)) {
		t.Errorf("local search = %+v, want the attributes %v", local, want.Attrs)
	}
}

// TestRetrieveStoresOnce: a download is one write to the downloader's
// store, the publish that makes it a provider. With a write-ahead log
// armed under that store, each Retrieve appends one log record.
func TestRetrieveStoresOnce(t *testing.T) {
	net := transport.NewMemNetwork()
	endpoint := func(id transport.PeerID) transport.Endpoint {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	p2p.NewIndexServer(endpoint("server"))
	servent := func(id transport.PeerID, st *index.Store) *Servent {
		sv, err := NewServent(p2p.NewCentralizedClient(endpoint(id), "server", st), st)
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	reg := metrics.NewRegistry()
	st, err := index.OpenStore(index.WithWAL(t.TempDir()), index.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pub, dl := servent("pub", index.NewStore()), servent("dl", st)
	c, err := pub.CreateCommunity(CommunitySpec{Name: "m", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id, err := pub.Publish(c.ID, mustParseXML(fmt.Sprintf(`<song><title>T%d</title><artist>A</artist></song>`, i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		before := reg.Snapshot().Counter("index.wal_appends")
		if _, err := dl.Retrieve(id, pub.PeerID()); err != nil {
			t.Fatal(err)
		}
		if got := reg.Snapshot().Counter("index.wal_appends") - before; got != 1 {
			t.Errorf("retrieve %d appended %d log records, want 1", i, got)
		}
		if !st.Has(id) {
			t.Errorf("retrieve %d: the object is not in the downloader's store", i)
		}
	}
}

func TestViewUsesStylesheets(t *testing.T) {
	f := newFixture(t, 1)
	sv := f.servents[0]
	c, err := sv.CreateCommunity(CommunitySpec{Name: "m", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	obj := mustParseXML(`<song><title>So What</title><artist>Miles Davis</artist></song>`)
	docID, err := sv.Publish(c.ID, obj, nil)
	if err != nil {
		t.Fatal(err)
	}
	html, err := sv.View(docID)
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	if !strings.Contains(html, "So What") || !strings.Contains(html, "up2p-view") {
		t.Errorf("view html = %q", html)
	}
}

func TestViewCustomStylesheet(t *testing.T) {
	f := newFixture(t, 1)
	sv := f.servents[0]
	custom := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	  <xsl:template match="/"><article class="custom"><xsl:value-of select="song/title"/></article></xsl:template>
	</xsl:stylesheet>`
	c, err := sv.CreateCommunity(CommunitySpec{Name: "m", SchemaSrc: songSchema, DisplayStyleSrc: custom})
	if err != nil {
		t.Fatal(err)
	}
	docID, err := sv.Publish(c.ID, mustParseXML(`<song><title>X</title><artist>A</artist></song>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	html, err := sv.View(docID)
	if err != nil {
		t.Fatal(err)
	}
	if html != `<article class="custom">X</article>` {
		t.Errorf("custom view = %q", html)
	}
}

func TestCreateFromForm(t *testing.T) {
	f := newFixture(t, 1)
	sv := f.servents[0]
	c, err := sv.CreateCommunity(CommunitySpec{Name: "m", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	docID, err := sv.CreateFromForm(c.ID, map[string][]string{
		"title":  {"Blue in Green"},
		"artist": {"Miles Davis"},
	})
	if err != nil {
		t.Fatalf("create from form: %v", err)
	}
	doc, err := sv.Store().Get(docID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Title != "Blue in Green" {
		t.Errorf("title = %q", doc.Title)
	}
	// Bad form values rejected.
	if _, err := sv.CreateFromForm(c.ID, map[string][]string{"bitrate": {"NaN"}}); err == nil {
		t.Error("invalid form accepted")
	}
}

func TestSearchFormAndForms(t *testing.T) {
	f := newFixture(t, 1)
	sv := f.servents[0]
	c, err := sv.CreateCommunity(CommunitySpec{Name: "m", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.CreateFromForm(c.ID, map[string][]string{"title": {"A"}, "artist": {"X"}}); err != nil {
		t.Fatal(err)
	}
	rs, err := sv.SearchForm(c.ID, map[string][]string{"artist": {"X"}}, p2p.SearchOptions{})
	if err != nil || len(rs) != 1 {
		t.Errorf("search form = %v, %v", rs, err)
	}
	// Form generation via community helpers.
	html, err := c.CreateFormHTML()
	if err != nil || !strings.Contains(html, `name="title"`) {
		t.Errorf("create form: %v", err)
	}
	html, err = c.SearchFormHTML()
	if err != nil || !strings.Contains(html, `action="search"`) {
		t.Errorf("search form: %v", err)
	}
}

func TestCommunityMarshalRoundTrip(t *testing.T) {
	c, err := NewCommunity(CommunitySpec{
		Name:        "cml",
		Description: "Chemical markup molecules",
		Keywords:    "chemistry molecules",
		Category:    "science",
		Security:    "open",
		Protocol:    "Gnutella",
		SchemaSrc:   songSchema,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj, attachments := c.Marshal()
	// Valid under the root (Fig. 3) schema.
	if err := RootCommunity().Schema.Validate(obj); err != nil {
		t.Fatalf("community object invalid under Fig. 3 schema: %v", err)
	}
	back, err := UnmarshalCommunity(obj, attachments)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.ID != c.ID {
		t.Errorf("ID changed: %s vs %s", back.ID, c.ID)
	}
	if back.Name != c.Name || back.Protocol != c.Protocol || back.SchemaSrc != c.SchemaSrc {
		t.Errorf("fields changed: %+v", back)
	}
	// Defaults not misidentified as custom styles.
	if back.DisplayStyleSrc != "" || back.CreateStyleSrc != "" {
		t.Error("default styles round-tripped as custom")
	}
}

func TestCommunityValidation(t *testing.T) {
	if _, err := NewCommunity(CommunitySpec{SchemaSrc: songSchema}); !errors.Is(err, ErrNoName) {
		t.Errorf("no name err = %v", err)
	}
	if _, err := NewCommunity(CommunitySpec{Name: "x"}); !errors.Is(err, ErrNoSchema) {
		t.Errorf("no schema err = %v", err)
	}
	if _, err := NewCommunity(CommunitySpec{Name: "x", SchemaSrc: "<notaschema/>"}); err == nil {
		t.Error("bad schema accepted")
	}
	if _, err := NewCommunity(CommunitySpec{Name: "x", SchemaSrc: songSchema, DisplayStyleSrc: "<junk"}); err == nil {
		t.Error("bad stylesheet accepted")
	}
}

// TestUnmarshalCommunityErrors feeds hostile community objects — the
// kind a stranger can publish into the root community — through
// UnmarshalCommunity and through a join: each is refused at
// construction and nothing is installed.
func TestUnmarshalCommunityErrors(t *testing.T) {
	good, attachments := mustCommunity(t, CommunitySpec{Name: "x", SchemaSrc: songSchema}).Marshal()
	with := func(name, content string) map[string][]byte {
		out := map[string][]byte{}
		for uri, data := range attachments {
			out[uri] = data
		}
		out[good.ChildText(name)] = []byte(content)
		return out
	}
	sv := newFixture(t, 1).servents[0]
	for _, tc := range []struct {
		name        string
		obj         *xmldoc.Node
		attachments map[string][]byte
	}{
		{"wrong root element", mustParseXML("<other/>"), nil},
		{"missing schema attachment", good, map[string][]byte{}},
		{"displaystyle that is not XSLT", good, with("displaystyle", "<html><body/></html>")},
		{"createstyle that is not XML", good, with("createstyle", "<junk")},
		{"schema without a root element", good, with("schema", `<schema xmlns="http://www.w3.org/2001/XMLSchema"><simpleType name="t"><restriction base="string"/></simpleType></schema>`)},
	} {
		if c, err := UnmarshalCommunity(tc.obj, tc.attachments); err == nil {
			t.Errorf("%s: unmarshalled %v", tc.name, c)
		}
		doc := &index.Document{ID: "d-hostile", CommunityID: RootCommunityID, XML: tc.obj.String()}
		for uri, data := range tc.attachments {
			doc.Attachments = append(doc.Attachments, uri)
			sv.attachments[uri] = data
		}
		if c, err := sv.JoinFromDocument(doc); err == nil {
			t.Errorf("%s: joined %v", tc.name, c)
		}
		if joined := sv.Joined(); len(joined) != 1 {
			t.Errorf("%s: installed %v", tc.name, joined)
		}
	}
}

func TestDocIDDeterministic(t *testing.T) {
	obj1 := mustParseXML(`<song><title>T</title><artist>A</artist></song>`)
	obj2 := mustParseXML(`<song><title>T</title><artist>A</artist></song>`)
	if DocIDFor("c", obj1) != DocIDFor("c", obj2) {
		t.Error("same object, different IDs")
	}
	if DocIDFor("c", obj1) == DocIDFor("other", obj1) {
		t.Error("community not part of ID")
	}
}

func TestSameCommunityIDAcrossPeers(t *testing.T) {
	// Two peers independently creating the same community converge on
	// the same ID (content addressing).
	spec := CommunitySpec{Name: "same", SchemaSrc: songSchema}
	a, err := NewCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Errorf("IDs differ: %s vs %s", a.ID, b.ID)
	}
}

func TestCustomIndexingStylesheet(t *testing.T) {
	f := newFixture(t, 1)
	sv := f.servents[0]
	// Index only the artist, ignoring the searchable markers.
	custom := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	  <xsl:template match="/">
	    <attributes>
	      <attribute name="artist"><xsl:value-of select="/song/artist"/></attribute>
	    </attributes>
	  </xsl:template>
	</xsl:stylesheet>`
	c, err := sv.CreateCommunity(CommunitySpec{Name: "m", SchemaSrc: songSchema, IndexStyleSrc: custom})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Publish(c.ID, mustParseXML(`<song><title>T</title><artist>A</artist></song>`), nil); err != nil {
		t.Fatal(err)
	}
	// Title is NOT indexed under the custom transform.
	rs, err := sv.Search(c.ID, query.MustParse("(title=T)"), p2p.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("title matched despite custom indexer: %+v", rs)
	}
	rs, err = sv.Search(c.ID, query.MustParse("(artist=A)"), p2p.SearchOptions{})
	if err != nil || len(rs) != 1 {
		t.Errorf("artist search = %v, %v", rs, err)
	}
}

func TestGnutellaServents(t *testing.T) {
	// The same servent code on the Gnutella network (protocol
	// independence at the core layer).
	net := transport.NewMemNetwork()
	var nodes []*p2p.GnutellaNode
	var servents []*Servent
	for i := 0; i < 3; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("g%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		st := index.NewStore()
		node := p2p.NewGnutellaNode(ep, st)
		nodes = append(nodes, node)
		sv, err := NewServent(node, st)
		if err != nil {
			t.Fatal(err)
		}
		servents = append(servents, sv)
	}
	for i := range nodes {
		for j := range nodes {
			if i != j {
				nodes[i].AddNeighbor(nodes[j].PeerID())
			}
		}
	}
	c, err := servents[0].CreateCommunity(CommunitySpec{Name: "m", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	// Peer 2 discovers the community over the flood.
	rs, err := servents[2].DiscoverCommunities(query.MustParse("(name=m)"), p2p.SearchOptions{TTL: 3})
	if err != nil || len(rs) != 1 {
		t.Fatalf("gnutella discover = %v, %v", rs, err)
	}
	if _, err := servents[2].JoinFromNetwork(rs[0]); err != nil {
		t.Fatalf("gnutella join: %v", err)
	}
	if !servents[2].IsJoined(c.ID) {
		t.Error("not joined over gnutella")
	}
}

// mustParseXML parses a document the test spells out.
// TestTitleFallbackCutsAtARune: an object whose searchable fields are
// all absent takes its title from its text, cut to 40 bytes — at a
// rune boundary, so the title stays valid UTF-8 and survives the WAL's
// JSON encoding unchanged.
func TestTitleFallbackCutsAtARune(t *testing.T) {
	const memoSchema = `
<schema xmlns="http://www.w3.org/2001/XMLSchema" xmlns:up2p="http://up2p.carleton.ca/ns/community">
 <element name="memo">
  <complexType>
   <sequence>
    <element name="tag" type="xsd:string" minOccurs="0" up2p:searchable="true"/>
    <element name="body" type="xsd:string"/>
   </sequence>
  </complexType>
 </element>
</schema>`
	sv := newFixture(t, 1).servents[0]
	c, err := sv.CreateCommunity(CommunitySpec{Name: "memos", SchemaSrc: memoSchema})
	if err != nil {
		t.Fatal(err)
	}
	// Bytes 39 and 40 of the body are one 'é'.
	body := strings.Repeat("a", 39) + "éé"
	id, err := sv.Publish(c.ID, mustParseXML("<memo><body>"+body+"</body></memo>"), nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sv.Store().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !utf8.ValidString(doc.Title) || doc.Title != body[:39] {
		t.Errorf("title = %q, want the 39 a's before the split rune", doc.Title)
	}
}

func mustParseXML(s string) *xmldoc.Node {
	n, err := xmldoc.ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}
