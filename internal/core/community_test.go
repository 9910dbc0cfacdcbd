package core

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/stylegen"
	"repro/internal/xmldoc"
	"repro/internal/xslt"
)

const xslHead = `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">`

// Custom stylesheets for the mp3 community, one per slot of Fig. 1.
const (
	customDisplay = xslHead + `<xsl:template match="/"><article class="custom"><xsl:value-of select="song/title"/> / <xsl:value-of select="song/artist"/></article></xsl:template></xsl:stylesheet>`
	customCreate  = xslHead + `<xsl:template match="/"><form class="custom-create"><xsl:for-each select="//element[@type]"><input name="{@name}"/></xsl:for-each></form></xsl:template></xsl:stylesheet>`
	customSearch  = xslHead + `<xsl:template match="/"><form class="custom-search"><xsl:for-each select="//element[@type]"><label><xsl:value-of select="@name"/></label></xsl:for-each></form></xsl:template></xsl:stylesheet>`
	customIndex   = xslHead + `<xsl:template match="/"><attributes><attribute name="artist"><xsl:value-of select="/song/artist"/></attribute></attributes></xsl:template></xsl:stylesheet>`
)

func mustCommunity(t testing.TB, spec CommunitySpec) *Community {
	t.Helper()
	c, err := NewCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCompiledCommunityMatchesFreshCompile pins the compiled pipeline
// to the per-call path it replaced: every output of a Community equals
// what compiling the same source on the spot and applying it yields.
func TestCompiledCommunityMatchesFreshCompile(t *testing.T) {
	type tc struct {
		c    *Community
		objs []*xmldoc.Node
	}
	var cases []tc
	for _, name := range corpus.Names() {
		cp, err := corpus.ByName(name, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		c := tc{c: mustCommunity(t, CommunitySpec{Name: name, SchemaSrc: cp.SchemaSrc})}
		for _, o := range cp.Objects {
			c.objs = append(c.objs, o.Doc)
		}
		cases = append(cases, c)
	}
	custom := tc{c: mustCommunity(t, CommunitySpec{
		Name: "custom", SchemaSrc: corpus.SongSchemaSrc,
		DisplayStyleSrc: customDisplay, CreateStyleSrc: customCreate,
		SearchStyleSrc: customSearch, IndexStyleSrc: customIndex,
	})}
	for _, o := range corpus.Songs(5, 3).Objects {
		custom.objs = append(custom.objs, o.Doc)
	}
	rootObj, _ := custom.c.Marshal()
	cases = append(cases, custom, tc{c: RootCommunity(), objs: []*xmldoc.Node{rootObj}})

	fresh := func(custom, builtin string) *xslt.Stylesheet {
		t.Helper()
		if custom == "" {
			custom = builtin
		}
		s, err := xslt.CompileString(custom)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	same := func(what, got string, gotErr error, want string, wantErr error) {
		t.Helper()
		if gotErr != nil || wantErr != nil || got != want {
			t.Errorf("%s differs from a fresh compile (%v, %v):\n got %s\nwant %s", what, gotErr, wantErr, got, want)
		}
	}
	defCreate, defSearch, defView := stylegen.DefaultSources()
	for _, tc := range cases {
		c := tc.c
		ix, err := stylegen.NewIndexer(c.Schema, c.IndexStyleSrc)
		if err != nil {
			t.Fatal(err)
		}
		if held, _ := c.Indexer(); held.Source() != ix.Source() {
			t.Errorf("%s: held index transform differs from a fresh one", c.Name)
		}
		got, gotErr := c.CreateFormHTML()
		want, wantErr := fresh(c.CreateStyleSrc, defCreate).Apply(c.Schema.Doc())
		same(c.Name+" create form", got, gotErr, want, wantErr)
		got, gotErr = c.SearchFormHTML()
		want, wantErr = fresh(c.SearchStyleSrc, defSearch).Apply(c.Schema.Doc())
		same(c.Name+" search form", got, gotErr, want, wantErr)
		view := fresh(c.DisplayStyleSrc, defView)
		for _, obj := range tc.objs {
			got, gotErr = c.View(obj)
			want, wantErr = view.Apply(obj)
			same(c.Name+" view", got, gotErr, want, wantErr)
			gotAttrs, gotErr := c.Extract(obj)
			wantAttrs, wantErr := ix.Extract(obj)
			same(c.Name+" extract", fmt.Sprint(gotAttrs), gotErr, fmt.Sprint(wantAttrs), wantErr)
			if len(gotAttrs) == 0 {
				t.Errorf("%s: no attributes extracted from %s", c.Name, obj)
			}
		}
	}
}

func TestRootCommunityIsShared(t *testing.T) {
	if RootCommunity() != RootCommunity() {
		t.Error("RootCommunity built a second instance")
	}
	f := newFixture(t, 2)
	a, _ := f.servents[0].Community(RootCommunityID)
	b, _ := f.servents[1].Community(RootCommunityID)
	if a != RootCommunity() || b != a {
		t.Error("servents hold private root communities")
	}
}

// TestSharedCommunityConcurrentUse drives one *Community (and the
// shared root) from two servents on eight goroutines while a third
// servent joins it over and over; under -race this is the proof that the
// compiled pipeline is read-only.
func TestSharedCommunityConcurrentUse(t *testing.T) {
	f := newFixture(t, 3)
	c := mustCommunity(t, CommunitySpec{Name: "shared", SchemaSrc: corpus.SongSchemaSrc, DisplayStyleSrc: customDisplay})
	for _, sv := range f.servents[:2] {
		if err := sv.AdoptCommunity(c); err != nil {
			t.Fatal(err)
		}
	}
	songs := corpus.Songs(8, 9).Objects
	rootObj, rootAttachments := c.Marshal()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sv := f.servents[g%2]
			for i := 0; i < 20; i++ {
				id, err := sv.Publish(c.ID, songs[g].Doc, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := sv.View(id); err != nil {
					t.Error(err)
				}
				if _, err := c.CreateFormHTML(); err != nil {
					t.Error(err)
				}
				// The same three through the shared root community.
				if id, err = sv.Publish(RootCommunityID, rootObj, rootAttachments); err != nil {
					t.Error(err)
					return
				}
				if _, err := sv.View(id); err != nil {
					t.Error(err)
				}
				if _, err := RootCommunity().CreateFormHTML(); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	joiner := f.servents[2]
	for i := 0; i < 200; i++ {
		if err := joiner.AdoptCommunity(c); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestRequestPathDoesNotCompile pins allocation counts that only hold
// when nothing on a request compiles a stylesheet: at the parent commit
// ViewHTML alone cost 2 592 allocations (1 891 of them compiling the
// three built-ins) and a servent's private root community 1 236.
func TestRequestPathDoesNotCompile(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sv := newFixture(t, 1).servents[0]
	c, err := sv.CreateCommunity(CommunitySpec{Name: "patterns", SchemaSrc: corpus.PatternSchemaSrc})
	if err != nil {
		t.Fatal(err)
	}
	obj := corpus.DesignPatterns(1, 1).Objects[0].Doc
	id, err := sv.Publish(c.ID, obj, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := obj.String()
	parse := testing.AllocsPerRun(20, func() { _, _ = xmldoc.ParseString(text) })
	builtin := testing.AllocsPerRun(20, func() { _, _ = stylegen.ViewHTML(obj) })
	view := testing.AllocsPerRun(20, func() { _, _ = sv.View(id) })
	if builtin >= 1000 {
		t.Errorf("stylegen.ViewHTML allocates %.0f objects, want < 1000", builtin)
	}
	if view > parse+builtin+50 {
		t.Errorf("Servent.View allocates %.0f objects, want <= parse %.0f + ViewHTML %.0f + 50", view, parse, builtin)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = NewServent(sv.Network(), sv.Store()) }); n >= 300 {
		t.Errorf("NewServent allocates %.0f objects, want < 300", n)
	}
}

// TestFormsRenderOnce: a community's page shows both forms, and a
// community never changes, so only the first call of each form method
// applies its stylesheet. Later calls allocate nothing, also for a
// create stylesheet that runs out of the XSLT budget (its error is the
// kept result; applying it costs ~0.2 s of CPU).
func TestFormsRenderOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	seed, err := os.ReadFile("testdata/fuzz/FuzzUnmarshalCommunity/runaway-create")
	if err != nil {
		t.Fatal(err)
	}
	// The fuzz input's fourth argument is the create stylesheet.
	runaway, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(seed), "\n")[4], "string("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []*Community{
		RootCommunity(),
		mustCommunity(t, CommunitySpec{Name: "mp3", SchemaSrc: songSchema, CreateStyleSrc: customCreate, SearchStyleSrc: customSearch}),
		mustCommunity(t, CommunitySpec{Name: "runaway", SchemaSrc: songSchema, CreateStyleSrc: runaway}),
	}
	for _, c := range cases {
		for what, render := range map[string]func() (string, error){"create": c.CreateFormHTML, "search": c.SearchFormHTML} {
			first, firstErr := render()
			if c.Name == "runaway" && what == "create" && !errors.Is(firstErr, xslt.ErrBudget) {
				t.Fatalf("runaway create form: err = %v, want the XSLT budget", firstErr)
			}
			if again, againErr := render(); again != first || againErr != firstErr {
				t.Errorf("%s %s form: second call returned (%d bytes, %v), first (%d bytes, %v)", c.Name, what, len(again), againErr, len(first), firstErr)
			}
			if n := testing.AllocsPerRun(10, func() { _, _ = render() }); n != 0 {
				t.Errorf("%s %s form: a later call allocates %.0f objects, want 0", c.Name, what, n)
			}
		}
	}
}

// TestUnmarshalIndexStylesheetByURI is the regression test for the
// custom index transform being picked by map order: only index.xsl
// under the object's own attachment prefix counts.
func TestUnmarshalIndexStylesheetByURI(t *testing.T) {
	c := mustCommunity(t, CommunitySpec{Name: "m", SchemaSrc: songSchema, IndexStyleSrc: customIndex})
	obj, attachments := c.Marshal()
	other := xslHead + `<xsl:template match="/"><attributes><attribute name="title"><xsl:value-of select="/song/title"/></attribute></attributes></xsl:template></xsl:stylesheet>`
	attachments[AttachmentURI("c-stranger", attachIndex)] = []byte(other)
	for i := 0; i < 50; i++ {
		back, err := UnmarshalCommunity(obj, attachments)
		if err != nil {
			t.Fatal(err)
		}
		if back.IndexStyleSrc != customIndex {
			t.Fatalf("unmarshal %d picked a foreign index.xsl", i)
		}
	}
	delete(attachments, AttachmentURI(c.ID, attachIndex))
	back, err := UnmarshalCommunity(obj, attachments)
	if err != nil {
		t.Fatal(err)
	}
	if back.IndexStyleSrc != "" {
		t.Error("index.xsl under a foreign prefix was adopted")
	}
}

// TestUnmarshalCommunitySizeCap: a stranger's community whose schema or
// stylesheet source is over maxSourceBytes is refused before anything
// is compiled, with the error code core.source_too_large; a source
// exactly at the cap is accepted.
func TestUnmarshalCommunitySizeCap(t *testing.T) {
	c := mustCommunity(t, CommunitySpec{Name: "big", SchemaSrc: songSchema, DisplayStyleSrc: customDisplay, IndexStyleSrc: customIndex})
	obj, attachments := c.Marshal()
	// A trailing comment pads a source to size without changing what it
	// compiles to.
	padded := func(uri string, size int) map[string][]byte {
		out := maps.Clone(attachments)
		src := string(attachments[uri])
		out[uri] = []byte(src + "<!--" + strings.Repeat("x", size-len(src)-len("<!---->")) + "-->")
		return out
	}
	schemaURI := obj.ChildText("schema")
	atCap := padded(schemaURI, maxSourceBytes)
	if len(atCap[schemaURI]) != maxSourceBytes {
		t.Fatalf("padded schema is %d bytes, want %d", len(atCap[schemaURI]), maxSourceBytes)
	}
	if _, err := UnmarshalCommunity(obj, atCap); err != nil {
		t.Fatalf("a schema of exactly %d bytes: %v", maxSourceBytes, err)
	}
	for _, uri := range []string{schemaURI, obj.ChildText("displaystyle"), AttachmentURI(c.ID, attachIndex)} {
		back, err := UnmarshalCommunity(obj, padded(uri, 2<<20))
		if code := errs.Code(err); code != "core.source_too_large" {
			t.Errorf("a 2 MiB %s: got %v, error %v (code %q), want code core.source_too_large", uri, back, err, code)
		}
	}
}

// TestShippedSourcesUnderCap: every schema and stylesheet source the
// repository ships — the root community's schema, each corpus's schema
// and generated indexing sheet, and the default stylesheets — is at
// least 100 times smaller than maxSourceBytes.
func TestShippedSourcesUnderCap(t *testing.T) {
	create, search, view := stylegen.DefaultSources()
	sources := map[string]string{"root schema": rootSchemaSrc, "create": create, "search": search, "view": view}
	for _, name := range corpus.Names() {
		c, err := corpus.ByName(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		comm := mustCommunity(t, CommunitySpec{Name: name, SchemaSrc: c.SchemaSrc})
		sources[name+" schema"] = c.SchemaSrc
		if sources[name+" indexing"], err = stylegen.GenerateIndexingStylesheet(comm.Schema); err != nil {
			t.Fatal(err)
		}
	}
	largest := ""
	for name, src := range sources {
		if len(src) > len(sources[largest]) {
			largest = name
		}
	}
	t.Logf("largest shipped source: %s, %d bytes, %dx under the cap", largest, len(sources[largest]), maxSourceBytes/len(sources[largest]))
	if len(sources[largest])*100 > maxSourceBytes {
		t.Errorf("%s is %d bytes, less than 100x under the %d-byte cap", largest, len(sources[largest]), maxSourceBytes)
	}
}

var benchSink any

// BenchmarkServentView measures the View function of §IV.C.3: load,
// parse, apply the community's compiled display stylesheet.
func BenchmarkServentView(b *testing.B) {
	sv := newFixture(b, 1).servents[0]
	c, err := sv.CreateCommunity(CommunitySpec{Name: "patterns", SchemaSrc: corpus.PatternSchemaSrc})
	if err != nil {
		b.Fatal(err)
	}
	id, err := sv.Publish(c.ID, corpus.DesignPatterns(1, 1).Objects[0].Doc, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = sv.View(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommunityJoin measures what joining costs once the object
// and its attachments are downloaded: parse the schema, compile the
// pipeline.
func BenchmarkCommunityJoin(b *testing.B) {
	obj, attachments := mustCommunity(b, CommunitySpec{Name: "patterns", SchemaSrc: corpus.PatternSchemaSrc}).Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := UnmarshalCommunity(obj, attachments)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = c
	}
}

// BenchmarkNewServent measures servent start on an existing network
// node: the root community is shared, not rebuilt.
func BenchmarkNewServent(b *testing.B) {
	first := newFixture(b, 1).servents[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv, err := NewServent(first.Network(), first.Store())
		if err != nil {
			b.Fatal(err)
		}
		benchSink = sv
	}
}
