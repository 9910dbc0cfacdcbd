package servent

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// fixture: two web servents on one centralized network.
type fixture struct {
	net      *transport.MemNetwork
	handlers []*Handler
	servents []*core.Servent
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	net := transport.NewMemNetwork()
	sep, err := net.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	p2p.NewIndexServer(sep)
	f := &fixture{net: net}
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("peer%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		st := index.NewStore()
		sv, err := core.NewServent(p2p.NewCentralizedClient(ep, "server", st), st)
		if err != nil {
			t.Fatal(err)
		}
		f.servents = append(f.servents, sv)
		f.handlers = append(f.handlers, New(sv))
	}
	return f
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.String()
}

func postForm(t *testing.T, h http.Handler, path string, form url.Values) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHomeListsRootCommunity(t *testing.T) {
	f := newFixture(t, 1)
	rec, body := get(t, f.handlers[0], "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(body, "Community-sharing community") {
		t.Errorf("home missing root community:\n%s", body)
	}
}

func TestCommunityPageShowsGeneratedForms(t *testing.T) {
	f := newFixture(t, 1)
	c, err := f.servents[0].CreateCommunity(core.CommunitySpec{
		Name: "mp3", SchemaSrc: corpus.SongSchemaSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, body := get(t, f.handlers[0], "/community/"+c.ID)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	for _, want := range []string{`name="title"`, `name="artist"`, `<select name="genre"`, "up2p-create", "up2p-search"} {
		if !strings.Contains(body, want) {
			t.Errorf("community page missing %q", want)
		}
	}
	// Unknown community 404s.
	rec, _ = get(t, f.handlers[0], "/community/nope")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown community status = %d", rec.Code)
	}
}

func TestCreateSearchViewLoop(t *testing.T) {
	f := newFixture(t, 2)
	c, err := f.servents[0].CreateCommunity(core.CommunitySpec{Name: "mp3", SchemaSrc: corpus.SongSchemaSrc})
	if err != nil {
		t.Fatal(err)
	}
	// Create through the web form.
	rec := postForm(t, f.handlers[0], "/create?community="+c.ID, url.Values{
		"title":  {"So What"},
		"artist": {"Miles Davis"},
		"genre":  {"jazz"},
	})
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("create status = %d: %s", rec.Code, rec.Body.String())
	}
	viewPath := rec.Header().Get("Location")
	if !strings.HasPrefix(viewPath, "/view?doc=") {
		t.Fatalf("redirect = %q", viewPath)
	}
	// View renders the object.
	rec2, body := get(t, f.handlers[0], viewPath)
	if rec2.Code != http.StatusOK || !strings.Contains(body, "So What") {
		t.Errorf("view = %d:\n%s", rec2.Code, body)
	}
	// Search from the same servent through the web form.
	_, results := get(t, f.handlers[0], "/search?community="+c.ID+"&artist=Miles+Davis")
	if !strings.Contains(results, "So What") {
		t.Errorf("search results missing object:\n%s", results)
	}
	// Raw filter-language search.
	_, results = get(t, f.handlers[0], "/search?community="+c.ID+"&filter="+url.QueryEscape("(genre=jazz)"))
	if !strings.Contains(results, "So What") {
		t.Errorf("raw filter search missing object")
	}
	// Invalid create rejected with a client error.
	rec3 := postForm(t, f.handlers[0], "/create?community="+c.ID, url.Values{
		"title": {"X"}, "artist": {"Y"}, "genre": {"polka"},
	})
	if rec3.Code != http.StatusBadRequest {
		t.Errorf("bad enum create status = %d", rec3.Code)
	}
}

func TestDiscoverAndJoinFlow(t *testing.T) {
	f := newFixture(t, 2)
	creator, joiner := f.handlers[0], f.handlers[1]
	if _, err := f.servents[0].CreateCommunity(core.CommunitySpec{
		Name: "patterns", Keywords: "gof design", SchemaSrc: corpus.PatternSchemaSrc,
	}); err != nil {
		t.Fatal(err)
	}
	_ = creator
	// Discover from the second servent.
	rec, body := get(t, joiner, "/discover?keywords=gof")
	if rec.Code != http.StatusOK {
		t.Fatalf("discover = %d", rec.Code)
	}
	if !strings.Contains(body, "patterns") || !strings.Contains(body, "/join?doc=") {
		t.Fatalf("discover page missing community:\n%s", body)
	}
	// Extract the join link.
	i := strings.Index(body, "/join?doc=")
	j := strings.IndexByte(body[i:], '"')
	joinURL := strings.ReplaceAll(body[i:i+j], "&amp;", "&")
	rec2, _ := get(t, joiner, joinURL)
	if rec2.Code != http.StatusSeeOther {
		t.Fatalf("join = %d: %s", rec2.Code, rec2.Body.String())
	}
	commPath := rec2.Header().Get("Location")
	rec3, page := get(t, joiner, commPath)
	if rec3.Code != http.StatusOK || !strings.Contains(page, "patterns") {
		t.Errorf("joined community page = %d", rec3.Code)
	}
}

func TestRetrieveAcrossPeersViaWeb(t *testing.T) {
	f := newFixture(t, 2)
	c, err := f.servents[0].CreateCommunity(core.CommunitySpec{Name: "mp3", SchemaSrc: corpus.SongSchemaSrc})
	if err != nil {
		t.Fatal(err)
	}
	rec := postForm(t, f.handlers[0], "/create?community="+c.ID, url.Values{
		"title": {"Blue"}, "artist": {"A"}, "genre": {"jazz"},
	})
	if rec.Code != http.StatusSeeOther {
		t.Fatal(rec.Body.String())
	}
	// Peer 1 joins then searches and downloads via web handlers.
	_, body := get(t, f.handlers[1], "/discover?name=mp3")
	i := strings.Index(body, "/join?doc=")
	j := strings.IndexByte(body[i:], '"')
	get(t, f.handlers[1], strings.ReplaceAll(body[i:i+j], "&amp;", "&"))

	_, results := get(t, f.handlers[1], "/search?community="+c.ID+"&title=Blue")
	if !strings.Contains(results, "/retrieve?doc=") {
		t.Fatalf("no download link:\n%s", results)
	}
	i = strings.Index(results, "/retrieve?doc=")
	j = strings.IndexByte(results[i:], '"')
	rec2, _ := get(t, f.handlers[1], strings.ReplaceAll(results[i:i+j], "&amp;", "&"))
	if rec2.Code != http.StatusSeeOther {
		t.Fatalf("retrieve = %d: %s", rec2.Code, rec2.Body.String())
	}
	// Now locally viewable.
	rec3, page := get(t, f.handlers[1], rec2.Header().Get("Location"))
	if rec3.Code != http.StatusOK || !strings.Contains(page, "Blue") {
		t.Errorf("view after retrieve = %d", rec3.Code)
	}
}

// TestRemoteIDsAreEscaped: a peer registers documents whose IDs are
// markup with the index server. The search and discover pages that list
// them carry the IDs in their links, escaped: no markup gets through.
func TestRemoteIDsAreEscaped(t *testing.T) {
	f := newFixture(t, 1)
	c, err := f.servents[0].CreateCommunity(core.CommunitySpec{Name: "mp3", SchemaSrc: corpus.SongSchemaSrc})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := f.net.Endpoint("attacker")
	if err != nil {
		t.Fatal(err)
	}
	attacker := p2p.NewCentralizedClient(ep, "server", index.NewStore())
	const hostile = `x"><script>alert(1)</script>`
	for _, d := range []*index.Document{
		{ID: hostile, CommunityID: c.ID, Title: "Blue", Attrs: query.Attrs{"title": {"Blue"}}},
		{ID: hostile + "2", CommunityID: core.RootCommunityID, Title: "evil", Attrs: query.Attrs{"name": {"evil"}}},
	} {
		if err := attacker.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	for path, want := range map[string]string{
		"/search?community=" + c.ID + "&title=Blue": "<h2>1 results</h2>",
		"/discover?name=evil":                       "<h2>1 communities found</h2>",
	} {
		rec, body := get(t, f.handlers[0], path)
		if rec.Code != http.StatusOK || !strings.Contains(body, want) {
			t.Fatalf("%s = %d, want %q:\n%s", path, rec.Code, want, body)
		}
		if strings.Contains(body, "<script") {
			t.Errorf("%s lets a remote ID's markup through:\n%s", path, body)
		}
	}
}

func TestAttachmentEndpoint(t *testing.T) {
	f := newFixture(t, 1)
	c, err := f.servents[0].CreateCommunity(core.CommunitySpec{Name: "m", SchemaSrc: corpus.SongSchemaSrc})
	if err != nil {
		t.Fatal(err)
	}
	// Community attachments (schema etc.) are retrievable.
	uri := core.AttachmentURI(c.ID, "schema.xsd")
	rec, body := get(t, f.handlers[0], "/attachment?uri="+url.QueryEscape(uri))
	if rec.Code != http.StatusOK || !strings.Contains(body, "schema") {
		t.Errorf("attachment = %d", rec.Code)
	}
	rec, _ = get(t, f.handlers[0], "/attachment?uri=missing")
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing attachment = %d", rec.Code)
	}
}

// TestPagesForbidScript: a page can show a stranger's markup, so every
// page, an error page included, says it is HTML and forbids script,
// plugins and a changed base URL, and an attachment is served as bytes
// the browser must not sniff into something it runs.
func TestPagesForbidScript(t *testing.T) {
	f := newFixture(t, 1)
	c, err := f.servents[0].CreateCommunity(core.CommunitySpec{Name: "mp3", SchemaSrc: corpus.SongSchemaSrc})
	if err != nil {
		t.Fatal(err)
	}
	rec := postForm(t, f.handlers[0], "/create?community="+c.ID, url.Values{
		"title": {"Blue"}, "artist": {"A"}, "genre": {"jazz"},
	})
	if rec.Code != http.StatusSeeOther {
		t.Fatal(rec.Body.String())
	}
	const policy = "script-src 'none'; object-src 'none'; base-uri 'none'"
	html := map[string]string{"Content-Type": "text/html; charset=utf-8", "Content-Security-Policy": policy}
	cases := []struct {
		path   string
		status int
		want   map[string]string
	}{
		{"/community/" + c.ID, http.StatusOK, html},
		{rec.Header().Get("Location"), http.StatusOK, html},
		{"/search?community=" + c.ID + "&title=Blue", http.StatusOK, html},
		{"/discover?name=mp3", http.StatusOK, html},
		{"/community/nope", http.StatusNotFound, html},
		{"/search?community=" + c.ID + "&filter=" + url.QueryEscape("(title="), http.StatusBadRequest, html},
		{"/attachment?uri=" + url.QueryEscape(core.AttachmentURI(c.ID, "display.xsl")), http.StatusOK, map[string]string{
			"Content-Type": "application/octet-stream", "X-Content-Type-Options": "nosniff", "Content-Security-Policy": policy,
		}},
	}
	for _, tc := range cases {
		rec, _ := get(t, f.handlers[0], tc.path)
		if rec.Code != tc.status {
			t.Errorf("%s = %d, want %d", tc.path, rec.Code, tc.status)
		}
		// The headers as sent: those set after the status line are not.
		sent := rec.Result().Header
		for name, want := range tc.want {
			if got := sent.Get(name); got != want {
				t.Errorf("%s: %s = %q, want %q", tc.path, name, got, want)
			}
		}
	}
}

func TestCreateRequiresPost(t *testing.T) {
	f := newFixture(t, 1)
	rec, _ := get(t, f.handlers[0], "/create?community=x")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET create = %d", rec.Code)
	}
}

// TestSearchShowsFirstAttributesInKeyOrder: a result with six attributes
// renders its four smallest keys, in order, the same on every render.
func TestSearchShowsFirstAttributesInKeyOrder(t *testing.T) {
	f := newFixture(t, 1)
	c, err := f.servents[0].CreateCommunity(core.CommunitySpec{Name: "patterns", SchemaSrc: corpus.PatternSchemaSrc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.servents[0].Publish(c.ID, corpus.DesignPatterns(1, 1).Objects[0].Doc, nil); err != nil {
		t.Fatal(err)
	}
	cells := map[string]bool{}
	for i := 0; i < 20; i++ {
		_, body := get(t, f.handlers[0], "/search?community="+c.ID+"&filter="+url.QueryEscape("(name=*)"))
		row := body[strings.Index(body, "<tr><td>"):]
		cells[strings.Split(row, "<td>")[3]] = true
	}
	if len(cells) != 1 {
		t.Fatalf("20 renders show %d different attribute lists: %v", len(cells), cells)
	}
	for cell := range cells {
		var keys []string
		for _, part := range strings.Split(cell, "; ") {
			keys = append(keys, part[:strings.IndexByte(part, '=')])
		}
		if want := []string{"applicability", "classification", "intent", "keywords"}; strings.Join(keys, " ") != strings.Join(want, " ") {
			t.Errorf("attributes shown: %v, want %v", keys, want)
		}
	}
}
