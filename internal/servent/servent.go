// Package servent provides the web interface of §IV.B: "U-P2P is a
// web-based application. Any browser can be used to interface to a
// U-P2P servent." It wraps a core.Servent with HTTP handlers for the
// three functions (create, search, view) plus community discovery and
// join — the pages the JSP prototype served. Forms and views are
// rendered per request by applying stylesheets that were compiled when
// the community was joined (core.Community); no handler but
// /newcommunity and /join, which construct a community, compiles
// anything.
package servent

import (
	"fmt"
	"html"
	"net/http"
	"net/url"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// Handler is the web front end over a core servent.
type Handler struct {
	sv  *core.Servent
	mux *http.ServeMux
}

var _ http.Handler = (*Handler)(nil)

// New builds the handler.
func New(sv *core.Servent) *Handler {
	h := &Handler{sv: sv, mux: http.NewServeMux()}
	h.mux.HandleFunc("/", h.home)
	h.mux.HandleFunc("/community/", h.community)
	h.mux.HandleFunc("/create", h.create)
	h.mux.HandleFunc("/search", h.search)
	h.mux.HandleFunc("/view", h.view)
	h.mux.HandleFunc("/retrieve", h.retrieve)
	h.mux.HandleFunc("/discover", h.discover)
	h.mux.HandleFunc("/join", h.join)
	h.mux.HandleFunc("/attachment", h.attachmentHandler)
	h.mux.HandleFunc("/newcommunity", h.newCommunity)
	h.mux.HandleFunc("/xquery", h.xquery)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// pagePolicy is every page's Content-Security-Policy. A page can
// carry a stranger's markup (a community's display stylesheet renders
// into the servent's own origin), so no page runs script or plugins,
// and none can re-base its relative links.
const pagePolicy = "script-src 'none'; object-src 'none'; base-uri 'none'"

func (h *Handler) page(w http.ResponseWriter, title, body string) {
	h.pageStatus(w, http.StatusOK, title, body)
}

// pageStatus writes a page with the given status: the headers first,
// since none can be set once the status line is out.
func (h *Handler) pageStatus(w http.ResponseWriter, status int, title, body string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("Content-Security-Policy", pagePolicy)
	w.WriteHeader(status)
	fmt.Fprintf(w, `<!DOCTYPE html><html><head><title>%s — U-P2P</title></head><body>
<header><h1>U-P2P servent %s</h1><nav><a href="/">communities</a> | <a href="/discover">discover</a></nav></header>
%s</body></html>`, html.EscapeString(title), html.EscapeString(string(h.sv.PeerID())), body)
}

// target builds a local URL: path, then the key/value pairs of kv as
// its query. Any ID or URI placed in a URL goes through here, URL-escaped
// — many arrive from remote peers. A redirect uses the URL as it is; a
// page writes it through href.
func target(path string, kv ...string) string {
	u := url.URL{Path: path}
	q := make(url.Values, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		q.Set(kv[i], kv[i+1])
	}
	u.RawQuery = q.Encode()
	return u.String()
}

// href is target escaped for an HTML attribute.
func href(path string, kv ...string) string {
	return html.EscapeString(target(path, kv...))
}

func (h *Handler) errPage(w http.ResponseWriter, status int, err error) {
	h.pageStatus(w, status, "error", "<p class=\"error\">"+html.EscapeString(err.Error())+"</p>")
}

// home lists joined communities.
func (h *Handler) home(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	var b strings.Builder
	b.WriteString("<h2>Joined communities</h2><ul>")
	for _, id := range h.sv.Joined() {
		c, _ := h.sv.Community(id)
		fmt.Fprintf(&b, `<li><a href="%s">%s</a> — %s (%d local objects)</li>`,
			href("/community/"+id), html.EscapeString(c.Name),
			html.EscapeString(c.Description), h.sv.Store().CommunityLen(id))
	}
	b.WriteString("</ul>")
	h.page(w, "communities", b.String())
}

// community shows one community's generated create and search forms.
func (h *Handler) community(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/community/")
	c, ok := h.sv.Community(id)
	if !ok {
		h.errPage(w, http.StatusNotFound, fmt.Errorf("community %s not joined", id))
		return
	}
	createForm, err := c.CreateFormHTML()
	if err != nil {
		h.errPage(w, http.StatusInternalServerError, err)
		return
	}
	searchForm, err := c.SearchFormHTML()
	if err != nil {
		h.errPage(w, http.StatusInternalServerError, err)
		return
	}
	// Point the generated forms at the right endpoints.
	createForm = strings.Replace(createForm, `action="create"`, `action="`+href("/create", "community", id)+`"`, 1)
	searchForm = strings.Replace(searchForm, `action="search"`, `action="/search"`, 1)
	searchForm = strings.Replace(searchForm, "<form ", `<form data-community="`+html.EscapeString(id)+`" `, 1)
	var local strings.Builder
	local.WriteString("<h2>Local objects</h2><ul>")
	for _, d := range h.sv.SearchLocal(id, query.MatchAll{}, 50) {
		fmt.Fprintf(&local, `<li><a href="%s">%s</a></li>`, href("/view", "doc", string(d.ID)), html.EscapeString(d.Title))
	}
	local.WriteString("</ul>")
	hidden := fmt.Sprintf(`<input type="hidden" name="community" value="%s"/>`, html.EscapeString(id))
	searchForm = strings.Replace(searchForm, "<input type=\"submit\"", hidden+"<input type=\"submit\"", 1)
	h.page(w, c.Name, fmt.Sprintf("<h2>%s</h2><p>%s</p><h2>Create</h2>%s<h2>Search</h2>%s%s",
		html.EscapeString(c.Name), html.EscapeString(c.Description), createForm, searchForm, local.String()))
}

// create handles create-form submissions (§IV.C.1).
func (h *Handler) create(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		h.errPage(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if err := r.ParseForm(); err != nil {
		h.errPage(w, http.StatusBadRequest, err)
		return
	}
	communityID := r.URL.Query().Get("community")
	if communityID == "" {
		communityID = r.PostForm.Get("community")
	}
	values := map[string][]string(r.PostForm)
	delete(values, "community")
	docID, err := h.sv.CreateFromForm(communityID, values)
	if err != nil {
		h.errPage(w, http.StatusBadRequest, err)
		return
	}
	http.Redirect(w, r, target("/view", "doc", string(docID)), http.StatusSeeOther)
}

// search handles search-form submissions (§IV.C.2).
func (h *Handler) search(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		h.errPage(w, http.StatusBadRequest, err)
		return
	}
	communityID := r.Form.Get("community")
	values := map[string][]string{}
	for k, vs := range r.Form {
		if k == "community" || k == "filter" {
			continue
		}
		values[k] = vs
	}
	var rs []p2p.Result
	var err error
	if raw := r.Form.Get("filter"); raw != "" {
		// Power users can submit the filter language directly.
		f, ferr := query.Parse(raw)
		if ferr != nil {
			h.errPage(w, http.StatusBadRequest, ferr)
			return
		}
		rs, err = h.sv.Search(communityID, f, p2p.SearchOptions{})
	} else {
		rs, err = h.sv.SearchForm(communityID, values, p2p.SearchOptions{})
	}
	if err != nil {
		h.errPage(w, http.StatusBadRequest, err)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<h2>%d results</h2><table><tr><th>title</th><th>provider</th><th>attributes</th><th></th></tr>", len(rs))
	for _, res := range rs {
		fmt.Fprintf(&b, `<tr><td>%s</td><td>%s</td><td>%s</td><td><a href="%s">download</a></td></tr>`,
			html.EscapeString(res.Title), html.EscapeString(string(res.Provider)),
			html.EscapeString(summarizeAttrs(res.Attrs)),
			href("/retrieve", "doc", string(res.DocID), "from", string(res.Provider)))
	}
	b.WriteString("</table>")
	h.page(w, "search results", b.String())
}

// summarizeAttrs lists a result's first four attributes in key order,
// so every render of one result reads the same.
func summarizeAttrs(attrs query.Fields) string {
	parts := make([]string, 0, 4)
	for k, vs := range attrs.All() {
		if len(parts) == 4 {
			break
		}
		parts = append(parts, k+"="+strings.Join(slices.Collect(vs), ","))
	}
	return strings.Join(parts, "; ")
}

// view renders a stored object with its community stylesheet (§IV.C.3).
func (h *Handler) view(w http.ResponseWriter, r *http.Request) {
	docID := index.DocID(r.URL.Query().Get("doc"))
	out, err := h.sv.View(docID)
	if err != nil {
		h.errPage(w, http.StatusNotFound, err)
		return
	}
	doc, _ := h.sv.Store().Get(docID)
	var att strings.Builder
	if doc != nil && len(doc.Attachments) > 0 {
		att.WriteString("<h3>Attachments</h3><ul>")
		for _, uri := range doc.Attachments {
			fmt.Fprintf(&att, `<li><a href="%s">%s</a></li>`, href("/attachment", "uri", uri), html.EscapeString(uri))
		}
		att.WriteString("</ul>")
	}
	h.page(w, "view", out+att.String())
}

// retrieve downloads an object from a provider then shows it.
func (h *Handler) retrieve(w http.ResponseWriter, r *http.Request) {
	docID := index.DocID(r.URL.Query().Get("doc"))
	from := transport.PeerID(r.URL.Query().Get("from"))
	if _, err := h.sv.Retrieve(docID, from); err != nil {
		h.errPage(w, http.StatusBadGateway, err)
		return
	}
	http.Redirect(w, r, target("/view", "doc", string(docID)), http.StatusSeeOther)
}

// discover searches the root community for communities.
func (h *Handler) discover(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		h.errPage(w, http.StatusBadRequest, err)
		return
	}
	values := map[string][]string{}
	for k, vs := range r.Form {
		values[k] = vs
	}
	f := query.Filter(query.MatchAll{})
	if len(values) > 0 {
		f = buildDiscoveryFilter(values)
	}
	rs, err := h.sv.DiscoverCommunities(f, p2p.SearchOptions{})
	if err != nil {
		h.errPage(w, http.StatusBadGateway, err)
		return
	}
	root, _ := h.sv.Community(core.RootCommunityID)
	searchForm, err := root.SearchFormHTML()
	if err != nil {
		h.errPage(w, http.StatusInternalServerError, err)
		return
	}
	searchForm = strings.Replace(searchForm, `action="search"`, `action="/discover"`, 1)
	var b strings.Builder
	b.WriteString("<h2>Discover communities</h2>")
	b.WriteString(searchForm)
	fmt.Fprintf(&b, "<h2>%d communities found</h2><table><tr><th>name</th><th>keywords</th><th>provider</th><th></th></tr>", len(rs))
	for _, res := range rs {
		fmt.Fprintf(&b, `<tr><td>%s</td><td>%s</td><td>%s</td><td><a href="%s">join</a></td></tr>`,
			html.EscapeString(res.Attrs.Get("name")), html.EscapeString(res.Attrs.Get("keywords")),
			html.EscapeString(string(res.Provider)),
			href("/join", "doc", string(res.DocID), "from", string(res.Provider)))
	}
	b.WriteString("</table>")
	h.page(w, "discover", b.String())
}

func buildDiscoveryFilter(values map[string][]string) query.Filter {
	clean := map[string][]string{}
	for k, vs := range values {
		for _, v := range vs {
			if strings.TrimSpace(v) != "" {
				clean[k] = append(clean[k], v)
			}
		}
	}
	if len(clean) == 0 {
		return query.MatchAll{}
	}
	var subs []query.Filter
	for k, vs := range clean {
		for _, v := range vs {
			subs = append(subs, &query.Assertion{Attr: k, Op: query.OpContains, Value: v})
		}
	}
	if len(subs) == 1 {
		return subs[0]
	}
	return &query.And{Subs: subs}
}

// join downloads and installs a discovered community.
func (h *Handler) join(w http.ResponseWriter, r *http.Request) {
	docID := index.DocID(r.URL.Query().Get("doc"))
	from := transport.PeerID(r.URL.Query().Get("from"))
	c, err := h.sv.JoinFromNetwork(p2p.Result{
		DocID:       docID,
		Provider:    from,
		CommunityID: core.RootCommunityID,
	})
	if err != nil {
		h.errPage(w, http.StatusBadGateway, err)
		return
	}
	http.Redirect(w, r, target("/community/"+c.ID), http.StatusSeeOther)
}

// attachmentHandler serves locally stored attachment bytes. They may
// be a stranger's, so the browser must take them as the opaque bytes
// they are declared to be, never sniff them into a page.
func (h *Handler) attachmentHandler(w http.ResponseWriter, r *http.Request) {
	uri := r.URL.Query().Get("uri")
	data, ok := h.sv.Attachment(uri)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.Header().Set("Content-Security-Policy", pagePolicy)
	_, _ = w.Write(data)
}
