package servent

import (
	"fmt"
	"html"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/schemagen"
)

// newCommunity implements the §VI schema-generation tool as a web
// page: the user types a plain field list, never XML; the servent
// generates the schema, creates the community and publishes it.
func (h *Handler) newCommunity(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		h.page(w, "new community", newCommunityForm(""))
		return
	}
	if err := r.ParseForm(); err != nil {
		h.errPage(w, http.StatusBadRequest, err)
		return
	}
	schemaSrc, err := schemagen.GenerateFromText(r.PostForm.Get("fields"))
	if err != nil {
		h.page(w, "new community", newCommunityForm(err.Error()))
		return
	}
	c, err := h.sv.CreateCommunity(core.CommunitySpec{
		Name:        r.PostForm.Get("name"),
		Description: r.PostForm.Get("description"),
		Keywords:    r.PostForm.Get("keywords"),
		Category:    r.PostForm.Get("category"),
		SchemaSrc:   schemaSrc,
	})
	if err != nil {
		h.page(w, "new community", newCommunityForm(err.Error()))
		return
	}
	http.Redirect(w, r, target("/community/"+c.ID), http.StatusSeeOther)
}

func newCommunityForm(errMsg string) string {
	var b strings.Builder
	b.WriteString("<h2>Create a community (no XML required)</h2>")
	if errMsg != "" {
		fmt.Fprintf(&b, `<p class="error">%s</p>`, html.EscapeString(errMsg))
	}
	b.WriteString(`<form method="post" action="/newcommunity">
<div><label>name</label> <input name="name"/></div>
<div><label>description</label> <input name="description" size="60"/></div>
<div><label>keywords</label> <input name="keywords" size="40"/></div>
<div><label>category</label> <input name="category"/></div>
<div><label>fields</label><br/>
<textarea name="fields" rows="12" cols="70">song
title   string  searchable
artist  string  searchable
genre   enum(jazz,rock,classical)  searchable
year    integer optional searchable
</textarea></div>
<p>first line: object name; then one field per line:
<code>name type [searchable] [optional] [repeated] [attachment]</code>;
types: string, integer, decimal, boolean, date, anyURI, enum(a,b,c)</p>
<input type="submit" value="Generate schema and create community"/>
</form>`)
	return b.String()
}

// xquery exposes the §VI richer-query direction: a full XPath boolean
// expression over locally stored objects of one community.
func (h *Handler) xquery(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		h.errPage(w, http.StatusBadRequest, err)
		return
	}
	communityID := r.Form.Get("community")
	expr := r.Form.Get("q")
	var b strings.Builder
	b.WriteString(`<h2>XPath query over local objects</h2>
<form method="get" action="/xquery">
<input type="hidden" name="community" value="` + html.EscapeString(communityID) + `"/>
<input name="q" size="70" value="` + html.EscapeString(expr) + `"/>
<input type="submit" value="Run"/></form>
<p>example: <code>//pattern[classification='behavioral' and count(participants) > 2]</code></p>`)
	if expr != "" {
		docs, err := h.sv.SearchLocalXPath(communityID, expr, 100)
		if err != nil {
			h.errPage(w, http.StatusBadRequest, err)
			return
		}
		fmt.Fprintf(&b, "<h3>%d match(es)</h3><ul>", len(docs))
		for _, d := range docs {
			fmt.Fprintf(&b, `<li><a href="%s">%s</a></li>`, href("/view", "doc", string(d.ID)), html.EscapeString(d.Title))
		}
		b.WriteString("</ul>")
	}
	h.page(w, "xquery", b.String())
}
