package core

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/xmldoc"
	"repro/internal/xslt"
)

// maxRenderBytes is the XSLT budget's output bound: no transform that
// succeeds writes more.
const maxRenderBytes = 16 << 20

// examplePatternView is the design-patterns example's display
// stylesheet, read from its source.
func examplePatternView(tb testing.TB) string {
	src, err := os.ReadFile("../../examples/designpatterns/main.go")
	if err != nil {
		tb.Fatal(err)
	}
	const decl = "const customPatternView = `"
	text := string(src)
	start := strings.Index(text, decl)
	if start < 0 {
		tb.Fatal("the design-patterns example no longer declares customPatternView")
	}
	text = text[start+len(decl):]
	return text[:strings.IndexByte(text, '`')]
}

// joinAttachments files the fuzzed sources under the URIs the community
// object names, as a join finds them in the attachment store; the
// indexing stylesheet sits beside the schema.
func joinAttachments(obj *xmldoc.Node, schema, display, create, search, index string) map[string][]byte {
	attachments := map[string][]byte{}
	for field, src := range map[string]string{"schema": schema, "displaystyle": display, "createstyle": create, "searchstyle": search} {
		if src != "" {
			attachments[obj.ChildText(field)] = []byte(src)
		}
	}
	if prefix, ok := strings.CutSuffix(obj.ChildText("schema"), "/"+attachSchema); ok && index != "" {
		attachments[prefix+"/"+attachIndex] = []byte(index)
	}
	return attachments
}

// FuzzUnmarshalCommunity: a community object and its attachments come
// from a stranger. Joining one must not panic, and what a join then
// runs — the create and search forms of the community's page, a view
// and an extraction — ends within the XSLT budget: a transform that
// succeeds wrote no more than the budget allows, and one that runs over
// fails. Seeded with every shipped corpus as a community, the root
// community, the mp3 community with custom stylesheets for every slot
// and the design-patterns example's display stylesheet; testdata/fuzz
// holds hostile communities: runaway and non-XSLT stylesheets, a
// schema that does not parse, attachments missing or misfiled.
func FuzzUnmarshalCommunity(f *testing.F) {
	specs := []CommunitySpec{
		{Name: "mp3", SchemaSrc: corpus.SongSchemaSrc, DisplayStyleSrc: customDisplay, CreateStyleSrc: customCreate,
			SearchStyleSrc: customSearch, IndexStyleSrc: customIndex},
		{Name: "designpatterns", SchemaSrc: corpus.PatternSchemaSrc, DisplayStyleSrc: examplePatternView(f)},
	}
	for _, name := range corpus.Names() {
		c, err := corpus.ByName(name, 1, 1)
		if err != nil {
			f.Fatal(err)
		}
		specs = append(specs, CommunitySpec{Name: name, SchemaSrc: c.SchemaSrc})
	}
	add := func(c *Community) {
		doc, attachments := c.Marshal()
		src := func(name string) string { return string(attachments[AttachmentURI(c.ID, name)]) }
		f.Add(doc.String(), src(attachSchema), src(attachDisplay), src(attachCreate), src(attachSearch), src(attachIndex))
	}
	add(RootCommunity())
	for _, spec := range specs {
		add(mustCommunity(f, spec))
	}
	f.Fuzz(func(t *testing.T, objSrc, schema, display, create, search, index string) {
		obj, err := xmldoc.ParseString(objSrc)
		if err != nil {
			return
		}
		c, err := UnmarshalCommunity(obj, joinAttachments(obj, schema, display, create, search, index))
		if err != nil {
			return
		}
		renders := map[string]func() (string, error){
			"create form": c.CreateFormHTML,
			"search form": c.SearchFormHTML,
			"view":        func() (string, error) { return c.View(obj) },
		}
		for what, render := range renders {
			out, err := render()
			if err == nil && len(out) > maxRenderBytes {
				t.Fatalf("%s succeeded with %d bytes, over the budget's %d", what, len(out), maxRenderBytes)
			}
			if errors.Is(err, xslt.ErrBudget) && out != "" {
				t.Fatalf("%s ran out of budget and still returned %d bytes", what, len(out))
			}
		}
		_, _ = c.Extract(obj)
	})
}
