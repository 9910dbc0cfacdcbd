package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/stylegen"
	"repro/internal/xmldoc"
)

// RunF1 reproduces Fig. 1 (the shared object model) as an executable
// pipeline: the schema instantiates an object through the create
// form, the indexing stylesheet extracts its indexed attributes, and
// the view stylesheet renders it.
func RunF1() (Table, error) {
	t := Table{
		ID:      "F1",
		Title:   "Shared object model pipeline (Fig. 1): schema -> forms -> object -> index -> view",
		Headers: []string{"stage", "artifact", "size (bytes)", "status"},
		Notes: []string{
			"every stage is driven by the community schema, none by hand-written per-community code",
		},
	}
	comm, err := core.NewCommunity(core.CommunitySpec{Name: "patterns", SchemaSrc: corpus.PatternSchemaSrc})
	if err != nil {
		return t, err
	}
	schema := comm.Schema
	add := func(stage, artifact string, size int) {
		t.Rows = append(t.Rows, []string{stage, artifact, fmt.Sprintf("%d", size), "ok"})
	}
	add("parse schema", "xsd.Schema (pattern community)", len(corpus.PatternSchemaSrc))

	createHTML, err := comm.CreateFormHTML()
	if err != nil {
		return t, err
	}
	add("create stylesheet", "HTML create form", len(createHTML))

	searchHTML, err := comm.SearchFormHTML()
	if err != nil {
		return t, err
	}
	add("search stylesheet", "HTML search form", len(searchHTML))

	obj, err := stylegen.BuildObject(schema, map[string][]string{
		"name":           {"Observer"},
		"classification": {"behavioral"},
		"intent":         {"Define a one-to-many dependency between objects"},
		"keywords":       {"notification", "publish-subscribe"},
		"participants":   {"Subject", "Observer"},
	})
	if err != nil {
		return t, err
	}
	add("create form submission", "schema-valid <pattern> object", len(obj.String()))

	if err := schema.Validate(obj); err != nil {
		return t, fmt.Errorf("validate: %w", err)
	}
	add("schema validation", "0 violations", 0)

	attrs, err := comm.Extract(obj)
	if err != nil {
		return t, err
	}
	ix, _ := comm.Indexer()
	add("indexing stylesheet", fmt.Sprintf("%d indexed attributes", len(attrs)), len(ix.Source()))

	viewHTML, err := comm.View(obj)
	if err != nil {
		return t, err
	}
	add("view stylesheet", "HTML object view", len(viewHTML))

	f := stylegen.BuildFilter(map[string][]string{"keywords": {"notification"}})
	if !f.Match(attrs) {
		return t, fmt.Errorf("search filter missed the object's own attributes")
	}
	add("search filter", "query matches indexed attributes", len(f.String()))
	return t, nil
}

// RunF2 reproduces Fig. 2: the schema+stylesheet pair generates the
// three application functions for every bundled community, with no
// community-specific code.
func RunF2() (Table, error) {
	t := Table{
		ID:      "F2",
		Title:   "Schema-to-application generation (Fig. 2) across community schemas",
		Headers: []string{"community", "fields", "searchable", "create form B", "search form B", "enum selects"},
		Notes: []string{
			"the same default stylesheets generate all forms; enum types render as <select>",
		},
	}
	schemas := []struct {
		name string
		src  string
	}{
		{"root (Fig. 3)", ""},
		{"designpatterns", corpus.PatternSchemaSrc},
		{"mp3", corpus.SongSchemaSrc},
		{"cml", corpus.MoleculeSchemaSrc},
		{"species", corpus.SpeciesSchemaSrc},
	}
	for _, sc := range schemas {
		comm := core.RootCommunity()
		if sc.src != "" {
			var err error
			comm, err = core.NewCommunity(core.CommunitySpec{Name: sc.name, SchemaSrc: sc.src})
			if err != nil {
				return t, fmt.Errorf("%s: %w", sc.name, err)
			}
		}
		schema := comm.Schema
		create, err := comm.CreateFormHTML()
		if err != nil {
			return t, fmt.Errorf("%s create: %w", sc.name, err)
		}
		search, err := comm.SearchFormHTML()
		if err != nil {
			return t, fmt.Errorf("%s search: %w", sc.name, err)
		}
		t.Rows = append(t.Rows, []string{
			sc.name,
			fmt.Sprintf("%d", len(schema.Fields())),
			fmt.Sprintf("%d", len(schema.SearchableFields())),
			fmt.Sprintf("%d", len(create)),
			fmt.Sprintf("%d", len(search)),
			fmt.Sprintf("%d", strings.Count(create, "<select")),
		})
	}
	return t, nil
}

// RunF3 reproduces Fig. 3: the community schema itself — parsed,
// enforced, and used to round-trip community objects.
func RunF3() (Table, error) {
	t := Table{
		ID:      "F3",
		Title:   "Community schema (Fig. 3): validation and community-object round trip",
		Headers: []string{"check", "outcome"},
	}
	root := core.RootCommunity()
	pass := func(check, outcome string) {
		t.Rows = append(t.Rows, []string{check, outcome})
	}
	pass("schema parses", fmt.Sprintf("%d fields, protocol enum %v",
		len(root.Schema.Fields()), root.Schema.Types["protocolTypes"].Enum))

	c, err := core.NewCommunity(core.CommunitySpec{
		Name:      "mp3",
		Protocol:  "Gnutella",
		SchemaSrc: corpus.SongSchemaSrc,
	})
	if err != nil {
		return t, err
	}
	obj, attachments := c.Marshal()
	if err := root.Schema.Validate(obj); err != nil {
		return t, fmt.Errorf("marshalled community invalid: %w", err)
	}
	pass("community object validates", "0 violations")

	back, err := core.UnmarshalCommunity(obj, attachments)
	if err != nil {
		return t, err
	}
	if back.ID != c.ID {
		return t, fmt.Errorf("round trip changed ID: %s -> %s", c.ID, back.ID)
	}
	pass("round trip preserves identity", back.ID)

	// Negative cases: the schema actually constrains.
	bad := obj.Clone()
	bad.SetChildText("protocol", "Freenet")
	if err := root.Schema.Validate(bad); err == nil {
		return t, fmt.Errorf("invalid protocol accepted")
	}
	pass("protocol outside enumeration rejected", "violation reported")

	bad2 := obj.Clone()
	bad2.RemoveChild(bad2.Child("schema"))
	if err := root.Schema.Validate(bad2); err == nil {
		return t, fmt.Errorf("missing schema field accepted")
	}
	pass("missing schema element rejected", "violation reported")

	bad3 := obj.Clone()
	bad3.AppendChild(xmldoc.NewElement("undeclared"))
	if err := root.Schema.Validate(bad3); err == nil {
		return t, fmt.Errorf("undeclared element accepted")
	}
	pass("undeclared element rejected", "violation reported")
	return t, nil
}
