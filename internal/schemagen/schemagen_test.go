package schemagen

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/stylegen"
	"repro/internal/xsd"
)

const bookSpec = `
# a book-sharing community
book
title      string   searchable
author     string   searchable repeated
language   enum(en,fr,de)  searchable
pages      integer  optional
published  date     optional searchable
scan       anyURI   optional attachment
`

func TestGenerateFromText(t *testing.T) {
	src, err := GenerateFromText(bookSpec)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	schema, err := xsd.ParseString(src)
	if err != nil {
		t.Fatalf("generated schema invalid: %v\n%s", err, src)
	}
	if schema.Root.Name != "book" {
		t.Errorf("root = %q", schema.Root.Name)
	}
	fields := schema.Fields()
	if len(fields) != 6 {
		t.Fatalf("fields = %d, want 6", len(fields))
	}
	byName := map[string]xsd.Field{}
	for _, f := range fields {
		byName[f.Path] = f
	}
	if !byName["title"].Searchable {
		t.Error("title not searchable")
	}
	if !byName["author"].Repeated {
		t.Error("author not repeated")
	}
	if got := byName["language"].Enum; len(got) != 3 || got[0] != "en" {
		t.Errorf("language enum = %v", got)
	}
	if !byName["pages"].Optional || byName["pages"].Builtin != xsd.BuiltinInteger {
		t.Errorf("pages = %+v", byName["pages"])
	}
	if !byName["scan"].Attachment {
		t.Error("scan not attachment")
	}
	search := schema.SearchableFields()
	if len(search) != 4 {
		t.Errorf("searchable = %d, want 4", len(search))
	}
}

// TestGeneratedSchemaDrivesWholePipeline: the §VI tool's output plugs
// straight into a community — forms, indexing, validation.
func TestGeneratedSchemaDrivesWholePipeline(t *testing.T) {
	src, err := GenerateFromText(bookSpec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCommunity(core.CommunitySpec{Name: "books", SchemaSrc: src})
	if err != nil {
		t.Fatalf("community from generated schema: %v", err)
	}
	form, err := c.CreateFormHTML()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`name="title"`, `<select name="language"`, `<option value="fr">`} {
		if !strings.Contains(form, want) {
			t.Errorf("form missing %q", want)
		}
	}
	obj, err := stylegen.BuildObject(c.Schema, map[string][]string{
		"title":    {"Le Petit Prince"},
		"author":   {"Antoine de Saint-Exupéry"},
		"language": {"fr"},
		"pages":    {"96"},
	})
	if err != nil {
		t.Fatalf("build object: %v", err)
	}
	attrs, err := c.Extract(obj)
	if err != nil {
		t.Fatal(err)
	}
	if attrs.Get("title") != "Le Petit Prince" {
		t.Errorf("indexed attrs = %v", attrs)
	}
	if _, present := attrs["pages"]; present {
		t.Error("unsearchable pages indexed")
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", ""},
		{"root only", "book"},
		{"missing type", "book\ntitle"},
		{"bad flag", "book\ntitle string shiny"},
		{"empty enum", "book\nl enum() searchable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := GenerateFromText(c.src); err == nil {
				t.Errorf("accepted %q", c.src)
			}
		})
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Spec{RootName: "", Fields: []Field{{Name: "a", Type: "string"}}}); !errors.Is(err, ErrNoRoot) {
		t.Errorf("no root err = %v", err)
	}
	if _, err := Generate(Spec{RootName: "x"}); !errors.Is(err, ErrNoFields) {
		t.Errorf("no fields err = %v", err)
	}
	if _, err := Generate(Spec{RootName: "x", Fields: []Field{{Name: "1bad", Type: "string"}}}); err == nil {
		t.Error("bad field name accepted")
	}
	if _, err := Generate(Spec{RootName: "x", Fields: []Field{{Name: "a", Type: "blob"}}}); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type err = %v", err)
	}
	if _, err := Generate(Spec{RootName: "x", Fields: []Field{
		{Name: "a", Type: "string"}, {Name: "a", Type: "string"},
	}}); !errors.Is(err, ErrDupField) {
		t.Errorf("dup field err = %v", err)
	}
	if _, err := Generate(Spec{RootName: "bad name", Fields: []Field{{Name: "a", Type: "string"}}}); err == nil {
		t.Error("root with space accepted")
	}
}

// Property: any spec built from safe names and types generates a
// schema our own xsd package accepts.
func TestPropertyGeneratedSchemasParse(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	types := []string{"string", "integer", "decimal", "boolean", "date", "anyURI"}
	f := func(rootIdx, n, typeSeed, flagSeed uint8) bool {
		spec := Spec{RootName: names[int(rootIdx)%len(names)]}
		count := int(n%4) + 1
		for i := 0; i < count; i++ {
			fl := Field{
				Name:       names[(int(typeSeed)+i)%len(names)] + string(rune('a'+i)),
				Type:       types[(int(typeSeed)+i)%len(types)],
				Searchable: flagSeed&1 != 0,
				Optional:   flagSeed&2 != 0,
				Repeated:   flagSeed&4 != 0,
			}
			spec.Fields = append(spec.Fields, fl)
		}
		src, err := Generate(spec)
		if err != nil {
			return false
		}
		schema, err := xsd.ParseString(src)
		if err != nil {
			return false
		}
		return len(schema.Fields()) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
