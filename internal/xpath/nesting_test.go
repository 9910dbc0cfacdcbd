package xpath_test

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/stylegen"
	"repro/internal/xpath"
	"repro/internal/xsd"
	"repro/internal/xslt"
)

// TestDeepNestingRejected: a million nested parentheses fail to compile
// with a syntax error instead of overflowing the parser's stack, a
// fatal error no recover catches; so do the other ways an expression
// nests, past the bound. Expressions just inside it compile.
func TestDeepNestingRejected(t *testing.T) {
	const n = 10_000
	deep := map[string]string{
		"parentheses": strings.Repeat("(", 1_000_000) + "1" + strings.Repeat(")", 1_000_000),
		"unary minus": strings.Repeat("-", n) + "1",
		"predicates":  strings.Repeat("a[", n) + "1" + strings.Repeat("]", n),
		"arguments":   strings.Repeat("not(", n) + "1" + strings.Repeat(")", n),
	}
	for name, src := range deep {
		if _, err := xpath.Compile(src); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("%s: compiled (err %v)", name, err)
		}
	}
	shallow := map[string]string{
		"parentheses": strings.Repeat("(", 31) + "1" + strings.Repeat(")", 31),
		"unary minus": strings.Repeat("-", 31) + "1",
	}
	for name, src := range shallow {
		if _, err := xpath.Compile(src); err != nil {
			t.Errorf("%s: 31 levels: %v", name, err)
		}
	}
}

// TestShippedStylesheetsCompile: the nesting bound leaves every
// stylesheet the system ships compiling — the default create, search and
// view sheets, and the indexing sheet generated for each corpus schema.
func TestShippedStylesheetsCompile(t *testing.T) {
	create, search, view := stylegen.DefaultSources()
	sheets := map[string]string{"create": create, "search": search, "view": view}
	for _, name := range corpus.Names() {
		c, err := corpus.ByName(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		schema, err := xsd.ParseString(c.SchemaSrc)
		if err != nil {
			t.Fatalf("%s schema: %v", name, err)
		}
		if sheets[name+" indexing"], err = stylegen.GenerateIndexingStylesheet(schema); err != nil {
			t.Fatalf("%s indexing sheet: %v", name, err)
		}
	}
	for name, src := range sheets {
		if _, err := xslt.CompileString(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
