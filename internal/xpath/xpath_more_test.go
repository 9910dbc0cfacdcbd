package xpath

import (
	"testing"

	"repro/internal/xmldoc"
)

func TestDocumentOrderOfDoubleSlash(t *testing.T) {
	d := mustParseXML(`<r><a><v>1</v></a><v>2</v><b><v>3</v></b></r>`)
	got := mustCompile("//v").Eval(d).Nodes
	if len(got) != 3 {
		t.Fatalf("count = %d", len(got))
	}
	for i, want := range []string{"1", "2", "3"} {
		if got[i].Text() != want {
			t.Errorf("order[%d] = %q, want %q", i, got[i].Text(), want)
		}
	}
}

func TestUnionPreservesFirstOccurrence(t *testing.T) {
	d := mustParseXML(`<r><a/><b/></r>`)
	got := mustCompile("a|b|a").Eval(d).Nodes
	if len(got) != 2 {
		t.Errorf("union dedup = %d nodes", len(got))
	}
}

func TestArithmeticOverNodeValues(t *testing.T) {
	d := mustParseXML(`<o><price>10.5</price><qty>3</qty></o>`)
	if got := mustCompile("price * qty").Eval(d).Number(); got != 31.5 {
		t.Errorf("price*qty = %v", got)
	}
	if got := mustCompile("sum(price|qty)").Eval(d).Number(); got != 13.5 {
		t.Errorf("sum = %v", got)
	}
}

func TestPredicateChaining(t *testing.T) {
	d := mustParseXML(`<l><i k="a">1</i><i k="a">2</i><i k="b">3</i></l>`)
	got := mustCompile("i[@k='a'][2]").Eval(d).Nodes
	if len(got) != 1 || got[0].Text() != "2" {
		t.Errorf("chained predicates = %v", got)
	}
	// Order matters: [2][@k='a'] selects the 2nd item then filters.
	got = mustCompile("i[2][@k='a']").Eval(d).Nodes
	if len(got) != 1 || got[0].Text() != "2" {
		t.Errorf("reversed chain = %v", got)
	}
	got = mustCompile("i[3][@k='a']").Eval(d).Nodes
	if len(got) != 0 {
		t.Errorf("i[3][@k='a'] = %v", got)
	}
}

func TestBooleanCoercionsInPredicates(t *testing.T) {
	d := mustParseXML(`<l><i><sub/></i><i/></l>`)
	if got := len(mustCompile("i[sub]").Eval(d).Nodes); got != 1 {
		t.Errorf("existence predicate = %d", got)
	}
	if got := len(mustCompile("i[not(sub)]").Eval(d).Nodes); got != 1 {
		t.Errorf("not-existence predicate = %d", got)
	}
}

func TestCountOverDescendants(t *testing.T) {
	d := mustParseXML(`<r><p><c/><c/></p><p><c/></p></r>`)
	if got := mustCompile("count(//c)").Eval(d).Number(); got != 3 {
		t.Errorf("count(//c) = %v", got)
	}
	if got := len(mustCompile("p[count(c) = 2]").Eval(d).Nodes); got != 1 {
		t.Errorf("count predicate = %d", got)
	}
}

func TestStringValueOfComplexElement(t *testing.T) {
	d := mustParseXML(`<r><name>Abstract <em>Factory</em> pattern</name></r>`)
	if got := mustCompile("string(name)").Eval(d).String(); got != "Abstract Factory pattern" {
		t.Errorf("string-value = %q", got)
	}
	if !mustCompile("contains(name, 'Factory')").EvalBool(d) {
		t.Error("contains over mixed content failed")
	}
}

func TestParentAndAncestorFromDeep(t *testing.T) {
	d := mustParseXML(`<a><b><c><d/></c></b></a>`)
	deep := first(mustCompile("//d").Eval(d).Nodes)
	if got := first(mustCompile("../..").Eval(deep).Nodes); got == nil || got.Name != "b" {
		t.Errorf("../.. = %v", got)
	}
	if got := len(mustCompile("ancestor::*").Eval(deep).Nodes); got != 3 {
		t.Errorf("ancestors = %d", got)
	}
}

func TestNumericStringEdgeCases(t *testing.T) {
	d := xmldoc.NewElement("x")
	cases := []struct {
		src  string
		want string
	}{
		{"string(0.5)", "0.5"},
		{"string(-0.5 - 0.5)", "-1"},
		{"string(2 * 0.5)", "1"},
		{"substring('12345', 0)", "12345"},
		{"substring('12345', 1.5, 2.6)", "234"}, // spec example
		{"normalize-space('')", ""},
	}
	for _, c := range cases {
		if got := mustCompile(c.src).Eval(d).String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestEmptyNodeSetBehaviours(t *testing.T) {
	d := mustParseXML(`<r><a>1</a></r>`)
	if mustCompile("missing < a").EvalBool(d) {
		t.Error("empty < nonempty should be false")
	}
	if got := mustCompile("string(missing)").Eval(d).String(); got != "" {
		t.Errorf("string(empty) = %q", got)
	}
	if got := mustCompile("count(missing)").Eval(d).Number(); got != 0 {
		t.Errorf("count(empty) = %v", got)
	}
	if mustCompile("missing").EvalBool(d) {
		t.Error("boolean(empty nodeset) = true")
	}
}

func TestSelfAxisWithName(t *testing.T) {
	d := mustParseXML(`<r><a/><b/></r>`)
	nodes := mustCompile("*[self::a]").Eval(d).Nodes
	if len(nodes) != 1 || nodes[0].Name != "a" {
		t.Errorf("self:: filter = %v", nodes)
	}
}

func TestFilterExprPredicateOnVariable(t *testing.T) {
	d := mustParseXML(`<l><i>1</i><i>2</i><i>3</i></l>`)
	items := mustCompile("i").Eval(d).Nodes
	env := &Env{Vars: []Binding{{Name: "set", Value: NodeSetValue(items)}}}
	e := mustCompile("$set[2]")
	v := e.EvalEnv(d, env)
	if len(v.Nodes) != 1 || v.Nodes[0].Text() != "2" {
		t.Errorf("$set[2] = %v", v.Nodes)
	}
	e2 := mustCompile("count($set)")
	if got := e2.EvalEnv(d, env).Number(); got != 3 {
		t.Errorf("count($set) = %v", got)
	}
}

// mustParseXML parses a document the test spells out.
func mustParseXML(s string) *xmldoc.Node {
	n, err := xmldoc.ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}
