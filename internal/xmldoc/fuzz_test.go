package xmldoc

import (
	"strings"
	"testing"
)

// FuzzXMLParse: schemas, stylesheets and objects from other peers
// reach Parse. It must return a tree or an error, never panic, and the
// String of a parsed document must parse back to the same String.
func FuzzXMLParse(f *testing.F) {
	for _, src := range []string{
		`<a/>`,
		`<a x="1" y='2'><b>text</b><!--note--><c/></a>`,
		`<?xml version="1.0"?><!DOCTYPE a><a>&lt;&amp;&gt;&quot;</a>`,
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:element name="e"/></xsd:schema>`,
		`<a xmlns:u="urn:unknown" u:k="v"><u:b/></a>`,
		`<xsl:text xmlns:xsl="http://www.w3.org/1999/XSL/Transform">  </xsl:text>`,
		`<a xml:space="preserve"> <b/> </a>`,
		`<a><![CDATA[<raw> & ]]>tail</a>`,
		`<a k="line&#10;break">x&#xD;y</a>`,
		`<a>`, `<a></b>`, `<a/><b/>`, `text`, ``,
		strings.Repeat("<a>", 2000) + "x" + strings.Repeat("</a>", 2000),
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := ParseString(src)
		if err != nil {
			return
		}
		out := n.String()
		back, err := ParseString(out)
		if err != nil {
			t.Fatalf("String %q of %q does not parse: %v", out, src, err)
		}
		if again := back.String(); again != out {
			t.Fatalf("String is not stable:\n%q\n%q", out, again)
		}
	})
}
