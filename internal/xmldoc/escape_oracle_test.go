package xmldoc

import (
	"strings"
	"testing"
)

// The escapers as they were before they copied runs: one rune at a
// time, U+FFFD for each invalid byte (what ranging over a string reads
// it as). They are kept as the oracle the run-copying escapers must
// match byte for byte — DocIDs hash serialized objects — and must not
// be edited to make a divergence go away.

func oracleEscapeText(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '\r':
			b.WriteString("&#xD;")
		default:
			b.WriteRune(r)
		}
	}
}

func oracleEscapeAttr(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '"':
			b.WriteString("&quot;")
		case '\n':
			b.WriteString("&#10;")
		case '\r':
			b.WriteString("&#xD;")
		default:
			b.WriteRune(r)
		}
	}
}

// escapeCases cover every escaped byte, runs before, between and after
// them, multi-byte runes, U+FFFD written out, and invalid UTF-8: a lone
// continuation byte, a truncated sequence, an overlong form and a
// surrogate.
var escapeCases = []string{
	"", "plain", "a&b<c>d\"e'f", "&&<<>>", "line\nbreak\r\nend\r", "tab\there",
	"café — naïve 日本語 🎉", "� already", "x\x80y", "\xe6\x97", "ok\xc0\xafok",
	"\xed\xa0\x80", "\xff\xfe<\xfd>", "<a href=\"x\">&amp;</a>", strings.Repeat("run&", 50),
}

// checkEscapes requires both escapers to write what their oracles write
// for s.
func checkEscapes(t *testing.T, s string) {
	t.Helper()
	for _, pair := range []struct {
		name       string
		live, want func(*strings.Builder, string)
	}{{"text", escapeText, oracleEscapeText}, {"attr", escapeAttr, oracleEscapeAttr}} {
		var got, want strings.Builder
		pair.live(&got, s)
		pair.want(&want, s)
		if got.String() != want.String() {
			t.Errorf("escape%s(%q) = %q, the old escaper writes %q", pair.name, s, got.String(), want.String())
		}
	}
}

// TestEscapeMatchesOracle: the run-copying escapers write exactly what
// the rune-at-a-time ones did.
func TestEscapeMatchesOracle(t *testing.T) {
	for _, s := range escapeCases {
		checkEscapes(t, s)
	}
}

// FuzzEscape: for any string, the escapers agree with the old ones byte
// for byte.
func FuzzEscape(f *testing.F) {
	for _, s := range escapeCases {
		f.Add(s)
	}
	f.Fuzz(checkEscapes)
}
