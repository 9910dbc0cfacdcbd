// Package xmldoc provides a mutable XML document tree used throughout
// U-P2P as the common representation for schemas, stylesheets, shared
// objects and wire payloads.
//
// The tree is deliberately simple: elements, text, and comments. It
// preserves document order, attribute order, and parent links so that
// XPath axes (parent, ancestor, following-sibling, ...) can be
// evaluated over it. Namespace handling is prefix-based: a node keeps
// the prefix it was written with plus any xmlns declarations among its
// attributes, which matches how the paper's artifacts (Fig. 3 schema,
// XSLT stylesheets) use namespaces.
package xmldoc

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind discriminates node types in the document tree.
type Kind int

// Node kinds. Element nodes carry a name, attributes and children;
// Text and Comment nodes carry only character data.
const (
	KindElement Kind = iota + 1
	KindText
	KindComment
	// KindAttribute nodes never appear among Children; they are
	// synthesized transiently by XPath attribute-axis selection. Name is
	// the attribute name, Data its value, Parent the owning element.
	KindAttribute
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindText:
		return "text"
	case KindComment:
		return "comment"
	case KindAttribute:
		return "attribute"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Attr is a single attribute. Name may include a prefix ("xsl:version")
// exactly as written in the source document.
type Attr struct {
	Name  string
	Value string
}

// Node is one node in the document tree. The zero value is not useful;
// use NewElement, NewText or Parse to obtain nodes.
type Node struct {
	Kind     Kind
	Name     string // prefixed name for elements ("xsd:element"); empty for text/comment
	Data     string // character data for text/comment nodes
	Attrs    []Attr
	Children []*Node
	Parent   *Node
}

// Common parsing errors.
var (
	ErrNoRoot       = errors.New("xmldoc: document has no root element")
	ErrMultipleRoot = errors.New("xmldoc: document has multiple root elements")
)

// NewElement returns a fresh element node with the given (possibly
// prefixed) name.
func NewElement(name string) *Node {
	return &Node{Kind: KindElement, Name: name}
}

// NewText returns a fresh text node.
func NewText(data string) *Node {
	return &Node{Kind: KindText, Data: data}
}

// NewComment returns a fresh comment node.
func NewComment(data string) *Node {
	return &Node{Kind: KindComment, Data: data}
}

// Parse reads a complete XML document from r and returns its root
// element. Character data consisting solely of whitespace between
// elements is dropped; all other text is preserved verbatim.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	// text gathers the character data of one run (split by entity and
	// CDATA boundaries) until the next markup attaches it as one node:
	// appending run by run to a node's string would be quadratic.
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			stack[len(stack)-1].AppendChild(NewText(text.String()))
			text.Reset()
		}
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) > 0 {
				flush()
			}
			name, err := qualName(t.Name)
			if err != nil {
				return nil, err
			}
			n := NewElement(name)
			n.Attrs = make([]Attr, 0, len(t.Attr))
			for _, a := range t.Attr {
				if name, err = qualName(a.Name); err != nil {
					return nil, err
				}
				n.Attrs = append(n.Attrs, Attr{Name: name, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, ErrMultipleRoot
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmldoc: unbalanced end element")
			}
			flush()
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue // whitespace outside root
			}
			if len(bytes.TrimSpace(t)) == 0 && !preservesSpace(stack[len(stack)-1]) {
				continue
			}
			text.Write(t)
		case xml.Comment:
			if len(stack) > 0 {
				flush()
				stack[len(stack)-1].AppendChild(NewComment(string(t)))
			}
		case xml.ProcInst, xml.Directive:
			// Prologue material is not represented in the tree.
		}
	}
	if root == nil {
		return nil, ErrNoRoot
	}
	if len(stack) != 0 {
		return nil, errors.New("xmldoc: unclosed element")
	}
	return root, nil
}

// ParseString is Parse over an in-memory document.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
}

// preservesSpace reports whether whitespace-only character data inside
// the element is significant: xsl:text content always is, as is any
// element carrying xml:space="preserve".
func preservesSpace(n *Node) bool {
	if n.Name == "xsl:text" {
		return true
	}
	return n.AttrDefault("xml:space", "") == "preserve"
}

func qualName(n xml.Name) (string, error) {
	// encoding/xml resolves namespaces into Space as a URI; we keep the
	// local name and re-prefix well-known namespaces so prefix-based
	// matching (how the paper's documents address nodes) works.
	switch {
	case n.Space == "":
		return n.Local, nil
	case n.Space == "xmlns": // a prefix declaration keeps its prefix
		return "xmlns:" + n.Local, nil
	}
	if p, ok := wellKnownNS[n.Space]; ok {
		return p + ":" + n.Local, nil
	}
	for _, p := range wellKnownNS {
		if n.Space == p { // a well-known prefix used undeclared
			return p + ":" + n.Local, nil
		}
	}
	// Unknown namespace: keep local name only. The document's xmlns
	// attributes remain available on the element for callers that care.
	// Namespaces in XML requires the local part to be a name on its own
	// ("p:0" is not namespace-well-formed).
	if r, _ := utf8.DecodeRuneInString(n.Local); r != '_' && (!unicode.IsLetter(r) || unicode.Is(unicode.Lm, r)) {
		return "", fmt.Errorf("xmldoc: parse: local part of %s:%s is not a name", n.Space, n.Local)
	}
	return n.Local, nil
}

// wellKnownNS maps namespace URIs to canonical prefixes. U-P2P's
// artifacts use exactly these namespaces.
var wellKnownNS = map[string]string{
	"http://www.w3.org/2001/XMLSchema":          "xsd",
	"http://www.w3.org/1999/XSL/Transform":      "xsl",
	"http://www.w3.org/1999/xhtml":              "html",
	"http://up2p.carleton.ca/ns/community":      "up2p",
	"http://www.w3.org/XML/1998/namespace":      "xml",
	"http://www.w3.org/2000/xmlns/":             "xmlns",
	"http://www.xml-cml.org/schema":             "cml",
	"http://up2p.carleton.ca/ns/designpatterns": "dp",
}

// LocalName returns the name without any prefix.
func (n *Node) LocalName() string {
	if i := strings.IndexByte(n.Name, ':'); i >= 0 {
		return n.Name[i+1:]
	}
	return n.Name
}

// HasName reports whether n's name passes a name test: an unprefixed
// test matches the local name under any prefix ("element" matches
// "xsd:element"), a prefixed test only the exact name. This is how
// XPath steps and XSLT patterns address nodes.
func (n *Node) HasName(test string) bool {
	if n.Name == test {
		return true
	}
	if strings.IndexByte(test, ':') >= 0 {
		return false
	}
	return n.LocalName() == test
}

// Prefix returns the namespace prefix, or "" if unprefixed.
func (n *Node) Prefix() string {
	if i := strings.IndexByte(n.Name, ':'); i >= 0 {
		return n.Name[:i]
	}
	return ""
}

// AppendChild attaches c as the last child of n and sets its parent.
func (n *Node) AppendChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// RemoveChild detaches c from n. It reports whether c was a child.
func (n *Node) RemoveChild(c *Node) bool {
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			c.Parent = nil
			return true
		}
	}
	return false
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrDefault returns the named attribute or def when absent.
func (n *Node) AttrDefault(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// SetAttr sets (or replaces) an attribute value.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// RemoveAttr deletes the named attribute, reporting whether it existed.
func (n *Node) RemoveAttr(name string) bool {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return true
		}
	}
	return false
}

// Elements returns n's element children, in document order.
func (n *Node) Elements() []*Node {
	out := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Kind == KindElement {
			out = append(out, c)
		}
	}
	return out
}

// Child returns the first child element whose local name matches, or
// nil. Matching is on local name so "xsd:element" matches "element".
func (n *Node) Child(local string) *Node {
	for _, c := range n.Children {
		if c.Kind == KindElement && c.LocalName() == local {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all child elements whose local name matches.
func (n *Node) ChildrenNamed(local string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == KindElement && c.LocalName() == local {
			out = append(out, c)
		}
	}
	return out
}

// Text returns the concatenation of all descendant text nodes, in
// document order (the XPath string-value of an element).
func (n *Node) Text() string {
	if n.Kind != KindElement {
		return n.Data
	}
	switch {
	case len(n.Children) == 0:
		return ""
	case len(n.Children) == 1 && n.Children[0].Kind == KindText:
		return n.Children[0].Data
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	for _, c := range n.Children {
		switch c.Kind {
		case KindText:
			b.WriteString(c.Data)
		case KindElement:
			c.appendText(b)
		}
	}
}

// ChildText returns the trimmed string-value of the first child element
// with the given local name, or "".
func (n *Node) ChildText(local string) string {
	c := n.Child(local)
	if c == nil {
		return ""
	}
	return strings.TrimSpace(c.Text())
}

// SetChildText ensures a child element named local exists and contains
// exactly the given text.
func (n *Node) SetChildText(local, text string) {
	c := n.Child(local)
	if c == nil {
		c = NewElement(local)
		n.AppendChild(c)
	}
	c.Children = nil
	c.AppendChild(NewText(text))
}

// Clone returns a deep copy of the subtree rooted at n. The clone's
// parent is nil.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Data: n.Data}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	for _, ch := range n.Children {
		c.AppendChild(ch.Clone())
	}
	return c
}

// Walk visits n and every descendant in document order. Returning
// false from fn prunes the subtree below the visited node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Root returns the topmost ancestor of n (n itself if detached).
func (n *Node) Root() *Node {
	cur := n
	for cur.Parent != nil {
		cur = cur.Parent
	}
	return cur
}

// Index returns n's position among its parent's children, or -1 when
// detached.
func (n *Node) Index() int {
	if n.Parent == nil {
		return -1
	}
	for i, c := range n.Parent.Children {
		if c == n {
			return i
		}
	}
	return -1
}

// Equal reports deep structural equality of two subtrees, ignoring
// attribute order and comments.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Name != b.Name {
		return false
	}
	if a.Kind != KindElement {
		return a.Data == b.Data
	}
	if !attrsEqual(a.Attrs, b.Attrs) {
		return false
	}
	ac, bc := withoutComments(a.Children), withoutComments(b.Children)
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if !Equal(ac[i], bc[i]) {
			return false
		}
	}
	return true
}

func withoutComments(in []*Node) []*Node {
	out := make([]*Node, 0, len(in))
	for _, c := range in {
		if c.Kind != KindComment {
			out = append(out, c)
		}
	}
	return out
}

func attrsEqual(a, b []Attr) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]Attr(nil), a...)
	bs := append([]Attr(nil), b...)
	sortAttrs(as)
	sortAttrs(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func sortAttrs(s []Attr) {
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
}

// String serializes the subtree as compact XML (no added whitespace).
func (n *Node) String() string {
	var b strings.Builder
	n.AppendXML(&b)
	return b.String()
}

// AppendXML writes the subtree to b as String does, for callers that
// serialize several nodes into one buffer.
func (n *Node) AppendXML(b *strings.Builder) {
	switch n.Kind {
	case KindText:
		escapeText(b, n.Data)
	case KindComment:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case KindElement:
		b.WriteByte('<')
		b.WriteString(n.Name)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			escapeAttr(b, a.Value)
			b.WriteByte('"')
		}
		if len(n.Children) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		for _, c := range n.Children {
			c.AppendXML(b)
		}
		b.WriteString("</")
		b.WriteString(n.Name)
		b.WriteByte('>')
	}
}

// escapeText writes character data: &, <, > and CR escaped.
func escapeText(b *strings.Builder, s string) { escape(b, s, false) }

// escapeAttr writes an attribute value: &, <, ", LF and CR escaped.
func escapeAttr(b *strings.Builder, s string) { escape(b, s, true) }

// escape writes s with the bytes that need it escaped — in attribute
// values or in character data — copying the runs between them whole,
// and each byte that is not valid UTF-8 as U+FFFD, the rune ranging
// over s reads it as. The output is what writing s rune by rune with
// those substitutions gives: DocIDs hash it.
func escape(b *strings.Builder, s string, attr bool) {
	run := 0 // where the bytes not yet written begin
	for i := 0; i < len(s); {
		c, w, esc := s[i], 1, ""
		switch {
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>' && !attr:
			esc = "&gt;"
		case c == '"' && attr:
			esc = "&quot;"
		case c == '\n' && attr:
			esc = "&#10;"
		case c == '\r': // a raw CR would read back as LF
			esc = "&#xD;"
		case c >= utf8.RuneSelf:
			if r, n := utf8.DecodeRuneInString(s[i:]); r == utf8.RuneError && n == 1 {
				esc = "\uFFFD"
			} else {
				w = n
			}
		}
		i += w
		if esc != "" {
			b.WriteString(s[run : i-w])
			b.WriteString(esc)
			run = i
		}
	}
	b.WriteString(s[run:])
}
