// Package core implements U-P2P itself: communities described by XML
// Schema, the servent that creates/searches/views shared objects, and
// the paper's central idea — the community-as-object bootstrap.
//
// "a specific U-P2P community can be seen as a class instantiated by a
// more general metaclass: a Community-sharing community shares
// Community objects" (§I). The root community is compiled in; its
// schema is the paper's Fig. 3. Discovering a community is searching
// the root community; joining one is downloading its object plus the
// attached schema and stylesheets.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/errs"
	"repro/internal/query"
	"repro/internal/stylegen"
	"repro/internal/xmldoc"
	"repro/internal/xsd"
	"repro/internal/xslt"
)

// RootCommunityID is the well-known ID of the bootstrap community that
// every servent joins by default ("All users are members of the global
// or root community by default", §IV.A).
const RootCommunityID = "up2p-root"

// rootSchemaSrc is the paper's Fig. 3 schema, verbatim (plus the up2p
// namespace declaration used by the searchable markers on no fields —
// the root community indexes every field, matching the prototype).
const rootSchemaSrc = `<?xml version="1.0"?>
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

// Community is a resource-sharing community: the object class it
// shares (the schema), its presentation stylesheets, the descriptive
// attributes of Fig. 3, and the compiled form of all of it. A
// Community is immutable once constructed — treat the exported fields
// as read-only — so one value is safe for concurrent use and may be
// joined by any number of servents (RootCommunity is shared by all of
// them). Only NewCommunity, UnmarshalCommunity and RootCommunity make
// one; a struct literal has no pipeline and AdoptCommunity refuses it.
type Community struct {
	// ID is derived from the community's content hash, so the same
	// community created on two peers coincides.
	ID string
	// Descriptive attributes (Fig. 3).
	Name        string
	Description string
	Keywords    string
	Category    string
	Security    string
	Protocol    string
	// SchemaSrc is the XML Schema text describing shared objects.
	SchemaSrc string
	// Schema is the parsed form of SchemaSrc.
	Schema *xsd.Schema
	// Custom stylesheet sources; empty means use the defaults.
	DisplayStyleSrc string
	CreateStyleSrc  string
	SearchStyleSrc  string
	// IndexStyleSrc optionally overrides the generated indexing
	// transform (§V: the community designer controls indexing).
	IndexStyleSrc string

	// The compiled pipeline: a custom source compiled at construction,
	// or the process-wide built-in where the source is empty.
	indexer                 *stylegen.Indexer
	display, create, search *xslt.Stylesheet
	// The rendered forms, each made on first use and kept with its
	// error: the schema and stylesheets behind them never change.
	createForm, searchForm func() (string, error)
}

// Errors from community handling.
var (
	ErrNoName   = errors.New("core: community needs a name")
	ErrNoSchema = errors.New("core: community needs a schema")
)

// CommunitySpec is the input to CreateCommunity: the meta-data a user
// fills into the root community's create form.
type CommunitySpec struct {
	Name        string
	Description string
	Keywords    string
	Category    string
	Security    string
	Protocol    string // "", "Napster", "Gnutella", "FastTrack"
	SchemaSrc   string
	// Optional custom stylesheets.
	DisplayStyleSrc string
	CreateStyleSrc  string
	SearchStyleSrc  string
	IndexStyleSrc   string
}

// NewCommunity validates a spec and constructs the Community,
// compiling its pipeline. Everything that can be wrong with a
// community's sources is reported here: an unparseable schema, a
// schema with no root element to index, a custom stylesheet that is
// not XSLT. A Community that exists renders and indexes without
// compile errors.
func NewCommunity(spec CommunitySpec) (*Community, error) {
	if strings.TrimSpace(spec.Name) == "" {
		return nil, ErrNoName
	}
	if strings.TrimSpace(spec.SchemaSrc) == "" {
		return nil, ErrNoSchema
	}
	c, err := compile(spec)
	if err != nil {
		return nil, err
	}
	// The ID hashes the identity-bearing parts, so the same community
	// created on two peers coincides.
	sum := sha256.Sum256([]byte(c.Name + "\x00" + c.SchemaSrc))
	c.ID = "c-" + hex.EncodeToString(sum[:8])
	return c, nil
}

// compile parses the spec's schema and compiles its four stylesheets;
// with sheet, the one place a community's sources meet the XSLT
// compiler.
func compile(spec CommunitySpec) (*Community, error) {
	schema, err := xsd.ParseString(spec.SchemaSrc)
	if err != nil {
		return nil, fmt.Errorf("core: community schema: %w", err)
	}
	c := &Community{
		Name:            spec.Name,
		Description:     spec.Description,
		Keywords:        spec.Keywords,
		Category:        spec.Category,
		Security:        spec.Security,
		Protocol:        spec.Protocol,
		SchemaSrc:       spec.SchemaSrc,
		Schema:          schema,
		DisplayStyleSrc: spec.DisplayStyleSrc,
		CreateStyleSrc:  spec.CreateStyleSrc,
		SearchStyleSrc:  spec.SearchStyleSrc,
		IndexStyleSrc:   spec.IndexStyleSrc,
	}
	if c.indexer, err = stylegen.NewIndexer(schema, spec.IndexStyleSrc); err != nil {
		return nil, fmt.Errorf("core: community %q: %w", spec.Name, err)
	}
	if c.display, err = sheet(spec.DisplayStyleSrc, stylegen.DefaultView()); err != nil {
		return nil, err
	}
	if c.create, err = sheet(spec.CreateStyleSrc, stylegen.DefaultCreate()); err != nil {
		return nil, err
	}
	if c.search, err = sheet(spec.SearchStyleSrc, stylegen.DefaultSearch()); err != nil {
		return nil, err
	}
	c.createForm = sync.OnceValues(func() (string, error) { return c.create.Apply(schema.Doc()) })
	c.searchForm = sync.OnceValues(func() (string, error) { return c.search.Apply(schema.Doc()) })
	return c, nil
}

// sheet compiles a community's custom stylesheet, or returns the
// shared built-in when the community has none.
func sheet(custom string, builtin *xslt.Stylesheet) (*xslt.Stylesheet, error) {
	if custom == "" {
		return builtin, nil
	}
	s, err := xslt.CompileString(custom)
	if err != nil {
		return nil, fmt.Errorf("core: community stylesheet: %w", err)
	}
	return s, nil
}

// rootCommunity is the compiled-in bootstrap community. Its sources
// are constants, so failing to compile them is a bug.
var rootCommunity = sync.OnceValue(func() *Community {
	c, err := compile(CommunitySpec{
		Name:        "Community-sharing community",
		Description: "The root community: shares Community objects so that communities themselves can be discovered (U-P2P bootstrap).",
		Keywords:    "community discovery bootstrap root metaclass",
		Category:    "meta",
		Security:    "open",
		SchemaSrc:   rootSchemaSrc,
	})
	if err != nil {
		panic(err)
	}
	c.ID = RootCommunityID
	return c
})

// RootCommunity returns the bootstrap community: one instance, shared
// by every servent in the process.
func RootCommunity() *Community { return rootCommunity() }

// Attachment URI layout: communities carry their schema and
// stylesheets as attachments, downloaded when the community object is
// retrieved (§IV.C.1's attachment mechanism applied to the bootstrap).
const (
	attachSchema  = "schema.xsd"
	attachDisplay = "display.xsl"
	attachCreate  = "create.xsl"
	attachSearch  = "search.xsl"
	attachIndex   = "index.xsl"
)

// AttachmentURI names one attachment of a document.
func AttachmentURI(docID, name string) string {
	return "up2p://" + docID + "/" + name
}

// Marshal renders the community as a shared XML object valid under the
// root community schema, plus its attachment contents keyed by URI.
func (c *Community) Marshal() (*xmldoc.Node, map[string][]byte) {
	docID := c.ID
	uri := func(name string) string { return AttachmentURI(docID, name) }

	doc := xmldoc.NewElement("community")
	doc.SetChildText("name", c.Name)
	doc.SetChildText("description", c.Description)
	doc.SetChildText("keywords", c.Keywords)
	doc.SetChildText("category", c.Category)
	doc.SetChildText("security", c.Security)
	doc.SetChildText("protocol", c.Protocol)
	doc.SetChildText("schema", uri(attachSchema))

	attachments := map[string][]byte{
		uri(attachSchema): []byte(c.SchemaSrc),
	}
	defCreate, defSearch, defView := stylegen.DefaultSources()
	display, create, search := c.DisplayStyleSrc, c.CreateStyleSrc, c.SearchStyleSrc
	if display == "" {
		display = defView
	}
	if create == "" {
		create = defCreate
	}
	if search == "" {
		search = defSearch
	}
	doc.SetChildText("displaystyle", uri(attachDisplay))
	doc.SetChildText("createstyle", uri(attachCreate))
	doc.SetChildText("searchstyle", uri(attachSearch))
	attachments[uri(attachDisplay)] = []byte(display)
	attachments[uri(attachCreate)] = []byte(create)
	attachments[uri(attachSearch)] = []byte(search)
	if c.IndexStyleSrc != "" {
		attachments[uri(attachIndex)] = []byte(c.IndexStyleSrc)
	}
	return doc, attachments
}

// maxSourceBytes caps each schema and stylesheet source a community
// object brings. Compiling a source costs time and memory that grow
// with it, and the sources this repository ships are a few KB.
const maxSourceBytes = 1 << 20

// errSourceTooLarge refuses a community object with a source over
// maxSourceBytes, before any of its sources is compiled.
var errSourceTooLarge = errs.New("core.source_too_large", "core: schema or stylesheet source over 1 MiB")

// UnmarshalCommunity reconstructs a Community from its shared object
// and downloaded attachments: the object's schema, displaystyle,
// createstyle and searchstyle fields name their attachments, and a
// stylesheet that is absent or is the built-in text falls back to the
// built-in. The object comes from a stranger: before anything is
// compiled, a source over maxSourceBytes refuses it with an error coded
// core.source_too_large; then it is refused with NewCommunity's errors
// unless every source in it compiles.
func UnmarshalCommunity(doc *xmldoc.Node, attachments map[string][]byte) (*Community, error) {
	if doc == nil || doc.LocalName() != "community" {
		return nil, errors.New("core: not a community object")
	}
	get := func(field string) []byte { return attachments[doc.ChildText(field)] }
	schemaURI := doc.ChildText("schema")
	schemaSrc := attachments[schemaURI]
	if len(schemaSrc) == 0 {
		return nil, fmt.Errorf("core: community %q: schema attachment missing", doc.ChildText("name"))
	}
	// An optional custom indexing stylesheet travels as index.xsl beside
	// the object's own schema.xsd — that URI and no other, so a stranger
	// cannot steer indexing with a second attachment of the same name.
	var indexSrc []byte
	if prefix, ok := strings.CutSuffix(schemaURI, "/"+attachSchema); ok {
		indexSrc = attachments[prefix+"/"+attachIndex]
	}
	for _, src := range [...][]byte{schemaSrc, get("displaystyle"), get("createstyle"), get("searchstyle"), indexSrc} {
		if len(src) > maxSourceBytes {
			return nil, fmt.Errorf("core: community %q: a %d-byte source: %w", doc.ChildText("name"), len(src), errSourceTooLarge)
		}
	}
	spec := CommunitySpec{
		Name:        doc.ChildText("name"),
		Description: doc.ChildText("description"),
		Keywords:    doc.ChildText("keywords"),
		Category:    doc.ChildText("category"),
		Security:    doc.ChildText("security"),
		Protocol:    doc.ChildText("protocol"),
		SchemaSrc:   string(schemaSrc),
	}
	defCreate, defSearch, defView := stylegen.DefaultSources()
	if src := get("displaystyle"); len(src) > 0 && string(src) != defView {
		spec.DisplayStyleSrc = string(src)
	}
	if src := get("createstyle"); len(src) > 0 && string(src) != defCreate {
		spec.CreateStyleSrc = string(src)
	}
	if src := get("searchstyle"); len(src) > 0 && string(src) != defSearch {
		spec.SearchStyleSrc = string(src)
	}
	spec.IndexStyleSrc = string(indexSrc)
	return NewCommunity(spec)
}

// Indexer returns the community's attribute extractor. The error is
// vestigial and always nil: the indexer is compiled at construction.
// It stays until the benchmark package, which reads it, can drop it.
func (c *Community) Indexer() (*stylegen.Indexer, error) { return c.indexer, nil }

// Extract runs the community's indexing transform over an object: the
// custom indexing stylesheet when provided, else the one generated
// from the schema's searchable fields.
func (c *Community) Extract(obj *xmldoc.Node) (query.Attrs, error) { return c.indexer.Extract(obj) }

// View renders an object with the community's display stylesheet.
func (c *Community) View(obj *xmldoc.Node) (string, error) { return c.display.Apply(obj) }

// CreateFormHTML renders the community's create form: its create
// stylesheet applied to its schema. The first call renders it; later
// calls return that result.
func (c *Community) CreateFormHTML() (string, error) { return c.createForm() }

// SearchFormHTML renders the community's search form, once, as
// CreateFormHTML does.
func (c *Community) SearchFormHTML() (string, error) { return c.searchForm() }

// String implements fmt.Stringer.
func (c *Community) String() string {
	return fmt.Sprintf("community %q (%s)", c.Name, c.ID)
}
