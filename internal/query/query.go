// Package query implements the attribute-filter language U-P2P uses
// between servent and metadata store. The paper's prototype formatted
// these as CMIP queries over the Magenta agent framework; we reproduce
// the same expressive power (attribute assertions composed with
// and/or/not) with an LDAP-style concrete syntax, which is the closest
// widely-understood notation for CMIP-like filters:
//
//	(title=Observer)              exact match
//	(title=Obs*)                  wildcard match
//	(title=*)                     presence
//	(keywords~=behavioral)        case-insensitive substring
//	(year>=1994) (year<2000)      ordering (numeric when both sides parse)
//	(&(a=1)(b=2))  (|(a=1)(a=2))  (!(a=1))   composition
//
// Attributes are multi-valued: an assertion holds when any value
// matches, which models repeated XML elements (e.g. several keywords).
package query

import (
	"fmt"
	"hash/maphash"
	"iter"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"repro/internal/errs"
)

// Attrs is an attribute set as a map: the indexed fields extracted from
// one shared XML object, as an index.Store holds them. Fields is the
// same set in flat form.
type Attrs map[string][]string

// Add appends a value to an attribute.
func (a Attrs) Add(name, value string) {
	a[name] = append(a[name], value)
}

// Get returns the first value of an attribute, or "".
func (a Attrs) Get(name string) string {
	if vs := a[name]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Filter is a parsed query filter.
type Filter interface {
	// Match reports whether the attribute set satisfies the filter.
	Match(AttrSet) bool
	// String renders the canonical textual form (parseable by Parse).
	String() string
}

// Op is a comparison operator in an assertion.
type Op int

// Comparison operators.
const (
	OpEq       Op = iota + 1 // =, with * wildcards; (a=*) is presence
	OpContains               // ~= case-insensitive substring
	OpGe                     // >=
	OpLe                     // <=
	OpGt                     // >
	OpLt                     // <
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpContains:
		return "~="
	case OpGe:
		return ">="
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpLt:
		return "<"
	default:
		return "?"
	}
}

// Assertion is a single attribute comparison.
type Assertion struct {
	Attr  string
	Op    Op
	Value string
}

// Match implements Filter. The assertion is evaluated from its three
// exported fields alone — a literal Assertion{...} matches like a
// parsed one — and without allocating: values are compared in place,
// the filter's number is parsed once per call, and only a non-ASCII
// operand of ~= or a wildcard pays for strings.ToLower.
func (a *Assertion) Match(attrs AttrSet) bool {
	v, n := attrs.Value(a.Attr, 0)
	if a.Op == OpEq && a.Value == "*" {
		return n > 0
	}
	want, numeric := 0.0, false
	if a.Op >= OpGe { // the four ordered operators
		want, numeric = parseNumber(a.Value)
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			v, _ = attrs.Value(a.Attr, i)
		}
		if a.matchValue(v, want, numeric) {
			return true
		}
	}
	return false
}

// matchValue tests one value; want and numeric are a.Value as a number,
// for the ordered operators.
func (a *Assertion) matchValue(v string, want float64, numeric bool) bool {
	switch a.Op {
	case OpEq:
		if strings.IndexByte(a.Value, '*') >= 0 {
			return wildcardMatch(a.Value, v)
		}
		// Word-level equality: "(title=blue)" matches "Kind of Blue".
		// The metadata index keys values by the same rule (Words,
		// FoldKey), so a user searching a single word finds
		// multi-word fields through it.
		return strings.EqualFold(v, a.Value) ||
			strings.IndexByte(a.Value, ' ') < 0 && strings.IndexByte(a.Value, '\t') < 0 && hasWord(v, a.Value)
	case OpContains:
		return indexFold(foldable(v, a.Value)) >= 0
	case OpGe, OpLe, OpGt, OpLt:
		return compareOrdered(v, a.Value, want, numeric, a.Op)
	}
	return false
}

// wordTrim is the punctuation word-level equality ignores around a
// word, ,.;:!?"'() as a bitmap over the bytes below 64: trimming runs
// once per word of every value a filter does not match.
const wordTrim uint64 = 1<<',' | 1<<'.' | 1<<';' | 1<<':' | 1<<'!' | 1<<'?' | 1<<'"' | 1<<'\'' | 1<<'(' | 1<<')'

func isWordTrim(c byte) bool { return wordTrim>>c&1 != 0 } // a shift by 64 or more leaves 0

// hasWord reports whether one of v's Words equals word under case
// folding.
func hasWord(v, word string) bool {
	for w := range Words(v) {
		if strings.EqualFold(w, word) {
			return true
		}
	}
	return false
}

// Words returns an iterator over v's words, the units (attr=word)
// compares a word with: v's fields, cut where strings.Fields would cut
// them (unicode.IsSpace separates, an invalid byte does not), with
// wordTrim trimmed off both ends. A field of that punctuation alone is
// the word "". It walks v in place.
func Words(v string) iter.Seq[string] {
	return func(yield func(string) bool) {
		for w, rest, ok := nextWord(v); ok; w, rest, ok = nextWord(rest) {
			if !yield(w) {
				return
			}
		}
	}
}

// nextWord returns the first of v's Words and the rest of v after its
// field; ok is false when v holds no field. It calls nothing it is not
// given, so a v on its caller's stack stays there.
func nextWord(v string) (word, rest string, ok bool) {
	start := -1 // where the field being read began
	for i := 0; i <= len(v); {
		space, w := true, 1 // the end of v closes its last field
		if i < len(v) {
			c := v[i]
			space = c == ' ' || '\t' <= c && c <= '\r'
			if c >= utf8.RuneSelf {
				var r rune
				r, w = utf8.DecodeRuneInString(v[i:])
				space = unicode.IsSpace(r)
			}
		}
		if !space && start < 0 {
			start = i
		} else if space && start >= 0 {
			f := v[start:i]
			for f != "" && isWordTrim(f[0]) {
				f = f[1:]
			}
			for f != "" && isWordTrim(f[len(f)-1]) {
				f = f[:len(f)-1]
			}
			return f, v[i:], true
		}
		i += w
	}
	return "", "", false
}

// FoldKey returns the key strings.EqualFold files s under: each rune
// replaced by the least rune of its unicode.SimpleFold orbit, lowered
// when that is an ASCII capital, and an invalid byte read as
// utf8.RuneError, as EqualFold reads it. FoldKey(a) == FoldKey(b)
// exactly when strings.EqualFold(a, b). No fold orbit holds a space or a
// wordTrim byte, so the Words of FoldKey(v) are the FoldKeys of v's
// Words. An ASCII string without capitals is its own key.
func FoldKey(s string) string {
	if i := foldsFrom(s); i >= 0 {
		b := appendFold(make([]byte, 0, len(s)), s, i)
		return unsafe.String(unsafe.SliceData(b), len(b)) // b is not written again
	}
	return s
}

// foldsFrom returns the index of s's first byte FoldKey may change, -1
// when s is its own key.
func foldsFrom(s string) int {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
			return i
		}
	}
	return -1
}

// appendFold appends FoldKey(s) to dst, given i = foldsFrom(s) >= 0.
func appendFold(dst []byte, s string, i int) []byte {
	dst = append(dst, s[:i]...)
	for _, r := range s[i:] {
		dst = utf8.AppendRune(dst, foldRune(r))
	}
	return dst
}

// IndexKeys returns an iterator over the keys an index files value v
// under, so that every equality assertion v matches finds it by its
// IndexKey: v's FoldKey, then each of that key's Words that is neither
// "" nor the whole key, repeats included. A v whose FoldKey is "" is
// filed under no key. It allocates only what FoldKey does.
func IndexKeys(v string) iter.Seq[string] {
	return func(yield func(string) bool) {
		full := FoldKey(v)
		if full == "" || !yield(full) {
			return
		}
		for w := range Words(full) {
			if w != "" && w != full && !yield(w) {
				return
			}
		}
	}
}

// IndexKeyHashes returns an iterator over the KeyHash of each key
// IndexKeys yields for v, in the same order: what an index files v
// under. It folds v on its own stack, so it allocates nothing unless v
// folds to more than keyStack bytes.
func IndexKeyHashes(v string) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		full := v
		var stack [keyStack]byte
		if i := foldsFrom(v); i >= 0 {
			// A view of the folded bytes, hashed and never kept.
			b := appendFold(stack[:0], v, i)
			full = unsafe.String(unsafe.SliceData(b), len(b))
		}
		if full == "" || !yield(KeyHash(full)) {
			return
		}
		for w, rest, ok := nextWord(full); ok; w, rest, ok = nextWord(rest) {
			if w != "" && w != full && !yield(KeyHash(w)) {
				return
			}
		}
	}
}

// keyStack is how long a folded value IndexKeyHashes folds on the stack
// may be: longer than any the shipped corpora's searchable fields hold.
const keyStack = 256

// IndexKey returns the key under which IndexKeys files every value a
// matches, and whether a may be answered from an index at all: it must
// test equality without a wildcard, and its value must fold to a key
// other than "". A value a matches whole shares a's FoldKey, and one
// it matches by a word has that word among its keys. (attr=) matches a
// punctuation-only word, which is filed under no key, so it scans, as
// every other operator does.
func (a *Assertion) IndexKey() (string, bool) {
	if a.Op != OpEq || strings.IndexByte(a.Value, '*') >= 0 {
		return "", false
	}
	key := FoldKey(a.Value)
	return key, key != ""
}

// ExactKeys returns an iterator over the conjuncts of f an index can
// answer: f itself when it is an assertion with an IndexKey, and each
// such conjunct of an And, nested ones included. It yields each one's
// attribute and IndexKey. An entry f matches is filed under every key it
// yields; a filter it yields nothing for must be answered by a scan.
func ExactKeys(f Filter) iter.Seq2[string, string] {
	return func(yield func(attr, key string) bool) { exactKeys(f, yield) }
}

func exactKeys(f Filter, yield func(attr, key string) bool) bool {
	switch t := f.(type) {
	case *Assertion:
		if key, ok := t.IndexKey(); ok {
			return yield(t.Attr, key)
		}
	case *And:
		for _, sub := range t.Subs {
			if !exactKeys(sub, yield) {
				return false
			}
		}
	}
	return true
}

// keySeed seeds KeyHash. It is drawn once per process, so no one can
// choose values whose keys collide.
var keySeed = maphash.MakeSeed()

// KeyHash is the hash an index files a key under. index.Store's
// postings and a DHT holder's hold these hashes and no key strings; keys
// that hash alike share a run of postings, which only adds candidates,
// since each candidate is matched with the whole filter.
func KeyHash(key string) uint64 { return maphash.String(keySeed, key) }

func foldRune(r rune) rune {
	least := r
	if r >= utf8.RuneSelf {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			least = min(least, f)
		}
	}
	if 'A' <= least && least <= 'Z' {
		least += 'a' - 'A'
	}
	return least
}

// parseNumber reads s as a number the way compareOrdered's operands
// are read. strconv.ParseFloat allocates its error, so anything that
// cannot start a number (most attribute values) is turned away first.
func parseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" || !('0' <= s[0] && s[0] <= '9') && strings.IndexByte("+-.iInN", s[0]) < 0 {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// compareOrdered compares numerically when both operands parse as
// numbers, lexicographically otherwise. wf and numeric are want,
// parsed by the caller.
func compareOrdered(have, want string, wf float64, numeric bool, op Op) bool {
	var cmp int
	if hf, ok := parseNumber(have); ok && numeric {
		switch {
		case hf < wf:
			cmp = -1
		case hf > wf:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(have, want)
	}
	switch op {
	case OpGe:
		return cmp >= 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpLt:
		return cmp < 0
	}
	return false
}

// wildcardMatch matches v against a pattern with '*' wildcards,
// case-insensitively: the leading segment must prefix v, the trailing
// one suffix it, the middles occur in order between them.
func wildcardMatch(pattern, v string) bool {
	s, p := foldable(v, pattern)
	star := strings.IndexByte(p, '*')
	if star < 0 {
		return len(s) == len(p) && indexFold(s, p) == 0
	}
	if len(s) < star || indexFold(s[:star], p[:star]) != 0 {
		return false
	}
	s, p = s[star:], p[star+1:]
	for {
		if star = strings.IndexByte(p, '*'); star < 0 {
			return len(s) >= len(p) && indexFold(s[len(s)-len(p):], p) == 0
		}
		i := indexFold(s, p[:star])
		if i < 0 {
			return false
		}
		s, p = s[i+star:], p[star+1:]
	}
}

// foldable returns a and b in the form indexFold compares: as they are
// when both are ASCII, lowered otherwise (Unicode case mapping can
// change a string's length, so only then is the copy paid for).
func foldable(a, b string) (string, string) {
	for _, s := range [2]string{a, b} {
		for i := 0; i < len(s); i++ {
			if s[i] >= utf8.RuneSelf {
				return strings.ToLower(a), strings.ToLower(b)
			}
		}
	}
	return a, b
}

// indexFold is strings.Index with ASCII letters compared without
// regard to case; on operands from foldable that is strings.Index over
// their strings.ToLower forms.
func indexFold(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		j := 0
		for j < len(sub) && lowerASCII(s[i+j]) == lowerASCII(sub[j]) {
			j++
		}
		if j == len(sub) {
			return i
		}
	}
	return -1
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// String implements Filter.
func (a *Assertion) String() string {
	return "(" + a.Attr + a.Op.String() + a.Value + ")"
}

// And is the conjunction of sub-filters.
type And struct{ Subs []Filter }

// Match implements Filter.
func (f *And) Match(attrs AttrSet) bool {
	for _, s := range f.Subs {
		if !s.Match(attrs) {
			return false
		}
	}
	return true
}

// String implements Filter.
func (f *And) String() string { return composite("&", f.Subs) }

// Or is the disjunction of sub-filters.
type Or struct{ Subs []Filter }

// Match implements Filter.
func (f *Or) Match(attrs AttrSet) bool {
	for _, s := range f.Subs {
		if s.Match(attrs) {
			return true
		}
	}
	return false
}

// String implements Filter.
func (f *Or) String() string { return composite("|", f.Subs) }

// Not negates a sub-filter.
type Not struct{ Sub Filter }

// Match implements Filter.
func (f *Not) Match(attrs AttrSet) bool { return !f.Sub.Match(attrs) }

// String implements Filter.
func (f *Not) String() string { return "(!" + f.Sub.String() + ")" }

// MatchAll matches every object (the empty query).
type MatchAll struct{}

// Match implements Filter.
func (MatchAll) Match(AttrSet) bool { return true }

// String implements Filter.
func (MatchAll) String() string { return "(*)" }

func composite(op string, subs []Filter) string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(op)
	for _, s := range subs {
		b.WriteString(s.String())
	}
	b.WriteByte(')')
	return b.String()
}

// --- parser ---

// SyntaxError reports a malformed filter string. Its code (errs.Code)
// is "query.malformed", as ErrEmpty's is: a node that refuses a peer's
// filter counts the refusal by the parse error itself.
type SyntaxError struct {
	Src string
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("query: %s at %d in %q", e.Msg, e.Pos, e.Src)
}

// Unwrap returns the coded error every SyntaxError stands for.
func (e *SyntaxError) Unwrap() error { return errMalformed }

var (
	errMalformed = errs.New("query.malformed", "query: malformed filter")
	// ErrEmpty is returned for an empty filter string.
	ErrEmpty error = errs.New("query.malformed", "query: empty filter")
)

// maxNesting bounds how deep filters nest: (a=b) is one level, (!(a=b))
// two. Filters arrive from peers, and parsing, matching and String all
// recurse once per level, so a deeper filter is a syntax error.
const maxNesting = 32

// Parse parses a filter expression. A bare "attr=value" (without
// parentheses) is accepted as shorthand for "(attr=value)". An empty
// or "(*)" filter matches everything. Nesting deeper than 32 levels is
// a *SyntaxError. The filter is the caller's: its strings are src's, and
// its nodes are allocated for it alone. A node that serves filters
// parses them with a Parser instead.
func Parse(src string) (Filter, error) {
	var p Parser
	return p.parse(src, false)
}

// MustParse panics on error; for compiled-in filters.
func MustParse(src string) Filter {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// Parser parses filters, as Parse does, into storage it keeps and
// reuses: a copy of the source, and one arena per kind of node and for
// the composites' sub-filter slices. Once its arenas have grown to a
// node's filters, a parse allocates nothing. The filter Parse returns is
// valid until the parser's next Parse; a serve path matches with it and
// forgets it before it hands the parser on. The zero value is ready to
// use; a Parser must not be used by two goroutines at once.
type Parser struct {
	src string // the text being parsed, trimmed and parenthesized
	pos int
	// hint is how much room an empty arena is given: the '(' count of
	// src, which bounds its nodes, capped so that a value full of
	// parentheses does not size four arenas after itself.
	hint int

	buf     []byte // Parse's copy of its source
	asserts []Assertion
	ands    []And
	ors     []Or
	nots    []Not
	subs    []Filter // the composites' Subs, each a full slice of it
	stack   []Filter // the sub-filters of the composites being parsed
}

// Parse parses src as the package's Parse does. The filter it returns,
// and every string in it, is valid until p's next Parse: src is copied
// into p, so the caller may reuse src as soon as Parse returns. A
// *SyntaxError owns its Src.
func (p *Parser) Parse(src []byte) (Filter, error) {
	return p.parse(unsafe.String(unsafe.SliceData(src), len(src)), true)
}

// Size is how many bytes of storage p holds for reuse; a pool drops a
// parser that grew past its bound rather than keep it.
func (p *Parser) Size() int {
	return cap(p.buf) + cap(p.asserts)*int(unsafe.Sizeof(Assertion{})) +
		(cap(p.ands)+cap(p.ors))*int(unsafe.Sizeof(And{})) + cap(p.nots)*int(unsafe.Sizeof(Not{})) +
		(cap(p.subs)+cap(p.stack))*int(unsafe.Sizeof(Filter(nil)))
}

// maxHint caps Parser.hint.
const maxHint = 64

// parse is the one parser. With copySrc set, src is only a view of the
// caller's bytes, and the text parsed is a copy in p.buf; otherwise the
// filter's strings are substrings of src (or of a parenthesized copy).
func (p *Parser) parse(src string, copySrc bool) (Filter, error) {
	s := strings.TrimSpace(src)
	if s == "" {
		return nil, ErrEmpty
	}
	if s == "(*)" || s == "*" {
		return MatchAll{}, nil
	}
	if wrap := !strings.HasPrefix(s, "("); wrap || copySrc {
		p.buf = p.buf[:0]
		if wrap {
			p.buf = append(p.buf, '(')
		}
		p.buf = append(p.buf, s...)
		if wrap {
			p.buf = append(p.buf, ')')
		}
		s = unsafe.String(unsafe.SliceData(p.buf), len(p.buf)) // p.buf is not written again until the next parse
	}
	p.src, p.pos, p.hint = s, 0, min(strings.Count(s, "("), maxHint)
	p.asserts, p.ands, p.ors, p.nots = p.asserts[:0], p.ands[:0], p.ors[:0], p.nots[:0]
	p.subs, p.stack = p.subs[:0], p.stack[:0]
	f, err := p.parseFilter(1)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, &SyntaxError{Src: strings.Clone(src), Pos: p.pos, Msg: "trailing input"}
	}
	return f, nil
}

// node appends a zero node to an arena and returns it. An empty arena
// is first given room for the parse's hint; a full one grows, and the
// nodes already handed out stay where they are, in the array it left.
func node[T any](arena *[]T, hint int) *T {
	if cap(*arena) == 0 {
		*arena = make([]T, 0, max(hint, 1))
	}
	var zero T
	*arena = append(*arena, zero)
	return &(*arena)[len(*arena)-1]
}

func (p *Parser) errf(format string, args ...any) error {
	return &SyntaxError{Src: strings.Clone(p.src), Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

// skipSpace skips what strings.TrimSpace trims. An attribute name,
// trimmed, then starts with the byte parseFilter dispatched on, never
// with '&', '|', '!' or '*', so its String parses back to it.
func (p *Parser) skipSpace() {
	for p.pos < len(p.src) {
		r, w := rune(p.src[p.pos]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(p.src[p.pos:])
		}
		if !unicode.IsSpace(r) {
			return
		}
		p.pos += w
	}
}

// parseFilter parses one filter at nesting level depth.
func (p *Parser) parseFilter(depth int) (Filter, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return nil, p.errf("expected '('")
	}
	if depth > maxNesting {
		return nil, p.errf("filter nested deeper than %d levels", maxNesting)
	}
	p.pos++
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, p.errf("unterminated filter")
	}
	switch p.src[p.pos] {
	case '&', '|':
		op := p.src[p.pos]
		p.pos++
		subs, err := p.parseSubs(depth)
		if err != nil {
			return nil, err
		}
		if op == '&' {
			f := node(&p.ands, p.hint)
			f.Subs = subs
			return f, nil
		}
		f := node(&p.ors, p.hint)
		f.Subs = subs
		return f, nil
	case '!':
		p.pos++
		sub, err := p.parseFilter(depth + 1)
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, p.errf("expected ')' after negation")
		}
		p.pos++
		f := node(&p.nots, p.hint)
		f.Sub = sub
		return f, nil
	case '*':
		// "(*)" match-all as a sub-filter.
		p.pos++
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, p.errf("expected ')' after '*'")
		}
		p.pos++
		return MatchAll{}, nil
	default:
		return p.parseAssertion()
	}
}

// parseSubs parses a composite's sub-filters, up to and including its
// ')'. They gather on p.stack, above those of the composites that
// enclose this one, and move to p.subs once all are read.
func (p *Parser) parseSubs(depth int) ([]Filter, error) {
	if cap(p.stack) == 0 {
		p.stack = make([]Filter, 0, max(p.hint, 1))
	}
	mark := len(p.stack)
	for {
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == ')' {
			p.pos++
			break
		}
		sub, err := p.parseFilter(depth + 1)
		if err != nil {
			return nil, err
		}
		p.stack = append(p.stack, sub)
	}
	if len(p.stack) == mark {
		return nil, p.errf("empty composite filter")
	}
	if cap(p.subs) == 0 {
		p.subs = make([]Filter, 0, max(p.hint, len(p.stack)-mark))
	}
	start := len(p.subs)
	p.subs = append(p.subs, p.stack[mark:]...)
	p.stack = p.stack[:mark]
	return p.subs[start:len(p.subs):len(p.subs)], nil
}

func (p *Parser) parseAssertion() (Filter, error) {
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune("=<>~()", rune(p.src[p.pos])) {
		p.pos++
	}
	attr := strings.TrimSpace(p.src[start:p.pos])
	if attr == "" {
		return nil, p.errf("missing attribute name")
	}
	if p.pos >= len(p.src) {
		return nil, p.errf("missing operator")
	}
	var op Op
	switch p.src[p.pos] {
	case '=':
		op = OpEq
		p.pos++
	case '~':
		if p.pos+1 >= len(p.src) || p.src[p.pos+1] != '=' {
			return nil, p.errf("expected '~='")
		}
		op = OpContains
		p.pos += 2
	case '>':
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '=' {
			op = OpGe
			p.pos += 2
		} else {
			op = OpGt
			p.pos++
		}
	case '<':
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '=' {
			op = OpLe
			p.pos += 2
		} else {
			op = OpLt
			p.pos++
		}
	default:
		return nil, p.errf("expected operator, got %q", p.src[p.pos])
	}
	vstart := p.pos
	depth := 0
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '(' {
			depth++
		}
		if c == ')' {
			if depth == 0 {
				break
			}
			depth--
		}
		p.pos++
	}
	if p.pos >= len(p.src) {
		return nil, p.errf("unterminated assertion")
	}
	value := strings.TrimSpace(p.src[vstart:p.pos])
	if (op == OpGt || op == OpLt) && strings.HasPrefix(value, "=") {
		// (a> =b) would render as (a>=b), a different filter.
		return nil, p.errf("%s value starts with '='", op)
	}
	p.pos++ // consume ')'
	a := node(&p.asserts, p.hint)
	*a = Assertion{Attr: attr, Op: op, Value: value}
	return a, nil
}
