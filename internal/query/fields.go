package query

import (
	"encoding/json"
	"iter"
	"slices"
	"strings"
)

// AttrSet is what a filter reads an attribute set through. Both forms
// satisfy it — Attrs, the map an indexer extracts, and Fields, the flat
// form records travel and are held in — and both are pointer-shaped, so
// passing either to Match allocates nothing.
type AttrSet interface {
	// Values returns an attribute's values, none when it is absent.
	Values(name string) []string
}

// Values implements AttrSet.
func (a Attrs) Values(name string) []string { return a[name] }

// Keys appends a's keys to buf in ascending order, the order an
// attribute set travels and is held in: with room in buf for every key
// (16 is far more than any community's schema indexes), it allocates
// nothing.
func (a Attrs) Keys(buf []string) []string {
	for k := range a {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// Fields is an attribute set in flat form: each key, in ascending
// order, followed by its values — the order codec.AppendAttrs writes
// them in. A Fields never changes once built, so copies share it;
// callers must not write to the slices it hands out. The zero value is
// the empty set.
type Fields struct{ s *fieldSet }

type fieldSet struct {
	kv   []string // each key, then its values
	ends []uint32 // ends[i]: where key i's values end in kv
}

// FieldsOf returns the flat form of a. Its strings are a's own.
func FieldsOf(a Attrs) Fields { return new(FieldsBuilder).Of(a, 0) }

// Len returns the number of keys.
func (f Fields) Len() int {
	if f.s == nil {
		return 0
	}
	return len(f.s.ends)
}

// All iterates over the keys in ascending order, each with its values.
func (f Fields) All() iter.Seq2[string, []string] {
	return func(yield func(string, []string) bool) {
		if f.s == nil {
			return
		}
		at := uint32(0)
		for _, end := range f.s.ends {
			if !yield(f.s.kv[at], f.s.kv[at+1:end:end]) {
				return
			}
			at = end
		}
	}
}

// Values implements AttrSet.
func (f Fields) Values(name string) []string {
	if f.s == nil {
		return nil
	}
	at := uint32(0)
	for _, end := range f.s.ends {
		if f.s.kv[at] == name {
			return f.s.kv[at+1 : end : end]
		}
		at = end
	}
	return nil
}

// Equal reports whether f and g hold the same keys with the same values.
func (f Fields) Equal(g Fields) bool {
	if f.Len() == 0 || g.Len() == 0 {
		return f.Len() == g.Len()
	}
	return f.s == g.s || slices.Equal(f.s.ends, g.s.ends) && slices.Equal(f.s.kv, g.s.kv)
}

// Get returns the first value of an attribute, or "".
func (f Fields) Get(name string) string {
	if vs := f.Values(name); len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Map returns the set as a new Attrs (nil for the empty set), for the
// callers that need a map: documents bound for an index.Store.
func (f Fields) Map() Attrs {
	if f.s == nil {
		return nil
	}
	a := make(Attrs, f.Len())
	for k, vs := range f.All() {
		a[k] = slices.Clone(vs)
	}
	return a
}

// Clone returns a copy of f that shares no memory with it, its strings
// cut from one new string: keeping the copy keeps nothing else alive.
func (f Fields) Clone() Fields {
	if f.s == nil {
		return f
	}
	c := &fieldSet{kv: make([]string, len(f.s.kv)), ends: slices.Clone(f.s.ends)}
	rest := strings.Join(f.s.kv, "")
	for i, s := range f.s.kv {
		c.kv[i], rest = rest[:len(s)], rest[len(s):]
	}
	return Fields{c}
}

// MarshalJSON writes the object the same set as an Attrs marshals to.
func (f Fields) MarshalJSON() ([]byte, error) { return json.Marshal(f.Map()) }

// UnmarshalJSON reads the object an Attrs marshals to.
func (f *Fields) UnmarshalJSON(data []byte) error {
	var a Attrs
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*f = FieldsOf(a)
	return nil
}

// FieldsBuilder builds Fields onto chunks that every set it builds
// shares, so many sets cost a few allocations, not three each. A set
// keeps its chunks reachable: one builder serves sets that live about
// as long as each other (the records of one frame, the results of one
// search). The zero value is ready to use.
type FieldsBuilder struct {
	kv   []string
	ends []uint32
	sets []fieldSet
	cur  *fieldSet
}

// Start begins a set of keys keys and n strings, keys and values
// counted alike, to be filled by Key and Value. A chunk too small for
// it is replaced by one that also holds more further sets of its size.
func (b *FieldsBuilder) Start(keys, n, more int) {
	b.cur = &cut(&b.sets, 1, more)[0]
	b.cur.kv = cut(&b.kv, n, more)[:0]
	b.cur.ends = cut(&b.ends, keys, more)[:0]
}

// cut takes n elements from *chunk, first replacing it with a fresh
// chunk of n*(1+more) when fewer are left.
func cut[T any](chunk *[]T, n, more int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, n*(1+more))
	}
	*chunk = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

// Key starts the next key of the set, which must sort after the last.
func (b *FieldsBuilder) Key(k string) {
	s := b.cur
	if len(s.kv) > 0 {
		s.ends = append(s.ends, uint32(len(s.kv)))
	}
	s.kv = append(s.kv, k)
}

// Value adds a value to the current key.
func (b *FieldsBuilder) Value(v string) { b.cur.kv = append(b.cur.kv, v) }

// Done ends the set begun by Start, which must hold a key.
func (b *FieldsBuilder) Done() Fields {
	s := b.cur
	s.ends = append(s.ends, uint32(len(s.kv)))
	return Fields{s}
}

// Of builds the flat form of a, expecting more further sets of its
// size. Its strings are a's own.
func (b *FieldsBuilder) Of(a Attrs, more int) Fields {
	if len(a) == 0 {
		return Fields{}
	}
	var few [16]string
	keys, n := a.Keys(few[:0]), len(a)
	for _, vs := range a {
		n += len(vs)
	}
	b.Start(len(keys), n, more)
	for _, k := range keys {
		b.Key(k)
		for _, v := range a[k] {
			b.Value(v)
		}
	}
	return b.Done()
}
