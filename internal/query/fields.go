package query

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"iter"
	"slices"
	"strings"
	"unsafe"
)

// AttrSet is what a filter reads an attribute set through. Both forms
// satisfy it — Attrs, the map an indexer extracts, and *Fields, the
// flat form records travel and are held in — and both are
// pointer-shaped, so passing either to Match allocates nothing.
type AttrSet interface {
	// Value returns an attribute's i-th value ("" past its last) and how
	// many values it has, 0 when it is absent: one call reads a
	// single-valued attribute whole.
	Value(name string, i int) (v string, n int)
}

// Value implements AttrSet.
func (a Attrs) Value(name string, i int) (string, int) {
	vs := a[name]
	if i < len(vs) {
		return vs[i], len(vs)
	}
	return "", len(vs)
}

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

// Fields is an attribute set in flat form: one string that holds the
// set's encoding, which is also its wire form (AppendAttrs): the number
// of keys, then each key in ascending order followed by the number of
// its values and the values, every count and length a canonical
// uvarint and every string its bytes. Keys and values are sliced out of
// it on access. The length before each string is where that string
// ends, so a set needs no table of offsets and no string header per key
// or value, and a set decoded from a frame is a substring of the one
// copy its frame's strings share (codec.Reader.Fields): keeping it
// keeps that copy, and whoever keeps a set longer than the frame's
// other values Clones it. A Fields never changes once built, so copies
// share it. The zero value is the empty set.
type Fields struct{ enc string }

// AppendAttrs appends a's encoding to dst: the string a Fields of the
// same set holds, with its keys sorted (map iteration order must never
// reach the wire).
func AppendAttrs(dst []byte, a Attrs) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(a)))
	var few [16]string
	for _, k := range a.Keys(few[:0]) {
		dst = appendString(dst, k)
		dst = binary.AppendUvarint(dst, uint64(len(a[k])))
		for _, v := range a[k] {
			dst = appendString(dst, v)
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// FieldsOf returns the flat form of a: AppendAttrs' encoding of a,
// written into one new buffer of exactly its size that the string
// takes over.
func FieldsOf(a Attrs) Fields {
	if len(a) == 0 {
		return Fields{}
	}
	n := uvarintLen(uint64(len(a)))
	for k, vs := range a {
		n += uvarintLen(uint64(len(k))) + len(k) + uvarintLen(uint64(len(vs)))
		for _, v := range vs {
			n += uvarintLen(uint64(len(v))) + len(v)
		}
	}
	enc := AppendAttrs(make([]byte, 0, n), a)
	return Fields{unsafe.String(unsafe.SliceData(enc), len(enc))} // enc is never written again, as in a strings.Builder
}

// ReadFields reads the attribute set encoded at the start of data and
// returns it with the number of bytes it took. It checks every count
// and length against what data holds, that each is a canonical uvarint,
// and that the keys strictly ascend; ok is false when one does not.
// Nothing is sized from a count, so a count that lies costs nothing but
// the walk that refutes it. From a string the set is a substring of
// data; from a byte slice it is copied into a string of its own.
func ReadFields[T ~string | ~[]byte](data T) (f Fields, n int, ok bool) {
	keys, off, ok := readUvarint(data, 0)
	if !ok || keys > uint64(len(data)-off)/2 { // a key is a length and a count at least
		return Fields{}, 0, false
	}
	prevAt, prevLen := 0, -1
	for i := uint64(0); i < keys; i++ {
		var klen uint64
		if klen, off, ok = readUvarint(data, off); !ok || klen > uint64(len(data)-off) {
			return Fields{}, 0, false
		}
		at := off
		off += int(klen)
		if prevLen >= 0 && compareAt(data, prevAt, prevLen, at, int(klen)) >= 0 {
			return Fields{}, 0, false
		}
		prevAt, prevLen = at, int(klen)
		var vals uint64
		if vals, off, ok = readUvarint(data, off); !ok || vals > uint64(len(data)-off) {
			return Fields{}, 0, false
		}
		for j := uint64(0); j < vals; j++ {
			var vlen uint64
			if vlen, off, ok = readUvarint(data, off); !ok || vlen > uint64(len(data)-off) {
				return Fields{}, 0, false
			}
			off += int(vlen)
		}
	}
	if keys == 0 {
		return Fields{}, off, true
	}
	return Fields{string(data[:off])}, off, true
}

// readUvarint reads the canonical uvarint at data[off:]: the shortest
// encoding of its value, so that a set has one encoding and Equal can
// compare strings.
func readUvarint[T ~string | ~[]byte](data T, off int) (uint64, int, bool) {
	var v uint64
	for shift := uint(0); off < len(data) && shift < 64; shift += 7 {
		c := data[off]
		off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, off, (c != 0 || shift == 0) && (shift < 63 || c <= 1)
		}
	}
	return 0, off, false
}

// compareAt compares data[a:a+an] with data[b:b+bn] bytewise.
func compareAt[T ~string | ~[]byte](data T, a, an, b, bn int) int {
	for i := 0; i < an && i < bn; i++ {
		if x, y := data[a+i], data[b+i]; x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return an - bn
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// next reads the uvarint at f.enc[off:], which a Fields holds well
// formed.
func (f Fields) next(off int) (int, int) {
	if c := f.enc[off]; c < 0x80 {
		return int(c), off + 1
	}
	v, off, _ := readUvarint(f.enc, off)
	return int(v), off
}

// str reads the length-prefixed string at f.enc[off:].
func (f Fields) str(off int) (string, int) {
	n, off := f.next(off)
	return f.enc[off : off+n], off + n
}

// skip returns the offset past the n length-prefixed strings at off.
func (f Fields) skip(off, n int) int {
	for ; n > 0; n-- {
		l, at := f.next(off)
		off = at + l
	}
	return off
}

// Append appends the set's encoding to dst: the bytes AppendAttrs
// writes for the same set.
func (f Fields) Append(dst []byte) []byte {
	if f.enc == "" {
		return append(dst, 0)
	}
	return append(dst, f.enc...)
}

// Len returns the number of keys.
func (f Fields) Len() int {
	if f.enc == "" {
		return 0
	}
	n, _ := f.next(0)
	return n
}

// find returns where name's values begin — their count — or -1.
func (f Fields) find(name string) int {
	if f.enc == "" {
		return -1
	}
	keys, off := f.next(0)
	for ; keys > 0; keys-- {
		k, at := f.str(off)
		if k >= name {
			if k == name {
				return at
			}
			return -1
		}
		vals, at := f.next(at)
		off = f.skip(at, vals)
	}
	return -1
}

// Value implements AttrSet; it walks the encoding in place and
// allocates nothing.
func (f *Fields) Value(name string, i int) (string, int) {
	at := f.find(name)
	if at < 0 {
		return "", 0
	}
	vals, at := f.next(at)
	if i >= vals {
		return "", vals
	}
	v, _ := f.str(f.skip(at, i))
	return v, vals
}

// Values iterates over an attribute's values, none when it is absent.
func (f Fields) Values(name string) iter.Seq[string] {
	return f.values(f.find(name))
}

// values iterates over the values whose count is at off (-1: none).
func (f Fields) values(off int) iter.Seq[string] {
	return func(yield func(string) bool) {
		if off < 0 {
			return
		}
		vals, at := f.next(off)
		for ; vals > 0; vals-- {
			var v string
			if v, at = f.str(at); !yield(v) {
				return
			}
		}
	}
}

// All iterates over the keys in ascending order, each with its values.
func (f Fields) All() iter.Seq2[string, iter.Seq[string]] {
	return func(yield func(string, iter.Seq[string]) bool) {
		if f.enc == "" {
			return
		}
		keys, off := f.next(0)
		for ; keys > 0; keys-- {
			k, at := f.str(off)
			if !yield(k, f.values(at)) {
				return
			}
			vals, at := f.next(at)
			off = f.skip(at, vals)
		}
	}
}

// Get returns the first value of an attribute, or "".
func (f Fields) Get(name string) string {
	v, _ := f.Value(name, 0)
	return v
}

// Equal reports whether f and g hold the same keys with the same values.
func (f Fields) Equal(g Fields) bool { return f.enc == g.enc }

// Map returns the set as a new Attrs (nil for the empty set), for the
// callers that need a map: documents bound for an index.Store. Its
// strings are substrings of f's one string.
func (f Fields) Map() Attrs {
	if f.enc == "" {
		return nil
	}
	a := make(Attrs, f.Len())
	for k, vs := range f.All() {
		a[k] = slices.AppendSeq([]string{}, vs)
	}
	return a
}

// Clone returns a copy of f that shares no memory with it: keeping the
// copy keeps nothing else alive.
func (f Fields) Clone() Fields { return Fields{strings.Clone(f.enc)} }

// String renders the set as its map would print.
func (f Fields) String() string { return fmt.Sprint(f.Map()) }

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
