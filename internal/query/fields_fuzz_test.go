package query_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/p2p/codec"
	"repro/internal/query"
)

// attrsFrom reads an attribute map out of fuzz input: NUL-separated
// tokens taken as key, value pairs, where a key token that starts with
// \x01 instead declares a key with no values.
func attrsFrom(data string) query.Attrs {
	a := query.Attrs{}
	toks := strings.Split(data, "\x00")
	for i := 0; i < len(toks); i++ {
		k := toks[i]
		if strings.HasPrefix(k, "\x01") || i+1 == len(toks) {
			if _, ok := a[k]; !ok {
				a[k] = []string{}
			}
			continue
		}
		a[k] = append(a[k], toks[i+1])
		i++
	}
	return a
}

// FuzzFieldsRoundTrip: an attribute map goes through the wire —
// query.AppendAttrs, then codec.Reader.Fields, sharing the frame's copy
// or not — and the flat form it comes back as answers Len, Value,
// Values, Get and All as the map does, is Equal to FieldsOf of the map
// and to its own Clone, maps back to it, and encodes to the same bytes.
// The input read as an encoding instead decodes, when it decodes at
// all, to a set that encodes back to exactly the bytes it took.
func FuzzFieldsRoundTrip(f *testing.F) {
	for _, s := range []string{
		"", "k\x00v", "name\x00Observer\x00name\x00alias\x00\x01none", "\x00empty key",
		"b\x001\x00a\x002\x00c", "k\x00\x00k\x00", "日本\x00語\x00\xff\x00\xfe",
	} {
		f.Add([]byte(s))
	}
	f.Add([]byte{2, 1, 'a', 0, 1, 'a', 0})   // keys out of order
	f.Add([]byte{1, 0, 1, 3, 'v', 'a', 'l'}) // an empty key
	f.Add([]byte{200, 1, 1, 'k', 0})         // a key count that lies
	f.Add([]byte{1, 1, 'k', 1, 9, 'v'})      // a value past the end
	f.Add([]byte{1, 0x81, 0x00, 'k', 0})     // a length not in its shortest form
	f.Fuzz(func(t *testing.T, data []byte) {
		a := attrsFrom(string(data))
		enc := query.AppendAttrs(nil, a)
		for _, share := range []bool{false, true} {
			r := codec.NewReader(enc)
			if share {
				r.ShareStrings()
			}
			fl := r.Fields()
			if r.Err() != nil || len(r.Rest()) != 0 {
				t.Fatalf("share %v: %q did not decode whole: %v", share, enc, r.Err())
			}
			checkFields(t, fl, a)
			if !bytes.Equal(fl.Append(nil), enc) || !bytes.Equal(codec.AppendFields(nil, fl), enc) {
				t.Fatalf("share %v: re-encoded to %q, want %q", share, fl.Append(nil), enc)
			}
		}

		r := codec.NewReader(data)
		fl := r.Fields()
		if r.Err() != nil {
			return
		}
		took := len(data) - len(r.Rest())
		if got := fl.Append(nil); !bytes.Equal(got, data[:took]) {
			t.Fatalf("%q decoded, and encodes back to %q", data[:took], got)
		}
		if got := query.AppendAttrs(nil, fl.Map()); !bytes.Equal(got, data[:took]) {
			t.Fatalf("%q decoded, and its map encodes to %q", data[:took], got)
		}
	})
}

// checkFields requires fl to hold exactly the set a does.
func checkFields(t *testing.T, fl query.Fields, a query.Attrs) {
	t.Helper()
	if fl.Len() != len(a) {
		t.Fatalf("Len = %d, the map has %d keys", fl.Len(), len(a))
	}
	var keys []string
	for k, vs := range fl.All() {
		keys = append(keys, k)
		if got := slices.Collect(vs); !slices.Equal(got, a[k]) {
			t.Fatalf("All: %q holds %q, the map %q", k, got, a[k])
		}
	}
	if !slices.IsSorted(keys) || len(slices.Compact(slices.Clone(keys))) != len(a) {
		t.Fatalf("All lists keys %q", keys)
	}
	for k, vs := range a {
		if got := slices.Collect(fl.Values(k)); !slices.Equal(got, vs) {
			t.Fatalf("Values(%q) = %q, the map %q", k, got, vs)
		}
		for i := 0; i <= len(vs); i++ {
			v, n := fl.Value(k, i)
			if want, wn := a.Value(k, i); v != want || n != wn || n != len(vs) {
				t.Fatalf("Value(%q, %d) = %q, %d; the map's %q, %d", k, i, v, n, want, wn)
			}
		}
		if fl.Get(k) != a.Get(k) {
			t.Fatalf("Get(%q) = %q, the map %q", k, fl.Get(k), a.Get(k))
		}
		if _, n := fl.Value(k+"\x00absent", 0); n != 0 {
			t.Fatalf("a key the map lacks has a value")
		}
	}
	if !fl.Equal(query.FieldsOf(a)) || !fl.Clone().Equal(fl) {
		t.Fatalf("the decoded set is not Equal to FieldsOf the map, or to its Clone")
	}
	m := fl.Map()
	if len(m) != len(a) {
		t.Fatalf("Map has %d keys, want %d", len(m), len(a))
	}
	for k, vs := range a {
		if got, ok := m[k]; !ok || !slices.Equal(got, vs) {
			t.Fatalf("Map()[%q] = %q, want %q", k, got, vs)
		}
	}
}
