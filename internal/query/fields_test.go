package query

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestFieldsMatchAttrs: the flat form of a map answers every read as
// the map does — a key with no values and a multi-valued key included —
// lists its keys in ascending order, and maps back to an equal map; the
// zero value is the empty set.
func TestFieldsMatchAttrs(t *testing.T) {
	a := observer()
	a["none"] = []string{}
	f := FieldsOf(a)
	if f.Len() != len(a) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(a))
	}
	var keys []string
	for k, vs := range f.All() {
		keys = append(keys, k)
		all, values := slices.Collect(vs), slices.Collect(f.Values(k))
		if !slices.Equal(all, a[k]) || !slices.Equal(values, a[k]) || f.Get(k) != a.Get(k) {
			t.Errorf("%s: All gives %q, Values %q, Get %q; the map holds %q", k, all, values, f.Get(k), a[k])
		}
	}
	if !slices.IsSorted(keys) || len(keys) != len(a) {
		t.Errorf("keys %v", keys)
	}
	if slices.Collect(f.Values("nosuch")) != nil || f.Get("nosuch") != "" {
		t.Error("an absent key has values")
	}
	if got := f.Map(); !reflect.DeepEqual(got, a) {
		t.Errorf("Map() = %v, want %v", got, a)
	}
	var zero Fields
	if zero.Len() != 0 || zero.Map() != nil || slices.Collect(zero.Values("name")) != nil || FieldsOf(Attrs{}) != zero || FieldsOf(nil) != zero {
		t.Error("the empty set is not the zero Fields")
	}
}

// TestFieldsCloneOwnsItsStrings: a clone is equal to its source and
// shares none of its memory.
func TestFieldsCloneOwnsItsStrings(t *testing.T) {
	f := FieldsOf(observer())
	c := f.Clone()
	if !reflect.DeepEqual(c, f) {
		t.Fatalf("clone %v differs from %v", c.Map(), f.Map())
	}
	for k := range f.All() {
		if unsafe.StringData(c.Get(k)) == unsafe.StringData(f.Get(k)) {
			t.Errorf("%s: the clone shares its values with the source", k)
		}
	}
}

// TestFieldsJSONIsTheMapsJSON: the flat form marshals as the object the
// map does and reads back from it.
func TestFieldsJSONIsTheMapsJSON(t *testing.T) {
	for _, a := range []Attrs{observer(), {"k": {}}, nil} {
		want, _ := json.Marshal(a)
		got, err := json.Marshal(FieldsOf(a))
		if err != nil || string(got) != string(want) {
			t.Errorf("Fields marshal to %s (%v), the map to %s", got, err, want)
		}
		var back Fields
		if err := json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(back, FieldsOf(a)) {
			t.Errorf("%s read back as %v (%v)", got, back.Map(), err)
		}
	}
}
