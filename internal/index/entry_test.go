package index

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/query"
)

// oracleClone is the copy the store made of every document it was
// given while it held documents (Document.clone, with query.Attrs.Clone
// inlined), verbatim but for its name: what it logged, snapshotted and
// returned.
func oracleClone(d *Document) *Document {
	cp := *d
	cp.Attrs = make(query.Attrs, len(d.Attrs))
	for k, vs := range d.Attrs {
		cp.Attrs[k] = append([]string(nil), vs...)
	}
	cp.Attachments = append([]string(nil), d.Attachments...)
	return &cp
}

// oracleRecord and oracleSnapshot are walRecord and snapshot as they
// were while the store held documents: their JSON is the oracle the
// entries' is held to.
type oracleRecord struct {
	LSN  uint64      `json:"lsn"`
	Op   string      `json:"op"`
	Docs []*Document `json:"docs,omitempty"`
	IDs  []DocID     `json:"ids,omitempty"`
}

type oracleSnapshot struct {
	Version   int         `json:"version"`
	Documents []*Document `json:"documents"`
}

func oracleClones(docs []*Document) []*Document {
	out := make([]*Document, len(docs))
	for i, d := range docs {
		out[i] = oracleClone(d)
	}
	return out
}

// walFrame frames a log record's payload as appendRecord does.
func walFrame(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, walCRC))
	return append(frame, payload...)
}

// TestWALBytesUnchanged: a put batch logged through the flat store, and
// the snapshot its compaction writes, are byte for byte what the store
// wrote while it held documents — a multi-valued attribute, a key with
// no values (null), attachments, characters encoding/json escapes, and
// a document with no attributes, whose Attrs is written {} (the empty
// map the old copy made of a nil one) — and recover to the documents
// Get returned then, after their JSON round trip (which turns invalid
// UTF-8 into U+FFFD).
func TestWALBytesUnchanged(t *testing.T) {
	docs := []*Document{
		{ID: "multi", CommunityID: "c", Title: "Multi", XML: `<o a="1">x & <y/></o>`,
			Attrs: query.Attrs{"tags": {"b", "a", "a"}, "name": {"Multi"}, "empty": {}, "nil": nil}},
		{ID: "attached", CommunityID: "c", Title: "With attachments", XML: "<o/>",
			Attrs: query.Attrs{"k": {"v"}}, Attachments: []string{"file:a.png", "up2p://c/b.png"}},
		{ID: "bare", CommunityID: "d", Title: "No attributes", XML: "<o/>"},
		{ID: "escapes", CommunityID: "c", Title: "é\u2028", Attachments: []string{},
			Attrs: query.Attrs{"<k>": {"a&b", `"q"\`, "tab\there", "\xff\xfe", "é", "\u2028\u2029", "\x7f", ""}, "": {"x"}}},
	}
	dir := t.TempDir()
	s := openWAL(t, dir)
	if err := s.PutBatch(docs); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(oracleRecord{LSN: 1, Op: walOpPut, Docs: oracleClones(docs)})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segmentName(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if want := walFrame(payload); !bytes.Equal(seg, want) {
		t.Errorf("logged\n%s\nwant\n%s", seg, want)
	}
	if !bytes.Contains(seg, []byte(`"ID":"bare","CommunityID":"d","Title":"No attributes","XML":"\u003co/\u003e","Attrs":{},"Attachments":null}`)) {
		t.Errorf("a document with no attributes is not logged with \"Attrs\":{}:\n%s", seg)
	}

	if err := s.Close(); err != nil { // compacts
		t.Fatal(err)
	}
	sorted := oracleClones(docs)
	slices.SortFunc(sorted, func(a, b *Document) int { return strings.Compare(string(a.ID), string(b.ID)) })
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", " ")
	if err := enc.Encode(oracleSnapshot{Version: snapshotVersion, Documents: sorted}); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, walSnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, want.Bytes()) {
		t.Errorf("snapshot\n%s\nwant\n%s", snap, want.Bytes())
	}

	again := openWAL(t, dir)
	for _, d := range docs {
		got, err := again.Get(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		var want Document
		data, _ := json.Marshal(oracleClone(d))
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, oracleClone(&want)) {
			t.Errorf("%s recovered as %#v, want %#v", d.ID, got, oracleClone(&want))
		}
	}
}

// fuzzAttrs reads an attribute set from fuzz input: one key a line,
// "key=v1|v2" for its values, a line without "=" for a key without any.
func fuzzAttrs(data string) query.Attrs {
	a := query.Attrs{}
	for _, line := range strings.Split(data, "\n") {
		k, vals, ok := strings.Cut(line, "=")
		if !ok {
			if _, seen := a[k]; !seen {
				a[k] = nil
			}
			continue
		}
		a[k] = append(a[k], strings.Split(vals, "|")...)
	}
	return a
}

// sameAttrs compares attribute sets by the rule Get keeps: a nil map is
// an empty one and a nil value list an empty one.
func sameAttrs(a, b query.Attrs) bool {
	if len(a) != len(b) {
		return false
	}
	for k, vs := range a {
		ws, ok := b[k]
		if !ok || !slices.Equal(vs, ws) {
			return false
		}
	}
	return true
}

// FuzzStoreRoundTrip: any attribute set put through PutBatch comes
// back from Get as it went in, by sameAttrs' rule; Get's map is never
// nil, and a key without values maps to nil. Every filter — the fuzzed
// one when it parses, and presence, equality and substring assertions
// on each key and value — answers over the stored entry as over the
// map. Search finds the document under every key the index files each
// of its values under (query.IndexKeys) that is no wildcard pattern.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add("name=Builder\nclassification=creational|structural\nempty", "(classification=creational)")
	f.Add("", "(name=*)")
	f.Add("title=Kind of Blue\nartist=Miles Davis\nyear=1959", "(&(year>=1950)(title~=blue))")
	f.Add("=\n|\nk=A*B|a.b, C", "(!(k=a*))")
	f.Add("é=Ünïcode Straße|\xff\n<k>=a&b", "(|(é=straße)(<k>=*))")
	f.Fuzz(func(t *testing.T, data, filter string) {
		attrs := fuzzAttrs(data)
		s := NewStore()
		if err := s.PutBatch([]*Document{{ID: "d", CommunityID: "c", Title: "t", Attrs: attrs}}); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("d")
		if err != nil {
			t.Fatal(err)
		}
		if got.Attrs == nil || !sameAttrs(got.Attrs, attrs) {
			t.Fatalf("Get returned %#v, put %#v", got.Attrs, attrs)
		}
		for k, vs := range got.Attrs {
			if len(vs) == 0 && vs != nil {
				t.Fatalf("key %q without values maps to %#v, want nil", k, vs)
			}
		}
		e, _ := s.Entry("d")
		filters := []query.Filter{query.MatchAll{}}
		if flt, err := query.Parse(filter); err == nil {
			filters = append(filters, flt)
		}
		for k, vs := range attrs {
			filters = append(filters, &query.Assertion{Attr: k, Op: query.OpEq, Value: "*"})
			for _, v := range vs {
				filters = append(filters, &query.Assertion{Attr: k, Op: query.OpEq, Value: v},
					&query.Assertion{Attr: k, Op: query.OpContains, Value: v},
					&query.Assertion{Attr: k, Op: query.OpGe, Value: v})
			}
		}
		for _, flt := range filters {
			if m, fl := flt.Match(attrs), flt.Match(&e.Attrs); m != fl {
				t.Fatalf("%s: %v over the map, %v over the entry", flt, m, fl)
			}
		}
		for k, vs := range attrs {
			for _, v := range vs {
				for key := range query.IndexKeys(v) {
					if strings.Contains(key, "*") {
						continue
					}
					flt := &query.Assertion{Attr: k, Op: query.OpEq, Value: key}
					if found := s.Search("c", flt, 0); len(found) != 1 || found[0] != e {
						t.Fatalf("(%s=%s), a key of %q, finds %v", k, key, v, ids(found))
					}
				}
			}
		}
	})
}
