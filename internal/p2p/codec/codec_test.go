package codec

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/query"
)

// testFrame exercises every primitive: varints, strings, bytes,
// bools, and a flat attribute set.
type testFrame struct {
	ReqID uint64
	Name  string
	Blob  []byte
	Found bool
	Attrs query.Fields
	Tags  []string
}

func (f *testFrame) AppendBinary(dst []byte) []byte {
	dst = AppendUvarint(dst, f.ReqID)
	dst = AppendString(dst, f.Name)
	dst = AppendBytes(dst, f.Blob)
	dst = AppendBool(dst, f.Found)
	dst = AppendFields(dst, f.Attrs)
	dst = AppendUvarint(dst, uint64(len(f.Tags)))
	for _, t := range f.Tags {
		dst = AppendString(dst, t)
	}
	return dst
}

func (f *testFrame) DecodeBinary(data []byte) error {
	r := NewReader(data)
	f.ReqID = r.Uvarint()
	f.Name = r.String()
	f.Blob = r.Bytes()
	f.Found = r.Bool()
	f.Attrs = r.Fields()
	n := r.Len()
	f.Tags = f.Tags[:0]
	for i := 0; i < n; i++ {
		f.Tags = append(f.Tags, r.String())
	}
	if len(f.Tags) == 0 {
		f.Tags = nil
	}
	return r.Err()
}

func sampleFrame() *testFrame {
	a := query.Attrs{}
	a.Add("classification", "behavioral")
	a.Add("classification", "structural")
	a.Add("author", "GoF")
	return &testFrame{
		ReqID: 1<<40 + 7,
		Name:  "observer",
		Blob:  []byte{0, 1, 2, 0xff},
		Found: true,
		Attrs: query.FieldsOf(a),
		Tags:  []string{"x", "y"},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, f := range []*testFrame{sampleFrame(), {}} {
		enc := Encode(f)
		var got testFrame
		if err := got.DecodeBinary(enc); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(f, &got) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", f, &got)
		}
	}
}

// TestBinaryDeterministic: attribute sets built from maps must encode
// identically regardless of map iteration order, run after run.
func TestBinaryDeterministic(t *testing.T) {
	base := Encode(sampleFrame())
	for i := 0; i < 32; i++ {
		if got := Encode(sampleFrame()); !bytes.Equal(base, got) {
			t.Fatalf("encoding not deterministic on iteration %d", i)
		}
	}
}

func TestBinaryTruncated(t *testing.T) {
	enc := Encode(sampleFrame())
	for cut := 0; cut < len(enc); cut++ {
		var got testFrame
		if err := got.DecodeBinary(enc[:cut]); err == nil {
			// A prefix may be a valid shorter frame only if every
			// remaining field happens to decode as zero — with our
			// sample's trailing content that never happens.
			t.Fatalf("truncation at %d/%d not detected", cut, len(enc))
		}
	}
}

func TestReaderCorruptLength(t *testing.T) {
	// A length prefix far beyond the buffer must fail, not allocate.
	buf := AppendUvarint(nil, 1<<50)
	r := NewReader(buf)
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("oversized length prefix not rejected")
	}
}

// TestReaderCountBoundsElements: a count is accepted only when that
// many minimal elements fit in what is left — a 1 KB frame claiming
// 1 000 five-byte records is refused where Len alone would pass it —
// and an attribute set claiming more entries than its bytes can hold
// fails without anything being sized.
func TestReaderCountBoundsElements(t *testing.T) {
	frame := append(AppendUvarint(nil, 1000), make([]byte, 1022)...)
	if r := NewReader(frame); r.Len() != 1000 || r.Err() != nil {
		t.Fatal("Len should accept 1000 as a byte count here")
	}
	if r := NewReader(frame); r.Count(5) != 0 || r.Err() == nil {
		t.Fatal("Count(5) accepted 1000 five-byte elements in a 1 KB frame")
	}
	if r := NewReader(frame); r.Count(1) != 1000 || r.Err() != nil {
		t.Fatal("Count(1) refused 1000 one-byte elements in a 1 KB frame")
	}
	if r := NewReader(AppendUvarint(nil, 1<<62)); r.Count(8) != 0 || r.Err() == nil {
		t.Fatal("Count accepted a count whose byte size overflows")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if r := NewReader(frame); r.Fields().Len() != 0 || r.Err() == nil {
			t.Fatal("attribute set claiming 1000 entries in 1 KB decoded")
		}
	})
	// The reader and its error, not a 1000-entry set. Only this count is
	// skipped under the race detector, whose instrumentation adds
	// allocations of its own about one run in ten.
	if allocs > 2 && !raceEnabled {
		t.Fatalf("refusing the hostile attrs count took %v allocations", allocs)
	}
}

// TestReaderFieldsRefusesDisorder: an attribute set whose keys do not
// ascend strictly, which no encoder writes, fails the reader.
func TestReaderFieldsRefusesDisorder(t *testing.T) {
	for _, keys := range [][]string{{"b", "a"}, {"a", "a"}, {"a", "c", "b"}} {
		enc := AppendUvarint(nil, uint64(len(keys)))
		for _, k := range keys {
			enc = AppendUvarint(AppendString(enc, k), 0)
		}
		if r := NewReader(enc); r.Fields().Len() != 0 || r.Err() == nil {
			t.Errorf("keys %q were accepted", keys)
		}
	}
}

// TestReaderViewRest: View and Rest hand out the payload's own bytes
// (no copy, no allocation), View cannot be appended through into what
// follows it, and a length that overruns the payload fails like any
// other read.
func TestReaderViewRest(t *testing.T) {
	frame := append(AppendString(nil, "query"), 7, 'r', 'e', 's', 't')
	var view, rest []byte
	allocs := testing.AllocsPerRun(10, func() {
		r := NewReader(frame)
		view = r.View()
		if r.Uvarint() != 7 {
			t.Fatal("cursor not after the view")
		}
		rest = r.Rest()
		if r.Err() != nil || len(r.Rest()) != 0 {
			t.Fatalf("err = %v, or Rest left bytes unread", r.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("View+Rest allocated %v times", allocs)
	}
	if string(view) != "query" || &view[0] != &frame[1] || cap(view) != len(view) {
		t.Fatalf("view = %q, cap %d: want the frame's own five bytes, capped", view, cap(view))
	}
	if string(rest) != "rest" || &rest[0] != &frame[7] {
		t.Fatalf("rest = %q", rest)
	}
	if r := NewReader([]byte{9, 'x'}); r.View() != nil || r.Err() == nil || r.Rest() != nil {
		t.Fatal("a view longer than the payload was served")
	}
}

// TestBinaryEncodeAllocs pins the hot path: one allocation per Encode
// (the exact-size payload), zero per DecodeBinary beyond the
// decoded fields themselves (none for this all-scalar frame).
func TestBinaryEncodeAllocs(t *testing.T) {
	f := &testFrame{ReqID: 42, Name: "q", Found: true}
	// Warm the scratch pool.
	Encode(f)
	if n := testing.AllocsPerRun(200, func() {
		Encode(f)
	}); n > 1 {
		t.Fatalf("binary encode allocs/op = %v, want <= 1", n)
	}
	enc := Encode(f)
	var dst testFrame
	if n := testing.AllocsPerRun(200, func() {
		dst = testFrame{}
		if err := dst.DecodeBinary(enc); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("binary decode allocs/op = %v, want 0", n)
	}
}

// TestBorrowMatchesEncode: a borrowed payload holds the bytes Encode
// copies out, and borrowing again after Release allocates nothing.
func TestBorrowMatchesEncode(t *testing.T) {
	f := sampleFrame()
	b := Borrow(f)
	if want := Encode(f); !bytes.Equal(*b, want) {
		t.Fatalf("borrowed %x, encoded %x", *b, want)
	}
	Release(b)
	if raceEnabled {
		return // the race detector's sync.Pool drops a quarter of its puts
	}
	scalar := &testFrame{ReqID: 42, Name: "q", Found: true}
	if n := testing.AllocsPerRun(200, func() { Release(Borrow(scalar)) }); n != 0 {
		t.Fatalf("borrow+release allocs/op = %v, want 0", n)
	}
}

// TestBufPoolCap: a buffer that grew past MaxPooled is not put back —
// after a huge encode, no borrow sees its scratch — while one within
// the cap goes back emptied.
func TestBufPoolCap(t *testing.T) {
	huge := &testFrame{Blob: make([]byte, MaxPooled+1)}
	for i := 0; i < 8; i++ {
		Release(Borrow(huge))
	}
	for i := 0; i < 64; i++ {
		b := Borrow(&testFrame{ReqID: uint64(i)})
		if cap(*b) > MaxPooled {
			t.Fatalf("borrow %d came with a %d-byte buffer, cap %d", i, cap(*b), MaxPooled)
		}
		Release(b)
	}

	pool := NewBufPool(16)
	b := pool.Get()
	if len(*b) != 0 || cap(*b) != 16 {
		t.Fatalf("fresh buffer len %d cap %d, want 0 and 16", len(*b), cap(*b))
	}
	*b = append(*b, make([]byte, MaxPooled+1)...)
	pool.Put(b)
	for i := 0; i < 8; i++ {
		if got := pool.Get(); cap(*got) > MaxPooled {
			t.Fatalf("the pool handed out a %d-byte buffer, cap %d", cap(*got), MaxPooled)
		}
	}
	b = pool.Get()
	*b = append(*b, "kept"...)
	pool.Put(b)
	if len(*b) != 0 {
		t.Fatalf("a buffer went back holding %q", *b)
	}
}

func BenchmarkBinaryRoundTrip(b *testing.B) {
	f := sampleFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := Encode(f)
		var got testFrame
		if err := got.DecodeBinary(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendAttrsAllocs: a map of up to 16 keys is sorted on the stack,
// so appending it to a buffer with room allocates nothing, nor does
// appending its flat form; a larger map still encodes, in the same
// sorted order, to the bytes its flat form encodes to.
func TestAppendAttrsAllocs(t *testing.T) {
	attrs := func(n int) query.Attrs {
		a := query.Attrs{}
		for i := 0; i < n; i++ {
			a[string(rune('z'-i%26))+string(rune('a'+i/26))] = []string{"v", "w"}
		}
		return a
	}
	buf := make([]byte, 0, 4096)
	for _, n := range []int{1, 4, 16} {
		a := attrs(n)
		if got := testing.AllocsPerRun(200, func() { buf = query.AppendAttrs(buf[:0], a) }); got != 0 {
			t.Errorf("AppendAttrs of %d keys: %v allocs, want 0", n, got)
		}
		f := query.FieldsOf(a)
		if got := testing.AllocsPerRun(200, func() { buf = AppendFields(buf[:0], f) }); got != 0 {
			t.Errorf("AppendFields of %d keys: %v allocs, want 0", n, got)
		}
	}
	for _, n := range []int{16, 17, 40} {
		a := attrs(n)
		r := NewReader(query.AppendAttrs(nil, a))
		var prev string
		for i, keys := 0, r.Count(2); i < keys; i++ {
			k := r.String()
			if k <= prev {
				t.Fatalf("%d keys: %q encoded after %q", n, k, prev)
			}
			prev = k
			for j, vals := 0, r.Count(1); j < vals; j++ {
				_ = r.String()
			}
		}
		if got := NewReader(query.AppendAttrs(nil, a)).Fields().Map(); !reflect.DeepEqual(got, a) {
			t.Errorf("%d keys: round trip = %v", n, got)
		}
		if !bytes.Equal(AppendFields(nil, query.FieldsOf(a)), query.AppendAttrs(nil, a)) {
			t.Errorf("%d keys: the flat form encodes to other bytes than the map", n)
		}
	}
}

// TestShareStrings: after ShareStrings every string read is cut from
// one copy of the remainder — one allocation however many fields — and
// reads before it, and on a reader that never shares, stay independent
// copies.
func TestShareStrings(t *testing.T) {
	var enc []byte
	enc = AppendString(enc, "header")
	for _, s := range []string{"alpha", "", "gamma"} {
		enc = AppendString(enc, s)
	}
	enc = query.AppendAttrs(enc, query.Attrs{"k": {"v1", "v2"}, "none": {}})

	r := NewReader(enc)
	if got := r.String(); got != "header" {
		t.Fatalf("header = %q", got)
	}
	r.ShareStrings()
	for _, want := range []string{"alpha", "", "gamma"} {
		if got := r.String(); got != want {
			t.Fatalf("shared read = %q, want %q", got, want)
		}
	}
	want := query.Attrs{"k": {"v1", "v2"}, "none": {}}
	if got := r.Fields().Map(); r.Err() != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("shared attrs = %#v, %v", got, r.Err())
	}
	// The input may be reused once decoding is done: shared strings are
	// cut from a copy, not from the payload.
	r = NewReader(enc)
	r.ShareStrings()
	first := r.String()
	for i := range enc {
		enc[i] = 0xff
	}
	if first != "header" {
		t.Errorf("shared string aliases the payload: %q", first)
	}

	var fields []byte
	for i := 0; i < 50; i++ {
		fields = AppendString(fields, "some field value")
	}
	perField := testing.AllocsPerRun(100, func() {
		r := NewReader(fields)
		for i := 0; i < 50; i++ {
			_ = r.String()
		}
	})
	shared := testing.AllocsPerRun(100, func() {
		r := NewReader(fields)
		r.ShareStrings()
		for i := 0; i < 50; i++ {
			_ = r.String()
		}
	})
	if perField < 50 || shared > 1 {
		t.Errorf("50 strings: %v allocs per field, %v shared; want >= 50 and <= 1", perField, shared)
	}
}
