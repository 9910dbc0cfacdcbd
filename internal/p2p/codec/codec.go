// Package codec is the pluggable wire-payload serialization layer
// under every protocol implementation (internal/p2p and internal/dht).
//
// Two codecs encode the same registered frame types:
//
//   - JSON: the original wire format, kept selectable so small runs
//     can prove protocol-level equivalence against the binary codec
//     (identical message counts and recall, byte content aside).
//   - Binary: a hand-rolled length-prefixed format for the hot frame
//     types. Encoding appends into pooled scratch and costs one exact
//     allocation per frame; decoding walks the buffer with a cursor
//     and allocates only the decoded fields. This is what makes a
//     10k-peer simulated run allocator-bound work feasible: the JSON
//     path costs dozens of reflection-driven allocations per frame.
//
// Both codecs are deterministic — map-valued fields (query.Attrs)
// encode in sorted key order — so the golden-trace hash of a seeded
// scenario is bit-identical across runs under either codec.
//
// Frames register themselves (Register, keyed by the wire type string
// of the transport.Message that carries them) from init functions in
// the protocol packages; this package knows no concrete frame, so it
// sits below p2p and dht without import cycles.
package codec

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/query"
)

// Frame is one wire payload: anything that can append itself to a
// binary buffer and decode itself back. JSON encoding uses the
// frame's ordinary struct tags.
type Frame interface {
	AppendBinary(dst []byte) []byte
	DecodeBinary(data []byte) error
}

// Codec turns frames into payload bytes and back.
type Codec interface {
	// Name identifies the codec ("json", "binary").
	Name() string
	// Encode serializes a frame into a fresh payload slice. Payload
	// types are plain data; an encoding failure is a programming error
	// and panics, like the marshal helpers it replaces.
	Encode(f Frame) []byte
	// DecodeValue deserializes a payload into the caller's frame value
	// — the hot path for handlers that know the expected type from the
	// message's wire type and decode exactly once at the endpoint.
	DecodeValue(f Frame, payload []byte) error
	// PeekUint reads one unsigned routing field of an encoded frame and
	// leaves the rest undecoded, so a node that only forwards or drops a
	// frame never pays for its body. The binary codec reads the leading
	// uvarint — frames that are routed on a field put it first — and
	// allocates nothing; JSON finds the field by its key.
	PeekUint(payload []byte, key string) (uint64, error)
}

// JSON is the reflection-based codec: the original wire format.
var JSON Codec = jsonCodec{}

// Binary is the length-prefixed binary codec.
var Binary Codec = binaryCodec{}

// Default is the codec protocol nodes use unless one is injected
// (sim.Config.Codec / SetCodec): binary, the allocation-lean format.
var Default = Binary

// ByName resolves a codec by its name; unknown names return Default.
func ByName(name string) Codec {
	switch name {
	case "json":
		return JSON
	case "binary":
		return Binary
	default:
		return Default
	}
}

type jsonCodec struct{}

func (jsonCodec) Name() string { return "json" }

func (jsonCodec) Encode(f Frame) []byte {
	b, err := json.Marshal(f)
	if err != nil {
		panic(fmt.Sprintf("codec: json encode: %v", err))
	}
	return b
}

func (jsonCodec) DecodeValue(f Frame, payload []byte) error {
	return json.Unmarshal(payload, f)
}

// PeekUint mirrors what DecodeValue does with the field: absent reads
// as zero, a non-number fails.
func (jsonCodec) PeekUint(payload []byte, key string) (uint64, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(payload, &fields); err != nil {
		return 0, err
	}
	raw, ok := fields[key]
	if !ok {
		return 0, nil
	}
	var v uint64
	err := json.Unmarshal(raw, &v)
	return v, err
}

type binaryCodec struct{}

func (binaryCodec) Name() string { return "binary" }

// encScratch pools the append buffers binary encoding grows into, so
// steady-state encoding costs exactly one allocation: the final
// exact-size payload copy (which must be fresh — payloads outlive the
// encode call on asynchronous transports).
var encScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

func (binaryCodec) Encode(f Frame) []byte {
	bp := encScratch.Get().(*[]byte)
	b := f.AppendBinary((*bp)[:0])
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b[:0]
	encScratch.Put(bp)
	return out
}

func (binaryCodec) DecodeValue(f Frame, payload []byte) error {
	return f.DecodeBinary(payload)
}

func (binaryCodec) PeekUint(payload []byte, _ string) (uint64, error) {
	v, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, errPeek
	}
	return v, nil
}

var errPeek = errors.New("codec: truncated or corrupt leading uvarint")

// --- frame registry ---

var (
	regMu    sync.RWMutex
	registry = make(map[string]func() Frame)
)

// Register associates a wire type string (transport.Message.Type) with
// a frame constructor. Protocol packages register their payloads from
// init; re-registering a type panics (it would silently shadow wire
// behaviour).
func Register(wireType string, ctor func() Frame) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[wireType]; dup {
		panic(fmt.Sprintf("codec: wire type %q registered twice", wireType))
	}
	registry[wireType] = ctor
}

// New returns a fresh frame for a registered wire type.
func New(wireType string) (Frame, bool) {
	regMu.RLock()
	ctor, ok := registry[wireType]
	regMu.RUnlock()
	if !ok {
		return nil, false
	}
	return ctor(), true
}

// Types returns every registered wire type, sorted — the enumeration
// codec round-trip tests sweep.
func Types() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for t := range registry {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// Decode deserializes a payload of a registered wire type into a
// fresh frame — the generic path for endpoints that route on the wire
// type alone.
func Decode(c Codec, wireType string, payload []byte) (Frame, error) {
	f, ok := New(wireType)
	if !ok {
		return nil, fmt.Errorf("codec: unknown wire type %q", wireType)
	}
	if err := c.DecodeValue(f, payload); err != nil {
		return nil, err
	}
	return f, nil
}

// --- binary primitives ---
//
// The building blocks frames compose their AppendBinary/DecodeBinary
// from: uvarint-framed strings and byte slices, single-byte bools, and
// sorted-key attribute maps. All append-style, no intermediate
// buffers.

// AppendUvarint appends v.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendString appends a uvarint length prefix and the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint length prefix and the raw bytes.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendBool appends one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendAttrs appends an attribute map in sorted key order (the
// determinism requirement: map iteration order must never reach the
// wire).
func AppendAttrs(dst []byte, a query.Attrs) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(a)))
	if len(a) == 0 {
		return dst
	}
	// Sorted on the stack: a map of up to 16 keys, far more than any
	// community's schema indexes, encodes without allocating.
	var few [16]string
	keys := few[:0]
	for k := range a {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = AppendString(dst, k)
		vals := a[k]
		dst = binary.AppendUvarint(dst, uint64(len(vals)))
		for _, v := range vals {
			dst = AppendString(dst, v)
		}
	}
	return dst
}

// Reader is a decoding cursor over one binary payload. Truncated or
// oversized input sets a sticky error; reads after an error return
// zero values, so frames can decode unconditionally and check Err
// once at the end.
type Reader struct {
	data []byte
	off  int
	err  error
	// Set by ShareStrings: shared is a string copy of data[sharedAt:]
	// that String cuts its results from, and slab is the array Attrs
	// cuts value slices from.
	shared   string
	sharedAt int
	slab     []string
}

// NewReader starts a cursor at the payload's beginning.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("codec: truncated or corrupt binary payload at offset %d", r.off)
	}
}

// Uvarint reads one varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Len reads a uvarint length prefix, bounds-checked against the
// remaining payload so a corrupt prefix cannot drive huge allocations.
func (r *Reader) Len() int { return r.Count(1) }

// Count reads the uvarint element count of a collection whose elements
// each take at least minElemBytes on the wire, and fails the reader
// when that many elements cannot fit in what is left of the payload.
// Decoders size their slices and maps from it, so a hostile count buys
// an allocation no larger than a small multiple of the frame that
// carried it (Len alone bounds a count by bytes, not by elements).
func (r *Reader) Count(minElemBytes int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.data)-r.off)/uint64(minElemBytes) {
		r.fail()
		return 0
	}
	return int(v)
}

// ShareStrings copies the unread remainder of the payload into one
// string; every string read from here on (attribute keys and values
// included) is a substring of it, and attribute value slices are cut
// from a slab the reader grows a chunk at a time — one allocation per
// frame for all its strings instead of one per field. The price is
// lifetime: any one surviving string keeps the whole remainder
// reachable. That suits values on their way to a caller or to the next
// encode (search results, the records and peers of a DHT lookup reply —
// whoever keeps one of those longer copies it); a decoder whose values
// are stored long-term (registrations, fetched documents, the records
// of a DHT STORE) must keep the per-field copy, or the store would pin
// a frame per entry.
func (r *Reader) ShareStrings() {
	r.shared, r.sharedAt = string(r.data[r.off:]), r.off
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len()
	if r.err != nil {
		return ""
	}
	var s string
	if r.shared != "" {
		at := r.off - r.sharedAt
		s = r.shared[at : at+n]
	} else {
		s = string(r.data[r.off : r.off+n])
	}
	r.off += n
	return s
}

// valueSlabLen is how many attribute values one slab chunk holds (1 KiB
// of string headers): a typical result set needs one or two.
const valueSlabLen = 64

// values returns an empty slice with room for n attribute values: its
// own array, or after ShareStrings the next n slots of the slab, capped
// so that appending beyond n cannot reach a neighbour's values. A chunk
// is never larger than the values the unread bytes could still hold.
func (r *Reader) values(n int) []string {
	if r.shared == "" || n == 0 {
		return make([]string, 0, n)
	}
	if cap(r.slab)-len(r.slab) < n {
		r.slab = make([]string, 0, max(n, min(valueSlabLen, len(r.data)-r.off)))
	}
	at := len(r.slab)
	r.slab = r.slab[:at+n]
	return r.slab[at : at : at+n]
}

// Bytes reads a length-prefixed byte slice (copied: payload buffers
// are not owned by the decoded frame).
func (r *Reader) Bytes() []byte {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.data[r.off:r.off+n])
	r.off += n
	return out
}

// View reads a length-prefixed byte slice without copying it: the
// result aliases the payload, for callers that own the buffer (the TCP
// envelope) or only compare the bytes.
func (r *Reader) View() []byte {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	v := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Rest returns the unread remainder of the payload, uncopied, and
// leaves the cursor at its end.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	v := r.data[r.off:]
	r.off = len(r.data)
	return v
}

// Fixed reads exactly n raw bytes into dst (fixed-width fields like
// 160-bit DHT IDs).
func (r *Reader) Fixed(dst []byte) {
	if r.err != nil {
		return
	}
	if len(r.data)-r.off < len(dst) {
		r.fail()
		return
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
}

// Bool reads one byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.data) {
		r.fail()
		return false
	}
	b := r.data[r.off]
	r.off++
	return b != 0
}

// Attrs reads an attribute map written by AppendAttrs (nil for an
// empty one, mirroring the JSON behaviour).
func (r *Reader) Attrs() query.Attrs {
	n := r.Count(2) // an entry is at least a key length and a value count
	if r.err != nil || n == 0 {
		return nil
	}
	a := make(query.Attrs, n)
	for i := 0; i < n; i++ {
		k := r.String()
		nv := r.Count(1)
		if r.err != nil {
			return nil
		}
		vals := r.values(nv)
		for j := 0; j < nv; j++ {
			vals = append(vals, r.String())
		}
		a[k] = vals
	}
	if r.err != nil {
		return nil
	}
	return a
}
