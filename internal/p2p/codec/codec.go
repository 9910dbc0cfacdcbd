// Package codec is the wire-payload format under every protocol
// implementation (internal/p2p and internal/dht): one hand-rolled,
// length-prefixed binary layout per registered frame type.
//
// A sender borrows: Borrow encodes into pooled scratch and Release
// hands it back after the last Send, so sending a frame allocates
// nothing (neither transport keeps a payload once Send returns). Encode
// is the fresh-copy form, for a caller that keeps the bytes. Decoding
// walks the buffer with a cursor and allocates only the decoded fields,
// which never alias the payload: a received payload is borrowed too,
// valid only until its handler returns.
//
// An attribute set travels as its keys in ascending order, each
// followed by its values (query.AppendAttrs sorts a query.Attrs map
// into that order): AppendFields writes a query.Fields, which holds
// exactly those bytes, as it stands. Reader.Fields decodes a set back as a
// query.Fields without building anything: the set is a substring of
// the one copy a frame's strings share (Reader.ShareStrings), so a
// frame of records allocates that copy and its records' slice, and
// nothing per record. The format is deterministic, so the golden-trace
// hash of a seeded scenario is bit-identical across runs.
//
// The one-copy contract: a received payload is borrowed, valid until
// its handler returns. What a handler keeps past that — results on
// their way to a caller, records a holder stores — is copied out of the
// payload once: ShareStrings copies a frame's remainder into one string
// that everything decoded after it is cut from, and a keeper whose
// values outlive the frame's (a DHT holder's records) copies each again
// into memory of its own. A request that is only read during its
// handler is not copied at all: its fields are views of the payload
// (View, Rest), and nothing the handler keeps may alias them.
//
// Frames still carry their JSON struct tags: the frame tests of p2p and
// dht round-trip every registered type through encoding/json as an
// oracle the binary round trip must agree with. No JSON reaches the
// wire.
//
// Frames register themselves (Register, keyed by the wire type string
// of the transport.Message that carries them) from init functions in
// the protocol packages; this package knows no concrete frame, so it
// sits below p2p and dht without import cycles.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/query"
)

// Frame is one wire payload: anything that can append itself to a
// binary buffer and decode itself back (DecodeBinary is the one decode
// entry point).
type Frame interface {
	AppendBinary(dst []byte) []byte
	DecodeBinary(data []byte) error
}

// MaxPooled is the largest buffer a BufPool keeps: one that grew past
// it is left to the collector, so a single outsized frame does not stay
// in a pool until two collections pass.
const MaxPooled = 256 << 10

// BufPool pools append buffers under the one cap rule (MaxPooled) that
// every pooled buffer of the wire path follows: encode scratch here,
// frame buffers in the TCP transport.
type BufPool struct{ p sync.Pool }

// NewBufPool returns a pool whose fresh buffers have capacity size.
func NewBufPool(size int) *BufPool {
	bp := new(BufPool)
	bp.p.New = func() any {
		b := make([]byte, 0, size)
		return &b
	}
	return bp
}

// Get returns an empty buffer.
func (bp *BufPool) Get() *[]byte { return bp.p.Get().(*[]byte) }

// Put hands a buffer back, grown or not (the caller stores what it
// appended back into *b); one past MaxPooled is dropped.
func (bp *BufPool) Put(b *[]byte) {
	if cap(*b) > MaxPooled {
		return
	}
	*b = (*b)[:0]
	bp.p.Put(b)
}

// encScratch pools the buffers frames are encoded into.
var encScratch = NewBufPool(1024)

// Borrow encodes f into pooled scratch and returns it: the payload is
// *b, valid until Release(b). That is all a sender needs — a transport
// is done with a payload when Send returns — so a frame sent to several
// peers is borrowed once and released after its last Send.
func Borrow(f Frame) *[]byte {
	b := Scratch()
	*b = f.AppendBinary(*b)
	return b
}

// Scratch returns an empty buffer from the pool Borrow encodes into,
// for a payload its caller writes itself (a node answering a search
// straight from its store); Release hands it back.
func Scratch() *[]byte { return encScratch.Get() }

// Release hands a borrowed payload's scratch back to the pool; the
// payload must not be used after.
func Release(b *[]byte) { encScratch.Put(b) }

// Encode serializes a frame into a fresh payload slice, for a caller
// that keeps the bytes; a sender borrows instead.
func Encode(f Frame) []byte {
	b := Borrow(f)
	out := make([]byte, len(*b))
	copy(out, *b)
	Release(b)
	return out
}

// PeekUint reads the leading uvarint of an encoded frame and leaves the
// rest undecoded, so a node that only forwards or drops a frame never
// pays for its body: frames that are routed on a field put it first.
// It allocates nothing.
func PeekUint(payload []byte) (uint64, error) {
	v, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, errPeek
	}
	return v, nil
}

var errPeek = errors.New("codec: truncated or corrupt leading uvarint")

// Format is the type of Default.
type Format struct{}

// Default is the wire format as a value, for callers that hand one to
// Decode or call Default.Encode; Encode and Frame.DecodeBinary are the
// direct calls.
var Default Format

// Encode is the package-level Encode.
func (Format) Encode(f Frame) []byte { return Encode(f) }

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
// type alone. The Format parameter is vestigial: pass Default.
func Decode(_ Format, wireType string, payload []byte) (Frame, error) {
	f, ok := New(wireType)
	if !ok {
		return nil, fmt.Errorf("codec: unknown wire type %q", wireType)
	}
	if err := f.DecodeBinary(payload); err != nil {
		return nil, err
	}
	return f, nil
}

// --- binary primitives ---
//
// The building blocks frames compose their AppendBinary/DecodeBinary
// from: uvarint-framed strings and byte slices, single-byte bools, and
// sorted-key attribute sets. All append-style, no intermediate buffers.

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

// AppendFields appends a flat attribute set: the bytes
// query.AppendAttrs writes for the same set, copied as they stand.
func AppendFields(dst []byte, f query.Fields) []byte { return f.Append(dst) }

// Reader is a decoding cursor over one binary payload. Truncated or
// oversized input sets a sticky error; reads after an error return
// zero values, so frames can decode unconditionally and check Err
// once at the end.
type Reader struct {
	data []byte
	off  int
	err  error
	// Set by ShareStrings: shared is a string copy of data[sharedAt:]
	// that String and Fields cut their results from.
	shared   string
	sharedAt int
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
// string; every string and attribute set read from here on is a
// substring of it — one allocation per frame for all its values instead
// of one per field. This copy is the one a received frame pays for
// what its handler keeps, and its price is lifetime: any one surviving
// string or set keeps the whole remainder reachable. That suits values
// on their way to a caller or to the next encode (search results, the
// records and peers of a DHT lookup reply). Whoever keeps one longer
// copies it: a DHT STORE clones each record it keeps into memory of its
// own, and the lookup clones the peers it adds to its shortlist. A
// decoder whose values are stored long-term one entry at a time
// (registrations, fetched documents) does not share: each entry's
// strings are copies of their own.
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
// envelope) or only compare the bytes. A decoded frame never keeps one:
// its payload is borrowed and is overwritten once the handler returns.
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
// leaves the cursor at its end; like View, nothing a decoded frame
// keeps.
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

// Fields reads an attribute set written by query.AppendAttrs (or
// AppendFields). query.ReadFields checks every count and length, that
// each is a canonical uvarint and that the keys ascend as query.AppendAttrs
// writes them, and sizes nothing from a count. After ShareStrings the
// set is a substring of the shared copy and reading it allocates
// nothing; before, it is one string of its own.
func (r *Reader) Fields() query.Fields {
	if r.err != nil {
		return query.Fields{}
	}
	var f query.Fields
	var n int
	var ok bool
	if r.shared != "" {
		f, n, ok = query.ReadFields(r.shared[r.off-r.sharedAt:])
	} else {
		f, n, ok = query.ReadFields(r.data[r.off:])
	}
	if !ok {
		r.fail()
		return query.Fields{}
	}
	r.off += n
	return f
}
