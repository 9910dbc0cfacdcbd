package dht

// Binary wire format for the DHT payloads (see internal/p2p/codec).
// IDs travel as fixed 20-byte fields; everything else composes the
// shared codec primitives. Field order IS the wire format.
//
// Every frame with records or peers decodes onto one string per frame
// (codec.Reader.ShareStrings): its records' strings and attribute sets
// (codec.Reader.Fields) are substrings of it. The lookup replies'
// records go to the searching caller or into the next encode, and the
// lookup copies the peers it keeps, so nothing long-lived holds a frame.
// STORE then copies each record into memory of its own (ownRecord),
// two strings: the record store holds what it decodes for a TTL, one
// record at a time. A FIND_VALUE request is read in place
// (findValueRequest): the holder copies nothing of it but the filter
// it parses.

import (
	"encoding/binary"
	"strings"

	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/p2p/codec"
	"repro/internal/transport"
)

func init() {
	// Ping and pong carry the same frame (the pong echoes the ReqID).
	codec.Register(MsgPing, func() codec.Frame { return new(pingPayload) })
	codec.Register(MsgPong, func() codec.Frame { return new(pingPayload) })
	codec.Register(MsgFindNode, func() codec.Frame { return new(findNodePayload) })
	codec.Register(MsgFindNodeReply, func() codec.Frame { return new(findNodeReplyPayload) })
	codec.Register(MsgFindValue, func() codec.Frame { return new(findValuePayload) })
	codec.Register(MsgFindValueReply, func() codec.Frame { return new(findValueReplyPayload) })
	codec.Register(MsgStore, func() codec.Frame { return new(storePayload) })
	codec.Register(MsgUnstore, func() codec.Frame { return new(unstorePayload) })
}

func appendPeers(dst []byte, peers []transport.PeerID) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(peers)))
	for _, p := range peers {
		dst = codec.AppendString(dst, string(p))
	}
	return dst
}

func readPeers(r *codec.Reader) []transport.PeerID {
	n := r.Count(1)
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]transport.PeerID, n)
	for i := range out {
		out[i] = transport.PeerID(r.String())
	}
	return out
}

// appendRecord encodes one record in the DHT's field order; Hops is a
// search's own count and never travels.
func appendRecord(dst []byte, rec *p2p.Result) []byte {
	dst = codec.AppendString(dst, string(rec.DocID))
	dst = codec.AppendString(dst, rec.CommunityID)
	dst = codec.AppendString(dst, rec.Title)
	dst = codec.AppendFields(dst, rec.Attrs)
	return codec.AppendString(dst, string(rec.Provider))
}

// readRecord decodes one record.
func readRecord(r *codec.Reader, out *p2p.Result) {
	out.DocID = index.DocID(r.String())
	out.CommunityID = r.String()
	out.Title = r.String()
	out.Attrs = r.Fields()
	out.Provider = transport.PeerID(r.String())
}

func appendRecords(dst []byte, recs []p2p.Result) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		dst = appendRecord(dst, &recs[i])
	}
	return dst
}

// readRecords decodes a record set.
func readRecords(r *codec.Reader) []p2p.Result {
	n := r.Count(5) // four strings and an attrs count
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]p2p.Result, n)
	for i := range out {
		readRecord(r, &out[i])
	}
	return out
}

// A digest is 12 fixed bytes: count, then sum, little-endian.
func appendDigest(dst []byte, d setDigest) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, d.Count)
	return binary.LittleEndian.AppendUint64(dst, d.Sum)
}

func readDigest(r *codec.Reader) setDigest {
	var b [12]byte
	r.Fixed(b[:])
	return setDigest{Count: binary.LittleEndian.Uint32(b[:4]), Sum: binary.LittleEndian.Uint64(b[4:])}
}

func (p *pingPayload) AppendBinary(dst []byte) []byte {
	return codec.AppendUvarint(dst, p.ReqID)
}

func (p *pingPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.ReqID = r.Uvarint()
	return r.Err()
}

func (p *findNodePayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.ReqID)
	return append(dst, p.Target[:]...)
}

func (p *findNodePayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.ReqID = r.Uvarint()
	r.Fixed(p.Target[:])
	return r.Err()
}

func (p *findNodeReplyPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.ReqID)
	return appendPeers(dst, p.Peers)
}

func (p *findNodeReplyPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.ReqID = r.Uvarint()
	r.ShareStrings()
	p.Peers = readPeers(r)
	return r.Err()
}

func (p *findValuePayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.ReqID)
	dst = append(dst, p.Key[:]...)
	dst = codec.AppendString(dst, p.CommunityID)
	dst = codec.AppendString(dst, p.Filter)
	dst = codec.AppendUvarint(dst, uint64(p.Limit))
	dst = appendDigest(dst, p.Have)
	return codec.AppendBool(dst, p.DigestOnly)
}

func (p *findValuePayload) DecodeBinary(data []byte) error {
	var q findValueRequest
	err := q.read(data)
	*p = q.findValuePayload
	p.CommunityID, p.Filter = string(q.community), string(q.filter)
	return err
}

// findValueRequest is a FIND_VALUE frame read in place, as a holder
// serves it: community and filter are views of the borrowed payload,
// valid until the handler returns, and the embedded payload carries the
// rest with its strings empty. A holder copies nothing of it but the
// filter it parses, and keeps nothing past the handler.
type findValueRequest struct {
	findValuePayload
	community, filter []byte
}

func (q *findValueRequest) read(data []byte) error {
	r := codec.NewReader(data)
	q.ReqID = r.Uvarint()
	r.Fixed(q.Key[:])
	q.community = r.View()
	q.filter = r.View()
	q.Limit = int(r.Uvarint())
	q.Have = readDigest(r)
	q.DigestOnly = r.Bool()
	return r.Err()
}

func (p *findValueReplyPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.ReqID)
	dst = appendRecords(dst, p.Records)
	dst = appendDigest(dst, p.Digest)
	dst = appendPeers(dst, p.Peers)
	return codec.AppendBool(dst, p.Complete)
}

func (p *findValueReplyPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.ReqID = r.Uvarint()
	r.ShareStrings()
	p.Records = readRecords(r)
	p.Digest = readDigest(r)
	p.Peers = readPeers(r)
	p.Complete = r.Bool()
	return r.Err()
}

func (p *storePayload) AppendBinary(dst []byte) []byte {
	dst = append(dst, p.Key[:]...)
	dst = appendRecords(dst, p.Records)
	dst = codec.AppendBool(dst, p.Cached)
	return codec.AppendString(dst, p.Filter)
}

func (p *storePayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	r.Fixed(p.Key[:])
	r.ShareStrings()
	p.Records = readRecords(r)
	for i := range p.Records {
		ownRecord(&p.Records[i])
	}
	p.Cached = r.Bool()
	p.Filter = strings.Clone(r.String()) // a cached set's key in the record store
	return r.Err()
}

func (p *unstorePayload) AppendBinary(dst []byte) []byte {
	dst = append(dst, p.Key[:]...)
	dst = codec.AppendString(dst, string(p.DocID))
	return codec.AppendString(dst, string(p.Provider))
}

func (p *unstorePayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	r.Fixed(p.Key[:])
	p.DocID = index.DocID(r.String())
	p.Provider = transport.PeerID(r.String())
	return r.Err()
}
