package p2p

// Binary wire format for the p2p payloads (see internal/p2p/codec).
// Each payload implements codec.Frame; field order here IS the wire
// format, so changes re-baseline golden traces. Every frame registers
// under its transport message type for generic decoding.

import (
	"repro/internal/index"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

func init() {
	codec.Register(MsgRegister, func() codec.Frame { return new(registerPayload) })
	codec.Register(MsgRegisterBatch, func() codec.Frame { return new(registerBatchPayload) })
	codec.Register(MsgUnregister, func() codec.Frame { return new(unregisterPayload) })
	codec.Register(MsgSearch, func() codec.Frame { return new(searchPayload) })
	codec.Register(MsgSearchHit, func() codec.Frame { return new(searchHitPayload) })
	codec.Register(MsgQuery, func() codec.Frame { return new(queryPayload) })
	codec.Register(MsgQueryHit, func() codec.Frame { return new(queryHitPayload) })
	codec.Register(MsgFetch, func() codec.Frame { return new(fetchPayload) })
	codec.Register(MsgFetchReply, func() codec.Frame { return new(fetchReplyPayload) })
	codec.Register(MsgAttachment, func() codec.Frame { return new(attachmentPayload) })
	codec.Register(MsgAttachmentReply, func() codec.Frame { return new(attachmentReplyPayload) })
	codec.Register(MsgPing, func() codec.Frame { return new(pingPayload) })
	codec.Register(MsgPong, func() codec.Frame { return new(pongPayload) })
}

// --- shared composites ---

func appendResult(dst []byte, r *Result) []byte {
	dst = codec.AppendString(dst, string(r.DocID))
	dst = codec.AppendString(dst, string(r.Provider))
	dst = codec.AppendString(dst, r.CommunityID)
	dst = codec.AppendString(dst, r.Title)
	dst = codec.AppendFields(dst, r.Attrs)
	return codec.AppendUvarint(dst, uint64(r.Hops))
}

// appendEntryResult writes the result one of a node's store entries
// makes, provided by provider, when the node answers a remote search.
func appendEntryResult(dst []byte, e *index.Entry, provider transport.PeerID, hops int) []byte {
	r := ResultOf(e, provider)
	r.Hops = hops
	return appendResult(dst, &r)
}

// answerer is a node that answers a remote search from its own store:
// appendAnswer appends its matches to dst as a hit frame's result set
// (the count, then the results appendResult would write), at most
// limit of them (0 = all), each with hop count hops, and returns how
// many it wrote.
type answerer interface {
	appendAnswer(dst []byte, communityID string, f query.Filter, limit, hops int) ([]byte, int)
}

// appendHit appends the query-hit or search-hit — the two share a
// layout: an id, then a result set — that answers a remote search,
// written straight from the answering node's store (answerer), so no
// Result is built for it. It returns how many results the hit holds.
func appendHit(dst []byte, id uint64, from answerer, communityID string, f query.Filter, limit, hops int) ([]byte, int) {
	return from.appendAnswer(codec.AppendUvarint(dst, id), communityID, f, limit, hops)
}

// readResult decodes one result.
func readResult(r *codec.Reader, out *Result) {
	out.DocID = index.DocID(r.String())
	out.Provider = transport.PeerID(r.String())
	out.CommunityID = r.String()
	out.Title = r.String()
	out.Attrs = r.Fields()
	out.Hops = int(r.Uvarint())
}

func appendResults(dst []byte, rs []Result) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(rs)))
	for i := range rs {
		dst = appendResult(dst, &rs[i])
	}
	return dst
}

// readResults decodes the result set that ends a query-hit or
// search-hit frame, keeping at most limit results (0 = all). Its
// strings and attribute sets are cut from one copy of the frame
// (codec.Reader.ShareStrings): results go to the searching caller or
// into the next hit frame, never into a store, so nothing long-lived
// pins the frame. The results past limit are read and dropped, so the
// whole frame is checked either way.
func readResults(r *codec.Reader, limit int) []Result {
	n := r.Count(6) // four strings, an attrs count and a hop count
	if r.Err() != nil || n == 0 {
		return nil
	}
	r.ShareStrings()
	keep := n
	if limit > 0 {
		keep = min(n, limit)
	}
	out := make([]Result, keep)
	var past Result
	for i := 0; i < n; i++ {
		res := &past
		if i < len(out) {
			res = &out[i]
		}
		readResult(r, res)
	}
	return out
}

func appendEntry(dst []byte, e *index.Entry) []byte {
	dst = codec.AppendString(dst, string(e.ID))
	dst = codec.AppendString(dst, e.CommunityID)
	dst = codec.AppendString(dst, e.Title)
	dst = codec.AppendString(dst, e.XML)
	dst = codec.AppendFields(dst, e.Attrs)
	dst = codec.AppendUvarint(dst, uint64(len(e.Attachments)))
	for _, a := range e.Attachments {
		dst = codec.AppendString(dst, a)
	}
	return dst
}

// readEntry decodes a fetched document. Every string is a copy of its
// own, so the entry pins nothing of the frame.
func readEntry(r *codec.Reader) *index.Entry {
	e := &index.Entry{
		ID:          index.DocID(r.String()),
		CommunityID: r.String(),
		Title:       r.String(),
		XML:         r.String(),
		Attrs:       r.Fields(),
	}
	if n := r.Count(1); n > 0 {
		e.Attachments = make([]string, n)
		for i := range e.Attachments {
			e.Attachments[i] = r.String()
		}
	}
	return e
}

// --- centralized / fasttrack registration ---

func (p *registerPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendString(dst, string(p.DocID))
	dst = codec.AppendString(dst, p.CommunityID)
	dst = codec.AppendString(dst, p.Title)
	return codec.AppendFields(dst, p.Attrs)
}

func (p *registerPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.readFrom(r)
	return r.Err()
}

// readFrom decodes one registration. Every string, the attribute set
// included, is a copy of its own: a hub stores them, and a substring of
// one copy of the frame would keep a whole batch's bytes alive for as
// long as any of its registrations lives.
func (p *registerPayload) readFrom(r *codec.Reader) {
	p.DocID = index.DocID(r.String())
	p.CommunityID = r.String()
	p.Title = r.String()
	p.Attrs = r.Fields()
}

func (p *registerBatchPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(p.Docs)))
	for i := range p.Docs {
		dst = p.Docs[i].AppendBinary(dst)
	}
	return dst
}

func (p *registerBatchPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	if n := r.Count(4); n > 0 { // three strings and an attrs count
		p.Docs = make([]registerPayload, n)
		for i := range p.Docs {
			p.Docs[i].readFrom(r)
		}
	}
	return r.Err()
}

func (p *unregisterPayload) AppendBinary(dst []byte) []byte {
	return codec.AppendString(dst, string(p.DocID))
}

func (p *unregisterPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.DocID = index.DocID(r.String())
	return r.Err()
}

func (p *searchPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.ReqID)
	dst = codec.AppendString(dst, p.CommunityID)
	dst = codec.AppendString(dst, p.Filter)
	return codec.AppendUvarint(dst, uint64(p.Limit))
}

func (p *searchPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.ReqID = r.Uvarint()
	p.CommunityID = r.String()
	p.Filter = r.String()
	p.Limit = int(r.Uvarint())
	return r.Err()
}

func (p *searchHitPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.ReqID)
	return appendResults(dst, p.Results)
}

func (p *searchHitPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.ReqID = r.Uvarint()
	p.Results = readResults(r, 0)
	return r.Err()
}

// --- gnutella flooding ---

func (p *queryPayload) AppendBinary(dst []byte) []byte {
	return appendQuery(dst, p, false, string(p.Origin), p.CommunityID, p.Filter)
}

// appendQuery writes a query frame: p's numbers and the given strings,
// a payload's own or the views a relay read in place (queryView). With
// ping set it writes the ping frame, which is a query frame without the
// community and the filter.
func appendQuery[T ~string | ~[]byte](dst []byte, p *queryPayload, ping bool, origin, community, filter T) []byte {
	dst = codec.AppendUvarint(dst, p.GUID)
	strs, n := [...]T{origin, community, filter}, 3
	if ping {
		n = 1
	}
	for _, s := range strs[:n] {
		dst = append(codec.AppendUvarint(dst, uint64(len(s))), s...)
	}
	dst = codec.AppendUvarint(dst, uint64(p.TTL))
	return codec.AppendUvarint(dst, uint64(p.Hops))
}

func (p *queryPayload) DecodeBinary(data []byte) error {
	var q queryView
	err := q.DecodeBinary(data)
	*p = q.queryPayload
	p.Origin, p.CommunityID, p.Filter = transport.PeerID(q.origin), string(q.community), string(q.filter)
	return err
}

// queryView is a query frame, or with ping set a ping frame, read in
// place, as a relay reads the first arrival of a flood: its strings are
// views of the borrowed payload,
// valid until the handler returns, so reading it copies nothing; the
// embedded payload carries the numbers and leaves its strings empty.
// Encoding it writes the query frame it was read from, with whatever
// TTL and hop count the relay set, so forwarding copies nothing of the
// payload but into the frame it sends.
type queryView struct {
	queryPayload
	origin, community, filter []byte
	ping                      bool
}

func (q *queryView) AppendBinary(dst []byte) []byte {
	return appendQuery(dst, &q.queryPayload, q.ping, q.origin, q.community, q.filter)
}

func (q *queryView) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	q.GUID = r.Uvarint()
	q.origin = r.View()
	if !q.ping {
		q.community = r.View()
		q.filter = r.View()
	}
	q.TTL = int(r.Uvarint())
	q.Hops = int(r.Uvarint())
	return r.Err()
}

func (p *queryHitPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.GUID)
	return appendResults(dst, p.Results)
}

func (p *queryHitPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.GUID = r.Uvarint()
	p.Results = readResults(r, 0)
	return r.Err()
}

// --- shared retrieval ---

func (p *fetchPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.ReqID)
	return codec.AppendString(dst, string(p.DocID))
}

func (p *fetchPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.ReqID = r.Uvarint()
	p.DocID = index.DocID(r.String())
	return r.Err()
}

func (p *fetchReplyPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.ReqID)
	dst = codec.AppendBool(dst, p.Found)
	hasDoc := p.Doc != nil
	dst = codec.AppendBool(dst, hasDoc)
	if hasDoc {
		dst = appendEntry(dst, p.Doc)
	}
	return dst
}

func (p *fetchReplyPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.ReqID = r.Uvarint()
	p.Found = r.Bool()
	if r.Bool() {
		p.Doc = readEntry(r)
	}
	return r.Err()
}

func (p *attachmentPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.ReqID)
	return codec.AppendString(dst, p.URI)
}

func (p *attachmentPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.ReqID = r.Uvarint()
	p.URI = r.String()
	return r.Err()
}

func (p *attachmentReplyPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.ReqID)
	dst = codec.AppendBool(dst, p.Found)
	return codec.AppendBytes(dst, p.Data)
}

func (p *attachmentReplyPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.ReqID = r.Uvarint()
	p.Found = r.Bool()
	p.Data = r.Bytes()
	return r.Err()
}

// --- ping/pong discovery ---

func (p *pingPayload) AppendBinary(dst []byte) []byte {
	return appendQuery(dst, &queryPayload{GUID: p.GUID, TTL: p.TTL, Hops: p.Hops}, true, string(p.Origin), "", "")
}

func (p *pingPayload) DecodeBinary(data []byte) error {
	q := queryView{ping: true}
	err := q.DecodeBinary(data)
	*p = pingPayload{GUID: q.GUID, Origin: transport.PeerID(q.origin), TTL: q.TTL, Hops: q.Hops}
	return err
}

func (p *pongPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, p.GUID)
	dst = codec.AppendString(dst, string(p.Peer))
	return codec.AppendUvarint(dst, uint64(p.Hops))
}

func (p *pongPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.GUID = r.Uvarint()
	p.Peer = transport.PeerID(r.String())
	p.Hops = int(r.Uvarint())
	return r.Err()
}
