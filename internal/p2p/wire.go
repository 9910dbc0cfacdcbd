package p2p

// Binary wire format for the p2p payloads (see internal/p2p/codec).
// Each payload implements codec.Frame; field order here IS the wire
// format, so changes re-baseline golden traces. Every frame registers
// under its transport message type for generic decoding.

import (
	"repro/internal/index"
	"repro/internal/p2p/codec"
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
	if r.src != nil {
		dst = codec.AppendAttrs(dst, r.src.Attrs)
	} else {
		dst = codec.AppendFields(dst, r.Attrs)
	}
	dst = codec.AppendUvarint(dst, uint64(r.Hops))
	return dst
}

// readResult decodes one result of a set in which more follow it.
func readResult(r *codec.Reader, out *Result, more int) {
	out.DocID = index.DocID(r.String())
	out.Provider = transport.PeerID(r.String())
	out.CommunityID = r.String()
	out.Title = r.String()
	out.Attrs = r.Fields(more)
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
// strings are cut from one copy of the frame (codec.Reader.ShareStrings)
// and its attribute sets from chunks sized by the result count: results
// go to the searching caller or into the next hit frame, never into a
// store, so nothing long-lived pins the frame. The results past limit
// are read and dropped, so the whole frame is checked either way.
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
		readResult(r, res, n-1-i)
	}
	return out
}

func appendDocument(dst []byte, d *index.Document) []byte {
	dst = codec.AppendString(dst, string(d.ID))
	dst = codec.AppendString(dst, d.CommunityID)
	dst = codec.AppendString(dst, d.Title)
	dst = codec.AppendString(dst, d.XML)
	dst = codec.AppendAttrs(dst, d.Attrs)
	dst = codec.AppendUvarint(dst, uint64(len(d.Attachments)))
	for _, a := range d.Attachments {
		dst = codec.AppendString(dst, a)
	}
	return dst
}

func readDocument(r *codec.Reader) *index.Document {
	d := &index.Document{
		ID:          index.DocID(r.String()),
		CommunityID: r.String(),
		Title:       r.String(),
		XML:         r.String(),
		Attrs:       r.Fields(0).Map(),
	}
	if n := r.Count(1); n > 0 {
		d.Attachments = make([]string, n)
		for i := range d.Attachments {
			d.Attachments[i] = r.String()
		}
	}
	return d
}

// --- centralized / fasttrack registration ---

func (p *registerPayload) AppendBinary(dst []byte) []byte {
	dst = codec.AppendString(dst, string(p.DocID))
	dst = codec.AppendString(dst, p.CommunityID)
	dst = codec.AppendString(dst, p.Title)
	return codec.AppendAttrs(dst, p.Attrs)
}

func (p *registerPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.readFrom(r, 0)
	return r.Err()
}

// readFrom decodes one registration of a batch in which more follow it.
func (p *registerPayload) readFrom(r *codec.Reader, more int) {
	p.DocID = index.DocID(r.String())
	p.CommunityID = r.String()
	p.Title = r.String()
	p.Attrs = r.Fields(more).Map()
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
			p.Docs[i].readFrom(r, n-1-i)
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
	dst = codec.AppendUvarint(dst, p.GUID)
	dst = codec.AppendString(dst, string(p.Origin))
	dst = codec.AppendString(dst, p.CommunityID)
	dst = codec.AppendString(dst, p.Filter)
	dst = codec.AppendUvarint(dst, uint64(p.TTL))
	return codec.AppendUvarint(dst, uint64(p.Hops))
}

func (p *queryPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.GUID = r.Uvarint()
	p.Origin = transport.PeerID(r.String())
	p.CommunityID = r.String()
	p.Filter = r.String()
	p.TTL = int(r.Uvarint())
	p.Hops = int(r.Uvarint())
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
		dst = appendDocument(dst, p.Doc)
	}
	return dst
}

func (p *fetchReplyPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.ReqID = r.Uvarint()
	p.Found = r.Bool()
	if r.Bool() {
		p.Doc = readDocument(r)
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
	dst = codec.AppendUvarint(dst, p.GUID)
	dst = codec.AppendString(dst, string(p.Origin))
	dst = codec.AppendUvarint(dst, uint64(p.TTL))
	return codec.AppendUvarint(dst, uint64(p.Hops))
}

func (p *pingPayload) DecodeBinary(data []byte) error {
	r := codec.NewReader(data)
	p.GUID = r.Uvarint()
	p.Origin = transport.PeerID(r.String())
	p.TTL = int(r.Uvarint())
	p.Hops = int(r.Uvarint())
	return r.Err()
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
