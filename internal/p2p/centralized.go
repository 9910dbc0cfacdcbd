package p2p

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dsim"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// IndexServer is the Napster-style central index. It stores only
// metadata (attributes + provider); objects stay on their publishing
// peers and are fetched peer-to-peer, exactly like Napster's split
// between central search and direct download.
//
// Metadata lives in the same sharded index.Store the peers use
// locally, so server-side search rides the inverted index, community
// sharding, and result cache instead of scanning a flat entry map;
// the server only adds a provider table mapping each DocID to the
// peers serving it.
type IndexServer struct {
	ep transport.Endpoint

	// mu serializes registration state: providers and the matching
	// store entries mutate together under it (TCP dispatches handlers
	// on per-connection goroutines, so a register and an unregister
	// for one DocID can race), keeping the invariant that every
	// stored document has at least one provider. Searches take
	// mu.RLock across the store query and the provider expansion so
	// they observe one consistent registration state.
	mu        sync.RWMutex
	store     *index.Store
	providers map[index.DocID][]transport.PeerID // registration order
	tracer    *trace.Tracer
	cdc       codec.Codec
}

// NewIndexServer attaches a server to the given endpoint with a
// default store configuration.
func NewIndexServer(ep transport.Endpoint) *IndexServer {
	return NewIndexServerOn(ep, index.NewStore())
}

// NewIndexServerOn attaches a server backed by the given store, so
// deployments tune shard count and cache size to their load.
func NewIndexServerOn(ep transport.Endpoint, store *index.Store) *IndexServer {
	s := &IndexServer{
		ep:        ep,
		store:     store,
		providers: make(map[index.DocID][]transport.PeerID),
		cdc:       codec.Default,
	}
	ep.SetHandler(s.handle)
	return s
}

// SetTracer installs the server's span recorder (nil disables
// tracing, the default). Call before traffic starts.
func (s *IndexServer) SetTracer(t *trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

func (s *IndexServer) tr() *trace.Tracer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tracer
}

// SetCodec installs the wire codec (default codec.Default). Call
// before traffic starts, and use one codec network-wide.
func (s *IndexServer) SetCodec(c codec.Codec) {
	if c != nil {
		s.cdc = c
	}
}

// Len returns the number of distinct registered documents.
func (s *IndexServer) Len() int { return s.store.Len() }

// DropPeer removes all registrations from a peer (simulating a peer
// disconnect noticed by the server). Documents left without any
// provider leave the metadata store in one batch.
func (s *IndexServer) DropPeer(peer transport.PeerID) {
	var orphaned []index.DocID
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, provs := range s.providers {
		kept := provs[:0]
		for _, p := range provs {
			if p != peer {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(s.providers, id)
			orphaned = append(orphaned, id)
		} else {
			s.providers[id] = kept
		}
	}
	s.store.DeleteBatch(orphaned)
}

func (s *IndexServer) handle(msg transport.Message) {
	switch msg.Type {
	case MsgRegister:
		var reg registerPayload
		if err := s.cdc.DecodeValue(&reg, msg.Payload); err != nil {
			return
		}
		sp := s.startSpan(msg, "register.serve")
		s.register(msg.From, []registerPayload{reg})
		sp.Finish()
	case MsgRegisterBatch:
		var batch registerBatchPayload
		if err := s.cdc.DecodeValue(&batch, msg.Payload); err != nil {
			return
		}
		sp := s.startSpan(msg, "register.serve")
		s.register(msg.From, batch.Docs)
		sp.Finish()
	case MsgUnregister:
		var unreg unregisterPayload
		if err := s.cdc.DecodeValue(&unreg, msg.Payload); err != nil {
			return
		}
		s.mu.Lock()
		provs := s.providers[unreg.DocID]
		kept := provs[:0]
		for _, p := range provs {
			if p != msg.From {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(s.providers, unreg.DocID)
			s.store.Delete(unreg.DocID)
		} else {
			s.providers[unreg.DocID] = kept
		}
		s.mu.Unlock()
	case MsgSearch:
		var req searchPayload
		if err := s.cdc.DecodeValue(&req, msg.Payload); err != nil {
			return
		}
		inCtx := trace.Context{Trace: msg.TraceID, Span: msg.SpanID}
		sp := s.startSpan(msg, "search.serve")
		sp.SetCommunity(req.CommunityID)
		tctx := sp.ContextOr(inCtx)
		f, err := query.Parse(req.Filter)
		if err != nil {
			f = query.MatchAll{}
		}
		results := s.search(req.CommunityID, f, req.Limit)
		payload := s.cdc.Encode(&searchHitPayload{ReqID: req.ReqID, Results: results})
		_ = s.ep.Send(transport.Message{
			To:      msg.From,
			Type:    MsgSearchHit,
			Payload: payload,
			TraceID: tctx.Trace,
			SpanID:  tctx.Span,
		})
		sp.AddMsgs(1, int64(len(payload)))
		sp.Finish()
	}
}

// startSpan opens a handler span for an inbound traced frame.
func (s *IndexServer) startSpan(msg transport.Message, op string) trace.ActiveSpan {
	sp := s.tr().StartAt(trace.Context{Trace: msg.TraceID, Span: msg.SpanID}, op, transport.ChainOffset(s.ep))
	sp.SetPeer(string(msg.From))
	return sp
}

// register records from as a provider of each document and upserts the
// metadata in one store batch. Replicas are content-addressed, so a
// re-registration refreshes metadata identically for every provider.
func (s *IndexServer) register(from transport.PeerID, regs []registerPayload) {
	docs := make([]*index.Document, 0, len(regs))
	for _, reg := range regs {
		if reg.DocID == "" {
			continue
		}
		docs = append(docs, &index.Document{
			ID:          reg.DocID,
			CommunityID: reg.CommunityID,
			Title:       reg.Title,
			Attrs:       reg.Attrs,
		})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, doc := range docs {
		provs := s.providers[doc.ID]
		known := false
		for _, p := range provs {
			if p == from {
				known = true
				break
			}
		}
		if !known {
			s.providers[doc.ID] = append(provs, from)
		}
	}
	_ = s.store.PutBatch(docs)
}

func (s *IndexServer) search(communityID string, f query.Filter, limit int) []Result {
	// The whole read runs under mu so the store query and the
	// provider expansion see one consistent registration state
	// (lock order mu -> store, same as register). Every stored
	// document then has at least one provider, so limit docs yield at
	// least limit results and the store never materializes more
	// matches than the client asked for. The results are only encoded
	// into the reply, so they alias the store's immutable documents.
	s.mu.RLock()
	defer s.mu.RUnlock()
	docs := s.store.SearchReadOnly(communityID, f, limit)
	var out []Result
	for _, d := range docs {
		for _, p := range s.providers[d.ID] {
			out = append(out, Result{
				DocID:       d.ID,
				Provider:    p,
				CommunityID: d.CommunityID,
				Title:       d.Title,
				Attrs:       d.Attrs,
			})
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// CentralizedClient is a peer in the centralized protocol: it keeps
// its shared objects in a local store, registers their metadata with
// the index server, and serves fetches from other peers directly.
type CentralizedClient struct {
	ep      transport.Endpoint
	store   *index.Store
	pending *PendingTable
	clk     dsim.Clock
	cdc     codec.Codec
	nm      *NodeMetrics
	// metricsProto labels this client's telemetry; "centralized" here,
	// overridden to "fasttrack" by NewFastTrackLeaf (a leaf is this
	// client pointed at a super-peer).
	metricsProto string
	tracer       *trace.Tracer

	mu     sync.RWMutex
	server transport.PeerID // mutable: Rehome repoints it after failover
	attach AttachmentProvider
	closed bool
}

var _ Network = (*CentralizedClient)(nil)

// NewCentralizedClient attaches a client to the network; server is the
// index server's peer ID. store holds the peer's shared objects.
func NewCentralizedClient(ep transport.Endpoint, server transport.PeerID, store *index.Store) *CentralizedClient {
	c := &CentralizedClient{
		ep:           ep,
		server:       server,
		store:        store,
		pending:      NewPendingTable(),
		clk:          dsim.Wall,
		cdc:          codec.Default,
		metricsProto: "centralized",
	}
	c.nm = NewNodeMetrics(metrics.Discard(), c.metricsProto)
	ep.SetHandler(c.handle)
	return c
}

// SetMetrics points the client's telemetry at reg, labeled with the
// client's protocol. Like SetClock, call before traffic starts;
// metrics are discarded until then.
func (c *CentralizedClient) SetMetrics(reg *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nm = NewNodeMetrics(reg, c.metricsProto)
}

func (c *CentralizedClient) nodeMetrics() *NodeMetrics {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nm
}

// SetTracer installs the client's span recorder (nil disables
// tracing, the default). Call before traffic starts.
func (c *CentralizedClient) SetTracer(t *trace.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
}

func (c *CentralizedClient) tr() *trace.Tracer {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tracer
}

// PeerID implements Network.
func (c *CentralizedClient) PeerID() transport.PeerID { return c.ep.ID() }

// SetClock installs the clock that paces this client's timeouts
// (default wall). Call before traffic starts.
func (c *CentralizedClient) SetClock(clk dsim.Clock) {
	if clk != nil {
		c.clk = clk
	}
}

// SetCodec installs the wire codec (default codec.Default). Call
// before traffic starts, and use one codec network-wide.
func (c *CentralizedClient) SetCodec(cd codec.Codec) {
	if cd != nil {
		c.cdc = cd
	}
}

// Server returns the index server (or super-peer) this client is
// currently attached to.
func (c *CentralizedClient) Server() transport.PeerID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.server
}

// SetAttachmentProvider implements Network.
func (c *CentralizedClient) SetAttachmentProvider(p AttachmentProvider) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attach = p
}

// Publish implements Network: store locally, register centrally.
func (c *CentralizedClient) Publish(doc *index.Document) error {
	if err := c.store.Put(doc); err != nil {
		return err
	}
	c.nodeMetrics().Publishes.Inc()
	sp := c.tr().Root("publish")
	sp.SetPeer(string(c.Server()))
	sp.SetCommunity(doc.CommunityID)
	defer sp.Finish()
	tctx := sp.Context()
	reg := registerPayloadFor(doc)
	payload := c.cdc.Encode(&reg)
	sp.AddMsgs(1, int64(len(payload)))
	return c.ep.Send(transport.Message{
		To:      c.Server(),
		Type:    MsgRegister,
		Payload: payload,
		TraceID: tctx.Trace,
		SpanID:  tctx.Span,
	})
}

// PublishBatch implements Network: one local store batch plus one
// register-batch frame per chunk, so bulk publication costs one shard
// lock round and one server message per few hundred documents instead
// of one each per document.
func (c *CentralizedClient) PublishBatch(docs []*index.Document) error {
	if len(docs) == 0 {
		return nil
	}
	if err := c.store.PutBatch(docs); err != nil {
		return err
	}
	c.nodeMetrics().Publishes.Add(int64(len(docs)))
	return c.registerBatch(c.Server(), docs)
}

// registerBatch streams docs to the given server in register-batch
// chunks, recorded as one "register" root span when sampled.
func (c *CentralizedClient) registerBatch(server transport.PeerID, docs []*index.Document) error {
	sp := c.tr().Root("register")
	sp.SetPeer(string(server))
	defer sp.Finish()
	tctx := sp.Context()
	for start := 0; start < len(docs); start += registerBatchChunk {
		end := start + registerBatchChunk
		if end > len(docs) {
			end = len(docs)
		}
		regs := make([]registerPayload, 0, end-start)
		for _, doc := range docs[start:end] {
			regs = append(regs, registerPayloadFor(doc))
		}
		payload := c.cdc.Encode(&registerBatchPayload{Docs: regs})
		err := c.ep.Send(transport.Message{
			To:      server,
			Type:    MsgRegisterBatch,
			Payload: payload,
			TraceID: tctx.Trace,
			SpanID:  tctx.Span,
		})
		sp.AddMsgs(1, int64(len(payload)))
		if err != nil {
			sp.SetErr(err)
			return err
		}
	}
	return nil
}

// Rehome repoints the client at a new server (FastTrack leaves call
// this when their super-peer fails) and re-registers every locally
// stored document with it — ReannounceLocal over the register-batch
// wire path, driven by the caller's failure-detection schedule rather
// than an internal wall-clock timer.
func (c *CentralizedClient) Rehome(server transport.PeerID) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.server = server
	c.mu.Unlock()
	return ReannounceLocal(c.store, func(docs []*index.Document) error {
		return c.registerBatch(server, docs)
	})
}

// Unpublish implements Network.
func (c *CentralizedClient) Unpublish(id index.DocID) error {
	c.store.Delete(id)
	return c.ep.Send(transport.Message{
		To:      c.Server(),
		Type:    MsgUnregister,
		Payload: c.cdc.Encode(&unregisterPayload{DocID: id}),
	})
}

// Search implements Network: one round trip to the index server.
func (c *CentralizedClient) Search(communityID string, f query.Filter, opts SearchOptions) ([]Result, error) {
	if f == nil {
		f = query.MatchAll{}
	}
	nm := c.nodeMetrics()
	start := c.clk.Now()
	sp := c.tr().Start(opts.Trace, "search")
	sp.SetCommunity(communityID)
	sp.SetPeer(string(c.Server()))
	defer sp.Finish()
	tctx := sp.ContextOr(opts.Trace)
	reqID, ch := c.pending.Create()
	payload := c.cdc.Encode(&searchPayload{
		ReqID:       reqID,
		CommunityID: communityID,
		Filter:      f.String(),
		Limit:       opts.Limit,
	})
	err := c.ep.Send(transport.Message{
		To:      c.Server(),
		Type:    MsgSearch,
		Payload: payload,
		TraceID: tctx.Trace,
		SpanID:  tctx.Span,
	})
	sp.AddMsgs(1, int64(len(payload)))
	if err != nil {
		c.pending.Drop(reqID)
		nm.CountError(err)
		sp.SetErr(err)
		return nil, fmt.Errorf("p2p: search: %w", err)
	}
	got, err := Await(c.clk, c.ep.Synchronous(), ch, opts.Timeout)
	if err != nil {
		c.pending.Drop(reqID)
		nm.CountError(err)
		sp.SetErr(err)
		return nil, err
	}
	hit, ok := got.(*searchHitPayload)
	if !ok {
		return nil, fmt.Errorf("p2p: search reply: unexpected frame %T", got)
	}
	nm.ObserveSearch(c.clk, start, len(hit.Results))
	return hit.Results, nil
}

// Retrieve implements Network: direct peer-to-peer download.
func (c *CentralizedClient) Retrieve(id index.DocID, from transport.PeerID) (*index.Document, error) {
	if from == c.PeerID() {
		return c.store.Get(id)
	}
	nm := c.nodeMetrics()
	sp := c.tr().Root("fetch")
	sp.SetPeer(string(from))
	defer sp.Finish()
	doc, err := RetrieveFrom(c.cdc, c.clk, c.ep, c.pending, &sp, id, from, 0)
	if err != nil {
		nm.CountError(err)
		return nil, err
	}
	nm.Fetches.Inc()
	return doc, nil
}

// RetrieveAttachment implements Network.
func (c *CentralizedClient) RetrieveAttachment(uri string, from transport.PeerID) ([]byte, error) {
	sp := c.tr().Root("attachment")
	sp.SetPeer(string(from))
	defer sp.Finish()
	return RetrieveAttachmentFrom(c.cdc, c.clk, c.ep, c.pending, &sp, uri, from, 0)
}

// Close implements Network.
func (c *CentralizedClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.ep.Close()
}

func (c *CentralizedClient) handle(msg transport.Message) {
	switch msg.Type {
	case MsgSearchHit:
		var hit searchHitPayload
		if err := c.cdc.DecodeValue(&hit, msg.Payload); err != nil {
			return
		}
		c.pending.Resolve(hit.ReqID, &hit)
	case MsgFetchReply, MsgAttachmentReply:
		ResolveRetrievalReply(c.cdc, c.pending, msg)
	case MsgFetch:
		ServeFetch(c.cdc, c.tr(), c.ep, c.store, msg)
	case MsgAttachment:
		c.mu.RLock()
		p := c.attach
		c.mu.RUnlock()
		ServeAttachment(c.cdc, c.tr(), c.ep, p, msg)
	}
}

// timeoutOr returns opts timeout or the default.
func timeoutOr(d time.Duration) time.Duration {
	if d <= 0 {
		return DefaultTimeout
	}
	return d
}
