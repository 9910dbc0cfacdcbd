package p2p

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/index"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

// TestHubRegistry runs one registration history against both hubs — the
// IndexServer under two Napster clients and a lone SuperPeer under two
// FastTrack leaves — and checks every search of it, in order: documents
// in DocID order, each one's providers in registration order.
func TestHubRegistry(t *testing.T) {
	type hub interface {
		DropPeer(transport.PeerID)
		Len() int
	}
	kinds := []struct {
		name   string
		hub    func(transport.Endpoint) hub
		client func(transport.Endpoint) Network
	}{
		{"indexserver",
			func(ep transport.Endpoint) hub { return NewIndexServer(ep) },
			func(ep transport.Endpoint) Network { return NewCentralizedClient(ep, "hub", index.NewStore()) }},
		{"superpeer",
			func(ep transport.Endpoint) hub { return NewSuperPeer(ep) },
			func(ep transport.Endpoint) Network { return NewFastTrackLeaf(ep, "hub", index.NewStore()) }},
	}
	d1 := doc("d1", "a", "One", map[string]string{"k": "v"})
	d2 := doc("d2", "a", "Two", map[string]string{"k": "v"})
	d3 := doc("d3", "b", "Three", map[string]string{"k": "w"})
	type step struct {
		name      string
		do        func(h hub, p []Network) error
		community string
		filter    string
		limit     int
		want      []string // "docID/provider"
		wantLen   int
	}
	publish := func(i int, d *index.Document) func(hub, []Network) error {
		return func(_ hub, p []Network) error { return p[i].Publish(d) }
	}
	steps := []step{
		{name: "register", do: func(_ hub, p []Network) error { return p[0].PublishBatch([]*index.Document{d2, d1}) },
			community: "a", want: []string{"d1/p0", "d2/p0"}, wantLen: 2},
		{name: "second provider is appended", do: publish(1, d1),
			community: "a", want: []string{"d1/p0", "d1/p1", "d2/p0"}, wantLen: 2},
		{name: "re-register keeps the provider's place", do: publish(0, d1),
			community: "a", want: []string{"d1/p0", "d1/p1", "d2/p0"}, wantLen: 2},
		{name: "limit counts results, not documents",
			community: "a", limit: 2, want: []string{"d1/p0", "d1/p1"}, wantLen: 2},
		{name: "limit 1",
			community: "a", limit: 1, want: []string{"d1/p0"}, wantLen: 2},
		{name: "community scoping", do: publish(1, d3),
			community: "b", want: []string{"d3/p1"}, wantLen: 3},
		{name: "empty community searches all",
			want: []string{"d1/p0", "d1/p1", "d2/p0", "d3/p1"}, wantLen: 3},
		{name: "filter",
			filter: "(k=w)", want: []string{"d3/p1"}, wantLen: 3},
		{name: "unregister leaves the other provider", do: func(_ hub, p []Network) error { return p[0].Unpublish("d1") },
			want: []string{"d1/p1", "d2/p0", "d3/p1"}, wantLen: 3},
		{name: "unregister of the last provider drops the document", do: func(_ hub, p []Network) error { return p[0].Unpublish("d2") },
			want: []string{"d1/p1", "d3/p1"}, wantLen: 2},
		{name: "DropPeer removes only that peer's registrations",
			do: func(h hub, p []Network) error {
				if err := p[0].PublishBatch([]*index.Document{d1, d2}); err != nil {
					return err
				}
				h.DropPeer("p1")
				return nil
			},
			want: []string{"d1/p0", "d2/p0"}, wantLen: 2},
		{name: "DropPeer of the last provider empties the hub",
			do:   func(h hub, _ []Network) error { h.DropPeer("p0"); return nil },
			want: nil, wantLen: 0},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			net := transport.NewMemNetwork()
			ep, err := net.Endpoint("hub")
			if err != nil {
				t.Fatal(err)
			}
			h := kind.hub(ep)
			var peers []Network
			for i := 0; i < 2; i++ {
				ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("p%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				peers = append(peers, kind.client(ep))
			}
			for _, st := range steps {
				if st.do != nil {
					if err := st.do(h, peers); err != nil {
						t.Fatalf("%s: %v", st.name, err)
					}
				}
				f := query.Filter(query.MatchAll{})
				if st.filter != "" {
					f = query.MustParse(st.filter)
				}
				rs, err := peers[0].Search(st.community, f, SearchOptions{Limit: st.limit})
				if err != nil {
					t.Fatalf("%s: search: %v", st.name, err)
				}
				var got []string
				for _, r := range rs {
					got = append(got, fmt.Sprintf("%s/%s", r.DocID, r.Provider))
				}
				if !reflect.DeepEqual(got, st.want) {
					t.Errorf("%s: results %v, want %v", st.name, got, st.want)
				}
				if n := h.Len(); n != st.wantLen {
					t.Errorf("%s: Len %d, want %d", st.name, n, st.wantLen)
				}
			}
		})
	}
}

// TestRegistrationsOwnTheirBytes: a hub stores each registration's
// strings and attribute set as copies of its own. The index server
// reads a register-batch and a register frame, each payload is
// overwritten once its handler returns, and the stored entries, and the
// search-hit written from them, still read as registered. Then one
// registration of the batch is withdrawn, and its attribute set is
// collected while the other stays stored: a substring of one copy of
// the frame, as a hit decoder shares one (codec.Reader.ShareStrings),
// would keep a whole batch of up to registerBatchChunk registrations
// alive while any one of them lives.
func TestRegistrationsOwnTheirBytes(t *testing.T) {
	ep, err := transport.NewMemNetwork().Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	is := NewIndexServer(ep)
	regs := make([]registerPayload, 3)
	for i := range regs {
		// One word a value, none shared: no index key of one entry is
		// another's, so a withdrawn entry leaves nothing in the index.
		regs[i] = registerPayload{DocID: index.DocID(fmt.Sprintf("doc-%d", i)), CommunityID: "patterns", Title: fmt.Sprintf("Pattern %d", i),
			Attrs: query.FieldsOf(query.Attrs{"name": {fmt.Sprintf("pattern%d-%s", i, strings.Repeat("x", 24))}, "none": {}})}
	}
	arrive := func(typ string, f codec.Frame) {
		payload := codec.Encode(f)
		is.handle(transport.Message{From: "leaf", To: "server", Type: typ, Payload: payload})
		for i := range payload {
			payload[i] = ^payload[i]
		}
	}
	arrive(MsgRegisterBatch, &registerBatchPayload{Docs: regs[:2]})
	arrive(MsgRegister, &regs[2])

	var want []Result
	for _, reg := range regs {
		if e, ok := is.store.Entry(reg.DocID); !ok || !reflect.DeepEqual(e, reg.entry()) {
			t.Errorf("stored %+v, registered %+v", e, reg.entry())
		}
		want = append(want, Result{DocID: reg.DocID, Provider: "leaf", CommunityID: reg.CommunityID, Title: reg.Title, Attrs: reg.Attrs})
	}
	got, _, _ := appendHit(nil, 9, &is.registry, "patterns", []byte("(*)"), 0, 0)
	if enc := codec.Encode(&searchHitPayload{ReqID: 9, Results: want}); !bytes.Equal(got, enc) {
		t.Errorf("search-hit\n%x\nwant\n%x", got, enc)
	}

	freed := new(atomic.Bool)
	if e, ok := is.store.Entry("doc-0"); ok {
		runtime.AddCleanup(unsafe.StringData(e.Attrs.Get("name")), func(f *atomic.Bool) { f.Store(true) }, freed)
	}
	arrive(MsgUnregister, &unregisterPayload{DocID: "doc-0"})
	if !is.store.Has("doc-1") || is.store.Has("doc-0") {
		t.Fatal("the withdrawal did not leave doc-1 alone in the store")
	}
	runtime.GC()
	for deadline := time.Now().Add(5 * time.Second); !freed.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Error("a withdrawn registration's attribute set stays alive beside another of its batch")
	}
	runtime.KeepAlive(is) // the store holds doc-1 throughout
}
