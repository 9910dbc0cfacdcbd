package p2p

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/transport"
)

// TestSuperPeerChurnRace hammers one super-peer with concurrent leaf
// registration, unregistration, drops, and leaf searches — the exact
// interleaving super-peer churn produces over an asynchronous
// transport. Run under -race (the CI race job covers internal/...):
// the point is that registration, DropPeer and handleLeafSearch share
// the registry safely. Afterward the index must contain exactly the
// registrations of leaves that were never dropped.
func TestSuperPeerChurnRace(t *testing.T) {
	net := transport.NewMemNetwork()
	sep, err := net.Endpoint("super")
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSuperPeer(sep)

	const (
		churners = 4  // leaves that register and get dropped repeatedly
		keepers  = 3  // leaves whose registrations must survive
		rounds   = 50 // register/drop cycles per churner
	)
	attrs := query.Attrs{}
	attrs.Add("kind", "thing")

	newLeaf := func(name string) *FastTrackLeaf {
		ep, err := net.Endpoint(transport.PeerID(name))
		if err != nil {
			t.Fatal(err)
		}
		return NewFastTrackLeaf(ep, "super", index.NewStore())
	}

	var wg sync.WaitGroup
	// Keepers publish once and then search in a loop.
	for k := 0; k < keepers; k++ {
		leaf := newLeaf(fmt.Sprintf("keeper%d", k))
		doc := &index.Document{
			ID:          index.DocID(fmt.Sprintf("keep-%d", k)),
			CommunityID: "c",
			Title:       "kept",
			Attrs:       attrs,
		}
		if err := leaf.Publish(doc); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(leaf *FastTrackLeaf) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := leaf.Search("c", query.MustParse("(kind=thing)"), SearchOptions{}); err != nil {
					t.Errorf("leaf search: %v", err)
					return
				}
			}
		}(leaf)
	}
	// Churners register batches; a paired goroutine drops them.
	for c := 0; c < churners; c++ {
		leaf := newLeaf(fmt.Sprintf("churn%d", c))
		id := leaf.PeerID()
		wg.Add(2)
		go func(leaf *FastTrackLeaf, c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				docs := []*index.Document{
					{ID: index.DocID(fmt.Sprintf("churn-%d-a", c)), CommunityID: "c", Attrs: attrs},
					{ID: index.DocID(fmt.Sprintf("churn-%d-b", c)), CommunityID: "c", Attrs: attrs},
				}
				if err := leaf.PublishBatch(docs); err != nil {
					t.Errorf("publish batch: %v", err)
					return
				}
				if i%3 == 0 {
					if err := leaf.Unpublish(docs[0].ID); err != nil {
						t.Errorf("unpublish: %v", err)
						return
					}
				}
			}
		}(leaf, c)
		go func(id transport.PeerID) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sp.DropPeer(id)
			}
		}(id)
	}
	wg.Wait()

	// Quiesce: drop every churner once more, so only keepers remain.
	for c := 0; c < churners; c++ {
		sp.DropPeer(transport.PeerID(fmt.Sprintf("churn%d", c)))
	}
	if got := sp.Len(); got != keepers {
		t.Errorf("super-peer index has %d documents after churn, want %d", got, keepers)
	}
	probe := newLeaf("probe")
	rs, err := probe.Search("c", query.MustParse("(kind=thing)"), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[index.DocID]bool{}
	for _, r := range rs {
		seen[r.DocID] = true
	}
	if len(seen) != keepers {
		t.Errorf("post-churn search sees %d distinct docs, want %d: %v", len(seen), keepers, seen)
	}
	for k := 0; k < keepers; k++ {
		if !seen[index.DocID(fmt.Sprintf("keep-%d", k))] {
			t.Errorf("keeper %d's registration lost during churn", k)
		}
	}
}
