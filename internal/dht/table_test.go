package dht

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/transport"
)

func peerName(i int) transport.PeerID {
	return transport.PeerID(fmt.Sprintf("peer%04d", i))
}

// TestXORMetricInvariants checks the metric axioms Kademlia routing
// relies on: identity, symmetry, and the XOR triangle equality-based
// inequality d(a,c) <= d(a,b) ^ d(b,c) == d(a,b) XOR d(b,c).
func TestXORMetricInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randID := func() ID {
		var id ID
		rng.Read(id[:])
		return id
	}
	for trial := 0; trial < 200; trial++ {
		a, b, c := randID(), randID(), randID()
		if a.XOR(a) != (ID{}) {
			t.Fatal("d(a,a) != 0")
		}
		if a.XOR(b) != b.XOR(a) {
			t.Fatal("XOR not symmetric")
		}
		// Unidirectionality via algebra: d(a,b)^d(b,c) == d(a,c).
		ab, bc, ac := a.XOR(b), b.XOR(c), a.XOR(c)
		if ab.XOR(bc) != ac {
			t.Fatal("XOR composition broken")
		}
		// CompareDistance is consistent with the numeric distance.
		if got := CompareDistance(a, b, c); got != -CompareDistance(b, a, c) {
			t.Fatalf("CompareDistance not antisymmetric: %d", got)
		}
		if CompareDistance(a, a, c) != 0 {
			t.Fatal("CompareDistance(a,a) != 0")
		}
	}
}

// TestBucketIndex pins the bucket convention: the index of the most
// significant differing bit, -1 for identical IDs, and consistency
// with distance ordering (a larger bucket index means a farther
// contact).
func TestBucketIndex(t *testing.T) {
	var zero ID
	if got := BucketIndex(zero, zero); got != -1 {
		t.Fatalf("BucketIndex(self) = %d", got)
	}
	one := ID{}
	one[IDBytes-1] = 1 // least significant bit
	if got := BucketIndex(zero, one); got != 0 {
		t.Fatalf("LSB bucket = %d, want 0", got)
	}
	top := ID{}
	top[0] = 0x80 // most significant bit
	if got := BucketIndex(zero, top); got != IDBits-1 {
		t.Fatalf("MSB bucket = %d, want %d", got, IDBits-1)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		var a, b ID
		rng.Read(a[:])
		rng.Read(b[:])
		bi := BucketIndex(a, b)
		if bi < 0 || bi >= IDBits {
			t.Fatalf("bucket out of range: %d", bi)
		}
		// All IDs in a lower bucket are strictly closer.
		if CompareDistance(a, b, a) >= 0 {
			// sanity: a is always closest to itself
			t.Fatal("self not closest to self")
		}
	}
}

// TestClosestMatchesBruteForce cross-checks Table.Closest against a
// brute-force oracle over random peer populations: the same k nearest
// contacts in the same order, for fixed k, random ones up to beyond the
// table's size and k = 0 (all of them), appended after what dst already
// held.
func TestClosestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		self := NodeIDFor(peerName(10000 + trial))
		tab := NewTable(self, 8)
		population := make([]Contact, 0, 300)
		for i := 0; i < 300; i++ {
			p := peerName(rng.Intn(5000))
			tab.Observe(p)
			population = append(population, ContactFor(p))
		}
		// The oracle only considers contacts the table actually kept
		// (full buckets park overflow in the replacement cache), so
		// collect the live set via Closest with no cap first.
		live := tab.Closest(self, 0)
		for _, target := range []ID{NodeIDFor(peerName(1)), NodeIDFor(peerName(42)), NodeIDFor(peerName(4999)), self, live[0].ID} {
			want := append([]Contact(nil), live...)
			sortByDistance(want, target)
			for _, k := range []int{0, 1, 5, 8, 50, 1 + rng.Intn(len(live)), len(live) + rng.Intn(8)} {
				got := tab.ClosestAppend([]Contact{{Peer: "held"}}, target, k)
				if got[0].Peer != "held" {
					t.Fatalf("ClosestAppend overwrote dst[0] with %s", got[0].Peer)
				}
				got = got[1:]
				wantK := want
				if k > 0 && len(wantK) > k {
					wantK = wantK[:k]
				}
				if len(got) != len(wantK) {
					t.Fatalf("Closest len = %d, want %d", len(got), len(wantK))
				}
				for i := range got {
					if got[i].Peer != wantK[i].Peer {
						t.Fatalf("Closest[%d] = %s, want %s", i, got[i].Peer, wantK[i].Peer)
					}
				}
			}
		}
	}
}

// TestBucketLRUAndEviction exercises the k-bucket lifecycle: capacity
// k per bucket, re-observation moves a contact to the fresh end,
// overflow parks in the replacement cache, and Remove promotes the
// freshest candidate.
func TestBucketLRUAndEviction(t *testing.T) {
	self := NodeIDFor("self")
	tab := NewTable(self, 2)

	// Find four peers sharing one bucket so the bucket overflows.
	byBucket := map[int][]transport.PeerID{}
	var bucket int = -1
	var crowd []transport.PeerID
	for i := 0; i < 2000 && bucket < 0; i++ {
		p := peerName(i)
		bi := BucketIndex(self, NodeIDFor(p))
		byBucket[bi] = append(byBucket[bi], p)
		if len(byBucket[bi]) == 4 {
			bucket, crowd = bi, byBucket[bi]
		}
	}
	if bucket < 0 {
		t.Fatal("no crowded bucket found")
	}
	a, b, c, d := crowd[0], crowd[1], crowd[2], crowd[3]
	tab.Observe(a)
	tab.Observe(b)
	if tab.Len() != 2 {
		t.Fatalf("len = %d", tab.Len())
	}
	// Bucket full: c and d park in the replacement cache.
	tab.Observe(c)
	tab.Observe(d)
	if tab.Len() != 2 {
		t.Fatalf("replacement cache leaked into live set: len = %d", tab.Len())
	}
	// Oldest live contact is a; re-observing a freshens it so b
	// becomes oldest.
	if oldest := tab.Oldest(); oldest[0].Peer != a {
		t.Fatalf("oldest = %s, want %s", oldest[0].Peer, a)
	}
	tab.Observe(a)
	if oldest := tab.Oldest(); oldest[0].Peer != b {
		t.Fatalf("after refresh oldest = %s, want %s", oldest[0].Peer, b)
	}
	// Evicting b promotes d (the freshest replacement candidate).
	tab.Remove(b)
	if tab.Len() != 2 {
		t.Fatalf("after eviction len = %d", tab.Len())
	}
	peers := map[transport.PeerID]bool{}
	for _, ct := range tab.Closest(self, 0) {
		peers[ct.Peer] = true
	}
	if !peers[a] || !peers[d] || peers[b] || peers[c] {
		t.Fatalf("post-eviction set = %v, want {a, d}", peers)
	}
	// Evicting a promotes c, draining the cache.
	tab.Remove(a)
	peers = map[transport.PeerID]bool{}
	for _, ct := range tab.Closest(self, 0) {
		peers[ct.Peer] = true
	}
	if !peers[c] || !peers[d] {
		t.Fatalf("cache not drained: %v", peers)
	}
	// Self is never admitted.
	tab.Observe("self")
	if tab.Len() != 2 {
		t.Fatal("table admitted its own node")
	}
}

// TestClosestDeterministicOrder re-runs Closest over a shuffled
// observation order: the (distance, peer) sort must yield the same
// sequence regardless of insertion history, a precondition for
// golden-trace determinism.
func TestClosestDeterministicOrder(t *testing.T) {
	self := NodeIDFor("origin")
	target := KeyForCommunity("patterns")
	build := func(order []int) []Contact {
		// k=64 keeps every bucket below capacity so both insertion
		// orders retain the identical live set; only the sort is under
		// test here.
		tab := NewTable(self, 64)
		for _, i := range order {
			tab.Observe(peerName(i))
		}
		return tab.Closest(target, 12)
	}
	base := make([]int, 64)
	for i := range base {
		base[i] = i
	}
	got1 := build(base)
	shuffled := append([]int(nil), base...)
	// Reversal exercises a different bucket-append order without RNG.
	sort.Sort(sort.Reverse(sort.IntSlice(shuffled)))
	got2 := build(shuffled)
	if len(got1) == 0 || len(got1) != len(got2) {
		t.Fatalf("lengths differ: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i].Peer != got2[i].Peer {
			t.Fatalf("order differs at %d: %s vs %s", i, got1[i].Peer, got2[i].Peer)
		}
	}
}
