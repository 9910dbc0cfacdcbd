package dht

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/transport"
)

// Contact is one known peer: its network identity and its point in
// the keyspace (always NodeIDFor(Peer); cached to avoid rehashing on
// every distance comparison).
type Contact struct {
	ID   ID
	Peer transport.PeerID
}

// ContactFor builds the contact for a peer.
func ContactFor(peer transport.PeerID) Contact {
	return Contact{ID: NodeIDFor(peer), Peer: peer}
}

// Table is a Kademlia routing table: up to IDBits k-buckets, bucket i
// holding up to k contacts whose most significant differing bit from
// the local ID is bit i. Each bucket is kept in least-recently-seen
// order (front = oldest), the order LRU eviction consumes. The table
// holds only the buckets from the farthest down to the nearest one it
// has filed a contact in: in an overlay of n peers about log2(n) of
// them are non-empty, and a peer does not pay for the other
// IDBits - log2(n). Neither list of a bucket holds storage for more
// than k contacts.
//
// Eviction policy: Observe never probes the network — a full bucket
// parks newcomers in a per-bucket replacement cache instead of
// pinging the oldest contact inline. Pinging from inside a message
// handler would recurse unboundedly on the synchronous simulated
// network (A's ping makes B update its table, which pings C, ...).
// Liveness checks instead run on the owner's schedule
// (Node.CheckLiveness, driven by the simulation clock): the
// least-recently-seen contact of each bucket is probed, dead contacts
// are evicted, and the freshest replacement-cache entry takes the
// slot. Definitive send failures (transport.IsPeerDead) evict
// immediately via Remove.
type Table struct {
	self ID
	k    int

	mu sync.Mutex
	// buckets runs farthest first: buckets[j] is bucket IDBits-1-j.
	// Observe grows it down to the nearest bucket it files a contact
	// in, and nothing shrinks it; a bucket past its end is empty.
	buckets []bucket
	size    int
}

type bucket struct {
	live  []Contact // least recently seen first
	spare []Contact // replacement cache, least recently seen first
}

// NewTable builds a table for the node with the given ID and bucket
// capacity k.
func NewTable(self ID, k int) *Table {
	if k <= 0 {
		k = DefaultK
	}
	return &Table{self: self, k: k}
}

// Len returns the number of live contacts across all buckets.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// Observe records traffic from a peer: a known contact moves to the
// most-recently-seen end of its bucket; an unknown one fills a free
// slot, or parks in the bucket's replacement cache when the bucket is
// full (evicting the cache's own oldest entry if needed).
func (t *Table) Observe(peer transport.PeerID) {
	c := ContactFor(peer)
	bi := BucketIndex(t.self, c.ID)
	if bi < 0 {
		return // self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if j := IDBits - 1 - bi; j >= len(t.buckets) {
		grown := make([]bucket, j+1)
		copy(grown, t.buckets)
		t.buckets = grown
	}
	b := t.bucket(bi)
	if moveToBack(&b.live, peer) {
		return
	}
	if len(b.live) < t.k {
		b.live = appendCapped(b.live, c, t.k)
		t.size++
		removeContact(&b.spare, peer)
		return
	}
	if moveToBack(&b.spare, peer) {
		return
	}
	if len(b.spare) < t.k {
		b.spare = appendCapped(b.spare, c, t.k)
		return
	}
	// Drop the stalest candidate, shifting in place so the cache keeps
	// its storage.
	copy(b.spare, b.spare[1:])
	b.spare[len(b.spare)-1] = c
}

// Remove evicts a peer (dead by direct evidence) from its bucket and
// promotes the freshest replacement-cache candidate into the slot.
func (t *Table) Remove(peer transport.PeerID) {
	id := NodeIDFor(peer)
	bi := BucketIndex(t.self, id)
	if bi < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bucket(bi)
	if b == nil {
		return
	}
	if removeContact(&b.live, peer) {
		t.size--
		if n := len(b.spare); n > 0 {
			t.size++
			b.live = append(b.live, b.spare[n-1])
			b.spare = b.spare[:n-1]
		}
	} else {
		removeContact(&b.spare, peer)
	}
}

// bucket returns bucket i, or nil when it lies past the held ones
// (and is therefore empty).
func (t *Table) bucket(i int) *bucket {
	if j := IDBits - 1 - i; j < len(t.buckets) {
		return &t.buckets[j]
	}
	return nil
}

// Oldest returns the least-recently-seen live contact of every
// non-empty bucket, in ascending bucket order: the probe set for one
// liveness-check round.
func (t *Table) Oldest() []Contact {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Contact
	for j := len(t.buckets) - 1; j >= 0; j-- {
		if live := t.buckets[j].live; len(live) > 0 {
			out = append(out, live[0])
		}
	}
	return out
}

// Closest returns up to n live contacts sorted by XOR distance to
// target (ties — only possible between identical IDs — broken by peer
// name, so the order is total and deterministic).
func (t *Table) Closest(target ID, n int) []Contact {
	return t.ClosestAppend(nil, target, n)
}

// ClosestAppend is Closest into caller-owned storage: the contacts are
// appended to dst (reusing its capacity) and the extended slice
// returned. The lookup hot path threads its pooled shortlist through
// here so a wave costs no fresh contact slice. The buckets are taken
// nearest-first, each sorted on its own, until n contacts are in hand:
// serving a FIND_* (n = K) sorts a bucket or two, not the table, and
// n = 0 takes every bucket, which orders the whole table.
func (t *Table) ClosestAppend(dst []Contact, target ID, n int) []Contact {
	start := len(dst)
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 {
		n = t.size
	}
	// A contact of bucket i lies at a distance from target whose bits
	// above i are those of d and whose bit i is the complement of d's:
	// the buckets where d has a 1, from the top down, then those where it
	// has a 0, from the bottom up, cover disjoint, ascending ranges. The
	// buckets below the held ones are empty and skipped in both passes.
	d := t.self.XOR(target)
	held := len(t.buckets)
	for step := 0; step < 2*held && len(dst)-start < n; step++ {
		j, one := step, byte(1)
		if step >= held {
			j, one = 2*held-1-step, 0
		}
		i := IDBits - 1 - j
		if live := t.buckets[j].live; len(live) > 0 && d[IDBytes-1-i/8]>>(i%8)&1 == one {
			at := len(dst)
			dst = append(dst, live...)
			sortByDistance(dst[at:], target)
		}
	}
	return dst[:min(len(dst), start+n)]
}

// sortByDistance orders contacts by XOR distance to target.
func sortByDistance(cs []Contact, target ID) {
	slices.SortFunc(cs, func(a, b Contact) int { return compareContacts(a, b, target) })
}

// compareContacts is the contact order: XOR distance to target, ties
// (only possible between identical IDs) broken by peer name.
func compareContacts(a, b Contact, target ID) int {
	if c := CompareDistance(a.ID, b.ID, target); c != 0 {
		return c
	}
	return cmp.Compare(a.Peer, b.Peer)
}

// moveToBack relocates peer to the most-recently-seen end if present.
func moveToBack(cs *[]Contact, peer transport.PeerID) bool {
	s := *cs
	for i, c := range s {
		if c.Peer == peer {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = c
			return true
		}
	}
	return false
}

// removeContact deletes peer if present.
func removeContact(cs *[]Contact, peer transport.PeerID) bool {
	s := *cs
	for i, c := range s {
		if c.Peer == peer {
			*cs = append(s[:i], s[i+1:]...)
			return true
		}
	}
	return false
}

// appendCapped appends c to s, growing its storage as append does but
// never past k contacts (the most a bucket's list ever holds).
func appendCapped(s []Contact, c Contact, k int) []Contact {
	if len(s) == cap(s) {
		grown := make([]Contact, len(s), min(max(2*len(s), 1), k))
		copy(grown, s)
		s = grown
	}
	return append(s, c)
}
