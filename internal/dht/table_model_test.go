package dht

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/transport"
)

// arrayTable is the routing table as it was when every one of the
// IDBits buckets was allocated up front and a full replacement cache
// dropped its stalest entry by reslicing, kept as written then: the
// model FuzzTableModel holds Table to.
type arrayTable struct {
	self    ID
	k       int
	buckets [IDBits]bucket
	size    int
}

func (t *arrayTable) observe(peer transport.PeerID) {
	c := ContactFor(peer)
	bi := BucketIndex(t.self, c.ID)
	if bi < 0 {
		return
	}
	b := &t.buckets[bi]
	if moveToBack(&b.live, peer) {
		return
	}
	if len(b.live) < t.k {
		b.live = append(b.live, c)
		t.size++
		removeContact(&b.spare, peer)
		return
	}
	if moveToBack(&b.spare, peer) {
		return
	}
	if len(b.spare) >= t.k {
		b.spare = b.spare[1:]
	}
	b.spare = append(b.spare, c)
}

func (t *arrayTable) remove(peer transport.PeerID) {
	bi := BucketIndex(t.self, NodeIDFor(peer))
	if bi < 0 {
		return
	}
	b := &t.buckets[bi]
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

func (t *arrayTable) oldest() []Contact {
	var out []Contact
	for i := range t.buckets {
		if live := t.buckets[i].live; len(live) > 0 {
			out = append(out, live[0])
		}
	}
	return out
}

func (t *arrayTable) closestAppend(dst []Contact, target ID, n int) []Contact {
	start := len(dst)
	if n <= 0 {
		n = t.size
	}
	d := t.self.XOR(target)
	for j := 0; j < 2*IDBits && len(dst)-start < n; j++ {
		i, one := IDBits-1-j, byte(1)
		if j >= IDBits {
			i, one = j-IDBits, 0
		}
		if live := t.buckets[i].live; len(live) > 0 && d[IDBytes-1-i/8]>>(i%8)&1 == one {
			at := len(dst)
			dst = append(dst, live...)
			sortByDistance(dst[at:], target)
		}
	}
	return dst[:min(len(dst), start+n)]
}

// tablePool is the fuzzer's peer population; peer 0 is the table's
// own, so steps that name it exercise the self check.
var tablePool = func() []transport.PeerID {
	pool := make([]transport.PeerID, 2000)
	for i := range pool {
		pool[i] = peerName(i)
	}
	return pool
}()

// runTableModel decodes ops into Observe/Remove steps over tablePool:
// ops[0] picks k (1..20), then each three bytes are one step, the low
// bit of the first choosing Remove and the other two naming the peer.
// After every step the table must agree with arrayTable bucket by
// bucket (live and replacement lists, contents and order), in Len,
// Oldest and ClosestAppend for three targets, and no bucket list may
// hold storage for more than k contacts.
func runTableModel(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	k := 1 + int(ops[0])%20
	self := NodeIDFor(tablePool[0])
	tab := NewTable(self, k)
	model := &arrayTable{self: self, k: k}
	key := KeyForCommunity("patterns")
	var got, want []Contact
	for s := 1; s+2 < len(ops); s += 3 {
		peer := tablePool[(int(ops[s+1])<<8|int(ops[s+2]))%len(tablePool)]
		if ops[s]&1 == 1 {
			tab.Remove(peer)
			model.remove(peer)
		} else {
			tab.Observe(peer)
			model.observe(peer)
		}
		for i := 0; i < IDBits; i++ {
			mb, tb := &model.buckets[i], tab.bucket(i)
			if tb == nil {
				if len(mb.live)+len(mb.spare) > 0 {
					t.Fatalf("step %d: bucket %d is not held, the model's holds %d live, %d spare", s/3, i, len(mb.live), len(mb.spare))
				}
				continue
			}
			if !slices.Equal(tb.live, mb.live) || !slices.Equal(tb.spare, mb.spare) {
				t.Fatalf("step %d: bucket %d holds live %v spare %v, want live %v spare %v", s/3, i, tb.live, tb.spare, mb.live, mb.spare)
			}
			if cap(tb.live) > k || cap(tb.spare) > k {
				t.Fatalf("step %d: bucket %d has capacity %d live, %d spare, want at most k = %d", s/3, i, cap(tb.live), cap(tb.spare), k)
			}
		}
		if n := tab.Len(); n != model.size {
			t.Fatalf("step %d: Len = %d, want %d", s/3, n, model.size)
		}
		if got, want = tab.Oldest(), model.oldest(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Oldest = %v, want %v", s/3, got, want)
		}
		for _, q := range []struct {
			target ID
			n      int
		}{{self, 0}, {NodeIDFor(peer), k}, {key, 1 + s%7}} {
			got, want = tab.ClosestAppend(got[:0], q.target, q.n), model.closestAppend(want[:0], q.target, q.n)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: ClosestAppend(%x, %d) = %v, want %v", s/3, q.target[:4], q.n, got, want)
			}
		}
	}
}

// FuzzTableModel holds the sparse routing table to the fixed-array one
// it replaced on arbitrary Observe/Remove streams.
func FuzzTableModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 1+3*200)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<10 {
			return
		}
		runTableModel(t, ops)
	})
}
