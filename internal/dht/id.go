package dht

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"repro/internal/transport"
)

// The keyspace: 160-bit identifiers under the XOR metric, as in
// Kademlia. Node IDs and content keys share one space, so "the k
// nodes closest to a key" is well defined. IDs derive from SHA-256
// (truncated) with a domain-separation prefix per kind, so a peer
// named after a community string cannot collide with that community's
// key.

// ID sizes.
const (
	// IDBytes is the identifier width in bytes (160 bits).
	IDBytes = 20
	// IDBits is the identifier width in bits: the number of k-buckets
	// a routing table holds.
	IDBits = 8 * IDBytes
)

// ID is one point in the 160-bit XOR keyspace.
type ID [IDBytes]byte

func derive(domain, s string) ID {
	// Hashed from the stack: Table.Observe derives the sender's ID on
	// every inbound message.
	var buf [96]byte
	sum := sha256.Sum256(append(append(append(buf[:0], domain...), 0), s...))
	var id ID
	copy(id[:], sum[:IDBytes])
	return id
}

// NodeIDFor maps a peer's network identity into the keyspace.
func NodeIDFor(peer transport.PeerID) ID { return derive("node", string(peer)) }

// KeyForCommunity maps a community ID to the key its metadata records
// replicate under: the community's slice of the distributed index.
func KeyForCommunity(communityID string) ID { return derive("community", communityID) }

// RefreshTarget returns a deterministic lookup target inside bucket's
// range of self's routing table: it shares self's bits above bucket,
// differs at bit bucket, and takes the remaining low bits from a
// derived hash. Looking it up (the Kademlia bucket refresh) fills that
// bucket with peers from its distance range. Deriving the target from
// (self, bucket) instead of drawing randomness keeps joins
// reproducible.
func RefreshTarget(self ID, bucket int) ID {
	t := derive("bucket-refresh", string(self[:])+":"+strconv.Itoa(bucket))
	bi := IDBytes - 1 - bucket/8
	bit := uint(bucket % 8)
	for i := 0; i < bi; i++ {
		t[i] = self[i]
	}
	high := byte(0xFF) << bit << 1 // bits strictly above bucket's bit
	t[bi] = (self[bi] & high) | (t[bi] &^ high)
	t[bi] = (t[bi] &^ (1 << bit)) | (^self[bi] & (1 << bit))
	return t
}

// XOR returns the Kademlia distance vector between two points.
func (a ID) XOR(b ID) ID {
	var d ID
	for i := range a {
		d[i] = a[i] ^ b[i]
	}
	return d
}

// BucketIndex returns which k-bucket of a's routing table b belongs
// in: the index of the most significant differing bit (0 = closest
// half of the keyspace, IDBits-1 = farthest). Returns -1 when a == b.
func BucketIndex(a, b ID) int {
	for i := range a {
		if x := a[i] ^ b[i]; x != 0 {
			bitlen := 0
			for x > 0 {
				x >>= 1
				bitlen++
			}
			return 8*(IDBytes-1-i) + bitlen - 1
		}
	}
	return -1
}

// CompareDistance orders a and b by XOR distance to target: negative
// when a is closer, positive when b is, zero when equidistant (only
// possible when a == b). It compares distance vectors bytewise, which
// is the numeric comparison of the 160-bit distances.
func CompareDistance(a, b, target ID) int {
	for i := range target {
		da, db := a[i]^target[i], b[i]^target[i]
		if da != db {
			if da < db {
				return -1
			}
			return 1
		}
	}
	return 0
}

// String renders the ID as hex.
func (a ID) String() string { return hex.EncodeToString(a[:]) }
