package dht

import (
	"reflect"
	"testing"

	"repro/internal/p2p"
	"repro/internal/p2p/codec"
	"repro/internal/query"
)

// oracleAttrs is the map decoder the frames used before attribute sets
// went flat, verbatim but for its name: the reference Reader.Fields is
// held to.
func oracleAttrs(r *codec.Reader) query.Attrs {
	n := r.Count(2)
	if r.Err() != nil || n == 0 {
		return nil
	}
	a := make(query.Attrs, n)
	for i := 0; i < n; i++ {
		k := r.String()
		nv := r.Count(1)
		if r.Err() != nil {
			return nil
		}
		vals := make([]string, 0, nv)
		for j := 0; j < nv; j++ {
			vals = append(vals, r.String())
		}
		a[k] = vals
	}
	if r.Err() != nil {
		return nil
	}
	return a
}

// TestDecodeMatchesMapOracle: the records of every sample FIND_VALUE
// reply and STORE decode to flat forms whose maps are what the old map
// decoder reads from the same bytes, a key with no values and a
// multi-valued key among them.
func TestDecodeMatchesMapOracle(t *testing.T) {
	checked := 0
	for which, frames := range fuzzSeeds() {
		for _, f := range frames {
			data := codec.Encode(f)
			got, _ := codec.Decode(codec.Default, fuzzTypes[which], data)
			r := codec.NewReader(data)
			var recs []p2p.Result
			switch got := got.(type) {
			case *findValueReplyPayload:
				recs = got.Records
				r.Uvarint() // ReqID
			case *storePayload:
				recs = got.Records
				r.Fixed(make([]byte, IDBytes)) // Key
			default:
				continue
			}
			if n := r.Count(5); n != len(recs) {
				t.Fatalf("%s: %d records decoded, %d encoded", fuzzTypes[which], len(recs), n)
			}
			for _, rec := range recs {
				for range 3 { // DocID, CommunityID, Title
					_ = r.String()
				}
				if want := oracleAttrs(r); !reflect.DeepEqual(rec.Attrs.Map(), want) {
					t.Errorf("%s: %s decoded to %v, the map decoder reads %v", fuzzTypes[which], rec.DocID, rec.Attrs.Map(), want)
				}
				_ = r.String() // Provider
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no sample frame carries records")
	}
}
