package index

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/query"
)

// FuzzStoreSearch holds the store's search to its definition. ops
// decodes into puts, replaces, cross-community moves, batches and
// deletes over two communities; the filter is then run at the limit
// (0 means none) in each community and across both, and every answer
// must be what a linear scan of the live documents, sorted by ID and
// cut at the limit, gives. The inverted index must be the one the live
// documents' keys define (checkPostings).
func FuzzStoreSearch(f *testing.F) {
	// Sixteen puts with varied attributes, then one of each other
	// operation.
	var ops []byte
	for i := byte(0); i < 16; i++ {
		ops = append(ops, 0, i, i, i*37+11)
	}
	ops = append(ops,
		1, 3, 0x2f, // replace
		2, 5, 0x1b, // move
		3, 2, 4, 0, 0xff, 17, 1, 0x0e, 9, 0, 0x35, // batch of three
		4, 7, 12, 1, // delete two
	)
	for _, src := range []string{
		"(k=*)",
		"(tags=alpha)",
		"(&(k=v1)(tags=alpha))",
		"(&(tags=alpha)(tags=beta)(k=v2))",
		"(&(k=v1)(year>=1995))",
		"(|(k=v1)(tags=gamma))",
		"(!(tags=alpha))",
		"(&(tags=alpha)(!(k=v3)))",
		"(nosuch=alpha)",
		"(&(nosuch=x)(k=v1))",
		"(tags~=Alpha)",
		"(*)",
	} {
		for _, limit := range []uint8{0, 1, 3} {
			f.Add(ops, src, limit)
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte, src string, limit uint8) {
		flt, err := query.Parse(src)
		if err != nil {
			return
		}
		s := NewStore()
		live := make(map[DocID]*Document)
		r := opReader{b: ops}
		for !r.done() {
			switch r.next() % 5 {
			case 0: // put
				d := r.doc(r.id(), r.community())
				if err := s.Put(d); err != nil {
					t.Fatal(err)
				}
				live[d.ID] = d
			case 1: // replace a live document in its community
				if old := r.pick(live); old != nil {
					d := r.doc(old.ID, old.CommunityID)
					if err := s.Put(d); err != nil {
						t.Fatal(err)
					}
					live[d.ID] = d
				}
			case 2: // move a live document to the other community
				if old := r.pick(live); old != nil {
					other := map[string]string{"a": "b", "b": "a"}[old.CommunityID]
					d := r.doc(old.ID, other)
					if err := s.Put(d); err != nil {
						t.Fatal(err)
					}
					live[d.ID] = d
				}
			case 3: // batch
				batch := make([]*Document, 1+int(r.next()%4))
				for i := range batch {
					batch[i] = r.doc(r.id(), r.community())
				}
				if err := s.PutBatch(batch); err != nil {
					t.Fatal(err)
				}
				for _, d := range batch {
					live[d.ID] = d
				}
			case 4: // delete one or two IDs
				del := []DocID{r.id(), r.id()}[:1+int(r.next()%2)]
				want := 0
				for i, id := range del {
					if live[id] != nil && !slices.Contains(del[:i], id) {
						want++
					}
					delete(live, id)
				}
				if got := s.DeleteBatch(del); got != want {
					t.Fatalf("DeleteBatch(%v) = %d, want %d", del, got, want)
				}
			}
		}
		checkPostings(t, s)
		sorted := slices.Sorted(maps.Keys(live))
		for _, comm := range []string{"a", "b", ""} {
			var want []string
			for _, id := range sorted {
				d := live[id]
				if (comm == "" || d.CommunityID == comm) && flt.Match(d.Attrs) {
					want = append(want, string(id))
				}
			}
			if limit > 0 && len(want) > int(limit) {
				want = want[:limit]
			}
			got := ids(s.Search(comm, flt, int(limit)))
			if !slices.Equal(got, want) {
				t.Fatalf("community %q, %s, limit %d: got %v, want %v", comm, flt, limit, got, want)
			}
		}
	})
}

// opReader decodes FuzzStoreSearch's operations; past the end of its
// input it reads zeros.
type opReader struct{ b []byte }

func (r *opReader) done() bool { return len(r.b) == 0 }

func (r *opReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *opReader) id() DocID { return DocID(fmt.Sprintf("d%02d", r.next()%16)) }

func (r *opReader) community() string { return []string{"a", "b"}[r.next()%2] }

// pick returns one of the live documents, or nil when there is none.
func (r *opReader) pick(live map[DocID]*Document) *Document {
	if len(live) == 0 {
		return nil
	}
	ids := slices.Sorted(maps.Keys(live))
	return live[ids[int(r.next())%len(ids)]]
}

// doc builds a document whose attributes one byte chooses: k, tags and
// year each present or not, from small vocabularies, so that filters
// share values with many documents.
func (r *opReader) doc(id DocID, comm string) *Document {
	c := r.next()
	attrs := query.Attrs{}
	if c&1 != 0 {
		attrs.Add("k", fmt.Sprintf("v%d", c>>4%4))
	}
	if c&2 != 0 {
		attrs.Add("tags", []string{"alpha", "beta", "Alpha beta", "gamma"}[c>>2%4])
	}
	if c&4 != 0 {
		attrs.Add("tags", "alpha")
	}
	if c&8 != 0 {
		attrs.Add("year", fmt.Sprint(1990+int(c>>4)))
	}
	return &Document{ID: id, CommunityID: comm, Title: string(id), Attrs: attrs}
}
