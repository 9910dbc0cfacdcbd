package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// truth is the driver-side ground truth: the attributes of every
// object the driver published and who provides it. Results are judged
// against it with Filter.Match, never against anything the program
// under test reports about itself.
type truth struct {
	mu    sync.RWMutex
	docs  map[index.DocID]*truthDoc
	comms map[string]*truthComm
	// cacheMu guards every truthComm.matched map: searches fill that
	// cache while holding only the read lock.
	cacheMu sync.Mutex
	// settle is how long after a publish returns the driver waits
	// before *requiring* the object in results. Registration with an
	// index server is asynchronous (the register frame is handled
	// after Publish returns), so a search issued right behind a
	// publish may legitimately miss it; it may never invent it.
	settle time.Duration
}

type truthDoc struct {
	community string
	attrs     query.Attrs
	// providers maps each providing peer to the instant from which a
	// search must return the pair (zero: from the start).
	providers map[transport.PeerID]time.Time
}

type truthComm struct {
	docs []index.DocID
	gen  uint64
	// matched caches the documents each filter selects; an entry is
	// valid while its gen equals the community's.
	matched map[string]matchSet
}

type matchSet struct {
	gen  uint64
	docs []index.DocID
}

func newTruth(settle time.Duration) *truth {
	return &truth{
		docs:   make(map[index.DocID]*truthDoc),
		comms:  make(map[string]*truthComm),
		settle: settle,
	}
}

// add records that provider serves doc. Call it before the publish is
// issued (so a concurrent search that already sees the object is not
// judged to have invented it) and confirm once the publish returned.
func (t *truth) add(community string, id index.DocID, attrs query.Attrs, provider transport.PeerID, required time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.docs[id]
	if d == nil {
		d = &truthDoc{community: community, attrs: attrs, providers: make(map[transport.PeerID]time.Time)}
		t.docs[id] = d
		c := t.comms[community]
		if c == nil {
			c = &truthComm{matched: make(map[string]matchSet)}
			t.comms[community] = c
		}
		c.docs = append(c.docs, id)
		c.gen++
	}
	if _, known := d.providers[provider]; !known {
		d.providers[provider] = required
	}
}

// never is the "not required yet" instant of an unconfirmed publish.
var never = time.Unix(1<<40, 0)

// confirm marks a pending pair as required from now + settle.
func (t *truth) confirm(id index.DocID, provider transport.PeerID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d := t.docs[id]; d != nil {
		d.providers[provider] = time.Now().Add(t.settle)
	}
}

// docCount is the number of distinct documents published so far.
func (t *truth) docCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.docs)
}

// attrsOf returns the published attributes of a document.
func (t *truth) attrsOf(id index.DocID) query.Attrs {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if d := t.docs[id]; d != nil {
		return d.attrs
	}
	return nil
}

// matching returns the community's documents f selects. Caller holds
// at least the read lock.
func (t *truth) matching(community, src string, f query.Filter) []index.DocID {
	c := t.comms[community]
	if c == nil {
		return nil
	}
	t.cacheMu.Lock()
	ms, ok := c.matched[src]
	t.cacheMu.Unlock()
	if ok && ms.gen == c.gen {
		return ms.docs
	}
	var out []index.DocID
	for _, id := range c.docs {
		if f.Match(t.docs[id].attrs) {
			out = append(out, id)
		}
	}
	t.cacheMu.Lock()
	c.matched[src] = matchSet{gen: c.gen, docs: out}
	t.cacheMu.Unlock()
	return out
}

// required counts the pairs a search issued at instant `at` must
// return for the filter, before any limit.
func (t *truth) required(community, src string, f query.Filter, at time.Time) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, id := range t.matching(community, src, f) {
		for _, since := range t.docs[id].providers {
			if !since.After(at) {
				n++
			}
		}
	}
	return n
}

type pairKey struct {
	doc      index.DocID
	provider transport.PeerID
}

// check judges one search: every hit must be a distinct pair the truth
// holds now and the filter selects (no extras, no duplicates), and
// every pair required at issue time must be present unless the limit
// cut the result off (no missing hits). It returns found and expected for the recall
// mean; err describes the first disagreement.
func (t *truth) check(community, src string, f query.Filter, limit int, issued time.Time, rs []p2p.Result) (found, expected int, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	seen := make(map[pairKey]bool, len(rs))
	for _, r := range rs {
		k := pairKey{r.DocID, r.Provider}
		d := t.docs[r.DocID]
		switch {
		case seen[k]:
			err = firstErr(err, fmt.Errorf("duplicate hit %s@%s", r.DocID, r.Provider))
			continue
		case d == nil || d.community != community || r.CommunityID != community:
			err = firstErr(err, fmt.Errorf("extra hit %s: not published in %s", r.DocID, community))
			continue
		}
		if _, provides := d.providers[r.Provider]; !provides {
			err = firstErr(err, fmt.Errorf("extra hit %s: %s does not provide it", r.DocID, r.Provider))
			continue
		}
		if !f.Match(d.attrs) {
			err = firstErr(err, fmt.Errorf("extra hit %s: filter %s does not select it", r.DocID, src))
			continue
		}
		seen[k] = true
	}
	if limit > 0 && len(rs) > limit {
		err = firstErr(err, fmt.Errorf("%d hits exceed limit %d", len(rs), limit))
	}
	var missing *pairKey
	for _, id := range t.matching(community, src, f) {
		for p, since := range t.docs[id].providers {
			if since.After(issued) {
				continue
			}
			expected++
			if k := (pairKey{id, p}); seen[k] {
				found++
			} else if missing == nil {
				missing = &k
			}
		}
	}
	if limit > 0 && len(rs) >= limit {
		// A full page: the program may return any `limit` of the
		// selected pairs, so only the count can be required.
		expected = min(expected, limit)
		found = expected
	} else if missing != nil {
		// Anything short of a full page must hold every required pair.
		err = firstErr(err, fmt.Errorf("missing hit %s@%s for %s", missing.doc, missing.provider, src))
	}
	return found, expected, err
}

func firstErr(have, next error) error {
	if have != nil {
		return have
	}
	return next
}
