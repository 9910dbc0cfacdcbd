package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/sim"
)

// RunE7 reproduces the §V case study end to end: a design-pattern
// community with a custom display stylesheet and rich queries over the
// published repository.
func RunE7() (Table, error) {
	t := Table{
		ID:      "E7",
		Title:   "Design-pattern case study (§V): 6 peers, 115 patterns, rich queries",
		Headers: []string{"query", "hits", "first result"},
		Notes: []string{
			"\"prior to our work there has been no way to share design patterns in a",
			"peer-to-peer fashion that incorporates meta-data search\" (§V) — this table is that system running",
		},
	}
	customView := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	  <xsl:template match="/">
	    <article class="pattern">
	      <h1><xsl:value-of select="pattern/name"/></h1>
	      <p class="classification"><xsl:value-of select="pattern/classification"/></p>
	      <p class="intent"><xsl:value-of select="pattern/intent"/></p>
	      <ul><xsl:for-each select="pattern/participants"><li><xsl:value-of select="."/></li></xsl:for-each></ul>
	    </article>
	  </xsl:template>
	</xsl:stylesheet>`
	c, err := sim.NewCluster(sim.Config{Peers: 6, Protocol: sim.Centralized, Seed: 71})
	if err != nil {
		return t, err
	}
	comm, err := c.SeedCommunity(0, core.CommunitySpec{
		Name:            "designpatterns",
		Description:     "Carleton Pattern Repository as a U-P2P community",
		Keywords:        "design patterns gof software",
		Category:        "computer-science",
		SchemaSrc:       corpus.PatternSchemaSrc,
		DisplayStyleSrc: customView,
	})
	if err != nil {
		return t, err
	}
	if _, err := c.DiscoverAndJoinAll("designpatterns", 7); err != nil {
		return t, err
	}
	objs := corpus.DesignPatterns(115, 21).Objects
	_, err = c.PublishRoundRobin(comm.ID, objs)
	if err != nil {
		return t, err
	}
	queries := []struct{ label, filter string }{
		{"name Observer", "(name=Observer)"},
		{"intent ~ one-to-many", "(intent~=one-to-many)"},
		{"behavioral AND notification", "(&(classification=behavioral)(keywords=notification))"},
		{"participant Subject", "(participants=Subject)"},
		{"creational OR structural", "(|(classification=creational)(classification=structural))"},
		{"negation: NOT behavioral", "(!(classification=behavioral))"},
	}
	for _, q := range queries {
		rs, err := c.SearchFrom(3, comm.ID, query.MustParse(q.filter), p2p.SearchOptions{})
		if err != nil {
			return t, err
		}
		first := "-"
		if len(rs) > 0 {
			first = rs[0].Title
		}
		t.Rows = append(t.Rows, []string{q.label, fmt.Sprintf("%d", len(rs)), first})
	}
	// Custom stylesheet actually renders retrieved objects.
	rs, err := c.SearchFrom(5, comm.ID, query.MustParse("(name=Visitor)"), p2p.SearchOptions{})
	if err != nil || len(rs) == 0 {
		return t, fmt.Errorf("case study: Visitor not found (%v)", err)
	}
	if _, err := c.Servents[5].Retrieve(rs[0].DocID, rs[0].Provider); err != nil {
		return t, err
	}
	html, err := c.Servents[5].View(rs[0].DocID)
	if err != nil {
		return t, err
	}
	if !strings.Contains(html, `class="pattern"`) {
		return t, fmt.Errorf("custom stylesheet not applied: %q", html)
	}
	t.Rows = append(t.Rows, []string{"custom view of retrieved Visitor", "1", fmt.Sprintf("%d bytes of HTML", len(html))})
	return t, nil
}

// RunE8 demonstrates §VI's protocol independence: the identical
// servent workload over all four overlays returns identical result
// sets, differing only in message cost.
func RunE8() (Table, error) {
	t := Table{
		ID:    "E8",
		Title: "Protocol independence: identical workload over all four overlays",
		Headers: []string{"query", "centralized hits", "gnutella hits", "fasttrack hits", "dht hits", "identical results",
			"centralized msgs", "gnutella msgs", "fasttrack msgs", "dht msgs"},
		Notes: []string{
			"the core servent code is identical in every column; only the injected",
			"p2p.Network differs (the generic create/search/retrieve interface of §VI);",
			"identical results: yes when every overlay returns centralized's titles,",
			"else NO and the overlays that differ",
		},
	}
	queries := []string{
		"(classification=behavioral)",
		"(name~=Factory)",
		"(keywords=tree)",
		"(*)",
	}
	// answer is one overlay's reply to one query.
	type answer struct {
		titles string // sorted, joined: the result set
		hits   int
		msgs   int64
	}
	run := func(proto sim.Protocol) ([]answer, error) {
		c, err := sim.NewCluster(sim.Config{Peers: 6, Protocol: proto, Degree: 5, Seed: 81})
		if err != nil {
			return nil, err
		}
		comm, err := c.SeedCommunity(0, core.CommunitySpec{Name: "patterns", SchemaSrc: corpus.PatternSchemaSrc})
		if err != nil {
			return nil, err
		}
		if _, err := c.DiscoverAndJoinAll("patterns", 7); err != nil {
			return nil, err
		}
		if _, err := c.PublishRoundRobin(comm.ID, corpus.DesignPatterns(46, 81).Objects); err != nil {
			return nil, err
		}
		answers := make([]answer, len(queries))
		for i, q := range queries {
			before := c.Metrics()
			rs, err := c.SearchFrom(2, comm.ID, query.MustParse(q), p2p.SearchOptions{TTL: 7})
			if err != nil {
				return nil, err
			}
			titles := make([]string, 0, len(rs))
			for _, r := range rs {
				titles = append(titles, r.Title)
			}
			sort.Strings(titles)
			answers[i] = answer{
				titles: strings.Join(titles, "|"),
				hits:   len(rs),
				msgs:   c.Metrics().Delta(before).Counter("transport.msgs_delivered"),
			}
		}
		return answers, nil
	}
	byProto := make([][]answer, len(overlays))
	for i, p := range overlays {
		answers, err := run(p)
		if err != nil {
			return t, fmt.Errorf("%s: %w", p, err)
		}
		byProto[i] = answers
	}
	for qi, q := range queries {
		row := []string{q}
		var differ []string
		for pi, answers := range byProto {
			row = append(row, fmt.Sprintf("%d", answers[qi].hits))
			if answers[qi].titles != byProto[0][qi].titles {
				differ = append(differ, overlays[pi].String())
			}
		}
		same := "yes"
		if len(differ) > 0 {
			same = "NO: " + strings.Join(differ, ",")
		}
		row = append(row, same)
		for _, answers := range byProto {
			row = append(row, fmt.Sprintf("%d", answers[qi].msgs))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
