package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/xsd"
)

// RunE6 measures the generative pipeline's hot-path throughput: the
// servent cost the paper's JSP/Xalan prototype paid on every request.
func RunE6() (Table, error) {
	t := Table{
		ID:      "E6",
		Title:   "Generative pipeline throughput (pattern community)",
		Headers: []string{"operation", "iterations", "us/op", "ops/sec"},
	}
	comm, err := core.NewCommunity(core.CommunitySpec{Name: "patterns", SchemaSrc: corpus.PatternSchemaSrc})
	if err != nil {
		return t, err
	}
	schema := comm.Schema
	obj := corpus.DesignPatterns(1, 1).Objects[0].Doc
	filter := query.MustParse("(&(classification=behavioral)(keywords=notification))")
	attrs, err := comm.Extract(obj)
	if err != nil {
		return t, err
	}

	measure := func(name string, iters int, fn func() error) error {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		el := time.Since(start)
		perOp := el / time.Duration(iters)
		ops := float64(time.Second) / float64(perOp)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", iters),
			fmt.Sprintf("%.1f", float64(perOp.Nanoseconds())/1e3),
			fmt.Sprintf("%.0f", ops),
		})
		return nil
	}

	if err := measure("parse schema", 2000, func() error {
		_, err := xsd.ParseString(corpus.PatternSchemaSrc)
		return err
	}); err != nil {
		return t, err
	}
	if err := measure("validate object", 5000, func() error {
		return schema.Validate(obj)
	}); err != nil {
		return t, err
	}
	if err := measure("generate create form", 2000, func() error {
		_, err := comm.CreateFormHTML()
		return err
	}); err != nil {
		return t, err
	}
	if err := measure("render object view", 2000, func() error {
		_, err := comm.View(obj)
		return err
	}); err != nil {
		return t, err
	}
	if err := measure("indexing transform", 5000, func() error {
		_, err := comm.Extract(obj)
		return err
	}); err != nil {
		return t, err
	}
	if err := measure("filter match", 200000, func() error {
		filter.Match(attrs)
		return nil
	}); err != nil {
		return t, err
	}
	return t, nil
}

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
// servent workload over both networks returns identical result sets,
// differing only in message cost.
func RunE8() (Table, error) {
	t := Table{
		ID:      "E8",
		Title:   "Protocol independence: identical workload, centralized vs Gnutella",
		Headers: []string{"query", "centralized hits", "gnutella hits", "identical results", "c msgs", "g msgs"},
		Notes: []string{
			"the core servent code is identical in both columns; only the injected",
			"p2p.Network differs (the generic create/search/retrieve interface of §VI)",
		},
	}
	queries := []string{
		"(classification=behavioral)",
		"(name~=Factory)",
		"(keywords=tree)",
		"(*)",
	}
	type outcome struct {
		titles map[string][]string
		msgs   map[string]int64
	}
	run := func(proto sim.Protocol) (outcome, error) {
		o := outcome{titles: map[string][]string{}, msgs: map[string]int64{}}
		c, err := sim.NewCluster(sim.Config{Peers: 6, Protocol: proto, Degree: 5, Seed: 81})
		if err != nil {
			return o, err
		}
		comm, err := c.SeedCommunity(0, core.CommunitySpec{Name: "patterns", SchemaSrc: corpus.PatternSchemaSrc})
		if err != nil {
			return o, err
		}
		if _, err := c.DiscoverAndJoinAll("patterns", 7); err != nil {
			return o, err
		}
		if _, err := c.PublishRoundRobin(comm.ID, corpus.DesignPatterns(46, 81).Objects); err != nil {
			return o, err
		}
		for _, q := range queries {
			before := c.Metrics()
			rs, err := c.SearchFrom(2, comm.ID, query.MustParse(q), p2p.SearchOptions{TTL: 7})
			if err != nil {
				return o, err
			}
			titles := make([]string, 0, len(rs))
			for _, r := range rs {
				titles = append(titles, r.Title)
			}
			sort.Strings(titles)
			o.titles[q] = titles
			o.msgs[q] = c.Metrics().Delta(before).Counter("transport.msgs_delivered")
		}
		return o, nil
	}
	co, err := run(sim.Centralized)
	if err != nil {
		return t, err
	}
	gOut, err := run(sim.Gnutella)
	if err != nil {
		return t, err
	}
	for _, q := range queries {
		same := "yes"
		if strings.Join(co.titles[q], "|") != strings.Join(gOut.titles[q], "|") {
			same = "NO"
		}
		t.Rows = append(t.Rows, []string{
			q,
			fmt.Sprintf("%d", len(co.titles[q])),
			fmt.Sprintf("%d", len(gOut.titles[q])),
			same,
			fmt.Sprintf("%d", co.msgs[q]),
			fmt.Sprintf("%d", gOut.msgs[q]),
		})
	}
	return t, nil
}
