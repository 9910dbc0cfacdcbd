package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// durableServent builds a servent called peer on f's network whose
// store is write-ahead logged under dir, as up2pd runs under -state.
func durableServent(t *testing.T, f *fixture, peer, dir string) *Servent {
	t.Helper()
	st, err := index.OpenStore(index.WithWAL(dir), index.WithWALFsync(index.FsyncOS))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := f.net.Endpoint(transport.PeerID(peer))
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewServent(p2p.NewCentralizedClient(ep, "server", st), st)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func TestServentStateRoundTrip(t *testing.T) {
	f := newFixture(t, 0)
	dir := t.TempDir()
	original := durableServent(t, f, "original", dir)
	c, err := original.CreateCommunity(CommunitySpec{
		Name:            "mp3",
		Description:     "music",
		SchemaSrc:       songSchema,
		DisplayStyleSrc: `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0"><xsl:template match="/"><x/></xsl:template></xsl:stylesheet>`,
	})
	if err != nil {
		t.Fatal(err)
	}
	docID, err := original.Publish(c.ID, mustParseXML(`<song><title>T</title><artist>A</artist></song>`),
		map[string][]byte{"up2p://x/file.bin": []byte("DATA")})
	if err != nil {
		t.Fatal(err)
	}

	var state bytes.Buffer
	if err := original.SaveState(&state); err != nil {
		t.Fatalf("save state: %v", err)
	}
	if err := original.Store().Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// "Restart": a fresh servent on a new network identity reopens the
	// store and restores the servent state.
	restored := durableServent(t, f, "restored", dir)
	if err := restored.LoadState(&state); err != nil {
		t.Fatalf("load state: %v", err)
	}
	if !restored.IsJoined(c.ID) {
		t.Fatal("community not restored")
	}
	rc, _ := restored.Community(c.ID)
	if rc.DisplayStyleSrc == "" {
		t.Error("custom stylesheet lost")
	}
	// The restored store serves local searches and views.
	local := restored.SearchLocal(c.ID, query.MustParse("(title=T)"), 0)
	if len(local) != 1 || local[0].ID != docID {
		t.Fatalf("restored search = %+v", local)
	}
	html, err := restored.View(docID)
	if err != nil || !strings.Contains(html, "<x/>") {
		t.Errorf("restored view = %q, %v", html, err)
	}
	// Attachments restored.
	if data, ok := restored.Attachment("up2p://x/file.bin"); !ok || string(data) != "DATA" {
		t.Errorf("attachment = %q, %v", data, ok)
	}
	// Root community still exactly once.
	joined := restored.Joined()
	if joined[0] != RootCommunityID || len(joined) != 2 {
		t.Errorf("joined = %v", joined)
	}
}

func TestLoadStateErrors(t *testing.T) {
	f := newFixture(t, 1)
	sv := f.servents[0]
	if err := sv.LoadState(strings.NewReader("not json")); err == nil {
		t.Error("bad json accepted")
	}
	if err := sv.LoadState(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("future version accepted")
	}
	if err := sv.LoadState(strings.NewReader(`{"version":1,"communities":[{"Name":"x"}]}`)); err == nil {
		t.Error("community without schema accepted")
	}
}

func TestRestoredServentWorksOnNetwork(t *testing.T) {
	// A servent restarted on its reopened store participates normally:
	// its restored objects are re-publishable and searchable by peers.
	f := newFixture(t, 0)
	dir := t.TempDir()
	donor := durableServent(t, f, "donor", dir)
	c, err := donor.CreateCommunity(CommunitySpec{Name: "m", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Publish(c.ID, mustParseXML(`<song><title>T</title><artist>A</artist></song>`), nil); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := donor.SaveState(&state); err != nil {
		t.Fatal(err)
	}
	if err := donor.Store().Close(); err != nil {
		t.Fatal(err)
	}
	fresh := durableServent(t, f, "fresh", dir)
	if err := fresh.LoadState(&state); err != nil {
		t.Fatal(err)
	}
	// Re-announce restored objects to the network.
	for _, d := range fresh.SearchLocal(c.ID, query.MatchAll{}, 0) {
		if err := fresh.Network().Publish(d.Document()); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := fresh.Search(c.ID, query.MustParse("(title=T)"), p2p.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	providers := map[string]bool{}
	for _, r := range rs {
		providers[string(r.Provider)] = true
	}
	if !providers[string(fresh.PeerID())] {
		t.Errorf("restored servent not providing: %v", providers)
	}
}

// TestLoadStateCorruptMiddleInstallsNothing is the regression test
// for partial installs: a bad spec in the middle of the state file
// used to error out after earlier communities were already installed.
// LoadState now validates every entry before installing any.
func TestLoadStateCorruptMiddleInstallsNothing(t *testing.T) {
	f := newFixture(t, 2)
	donor := f.servents[0]
	c1, err := donor.CreateCommunity(CommunitySpec{Name: "first", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := donor.CreateCommunity(CommunitySpec{Name: "second", SchemaSrc: songSchema})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := donor.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	// Poison the middle: splice a community with a broken schema
	// between the two good ones.
	var st serventState
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Communities) != 2 {
		t.Fatalf("saved %d communities, want 2", len(st.Communities))
	}
	bad := CommunitySpec{Name: "broken", SchemaSrc: "<not-a-schema"}
	st.Communities = []CommunitySpec{st.Communities[0], bad, st.Communities[1]}
	st.CommunityID = []string{st.CommunityID[0], "bogus", st.CommunityID[1]}
	poisoned, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}

	restored := f.servents[1]
	if err := restored.LoadState(bytes.NewReader(poisoned)); err == nil {
		t.Fatal("poisoned state accepted")
	}
	// Nothing was installed — not even the valid first community.
	if restored.IsJoined(c1.ID) {
		t.Error("community before the corrupt entry was installed")
	}
	if restored.IsJoined(c2.ID) {
		t.Error("community after the corrupt entry was installed")
	}
	if joined := restored.Joined(); len(joined) != 1 || joined[0] != RootCommunityID {
		t.Errorf("joined = %v, want only the root community", joined)
	}
}
