// Command up2pd runs a U-P2P servent: a web interface (§IV.B) over a
// P2P node speaking the centralized (Napster-style), Gnutella,
// FastTrack super-peer, or Kademlia DHT protocol, over real TCP.
//
// Configuration is flags with UP2P_* environment-variable fallbacks
// (flag > env > default; see LoadConfig). Every mode serves an ops
// surface on the HTTP address: /metrics (Prometheus text, or
// expvar-style JSON with ?format=json), /healthz, and /debug/traces
// (recent and slowest query span trees once -trace-sample is set).
// -debug-addr additionally serves net/http/pprof on a separate,
// operator-only listener. Logging is structured (log/slog) with
// -log-format text|json and -log-level.
//
// Topology bootstrapping:
//
//	# start a centralized index server
//	up2pd -mode indexserver -p2p 127.0.0.1:7001 -http 127.0.0.1:8080
//
//	# start a servent against it
//	up2pd -mode centralized -p2p 127.0.0.1:7002 -server 127.0.0.1:7001 -http 127.0.0.1:8081
//
//	# or a Gnutella servent with bootstrap neighbors
//	up2pd -mode gnutella -p2p 127.0.0.1:7002 -neighbors 127.0.0.1:7003,127.0.0.1:7004 -http 127.0.0.1:8081
//
//	# or a Kademlia DHT servent joining via bootstrap contacts
//	UP2P_MODE=dht UP2P_P2P=127.0.0.1:7002 UP2P_NEIGHBORS=127.0.0.1:7003 up2pd -http 127.0.0.1:8081
//
// Optionally pre-seed a demo community: -seed designpatterns|mp3|cml|species.
package main

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/errs"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/servent"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "up2pd:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg, err := LoadConfig(os.Args[1:], os.Getenv)
	if err != nil {
		return err
	}
	logger := cfg.Logger(os.Stderr)
	slog.SetDefault(logger)

	// One registry for the whole daemon: transport, protocol node,
	// store, and error telemetry aggregate here and are served on
	// /metrics.
	reg := metrics.NewRegistry()
	start := time.Now()

	node, err := transport.ListenTCP(cfg.P2PAddr)
	if err != nil {
		return err
	}
	node.SetMetrics(reg)
	logger.Info("p2p listening", "peer", string(node.ID()), "mode", cfg.Mode)

	// Tracing: one tracer for the whole daemon, sampled at the
	// configured rate; the collector behind /debug/traces assembles
	// this node's spans (trees rooted elsewhere show as partial).
	// With -trace-sample 0 the tracer stays nil — the zero-allocation
	// disabled state — and /debug/traces just serves zero traces.
	collector := trace.NewCollector()
	var tracer *trace.Tracer
	if cfg.TraceSample > 0 {
		tracer = trace.New(string(node.ID()), cfg.Mode, trace.WithSampling(cfg.TraceSample))
		collector.Attach(tracer)
		logger.Info("tracing enabled", "sample", cfg.TraceSample)
	}

	// pprof rides its own listener so profiling is never exposed on
	// the public web/ops address.
	if cfg.DebugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(cfg.DebugAddr, dbg); err != nil {
				logger.Error("debug listener failed", "addr", cfg.DebugAddr, "err", err)
			}
		}()
		logger.Info("pprof debug surface", "addr", cfg.DebugAddr)
	}

	base := func() health {
		return health{Status: "ok", Mode: cfg.Mode, Peer: string(node.ID()), Uptime: uptimeSince(start)}
	}
	var (
		app      http.Handler
		healthFn func() health
		cleanup  func() error
	)

	switch cfg.Mode {
	case "indexserver":
		// A hub's registrations are soft state its peers re-announce, so
		// it keeps them in memory (LoadConfig refuses -state for hubs).
		is := p2p.NewIndexServerOn(node, index.NewStore(index.WithMetrics(reg)))
		wire(is, reg, tracer)
		healthFn = func() health {
			h := base()
			h.Docs = is.Len()
			return h
		}
		cleanup = is.Close
	case "superpeer":
		sp := p2p.NewSuperPeer(node)
		wire(sp, reg, tracer)
		for _, n := range cfg.Neighbors {
			sp.AddNeighbor(transport.PeerID(n))
		}
		healthFn = func() health {
			h := base()
			h.LivePeers = len(sp.Neighbors())
			h.Docs = sp.Len()
			return h
		}
		cleanup = sp.Close
	default:
		sv, hf, err := buildServent(cfg, node, reg, tracer, logger, base)
		if err != nil {
			return err
		}
		if cfg.StateDir != "" {
			defer func() {
				if err := saveState(sv, cfg, logger); err != nil {
					logger.Error("save state failed", "dir", cfg.StateDir, "err", err, "code", errs.Code(err))
				}
			}()
		}
		app = servent.New(sv)
		healthFn = hf
		cleanup = func() error {
			err := sv.Close()
			// Clean shutdown folds the WAL into one snapshot (no-op
			// without -state).
			if cerr := sv.Store().Close(); err == nil {
				err = cerr
			}
			return err
		}
		logger.Info("web interface up", "url", "http://"+cfg.HTTPAddr+"/")
	}

	logger.Info("ops surface up", "addr", cfg.HTTPAddr,
		"endpoints", "/metrics /healthz /debug/traces")
	srv := &http.Server{Addr: cfg.HTTPAddr, Handler: opsMux(reg, healthFn, trace.Handler(collector), app)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	// SIGTERM is what systemd and docker send on stop; missing it
	// (the old os.Interrupt-only Notify) skipped the state save.
	intc := make(chan os.Signal, 1)
	signal.Notify(intc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		_ = cleanup()
		return err
	case <-intc:
		logger.Info("shutting down")
		_ = srv.Close()
		return cleanup()
	}
}

// wire points a freshly built protocol node of any kind at the daemon's
// registry and tracer; clock and codec keep the p2p.Peer defaults (wall,
// binary).
func wire(n interface {
	SetMetrics(*metrics.Registry)
	SetTracer(*trace.Tracer)
}, reg *metrics.Registry, tracer *trace.Tracer) {
	n.SetMetrics(reg)
	n.SetTracer(tracer)
}

// buildServent wires a servent-mode P2P node (centralized, gnutella,
// fasttrack, dht) onto the shared registry and tracer, and returns it
// with its mode-specific health callback.
func buildServent(cfg Config, node *transport.TCPNode, reg *metrics.Registry, tracer *trace.Tracer, logger *slog.Logger, base func() health) (*core.Servent, func() health, error) {
	store, err := openStore(cfg, reg, logger)
	if err != nil {
		return nil, nil, err
	}
	var network p2p.Network
	var healthFn func() health
	switch cfg.Mode {
	case "centralized":
		client := p2p.NewCentralizedClient(node, transport.PeerID(cfg.Server), store)
		wire(client, reg, tracer)
		network = client
		healthFn = func() health {
			h := base()
			h.Server = string(client.Server())
			h.LivePeers = 1
			h.Docs = store.Len()
			return h
		}
	case "fasttrack":
		leaf := p2p.NewFastTrackLeaf(node, transport.PeerID(cfg.Server), store)
		wire(leaf, reg, tracer)
		network = leaf
		healthFn = func() health {
			h := base()
			h.Server = string(leaf.Server())
			h.LivePeers = 1
			h.Docs = store.Len()
			return h
		}
	case "gnutella":
		g := p2p.NewGnutellaNode(node, store)
		wire(g, reg, tracer)
		for _, n := range cfg.Neighbors {
			g.AddNeighbor(transport.PeerID(n))
		}
		// Grow the overlay beyond the bootstrap list via Ping/Pong. The
		// pongs take up to p2p.DefaultTimeout to collect, so the daemon
		// starts serving meanwhile.
		go func() {
			if found := g.Discover(3); len(found) > 0 {
				logger.Info("discovered peers via ping/pong", "count", len(found))
			}
		}()
		network = g
		healthFn = func() health {
			h := base()
			h.LivePeers = len(g.Neighbors())
			h.Docs = store.Len()
			return h
		}
	case "dht":
		d := dht.NewNode(node, store, dht.Config{CacheRecords: cfg.DHTCache})
		wire(d, reg, tracer)
		var boot []transport.PeerID
		for _, n := range cfg.Neighbors {
			boot = append(boot, transport.PeerID(n))
		}
		// The Kademlia join (self-lookup off the bootstrap contacts)
		// populates the routing table before the servent starts.
		d.Bootstrap(boot...)
		logger.Info("dht joined", "bootstrap_contacts", len(boot), "routing_contacts", d.TableLen())
		// Periodic maintenance: without it every record this daemon
		// publishes would expire at RecordTTL and dead contacts would
		// linger. The simulator paces this on the virtual clock
		// (DHTRefreshEvery); a real daemon paces it on the wall clock,
		// refreshing at half the TTL so records never lapse.
		go func() {
			tick := time.NewTicker(dht.DefaultRecordTTL / 2)
			defer tick.Stop()
			for range tick.C {
				if err := d.Refresh(); err != nil {
					return // node closed
				}
			}
		}()
		network = d
		healthFn = func() health {
			h := base()
			h.LivePeers = d.TableLen()
			h.Docs = store.Len()
			h.DHTRecords = d.RecordCount()
			return h
		}
	default:
		return nil, nil, fmt.Errorf("unknown mode %q", cfg.Mode)
	}

	sv, err := core.NewServent(network, store)
	if err != nil {
		return nil, nil, err
	}
	// The servent roots a trace per web-interface search on the node's
	// tracer and logs failed searches with their errs code and trace ID.
	sv.SetLogger(logger)
	if cfg.StateDir != "" {
		if err := loadState(sv, cfg, logger); err != nil {
			return nil, nil, err
		}
	}
	if cfg.Seed != "" {
		if err := seedCommunity(sv, cfg.Seed, cfg.SeedN); err != nil {
			return nil, nil, err
		}
		logger.Info("seeded demo community", "community", cfg.Seed, "objects", cfg.SeedN)
	}
	return sv, healthFn, nil
}

func seedCommunity(sv *core.Servent, name string, n int) error {
	c, err := corpus.ByName(name, n, 1)
	if err != nil {
		return err
	}
	comm, err := sv.CreateCommunity(core.CommunitySpec{
		Name:        name,
		Description: "seeded demo community",
		Keywords:    name,
		SchemaSrc:   c.SchemaSrc,
	})
	if err != nil {
		return err
	}
	for _, o := range c.Objects {
		if _, err := sv.Publish(comm.ID, o.Doc, nil); err != nil {
			return err
		}
	}
	return nil
}

// openStore builds a servent's metadata store: write-ahead logged under
// <state>/wal (crash recovery runs inside OpenStore) when -state is set;
// plain in-memory otherwise.
func openStore(cfg Config, reg *metrics.Registry, logger *slog.Logger) (*index.Store, error) {
	opts := []index.Option{index.WithMetrics(reg), index.WithLogger(logger)}
	if cfg.StateDir == "" {
		return index.NewStore(opts...), nil
	}
	policy, err := index.ParseFsyncPolicy(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.StateDir, "wal")
	if err := migrateStoreJSON(cfg.StateDir, dir); err != nil {
		return nil, err
	}
	store, err := index.OpenStore(append(opts, index.WithWAL(dir), index.WithWALFsync(policy))...)
	if err != nil {
		return nil, err
	}
	logger.Info("wal open", "dir", dir, "fsync", string(policy), "objects_recovered", store.Len())
	return store, nil
}

// migrateStoreJSON adopts a store.json saved by daemons that persisted
// the store only on clean shutdown: it is written in the log's
// snapshot format, so it becomes the log's snapshot.json unless the
// log already has one.
func migrateStoreJSON(stateDir, walDir string) error {
	old := filepath.Join(stateDir, "store.json")
	snap := filepath.Join(walDir, "snapshot.json")
	if _, err := os.Stat(old); errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	if _, err := os.Stat(snap); !errors.Is(err, os.ErrNotExist) {
		return err // nil: the log has its own snapshot
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	return os.Rename(old, snap)
}

// loadState restores the servent state file from the state directory
// when it exists (a fresh directory is not an error) and re-announces
// the objects openStore recovered to the network.
func loadState(sv *core.Servent, cfg Config, logger *slog.Logger) error {
	stateFile := filepath.Join(cfg.StateDir, "servent.json")
	if f, err := os.Open(stateFile); err == nil {
		defer f.Close()
		if err := sv.LoadState(f); err != nil {
			return err
		}
		logger.Info("restored servent state", "file", stateFile)
	}
	// Re-announce the objects the store recovered: one batch per
	// community, so one log record and one register-batch each.
	for _, communityID := range sv.Store().Communities() {
		var docs []*index.Document
		for _, e := range sv.SearchLocal(communityID, query.MatchAll{}, 0) {
			docs = append(docs, e.Document())
		}
		if err := sv.Network().PublishBatch(docs); err != nil {
			return err
		}
	}
	return nil
}

// saveState writes the servent state into the state directory. The
// store persists through its log instead: clean shutdown compacts it.
func saveState(sv *core.Servent, cfg Config, logger *slog.Logger) error {
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return err
	}
	// Through a temp file and a rename: a crash or a full disk mid-save
	// must leave the previous servent.json, which LoadState can read.
	if err := index.WriteFileAtomic(filepath.Join(cfg.StateDir, "servent.json"), sv.SaveState); err != nil {
		return err
	}
	logger.Info("saved state", "dir", cfg.StateDir)
	return nil
}
