package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"

	"repro/internal/index"
)

// Config collects every up2pd setting in one validated struct. Each
// field is settable as a command-line flag or, when the flag is left at
// its default, through an UP2P_* environment variable; precedence is
// flag > environment > built-in default.
type Config struct {
	// Mode selects the protocol role: indexserver | superpeer |
	// centralized | gnutella | fasttrack | dht. Env: UP2P_MODE.
	Mode string
	// P2PAddr is the TCP address for the P2P layer. Env: UP2P_P2P.
	P2PAddr string
	// HTTPAddr is the HTTP address serving the web interface and the
	// ops endpoints (/metrics, /healthz). Env: UP2P_HTTP.
	HTTPAddr string
	// Server is the index server / super-peer address required by the
	// centralized and fasttrack modes. Env: UP2P_SERVER.
	Server string
	// Neighbors are bootstrap peers (gnutella neighbors, super-peer
	// overlay links, DHT contacts). Env: UP2P_NEIGHBORS
	// (comma-separated).
	Neighbors []string
	// Seed optionally pre-seeds a demo community:
	// designpatterns|mp3|cml|species. Env: UP2P_SEED.
	Seed string
	// SeedN is the number of seeded objects. Env: UP2P_SEEDN.
	SeedN int
	// StateDir is the directory for a servent's persistent state; empty
	// disables persistence. The store is write-ahead logged under
	// StateDir/wal: every write is durable when acknowledged, recovery
	// replays snapshot + log on start, and clean shutdown compacts.
	// Joined communities and attachments are saved to
	// StateDir/servent.json on shutdown. The hub modes (indexserver,
	// superpeer) refuse it: their registrations are soft state that
	// peers re-announce. Env: UP2P_STATE.
	StateDir string
	// Fsync is the WAL fsync policy: "always" (default; survives power
	// loss) or "os" (page-cache flushing; survives process crash
	// only). Env: UP2P_FSYNC.
	Fsync string
	// DHTCache enables Kademlia's caching STORE in dht mode: after a
	// successful FIND_VALUE the querier replicates the result set onto
	// the closest lookup-path node that did not hold it, with a halved
	// TTL, so flash crowds terminate before reaching the key's
	// holders. Ignored outside dht mode. Env: UP2P_DHT_CACHE (1/true).
	DHTCache bool
	// TraceSample is the head-based trace sampling rate in [0,1]: that
	// fraction of queries this daemon roots become recorded span trees
	// on /debug/traces. 0 (default) disables tracing entirely — the
	// zero-allocation nil-tracer path. Env: UP2P_TRACE_SAMPLE.
	TraceSample float64
	// DebugAddr, when set, serves net/http/pprof on its own listener
	// (separate from the public HTTP address, so profiling stays
	// operator-only). Empty (default) disables it. Env: UP2P_DEBUG.
	DebugAddr string
	// LogFormat selects the slog handler: "text" (default) or "json".
	// Env: UP2P_LOG_FORMAT.
	LogFormat string
	// LogLevel is the minimum level logged: debug | info | warn |
	// error (default info). Env: UP2P_LOG_LEVEL.
	LogLevel string
}

// LoadConfig parses args (without the program name), filling unset
// flags from getenv, then validates the result. getenv is injected so
// tests can run without mutating the process environment.
func LoadConfig(args []string, getenv func(string) string) (Config, error) {
	env := func(key, fallback string) string {
		if v := getenv(key); v != "" {
			return v
		}
		return fallback
	}
	seedN := 23
	if v := getenv("UP2P_SEEDN"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return Config{}, fmt.Errorf("UP2P_SEEDN: %v", err)
		}
		seedN = n
	}
	cacheDefault := false
	if v := getenv("UP2P_DHT_CACHE"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return Config{}, fmt.Errorf("UP2P_DHT_CACHE: %v", err)
		}
		cacheDefault = b
	}
	sampleDefault := 0.0
	if v := getenv("UP2P_TRACE_SAMPLE"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Config{}, fmt.Errorf("UP2P_TRACE_SAMPLE: %v", err)
		}
		sampleDefault = f
	}

	var cfg Config
	fs := flag.NewFlagSet("up2pd", flag.ContinueOnError)
	fs.StringVar(&cfg.Mode, "mode", env("UP2P_MODE", "centralized"), "indexserver | superpeer | centralized | gnutella | fasttrack | dht (env UP2P_MODE)")
	fs.StringVar(&cfg.P2PAddr, "p2p", env("UP2P_P2P", "127.0.0.1:7001"), "TCP address for the P2P layer (env UP2P_P2P)")
	fs.StringVar(&cfg.HTTPAddr, "http", env("UP2P_HTTP", "127.0.0.1:8080"), "HTTP address for the web interface and ops endpoints (env UP2P_HTTP)")
	fs.StringVar(&cfg.Server, "server", env("UP2P_SERVER", ""), "index server / super-peer address (centralized, fasttrack modes; env UP2P_SERVER)")
	neighbors := fs.String("neighbors", env("UP2P_NEIGHBORS", ""), "comma-separated bootstrap neighbors (env UP2P_NEIGHBORS)")
	fs.StringVar(&cfg.Seed, "seed", env("UP2P_SEED", ""), "pre-seed a demo community: designpatterns|mp3|cml|species (env UP2P_SEED)")
	fs.IntVar(&cfg.SeedN, "seedn", seedN, "number of seeded objects (env UP2P_SEEDN)")
	fs.StringVar(&cfg.StateDir, "state", env("UP2P_STATE", ""), "directory for a servent's persistent state: the store's write-ahead log under <dir>/wal (acked writes survive crashes, recovered at start) and servent.json (saved on shutdown); indexserver and superpeer keep soft state and refuse it (env UP2P_STATE)")
	fs.StringVar(&cfg.Fsync, "fsync", env("UP2P_FSYNC", string(index.FsyncAlways)), "WAL fsync policy under -state: always | os (env UP2P_FSYNC)")
	fs.BoolVar(&cfg.DHTCache, "dht-cache", cacheDefault, "dht mode: cache FIND_VALUE results on lookup-path nodes with halved TTL (env UP2P_DHT_CACHE)")
	fs.Float64Var(&cfg.TraceSample, "trace-sample", sampleDefault, "per-query trace sampling rate in [0,1]; 0 disables tracing (env UP2P_TRACE_SAMPLE)")
	fs.StringVar(&cfg.DebugAddr, "debug-addr", env("UP2P_DEBUG", ""), "separate listener for net/http/pprof; empty disables (env UP2P_DEBUG)")
	fs.StringVar(&cfg.LogFormat, "log-format", env("UP2P_LOG_FORMAT", "text"), "log output format: text | json (env UP2P_LOG_FORMAT)")
	fs.StringVar(&cfg.LogLevel, "log-level", env("UP2P_LOG_LEVEL", "info"), "minimum log level: debug | info | warn | error (env UP2P_LOG_LEVEL)")
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	for _, n := range strings.Split(*neighbors, ",") {
		if n = strings.TrimSpace(n); n != "" {
			cfg.Neighbors = append(cfg.Neighbors, n)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks the cross-field constraints that flag parsing alone
// cannot express.
func (c Config) Validate() error {
	switch c.Mode {
	case "indexserver", "superpeer", "centralized", "gnutella", "fasttrack", "dht":
	default:
		return fmt.Errorf("unknown mode %q", c.Mode)
	}
	if c.P2PAddr == "" {
		return fmt.Errorf("p2p address must not be empty")
	}
	if c.HTTPAddr == "" {
		return fmt.Errorf("http address must not be empty (every mode serves /metrics and /healthz)")
	}
	if (c.Mode == "centralized" || c.Mode == "fasttrack") && c.Server == "" {
		return fmt.Errorf("%s mode requires -server (or UP2P_SERVER)", c.Mode)
	}
	if c.StateDir != "" && (c.Mode == "indexserver" || c.Mode == "superpeer") {
		return fmt.Errorf("%s mode takes no -state (or UP2P_STATE): its registrations are soft state that peers re-announce", c.Mode)
	}
	if c.SeedN <= 0 {
		return fmt.Errorf("seedn must be positive, got %d", c.SeedN)
	}
	if _, err := index.ParseFsyncPolicy(c.Fsync); err != nil {
		return err
	}
	if c.TraceSample < 0 || c.TraceSample > 1 {
		return fmt.Errorf("trace-sample must be in [0,1], got %g", c.TraceSample)
	}
	switch c.LogFormat {
	case "text", "json":
	default:
		return fmt.Errorf("unknown log format %q (want text or json)", c.LogFormat)
	}
	if _, err := parseLogLevel(c.LogLevel); err != nil {
		return err
	}
	return nil
}

// parseLogLevel maps the -log-level string onto a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
	}
	return lvl, nil
}

// Logger builds the daemon logger the config describes, writing to w.
// Validate has already vetted format and level.
func (c Config) Logger(w io.Writer) *slog.Logger {
	lvl, _ := parseLogLevel(c.LogLevel)
	opts := &slog.HandlerOptions{Level: lvl}
	if c.LogFormat == "json" {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}
