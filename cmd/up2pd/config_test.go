package main

import (
	"strings"
	"testing"
)

func envMap(m map[string]string) func(string) string {
	return func(k string) string { return m[k] }
}

func TestLoadConfigDefaults(t *testing.T) {
	cfg, err := LoadConfig([]string{"-server", "127.0.0.1:7009"}, envMap(nil))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != "centralized" || cfg.P2PAddr != "127.0.0.1:7001" || cfg.SeedN != 23 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

func TestLoadConfigDefaultCentralizedRequiresServer(t *testing.T) {
	// The default mode is centralized, which requires a server.
	_, err := LoadConfig(nil, envMap(nil))
	if err == nil || !strings.Contains(err.Error(), "requires -server") {
		t.Fatalf("want missing-server error, got %v", err)
	}
}

func TestLoadConfigEnvFallback(t *testing.T) {
	env := envMap(map[string]string{
		"UP2P_MODE":      "dht",
		"UP2P_P2P":       "10.0.0.1:9000",
		"UP2P_NEIGHBORS": "a:1, b:2 ,",
		"UP2P_SEEDN":     "7",
	})
	cfg, err := LoadConfig(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != "dht" || cfg.P2PAddr != "10.0.0.1:9000" || cfg.SeedN != 7 {
		t.Fatalf("env fallbacks not applied: %+v", cfg)
	}
	if len(cfg.Neighbors) != 2 || cfg.Neighbors[0] != "a:1" || cfg.Neighbors[1] != "b:2" {
		t.Fatalf("neighbors not split/trimmed: %q", cfg.Neighbors)
	}
}

func TestLoadConfigFlagBeatsEnv(t *testing.T) {
	env := envMap(map[string]string{"UP2P_MODE": "dht", "UP2P_HTTP": "1.2.3.4:80"})
	cfg, err := LoadConfig([]string{"-mode", "gnutella"}, env)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != "gnutella" {
		t.Fatalf("flag should beat env, got mode %q", cfg.Mode)
	}
	if cfg.HTTPAddr != "1.2.3.4:80" {
		t.Fatalf("untouched flag should fall back to env, got http %q", cfg.HTTPAddr)
	}
}

func TestLoadConfigRejects(t *testing.T) {
	cases := [][]string{
		{"-mode", "napster"},                 // unknown mode
		{"-mode", "gnutella", "-http", ""},   // ops surface is mandatory
		{"-mode", "gnutella", "-seedn", "0"}, // non-positive seed count
		{"-mode", "fasttrack"},               // no super-peer
	}
	for _, args := range cases {
		if _, err := LoadConfig(args, envMap(nil)); err == nil {
			t.Errorf("LoadConfig(%q) accepted invalid config", args)
		}
	}
}

func TestLoadConfigBadEnvSeedN(t *testing.T) {
	if _, err := LoadConfig(nil, envMap(map[string]string{"UP2P_SEEDN": "lots"})); err == nil {
		t.Fatal("malformed UP2P_SEEDN accepted")
	}
}

func TestLoadConfigWALFlags(t *testing.T) {
	// Default: fsync always.
	cfg, err := LoadConfig([]string{"-mode", "gnutella"}, envMap(nil))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StateDir != "" || cfg.Fsync != "always" {
		t.Fatalf("unexpected persistence defaults: %+v", cfg)
	}
	// Flag form.
	cfg, err = LoadConfig([]string{"-mode", "gnutella", "-state", "/tmp/s", "-fsync", "os"}, envMap(nil))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StateDir != "/tmp/s" || cfg.Fsync != "os" {
		t.Fatalf("persistence flags not applied: %+v", cfg)
	}
	// Env form.
	cfg, err = LoadConfig([]string{"-mode", "gnutella"},
		envMap(map[string]string{"UP2P_STATE": "/tmp/s", "UP2P_FSYNC": "os"}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StateDir != "/tmp/s" || cfg.Fsync != "os" {
		t.Fatalf("persistence env not applied: %+v", cfg)
	}
}

func TestLoadConfigWALValidation(t *testing.T) {
	if _, err := LoadConfig([]string{"-mode", "gnutella", "-state", "/tmp/s", "-fsync", "sometimes"}, envMap(nil)); err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("want bad-fsync error, got %v", err)
	}
	// -state always logs the store: there is no -wal to ask for it.
	if _, err := LoadConfig([]string{"-mode", "gnutella", "-state", "/tmp/s", "-wal"}, envMap(nil)); err == nil || !strings.Contains(err.Error(), "not defined: -wal") {
		t.Fatalf("want undefined-flag error for -wal, got %v", err)
	}
}

// TestLoadConfigHubsKeepSoftState: a hub's registrations are soft state
// that peers re-announce, and a hub restarted on a logged store would
// answer from documents whose providers it never logged, so the hub
// modes refuse -state, as a flag or from the environment.
func TestLoadConfigHubsKeepSoftState(t *testing.T) {
	for _, mode := range []string{"indexserver", "superpeer"} {
		if _, err := LoadConfig([]string{"-mode", mode, "-state", "/tmp/s"}, envMap(nil)); err == nil || !strings.Contains(err.Error(), "soft state") {
			t.Errorf("-mode %s -state: want a soft-state error, got %v", mode, err)
		}
		if _, err := LoadConfig([]string{"-mode", mode}, envMap(map[string]string{"UP2P_STATE": "/tmp/s"})); err == nil {
			t.Errorf("-mode %s with UP2P_STATE accepted", mode)
		}
		if _, err := LoadConfig([]string{"-mode", mode}, envMap(nil)); err != nil {
			t.Errorf("-mode %s: %v", mode, err)
		}
	}
}

func TestLoadConfigObservabilityFlags(t *testing.T) {
	// Defaults: tracing off, no debug listener, text logs at info.
	cfg, err := LoadConfig([]string{"-mode", "gnutella"}, envMap(nil))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TraceSample != 0 || cfg.DebugAddr != "" || cfg.LogFormat != "text" || cfg.LogLevel != "info" {
		t.Fatalf("unexpected observability defaults: %+v", cfg)
	}
	// Flag form.
	cfg, err = LoadConfig([]string{"-mode", "gnutella", "-trace-sample", "0.25",
		"-debug-addr", "127.0.0.1:6060", "-log-format", "json", "-log-level", "debug"}, envMap(nil))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TraceSample != 0.25 || cfg.DebugAddr != "127.0.0.1:6060" || cfg.LogFormat != "json" || cfg.LogLevel != "debug" {
		t.Fatalf("observability flags not applied: %+v", cfg)
	}
	// Env form.
	cfg, err = LoadConfig([]string{"-mode", "gnutella"}, envMap(map[string]string{
		"UP2P_TRACE_SAMPLE": "0.5",
		"UP2P_DEBUG":        "127.0.0.1:6061",
		"UP2P_LOG_FORMAT":   "json",
		"UP2P_LOG_LEVEL":    "warn",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TraceSample != 0.5 || cfg.DebugAddr != "127.0.0.1:6061" || cfg.LogFormat != "json" || cfg.LogLevel != "warn" {
		t.Fatalf("observability env not applied: %+v", cfg)
	}
}

func TestLoadConfigObservabilityValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "gnutella", "-trace-sample", "1.5"},
		{"-mode", "gnutella", "-trace-sample", "-0.1"},
		{"-mode", "gnutella", "-log-format", "xml"},
		{"-mode", "gnutella", "-log-level", "loud"},
	} {
		if _, err := LoadConfig(args, envMap(nil)); err == nil {
			t.Errorf("LoadConfig(%q) accepted invalid config", args)
		}
	}
	if _, err := LoadConfig(nil, envMap(map[string]string{"UP2P_TRACE_SAMPLE": "lots"})); err == nil {
		t.Fatal("malformed UP2P_TRACE_SAMPLE accepted")
	}
}
