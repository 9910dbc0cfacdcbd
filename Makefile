# Development and CI entry points. CI (.github/workflows/ci.yml) runs
# exactly these targets, so a green `make ci` locally means a green PR.

GO ?= go

.PHONY: build test race fmt vet bench-smoke alloc-profile fuzz-smoke determinism sim-smoke hotspot-smoke ops-smoke crash-smoke trace-smoke profile-smoke scale-smoke tcp-nightly ruler ruler-compare loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrency-sensitive internal packages (the store
# and everything that drives it).
race:
	$(GO) test -race ./internal/...

# Fail when any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet also holds the wire to one format: no non-test file of the
# protocol and transport packages may import encoding/json.
vet:
	$(GO) vet ./...
	@bad="$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./internal/p2p/... ./internal/dht ./internal/transport | \
		awk '{for (i = 2; i <= NF; i++) if ($$i == "encoding/json") print $$1}')"; \
	if [ -n "$$bad" ]; then \
		echo "encoding/json imported by wire packages (the wire has one format, internal/p2p/codec):"; echo "$$bad"; exit 1; \
	fi

# Compile-and-run every benchmark once so they cannot rot (the 24-node
# BenchmarkDHTSearchCluster of internal/dht among them), plus
# reduced-scale runs of E13 (the flooding-vs-DHT scaling comparison
# must keep producing both columns) and E18 (the WAL overhead and
# recovery measurements must keep completing).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) run ./cmd/up2pbench -run E13 -e13-max-peers 100
	$(GO) run ./cmd/up2pbench -run E18 -wal-docs 40 -wal-recovery-batches 20,60

# Where one benchmark's allocations come from, by call site:
# `make alloc-profile PKG=./internal/dht BENCH=DHTSearchCluster` runs it
# with -memprofile (every allocation sampled) and prints the top of the
# profile by objects allocated. The test binary and the profile stay in
# a temporary directory.
alloc-profile:
	@test -n "$(PKG)" -a -n "$(BENCH)" || { echo "usage: make alloc-profile PKG=./internal/dht BENCH=DHTSearchCluster"; exit 2; }
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test $(PKG) -run '^$$' -bench '$(BENCH)' -benchtime 2000x -memprofile "$$dir/mem.prof" -memprofilerate 1 -o "$$dir/pkg.test" && \
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 "$$dir/pkg.test" "$$dir/mem.prof"

# Fuzz smoke: ten seconds each of FuzzDHTFrameDecode, FuzzP2PFrameDecode,
# FuzzTCPFrame, FuzzMatchEquivalence, FuzzFilterParse and FuzzWALSegment
# on top of their seeds and the committed corpora (testdata/fuzz in
# internal/dht, internal/p2p, internal/transport, internal/query and
# internal/index) — no DHT or p2p frame decoder, no TCP connection reader
# and no WAL segment scan may panic, or allocate beyond a small multiple
# of its input, the GUID a flood relay peeks from a query or query-hit is
# the one a full decode reads, Filter.Match answers every filter and
# value as the matcher it replaced did, and a parsed filter's String
# parses back to itself, never nested deeper than the parser's bound.
fuzz-smoke:
	$(GO) test ./internal/dht -run '^$$' -fuzz FuzzDHTFrameDecode -fuzztime 10s
	$(GO) test ./internal/p2p -run '^$$' -fuzz FuzzP2PFrameDecode -fuzztime 10s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzTCPFrame -fuzztime 10s
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzMatchEquivalence -fuzztime 10s
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzFilterParse -fuzztime 10s
	$(GO) test ./internal/index -run '^$$' -fuzz FuzzWALSegment -fuzztime 10s

# Determinism gate: the golden-trace tests must produce identical
# message-trace hashes on repeated in-process runs (catches map-order
# leaks, global counters, unseeded randomness). Covers all four
# protocols, including the DHT (replication, expiry, refresh).
determinism:
	$(GO) test ./internal/sim -run Golden -count=2

# Scenario experiments at reduced scale: prove the discrete-event
# engine end to end (churn, loss, latency model, recall accounting) in
# CI, on all four overlays: the churn sweep (E14) and the loss sweep
# (E15).
sim-smoke:
	$(GO) run ./cmd/up2pbench -run E14 -scn-peers 120 -scn-queries 40
	$(GO) run ./cmd/up2pbench -run E15 -scn-peers 120 -scn-queries 40

# Hotspot smoke: the reduced flash-crowd scenario (100-peer DHT, one
# bursted community filter) must show the caching STORE at least
# halving the hottest holder's burst load with full recall, and the
# cache-enabled run must stay deterministic (-count=2).
hotspot-smoke:
	$(GO) test ./internal/sim -run FlashCrowd -count=2

# Ops-surface smoke: boot up2pd, curl /metrics (both formats) and
# /healthz, and assert the output is well-formed (needs curl + jq).
ops-smoke:
	$(GO) build -o /tmp/up2pd-ops-smoke ./cmd/up2pd
	sh scripts/ops_smoke.sh /tmp/up2pd-ops-smoke

# Tracing smoke: boot up2pd with full trace sampling, issue a traced
# query through the web search path, and assert /debug/traces serves a
# well-formed span tree (needs curl + jq).
trace-smoke:
	$(GO) build -o /tmp/up2pd-trace-smoke ./cmd/up2pd
	sh scripts/trace_smoke.sh /tmp/up2pd-trace-smoke

# Profiling smoke: boot up2pd with -debug-addr, pull a heap profile
# off the pprof listener, and assert the public ops address does not
# expose it (needs curl).
profile-smoke:
	$(GO) build -o /tmp/up2pd-profile-smoke ./cmd/up2pd
	sh scripts/profile_smoke.sh /tmp/up2pd-profile-smoke

# Scale gate: a ~5k-peer DHT deployment under churn on the virtual
# clock must finish inside its wall-clock budget with full recall —
# the canary for scale regressions (an accidental O(n^2) in the event
# engine, a per-message allocation creeping back).
scale-smoke:
	UP2P_SCALE_SMOKE=1 $(GO) test ./internal/sim -run ScaleSmoke -v -timeout 15m

# Nightly socket truth: the E14 churn scenarios scaled down and
# replayed over real TCP sockets (framing, dialing, concurrent read
# loops, dead-peer errors). Scheduled in CI; not part of `make ci`.
tcp-nightly:
	UP2P_TCP_NIGHTLY=1 $(GO) test ./internal/sim -run TCPNightly -v -count=1

# Durability gate: the kill-at-random-offset and recovery tests, the
# damaged-snapshot table, the servent restarts on a reopened log and
# the store.json migration, under the race detector.
# Catches both torn-log regressions and data races on the WAL append
# path.
crash-smoke:
	$(GO) test -race -count=1 -run 'WAL|Crash|CorruptMiddle|LoadErrors|ServentState|RestoredServent|StoreJSON|KeepsPrevious' ./internal/index ./internal/core ./cmd/up2pd

# The ruler (benchmark/README.md): `make ruler PR=19` measures this
# checkout into BENCH_19.json, one point of the committed trajectory
# (~2.5 min); `make ruler-compare BASE=BENCH_18.json CHANGE=BENCH_19.json`
# judges one point against another, metric by metric, with the bounds
# of BENCHMARK.json (BASE and CHANGE may be comma-separated lists).
ruler:
	@test -n "$(PR)" || { echo "usage: make ruler PR=<number>"; exit 2; }
	$(GO) run ./benchmark -seed 1 -json BENCH_$(PR).json

ruler-compare:
	@test -n "$(BASE)" -a -n "$(CHANGE)" || { echo "usage: make ruler-compare BASE=a.json CHANGE=b.json"; exit 2; }
	$(GO) run ./benchmark -compare $(BASE) $(CHANGE)

# Line counts (ROADMAP: net-negative lines are a success metric):
# non-test Go lines per package directory, raw and code-only, benchmark/
# left out. `make loc DIRS="internal/p2p internal/dht"` narrows it.
loc:
	@sh scripts/loc.sh $(DIRS)

ci: build fmt vet test race bench-smoke fuzz-smoke determinism sim-smoke hotspot-smoke ops-smoke trace-smoke profile-smoke crash-smoke scale-smoke
