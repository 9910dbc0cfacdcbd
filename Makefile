# Development and CI entry points. CI (.github/workflows/ci.yml) runs
# exactly these targets, so a green `make ci` locally means a green PR.

GO ?= go

.PHONY: build test race fmt vet surface surface-check bench-smoke alloc-profile heap-profile fuzz-smoke determinism sim-smoke hotspot-smoke ops-smoke crash-smoke trace-smoke profile-smoke scale-smoke tcp-nightly ruler ruler-compare loc ci

# The cross builds keep the OS-specific parts of internal/ honest: the
# TCP reader's readiness read is Unix-only, with a portable fallback.
build:
	$(GO) build ./...
	GOOS=windows $(GO) build ./internal/... ./cmd/...
	GOOS=darwin $(GO) build ./internal/... ./cmd/...

test:
	$(GO) test ./...

# Race-detect the internal packages (the store and everything that
# drives it) and the commands built on them (the daemon's state and
# config handling, the CLI against a live servent).
race:
	$(GO) test -race ./internal/... ./cmd/...

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

# The surface ruler: rewrite SURFACE.txt (exported identifiers, the
# ones no non-test file references and why each stays, knobs, flags,
# UP2P_* variables, errs codes, internal import edges) from the code.
# TestSurface, part of `make test`, fails when the committed file
# drifts; review the diff this target leaves.
surface:
	$(GO) test ./internal/surface -run '^TestSurface$$' -count=1 -update

# Surface drift: SURFACE.txt must match what the code produces (the CI
# step of that name; `make surface` rewrites it).
surface-check:
	$(GO) test ./internal/surface -run '^TestSurface$$' -count=1

# Compile-and-run every benchmark once so they cannot rot (the 24-node
# BenchmarkDHTSearchCluster of internal/dht and internal/sim's
# BenchmarkScenarioChurn, one sim-dht-churn scenario in ~0.8 s, among
# them), plus
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
# profile twice: by objects allocated, then by bytes allocated. The test
# binary and the profile stay in a temporary directory. BENCHTIME is
# the op count, 2000x unless given: `make alloc-profile
# PKG=./internal/sim BENCH=ScenarioChurn BENCHTIME=3x` profiles three of
# sim-dht-churn's scenarios (~4 s an op with every allocation sampled),
# which splits that workload's allocations between the system and the
# scenario's recall oracle (sim.(*scenario).recall) without the ruler.
# `make alloc-profile PKG=./internal/dht BENCH=DHTSearchTCP` is the
# DHTSearchCluster search on loopback TCP: tcp-dht-search's search path
# (reader, timers, frames) without the ruler's servents and oracle.
# `make alloc-profile PKG=./internal/p2p BENCH=FloodSearchTCP` is its
# flood twin: tcp-gnutella-flood's searches, relays and hits on
# loopback TCP, without the ruler's oracle (over half of that
# workload's window objects).
BENCHTIME ?= 2000x
alloc-profile:
	@test -n "$(PKG)" -a -n "$(BENCH)" || { echo "usage: make alloc-profile PKG=./internal/dht BENCH=DHTSearchCluster"; exit 2; }
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test $(PKG) -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) -memprofile "$$dir/mem.prof" -memprofilerate 1 -o "$$dir/pkg.test" && \
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 "$$dir/pkg.test" "$$dir/mem.prof" && \
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 25 "$$dir/pkg.test" "$$dir/mem.prof"

# What one benchmark leaves resident, by call site: the inuse_space
# twin of alloc-profile. `make heap-profile PKG=./internal/dht
# BENCH=RecordStoreGet` runs it with -memprofile (every allocation
# sampled) and prints the top of the profile by bytes still in use when
# it ends. The test binary and the profile stay in a temporary directory.
heap-profile:
	@test -n "$(PKG)" -a -n "$(BENCH)" || { echo "usage: make heap-profile PKG=./internal/dht BENCH=RecordStoreGet"; exit 2; }
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test $(PKG) -run '^$$' -bench '$(BENCH)' -benchtime 2000x -memprofile "$$dir/mem.prof" -memprofilerate 1 -o "$$dir/pkg.test" && \
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount 25 "$$dir/pkg.test" "$$dir/mem.prof"

# Fuzz smoke: ten seconds each of FuzzDHTFrameDecode, FuzzHolderIndex,
# FuzzTableModel, FuzzP2PFrameDecode, FuzzTCPFrame, FuzzMatchEquivalence,
# FuzzFilterParse, FuzzFieldsRoundTrip, FuzzWALSegment, FuzzStoreSearch,
# FuzzStoreRoundTrip, FuzzXPathCompile, FuzzXMLParse, FuzzEscape,
# FuzzXSDParse, FuzzUnmarshalCommunity, FuzzIndexerExtract and
# FuzzXSLTApply on top of their seeds and the committed corpora
# (testdata/fuzz in internal/dht, internal/p2p, internal/transport,
# internal/query, internal/index, internal/xmldoc, internal/xsd and
# internal/core) — a DHT holder's posting lists
# answer every get as a scan of the same records does, a routing table
# that holds only the k-buckets it has filled keeps every bucket, probe
# set and closest-contacts answer of the fixed-array table it replaced,
# within k contacts' storage per list, no DHT or p2p
# frame decoder, no TCP connection reader and no WAL segment scan may
# panic, or allocate beyond a small multiple of its
# input, the GUID a flood relay peeks from a query or query-hit is the
# one a full decode reads, Filter.Match answers every filter and value
# as the matcher it replaced did, a parsed filter's String parses back
# to itself, never nested deeper than the parser's bound, a store's
# search answers as a linear scan of its live documents does, an
# attribute set put into a store comes back from it, matches over its
# entry as over its map and is found under each of its index keys, XPath
# compilation never panics and keeps its source, a parsed XML
# document's String parses back to the same String, the escapers that
# serialize it write what the old rune-at-a-time ones did, an attribute
# set survives the wire as the map it came from, a stranger's schema
# parses, flattens and validates without panicking, joining a
# stranger's community neither panics nor renders past the XSLT
# budget, an Indexer's path
# walk extracts what the generated indexing stylesheet does, and an
# XSLT transform never panics, never succeeds over its budget and, for
# a shipped stylesheet, never runs out of it.
fuzz-smoke:
	$(GO) test ./internal/dht -run '^$$' -fuzz FuzzDHTFrameDecode -fuzztime 10s
	$(GO) test ./internal/dht -run '^$$' -fuzz FuzzHolderIndex -fuzztime 10s
	$(GO) test ./internal/dht -run '^$$' -fuzz FuzzTableModel -fuzztime 10s
	$(GO) test ./internal/p2p -run '^$$' -fuzz FuzzP2PFrameDecode -fuzztime 10s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzTCPFrame -fuzztime 10s
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzMatchEquivalence -fuzztime 10s
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzFilterParse -fuzztime 10s
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzFieldsRoundTrip -fuzztime 10s
	$(GO) test ./internal/index -run '^$$' -fuzz FuzzWALSegment -fuzztime 10s
	$(GO) test ./internal/index -run '^$$' -fuzz FuzzStoreSearch -fuzztime 10s
	$(GO) test ./internal/index -run '^$$' -fuzz FuzzStoreRoundTrip -fuzztime 10s
	$(GO) test ./internal/xpath -run '^$$' -fuzz FuzzXPathCompile -fuzztime 10s
	$(GO) test ./internal/xmldoc -run '^$$' -fuzz FuzzXMLParse -fuzztime 10s
	$(GO) test ./internal/xmldoc -run '^$$' -fuzz FuzzEscape -fuzztime 10s
	$(GO) test ./internal/xsd -run '^$$' -fuzz FuzzXSDParse -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzUnmarshalCommunity -fuzztime 10s
	$(GO) test ./internal/stylegen -run '^$$' -fuzz FuzzIndexerExtract -fuzztime 10s
	$(GO) test ./internal/xslt -run '^$$' -fuzz FuzzXSLTApply -fuzztime 10s

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

# Socket truth: the E14 churn scenarios scaled down and replayed over
# real TCP sockets (framing, dialing, concurrent read loops, dead-peer
# errors), under the race detector — the one test that runs many read
# loops at once, where a handler keeping a borrowed payload past its
# return would show. CI's race job runs it on every push.
tcp-nightly:
	UP2P_TCP_NIGHTLY=1 $(GO) test -race ./internal/sim -run TCPNightly -v -count=1

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

ci: build fmt vet surface-check test race tcp-nightly bench-smoke fuzz-smoke determinism sim-smoke hotspot-smoke ops-smoke trace-smoke profile-smoke crash-smoke scale-smoke
