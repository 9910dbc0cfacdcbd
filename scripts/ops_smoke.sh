#!/bin/sh
# ops-smoke: boot an up2pd daemon, scrape the ops surface, and assert
# the output is well-formed; then prove that a daemon under -state
# persists its store across a SIGTERM and across a SIGKILL, and that a
# restart restores it; then that FastTrack leaves under two different
# super-peers, and two DHT daemons, find each other's communities over
# TCP; then that a Gnutella daemon grows its neighbor set past its
# -neighbors list by Ping/Pong. Run via `make ops-smoke`.
set -eu

bin="$1"
p2p=127.0.0.1:7971
http=127.0.0.1:8971
pid=
state=
crash=
ft=
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; [ -n "$ft" ] && kill $ft 2>/dev/null; [ -n "$state" ] && rm -rf "$state"; [ -n "$crash" ] && rm -rf "$crash"' EXIT

# wait_health blocks until $1 serves /healthz (5s budget).
wait_health() {
    i=0
    until curl -sf "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "ops-smoke: daemon never served /healthz on $1" >&2
            exit 1
        fi
        sleep 0.1
    done
}

"$bin" -mode gnutella -p2p "$p2p" -http "$http" -seed designpatterns &
pid=$!
wait_health "$http"

echo "== /healthz"
health=$(curl -sf "http://$http/healthz")
echo "$health"
echo "$health" | grep -q '"status": "ok"'
echo "$health" | grep -q '"mode": "gnutella"'
echo "$health" | jq -e '.docs >= 1' >/dev/null

echo "== /metrics (Prometheus text)"
prom=$(curl -sf "http://$http/metrics")
echo "$prom" | head -8
echo "$prom" | grep -q '^# TYPE up2p_index_docs gauge$'
echo "$prom" | grep -q '^up2p_index_docs [1-9]'
echo "$prom" | grep -q '^up2p_p2p_publishes{protocol="gnutella"} [1-9]'
echo "$prom" | grep -q '_bucket{le="+Inf"}'

echo "== /metrics?format=json"
json=$(curl -sf "http://$http/metrics?format=json")
echo "$json" | jq -e '."index.docs" >= 1' >/dev/null
echo "$json" | jq -e '."p2p.publishes{protocol=gnutella}" >= 1' >/dev/null

kill "$pid"
wait "$pid" || true
pid=

echo "== SIGTERM persistence round trip"
state=$(mktemp -d)
p2p2=127.0.0.1:7972
http2=127.0.0.1:8972

"$bin" -mode gnutella -p2p "$p2p2" -http "$http2" -seed designpatterns -state "$state" &
pid=$!
wait_health "$http2"
docs=$(curl -sf "http://$http2/healthz" | jq -e '.docs')
[ "$docs" -ge 1 ]

# SIGTERM (what systemd/docker send) must save state before exit.
kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "ops-smoke: daemon did not exit on SIGTERM" >&2
        exit 1
    fi
    sleep 0.1
done
pid=
[ -f "$state/servent.json" ] || { echo "ops-smoke: no servent.json after TERM" >&2; exit 1; }
[ -f "$state/wal/snapshot.json" ] || { echo "ops-smoke: no wal snapshot after TERM" >&2; exit 1; }

# Restart without -seed on fresh ports: every object must come back.
"$bin" -mode gnutella -p2p 127.0.0.1:7973 -http 127.0.0.1:8973 -state "$state" &
pid=$!
wait_health 127.0.0.1:8973
restored=$(curl -sf "http://127.0.0.1:8973/healthz" | jq -e '.docs')
if [ "$restored" -ne "$docs" ]; then
    echo "ops-smoke: restored $restored docs, want $docs" >&2
    exit 1
fi
echo "persisted and restored $docs objects across SIGTERM"

# Let the restarted daemon shut down before the trap removes its
# state directory out from under the final compaction.
kill -TERM "$pid"
wait "$pid" || true
pid=

echo "== SIGKILL durability (no clean shutdown, no compaction)"
crash=$(mktemp -d)
"$bin" -mode gnutella -p2p 127.0.0.1:7974 -http 127.0.0.1:8974 -seed designpatterns -state "$crash" &
pid=$!
wait_health 127.0.0.1:8974
docs=$(curl -sf "http://127.0.0.1:8974/healthz" | jq -e '.docs')
[ "$docs" -ge 1 ]
# The communities it holds objects of: the seeded one and the root
# community holding its description, both linked from the home page.
comms=$(curl -sf "http://127.0.0.1:8974/" | grep -o 'href="/community/[^"]*"' | sort -u | wc -l)
[ "$comms" -ge 2 ]
kill -KILL "$pid"
wait "$pid" || true
pid=
# Nothing ran at exit: the log alone must carry every acked write.
[ ! -f "$crash/wal/snapshot.json" ] || { echo "ops-smoke: snapshot written despite SIGKILL" >&2; exit 1; }

"$bin" -mode gnutella -p2p 127.0.0.1:7975 -http 127.0.0.1:8975 -state "$crash" &
pid=$!
wait_health 127.0.0.1:8975
restored=$(curl -sf "http://127.0.0.1:8975/healthz" | jq -e '.docs')
if [ "$restored" -ne "$docs" ]; then
    echo "ops-smoke: recovered $restored docs after SIGKILL, want $docs" >&2
    exit 1
fi
echo "recovered $docs objects from the log after SIGKILL"
# The restart re-announces what it recovered one batch per community:
# one log record each, not one per object.
appends=$(curl -sf "http://127.0.0.1:8975/metrics" | awk '$1 == "up2p_index_wal_appends" {print $2}')
if [ -z "$appends" ] || [ "$appends" -gt "$comms" ]; then
    echo "ops-smoke: the restart appended ${appends:-no} log records re-announcing $docs objects of $comms communities" >&2
    exit 1
fi
echo "re-announced them in $appends log records"

kill -TERM "$pid"
wait "$pid" || true
pid=

echo "== FastTrack over TCP: a leaf discovers a community held under the other super-peer"
"$bin" -mode superpeer -p2p 127.0.0.1:7976 -http 127.0.0.1:8976 -neighbors 127.0.0.1:7977 &
ft="$!"
"$bin" -mode superpeer -p2p 127.0.0.1:7977 -http 127.0.0.1:8977 -neighbors 127.0.0.1:7976 &
ft="$ft $!"
wait_health 127.0.0.1:8976
wait_health 127.0.0.1:8977
"$bin" -mode fasttrack -p2p 127.0.0.1:7978 -http 127.0.0.1:8978 -server 127.0.0.1:7976 -seed designpatterns &
ft="$ft $!"
"$bin" -mode fasttrack -p2p 127.0.0.1:7979 -http 127.0.0.1:8979 -server 127.0.0.1:7977 &
ft="$ft $!"
wait_health 127.0.0.1:8978
wait_health 127.0.0.1:8979
# Registration is asynchronous: poll until leaf A's super-peer holds it.
i=0
until curl -sf "http://127.0.0.1:8979/discover" | grep -q '<td>designpatterns</td>'; do
    i=$((i + 1))
    if [ "$i" -ge 10 ]; then
        echo "ops-smoke: leaf B never discovered leaf A's community across super-peers" >&2
        exit 1
    fi
    sleep 0.5
done
echo "leaf B discovered designpatterns through the super-peer flood"
kill $ft
for p in $ft; do wait "$p" || true; done
ft=

echo "== DHT over TCP: a joiner discovers a community through the keyspace"
# B boots only once A listens: a DHT daemon whose bootstrap contact is
# not up yet joins nothing.
"$bin" -mode dht -p2p 127.0.0.1:7980 -http 127.0.0.1:8980 -seed designpatterns &
ft="$!"
wait_health 127.0.0.1:8980
"$bin" -mode dht -p2p 127.0.0.1:7981 -http 127.0.0.1:8981 -neighbors 127.0.0.1:7980 &
ft="$ft $!"
wait_health 127.0.0.1:8981
i=0
until curl -sf "http://127.0.0.1:8981/discover" | grep -q '<td>designpatterns</td>'; do
    i=$((i + 1))
    if [ "$i" -ge 10 ]; then
        echo "ops-smoke: DHT daemon B never discovered daemon A's community" >&2
        exit 1
    fi
    sleep 0.5
done
curl -sf "http://127.0.0.1:8980/healthz" | jq -e '.dht_records > 0' >/dev/null ||
    { echo "ops-smoke: DHT daemon A holds no records" >&2; exit 1; }
echo "DHT daemon B discovered designpatterns with a FIND_VALUE lookup"
kill $ft
for p in $ft; do wait "$p" || true; done
ft=

echo "== Gnutella over TCP: Ping/Pong links a daemon to the peer beyond its neighbor"
# A line A <- B <- C: each daemon names only the one before it. C's
# start-up discovery floods a ping through B to A and links A from its
# pong, so C's /healthz live_peers reaches 2.
"$bin" -mode gnutella -p2p 127.0.0.1:7982 -http 127.0.0.1:8982 &
ft="$!"
wait_health 127.0.0.1:8982
"$bin" -mode gnutella -p2p 127.0.0.1:7983 -http 127.0.0.1:8983 -neighbors 127.0.0.1:7982 &
ft="$ft $!"
wait_health 127.0.0.1:8983
"$bin" -mode gnutella -p2p 127.0.0.1:7984 -http 127.0.0.1:8984 -neighbors 127.0.0.1:7983 &
ft="$ft $!"
wait_health 127.0.0.1:8984
i=0
until curl -sf "http://127.0.0.1:8984/healthz" | jq -e '.live_peers >= 2' >/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "ops-smoke: gnutella daemon C never linked the peer beyond its neighbor" >&2
        exit 1
    fi
    sleep 0.1
done
echo "gnutella daemon C linked daemon A through B by Ping/Pong"
kill $ft
for p in $ft; do wait "$p" || true; done
ft=

echo "ops-smoke: OK"
