#!/bin/sh
# Daemon smoke: launch wld on a unix socket, drive traced session churn
# through the result-typed client, introspect the live daemon (`wl top
# --connect`, `wl trace pull`), SIGTERM, and assert a clean graceful
# drain — exit 0, scrapeable OpenMetrics expositions on both sides, a
# validating pulled trace, tenant-named flight dumps and a non-empty
# per-tenant health listing left behind.
set -eu

WL=$1
STRESS=$2
SOCK=./wld_smoke.sock

"$WL" wld "unix:$SOCK" --shards 2 --metrics-out wld_smoke_metrics.txt \
  --health-dump wld_smoke_health.txt --flight-dump wld_smoke_flight &
WLD_PID=$!

i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  if [ $i -gt 100 ]; then
    echo "daemon never bound $SOCK" >&2
    kill "$WLD_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done

# Churn with tracing on: every request carries a trace context, so the
# daemon-side flight rings and HDR exemplars latch real trace ids.
"$STRESS" --daemon "unix:$SOCK" --sessions 64 --client-threads 4 --ops 8 \
  --trace --metrics-out stress_daemon_metrics.txt

# Live introspection against the still-running daemon: one top frame
# (shard-merged rollups + per-tenant rows) and a pulled merged trace
# that must satisfy the same validator as every other trace artifact.
"$WL" top --connect "unix:$SOCK" --frames 1 \
  --metrics-out top_connect_metrics.txt | grep -q "64 sessions"
"$WL" trace pull "unix:$SOCK" --last 16 -o pulled.trace.json
"$WL" trace-check pulled.trace.json

# Untraced churn over the JSON codec, so both encodings cross a real
# socket.  It reuses tenants t00000..t00063, so the dump count below
# still holds.
"$STRESS" --daemon "unix:$SOCK" --sessions 64 --client-threads 4 --ops 8 --json

kill -TERM "$WLD_PID"
wait "$WLD_PID"

"$WL" metrics-check wld_smoke_metrics.txt
"$WL" metrics-check stress_daemon_metrics.txt
"$WL" metrics-check top_connect_metrics.txt

# The drain dumps every tenant's flight ring under its own name
# (PREFIX.TENANT.trace.json) — 64 tenants, 64 dumps, none overwriting
# another, each one a non-empty valid trace.
n_dumps=$(ls wld_smoke_flight.*.trace.json | wc -l)
if [ "$n_dumps" -ne 64 ]; then
  echo "expected 64 tenant-named flight dumps, found $n_dumps" >&2
  exit 1
fi
for t in t00000 t00063; do
  "$WL" trace-check "wld_smoke_flight.$t.trace.json" | grep -q "^trace ok: [1-9]"
done
test -s wld_smoke_health.txt
