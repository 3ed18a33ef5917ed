#!/bin/sh
# load_smoke.sh — end-to-end load smoke for the query service and its
# async job tier, driven through the neurofail binary and curl: boots
# `neurofail serve` against a fresh store, queues Monte Carlo campaigns
# with `neurofail jobs submit`, runs concurrent curl clients against
# /v1/bounds while they are queued, follows every campaign with
# `neurofail jobs watch`, resubmits one to hit the memo, and verifies
# the server drains gracefully on SIGTERM with the job tier resident.
#
# It fails if any request returns a non-2xx status, if no request
# completes (zero RPS), if a campaign does not reach done, if the
# resubmission is recomputed instead of memoized, or if the server does
# not exit 0 after SIGTERM.
#
# Usage: load_smoke.sh <neurofail binary>
# Tunables (env): CLIENTS (4) DURATION (2, seconds) JOBS (2) JOB_TRIALS (2000)
set -eu

BIN=${1:?usage: load_smoke.sh <neurofail binary>}
CLIENTS=${CLIENTS:-4}
DURATION=${DURATION:-2}
JOBS=${JOBS:-2}
JOB_TRIALS=${JOB_TRIALS:-2000}

DIR=$(mktemp -d)
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

echo "== train a tiny network and ingest it into the store"
"$BIN" train -target sine -widths 8 -epochs 40 -seed 1 -out "$DIR/net.json" >/dev/null
ID=$("$BIN" store add -dir "$DIR/store" -net "$DIR/net.json")
echo "   stored as ${ID}"

echo "== boot the service (job tier enabled)"
"$BIN" serve -addr 127.0.0.1:0 -store "$DIR/store" -job-workers 2 -job-queue 8 \
    2>"$DIR/serve.log" &
PID=$!

ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/.*listening on //p' "$DIR/serve.log" | head -n 1)
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "server died:"; cat "$DIR/serve.log"; exit 1; }
    i=$((i + 1))
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never reported its address"; cat "$DIR/serve.log"; exit 1; }
echo "   listening on $ADDR"

# campaign prints the Monte Carlo request with seed $1.
campaign() {
    printf '{"network_id": "%s", "trials": %d, "seed": %d}' "$ID" "$JOB_TRIALS" "$1"
}

echo "== queue $JOBS campaigns of $JOB_TRIALS trials"
IDS=""
j=0
while [ $j -lt "$JOBS" ]; do
    # A full queue answers 429; retry it like any scripted client.
    tries=0
    until OUT=$("$BIN" jobs submit -addr "$ADDR" -kind montecarlo -request "$(campaign $((20 + j)))"); do
        tries=$((tries + 1))
        [ $tries -lt 20 ] || { echo "campaign $j was never accepted"; exit 1; }
        sleep 1
    done
    JID=$(printf '%s\n' "$OUT" | sed -n 's/^job \([^ ]*\) .*/\1/p' | head -n 1)
    [ -n "$JID" ] || { echo "submit printed no job id: $OUT"; exit 1; }
    echo "   $OUT"
    IDS="$IDS $JID"
    j=$((j + 1))
done

echo "== $CLIENTS curl clients on /v1/bounds for ${DURATION}s while the campaigns run"
BODY=$(printf '{"network_id": "%s", "faults": 1, "c": 1}' "$ID")
START=$(date +%s%N)
END=$(($(date +%s) + DURATION))
CPIDS=""
c=0
while [ $c -lt "$CLIENTS" ]; do
    (
        ok=0
        failed=0
        while [ "$(date +%s)" -lt "$END" ]; do
            if curl -sf --max-time 30 -o /dev/null -H 'Content-Type: application/json' -d "$BODY" "http://$ADDR/v1/bounds"; then
                ok=$((ok + 1))
            else
                failed=$((failed + 1))
            fi
        done
        echo "$ok $failed" >"$DIR/client.$c"
    ) &
    CPIDS="$CPIDS $!"
    c=$((c + 1))
done
# shellcheck disable=SC2086 # one PID per word
wait $CPIDS
ELAPSED_NS=$(($(date +%s%N) - START))
REQUESTS=0
FAILED=0
for f in "$DIR"/client.*; do
    read -r ok failed <"$f"
    REQUESTS=$((REQUESTS + ok))
    FAILED=$((FAILED + failed))
done
RPS=$(awk -v n="$REQUESTS" -v ns="$ELAPSED_NS" 'BEGIN { printf "%.1f", n / (ns / 1e9) }')
echo "   $REQUESTS requests answered 2xx, $FAILED failed, $RPS req/s"
[ "$FAILED" -eq 0 ] || { echo "$FAILED sync requests did not return 2xx"; exit 1; }
[ "$REQUESTS" -gt 0 ] || { echo "zero sustained RPS"; exit 1; }

echo "== follow every campaign to done"
for JID in $IDS; do
    LAST=$(timeout 300 "$BIN" jobs watch -addr "$ADDR" "$JID" | tail -n 1)
    echo "   $LAST"
    case "$LAST" in
    *state=done*) ;;
    *) echo "campaign $JID did not reach done"; exit 1 ;;
    esac
done

if [ "$JOBS" -gt 0 ]; then
    echo "== resubmit the first campaign: the memo must answer it"
    OUT=$("$BIN" jobs submit -addr "$ADDR" -kind montecarlo -request "$(campaign 20)")
    echo "$OUT" | sed 's/^/   /'
    case "$OUT" in
    *state=done*"(memoized:"*) ;;
    *) echo "duplicate campaign was not memoized"; exit 1 ;;
    esac
fi

echo "== graceful shutdown (SIGTERM) with the job tier resident"
kill -TERM "$PID"
WAITED=0
while kill -0 "$PID" 2>/dev/null; do
    WAITED=$((WAITED + 1))
    [ $WAITED -gt 150 ] && { echo "server did not drain"; exit 1; }
    sleep 0.1
done
wait "$PID" 2>/dev/null || { echo "server exited non-zero"; cat "$DIR/serve.log"; exit 1; }
PID=""
echo "load smoke: OK"
