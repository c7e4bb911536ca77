#!/bin/sh
# fleet-smoke.sh — end-to-end smoke of the distributed sweep fleet.
#
# Builds lockbench, saves a serial baseline run, then distributes the
# same experiment: `lockbench coordinate` leases cell-range chunks to
# two `lockbench work` processes. Mid-run, one worker is SIGKILLed —
# and, deterministically, a fake worker takes a lease over raw HTTP
# and never reports, so the steal path ALWAYS exercises: the lease
# expires, the chunk requeues, and the surviving worker re-leases it.
# The merged run the coordinator writes must be byte-identical
# (modulo wall-clock provenance, scripts/runcmp) to the serial run.
#
# Two more fleets, at the default lease TTL, check the clean exit: both
# workers join before the first chunk lands, and both must exit 0 within
# 5 s of the coordinator, with the merged run again byte-identical to a
# serial one. In fig11 (-scale 3) the worker that runs out of work first
# is held on its lease request. In quick fig12 (-scale 0.25) one
# worker's chunk can merge just before the other's completes the run,
# so it hears "done" only on its next lease request, which the
# coordinator must still be there to answer.
#
# Used by `make fleet-smoke` and the CI fleet job.
set -eu

PORT="${FLEET_SMOKE_PORT:-18353}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d /tmp/lockin-fleet-smoke.XXXXXX)"
trap 'kill "$COORD_PID" "$W1_PID" "$W2_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
COORD_PID=""; W1_PID=""; W2_PID=""

echo "== build"
go build -o "$WORK/lockbench" ./cmd/lockbench

echo "== serial baseline (one process, -workers 1)"
"$WORK/lockbench" -experiment fig10 -quick -scale 0.25 -workers 1 -json "$WORK/serial" > /dev/null

# await_coordinator <log> — poll the status endpoint until it answers.
await_coordinator() {
    for i in $(seq 1 50); do
        if curl -fsS "$BASE/fleet/v1/status" >/dev/null 2>&1; then return; fi
        if [ "$i" = 50 ]; then echo "coordinator never came up" >&2; cat "$1" >&2; exit 1; fi
        sleep 0.2
    done
}

echo "== start coordinator on :$PORT (lease TTL 3s)"
"$WORK/lockbench" coordinate -addr "127.0.0.1:$PORT" -experiment fig10 \
    -quick -scale 0.25 -workers 1 -expect 2 -lease-ttl 3s \
    -json "$WORK/fleet" > "$WORK/coord.out" 2> "$WORK/coord.log" &
COORD_PID=$!
await_coordinator "$WORK/coord.log"

echo "== a doomed worker takes a lease and never reports"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"worker":"doomed"}' "$BASE/fleet/v1/lease" > "$WORK/doomed.json"
grep -q '"lease"' "$WORK/doomed.json" || {
    echo "doomed worker got no lease:" >&2; cat "$WORK/doomed.json" >&2; exit 1; }

echo "== join two workers, SIGKILL one mid-run"
"$WORK/lockbench" work -join "$BASE" -name w1 2> "$WORK/w1.log" &
W1_PID=$!
"$WORK/lockbench" work -join "$BASE" -name w2 2> "$WORK/w2.log" &
W2_PID=$!
sleep 1
kill -9 "$W2_PID" 2>/dev/null || true
wait "$W2_PID" 2>/dev/null || true
W2_PID=""

echo "== wait for the fleet to finish"
if ! wait "$COORD_PID"; then
    echo "coordinator failed:" >&2; cat "$WORK/coord.log" >&2; exit 1
fi
COORD_PID=""
if ! wait "$W1_PID"; then
    echo "surviving worker failed:" >&2; cat "$WORK/w1.log" >&2; exit 1
fi
W1_PID=""

echo "== the steal path ran"
grep -q 'lease expired' "$WORK/coord.log" || {
    echo "no lease ever expired:" >&2; cat "$WORK/coord.log" >&2; exit 1; }
grep -q 'chunk stolen' "$WORK/coord.log" || {
    echo "no chunk was stolen:" >&2; cat "$WORK/coord.log" >&2; exit 1; }

echo "== merged run is byte-identical to the serial run (modulo perf provenance)"
go run ./scripts/runcmp "$WORK/serial/fig10.json" "$WORK/fleet/fig10.json"

# clean_exit <experiment> <scale> — a fleet at the default lease TTL
# with two workers; both must exit 0 within 5 s of the coordinator, and
# the merged run must be byte-identical to a serial one.
clean_exit() {
    EXP="$1"; SCALE="$2"
    echo "== clean exit ($EXP, -scale $SCALE): serial baseline"
    "$WORK/lockbench" -experiment "$EXP" -quick -scale "$SCALE" -workers 1 -json "$WORK/serial" > /dev/null

    echo "== clean exit ($EXP): coordinator at the default lease TTL, two workers"
    "$WORK/lockbench" coordinate -addr "127.0.0.1:$PORT" -experiment "$EXP" \
        -quick -scale "$SCALE" -workers 1 -expect 2 \
        -json "$WORK/fleet" > "$WORK/$EXP.coord.out" 2> "$WORK/$EXP.coord.log" &
    COORD_PID=$!
    await_coordinator "$WORK/$EXP.coord.log"
    "$WORK/lockbench" work -join "$BASE" -name "$EXP-a" 2> "$WORK/$EXP-a.log" &
    W1_PID=$!
    "$WORK/lockbench" work -join "$BASE" -name "$EXP-b" 2> "$WORK/$EXP-b.log" &
    W2_PID=$!
    if ! wait "$COORD_PID"; then
        echo "coordinator failed:" >&2; cat "$WORK/$EXP.coord.log" >&2; exit 1
    fi
    COORD_PID=""

    echo "== clean exit ($EXP): both workers exit 0 within 5 s of the coordinator"
    ( sleep 5; kill "$W1_PID" "$W2_PID" 2>/dev/null ) > /dev/null 2>&1 &
    WATCH_PID=$!
    W1_RC=0; wait "$W1_PID" || W1_RC=$?
    W2_RC=0; wait "$W2_PID" || W2_RC=$?
    W1_PID=""; W2_PID=""
    kill "$WATCH_PID" 2>/dev/null || true
    if [ "$W1_RC" != 0 ] || [ "$W2_RC" != 0 ]; then
        echo "workers did not exit 0 within 5 s of the coordinator ($EXP-a: $W1_RC, $EXP-b: $W2_RC):" >&2
        cat "$WORK/$EXP-a.log" "$WORK/$EXP-b.log" >&2; exit 1
    fi

    echo "== clean exit ($EXP): merged run is byte-identical to the serial run (modulo perf provenance)"
    go run ./scripts/runcmp "$WORK/serial/$EXP.json" "$WORK/fleet/$EXP.json"
}

clean_exit fig11 3
clean_exit fig12 0.25

echo "fleet smoke: OK"
