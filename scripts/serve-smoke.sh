#!/bin/sh
# serve-smoke.sh — end-to-end smoke of the benchmark service.
#
# Builds lockbench, starts `lockbench serve` against a fresh run cache,
# and drives the HTTP surface with curl: enqueue a run, poll it to
# completion, assert a second identical POST is a cache hit (never
# re-simulates), and check the slice endpoint answers byte-identically
# to the CLI's -load/-slice/-json path over the same stored run, both
# the first time, when the server reads and decodes the run, and again
# from the decoded run it then holds. The CLI and the server are THE
# SAME binary here on purpose: both stamp runs with the same results
# version, which the byte-identity check depends on.
#
# Along the way it asserts the observability surface: /healthz reports
# a writable cache, and /metrics (Prometheus text format) shows the
# cache-hit and simulation counters moving as the requests land.
#
# The full mode then asserts that a URL value parses as its flag does
# (?seed=010 and ?seed=8 are one cache key) and the hardening layer:
# oversized bodies answer 413, a server SIGKILLed with queued
# submissions replays its journal on restart (completed runs
# byte-identical to direct CLI runs, modulo provenance, via
# scripts/runcmp), the startup eviction pass enforces -cache-max-runs
# (a slice of an evicted run answers 404), and -auth-token/-rate answer
# 401 and 429 (with Retry-After) once the budget is spent. Without
# -auth-token, bearer tokens are unverified and must not buy a client a
# fresh budget: three POSTs under different tokens still draw a 429.
#
# Used by `make serve-smoke` (full), `make metrics-smoke` (pass
# "metrics" as $1 to stop after the observability assertions) and the
# CI serve job.
set -eu

MODE="${1:-full}"

PORT="${SERVE_SMOKE_PORT:-18347}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d /tmp/lockin-serve-smoke.XXXXXX)"
CACHE="$WORK/cache"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "== build"
go build -o "$WORK/lockbench" ./cmd/lockbench

echo "== start server on :$PORT"
"$WORK/lockbench" serve -addr "127.0.0.1:$PORT" -cache "$CACHE" &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then echo "server never became healthy" >&2; exit 1; fi
    sleep 0.2
done

echo "== healthz reports ready with a writable cache"
curl -fsS "$BASE/healthz" > "$WORK/healthz.json"
grep -q '"status": "ok"' "$WORK/healthz.json" || {
    echo "healthz not ok:" >&2; cat "$WORK/healthz.json" >&2; exit 1; }
grep -q '"cache_writable": true' "$WORK/healthz.json" || {
    echo "healthz reports unwritable cache:" >&2; cat "$WORK/healthz.json" >&2; exit 1; }

echo "== experiments listing"
curl -fsS "$BASE/v1/experiments" > "$WORK/experiments.json"
grep -q '"scenario:hamsterdb"' "$WORK/experiments.json"

echo "== enqueue scenario:hamsterdb (by id)"
SUBMIT="$WORK/submit.json"
curl -fsS -X POST "$BASE/v1/runs?experiment=scenario:hamsterdb&quick=1&scale=0.25" > "$SUBMIT"
KEY=$(sed -n 's/.*"key": "\([^"]*\)".*/\1/p' "$SUBMIT")
[ -n "$KEY" ] || { echo "no key in submit response:" >&2; cat "$SUBMIT" >&2; exit 1; }
echo "   key: $KEY"

echo "== poll until the run lands in the cache"
for i in $(seq 1 300); do
    CODE=$(curl -s -o "$WORK/run.json" -w '%{http_code}' "$BASE/v1/runs/$KEY")
    [ "$CODE" = 200 ] && break
    [ "$CODE" = 202 ] || { echo "unexpected status $CODE" >&2; cat "$WORK/run.json" >&2; exit 1; }
    if [ "$i" = 300 ]; then echo "run never completed" >&2; exit 1; fi
    sleep 1
done

echo "== second identical POST must be a cache hit"
curl -fsS -X POST "$BASE/v1/runs?experiment=scenario:hamsterdb&quick=1&scale=0.25" > "$WORK/resubmit.json"
grep -q '"status": "cached"' "$WORK/resubmit.json" || {
    echo "second POST was not answered from the cache:" >&2; cat "$WORK/resubmit.json" >&2; exit 1; }

echo "== POSTing the same workload as a spec body is the same cache entry"
curl -fsS -X POST --data-binary @internal/scenario/specs/hamsterdb.json \
    "$BASE/v1/runs?quick=1&scale=0.25" > "$WORK/bybody.json"
grep -q '"status": "cached"' "$WORK/bybody.json" || {
    echo "spec-body POST of the bundled scenario missed the cache:" >&2; cat "$WORK/bybody.json" >&2; exit 1; }
grep -q "\"key\": \"$KEY\"" "$WORK/bybody.json"

echo "== /metrics shows the counters moving"
METRICS="$WORK/metrics.txt"
curl -fsS "$BASE/metrics" > "$METRICS"
# One simulation ran; the two repeat POSTs were cache hits.
grep -q '^runs_simulated_total 1$' "$METRICS" || {
    echo "runs_simulated_total != 1:" >&2; grep runs_simulated "$METRICS" >&2; exit 1; }
awk '$1 == "cache_hits_total" { hits = $2 } END { exit !(hits >= 1) }' "$METRICS" || {
    echo "cache_hits_total never moved:" >&2; grep cache_ "$METRICS" >&2; exit 1; }
awk '$1 == "sweep_cells_total" { cells = $2 } END { exit !(cells >= 1) }' "$METRICS" || {
    echo "sweep_cells_total never moved:" >&2; grep sweep_ "$METRICS" >&2; exit 1; }
grep -q '^queue_capacity ' "$METRICS" || { echo "no queue_capacity gauge" >&2; exit 1; }
grep -q '^# TYPE http_request_duration_seconds histogram$' "$METRICS" || {
    echo "no request-latency histogram" >&2; exit 1; }

if [ "$MODE" = "metrics" ]; then
    echo "serve smoke (metrics): OK"
    exit 0
fi

echo "== GET slice is byte-identical to the CLI's -load/-slice/-json"
curl -fsS "$BASE/v1/runs/$KEY/slice?read=90" > "$WORK/http-slice.json"
# A sliced run saves under a query-suffixed name (so it can never
# overwrite the full baseline) — glob the single file the CLI wrote.
"$WORK/lockbench" -load "$CACHE/$KEY.json" -slice read=90 -json "$WORK/cli-slice" > /dev/null
cmp "$WORK/http-slice.json" "$WORK"/cli-slice/*.json

echo "== the repeated slice, answered from the held decoded run, is too"
curl -fsS "$BASE/v1/runs/$KEY/slice?read=90" > "$WORK/http-slice-held.json"
cmp "$WORK/http-slice-held.json" "$WORK"/cli-slice/*.json

echo "== project endpoint"
curl -fsS "$BASE/v1/runs/$KEY/project?axes=lock" > "$WORK/project.json"
grep -q '"query"' "$WORK/project.json"

echo "== self-diff is clean"
curl -fsS "$BASE/v1/diff?a=$KEY&b=$KEY" > "$WORK/diff.json"
grep -q '"equal": true' "$WORK/diff.json"

echo "== malformed requests answer 400"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/runs?experiment=scenario:hamsterdb&scale=abc")
[ "$CODE" = 400 ] || { echo "bad scale answered $CODE, want 400" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/runs?experiment=scenario:hamsterdb&bogus=1")
[ "$CODE" = 400 ] || { echo "unknown parameter answered $CODE, want 400" >&2; exit 1; }

echo "== a URL value parses as its flag: ?seed=010 is -seed 010, seed 8 (octal)"
curl -fsS -X POST "$BASE/v1/runs?experiment=fig6&quick=1&scale=0.25&seed=010" > "$WORK/seed-010.json"
curl -fsS -X POST "$BASE/v1/runs?experiment=fig6&quick=1&scale=0.25&seed=8" > "$WORK/seed-8.json"
KEY_010=$(sed -n 's/.*"key": "\([^"]*\)".*/\1/p' "$WORK/seed-010.json")
KEY_8=$(sed -n 's/.*"key": "\([^"]*\)".*/\1/p' "$WORK/seed-8.json")
[ -n "$KEY_010" ] && [ "$KEY_010" = "$KEY_8" ] || {
    echo "seed=010 and seed=8 answered keys '$KEY_010' and '$KEY_8', want one" >&2; exit 1; }

echo "== oversized spec body answers 413, not a parse 400"
head -c 1200000 /dev/zero | tr '\0' 'x' > "$WORK/fat.json"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @"$WORK/fat.json" "$BASE/v1/runs")
[ "$CODE" = 413 ] || { echo "oversized body answered $CODE, want 413" >&2; exit 1; }

kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true

echo "== kill -9 with queued submissions; the restart replays the journal"
CACHE2="$WORK/cache2"
# Pool 1 so the slow first submission blocks the queue: the two cheap
# ones behind it are journaled but guaranteed not yet simulated when
# the SIGKILL lands.
"$WORK/lockbench" serve -addr "127.0.0.1:$PORT" -cache "$CACHE2" -pool 1 &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then echo "server (journal phase) never became healthy" >&2; exit 1; fi
    sleep 0.2
done
curl -fsS -X POST "$BASE/v1/runs?experiment=scenario:rw95&quick=1&scale=8&seed=1" > "$WORK/sub-a.json"
curl -fsS -X POST "$BASE/v1/runs?experiment=scenario:kyoto&quick=1&scale=0.25" > "$WORK/sub-b.json"
curl -fsS -X POST "$BASE/v1/runs?experiment=scenario:hamsterdb&quick=1&scale=0.25" > "$WORK/sub-c.json"
KEY_A=$(sed -n 's/.*"key": "\([^"]*\)".*/\1/p' "$WORK/sub-a.json")
KEY_B=$(sed -n 's/.*"key": "\([^"]*\)".*/\1/p' "$WORK/sub-b.json")
KEY_C=$(sed -n 's/.*"key": "\([^"]*\)".*/\1/p' "$WORK/sub-c.json")
[ -n "$KEY_A" ] && [ -n "$KEY_B" ] && [ -n "$KEY_C" ] || {
    echo "missing keys in submit responses" >&2; exit 1; }
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
[ -s "$CACHE2/journal.jsonl" ] || {
    echo "journal empty after SIGKILL with queued work" >&2; exit 1; }
echo "   journal holds $(wc -l < "$CACHE2/journal.jsonl") entries; restarting"

"$WORK/lockbench" serve -addr "127.0.0.1:$PORT" -cache "$CACHE2" -pool 2 &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then echo "server never came back after SIGKILL" >&2; exit 1; fi
    sleep 0.2
done
# GETs only from here: if the runs land, the journal replayed them.
for KEY in "$KEY_A" "$KEY_B" "$KEY_C"; do
    for i in $(seq 1 300); do
        CODE=$(curl -s -o "$WORK/replayed-$KEY.json" -w '%{http_code}' "$BASE/v1/runs/$KEY")
        [ "$CODE" = 200 ] && break
        [ "$CODE" = 202 ] || { echo "replayed run $KEY answered $CODE" >&2; exit 1; }
        if [ "$i" = 300 ]; then echo "journal replay never completed $KEY" >&2; exit 1; fi
        sleep 1
    done
done

echo "== replayed runs are byte-identical to direct CLI runs (modulo provenance)"
"$WORK/lockbench" -experiment scenario:rw95 -quick -scale 8 -seed 1 -json "$WORK/ref-a" > /dev/null
"$WORK/lockbench" -experiment scenario:kyoto -quick -scale 0.25 -json "$WORK/ref-b" > /dev/null
"$WORK/lockbench" -experiment scenario:hamsterdb -quick -scale 0.25 -json "$WORK/ref-c" > /dev/null
go run ./scripts/runcmp "$WORK/replayed-$KEY_A.json" "$WORK"/ref-a/*.json
go run ./scripts/runcmp "$WORK/replayed-$KEY_B.json" "$WORK"/ref-b/*.json
go run ./scripts/runcmp "$WORK/replayed-$KEY_C.json" "$WORK"/ref-c/*.json

echo "== journal drains once the replayed runs land"
for i in $(seq 1 50); do
    [ ! -s "$CACHE2/journal.jsonl" ] && break
    if [ "$i" = 50 ]; then echo "journal still holds entries after replay" >&2; exit 1; fi
    sleep 0.2
done
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true

echo "== startup eviction enforces -cache-max-runs; auth and rate limits guard POSTs"
"$WORK/lockbench" serve -addr "127.0.0.1:$PORT" -cache "$CACHE2" -cache-max-runs 1 \
    -auth-token smoketoken -rate 0.1 -rate-burst 2 &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then echo "server (guard phase) never became healthy" >&2; exit 1; fi
    sleep 0.2
done
NRUNS=$(ls "$CACHE2"/*.json | wc -l)
[ "$NRUNS" = 1 ] || { echo "cache holds $NRUNS runs after startup eviction, want 1" >&2; exit 1; }
EVICTED=""
for KEY in "$KEY_A" "$KEY_B" "$KEY_C"; do
    [ -e "$CACHE2/$KEY.json" ] || EVICTED="$KEY"
done
[ -n "$EVICTED" ] || { echo "no replayed run was evicted" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/runs/$EVICTED/slice?read=90")
[ "$CODE" = 404 ] || { echo "slice of evicted run $EVICTED answered $CODE, want 404" >&2; exit 1; }

CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/runs?experiment=no-such-exp")
[ "$CODE" = 401 ] || { echo "tokenless POST answered $CODE, want 401" >&2; exit 1; }
# Two authenticated POSTs spend the burst of 2 (a 404 still consumes
# budget — the guard runs before the handler); the third must be 429.
for i in 1 2; do
    CODE=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer smoketoken" \
        -X POST "$BASE/v1/runs?experiment=no-such-exp")
    [ "$CODE" = 404 ] || { echo "authed POST $i answered $CODE, want 404" >&2; exit 1; }
done
curl -s -D "$WORK/429.hdr" -o /dev/null -H "Authorization: Bearer smoketoken" \
    -X POST "$BASE/v1/runs?experiment=no-such-exp"
grep -q "^HTTP/1.1 429" "$WORK/429.hdr" || {
    echo "budget exhaustion did not answer 429:" >&2; cat "$WORK/429.hdr" >&2; exit 1; }
grep -qi "^Retry-After:" "$WORK/429.hdr" || {
    echo "429 without a Retry-After header:" >&2; cat "$WORK/429.hdr" >&2; exit 1; }
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true

echo "== without -auth-token, rotating bearer tokens share the client's budget"
"$WORK/lockbench" serve -addr "127.0.0.1:$PORT" -cache "$WORK/cache3" -rate 0.1 -rate-burst 2 &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then echo "server (bypass phase) never became healthy" >&2; exit 1; fi
    sleep 0.2
done
# Unverified tokens must not key the bucket: the first two POSTs spend
# the burst of 2 whatever token they carry, so the third is 429.
for TOK in first second; do
    CODE=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer $TOK" \
        -X POST "$BASE/v1/runs?experiment=no-such-exp")
    [ "$CODE" = 404 ] || { echo "POST with token $TOK answered $CODE, want 404" >&2; exit 1; }
done
curl -s -D "$WORK/bypass.hdr" -o /dev/null -H "Authorization: Bearer third" \
    -X POST "$BASE/v1/runs?experiment=no-such-exp"
grep -q "^HTTP/1.1 429" "$WORK/bypass.hdr" || {
    echo "a fresh bearer token bypassed the rate limit:" >&2; cat "$WORK/bypass.hdr" >&2; exit 1; }
grep -qi "^Retry-After:" "$WORK/bypass.hdr" || {
    echo "429 without a Retry-After header:" >&2; cat "$WORK/bypass.hdr" >&2; exit 1; }

echo "serve smoke: OK"
