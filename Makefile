# The jobs of .github/workflows/ci.yml call these targets, so `make ci`
# runs every gate the pipeline runs (`make bench` stands in for the
# bench job's measured, ungated runs, which live in the workflow).

GO      ?= go
WORKERS ?= 0# sweep workers: 0 = all CPUs, 1 = serial

.PHONY: build test benchmark-test race bench bench-all lint sweep smoke results scenarios serve-smoke metrics-smoke fleet-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark harness is a module of its own (lockinbench/), so the
# root ./... patterns above never reach it.
benchmark-test:
	cd lockinbench && $(GO) vet ./... && $(GO) test ./...

# The repeated runs cover the power-meter cases that start the replay
# helper (the every-step reference cases run once in the first), and the
# kernel's driver stack, which hands control from goroutine to goroutine.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestMeterMatchesReference/replayed$$|TestMeterReplay' ./internal/power ./internal/workload
	$(GO) test -race -count=10 -run 'TestWakeIsACallbacksLastAction|TestResumeCounts|TestDriverStackMatchesHeapModel|TestPanicsSurfaceFromRun|TestDrain' ./internal/sim

# Hot-path microbenchmarks only (kernel, coherence, futex, power,
# machine's TAS herd and core's MUTEX herd) — the tight loop while
# optimizing the simulator.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=0.5s ./internal/sim ./internal/coherence ./internal/futex ./internal/power ./internal/machine ./internal/core

# Every benchmark in the repo, including the slow experiment sweeps
# (single-shot: a compile-and-run smoke, not a measurement).
bench-all:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...

# Regenerate every paper table/figure with quick grids through the
# parallel sweep engine.
sweep:
	$(GO) run ./cmd/lockbench -experiment all -quick -workers $(WORKERS)

# The CI smoke steps: quick experiments, the parallel-vs-serial output
# comparison, every example, and a one-cell trace of Figure 13.
smoke:
	$(GO) run ./cmd/lockbench -list
	$(GO) run ./cmd/lockbench -experiment tbl2 -quick -workers 4
	$(GO) run ./cmd/lockbench -experiment fig11 -quick -scale 0.25 -workers 4
	$(GO) run ./cmd/lockbench -experiment fig8 -quick -scale 0.25 -workers 1 | sed '/done in/d' > /tmp/lockin-serial.txt
	$(GO) run ./cmd/lockbench -experiment fig8 -quick -scale 0.25 -workers 8 | sed '/done in/d' > /tmp/lockin-parallel.txt
	diff -u /tmp/lockin-serial.txt /tmp/lockin-parallel.txt
	$(GO) run ./examples/polysweep -workers 4
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/oversubscribe
	$(GO) run ./examples/keyvaluestore
	$(GO) run ./examples/tailtune
	$(GO) run ./cmd/lockbench -experiment fig13 -quick -scale 0.25 -trace cell=5 > /dev/null

# The CI determinism gate: save a quick baseline of every experiment,
# rerun, and self-diff (zero differences); compare the quick suite's
# output at -workers 4 and 1 with the digest that
# testdata/quick-suite.sha256 pins, and the full suite's at -scale 0.1
# with testdata/full-suite.sha256 (-workers 1 leaves the power meters'
# replay helpers idle CPUs, -workers 4 makes them interleave with the
# simulations); merge
# a -shard part and a -cells part of every experiment (fig13 also by
# name) back byte-identical; then check that a sharded fig10 rerun
# merges back byte-identical — once from two -shard parts, once from a
# -shard part and a -cells part (-shard i/n is the cell range [i, i+1)
# of total n).
results:
	rm -rf /tmp/lockin-results
	$(GO) run ./cmd/lockbench -experiment all -quick -scale 0.25 -workers $(WORKERS) -json /tmp/lockin-results/baseline > /dev/null
	$(GO) run ./cmd/lockbench -experiment all -quick -scale 0.25 -workers $(WORKERS) -baseline /tmp/lockin-results/baseline -diff > /dev/null
	@want=$$(grep -v '^#' testdata/quick-suite.sha256); for w in 4 1; do got=$$($(GO) run ./cmd/lockbench -experiment all -quick -scale 0.25 -workers $$w | sed '/done in/d' | sha256sum | cut -d' ' -f1); echo "quick suite sha256 at -workers $$w: $$got (pinned $$want)"; test "$$got" = "$$want" || exit 1; done
	@want=$$(grep -v '^#' testdata/full-suite.sha256); for w in 4 1; do got=$$($(GO) run ./cmd/lockbench -experiment all -scale 0.1 -workers $$w | sed '/done in/d' | sha256sum | cut -d' ' -f1); echo "full suite sha256 at -workers $$w: $$got (pinned $$want)"; test "$$got" = "$$want" || exit 1; done
	$(GO) run ./cmd/lockbench -experiment all -quick -scale 0.25 -workers $(WORKERS) -shard 0/2 -json /tmp/lockin-results/all-s0 > /dev/null
	$(GO) run ./cmd/lockbench -experiment all -quick -scale 0.25 -workers $(WORKERS) -cells 1-2/2 -json /tmp/lockin-results/all-s1 > /dev/null
	$(GO) run ./cmd/lockbench -experiment all -merge /tmp/lockin-results/all-s0,/tmp/lockin-results/all-s1 -baseline /tmp/lockin-results/baseline -diff > /dev/null
	$(GO) run ./cmd/lockbench -experiment fig13 -merge /tmp/lockin-results/all-s0,/tmp/lockin-results/all-s1 -baseline /tmp/lockin-results/baseline -diff
	$(GO) run ./cmd/lockbench -experiment fig10 -quick -scale 0.25 -shard 0/2 -json /tmp/lockin-results/s0 > /dev/null
	$(GO) run ./cmd/lockbench -experiment fig10 -quick -scale 0.25 -shard 1/2 -json /tmp/lockin-results/s1 > /dev/null
	$(GO) run ./cmd/lockbench -experiment fig10 -quick -scale 0.25 -merge /tmp/lockin-results/s0,/tmp/lockin-results/s1 -baseline /tmp/lockin-results/baseline -diff
	$(GO) run ./cmd/lockbench -experiment fig10 -quick -scale 0.25 -shard 0/2 -json /tmp/lockin-results/a > /dev/null
	$(GO) run ./cmd/lockbench -experiment fig10 -quick -scale 0.25 -cells 1-2/2 -json /tmp/lockin-results/b > /dev/null
	$(GO) run ./cmd/lockbench -experiment fig10 -quick -scale 0.25 -merge /tmp/lockin-results/a,/tmp/lockin-results/b -baseline /tmp/lockin-results/baseline -diff

# The CI scenario gate: every bundled spec must parse and compile, a
# quick scenario smoke-runs with a parallel-vs-serial output diff, and
# a sharded run merges back byte-identical to an unsharded one — first
# over the classic threads × lock grid, then over a multi-axis space
# that includes a read-ratio axis. Both testdata specs' output must
# match the digests testdata/scenario-specs.sha256 pins, at -workers 4
# and 1. The new §6 specs smoke-run with the
# same workers-8-vs-1 diff, and the axis query gate slices the read=90
# plane out of the folded hamsterdb run (stored and live) and requires
# a zero-difference plane diff against the legacy single-axis run.
scenarios:
	rm -rf /tmp/lockin-scen
	$(GO) run ./cmd/lockbench -validate-scenarios
	$(GO) run ./cmd/lockbench -scenario testdata/quick-scenario.json -workers 1 | sed '/done in/d' > /tmp/lockin-scen-serial.txt
	$(GO) run ./cmd/lockbench -scenario testdata/quick-scenario.json -workers 8 | sed '/done in/d' > /tmp/lockin-scen-parallel.txt
	diff -u /tmp/lockin-scen-serial.txt /tmp/lockin-scen-parallel.txt
	$(GO) run ./cmd/lockbench -scenario testdata/quick-scenario.json -json /tmp/lockin-scen/full > /dev/null
	$(GO) run ./cmd/lockbench -scenario testdata/quick-scenario.json -shard 0/2 -json /tmp/lockin-scen/s0 > /dev/null
	$(GO) run ./cmd/lockbench -scenario testdata/quick-scenario.json -shard 1/2 -json /tmp/lockin-scen/s1 > /dev/null
	$(GO) run ./cmd/lockbench -scenario testdata/quick-scenario.json -merge /tmp/lockin-scen/s0,/tmp/lockin-scen/s1 -json /tmp/lockin-scen/merged -baseline /tmp/lockin-scen/full -diff
	$(GO) run ./scripts/runcmp /tmp/lockin-scen/full/scenario-quick.json /tmp/lockin-scen/merged/scenario-quick.json
	$(GO) run ./cmd/lockbench -scenario testdata/multiaxis-scenario.json -workers 1 | sed '/done in/d' > /tmp/lockin-scen-ma-serial.txt
	$(GO) run ./cmd/lockbench -scenario testdata/multiaxis-scenario.json -workers 8 | sed '/done in/d' > /tmp/lockin-scen-ma-parallel.txt
	diff -u /tmp/lockin-scen-ma-serial.txt /tmp/lockin-scen-ma-parallel.txt
	$(GO) run ./cmd/lockbench -scenario testdata/multiaxis-scenario.json -json /tmp/lockin-scen/ma-full > /dev/null
	$(GO) run ./cmd/lockbench -scenario testdata/multiaxis-scenario.json -shard 0/2 -json /tmp/lockin-scen/ma-s0 > /dev/null
	$(GO) run ./cmd/lockbench -scenario testdata/multiaxis-scenario.json -shard 1/2 -json /tmp/lockin-scen/ma-s1 > /dev/null
	$(GO) run ./cmd/lockbench -scenario testdata/multiaxis-scenario.json -merge /tmp/lockin-scen/ma-s0,/tmp/lockin-scen/ma-s1 -json /tmp/lockin-scen/ma-merged -baseline /tmp/lockin-scen/ma-full -diff
	$(GO) run ./scripts/runcmp /tmp/lockin-scen/ma-full/scenario-multiaxis-quick.json /tmp/lockin-scen/ma-merged/scenario-multiaxis-quick.json
	@grep -v '^#' testdata/scenario-specs.sha256 | while read want spec; do for w in 4 1; do got=$$($(GO) run ./cmd/lockbench -scenario testdata/$$spec -workers $$w < /dev/null | sed '/done in/d' | sha256sum | cut -d' ' -f1); echo "$$spec sha256 at -workers $$w: $$got (pinned $$want)"; test "$$got" = "$$want" || exit 1; done; done
	for spec in rocksdb mysql_ssd sqlite; do \
		$(GO) run ./cmd/lockbench -experiment scenario:$$spec -quick -scale 0.25 -workers 1 > /tmp/lockin-s6-raw.txt || exit 1; \
		sed '/done in/d' /tmp/lockin-s6-raw.txt > /tmp/lockin-s6-serial.txt; \
		$(GO) run ./cmd/lockbench -experiment scenario:$$spec -quick -scale 0.25 -workers 8 > /tmp/lockin-s6-raw.txt || exit 1; \
		sed '/done in/d' /tmp/lockin-s6-raw.txt > /tmp/lockin-s6-parallel.txt; \
		diff -u /tmp/lockin-s6-serial.txt /tmp/lockin-s6-parallel.txt || exit 1; \
	done
	$(GO) run ./cmd/lockbench -scenario internal/scenario/testdata/legacy/hamsterdb_rd.json -quick -scale 0.25 -workers 4 -json /tmp/lockin-scen/q-legacy > /dev/null
	$(GO) run ./cmd/lockbench -experiment scenario:hamsterdb -quick -scale 0.25 -workers 4 -json /tmp/lockin-scen/q-ma > /dev/null
	$(GO) run ./cmd/lockbench -load /tmp/lockin-scen/q-ma/scenario-hamsterdb.json -slice read=90 -baseline /tmp/lockin-scen/q-legacy/scenario-hamsterdb_rd.json -diff
	$(GO) run ./cmd/lockbench -experiment scenario:hamsterdb -quick -scale 0.25 -workers 4 -slice read=90 -baseline /tmp/lockin-scen/q-legacy/scenario-hamsterdb_rd.json -diff > /dev/null
	$(GO) run ./cmd/lockbench -load /tmp/lockin-scen/q-ma/scenario-hamsterdb.json -project lock > /dev/null

# The CI serve gate: build the benchmark service, drive it with curl —
# enqueue, poll, dedupe (a second identical POST answers from the
# content-addressed run cache without simulating), and check the slice
# endpoint answers byte-identically to the CLI over the same stored run,
# again when the repeated slice comes from the decoded run the server
# holds. /metrics must serve Prometheus text with cache_hits_total
# moved by the dedupe, and /healthz JSON readiness. Then the hardening
# layer: oversized bodies answer 413, a SIGKILLed server replays its
# submission journal on restart (runs byte-identical via
# scripts/runcmp), the startup eviction pass enforces -cache-max-runs
# and a slice of an evicted run answers 404, and -auth-token/-rate
# answer 401 and 429 (with Retry-After) once the budget is spent.
serve-smoke:
	sh scripts/serve-smoke.sh

# Observability-only slice of the serve gate: enqueue + dedupe, then
# assert /metrics (Prometheus text, cache_hits_total moving) and the
# /healthz readiness JSON — the fast loop while touching telemetry.
metrics-smoke:
	sh scripts/serve-smoke.sh metrics

# The CI fleet gate: a coordinator plus two workers distribute a
# quick experiment over HTTP, one worker is SIGKILLed mid-run and a
# never-reporting lease forces the steal path; the merged run must
# be byte-identical (runcmp) to a serial run. Two more fleets at the
# default lease TTL (fig11 -scale 3, and quick fig12 -scale 0.25,
# where a worker can be between chunks when the run merges) require
# both workers to exit 0 within 5 s of the coordinator and a merged
# run byte-identical to a serial one.
fleet-smoke:
	sh scripts/fleet-smoke.sh

ci: lint build test benchmark-test race smoke results scenarios serve-smoke fleet-smoke bench-all
