GO ?= go

.PHONY: all build test race vet fmt-check lint lint-report lint-diff check chaos chaos-crash chaos-cluster chaos-partition chaos-trace examples-smoke cli-smoke bench bench-smoke bench-e2e bench-e2e-smoke bench-pairs loc clusterbench clusterbench-smoke fuzz stress

all: check

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full test suite
test:
	$(GO) test ./...

## race: run the test suite under the race detector, all but the four chaos
## suites, which chaos, chaos-crash, chaos-cluster and chaos-partition run
## under it (the skip names their -run patterns: `go test -list` of the one
## and of the four gives the same 14 tests)
race:
	$(GO) test -race -skip 'TestChaos|TestCrashChaos|TestClusterChaos|TestPartitionChaos' ./...

## vet: the stock go vet checks
vet:
	$(GO) vet ./...

## fmt-check: fail when any file is not gofmt-clean (prints the offenders)
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

## lint: sflint, the project-specific determinism, concurrency and dead-code
## analyzers.
## bench/ is left out of the gate: a change that claims a gain may not edit
## the benchmark, so a finding there cannot be fixed or annotated by the PR
## it would fail (`make lint-report` still covers it). What keeps it out
## today is two errdrop findings, the deferred Closes at bench/probe.go:196
## and :201, and one unused one, bench/spec.go's backendNone. The unused
## analyzer needs the whole module's references, so LINT_PKGS lists every
## package outside bench/ (whose references to other packages' names do
## not count anyway).
LINT_PKGS ?= . ./cmd/... ./examples/... ./internal/... ./workloads/...
lint:
	$(GO) run ./cmd/sflint $(LINT_PKGS)

## lint-diff: sflint restricted to packages changed vs origin/main (or REF=...)
## — the fast inner-loop variant of `make lint`. The load is not the whole
## module, so the unused analyzer is skipped; `make lint` runs it.
REF ?= origin/main
lint-diff:
	$(GO) run ./cmd/sflint -diff $(REF) ./...

## lint-report: machine-readable sflint report (schema v1) for CI artifacts.
## Written even when findings exist; the lint target is what gates.
lint-report:
	$(GO) run ./cmd/sflint -json ./... > sflint-report.json || true
	@wc -c sflint-report.json

## chaos: the fault-injection suite under the race detector — seeded
## error/disconnect/latency injection through pipeline, store and transport,
## asserting bit-identical results and leak-free churn (DESIGN.md §2)
chaos:
	$(GO) test -race -run 'TestChaos' -v ./...

## chaos-crash: the crash-durability suite under the race detector — seeded
## crashes mid-WAL, at wave boundaries, at epoch rotations and with torn final
## records, asserting bit-identical recovery (DESIGN.md §6)
chaos-crash:
	$(GO) test -race -run 'TestCrashChaos' -v .

## chaos-cluster: the shard-kill chaos suite under the race detector — a
## seeded kill partitions one primary of a 3-shard replicated cluster mid-run,
## the replica is promoted, the dead node rejoins and catches up, and the
## merged cluster dump must stay bit-identical to a single-store run
## (DESIGN.md §8). Failover spans land in cluster-spans.jsonl (CI artifact).
chaos-cluster:
	rm -f cluster-spans.jsonl
	SMARTFLUX_CHAOS_SPAN_OUT=$(CURDIR)/cluster-spans.jsonl $(GO) test -race -run 'TestClusterChaos' -v .

## chaos-partition: the partition chaos suite under the race detector —
## seeded symmetric and asymmetric (one-way link) partitions cut primaries
## off mid-run, replicas are promoted under bumped epochs, stale-timeline
## primaries fence themselves and ack nothing until Reset + rejoin, and the
## healed merged dump must stay bit-identical to a single-store run with
## deterministic fencing/breaker counters across reruns (DESIGN.md §8).
## Fencing and breaker spans land in partition-spans.jsonl (CI artifact).
chaos-partition:
	rm -f partition-spans.jsonl
	SMARTFLUX_CHAOS_SPAN_OUT=$(CURDIR)/partition-spans.jsonl $(GO) test -race -run 'TestPartitionChaos' -v .

## chaos-trace: the chaos suite with span emission enabled — every run
## appends causal spans + decision events to chaos-spans.jsonl (several runs
## share the stream; sftrace's last-wins duplicate handling absorbs the ID
## reuse), then sftrace analyzes it offline into sftrace-report.txt. CI
## uploads both as artifacts.
chaos-trace:
	rm -f chaos-spans.jsonl
	SMARTFLUX_CHAOS_SPAN_OUT=$(CURDIR)/chaos-spans.jsonl $(GO) test -race -run 'TestChaos' .
	$(GO) run ./cmd/sftrace -waves 6 chaos-spans.jsonl > sftrace-report.txt
	@head -n 40 sftrace-report.txt

## clusterbench: sharded-vs-single throughput and failover-blip latency for
## the kvstore cluster (1 vs 3 shards, a seeded shard-kill run measuring the
## probe-driven promotion blip, and an asymmetric link-cut run measuring the
## fenced-failover blip — both checking no acked write was lost), writing
## BENCH_PR10.json (DESIGN.md §8)
clusterbench:
	$(GO) run ./cmd/clusterbench -out BENCH_PR10.json

## clusterbench-smoke: tiny-op-count clusterbench pass — a correctness smoke
## for the cluster bench harness (numbers meaningless); part of make check
clusterbench-smoke:
	$(GO) run ./cmd/clusterbench -smoke -out /tmp/clusterbench-smoke.json

## bench-e2e: the pipeline benchmark (bench/README.md) on the two in-memory
## Linear Road workloads BENCHMARK.json gates — waves/sec end to end plus the
## per-layer attribution of a traced run. Builds into .bench_build/.
bench-e2e:
	bash bench/run.sh -match '^lrb-mem'

## bench-e2e-smoke: every benchmark workload at 1/50 length (< 15 s) — numbers
## meaningless, every correctness check enforced (bound confidence, WAL
## recovery dump, cluster dump, traced-vs-untraced digest); part of make check
bench-e2e-smoke:
	bash bench/run.sh -smoke

## bench-pairs: the pair protocol of bench/README.md ("Comparing a change
## with its parent") as one command. Exports REF (default HEAD) into
## .bench_build/parent, then runs N (default 10) pairs of the BENCHMARK.json
## command at seed SEED (default 1) on each workload of W (default lrb-mem;
## several: W="lrb-mem lrb-mem-sync"), parent and working tree, alternating
## which side runs first, and prints one `pair side workload waves_per_s
## setup_s` line per run, then one line per workload:
## `summary W waves_per_s P C ratio R won K/N parent_iqr Q setup_s P C
## setup_ratio R setup_won K/N parent_setup_iqr Q` — the parent's and the
## change's median waves_per_s, the change's over the parent's, the pairs in
## which the change had the higher waves_per_s and the spread between the
## parent's quartiles; then the same for setup_s, where the faster set-up wins.
N ?= 10
W ?= lrb-mem
SEED ?= 1
bench-pairs: REF = HEAD
bench-pairs:
	rm -rf .bench_build/parent .bench_build/pairs.txt
	mkdir -p .bench_build/parent
	git archive $(REF) | tar -x -C .bench_build/parent
	@echo "pair side workload waves_per_s setup_s"
	@for i in $$(seq 1 $(N)); do \
		order="parent change"; [ $$((i % 2)) -eq 0 ] && order="change parent"; \
		for w in $(W); do \
			for side in $$order; do \
				dir=.; [ $$side = parent ] && dir=.bench_build/parent; \
				(cd $$dir && bash bench/run.sh --workload $$w --seed $(SEED) --seconds 10 --trace 0) | \
				awk -v p=$$i -v s=$$side -v w=$$w -v f=.bench_build/pairs.txt \
					'$$2 == "waves_per_s" { x = $$3 } $$2 == "setup_s" { y = $$3 } \
					END { if (x == "") exit 1; print p, s, w, x, y; print p, s, w, x, y >> f }' || exit 1; \
			done; \
		done; \
	done
	@awk 'function sort(a, n,   i, j, t) { \
			for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j > 0 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } } \
		function q(a, n, p,   h, lo) { h = 1 + (n - 1) * p; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) } \
		!($$3 in seen) { seen[$$3] = 1; ws[++nw] = $$3 } \
		{ wps[$$3, $$2, $$1] = $$4; set[$$3, $$2, $$1] = $$5; if ($$1 + 0 > np) np = $$1 + 0 } \
		END { \
			for (x = 1; x <= nw; x++) { \
				w = ws[x]; m = 0; won = 0; swon = 0; split("", pw); split("", cw); split("", ps); split("", cs); \
				for (i = 1; i <= np; i++) { \
					if (!((w, "parent", i) in wps) || !((w, "change", i) in wps)) continue; \
					m++; pw[m] = wps[w, "parent", i] + 0; cw[m] = wps[w, "change", i] + 0; ps[m] = set[w, "parent", i] + 0; cs[m] = set[w, "change", i] + 0; \
					won += cw[m] > pw[m]; swon += cs[m] < ps[m] } \
				sort(pw, m); sort(cw, m); sort(ps, m); sort(cs, m); \
				mp = q(pw, m, 0.5); mc = q(cw, m, 0.5); sp = q(ps, m, 0.5); sc = q(cs, m, 0.5); \
				printf "summary %s waves_per_s %.1f %.1f ratio %.3f won %d/%d parent_iqr %.1f setup_s %.3f %.3f setup_ratio %.3f setup_won %d/%d parent_setup_iqr %.3f\n", \
					w, mp, mc, mc / mp, won, m, q(pw, m, 0.75) - q(pw, m, 0.25), sp, sc, sc / sp, swon, m, q(ps, m, 0.75) - q(ps, m, 0.25) } }' \
		.bench_build/pairs.txt
	@rm -f .bench_build/pairs.txt

## fuzz: run the wire-protocol fuzzers, the epoch-file reader's fuzzer, the
## checkpoint decode + restore fuzzer (decoded payloads restored into a
## harness) and the table fuzzer
## (ScanColumns and ScanFloatRows against Scan,
## repeated batches and PutFloatRows grids through the write plan, and Get,
## GetVersions and History against a reference model for values on both
## sides of the 8 bytes a version holds inline) and the one-feature tree
## fuzzer (the class-runs grower against the generic one, node for node,
## on fuzzed values, labels and counts) for 30s each (nightly CI
## job; crashers land in the package's testdata/fuzz and are uploaded as
## artifacts). Separate invocations: `go test -fuzz` accepts only one target
## at a time. The checkpoint seeds are whole payloads, so minimizing each new
## input is capped — uncapped it eats the 30s.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 30s ./internal/kvstore/wire
	$(GO) test -run xxx -fuzz 'FuzzReader$$' -fuzztime 30s ./internal/kvstore/wire
	$(GO) test -run xxx -fuzz FuzzReadWAL -fuzztime 30s ./internal/durable
	$(GO) test -run xxx -fuzz FuzzRestoreCheckpoint -fuzztime 30s -fuzzminimizetime 2s ./internal/core
	$(GO) test -run xxx -fuzz FuzzTableColumns -fuzztime 30s ./internal/kvstore
	$(GO) test -run xxx -fuzz FuzzOneFeatureTree -fuzztime 30s ./internal/ml

## stress: the engine's wave tests, the kvnet client's close, retry
## and exactly-once tests and the dump snapshot test 50 times over under the
## race detector (nightly CI job). Engine: the wave error rule, the schedule
## digests and the rewind of failed and retried waves to the trackers'
## pinned baselines.
## kvnet: a Close racing calls in flight, in backoff and parked on a read,
## and mutating retries through lost responses, injected disconnects and an
## original still applying when its retries arrive — the client's two locks
## (one serialising calls, one letting Close sever the connection of the
## call that holds the first) and the server's dedup claim (a copy of an
## in-flight seq waits for its outcome) get the same chances. Dumps: a
## store's and a 3-shard cluster's Dump beside a writer must each show a
## state the writer passed through (per shard on the cluster), so a read
## that leaves the table's lock between cells gets many chances to show.
stress:
	$(GO) test -race -count=50 -run 'TestParallelWaveError|TestScheduleDigests|TestDoomedWave|TestFailedStepStops|TestFailedWaveRewindsOwnedBaselines' ./internal/engine/
	$(GO) test -race -count=50 -run 'TestClientCloseIdempotentConcurrent|TestClientCloseUnblocksPendingRead|TestMutatingRetryExactlyOnce|TestRetryWaitsForInflightOriginal|TestExactlyOncePipelinedDisconnects|TestChaosClientRetriesThroughInjectedDisconnects' ./internal/kvstore/kvnet/
	$(GO) test -race -count=50 -run 'TestDumpIsASnapshotBesideAWriter' ./internal/kvstore/cluster/

## examples-smoke: run the quickstart, custommetric, airquality and linearroad
## examples (each well under a second once built) and diff each one's stdout
## against examples/<name>/testdata/stdout.golden; part of make check.
## examples/distributed (≈ 25 s, a mid-run server kill) is left out.
EXAMPLES_SMOKE = quickstart custommetric airquality linearroad
examples-smoke:
	@for e in $(EXAMPLES_SMOKE); do \
		{ $(GO) run ./examples/$$e || echo "exit status $$?"; } | diff -u examples/$$e/testdata/stdout.golden - || \
			{ echo "examples-smoke: $$e printed other output"; exit 1; }; \
	done; echo "examples-smoke: $(EXAMPLES_SMOKE) match their goldens"

## cli-smoke: the two command lines' stdout against goldens (≈ 7 s) —
## cmd/smartflux -train 60 -apply 40 on every workload under every policy
## kind, then cmd/experiments on every figure but overhead (which prints
## wall-clock timings) at -scale 0.1 — diffed against
## cmd/<name>/testdata/stdout.golden; part of make check. Both commands are
## built once into a temporary directory.
CLI_WORKLOADS = lrb aqhi firerisk
CLI_POLICIES = smartflux sync random seq3 oracle
cli-smoke:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	$(GO) build -o "$$bin" ./cmd/smartflux ./cmd/experiments && \
	for w in $(CLI_WORKLOADS); do for p in $(CLI_POLICIES); do \
		"$$bin/smartflux" -workload $$w -policy $$p -train 60 -apply 40 || echo "exit status $$?"; \
	done; done | diff -u cmd/smartflux/testdata/stdout.golden - && \
	{ "$$bin/experiments" -fig 3,roc,7,8,9,10,11,12 -scale 0.1 || echo "exit status $$?"; } | \
		diff -u cmd/experiments/testdata/stdout.golden - && \
	echo "cli-smoke: cmd/smartflux and cmd/experiments match their goldens"

## check: the pre-PR gate — build, vet, gofmt, lint, tests, race, chaos,
## chaos-crash, chaos-cluster, chaos-partition, the examples and command-line
## smokes, and the root-benchmark/clusterbench/pipeline-benchmark smoke passes
check: build vet fmt-check lint test race chaos chaos-crash chaos-cluster chaos-partition examples-smoke cli-smoke bench-smoke clusterbench-smoke bench-e2e-smoke

## loc: non-test Go lines outside the frozen benchmark — the figure a
## code-diet PR reports before and after
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './internal/analysis/testdata/*' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l

## bench-smoke: one iteration of each overhead microbenchmark, each Linear
## Road processor, the harness's 120 training waves, whose measure pass
## runs a report step hypothetically and undoes it every wave, and the
## model build set-up pays
## (Session.Train on the LRB and AQHI knowledge bases, and one step's forest
## fit) — numbers meaningless; a benchmark that fails at run time fails it;
## part of make check
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkOverhead|BenchmarkLRBSteps|BenchmarkHarnessTrainingLRB|BenchmarkSessionTrain|BenchmarkForestFitOwnImpact' -benchtime 1x .

## bench: overhead microbenchmarks (§5.3 + instrumentation overhead, and the
## store's cost of a changing key set, BenchmarkOverheadKVStoreChurn), each
## Linear Road processor at steady state, the forest fits, the
## Session.Train of a Linear Road and an AQHI pipeline, and the
## cluster comparison (BENCH_PR10.json); the WAL's
## cost per wave is the pipeline benchmark's aqhi-durable workload (make
## bench-e2e-smoke runs it)
bench:
	$(GO) test -run xxx -bench 'BenchmarkOverhead' -benchtime 1000x .
	$(GO) test -run xxx -bench 'BenchmarkLRBSteps' -benchtime 2000x .
	$(GO) test -run xxx -bench 'BenchmarkForestFit|BenchmarkSessionTrain' -benchtime 10x .
	$(GO) run ./cmd/clusterbench -out BENCH_PR10.json
	@cat BENCH_PR10.json
