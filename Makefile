# Developer entry points; CI (.github/workflows/ci.yml) runs these targets.

GO ?= go

.PHONY: all build test race vet fmt-check benchmark-check bench-gate ab smoke golden-gate trace-smoke metrics-smoke forensics-smoke conformance-exhaustive conformance-nightly conformance-cex fuzz-restore-seeds fuzz shootout profile clean

all: vet fmt-check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Every Go file in the tree (benchmark/ included) is gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

# The repo benchmark (BENCHMARK.json, benchmark/) is a Go module of its own
# that the root `go build ./...` and `go test ./...` never compile, so an API
# break in a function it pins is invisible to them. This compiles and tests
# it against the working tree.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Performance gate: the repo benchmark's suite at two reps per workload
# against BENCH_suite.json, the committed snapshot every perf-claiming PR
# refreshes (EXPERIMENTS.md, "Kernel performance"). `compare` exits non-zero
# only on a BREACH verdict or on more failed operations: a row whose runs
# spread wider than its bound, on either side, reads "unresolved" and passes,
# so a contended runner cannot break the build. About three minutes; the
# numbers only mean something on the class of host that took the snapshot.
bench-gate:
	bash benchmark/run.sh suite -reps 2 -seed 1 -out /tmp/wormnet-bench-suite.json
	bash benchmark/run.sh compare BENCH_suite.json /tmp/wormnet-bench-suite.json

# Paired runs of one benchmark workload, the protocol a performance claim is
# judged by (at least ten pairs, alternating which side runs first). REV
# (default HEAD) is checked out into a temporary git worktree, and each pair
# runs `benchmark/run.sh --workload $(WORKLOAD) --seed 1` there and in the
# working tree, REV first in odd pairs. Every pair prints work_per_s, setup_s
# and peak_rss_mb from each run's last line, and sim_digest from the line
# before it; then come the medians and the number of pairs the working tree
# won on work_per_s. The worktree is removed on every exit.
#   make ab WORKLOAD=torus512_sat [PAIRS=10] [REV=HEAD]
PAIRS ?= 10
REV ?= HEAD
ab:
	@test -n "$(WORKLOAD)" || { echo "ab: name a workload: make ab WORKLOAD=torus512_sat" >&2; exit 2; }
	@set -eu; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/rev" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	trap 'exit 130' INT TERM HUP; \
	git worktree add --quiet --detach "$$tmp/rev" "$(REV)"; \
	num() { tail -n 1 "$$1" | sed -n "s/.*\"$$2\":{\"value\":\([^,}]*\).*/\1/p"; }; \
	run() { bash "$$1/benchmark/run.sh" --workload "$(WORKLOAD)" --seed 1 > "$$2"; \
		echo "$$(num $$2 work_per_s) $$(num $$2 setup_s) $$(num $$2 peak_rss_mb)" \
			"$$(tail -n 2 "$$2" | head -n 1 | sed -n 's/.*"sim_digest":"\([^"]*\)".*/\1/p')"; }; \
	echo "ab: $(WORKLOAD), $(PAIRS) pairs, rev = $(REV), tree = working tree"; \
	echo "pair  rev: work_per_s setup_s peak_rss_mb sim_digest | tree: work_per_s setup_s peak_rss_mb sim_digest"; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then r=$$(run "$$tmp/rev" "$$tmp/out"); t=$$(run . "$$tmp/out"); \
		else t=$$(run . "$$tmp/out"); r=$$(run "$$tmp/rev" "$$tmp/out"); fi; \
		echo "$$i $$r $$t" >> "$$tmp/pairs"; echo "$$i  rev: $$r | tree: $$t"; \
	done; \
	med() { cut -d' ' -f$$1 "$$tmp/pairs" | sort -g | awk '{ v[NR] = $$1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }; \
	echo "median  rev: $$(med 2) $$(med 3) $$(med 4) | tree: $$(med 6) $$(med 7) $$(med 8)"; \
	echo "tree won $$(awk '$$6 > $$2 { n++ } END { print n + 0 }' "$$tmp/pairs") of $(PAIRS) pairs on work_per_s"

# Determinism smoke: a 4-worker checkpointed sweep must be byte-identical
# to a serial sweep, and so must a resume against the finished journal; a
# resume of that journal with another pattern must fail and print nothing. Then
# cmd/tables end to end on a small torus: every observation flag it accepts
# must reach the harness, which creates each directory up front, and Tables
# 1 and 2 with the PDM-vs-NDM report must print the same on 1 and 4 workers.
smoke: build
	$(GO) build -o /tmp/wormnet-loadsweep ./cmd/loadsweep
	$(GO) build -o /tmp/wormnet-tables ./cmd/tables
	/tmp/wormnet-loadsweep -k 4 -n 2 -points 4 -warmup 500 -measure 2000 \
		-workers 1 -quiet -json > /tmp/wormnet-serial.json
	/tmp/wormnet-loadsweep -k 4 -n 2 -points 4 -warmup 500 -measure 2000 \
		-workers 4 -checkpoint /tmp/wormnet-sweep.jsonl -quiet -json > /tmp/wormnet-par.json
	cmp /tmp/wormnet-serial.json /tmp/wormnet-par.json
	/tmp/wormnet-loadsweep -k 4 -n 2 -points 4 -warmup 500 -measure 2000 \
		-workers 4 -checkpoint /tmp/wormnet-sweep.jsonl -resume -quiet -json > /tmp/wormnet-resumed.json
	cmp /tmp/wormnet-serial.json /tmp/wormnet-resumed.json
	! /tmp/wormnet-loadsweep -k 4 -n 2 -points 4 -warmup 500 -measure 2000 -pattern transpose \
		-workers 4 -checkpoint /tmp/wormnet-sweep.jsonl -resume -quiet -json > /tmp/wormnet-changed.json
	test ! -s /tmp/wormnet-changed.json
	rm -rf /tmp/wormnet-tables-d.t2 /tmp/wormnet-tables-t.t2
	/tmp/wormnet-tables -table 2 -k 4 -n 2 -relative -warmup 200 -measure 1500 -quiet \
		-forensics-dir /tmp/wormnet-tables-d -trace-dir /tmp/wormnet-tables-t > /dev/null
	test -d /tmp/wormnet-tables-d.t2 -a -d /tmp/wormnet-tables-t.t2
	/tmp/wormnet-tables -table 1,2 -k 4 -n 2 -relative -warmup 200 -measure 1500 \
		-workers 1 -quiet > /tmp/wormnet-tables-serial.txt
	/tmp/wormnet-tables -table 1,2 -k 4 -n 2 -relative -warmup 200 -measure 1500 \
		-workers 4 -quiet > /tmp/wormnet-tables-par.txt
	cmp /tmp/wormnet-tables-serial.txt /tmp/wormnet-tables-par.txt
	@echo "smoke: parallel and resumed sweeps byte-identical to serial; a changed resume refused; tables dumps reach the harness; tables report identical on 1 and 4 workers"

# Sweep determinism gates: a fixed-seed sweep must be byte-identical to the
# committed golden (results/sweep_golden.json) run plain, with per-run metrics
# collectors and series dumps, and with per-run episode correlators and
# incident dumps. The golden pins simulation semantics — any change to the
# router, engine, detection or oracle kernels that alters observable behavior
# fails here and must regenerate it deliberately — and metrics and forensics
# must never perturb it.
golden-gate: build
	$(GO) build -o /tmp/wormnet-loadsweep ./cmd/loadsweep
	rm -rf /tmp/wormnet-gate-series /tmp/wormnet-gate-forensics
	set -e; for variant in "" "-series-dir /tmp/wormnet-gate-series" \
		"-forensics-dir /tmp/wormnet-gate-forensics"; do \
		/tmp/wormnet-loadsweep -k 4 -n 2 -points 4 -warmup 500 -measure 2000 \
			-workers 4 -replicates 2 -seed 1 $$variant -quiet -json > /tmp/wormnet-gate.json; \
		cmp results/sweep_golden.json /tmp/wormnet-gate.json; \
	done
	@echo "golden-gate: plain, metered and forensics sweeps byte-identical to the golden"

# Flight-recorder smoke: a saturated single-VC run must capture a decodable
# event stream containing detection verdicts, and the bounded ring mode must
# dump on detection too. Both files are checked by parsing them back through
# `wormview trace`.
trace-smoke: build
	$(GO) build -o /tmp/wormnet-wormsim ./cmd/wormsim
	$(GO) build -o /tmp/wormnet-wormview ./cmd/wormview
	/tmp/wormnet-wormsim -k 4 -n 2 -vcs 1 -load 2.0 -inject-limit -1 -th 8 \
		-warmup 0 -measure 3000 -oracle-every 1 \
		-trace /tmp/wormnet-events.jsonl > /dev/null
	/tmp/wormnet-wormview trace -summary /tmp/wormnet-events.jsonl \
		| tee /tmp/wormnet-trace-summary.txt
	grep -q 'detect' /tmp/wormnet-trace-summary.txt
	/tmp/wormnet-wormsim -k 4 -n 2 -vcs 1 -load 2.0 -inject-limit -1 -th 8 \
		-warmup 0 -measure 3000 -oracle-every 1 \
		-trace /tmp/wormnet-ring.jsonl -trace-last 256 > /dev/null
	/tmp/wormnet-wormview trace -summary /tmp/wormnet-ring.jsonl > /dev/null
	@echo "trace-smoke: stream and ring captures decode, detections present"

# Forensics pipeline gate: a fixed-seed saturated run dumps a deadlock
# incident report; `wormview incidents` parses it; the report is
# byte-identical between the online observer and an offline replay of the
# streamed trace; and enabling forensics leaves the run's stdout
# byte-identical (pure observation).
#
# The hdr-block leg runs the same configuration under a timeout detector,
# which emits no flag or probe events: its online report must match the
# replay, and every episode must name the mechanism "timeout", not "none".
#
# The storm-scale leg runs the 8-ary 2-cube storm (1 VC, load 2.0, th 32,
# oracle every cycle, seed 1) for 2,000 cycles. Its one episode stays open
# throughout and gathers 5,413 marks, 36,482 chain edges and 5,413 victims:
# 6 mark chunks of 1,024, 9 edge chunks of 4,096 and 6 victim chunks of
# 1,024 (internal/forensics/store.go), so its online report must match the
# replay across many chunk boundaries.
FORENSICS_ARGS = -k 4 -n 2 -vcs 1 -load 2.0 -inject-limit -1 -th 64 \
	-warmup 0 -measure 3000 -oracle-every 1 -seed 7
FORENSICS_STORM_ARGS = -k 8 -n 2 -vcs 1 -load 2.0 -inject-limit -1 -th 32 \
	-warmup 0 -measure 2000 -oracle-every 1 -seed 1
forensics-smoke: build
	$(GO) build -o /tmp/wormnet-wormsim ./cmd/wormsim
	$(GO) build -o /tmp/wormnet-wormview ./cmd/wormview
	/tmp/wormnet-wormsim $(FORENSICS_ARGS) \
		-forensics /tmp/wormnet-incidents.jsonl \
		-trace /tmp/wormnet-forensics-events.jsonl \
		> /tmp/wormnet-forensics-on.txt
	/tmp/wormnet-wormsim $(FORENSICS_ARGS) > /tmp/wormnet-forensics-off.txt
	cmp /tmp/wormnet-forensics-on.txt /tmp/wormnet-forensics-off.txt
	/tmp/wormnet-wormview incidents -write /tmp/wormnet-incidents-replay.jsonl \
		/tmp/wormnet-forensics-events.jsonl \
		| tee /tmp/wormnet-forensics-summary.txt
	cmp /tmp/wormnet-incidents.jsonl /tmp/wormnet-incidents-replay.jsonl
	grep -q 'true-deadlock' /tmp/wormnet-forensics-summary.txt
	/tmp/wormnet-wormsim $(FORENSICS_ARGS) -mech hdr-block \
		-forensics /tmp/wormnet-hdr-incidents.jsonl \
		-trace /tmp/wormnet-hdr-events.jsonl > /dev/null
	/tmp/wormnet-wormview incidents -write /tmp/wormnet-hdr-replay.jsonl \
		/tmp/wormnet-hdr-events.jsonl > /dev/null
	cmp /tmp/wormnet-hdr-incidents.jsonl /tmp/wormnet-hdr-replay.jsonl
	grep -q '"mechanism":"timeout"' /tmp/wormnet-hdr-incidents.jsonl
	! grep -q '"mechanism":"none"' /tmp/wormnet-hdr-incidents.jsonl
	/tmp/wormnet-wormsim $(FORENSICS_STORM_ARGS) \
		-forensics /tmp/wormnet-storm-incidents.jsonl \
		-trace /tmp/wormnet-storm-events.jsonl > /dev/null
	/tmp/wormnet-wormview incidents -write /tmp/wormnet-storm-replay.jsonl \
		/tmp/wormnet-storm-events.jsonl > /dev/null
	cmp /tmp/wormnet-storm-incidents.jsonl /tmp/wormnet-storm-replay.jsonl
	@echo "forensics-smoke: incidents parse; byte-identical online/offline, stdout unchanged, no timeout episode named none"

# Exhaustive conformance gate (CI-required, well under 2 minutes): the
# bounded model checker (internal/mc, cmd/mcheck) explores EVERY reachable
# blocking/advancing/injection interleaving of the scripted workloads and
# checks the paper's invariants — safety (structural + detector audits),
# liveness (every true deadlock marked and drained within a horizon) and
# mark economy (>= 1 true mark per drained episode) — for all three
# mechanisms.
#
#   3x3, window 0/1: exhaustive to fixpoint; the face cycle DOES deadlock
#   (-min-deadlocks guards against the liveness check going vacuous).
#   3x3, window 2:   exhaustive to depth 14 (the documented depth bound;
#   fixpoint is the nightly tier).
#   2x2, window 1:   exhaustive to fixpoint; proves the k=2 face cycle can
#   NEVER deadlock (parallel minimal channels always leave an escape), so
#   zero deadlocked states is the expected — and verified — outcome there.
#
# The twelve summary lines must equal cmd/mcheck/testdata/exhaustive.golden
# (TestConformancePartition holds the same runs to it in `go test`): a state
# key that merged or split states moves the counts.
#
# Any violation exits nonzero with a minimized choice path; re-run with
# -cex to emit a trace stream for `wormview trace`. The committed regression
# counterexample (a liveness violation with detection disabled) must keep
# rendering.
conformance-exhaustive: build
	$(GO) build -o /tmp/wormnet-mcheck ./cmd/mcheck
	$(GO) build -o /tmp/wormnet-wormview ./cmd/wormview
	{ /tmp/wormnet-mcheck -k 3 -mech ndm,pdm,cmh -script face -window 0 -min-deadlocks 1 && \
	  /tmp/wormnet-mcheck -k 3 -mech ndm,pdm,cmh -script face -window 1 -min-deadlocks 1 && \
	  /tmp/wormnet-mcheck -k 3 -mech ndm,pdm,cmh -script face -window 2 -depth 14 -min-deadlocks 1 && \
	  /tmp/wormnet-mcheck -k 2 -mech ndm,pdm,cmh -script face -window 1; } > /tmp/wormnet-exhaustive.txt \
		|| { cat /tmp/wormnet-exhaustive.txt; exit 1; }
	diff cmd/mcheck/testdata/exhaustive.golden /tmp/wormnet-exhaustive.txt
	/tmp/wormnet-wormview trace -summary internal/mc/testdata/liveness-cex-3x3-none.jsonl \
		| grep -q 'oracle-deadlock'
	@echo "conformance-exhaustive: all interleavings verified (safety, liveness, mark economy)"

# Nightly-depth conformance tier (not a PR gate; ~15 s of exploration on
# two cores, the frontier expanded on every core). Adds the 8-message
# double-face script on the 2x2 — ~1M states, exhaustive proof that even
# with both parallel channels saturated the k=2 torus cannot deadlock — and
# pushes the 3x3 window-2 space to fixpoint. Its summary lines must equal
# cmd/mcheck/testdata/nightly.golden.
conformance-nightly: build
	$(GO) build -o /tmp/wormnet-mcheck ./cmd/mcheck
	{ /tmp/wormnet-mcheck -k 2 -mech ndm -script dblface -window 0 -max-states 1500000 && \
	  /tmp/wormnet-mcheck -k 3 -mech ndm,pdm,cmh -script face -window 2 -min-deadlocks 1; } > /tmp/wormnet-nightly.txt \
		|| { cat /tmp/wormnet-nightly.txt; exit 1; }
	diff cmd/mcheck/testdata/nightly.golden /tmp/wormnet-nightly.txt
	@echo "conformance-nightly: deep exploration clean"

# Regenerate the committed regression counterexample: the minimized
# liveness violation the checker finds when detection is disabled.
conformance-cex: build
	$(GO) build -o /tmp/wormnet-mcheck ./cmd/mcheck
	-/tmp/wormnet-mcheck -k 3 -mech none -script face -window 0 \
		-cex internal/mc/testdata/liveness-cex-3x3-none.jsonl
	@echo "conformance-cex: regenerated internal/mc/testdata/liveness-cex-3x3-none.jsonl"

# Regenerate the FuzzRestore corpus (engine snapshots from the equivalence
# gate's configurations) after a change to the snapshot format or to the
# configuration fingerprint; TestRestoreCorpusIsCurrent fails until then.
fuzz-restore-seeds:
	$(GO) test ./internal/sim -run TestRestoreCorpusIsCurrent -update-restore-corpus
	@echo "fuzz-restore-seeds: internal/sim/testdata/fuzz/FuzzRestore regenerated"

# Twenty seconds of every fuzz target `go test -list '^Fuzz' ./...` reports,
# one after another (`go test -fuzz` takes one target per run); the list is
# printed first, and finding none is a failure. -fuzzminimizetime keeps a find
# from spending a minute shrinking a snapshot-sized input. Each harness is
# documented beside it; in short:
#   - FuzzRestore: mutated engine snapshots are refused with an error or
#     restore to an engine that passes every Debug audit and steps on.
#   - FuzzCanonicalEquality: restored states whose canonical bytes (the model
#     checker's key) are equal step alike under one choice sequence.
#   - FuzzNDMFlags, FuzzPDMFlags: mutated event programs keep the flag
#     detectors' word loops equal to the eager per-link reference.
#   - FuzzOracle: worm op programs keep the oracle's flat wait-for graph equal,
#     set and order, to the round-based reference kernel.
#   - FuzzProbeDigest: event programs keep CMH's probe accounting conserved and
#     its snapshot round trip exact.
#   - FuzzTraceScan, FuzzDecodeSeries, FuzzIncidents, FuzzTableJSON: hostile
#     traces, series, incident reports and saved tables are refused with an
#     error or decoded, never a panic or a runaway allocation.
# The committed seeds and corpora alone run in the normal `go test`.
fuzz:
	@out=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$out"; exit 1; }; \
	targets=$$(echo "$$out" | awk '/^Fuzz/ { f[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2 ":" f[i]; n = 0 }'); \
	test -n "$$targets" || { echo "fuzz: go test -list found no fuzz targets" >&2; exit 1; }; \
	echo "fuzz: running" $$targets; \
	for t in $$targets; do \
		echo "fuzz: $$t"; \
		$(GO) test $${t%%:*} -run NONE -fuzz "^$${t#*:}\$$" -fuzztime 20s -fuzzminimizetime 5s || exit 1; \
	done; \
	echo "fuzz: no fuzz target found a failing input:" $$targets

# Metrics smoke: scrape a live run's /metrics, /status and /debug/pprof,
# check that an emitted time series parses back through `wormview metrics`,
# and hold a fixed-seed sweep to byte-identical output with metrics on and
# off (metrics are pure observation). The live run binds a free port and is
# scraped at the address it reports on stderr, waited for up to 20 s.
metrics-smoke: build
	$(GO) build -o /tmp/wormnet-wormsim ./cmd/wormsim
	$(GO) build -o /tmp/wormnet-wormview ./cmd/wormview
	$(GO) build -o /tmp/wormnet-loadsweep ./cmd/loadsweep
	/tmp/wormnet-wormsim -k 4 -n 2 -vcs 1 -load 2.0 -inject-limit -1 -th 16 \
		-warmup 0 -measure 100000000 -metrics-addr 127.0.0.1:0 \
		>/dev/null 2>/tmp/wormnet-metrics.err & echo $$! > /tmp/wormnet-metrics.pid
	addr=; for i in $$(seq 200); do \
		addr=$$(sed -n 's|^wormsim: metrics listening on http://\(.*\)/metrics$$|\1|p' /tmp/wormnet-metrics.err); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; ok=0; \
	if [ -z "$$addr" ]; then echo "metrics-smoke: wormsim did not report its address within 20 s" >&2; ok=1; \
	else { curl -sf http://$$addr/metrics | grep -q '^wormnet_cycles_total' \
		&& curl -sf http://$$addr/status | grep -q '"detector"' \
		&& curl -sf http://$$addr/debug/pprof/cmdline >/dev/null; } || ok=1; fi; \
	kill `cat /tmp/wormnet-metrics.pid`; exit $$ok
	/tmp/wormnet-wormsim -k 4 -n 2 -vcs 1 -load 2.0 -inject-limit -1 -th 16 \
		-warmup 0 -measure 4000 -metrics-window 200 \
		-series /tmp/wormnet-run.series.jsonl > /dev/null
	/tmp/wormnet-wormview metrics -summary /tmp/wormnet-run.series.jsonl
	/tmp/wormnet-loadsweep -k 4 -n 2 -points 2 -warmup 300 -measure 1500 \
		-workers 4 -quiet -json > /tmp/wormnet-plain.json
	rm -rf /tmp/wormnet-series
	/tmp/wormnet-loadsweep -k 4 -n 2 -points 2 -warmup 300 -measure 1500 \
		-workers 4 -series-dir /tmp/wormnet-series -quiet -json > /tmp/wormnet-metered.json
	cmp /tmp/wormnet-plain.json /tmp/wormnet-metered.json
	/tmp/wormnet-wormview metrics -summary /tmp/wormnet-series/p000-r0-*.series.jsonl
	grep -q '^wormnet_cycles_total' /tmp/wormnet-series/aggregate.prom
	@echo "metrics-smoke: live scrape OK, series parse OK, metered sweep byte-identical"

# Three-way NDM/PDM/CMH detection shootout at a deadlock-prone operating
# point; regenerates results/cmh_shootout.txt (detection-latency
# histograms, true/false mark split, probe bandwidth). See EXPERIMENTS.md.
shootout: build
	$(GO) run ./cmd/tables -detlat -mechs pdm,ndm,cmh -k 4 -n 2 -th 16 \
		-measure 20000 > results/cmh_shootout.txt
	@echo "shootout: wrote results/cmh_shootout.txt"

# CPU and heap profiles of the kernel benchmarks and of the model checker
# (the mcheck_dblface pass); writes pprof artifacts under results/. A
# profile covers one package, so the checker gets its own pair. Inspect
# with: go tool pprof results/cpu.pprof
profile:
	$(GO) test -run NONE -bench 'EngineStepSat512|EngineStepSaturation|EngineStepStorm|OracleSaturation|OracleStorm' \
		-benchtime 2s -cpuprofile results/cpu.pprof -memprofile results/mem.pprof \
		. | tee results/profile_bench.txt
	$(GO) test -run NONE -bench 'CheckDblface|RestoreDblfaceParent' -benchtime 10x \
		-cpuprofile results/cpu-mc.pprof -memprofile results/mem-mc.pprof \
		./internal/mc | tee -a results/profile_bench.txt
	@echo "profile: wrote results/cpu.pprof, results/mem.pprof, results/cpu-mc.pprof and results/mem-mc.pprof"

clean:
	rm -f /tmp/wormnet-loadsweep /tmp/wormnet-serial.json \
		/tmp/wormnet-par.json /tmp/wormnet-resumed.json /tmp/wormnet-sweep.jsonl \
		/tmp/wormnet-wormsim /tmp/wormnet-wormview /tmp/wormnet-events.jsonl \
		/tmp/wormnet-ring.jsonl /tmp/wormnet-trace-summary.txt \
		/tmp/wormnet-metrics.pid \
		/tmp/wormnet-run.series.jsonl /tmp/wormnet-plain.json /tmp/wormnet-metered.json \
		/tmp/wormnet-mcheck /tmp/wormnet-incidents.jsonl \
		/tmp/wormnet-incidents-replay.jsonl /tmp/wormnet-forensics-events.jsonl \
		/tmp/wormnet-forensics-on.txt /tmp/wormnet-forensics-off.txt \
		/tmp/wormnet-forensics-summary.txt /tmp/wormnet-storm-incidents.jsonl \
		/tmp/wormnet-storm-events.jsonl /tmp/wormnet-storm-replay.jsonl \
		/tmp/wormnet-hdr-incidents.jsonl /tmp/wormnet-hdr-events.jsonl \
		/tmp/wormnet-hdr-replay.jsonl \
		/tmp/wormnet-tables /tmp/wormnet-gate.json \
		/tmp/wormnet-bench-suite.json /tmp/wormnet-tables-serial.txt /tmp/wormnet-tables-par.txt
	rm -rf /tmp/wormnet-series /tmp/wormnet-tables-d.t2 /tmp/wormnet-tables-t.t2 \
		/tmp/wormnet-gate-series /tmp/wormnet-gate-forensics
