#!/bin/sh
# check.sh — the tier-1+ verification gate (see ROADMAP.md).
#
# Usage: ./check.sh [-fast] [-only <gate>]
#
#   -fast         skip the fuzz smoke, sweep-reuse, autopilot, and
#                 sweepd gates (the slowest four); everything else runs.
#                 Use for inner-loop iteration; CI and pre-merge runs
#                 use the full gate.
#   -only <gate>  run a single gate by id (tool binaries are still
#                 built so every gate stays self-contained). Gate ids:
#                 fmt vet build lint lint-determinism test fuzz
#                 tracefile runq hotpath hotpath-bench sampling tpar
#                 wpar sweepreuse autopilot sweepd schema
#
# Each gate's wall-clock time is printed when the next gate starts, and
# a per-gate timing summary table is printed at the end.
#
# The sampling, tpar, wpar, sweepreuse, autopilot and sweepd gates each
# run `experiments -gate <id>` with the same id as here. It runs that
# gate's passes, applies its bounds, writes BENCH_<id>.json, prints any
# violations, and exits nonzero on one (cmd/experiments/gate.go).
#
# Runs, in order:
#   1. gofmt -l            (no unformatted files)
#   2. go vet ./...        (stdlib vet)
#   3. go build ./...      (everything compiles)
#   4. ucplint ./...       (custom determinism / hardware-invariant
#                           lints, including the interprocedural
#                           seedflow/mergeorder/sharedstate/mapemit/
#                           hotalloc dataflow rules; runs with -json
#                           and fails on any finding — exit 0 clean,
#                           1 findings, 2 load error)
#   5. ucplint -determinism (two seeded runs must byte-match)
#   6. go test -race ./... (full suite under the race detector)
#   7. fuzz smoke          (each fuzz target, 5s: the internal/trace
#                           file parser, ckpt.Open, the warm-checkpoint
#                           restore in internal/sim, runq's disk-cache
#                           record load, sweepd's job submission and
#                           its ?after= event-stream resume, and the
#                           program generator over any valid profile)
#   7b. recorded trace file (tracegen writes a .ucpt file and -inspect
#                           accepts it; two ucpsim -file runs print
#                           cmp-equal digests; a copy with one appended
#                           byte makes both tools exit nonzero with a
#                           "trace:" error and no panic)
#   8. runq determinism    (quick sweep at -jobs 1 vs -jobs 8 vs a warm
#                           cache must be byte-identical; wall-clock
#                           ratios are recorded in BENCH_runq.json but
#                           never gated — timing is machine noise)
#   9. hotpath gate        (quick-sweep determinism digests must byte-
#                           match testdata/hotpath_digest.golden —
#                           TestDigestGoldens/hotpath in cmd/ucpsim, so
#                           every optimization is provably outcome-
#                           neutral — and five BenchmarkSimQuick samples
#                           record the
#                           quartiles of insts/s, allocs/inst and
#                           bytes/inst into BENCH_hotpath.json, beside
#                           five BenchmarkBuildProgram samples as
#                           build_program_ms, five BenchmarkNewMachine
#                           samples as new_machine_kb, five
#                           BenchmarkPredictorReplay samples as
#                           bpred_ns_per_branch and five
#                           BenchmarkWarmSkip/srv203/ucp samples as
#                           warm_skip_ns_per_inst;
#                           a -benchtime=1x smoke of the internal/trace
#                           generator-vs-arena benchmarks prints their
#                           per-instruction costs, ungated)
#  10. sampling gate       (paired full-vs-sampled sweep in one process:
#                           per-point IPC error must stay under 2% and
#                           the aggregate wall-clock speedup at or above
#                           10x; measurements land in BENCH_sampling.json;
#                           the sampled side must digest identically twice;
#                           then ucpsim's serial sampled chain — fast,
#                           conservative and adaptive geometries, baseline
#                           and UCP — must byte-match
#                           testdata/sampled_digest.golden:
#                           TestDigestGoldens/sampled in cmd/ucpsim)
#  11. time-parallel gate  (one full-detail UCP run executed serial,
#                           segmented at two worker counts, and through
#                           a capture+restore checkpoint cycle — every
#                           segmented digest byte-identical, all four
#                           boundaries captured and restored, boundary-
#                           warming IPC error < 2%; recorded in
#                           BENCH_tpar.json. Then ucpsim's -segments 4
#                           and -sample -segments 4 runs, at -jobs 1 and
#                           at -jobs 8, must each reproduce the whole of
#                           testdata/parallel_digest.golden:
#                           TestDigestGoldens/parallel in cmd/ucpsim)
#  11b. window-parallel gate (one sampled UCP run executed chain-serial,
#                           window-parallel at two worker counts, and
#                           through a capture+restore checkpoint cycle —
#                           every window-parallel digest byte-identical,
#                           all 20 window boundaries captured and
#                           restored, window-independence IPC error < 2%,
#                           and scaling >= 0.7 x min(cores, windows) on
#                           multi-core hosts (single-core hosts carry a
#                           note); recorded in BENCH_wpar.json. Then the
#                           same TestDigestGoldens/parallel row as the
#                           time-parallel gate, whose golden holds both
#                           modes' digests)
#  12. sweep-reuse gate    (cold vs warm-checkpoint pool over a
#                           10-config sampled threshold ablation: every
#                           digest byte-identical, exactly one warm
#                           checkpoint captured and N-1 restored, and
#                           wall-clock speedup at or above 3x; recorded
#                           in BENCH_sweepreuse.json)
#  12b. autopilot gate     (adaptive sampling must meet its CI target in
#                           fewer windows than fixed geometry with the
#                           full-detail IPC inside the claimed interval,
#                           and the confidence-pruned 10-config search
#                           must return the exhaustive winner for at
#                           least 2x fewer simulated instructions, twice
#                           identically; recorded in BENCH_autopilot.json,
#                           Pareto table spliced into EXPERIMENTS_RESULTS.md)
#  13. sweepd gate         (local pool vs a loopback sweepd server over
#                           the same ablation: digests byte-identical
#                           over the wire, each distinct job executed
#                           exactly once across two remote passes, the
#                           warm pass fully coalesced — recorded in
#                           BENCH_sweepd.json; then the real sweepd
#                           binary serves ucpsim -server and the remote
#                           digest file must cmp-equal the local one)
#  14. BENCH schema        (every BENCH_*.json carries the shared
#                           schema_version/bench/cores envelope)
#
# Any failure aborts immediately with a nonzero exit.
set -eu

cd "$(dirname "$0")"

KNOWN_GATES="fmt vet build lint lint-determinism test fuzz tracefile runq hotpath hotpath-bench sampling tpar wpar sweepreuse autopilot sweepd schema"

FAST=0
ONLY=""
while [ $# -gt 0 ]; do
	case "$1" in
	-fast) FAST=1 ;;
	-only)
		shift
		[ $# -gt 0 ] || { echo "check.sh: -only requires a gate id (one of: $KNOWN_GATES)" >&2; exit 2; }
		ONLY="$1"
		case " $KNOWN_GATES " in
		*" $ONLY "*) ;;
		*) echo "check.sh: unknown gate \"$ONLY\" (one of: $KNOWN_GATES)" >&2; exit 2 ;;
		esac
		;;
	*) echo "check.sh: unknown argument $1 (usage: ./check.sh [-fast] [-only <gate>])" >&2; exit 2 ;;
	esac
	shift
done

# want reports whether the named gate should run under -only filtering.
want() { [ -z "$ONLY" ] || [ "$ONLY" = "$1" ]; }

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

# step prints the previous gate's wall-clock time, records it for the
# summary table, then opens the next gate.
STEP_NAME=""
STEP_T0=0
TIMINGS=""
step() {
	_now=$(now_ms)
	if [ -n "$STEP_NAME" ]; then
		_ms=$((_now - STEP_T0))
		printf '   [%s: %sms]\n' "$STEP_NAME" "$_ms"
		TIMINGS="${TIMINGS}${STEP_NAME}|${_ms}
"
	fi
	STEP_NAME="$*"
	STEP_T0=$_now
	printf '\n== %s ==\n' "$*"
}

RUNQ_TMP=$(mktemp -d)
SWEEPD_PID=""
trap '[ -n "$SWEEPD_PID" ] && kill "$SWEEPD_PID" 2>/dev/null; rm -rf "$RUNQ_TMP"' EXIT

# Tool binaries are built unconditionally (the Go build cache makes
# repeats cheap) so any -only gate is self-contained.
step "tool build"
go build -o "$RUNQ_TMP/ucplint" ./cmd/ucplint
go build -o "$RUNQ_TMP/experiments" ./cmd/experiments
go build -o "$RUNQ_TMP/ucpsim" ./cmd/ucpsim
go build -o "$RUNQ_TMP/tracegen" ./cmd/tracegen
SERIAL_MS=0

if want fmt; then
step "gofmt"
UNFMT=$(gofmt -l .)
if [ -n "$UNFMT" ]; then
	echo "unformatted files:" >&2
	echo "$UNFMT" >&2
	exit 1
fi
fi

if want vet; then
step "go vet"
go vet ./...
fi

if want build; then
step "go build"
go build ./...
fi

if want lint; then
step "ucplint"
# The lint gate covers the whole module (./... includes cmd/) and runs
# in JSON mode; any finding fails it. Exit codes are stable: 0 clean,
# 1 findings, 2 load error — run the built binary, not `go run`, which
# collapses any nonzero child status to 1.
if "$RUNQ_TMP/ucplint" -json ./... > "$RUNQ_TMP/lint.json"; then
	echo "ucplint: clean (no findings)"
else
	rc=$?
	if [ "$rc" -eq 1 ]; then
		cat "$RUNQ_TMP/lint.json" >&2
		N=$(grep -c '"rule":' "$RUNQ_TMP/lint.json" || true)
		echo "ucplint: $N finding(s)" >&2
	else
		echo "ucplint: load error (exit $rc)" >&2
	fi
	exit 1
fi
fi

if want lint-determinism; then
step "ucplint -determinism"
"$RUNQ_TMP/ucplint" -determinism -determinism-insts 60000
fi

if want test; then
step "go test -race"
go test -race ./...
fi

# `go test -fuzz` accepts a single target at a time, so smoke each one.
if want fuzz; then
step "fuzz smoke"
if [ "$FAST" -eq 0 ]; then
	go test -fuzz=FuzzReadAny -fuzztime=5s -run='^$' ./internal/trace
	go test -fuzz=FuzzValidate -fuzztime=5s -run='^$' ./internal/trace
	go test -fuzz=FuzzOpen -fuzztime=5s -run='^$' ./internal/ckpt
	go test -fuzz=FuzzRestoreWarm -fuzztime=5s -run='^$' ./internal/sim
	go test -fuzz=FuzzLoadRecord -fuzztime=5s -run='^$' ./internal/runq
	# The sweepd targets cap minimization: the engine minimizes every new
	# interesting input (up to 60s each by default) without counting
	# those runs, and for these targets that stalled the smoke after ~3s.
	go test -fuzz=FuzzSubmit -fuzztime=5s -fuzzminimizetime=50x -run='^$' ./internal/sweepd
	go test -fuzz=FuzzEventsAfter -fuzztime=5s -fuzzminimizetime=50x -run='^$' ./internal/sweepd
	go test -fuzz=FuzzBuildProgram -fuzztime=5s -fuzzminimizetime=50x -run='^$' ./internal/trace
else
	echo "skipped (-fast)"
fi
fi

if want tracefile; then
step "recorded trace file"
# The only path by which a trace the generator did not produce enters
# the simulator: tracegen writes it, and every reader goes through the
# one validating parser.
TF="$RUNQ_TMP/crypto01.ucpt"
"$RUNQ_TMP/tracegen" -profile crypto01 -n 300000 -o "$TF"
"$RUNQ_TMP/tracegen" -inspect "$TF"
for i in 1 2; do
	"$RUNQ_TMP/ucpsim" -file "$TF" -warmup 100000 -measure 150000 -digest > "$RUNQ_TMP/tracefile_digest_$i.txt"
done
cmp "$RUNQ_TMP/tracefile_digest_1.txt" "$RUNQ_TMP/tracefile_digest_2.txt" || {
	echo "tracefile: ucpsim -file digests differ between two runs" >&2; exit 1; }
cp "$TF" "$RUNQ_TMP/appended.ucpt"
printf '\0' >> "$RUNQ_TMP/appended.ucpt"
# rejects <name> <cmd...>: the command must exit nonzero with a trace:
# error on stderr and no panic.
rejects() {
	_name=$1
	shift
	if "$@" > /dev/null 2> "$RUNQ_TMP/tracefile_err.txt"; then
		echo "tracefile: $_name accepted a file with an appended byte" >&2; exit 1
	fi
	if ! grep -q 'trace:' "$RUNQ_TMP/tracefile_err.txt" || grep -q 'panic' "$RUNQ_TMP/tracefile_err.txt"; then
		cat "$RUNQ_TMP/tracefile_err.txt" >&2
		echo "tracefile: $_name did not fail with a clean trace: error" >&2; exit 1
	fi
	echo "tracefile: $_name rejects it: $(cat "$RUNQ_TMP/tracefile_err.txt")"
}
rejects "tracegen -inspect" "$RUNQ_TMP/tracegen" -inspect "$RUNQ_TMP/appended.ucpt"
rejects "ucpsim -file" "$RUNQ_TMP/ucpsim" -file "$RUNQ_TMP/appended.ucpt" -warmup 100000 -measure 150000 -digest
fi

if want runq; then
step "runq parallel determinism"
# The report must be byte-identical whether runs execute serially, on 8
# workers, or replay from a warm on-disk cache. Timings go to
# BENCH_runq.json as a record; cmp is the only gate.
T0=$(now_ms)
"$RUNQ_TMP/experiments" -all -quick -warmup 60000 -measure 60000 \
	-jobs 1 -progress=false -o "$RUNQ_TMP/serial.md"
T1=$(now_ms)
"$RUNQ_TMP/experiments" -all -quick -warmup 60000 -measure 60000 \
	-jobs 8 -progress=false -cache-dir "$RUNQ_TMP/cache" -o "$RUNQ_TMP/parallel.md"
T2=$(now_ms)
touch "$RUNQ_TMP/cache-marker"
"$RUNQ_TMP/experiments" -all -quick -warmup 60000 -measure 60000 \
	-jobs 8 -progress=false -cache-dir "$RUNQ_TMP/cache" -o "$RUNQ_TMP/warm.md"
T3=$(now_ms)

cmp "$RUNQ_TMP/serial.md" "$RUNQ_TMP/parallel.md" || {
	echo "runq: -jobs 8 report differs from -jobs 1" >&2; exit 1; }
cmp "$RUNQ_TMP/serial.md" "$RUNQ_TMP/warm.md" || {
	echo "runq: cache-warm report differs from cold" >&2; exit 1; }
# A record format that always misses would pass the cmp by recomputing:
# the warm pass must serve every job from disk and rewrite no record.
REWRITTEN=$(find "$RUNQ_TMP/cache" -name '*.rec' -newer "$RUNQ_TMP/cache-marker")
[ -z "$REWRITTEN" ] || {
	echo "runq: cache-warm pass rewrote records (a disk miss):" >&2
	echo "$REWRITTEN" >&2; exit 1; }

SERIAL_MS=$((T1 - T0)); PARALLEL_MS=$((T2 - T1)); WARM_MS=$((T3 - T2))
# The typed record stamps GOMAXPROCS as its cores and, on one core,
# notes that the 8-worker speedup is time-slicing (cmd/experiments/record.go).
"$RUNQ_TMP/experiments" -record runq "$SERIAL_MS" "$PARALLEL_MS" "$WARM_MS"
echo "runq: $(tr -d '\n' < BENCH_runq.json | tr -s ' ')"
fi

if want hotpath; then
step "hotpath determinism digest"
# The hard gate of the hot-path work: the quick-sweep determinism
# digests (baseline + UCP, 60k+60k insts) must be byte-identical to the
# pre-optimization golden. Any optimization that changes a simulated
# outcome — one cycle, one counter — fails here. The commands, and how
# to regenerate the golden for an intended model change, are in
# cmd/ucpsim/golden_test.go.
go test -count=1 -run '^TestDigestGoldens$/^hotpath$' ./cmd/ucpsim
echo "hotpath: digests match golden"
fi

if want hotpath-bench; then
step "hotpath benchmark (BenchmarkSimQuick)"
# Five one-iteration samples: a single one moves by a third on host
# noise, so the record keeps their median and quartiles (the record
# rejects fewer than five). -benchmem adds B/op, which the record turns
# into bytes per simulated instruction. Timings are recorded, never
# gated.
go test -run '^$' -bench '^BenchmarkSimQuick$' -benchtime=1x -count=5 -benchmem . | tee "$RUNQ_TMP/bench.txt"
grep -q '^BenchmarkSimQuick' "$RUNQ_TMP/bench.txt" || {
	echo "hotpath: BenchmarkSimQuick produced no result line" >&2; exit 1; }
# Program set-up: five samples of building the four full-pairs images
# ten times each, recorded as build_program_ms.
go test -run '^$' -bench '^BenchmarkBuildProgram$' -benchtime=10x -count=5 -benchmem ./internal/trace | tee -a "$RUNQ_TMP/bench.txt"
grep -q '^BenchmarkBuildProgram' "$RUNQ_TMP/bench.txt" || {
	echo "hotpath: BenchmarkBuildProgram produced no result line" >&2; exit 1; }
# Machine set-up: five samples of building ten Table II UCP machines on
# fresh arrays; -benchmem's B/op is recorded as new_machine_kb.
go test -run '^$' -bench '^BenchmarkNewMachine$' -benchtime=10x -count=5 -benchmem ./internal/sim | tee -a "$RUNQ_TMP/bench.txt"
grep -q '^BenchmarkNewMachine' "$RUNQ_TMP/bench.txt" || {
	echo "hotpath: BenchmarkNewMachine produced no result line" >&2; exit 1; }
# Warming kernels: five samples of the demand and Alt-BP predictors
# replaying a recorded srv203 conditional stream, recorded as
# bpred_ns_per_branch, and of the UCP machine's srv203 warming skip,
# recorded as warm_skip_ns_per_inst.
go test -run '^$' -bench '^BenchmarkPredictorReplay$' -benchtime=3x -count=5 ./internal/bpred | tee -a "$RUNQ_TMP/bench.txt"
grep -q '^BenchmarkPredictorReplay' "$RUNQ_TMP/bench.txt" || {
	echo "hotpath: BenchmarkPredictorReplay produced no result line" >&2; exit 1; }
go test -run '^$' -bench '^BenchmarkWarmSkip$/^srv203$/^ucp$' -benchtime=10x -count=5 ./internal/sim | tee -a "$RUNQ_TMP/bench.txt"
grep -q '^BenchmarkWarmSkip/srv203/ucp' "$RUNQ_TMP/bench.txt" || {
	echo "hotpath: BenchmarkWarmSkip/srv203/ucp produced no result line" >&2; exit 1; }
# sweep_serial_ms is 0 when the runq gate did not run this invocation.
"$RUNQ_TMP/experiments" -record hotpath "$RUNQ_TMP/bench.txt" "$SERIAL_MS"
echo "hotpath: $(tr -d '\n' < BENCH_hotpath.json | tr -s ' ')"
# Trace-layer smoke: the generator-versus-arena break-even benchmarks
# (walker skip and warm-skip, arena build, cursor warm-skip, on srv203
# and crypto01) must each produce a result. Printed, never gated.
go test -run '^$' -bench '^Benchmark(WalkerSkip|WalkerSkipWarm|ArenaBuild|ArenaSkipWarm|ArenaSkip|ArenaCursor)$' \
	-benchtime=1x ./internal/trace | tee "$RUNQ_TMP/trace_bench.txt"
for b in WalkerSkip WalkerSkipWarm ArenaBuild ArenaSkipWarm; do
	for p in srv203 crypto01; do
		grep -q "^Benchmark$b/$p" "$RUNQ_TMP/trace_bench.txt" || {
			echo "hotpath: Benchmark$b/$p produced no result line" >&2; exit 1; }
	done
done
fi

if want sampling; then
step "sampling gate"
# Paired full-vs-sampled sweep (no-uop / baseline / UCP on crypto01,
# 25M measured insts) in one process so the wall-clock ratio is
# thermally comparable. Gated: per-point IPC error < 2%, aggregate
# speedup >= 10x, sampled runs digest-identical across two passes.
"$RUNQ_TMP/experiments" -gate sampling

# Cross-commit half: the serial sampled chain (warming skip, functional
# warm, detailed windows) on every zone kind of the warming pyramid —
# -sample-fast engages the pure, predictor-only and cache-warm zones —
# must reproduce testdata/sampled_digest.golden byte for byte.
go test -count=1 -run '^TestDigestGoldens$/^sampled$' ./cmd/ucpsim
echo "sampling: sampled ucpsim digests match golden"
fi

if want tpar; then
step "time-parallel gate"
# One full-detail UCP run on crypto01 executed five ways in one process
# (serial, segmented w1, segmented wN, checkpoint capture, checkpoint
# restore). Gated: segmented digests byte-identical across worker counts
# and across the capture/restore cycle, 4 boundaries captured + 4
# restored, boundary-warming IPC error < 2%. Scaling is gated only on
# multi-core hosts; single-core runs carry a note in BENCH_tpar.json.
"$RUNQ_TMP/experiments" -gate tpar

# End-to-end and cross-commit half: ucpsim's segmented and sampled
# segmented digests (with their per-interval timepar lines), at -jobs 1
# and at -jobs 8, must each reproduce testdata/parallel_digest.golden.
go test -count=1 -run '^TestDigestGoldens$/^parallel$' ./cmd/ucpsim
echo "tpar: parallel ucpsim digests match golden at -jobs 1 and -jobs 8"
fi

if want wpar; then
step "window-parallel gate"
# One sampled UCP run on crypto01 executed five ways in one process
# (chain-serial, window-parallel w1, window-parallel wN, checkpoint
# capture, checkpoint restore). Gated: window-parallel digests
# byte-identical across worker counts and across the capture/restore
# cycle, all 20 window boundaries captured + restored,
# window-independence IPC error < 2%, and scaling >= 0.7 x min(cores,
# windows) on multi-core hosts. Single-core runs carry a note in
# BENCH_wpar.json.
"$RUNQ_TMP/experiments" -gate wpar

# End-to-end and cross-commit half: the parallel golden holds the
# window-parallel digests after the segmented ones, so this is the
# time-parallel gate's row, run here too so -only wpar checks them.
go test -count=1 -run '^TestDigestGoldens$/^parallel$' ./cmd/ucpsim
echo "wpar: parallel ucpsim digests match golden at -jobs 1 and -jobs 8"
fi

if want sweepreuse; then
step "sweep-reuse gate"
if [ "$FAST" -eq 0 ]; then
	# Cold pool (per-job fast-forward) vs a fresh checkpoint pool
	# over one warm-key-sharing sampled sweep, in one process. Gated:
	# digests byte-identical cold vs warm, one checkpoint captured + N-1
	# restored, wall-clock speedup >= 3x.
	"$RUNQ_TMP/experiments" -gate sweepreuse
else
	echo "skipped (-fast)"
fi
fi

if want autopilot; then
step "autopilot gate"
if [ "$FAST" -eq 0 ]; then
	# Part A: an adaptive run (FastSampling + a ±2% CI target) must meet
	# its target in strictly fewer windows than the fixed geometry, with
	# the full-detail reference IPC inside its claimed interval, twice
	# digest-identically. Part B: the confidence-pruned 10-config search
	# must name the same winner as exhaustive enumeration at >=2x fewer
	# simulated instructions, and a repeat search must reproduce winner,
	# rounds, spend, and winning digest. The Pareto table is regenerated
	# in EXPERIMENTS_RESULTS.md between its markers.
	"$RUNQ_TMP/experiments" -gate autopilot
else
	echo "skipped (-fast)"
fi
fi

if want sweepd; then
step "sweepd gate"
if [ "$FAST" -eq 0 ]; then
	# In-process half: local pool vs a loopback sweepd server over the
	# same ablation sweep, plus a second remote pass. Gated: every digest
	# byte-identical over the wire, the server executes each distinct job
	# exactly once, the whole second pass coalesces, and its checkpoint
	# tier captures once + restores N-1 times.
	"$RUNQ_TMP/experiments" -gate sweepd

	# End-to-end half: the real sweepd binary serving a real ucpsim
	# client. The remote digest file must be byte-identical to the local
	# one — same binary, same flags, only -server differs.
	go build -o "$RUNQ_TMP/sweepd" ./cmd/sweepd
	"$RUNQ_TMP/sweepd" -addr 127.0.0.1:0 -quiet 2> "$RUNQ_TMP/sweepd.log" &
	SWEEPD_PID=$!
	ADDR=""
	i=0
	while [ $i -lt 100 ]; do
		ADDR=$(sed -n 's/^sweepd: listening on //p' "$RUNQ_TMP/sweepd.log")
		[ -n "$ADDR" ] && break
		sleep 0.1
		i=$((i + 1))
	done
	[ -n "$ADDR" ] || { echo "sweepd: server did not come up" >&2; exit 1; }
	{
		"$RUNQ_TMP/ucpsim" -trace quick -digest -warmup 60000 -measure 60000
		"$RUNQ_TMP/ucpsim" -trace quick -ucp -digest -warmup 60000 -measure 60000
	} > "$RUNQ_TMP/digest_local.txt"
	{
		"$RUNQ_TMP/ucpsim" -trace quick -digest -warmup 60000 -measure 60000 -server "http://$ADDR"
		"$RUNQ_TMP/ucpsim" -trace quick -ucp -digest -warmup 60000 -measure 60000 -server "http://$ADDR"
	} > "$RUNQ_TMP/digest_remote.txt"
	kill "$SWEEPD_PID" 2>/dev/null || true
	wait "$SWEEPD_PID" 2>/dev/null || true
	SWEEPD_PID=""
	cmp "$RUNQ_TMP/digest_local.txt" "$RUNQ_TMP/digest_remote.txt" || {
		echo "sweepd: remote digests differ from local (wire round-trip is lossy)" >&2; exit 1; }
	echo "sweepd: end-to-end remote digests byte-identical to local"
else
	echo "skipped (-fast)"
fi
fi

if want schema; then
step "BENCH schema"
# Every benchmark record shares the same envelope so downstream tooling
# can discover and parse them uniformly. In -fast mode the sweep-reuse,
# autopilot, and sweepd records may be stale or absent; only gate them
# on full runs. Under -only, gate whichever records exist on disk.
SCHEMA_FILES="BENCH_runq.json BENCH_hotpath.json BENCH_sampling.json BENCH_tpar.json BENCH_wpar.json"
if [ "$FAST" -eq 0 ]; then
	SCHEMA_FILES="$SCHEMA_FILES BENCH_sweepreuse.json BENCH_autopilot.json BENCH_sweepd.json"
fi
if [ -n "$ONLY" ]; then
	PRESENT=""
	for f in $SCHEMA_FILES; do
		[ -f "$f" ] && PRESENT="$PRESENT $f"
	done
	SCHEMA_FILES="$PRESENT"
fi
for f in $SCHEMA_FILES; do
	[ -f "$f" ] || { echo "BENCH schema: $f missing" >&2; exit 1; }
	grep -q '"schema_version": 1' "$f" || {
		echo "BENCH schema: $f lacks \"schema_version\": 1" >&2; exit 1; }
	grep -q '"bench": "' "$f" || {
		echo "BENCH schema: $f lacks a \"bench\" description" >&2; exit 1; }
	grep -q '"cores": ' "$f" || {
		echo "BENCH schema: $f lacks a \"cores\" stamp" >&2; exit 1; }
done
echo "BENCH schema: records conform ($SCHEMA_FILES)"
fi

step "done"
printf 'gate timing summary:\n'
printf '%s' "$TIMINGS" | awk -F'|' '{
	printf "  %-36s %8d ms\n", $1, $2
	total += $2
}
END { printf "  %-36s %8d ms\n", "total", total }'
printf 'check.sh: all gates passed\n'
