#!/usr/bin/env bash
# End-to-end smoke run of the paper's 14 result tables, every `tsv3d`
# observability subcommand, the telemetry pipeline and the benchmark
# package, as CI's smoke job runs it. Every check blocks unless it is
# marked warn-only; a warn-only check prints a warning and the run goes
# on.
#
#   ci/smoke.sh [OUT_DIR]
#
# Everything the run writes (regenerated tables, BENCH files, ledger
# copies, traces, pulse profiles, SVGs, dashboards) lands under OUT_DIR,
# default a fresh temporary directory, so the checkout stays clean. Run
# from anywhere; it builds the release binaries first. Checks read
# output from files, never through `| grep -q`: grep quitting early
# would break the producer's pipe and, under pipefail, fail the check.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"
OUT=${1:-$(mktemp -d)}
mkdir -p "$OUT/dash"
OUT=$(cd "$OUT" && pwd)
BIN="$ROOT/target/release/tsv3d"
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

step() { printf '\n== %s\n' "$*"; }
fail() { echo "smoke: $*" >&2; exit 1; }
# warn CMD...: runs CMD and only warns when it fails.
warn() { "$@" || echo "::warning::warn-only check failed: $*"; }
# expect CODE CMD...: CMD must exit with CODE.
expect() {
  local want=$1 code=0
  shift
  "$@" || code=$?
  [ "$code" -eq "$want" ] || fail "expected exit $want, got $code: $*"
}
# median FILE: the median wall time of a BENCH artifact, in ns.
median() { grep -o '"wall_ns":{"median":[0-9]*' "$1" | grep -o '[0-9]*$'; }
# serve LOG ARGS...: starts `tsv3d serve` on a free port in the
# background; sets SERVE_PID and ADDR once it has announced itself.
serve() {
  local log=$1
  shift
  "$BIN" serve --addr 127.0.0.1:0 "$@" > "$log" &
  SERVE_PID=$!
  for _ in $(seq 100); do
    ADDR=$(sed -n 's|^serving metrics on http://\(.*\)/$|\1|p' "$log")
    [ -n "$ADDR" ] && return 0
    sleep 0.1
  done
  return 1
}

step "Build (release)"
cargo build --release -p tsv3d-experiments
echo "writing to $OUT"

# The tables EXPERIMENTS.md's regenerate loop writes. Their committed
# copies under results/ must regenerate byte for byte up to a telemetry
# footer; `(N rows; +X s wall)` lines appear only in traced runs.
ARTIFACTS=(tab_capmodel tab_overhead fig2_sequential fig3_gaussian fig4_image_sensor
  fig5_mems fig6_circuit tab_businvert tab_crosstalk tab_geometry tab_variation
  tab_pareto tab_phases tab_redundancy)
# body FILE: FILE without its telemetry footer and progress lines.
body() { sed -e '/^telemetry summary/,$d' -e '/^([0-9]* rows; +[0-9.]* s wall)$/d' "$1"; }

step "Paper artifacts regenerate (results/*.txt)"
mkdir -p "$OUT/artifacts"
for b in "${ARTIFACTS[@]}"; do
  (cd "$OUT/artifacts" && env -u TSV3D_TELEMETRY -u TSV3D_METRICS_ADDR \
    "$ROOT/target/release/$b" > "$b.txt")
  body "$OUT/artifacts/$b.txt" > "$OUT/artifacts/$b.got"
  body "results/$b.txt" > "$OUT/artifacts/$b.want"
  cmp "$OUT/artifacts/$b.want" "$OUT/artifacts/$b.got" ||
    fail "$b no longer regenerates results/$b.txt"
done
echo "all ${#ARTIFACTS[@]} tables match their committed copies"

step "Telemetry run, trace rollup and flamegraph"
(cd "$OUT" && TSV3D_TELEMETRY=json "$ROOT/target/release/fig3_gaussian" --quick > /dev/null)
test -s "$OUT/results/fig3_gaussian_telemetry.jsonl"
"$BIN" trace "$OUT/results/fig3_gaussian_telemetry.jsonl" --svg "$OUT/fig3_flame.svg"
test -s "$OUT/fig3_flame.svg"

# Perf first: the gate judges the committed threads-2 rows plus this
# run's, before any --quick row exists. The ledgers are copies, one per
# gate, so each gate judges exactly its own rows.
step "Large-anneal ledger gate (75 %)"
cp results/history.jsonl "$OUT/perf-ledger.jsonl"
"$BIN" bench --case anneal_large_6x6 --iters 7 --warmup 2 --threads 2 \
  --out-dir "$OUT/perf-bench" --history "$OUT/perf-ledger.jsonl"
"$BIN" history "$OUT/perf-ledger.jsonl" --case anneal_large_6x6 --gate-detect --detect-pct 75

step "Threaded anneal beats serial"
serial=$(median "$OUT/perf-bench/BENCH_anneal_large_6x6_serial.json")
threads=$(median "$OUT/perf-bench/BENCH_anneal_large_6x6_threads.json")
echo "serial=${serial}ns threads=${threads}ns"
[ "$threads" -le "$serial" ] || fail "threaded anneal ($threads ns) is slower than serial ($serial ns)"

step "Bench (quick) and its ledger gates (warn-only)"
cp results/history.jsonl "$OUT/ledger.jsonl"
"$BIN" bench --quick --out-dir "$OUT/bench" --history "$OUT/ledger.jsonl"
warn "$BIN" history "$OUT/ledger.jsonl" --gate-detect --detect-pct 25
warn "$BIN" history "$OUT/ledger.jsonl" --case gray_encode --gate-detect --detect-pct 20

step "Alloc stats were recorded"
test -s "$OUT/bench/BENCH_gray_encode_w16_4k.json"
grep -q '"mem":' "$OUT/bench/BENCH_gray_encode_w16_4k.json"

step "Parallel/serial anneal equivalence"
"$BIN" bench --quick --threads 2 --case par_equiv --out-dir "$OUT/bench" --history "$OUT/ledger.jsonl"

step "Benchmark package smoke"
cargo run --release --quiet --offline \
  --manifest-path crates/bench/examples/benchmark/Cargo.toml -- --smoke

step "Serve + scrape /healthz /metrics /runs (warn-only)"
scrape() {
  curl -fsS "http://$ADDR/healthz" &&
    curl -fsS "http://$ADDR/metrics" > "$OUT/scrape.prom" &&
    grep -m5 '^tsv3d_' "$OUT/scrape.prom" &&
    curl -fsS "http://$ADDR/runs" &&
    wait "$SERVE_PID"
}
if ! { serve "$OUT/serve.log" --demo --history tests/data/history_steady.jsonl \
  --max-requests 3 && scrape; }; then
  echo "::warning::warn-only check failed: serve scrape"
  kill "$SERVE_PID" 2>/dev/null || true
fi

step "History gate fixtures hold their exit codes"
expect 0 "$BIN" history tests/data/history_steady.jsonl --gate-detect
expect 1 "$BIN" history tests/data/history_regressed.jsonl --gate-detect

step "Live /progress answers and dash --live renders it"
serve "$OUT/serve-demo.log" --demo || fail "serve did not announce its address"
for _ in $(seq 100); do
  curl -fsS "http://$ADDR/progress" > "$OUT/progress.json" &&
    grep -q '"restart":0' "$OUT/progress.json" && break
  sleep 0.2
done
grep -q '"schema":"tsv3d-pulse/v1"' "$OUT/progress.json"
grep -q '"restart":0' "$OUT/progress.json"
curl -fsS "http://$ADDR/metrics" > "$OUT/live.prom"
grep -q '^tsv3d_run_progress_iterations{restart="0"}' "$OUT/live.prom"
grep -q '^tsv3d_run_stalled{restart="0"} 0' "$OUT/live.prom"
"$BIN" dash --live "$ADDR" --bench-dir "$OUT/bench" --out "$OUT/dash/live.html" \
  --format json > "$OUT/dash/live.json"
grep -q '"stalled":0' "$OUT/dash/live.json"
grep -q '<td>r0</td>' "$OUT/dash/live.html"
kill "$SERVE_PID"

step "Instrumented run writes a sampled profile; converge replays its trace"
(cd "$OUT" && TSV3D_TELEMETRY=json TSV3D_METRICS_ADDR=127.0.0.1:0 TSV3D_PULSE_SAMPLE_MS=2 \
  "$BIN" assign --rows 4 --cols 4 --method anneal > /dev/null)
test -s "$OUT/results/tsv3d_pulse.folded"
grep -q 'sampled span stacks' "$OUT/results/tsv3d_pulse.svg"
"$BIN" converge "$OUT/results/tsv3d_telemetry.jsonl" > "$OUT/replay.txt"
grep -q 'restart series' "$OUT/replay.txt"

step "Converge: record an anneal.epoch trace and analyze it"
"$BIN" bench --case anneal_quick_3x3 --iters 1 --warmup 0 --no-history \
  --out-dir "$OUT/converge" --trace "$OUT/converge/quick.jsonl"
grep -q '"event":"anneal.epoch"' "$OUT/converge/quick.jsonl"
"$BIN" converge "$OUT/converge/quick.jsonl" | tee "$OUT/converge/report.txt"
grep -q 'restart series' "$OUT/converge/report.txt"
"$BIN" converge "$OUT/converge/quick.jsonl" --format json > "$OUT/converge/report.json"
grep -q '"schema":"tsv3d-converge/v1"' "$OUT/converge/report.json"
"$BIN" converge "$OUT/converge/quick.jsonl" --svg "$OUT/converge/a.svg"
"$BIN" converge "$OUT/converge/quick.jsonl" --svg "$OUT/converge/b.svg"
cmp "$OUT/converge/a.svg" "$OUT/converge/b.svg"
"$BIN" converge --compare tests/data/converge_small_a.jsonl tests/data/converge_small_b.jsonl

step "Explain: report, JSON fields, fixture baseline, malformed input, SVG"
explain=("$BIN" explain --rows 4 --cols 4 --cycles 4000 --method greedy --compare identity)
"${explain[@]}" | tee "$OUT/explain.txt"
grep -q 'per-TSV power attribution' "$OUT/explain.txt"
grep -q 'savings' "$OUT/explain.txt"
"${explain[@]}" --format json > "$OUT/explain.json"
for field in '"schema":"tsv3d-explain/v1"' '"self_charge":' '"coupling_charge":' \
  '"per_tsv":' '"classes":' '"compare":' '"savings":'; do
  grep -q "$field" "$OUT/explain.json" || fail "explain JSON lacks $field"
done
"$BIN" explain --rows 4 --cols 4 --cycles 4000 --method identity \
  --compare tests/data/explain_assignment.json
expect 2 "$BIN" explain --assignment not,a,perm
heatmap=("$BIN" explain --rows 3 --cols 3 --geometry min --cycles 2000 --method spiral)
"${heatmap[@]}" --svg "$OUT/explain-a.svg"
"${heatmap[@]}" --svg "$OUT/explain-b.svg"
cmp "$OUT/explain-a.svg" "$OUT/explain-b.svg"

step "Dash: byte-deterministic page from the fresh bench output"
dash=("$BIN" dash --bench-dir "$OUT/bench" --history tests/data/history_regressed.jsonl
  --artifacts results)
"${dash[@]}" --out "$OUT/dash/a.html"
"${dash[@]}" --out "$OUT/dash/b.html"
cmp "$OUT/dash/a.html" "$OUT/dash/b.html"
grep -q 'regressed@eeee555' "$OUT/dash/a.html"
"${dash[@]}" --out "$OUT/dash/c.html" --format json > "$OUT/dash/index.json"
grep -q '"schema":"tsv3d-dash/v1"' "$OUT/dash/index.json"
grep -q '"regressed":1' "$OUT/dash/index.json"
expect 2 "$BIN" dash --frobnicate
expect 1 "$BIN" dash --history /nonexistent/ledger.jsonl --out "$OUT/dash/x.html"

step "Changepoint detect over the committed ledger (warn-only)"
warn "$BIN" history --detect --gate-detect

printf '\nsmoke: all checks passed (artifacts in %s)\n' "$OUT"
