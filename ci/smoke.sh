#!/usr/bin/env bash
# End-to-end smoke run of the paper's 14 result tables (each of whose
# binaries must also reject an unknown flag with exit 2), every `tsv3d`
# observability subcommand, the telemetry pipeline and the benchmark
# package, as CI's smoke job runs it. Every check blocks unless it is
# marked warn-only; a warn-only check prints a warning and the run goes
# on.
#
#   ci/smoke.sh [OUT_DIR]
#
# Everything the run writes (regenerated tables, BENCH files, ledger
# copies, traces, SVGs, dashboards) lands under OUT_DIR, default a
# fresh temporary directory, so the checkout stays clean. Run from
# anywhere; it builds the release binaries first. Checks read
# output from files, never through `| grep -q`: grep quitting early
# would break the producer's pipe and, under pipefail, fail the check.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"
OUT=${1:-$(mktemp -d)}
mkdir -p "$OUT/dash"
OUT=$(cd "$OUT" && pwd)
BIN="$ROOT/target/release/tsv3d"

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

step "Build (release)"
cargo build --release -p tsv3d-experiments
echo "writing to $OUT"

# The tables EXPERIMENTS.md's regenerate loop writes. Their committed
# copies under results/ must regenerate byte for byte up to a telemetry
# footer; `(N rows; +X s wall)` lines appear only in traced runs. Each
# binary must also reject an unknown flag with exit 2.
ARTIFACTS=(tab_capmodel tab_overhead fig2_sequential fig3_gaussian fig4_image_sensor
  fig5_mems fig6_circuit tab_businvert tab_crosstalk tab_geometry tab_variation
  tab_pareto tab_phases tab_redundancy)
# body FILE: FILE without its telemetry footer and progress lines.
body() { sed -e '/^telemetry summary/,$d' -e '/^([0-9]* rows; +[0-9.]* s wall)$/d' "$1"; }

step "Paper artifacts regenerate (results/*.txt)"
mkdir -p "$OUT/artifacts"
for b in "${ARTIFACTS[@]}"; do
  (cd "$OUT/artifacts" && env -u TSV3D_TELEMETRY \
    "$ROOT/target/release/$b" > "$b.txt")
  body "$OUT/artifacts/$b.txt" > "$OUT/artifacts/$b.got"
  body "results/$b.txt" > "$OUT/artifacts/$b.want"
  cmp "$OUT/artifacts/$b.want" "$OUT/artifacts/$b.got" ||
    fail "$b no longer regenerates results/$b.txt"
  expect 2 "$ROOT/target/release/$b" --frobnicate
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

step "History gate fixtures hold their exit codes"
expect 0 "$BIN" history tests/data/history_steady.jsonl --gate-detect
expect 1 "$BIN" history tests/data/history_regressed.jsonl --gate-detect
# Without a flag, history prints the gate's table and exits 0.
expect 0 "$BIN" history tests/data/history_regressed.jsonl > "$OUT/history-regressed.txt"
grep -q 'REGRESSED@eeee555' "$OUT/history-regressed.txt"
# The trailing-window trend is gone, and with it both --window flags.
expect 2 "$BIN" history --window 5
expect 2 "$BIN" dash --window 5

# converged X.jsonl N: its trace report (X.txt) shows N restart series
# and its JSON (X.json) carries the trace schema.
converged() {
  "$BIN" trace "$1" > "${1%.jsonl}.txt"
  grep -q "convergence: $2 restart series" "${1%.jsonl}.txt"
  "$BIN" trace "$1" --format json > "${1%.jsonl}.json"
  grep -q '"schema":"tsv3d-trace/v2"' "${1%.jsonl}.json"
}

step "Instrumented assign run; trace replays its convergence"
(cd "$OUT" && TSV3D_TELEMETRY=json "$BIN" assign --rows 4 --cols 4 --method anneal > /dev/null)
converged "$OUT/results/tsv3d_telemetry.jsonl" 3

step "Trace: record anneal.epoch traces, analyze, compare and plot them"
for run in serial:1 threads:2; do
  "$BIN" bench --case anneal_quick_3x3 --iters 1 --warmup 0 --no-history \
    --threads "${run#*:}" --out-dir "$OUT/trace" --trace "$OUT/trace/${run%:*}.jsonl"
done
grep -q '"event":"anneal.epoch"' "$OUT/trace/serial.jsonl"
converged "$OUT/trace/serial.jsonl" 2
cat "$OUT/trace/serial.txt"
"$BIN" trace "$OUT/trace/threads.jsonl" --compare "$OUT/trace/serial.jsonl" \
  --format json > "$OUT/trace/compare.json"
grep -q '"diverged":0' "$OUT/trace/compare.json"
"$BIN" trace tests/data/converge_small_b.jsonl --compare tests/data/converge_small_a.jsonl
trace_dash=("$BIN" dash --trace "$OUT/trace/serial.jsonl" --bench-dir "$OUT/trace"
  --history tests/data/history_steady.jsonl --artifacts results)
"${trace_dash[@]}" --out "$OUT/trace/dash.html"
"${trace_dash[@]}" --out "$OUT/trace/dash-b.html"
cmp "$OUT/trace/dash.html" "$OUT/trace/dash-b.html"
grep -q '<h2>Convergence</h2>' "$OUT/trace/dash.html"
expect 2 "$BIN" converge "$OUT/trace/serial.jsonl"
expect 2 "$BIN" dash --converge "$OUT/trace/serial.jsonl" --out "$OUT/trace/x.html"

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
