//! `tsv3d-bench` — benchmark harness, telemetry trace analysis and
//! perf-regression gating for the tsv3d workspace.
//!
//! Three pillars, built on the PR-1 instrumentation layer:
//!
//! * [`harness`] + [`registry`] — warmup + N individually-timed
//!   iterations (monotonic clock only) over a registry of cases
//!   covering the workspace's hot paths: the `arg min ⟨T', C'⟩`
//!   optimisers (anneal epochs, branch-and-bound, incremental Δpower),
//!   the MNA transient engine (LU factor, backward-Euler stepping,
//!   full link simulation) and the reference codec encode loops. Each
//!   case produces a machine-readable `BENCH_<case>.json` ([`report`],
//!   schema `tsv3d-bench/v2`) with median/p95/stddev wall times, the
//!   telemetry counters the workload accumulated, allocation stats,
//!   the git revision, a timestamp, `--threads` and the core count.
//! * [`trace`] — a robust reader/aggregator for the `*_telemetry.jsonl`
//!   streams the [`tsv3d_telemetry`] `JsonLinesSink` writes: per-span
//!   rollups (count, total/self time, log2-histogram percentiles), a
//!   flamegraph-style collapsed-stack export reconstructing span
//!   nesting from interval containment, and `tsv3d trace --compare`,
//!   the one run-to-run diff of span self time per call.
//! * [`history`] — the cross-run ledger (`results/history.jsonl`,
//!   schema `tsv3d-history/v1`): every bench invocation appends a
//!   compact summary row per case.
//! * [`flamegraph`] — deterministic, self-contained flamegraph SVGs
//!   from the collapsed-stack output (`tsv3d trace --svg`), time- or
//!   bytes-weighted.
//! * [`converge`] — convergence analysis of the annealer's
//!   `anneal.epoch` stream, the convergence sections of `tsv3d trace`:
//!   per-restart descent tables, cross-restart dispersion diagnostics,
//!   a deterministic convergence SVG and a restart-by-restart diff.
//! * [`explain`] — per-TSV power attribution (`tsv3d explain`): ranked
//!   contribution tables from [`tsv3d_core::attribution`], array
//!   heatmap SVGs, and assignment `--compare` diff reports showing
//!   where an optimised assignment's savings come from; also the one
//!   problem grammar (`ExplainSpec`) of every problem-building command.
//! * [`analytics`] — changepoint detection over the ledger and the
//!   one regression gate: a two-window median split with a rank-based
//!   significance guard. `tsv3d history --detect` shows each series'
//!   history as steady / improved@rev / regressed@rev; plain
//!   `tsv3d history` judges each series' newest record against the
//!   records before it, and `--gate-detect` gates CI on that verdict.
//! * [`dash`] — the unified observability dashboard (`tsv3d dash`):
//!   one self-contained, byte-deterministic HTML page (and a
//!   `tsv3d-dash/v1` JSON index) fusing bench artifacts, ledger
//!   deltas + changepoint verdicts, the flamegraph, the convergence
//!   plot, the attribution heatmap and the committed experiment
//!   artifacts.
//! * [`svg`] — the shared deterministic-SVG primitives (document
//!   skeleton, escaping, FNV-1a color keying) behind all three
//!   renderers.
//!
//! Everything is std-only: [`json`] is a small hand-rolled JSON
//! writer/parser, so the subsystem adds no dependencies. The
//! user-facing entry points are the `tsv3d` observability subcommands
//! (`bench` through `dash`); [`cli::dispatch`], hosted by the
//! multiplexer binary in `tsv3d-experiments`, runs them and the
//! binary's assignment-flow commands through one table-driven parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod cli;
pub mod converge;
pub mod dash;
pub mod explain;
pub mod flamegraph;
pub mod harness;
pub mod history;
pub mod json;
pub mod registry;
pub mod report;
pub mod svg;
pub mod trace;
