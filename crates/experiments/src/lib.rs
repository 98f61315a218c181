//! Experiment harness reproducing every figure and table of the DAC'18
//! paper *"Coding Approach for Low-Power 3D Interconnects"*.
//!
//! Each `fig*`/`tab*` module packages one paper artefact as a pure
//! function from parameters to typed results, shared between the
//! runnable binaries (`cargo run -p tsv3d-experiments --bin fig2_sequential`
//! and friends) and the integration tests:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`fig2`] | Fig. 2 — sequential streams, optimal vs. Spiral |
//! | [`fig3`] | Fig. 3 — Gaussian streams, optimal vs. Sawtooth vs. Spiral |
//! | [`fig4`] | Fig. 4 — image-sensor streams (VSoC) |
//! | [`fig5`] | Fig. 5 — MEMS sensor streams |
//! | [`fig6`] | Fig. 6 — circuit-level power with coding |
//! | [`tables`] | Sec. 3 routing overhead, Sec. 2 capacitance-model checks, bus-invert study |
//! | [`geometry`] | Sec. 7 closing claim — geometry sensitivity of the reduction |
//! | [`crosstalk`] | Sec. 1 context — crosstalk-avoidance codes vs. the assignment |
//! | [`variation`] | robustness of the fixed assignment under process variation |
//! | [`pareto`] | power vs. signal-integrity trade-off of the assignment |
//! | [`phases`] | fixed assignment vs. per-phase reconfiguration on phased workloads |
//! | [`redundancy`] | power cost of redundant-via repair and repair-aware re-optimisation |
//!
//! The [`common`] module holds the shared plumbing (problem assembly,
//! reduction bookkeeping, applying an assignment to a stream),
//! [`flow`] the one-call analysis facade for downstream adopters,
//! [`table`] a small fixed-width table printer for the binaries, and
//! [`obs`] the `TSV3D_TELEMETRY` observability switch shared by every
//! binary (off by default; see the README's *Observability* section).
//! Each binary parses its flags through `tsv3d_bench::cli`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod crosstalk;
pub mod flow;
pub mod fig2;
pub mod geometry;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod obs;
pub mod pareto;
pub mod phases;
pub mod redundancy;
pub mod table;
pub mod tables;
pub mod variation;
