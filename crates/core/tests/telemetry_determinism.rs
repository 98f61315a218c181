//! Property test for the telemetry determinism contract: attaching any
//! sink to the optimizers must not change the optimisation result.
//!
//! The instrumented variants only *observe* the search — they never
//! draw from the RNG or alter control flow — so for a fixed seed the
//! returned assignment and power are bit-identical whether telemetry
//! is disabled, discarded by a [`NullSink`], or serialised by a
//! [`JsonLinesSink`].

use proptest::prelude::*;
use tsv3d_core::optimize::{
    anneal, anneal_with_telemetry, branch_and_bound, branch_and_bound_with_telemetry,
    AnnealOptions, BnbOptions,
};
use tsv3d_core::AssignmentProblem;
use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
use tsv3d_stats::gen::GaussianSource;
use tsv3d_stats::SwitchingStats;
use tsv3d_telemetry::{JsonLinesSink, NullSink, TelemetryHandle};

fn problem(rows: usize, cols: usize, stream_seed: u64, correlation: f64) -> AssignmentProblem {
    let n = rows * cols;
    let cap = LinearCapModel::fit(&Extractor::new(
        TsvArray::new(rows, cols, TsvGeometry::wide_2018()).expect("array"),
    ))
    .expect("fit");
    let stream = GaussianSource::new(n, (1u64 << (n - 2)) as f64)
        .with_correlation(correlation)
        .generate(stream_seed, 2_000)
        .expect("stream");
    AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap).expect("problem")
}

/// A JSON-lines sink that serialises every event but writes to the
/// void — full serialisation cost, no filesystem dependency.
fn discard_json_handle() -> TelemetryHandle {
    TelemetryHandle::with_sink(Box::new(JsonLinesSink::with_writer(Box::new(
        std::io::sink(),
    ))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn anneal_result_is_identical_under_any_sink(
        seed in any::<u64>(),
        stream_seed in 1u64..1000,
        correlation in 0.0f64..0.6,
        (rows, cols) in (2usize..=3, 2usize..=3),
    ) {
        let p = problem(rows, cols, stream_seed, correlation);
        let opts = AnnealOptions { iterations: 1_500, restarts: 2, seed, threads: 1 };

        let plain = anneal(&p, &opts).unwrap();
        let null = anneal_with_telemetry(
            &p,
            &opts,
            &TelemetryHandle::with_sink(Box::new(NullSink)),
        )
        .unwrap();
        let json = anneal_with_telemetry(&p, &opts, &discard_json_handle()).unwrap();

        // Bit-identical, not approximately equal: telemetry must not
        // perturb a single RNG draw or accept/reject decision.
        prop_assert_eq!(&plain.assignment, &null.assignment);
        prop_assert_eq!(&plain.assignment, &json.assignment);
        prop_assert!(plain.power.to_bits() == null.power.to_bits());
        prop_assert!(plain.power.to_bits() == json.power.to_bits());
    }

    #[test]
    fn bnb_outcome_is_identical_under_any_sink(
        stream_seed in 1u64..1000,
        correlation in 0.0f64..0.6,
    ) {
        let p = problem(2, 2, stream_seed, correlation);
        let opts = BnbOptions::default();

        let plain = branch_and_bound(&p, &opts).unwrap();
        let json = branch_and_bound_with_telemetry(&p, &opts, &discard_json_handle()).unwrap();

        prop_assert_eq!(&plain.result.assignment, &json.result.assignment);
        prop_assert!(plain.result.power.to_bits() == json.result.power.to_bits());
        prop_assert_eq!(plain.nodes, json.nodes);
        prop_assert_eq!(plain.proven_optimal, json.proven_optimal);
    }
}

#[test]
fn instrumented_anneal_actually_reports() {
    let p = problem(2, 3, 42, 0.4);
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let opts = AnnealOptions {
        iterations: 2_000,
        restarts: 2,
        seed: 7,
        threads: 1,
    };
    anneal_with_telemetry(&p, &opts, &tel).unwrap();
    let proposals = tel.counter_value("anneal.proposals").unwrap_or(0);
    assert_eq!(
        proposals,
        (opts.iterations * opts.restarts) as u64,
        "every proposal is tallied"
    );
    assert_eq!(tel.counter_value("anneal.restarts"), Some(2));
    assert!(tel.counter_value("anneal.accepts").unwrap_or(0) <= proposals);
    assert!(
        tel.histogram("core.anneal").map(|h| h.count()) == Some(1),
        "the whole run is one span"
    );
}

#[test]
fn instrumented_bnb_actually_reports() {
    let p = problem(2, 3, 42, 0.4);
    let tel = TelemetryHandle::with_sink(Box::new(NullSink));
    let outcome = branch_and_bound_with_telemetry(&p, &BnbOptions::default(), &tel).unwrap();
    assert!(outcome.proven_optimal);
    assert_eq!(tel.counter_value("bnb.nodes"), Some(outcome.nodes));
    assert!(tel.counter_value("bnb.leaves").unwrap_or(0) >= 1);
    assert!(tel.counter_value("bnb.incumbents").unwrap_or(0) >= 1);
    let ratios = tel.histogram("bnb.bound_ratio").expect("bound quality recorded");
    assert!(ratios.count() > 0);
}
