//! Property-based tests of the capacitance extraction pipeline.

use proptest::prelude::*;
use tsv3d_matrix::Matrix;
use tsv3d_model::{io, Extractor, LinearCapModel, TsvArray, TsvGeometry};

fn extractor() -> Extractor {
    Extractor::new(TsvArray::new(3, 3, TsvGeometry::itrs_2018_min()).expect("valid array"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extraction_is_symmetric_and_positive(probs in prop::collection::vec(0.0f64..=1.0, 9)) {
        let c = extractor().extract(&probs).expect("valid probabilities");
        prop_assert!(c.is_symmetric(1e-28));
        for (_, _, v) in c.entries() {
            prop_assert!(v > 0.0 && v.is_finite());
        }
    }

    #[test]
    fn raising_one_probability_never_raises_any_capacitance(
        probs in prop::collection::vec(0.05f64..=0.9, 9),
        via in 0usize..9,
        bump in 0.01f64..0.1,
    ) {
        let ex = extractor();
        let base = ex.extract(&probs).expect("valid");
        let mut higher = probs.clone();
        higher[via] = (higher[via] + bump).min(1.0);
        let after = ex.extract(&higher).expect("valid");
        for (i, j, v) in after.entries() {
            prop_assert!(
                v <= base[(i, j)] + 1e-25,
                "C[{i},{j}] grew: {v:.3e} > {:.3e}", base[(i, j)]
            );
        }
    }

    #[test]
    fn linear_model_brackets_the_extraction(
        probs in prop::collection::vec(0.0f64..=1.0, 9),
    ) {
        // The linear model is exact at the endpoints and within a few
        // percent everywhere (the paper's regression claim).
        let ex = extractor();
        let model = LinearCapModel::fit(&ex).expect("fit");
        let exact = ex.extract(&probs).expect("valid");
        let approx = model.capacitance_at_probs(&probs);
        for (i, j, v) in exact.entries() {
            let rel = (approx[(i, j)] - v).abs() / v;
            prop_assert!(rel < 0.10, "C[{i},{j}] relative error {rel:.4}");
        }
    }

    #[test]
    fn probabilities_only_affect_their_via(
        probs in prop::collection::vec(0.1f64..=0.9, 9),
        via in 0usize..9,
    ) {
        let ex = extractor();
        let base = ex.extract(&probs).expect("valid");
        let mut changed = probs.clone();
        changed[via] = 1.0 - changed[via];
        let after = ex.extract(&changed).expect("valid");
        for (i, j, v) in after.entries() {
            if i != via && j != via {
                prop_assert!(
                    (v - base[(i, j)]).abs() < 1e-12 * v.abs().max(1e-30),
                    "unrelated entry ({i},{j}) moved"
                );
            }
        }
    }
}

/// The bytes capacitance CSVs are made of.
const CSV_ALPHABET: &[u8] = b"0123456789.,-+eE \n\tinfa";

/// A valid 3×3 capacitance CSV, as `matrix_to_csv` writes it.
fn valid_csv() -> Vec<u8> {
    io::matrix_to_csv(&Matrix::from_fn(3, |i, j| (i * 3 + j) as f64 * 1.5e-15)).into_bytes()
}

/// Parses `bytes`; a matrix that parses must have one row per
/// non-blank line.
fn parse_csv(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(m) = io::matrix_from_csv(&text) {
        prop_assert_eq!(m.n(), text.lines().filter(|l| !l.trim().is_empty()).count());
    }
    Ok(())
}

proptest! {
    #[test]
    fn csv_import_never_panics_on_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..64),
        csv in prop::collection::vec(
            (0..CSV_ALPHABET.len()).prop_map(|i| CSV_ALPHABET[i]),
            0..64,
        ),
    ) {
        parse_csv(&raw)?;
        parse_csv(&csv)?;
    }

    #[test]
    fn csv_import_never_panics_on_a_changed_byte(at in 0usize..1000, byte in any::<u8>()) {
        let mut bytes = valid_csv();
        prop_assert!(io::matrix_from_csv(&String::from_utf8_lossy(&bytes)).is_ok());
        let at = at % bytes.len();
        bytes[at] = byte;
        parse_csv(&bytes)?;
    }

    #[test]
    fn csv_import_never_panics_on_a_cut_tail(cut in 0usize..1000) {
        let bytes = valid_csv();
        parse_csv(&bytes[..cut % (bytes.len() + 1)])?;
    }
}
