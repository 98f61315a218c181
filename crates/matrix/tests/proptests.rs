//! Property-based tests for the matrix substrate.

use proptest::prelude::*;
use tsv3d_matrix::{Matrix, SignedPerm};

/// Strategy producing a random `n × n` matrix with entries in ±10.
fn matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, n * n).prop_map(move |v| {
        Matrix::from_fn(n, |i, j| v[i * n + j])
    })
}

/// Strategy producing a random signed permutation of size `n`.
fn signed_perm(n: usize) -> impl Strategy<Value = SignedPerm> {
    (
        Just(()),
        prop::collection::vec(any::<u32>(), n),
        prop::collection::vec(any::<bool>(), n),
    )
        .prop_map(move |(_, keys, inv)| {
            // Sort the identity by random keys to get a permutation.
            let mut lines: Vec<usize> = (0..n).collect();
            lines.sort_by_key(|&i| keys[i]);
            SignedPerm::from_parts(lines, inv).expect("constructed permutation is valid")
        })
}

proptest! {
    #[test]
    fn frobenius_commutes(a in matrix(5), b in matrix(5)) {
        prop_assert!((a.frobenius(&b) - b.frobenius(&a)).abs() < 1e-9);
    }

    #[test]
    fn frobenius_linear_in_scale(a in matrix(4), b in matrix(4), s in -5.0f64..5.0) {
        let lhs = a.scale(s).frobenius(&b);
        let rhs = s * a.frobenius(&b);
        prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + rhs.abs()));
    }

    #[test]
    fn row_sums_total_matches_matrix_total(a in matrix(6)) {
        let total: f64 = a.row_sums().iter().sum();
        prop_assert!((total - a.total()).abs() < 1e-9);
    }

    #[test]
    fn conjugation_matches_explicit_matrix_product(m in matrix(5), p in signed_perm(5)) {
        let fast = p.conjugate(&m);
        let a = p.to_matrix();
        let explicit = &(&a * &m) * &a.transpose();
        for i in 0..5 {
            for j in 0..5 {
                prop_assert!((fast[(i, j)] - explicit[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn conjugation_preserves_frobenius_with_conjugated_pair(
        m in matrix(4), c in matrix(4), p in signed_perm(4)
    ) {
        // ⟨P M Pᵀ, P C Pᵀ⟩ = ⟨M, C⟩ because signs square away pairwise.
        let lhs = p.conjugate(&m).frobenius(&p.conjugate(&c));
        let rhs = m.frobenius(&c);
        prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + rhs.abs()));
    }

    #[test]
    fn conjugation_preserves_symmetry(m in matrix(5), p in signed_perm(5)) {
        let sym = Matrix::from_fn(5, |i, j| m[(i, j)] + m[(j, i)]);
        prop_assert!(p.conjugate(&sym).is_symmetric(1e-9));
    }

    #[test]
    fn swap_lines_is_involutive(p in signed_perm(6), a in 0usize..6, b in 0usize..6) {
        let mut q = p.clone();
        q.swap_lines(a, b);
        q.swap_lines(a, b);
        prop_assert_eq!(q, p);
    }

    #[test]
    fn inverse_mapping_consistent(p in signed_perm(7)) {
        for bit in 0..7 {
            prop_assert_eq!(p.bit_of_line(p.line_of_bit(bit)), bit);
        }
    }

    #[test]
    fn signed_vec_double_flip_is_identity(p in signed_perm(5), v in prop::collection::vec(-3.0f64..3.0, 5), i in 0usize..5) {
        let mut q = p.clone();
        let before = q.apply_signed_vec(&v);
        q.flip_bit(i);
        q.flip_bit(i);
        prop_assert_eq!(q.apply_signed_vec(&v), before);
    }
}

proptest! {
    #[test]
    fn display_parse_round_trips(p in signed_perm(8)) {
        let text = p.to_string();
        let back: SignedPerm = text.parse().expect("display form parses");
        prop_assert_eq!(back, p);
    }
}

/// The bytes the compact `SignedPerm` form is made of.
const PERM_ALPHABET: &[u8] = b"0123456789,- ";

/// Parses `bytes`; a permutation that parses has one bit per
/// comma-separated entry and survives a display round trip.
fn parse_perm(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(p) = text.parse::<SignedPerm>() {
        prop_assert_eq!(p.n(), text.split(',').count());
        prop_assert_eq!(p.to_string().parse::<SignedPerm>().ok(), Some(p));
    }
    Ok(())
}

proptest! {
    #[test]
    fn perm_parsing_never_panics_on_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..48),
        text in prop::collection::vec(
            (0..PERM_ALPHABET.len()).prop_map(|i| PERM_ALPHABET[i]),
            0..48,
        ),
    ) {
        parse_perm(&raw)?;
        parse_perm(&text)?;
    }

    #[test]
    fn perm_parsing_never_panics_on_a_changed_byte(
        p in signed_perm(12),
        at in 0usize..1000,
        byte in any::<u8>(),
    ) {
        let mut bytes = p.to_string().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        parse_perm(&bytes)?;
    }

    #[test]
    fn perm_parsing_never_panics_on_a_cut_tail(p in signed_perm(12), cut in 0usize..1000) {
        let bytes = p.to_string().into_bytes();
        parse_perm(&bytes[..cut % (bytes.len() + 1)])?;
    }
}
