//! Property-based tests for streams, statistics and codem-facing
//! invariants of the stats crate.

use proptest::prelude::*;
use tsv3d_stats::dbt::DualBitTypeModel;
use tsv3d_stats::gen::GrayFrame;
use tsv3d_stats::{BitStream, SwitchingStats};

/// Strategy: a stream of `width` bits with 2..=80 words.
fn stream(width: usize) -> impl Strategy<Value = BitStream> {
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    prop::collection::vec(any::<u64>().prop_map(move |w| w & mask), 2..80)
        .prop_map(move |words| BitStream::from_words(width, words).expect("masked words fit"))
}

proptest! {
    #[test]
    fn probabilities_and_switching_are_within_bounds(s in stream(8)) {
        let st = SwitchingStats::from_stream(&s);
        for i in 0..8 {
            let p = st.bit_probability(i);
            prop_assert!((0.0..=1.0).contains(&p));
            let ts = st.self_switching(i);
            prop_assert!((0.0..=1.0).contains(&ts));
        }
    }

    #[test]
    fn coupling_is_symmetric_and_cauchy_schwarz_bounded(s in stream(6)) {
        let st = SwitchingStats::from_stream(&s);
        for i in 0..6 {
            for j in 0..6 {
                let tc = st.coupling_switching(i, j);
                prop_assert!((tc - st.coupling_switching(j, i)).abs() < 1e-12);
                let bound = (st.self_switching(i) * st.self_switching(j)).sqrt();
                prop_assert!(tc.abs() <= bound + 1e-9, "({i},{j}): {tc} vs {bound}");
            }
        }
    }

    #[test]
    fn global_inversion_preserves_switching_flips_probability(s in stream(8)) {
        // Inverting every word leaves Δb magnitudes identical and maps
        // p → 1 − p.
        let inverted = BitStream::from_words(
            8,
            s.iter().map(|w| !w & 0xFF).collect(),
        ).expect("masked");
        let a = SwitchingStats::from_stream(&s);
        let b = SwitchingStats::from_stream(&inverted);
        for i in 0..8 {
            prop_assert!((a.self_switching(i) - b.self_switching(i)).abs() < 1e-12);
            prop_assert!((a.bit_probability(i) + b.bit_probability(i) - 1.0).abs() < 1e-12);
            for j in 0..8 {
                prop_assert!(
                    (a.coupling_switching(i, j) - b.coupling_switching(i, j)).abs() < 1e-12
                );
            }
        }
    }

    #[test]
    fn multiplex_of_identical_streams_repeats_words(s in stream(5)) {
        let m = BitStream::multiplex(&[&s, &s]).expect("same widths");
        prop_assert_eq!(m.len(), 2 * s.len());
        for t in 0..s.len() {
            prop_assert_eq!(m.word(2 * t), s.word(t));
            prop_assert_eq!(m.word(2 * t + 1), s.word(t));
        }
    }

    #[test]
    fn pack_then_extract_recovers_streams(a in stream(4), b in stream(4)) {
        let packed = BitStream::pack(&[&a, &b]).expect("8 bits fit");
        let len = packed.len();
        prop_assert_eq!(len, a.len().min(b.len()));
        for t in 0..len {
            prop_assert_eq!(packed.word(t) & 0xF, a.word(t));
            prop_assert_eq!(packed.word(t) >> 4, b.word(t));
        }
    }

    #[test]
    fn stable_lines_never_switch(s in stream(4), vals in prop::collection::vec(any::<bool>(), 1..4)) {
        let wide = s.with_stable_lines(&vals).expect("fits in 64 bits");
        let st = SwitchingStats::from_stream(&wide);
        for (k, &v) in vals.iter().enumerate() {
            let bit = 4 + k;
            prop_assert_eq!(st.self_switching(bit), 0.0);
            prop_assert_eq!(st.bit_probability(bit), if v { 1.0 } else { 0.0 });
        }
    }

    #[test]
    fn dbt_statistics_are_always_valid(
        width in 2usize..20,
        sigma in 1.0f64..1e6,
        rho in -1.0f64..1.0,
    ) {
        let stats = DualBitTypeModel::new(width, sigma)
            .expect("valid width")
            .with_correlation(rho)
            .stats();
        for i in 0..width {
            prop_assert!((0.0..=1.0).contains(&stats.self_switching(i)));
            prop_assert_eq!(stats.bit_probability(i), 0.5);
            for j in 0..width {
                let bound = (stats.self_switching(i) * stats.self_switching(j)).sqrt();
                prop_assert!(stats.coupling_switching(i, j).abs() <= bound + 1e-9);
            }
        }
    }
}

/// The bytes PGM headers are made of, so generated input reaches the
/// number and raster parsing instead of failing on the magic.
const PGM_ALPHABET: &[u8] = b"P25 \n#0123456789\xff";

/// A valid PGM: ASCII, 8-bit binary or 16-bit binary.
fn valid_pgm(kind: usize) -> Vec<u8> {
    match kind {
        0 => b"P2\n# comment\n3 2\n255\n0 128 255\n64 32 16\n".to_vec(),
        1 => [&b"P5 3 2 255\n"[..], &[0, 85, 170, 255, 1, 2]].concat(),
        _ => [&b"P5 2 1 65535\n"[..], &[0x80, 0x00, 0xFF, 0xFF]].concat(),
    }
}

/// Decodes `bytes`; a frame that decodes must be consistent.
fn decode_pgm(bytes: &[u8]) -> Result<(), String> {
    if let Ok(frame) = GrayFrame::from_pgm(bytes) {
        prop_assert_eq!(frame.luma().len(), frame.width() * frame.height());
        prop_assert!(frame.luma().iter().all(|v| (0.0..=1.0).contains(v)));
    }
    Ok(())
}

proptest! {
    #[test]
    fn pgm_decoding_never_panics_on_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..64),
        header in prop::collection::vec(
            (0..PGM_ALPHABET.len()).prop_map(|i| PGM_ALPHABET[i]),
            0..48,
        ),
    ) {
        decode_pgm(&raw)?;
        decode_pgm(&header)?;
    }

    #[test]
    fn pgm_decoding_never_panics_on_a_changed_byte(
        kind in 0usize..3,
        at in 0usize..1000,
        byte in any::<u8>(),
    ) {
        let mut bytes = valid_pgm(kind);
        prop_assert!(GrayFrame::from_pgm(&bytes).is_ok());
        let at = at % bytes.len();
        bytes[at] = byte;
        decode_pgm(&bytes)?;
    }

    #[test]
    fn pgm_decoding_never_panics_on_a_cut_tail(kind in 0usize..3, cut in 0usize..1000) {
        let bytes = valid_pgm(kind);
        decode_pgm(&bytes[..cut % (bytes.len() + 1)])?;
    }
}
