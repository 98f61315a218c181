//! Fig. 6 — circuit-level TSV power (drivers and leakage included) for
//! coded data streams, with and without the optimal bit-to-TSV
//! assignment (Sec. 7).
//!
//! All links use the minimum ITRS-2018 geometry (`r = 1 µm, d = 4 µm`),
//! 22 nm strength-six drivers and a 3 GHz clock; the reported power is
//! scaled to an effective transmission of 32 bits per cycle. The six
//! data streams mirror the paper:
//!
//! 1. **Sensor Seq.** — the nine MEMS axis traces transmitted en bloc;
//! 2. **Sensor Mux.** — the axes and sensors multiplexed;
//! 3. **Sensor Mux. + Gray** — Gray coding (in the A/D converter)
//!    restores part of the lost correlation;
//! 4. **RGB Mux. + Red.** — multiplexed Bayer colours plus a redundant
//!    line over a 3×3 array;
//! 5. **RGB Mux. + Corr.** — the correlator (XOR differencer) applied
//!    per colour channel;
//! 6. **CI Random 7 b** — a random 7-bit stream through the
//!    coupling-invert code plus a rarely-set flag line.
//!
//! For each stream the link is simulated twice: with the bits on their
//! natural lines, and with the power-optimal assignment applied
//! (inversions folded into the coder where one exists).

use crate::common;
use tsv3d_circuit::{DriverModel, TsvLink};
use tsv3d_codec::{Correlator, CouplingInvert, GrayCodec};
use tsv3d_core::optimize;
use tsv3d_model::{Extractor, TsvArray, TsvGeometry, TsvRcNetlist};
use tsv3d_stats::gen::{all_sensors_mux, ImageSensor, MemsSensor, SensorKind, UniformSource};
use tsv3d_stats::{BitStream, SwitchingStats};

/// Clock frequency of the experiment, Hz (paper Sec. 7).
pub const CLOCK: f64 = 3.0e9;

/// The six data streams of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6Stream {
    /// MEMS axes transmitted sequentially (16 b, 4×4).
    SensorSeq,
    /// MEMS axes and sensors multiplexed (16 b, 4×4).
    SensorMux,
    /// The multiplexed sensor stream, Gray encoded.
    SensorMuxGray,
    /// Multiplexed Bayer colours + redundant line (9 b, 3×3).
    RgbMuxRedundant,
    /// The same through the per-channel correlator.
    RgbMuxCorrelator,
    /// Random 7 b through coupling-invert + flag line (9 b, 3×3).
    CouplingInvertRandom,
}

impl Fig6Stream {
    /// All streams in paper order.
    pub fn all() -> [Fig6Stream; 6] {
        [
            Fig6Stream::SensorSeq,
            Fig6Stream::SensorMux,
            Fig6Stream::SensorMuxGray,
            Fig6Stream::RgbMuxRedundant,
            Fig6Stream::RgbMuxCorrelator,
            Fig6Stream::CouplingInvertRandom,
        ]
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Fig6Stream::SensorSeq => "Sensor Seq.",
            Fig6Stream::SensorMux => "Sensor Mux.",
            Fig6Stream::SensorMuxGray => "Sensor Mux. Gray",
            Fig6Stream::RgbMuxRedundant => "RGB Mux. + Red.",
            Fig6Stream::RgbMuxCorrelator => "RGB Mux. + Corr.",
            Fig6Stream::CouplingInvertRandom => "CI Random 7b",
        }
    }

    /// Array rows/cols.
    pub fn dims(self) -> (usize, usize) {
        match self {
            Fig6Stream::SensorSeq | Fig6Stream::SensorMux | Fig6Stream::SensorMuxGray => (4, 4),
            _ => (3, 3),
        }
    }

    /// Effective payload bits per cycle (redundant lines excluded), for
    /// the paper's scaling to 32 b per cycle.
    pub fn effective_bits(self) -> f64 {
        match self {
            Fig6Stream::SensorSeq | Fig6Stream::SensorMux | Fig6Stream::SensorMuxGray => 16.0,
            Fig6Stream::RgbMuxRedundant | Fig6Stream::RgbMuxCorrelator => 8.0,
            Fig6Stream::CouplingInvertRandom => 7.0,
        }
    }

    /// Generates the (coded) line stream.
    pub fn stream(self, samples: usize, seed: u64) -> BitStream {
        let sensors = || {
            [
                MemsSensor::new(SensorKind::Magnetometer).with_samples(samples),
                MemsSensor::new(SensorKind::Accelerometer).with_samples(samples),
                MemsSensor::new(SensorKind::Gyroscope).with_samples(samples),
            ]
        };
        match self {
            Fig6Stream::SensorSeq => {
                // One axis after another, 3 900 (or `samples`) cycles
                // each, sensor by sensor (paper Sec. 7).
                let streams: Vec<BitStream> = sensors()
                    .iter()
                    .flat_map(|s| (0..3).map(|axis| s.axis_stream(axis, seed).expect("axis stream")))
                    .collect();
                let refs: Vec<&BitStream> = streams.iter().collect();
                BitStream::concat(&refs).expect("concat succeeds")
            }
            Fig6Stream::SensorMux => all_sensors_mux(&sensors(), seed).expect("mux succeeds"),
            Fig6Stream::SensorMuxGray => {
                let mux = all_sensors_mux(&sensors(), seed).expect("mux succeeds");
                GrayCodec::new(16).expect("width ok").encode(&mux).expect("encode succeeds")
            }
            Fig6Stream::RgbMuxRedundant => ImageSensor::new(64, 48)
                .rgb_mux_stream(seed)
                .expect("sensor stream")
                .with_stable_lines(&[false])
                .expect("9 lines fit"),
            Fig6Stream::RgbMuxCorrelator => {
                let mux = ImageSensor::new(64, 48).rgb_mux_stream(seed).expect("sensor stream");
                Correlator::new(8, 4)
                    .expect("width ok")
                    .encode(&mux)
                    .expect("encode succeeds")
                    .with_stable_lines(&[false])
                    .expect("9 lines fit")
            }
            Fig6Stream::CouplingInvertRandom => {
                let data = UniformSource::new(7)
                    .expect("width ok")
                    .generate(seed, samples * 4)
                    .expect("generation succeeds");
                let coded = CouplingInvert::new(7).expect("width ok").encode(&data).expect("encode");
                // Rarely-set control flag (set probability 0.01 %,
                // Sec. 7): asserted once every 10 000 cycles.
                let flag: Vec<bool> = (0..coded.len()).map(|t| t % 10_000 == 9_999).collect();
                let mut words = Vec::with_capacity(coded.len());
                for (t, w) in coded.iter().enumerate() {
                    words.push(w | (flag[t] as u64) << 8);
                }
                BitStream::from_words(9, words).expect("9 lines fit")
            }
        }
    }
}

/// One bar pair of Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Point {
    /// The data stream.
    pub stream: Fig6Stream,
    /// Power with the natural (identity) line assignment, scaled to
    /// 32 b/cycle, mW.
    pub power_plain_mw: f64,
    /// Power with the optimal assignment applied, mW.
    pub power_assigned_mw: f64,
}

impl Fig6Point {
    /// Reduction of the assigned over the plain variant, percent.
    pub fn reduction(&self) -> f64 {
        common::reduction_pct(self.power_assigned_mw, self.power_plain_mw)
    }
}

/// Simulates one line stream on its array and returns the scaled power
/// in milliwatts.
pub fn simulate_power_mw(stream: &BitStream, rows: usize, cols: usize, effective_bits: f64) -> f64 {
    let array =
        TsvArray::new(rows, cols, TsvGeometry::itrs_2018_min()).expect("experiment geometry");
    // MOS effect: extract the capacitances at the line probabilities.
    let stats = SwitchingStats::from_stream(stream);
    let cap = Extractor::new(array.clone())
        .extract(stats.bit_probabilities())
        .expect("line probabilities are valid");
    let link = TsvLink::new(
        TsvRcNetlist::from_extraction(&array, cap),
        DriverModel::ptm_22nm_strength6(),
    )
    .expect("valid driver");
    let report = link.simulate(stream, CLOCK).expect("stream matches link");
    report.power_scaled_to(effective_bits, 32.0) * 1e3
}

/// Computes one Fig. 6 bar pair: the stream simulated plain and with
/// the optimal assignment applied.
pub fn point(stream_kind: Fig6Stream, samples: usize, quick: bool) -> Fig6Point {
    let (rows, cols) = stream_kind.dims();
    let stream = stream_kind.stream(samples, 0xF1_66);

    let plain = simulate_power_mw(&stream, rows, cols, stream_kind.effective_bits());

    // Optimal assignment from the stream statistics and the linear model.
    let problem = common::problem(
        &stream,
        common::cap_model(rows, cols, TsvGeometry::itrs_2018_min()),
    );
    let opts = if quick {
        common::anneal_options_quick()
    } else {
        common::anneal_options()
    };
    let best = optimize::anneal(&problem, &opts).expect("non-empty budget");
    let assigned_stream = common::assign_stream(&stream, &best.assignment);
    let assigned = simulate_power_mw(&assigned_stream, rows, cols, stream_kind.effective_bits());

    Fig6Point {
        stream: stream_kind,
        power_plain_mw: plain,
        power_assigned_mw: assigned,
    }
}

/// The full figure.
pub fn sweep(samples: usize, quick: bool) -> Vec<Fig6Point> {
    Fig6Stream::all().into_iter().map(|s| point(s, samples, quick)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_reduces_circuit_level_power() {
        let p = point(Fig6Stream::SensorMux, 250, true);
        assert!(p.power_plain_mw > 0.0);
        assert!(
            p.reduction() > 0.0,
            "assigned must beat plain: {p:?}"
        );
    }

    #[test]
    fn sequential_sensor_data_is_cheaper_than_multiplexed() {
        // Sec. 7: "multiplexed sensor data leads to a significantly
        // higher power consumption, since the pattern correlation is
        // lost".
        let seq = point(Fig6Stream::SensorSeq, 250, true);
        let mux = point(Fig6Stream::SensorMux, 250, true);
        assert!(
            mux.power_plain_mw > seq.power_plain_mw,
            "mux {mux:?} vs seq {seq:?}"
        );
    }

    #[test]
    fn correlator_plus_assignment_beats_plain_mux() {
        let raw = point(Fig6Stream::RgbMuxRedundant, 250, true);
        let corr = point(Fig6Stream::RgbMuxCorrelator, 250, true);
        assert!(
            corr.power_assigned_mw < raw.power_plain_mw,
            "corr+opt {corr:?} vs raw {raw:?}"
        );
    }

    #[test]
    fn coupling_invert_stream_benefits_from_assignment() {
        let p = point(Fig6Stream::CouplingInvertRandom, 400, true);
        assert!(p.reduction() > 0.0, "{p:?}");
    }
}
