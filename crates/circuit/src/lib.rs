//! Circuit-level validation of TSV low-power coding — the workspace's
//! substitute for the paper's Spectre simulations (Sec. 7).
//!
//! The paper validates the bit-to-TSV assignment with transient
//! simulations of "full 3π-RLC circuits of the TSV arrays", driven by
//! 22 nm predictive-technology drivers of strength six at 3 GHz, and
//! reports the overall power including drivers and leakage. This crate
//! rebuilds that flow:
//!
//! * [`mna`] — a small modified-nodal-analysis transient engine
//!   (resistors, capacitors, series RL branches, backward-Euler
//!   companion models, dense LU, and the per-cycle map with its lag
//!   kernels);
//! * [`DriverModel`] — a CMOS driver macromodel (switched pull-up/-down
//!   resistance, output capacitance, leakage current);
//! * [`TsvLink`] — an `n`-section π ladder built from a
//!   [`TsvRcNetlist`](tsv3d_model::TsvRcNetlist), simulated cycle by
//!   cycle for an arbitrary [`BitStream`](tsv3d_stats::BitStream), with
//!   exact supply-energy bookkeeping.
//!
//! The drivers are modelled with symmetric pull-up/pull-down resistance,
//! which keeps the MNA conductance matrix constant across data states —
//! one LU factorisation serves the whole stream. The network is then
//! linear and time-invariant, and its rails hold for a whole clock
//! cycle, so by superposition one cycle is one fixed affine map of the
//! state (node voltages and RL branch currents) and the rail voltages.
//! [`TsvLink::simulate`] measures one backward-Euler step of that map
//! once per call, `nodes + RL branches + vias` single steps (128 for the
//! 3-section 4×4 link of Fig. 6), and raises it to the cycle's 24 steps
//! in five dense products. A high bit's supply charge in a cycle is
//! linear in the rails of that cycle and of the cycles before it, so a
//! stream's dynamic energy is a sum of Frobenius products of the map's
//! lag kernels with lagged bit co-occurrence counts of the stream: the
//! paper's `⟨T′,C′⟩` form carried over the link's settling tail, 13
//! cycles on that link at 3 GHz. No word is simulated on its own. The
//! result is exact up to rounding: energies agree with step-by-step
//! integration to 1e-13 relative or better on random streams.
//!
//! # Examples
//!
//! ```
//! use tsv3d_circuit::{DriverModel, TsvLink};
//! use tsv3d_model::{Extractor, TsvArray, TsvGeometry, TsvRcNetlist};
//! use tsv3d_stats::BitStream;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let array = TsvArray::new(2, 2, TsvGeometry::itrs_2018_min())?;
//! let cap = Extractor::new(array.clone()).extract(&[0.5; 4])?;
//! let net = TsvRcNetlist::from_extraction(&array, cap);
//! let link = TsvLink::new(net, DriverModel::ptm_22nm_strength6())?;
//! let stream = BitStream::from_words(4, vec![0b0000, 0b1111, 0b0000, 0b1111])?;
//! let report = link.simulate(&stream, 3.0e9)?;
//! assert!(report.total_energy() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod error;
mod link;
pub mod mna;

pub use driver::DriverModel;
pub use error::CircuitError;
pub use link::{EnergyReport, TsvLink};
