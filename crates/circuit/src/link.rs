//! A driven TSV link: n-section π ladder + CMOS drivers, simulated
//! cycle-by-cycle for a bit stream.

use crate::mna::{LagKernels, Netlist};
use crate::{CircuitError, DriverModel};
use tsv3d_model::TsvRcNetlist;
use tsv3d_stats::BitStream;
use tsv3d_telemetry::{TelemetryHandle, Value};

/// A complete TSV link ready for transient simulation: every via is
/// expanded into an `sections`-section RLC π ladder (matching the
/// paper's "full 3π-RLC circuits"), the extracted coupling/ground
/// capacitances are distributed along the ladder levels, and each via is
/// fed by a [`DriverModel`].
///
/// # Examples
///
/// Opposite switching on a coupled pair costs more energy than aligned
/// switching — the physical effect the whole paper rests on:
///
/// ```
/// use tsv3d_circuit::{DriverModel, TsvLink};
/// use tsv3d_model::{Extractor, TsvArray, TsvGeometry, TsvRcNetlist};
/// use tsv3d_stats::BitStream;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let array = TsvArray::new(1, 2, TsvGeometry::wide_2018())?;
/// let cap = Extractor::new(array.clone()).extract(&[0.5; 2])?;
/// let link = TsvLink::new(
///     TsvRcNetlist::from_extraction(&array, cap),
///     DriverModel::ptm_22nm_strength6(),
/// )?;
/// let aligned = BitStream::from_words(2, vec![0b00, 0b11, 0b00, 0b11, 0b00])?;
/// let opposed = BitStream::from_words(2, vec![0b01, 0b10, 0b01, 0b10, 0b01])?;
/// let e_aligned = link.simulate(&aligned, 3.0e9)?.dynamic_energy();
/// let e_opposed = link.simulate(&opposed, 3.0e9)?.dynamic_energy();
/// assert!(e_opposed > e_aligned);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TsvLink {
    netlist: TsvRcNetlist,
    driver: DriverModel,
    sections: usize,
    steps_per_cycle: usize,
}

impl TsvLink {
    /// Creates a link with 3 π sections (like the paper's Spectre decks)
    /// and 24 integration steps per clock cycle.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NonPositiveParameter`] for degenerate driver
    /// parameters.
    pub fn new(netlist: TsvRcNetlist, driver: DriverModel) -> Result<Self, CircuitError> {
        if driver.resistance <= 0.0 {
            return Err(CircuitError::NonPositiveParameter { name: "resistance" });
        }
        if driver.vdd <= 0.0 {
            return Err(CircuitError::NonPositiveParameter { name: "vdd" });
        }
        Ok(Self {
            netlist,
            driver,
            sections: 3,
            steps_per_cycle: 24,
        })
    }

    /// Overrides the number of π sections per via.
    ///
    /// # Panics
    ///
    /// Panics if `sections` is zero.
    pub fn with_sections(mut self, sections: usize) -> Self {
        assert!(sections > 0, "at least one π section is required");
        self.sections = sections;
        self
    }

    /// Overrides the integration steps per clock cycle.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn with_steps_per_cycle(mut self, steps: usize) -> Self {
        assert!(steps > 0, "at least one step per cycle is required");
        self.steps_per_cycle = steps;
        self
    }

    /// Number of vias in the link.
    pub fn len(&self) -> usize {
        self.netlist.len()
    }

    /// `true` if the link has no vias.
    pub fn is_empty(&self) -> bool {
        self.netlist.is_empty()
    }

    /// The driver model.
    pub fn driver(&self) -> &DriverModel {
        &self.driver
    }

    /// Node id of ladder level `level` (0 = driver end) of via `i`.
    fn node(&self, i: usize, level: usize) -> usize {
        i * (self.sections + 1) + level + 1
    }

    /// Builds the MNA network of the link: the RLC ladders, distributed
    /// coupling/ground capacitances, driver parasitics and one
    /// switchable drive per via. Returns the netlist and the drive
    /// indices (one per via, in via order).
    fn build_network(&self) -> (Netlist, Vec<usize>) {
        let n = self.netlist.len();
        let levels = self.sections + 1;
        let mut net = Netlist::new(n * levels);

        // Via ladders: series resistance and inductance split across
        // sections (the full RLC ladder of the paper's Spectre decks).
        let cap = self.netlist.capacitance();
        for i in 0..n {
            let r_sec = self.netlist.series_resistance(i) / self.sections as f64;
            let l_sec = self.netlist.series_inductance(i) / self.sections as f64;
            for s in 0..self.sections {
                net.rl_branch(self.node(i, s), self.node(i, s + 1), r_sec, l_sec);
            }
            // Ground capacitance spread along the ladder.
            for level in 0..levels {
                net.capacitor(self.node(i, level), 0, cap[(i, i)] / levels as f64);
            }
            // Driver output and receiver load caps.
            net.capacitor(self.node(i, 0), 0, self.driver.output_cap);
            net.capacitor(self.node(i, self.sections), 0, self.driver.load_cap);
        }
        // Coupling capacitances, level by level.
        for i in 0..n {
            for j in (i + 1)..n {
                for level in 0..levels {
                    net.capacitor(
                        self.node(i, level),
                        self.node(j, level),
                        cap[(i, j)] / levels as f64,
                    );
                }
            }
        }
        // Drivers (rail voltage switched per cycle).
        let mut drives = Vec::with_capacity(n);
        for i in 0..n {
            drives.push(net.drive(self.node(i, 0), 1.0 / self.driver.resistance, 0.0));
        }
        (net, drives)
    }

    /// Measures the 50 %-crossing propagation delay of a rising
    /// transition on `victim` while the given `aggressors` fall
    /// simultaneously (the worst-case Miller scenario when they hold the
    /// victim's neighbours; pass an empty slice for the intrinsic
    /// delay).
    ///
    /// The network first settles with the victim low and the aggressors
    /// high, then all rails switch at t = 0; the returned time is when
    /// the victim's far-end node crosses `V_dd / 2`, in seconds. If the
    /// crossing never happens within the (generous) internal step
    /// budget, the elapsed budget time is returned — treat values near
    /// `2·10⁶` steps × h as "did not settle".
    ///
    /// # Errors
    ///
    /// [`CircuitError::WidthMismatch`] if `victim` or an aggressor index
    /// is out of range, and any singular-matrix error from degenerate
    /// netlists.
    pub fn transition_delay(
        &self,
        victim: usize,
        aggressors: &[usize],
    ) -> Result<f64, CircuitError> {
        let n = self.netlist.len();
        if victim >= n || aggressors.iter().any(|&a| a >= n) {
            return Err(CircuitError::WidthMismatch {
                link: n,
                stream: victim.max(aggressors.iter().copied().max().unwrap_or(0)) + 1,
            });
        }
        let (net, drives) = self.build_network();
        // Fine time base: resolve the RC time constants comfortably.
        let tau = self.driver.resistance
            * (self.netlist.capacitance().row_sum(victim) + self.driver.load_cap);
        let h = (tau / 200.0).max(1e-15);
        let mut sim = net.transient(h)?;
        let vdd = self.driver.vdd;
        // Settle: victim low, aggressors high.
        for (i, &d) in drives.iter().enumerate() {
            let high = aggressors.contains(&i);
            sim.set_rail(d, if high { vdd } else { 0.0 });
        }
        for _ in 0..4_000 {
            sim.step();
        }
        // Switch: victim rises, aggressors fall.
        for (i, &d) in drives.iter().enumerate() {
            if i == victim {
                sim.set_rail(d, vdd);
            } else if aggressors.contains(&i) {
                sim.set_rail(d, 0.0);
            }
        }
        let far = self.node(victim, self.sections);
        let mut t = 0.0;
        for _ in 0..2_000_000 {
            sim.step();
            t += h;
            if sim.voltage(far) >= vdd / 2.0 {
                return Ok(t);
            }
        }
        Ok(t)
    }

    /// The supply energy the pull-up drivers draw over `stream` at
    /// integration step `h`, J, and the number of lags it was summed
    /// over. An empty stream draws nothing and builds no network.
    ///
    /// A high driver sources `g·(V_dd − v)` at each step, so a cycle
    /// draws `V_dd·g·h·(steps·V_dd − Σv)` from the supply for each high
    /// bit. The driver voltage sums `Σv` are linear in the rails of that
    /// cycle and every cycle before it, through the cycle map's lag
    /// kernels `K_ℓ` (rails `ℓ` cycles back), so over the stream
    ///
    /// `E = g·V_dd·h·(steps·V_dd·Σₜ|uₜ| − V_dd·Σ_ℓ ⟨K_ℓ, N_ℓ⟩)`
    ///
    /// where `N_ℓ[i][j]` counts the words with bit `i` set whose word
    /// `ℓ` cycles earlier has bit `j` set, and `|uₜ|` is word `t`'s
    /// number of high bits. Both terms grow with every cycle a bit stays
    /// high, so the sum is taken relative to the rails' settled states,
    /// where it does not cancel:
    ///
    /// `E = g·V_dd²·h·(Σ_ℓ ⟨J_ℓ, N_ℓ − N_(ℓ+1)⟩ − Σ_ℓ ⟨K̃_ℓ, N_ℓ⟩)`
    ///
    /// with the release kernels `J_ℓ` (driver voltage sums `ℓ` cycles
    /// after a via leaves its settled state) weighing the rail changes,
    /// and the remainder kernels `K̃_ℓ` the little a held rail leaves
    /// unsettled. The lags stop at the stream's length, or once `J_ℓ`
    /// falls below [`LAG_FLOOR`] of `J_0`.
    fn dynamic_energy(
        &self,
        stream: &BitStream,
        h: f64,
        tel: &TelemetryHandle,
    ) -> Result<(f64, usize), CircuitError> {
        if stream.is_empty() {
            return Ok((0.0, 0));
        }
        let n = self.netlist.len();
        let kernels = {
            let _span = tel.span("circuit.cycle_map");
            let sim = self.build_network().0.transient_with_telemetry(h, tel)?;
            let probes: Vec<usize> = (0..n).map(|i| self.node(i, 0)).collect();
            // Rail `i` alone settles via `i`'s whole ladder at its voltage.
            let settled: Vec<Vec<usize>> = (0..n)
                .map(|i| {
                    (0..=self.sections)
                        .map(|level| self.node(i, level))
                        .collect()
                })
                .collect();
            sim.cycle_map(self.steps_per_cycle, &probes, &settled)
                .lag_kernels(stream.len(), LAG_FLOOR)
        };
        let lags = kernels.release.len() / (n * n);
        let (released, remaining) = {
            let _span = tel.span("circuit.lag_counts");
            lagged_products(stream, &kernels, lags)
        };
        let vdd = self.driver.vdd;
        let g = 1.0 / self.driver.resistance;
        Ok((g * vdd * vdd * h * (released - remaining), lags))
    }

    /// Simulates the transmission of `stream` at clock frequency
    /// `clock` (Hz) and returns the supply-energy bookkeeping.
    ///
    /// Each cycle switches the drivers to the word's bit values and
    /// integrates the network for one period; the dynamic energy is the
    /// signed integral of the current drawn from the `V_dd` rail through
    /// all pull-up drivers, and leakage is added analytically.
    ///
    /// The network is linear and time-invariant and its rails hold for
    /// a whole cycle, so one cycle's `steps_per_cycle` backward-Euler
    /// steps compose to one affine map of the state and the rails. The
    /// map is built once per call, from `nodes + RL branches + vias`
    /// single steps raised to the cycle by binary powering. Its lag
    /// kernels give each high bit's supply charge as a linear function
    /// of the bits of that cycle and the cycles before, so the energy is
    /// a sum of Frobenius products of the kernels with lagged bit
    /// co-occurrence counts of the stream (the paper's `⟨T′,C′⟩` form
    /// carried over the link's settling tail); no word is simulated on
    /// its own.
    ///
    /// # Errors
    ///
    /// [`CircuitError::WidthMismatch`] if the stream width differs from
    /// the via count, [`CircuitError::NonPositiveParameter`] for a
    /// non-positive clock, or a singular-matrix error for degenerate
    /// netlists.
    pub fn simulate(&self, stream: &BitStream, clock: f64) -> Result<EnergyReport, CircuitError> {
        self.simulate_with_telemetry(stream, clock, &TelemetryHandle::disabled())
    }

    /// [`simulate`](TsvLink::simulate) with instrumentation: wraps the
    /// run in a `circuit.simulate` span holding two spans, the map build
    /// (`circuit.cycle_map`) and the count kernel (`circuit.lag_counts`),
    /// accumulates `circuit.cycles`/`circuit.steps` counters (`steps` =
    /// cycles × steps per cycle, the integration the energy covers) and
    /// `circuit.lags` (the lag kernels the energy is summed over), and
    /// emits a final `circuit.energy` event. The one LU factorisation is
    /// timed as `circuit.lu_factor` and the cycle map's basis steps as
    /// `circuit.step_seconds`. The returned [`EnergyReport`] is
    /// identical to the uninstrumented one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`simulate`](TsvLink::simulate).
    pub fn simulate_with_telemetry(
        &self,
        stream: &BitStream,
        clock: f64,
        tel: &TelemetryHandle,
    ) -> Result<EnergyReport, CircuitError> {
        let n = self.netlist.len();
        if stream.width() != n {
            return Err(CircuitError::WidthMismatch {
                link: n,
                stream: stream.width(),
            });
        }
        if clock <= 0.0 {
            return Err(CircuitError::NonPositiveParameter { name: "clock" });
        }
        let _span = tel.span("circuit.simulate");
        let observe = tel.is_enabled();

        let period = 1.0 / clock;
        let h = period / self.steps_per_cycle as f64;
        let vdd = self.driver.vdd;
        let (dynamic_energy, lags) = self.dynamic_energy(stream, h, tel)?;
        let total_time = stream.len() as f64 * period;
        let leakage_energy = n as f64 * self.driver.leakage * vdd * total_time;
        if observe {
            // The integration steps the energy covers, not the map's
            // basis steps (those are timed in `circuit.step_seconds`).
            let steps = (stream.len() * self.steps_per_cycle) as u64;
            tel.add("circuit.cycles", stream.len() as u64);
            tel.add("circuit.steps", steps);
            tel.add("circuit.lags", lags as u64);
            tel.event(
                "circuit.energy",
                &[
                    ("dynamic_energy_j", Value::from(dynamic_energy)),
                    ("leakage_energy_j", Value::from(leakage_energy)),
                    ("cycles", Value::from(stream.len())),
                    ("steps", Value::from(steps)),
                    ("clock_hz", Value::from(clock)),
                ],
            );
        }
        Ok(EnergyReport {
            dynamic_energy,
            leakage_energy,
            cycles: stream.len(),
            clock,
        })
    }
}

/// Release kernels below this fraction of `J_0`'s largest entry end the
/// energy sum: the cycle map contracts about 25× per 3 GHz cycle, so a
/// 4×4 minimum-pitch link keeps 13 lags.
const LAG_FLOOR: f64 = 1e-18;

/// `Σ_ℓ ⟨J_ℓ, N_ℓ − N_(ℓ+1)⟩` and `Σ_ℓ ⟨K̃_ℓ, N_ℓ⟩` over the `lags`
/// kernels of `kernels`, whose `K_ℓ[i][j]` sits at `(ℓ·n + j)·n + i`.
/// `N_ℓ[i][j]` counts the words of `stream` with bit `i` set whose word
/// `ℓ` cycles earlier has bit `j` set: a popcount of bit `i`'s plane
/// against bit `j`'s plane shifted by `ℓ`.
fn lagged_products(stream: &BitStream, kernels: &LagKernels, lags: usize) -> (f64, f64) {
    let n = stream.width();
    let len = stream.len().div_ceil(64);
    // Bit `t % 64` of `planes[i * len + t / 64]` is bit `i` of word `t`.
    let mut planes = vec![0u64; n * len];
    for (t, word) in stream.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            planes[bits.trailing_zeros() as usize * len + t / 64] |= 1 << (t % 64);
            bits &= bits - 1;
        }
    }
    let mut counts = vec![0i64; (lags + 1) * n * n];
    let mut earlier = vec![0u64; len];
    for (lag, block) in counts.chunks_exact_mut(n * n).enumerate() {
        for (j, column) in block.chunks_exact_mut(n).enumerate() {
            shift_later(&planes[j * len..(j + 1) * len], lag, &mut earlier);
            for (count, plane) in column.iter_mut().zip(planes.chunks_exact(len)) {
                *count = plane
                    .iter()
                    .zip(&earlier)
                    .map(|(a, b)| i64::from((a & b).count_ones()))
                    .sum();
            }
        }
    }
    let (now, later) = (&counts[..lags * n * n], &counts[n * n..]);
    let released = kernels
        .release
        .iter()
        .zip(now.iter().zip(later))
        .map(|(k, (a, b))| k * (a - b) as f64)
        .sum();
    let remaining = kernels
        .remainder
        .iter()
        .zip(now)
        .map(|(k, &a)| k * a as f64)
        .sum();
    (released, remaining)
}

/// Writes `plane` moved `lag` words later into `out`: bit `t` of `out`
/// is bit `t − lag` of `plane`, and 0 for `t < lag`.
fn shift_later(plane: &[u64], lag: usize, out: &mut [u64]) {
    let (words, bits) = (lag / 64, lag % 64);
    out.fill(0);
    for (w, o) in out.iter_mut().enumerate().skip(words) {
        let src = w - words;
        *o = plane[src] << bits;
        if bits > 0 && src > 0 {
            *o |= plane[src - 1] >> (64 - bits);
        }
    }
}

/// Supply-energy bookkeeping of one simulated stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    dynamic_energy: f64,
    leakage_energy: f64,
    cycles: usize,
    clock: f64,
}

impl EnergyReport {
    /// Energy drawn from `V_dd` through the switching drivers, J.
    pub fn dynamic_energy(&self) -> f64 {
        self.dynamic_energy
    }

    /// Analytic leakage energy over the simulated interval, J.
    pub fn leakage_energy(&self) -> f64 {
        self.leakage_energy
    }

    /// Total energy (dynamic + leakage), J.
    pub fn total_energy(&self) -> f64 {
        self.dynamic_energy + self.leakage_energy
    }

    /// Number of simulated clock cycles.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Mean power over the simulated interval, W.
    pub fn mean_power(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.total_energy() * self.clock / self.cycles as f64
    }

    /// Mean power scaled to an effective transmission of `target_bits`
    /// per cycle when the link actually moves `effective_bits` per cycle
    /// — the normalisation of the paper's Fig. 6 (32 b per cycle,
    /// redundant bits excluded).
    ///
    /// # Panics
    ///
    /// Panics if `effective_bits` is not positive.
    pub fn power_scaled_to(&self, effective_bits: f64, target_bits: f64) -> f64 {
        assert!(effective_bits > 0.0, "effective bits must be positive");
        self.mean_power() * target_bits / effective_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tsv3d_model::{Extractor, TsvArray, TsvGeometry};

    /// The per-step energy loop the cycle map replaced, kept verbatim as
    /// the reference: every backward-Euler step is integrated and each
    /// high driver's supply current is summed step by step.
    fn simulate_stepwise(link: &TsvLink, stream: &BitStream, clock: f64) -> EnergyReport {
        let n = link.netlist.len();
        let (net, drives) = link.build_network();

        let period = 1.0 / clock;
        let h = period / link.steps_per_cycle as f64;
        let mut sim = net.transient(h).expect("link networks are non-singular");

        let vdd = link.driver.vdd;
        let mut dynamic_energy = 0.0;
        for word in stream.iter() {
            // Switch the rails to this word's levels.
            let mut up = Vec::with_capacity(n);
            for (i, &d) in drives.iter().enumerate() {
                let high = (word >> i) & 1 == 1;
                sim.set_rail(d, if high { vdd } else { 0.0 });
                if high {
                    up.push(d);
                }
            }
            for _ in 0..link.steps_per_cycle {
                sim.step();
                for &d in &up {
                    dynamic_energy += sim.drive_current(d) * vdd * h;
                }
            }
        }
        let total_time = stream.len() as f64 * period;
        let leakage_energy = n as f64 * link.driver.leakage * vdd * total_time;
        EnergyReport {
            dynamic_energy,
            leakage_energy,
            cycles: stream.len(),
            clock,
        }
    }

    const SHAPES: [(usize, usize); 5] = [(1, 2), (2, 2), (2, 4), (3, 3), (4, 4)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        #[test]
        fn cycle_map_matches_the_stepwise_reference(
            shape in 0..SHAPES.len(),
            probabilities in prop::collection::vec(0.0..1.0f64, 16),
            sections in 1..=4usize,
            steps in 1..=30usize,
            raw in prop::collection::vec(any::<u64>(), 0..=300),
            sparsity in 0..4u32,
            ghz in 0..2usize,
        ) {
            let (rows, cols) = SHAPES[shape];
            let n = rows * cols;
            let array = TsvArray::new(rows, cols, TsvGeometry::itrs_2018_min()).unwrap();
            let cap = Extractor::new(array.clone()).extract(&probabilities[..n]).unwrap();
            let link = TsvLink::new(
                TsvRcNetlist::from_extraction(&array, cap),
                DriverModel::ptm_22nm_strength6(),
            )
            .unwrap()
            .with_sections(sections)
            .with_steps_per_cycle(steps);
            // Every extra AND halves the toggle rate: sparsity 0 is a
            // uniformly random stream, 3 toggles a bit one cycle in 16.
            let mut word = 0;
            let words = raw
                .iter()
                .map(|&r| {
                    let toggles = (0..sparsity).fold(r, |t, s| t & r.rotate_left(13 * (s + 1)));
                    word ^= toggles & ((1 << n) - 1);
                    word
                })
                .collect();
            let stream = BitStream::from_words(n, words).unwrap();
            let clock = [1.0e9, 3.0e9][ghz];

            let reference = simulate_stepwise(&link, &stream, clock);
            let report = link.simulate(&stream, clock).unwrap();
            let (got, want) = (report.dynamic_energy(), reference.dynamic_energy());
            prop_assert!(
                (got - want).abs() <= 1e-12 * want.abs() + 1e-24,
                "{}x{} link: cycle map {:e} J vs stepwise {:e} J", rows, cols, got, want
            );
            prop_assert_eq!(report.leakage_energy(), reference.leakage_energy());
            prop_assert_eq!(report.cycles(), reference.cycles());
            let tel = TelemetryHandle::with_sink(Box::new(tsv3d_telemetry::NullSink));
            prop_assert_eq!(link.simulate_with_telemetry(&stream, clock, &tel).unwrap(), report);
        }
    }

    fn link(rows: usize, cols: usize) -> TsvLink {
        let array = TsvArray::new(rows, cols, TsvGeometry::itrs_2018_min()).expect("array");
        let n = array.len();
        let cap = Extractor::new(array.clone())
            .extract(&vec![0.5; n])
            .expect("extract");
        TsvLink::new(
            TsvRcNetlist::from_extraction(&array, cap),
            DriverModel::ptm_22nm_strength6(),
        )
        .expect("link")
    }

    fn stream(width: usize, words: &[u64]) -> BitStream {
        BitStream::from_words(width, words.to_vec()).expect("stream")
    }

    #[test]
    fn constant_stream_draws_only_leakage_and_first_charge() {
        let link = link(1, 2);
        let all_ones = stream(2, &[0b11; 50]);
        let report = link.simulate(&all_ones, 3.0e9).unwrap();
        // After the initial charge, no dynamic energy: dynamic over 50
        // cycles must be close to a single full charge.
        let single = link.simulate(&stream(2, &[0b11]), 3.0e9).unwrap();
        assert!(report.dynamic_energy() < 1.5 * single.dynamic_energy());
        assert!(report.leakage_energy() > 0.0);
    }

    #[test]
    fn toggling_energy_scales_with_toggle_count() {
        let link = link(1, 2);
        let fast: Vec<u64> = (0..101).map(|t| if t % 2 == 0 { 0 } else { 0b11 }).collect();
        let slow: Vec<u64> = (0..101).map(|t| if (t / 2) % 2 == 0 { 0 } else { 0b11 }).collect();
        let e_fast = link.simulate(&stream(2, &fast), 3.0e9).unwrap().dynamic_energy();
        let e_slow = link.simulate(&stream(2, &slow), 3.0e9).unwrap().dynamic_energy();
        let ratio = e_fast / e_slow;
        assert!((ratio - 2.0).abs() < 0.2, "ratio = {ratio}");
    }

    #[test]
    fn charge_per_toggle_matches_capacitance() {
        // Energy per 0→1 transition of an isolated-ish line ≈ C_tot·V².
        let array = TsvArray::new(1, 1, TsvGeometry::itrs_2018_min()).unwrap();
        let cap = Extractor::new(array.clone()).extract(&[0.5]).unwrap();
        let c_total = cap[(0, 0)];
        let driver = DriverModel::ptm_22nm_strength6();
        let c_parasitic = driver.output_cap + driver.load_cap;
        let link = TsvLink::new(TsvRcNetlist::from_extraction(&array, cap), driver).unwrap();
        let words: Vec<u64> = (0..201).map(|t| (t % 2) as u64).collect();
        let report = link.simulate(&stream(1, &words), 1.0e9).unwrap();
        // 100 rising edges, each drawing (C_tot + C_drv)·V² from the rail.
        let expected = 100.0 * (c_total + c_parasitic) * 1.0;
        let got = report.dynamic_energy();
        assert!(
            (got - expected).abs() / expected < 0.1,
            "E = {got:.4e}, expected {expected:.4e}"
        );
    }

    #[test]
    fn opposed_switching_costs_more_than_aligned() {
        let link = link(1, 2);
        let aligned: Vec<u64> = (0..100).map(|t| if t % 2 == 0 { 0b00 } else { 0b11 }).collect();
        let opposed: Vec<u64> = (0..100).map(|t| if t % 2 == 0 { 0b01 } else { 0b10 }).collect();
        let e_a = link.simulate(&stream(2, &aligned), 3.0e9).unwrap().dynamic_energy();
        let e_o = link.simulate(&stream(2, &opposed), 3.0e9).unwrap().dynamic_energy();
        assert!(e_o > 1.1 * e_a, "opposed {e_o:.3e} vs aligned {e_a:.3e}");
    }

    #[test]
    fn width_and_clock_validated() {
        let link = link(1, 2);
        assert!(matches!(
            link.simulate(&stream(3, &[0]), 3.0e9),
            Err(CircuitError::WidthMismatch { link: 2, stream: 3 })
        ));
        assert!(matches!(
            link.simulate(&stream(2, &[0]), 0.0),
            Err(CircuitError::NonPositiveParameter { name: "clock" })
        ));
    }

    #[test]
    fn report_arithmetic() {
        let link = link(1, 2);
        let r = link.simulate(&stream(2, &[0, 3, 0, 3]), 2.0e9).unwrap();
        assert_eq!(r.cycles(), 4);
        assert!(
            (r.total_energy() - r.dynamic_energy() - r.leakage_energy()).abs()
                < 1e-12 * r.total_energy()
        );
        assert!(r.mean_power() > 0.0);
        // Scaling to 32 b from 2 b multiplies by 16.
        let p = r.power_scaled_to(2.0, 32.0);
        assert!((p - r.mean_power() * 16.0).abs() < 1e-12 * p.abs());
    }

    /// Records every span's name and length, in the order they close.
    #[derive(Default)]
    struct SpanLog(std::sync::Mutex<Vec<(String, f64)>>);

    impl tsv3d_telemetry::Sink for SpanLog {
        fn emit(&self, event: &tsv3d_telemetry::Event<'_>) {
            if event.name != "span" {
                return;
            }
            let field = |key| event.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
            if let (Some(Value::Str(name)), Some(&Value::F64(seconds))) =
                (field("name"), field("seconds"))
            {
                self.0.lock().unwrap().push((name.clone(), seconds));
            }
        }
    }

    #[test]
    fn telemetry_does_not_change_the_energy_and_tallies_the_run() {
        let link = link(1, 2);
        let words: Vec<u64> = (0..40).map(|t| if t % 2 == 0 { 0b01 } else { 0b10 }).collect();
        let s = stream(2, &words);
        let plain = link.simulate(&s, 3.0e9).unwrap();
        let log = std::sync::Arc::new(SpanLog::default());
        let tel = TelemetryHandle::with_sink(Box::new(std::sync::Arc::clone(&log)));
        let observed = link.simulate_with_telemetry(&s, 3.0e9, &tel).unwrap();
        // Exact field-wise equality: instrumentation must not perturb
        // a single integration step.
        assert_eq!(plain, observed);
        assert_eq!(tel.counter_value("circuit.cycles"), Some(40));
        assert_eq!(tel.counter_value("circuit.steps"), Some(40 * 24));
        assert_eq!(tel.counter_value("circuit.lags"), Some(16));
        // The cycle map steps once from each node voltage, RL branch
        // current and via rail, (2·4 + 2·3 + 2) single steps; powering
        // composes them to the cycle's 24.
        let (nodes, rl_branches, vias) = (8, 6, 2);
        assert_eq!(
            tel.histogram("circuit.step_seconds").map(|h| h.count()),
            Some(nodes + rl_branches + vias),
            "every basis step of the cycle map is timed"
        );
        assert_eq!(
            tel.histogram("circuit.lu_factor").map(|h| h.count()),
            Some(1),
            "one LU factorisation per simulate call"
        );
        // The map build and then the count kernel run once each, inside
        // the simulate span: a span is logged when it closes.
        let spans = log.0.lock().unwrap();
        let names: Vec<&str> = spans.iter().map(|(name, ..)| name.as_str()).collect();
        let at = |name| names.iter().position(|&n| n == name).unwrap();
        for name in [
            "circuit.cycle_map",
            "circuit.lag_counts",
            "circuit.simulate",
        ] {
            assert_eq!(
                names.iter().filter(|&&n| n == name).count(),
                1,
                "one `{name}` span"
            );
        }
        assert!(at("circuit.lu_factor") < at("circuit.cycle_map"));
        assert!(at("circuit.cycle_map") < at("circuit.lag_counts"));
        assert!(at("circuit.lag_counts") < at("circuit.simulate"));
        let seconds = |name| spans[at(name)].1;
        assert!(
            seconds("circuit.cycle_map") + seconds("circuit.lag_counts")
                <= seconds("circuit.simulate")
        );
    }

    /// The 4×4 minimum-pitch link at 3 GHz and its lag count there.
    const LAGS_4X4: usize = 13;

    /// The lags `simulate_with_telemetry` sums `stream`'s energy over.
    fn lags(link: &TsvLink, stream: &BitStream, clock: f64) -> u64 {
        let tel = TelemetryHandle::with_sink(Box::new(tsv3d_telemetry::NullSink));
        link.simulate_with_telemetry(stream, clock, &tel).unwrap();
        tel.counter_value("circuit.lags").unwrap()
    }

    /// `len` words of a fixed pseudo-random `width`-bit sequence.
    fn scrambled(width: usize, len: usize) -> BitStream {
        let words = (0..len as u64)
            .map(|t| (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17 & ((1 << width) - 1))
            .collect();
        BitStream::from_words(width, words).unwrap()
    }

    #[test]
    fn lag_count_is_pinned_on_the_4x4_min_pitch_link_at_3_ghz() {
        let link = link(4, 4);
        assert_eq!(lags(&link, &scrambled(16, 200), 3.0e9), LAGS_4X4 as u64);
        // A slower clock settles more per cycle and needs fewer lags;
        // a stream shorter than the tail caps them at its length.
        assert!(lags(&link, &scrambled(16, 200), 1.0e9) < LAGS_4X4 as u64);
        assert_eq!(lags(&link, &scrambled(16, 5), 3.0e9), 5);
    }

    #[test]
    fn short_and_constant_streams_match_the_stepwise_reference() {
        let link = link(4, 4);
        let constant = stream(16, &[0xffff; LAGS_4X4 + 1]);
        for s in [
            scrambled(16, 1),
            scrambled(16, 2),
            scrambled(16, LAGS_4X4 + 1),
            constant,
        ] {
            let got = link.simulate(&s, 3.0e9).unwrap().dynamic_energy();
            let want = simulate_stepwise(&link, &s, 3.0e9).dynamic_energy();
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "{} words: {got:e} J vs stepwise {want:e} J",
                s.len()
            );
        }
    }

    #[test]
    fn a_long_constant_stream_does_not_cancel_away_its_energy() {
        // All 16 bits stay high for 5 400 cycles, so the stream draws one
        // first charge while a per-cycle form would sum 24·16·5 400 full
        // swings against their settled voltage sums. Rounding in the
        // stepwise reference itself drifts with the length, so compare
        // at 2e-15 of that gross swing charge.
        let link = link(4, 4);
        let s = stream(16, &[0xffff; 5_400]);
        let got = link.simulate(&s, 3.0e9).unwrap().dynamic_energy();
        let want = simulate_stepwise(&link, &s, 3.0e9).dynamic_energy();
        let driver = link.driver();
        let h = 1.0 / 3.0e9 / 24.0;
        let gross = driver.vdd * driver.vdd * h / driver.resistance * (24 * 16 * 5_400) as f64;
        assert!(
            (got - want).abs() <= 2e-15 * gross,
            "{got:e} J vs stepwise {want:e} J, gross swing charge {gross:e} J"
        );
    }

    #[test]
    fn two_calls_on_one_stream_return_identical_bits() {
        let link = link(4, 4);
        let s = scrambled(16, 3_000);
        let first = link.simulate(&s, 3.0e9).unwrap();
        let second = link.simulate(&s, 3.0e9).unwrap();
        assert_eq!(
            first.dynamic_energy().to_bits(),
            second.dynamic_energy().to_bits()
        );
        assert_eq!(first, second);
    }

    #[test]
    fn all_zero_stream_draws_exactly_no_dynamic_energy() {
        let report = link(2, 2).simulate(&stream(4, &[0; 64]), 3.0e9).unwrap();
        assert_eq!(report.dynamic_energy(), 0.0);
        assert!(report.leakage_energy() > 0.0);
    }

    #[test]
    fn empty_stream_reports_zero_cycles_without_building_the_map() {
        let tel = TelemetryHandle::with_sink(Box::new(tsv3d_telemetry::NullSink));
        let report = link(1, 2)
            .simulate_with_telemetry(&stream(2, &[]), 3.0e9, &tel)
            .unwrap();
        assert_eq!(report.cycles(), 0);
        assert_eq!(report.total_energy(), 0.0);
        assert_eq!(tel.counter_value("circuit.steps"), Some(0));
        assert_eq!(tel.counter_value("circuit.lags"), Some(0));
        assert!(tel.histogram("circuit.step_seconds").is_none());
        assert!(tel.histogram("circuit.cycle_map").is_none());
    }

    #[test]
    fn more_sections_changes_little() {
        // The ladder discretisation must be converged enough that 2 vs 4
        // sections agree on the energy within a few percent.
        let array = TsvArray::new(1, 2, TsvGeometry::itrs_2018_min()).unwrap();
        let cap = Extractor::new(array.clone()).extract(&[0.5; 2]).unwrap();
        let words: Vec<u64> = (0..80).map(|t| if t % 2 == 0 { 0b01 } else { 0b10 }).collect();
        let mk = |sections| {
            TsvLink::new(
                TsvRcNetlist::from_extraction(&array, cap.clone()),
                DriverModel::ptm_22nm_strength6(),
            )
            .unwrap()
            .with_sections(sections)
            .simulate(&stream(2, &words), 3.0e9)
            .unwrap()
            .dynamic_energy()
        };
        let e2 = mk(2);
        let e4 = mk(4);
        assert!((e2 - e4).abs() / e4 < 0.05, "e2 = {e2:.3e}, e4 = {e4:.3e}");
    }
}

#[cfg(test)]
mod delay_tests {
    use super::*;
    use tsv3d_model::{Extractor, TsvArray, TsvGeometry};

    fn link_3x3() -> TsvLink {
        let array = TsvArray::new(3, 3, TsvGeometry::itrs_2018_min()).expect("array");
        let cap = Extractor::new(array.clone()).extract(&[0.5; 9]).expect("extract");
        TsvLink::new(
            TsvRcNetlist::from_extraction(&array, cap),
            DriverModel::ptm_22nm_strength6(),
        )
        .expect("link")
    }

    #[test]
    fn intrinsic_delay_is_picosecond_scale() {
        // R_drv ≈ 1.5 kΩ into ~50 fF ⇒ ~50–200 ps to the 50 % point.
        let d = link_3x3().transition_delay(4, &[]).unwrap();
        assert!(d > 5e-12 && d < 1e-9, "delay = {d:.3e} s");
    }

    #[test]
    fn opposing_aggressors_slow_the_victim() {
        // The Miller effect: neighbours falling while the victim rises
        // must lengthen the victim's transition.
        let link = link_3x3();
        let alone = link.transition_delay(4, &[]).unwrap();
        let crowded = link
            .transition_delay(4, &[0, 1, 2, 3, 5, 6, 7, 8])
            .unwrap();
        assert!(
            crowded > 1.3 * alone,
            "crowded {crowded:.3e} vs alone {alone:.3e}"
        );
    }

    #[test]
    fn corner_victim_is_faster_than_middle_victim() {
        // Fewer aggressors and less capacitance at the corner.
        let link = link_3x3();
        let middle = link.transition_delay(4, &[0, 1, 2, 3, 5, 6, 7, 8]).unwrap();
        let corner = link.transition_delay(0, &[1, 3, 4]).unwrap();
        assert!(corner < middle, "corner {corner:.3e} vs middle {middle:.3e}");
    }

    #[test]
    fn invalid_indices_rejected() {
        let link = link_3x3();
        assert!(link.transition_delay(9, &[]).is_err());
        assert!(link.transition_delay(0, &[9]).is_err());
    }
}
