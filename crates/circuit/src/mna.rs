//! A minimal modified-nodal-analysis transient engine.
//!
//! Supports resistors, capacitors, series-RL branches and
//! Norton-equivalent drives (a conductance to a rail voltage),
//! integrated with the backward-Euler companion model. Node 0 is ground
//! and is eliminated from the system; the remaining nodes are solved
//! with a dense LU factorisation.
//!
//! Backward Euler replaces a capacitor `C` between nodes `a`,`b` at each
//! step `h` by a conductance `C/h` in parallel with a current source
//! `C/h · (v_a − v_b)|_prev` — unconditionally stable and charge-exact
//! in steady state, which is what the supply-energy bookkeeping needs.
//! A series R–L branch discretises to the branch equation
//! `i_{n+1} = (v_{n+1} + (L/h)·i_n) / (R + L/h)`, i.e. an effective
//! conductance `1/(R + L/h)` plus a history current — no extra node is
//! needed, which keeps the TSV π ladders compact.
//!
//! Every step is therefore one linear, time-invariant update of the
//! state (node voltages and RL branch currents) driven by the rail
//! voltages. While the rails stay constant — a whole clock cycle of a
//! driven link — a run of steps composes, by superposition, to one
//! fixed affine map. The crate measures one step's map with
//! [`Transient::step`] itself, one step per state basis vector and one
//! per rail, and composes it to a whole cycle by binary powering: five
//! dense products for 24 steps instead of `(state + rails) × 24` LU
//! solves. It is exact up to rounding. The map's response to a rail
//! raised `ℓ` cycles back is what a stream's supply energy is summed
//! from, so no cycle needs a mat-vec of its own.

use crate::CircuitError;
use tsv3d_telemetry::{TelemetryHandle, Value};

/// A linear circuit under construction (node 0 = ground).
///
/// # Examples
///
/// A resistor divider driven through a Norton source:
///
/// ```
/// use tsv3d_circuit::mna::Netlist;
///
/// # fn main() -> Result<(), tsv3d_circuit::CircuitError> {
/// let mut net = Netlist::new(2); // nodes 1 and 2
/// net.resistor(1, 2, 1000.0);
/// net.resistor(2, 0, 1000.0);
/// net.drive(1, 1e-3, 1.0); // 1 kΩ to a 1 V rail
/// let mut sim = net.transient(1e-12)?;
/// for _ in 0..10_000 {
///     sim.step();
/// }
/// // DC: v1 = 2/3, v2 = 1/3.
/// assert!((sim.voltage(1) - 2.0 / 3.0).abs() < 1e-6);
/// assert!((sim.voltage(2) - 1.0 / 3.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Number of non-ground nodes.
    nodes: usize,
    /// `(a, b, conductance)` between nodes (0 = ground).
    conductances: Vec<(usize, usize, f64)>,
    /// `(a, b, capacitance)` between nodes (0 = ground).
    capacitors: Vec<(usize, usize, f64)>,
    /// `(node, conductance, rail_voltage_index)` — a resistor from the
    /// node to a controllable rail. The rail voltage is set per step via
    /// [`Transient::set_rail`].
    drives: Vec<(usize, f64, f64)>,
    /// `(a, b, resistance, inductance)` series branches.
    rl_branches: Vec<(usize, usize, f64, f64)>,
}

impl Netlist {
    /// Creates an empty netlist with `nodes` non-ground nodes
    /// (numbered 1..=nodes).
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            conductances: Vec::new(),
            capacitors: Vec::new(),
            drives: Vec::new(),
            rl_branches: Vec::new(),
        }
    }

    /// Number of non-ground nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Adds a resistor between nodes `a` and `b` (0 = ground).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes or non-positive resistance.
    pub fn resistor(&mut self, a: usize, b: usize, ohms: f64) {
        assert!(a <= self.nodes && b <= self.nodes, "node out of range");
        assert!(ohms > 0.0, "resistance must be positive");
        self.conductances.push((a, b, 1.0 / ohms));
    }

    /// Adds a capacitor between nodes `a` and `b` (0 = ground).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes or negative capacitance.
    pub fn capacitor(&mut self, a: usize, b: usize, farads: f64) {
        assert!(a <= self.nodes && b <= self.nodes, "node out of range");
        assert!(farads >= 0.0, "capacitance must be non-negative");
        if farads > 0.0 {
            self.capacitors.push((a, b, farads));
        }
    }

    /// Adds a *drive*: a resistor of conductance `siemens` from `node`
    /// to a rail whose voltage can be changed between steps (initially
    /// `initial_rail` volts). Returns the drive's index for
    /// [`Transient::set_rail`] / [`Transient::drive_current`].
    ///
    /// # Panics
    ///
    /// Panics on out-of-range node or non-positive conductance.
    pub fn drive(&mut self, node: usize, siemens: f64, initial_rail: f64) -> usize {
        assert!(node >= 1 && node <= self.nodes, "node out of range");
        assert!(siemens > 0.0, "conductance must be positive");
        self.drives.push((node, siemens, initial_rail));
        self.drives.len() - 1
    }

    /// Adds a series R–L branch between nodes `a` and `b` (0 = ground).
    ///
    /// With `henries = 0` this degenerates to a plain resistor (but
    /// keeps its branch-current bookkeeping). Returns the branch index
    /// for [`Transient::branch_current`].
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes, non-positive resistance or negative
    /// inductance.
    pub fn rl_branch(&mut self, a: usize, b: usize, ohms: f64, henries: f64) -> usize {
        assert!(a <= self.nodes && b <= self.nodes, "node out of range");
        assert!(ohms > 0.0, "resistance must be positive");
        assert!(henries >= 0.0, "inductance must be non-negative");
        self.rl_branches.push((a, b, ohms, henries));
        self.rl_branches.len() - 1
    }

    /// Builds the transient simulator with time step `h` (seconds).
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularMatrix`] if the conductance system is
    /// singular (e.g. a node with no DC path to ground), or
    /// [`CircuitError::NonPositiveParameter`] for a non-positive step.
    pub fn transient(&self, h: f64) -> Result<Transient, CircuitError> {
        self.transient_with_telemetry(h, &TelemetryHandle::disabled())
    }

    /// [`Netlist::transient`] with instrumentation: times the dense LU
    /// factorisation (`circuit.lu_factor` span), emits a
    /// `circuit.transient_built` event with the system's size, and
    /// makes the returned [`Transient`] record per-step solve timings
    /// while `tel` is enabled. Simulated voltages and currents are
    /// unaffected.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::transient`].
    pub fn transient_with_telemetry(
        &self,
        h: f64,
        tel: &TelemetryHandle,
    ) -> Result<Transient, CircuitError> {
        if h <= 0.0 {
            return Err(CircuitError::NonPositiveParameter { name: "h" });
        }
        let n = self.nodes;
        let mut g = vec![0.0; n * n];
        let stamp = |a: usize, b: usize, val: f64, g: &mut Vec<f64>| {
            if a > 0 {
                g[(a - 1) * n + (a - 1)] += val;
            }
            if b > 0 {
                g[(b - 1) * n + (b - 1)] += val;
            }
            if a > 0 && b > 0 {
                g[(a - 1) * n + (b - 1)] -= val;
                g[(b - 1) * n + (a - 1)] -= val;
            }
        };
        for &(a, b, cond) in &self.conductances {
            stamp(a, b, cond, &mut g);
        }
        for &(a, b, c) in &self.capacitors {
            stamp(a, b, c / h, &mut g);
        }
        for &(node, cond, _) in &self.drives {
            stamp(node, 0, cond, &mut g);
        }
        for &(a, b, r, l) in &self.rl_branches {
            stamp(a, b, 1.0 / (r + l / h), &mut g);
        }
        let lu = {
            let _span = tel.span("circuit.lu_factor");
            LuFactors::factor(g, n)?
        };
        if tel.is_enabled() {
            tel.event(
                "circuit.transient_built",
                &[
                    ("nodes", Value::from(n)),
                    ("capacitors", Value::from(self.capacitors.len())),
                    ("rl_branches", Value::from(self.rl_branches.len())),
                    ("drives", Value::from(self.drives.len())),
                    ("h", Value::from(h)),
                ],
            );
        }
        Ok(Transient {
            netlist: self.clone(),
            h,
            lu,
            v: vec![0.0; n],
            rails: self.drives.iter().map(|&(_, _, r)| r).collect(),
            rhs: vec![0.0; n],
            branch_currents: vec![0.0; self.rl_branches.len()],
            steps: 0,
            tel: tel.clone(),
        })
    }
}

/// A running transient simulation.
#[derive(Debug, Clone)]
pub struct Transient {
    netlist: Netlist,
    h: f64,
    lu: LuFactors,
    /// Node voltages (index 0 ↔ node 1).
    v: Vec<f64>,
    /// Current rail voltage per drive.
    rails: Vec<f64>,
    rhs: Vec<f64>,
    /// Inductor branch currents (one per RL branch), A, flowing a → b.
    branch_currents: Vec<f64>,
    /// Backward-Euler steps taken so far.
    steps: u64,
    /// Instrumentation handle (disabled unless built via
    /// [`Netlist::transient_with_telemetry`]).
    tel: TelemetryHandle,
}

impl Transient {
    /// The integration step, s.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Number of [`step`](Transient::step) calls so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Voltage of a node (0 = ground ⇒ 0.0).
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn voltage(&self, node: usize) -> f64 {
        if node == 0 {
            0.0
        } else {
            self.v[node - 1]
        }
    }

    /// Sets the rail voltage of drive `index` (takes effect next step).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set_rail(&mut self, index: usize, volts: f64) {
        self.rails[index] = volts;
    }

    /// Current flowing *out of the rail* into the circuit through drive
    /// `index`, at the present node voltages, A.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn drive_current(&self, index: usize) -> f64 {
        let (node, cond, _) = self.netlist.drives[index];
        cond * (self.rails[index] - self.voltage(node))
    }

    /// Current through RL branch `index` (positive a → b), A.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn branch_current(&self, index: usize) -> f64 {
        self.branch_currents[index]
    }

    /// Advances the simulation by one backward-Euler step.
    pub fn step(&mut self) {
        self.steps += 1;
        let solve_timer = if self.tel.is_enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let n = self.netlist.nodes;
        for x in self.rhs.iter_mut() {
            *x = 0.0;
        }
        // Capacitor history currents.
        for &(a, b, c) in &self.netlist.capacitors {
            let i_hist = c / self.h * (self.voltage(a) - self.voltage(b));
            if a > 0 {
                self.rhs[a - 1] += i_hist;
            }
            if b > 0 {
                self.rhs[b - 1] -= i_hist;
            }
        }
        // Drive injections.
        for (k, &(node, cond, _)) in self.netlist.drives.iter().enumerate() {
            self.rhs[node - 1] += cond * self.rails[k];
        }
        // RL-branch history: the memory current keeps flowing a → b.
        for (k, &(a, b, r, l)) in self.netlist.rl_branches.iter().enumerate() {
            let inject = self.branch_currents[k] * (l / self.h) / (r + l / self.h);
            if a > 0 {
                self.rhs[a - 1] -= inject;
            }
            if b > 0 {
                self.rhs[b - 1] += inject;
            }
        }
        self.lu.solve(&mut self.rhs);
        self.v[..n].copy_from_slice(&self.rhs[..n]);
        // Update branch currents from the new node voltages.
        for (k, &(a, b, r, l)) in self.netlist.rl_branches.iter().enumerate() {
            let v_ab = self.voltage(a) - self.voltage(b);
            self.branch_currents[k] =
                (v_ab + (l / self.h) * self.branch_currents[k]) / (r + l / self.h);
        }
        if let Some(start) = solve_timer {
            self.tel
                .record("circuit.step_seconds", start.elapsed().as_secs_f64());
        }
    }

    /// Measures the exact effect of `steps` [`step`](Transient::step)s
    /// at constant rail voltages: the next state, and for each of
    /// `probe_nodes` the sum of its voltage after each of those steps.
    ///
    /// Rail `k`'s columns are taken relative to its settled state, the
    /// nodes `settled[k]` at 1 V and everything else at 0: they are the
    /// next state and probe sums from that state with rail `k` at 1 V,
    /// less that state's. The map is exact for any such choice. When it
    /// is the state rail `k` alone settles the network to, the rail
    /// columns hold only what a cycle leaves unsettled, so no large rail
    /// term cancels against the state's over a long run.
    ///
    /// The step is linear in the state and the rails, so one step's map
    /// is recorded column by column: a step from each state basis vector
    /// (1 V on one node or 1 A in one RL branch) with every rail at 0 V,
    /// then one from each rail's settled state. That map is then raised
    /// to the `steps`-th power. The runs use up the simulator, whose
    /// state they overwrite.
    pub(crate) fn cycle_map(
        mut self,
        steps: usize,
        probe_nodes: &[usize],
        settled: &[Vec<usize>],
    ) -> CycleMap {
        let n = self.netlist.nodes;
        let dim = n + self.branch_currents.len();
        let rows = dim + probe_nodes.len();
        assert_eq!(
            settled.len(),
            self.rails.len(),
            "one settled state per rail"
        );
        let mut rest = vec![0.0; dim * settled.len()];
        for (state, nodes) in rest.chunks_exact_mut(dim).zip(settled) {
            for &node in nodes {
                state[node - 1] = 1.0;
            }
        }
        let mut columns = vec![0.0; rows * (dim + self.rails.len())];
        for (c, column) in columns.chunks_exact_mut(rows).enumerate() {
            self.v.fill(0.0);
            self.branch_currents.fill(0.0);
            self.rails.fill(0.0);
            let from = if c < dim {
                if c < n {
                    self.v[c] = 1.0;
                } else {
                    self.branch_currents[c - n] = 1.0;
                }
                None
            } else {
                let state = &rest[(c - dim) * dim..][..dim];
                self.v.copy_from_slice(&state[..n]);
                self.rails[c - dim] = 1.0;
                Some(state)
            };
            self.step();
            column[..n].copy_from_slice(&self.v);
            column[n..dim].copy_from_slice(&self.branch_currents);
            for (sum, &node) in column[dim..].iter_mut().zip(probe_nodes) {
                *sum = self.voltage(node);
            }
            if let Some(state) = from {
                for (x, s) in column[..dim].iter_mut().zip(state) {
                    *x -= s;
                }
                for (sum, &node) in column[dim..].iter_mut().zip(probe_nodes) {
                    *sum -= state[node - 1];
                }
            }
        }
        drop(self);
        let one = CycleMap {
            dim,
            rows,
            columns,
            rest: Vec::new(),
        };
        CycleMap {
            rest,
            ..one.power(steps)
        }
    }
}

/// One clock cycle of a [`Transient`] as an affine map, built by
/// `Transient::cycle_map`.
///
/// The input is the state (node voltages, then RL branch currents)
/// followed by the rail voltages; the output is the state after the
/// cycle followed by one voltage sum per probe node. Both are taken
/// relative to the rails' settled states: in blocks, `[next state;
/// sums] = [A B; P D]·[state; rails]`, where `B` and `D` hold what a
/// cycle at those rails leaves unsettled.
#[derive(Debug, Clone)]
pub(crate) struct CycleMap {
    /// State length.
    dim: usize,
    /// Output length: the state plus one sum per probe.
    rows: usize,
    /// Column-major `rows × (dim + rails)`.
    columns: Vec<f64>,
    /// Each rail's settled state, column-major `dim × rails`.
    rest: Vec<f64>,
}

/// The lag kernels of a [`CycleMap`], each `probes × rails` and
/// column-major, concatenated from lag 0 on; both hold the same number
/// of kernels.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LagKernels {
    /// `J_ℓ = P·A^ℓ·X`: the probe sums in the `ℓ`-th cycle after the
    /// network leaves rail `j`'s settled state `X` with every rail at
    /// 0 V.
    pub(crate) release: Vec<f64>,
    /// `K_0 = D` and `K_ℓ = P·A^(ℓ−1)·B`: the probe sums rail `j` leaves
    /// unsettled `ℓ` cycles later.
    pub(crate) remainder: Vec<f64>,
}

impl CycleMap {
    /// `self` run `times` times in a row at the same rails, by binary
    /// powering, most significant bit first: square, then compose one
    /// more run in place where the bit is set. Once no set bit is left,
    /// `self`'s buffer takes the squares, so for 24 steps (`3·2³`) two
    /// map-sized buffers hold every product.
    fn power(self, times: usize) -> CycleMap {
        assert!(times > 0, "a cycle takes at least one step");
        let mut one = Some(self);
        // `None` while the power so far is `one` itself.
        let mut acc: Option<CycleMap> = None;
        let mut spare: Option<CycleMap> = None;
        let mut column = Vec::new();
        for bit in (0..times.ilog2()).rev() {
            let base = acc.as_ref().or(one.as_ref()).expect("a power is held");
            let mut square = spare.take().unwrap_or_else(|| base.clone());
            let rows = base.rows;
            let pairs = square
                .columns
                .chunks_exact_mut(rows)
                .zip(base.columns.chunks_exact(rows));
            for (c, (out, first)) in pairs.enumerate() {
                base.after(first, c, out);
            }
            spare = acc.replace(square);
            let acc = acc.as_mut().expect("just squared");
            if (times >> bit) & 1 == 1 {
                let one = one.as_ref().expect("held until its last run");
                column.resize(acc.rows, 0.0);
                for c in 0..acc.columns.len() / acc.rows {
                    let first = &mut acc.columns[c * acc.rows..][..acc.rows];
                    one.after(first, c, &mut column);
                    first.copy_from_slice(&column);
                }
            }
            if times & ((1 << bit) - 1) == 0 {
                spare = spare.or(one.take());
            }
        }
        acc.or(one).expect("a power is held")
    }

    /// Writes into `out` column `c` of the map of running `first` and
    /// then `self`, from `first`'s column `c` alone: `[A₂A₁, A₂B₁ + B₂;
    /// P₁ + P₂A₁, D₁ + D₂ + P₂B₁]`. The probe sums add up, and the rails
    /// hold across both runs.
    fn after(&self, first: &[f64], c: usize, out: &mut [f64]) {
        let (dim, rows) = (self.dim, self.rows);
        if c < dim {
            out.fill(0.0);
        } else {
            out.copy_from_slice(&self.columns[c * rows..][..rows]);
        }
        for (o, &x) in out[dim..].iter_mut().zip(&first[dim..]) {
            *o += x;
        }
        add_combination(&self.columns, &first[..dim], out);
    }

    /// The release and remainder kernels from lag 0 on. Stops at
    /// `max_lags`, or before the first lag whose release kernel's
    /// largest entry falls below `floor` times `J_0`'s.
    pub(crate) fn lag_kernels(&self, max_lags: usize, floor: f64) -> LagKernels {
        let (dim, rows) = (self.dim, self.rows);
        let rail_columns = self.columns[dim * rows..].chunks_exact(rows);
        let rails = rail_columns.len();
        let mut remainder: Vec<f64> = rail_columns
            .clone()
            .flat_map(|c| &c[dim..])
            .copied()
            .collect();
        // `reach` holds A^ℓ·X, then A^ℓ·B, column-major `dim × 2 rails`;
        // one product with `[A; P]` gives A^(ℓ+1)·X and A^(ℓ+1)·B below
        // J_ℓ and K_(ℓ+1).
        let mut reach: Vec<f64> = self.rest.clone();
        reach.extend(rail_columns.flat_map(|c| &c[..dim]));
        let mut next = vec![0.0; rows * 2 * rails];
        let mut release = Vec::new();
        let mut cutoff = 0.0;
        for lag in 0..max_lags {
            for (column, from) in next.chunks_exact_mut(rows).zip(reach.chunks_exact(dim)) {
                column.fill(0.0);
                add_combination(&self.columns, from, column);
            }
            let (released, remaining) = next.split_at(rows * rails);
            let start = release.len();
            release.extend(released.chunks_exact(rows).flat_map(|c| &c[dim..]));
            if lag == 0 {
                cutoff = floor * max_abs(&release);
            } else if max_abs(&release[start..]) < cutoff {
                release.truncate(start);
                break;
            }
            remainder.extend(remaining.chunks_exact(rows).flat_map(|c| &c[dim..]));
            for (to, column) in reach.chunks_exact_mut(dim).zip(next.chunks_exact(rows)) {
                to.copy_from_slice(&column[..dim]);
            }
        }
        remainder.truncate(release.len());
        LagKernels { release, remainder }
    }
}

/// Adds `Σ_k x[k]·a_k` to `out`, where `a_k` is column `k` of the
/// column-major `a` with `out.len()` rows.
fn add_combination(a: &[f64], x: &[f64], out: &mut [f64]) {
    for (&xk, column) in x.iter().zip(a.chunks_exact(out.len())) {
        for (o, &m) in out.iter_mut().zip(column) {
            *o += xk * m;
        }
    }
}

/// The largest magnitude in `values` (0 when empty).
fn max_abs(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Dense LU factors with partial pivoting.
#[derive(Debug, Clone)]
pub(crate) struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    pivots: Vec<usize>,
}

impl LuFactors {
    /// Factors a dense row-major `n × n` matrix.
    pub(crate) fn factor(mut a: Vec<f64>, n: usize) -> Result<Self, CircuitError> {
        assert_eq!(a.len(), n * n, "matrix buffer size mismatch");
        let mut pivots = vec![0usize; n];
        for col in 0..n {
            // Partial pivot.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for row in (col + 1)..n {
                let val = a[row * n + col].abs();
                if val > pivot_val {
                    pivot_val = val;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-300 {
                return Err(CircuitError::SingularMatrix { column: col });
            }
            pivots[col] = pivot_row;
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
            }
            let diag = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / diag;
                a[row * n + col] = factor;
                for k in (col + 1)..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
            }
        }
        Ok(Self { n, lu: a, pivots })
    }

    /// Solves `A x = b` in place.
    // Index arithmetic mirrors the dense row-major LU layout; iterator
    // forms of the substitution loops obscure the triangular structure.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs size mismatch");
        for col in 0..n {
            b.swap(col, self.pivots[col]);
        }
        // Forward substitution (L has unit diagonal).
        for row in 1..n {
            let mut sum = b[row];
            for col in 0..row {
                sum -= self.lu[row * n + col] * b[col];
            }
            b[row] = sum;
        }
        // Backward substitution.
        for row in (0..n).rev() {
            let mut sum = b[row];
            for col in (row + 1)..n {
                sum -= self.lu[row * n + col] * b[col];
            }
            b[row] = sum / self.lu[row * n + row];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_small_system() {
        // [2 1; 1 3] x = [3; 5] ⇒ x = [0.8, 1.4].
        let lu = LuFactors::factor(vec![2.0, 1.0, 1.0, 3.0], 2).unwrap();
        let mut b = vec![3.0, 5.0];
        lu.solve(&mut b);
        assert!((b[0] - 0.8).abs() < 1e-12);
        assert!((b[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn lu_pivots_on_zero_diagonal() {
        // [0 1; 1 0] requires pivoting.
        let lu = LuFactors::factor(vec![0.0, 1.0, 1.0, 0.0], 2).unwrap();
        let mut b = vec![2.0, 3.0];
        lu.solve(&mut b);
        assert_eq!(b, vec![3.0, 2.0]);
    }

    #[test]
    fn lu_rejects_singular() {
        assert!(matches!(
            LuFactors::factor(vec![1.0, 1.0, 1.0, 1.0], 2),
            Err(CircuitError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        // 1 kΩ drive into 1 pF: v(t) = 1 − exp(−t/τ), τ = 1 ns.
        let mut net = Netlist::new(1);
        net.capacitor(1, 0, 1e-12);
        net.drive(1, 1e-3, 1.0);
        let h = 1e-11; // τ/100
        let mut sim = net.transient(h).unwrap();
        let mut t = 0.0;
        for _ in 0..300 {
            sim.step();
            t += h;
            let expect = 1.0 - (-t / 1e-9).exp();
            assert!(
                (sim.voltage(1) - expect).abs() < 0.01,
                "t = {t:.2e}: {} vs {}",
                sim.voltage(1),
                expect
            );
        }
    }

    #[test]
    fn supply_charge_equals_c_times_v() {
        // Charging C from 0 to V draws Q = C·V from the rail regardless
        // of the resistance — the invariant the energy model relies on.
        let c = 50e-15;
        let mut net = Netlist::new(1);
        net.capacitor(1, 0, c);
        net.drive(1, 1.0 / 250.0, 1.0);
        let h = 1e-13;
        let mut sim = net.transient(h).unwrap();
        let mut charge = 0.0;
        for _ in 0..4000 {
            sim.step();
            charge += sim.drive_current(0) * h;
        }
        assert!((charge - c).abs() / c < 1e-3, "Q = {charge:.4e}");
    }

    #[test]
    fn coupled_caps_share_charge() {
        // Two nodes coupled by C_c: raising node 1 bumps node 2.
        let mut net = Netlist::new(2);
        net.capacitor(1, 0, 10e-15);
        net.capacitor(2, 0, 10e-15);
        net.capacitor(1, 2, 10e-15);
        net.drive(1, 1.0 / 100.0, 1.0);
        net.drive(2, 1e-9, 0.0); // weak hold at ground
        let mut sim = net.transient(1e-13).unwrap();
        let mut peak: f64 = 0.0;
        for _ in 0..500 {
            sim.step();
            peak = peak.max(sim.voltage(2));
        }
        assert!(peak > 0.2, "coupling bump = {peak}");
    }

    #[test]
    fn rail_switching_discharges_node() {
        let mut net = Netlist::new(1);
        net.capacitor(1, 0, 1e-12);
        let d = net.drive(1, 1e-3, 1.0);
        let mut sim = net.transient(1e-11).unwrap();
        for _ in 0..1000 {
            sim.step();
        }
        assert!(sim.voltage(1) > 0.999);
        sim.set_rail(d, 0.0);
        for _ in 0..1000 {
            sim.step();
        }
        assert!(sim.voltage(1) < 0.001);
    }

    #[test]
    fn transient_rejects_bad_step() {
        let net = Netlist::new(1);
        assert!(matches!(
            net.transient(0.0),
            Err(CircuitError::NonPositiveParameter { name: "h" })
        ));
    }

    #[test]
    fn floating_node_detected() {
        // A node with only a capacitor still has the C/h stamp, so make
        // one with nothing at all.
        let mut net = Netlist::new(2);
        net.drive(1, 1e-3, 1.0);
        // Node 2 left completely floating.
        assert!(matches!(
            net.transient(1e-12),
            Err(CircuitError::SingularMatrix { .. })
        ));
    }
}

#[cfg(test)]
mod rl_tests {
    use super::*;

    #[test]
    fn rl_branch_acts_as_resistor_at_dc() {
        // 1 V rail → RL branch (1 kΩ, 10 nH) → 1 kΩ to ground: after the
        // L/R time constant the divider sits at 1/3 and 2/3… with the
        // drive resistance the chain is 1k (drive) + 1k (RL) + 1k (R).
        let mut net = Netlist::new(2);
        let branch = net.rl_branch(1, 2, 1.0e3, 10.0e-9);
        net.resistor(2, 0, 1.0e3);
        net.drive(1, 1e-3, 1.0);
        let mut sim = net.transient(1e-11).unwrap();
        for _ in 0..20_000 {
            sim.step();
        }
        assert!((sim.voltage(1) - 2.0 / 3.0).abs() < 1e-4);
        assert!((sim.voltage(2) - 1.0 / 3.0).abs() < 1e-4);
        // Branch current = 1 V / 3 kΩ.
        assert!((sim.branch_current(branch) - 1.0 / 3.0e3).abs() < 1e-7);
    }

    #[test]
    fn rl_current_rises_with_the_analytic_time_constant() {
        // Series R–L from a stiff source: i(t) = (V/R)(1 − exp(−tR/L)).
        let (r, l) = (100.0, 1.0e-6); // τ = 10 ns
        let mut net = Netlist::new(1);
        let branch = net.rl_branch(1, 0, r, l);
        net.drive(1, 1.0e3, 1.0); // 1 mΩ source ≈ ideal
        let h = 1e-10;
        let mut sim = net.transient(h).unwrap();
        let mut t = 0.0;
        for _ in 0..400 {
            sim.step();
            t += h;
            let expect = 1.0 / r * (1.0 - (-t * r / l).exp());
            let got = sim.branch_current(branch);
            assert!(
                (got - expect).abs() < 0.02 / r,
                "t = {t:.2e}: i = {got:.5e}, expected {expect:.5e}"
            );
        }
    }

    #[test]
    fn zero_inductance_branch_equals_plain_resistor() {
        let mut rl = Netlist::new(1);
        rl.rl_branch(1, 0, 500.0, 0.0);
        rl.drive(1, 1e-3, 1.0);
        let mut a = rl.transient(1e-12).unwrap();

        let mut plain = Netlist::new(1);
        plain.resistor(1, 0, 500.0);
        plain.drive(1, 1e-3, 1.0);
        let mut b = plain.transient(1e-12).unwrap();

        for _ in 0..100 {
            a.step();
            b.step();
            assert!((a.voltage(1) - b.voltage(1)).abs() < 1e-12);
        }
    }

    #[test]
    fn lc_step_response_rings() {
        // Underdamped series R-L-C step response: the far node must
        // overshoot the rail and ring back - behaviour a pure RC network
        // can never show.
        let mut net = Netlist::new(2);
        net.rl_branch(1, 2, 0.5, 1e-9); // 0.5 ohm, 1 nH
        net.capacitor(2, 0, 1e-12); // Z0 = sqrt(L/C) ~ 31.6 ohm >> losses
        net.drive(1, 1.0, 1.0); // stiff 1 ohm source
        let mut sim = net.transient(1e-13).unwrap();
        let mut peak = f64::NEG_INFINITY;
        let mut dip_after_peak = f64::INFINITY;
        for _ in 0..80_000 {
            sim.step();
            let v2 = sim.voltage(2);
            if v2 > peak {
                peak = v2;
            } else {
                dip_after_peak = dip_after_peak.min(v2);
            }
        }
        assert!(peak > 1.2, "no overshoot: peak = {peak}");
        assert!(dip_after_peak < 0.9, "no ring-back: dip = {dip_after_peak}");
        // And it settles to the rail eventually.
        assert!((sim.voltage(2) - 1.0).abs() < 0.05);
    }
}

#[cfg(test)]
mod cycle_map_tests {
    use super::*;
    use proptest::prelude::*;

    /// A coupled RLC netlist: two driven lines (nodes 1–2 and 3–4)
    /// with capacitive coupling, inductive and purely resistive RL
    /// branches, and a resistor to ground.
    fn coupled_rlc() -> Netlist {
        let mut net = Netlist::new(4);
        net.rl_branch(1, 2, 20.0, 2e-11);
        net.rl_branch(3, 4, 30.0, 0.0);
        net.rl_branch(2, 0, 5e3, 1e-9);
        for node in 1..=4 {
            net.capacitor(node, 0, 2e-15 * node as f64);
        }
        net.capacitor(1, 3, 3e-15);
        net.capacitor(2, 4, 4e-15);
        net.resistor(4, 0, 1e4);
        net.drive(1, 1.0 / 1.5e3, 0.0);
        net.drive(3, 1.0 / 2.5e3, 0.0);
        net
    }

    /// The probe nodes of the two driven lines, and the nodes each rail
    /// is taken to settle. The map is exact for any choice; these are
    /// not the netlist's DC states, which the resistors to ground pull
    /// down, so the rail columns are far from zero.
    const PROBES: [usize; 2] = [1, 3];
    fn settled() -> Vec<Vec<usize>> {
        vec![vec![1, 2], vec![3, 4]]
    }

    /// `[next state, sums of probes]` of the map from `state` at `rails`,
    /// back in the simulator's coordinates.
    fn image(
        map: &CycleMap,
        steps: usize,
        probes: &[usize],
        state: &[f64],
        rails: &[f64],
    ) -> Vec<f64> {
        let dim = map.dim;
        let mut input: Vec<f64> = state.iter().chain(rails).copied().collect();
        for (rest, &r) in map.rest.chunks_exact(dim).zip(rails) {
            for (x, s) in input[..dim].iter_mut().zip(rest) {
                *x -= r * s;
            }
        }
        let mut out = vec![0.0; map.rows];
        add_combination(&map.columns, &input, &mut out);
        for (rest, &r) in map.rest.chunks_exact(dim).zip(rails) {
            for (x, s) in out[..dim].iter_mut().zip(rest) {
                *x += r * s;
            }
            for (sum, &node) in out[dim..].iter_mut().zip(probes) {
                *sum += steps as f64 * r * rest[node - 1];
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn cycle_map_equals_direct_steps(
            volts in prop::collection::vec(-1.0..1.0f64, 4),
            amps in prop::collection::vec(-1e-3..1e-3f64, 3),
            rails in prop::collection::vec(-1.0..1.0f64, 2),
            steps in 1..=30usize,
        ) {
            let probes = [1, 4, 2];
            let mut sim = coupled_rlc().transient(1e-12).unwrap();
            let map = sim.clone().cycle_map(steps, &probes, &settled());
            prop_assert_eq!(map.dim, 7);
            prop_assert_eq!(map.rows, 10);

            sim.v.copy_from_slice(&volts);
            sim.branch_currents.copy_from_slice(&amps);
            for (k, &r) in rails.iter().enumerate() {
                sim.set_rail(k, r);
            }
            let state: Vec<f64> = volts.iter().chain(&amps).copied().collect();
            let out = image(&map, steps, &probes, &state, &rails);

            let mut sums = [0.0; 3];
            for _ in 0..steps {
                sim.step();
                for (sum, &node) in sums.iter_mut().zip(&probes) {
                    *sum += sim.voltage(node);
                }
            }
            let direct: Vec<f64> =
                sim.v.iter().chain(&sim.branch_currents).chain(&sums).copied().collect();
            // Voltages, currents and sums each compared at their own scale.
            for (range, scale) in [(0..4, 1.0), (4..7, 1e-3), (7..10, steps as f64)] {
                for i in range {
                    prop_assert!(
                        (out[i] - direct[i]).abs() <= 1e-12 * scale,
                        "entry {}: map {:e} vs steps {:e}", i, out[i], direct[i]
                    );
                }
            }
        }
    }

    #[test]
    fn zero_input_maps_to_exact_zero() {
        let sim = coupled_rlc().transient(1e-12).unwrap();
        let map = sim.cycle_map(24, &PROBES, &settled());
        let out = image(&map, 24, &PROBES, &[0.0; 7], &[0.0; 2]);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn lag_kernels_rebuild_the_probe_sums_of_a_rail_sequence() {
        // Stepped from the zero state, cycle `t`'s probe sums are
        // `steps·r_t + Σ_ℓ K_ℓ·r_(t−ℓ) + Σ_ℓ J_ℓ·(r_(t−ℓ−1) − r_(t−ℓ))`.
        let steps = 24;
        let rails = [
            [1.0, 0.0],
            [1.0, 1.0],
            [0.0, 1.0],
            [0.0, 0.0],
            [0.7, -0.4],
            [0.0, 0.0],
        ];
        let mut sim = coupled_rlc().transient(1e-12).unwrap();
        let kernels = sim
            .clone()
            .cycle_map(steps, &PROBES, &settled())
            .lag_kernels(rails.len(), 0.0);
        assert_eq!(kernels.release.len(), rails.len() * 4);
        assert_eq!(kernels.remainder.len(), rails.len() * 4);
        let rail = |t: usize, j: usize| rails.get(t).map_or(0.0, |r| r[j]);
        for (t, r) in rails.iter().enumerate() {
            sim.set_rail(0, r[0]);
            sim.set_rail(1, r[1]);
            let mut sums = [0.0; 2];
            for _ in 0..steps {
                sim.step();
                for (sum, &node) in sums.iter_mut().zip(&PROBES) {
                    *sum += sim.voltage(node);
                }
            }
            for (i, &direct) in sums.iter().enumerate() {
                let mut rebuilt = steps as f64 * r[i];
                for lag in 0..=t {
                    for j in 0..2 {
                        let k = (lag * 2 + j) * 2 + i;
                        let before = if lag < t { rail(t - lag - 1, j) } else { 0.0 };
                        rebuilt += kernels.remainder[k] * rail(t - lag, j);
                        rebuilt += kernels.release[k] * (before - rail(t - lag, j));
                    }
                }
                assert!(
                    (rebuilt - direct).abs() <= 1e-12 * steps as f64,
                    "cycle {t}, probe {i}: kernels {rebuilt:e} vs steps {direct:e}"
                );
            }
        }
    }

    #[test]
    fn lag_kernels_stop_below_the_floor_or_at_the_cap() {
        let map = coupled_rlc()
            .transient(1e-12)
            .unwrap()
            .cycle_map(24, &PROBES, &settled());
        assert_eq!(map.lag_kernels(1, 1e-18).release.len(), 4, "J_0 alone");
        let kept = map.lag_kernels(usize::MAX, 1e-3).release.len() / 4;
        assert!(kept > 1 && kept < 1_000, "{kept} lags kept");
        let all = map.lag_kernels(kept + 1, 0.0).release;
        let j0 = max_abs(&all[..4]);
        assert!(max_abs(&all[4 * kept..]) < 1e-3 * j0);
        assert!(max_abs(&all[4 * (kept - 1)..4 * kept]) >= 1e-3 * j0);
    }
}
