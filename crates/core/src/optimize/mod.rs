//! Optimisers for the power-optimal assignment (paper Eq. 10).
//!
//! The paper determines `Aπ̂ = arg min ⟨T', C'⟩` with "any of the several
//! optimization tools available" and uses simulated annealing as the
//! example; bundle sizes are small (tens of TSVs), so runtimes are
//! negligible. This module provides:
//!
//! * [`exhaustive`] — exact search over all signed permutations, for
//!   small bundles and for validating the heuristics;
//! * [`anneal`] — simulated annealing with swap and inversion-flip moves
//!   (the paper's choice);
//! * [`greedy_two_opt`] — deterministic best-improvement local search,
//!   a cheap and surprisingly strong baseline;
//! * [`worst_case`] — the *maximising* counterpart used as the
//!   "worst-case random assignment" reference of Fig. 2;
//! * [`random_mean`] — the mean power over uniformly random (uninverted)
//!   assignments, the baseline of Figs. 4 and 5;
//! * [`branch_and_bound`] — an exact solver with admissible lower
//!   bounds, extending provably optimal solutions to full 3×3 bundles
//!   with inversions (an ablation subject in DESIGN.md).
//!
//! # One annealing engine
//!
//! [`anneal`], [`anneal_with_objective`] and [`worst_case`] run one
//! engine with different settings (seed salt, draw kind, direction,
//! cooling). It prices moves incrementally, an O(n) delta instead of an
//! O(n²) re-evaluation: power from line-indexed occupant state kept
//! across moves, any other [`Objective`] through its `delta_swap`/
//! `delta_flip` ([`FnObjective`] falls back to mutate–evaluate–revert).
//! Accumulated deltas are resynchronised against a full evaluation every
//! 1024 accepted moves, and each restart's final value is recomputed
//! exactly before the reduction, so float drift can neither corrupt the
//! reported power nor flip which restart wins.

mod bnb;

pub use bnb::{branch_and_bound, branch_and_bound_with_telemetry, BnbOptions, BnbOutcome};

use crate::problem::Occupants;
use crate::{AssignmentProblem, CoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use tsv3d_matrix::SignedPerm;
use tsv3d_telemetry::{TelemetryHandle, Value};

/// An optimisation outcome: the assignment and its normalised power.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResult {
    /// The best assignment found.
    pub assignment: SignedPerm,
    /// Its normalised power `⟨T', C'⟩`.
    pub power: f64,
}

/// Parameters of the simulated-annealing search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealOptions {
    /// Moves per restart.
    pub iterations: usize,
    /// Independent restarts (the best result wins).
    pub restarts: usize,
    /// RNG seed (searches are deterministic given the seed).
    pub seed: u64,
    /// Worker threads the restarts fan out over; `0` means one per
    /// available CPU. Each restart draws from its own seed stream and
    /// the reduction happens in restart order, so the result is
    /// bit-identical for every thread count.
    pub threads: usize,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        Self {
            iterations: 20_000,
            restarts: 3,
            seed: 0x5EED,
            threads: 1,
        }
    }
}

impl AnnealOptions {
    /// The resolved worker-pool size: `threads`, or the machine's
    /// available parallelism when `threads == 0` (at least 1).
    pub fn worker_count(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            t => t,
        }
    }
}

/// A minimisation target the annealer can price incrementally.
///
/// `eval` is the ground truth; `delta_swap`/`delta_flip` price a
/// candidate move *without* committing it and default to a
/// mutate–evaluate–revert round trip (correct for any objective, O(full
/// eval) per move). Implementations with cheap exact deltas —
/// [`PowerObjective`], [`PowerCrosstalkObjective`] — override them with
/// O(n) pricing; the annealer resynchronises the accumulated value
/// against `eval` every 1024 accepts, so a delta only needs to be
/// accurate to float-rounding, not bit-exact.
///
/// Objectives must be `Sync`: restarts fan out over scoped worker
/// threads that share the objective by reference.
pub trait Objective: Sync {
    /// The objective value of `assignment` (full evaluation).
    fn eval(&self, assignment: &SignedPerm) -> f64;

    /// Price swapping the occupants of lines `a` and `b`:
    /// `eval(after) - current`. Must leave `assignment` unchanged.
    fn delta_swap(&self, assignment: &mut SignedPerm, current: f64, a: usize, b: usize) -> f64 {
        assignment.swap_lines(a, b);
        let value = self.eval(assignment);
        assignment.swap_lines(a, b);
        value - current
    }

    /// Price flipping the inversion of `bit`: `eval(after) - current`.
    /// Must leave `assignment` unchanged.
    fn delta_flip(&self, assignment: &mut SignedPerm, current: f64, bit: usize) -> f64 {
        assignment.flip_bit(bit);
        let value = self.eval(assignment);
        assignment.flip_bit(bit);
        value - current
    }
}

/// Wraps an arbitrary closure as an [`Objective`] with the default
/// (full-evaluation) move pricing — what [`anneal_objective`] uses
/// under the hood.
pub struct FnObjective<F>(pub F);

impl<F: Fn(&SignedPerm) -> f64 + Sync> Objective for FnObjective<F> {
    fn eval(&self, assignment: &SignedPerm) -> f64 {
        (self.0)(assignment)
    }
}

/// The paper's Eq. 10 power objective with O(n) incremental pricing.
pub struct PowerObjective<'p> {
    problem: &'p AssignmentProblem,
}

impl<'p> PowerObjective<'p> {
    /// Builds the objective for `problem`.
    pub fn new(problem: &'p AssignmentProblem) -> Self {
        Self { problem }
    }
}

impl Objective for PowerObjective<'_> {
    fn eval(&self, assignment: &SignedPerm) -> f64 {
        self.problem.power(assignment)
    }

    fn delta_swap(&self, assignment: &mut SignedPerm, _current: f64, a: usize, b: usize) -> f64 {
        self.problem.swap_lines_delta(assignment, a, b)
    }

    fn delta_flip(&self, assignment: &mut SignedPerm, _current: f64, bit: usize) -> f64 {
        self.problem.flip_bit_delta(assignment, bit)
    }
}

/// `power + λ · crosstalk_activity` with O(n) incremental pricing —
/// the multi-objective of the Pareto study, now priced per move instead
/// of re-evaluated from scratch.
pub struct PowerCrosstalkObjective<'p> {
    problem: &'p AssignmentProblem,
    lambda: f64,
}

impl<'p> PowerCrosstalkObjective<'p> {
    /// Builds the combined objective with crosstalk weight `lambda`.
    pub fn new(problem: &'p AssignmentProblem, lambda: f64) -> Self {
        Self { problem, lambda }
    }
}

impl Objective for PowerCrosstalkObjective<'_> {
    fn eval(&self, assignment: &SignedPerm) -> f64 {
        self.problem.power(assignment) + self.lambda * self.problem.crosstalk_activity(assignment)
    }

    fn delta_swap(&self, assignment: &mut SignedPerm, _current: f64, a: usize, b: usize) -> f64 {
        self.problem.swap_lines_delta(assignment, a, b)
            + self.lambda * self.problem.crosstalk_swap_delta(assignment, a, b)
    }

    fn delta_flip(&self, assignment: &mut SignedPerm, _current: f64, bit: usize) -> f64 {
        self.problem.flip_bit_delta(assignment, bit)
            + self.lambda * self.problem.crosstalk_flip_delta(assignment, bit)
    }
}

/// SplitMix64 finaliser over a stream-salted state. Restart `r` draws
/// from stream `r + 1` and the calibration probe from stream `0`, so
/// streams stay statistically independent even for small consecutive
/// user seeds — and a restart's stream depends only on
/// `(seed, restart)`, never on which worker runs it, which is what
/// makes the engine's result independent of the thread count.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `jobs` independent restarts over at most `threads` scoped
/// workers and returns the results in job order. Worker `w` takes jobs
/// `w, w + W, …` — restarts cost the same, so striding balances the
/// pool without a queue. Each worker builds one `init()` state and
/// threads it through its jobs, so per-restart scratch buffers are
/// allocated once per worker, not once per restart. The pool is capped
/// at the machine's available parallelism: oversubscribing cores would
/// only add scheduler churn, and with one worker (or one job) the whole
/// fan-out runs inline on the caller's thread with no spawn at all. A
/// panicking job propagates.
fn fan_out<R: Send, S>(
    jobs: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = threads.min(cores).clamp(1, jobs.max(1));
    if workers == 1 {
        let mut state = init();
        return (0..jobs).map(|i| job(&mut state, i)).collect();
    }
    let mut slots: Vec<Option<R>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let init = &init;
                let job = &job;
                scope.spawn(move || -> Vec<(usize, R)> {
                    let mut state = init();
                    (w..jobs)
                        .step_by(workers)
                        .map(|i| (i, job(&mut state, i)))
                        .collect()
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("optimizer worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("strides cover every job"))
        .collect()
}

/// Two *distinct* entries of `lines`, uniform over ordered pairs.
/// Drawing the endpoints independently would propose degenerate
/// self-swaps (delta = 0) that are always "accepted", wasting the
/// iteration and inflating acceptance telemetry.
fn distinct_pair(rng: &mut StdRng, lines: &[usize]) -> (usize, usize) {
    debug_assert!(lines.len() >= 2, "caller guards the flip-only case");
    let a = rng.gen_range(0..lines.len());
    let mut b = rng.gen_range(0..lines.len() - 1);
    if b >= a {
        b += 1;
    }
    (lines[a], lines[b])
}

/// Per-worker reusable state: every buffer a restart needs, allocated
/// once and recycled, so the steady-state move loop allocates nothing.
struct RestartScratch {
    /// Shuffle pool for the free lines (Fisher–Yates workspace).
    pool: Vec<usize>,
    /// `line_of_bit` under construction.
    lines: Vec<usize>,
    /// Inversion flags under construction.
    inverted: Vec<bool>,
    /// The walking state of the current restart.
    current: SignedPerm,
    /// The restart-local best (updated by copy-in, never re-allocated).
    best: SignedPerm,
    /// `current`'s occupants, for power pricing.
    occupants: Occupants,
}

impl RestartScratch {
    fn new(problem: &AssignmentProblem) -> Self {
        let n = problem.n();
        Self {
            pool: Vec::with_capacity(n),
            lines: Vec::with_capacity(n),
            inverted: Vec::with_capacity(n),
            current: problem.base_assignment(),
            best: problem.base_assignment(),
            occupants: Occupants::default(),
        }
    }

    /// Applies an accepted move to `current` and, if the walk prices
    /// from them, to the occupants.
    fn apply(&mut self, mv: Move, occupants: bool) {
        match mv {
            Move::Swap(x, y) => {
                self.current.swap_lines(x, y);
                if occupants {
                    self.occupants.swap(x, y);
                }
            }
            Move::Flip(bit) => {
                if occupants {
                    self.occupants.flip(self.current.line_of_bit(bit));
                }
                self.current.flip_bit(bit);
            }
        }
    }
}

/// Draws a uniformly random pin-respecting permutation into
/// `scratch.current`, reusing every buffer. With `signed`, inversions
/// are drawn for invertible bits: one `gen_bool` per invertible bit and
/// none otherwise. Committed results depend on this draw order.
fn draw_feasible(
    problem: &AssignmentProblem,
    rng: &mut StdRng,
    scratch: &mut RestartScratch,
    signed: bool,
) {
    let n = problem.n();
    scratch.pool.clear();
    scratch.pool.extend_from_slice(problem.free_lines());
    for i in (1..scratch.pool.len()).rev() {
        scratch.pool.swap(i, rng.gen_range(0..=i));
    }
    let mut free = scratch.pool.iter();
    scratch.lines.clear();
    scratch.lines.extend((0..n).map(|bit| {
        problem
            .pin_of(bit)
            .unwrap_or_else(|| *free.next().expect("free lines match free bits"))
    }));
    scratch.inverted.clear();
    scratch
        .inverted
        .extend((0..n).map(|bit| signed && problem.is_invertible(bit) && rng.gen_bool(0.5)));
    scratch
        .current
        .set_from_parts(&scratch.lines, &scratch.inverted)
        .expect("shuffled permutation is valid");
}

/// A proposed move: swap the occupants of two lines, or flip a bit.
#[derive(Clone, Copy)]
enum Move {
    Swap(usize, usize),
    Flip(usize),
}

/// How the engine prices moves: power from the walking state's
/// [`Occupants`], or any [`Objective`]. Each walk compiles to a loop
/// specialised for its pricing.
trait Pricing: Sync {
    /// Moves are priced from `scratch.occupants`, which the walk then
    /// loads after each draw and updates on each accepted move.
    const OCCUPANTS: bool = false;
    /// The full evaluation a walk starts from and resynchronises to.
    fn eval(&self, a: &SignedPerm) -> f64;
    /// `eval(after) − value` of `mv`; leaves the state unchanged.
    fn delta(&self, scratch: &mut RestartScratch, value: f64, mv: Move) -> f64;
}

impl<O: Objective> Pricing for O {
    fn eval(&self, a: &SignedPerm) -> f64 {
        Objective::eval(self, a)
    }

    fn delta(&self, scratch: &mut RestartScratch, value: f64, mv: Move) -> f64 {
        match mv {
            Move::Swap(x, y) => self.delta_swap(&mut scratch.current, value, x, y),
            Move::Flip(bit) => self.delta_flip(&mut scratch.current, value, bit),
        }
    }
}

/// Eq. 10 power, priced from the walking state's [`Occupants`].
struct OccupantPower<'p>(&'p AssignmentProblem);

impl Pricing for OccupantPower<'_> {
    const OCCUPANTS: bool = true;

    fn eval(&self, a: &SignedPerm) -> f64 {
        self.0.power(a)
    }

    fn delta(&self, scratch: &mut RestartScratch, _value: f64, mv: Move) -> f64 {
        match mv {
            Move::Swap(x, y) => scratch.occupants.swap_delta(self.0, x, y),
            Move::Flip(bit) => {
                let line = scratch.current.line_of_bit(bit);
                scratch.occupants.flip_delta(self.0, line)
            }
        }
    }
}

/// What sets one annealer apart from another; the walk is [`walk`]'s.
struct Walk<'t> {
    /// XOR-ed into `options.seed` before the seed streams are derived.
    salt: u64,
    /// Draws and flips inversions; an unsigned walk only swaps.
    signed: bool,
    /// `1.0` minimises. `-1.0` maximises by walking the negated
    /// objective: negation is exact in every sum, comparison and
    /// Metropolis exponent, so the trajectory stays bit for bit.
    sign: f64,
    /// Cools by `(t_end / t_start)^(1/iterations)`, else by
    /// `1e-5^(1/iterations)` (equal in exact arithmetic, not in floats).
    calibrated_cooling: bool,
    /// The `core.anneal` span and the `anneal.*` events and counters.
    tel: &'t TelemetryHandle,
}

/// The one annealing engine behind [`anneal_with_telemetry`],
/// [`anneal_with_objective`] and [`worst_case`]: a probe calibrates the
/// start temperature, then each restart walks its own seed stream with
/// Metropolis moves, resynchronises its value every 1024 accepts and
/// re-evaluates its best exactly. The restart-order reduction keeps the
/// earliest restart on ties.
fn walk<P: Pricing>(
    problem: &AssignmentProblem,
    pricing: &P,
    options: &AnnealOptions,
    w: &Walk<'_>,
) -> Result<OptimizeResult, CoreError> {
    if options.iterations == 0 || options.restarts == 0 {
        return Err(CoreError::EmptyBudget);
    }
    let (tel, sign) = (w.tel, w.sign);
    let _span = tel.span("core.anneal");
    let observe = tel.is_enabled();
    let n = problem.n();
    let free_lines = problem.free_lines();
    let flips: &[usize] = if w.signed {
        problem.invertible_bits()
    } else {
        &[]
    };
    if free_lines.len() < 2 && flips.is_empty() {
        // No swap and no flip: the base assignment is the only feasible
        // point, so skip the probe (its spread would be degenerate).
        let a = problem.base_assignment();
        let power = pricing.eval(&a);
        return Ok(OptimizeResult { assignment: a, power });
    }
    let seed = options.seed ^ w.salt;

    // Probe the landscape to calibrate the temperature scale. The probe
    // has its own seed stream (restarts use streams 1..=R), so the
    // calibration is the same however many workers run later.
    let mut probe_rng = StdRng::seed_from_u64(stream_seed(seed, 0));
    let mut probe = RestartScratch::new(problem);
    let (mut probe_min, mut probe_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for _ in 0..32.max(n) {
        draw_feasible(problem, &mut probe_rng, &mut probe, w.signed);
        let v = pricing.eval(&probe.current);
        probe_min = probe_min.min(v);
        probe_max = probe_max.max(v);
    }
    let spread = (probe_max - probe_min).max(probe_max.abs() * 1e-6 + f64::MIN_POSITIVE);
    let t_start = 0.5 * spread;
    let t_end = 1e-5 * spread;
    let cooling = if w.calibrated_cooling {
        (t_end / t_start).powf(1.0 / options.iterations as f64)
    } else {
        1e-5f64.powf(1.0 / options.iterations as f64)
    };
    if observe {
        tel.event(
            "anneal.calibrated",
            &[
                ("t_start", Value::from(t_start)),
                ("t_end", Value::from(t_end)),
                ("probe_spread", Value::from(spread)),
                ("iterations", Value::from(options.iterations)),
                ("restarts", Value::from(options.restarts)),
                ("threads", Value::from(options.worker_count())),
            ],
        );
    }

    // Epoch granularity of the per-restart telemetry (≈32 reports).
    let epoch_len = (options.iterations / 32).max(1);
    let run_restart = |scratch: &mut RestartScratch, restart: usize| -> OptimizeResult {
        let rtel = if observe {
            tel.with_thread_label(&format!("r{restart}"))
        } else {
            TelemetryHandle::disabled()
        };
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, restart as u64 + 1));
        draw_feasible(problem, &mut rng, scratch, w.signed);
        if P::OCCUPANTS {
            scratch.occupants.load(problem, &scratch.current);
        }
        // The walk minimises `value`, the objective times `sign`.
        let mut value = sign * pricing.eval(&scratch.current);
        // The starting state seeds the restart-local best, so a best
        // exists even if every proposal is rejected.
        scratch.best.clone_from(&scratch.current);
        let mut best_value = value;
        let mut temperature = t_start;
        let mut accepts_since_resync = 0u32;
        // Per-epoch move mix, reset after each `anneal.epoch` event.
        let (mut ep_swaps, mut ep_flips, mut ep_accepts) = (0u64, 0u64, 0u64);
        for it in 0..options.iterations {
            let mv = if !flips.is_empty() && (free_lines.len() < 2 || rng.gen_bool(0.3)) {
                ep_flips += 1;
                Move::Flip(flips[rng.gen_range(0..flips.len())])
            } else {
                ep_swaps += 1;
                let (a, b) = distinct_pair(&mut rng, free_lines);
                Move::Swap(a, b)
            };
            let delta = sign * pricing.delta(scratch, sign * value, mv);
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                scratch.apply(mv, P::OCCUPANTS);
                value += delta;
                ep_accepts += 1;
                // Periodically recompute to cancel floating-point drift
                // from the accumulated deltas.
                accepts_since_resync += 1;
                if accepts_since_resync >= 1024 {
                    value = sign * pricing.eval(&scratch.current);
                    accepts_since_resync = 0;
                }
                if value < best_value {
                    scratch.best.clone_from(&scratch.current);
                    best_value = value;
                }
            }
            temperature *= cooling;
            if observe && ((it + 1) % epoch_len == 0 || it + 1 == options.iterations) {
                let proposals = ep_swaps + ep_flips;
                rtel.event(
                    "anneal.epoch",
                    &[
                        ("restart", Value::from(restart)),
                        ("iteration", Value::from(it + 1)),
                        ("temperature", Value::from(temperature)),
                        ("current_power", Value::from(sign * value)),
                        ("best_power", Value::from(sign * best_value)),
                        (
                            "accept_rate",
                            Value::from(ep_accepts as f64 / proposals.max(1) as f64),
                        ),
                        ("swap_moves", Value::from(ep_swaps)),
                        ("flip_moves", Value::from(ep_flips)),
                    ],
                );
                rtel.add("anneal.proposals", proposals);
                rtel.add("anneal.accepts", ep_accepts);
                rtel.add("anneal.swap_moves", ep_swaps);
                rtel.add("anneal.flip_moves", ep_flips);
                (ep_swaps, ep_flips, ep_accepts) = (0, 0, 0);
            }
        }
        rtel.add("anneal.restarts", 1);
        // Exact value per restart: the tracked value carries
        // accumulated-delta rounding, and comparing drifted values in
        // the reduction could crown the wrong restart.
        OptimizeResult {
            assignment: scratch.best.clone(),
            power: pricing.eval(&scratch.best),
        }
    };
    let locals = fan_out(
        options.restarts,
        options.worker_count(),
        || RestartScratch::new(problem),
        run_restart,
    );
    // `min_by` keeps the earlier of two equal results, and an unordered
    // pair (NaN) counts as equal: a strict `<` in restart order.
    let order = |a: &OptimizeResult, b: &OptimizeResult| {
        (sign * a.power).partial_cmp(&(sign * b.power)).unwrap_or(Ordering::Equal)
    };
    Ok(locals.into_iter().min_by(order).expect("restarts >= 1 was checked"))
}

/// Exhaustive search over every permutation and every feasible inversion
/// subset — exact, but exponential.
///
/// # Errors
///
/// [`CoreError::TooLargeForExhaustive`] when `n! · 2^k` (with `k`
/// invertible bits) would exceed ≈3×10⁷ evaluations; use [`anneal`]
/// instead.
///
/// # Examples
///
/// ```
/// use tsv3d_core::{optimize, AssignmentProblem};
/// use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
/// use tsv3d_stats::{BitStream, SwitchingStats};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cap = LinearCapModel::fit(&Extractor::new(
///     TsvArray::new(2, 2, TsvGeometry::wide_2018())?,
/// ))?;
/// let s = BitStream::from_words(4, vec![0b0001, 0b1110, 0b0001, 0b1110])?;
/// let problem = AssignmentProblem::new(SwitchingStats::from_stream(&s), cap)?;
/// let best = optimize::exhaustive(&problem)?;
/// assert!(best.power <= problem.identity_power());
/// # Ok(())
/// # }
/// ```
pub fn exhaustive(problem: &AssignmentProblem) -> Result<OptimizeResult, CoreError> {
    let n = problem.n();
    let free_bits: Vec<usize> = (0..n).filter(|&b| problem.pin_of(b).is_none()).collect();
    let free_lines = problem.free_lines();
    let f = free_bits.len();
    let k = problem.invertible().iter().filter(|&&b| b).count();
    let perms: f64 = (1..=f).map(|i| i as f64).product();
    if perms * (k as f64).exp2() > 3.0e7 {
        return Err(CoreError::TooLargeForExhaustive { n, max: 8 });
    }

    let invertible_bits = problem.invertible_bits();
    let mut best: Option<OptimizeResult> = None;

    // Heap's algorithm over the free bits' slot order; slot `s` places
    // `order[s]` on `free_lines[s]`, pinned bits stay put.
    let mut order: Vec<usize> = free_bits.clone();
    let mut counters = vec![0usize; f.max(1)];
    let evaluate = |order: &[usize], best: &mut Option<OptimizeResult>| {
        let mut line_of_bit = vec![usize::MAX; n];
        for (bit, pin) in (0..n).map(|b| (b, problem.pin_of(b))) {
            if let Some(line) = pin {
                line_of_bit[bit] = line;
            }
        }
        for (slot, &bit) in order.iter().enumerate() {
            line_of_bit[bit] = free_lines[slot];
        }
        for mask in 0u64..(1u64 << invertible_bits.len()) {
            let mut inverted = vec![false; n];
            for (pos, &bit) in invertible_bits.iter().enumerate() {
                inverted[bit] = (mask >> pos) & 1 == 1;
            }
            let a = SignedPerm::from_parts(line_of_bit.clone(), inverted)
                .expect("generated permutation is valid");
            let p = problem.power(&a);
            if best.as_ref().is_none_or(|b| p < b.power) {
                *best = Some(OptimizeResult {
                    assignment: a,
                    power: p,
                });
            }
        }
    };

    evaluate(&order, &mut best);
    let mut i = 0;
    while i < f {
        if counters[i] < i {
            if i % 2 == 0 {
                order.swap(0, i);
            } else {
                order.swap(counters[i], i);
            }
            evaluate(&order, &mut best);
            counters[i] += 1;
            i = 0;
        } else {
            counters[i] = 0;
            i += 1;
        }
    }
    Ok(best.expect("at least the base assignment was evaluated"))
}

/// Simulated annealing over signed permutations (the paper's optimiser).
///
/// Moves are line swaps and inversion flips of invertible bits; the
/// temperature follows a geometric schedule calibrated from an initial
/// random probe of the power landscape. The returned assignment always
/// satisfies the problem's inversion constraints.
///
/// # Errors
///
/// [`CoreError::EmptyBudget`] if `iterations` or `restarts` is zero.
pub fn anneal(
    problem: &AssignmentProblem,
    options: &AnnealOptions,
) -> Result<OptimizeResult, CoreError> {
    anneal_with_telemetry(problem, options, &TelemetryHandle::disabled())
}

/// [`anneal`] with per-epoch instrumentation.
///
/// Emits `anneal.epoch` events (temperature, current/restart-best
/// power, acceptance rate, move mix) roughly 32 times per restart, plus
/// `anneal.calibrated` after the temperature probe, and accumulates
/// `anneal.*` counters on the handle. With `options.threads > 1` the
/// restarts run on a scoped worker pool; epoch events from restart `r`
/// then carry a `thread: "r<r>"` label so trace analysis can separate
/// the interleaved streams, and `best_power` is the *restart-local*
/// best (a cross-restart incumbent would make the event stream depend
/// on worker timing). Telemetry is purely observational: it never
/// touches the RNG or the accept/reject decisions, so for a given seed
/// the returned [`OptimizeResult`] is bit-identical to [`anneal`]'s
/// whatever sink is attached — and whatever the thread count.
///
/// # Errors
///
/// [`CoreError::EmptyBudget`] if `iterations` or `restarts` is zero.
pub fn anneal_with_telemetry(
    problem: &AssignmentProblem,
    options: &AnnealOptions,
    tel: &TelemetryHandle,
) -> Result<OptimizeResult, CoreError> {
    let w = Walk {
        salt: 0,
        signed: true,
        sign: 1.0,
        calibrated_cooling: true,
        tel,
    };
    walk(problem, &OccupantPower(problem), options, &w)
}

/// Simulated annealing over an *arbitrary* objective — the tool for
/// multi-objective studies such as the power/crosstalk trade-off
/// (`power + λ · crosstalk_activity`).
///
/// The closure is evaluated in full per candidate move; when an
/// incremental formulation exists, use [`anneal_with_objective`] with
/// an [`Objective`] implementation (e.g. [`PowerCrosstalkObjective`])
/// for O(n) move pricing instead. Moves are drawn from the same
/// feasible set as [`anneal`]'s — swaps over the unpinned lines, flips
/// of invertible bits — so the returned assignment satisfies the
/// problem's pin *and* inversion constraints. Restarts fan out over
/// `options.threads` workers with the same per-restart seed streams as
/// [`anneal`], so the result is bit-identical for every thread count
/// (the objective must be `Sync` for that reason).
///
/// # Errors
///
/// [`CoreError::EmptyBudget`] if `iterations` or `restarts` is zero.
///
/// # Examples
///
/// ```
/// use tsv3d_core::{optimize, AssignmentProblem};
/// use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
/// use tsv3d_stats::{BitStream, SwitchingStats};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cap = LinearCapModel::fit(&Extractor::new(
///     TsvArray::new(2, 2, TsvGeometry::wide_2018())?,
/// ))?;
/// let s = BitStream::from_words(4, vec![0b0001, 0b1110, 0b0011, 0b1100])?;
/// let problem = AssignmentProblem::new(SwitchingStats::from_stream(&s), cap)?;
/// // Jointly minimise power and crosstalk activity.
/// let best = optimize::anneal_objective(
///     &problem,
///     |a| problem.power(a) + 0.5 * problem.crosstalk_activity(a),
///     &optimize::AnnealOptions::default(),
/// )?;
/// assert!(problem.is_feasible(&best.assignment));
/// # Ok(())
/// # }
/// ```
pub fn anneal_objective(
    problem: &AssignmentProblem,
    objective: impl Fn(&SignedPerm) -> f64 + Sync,
    options: &AnnealOptions,
) -> Result<OptimizeResult, CoreError> {
    anneal_with_objective(problem, &FnObjective(objective), options)
}

/// Simulated annealing over a pluggable [`Objective`] with incremental
/// move pricing — the engine behind [`anneal_objective`].
///
/// It runs [`anneal`]'s engine from its own seed salt, at a fixed
/// cooling factor, and prices moves through
/// [`Objective::delta_swap`]/[`Objective::delta_flip`]: objectives with
/// O(n) deltas turn each iteration from O(n²) into O(n). The value is
/// resynchronised against [`Objective::eval`] every 1024 accepts and
/// each restart's best is re-evaluated exactly before the reduction.
///
/// # Errors
///
/// [`CoreError::EmptyBudget`] if `iterations` or `restarts` is zero.
///
/// # Examples
///
/// ```
/// use tsv3d_core::{optimize, AssignmentProblem};
/// use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
/// use tsv3d_stats::{BitStream, SwitchingStats};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cap = LinearCapModel::fit(&Extractor::new(
///     TsvArray::new(2, 2, TsvGeometry::wide_2018())?,
/// ))?;
/// let s = BitStream::from_words(4, vec![0b0001, 0b1110, 0b0011, 0b1100])?;
/// let problem = AssignmentProblem::new(SwitchingStats::from_stream(&s), cap)?;
/// let objective = optimize::PowerCrosstalkObjective::new(&problem, 0.5);
/// let best = optimize::anneal_with_objective(
///     &problem,
///     &objective,
///     &optimize::AnnealOptions::default(),
/// )?;
/// assert!(problem.is_feasible(&best.assignment));
/// # Ok(())
/// # }
/// ```
pub fn anneal_with_objective<O: Objective>(
    problem: &AssignmentProblem,
    objective: &O,
    options: &AnnealOptions,
) -> Result<OptimizeResult, CoreError> {
    let w = Walk {
        salt: 0x0B_1EC7,
        signed: true,
        sign: 1.0,
        calibrated_cooling: false,
        tel: &TelemetryHandle::disabled(),
    };
    walk(problem, objective, options, &w)
}

/// Deterministic greedy + 2-opt local search: repeatedly applies the
/// single best swap or feasible flip until no move improves the power.
///
/// Candidate moves are priced via the O(n) incremental deltas (one
/// sweep is O(n³) instead of the old O(n⁴)); the applied move's power
/// is then recomputed in full, so the reported power is exact and a
/// sub-rounding-error "improvement" cannot loop forever.
///
/// Converges to a local optimum; on the small bundles of the paper it is
/// usually within a percent of the annealed result and is fully
/// reproducible without a seed.
pub fn greedy_two_opt(problem: &AssignmentProblem) -> OptimizeResult {
    let mut current = problem.base_assignment();
    let mut current_power = problem.power(&current);
    let free_lines = problem.free_lines();
    loop {
        // Strictly-improving best move; scan order (swaps in line
        // order, then flips in bit order) matches the historical
        // full-recompute implementation, and strict `<` keeps the
        // earliest candidate on ties.
        let mut best_move: Option<(f64, Option<usize>, (usize, usize))> = None;
        // Swaps (among unpinned lines only).
        for (ai, &a) in free_lines.iter().enumerate() {
            for &b in &free_lines[ai + 1..] {
                let delta = problem.swap_lines_delta(&current, a, b);
                if delta < 0.0 && best_move.as_ref().is_none_or(|m| delta < m.0) {
                    best_move = Some((delta, None, (a, b)));
                }
            }
        }
        // Flips.
        for &bit in problem.invertible_bits() {
            let delta = problem.flip_bit_delta(&current, bit);
            if delta < 0.0 && best_move.as_ref().is_none_or(|m| delta < m.0) {
                best_move = Some((delta, Some(bit), (0, 0)));
            }
        }
        let Some((_, flip_bit, (a, b))) = best_move else {
            break;
        };
        match flip_bit {
            Some(bit) => current.flip_bit(bit),
            None => current.swap_lines(a, b),
        }
        // Exact re-evaluation of the applied move: if the "improvement"
        // was pure delta rounding, undo it and stop.
        let p = problem.power(&current);
        if p >= current_power {
            match flip_bit {
                Some(bit) => current.flip_bit(bit),
                None => current.swap_lines(a, b),
            }
            break;
        }
        current_power = p;
    }
    OptimizeResult {
        assignment: current,
        power: current_power,
    }
}

/// Simulated annealing towards the *highest* power, without inversions —
/// the "worst-case random assignment" reference of Fig. 2.
///
/// It is [`anneal`]'s engine maximising: it walks the negated power with
/// swaps only, from its own seed salt, at a fixed cooling factor. The
/// result is bit-identical for every thread count.
///
/// # Errors
///
/// [`CoreError::EmptyBudget`] if `iterations` or `restarts` is zero.
pub fn worst_case(
    problem: &AssignmentProblem,
    options: &AnnealOptions,
) -> Result<OptimizeResult, CoreError> {
    let w = Walk {
        salt: 0xBAD_C0DE,
        signed: false,
        sign: -1.0,
        calibrated_cooling: false,
        tel: &TelemetryHandle::disabled(),
    };
    walk(problem, &OccupantPower(problem), options, &w)
}

/// Mean power over `samples` uniformly random permutations *without*
/// inversions — the "random assignment" baseline of Figs. 4 and 5.
///
/// # Errors
///
/// [`CoreError::EmptyBudget`] if `samples` is zero.
pub fn random_mean(
    problem: &AssignmentProblem,
    samples: usize,
    seed: u64,
) -> Result<f64, CoreError> {
    if samples == 0 {
        return Err(CoreError::EmptyBudget);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = RestartScratch::new(problem);
    let total: f64 = (0..samples)
        .map(|_| {
            draw_feasible(problem, &mut rng, &mut scratch, false);
            problem.power(&scratch.current)
        })
        .sum();
    Ok(total / samples as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
    use tsv3d_stats::gen::{GaussianSource, SequentialSource};
    use tsv3d_stats::SwitchingStats;

    pub(super) fn gaussian_problem(rows: usize, cols: usize) -> AssignmentProblem {
        let n = rows * cols;
        let cap = LinearCapModel::fit(&Extractor::new(
            TsvArray::new(rows, cols, TsvGeometry::wide_2018()).expect("array"),
        ))
        .expect("fit");
        let sigma = (1u64 << (n - 2)) as f64;
        let stream = GaussianSource::new(n, sigma)
            .with_correlation(0.4)
            .generate(7, 6000)
            .expect("stream");
        AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap).expect("problem")
    }

    #[test]
    fn exhaustive_beats_or_matches_every_heuristic() {
        let p = gaussian_problem(2, 2);
        let exact = exhaustive(&p).unwrap();
        let annealed = anneal(&p, &AnnealOptions::default()).unwrap();
        let greedy = greedy_two_opt(&p);
        assert!(exact.power <= annealed.power + 1e-12 * exact.power.abs());
        assert!(exact.power <= greedy.power + 1e-12 * exact.power.abs());
    }

    #[test]
    fn anneal_finds_the_exact_optimum_on_small_problems() {
        let p = gaussian_problem(2, 3);
        let exact = exhaustive(&p).unwrap();
        let annealed = anneal(
            &p,
            &AnnealOptions {
                iterations: 30_000,
                restarts: 4,
                seed: 3,
                threads: 1,
            },
        )
        .unwrap();
        let rel = (annealed.power - exact.power) / exact.power.abs();
        assert!(rel < 1e-6, "anneal is {rel:.3e} above the optimum");
    }

    #[test]
    fn optimum_improves_on_random_baseline() {
        let p = gaussian_problem(3, 3);
        let best = anneal(&p, &AnnealOptions::default()).unwrap();
        let mean = random_mean(&p, 300, 11).unwrap();
        assert!(
            best.power < mean,
            "optimised {:.4e} !< random {:.4e}",
            best.power,
            mean
        );
    }

    #[test]
    fn worst_case_exceeds_random_mean() {
        let p = gaussian_problem(3, 3);
        let worst = worst_case(&p, &AnnealOptions::default()).unwrap();
        let mean = random_mean(&p, 300, 11).unwrap();
        assert!(worst.power > mean);
    }

    #[test]
    fn results_respect_inversion_constraints() {
        let cap = LinearCapModel::fit(&Extractor::new(
            TsvArray::new(2, 2, TsvGeometry::wide_2018()).unwrap(),
        ))
        .unwrap();
        let stream = SequentialSource::new(4, 0.1).unwrap().generate(3, 2000).unwrap();
        let p = AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap)
            .unwrap()
            .with_invertible(vec![false, false, true, false])
            .unwrap();
        let annealed = anneal(&p, &AnnealOptions::default()).unwrap();
        assert!(p.is_feasible(&annealed.assignment));
        let exact = exhaustive(&p).unwrap();
        assert!(p.is_feasible(&exact.assignment));
        let greedy = greedy_two_opt(&p);
        assert!(p.is_feasible(&greedy.assignment));
    }

    #[test]
    fn exhaustive_rejects_large_problems() {
        let p = gaussian_problem(4, 4);
        assert!(matches!(
            exhaustive(&p),
            Err(CoreError::TooLargeForExhaustive { .. })
        ));
    }

    #[test]
    fn empty_budgets_rejected() {
        let p = gaussian_problem(2, 2);
        let opts = AnnealOptions {
            iterations: 0,
            ..AnnealOptions::default()
        };
        assert!(matches!(anneal(&p, &opts), Err(CoreError::EmptyBudget)));
        assert!(matches!(worst_case(&p, &opts), Err(CoreError::EmptyBudget)));
        assert!(matches!(random_mean(&p, 0, 1), Err(CoreError::EmptyBudget)));
    }

    #[test]
    fn anneal_is_deterministic_per_seed() {
        let p = gaussian_problem(2, 3);
        let opts = AnnealOptions::default();
        let a = anneal(&p, &opts).unwrap();
        let b = anneal(&p, &opts).unwrap();
        assert_eq!(a.power, b.power);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn greedy_never_worse_than_identity() {
        let p = gaussian_problem(3, 3);
        assert!(greedy_two_opt(&p).power <= p.identity_power());
    }

    #[test]
    fn anneal_is_bit_identical_for_every_thread_count() {
        let p = gaussian_problem(3, 3);
        let serial = AnnealOptions {
            iterations: 3_000,
            restarts: 4,
            seed: 0xC0FFEE,
            threads: 1,
        };
        let reference = anneal(&p, &serial).unwrap();
        for threads in [2, 3, 8, 0] {
            let parallel = anneal(&p, &AnnealOptions { threads, ..serial }).unwrap();
            assert_eq!(
                reference.assignment, parallel.assignment,
                "threads={threads} diverged"
            );
            assert_eq!(
                reference.power.to_bits(),
                parallel.power.to_bits(),
                "threads={threads} power not bit-identical"
            );
        }
    }

    #[test]
    fn anneal_objective_and_worst_case_are_thread_count_invariant() {
        let p = gaussian_problem(2, 3);
        let serial = AnnealOptions {
            iterations: 1_500,
            restarts: 3,
            seed: 0xFEED,
            threads: 1,
        };
        let par = AnnealOptions { threads: 4, ..serial };
        let obj = |a: &SignedPerm| p.power(a) + 0.25 * p.crosstalk_activity(a);
        let o1 = anneal_objective(&p, obj, &serial).unwrap();
        let o4 = anneal_objective(&p, obj, &par).unwrap();
        assert_eq!(o1.assignment, o4.assignment);
        assert_eq!(o1.power.to_bits(), o4.power.to_bits());
        let w1 = worst_case(&p, &serial).unwrap();
        let w4 = worst_case(&p, &par).unwrap();
        assert_eq!(w1.assignment, w4.assignment);
        assert_eq!(w1.power.to_bits(), w4.power.to_bits());
    }

    #[test]
    fn incremental_objective_is_thread_count_invariant_and_exact() {
        let p = gaussian_problem(2, 3);
        let serial = AnnealOptions {
            iterations: 5_000,
            restarts: 3,
            seed: 0x0DD,
            threads: 1,
        };
        let objective = PowerCrosstalkObjective::new(&p, 0.25);
        let o1 = anneal_with_objective(&p, &objective, &serial).unwrap();
        let o4 = anneal_with_objective(
            &p,
            &objective,
            &AnnealOptions { threads: 4, ..serial },
        )
        .unwrap();
        assert_eq!(o1.assignment, o4.assignment);
        assert_eq!(o1.power.to_bits(), o4.power.to_bits());
        assert!(p.is_feasible(&o1.assignment));
        // The reported value is the exact objective of the returned
        // assignment, not an accumulated-delta approximation.
        let exact = p.power(&o1.assignment) + 0.25 * p.crosstalk_activity(&o1.assignment);
        assert_eq!(o1.power.to_bits(), exact.to_bits());
    }

    #[test]
    fn incremental_power_objective_matches_closure_quality() {
        // Same engine, two pricings of the same objective: trajectories
        // may diverge at float-rounding level, but both must land within
        // a whisker of the exhaustive optimum.
        let p = gaussian_problem(2, 3);
        let opts = AnnealOptions {
            iterations: 20_000,
            restarts: 3,
            seed: 0x90D,
            threads: 1,
        };
        let exact = exhaustive(&p).unwrap();
        let incremental =
            anneal_with_objective(&p, &PowerObjective::new(&p), &opts).unwrap();
        let closure = anneal_objective(&p, |a| p.power(a), &opts).unwrap();
        for (name, r) in [("incremental", &incremental), ("closure", &closure)] {
            let rel = (r.power - exact.power) / exact.power.abs();
            assert!(rel < 1e-6, "{name} is {rel:.3e} above the optimum");
        }
    }

    #[test]
    fn returned_power_is_exact_for_every_optimizer() {
        // Regression (cross-restart selection): long accept streaks
        // accumulate float drift in the tracked power; every optimizer
        // must recompute each restart exactly before the reduction and
        // report a power that is bit-identical to re-evaluating the
        // returned assignment.
        let p = gaussian_problem(3, 3);
        let opts = AnnealOptions {
            iterations: 30_000,
            restarts: 3,
            seed: 0xD81F7,
            threads: 1,
        };
        let a = anneal(&p, &opts).unwrap();
        assert_eq!(a.power.to_bits(), p.power(&a.assignment).to_bits());
        let w = worst_case(&p, &opts).unwrap();
        assert_eq!(w.power.to_bits(), p.power(&w.assignment).to_bits());
        let o = anneal_objective(&p, |x| p.power(x), &opts).unwrap();
        assert_eq!(o.power.to_bits(), p.power(&o.assignment).to_bits());
        let g = greedy_two_opt(&p);
        assert_eq!(g.power.to_bits(), p.power(&g.assignment).to_bits());
    }

    #[test]
    fn distinct_pair_never_proposes_a_self_swap() {
        let mut rng = StdRng::seed_from_u64(7);
        let lines = [2usize, 5, 9];
        for _ in 0..2_000 {
            let (a, b) = distinct_pair(&mut rng, &lines);
            assert_ne!(a, b);
            assert!(lines.contains(&a) && lines.contains(&b));
        }
        // Both orderings of a two-element pool occur.
        let two = [4usize, 6];
        let mut seen = [false, false];
        for _ in 0..64 {
            let (a, _) = distinct_pair(&mut rng, &two);
            seen[usize::from(a == 6)] = true;
        }
        assert_eq!(seen, [true, true]);
    }

    #[test]
    fn stream_seeds_differ_across_streams_and_seeds() {
        // Consecutive small seeds and streams must not collide: the
        // probe (stream 0) and every restart draw independent streams.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..16u64 {
            for stream in 0..16u64 {
                assert!(seen.insert(stream_seed(seed, stream)));
            }
        }
    }
}

#[cfg(test)]
mod pin_tests {
    use super::*;
    use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
    use tsv3d_stats::gen::GaussianSource;
    use tsv3d_stats::SwitchingStats;

    fn pinned_problem() -> AssignmentProblem {
        let cap = LinearCapModel::fit(&Extractor::new(
            TsvArray::new(2, 3, TsvGeometry::wide_2018()).expect("array"),
        ))
        .expect("fit");
        let stream = GaussianSource::new(6, 12.0)
            .with_correlation(0.4)
            .generate(3, 6_000)
            .expect("stream");
        // Pin bit 5 (the "supply" line) to via 0 and bit 0 to via 4.
        AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap)
            .expect("problem")
            .with_pinned(vec![Some(4), None, None, None, None, Some(0)])
            .expect("valid pins")
    }

    fn fully_pinned_problem() -> AssignmentProblem {
        let cap = LinearCapModel::fit(&Extractor::new(
            TsvArray::new(2, 2, TsvGeometry::wide_2018()).unwrap(),
        ))
        .unwrap();
        let stream = GaussianSource::new(4, 3.0).generate(1, 500).unwrap();
        AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap)
            .unwrap()
            .with_pinned(vec![Some(3), Some(2), Some(1), Some(0)])
            .unwrap()
            .with_invertible(vec![false; 4])
            .unwrap()
    }

    #[test]
    fn every_optimizer_respects_pins() {
        let p = pinned_problem();
        let opts = AnnealOptions {
            iterations: 4_000,
            restarts: 2,
            seed: 3,
            threads: 1,
        };
        let annealed = anneal(&p, &opts).unwrap();
        let greedy = greedy_two_opt(&p);
        let exact = exhaustive(&p).unwrap();
        let bnb = branch_and_bound(&p, &Default::default()).unwrap();
        let worst = worst_case(&p, &opts).unwrap();
        for (name, a) in [
            ("anneal", &annealed.assignment),
            ("greedy", &greedy.assignment),
            ("exhaustive", &exact.assignment),
            ("bnb", &bnb.result.assignment),
            ("worst", &worst.assignment),
        ] {
            assert!(p.is_feasible(a), "{name} violated a pin: {a:?}");
            assert_eq!(a.line_of_bit(5), 0, "{name}");
            assert_eq!(a.line_of_bit(0), 4, "{name}");
        }
        // Exact methods agree.
        assert!(bnb.proven_optimal);
        assert!((bnb.result.power - exact.power).abs() < 1e-12 * exact.power.abs());
        // Heuristics can't beat the exact optimum.
        assert!(exact.power <= annealed.power * (1.0 + 1e-9));
        assert!(exact.power <= greedy.power * (1.0 + 1e-9));
    }

    #[test]
    fn pinned_optimum_is_no_better_than_unpinned() {
        let p = pinned_problem();
        let unpinned = AssignmentProblem::new(p.stats().clone(), p.cap_model().clone()).unwrap();
        let pinned_best = exhaustive(&p).unwrap().power;
        let free_best = exhaustive(&unpinned).unwrap().power;
        assert!(free_best <= pinned_best * (1.0 + 1e-9));
    }

    #[test]
    fn random_mean_respects_pins() {
        // All samples feasible ⇒ the mean over a pinned problem differs
        // from the unpinned mean in general; at minimum it must be
        // finite and bracketed by min/max over feasible assignments.
        let p = pinned_problem();
        let mean = random_mean(&p, 200, 9).unwrap();
        let best = exhaustive(&p).unwrap().power;
        let worst = worst_case(
            &p,
            &AnnealOptions {
                iterations: 4_000,
                restarts: 2,
                seed: 2,
                threads: 1,
            },
        )
        .unwrap()
        .power;
        assert!(best <= mean && mean <= worst * (1.0 + 1e-9));
    }

    #[test]
    fn fully_pinned_problem_returns_the_base_assignment() {
        let p = fully_pinned_problem();
        let opts = AnnealOptions {
            iterations: 100,
            restarts: 1,
            seed: 1,
            threads: 1,
        };
        let a = anneal(&p, &opts).unwrap();
        assert_eq!(a.assignment, p.base_assignment());
        let w = worst_case(&p, &opts).unwrap();
        assert_eq!(w.assignment, p.base_assignment());
    }

    #[test]
    fn fully_pinned_problem_skips_the_calibration_probe() {
        // Regression: the probe loop used to run (and emit a degenerate
        // `anneal.calibrated` spread) before the fully-pinned
        // short-circuit was consulted.
        use std::sync::{Arc, Mutex};
        use tsv3d_telemetry::{Event, Sink};

        struct NameCapture(Arc<Mutex<Vec<String>>>);
        impl Sink for NameCapture {
            fn emit(&self, event: &Event<'_>) {
                self.0.lock().unwrap().push(event.name.to_string());
            }
        }

        let p = fully_pinned_problem();
        let names = Arc::new(Mutex::new(Vec::new()));
        let tel = TelemetryHandle::with_sink(Box::new(NameCapture(Arc::clone(&names))));
        let opts = AnnealOptions {
            iterations: 100,
            restarts: 1,
            seed: 1,
            threads: 1,
        };
        let a = anneal_with_telemetry(&p, &opts, &tel).unwrap();
        assert_eq!(a.assignment, p.base_assignment());
        let names = names.lock().unwrap();
        assert!(
            !names.iter().any(|n| n == "anneal.calibrated"),
            "calibration probe ran on a fully-pinned problem: {names:?}"
        );
    }

    #[test]
    fn anneal_objective_respects_pins() {
        // Regression guard: the objective annealer used to swap over
        // *all* lines, so it could move pinned bits and hand back an
        // infeasible assignment.
        let p = pinned_problem();
        let opts = AnnealOptions {
            iterations: 2_000,
            restarts: 2,
            seed: 11,
            threads: 1,
        };
        let best = anneal_objective(
            &p,
            |a| p.power(a) + 0.5 * p.crosstalk_activity(a),
            &opts,
        )
        .unwrap();
        assert!(p.is_feasible(&best.assignment), "{:?}", best.assignment);
        assert_eq!(best.assignment.line_of_bit(5), 0);
        assert_eq!(best.assignment.line_of_bit(0), 4);
    }

    #[test]
    fn incremental_objective_respects_pins() {
        let p = pinned_problem();
        let opts = AnnealOptions {
            iterations: 2_000,
            restarts: 2,
            seed: 11,
            threads: 1,
        };
        let objective = PowerCrosstalkObjective::new(&p, 0.5);
        let best = anneal_with_objective(&p, &objective, &opts).unwrap();
        assert!(p.is_feasible(&best.assignment), "{:?}", best.assignment);
        assert_eq!(best.assignment.line_of_bit(5), 0);
        assert_eq!(best.assignment.line_of_bit(0), 4);
    }

    #[test]
    fn fully_pinned_uninvertible_problem_short_circuits_anneal_objective() {
        let p = fully_pinned_problem();
        let best = anneal_objective(&p, |a| p.power(a), &AnnealOptions::default()).unwrap();
        assert_eq!(best.assignment, p.base_assignment());
    }

    /// `problem optimiser power-bits assignment`, one line per result of
    /// [`annealers_return_their_recorded_results`].
    const RECORDED: &str = "\
3x3 anneal 3d4e009a5bcf31ca 6-,0-,3-,7-,1-,8-,4-,2-,5-
3x3 worst_case 3d4f540712ab3caa 3,4,2,1,6,7,5,8,0
3x3 anneal_with_objective 3d4f74862c88d72f 1-,2-,5-,0-,3-,4-,6-,8-,7-
3x3 anneal_objective 3d4eb370753488ec 7-,5-,8-,6-,3-,4-,0-,2-,1-
2x3-pinned anneal 3d432fcaaa0c1758 4,5,2,1,3,0
2x3-pinned worst_case 3d445da43f04448d 4,1,3,2,5,0
2x3-pinned anneal_with_objective 3d4419ebc234bc84 4,5,2,1,3,0
2x3-pinned anneal_objective 3d43a4db362069ee 4,5,2,1,3,0
fully-pinned anneal 3d38c80b7bd56654 3,2,1,0
fully-pinned worst_case 3d38c80b7bd56654 3,2,1,0
fully-pinned anneal_with_objective 3d39e004ad42a2f8 3,2,1,0
fully-pinned anneal_objective 3d395408148c04a6 3,2,1,0
fully-pinned-flips anneal 3d38c80b7bd56654 3,2,1,0
fully-pinned-flips worst_case 3d38c80b7bd56654 3,2,1,0
fully-pinned-flips anneal_with_objective 3d39e004ad42a2f8 3,2,1,0
fully-pinned-flips anneal_objective 3d395408148c04a6 3,2,1,0
";

    #[test]
    fn annealers_return_their_recorded_results() {
        // The thread-invariance tests compare an annealer with itself, so
        // they cannot see a wrong seed salt, cooling schedule, draw kind
        // or direction; these recorded results can.
        let opts = AnnealOptions {
            iterations: 2_000,
            restarts: 3,
            seed: 0x5EED,
            threads: 1,
        };
        let problems = [
            ("3x3", super::tests::gaussian_problem(3, 3)),
            (
                "2x3-pinned",
                pinned_problem()
                    .with_invertible(vec![true, true, false, true, true, false])
                    .unwrap(),
            ),
            ("fully-pinned", fully_pinned_problem()),
            (
                "fully-pinned-flips",
                fully_pinned_problem()
                    .with_invertible(vec![true, false, true, false])
                    .unwrap(),
            ),
        ];
        let mut got = String::new();
        for (name, p) in &problems {
            let xtalk = PowerCrosstalkObjective::new(p, 0.5);
            let closure = |a: &SignedPerm| p.power(a) + 0.25 * p.crosstalk_activity(a);
            for (method, result) in [
                ("anneal", anneal(p, &opts)),
                ("worst_case", worst_case(p, &opts)),
                (
                    "anneal_with_objective",
                    anneal_with_objective(p, &xtalk, &opts),
                ),
                ("anneal_objective", anneal_objective(p, closure, &opts)),
            ] {
                let r = result.unwrap();
                got += &format!(
                    "{name} {method} {:016x} {}\n",
                    r.power.to_bits(),
                    r.assignment
                );
            }
        }
        assert_eq!(got, RECORDED);
    }

    #[test]
    fn invalid_pins_rejected() {
        let p = pinned_problem();
        let again = AssignmentProblem::new(p.stats().clone(), p.cap_model().clone()).unwrap();
        assert!(again.clone().with_pinned(vec![None; 5]).is_err()); // wrong length
        assert!(again
            .clone()
            .with_pinned(vec![Some(9), None, None, None, None, None])
            .is_err()); // out of range
        assert!(again
            .with_pinned(vec![Some(1), Some(1), None, None, None, None])
            .is_err()); // duplicate
    }
}
