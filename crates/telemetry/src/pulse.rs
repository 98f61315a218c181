//! `tsv3d-pulse`: live-run observability — lock-free progress cells,
//! a span-stack sampling profiler, and a stall watchdog.
//!
//! Everything before this module answers questions *after* a run
//! finishes (traces, histories, convergence reports). Pulse answers
//! them *during* the run, under the same determinism contract as the
//! rest of the crate: pulse only observes. No RNG draw, float value or
//! control-flow decision in instrumented code may depend on it, so
//! seeded runs are bit-identical with pulse on or off — pinned by the
//! `pulse_determinism` proptest in `tsv3d-core`.
//!
//! Three pieces:
//!
//! * [`ProgressCell`] / [`Pulse::cell`] — one set of atomics per
//!   restart (iterations done/planned, best-energy bits, accepts,
//!   heartbeat tick). The annealer's move loop updates its cell with
//!   plain relaxed stores at epoch boundaries: zero allocation, no
//!   lock, no syscall on the hot path.
//! * [`StackRegistry`] / [`ThreadStack`] — each instrumented thread
//!   registers its live span stack (span open pushes, span close
//!   pops); a [`Sampler`] thread snapshots every stack on a fixed
//!   period into collapsed-stack counts ([`SampledProfile`]) — a
//!   wall-clock profile of a real run without any per-event cost.
//! * the stall watchdog ([`ProgressSnapshot`]) — a restart with no
//!   heartbeat *and* no best-energy improvement for
//!   [`Pulse::stall_after`] ticks is flagged `stalled`, surfaced via
//!   the `/progress` endpoint and the `tsv3d_run_stalled` gauge.
//!
//! Ticks come from an injected [`TickSource`] so tests drive the
//! watchdog and sampler deterministically with [`ManualTicks`];
//! production uses [`WallTicks`] (one tick per fixed wall-clock
//! period, default 250 ms).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Schema tag of the `/progress` JSON document, which `tsv3d dash
/// --live` renders as its per-restart table.
pub const PULSE_SCHEMA: &str = "tsv3d-pulse/v1";

/// Default watchdog threshold, in ticks: a running restart whose
/// heartbeat *and* best-energy improvement are both older than this
/// many ticks is flagged stalled. At the default 250 ms tick period
/// this is 10 s of silence.
pub const DEFAULT_STALL_AFTER: u64 = 40;

/// Default wall-clock tick period of [`WallTicks`].
pub const DEFAULT_TICK_PERIOD: Duration = Duration::from_millis(250);

/// A monotone tick counter — the watchdog's and sampler's clock.
///
/// Injected rather than read from `Instant` directly so tests can
/// advance time deterministically ([`ManualTicks`]).
pub trait TickSource: Send + Sync {
    /// The current tick. Must be monotone non-decreasing.
    fn now(&self) -> u64;
}

/// Wall-clock ticks: one tick per `period` since construction.
pub struct WallTicks {
    epoch: Instant,
    period: Duration,
}

impl WallTicks {
    /// Ticks at `period` intervals, starting now.
    pub fn new(period: Duration) -> Self {
        Self {
            epoch: Instant::now(),
            period: period.max(Duration::from_millis(1)),
        }
    }
}

impl Default for WallTicks {
    fn default() -> Self {
        Self::new(DEFAULT_TICK_PERIOD)
    }
}

impl TickSource for WallTicks {
    fn now(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() / self.period.as_nanos().max(1)) as u64
    }
}

/// A hand-driven tick counter for deterministic tests.
#[derive(Default)]
pub struct ManualTicks(AtomicU64);

impl ManualTicks {
    /// Starts at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ticks`.
    pub fn advance(&self, ticks: u64) {
        self.0.fetch_add(ticks, Ordering::Relaxed);
    }
}

impl TickSource for ManualTicks {
    fn now(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Restart lifecycle states stored in [`ProgressCell::state`].
const STATE_IDLE: u64 = 0;
const STATE_RUNNING: u64 = 1;
const STATE_DONE: u64 = 2;

/// Per-restart progress: a handful of atomics the annealer updates
/// with relaxed stores and observers read with relaxed loads.
///
/// The fields are independently-updated gauges, not a consistent
/// tuple — a reader may see `iters_done` from one epoch and
/// `best_bits` from the next. That is fine for progress display and
/// the watchdog; nothing downstream does arithmetic that needs a
/// consistent cut.
#[derive(Debug, Default)]
pub struct ProgressCell {
    /// Move-loop iterations completed so far.
    iters_done: AtomicU64,
    /// Iterations this restart will run in total.
    iters_planned: AtomicU64,
    /// `f64::to_bits` of the best energy seen so far (`f64::INFINITY`
    /// bits until the first update).
    best_bits: AtomicU64,
    /// Accepted moves so far.
    accepts: AtomicU64,
    /// Tick of the most recent update of any kind.
    heartbeat_tick: AtomicU64,
    /// Tick of the most recent *best-energy improvement*.
    improve_tick: AtomicU64,
    /// Lifecycle: 0 idle, 1 running, 2 done.
    state: AtomicU64,
}

impl ProgressCell {
    fn new() -> Self {
        let cell = Self::default();
        cell.best_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        cell.state.store(STATE_IDLE, Ordering::Relaxed);
        cell
    }
}

/// A restart's writing end of its [`ProgressCell`], with the pulse's
/// tick source attached: everything the annealer needs, fetched once
/// per restart *outside* the move loop.
#[derive(Clone)]
pub struct RestartCell {
    cell: Arc<ProgressCell>,
    ticks: Arc<dyn TickSource>,
}

impl std::fmt::Debug for RestartCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RestartCell").finish()
    }
}

impl RestartCell {
    /// Marks the restart running and records its iteration budget.
    pub fn begin(&self, iters_planned: u64) {
        let now = self.ticks.now();
        self.cell.iters_planned.store(iters_planned, Ordering::Relaxed);
        self.cell.iters_done.store(0, Ordering::Relaxed);
        self.cell.accepts.store(0, Ordering::Relaxed);
        self.cell
            .best_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.cell.heartbeat_tick.store(now, Ordering::Relaxed);
        self.cell.improve_tick.store(now, Ordering::Relaxed);
        self.cell.state.store(STATE_RUNNING, Ordering::Relaxed);
    }

    /// Publishes one progress beat: iterations done, current best
    /// energy and accepted-move count. All relaxed stores; the only
    /// branch is the improvement check feeding the watchdog.
    pub fn beat(&self, iters_done: u64, best_energy: f64, accepts: u64) {
        let now = self.ticks.now();
        let cell = &*self.cell;
        cell.iters_done.store(iters_done, Ordering::Relaxed);
        cell.accepts.store(accepts, Ordering::Relaxed);
        let bits = best_energy.to_bits();
        let prev = cell.best_bits.swap(bits, Ordering::Relaxed);
        if prev != bits {
            cell.improve_tick.store(now, Ordering::Relaxed);
        }
        cell.heartbeat_tick.store(now, Ordering::Relaxed);
    }

    /// Marks the restart finished (never flagged stalled again).
    pub fn finish(&self) {
        self.cell
            .heartbeat_tick
            .store(self.ticks.now(), Ordering::Relaxed);
        self.cell.state.store(STATE_DONE, Ordering::Relaxed);
    }
}

/// A point-in-time reading of one restart's progress.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartProgress {
    /// Restart index (the `rN` thread label's N).
    pub restart: usize,
    /// Iterations completed.
    pub iters_done: u64,
    /// Iterations planned.
    pub iters_planned: u64,
    /// Best energy seen (`f64::INFINITY` before the first beat).
    pub best_energy: f64,
    /// Accepted moves.
    pub accepts: u64,
    /// Tick of the last beat.
    pub heartbeat_tick: u64,
    /// Tick of the last best-energy improvement.
    pub improve_tick: u64,
    /// `"idle"`, `"running"` or `"done"`.
    pub state: &'static str,
    /// Watchdog verdict at snapshot time.
    pub stalled: bool,
}

/// A point-in-time reading of every restart, plus the clock state the
/// verdicts were made under.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgressSnapshot {
    /// The tick the snapshot was taken at.
    pub tick: u64,
    /// The watchdog threshold the `stalled` flags used.
    pub stall_after: u64,
    /// Per-restart progress, in restart order.
    pub restarts: Vec<RestartProgress>,
}

impl ProgressSnapshot {
    /// Count of restarts flagged stalled.
    pub fn stalled_count(&self) -> usize {
        self.restarts.iter().filter(|r| r.stalled).count()
    }

    /// `true` once every registered restart is done.
    pub fn all_done(&self) -> bool {
        !self.restarts.is_empty() && self.restarts.iter().all(|r| r.state == "done")
    }
}

/// The registry of per-restart [`ProgressCell`]s.
///
/// Registration and snapshotting lock a mutex; the per-beat hot path
/// never does — it works on the `Arc`'d cell handed out by
/// [`Pulse::cell`].
#[derive(Default)]
pub struct ProgressRegistry {
    cells: Mutex<Vec<Arc<ProgressCell>>>,
}

impl ProgressRegistry {
    /// The cell for `restart`, created (along with any gap) on first
    /// use. Called once per restart at setup, never in the move loop.
    fn cell(&self, restart: usize) -> Arc<ProgressCell> {
        let mut cells = self.cells.lock().expect("progress registry poisoned");
        while cells.len() <= restart {
            cells.push(Arc::new(ProgressCell::new()));
        }
        Arc::clone(&cells[restart])
    }

    fn snapshot(&self, now: u64, stall_after: u64) -> ProgressSnapshot {
        let cells = self.cells.lock().expect("progress registry poisoned");
        let restarts = cells
            .iter()
            .enumerate()
            .map(|(restart, cell)| {
                let state = cell.state.load(Ordering::Relaxed);
                let heartbeat = cell.heartbeat_tick.load(Ordering::Relaxed);
                let improve = cell.improve_tick.load(Ordering::Relaxed);
                // Stalled = running, and *both* signals silent: a beat
                // that never improves is progress (the heartbeat shows
                // it), a restart between beats is fine until the
                // threshold passes.
                let stalled = state == STATE_RUNNING
                    && now.saturating_sub(heartbeat) > stall_after
                    && now.saturating_sub(improve) > stall_after;
                RestartProgress {
                    restart,
                    iters_done: cell.iters_done.load(Ordering::Relaxed),
                    iters_planned: cell.iters_planned.load(Ordering::Relaxed),
                    best_energy: f64::from_bits(cell.best_bits.load(Ordering::Relaxed)),
                    accepts: cell.accepts.load(Ordering::Relaxed),
                    heartbeat_tick: heartbeat,
                    improve_tick: improve,
                    state: match state {
                        STATE_RUNNING => "running",
                        STATE_DONE => "done",
                        _ => "idle",
                    },
                    stalled,
                }
            })
            .collect();
        ProgressSnapshot {
            tick: now,
            stall_after,
            restarts,
        }
    }
}

/// One thread's live span stack, maintained by `Span` open/close.
///
/// The mutex is only ever briefly held (a push, a pop, or the
/// sampler's clone); spans on uninstrumented runs never reach it.
pub struct ThreadStack {
    label: String,
    frames: Mutex<Vec<&'static str>>,
}

impl ThreadStack {
    /// Pushes a frame on span open.
    pub fn push(&self, name: &'static str) {
        self.frames.lock().expect("span stack poisoned").push(name);
    }

    /// Pops a frame on span close. Spans close LIFO in normal code,
    /// but handles can migrate across threads — pop the *last
    /// occurrence* of the name so a mismatch degrades to a slightly
    /// fuzzy profile instead of corrupting the stack.
    pub fn pop(&self, name: &'static str) {
        let mut frames = self.frames.lock().expect("span stack poisoned");
        if let Some(pos) = frames.iter().rposition(|f| *f == name) {
            frames.remove(pos);
        }
    }

    /// The stack rendered as a collapsed path (`label;outer;inner`),
    /// or `None` when no span is open.
    fn collapsed(&self) -> Option<String> {
        let frames = self.frames.lock().expect("span stack poisoned");
        if frames.is_empty() {
            return None;
        }
        let mut path = self.label.clone();
        for frame in frames.iter() {
            path.push(';');
            path.push_str(frame);
        }
        Some(path)
    }
}

/// The registry of live [`ThreadStack`]s the sampler walks.
#[derive(Default)]
pub struct StackRegistry {
    stacks: Mutex<Vec<Arc<ThreadStack>>>,
}

impl StackRegistry {
    /// Registers (or re-uses) the stack for `label`. Handles cloned
    /// with the same thread label share one stack, exactly like they
    /// share one event-stream label.
    fn register(&self, label: &str) -> Arc<ThreadStack> {
        let mut stacks = self.stacks.lock().expect("stack registry poisoned");
        if let Some(existing) = stacks.iter().find(|s| s.label == label) {
            return Arc::clone(existing);
        }
        let stack = Arc::new(ThreadStack {
            label: label.to_string(),
            frames: Mutex::new(Vec::new()),
        });
        stacks.push(Arc::clone(&stack));
        stack
    }
}

/// Collapsed-stack sample counts — the sampling profiler's output,
/// renderable as a flamegraph via `tsv3d-bench`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampledProfile {
    /// Sampling rounds taken (idle rounds included).
    pub samples: u64,
    /// `label;outer;inner` → times that exact stack was observed.
    pub counts: BTreeMap<String, u64>,
}

impl SampledProfile {
    /// Renders the profile in collapsed-stack format (`path count`
    /// per line, path-sorted) — directly consumable by flamegraph
    /// tooling and `tsv3d-bench`'s SVG renderer.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for (path, count) in &self.counts {
            out.push_str(path);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

/// The live-run observability hub a [`TelemetryHandle`] can carry:
/// progress cells + span-stack registry + the shared tick source.
///
/// [`TelemetryHandle`]: crate::TelemetryHandle
pub struct Pulse {
    ticks: Arc<dyn TickSource>,
    progress: ProgressRegistry,
    stacks: StackRegistry,
    stall_after: u64,
    peak_stalled: AtomicU64,
}

impl std::fmt::Debug for Pulse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pulse")
            .field("stall_after", &self.stall_after)
            .finish()
    }
}

impl Default for Pulse {
    fn default() -> Self {
        Self::new()
    }
}

impl Pulse {
    /// A pulse on the default wall clock (250 ms ticks, stall after
    /// [`DEFAULT_STALL_AFTER`] ticks).
    pub fn new() -> Self {
        Self::with_ticks(Arc::new(WallTicks::default()))
    }

    /// A pulse on an injected tick source — how tests drive the
    /// watchdog deterministically.
    pub fn with_ticks(ticks: Arc<dyn TickSource>) -> Self {
        Self {
            ticks,
            progress: ProgressRegistry::default(),
            stacks: StackRegistry::default(),
            stall_after: DEFAULT_STALL_AFTER,
            peak_stalled: AtomicU64::new(0),
        }
    }

    /// Overrides the watchdog threshold (ticks of combined heartbeat
    /// + improvement silence before a running restart is stalled).
    pub fn with_stall_after(mut self, ticks: u64) -> Self {
        self.stall_after = ticks.max(1);
        self
    }

    /// The configured watchdog threshold, in ticks.
    pub fn stall_after(&self) -> u64 {
        self.stall_after
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        self.ticks.now()
    }

    /// The writing end of `restart`'s progress cell. One registry
    /// lock here, at restart setup; every subsequent
    /// [`RestartCell::beat`] is lock-free.
    pub fn cell(&self, restart: usize) -> RestartCell {
        RestartCell {
            cell: self.progress.cell(restart),
            ticks: Arc::clone(&self.ticks),
        }
    }

    /// Registers (or fetches) the span stack for `label`.
    pub fn stack(&self, label: &str) -> Arc<ThreadStack> {
        self.stacks.register(label)
    }

    /// A consistent-enough snapshot of every restart's progress with
    /// watchdog verdicts at the current tick. Also advances the
    /// high-water stall mark returned by [`Pulse::peak_stalled`].
    pub fn progress_snapshot(&self) -> ProgressSnapshot {
        let snap = self.progress.snapshot(self.ticks.now(), self.stall_after);
        self.peak_stalled
            .fetch_max(snap.stalled_count() as u64, Ordering::Relaxed);
        snap
    }

    /// The most restarts ever observed stalled in a single
    /// [`Pulse::progress_snapshot`] over this pulse's lifetime — the
    /// run-level stall count the history ledger records. Zero until a
    /// snapshot has been taken.
    pub fn peak_stalled(&self) -> u64 {
        self.peak_stalled.load(Ordering::Relaxed)
    }

    /// One sampling round: every registered thread stack with an open
    /// span contributes its collapsed path to `profile`. Idle stacks
    /// contribute nothing; the round still counts, so sample counts
    /// divided by `profile.samples` estimate wall-clock fractions.
    pub fn sample_once(&self, profile: &mut SampledProfile) {
        profile.samples += 1;
        let stacks = self
            .stacks
            .stacks
            .lock()
            .expect("stack registry poisoned");
        for stack in stacks.iter() {
            if let Some(path) = stack.collapsed() {
                *profile.counts.entry(path).or_insert(0) += 1;
            }
        }
    }
}

/// A background sampling thread over a [`Pulse`]: snapshots every
/// registered span stack on a fixed period until stopped.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    profile: Arc<Mutex<SampledProfile>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `pulse` every `period` on a background thread.
    pub fn start(pulse: Arc<Pulse>, period: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let profile = Arc::new(Mutex::new(SampledProfile::default()));
        let thread = {
            let stop = Arc::clone(&stop);
            let profile = Arc::clone(&profile);
            let period = period.max(Duration::from_millis(1));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    {
                        let mut profile =
                            profile.lock().expect("sampler profile poisoned");
                        pulse.sample_once(&mut profile);
                    }
                    std::thread::sleep(period);
                }
            })
        };
        Self {
            stop,
            profile,
            thread: Some(thread),
        }
    }

    /// A copy of the profile accumulated so far.
    pub fn profile(&self) -> SampledProfile {
        self.profile
            .lock()
            .expect("sampler profile poisoned")
            .clone()
    }

    /// Stops the sampling thread and returns the final profile.
    pub fn stop(mut self) -> SampledProfile {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.profile
            .lock()
            .expect("sampler profile poisoned")
            .clone()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_pulse() -> (Arc<Pulse>, Arc<ManualTicks>) {
        let ticks = Arc::new(ManualTicks::new());
        let pulse = Arc::new(
            Pulse::with_ticks(Arc::clone(&ticks) as Arc<dyn TickSource>)
                .with_stall_after(4),
        );
        (pulse, ticks)
    }

    #[test]
    fn cells_report_progress_through_the_snapshot() {
        let (pulse, ticks) = manual_pulse();
        let cell = pulse.cell(0);
        cell.begin(1000);
        ticks.advance(1);
        cell.beat(250, 42.5, 17);

        let snap = pulse.progress_snapshot();
        assert_eq!(snap.restarts.len(), 1);
        let r = &snap.restarts[0];
        assert_eq!(r.restart, 0);
        assert_eq!(r.iters_done, 250);
        assert_eq!(r.iters_planned, 1000);
        assert_eq!(r.best_energy, 42.5);
        assert_eq!(r.accepts, 17);
        assert_eq!(r.state, "running");
        assert!(!r.stalled);
        assert!(!snap.all_done());

        cell.finish();
        let snap = pulse.progress_snapshot();
        assert_eq!(snap.restarts[0].state, "done");
        assert!(snap.all_done());
    }

    #[test]
    fn registering_a_later_restart_fills_the_gap_with_idle_cells() {
        let (pulse, _ticks) = manual_pulse();
        pulse.cell(2).begin(10);
        let snap = pulse.progress_snapshot();
        assert_eq!(snap.restarts.len(), 3);
        assert_eq!(snap.restarts[0].state, "idle");
        assert_eq!(snap.restarts[1].state, "idle");
        assert_eq!(snap.restarts[2].state, "running");
    }

    #[test]
    fn watchdog_flags_silent_running_restarts_only() {
        let (pulse, ticks) = manual_pulse();
        let silent = pulse.cell(0);
        let beating = pulse.cell(1);
        let done = pulse.cell(2);
        silent.begin(100);
        beating.begin(100);
        done.begin(100);
        done.finish();

        // Within the threshold: nobody is stalled.
        ticks.advance(4);
        beating.beat(10, 5.0, 1);
        assert_eq!(pulse.progress_snapshot().stalled_count(), 0);

        // Past the threshold: only the silent running restart stalls.
        ticks.advance(5);
        beating.beat(20, 5.0, 2); // heartbeat, no improvement
        let snap = pulse.progress_snapshot();
        assert!(snap.restarts[0].stalled, "{snap:?}");
        assert!(!snap.restarts[1].stalled, "heartbeat counts as life");
        assert!(!snap.restarts[2].stalled, "done restarts never stall");
        assert_eq!(snap.stalled_count(), 1);
    }

    #[test]
    fn peak_stalled_is_a_high_water_mark_across_snapshots() {
        let (pulse, ticks) = manual_pulse();
        let a = pulse.cell(0);
        let b = pulse.cell(1);
        a.begin(100);
        b.begin(100);
        assert_eq!(pulse.peak_stalled(), 0);

        // Both silent past the threshold: peak rises to 2.
        ticks.advance(10);
        assert_eq!(pulse.progress_snapshot().stalled_count(), 2);
        assert_eq!(pulse.peak_stalled(), 2);

        // Recovery does not lower the mark.
        a.beat(10, 1.0, 1);
        b.beat(10, 1.0, 1);
        assert_eq!(pulse.progress_snapshot().stalled_count(), 0);
        assert_eq!(pulse.peak_stalled(), 2);
    }

    #[test]
    fn improvement_resets_the_watchdog_even_between_heartbeats() {
        let (pulse, ticks) = manual_pulse();
        let cell = pulse.cell(0);
        cell.begin(100);
        ticks.advance(3);
        cell.beat(10, 9.0, 1); // improvement at tick 3
        ticks.advance(4);
        // Tick 7: heartbeat age 4 (= threshold, not past it) — alive.
        assert_eq!(pulse.progress_snapshot().stalled_count(), 0);
        ticks.advance(1);
        // Tick 8: both signals 5 ticks old — stalled.
        assert_eq!(pulse.progress_snapshot().stalled_count(), 1);
    }

    #[test]
    fn sampler_collapses_live_span_stacks() {
        let (pulse, _ticks) = manual_pulse();
        let main = pulse.stack("main");
        let worker = pulse.stack("r0");
        main.push("run");
        worker.push("anneal");
        worker.push("epoch");

        let mut profile = SampledProfile::default();
        pulse.sample_once(&mut profile);
        worker.pop("epoch");
        pulse.sample_once(&mut profile);

        assert_eq!(profile.samples, 2);
        assert_eq!(profile.counts["main;run"], 2);
        assert_eq!(profile.counts["r0;anneal;epoch"], 1);
        assert_eq!(profile.counts["r0;anneal"], 1);
        let folded = profile.render_folded();
        assert!(folded.contains("main;run 2\n"), "{folded}");
        assert!(folded.contains("r0;anneal;epoch 1\n"), "{folded}");
    }

    #[test]
    fn idle_stacks_contribute_nothing_but_rounds_still_count() {
        let (pulse, _ticks) = manual_pulse();
        let _stack = pulse.stack("main");
        let mut profile = SampledProfile::default();
        pulse.sample_once(&mut profile);
        assert_eq!(profile.samples, 1);
        assert!(profile.counts.is_empty());
        assert_eq!(profile.render_folded(), "");
    }

    #[test]
    fn same_label_shares_one_stack() {
        let (pulse, _ticks) = manual_pulse();
        let a = pulse.stack("r1");
        let b = pulse.stack("r1");
        a.push("outer");
        b.push("inner");
        let mut profile = SampledProfile::default();
        pulse.sample_once(&mut profile);
        assert_eq!(profile.counts["r1;outer;inner"], 1);
        b.pop("inner");
        a.pop("outer");
        let mut after = SampledProfile::default();
        pulse.sample_once(&mut after);
        assert!(after.counts.is_empty());
    }

    #[test]
    fn mismatched_pop_degrades_gracefully() {
        let (pulse, _ticks) = manual_pulse();
        let stack = pulse.stack("main");
        stack.push("a");
        stack.push("b");
        stack.pop("a"); // out of order: removes the last `a`, keeps `b`
        stack.pop("missing"); // no-op
        let mut profile = SampledProfile::default();
        pulse.sample_once(&mut profile);
        assert_eq!(profile.counts["main;b"], 1);
    }

    #[test]
    fn background_sampler_accumulates_and_stops() {
        let (pulse, _ticks) = manual_pulse();
        let stack = pulse.stack("main");
        stack.push("work");
        let sampler = Sampler::start(Arc::clone(&pulse), Duration::from_millis(1));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let profile = sampler.profile();
            if profile.counts.get("main;work").copied().unwrap_or(0) >= 3 {
                break;
            }
            assert!(Instant::now() < deadline, "sampler never sampled");
            std::thread::sleep(Duration::from_millis(1));
        }
        let profile = sampler.stop();
        assert!(profile.samples >= 3);
        assert!(profile.counts["main;work"] >= 3);
        stack.pop("work");
    }

    #[test]
    fn wall_ticks_advance_monotonically() {
        let ticks = WallTicks::new(Duration::from_millis(1));
        let first = ticks.now();
        std::thread::sleep(Duration::from_millis(5));
        assert!(ticks.now() > first);
    }

    #[test]
    fn manual_pulse_beat_improvement_tracking_is_bitwise() {
        let (pulse, ticks) = manual_pulse();
        let cell = pulse.cell(0);
        cell.begin(10);
        ticks.advance(1);
        cell.beat(1, 7.0, 0);
        let first_improve = pulse.progress_snapshot().restarts[0].improve_tick;
        assert_eq!(first_improve, 1);
        ticks.advance(1);
        cell.beat(2, 7.0, 0); // same bits: no improvement
        assert_eq!(
            pulse.progress_snapshot().restarts[0].improve_tick,
            first_improve
        );
        ticks.advance(1);
        cell.beat(3, 6.5, 0);
        assert_eq!(pulse.progress_snapshot().restarts[0].improve_tick, 3);
    }
}
