//! # sdb-prof — always-on hierarchical phase profiler
//!
//! Scoped timers recorded into a preallocated, allocation-free phase
//! slot table, aggregated into a hierarchical phase tree with per-shard
//! and per-cohort attribution. Three design rules drive everything:
//!
//! 1. **Determinism quarantine.** The profiler's *call counts* are part
//!    of the deterministic artifact: sampling decisions are made by a
//!    per-device tick counter (reset at every [`device_scope`]), never
//!    by wall-clock, so the count tree is bit-identical at any thread
//!    count — asserted by tests exactly like `FleetReport`. Nanosecond
//!    timings, per-shard attribution, and sample quantiles are
//!    wall-clock facts and live in a separate "wall" section of every
//!    export, the same split `FleetRunStats` uses.
//!
//! 2. **Allocation-free hot path.** Slots are created lazily on first
//!    entry of a phase path (warmup); after that a recording touches
//!    only preallocated state — fixed stack, array child links, and a
//!    duration sketch prewarmed over the insert clamp range so bucket
//!    inserts never allocate. The micro-step bench asserts this with
//!    the counting allocator and bounds total overhead at ≤ 5 %.
//!
//! 3. **Cheap enough to leave on.** A process-global atomic gate makes
//!    the disabled cost one relaxed load per scope. When enabled, the
//!    sampling gate times only 1-in-[`SAMPLE_EVERY`] steps; sub-step
//!    phases ([`StepGuard::hot_sub`]) cost a single branch on cold
//!    steps.
//!
//! Aggregation is commutative: worker threads flush their device trees
//! into a process-global aggregate tagged with shard and cohort, and
//! tree merges add counts/durations node-wise — any completion order
//! yields the identical aggregate.
//!
//! The crate also owns [`shard_map`], the ordered work-queue runner the
//! sharded engines (fleet, campaign) share, since it is what tags
//! each worker thread with its shard.

mod phase;
mod render;
mod shard;
mod table;

pub use phase::{Phase, ALL_PHASES, PHASE_COUNT};
pub use render::{PhaseNode, Snapshot};
pub use shard::shard_map;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use table::Table;

/// Only 1 in `SAMPLE_EVERY` gating steps is wall-clock timed (the first
/// tick of every device is, so short runs still produce samples). Counts
/// are unaffected for step-level phases; sub-step phases record only on
/// timed ticks, which keeps their counts deterministic too — the gate is
/// driven by the per-device tick counter, never by elapsed time. The
/// observer's per-step spans sample at the same rate.
pub const SAMPLE_EVERY: u64 = sdb_observe::SAMPLE_EVERY;

/// Scope-stack depth limit (device → trace step → plan → rollout →
/// trace step → micro step → sub-phase nests well below this).
const MAX_DEPTH: usize = 32;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the profiler on process-wide. Cheap to call repeatedly.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the profiler off process-wide. In-flight guards finish
/// recording; new scopes become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the profiler is currently recording.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Thread-local collector
// ---------------------------------------------------------------------------

struct Collector {
    table: Table,
    stack: [u16; MAX_DEPTH],
    depth: usize,
    /// Device-local gating-step counter (reset by [`device_scope`]).
    tick: u64,
    /// Whether the current gating step is wall-clock timed.
    hot: bool,
    /// Whether a gating step is currently open (nested steps defer).
    in_step: bool,
    shard: Option<u16>,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            table: Table::with_capacity(),
            stack: [0; MAX_DEPTH],
            depth: 0,
            tick: 0,
            hot: false,
            in_step: false,
            shard: None,
        }
    }

    fn enter(&mut self, phase: Phase) {
        let parent = if self.depth == 0 {
            None
        } else {
            Some(self.stack[self.depth - 1])
        };
        let idx = self.table.resolve(parent, phase);
        self.table.slots[idx as usize].count += 1;
        debug_assert!(self.depth < MAX_DEPTH, "prof scope stack overflow");
        if self.depth < MAX_DEPTH {
            self.stack[self.depth] = idx;
            self.depth += 1;
        }
    }

    fn exit(&mut self, start: Option<Instant>) {
        debug_assert!(self.depth > 0, "prof scope exit without enter");
        if self.depth == 0 {
            return;
        }
        self.depth -= 1;
        if let Some(t0) = start {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.table.slots[self.stack[self.depth] as usize].record_ns(ns);
        }
    }
}

thread_local! {
    static TLS: RefCell<Collector> = RefCell::new(Collector::new());
}

// ---------------------------------------------------------------------------
// Process-global aggregate
// ---------------------------------------------------------------------------

struct GlobalAgg {
    total: Table,
    per_cohort: BTreeMap<u16, Table>,
    per_shard: BTreeMap<u16, Table>,
    cohorts: Vec<String>,
}

impl GlobalAgg {
    const fn new() -> GlobalAgg {
        GlobalAgg {
            total: Table::new(),
            per_cohort: BTreeMap::new(),
            per_shard: BTreeMap::new(),
            cohorts: Vec::new(),
        }
    }
}

static GLOBAL: Mutex<GlobalAgg> = Mutex::new(GlobalAgg::new());

fn flush_table(table: &Table, shard: Option<u16>, cohort: Option<u16>) {
    if table.is_empty() {
        return;
    }
    let mut g = GLOBAL.lock().expect("prof global aggregate poisoned");
    g.total.merge_from(table);
    if let Some(c) = cohort {
        g.per_cohort
            .entry(c)
            .or_insert_with(Table::new)
            .merge_from(table);
    }
    if let Some(s) = shard {
        g.per_shard
            .entry(s)
            .or_insert_with(Table::new)
            .merge_from(table);
    }
}

/// Interns a cohort name, returning the id to pass to [`device_scope`].
/// Ids are assigned in first-seen order (thread-dependent); every export
/// keys cohorts by *name* in sorted order, so attribution stays
/// deterministic regardless.
///
/// # Panics
///
/// Panics if the global aggregate lock is poisoned.
#[must_use]
pub fn cohort_id(name: &str) -> u16 {
    let mut g = GLOBAL.lock().expect("prof global aggregate poisoned");
    if let Some(pos) = g.cohorts.iter().position(|c| c == name) {
        return u16::try_from(pos).expect("cohort id overflow");
    }
    g.cohorts.push(name.to_owned());
    u16::try_from(g.cohorts.len() - 1).expect("cohort id overflow")
}

/// Tags the current thread's subsequent device flushes with a shard id.
/// Shard attribution is a wall-clock fact (it depends on the thread
/// count) and is quarantined to the wall section of exports.
pub fn set_shard(shard: u16) {
    TLS.with(|c| c.borrow_mut().shard = Some(shard));
}

/// Clears both the global aggregate and the calling thread's collector.
/// Worker-thread collectors flush at device-scope drop and die with
/// their (scoped) threads, so resetting between runs on the driving
/// thread is sufficient.
///
/// # Panics
///
/// Panics if the global aggregate lock is poisoned.
pub fn reset() {
    *GLOBAL.lock().expect("prof global aggregate poisoned") = GlobalAgg::new();
    TLS.with(|c| *c.borrow_mut() = Collector::new());
}

/// Flushes the calling thread's collected tree into the global
/// aggregate (untagged: totals only) and resets the thread collector.
/// Call after driving work on a thread that does not use
/// [`device_scope`] — e.g. the fleet main thread's orchestration scopes
/// or the single device of a profiled `sdb sim`.
pub fn flush_thread() {
    TLS.with(|c| {
        let mut c = c.borrow_mut();
        let table = std::mem::replace(&mut c.table, Table::with_capacity());
        let shard = c.shard;
        drop(c);
        flush_table(&table, shard, None);
    });
}

/// A point-in-time copy of the flushed aggregate, ready for rendering.
/// Devices flush as they complete, so successive snapshots taken during
/// a run see the tree grow monotonically.
///
/// # Panics
///
/// Panics if the global aggregate lock is poisoned.
#[must_use]
pub fn snapshot() -> Snapshot {
    let g = GLOBAL.lock().expect("prof global aggregate poisoned");
    render::snapshot_from(&g.total, &g.per_cohort, &g.per_shard, &g.cohorts)
}

// ---------------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------------

/// Guard for an always-counted scope. Timing depends on which
/// constructor produced it ([`scope`]: always; [`sub`]: on hot steps;
/// [`StepGuard::hot_sub`]: always, but only constructed hot).
#[derive(Debug)]
pub struct ScopeGuard {
    active: bool,
    start: Option<Instant>,
}

impl ScopeGuard {
    const INACTIVE: ScopeGuard = ScopeGuard {
        active: false,
        start: None,
    };
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.active {
            TLS.with(|c| c.borrow_mut().exit(self.start.take()));
        }
    }
}

/// Opens an always-counted, always-timed scope — run/device-granularity
/// phases where the timing cost is negligible relative to the body.
#[must_use]
pub fn scope(phase: Phase) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard::INACTIVE;
    }
    TLS.with(|c| c.borrow_mut().enter(phase));
    ScopeGuard {
        active: true,
        start: Some(Instant::now()),
    }
}

/// Opens an always-counted scope that is wall-clock timed only inside a
/// hot gating step — per-trace-step phases (plan, tick, link traffic).
#[must_use]
pub fn sub(phase: Phase) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard::INACTIVE;
    }
    let hot = TLS.with(|c| {
        let mut c = c.borrow_mut();
        c.enter(phase);
        c.hot
    });
    ScopeGuard {
        active: true,
        start: if hot { Some(Instant::now()) } else { None },
    }
}

/// Guard for a sampling-gate step ([`step`]).
#[derive(Debug)]
pub struct StepGuard {
    active: bool,
    gater: bool,
    hot: bool,
    start: Option<Instant>,
}

impl StepGuard {
    /// Whether this step is wall-clock timed (1 in [`SAMPLE_EVERY`]).
    #[must_use]
    pub fn hot(&self) -> bool {
        self.hot
    }

    /// Opens a sub-step scope that records (count *and* time) only on
    /// hot steps — a single branch, no thread-local access, on the cold
    /// 127 of 128. Sub-step counts stay deterministic because hotness is
    /// decided by the device-local tick, not the clock.
    #[must_use]
    pub fn hot_sub(&self, phase: Phase) -> ScopeGuard {
        if !self.active || !self.hot {
            return ScopeGuard::INACTIVE;
        }
        TLS.with(|c| c.borrow_mut().enter(phase));
        ScopeGuard {
            active: true,
            start: Some(Instant::now()),
        }
    }
}

impl Drop for StepGuard {
    fn drop(&mut self) {
        if self.active {
            TLS.with(|c| {
                let mut c = c.borrow_mut();
                c.exit(self.start.take());
                if self.gater {
                    c.in_step = false;
                    c.hot = false;
                }
            });
        }
    }
}

/// Opens a gating step: advances the per-device tick and decides whether
/// this step is hot (wall-clock timed). The step itself is always
/// counted. When a gating step is already open on this thread (e.g. a
/// `MicroStep` nested under the scheduler's `TraceStep`), the scope
/// inherits the open step's hot decision instead of double-advancing
/// the gate.
#[must_use]
pub fn step(phase: Phase) -> StepGuard {
    if !enabled() {
        return StepGuard {
            active: false,
            gater: false,
            hot: false,
            start: None,
        };
    }
    let (gater, hot) = TLS.with(|c| {
        let mut c = c.borrow_mut();
        let gater = !c.in_step;
        if gater {
            c.tick += 1;
            c.hot = c.tick % SAMPLE_EVERY == 1;
            c.in_step = true;
        }
        c.enter(phase);
        (gater, c.hot)
    });
    StepGuard {
        active: true,
        gater,
        hot,
        start: if hot { Some(Instant::now()) } else { None },
    }
}

/// Guard for one device's profiled run ([`device_scope`]).
#[derive(Debug)]
pub struct DeviceScope {
    active: bool,
    cohort: u16,
    start: Option<Instant>,
}

impl Drop for DeviceScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        TLS.with(|c| {
            let mut c = c.borrow_mut();
            c.exit(self.start.take());
            let table = std::mem::replace(&mut c.table, Table::with_capacity());
            let shard = c.shard;
            drop(c);
            flush_table(&table, shard, Some(self.cohort));
        });
    }
}

/// Opens a per-device profiling scope: resets the sampling gate (so the
/// hot-tick pattern is a function of the device alone, not of which
/// worker ran it) and, on drop, flushes the thread's tree into the
/// global aggregate tagged with the worker's shard and this `cohort`
/// (from [`cohort_id`]).
#[must_use]
pub fn device_scope(cohort: u16) -> DeviceScope {
    if !enabled() {
        return DeviceScope {
            active: false,
            cohort,
            start: None,
        };
    }
    TLS.with(|c| {
        let mut c = c.borrow_mut();
        c.tick = 0;
        c.hot = false;
        c.in_step = false;
        c.enter(Phase::DeviceRun);
    });
    DeviceScope {
        active: true,
        cohort,
        start: Some(Instant::now()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global profiler state is process-wide; tests serialize on this.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn counts_of(snapshot: &Snapshot) -> Vec<(Phase, u64)> {
        let mut out = Vec::new();
        fn rec(nodes: &[PhaseNode], out: &mut Vec<(Phase, u64)>) {
            for n in nodes {
                out.push((n.phase, n.count));
                rec(&n.children, out);
            }
        }
        rec(&snapshot.phases, &mut out);
        out
    }

    #[test]
    fn disabled_guards_record_nothing() {
        let _l = locked();
        reset();
        disable();
        {
            let s = step(Phase::MicroStep);
            let _h = s.hot_sub(Phase::CurveEval);
            let _sc = scope(Phase::DeviceRun);
        }
        flush_thread();
        assert!(snapshot().phases.is_empty());
    }

    #[test]
    fn step_gate_samples_counts_deterministically() {
        let _l = locked();
        reset();
        enable();
        let n = 3 * SAMPLE_EVERY;
        for _ in 0..n {
            let s = step(Phase::MicroStep);
            let _h = s.hot_sub(Phase::CurveEval);
        }
        flush_thread();
        disable();
        let snap = snapshot();
        let counts = counts_of(&snap);
        assert_eq!(
            counts,
            vec![(Phase::MicroStep, n), (Phase::CurveEval, 3)],
            "1-in-{SAMPLE_EVERY} ticks are hot, starting at the first"
        );
    }

    #[test]
    fn nested_step_inherits_the_open_gate() {
        let _l = locked();
        reset();
        enable();
        for _ in 0..SAMPLE_EVERY {
            let outer = step(Phase::TraceStep);
            let inner = step(Phase::MicroStep);
            assert_eq!(inner.hot(), outer.hot());
            let _h = inner.hot_sub(Phase::RcState);
        }
        flush_thread();
        disable();
        let snap = snapshot();
        let counts = counts_of(&snap);
        // One gate advance per outer step: exactly one hot tick in
        // SAMPLE_EVERY, so RcState recorded once; MicroStep nested under
        // TraceStep counts every iteration.
        assert_eq!(
            counts,
            vec![
                (Phase::TraceStep, SAMPLE_EVERY),
                (Phase::MicroStep, SAMPLE_EVERY),
                (Phase::RcState, 1),
            ]
        );
    }

    #[test]
    fn device_scope_resets_gate_and_tags_cohort_and_shard() {
        let _l = locked();
        reset();
        enable();
        let phone = cohort_id("phone");
        let watch = cohort_id("watch");
        set_shard(7);
        for cohort in [phone, watch, phone] {
            let _d = device_scope(cohort);
            for _ in 0..10 {
                let _s = step(Phase::TraceStep);
            }
        }
        disable();
        let snap = snapshot();
        // Total: 3 devices × 10 steps.
        assert_eq!(
            counts_of(&snap),
            vec![(Phase::DeviceRun, 3), (Phase::TraceStep, 30)]
        );
        // Cohorts keyed by sorted name.
        let names: Vec<&str> = snap.per_cohort.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["phone", "watch"]);
        assert_eq!(snap.per_cohort[0].1[0].count, 2, "phone ran twice");
        assert_eq!(snap.per_cohort[1].1[0].count, 1, "watch ran once");
        assert_eq!(snap.per_shard.len(), 1);
        assert_eq!(snap.per_shard[0].0, 7);
        assert_eq!(snap.per_shard[0].1[0].count, 3);
    }

    #[test]
    fn flush_order_cannot_change_the_aggregate() {
        let _l = locked();
        enable();
        let runs: &[&[u64]] = &[&[4, 2], &[2, 4], &[2, 4, 4, 2]];
        let mut rendered = Vec::new();
        for (case, devices) in runs.iter().enumerate() {
            reset();
            let c = cohort_id("c");
            for &steps in devices.iter() {
                let _d = device_scope(c);
                for _ in 0..steps {
                    let _s = step(Phase::TraceStep);
                }
            }
            if case == 2 {
                // Doubled population: not comparable, just exercise it.
                continue;
            }
            rendered.push(snapshot().render_counts());
        }
        disable();
        assert_eq!(rendered[0], rendered[1], "device order must not matter");
        reset();
    }

    #[test]
    fn always_timed_scope_records_wall_facts() {
        let _l = locked();
        reset();
        enable();
        {
            let _sc = scope(Phase::ReportMerge);
            std::hint::black_box(1 + 1);
        }
        flush_thread();
        disable();
        let snap = snapshot();
        let node = &snap.phases[0];
        assert_eq!(node.phase, Phase::ReportMerge);
        assert_eq!(node.count, 1);
        assert_eq!(node.timed, 1);
        assert!(node.max_ns >= node.min_ns);
        reset();
    }
}
