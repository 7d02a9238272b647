//! The preallocated phase slot table.
//!
//! A [`Table`] is a forest of phase nodes stored in one flat `Vec<Slot>`
//! with per-slot child links indexed by phase — resolving a child is an
//! array lookup, never a hash or search. Slots are created lazily the
//! first time a phase path is entered (the only allocating operation);
//! after that, recording into a slot touches preallocated state only:
//! the duration sketch is prewarmed over the clamp range at slot
//! creation so steady-state inserts never allocate a bucket.
//!
//! Merging two tables adds counts and nanosecond totals and folds the
//! duration sketches bucket-wise — all commutative and associative, so
//! shard/device merge order cannot change the aggregate (the same
//! contract the fleet engine's metric registries follow).

use crate::phase::{Phase, PHASE_COUNT};
use sdb_observe::QuantileSketch;

/// Sentinel for "no slot" in child/root link tables.
pub(crate) const NONE: u16 = u16::MAX;

/// Slot capacity preallocated per thread-local table. Instrumented phase
/// paths stay far below this; the vector can still grow if exceeded.
pub(crate) const MAX_SLOTS: usize = 64;

/// Relative accuracy of per-phase duration sketches. Coarser than the
/// fleet default (1 %) on purpose: 5 % keeps the prewarmed bucket range
/// near two hundred entries per slot.
pub(crate) const SKETCH_ALPHA: f64 = 0.05;

/// Durations are clamped into `[CLAMP_LO_NS, CLAMP_HI_NS]` before the
/// sketch insert so the prewarmed bucket set covers every insert (the
/// allocation-free guarantee). Exact min/max are kept unclamped in
/// dedicated slot fields.
pub(crate) const CLAMP_LO_NS: f64 = 1.0;
/// Upper clamp bound: 10 s in nanoseconds.
pub(crate) const CLAMP_HI_NS: f64 = 1e10;

/// One node of the phase forest.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    /// Which phase this slot records.
    pub phase: Phase,
    /// Scope entries (the deterministic fact).
    pub count: u64,
    /// Scope entries that were actually timed (sampled; wall-clock fact).
    pub timed: u64,
    /// Sum of timed durations in nanoseconds.
    pub total_ns: u64,
    /// Exact minimum timed duration (valid when `timed > 0`).
    pub min_ns: u64,
    /// Exact maximum timed duration (valid when `timed > 0`).
    pub max_ns: u64,
    /// Clamped duration distribution for p50/p95.
    pub sketch: QuantileSketch,
    /// Child slot index per phase (`NONE` = absent).
    pub children: [u16; PHASE_COUNT],
}

impl Slot {
    pub(crate) fn new(phase: Phase) -> Slot {
        let mut sketch = QuantileSketch::with_accuracy(SKETCH_ALPHA);
        sketch.prewarm(CLAMP_LO_NS, CLAMP_HI_NS);
        Slot {
            phase,
            count: 0,
            timed: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
            sketch,
            children: [NONE; PHASE_COUNT],
        }
    }

    /// Records one timed duration into the slot. Insert is clamped into
    /// the prewarmed range, so this never allocates.
    pub(crate) fn record_ns(&mut self, ns: u64) {
        self.timed += 1;
        if self.timed == 1 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.total_ns += ns;
        self.sketch
            .insert((ns as f64).clamp(CLAMP_LO_NS, CLAMP_HI_NS));
    }
}

/// A forest of phase slots with root links per phase.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    pub slots: Vec<Slot>,
    pub roots: [u16; PHASE_COUNT],
}

impl Table {
    pub(crate) const fn new() -> Table {
        Table {
            slots: Vec::new(),
            roots: [NONE; PHASE_COUNT],
        }
    }

    pub(crate) fn with_capacity() -> Table {
        Table {
            slots: Vec::with_capacity(MAX_SLOTS),
            roots: [NONE; PHASE_COUNT],
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Index of the `phase` child under `parent` (a root when `None`),
    /// creating the slot on first use — the only allocating path.
    pub(crate) fn resolve(&mut self, parent: Option<u16>, phase: Phase) -> u16 {
        let pi = phase as usize;
        let existing = match parent {
            None => self.roots[pi],
            Some(p) => self.slots[p as usize].children[pi],
        };
        if existing != NONE {
            return existing;
        }
        let idx = u16::try_from(self.slots.len()).expect("phase slot table exceeded u16 indexing");
        self.slots.push(Slot::new(phase));
        match parent {
            None => self.roots[pi] = idx,
            Some(p) => self.slots[p as usize].children[pi] = idx,
        }
        idx
    }

    /// Folds `src` into this table node-by-node along matching phase
    /// paths. Counts and totals add, min/max widen, sketches merge
    /// bucket-wise — commutative and associative, so any merge order
    /// yields the identical table.
    pub(crate) fn merge_from(&mut self, src: &Table) {
        for pi in 0..PHASE_COUNT {
            let s = src.roots[pi];
            if s != NONE {
                self.merge_node(None, src, s);
            }
        }
    }

    fn merge_node(&mut self, dst_parent: Option<u16>, src: &Table, s_idx: u16) {
        let s = &src.slots[s_idx as usize];
        let d_idx = self.resolve(dst_parent, s.phase);
        {
            let d = &mut self.slots[d_idx as usize];
            d.count += s.count;
            if s.timed > 0 {
                if d.timed == 0 {
                    d.min_ns = s.min_ns;
                    d.max_ns = s.max_ns;
                } else {
                    d.min_ns = d.min_ns.min(s.min_ns);
                    d.max_ns = d.max_ns.max(s.max_ns);
                }
                d.timed += s.timed;
                d.total_ns += s.total_ns;
                d.sketch.merge_from(&s.sketch);
            }
        }
        for pi in 0..PHASE_COUNT {
            let child = s.children[pi];
            if child != NONE {
                self.merge_node(Some(d_idx), src, child);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::ALL_PHASES;

    fn sample_table(scale: u64) -> Table {
        let mut t = Table::with_capacity();
        let root = t.resolve(None, Phase::DeviceRun);
        t.slots[root as usize].count += 1;
        t.slots[root as usize].record_ns(1_000_000 * scale);
        let step = t.resolve(Some(root), Phase::TraceStep);
        for i in 0..10 * scale {
            t.slots[step as usize].count += 1;
            t.slots[step as usize].record_ns(500 + i);
        }
        let micro = t.resolve(Some(step), Phase::MicroStep);
        t.slots[micro as usize].count += 10 * scale;
        t.slots[micro as usize].record_ns(300 * scale);
        t
    }

    /// Walks a table's forest depth-first in phase order, calling `f` with
    /// `(depth, slot)`.
    fn walk<'a>(table: &'a Table, f: &mut impl FnMut(usize, &'a Slot)) {
        fn rec<'a>(table: &'a Table, idx: u16, depth: usize, f: &mut impl FnMut(usize, &'a Slot)) {
            let slot = &table.slots[idx as usize];
            f(depth, slot);
            for pi in 0..PHASE_COUNT {
                let child = slot.children[pi];
                if child != NONE {
                    rec(table, child, depth + 1, f);
                }
            }
        }
        for pi in 0..PHASE_COUNT {
            let root = table.roots[pi];
            if root != NONE {
                rec(table, root, 0, f);
            }
        }
    }

    #[test]
    fn resolve_reuses_slots_per_path() {
        let mut t = Table::with_capacity();
        let a = t.resolve(None, Phase::MicroStep);
        let b = t.resolve(None, Phase::MicroStep);
        assert_eq!(a, b);
        let c1 = t.resolve(Some(a), Phase::CurveEval);
        let c2 = t.resolve(Some(a), Phase::CurveEval);
        assert_eq!(c1, c2);
        assert_eq!(t.slots.len(), 2);
        // The same phase under a different parent is a different slot.
        let other_root = t.resolve(None, Phase::TraceStep);
        let c3 = t.resolve(Some(other_root), Phase::CurveEval);
        assert_ne!(c1, c3);
    }

    #[test]
    fn merge_is_commutative() {
        let a = sample_table(1);
        let b = sample_table(3);
        let mut ab = Table::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let mut ba = Table::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        let mut left = Vec::new();
        walk(&ab, &mut |d, s| {
            left.push((d, s.phase, s.count, s.timed, s.total_ns, s.min_ns, s.max_ns));
        });
        let mut right = Vec::new();
        walk(&ba, &mut |d, s| {
            right.push((d, s.phase, s.count, s.timed, s.total_ns, s.min_ns, s.max_ns));
        });
        assert_eq!(left, right);
    }

    #[test]
    fn record_tracks_exact_min_max_past_the_clamp() {
        let mut s = Slot::new(Phase::DeviceRun);
        s.record_ns(2 * (CLAMP_HI_NS as u64));
        s.record_ns(100);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 2 * (CLAMP_HI_NS as u64));
        // Sketch saw the clamped value, exact fields did not.
        assert!(s.sketch.max() <= CLAMP_HI_NS);
    }

    #[test]
    fn all_phases_cover_child_tables() {
        assert_eq!(ALL_PHASES.len(), PHASE_COUNT);
    }
}
