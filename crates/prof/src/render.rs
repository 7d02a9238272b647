//! Snapshot extraction and the four export surfaces.
//!
//! Every export splits the data the same way the fleet engine splits
//! `FleetReport` from `FleetRunStats`: call counts (and the phase tree
//! shape, cohort attribution) are deterministic — bit-identical at any
//! thread count — while nanosecond timings, sampled quantiles, and
//! per-shard attribution are wall-clock facts quarantined into a
//! separate section. The counts-only renderer and the flamegraph emit
//! *only* deterministic data, which is what CI `cmp`s across thread
//! counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::phase::{Phase, PHASE_COUNT};
use crate::table::{Slot, Table, NONE};
use crate::SAMPLE_EVERY;
use sdb_observe::json_escape;

/// One node of an extracted phase tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseNode {
    /// The phase this node records.
    pub phase: Phase,
    /// Scope entries — deterministic.
    pub count: u64,
    /// Wall-clock-timed entries (1 in [`SAMPLE_EVERY`] for gated
    /// phases) — a wall fact.
    pub timed: u64,
    /// Sum of timed durations (ns) — a wall fact.
    pub total_ns: u64,
    /// Exact fastest timed duration (ns).
    pub min_ns: u64,
    /// Exact slowest timed duration (ns).
    pub max_ns: u64,
    /// Median timed duration (ns, sketch estimate).
    pub p50_ns: u64,
    /// 95th-percentile timed duration (ns, sketch estimate).
    pub p95_ns: u64,
    /// Child phases in enum order.
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    /// Timed nanoseconds not attributed to a child phase. Children of a
    /// sampled step are timed on the same hot ticks as their parent, so
    /// within a step subtree self/total shares are consistent; an
    /// always-timed scope over sampled children over-reports self time
    /// by design (the untimed ticks' child work lands here).
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        let child_ns: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(child_ns)
    }

    /// The direct child recording `phase`, if present.
    #[must_use]
    pub fn child(&self, phase: Phase) -> Option<&PhaseNode> {
        self.children.iter().find(|c| c.phase == phase)
    }
}

/// A point-in-time extraction of the global aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The merged phase forest over every flushed thread, in phase
    /// order. Counts/shape deterministic; ns fields wall-clock.
    pub phases: Vec<PhaseNode>,
    /// Per-cohort forests, sorted by cohort name (deterministic).
    pub per_cohort: Vec<(String, Vec<PhaseNode>)>,
    /// Per-shard forests keyed by shard id — wall-clock facts (the
    /// shard → device assignment depends on the thread count).
    pub per_shard: Vec<(u16, Vec<PhaseNode>)>,
}

fn node_from(table: &Table, slot: &Slot) -> PhaseNode {
    let (p50, p95) = if slot.timed == 0 {
        (0, 0)
    } else {
        (
            slot.sketch.quantile(0.5) as u64,
            slot.sketch.quantile(0.95) as u64,
        )
    };
    let mut children = Vec::new();
    for pi in 0..PHASE_COUNT {
        let c = slot.children[pi];
        if c != NONE {
            children.push(node_from(table, &table.slots[c as usize]));
        }
    }
    PhaseNode {
        phase: slot.phase,
        count: slot.count,
        timed: slot.timed,
        total_ns: slot.total_ns,
        min_ns: slot.min_ns,
        max_ns: slot.max_ns,
        p50_ns: p50,
        p95_ns: p95,
        children,
    }
}

fn forest_from(table: &Table) -> Vec<PhaseNode> {
    let mut out = Vec::new();
    for pi in 0..PHASE_COUNT {
        let r = table.roots[pi];
        if r != NONE {
            out.push(node_from(table, &table.slots[r as usize]));
        }
    }
    out
}

pub(crate) fn snapshot_from(
    total: &Table,
    per_cohort: &BTreeMap<u16, Table>,
    per_shard: &BTreeMap<u16, Table>,
    cohorts: &[String],
) -> Snapshot {
    let mut named: Vec<(String, Vec<PhaseNode>)> = per_cohort
        .iter()
        .map(|(id, t)| {
            let name = cohorts
                .get(*id as usize)
                .cloned()
                .unwrap_or_else(|| format!("cohort-{id}"));
            (name, forest_from(t))
        })
        .collect();
    named.sort_by(|a, b| a.0.cmp(&b.0));
    Snapshot {
        phases: forest_from(total),
        per_cohort: named,
        per_shard: per_shard
            .iter()
            .map(|(s, t)| (*s, forest_from(t)))
            .collect(),
    }
}

/// The node at `path` (root phase first) in the total forest.
impl Snapshot {
    /// Walks `path` (root phase first) through the total forest.
    #[must_use]
    pub fn find_path(&self, path: &[Phase]) -> Option<&PhaseNode> {
        let (first, rest) = path.split_first()?;
        let mut node = self.phases.iter().find(|n| n.phase == *first)?;
        for p in rest {
            node = node.child(*p)?;
        }
        Some(node)
    }

    /// Deterministic call-count tree: phase names, counts, and cohort
    /// attribution only. Byte-identical at any thread count — the file
    /// CI `cmp`s between `--threads 1` and `--threads 4`.
    #[must_use]
    pub fn render_counts(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "phase call tree (deterministic call counts)");
        counts_tree(&self.phases, &mut out);
        for (name, forest) in &self.per_cohort {
            let _ = writeln!(out, "cohort {name}:");
            counts_tree(forest, &mut out);
        }
        out
    }

    /// Full text report: the deterministic count tree plus a quarantined
    /// wall-clock section (sampled timings, per-shard attribution).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = self.render_counts();
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "wall-clock section (sampled 1/{SAMPLE_EVERY}; varies run to run — quarantined \
             from the deterministic artifact)"
        );
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "phase", "timed", "total_ms", "self_ms", "min_us", "p50_us", "p95_us", "max_us"
        );
        wall_tree(&self.phases, 0, &mut out);
        for (shard, forest) in &self.per_shard {
            let _ = writeln!(out, "shard {shard}:");
            wall_tree(forest, 1, &mut out);
        }
        out
    }

    /// Canonical JSON: `deterministic` and `wall` top-level sections
    /// (stable key order; counts in `deterministic` are byte-identical
    /// at any thread count).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"deterministic\":{\"phases\":[");
        json_forest_counts(&self.phases, &mut out);
        out.push_str("],\"per_cohort\":[");
        for (i, (name, forest)) in self.per_cohort.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"cohort\":\"{}\",\"phases\":[", json_escape(name));
            json_forest_counts(forest, &mut out);
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "]}},\"wall\":{{\"sample_every\":{SAMPLE_EVERY},\"phases\":["
        );
        json_forest_wall(&self.phases, &mut out);
        out.push_str("],\"per_shard\":[");
        for (i, (shard, forest)) in self.per_shard.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"shard\":{shard},\"phases\":[");
            json_forest_wall(forest, &mut out);
            out.push_str("]}");
        }
        out.push_str("]}}");
        out
    }

    /// Collapsed-stack flamegraph lines (`a;b;c value`), one line per
    /// phase path, valued by the deterministic call count — loadable by
    /// inferno / speedscope / flamegraph.pl, and byte-identical at any
    /// thread count.
    #[must_use]
    pub fn render_flame(&self) -> String {
        let mut out = String::new();
        let mut stack: Vec<&'static str> = Vec::new();
        flame_rec(&self.phases, &mut stack, &mut out);
        out
    }
}

fn counts_tree(nodes: &[PhaseNode], out: &mut String) {
    fn rec(nodes: &[PhaseNode], depth: usize, out: &mut String) {
        for n in nodes {
            let label = format!("{}{}", "  ".repeat(depth), n.phase.name());
            let _ = writeln!(out, "  {label:<32} {:>14}", n.count);
            rec(&n.children, depth + 1, out);
        }
    }
    rec(nodes, 0, out);
}

fn wall_tree(nodes: &[PhaseNode], depth: usize, out: &mut String) {
    for n in nodes {
        let label = format!("{}{}", "  ".repeat(depth), n.phase.name());
        let _ = writeln!(
            out,
            "{label:<34} {:>10} {:>12.3} {:>12.3} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            n.timed,
            n.total_ns as f64 / 1e6,
            n.self_ns() as f64 / 1e6,
            n.min_ns as f64 / 1e3,
            n.p50_ns as f64 / 1e3,
            n.p95_ns as f64 / 1e3,
            n.max_ns as f64 / 1e3,
        );
        wall_tree(&n.children, depth + 1, out);
    }
}

fn json_forest_counts(nodes: &[PhaseNode], out: &mut String) {
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"phase\":\"{}\",\"count\":{},\"children\":[",
            n.phase.name(),
            n.count
        );
        json_forest_counts(&n.children, out);
        out.push_str("]}");
    }
}

fn json_forest_wall(nodes: &[PhaseNode], out: &mut String) {
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"phase\":\"{}\",\"count\":{},\"timed\":{},\"total_ns\":{},\"self_ns\":{},\
             \"min_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"max_ns\":{},\"children\":[",
            n.phase.name(),
            n.count,
            n.timed,
            n.total_ns,
            n.self_ns(),
            n.min_ns,
            n.p50_ns,
            n.p95_ns,
            n.max_ns
        );
        json_forest_wall(&n.children, out);
        out.push_str("]}");
    }
}

fn flame_rec(nodes: &[PhaseNode], stack: &mut Vec<&'static str>, out: &mut String) {
    for n in nodes {
        stack.push(n.phase.name());
        let _ = writeln!(out, "{} {}", stack.join(";"), n.count);
        flame_rec(&n.children, stack, out);
        stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut t = Table::with_capacity();
        let d = t.resolve(None, Phase::DeviceRun);
        t.slots[d as usize].count = 2;
        t.slots[d as usize].record_ns(5_000_000);
        let s = t.resolve(Some(d), Phase::TraceStep);
        t.slots[s as usize].count = 200;
        for i in 0..4u64 {
            t.slots[s as usize].record_ns(10_000 + i);
        }
        let m = t.resolve(Some(s), Phase::MicroStep);
        t.slots[m as usize].count = 200;
        t.slots[m as usize].record_ns(2_000);
        let mut per_cohort = BTreeMap::new();
        per_cohort.insert(1u16, t.clone());
        per_cohort.insert(0u16, t.clone());
        let mut per_shard = BTreeMap::new();
        per_shard.insert(0u16, t.clone());
        snapshot_from(
            &t,
            &per_cohort,
            &per_shard,
            &["watch".to_owned(), "phone".to_owned()],
        )
    }

    #[test]
    fn cohorts_render_sorted_by_name_not_id() {
        let snap = sample_snapshot();
        let names: Vec<&str> = snap.per_cohort.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["phone", "watch"]);
    }

    #[test]
    fn self_ns_subtracts_children() {
        let snap = sample_snapshot();
        let step = snap
            .find_path(&[Phase::DeviceRun, Phase::TraceStep])
            .unwrap();
        let micro = step.child(Phase::MicroStep).unwrap();
        assert_eq!(step.self_ns(), step.total_ns - micro.total_ns);
    }

    #[test]
    fn flame_lines_are_full_stacks_with_counts() {
        let snap = sample_snapshot();
        let flame = snap.render_flame();
        let lines: Vec<&str> = flame.lines().collect();
        assert_eq!(
            lines,
            vec![
                "device_run 2",
                "device_run;trace_step 200",
                "device_run;trace_step;micro_step 200",
            ]
        );
    }

    #[test]
    fn json_has_deterministic_and_wall_sections() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        assert!(json.starts_with("{\"deterministic\":"));
        assert!(json.contains("\"wall\":{\"sample_every\":"));
        assert!(json.contains("\"phase\":\"micro_step\""));
        assert!(json.contains("\"per_cohort\":[{\"cohort\":\"phone\""));
        assert!(json.contains("\"per_shard\":[{\"shard\":0"));
        // Counts section carries no nanosecond fields.
        let det = &json[..json.find("\"wall\"").unwrap()];
        assert!(!det.contains("total_ns"));
    }

    #[test]
    fn counts_render_excludes_wall_facts() {
        let snap = sample_snapshot();
        let counts = snap.render_counts();
        assert!(counts.contains("trace_step"));
        assert!(!counts.contains("shard"));
        assert!(!counts.contains("ms"));
        let text = snap.render_text();
        assert!(text.contains("wall-clock section"));
        assert!(text.contains("shard 0:"));
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        let t = Table::with_capacity();
        let mut per_cohort = BTreeMap::new();
        per_cohort.insert(0u16, t.clone());
        let snap = snapshot_from(&t, &per_cohort, &BTreeMap::new(), &["a\"b\\c\n".to_owned()]);
        let json = snap.to_json();
        assert!(
            json.contains(r#"{"cohort":"a\"b\\c\n","phases":[]}"#),
            "{json}"
        );
    }
}
