#![allow(missing_docs)]
//! Micro-step hot-loop bench with an allocation regression guard.
//!
//! Measures ns/step and steps/sec for small packs (the sizes whose
//! per-battery report detail fits inline in [`BatterySteps`]), and — under
//! a counting global allocator — measures heap allocations per step at
//! steady state, asserting the hot loop stays allocation-free. Also
//! asserts the phase profiler's overhead budget and allocation-free
//! profiled steps, and prints the SoA fast-forward cycle cost. Every
//! gate is an `assert!`, so the bench's exit status is the check.

use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::spec::BatterySpec;
use sdb_bench::harness::{format_ns, Harness};
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::profile::ProfileKind;
use sdb_emulator::{QuiescenceConfig, SoaCohort};
use sdb_testkit::{alloc_counter, CountingAllocator};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Steps per routine call: long enough to amortize timer reads, short
/// enough that calibration converges quickly.
const STEPS_PER_CALL: u64 = 100;

fn pack_of(n: usize) -> Microcontroller {
    let chems = [
        Chemistry::Type2CoStandard,
        Chemistry::Type3CoPower,
        Chemistry::Type1LfpPower,
        Chemistry::OtherNmc,
    ];
    let mut b = PackBuilder::new();
    for i in 0..n {
        b = b.battery_at(
            BatterySpec::from_chemistry(&format!("cell{i}"), chems[i % chems.len()], 2.0),
            0.9,
            ProfileKind::Standard,
        );
    }
    b.build()
}

/// Allocations per step at steady state: warm a fresh pack up (scratch
/// buffers grow, cursors settle), then count over many steps.
fn allocs_per_step(n: usize) -> f64 {
    let mut micro = pack_of(n);
    let load = 3.0 * n as f64;
    for _ in 0..50 {
        black_box(micro.step(load, 0.0, 1.0));
    }
    let steps = 1000u64;
    let before = alloc_counter::allocs();
    for _ in 0..steps {
        black_box(micro.step(load, 0.0, 1.0));
    }
    (alloc_counter::allocs() - before) as f64 / steps as f64
}

/// Pack size the profiler-overhead pair runs on (the largest inline
/// size).
const PROF_PACK: usize = 8;
/// Packs per timed run, each warmed from the template and then stepped
/// `PROF_STEPS` times: one run times `PROF_PACKS * PROF_STEPS` steps
/// (several ms, so a scheduler hiccup is a small share of it) over the
/// states of a full pack; one pack stepped that many times in a row
/// would near empty and step differently.
const PROF_PACKS: usize = 4;
/// Steps per pack per timed run, covering ~15 hot (sampled) profiler
/// ticks.
const PROF_STEPS: u64 = 2000;
/// Interleaved disabled/enabled pairs; the overhead is the median of
/// the pairs' time ratios.
const PROF_REPS: usize = 51;

/// One timed run over `PROF_PACKS` warmed packs, returning ns/step.
fn prof_timed_run(template: &Microcontroller, load: f64) -> f64 {
    let mut packs: Vec<Microcontroller> = (0..PROF_PACKS)
        .map(|_| {
            let mut micro = template.clone();
            for _ in 0..50 {
                black_box(micro.step(load, 0.0, 1.0));
            }
            micro
        })
        .collect();
    let t0 = std::time::Instant::now();
    for micro in &mut packs {
        for _ in 0..PROF_STEPS {
            black_box(micro.step(load, 0.0, 1.0));
        }
    }
    t0.elapsed().as_nanos() as f64 / (PROF_PACKS as u64 * PROF_STEPS) as f64
}

/// Measures the profiler's cost on the hot loop: the median time ratio
/// of interleaved enabled/disabled run pairs on the 8-battery pack, plus
/// a steady-state allocation count and the per-phase self-time shares of
/// the micro step. Returns
/// `(overhead_pct, profiled_allocs_per_step, phase shares %)`.
fn prof_overhead() -> (f64, f64, Vec<(&'static str, f64)>) {
    let template = pack_of(PROF_PACK);
    let load = 3.0 * PROF_PACK as f64;
    // The two runs of a pair are adjacent in time, so a slowdown of the
    // shared host that spans both cancels in their ratio; the order
    // alternates so that a drift within a pair favours neither mode.
    let timed = |enabled: bool| {
        if enabled {
            sdb_prof::enable();
        } else {
            sdb_prof::disable();
        }
        prof_timed_run(&template, load)
    };
    let mut ratios: Vec<f64> = (0..PROF_REPS)
        .map(|rep| {
            let enabled_first = rep % 2 == 1;
            let first = timed(enabled_first);
            let second = timed(!enabled_first);
            if enabled_first {
                first / second
            } else {
                second / first
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let overhead_pct = ((ratios[PROF_REPS / 2] - 1.0) * 100.0).max(0.0);
    sdb_prof::enable();

    // Steady-state allocations with the profiler recording: the slot
    // table and prewarmed sketches were created during the runs above,
    // so these steps must not allocate at all (sketch inserts are
    // clamped into the prewarmed bucket range).
    let mut micro = template.clone();
    for _ in 0..200 {
        black_box(micro.step(load, 0.0, 1.0));
    }
    let steps = 1000u64;
    let before = alloc_counter::allocs();
    for _ in 0..steps {
        black_box(micro.step(load, 0.0, 1.0));
    }
    let profiled_allocs = (alloc_counter::allocs() - before) as f64 / steps as f64;

    // Phase shares from a clean aggregate: share of the micro step's
    // sampled time spent in each instrumented sub-phase.
    sdb_prof::reset();
    let mut micro = template.clone();
    for _ in 0..(4 * sdb_prof::SAMPLE_EVERY) {
        black_box(micro.step(load, 0.0, 1.0));
    }
    sdb_prof::flush_thread();
    sdb_prof::disable();
    let snap = sdb_prof::snapshot();
    let step_node = snap
        .find_path(&[sdb_prof::Phase::MicroStep])
        .expect("profiled run recorded micro steps");
    let shares: Vec<(&'static str, f64)> = step_node
        .children
        .iter()
        .map(|c| {
            (
                c.phase.name(),
                c.total_ns as f64 / step_node.total_ns.max(1) as f64 * 100.0,
            )
        })
        .collect();
    sdb_prof::reset();
    (overhead_pct, profiled_allocs, shares)
}

/// Simulated ticks per timed repetition of the SoA fast-forward cycle:
/// long enough to amortize timer reads across many enter/advance/exit
/// cycles, short enough that the pack stays far from the SoC floor.
const SOA_TICKS_PER_REP: u64 = 4000;
/// Repetitions; min-of-reps.
const SOA_REPS: usize = 9;

/// ns per simulated tick of the SoA engine's steady-state quiescent
/// cycle: closed-form multi-tick advances up to each boundary (stretch
/// cap, drift budget, gauge recalibration), plus the amortized scalar
/// sync tick and lane exit/re-entry at every boundary — exactly what the
/// fleet hot path pays per fast-forwarded tick. Returns
/// `(ns_per_tick, fast_forwarded_fraction)`.
fn soa_step_ns() -> (f64, f64) {
    let template = PackBuilder::new()
        .battery_at(
            BatterySpec::from_chemistry("energy", Chemistry::Type2CoStandard, 2.0),
            0.9,
            ProfileKind::Standard,
        )
        .battery_at(
            BatterySpec::from_chemistry("power", Chemistry::Type3CoPower, 2.0),
            0.8,
            ProfileKind::Fast,
        )
        .build();
    let load = 0.05;
    let dt = 60.0;
    let mut best = f64::INFINITY;
    let mut ff_frac = 0.0;
    for _ in 0..SOA_REPS {
        let mut micro = template.clone();
        let mut soa = SoaCohort::new(&micro, 1, QuiescenceConfig);
        // Settle the RC transient at the held load so the lane qualifies.
        let mut report = micro.step(load, 0.0, dt);
        for _ in 0..50 {
            report = micro.step(load, 0.0, dt);
        }
        assert!(
            soa.try_enter(0, &micro, &report, load, dt),
            "settled standby pack must qualify for the quiescent lane"
        );
        let mut ticks = 0u64;
        let mut ff = 0u64;
        let t0 = std::time::Instant::now();
        while ticks < SOA_TICKS_PER_REP {
            let k = soa.max_ticks(0, load, dt);
            if k == 0 {
                soa.exit(0, &mut micro);
                report = black_box(micro.step(load, 0.0, dt));
                ticks += 1;
                assert!(
                    soa.try_enter(0, &micro, &report, load, dt),
                    "lane re-entry after a sync tick must succeed on a standby pack"
                );
            } else {
                soa.advance(0, load, dt, k);
                ticks += u64::from(k);
                ff += u64::from(k);
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / ticks as f64;
        if ns < best {
            best = ns;
            ff_frac = ff as f64 / ticks as f64;
        }
        soa.exit(0, &mut micro);
    }
    (best, ff_frac)
}

fn main() {
    let mut h = Harness::from_args();
    let sizes = [2usize, 4, 8];
    let mut rows = Vec::new();

    for &n in &sizes {
        // Template cloned per iteration so every measurement starts from
        // the same SoC; the 100-step routine is dominated by warm steps.
        let template = pack_of(n);
        let load = 3.0 * n as f64;
        h.bench_batched_scaled(
            &format!("micro_step/{n}"),
            STEPS_PER_CALL,
            || template.clone(),
            |mut micro| {
                for _ in 0..STEPS_PER_CALL {
                    black_box(micro.step(load, 0.0, 1.0));
                }
                micro
            },
        );
        let ns_per_step = h.results().last().expect("bench recorded").min_ns;
        let allocs = allocs_per_step(n);
        println!(
            "  pack {n}: {} per step, {:.0} steps/sec, {allocs} allocs/step",
            format_ns(ns_per_step),
            1e9 / ns_per_step
        );
        rows.push((ns_per_step, allocs));
    }
    h.finish();

    let max_allocs = rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
    assert!(
        max_allocs == 0.0,
        "steady-state micro step allocated (max {max_allocs}/step) — the hot \
         loop regressed"
    );

    let (overhead_pct, profiled_allocs, shares) = prof_overhead();
    println!(
        "  prof overhead (pack {PROF_PACK}): {overhead_pct:.2}% \
         ({profiled_allocs} allocs/step profiled)"
    );
    for (name, pct) in &shares {
        println!("    {name:<16} {pct:5.1}% of sampled step time");
    }
    assert!(
        overhead_pct <= 5.0,
        "profiler overhead {overhead_pct:.2}% exceeds the 5% budget on the \
         {PROF_PACK}-battery pack"
    );
    assert!(
        profiled_allocs == 0.0,
        "profiled micro step allocated ({profiled_allocs}/step) — the prof \
         hot path must stay allocation-free"
    );

    let (soa_ns, soa_ff) = soa_step_ns();
    let scalar_ns = rows[0].0;
    println!(
        "  soa_step (pack 2): {} per simulated tick ({:.1}% fast-forwarded, \
         {:.1}x vs scalar step)",
        format_ns(soa_ns),
        soa_ff * 100.0,
        scalar_ns / soa_ns
    );
}
