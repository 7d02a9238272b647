#![allow(missing_docs)]
//! One bench per paper table/figure: measures the cost of regenerating
//! each artifact end-to-end (the regeneration itself asserts nothing —
//! shape checks live in the unit/integration tests).

use sdb_bench::experiments::*;
use sdb_bench::harness::Harness;
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args();

    h.bench("table1", || black_box(tables::render_table1()));
    h.bench("table2", || black_box(tables::render_table2()));
    h.bench("fig1a", || black_box(fig1::fig1a()));
    h.bench("fig1b", || black_box(fig1::fig1b()));
    h.bench("fig1c", || black_box(fig1::fig1c()));
    h.bench("fig6a", || black_box(fig6::fig6a()));
    h.bench("fig6b", || black_box(fig6::fig6b()));
    h.bench("fig6c", || black_box(fig6::fig6c()));
    h.bench("fig6d", || black_box(fig6::fig6d()));
    h.bench("fig8b", || black_box(fig8::fig8b()));
    h.bench("fig8c", || black_box(fig8::fig8c()));
    h.bench("fig11a", || black_box(fig11::fig11a()));
    h.bench("fig11c", || black_box(fig11::fig11c()));

    // End-to-end multi-simulation jobs: one run per sample.
    h.bench_heavy("fig10", || black_box(fig10::fig10_reports()));
    h.bench_heavy("fig11b", || black_box(fig11::fig11b_curves()));
    h.bench_heavy("fig12", || black_box(fig12::fig12_rows()));
    h.bench_heavy("fig13", || black_box(fig13::fig13_outcomes()));
    h.bench_heavy("fig14", || black_box(fig14::fig14_rows()));
    h.bench_heavy("ablations", || black_box(ablations::render_ablations()));

    h.finish();
}
