//! Property tests: cursor-cached curve lookups are **bit-identical** to the
//! plain binary-search forms, for arbitrary curves and arbitrary query
//! histories (the cursor is a pure memo — whatever state a previous query
//! left it in must never change a result).

use sdb_battery_model::{Curve, CurveCursor};
use sdb_testkit::{check, Gen};

/// A random strictly-increasing-x curve with 2..=24 knots. Y values are
/// unconstrained (so non-monotone curves are common); with probability
/// 0.3 the y values are forced increasing (so the monotone invert fast
/// path gets exercised too), and flat segments are injected sometimes to
/// probe the `|y1 - y0| < EPSILON` branch of `invert`.
fn random_curve(g: &mut Gen) -> Curve {
    let n = g.usize_range(2, 25);
    let mut x = -5.0 + g.f64_range(0.0, 10.0);
    let monotone = g.chance(0.3);
    let mut y = g.f64_range(-2.0, 2.0);
    let mut pts = Vec::with_capacity(n);
    for _ in 0..n {
        pts.push((x, y));
        x += g.f64_range(1e-3, 2.0);
        if g.chance(0.1) {
            // Flat segment: keep y exactly.
        } else if monotone {
            y += g.f64_range(1e-6, 1.5);
        } else {
            y = g.f64_range(-2.0, 2.0);
        }
    }
    Curve::new(pts).expect("valid curve")
}

/// A query mixing smooth drift, jumps, exact knot hits, and out-of-range
/// probes — the access patterns the cursor must survive.
fn random_query(g: &mut Gen, curve: &Curve, prev: f64) -> f64 {
    let pts = curve.points();
    let (x0, x1) = (pts[0].0, pts[pts.len() - 1].0);
    match g.below(10) {
        // Drift near the previous query (the cursor's fast path).
        0..=4 => (prev + g.f64_range(-0.05, 0.05)).clamp(x0 - 0.5, x1 + 0.5),
        // Random jump anywhere in (and slightly beyond) the domain.
        5 | 6 => g.f64_range(x0 - 1.0, x1 + 1.0),
        // Exact knot hit.
        7 | 8 => pts[g.usize_range(0, pts.len())].0,
        // Far out of range (clamp path).
        _ => {
            if g.chance(0.5) {
                x0 - g.f64_range(0.0, 10.0)
            } else {
                x1 + g.f64_range(0.0, 10.0)
            }
        }
    }
}

#[test]
fn cached_eval_and_slope_match_plain_bit_for_bit() {
    check(256, 0x5EC0_11E1, |g: &mut Gen| {
        let curve = random_curve(g);
        let cursor = CurveCursor::new();
        let mut x = curve.points()[0].0;
        for _ in 0..64 {
            x = random_query(g, &curve, x);
            let (v_plain, s_plain) = (curve.eval(x), curve.slope(x));
            let v_cached = curve.eval_cached(&cursor, x);
            let (_, s_cached) = curve.value_and_slope_cached(&cursor, x);
            assert_eq!(
                v_plain.to_bits(),
                v_cached.to_bits(),
                "eval mismatch at x={x} on {curve:?}"
            );
            assert_eq!(
                s_plain.to_bits(),
                s_cached.to_bits(),
                "slope mismatch at x={x} on {curve:?}"
            );
        }
    });
}

#[test]
fn value_and_slope_matches_the_two_call_form() {
    check(256, 0x00C0_3B1D, |g: &mut Gen| {
        let curve = random_curve(g);
        let cursor = CurveCursor::new();
        let mut x = curve.points()[0].0;
        for _ in 0..64 {
            x = random_query(g, &curve, x);
            let (v, s) = curve.value_and_slope(x);
            assert_eq!(v.to_bits(), curve.eval(x).to_bits(), "value at x={x}");
            assert_eq!(s.to_bits(), curve.slope(x).to_bits(), "slope at x={x}");
            let (vc, sc) = curve.value_and_slope_cached(&cursor, x);
            assert_eq!(vc.to_bits(), v.to_bits(), "cached value at x={x}");
            assert_eq!(sc.to_bits(), s.to_bits(), "cached slope at x={x}");
        }
    });
}

#[test]
fn cached_invert_matches_plain_invert() {
    check(256, 0x0127_20CF, |g: &mut Gen| {
        let curve = random_curve(g);
        let cursor = CurveCursor::new();
        let pts = curve.points();
        let lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        for _ in 0..64 {
            let y = match g.below(4) {
                // In-range targets, including exact knot y values.
                0 | 1 => g.f64_range(lo - 0.1, hi + 0.1),
                2 => pts[g.usize_range(0, pts.len())].1,
                _ => g.f64_range(lo - 5.0, hi + 5.0),
            };
            let plain = curve.invert(y);
            let cached = curve.invert_cached(&cursor, y);
            match (plain, cached) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "invert({y}) on {curve:?}");
                }
                _ => panic!("invert({y}): plain={plain:?} cached={cached:?} on {curve:?}"),
            }
        }
    });
}

#[test]
fn lut_stays_within_its_reported_error_bound() {
    check(128, 0x0107_B0BD, |g: &mut Gen| {
        let curve = random_curve(g);
        let cells = g.usize_range(1, 200);
        let lut = curve.to_lut(cells);
        let bound = lut.max_abs_error(&curve);
        let pts = curve.points();
        let (x0, x1) = (pts[0].0, pts[pts.len() - 1].0);
        for _ in 0..64 {
            let x = g.f64_range(x0 - 1.0, x1 + 1.0);
            let err = (lut.eval(x) - curve.eval(x)).abs();
            // Small slop: the bound is computed at breakpoints; sampled
            // interior points can exceed it only by rounding noise.
            assert!(
                err <= bound * (1.0 + 1e-12) + 1e-12,
                "lut error {err} exceeds bound {bound} at x={x}"
            );
        }
    });
}
