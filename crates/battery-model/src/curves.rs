//! Piecewise-linear curves for battery characteristic maps.
//!
//! The paper's emulator (Section 4.3) parameterizes every cell with two
//! measured curves: open-circuit potential vs state of charge (Figure 8b)
//! and internal resistance vs state of charge (Figure 8c). The RBL policies
//! additionally need the *derivative* of the DCIR curve (`δi` in Section
//! 3.3), so [`Curve`] exposes both interpolation and slope queries.

use crate::error::BatteryError;
use std::cell::Cell;

/// Last-segment memo for repeated [`Curve`] lookups.
///
/// Battery state of charge drifts slowly between consecutive simulation
/// steps, so the segment that answered the previous query almost always
/// answers the next one. A cursor remembers that segment (and, for
/// [`Curve::invert_cached`], whether the curve is monotone) and lets the
/// cached query paths re-hit it in O(1), probing the two adjacent segments
/// before falling back to the plain binary search on a jump.
///
/// A cursor is pure memoization: every cached query validates the
/// remembered segment against the actual query point before using it, so
/// results are bit-identical to the uncached forms no matter how stale the
/// cursor is. The only contract is that a cursor must be reused with the
/// same curve it last queried — pairing it with a different curve is safe
/// (the validation misses and re-searches) but wastes the memo.
///
/// Interior mutability (`Cell`) keeps the cached query methods `&self`, so
/// a cursor can live next to a shared `Arc<BatterySpec>` without making
/// the spec itself mutable. `Cell` makes holders `!Sync`; the simulation
/// moves each cell/device into exactly one worker thread (`Send`), which
/// is the concurrency contract the workspace asserts.
#[derive(Debug, Clone)]
pub struct CurveCursor {
    /// Index of the upper knot of the last-hit segment (`1..points.len()`).
    seg: Cell<usize>,
    /// Cached monotonicity classification for `invert_cached`.
    mono: Cell<u8>,
    /// Bit pattern of the last `eval_cached` or interior
    /// `value_and_slope_cached` query (NaN sentinel = none); a repeat
    /// `eval_cached` at the identical `x` returns the memoized value
    /// without touching the curve at all.
    x_bits: Cell<u64>,
    /// The value computed for the `x` above.
    y_memo: Cell<f64>,
}

impl CurveCursor {
    const MONO_UNKNOWN: u8 = 0;
    const MONO_YES: u8 = 1;
    const MONO_NO: u8 = 2;

    /// A fresh cursor with no remembered segment.
    #[must_use]
    pub fn new() -> Self {
        Self {
            seg: Cell::new(1),
            mono: Cell::new(Self::MONO_UNKNOWN),
            x_bits: Cell::new(f64::NAN.to_bits()),
            y_memo: Cell::new(f64::NAN),
        }
    }
}

impl Default for CurveCursor {
    fn default() -> Self {
        Self::new()
    }
}

/// A piecewise-linear curve `y = f(x)` over strictly increasing knots.
///
/// Evaluation outside the knot range clamps to the end values (batteries do
/// not extrapolate: an SoC query below the first characterized point returns
/// the first characterized value).
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Knot points, strictly increasing in x.
    points: Vec<(f64, f64)>,
}

impl Curve {
    /// Builds a curve from `(x, y)` knots.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than two points are given, any coordinate is
    /// non-finite, or the x-coordinates are not strictly increasing.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, BatteryError> {
        if points.len() < 2 {
            return Err(BatteryError::CurveTooShort {
                points: points.len(),
            });
        }
        for (i, &(x, y)) in points.iter().enumerate() {
            if !x.is_finite() || !y.is_finite() {
                return Err(BatteryError::CurveNotFinite { index: i });
            }
        }
        for i in 1..points.len() {
            if points[i].0 <= points[i - 1].0 {
                return Err(BatteryError::CurveNotSorted { index: i });
            }
        }
        Ok(Self { points })
    }

    /// Evaluates the curve at `x`, clamping outside the knot range.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        if x >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Binary search for the segment containing x.
        let idx = match pts
            .binary_search_by(|&(px, _)| px.partial_cmp(&x).expect("knots and query are finite"))
        {
            Ok(i) => return pts[i].1,
            Err(i) => i,
        };
        let (x0, y0) = pts[idx - 1];
        let (x1, y1) = pts[idx];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Returns the slope `dy/dx` of the segment containing `x`.
    ///
    /// Outside the knot range the slope is 0 (consistent with clamped
    /// evaluation). Exactly at an interior knot, the right segment's slope is
    /// returned.
    #[must_use]
    pub fn slope(&self, x: f64) -> f64 {
        let pts = &self.points;
        // Exactly at the last knot, report the left segment's slope (the
        // curve's domain includes its endpoint; clamping only applies
        // beyond it) — e.g. a full cell still has a DCIR slope.
        if x == pts[pts.len() - 1].0 {
            let (x0, y0) = pts[pts.len() - 2];
            let (x1, y1) = pts[pts.len() - 1];
            return (y1 - y0) / (x1 - x0);
        }
        if x < pts[0].0 || x > pts[pts.len() - 1].0 {
            return 0.0;
        }
        let idx = pts.partition_point(|&(px, _)| px <= x);
        // `idx` is the first knot strictly greater than x; the segment is
        // [idx-1, idx]. `x >= pts[0].0` guarantees idx >= 1.
        let (x0, y0) = pts[idx - 1];
        let (x1, y1) = pts[idx];
        (y1 - y0) / (x1 - x0)
    }

    /// Locates the segment `[i-1, i]` with `pts[i-1].0 <= x <= pts[i].0`
    /// for an in-range `x`, using the cursor's memo: re-hit the cached
    /// segment, then its two neighbors, then binary search. The found
    /// index is stored back into the cursor.
    ///
    /// Callers must ensure `pts[0].0 <= x < pts[last].0` (or `x` equal to
    /// an interior knot); out-of-range clamping happens before this.
    fn locate(&self, cursor: &CurveCursor, x: f64) -> usize {
        let pts = &self.points;
        let last = pts.len() - 1;
        let c = cursor.seg.get().clamp(1, last);
        let i = if pts[c - 1].0 <= x && x <= pts[c].0 {
            c
        } else if x > pts[c].0 && c < last && x <= pts[c + 1].0 {
            c + 1
        } else if x < pts[c - 1].0 && c > 1 && pts[c - 2].0 <= x {
            c - 1
        } else {
            // First index whose knot is >= x; never 0 for in-range x
            // except x == pts[0].0, where segment 1 (with x == x0) is
            // the correct answer.
            pts.partition_point(|&(px, _)| px < x).max(1)
        };
        cursor.seg.set(i);
        i
    }

    /// [`Curve::eval`] with a [`CurveCursor`] memo. Bit-identical results
    /// (for the finite `x` the simulation queries with): the interior
    /// segment containing `x` is unique (knots are strictly increasing),
    /// the interpolation arithmetic is the same expression in the same
    /// order regardless of how the segment was found, and a repeat query
    /// at the identical `x` returns the identical previously computed
    /// value.
    #[must_use]
    pub fn eval_cached(&self, cursor: &CurveCursor, x: f64) -> f64 {
        // The hot loop evaluates the same SoC against the same curve
        // several times per step (report row, planning caps, current
        // solve); the value memo turns the repeats into two loads.
        if x.to_bits() == cursor.x_bits.get() {
            return cursor.y_memo.get();
        }
        let y = self.eval_cached_cold(cursor, x);
        cursor.x_bits.set(x.to_bits());
        cursor.y_memo.set(y);
        y
    }

    fn eval_cached_cold(&self, cursor: &CurveCursor, x: f64) -> f64 {
        let pts = &self.points;
        let last = pts.len() - 1;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        if x >= pts[last].0 {
            return pts[last].1;
        }
        let i = self.locate(cursor, x);
        let (x0, y0) = pts[i - 1];
        let (x1, y1) = pts[i];
        // Exact-knot hits return the knot's y, matching the binary
        // search's `Ok` branch in `eval`.
        if x == x0 {
            return y0;
        }
        if x == x1 {
            return y1;
        }
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Evaluates the curve and the slope of the surrounding segment in one
    /// segment search.
    ///
    /// Returns exactly `(self.eval(x), self.slope(x))` — the RBL balance
    /// needs both the DCIR value and its derivative at the same SoC, and
    /// this halves the lookup work.
    #[must_use]
    pub fn value_and_slope(&self, x: f64) -> (f64, f64) {
        let pts = &self.points;
        let last = pts.len() - 1;
        if x < pts[0].0 {
            return (pts[0].1, 0.0);
        }
        if x > pts[last].0 {
            return (pts[last].1, 0.0);
        }
        if x == pts[last].0 {
            let (x0, y0) = pts[last - 1];
            let (x1, y1) = pts[last];
            return (y1, (y1 - y0) / (x1 - x0));
        }
        // pts[0].0 <= x < pts[last].0: use slope's segment (right segment
        // at interior knots); its lower knot carries eval's exact-knot y.
        let i = pts.partition_point(|&(px, _)| px <= x);
        let (x0, y0) = pts[i - 1];
        let (x1, y1) = pts[i];
        let slope = (y1 - y0) / (x1 - x0);
        let value = if x == x0 {
            y0
        } else {
            y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        };
        (value, slope)
    }

    /// [`Curve::value_and_slope`] with a [`CurveCursor`] memo.
    /// Bit-identical to the uncached form (and hence to the separate
    /// `eval` + `slope` calls). An interior query also fills the value
    /// memo, so a following [`Curve::eval_cached`] at the same `x` (a
    /// cell's resistance right after its DCIR slope) is two loads.
    #[must_use]
    pub fn value_and_slope_cached(&self, cursor: &CurveCursor, x: f64) -> (f64, f64) {
        let pts = &self.points;
        let last = pts.len() - 1;
        if x < pts[0].0 {
            return (pts[0].1, 0.0);
        }
        if x > pts[last].0 {
            return (pts[last].1, 0.0);
        }
        if x == pts[last].0 {
            let (x0, y0) = pts[last - 1];
            let (x1, y1) = pts[last];
            return (y1, (y1 - y0) / (x1 - x0));
        }
        let mut i = self.locate(cursor, x);
        if x == pts[i].0 {
            i += 1;
        }
        let (x0, y0) = pts[i - 1];
        let (x1, y1) = pts[i];
        let slope = (y1 - y0) / (x1 - x0);
        let value = if x == x0 {
            y0
        } else {
            y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        };
        // The same bits `eval_cached_cold` computes: the segment is
        // unique off the knots, and a knot returns its own y.
        cursor.x_bits.set(x.to_bits());
        cursor.y_memo.set(value);
        (value, slope)
    }

    /// The smallest and largest value [`Curve::eval`] (and so
    /// [`Curve::eval_cached`]) returns at any `x` in `[lo, hi]`
    /// (`lo <= hi`, both finite).
    ///
    /// Inside a segment the value is `y0 + (y1 − y0)·(x − x0)/(x1 − x0)`,
    /// a chain of correctly rounded operations that are each monotone in
    /// `x`, so the computed value is monotone in `x` as well: over the
    /// part of a segment inside the interval it is extremal at that
    /// part's ends. At the lower knot the formula returns `y0` exactly.
    /// At the upper knot it need not return `y1`: the rounding of `y1 −
    /// y0` and of the product leaves the formula's end value an ulp or so
    /// off `y1`, and the points just below the knot approach that end
    /// value, not `y1`. So the bounds take `f(lo)`, `f(hi)`, and for every
    /// knot in `(lo, hi]` both its `y` and the formula's value there from
    /// the segment below.
    #[must_use]
    pub(crate) fn bounds(&self, lo: f64, hi: f64) -> (f64, f64) {
        let pts = &self.points;
        // `eval` at `x`, given the first knot `k` above it.
        let at = |x: f64, k: usize| {
            if k == 0 {
                return pts[0].1;
            }
            let (x0, y0) = pts[k - 1];
            match pts.get(k) {
                Some(&(x1, y1)) if x != x0 => y0 + (y1 - y0) * (x - x0) / (x1 - x0),
                _ => y0,
            }
        };
        let mut k = pts.partition_point(|&(x, _)| x <= lo);
        let y_lo = at(lo, k);
        let (mut min, mut max) = (y_lo, y_lo);
        while let Some(&(x1, y1)) = pts.get(k) {
            if x1 > hi {
                break;
            }
            let end = match k.checked_sub(1) {
                Some(j) => {
                    let (x0, y0) = pts[j];
                    y0 + (y1 - y0) * (x1 - x0) / (x1 - x0)
                }
                None => y1,
            };
            min = min.min(y1).min(end);
            max = max.max(y1).max(end);
            k += 1;
        }
        let y_hi = at(hi, k);
        (min.min(y_hi), max.max(y_hi))
    }

    /// The smallest and largest slope [`Curve::slope`] (and so the slope
    /// of [`Curve::value_and_slope_cached`]) returns at any `x` in `[lo,
    /// hi]` (`lo <= hi`, both finite): the slopes of every segment whose
    /// closed span meets the interval, and 0 if the interval reaches
    /// outside the knots.
    #[must_use]
    pub(crate) fn slope_bounds(&self, lo: f64, hi: f64) -> (f64, f64) {
        let pts = &self.points;
        let outside = lo < pts[0].0 || hi > pts[pts.len() - 1].0;
        let (mut min, mut max) = if outside {
            (0.0, 0.0)
        } else {
            (f64::INFINITY, f64::NEG_INFINITY)
        };
        // The first segment whose upper knot reaches `lo`.
        let first = pts.partition_point(|&(x, _)| x < lo).max(1);
        for w in pts[first - 1..].windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if x0 > hi {
                break;
            }
            let slope = (y1 - y0) / (x1 - x0);
            min = min.min(slope);
            max = max.max(slope);
        }
        (min, max)
    }

    /// Returns a new curve with every y multiplied by `factor`.
    ///
    /// Used, e.g., to derive an aged DCIR curve (resistance grows with age)
    /// or a chemistry variant from a base curve.
    #[must_use]
    pub(crate) fn scale_y(&self, factor: f64) -> Self {
        Self {
            points: self.points.iter().map(|&(x, y)| (x, y * factor)).collect(),
        }
    }

    /// The smallest knot x-coordinate.
    #[must_use]
    pub(crate) fn x_min(&self) -> f64 {
        self.points[0].0
    }

    /// The largest knot x-coordinate.
    #[must_use]
    pub(crate) fn x_max(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }

    /// The minimum y value over all knots.
    #[must_use]
    pub fn y_min(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(f64::INFINITY, f64::min)
    }

    /// The maximum y value over all knots.
    #[must_use]
    pub fn y_max(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The knot points.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Numerically inverts a monotone curve: finds `x` with `f(x) = y`.
    ///
    /// Returns `None` if `y` is outside the curve's y range or the curve is
    /// not monotone over its knots. Used, e.g., to recover SoC from a rest
    /// OCV measurement in the fuel gauge.
    #[must_use]
    pub fn invert(&self, y: f64) -> Option<f64> {
        let increasing = self.points.windows(2).all(|w| w[1].1 >= w[0].1);
        let decreasing = self.points.windows(2).all(|w| w[1].1 <= w[0].1);
        if !increasing && !decreasing {
            return None;
        }
        let (ylo, yhi) = (self.y_min(), self.y_max());
        if y < ylo || y > yhi {
            return None;
        }
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let (seg_lo, seg_hi) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
            if y >= seg_lo && y <= seg_hi {
                if (y1 - y0).abs() < f64::EPSILON {
                    return Some(x0);
                }
                return Some(x0 + (x1 - x0) * (y - y0) / (y1 - y0));
            }
        }
        None
    }

    /// [`Curve::invert`] with a [`CurveCursor`] memo. Bit-identical
    /// results.
    ///
    /// The fast path fires only when the cursor already knows the curve is
    /// monotone and `y` falls *strictly* inside the cached segment's
    /// y-span (and that span is not near-flat): under those conditions the
    /// containing segment is unique, so the plain first-match scan would
    /// land on the same segment and compute the same expression. Anything
    /// else — boundary y values shared by adjacent segments, flat
    /// segments, out-of-range y, unknown monotonicity — takes the exact
    /// slow path.
    #[must_use]
    pub fn invert_cached(&self, cursor: &CurveCursor, y: f64) -> Option<f64> {
        let pts = &self.points;
        if cursor.mono.get() == CurveCursor::MONO_YES {
            let c = cursor.seg.get();
            if c >= 1 && c < pts.len() {
                let (x0, y0) = pts[c - 1];
                let (x1, y1) = pts[c];
                let strictly_inside = (y0 < y && y < y1) || (y1 < y && y < y0);
                if strictly_inside && (y1 - y0).abs() >= f64::EPSILON {
                    return Some(x0 + (x1 - x0) * (y - y0) / (y1 - y0));
                }
            }
        }
        if cursor.mono.get() == CurveCursor::MONO_UNKNOWN {
            let increasing = pts.windows(2).all(|w| w[1].1 >= w[0].1);
            let decreasing = pts.windows(2).all(|w| w[1].1 <= w[0].1);
            cursor.mono.set(if increasing || decreasing {
                CurveCursor::MONO_YES
            } else {
                CurveCursor::MONO_NO
            });
        }
        if cursor.mono.get() == CurveCursor::MONO_NO {
            return None;
        }
        let (ylo, yhi) = (self.y_min(), self.y_max());
        if y < ylo || y > yhi {
            return None;
        }
        for (i, w) in pts.windows(2).enumerate() {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let (seg_lo, seg_hi) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
            if y >= seg_lo && y <= seg_hi {
                cursor.seg.set(i + 1);
                if (y1 - y0).abs() < f64::EPSILON {
                    return Some(x0);
                }
                return Some(x0 + (x1 - x0) * (y - y0) / (y1 - y0));
            }
        }
        None
    }

    /// Precomputes a uniform-grid lookup table with `cells` grid cells
    /// spanning the curve's x range.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    #[must_use]
    pub fn to_lut(&self, cells: usize) -> CurveLut {
        assert!(cells > 0, "LUT needs at least one grid cell");
        let x0 = self.x_min();
        let dx = (self.x_max() - x0) / cells as f64;
        // The grid increases, so one cursor sweep finds every segment.
        let cursor = CurveCursor::new();
        let ys = (0..=cells)
            .map(|i| {
                // Sample the exact endpoint last so end clamping agrees
                // with the source curve bit-for-bit.
                let x = if i == cells {
                    self.x_max()
                } else {
                    dx.mul_add(i as f64, x0)
                };
                self.eval_cached(&cursor, x)
            })
            .collect();
        CurveLut {
            x0,
            dx,
            inv_dx: 1.0 / dx,
            ys,
        }
    }
}

/// A precomputed uniform-grid lookup table over a [`Curve`]'s x range.
///
/// Evaluation replaces the segment search with one multiply and two table
/// reads. The table interpolates between *grid samples* rather than the
/// original knots, so results are an approximation wherever a knot falls
/// between grid points — which is why the LUT is opt-in and **not** used
/// on the simulation's default path (the default path must stay
/// bit-identical to the knot-exact curve). Use it for throughput-bound
/// consumers that can tolerate the bound reported by
/// [`CurveLut::max_abs_error`].
#[derive(Debug, Clone, PartialEq)]
pub struct CurveLut {
    /// Grid origin (the source curve's `x_min`).
    x0: f64,
    /// Grid spacing.
    dx: f64,
    /// Reciprocal grid spacing (precomputed; division is slow).
    inv_dx: f64,
    /// Samples at the `cells + 1` grid points.
    ys: Vec<f64>,
}

impl CurveLut {
    /// Evaluates the table at `x`, clamping outside the grid range.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let t = (x - self.x0) * self.inv_dx;
        if t <= 0.0 {
            return self.ys[0];
        }
        let hi = self.ys.len() - 1;
        if t >= hi as f64 {
            return self.ys[hi];
        }
        let i = t as usize;
        let frac = t - i as f64;
        (self.ys[i + 1] - self.ys[i]).mul_add(frac, self.ys[i])
    }

    /// The exact maximum absolute error of this table against `curve`.
    ///
    /// Both functions are piecewise linear, so their difference is
    /// piecewise linear with breakpoints at the union of the curve's knots
    /// and the grid points; a piecewise-linear function attains its
    /// extremes at breakpoints. At grid points the table reproduces the
    /// curve by construction, so the error is maximal at (a floating-point
    /// hair's width from) an original knot — this evaluates every
    /// breakpoint of both kinds and returns the worst.
    #[must_use]
    pub fn max_abs_error(&self, curve: &Curve) -> f64 {
        let mut worst = 0.0f64;
        for &(x, y) in curve.points() {
            worst = worst.max((y - self.eval(x)).abs());
        }
        let cursor = CurveCursor::new();
        for i in 0..self.ys.len() {
            let x = self.dx.mul_add(i as f64, self.x0);
            worst = worst.max((curve.eval_cached(&cursor, x) - self.eval(x)).abs());
        }
        worst
    }
}

/// Convenience constructor for curves over SoC in `[0, 1]` from evenly
/// spaced y values.
///
/// # Errors
///
/// Propagates [`Curve::new`] validation failures.
///
/// # Panics
///
/// Panics if `ys` has fewer than two entries (cannot span `[0, 1]`).
pub(crate) fn from_soc_samples(ys: &[f64]) -> Result<Curve, BatteryError> {
    assert!(ys.len() >= 2, "need at least 2 samples to span [0,1]");
    let n = ys.len();
    Curve::new(
        ys.iter()
            .enumerate()
            .map(|(i, &y)| (i as f64 / (n - 1) as f64, y))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> Curve {
        Curve::new(vec![(0.0, 1.0), (1.0, 3.0)]).unwrap()
    }

    #[test]
    fn rejects_short_curve() {
        assert_eq!(
            Curve::new(vec![(0.0, 1.0)]),
            Err(BatteryError::CurveTooShort { points: 1 })
        );
    }

    #[test]
    fn rejects_unsorted() {
        assert_eq!(
            Curve::new(vec![(0.0, 1.0), (0.0, 2.0)]),
            Err(BatteryError::CurveNotSorted { index: 1 })
        );
        assert_eq!(
            Curve::new(vec![(0.5, 1.0), (0.2, 2.0)]),
            Err(BatteryError::CurveNotSorted { index: 1 })
        );
    }

    #[test]
    fn rejects_non_finite() {
        assert_eq!(
            Curve::new(vec![(0.0, f64::NAN), (1.0, 2.0)]),
            Err(BatteryError::CurveNotFinite { index: 0 })
        );
    }

    #[test]
    fn monotone_validators() {
        // `Curve::new` checks x, never y: flat, rising and falling OCP/DCIR
        // shapes are all accepted; a repeated knot is not.
        assert!(Curve::new(vec![(0.0, 1.0), (1.0, 1.0), (2.0, 5.0)]).is_ok());
        assert!(Curve::new(vec![(0.0, 5.0), (1.0, 1.0)]).is_ok());
        assert_eq!(
            Curve::new(vec![(0.0, 1.0), (0.0, 2.0)]),
            Err(BatteryError::CurveNotSorted { index: 1 })
        );
    }

    #[test]
    fn interpolates_linearly() {
        let c = line();
        assert_eq!(c.eval(0.0), 1.0);
        assert_eq!(c.eval(0.5), 2.0);
        assert_eq!(c.eval(1.0), 3.0);
    }

    #[test]
    fn clamps_outside_range() {
        let c = line();
        assert_eq!(c.eval(-1.0), 1.0);
        assert_eq!(c.eval(2.0), 3.0);
    }

    #[test]
    fn eval_hits_knot_exactly() {
        let c = Curve::new(vec![(0.0, 1.0), (0.5, 10.0), (1.0, 3.0)]).unwrap();
        assert_eq!(c.eval(0.5), 10.0);
    }

    #[test]
    fn slope_per_segment() {
        let c = Curve::new(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)]).unwrap();
        assert_eq!(c.slope(0.5), 2.0);
        assert_eq!(c.slope(1.5), 0.0);
        // At interior knot: right segment.
        assert_eq!(c.slope(1.0), 0.0);
        // Outside: zero.
        assert_eq!(c.slope(-1.0), 0.0);
        assert_eq!(c.slope(3.0), 0.0);
    }

    #[test]
    fn scale_y_multiplies_every_value() {
        let c = line().scale_y(2.0);
        assert_eq!(c.eval(0.0), 2.0);
        assert_eq!(c.eval(1.0), 6.0);
    }

    #[test]
    fn range_queries() {
        let c = Curve::new(vec![(0.0, 5.0), (1.0, 2.0), (2.0, 8.0)]).unwrap();
        assert_eq!(c.x_min(), 0.0);
        assert_eq!(c.x_max(), 2.0);
        assert_eq!(c.y_min(), 2.0);
        assert_eq!(c.y_max(), 8.0);
    }

    #[test]
    fn sample_covers_range() {
        let c = line();
        assert_eq!((c.x_min(), c.eval(c.x_min())), (0.0, 1.0));
        assert_eq!((c.x_max(), c.eval(c.x_max())), (1.0, 3.0));
    }

    #[test]
    fn invert_increasing() {
        let c = line();
        let x = c.invert(2.0).unwrap();
        assert!((x - 0.5).abs() < 1e-12);
        assert!(c.invert(0.5).is_none());
        assert!(c.invert(3.5).is_none());
    }

    #[test]
    fn invert_decreasing() {
        let c = Curve::new(vec![(0.0, 10.0), (1.0, 0.0)]).unwrap();
        let x = c.invert(5.0).unwrap();
        assert!((x - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invert_non_monotone_is_none() {
        let c = Curve::new(vec![(0.0, 0.0), (1.0, 5.0), (2.0, 1.0)]).unwrap();
        assert!(c.invert(2.0).is_none());
    }

    #[test]
    fn invert_flat_segment() {
        let c = Curve::new(vec![(0.0, 1.0), (1.0, 1.0), (2.0, 2.0)]).unwrap();
        // Flat segment: returns the segment start.
        assert_eq!(c.invert(1.0), Some(0.0));
    }

    #[test]
    fn cursor_eval_matches_plain_eval() {
        let c = Curve::new(vec![(0.0, 1.0), (0.3, 2.0), (0.5, 10.0), (1.0, 3.0)]).unwrap();
        let cur = CurveCursor::new();
        // Drift, jump, exact knots, and out-of-range clamps.
        for &x in &[
            0.1, 0.12, 0.14, 0.9, 0.3, 0.5, 0.0, 1.0, -0.5, 1.5, 0.29, 0.31, 0.30,
        ] {
            assert_eq!(c.eval_cached(&cur, x).to_bits(), c.eval(x).to_bits());
            let (_, slope) = c.value_and_slope_cached(&cur, x);
            assert_eq!(slope.to_bits(), c.slope(x).to_bits());
        }
    }

    #[test]
    fn value_and_slope_matches_two_calls() {
        let c = Curve::new(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)]).unwrap();
        let cur = CurveCursor::new();
        for &x in &[-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
            let (v, s) = c.value_and_slope(x);
            assert_eq!(v.to_bits(), c.eval(x).to_bits());
            assert_eq!(s.to_bits(), c.slope(x).to_bits());
            let (vc, sc) = c.value_and_slope_cached(&cur, x);
            assert_eq!(vc.to_bits(), v.to_bits());
            assert_eq!(sc.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn value_and_slope_fills_the_value_memo_exactly() {
        let c = Curve::new(vec![(0.0, 1.0), (0.3, 2.0), (0.5, 10.0), (1.0, 3.0)]).unwrap();
        // Interior knots, both ends, beyond both ends, and interior points
        // on either side of each knot.
        for &x in &[
            0.0, 0.3, 0.5, 1.0, -0.5, 1.5, 0.1, 0.29, 0.31, 0.4999, 0.5001, 0.77,
        ] {
            let cur = CurveCursor::new();
            let _ = c.value_and_slope_cached(&cur, x);
            assert_eq!(
                c.eval_cached(&cur, x).to_bits(),
                c.eval(x).to_bits(),
                "x={x}"
            );
            // A stale memo from another point must not leak into this one.
            let _ = c.value_and_slope_cached(&cur, 0.42);
            assert_eq!(
                c.eval_cached(&cur, x).to_bits(),
                c.eval(x).to_bits(),
                "x={x}"
            );
        }
    }

    #[test]
    fn cursor_invert_matches_plain_invert() {
        let c = Curve::new(vec![(0.0, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 5.0)]).unwrap();
        let cur = CurveCursor::new();
        for &y in &[0.5, 1.0, 1.5, 2.0, 3.7, 3.7000001, 5.0, 6.0] {
            assert_eq!(
                c.invert_cached(&cur, y).map(f64::to_bits),
                c.invert(y).map(f64::to_bits)
            );
        }
        let non_mono = Curve::new(vec![(0.0, 0.0), (1.0, 5.0), (2.0, 1.0)]).unwrap();
        let cur2 = CurveCursor::new();
        assert_eq!(non_mono.invert_cached(&cur2, 2.0), None);
        assert_eq!(non_mono.invert_cached(&cur2, 2.0), None);
    }

    #[test]
    fn lut_is_exact_for_a_line_and_bounded_otherwise() {
        let lut = line().to_lut(4);
        assert_eq!(lut.ys.len() - 1, 4);
        // A straight line is represented exactly by any grid.
        assert!(lut.max_abs_error(&line()) < 1e-12);
        assert_eq!(lut.eval(-1.0), 1.0);
        assert_eq!(lut.eval(2.0), 3.0);

        // A kinked curve on a coarse grid has error, bounded by
        // max_abs_error, and maximal at the off-grid knot.
        let kink = Curve::new(vec![(0.0, 0.0), (0.125, 1.0), (1.0, 0.0)]).unwrap();
        let lut = kink.to_lut(4);
        let bound = lut.max_abs_error(&kink);
        assert!(bound > 0.0);
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            assert!((lut.eval(x) - kink.eval(x)).abs() <= bound * (1.0 + 1e-12) + 1e-12);
        }
        // A finer grid shrinks the bound.
        assert!(kink.to_lut(64).max_abs_error(&kink) < bound);
    }

    #[test]
    fn sweep_built_luts_match_the_binary_search_build_bit_for_bit() {
        // The per-sample binary-search build the cursor sweep replaced.
        fn reference_lut(curve: &Curve, cells: usize) -> CurveLut {
            let x0 = curve.x_min();
            let dx = (curve.x_max() - x0) / cells as f64;
            let ys = (0..=cells)
                .map(|i| {
                    let x = if i == cells {
                        curve.x_max()
                    } else {
                        dx.mul_add(i as f64, x0)
                    };
                    curve.eval(x)
                })
                .collect();
            CurveLut {
                x0,
                dx,
                inv_dx: 1.0 / dx,
                ys,
            }
        }
        fn reference_error(lut: &CurveLut, curve: &Curve) -> f64 {
            let mut worst = 0.0f64;
            for &(x, y) in curve.points() {
                worst = worst.max((y - lut.eval(x)).abs());
            }
            for i in 0..lut.ys.len() {
                let x = lut.dx.mul_add(i as f64, lut.x0);
                worst = worst.max((curve.eval(x) - lut.eval(x)).abs());
            }
            worst
        }
        let bits = |lut: &CurveLut| {
            let mut b = vec![lut.x0.to_bits(), lut.dx.to_bits(), lut.inv_dx.to_bits()];
            b.extend(lut.ys.iter().map(|y| y.to_bits()));
            b
        };
        for chem in crate::chemistry::Chemistry::ALL {
            let spec = crate::spec::BatterySpec::from_chemistry("c", chem, 2.0);
            for curve in [&spec.ocp, &spec.dcir] {
                for cells in [1, 3, 7, 64, 256, 1000] {
                    let lut = curve.to_lut(cells);
                    let reference = reference_lut(curve, cells);
                    assert_eq!(bits(&lut), bits(&reference), "{chem:?} x{cells}");
                    assert_eq!(
                        lut.max_abs_error(curve).to_bits(),
                        reference_error(&reference, curve).to_bits(),
                        "{chem:?} x{cells}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_soc_samples_spans_unit_interval() {
        let c = from_soc_samples(&[3.0, 3.5, 4.2]).unwrap();
        assert_eq!(c.x_min(), 0.0);
        assert_eq!(c.x_max(), 1.0);
        assert_eq!(c.eval(0.5), 3.5);
    }

    /// The interval bounds the no-push certificate reads
    /// ([`Curve::bounds`], [`Curve::slope_bounds`],
    /// [`TheveninCell::view_bounds`]) contain every value the plain and
    /// the cursor-cached queries return anywhere in the interval, the
    /// points an ulp or a few either side of each knot included.
    mod bounds {
        use crate::chemistry::Chemistry;
        use crate::curves::{Curve, CurveCursor};
        use crate::spec::BatterySpec;
        use crate::thermal::ThermalModel;
        use crate::thevenin::TheveninCell;
        use sdb_testkit::{check, Gen};

        /// A random curve with 2..=16 knots whose neighbouring values often differ
        /// by orders of magnitude, so that the interpolation's rounding near a
        /// knot shows.
        fn random_curve(g: &mut Gen) -> Curve {
            let n = g.usize_range(2, 17);
            let mut x = g.f64_range(-1.0, 1.0);
            let mut pts = Vec::with_capacity(n);
            for _ in 0..n {
                let y = g.pick(&[1e-3, 1.0, 3.7, 1e3]) * g.f64_range(-1.0, 1.0);
                pts.push((x, y));
                x += g.pick(&[1e-9, 1e-3, 0.1, 1.0]) * g.f64_range(0.5, 1.5);
            }
            Curve::new(pts).expect("valid curve")
        }

        /// `x` moved by `k` ulps (negative: down).
        fn ulps(x: f64, k: i64) -> f64 {
            if x == 0.0 {
                return f64::from_bits(k.unsigned_abs()) * k.signum() as f64;
            }
            let bits = x.to_bits() as i64;
            let step = if x > 0.0 { k } else { -k };
            f64::from_bits((bits + step) as u64)
        }

        /// An interval over the curve's domain: ends at knots, near knots, inside
        /// segments or beyond the ends.
        fn random_interval(g: &mut Gen, curve: &Curve) -> (f64, f64) {
            let pts = curve.points();
            let (first, last) = (pts[0].0, pts[pts.len() - 1].0);
            let end = |g: &mut Gen| match g.below(4) {
                0 => pts[g.usize_range(0, pts.len())].0,
                1 => ulps(
                    pts[g.usize_range(0, pts.len())].0,
                    g.usize_range(0, 7) as i64 - 3,
                ),
                2 => g.f64_range(first - 0.1, last + 0.1),
                _ => g.f64_range(first, last),
            };
            let (a, b) = (end(g), end(g));
            (a.min(b), a.max(b))
        }

        /// Query points in `[lo, hi]`: the ends, every knot inside and the few
        /// ulps around it, and uniform draws.
        fn probes(g: &mut Gen, curve: &Curve, lo: f64, hi: f64) -> Vec<f64> {
            let mut xs = vec![lo, hi];
            for &(x, _) in curve.points() {
                for k in -4..=4 {
                    xs.push(ulps(x, k));
                }
            }
            for _ in 0..32 {
                xs.push(g.f64_range(lo, hi));
            }
            xs.retain(|x| (lo..=hi).contains(x));
            xs
        }

        #[test]
        fn interval_bounds_contain_every_value_in_the_interval() {
            let mut probed = 0u64;
            check(4000, 0xB0_0DED, |g: &mut Gen| {
                let curve = random_curve(g);
                let (lo, hi) = random_interval(g, &curve);
                let (y_lo, y_hi) = curve.bounds(lo, hi);
                let (s_lo, s_hi) = curve.slope_bounds(lo, hi);
                let cursor = CurveCursor::new();
                for x in probes(g, &curve, lo, hi) {
                    let (v, s) = curve.value_and_slope_cached(&cursor, x);
                    for y in [curve.eval(x), curve.eval_cached(&CurveCursor::new(), x), v] {
                        assert!(
                            y_lo <= y && y <= y_hi,
                            "f({x:e}) = {y:e} outside [{y_lo:e}, {y_hi:e}] over [{lo:e}, {hi:e}] of {curve:?}"
                        );
                    }
                    assert!(
                        s_lo <= s && s <= s_hi,
                        "slope({x:e}) = {s:e} outside [{s_lo:e}, {s_hi:e}] over [{lo:e}, {hi:e}]"
                    );
                    probed += 1;
                }
            });
            assert!(probed > 100_000, "only {probed} probes");
        }

        /// The interpolation's value an ulp below a knot can pass the knot's own
        /// value: a bound from the knots and the ends alone would miss it.
        #[test]
        fn values_just_below_a_knot_can_pass_the_knot() {
            let mut passed = 0u32;
            check(4000, 0xB0_0DED, |g: &mut Gen| {
                let curve = random_curve(g);
                let pts = curve.points();
                for w in pts.windows(2) {
                    let ((x0, y0), (x1, y1)) = (w[0], w[1]);
                    let x = ulps(x1, -1);
                    if x <= x0 {
                        continue;
                    }
                    let y = curve.eval(x);
                    if y > y0.max(y1) || y < y0.min(y1) {
                        passed += 1;
                    }
                }
            });
            assert!(passed > 0, "no value just below a knot passed it");
        }

        #[test]
        fn cell_view_bounds_contain_the_views_of_every_soc_in_the_interval() {
            let chems = [
                Chemistry::Type1LfpPower,
                Chemistry::Type2CoStandard,
                Chemistry::Type3CoPower,
                Chemistry::Type4Bendable,
                Chemistry::OtherNmc,
                Chemistry::OtherLto,
            ];
            check(1500, 0x5_0CB0, |g: &mut Gen| {
                let spec = BatterySpec::from_chemistry("c", g.pick(&chems), g.f64_range(0.2, 4.0));
                let a = g.f64_range(0.0, 1.0);
                let b =
                    (a - g.pick(&[0.0, 1e-6, 1e-3, 0.05, 0.5]) * g.f64_range(0.0, 1.0)).max(0.0);
                let (lo, hi) = (b, a);
                let fault = if g.chance(0.5) {
                    1.0
                } else {
                    g.f64_range(1.0, 5.0)
                };
                let thermal = g
                    .chance(0.3)
                    .then(|| ThermalModel::for_capacity_at(spec.capacity_ah, 5.0));
                let build = |soc: f64| {
                    let mut cell = TheveninCell::with_soc(spec.clone(), soc);
                    cell.set_fault_resistance_mult(fault);
                    match thermal {
                        Some(t) => cell.with_thermal(t),
                        None => cell,
                    }
                };
                let bounds = build(hi).view_bounds(lo, hi);
                let mut socs = vec![lo, hi];
                for &(x, _) in spec.ocp.points().iter().chain(spec.dcir.points()) {
                    socs.extend((-2..=2).map(|k| ulps(x, k)));
                }
                socs.extend((0..16).map(|_| g.f64_range(lo, hi)));
                socs.retain(|s| (lo..=hi).contains(s));
                for soc in socs {
                    let cell = build(soc);
                    let (r, slope) = cell.resistance_and_dcir_slope();
                    for (name, v, [v_lo, v_hi]) in [
                        ("ocv", cell.ocv(), bounds.ocv_v),
                        ("resistance", r, bounds.resistance_ohm),
                        ("|dcir slope|", slope.abs(), bounds.dcir_slope),
                    ] {
                        assert!(
                            v_lo <= v && v <= v_hi,
                            "{name} {v:e} at soc {soc:e} outside [{v_lo:e}, {v_hi:e}] over [{lo:e}, {hi:e}]"
                        );
                    }
                }
            });
        }
    }
}
