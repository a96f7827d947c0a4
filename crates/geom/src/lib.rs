//! # prima-geom
//!
//! Integer-nanometre layout geometry for the prima workspace: points,
//! rectangles, orientations, and grid arithmetic. Everything is exact
//! integer math in nanometres — the natural unit of a gridded FinFET
//! technology — with explicit conversions to metres only at the boundary
//! where extraction hands lengths to the circuit simulator.
//!
//! ## Example
//!
//! ```
//! use prima_geom::{Point, Rect};
//! let r = Rect::new(Point::new(0, 0), Point::new(100, 50));
//! assert_eq!(r.width(), 100);
//! assert_eq!(r.area(), 5_000);
//! assert!((r.aspect_ratio() - 2.0).abs() < 1e-12);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use std::fmt;

/// Nanometres, the base distance unit of the workspace.
pub type Nm = i64;

/// Converts nanometres to metres (the simulator's unit).
#[inline]
pub fn nm_to_m(nm: Nm) -> f64 {
    nm as f64 * 1e-9
}

/// Converts micrometres (common in papers) to nanometres, rounding.
#[inline]
pub fn um_to_nm(um: f64) -> Nm {
    (um * 1000.0).round() as Nm
}

/// A point on the layout grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Point {
    /// Horizontal coordinate (nm).
    pub x: Nm,
    /// Vertical coordinate (nm).
    pub y: Nm,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub const fn new(x: Nm, y: Nm) -> Self {
        Point { x, y }
    }

    /// Component-wise translation.
    #[inline]
    pub fn offset(self, dx: Nm, dy: Nm) -> Self {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Manhattan (L1) distance to another point.
    #[inline]
    pub fn manhattan(self, other: Point) -> Nm {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// An axis-aligned rectangle with `lo ≤ hi` on both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Lower-left corner.
    pub lo: Point,
    /// Upper-right corner.
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from two corners, normalizing their order.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            lo: Point::new(a.x.min(b.x), a.y.min(b.y)),
            hi: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from origin and size.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is negative.
    pub fn from_size(origin: Point, w: Nm, h: Nm) -> Self {
        assert!(w >= 0 && h >= 0, "negative size {w}x{h}");
        Rect {
            lo: origin,
            hi: origin.offset(w, h),
        }
    }

    /// Width along x (≥ 0).
    #[inline]
    pub fn width(&self) -> Nm {
        self.hi.x - self.lo.x
    }

    /// Height along y (≥ 0).
    #[inline]
    pub fn height(&self) -> Nm {
        self.hi.y - self.lo.y
    }

    /// Area in nm².
    #[inline]
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Half-perimeter (useful for wirelength estimates).
    #[inline]
    pub fn half_perimeter(&self) -> Nm {
        self.width() + self.height()
    }

    /// Aspect ratio `width / height` (∞ for zero height).
    pub fn aspect_ratio(&self) -> f64 {
        if self.height() == 0 {
            f64::INFINITY
        } else {
            self.width() as f64 / self.height() as f64
        }
    }

    /// Center point (rounded toward `lo` on odd spans).
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) / 2, (self.lo.y + self.hi.y) / 2)
    }

    /// Translated copy.
    #[inline]
    pub fn offset(&self, dx: Nm, dy: Nm) -> Rect {
        Rect {
            lo: self.lo.offset(dx, dy),
            hi: self.hi.offset(dx, dy),
        }
    }

    /// Returns `true` when the interiors overlap (shared edges don't count).
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.lo.x < other.hi.x
            && other.lo.x < self.hi.x
            && self.lo.y < other.hi.y
            && other.lo.y < self.hi.y
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// Smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Overlapping region, if any (shared edges yield `None`).
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.overlaps(other) {
            return None;
        }
        Some(Rect {
            lo: Point::new(self.lo.x.max(other.lo.x), self.lo.y.max(other.lo.y)),
            hi: Point::new(self.hi.x.min(other.hi.x), self.hi.y.min(other.hi.y)),
        })
    }

    /// Rectangle expanded by `margin` on every side.
    ///
    /// # Panics
    ///
    /// Panics if a negative margin would invert the rectangle.
    pub fn expand(&self, margin: Nm) -> Rect {
        let r = Rect {
            lo: self.lo.offset(-margin, -margin),
            hi: self.hi.offset(margin, margin),
        };
        assert!(r.lo.x <= r.hi.x && r.lo.y <= r.hi.y, "expand inverted rect");
        r
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} – {}]", self.lo, self.hi)
    }
}

/// Eight layout orientations (rotations and mirrors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// No transformation.
    #[default]
    R0,
    /// 90° counter-clockwise.
    R90,
    /// 180°.
    R180,
    /// 270° counter-clockwise.
    R270,
    /// Mirror about the y axis.
    MX,
    /// Mirror about the x axis.
    MY,
    /// Mirror then rotate 90°.
    MX90,
    /// Mirror then rotate 270°.
    MY90,
}

impl Orientation {
    /// Whether this orientation swaps width and height.
    pub fn swaps_axes(self) -> bool {
        matches!(
            self,
            Orientation::R90 | Orientation::R270 | Orientation::MX90 | Orientation::MY90
        )
    }

    /// Size of a `(w, h)` bounding box after applying the orientation.
    pub fn apply_size(self, w: Nm, h: Nm) -> (Nm, Nm) {
        if self.swaps_axes() {
            (h, w)
        } else {
            (w, h)
        }
    }
}

/// A uniform placement grid (e.g. the poly or fin grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Grid pitch in nm (> 0).
    pub pitch: Nm,
    /// Grid origin offset in nm.
    pub offset: Nm,
}

impl Grid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    pub fn new(pitch: Nm, offset: Nm) -> Self {
        assert!(pitch > 0, "grid pitch must be positive, got {pitch}");
        Grid { pitch, offset }
    }

    /// Snaps a coordinate to the nearest grid line.
    pub fn snap(&self, v: Nm) -> Nm {
        let rel = v - self.offset;
        let k = (rel as f64 / self.pitch as f64).round() as Nm;
        self.offset + k * self.pitch
    }

    /// Coordinate of grid line `index`.
    #[inline]
    pub fn line(&self, index: Nm) -> Nm {
        self.offset + index * self.pitch
    }

    /// Index of the grid line at or below `v`.
    pub fn index_below(&self, v: Nm) -> Nm {
        (v - self.offset).div_euclid(self.pitch)
    }
}

impl prima_cache::Fingerprintable for Point {
    fn feed(&self, h: &mut prima_cache::FpHasher) {
        h.write_i64(self.x);
        h.write_i64(self.y);
    }
}

impl prima_cache::Fingerprintable for Rect {
    fn feed(&self, h: &mut prima_cache::FpHasher) {
        h.write_tag("Rect");
        self.lo.feed(h);
        self.hi.feed(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_normalizes_corners() {
        let r = Rect::new(Point::new(10, 20), Point::new(-5, 0));
        assert_eq!(r.lo, Point::new(-5, 0));
        assert_eq!(r.hi, Point::new(10, 20));
        assert_eq!(r.width(), 15);
        assert_eq!(r.height(), 20);
    }

    #[test]
    fn overlap_semantics_exclude_edges() {
        let a = Rect::from_size(Point::new(0, 0), 10, 10);
        let b = Rect::from_size(Point::new(10, 0), 10, 10);
        let c = Rect::from_size(Point::new(5, 5), 10, 10);
        assert!(!a.overlaps(&b), "edge-sharing rects do not overlap");
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&a));
    }

    #[test]
    fn union_and_intersection() {
        let a = Rect::from_size(Point::new(0, 0), 10, 10);
        let b = Rect::from_size(Point::new(5, 5), 10, 10);
        let u = a.union(&b);
        assert_eq!(u, Rect::new(Point::new(0, 0), Point::new(15, 15)));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::new(Point::new(5, 5), Point::new(10, 10)));
        let far = Rect::from_size(Point::new(100, 100), 1, 1);
        assert!(a.intersection(&far).is_none());
    }

    #[test]
    fn aspect_ratio_and_area() {
        let r = Rect::from_size(Point::new(0, 0), 200, 100);
        assert!((r.aspect_ratio() - 2.0).abs() < 1e-12);
        assert_eq!(r.area(), 20_000);
        let flat = Rect::from_size(Point::new(0, 0), 5, 0);
        assert!(flat.aspect_ratio().is_infinite());
    }

    #[test]
    fn orientation_size_transform() {
        assert_eq!(Orientation::R0.apply_size(30, 10), (30, 10));
        assert_eq!(Orientation::R90.apply_size(30, 10), (10, 30));
        assert_eq!(Orientation::MX.apply_size(30, 10), (30, 10));
        assert_eq!(Orientation::MY90.apply_size(30, 10), (10, 30));
    }

    #[test]
    fn grid_snap_and_lines() {
        let g = Grid::new(54, 0);
        assert_eq!(g.snap(0), 0);
        assert_eq!(g.snap(26), 0);
        assert_eq!(g.snap(28), 54);
        assert_eq!(g.line(3), 162);
        assert_eq!(g.index_below(161), 2);
        let off = Grid::new(10, 5);
        assert_eq!(off.snap(12), 15);
        assert_eq!(off.index_below(14), 0);
        assert_eq!(off.index_below(4), -1);
    }

    #[test]
    #[should_panic(expected = "grid pitch must be positive")]
    fn grid_rejects_zero_pitch() {
        let _ = Grid::new(0, 0);
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Point::new(0, 0).manhattan(Point::new(3, -4)), 7);
    }

    #[test]
    fn unit_conversions() {
        assert!((nm_to_m(1_000) - 1e-6).abs() < 1e-18);
        assert_eq!(um_to_nm(46.0), 46_000);
        assert_eq!(um_to_nm(0.014), 14);
    }

    #[test]
    fn expand_grows_all_sides() {
        let r = Rect::from_size(Point::new(0, 0), 10, 10).expand(5);
        assert_eq!(r, Rect::new(Point::new(-5, -5), Point::new(15, 15)));
    }

    #[test]
    fn zero_area_rects_are_degenerate_but_well_formed() {
        let line = Rect::from_size(Point::new(3, 7), 0, 40);
        assert_eq!(line.area(), 0);
        assert_eq!(line.width(), 0);
        let point = Rect::new(Point::new(5, 5), Point::new(5, 5));
        assert_eq!(point.area(), 0);
        // A degenerate rect overlaps exactly when it sits strictly inside
        // the other's interior — never when it lies on the boundary.
        let fat = Rect::from_size(Point::new(0, 0), 100, 100);
        assert!(fat.overlaps(&point));
        assert!(point.overlaps(&fat));
        let on_edge = Rect::new(Point::new(0, 50), Point::new(0, 50));
        assert!(!fat.overlaps(&on_edge));
        // Closed-point containment sees both.
        assert!(fat.contains(point.lo));
        assert!(fat.contains(on_edge.lo));
        assert!(line.contains(Point::new(3, 20)));
    }

    #[test]
    fn negative_coordinate_rects_keep_exact_arithmetic() {
        let r = Rect::new(Point::new(-30, -50), Point::new(-10, -20));
        assert_eq!(r.width(), 20);
        assert_eq!(r.height(), 30);
        assert_eq!(r.area(), 600);
        assert_eq!(r.center(), Point::new(-20, -35));
        let s = Rect::new(Point::new(-15, -25), Point::new(5, 5));
        assert!(r.overlaps(&s));
        let i = r.intersection(&s).unwrap();
        assert_eq!(i, Rect::new(Point::new(-15, -25), Point::new(-10, -20)));
    }

    #[test]
    fn touching_rects_union_but_do_not_intersect() {
        // Share a full edge.
        let a = Rect::from_size(Point::new(0, 0), 10, 10);
        let b = Rect::from_size(Point::new(10, 0), 10, 10);
        assert!(a.intersection(&b).is_none());
        assert_eq!(a.union(&b), Rect::new(Point::new(0, 0), Point::new(20, 10)));
        // Share only a corner.
        let c = Rect::from_size(Point::new(10, 10), 10, 10);
        assert!(!a.overlaps(&c));
        assert!(a.intersection(&c).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (-5000i64..5000, -5000i64..5000, 0i64..4000, 0i64..4000)
            .prop_map(|(x, y, w, h)| Rect::from_size(Point::new(x, y), w, h))
    }

    proptest! {
        /// Union contains both operands; intersection (when present) is
        /// contained in both.
        #[test]
        fn union_intersection_containment(a in arb_rect(), b in arb_rect()) {
            let u = a.union(&b);
            for r in [&a, &b] {
                prop_assert!(u.contains(r.lo) && u.contains(r.hi));
            }
            if let Some(i) = a.intersection(&b) {
                prop_assert!(a.contains(i.lo) && a.contains(i.hi));
                prop_assert!(b.contains(i.lo) && b.contains(i.hi));
                prop_assert!(i.area() <= a.area().min(b.area()));
            }
        }

        /// Overlap is symmetric and equivalent to a non-empty intersection.
        #[test]
        fn overlap_symmetry(a in arb_rect(), b in arb_rect()) {
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
            prop_assert_eq!(a.overlaps(&b), a.intersection(&b).is_some());
        }

        /// Snapping lands on a grid line and moves at most half a pitch.
        #[test]
        fn snap_properties(pitch in 1i64..500, offset in -200i64..200, v in -100_000i64..100_000) {
            let g = Grid::new(pitch, offset);
            let s = g.snap(v);
            prop_assert_eq!((s - offset).rem_euclid(pitch), 0);
            prop_assert!((s - v).abs() * 2 <= pitch + 1, "moved {} for pitch {}", (s - v).abs(), pitch);
        }

        /// Rects that only touch along an edge never overlap, have no
        /// intersection, and union into exactly the covering bounding box.
        #[test]
        fn edge_touching_rects_never_overlap(
            x in -5000i64..5000, y in -5000i64..5000,
            w in 1i64..4000, h in 1i64..4000, w2 in 1i64..4000,
        ) {
            let a = Rect::from_size(Point::new(x, y), w, h);
            let b = Rect::from_size(Point::new(x + w, y), w2, h); // abuts a's right edge
            prop_assert!(!a.overlaps(&b));
            prop_assert!(a.intersection(&b).is_none());
            let u = a.union(&b);
            prop_assert_eq!(u.area(), a.area() + b.area());
        }

        /// A zero-area rect overlaps exactly when it sits strictly inside
        /// the other's interior, never on its boundary — and symmetrically.
        #[test]
        fn zero_area_rect_overlap_is_strict_interior(
            x in -5000i64..5000, y in -5000i64..5000, b in arb_rect(),
        ) {
            let point = Rect::new(Point::new(x, y), Point::new(x, y));
            prop_assert_eq!(point.area(), 0);
            let strictly_inside =
                b.lo.x < x && x < b.hi.x && b.lo.y < y && y < b.hi.y;
            prop_assert_eq!(point.overlaps(&b), strictly_inside);
            prop_assert_eq!(b.overlaps(&point), strictly_inside);
        }

        /// Translating both rects leaves overlap, intersection shape, and
        /// areas unchanged — exact integer arithmetic has no preferred
        /// origin, so negative coordinates behave like positive ones.
        #[test]
        fn translation_invariance(a in arb_rect(), b in arb_rect(),
                                  dx in -10_000i64..10_000, dy in -10_000i64..10_000) {
            let shift = |r: &Rect| Rect::new(
                Point::new(r.lo.x + dx, r.lo.y + dy),
                Point::new(r.hi.x + dx, r.hi.y + dy),
            );
            let (sa, sb) = (shift(&a), shift(&b));
            prop_assert_eq!(a.overlaps(&b), sa.overlaps(&sb));
            prop_assert_eq!(a.area(), sa.area());
            prop_assert_eq!(
                a.intersection(&b).map(|i| i.area()),
                sa.intersection(&sb).map(|i| i.area())
            );
        }

        /// Manhattan distance is a metric (symmetry + triangle inequality).
        #[test]
        fn manhattan_metric(ax in -1000i64..1000, ay in -1000i64..1000,
                            bx in -1000i64..1000, by in -1000i64..1000,
                            cx in -1000i64..1000, cy in -1000i64..1000) {
            let (a, b, c) = (Point::new(ax, ay), Point::new(bx, by), Point::new(cx, cy));
            prop_assert_eq!(a.manhattan(b), b.manhattan(a));
            prop_assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c));
            prop_assert_eq!(a.manhattan(a), 0);
        }
    }
}
