//! Planar geometry for terrains and radio ranges.

use std::fmt;

/// A point in the terrain plane. `x` grows eastward, `y` grows southward,
/// so the origin is the terrain's north-west corner — matching the paper's
/// oriented grid whose level-k leaders sit at north-west corners.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Eastward coordinate.
    pub x: f64,
    /// Southward coordinate.
    pub y: f64,
}

impl Point {
    /// Constructs a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` (the paper's δ).
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance (cheaper for comparisons).
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// An axis-aligned rectangle, closed on the north/west edges and open on
/// the south/east edges, so that a partition of the terrain into cells
/// assigns every point to exactly one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// North-west corner (inclusive).
    pub min: Point,
    /// South-east corner (exclusive).
    pub max: Point,
}

impl Rect {
    /// Constructs a rectangle from its corners; panics when degenerate.
    pub fn new(min: Point, max: Point) -> Self {
        assert!(min.x < max.x && min.y < max.y, "degenerate rectangle");
        Rect { min, max }
    }

    /// Width (east–west extent).
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (north–south extent).
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Geometric center.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Half-open membership test.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x < self.max.x && p.y >= self.min.y && p.y < self.max.y
    }

    /// The farthest distance between any two points of the rectangle.
    pub fn diameter(&self) -> f64 {
        self.min.distance(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(b.distance(a), 5.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new(1.5, -2.5);
        assert_eq!(p.distance(p), 0.0);
    }

    #[test]
    fn rect_center_and_dims() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(4.0, 2.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 2.0);
        assert_eq!(r.center(), Point::new(2.0, 1.0));
        assert!((r.diameter() - 20.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rect_is_half_open() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(0.999, 0.999)));
        assert!(!r.contains(Point::new(1.0, 0.5)));
        assert!(!r.contains(Point::new(0.5, 1.0)));
        assert!(!r.contains(Point::new(-0.001, 0.5)));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_rect_panics() {
        Rect::new(Point::new(1.0, 0.0), Point::new(1.0, 1.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Triangle inequality on random point triples.
        #[test]
        fn triangle_inequality(
            ax in -1e3f64..1e3, ay in -1e3f64..1e3,
            bx in -1e3f64..1e3, by in -1e3f64..1e3,
            cx in -1e3f64..1e3, cy in -1e3f64..1e3,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
        }

        /// A rectangle always contains its center.
        #[test]
        fn center_inside(
            x in -1e3f64..1e3, y in -1e3f64..1e3,
            w in 1e-3f64..1e3, h in 1e-3f64..1e3,
        ) {
            let r = Rect::new(Point::new(x, y), Point::new(x + w, y + h));
            prop_assert!(r.contains(r.center()));
        }
    }
}
