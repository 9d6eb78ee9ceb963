//! Synthetic phenomenon fields.
//!
//! The paper's application monitors "the temperature over the entire
//! terrain with a certain granularity" (§3.2); we have no instrumented
//! terrain, so fields are generated synthetically (see DESIGN.md §2,
//! "phenomenon substitution"). A [`Field`] assigns a scalar reading to
//! each point of coverage; thresholding yields the binary [`FeatureMap`]
//! the algorithm actually works on ("for simplicity we assume that a
//! sensor node has a binary status", §3.1).

use wsn_core::GridCoord;
use wsn_sim::DetRng;

/// A generator recipe for scalar fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldSpec {
    /// The same reading everywhere.
    Uniform(f64),
    /// Linear west→east gradient from `west` to `east`.
    Gradient {
        /// Reading at column 0.
        west: f64,
        /// Reading at the last column.
        east: f64,
    },
    /// `count` Gaussian bumps of the given `amplitude` and `radius`
    /// (in cells) at random centers, on a zero background.
    Blobs {
        /// Number of bumps.
        count: usize,
        /// Peak height of each bump.
        amplitude: f64,
        /// Standard deviation in cells.
        radius: f64,
    },
    /// Independent per-cell readings: `hot` with probability `p`, else
    /// `cold`. Produces fragmented feature maps — the merge stress test.
    RandomCells {
        /// Probability a cell reads `hot`.
        p: f64,
        /// Hot reading.
        hot: f64,
        /// Cold reading.
        cold: f64,
    },
}

/// A concrete scalar field over a `side × side` grid of points of
/// coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    side: u32,
    values: Vec<f64>,
}

impl Field {
    /// Generates the field for `spec`, deterministically from `seed`.
    pub fn generate(spec: FieldSpec, side: u32, seed: u64) -> Self {
        assert!(side > 0);
        let n = (side as usize).pow(2);
        let mut rng = DetRng::stream(seed, 0xF1E1D);
        let mut values = vec![0.0; n];
        match spec {
            FieldSpec::Uniform(v) => values.fill(v),
            FieldSpec::Gradient { west, east } => {
                for row in 0..side {
                    for col in 0..side {
                        let t = if side == 1 {
                            0.0
                        } else {
                            f64::from(col) / f64::from(side - 1)
                        };
                        values[(row * side + col) as usize] = west + (east - west) * t;
                    }
                }
            }
            FieldSpec::Blobs {
                count,
                amplitude,
                radius,
            } => {
                let centers: Vec<(f64, f64)> = (0..count)
                    .map(|_| {
                        (
                            rng.range_f64(0.0, f64::from(side)),
                            rng.range_f64(0.0, f64::from(side)),
                        )
                    })
                    .collect();
                for row in 0..side {
                    for col in 0..side {
                        let (x, y) = (f64::from(col) + 0.5, f64::from(row) + 0.5);
                        let v: f64 = centers
                            .iter()
                            .map(|&(cx, cy)| {
                                let d2 = (x - cx).powi(2) + (y - cy).powi(2);
                                amplitude * (-d2 / (2.0 * radius * radius)).exp()
                            })
                            .sum();
                        values[(row * side + col) as usize] = v;
                    }
                }
            }
            FieldSpec::RandomCells { p, hot, cold } => {
                for v in &mut values {
                    *v = if rng.chance(p) { hot } else { cold };
                }
            }
        }
        Field { side, values }
    }

    /// Builds a field from an explicit reading function (custom phenomena
    /// such as moving fronts; the generators cover the common cases).
    pub fn from_fn(side: u32, f: impl Fn(GridCoord) -> f64) -> Self {
        assert!(side > 0);
        let mut values = Vec::with_capacity((side as usize).pow(2));
        for row in 0..side {
            for col in 0..side {
                values.push(f(GridCoord::new(col, row)));
            }
        }
        Field { side, values }
    }

    /// Grid side.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Reading at `c`.
    pub fn value(&self, c: GridCoord) -> f64 {
        assert!(
            c.col < self.side && c.row < self.side,
            "{c:?} outside field"
        );
        self.values[(c.row * self.side + c.col) as usize]
    }

    /// The binary feature map for a threshold ("a leaf node can compute
    /// its status as a feature node by comparing its current reading with
    /// a pre-specified threshold", §4.1).
    pub fn threshold(&self, threshold: f64) -> FeatureMap {
        FeatureMap {
            side: self.side,
            bits: self.values.iter().map(|&v| v >= threshold).collect(),
        }
    }
}

/// The binary feature status of every point of coverage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureMap {
    side: u32,
    bits: Vec<bool>,
}

impl FeatureMap {
    /// Builds a map from a predicate.
    pub fn from_fn(side: u32, f: impl Fn(GridCoord) -> bool) -> Self {
        let mut bits = Vec::with_capacity((side as usize).pow(2));
        for row in 0..side {
            for col in 0..side {
                bits.push(f(GridCoord::new(col, row)));
            }
        }
        FeatureMap { side, bits }
    }

    /// Grid side.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Whether `c` is a feature node.
    pub fn is_feature(&self, c: GridCoord) -> bool {
        assert!(c.col < self.side && c.row < self.side, "{c:?} outside map");
        self.bits[(c.row * self.side + c.col) as usize]
    }

    /// Fraction of feature nodes.
    pub fn density(&self) -> f64 {
        if self.bits.is_empty() {
            0.0
        } else {
            self.bits.iter().filter(|&&b| b).count() as f64 / self.bits.len() as f64
        }
    }

    /// Number of feature nodes.
    pub fn feature_count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_field_is_flat() {
        let f = Field::generate(FieldSpec::Uniform(3.5), 4, 1);
        for row in 0..4 {
            for col in 0..4 {
                assert_eq!(f.value(GridCoord::new(col, row)), 3.5);
            }
        }
        assert_eq!(f.threshold(3.0).density(), 1.0);
        assert_eq!(f.threshold(4.0).density(), 0.0);
    }

    #[test]
    fn gradient_is_monotone_in_columns() {
        let f = Field::generate(
            FieldSpec::Gradient {
                west: 0.0,
                east: 10.0,
            },
            8,
            1,
        );
        assert_eq!(f.value(GridCoord::new(0, 3)), 0.0);
        assert_eq!(f.value(GridCoord::new(7, 3)), 10.0);
        for col in 1..8 {
            assert!(f.value(GridCoord::new(col, 0)) > f.value(GridCoord::new(col - 1, 0)));
        }
        // Thresholding a gradient yields a half-plane.
        let map = f.threshold(5.0);
        for row in 0..8 {
            for col in 0..8 {
                assert_eq!(map.is_feature(GridCoord::new(col, row)), col >= 4);
            }
        }
    }

    #[test]
    fn blobs_peak_near_centers() {
        let f = Field::generate(
            FieldSpec::Blobs {
                count: 3,
                amplitude: 10.0,
                radius: 2.0,
            },
            16,
            7,
        );
        let map = f.threshold(5.0);
        assert!(map.density() > 0.0, "some cells must exceed half-amplitude");
        assert!(map.density() < 1.0);
    }

    #[test]
    fn random_cells_hit_target_density() {
        let f = Field::generate(
            FieldSpec::RandomCells {
                p: 0.3,
                hot: 1.0,
                cold: 0.0,
            },
            32,
            9,
        );
        let d = f.threshold(0.5).density();
        assert!((d - 0.3).abs() < 0.06, "density {d}");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = FieldSpec::Blobs {
            count: 2,
            amplitude: 1.0,
            radius: 3.0,
        };
        assert_eq!(Field::generate(spec, 8, 5), Field::generate(spec, 8, 5));
        assert_ne!(Field::generate(spec, 8, 5), Field::generate(spec, 8, 6));
    }

    #[test]
    fn field_from_fn_matches_function() {
        let f = Field::from_fn(3, |c| f64::from(c.col * 10 + c.row));
        assert_eq!(f.value(GridCoord::new(2, 1)), 21.0);
        assert_eq!(f.side(), 3);
        assert_eq!(f.threshold(10.0).feature_count(), 6);
    }

    #[test]
    fn from_fn_and_counts() {
        let m = FeatureMap::from_fn(4, |c| c.col == c.row);
        assert_eq!(m.feature_count(), 4);
        assert_eq!(m.density(), 0.25);
        assert!(m.is_feature(GridCoord::new(2, 2)));
        assert!(!m.is_feature(GridCoord::new(2, 1)));
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn out_of_bounds_value_panics() {
        Field::generate(FieldSpec::Uniform(0.0), 2, 1).value(GridCoord::new(2, 0));
    }
}
