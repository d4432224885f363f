//! Dense symmetric per-city-pair tables over a fixed city set.
//!
//! The Gibbs sampler evaluates `d(x, y)^α` for every candidate location of
//! every relationship endpoint on every sweep. With |L| cities there are only
//! |L|² distinct pairs, so both factors are precomputed once:
//!
//! * [`DistanceMatrix`] holds the haversine distances (f32 is plenty: the
//!   model never needs sub-0.1-mile resolution at city scale);
//! * [`KernelMatrix`] holds `d^α` for one [`PowerLaw`], so the sampler's
//!   inner loop is a table lookup instead of a `powf`.

use crate::distance::haversine_miles;
use crate::point::GeoPoint;
use crate::powerlaw::PowerLaw;

/// Symmetric `n × n` matrix of pairwise distances in miles.
///
/// Stored as the full square for branch-free indexing; at the paper's scale
/// (|L| = 5000) that is 5000² × 4 bytes ≈ 100 MB, and at our default bench
/// scale (|L| ≈ 300–1000) well under 4 MB.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f32>,
}

impl DistanceMatrix {
    /// Precomputes all pairwise distances between `points`.
    pub fn build(points: &[GeoPoint]) -> Self {
        let n = points.len();
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = haversine_miles(points[i], points[j]) as f32;
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        Self { n, data }
    }

    /// Number of points the matrix covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance in miles between points `i` and `j`.
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j] as f64
    }

    /// Distance without bounds checks, for the sampler's hot loop.
    ///
    /// # Safety
    /// Both `i` and `j` must be `< self.len()`.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        *self.data.get_unchecked(i * self.n + j) as f64
    }

    /// The row of distances from point `i` to every point.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.n, "index out of bounds");
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Ids of points within `radius` miles of point `i` (including `i`).
    pub fn within(&self, i: usize, radius: f64) -> Vec<usize> {
        self.row(i)
            .iter()
            .enumerate()
            .filter(|(_, &d)| (d as f64) <= radius)
            .map(|(j, _)| j)
            .collect()
    }
}

/// Symmetric `n × n` table of the power-law kernel `d(i, j)^α`
/// ([`PowerLaw::kernel`]) over a [`DistanceMatrix`], for one law.
///
/// Every entry is bit-identical to evaluating the law on the stored
/// distance, so swapping a `powf` for a lookup changes no draw. Stored as
/// the full square of `f64` (8·|L|² bytes: 0.85 MB at 325 cities); a new
/// law needs a new table.
#[derive(Debug)]
pub struct KernelMatrix {
    n: usize,
    law: PowerLaw,
    data: Vec<f64>,
}

impl KernelMatrix {
    /// Evaluates `law.kernel` once per city pair of `distances`.
    pub fn build(distances: &DistanceMatrix, law: PowerLaw) -> Self {
        let n = distances.len();
        let mut data = vec![0.0f64; n * n];
        // The distance matrix is symmetric bit for bit, so the upper
        // triangle (diagonal included) determines the whole table.
        for i in 0..n {
            for j in i..n {
                let k = law.kernel(distances.get(i, j));
                data[i * n + j] = k;
                data[j * n + i] = k;
            }
        }
        Self { n, law, data }
    }

    /// The law the table was built for.
    pub fn law(&self) -> PowerLaw {
        self.law
    }

    /// `d(i, j)^α`, bit-identical to `law.kernel(distances.get(i, j))`.
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j]
    }

    /// The row of kernel values from point `i` to every point; by symmetry
    /// `row(i)[j] == get(j, i)`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.n, "index out of bounds");
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// The capped probability `min(β·d(i, j)^α, 1)`, bit-identical to
    /// `law.eval(distances.get(i, j))`.
    #[inline]
    pub fn eval(&self, i: usize, j: usize) -> f64 {
        (self.law.beta * self.get(i, j)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    fn cities() -> Vec<GeoPoint> {
        vec![
            p(40.7128, -74.0060),  // NYC
            p(34.0522, -118.2437), // LA
            p(30.2672, -97.7431),  // Austin
        ]
    }

    #[test]
    fn matches_haversine() {
        let pts = cities();
        let m = DistanceMatrix::build(&pts);
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                let want = haversine_miles(pts[i], pts[j]);
                assert!((m.get(i, j) - want).abs() < 0.5, "({i},{j})");
            }
        }
    }

    #[test]
    fn diagonal_is_zero_and_symmetric() {
        let m = DistanceMatrix::build(&cities());
        for i in 0..3 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn row_has_matrix_width() {
        let m = DistanceMatrix::build(&cities());
        assert_eq!(m.row(1).len(), 3);
        assert_eq!(m.row(1)[1], 0.0);
    }

    #[test]
    fn within_includes_self_and_filters() {
        let m = DistanceMatrix::build(&cities());
        let near_nyc = m.within(0, 500.0);
        assert_eq!(near_nyc, vec![0], "no sample city within 500mi of NYC");
        let all = m.within(0, 3000.0);
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn empty_matrix() {
        let m = DistanceMatrix::build(&[]);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_panics() {
        let m = DistanceMatrix::build(&cities());
        m.get(0, 3);
    }

    /// Every table entry must equal the law evaluated on the stored
    /// distance bit for bit, including coincident points (d = 0), sub-mile
    /// pairs under the 1-mile floor, and a non-round exponent.
    #[test]
    fn kernel_table_identical_to_law() {
        let mut pts = cities();
        pts.extend([
            p(40.7128, -74.0060), // NYC again: d = 0 off the diagonal
            p(40.7150, -74.0060), // ~0.15 mi from NYC
            p(40.7228, -74.0060), // ~0.7 mi
            p(40.7300, -74.0100), // just over a mile
            p(47.6062, -122.3321),
        ]);
        let m = DistanceMatrix::build(&pts);
        assert_eq!(m.get(0, 3), 0.0);
        assert!(m.get(0, 4) > 0.0 && m.get(0, 5) < 1.0);
        for alpha in [-0.55, -1.0, 0.0, -0.4137] {
            let law = PowerLaw { alpha, beta: 0.0045 };
            let k = KernelMatrix::build(&m, law);
            assert_eq!(k.law(), law);
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    let d = m.get(i, j);
                    assert_eq!(
                        k.get(i, j).to_bits(),
                        law.kernel(d).to_bits(),
                        "α {alpha} ({i},{j})"
                    );
                    assert_eq!(k.row(j)[i].to_bits(), k.get(i, j).to_bits());
                    let eval = (law.beta * k.get(i, j)).min(1.0);
                    assert_eq!(eval.to_bits(), law.eval(d).to_bits(), "α {alpha} ({i},{j})");
                    assert_eq!(k.eval(i, j).to_bits(), law.eval(d).to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn kernel_out_of_bounds_panics() {
        let k = KernelMatrix::build(&DistanceMatrix::build(&cities()), PowerLaw::PAPER_TWITTER);
        k.get(3, 0);
    }
}
