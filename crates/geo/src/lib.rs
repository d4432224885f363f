//! Geographic substrate for the MLP location-profiling system.
//!
//! This crate provides the geometric primitives the paper's model rests on:
//!
//! * [`GeoPoint`] — a validated latitude/longitude pair.
//! * [`distance`] — great-circle distance kernels in miles (the paper
//!   measures everything in miles: ACC@100 miles, 1-mile distance buckets).
//! * [`BoundingBox`] — axis-aligned lat/lon boxes used by the spatial index.
//! * [`GridIndex`] — a uniform spatial grid for "cities within r miles" and
//!   nearest-city queries, used by the synthetic data generator and the
//!   distance-based evaluation metrics.
//! * [`PowerLaw`] — the `P(follow | d) = β·d^α` distribution of Sec. 4.1 of
//!   the paper, with the log–log least-squares fitting procedure used both to
//!   initialise the model (α ≈ −0.55, β ≈ 0.0045 on the paper's crawl) and in
//!   the M-step of Gibbs-EM (Sec. 4.5).
//! * [`DistanceHistogram`] — the 1-mile-bucket empirical following-probability
//!   curve behind Fig. 3(a).
//! * [`DistanceMatrix`] — a dense symmetric city-pair distance cache so the
//!   Gibbs sampler never recomputes a haversine in its inner loop.
//! * [`KernelMatrix`] — the same city pairs' power-law kernel `d^α` for one
//!   [`PowerLaw`], so the sampler never calls `powf` in its inner loop.

pub mod bbox;
pub mod distance;
pub mod grid;
pub mod histogram;
pub mod matrix;
pub mod point;
pub mod powerlaw;

pub use bbox::BoundingBox;
pub use distance::{equirectangular_miles, haversine_miles, EARTH_RADIUS_MILES};
pub use grid::GridIndex;
pub use histogram::{DistanceHistogram, LatencyHistogram};
pub use matrix::{DistanceMatrix, KernelMatrix};
pub use point::GeoPoint;
pub use powerlaw::{fit_log_log, fit_log_log_weighted, PowerLaw};
