//! Synthetic dataset generators.
//!
//! We do not have the ANN-Benchmarks / Big-ANN files in this environment, so
//! each paper dataset is replaced by a *same-shape* synthetic stand-in (see
//! `DESIGN.md`). The primary generator is a clustered Gaussian mixture:
//! real embedding datasets (GloVe, DEEP, SIFT-like) exhibit cluster
//! structure and moderate local intrinsic dimension, which is what
//! NN-Descent's "my neighbors' neighbors are my neighbors" heuristic
//! exploits; i.i.d. uniform data would be an adversarially structureless
//! (and unrealistic) input.
//!
//! All generators are deterministic in their seed (ChaCha8). The dense
//! ones draw their one random stream on the calling thread, in order, and
//! run the per-point arithmetic on every core ([`par::map_indexed`]): the
//! result is the same at any worker count.

use crate::par;
use crate::point::SparseVec;
use crate::set::PointSet;
use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Points [`gaussian_mixture`] draws the random stream for at a time before
/// it transforms them: the drawn uniforms of a block stay a few MB.
const GEN_BLOCK: usize = 1024;

/// Points per item of the parallel per-point map.
const POINT_RUN: usize = 64;

/// Standard normal sampling via Box–Muller, avoiding a dependency on
/// `rand_distr` (not on the approved crate list).
struct StdNormal;

impl StdNormal {
    /// The two uniforms one sample consumes, in stream order; `u1` in
    /// (0,1] to avoid ln(0).
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        (u1, u2)
    }

    /// The Box–Muller transform of one [`StdNormal::draw`].
    fn transform((u1, u2): (f64, f64)) -> f32 {
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }
}

impl Distribution<f32> for StdNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        Self::transform(Self::draw(rng))
    }
}

/// `(0..n).map(|i| { let mut p = Vec::new(); fill(i, &mut p); p })`, with
/// the `fill` calls run on every core, [`POINT_RUN`] points per item. Each
/// point's `Vec` is allocated on the calling thread, in index order and at
/// its exact length, so the set sits in memory as a sequential map puts it.
fn points_on_every_core<T: Copy + Send>(
    n: usize,
    fill: impl Fn(usize, &mut Vec<T>) + Sync,
) -> Vec<Vec<T>> {
    let runs = par::map_indexed(
        n.div_ceil(POINT_RUN),
        1,
        || (),
        |(), r| {
            let (mut flat, mut ends) = (Vec::new(), Vec::new());
            for i in r * POINT_RUN..(r * POINT_RUN + POINT_RUN).min(n) {
                fill(i, &mut flat);
                ends.push(flat.len());
            }
            (flat, ends)
        },
    );
    let mut points = Vec::with_capacity(n);
    for (flat, ends) in runs {
        let mut start = 0;
        for end in ends {
            points.push(flat[start..end].to_vec());
            start = end;
        }
    }
    points
}

/// Parameters for the Gaussian-mixture generator.
#[derive(Debug, Clone, Copy)]
pub struct MixtureParams {
    /// Number of points to generate.
    pub n: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Number of mixture components (cluster centers).
    pub n_clusters: usize,
    /// Standard deviation of cluster centers around the origin.
    pub center_spread: f32,
    /// Standard deviation of points around their center.
    pub cluster_std: f32,
}

impl MixtureParams {
    /// A reasonable default shape for an embedding-like dataset.
    pub fn embedding_like(n: usize, dim: usize) -> Self {
        MixtureParams {
            n,
            dim,
            n_clusters: (n / 256).clamp(4, 256),
            center_spread: 10.0,
            cluster_std: 1.0,
        }
    }
}

/// Clustered Gaussian-mixture dense f32 dataset. Per point the stream
/// gives its center, then one [`StdNormal`] pair per coordinate; a block of
/// [`GEN_BLOCK`] points is drawn in that order, then transformed on every
/// core.
pub fn gaussian_mixture(params: MixtureParams, seed: u64) -> PointSet<Vec<f32>> {
    assert!(params.n_clusters >= 1 && params.dim >= 1);
    let (n, dim) = (params.n, params.dim);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let normal = StdNormal;
    let centers: Vec<Vec<f32>> = (0..params.n_clusters)
        .map(|_| {
            (0..dim)
                .map(|_| normal.sample(&mut rng) * params.center_spread)
                .collect()
        })
        .collect();
    let mut points = Vec::with_capacity(n);
    let (mut center_of, mut draws) = (Vec::new(), Vec::new());
    for start in (0..n).step_by(GEN_BLOCK) {
        let len = GEN_BLOCK.min(n - start);
        center_of.clear();
        draws.clear();
        for _ in 0..len {
            center_of.push(rng.gen_range(0..params.n_clusters));
            draws.extend((0..dim).map(|_| StdNormal::draw(&mut rng)));
        }
        points.extend(points_on_every_core(len, |i, out| {
            let center = centers[center_of[i]].iter();
            let noise = draws[i * dim..(i + 1) * dim].iter();
            out.extend(
                center
                    .zip(noise)
                    .map(|(&x, &pair)| x + StdNormal::transform(pair) * params.cluster_std),
            );
        }));
    }
    PointSet::new(points)
}

/// Quantize an f32 dataset to u8 (BigANN-style byte vectors): affine map of
/// the global [min, max] range onto [0, 255].
pub fn quantize_u8(set: &PointSet<Vec<f32>>) -> PointSet<Vec<u8>> {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for (_, p) in set.iter() {
        for &x in p {
            lo = lo.min(x);
            hi = hi.max(x);
        }
    }
    let scale = if hi > lo { 255.0 / (hi - lo) } else { 0.0 };
    let points = set.points();
    PointSet::new(points_on_every_core(points.len(), |i, out| {
        let coords = points[i].iter();
        out.extend(coords.map(|&x| ((x - lo) * scale).round().clamp(0.0, 255.0) as u8));
    }))
}

/// L2-normalize every vector in place — cosine-metric datasets (GloVe,
/// NYTimes, Last.fm) are customarily unit vectors. A zero vector stays as
/// it is.
pub fn normalize(set: &mut PointSet<Vec<f32>>) {
    let mut points = std::mem::replace(set, PointSet::new(Vec::new())).into_points();
    for p in &mut points {
        let n = crate::point::dense::norm(p);
        if n > 0.0 {
            p.iter_mut().for_each(|x| *x /= n);
        }
    }
    *set = PointSet::new(points);
}

/// Parameters for the sparse power-law set generator (Kosarak-like
/// click-stream data under Jaccard similarity).
#[derive(Debug, Clone, Copy)]
pub struct SparseParams {
    /// Number of points (transactions).
    pub n: usize,
    /// Universe of item ids.
    pub universe: u32,
    /// Mean set size.
    pub mean_len: usize,
    /// Zipf-like skew exponent for item popularity (larger = more skewed).
    pub skew: f64,
}

impl SparseParams {
    /// Kosarak-ish defaults at a reduced universe.
    pub fn kosarak_like(n: usize) -> Self {
        SparseParams {
            n,
            universe: 27_983, // Kosarak's dimensionality from Table 1
            mean_len: 12,
            skew: 1.05,
        }
    }
}

/// Generate sparse sets with Zipf-distributed item popularity. Sets whose
/// sampled length is zero are bumped to one item so Jaccard is defined.
pub fn sparse_powerlaw(params: SparseParams, seed: u64) -> PointSet<SparseVec> {
    assert!(params.universe >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Inverse-CDF sampling over a truncated Zipf: precompute cumulative
    // weights once (universe is modest).
    let weights: Vec<f64> = (1..=params.universe as u64)
        .map(|r| 1.0 / (r as f64).powf(params.skew))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let sample_item = |rng: &mut ChaCha8Rng| -> u32 {
        let u: f64 = rng.gen();
        match cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => (i as u32).min(params.universe - 1),
        }
    };
    let points = (0..params.n)
        .map(|_| {
            // Geometric-ish length distribution around the mean.
            let len = 1 + rng.gen_range(0..params.mean_len.max(1) * 2);
            let ids: Vec<u32> = (0..len).map(|_| sample_item(&mut rng)).collect();
            SparseVec::new(ids)
        })
        .collect();
    PointSet::new(points)
}

/// Uniform dense data in `[0, 1)^dim` — the structureless control used by
/// some tests and ablations.
pub fn uniform(n: usize, dim: usize, seed: u64) -> PointSet<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    PointSet::new(
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>()).collect())
            .collect(),
    )
}

/// Split a generated set into (base, queries): the last `n_queries` points
/// become the query set, mirroring ANN-Benchmarks' held-out query files.
pub fn split_queries<P: crate::point::Point>(
    set: PointSet<P>,
    n_queries: usize,
) -> (PointSet<P>, PointSet<P>) {
    assert!(n_queries < set.len(), "cannot hold out the whole dataset");
    let mut points = set.into_points();
    let queries = points.split_off(points.len() - n_queries);
    (PointSet::new(points), PointSet::new(queries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Cosine, Metric};

    #[test]
    fn mixture_is_deterministic_in_seed() {
        let p = MixtureParams::embedding_like(100, 8);
        let a = gaussian_mixture(p, 42);
        let b = gaussian_mixture(p, 42);
        let c = gaussian_mixture(p, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// The generators as they were when every step ran on one thread: the
    /// references the parallel ones must equal, bit for bit.
    fn gaussian_mixture_sequential(params: MixtureParams, seed: u64) -> PointSet<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let normal = StdNormal;
        let centers: Vec<Vec<f32>> = (0..params.n_clusters)
            .map(|_| {
                (0..params.dim)
                    .map(|_| normal.sample(&mut rng) * params.center_spread)
                    .collect()
            })
            .collect();
        let points = (0..params.n)
            .map(|_| {
                let c = &centers[rng.gen_range(0..params.n_clusters)];
                c.iter()
                    .map(|&x| x + normal.sample(&mut rng) * params.cluster_std)
                    .collect()
            })
            .collect();
        PointSet::new(points)
    }

    fn quantize_u8_sequential(set: &PointSet<Vec<f32>>) -> PointSet<Vec<u8>> {
        let all = set.points().iter().flatten();
        let lo = all.clone().fold(f32::INFINITY, |lo, &x| lo.min(x));
        let hi = all.fold(f32::NEG_INFINITY, |hi, &x| hi.max(x));
        let scale = if hi > lo { 255.0 / (hi - lo) } else { 0.0 };
        let quantize = |p: &Vec<f32>| {
            let q = p
                .iter()
                .map(|&x| ((x - lo) * scale).round().clamp(0.0, 255.0) as u8);
            q.collect()
        };
        PointSet::new(set.points().iter().map(quantize).collect())
    }

    #[test]
    fn generators_equal_their_sequential_form() {
        // Around one draw block, and across several.
        for n in [0usize, 1, 1023, 1024, 1025, 5000] {
            for (dim, seed) in [(96, 3), (7, n as u64)] {
                let params = MixtureParams::embedding_like(n, dim);
                let want = gaussian_mixture_sequential(params, seed);
                let got = gaussian_mixture(params, seed);
                let bits = |s: &PointSet<Vec<f32>>| -> Vec<Vec<u32>> {
                    let points = s.points().iter();
                    points
                        .map(|p| p.iter().map(|x| x.to_bits()).collect())
                        .collect()
                };
                assert_eq!(bits(&got), bits(&want), "n {n}, dim {dim}");
                assert_eq!(quantize_u8(&got), quantize_u8_sequential(&want), "n {n}");
            }
        }
    }

    #[test]
    fn mixture_has_requested_shape() {
        let p = MixtureParams {
            n: 50,
            dim: 16,
            n_clusters: 4,
            center_spread: 5.0,
            cluster_std: 0.5,
        };
        let s = gaussian_mixture(p, 1);
        assert_eq!(s.len(), 50);
        assert_eq!(s.dim(), 16);
        assert!(s.points().iter().all(|v| v.len() == 16));
    }

    #[test]
    fn mixture_is_clustered_not_uniform() {
        // With tight clusters, the nearest neighbor of a point should be far
        // closer than a random pair on average.
        let p = MixtureParams {
            n: 200,
            dim: 8,
            n_clusters: 8,
            center_spread: 20.0,
            cluster_std: 0.1,
        };
        let s = gaussian_mixture(p, 7);
        let m = crate::metric::L2;
        let d01 = Metric::<Vec<f32>>::distance(&m, s.point(0), s.point(1));
        let min_d: f32 = (1..s.len() as u32)
            .map(|j| Metric::<Vec<f32>>::distance(&m, s.point(0), s.point(j)))
            .fold(f32::INFINITY, f32::min);
        assert!(min_d < d01.max(1.0) * 0.9 || min_d < 1.0);
    }

    #[test]
    fn quantize_u8_covers_range() {
        let s = PointSet::new(vec![vec![0.0f32, 1.0], vec![0.5, 0.25]]);
        let q = quantize_u8(&s);
        let flat: Vec<u8> = q.points().concat();
        assert!(flat.contains(&0));
        assert!(flat.contains(&255));
        assert_eq!(q.dim(), 2);
    }

    #[test]
    fn quantize_constant_input_is_zero() {
        let s = PointSet::new(vec![vec![3.0f32; 4]; 3]);
        let q = quantize_u8(&s);
        assert!(q.points().iter().all(|p| p.iter().all(|&b| b == 0)));
    }

    #[test]
    fn normalize_produces_unit_vectors() {
        let mut s = gaussian_mixture(MixtureParams::embedding_like(50, 25), 3);
        normalize(&mut s);
        for (_, p) in s.iter() {
            let n = crate::point::dense::norm(p);
            assert!((n - 1.0).abs() < 1e-4, "norm was {n}");
        }
        // Cosine self-distance of normalized vectors is ~0.
        assert!(Cosine.distance(s.point(0), s.point(0)).abs() < 1e-5);
    }

    /// In place, bit for bit what dividing into a new vector gave, zero
    /// vectors left as they are.
    #[test]
    fn normalize_scales_each_row_in_place_bit_for_bit() {
        let mut s = gaussian_mixture(MixtureParams::embedding_like(40, 13), 8);
        s.extend([vec![0.0f32; 13], vec![-0.0f32; 13]]);
        let want: Vec<Vec<u32>> = (s.points().iter())
            .map(|p| {
                let n = crate::point::dense::norm(p);
                let scaled = p.iter().map(|x| if n > 0.0 { x / n } else { *x });
                scaled.map(f32::to_bits).collect()
            })
            .collect();
        let buffers: Vec<*const f32> = s.points().iter().map(|p| p.as_ptr()).collect();
        normalize(&mut s);
        let got: Vec<Vec<u32>> = (s.points().iter())
            .map(|p| p.iter().map(|x| x.to_bits()).collect())
            .collect();
        assert_eq!(got, want);
        let after: Vec<*const f32> = s.points().iter().map(|p| p.as_ptr()).collect();
        assert_eq!(after, buffers, "a row was reallocated");
        assert_eq!(s.dim(), 13);
    }

    #[test]
    fn sparse_sets_are_nonempty_and_in_universe() {
        let p = SparseParams::kosarak_like(200);
        let s = sparse_powerlaw(p, 5);
        assert_eq!(s.len(), 200);
        for (_, v) in s.iter() {
            assert!(!v.is_empty());
            assert!(v.ids().iter().all(|&i| i < p.universe));
        }
    }

    #[test]
    fn sparse_popularity_is_skewed() {
        let s = sparse_powerlaw(SparseParams::kosarak_like(500), 11);
        let mut counts = std::collections::HashMap::<u32, usize>::new();
        for (_, v) in s.iter() {
            for &i in v.ids() {
                *counts.entry(i).or_default() += 1;
            }
        }
        // Item 0 (most popular under Zipf) should appear far more often than
        // a mid-universe item.
        let head = counts.get(&0).copied().unwrap_or(0);
        let tail = counts.get(&20_000).copied().unwrap_or(0);
        assert!(head > tail, "head={head} tail={tail}");
    }

    #[test]
    fn split_queries_partitions() {
        let s = uniform(100, 4, 9);
        let (base, queries) = split_queries(s.clone(), 10);
        assert_eq!(base.len(), 90);
        assert_eq!(queries.len(), 10);
        assert_eq!(base.point(0), s.point(0));
        assert_eq!(queries.point(0), s.point(90));
        assert_eq!([base.points(), queries.points()].concat(), s.points());
        // The points move: no row is copied.
        let buffers: Vec<*const f32> = s.points().iter().map(|p| p.as_ptr()).collect();
        let (base, queries) = split_queries(s, 10);
        let moved = base.points().iter().chain(queries.points());
        assert!(moved.map(|p| p.as_ptr()).eq(buffers));
    }

    #[test]
    fn uniform_in_unit_cube() {
        let s = uniform(64, 3, 123);
        for (_, p) in s.iter() {
            assert!(p.iter().all(|&x| (0.0..1.0).contains(&x)));
        }
    }
}
