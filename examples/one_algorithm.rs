//! Algorithm 1, built twice: `nnd::build` (shared memory) and
//! `dnnd::build` with the one-sided protocol on one rank, over the same
//! preset with the same seed. Prints how many rows the two graphs share
//! bit for bit, each build's iterations and evaluations, and
//! `nnd::build`'s recall@10 over 1 000 evenly spaced vertices.
//!
//! ```text
//! cargo run --release --example one_algorithm -- deep1b 10000
//! cargo run --release --example one_algorithm -- bigann 1500
//! ```

use dataset::batch::BatchMetric;
use dataset::ground_truth::brute_force_sample;
use dataset::point::Point;
use dataset::recall::mean_recall;
use dataset::set::{PointId, PointSet};
use dataset::L2;
use dnnd::{CommOpts, DnndConfig};
use nnd::NnDescentParams;
use std::sync::Arc;
use std::time::Instant;
use ygm::World;

const K: usize = 10;
const SEED: u64 = 7;
const SAMPLE: usize = 1_000;

fn compare<P: Point, M: BatchMetric<P>>(name: &str, set: PointSet<P>, metric: &M) {
    let n = set.len();
    let t = Instant::now();
    let (shared, stats) = nnd::build(&set, metric, NnDescentParams::new(K).seed(SEED));
    let shared_s = t.elapsed().as_secs_f64();
    let set = Arc::new(set);
    let cfg = DnndConfig::new(K).seed(SEED).comm_opts(CommOpts::OneSided);
    let dist = dnnd::build(&World::new(1), &set, metric, cfg);
    let bits = |row: &[(PointId, f32)]| -> Vec<(PointId, u32)> {
        row.iter().map(|&(u, d)| (u, d.to_bits())).collect()
    };
    let equal = (0..n as PointId)
        .filter(|&v| bits(shared.neighbors(v)) == bits(dist.graph.neighbors(v)))
        .count();
    let sample: Vec<PointId> = (0..SAMPLE.min(n))
        .map(|i| (i * n / SAMPLE.min(n)) as PointId)
        .collect();
    let truth = brute_force_sample(&set, metric, &sample, K);
    let rows: Vec<Vec<PointId>> = (sample.iter())
        .map(|&v| shared.neighbors(v).iter().map(|&(u, _)| u).collect())
        .collect();
    println!("{name}, n = {n}, k = {K}, seed {SEED}");
    println!("rows equal: {equal} of {n}");
    println!(
        "nnd::build: {} iterations, {} evaluations, {shared_s:.2} s, updates {:?}",
        stats.iterations, stats.distance_evals, stats.updates_per_iter
    );
    println!(
        "dnnd::build (one-sided, 1 rank): {} iterations, {} evaluations, updates {:?}",
        dist.report.iterations, dist.report.distance_evals, dist.report.updates_per_iter
    );
    println!(
        "nnd::build sampled recall@{K} = {:.4} over {} of {n} vertices",
        mean_recall(&rows, &truth),
        sample.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = args.first().map_or("deep1b", String::as_str);
    let n: usize = args
        .get(1)
        .map_or(2_000, |s| s.parse().expect("n must be a count"));
    match preset {
        "deep1b" => compare("DEEP-like", dataset::presets::deep1b_like(n, SEED), &L2),
        "bigann" => compare("BigANN-like", dataset::presets::bigann_like(n, SEED), &L2),
        other => panic!("preset must be deep1b or bigann (got {other:?})"),
    }
}
