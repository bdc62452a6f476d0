//! The query stage: the paper's query program. The timed call is
//! `nnd::search_batch` over the held-out queries on the optimized graph; no
//! `ygm`, `core` or `serve` code runs.

use super::{mean_recall, recall_floor, GraphSetup, K};
use crate::harness::{timed, Ledger, Seeds};
use crate::spans::Recorder;
use dataset::{BatchMetric, Point, L2};
use nnd::SearchParams;

pub const RECALL_FLOOR: f64 = 0.95;
/// The presets are well-separated mixtures (`n/256` clusters, centres 10
/// sigma apart): with 32 random entry points recall is ~0.4 whatever
/// epsilon is; 256 reach every cluster.
pub const ENTRY_CANDIDATES: usize = 256;
pub const EPSILON: f32 = 0.2;

pub fn search_params(seed: u64, entry_candidates: usize) -> SearchParams {
    SearchParams::new(K)
        .epsilon(EPSILON)
        .entry_candidates(entry_candidates)
        .seed(seed)
}

/// One `search_batch` over the set-up's queries, scored against brute
/// force: `(wall seconds, recall, distance evaluations)`, or the failed
/// recall check.
pub fn search_checked<P: Point>(
    s: &GraphSetup<P>,
    params: SearchParams,
) -> Result<(f64, f64, u64), String>
where
    L2: BatchMetric<P>,
{
    let (wall, out) = timed(|| nnd::search_batch(&s.graph, &s.base, &L2, &s.queries, params));
    let recall = recall_floor(
        "search_batch answers",
        mean_recall(&out.ids, &s.truth.ids),
        RECALL_FLOOR,
    )?;
    Ok((wall, recall, out.distance_evals))
}

/// What the timed reps leave behind: each rep's check.
#[derive(Default)]
pub struct Reps {
    results: Vec<Result<(f64, f64, u64), String>>,
    /// Distance evaluations of one batch (the same in every rep).
    pub evals: u64,
}

impl Reps {
    pub fn rep<P: Point>(
        &mut self,
        rec: &mut Recorder,
        seeds: Seeds,
        s: &GraphSetup<P>,
        rep: i64,
    ) -> f64
    where
        L2: BatchMetric<P>,
    {
        let open = rec.begin("nnd.search_batch", rep);
        let r = search_checked(s, search_params(seeds.query, ENTRY_CANDIDATES));
        rec.end(open, s.queries.len() as u64);
        let wall = r.as_ref().map_or(f64::NAN, |r| r.0);
        if rep >= 0 {
            self.results.push(r);
        }
        wall
    }

    pub fn finish<P: Point>(&mut self, ledger: &mut Ledger, s: &GraphSetup<P>) {
        let items = s.queries.len() as u64;
        for r in std::mem::take(&mut self.results) {
            ledger.attempted += items;
            match ledger.check(r) {
                Some((_, recall, evals)) => {
                    ledger.set("query_recall_at_10", recall);
                    self.evals = evals;
                }
                None => ledger.failed += items,
            }
        }
        println!(
            "query: {:.1} distance evaluations per query",
            self.evals as f64 / items as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Recorder;
    use crate::stages::{graph_setup_of, DEEP_F32_OPT};
    use dataset::synth::{gaussian_mixture, split_queries, MixtureParams};

    /// The recall check can fail: at the full-size cluster count, too few
    /// entry points strand the search in the clusters they landed in.
    #[test]
    fn recall_check_fails_with_too_few_entry_points() {
        let seeds = Seeds::from(crate::spec::DEFAULT_SEED);
        let smoke = DEEP_F32_OPT.smoke();
        let shape = MixtureParams {
            n_clusters: DEEP_F32_OPT.n / 256,
            ..MixtureParams::embedding_like(smoke.n + smoke.queries, 96)
        };
        let (base, queries) = split_queries(gaussian_mixture(shape, seeds.data), smoke.queries);
        let s = graph_setup_of(&mut Recorder::new(false), seeds, base, queries);
        let ok = search_checked(&s, search_params(seeds.query, ENTRY_CANDIDATES));
        assert!(ok.is_ok(), "{ok:?}");
        let err = search_checked(&s, search_params(seeds.query, 32)).unwrap_err();
        assert!(err.contains("under the floor"), "{err}");
    }
}
