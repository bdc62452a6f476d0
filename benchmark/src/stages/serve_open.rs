//! The serve-open stage: online serving, reads only. The timed call is
//! `serve::run_serve` at one rank under open-loop Poisson arrivals on the
//! virtual slot clock; wall time is the cost of simulating them.

use super::query::{ENTRY_CANDIDATES, EPSILON, RECALL_FLOOR};
use super::{recall_floor, BenchPoint, GraphSetup, K};
use crate::harness::{all_equal, timed, Ctx, Ledger, Seeds};
use crate::spans::Recorder;
use dataset::ground_truth::GroundTruth;
use dataset::{recall_single, BatchMetric, L2};
use dnnd::DistSearchParams;
use serve::{ServeOutcome, ServeParams, ServingStats};
use ygm::{World, WorldReport};

pub struct Sizes {
    pub arrivals: usize,
    pub hot_pool: usize,
    pub cache: usize,
}

/// Arrivals of the two-rank replay every run checks digests on: two-rank
/// serving crosses a barrier per search round, so it is kept short.
const REPLAY_ARRIVALS: usize = 40;

pub const FULL: Sizes = Sizes {
    arrivals: 400,
    hot_pool: 64,
    cache: 256,
};
pub const SMOKE: Sizes = Sizes {
    arrivals: 40,
    hot_pool: 8,
    cache: 32,
};

pub fn search(seed: u64) -> DistSearchParams {
    let mut p = DistSearchParams::new(K)
        .epsilon(EPSILON)
        .entry_candidates(ENTRY_CANDIDATES);
    p.seed = seed;
    p
}

pub fn params(sizes: &Sizes, arrivals: usize, serve_seed: u64, query_seed: u64) -> ServeParams {
    let mut p = ServeParams::new(K)
        .serve_seed(serve_seed)
        .offered_qps(4_000.0)
        .n_arrivals(arrivals)
        .hot_set(0.3, sizes.hot_pool)
        .cache(sizes.cache, 1e-3);
    p.search = search(query_seed);
    p
}

/// `offered == answered + cache_hits + shed_deadline + shed_overload`.
pub fn counters_balance(s: &ServingStats) -> Result<(), String> {
    let sum = s.answered + s.cache_hits + s.shed_deadline + s.shed_overload;
    if s.offered == sum {
        Ok(())
    } else {
        Err(format!(
            "serve counters do not balance: offered {} != {} answered + {} cache hits + {} + {} shed",
            s.offered, s.answered, s.cache_hits, s.shed_deadline, s.shed_overload
        ))
    }
}

/// Mean recall of the answered queries against brute force on the pool.
pub fn answered_recall(outcome: &ServeOutcome, truth: &GroundTruth) -> f64 {
    let total: f64 = outcome
        .answers
        .iter()
        .map(|(_, pool_id, ids)| recall_single(ids, &truth.ids[*pool_id]))
        .sum();
    total / outcome.answers.len().max(1) as f64
}

/// A short session replayed at two ranks must reproduce the one-rank
/// result and forensics digests: the control plane is replicated.
fn rank_count_invariance<P: BenchPoint>(
    s: &GraphSetup<P>,
    sizes: &Sizes,
    serve_seed: u64,
    query_seed: u64,
) -> Result<(), String>
where
    L2: BatchMetric<P>,
{
    let p = params(
        sizes,
        sizes.arrivals.min(REPLAY_ARRIVALS),
        serve_seed,
        query_seed,
    );
    let digests: Vec<(u64, u64)> = [1, 2]
        .iter()
        .map(|&ranks| {
            let (o, _) =
                serve::run_serve(&World::new(ranks), &s.base, &s.graph, &s.queries, &L2, &p);
            (o.stats.result_digest, o.forensics.digest)
        })
        .collect();
    all_equal(
        "1-rank vs 2-rank (result digest, forensics digest)",
        &digests,
    )
    .map_err(|e| e.replace("rep 0 and rep 1", "ranks 1 and 2"))
}

pub fn shed(s: &ServingStats) -> u64 {
    s.shed_deadline + s.shed_overload
}

/// What one serving rep leaves for the checks.
pub struct Tally {
    offered: u64,
    shed: u64,
    balance: Result<(), String>,
    digests: (u64, u64),
}

impl Tally {
    /// `(result digest, forensics digest)`.
    pub fn digests(&self) -> (u64, u64) {
        self.digests
    }

    pub fn of(o: &ServeOutcome) -> Tally {
        Tally {
            offered: o.stats.offered,
            shed: shed(&o.stats),
            balance: counters_balance(&o.stats),
            digests: (o.stats.result_digest, o.forensics.digest),
        }
    }
}

/// Item counts, counter balance of every rep, and exact replay across reps.
pub fn tally_checks(ledger: &mut Ledger, tallies: &[Tally]) {
    let mut digests = Vec::with_capacity(tallies.len());
    for t in tallies {
        ledger.attempted += t.offered;
        ledger.failed += t.shed;
        ledger.check(t.balance.clone());
        digests.push(t.digests);
    }
    ledger.check(all_equal("(result digest, forensics digest)", &digests));
}

/// What the timed reps leave behind. Only the first rep's outcome is kept
/// whole; later reps leave their digests and counters, so memory does not
/// grow with the rep count.
#[derive(Default)]
pub struct Reps {
    pub first: Option<ServeOutcome>,
    tallies: Vec<Tally>,
    pub last_report: Option<WorldReport<()>>,
}

impl Reps {
    pub fn rep<P: BenchPoint>(
        &mut self,
        rec: &mut Recorder,
        sizes: &Sizes,
        seeds: Seeds,
        s: &GraphSetup<P>,
        rep: i64,
    ) -> f64
    where
        L2: BatchMetric<P>,
    {
        let p = params(sizes, sizes.arrivals, seeds.serve, seeds.query);
        let world = World::new(1);
        let open = rec.begin("serve.run", rep);
        let (wall, (outcome, report)) =
            timed(|| serve::run_serve(&world, &s.base, &s.graph, &s.queries, &L2, &p));
        rec.end(open, outcome.stats.offered);
        if rep >= 0 {
            self.tallies.push(Tally::of(&outcome));
            self.first.get_or_insert(outcome);
            self.last_report = Some(report);
        }
        wall
    }

    /// Counter balance and exact replay across reps, recall of the served
    /// answers, and the two-rank replay.
    pub fn finish<P: BenchPoint>(&self, ctx: &mut Ctx, sizes: &Sizes, s: &GraphSetup<P>)
    where
        L2: BatchMetric<P>,
    {
        let first = self.first.as_ref().expect("at least one rep");
        tally_checks(&mut ctx.ledger, &self.tallies);
        let recall = answered_recall(first, &s.truth);
        ctx.ledger
            .check(recall_floor("served answers", recall, RECALL_FLOOR));
        ctx.ledger.set("serve_open_recall_at_10", recall);
        let seeds = ctx.seeds;
        let replay = ctx
            .rec
            .span("check.replay_r2", -1, REPLAY_ARRIVALS as u64, || {
                rank_count_invariance(s, sizes, seeds.serve, seeds.query)
            });
        ctx.ledger.check(replay);
        println!(
            "serve-open: {} answered, {} cache hits of {} offered",
            first.stats.answered, first.stats.cache_hits, first.stats.offered
        );
    }
}
