//! Shared-memory NN-Descent — Algorithm 1 of the paper, in the PyNNDescent
//! variant DNND follows.
//!
//! The loop structure matches the paper's pseudocode line for line:
//!
//! 1. initialize `G` with `K` random neighbors per vertex (or an RP-forest
//!    initialization, see [`crate::rptree`]);
//! 2. per vertex, split neighbors into *old* (flag false) and a sample of
//!    `rho * K` *new* ones (flag true), marking the sampled entries old;
//! 3. reverse both lists, sample `rho * K` of each reverse list, and union
//!    into the forward lists;
//! 4. neighbor-check all `new x new` (ordered) and `new x old` pairs,
//!    updating both endpoint rows and counting successful updates `c`;
//! 5. stop when `c < delta * K * N`.
//!
//! `G` is one [`NeighborTable`] behind a `&mut`: the paper's "c and G are
//! atomically updated" holds because the borrow checker proves nothing else
//! can touch them — no lock, no atomic. The neighbor check still runs on
//! two cores or more, as a producer / consumer pair: an iteration's pairs
//! are fixed once its lists are sampled, so their distances do not depend
//! on `G`. Producers score the participants ahead, a fixed chunk at a time
//! ([`dataset::par::pipeline`]), and the calling thread — the only one that
//! holds `G` — applies every insert in the sequential order, reading the
//! distances from their buffers. `c`, each row's layout and flags, and the
//! evaluation count are the one-worker loop's, bit for bit.

use crate::graph::KnnGraph;
use crate::heap::NeighborTable;
use dataset::batch::{BatchMetric, NormCache};
use dataset::par;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Join heads the neighbor check scores per M×N call: the width of the
/// kernels that read a candidate row once per eight queries.
const BLOCK: usize = dataset::kernel::LANES;

/// Participants a producer scores per chunk of the neighbor check: enough
/// to pay for the hand-over, few enough that the consumer starts early.
const JOIN_CHUNK: usize = 64;

/// NN-Descent hyper-parameters. Defaults are the paper's evaluation
/// configuration (Section 5.1.3): `rho = 0.8`, `delta = 0.001`.
#[derive(Debug, Clone, Copy)]
pub struct NnDescentParams {
    /// Neighbors per vertex in the output graph (`K`).
    pub k: usize,
    /// Sample rate `rho` for new-neighbor candidates.
    pub rho: f64,
    /// Early-termination threshold `delta`: stop when fewer than
    /// `delta * K * N` updates happen in an iteration.
    pub delta: f64,
    /// Hard iteration cap (safety net; the paper relies on `delta` alone).
    pub max_iters: usize,
    /// RNG seed: a run is a deterministic function of it.
    pub seed: u64,
}

impl NnDescentParams {
    /// Paper defaults for a given `k`.
    pub fn new(k: usize) -> Self {
        let params = NnDescentParams {
            k,
            rho: 0.8,
            delta: 0.001,
            max_iters: 60,
            seed: 0x5EED,
        };
        crate::checked(params, "NnDescentParams", Self::validate)
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the sample rate `rho`.
    pub fn rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        crate::checked(self, "NnDescentParams", Self::validate)
    }

    /// Set the termination threshold `delta`.
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        crate::checked(self, "NnDescentParams", Self::validate)
    }

    /// Set the iteration cap.
    pub fn max_iters(mut self, n: usize) -> Self {
        self.max_iters = n;
        crate::checked(self, "NnDescentParams", Self::validate)
    }

    /// Algorithm 1's domain, stated once for this crate and `dnnd`.
    pub fn validate(&self) -> Result<(), String> {
        let NnDescentParams { rho, delta, .. } = *self;
        if self.k < 1 {
            return Err("k must be >= 1 (got 0)".into());
        }
        if !(rho > 0.0 && rho <= 1.0) {
            return Err(format!("rho must be in (0, 1] (got {rho})"));
        }
        if !(delta.is_finite() && delta >= 0.0) {
            return Err(format!("delta must be finite and >= 0 (got {delta})"));
        }
        if self.max_iters < 1 {
            return Err("max_iters must be >= 1 (got 0)".into());
        }
        Ok(())
    }
}

/// `k` against the point count, stated once: at least 2 points and `1 <= k < N`.
pub fn check_k(k: usize, n: usize) -> Result<(), String> {
    if n < 2 {
        return Err(format!("the dataset must have at least 2 points (got {n})"));
    }
    if k < 1 || k >= n {
        return Err(format!(
            "k must be >= 1 and below the dataset size {n} (got {k})"
        ));
    }
    Ok(())
}

/// Counters describing one construction run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildStats {
    /// Iterations executed before `delta` termination (or the cap).
    pub iterations: usize,
    /// Total distance evaluations.
    pub distance_evals: u64,
    /// Successful heap updates (`c`) per iteration.
    pub updates_per_iter: Vec<u64>,
}

/// Build a `k`-NNG over `set` with random initialization.
pub fn build<P: Point, M: BatchMetric<P>>(
    set: &PointSet<P>,
    metric: &M,
    params: NnDescentParams,
) -> (KnnGraph, BuildStats) {
    build_with_init(set, metric, params, None)
}

/// Build with an optional initial neighbor candidate list per vertex
/// (e.g. from an RP forest). Vertices with fewer than `k` initial
/// candidates are topped up with random neighbors. The neighbor check runs
/// on one worker per core ([`par::cores`]); the result does not depend on
/// how many there are.
pub fn build_with_init<P: Point, M: BatchMetric<P>>(
    set: &PointSet<P>,
    metric: &M,
    params: NnDescentParams,
    init: Option<&[Vec<PointId>]>,
) -> (KnnGraph, BuildStats) {
    build_on(par::cores(), set, metric, params, init)
}

/// [`build_with_init`] with its neighbor check on `workers` workers.
fn build_on<P: Point, M: BatchMetric<P>>(
    workers: usize,
    set: &PointSet<P>,
    metric: &M,
    params: NnDescentParams,
    init: Option<&[Vec<PointId>]>,
) -> (KnnGraph, BuildStats) {
    let n = set.len();
    let verdict = params.validate().and_then(|()| check_k(params.k, n));
    verdict.unwrap_or_else(|e| panic!("invalid NnDescentParams: {e}"));
    let k = params.k;
    // One-time per-set preprocessing (cached squared norms for the dot-
    // product metric family); handed to every batched evaluation below.
    let mut theta = Theta::new(set, metric, metric.preprocess(set));

    // ---- Initialization (Algorithm 1 lines 2-5) ----------------------------
    let mut table = NeighborTable::new(n, k);
    let (mut chosen, mut dbuf): (Vec<PointId>, Vec<f32>) = (Vec::with_capacity(k), Vec::new());
    for v in 0..n as PointId {
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ (u64::from(v) << 20));
        // Gather the chosen candidates first, then evaluate them as one
        // 1xN batch: below capacity every insert of a distinct non-self id
        // succeeds, so deduplicating here loses nothing.
        chosen.clear();
        if let Some(init_rows) = init {
            for &u in init_rows[v as usize].iter().take(k) {
                if u != v && !chosen.contains(&u) {
                    chosen.push(u);
                }
            }
        }
        let mut guard = 0;
        while chosen.len() < k && guard < 100 * k {
            let u: PointId = rng.gen_range(0..n as PointId);
            if u != v && !chosen.contains(&u) {
                chosen.push(u);
            }
            guard += 1;
        }
        theta.batch(v, &chosen, &mut dbuf);
        for (&u, &d) in chosen.iter().zip(&dbuf) {
            table.insert(v as usize, u, d, true);
        }
    }

    let stats = descend(&mut theta, &mut table, params, workers);
    (KnnGraph::from_table(&table), stats)
}

/// Batched theta over one set, counting every evaluation: distances from
/// `v` to `cands` by the same 8-lane kernels a scalar `Metric::distance`
/// call uses, so the produced bits are independent of batch composition.
pub(crate) struct Theta<'a, P, M> {
    set: &'a PointSet<P>,
    metric: &'a M,
    cache: NormCache,
    evals: u64,
}

impl<'a, P: Point, M: BatchMetric<P>> Theta<'a, P, M> {
    /// `cache` is `metric.preprocess(set)` or [`NormCache::empty`]; the
    /// distances are bit-identical either way.
    pub(crate) fn new(set: &'a PointSet<P>, metric: &'a M, cache: NormCache) -> Self {
        Theta {
            set,
            metric,
            cache,
            evals: 0,
        }
    }

    fn batch(&mut self, v: PointId, cands: &[PointId], out: &mut Vec<f32>) {
        self.evals += cands.len() as u64;
        (self.metric).distance_member_to_many(v, self.set, &self.cache, cands, out);
    }

    /// Distances from each of `heads` to each of `cands`, row-major, by the
    /// same kernels as [`Theta::batch`]; counts nothing — the neighbor check
    /// counts the ones it reads.
    fn score(&self, heads: &[PointId], cands: &[PointId], out: &mut Vec<f32>) {
        let (set, cache) = (self.set, &self.cache);
        match heads {
            [v] => self
                .metric
                .distance_member_to_many(*v, set, cache, cands, out),
            _ => self
                .metric
                .distance_members_to_many(heads, set, cache, cands, out),
        }
    }
}

/// One participant's neighbor check as the kernel calls that score it, in
/// order: join heads are taken from `news` eight at a time, a block
/// `news[i0..i0 + 8]` against its shared tail `news[i0 + 1..] + olds` in
/// one M×N call; fewer than eight remaining heads are scored 1×N each,
/// against their partners gathered without themselves. `call(heads, tails)`
/// sees each call.
fn for_each_call(
    news: &[PointId],
    olds: &[PointId],
    tails: &mut Vec<PointId>,
    mut call: impl FnMut(&[PointId], &[PointId]),
) {
    let full = news.len() / BLOCK * BLOCK;
    for i0 in (0..full).step_by(BLOCK) {
        tails.clear();
        tails.extend(news[i0 + 1..].iter().chain(olds));
        call(&news[i0..i0 + BLOCK], tails);
    }
    for i in full..news.len() {
        let u1 = news[i];
        tails.clear();
        tails.extend(news[i + 1..].iter().chain(olds).filter(|&&u2| u2 != u1));
        if !tails.is_empty() {
            call(&news[i..=i], tails);
        }
    }
}

/// Where the neighbor check reads a call's distances from: scored on the
/// spot, or the next run of what a producer scored ahead.
enum Scores<'s, 'a, P, M> {
    Inline(&'s Theta<'a, P, M>, &'s mut Vec<f32>),
    Ahead(&'s [f32]),
}

impl<P: Point, M: BatchMetric<P>> Scores<'_, '_, P, M> {
    fn next(&mut self, heads: &[PointId], tails: &[PointId]) -> &[f32] {
        match self {
            Scores::Inline(theta, dbuf) => {
                theta.score(heads, tails, dbuf);
                dbuf
            }
            Scores::Ahead(rest) => {
                let (now, later) = rest.split_at(heads.len() * tails.len());
                *rest = later;
                now
            }
        }
    }
}

/// Lines 17-22 over `participants`: every call of [`for_each_call`], its
/// distances from `scores`, and each head's row updates against its own
/// partners — the tail from its successor on, less itself — in the
/// original (u1, u2) order. Returns the successful updates `c` and the
/// distances read: one per pair updated, so a block's distances from a
/// head to itself (it may be in `olds`) do not count.
fn join<P: Point, M: BatchMetric<P>>(
    participants: &[PointId],
    (fwd_new, fwd_old): (&[Vec<PointId>], &[Vec<PointId>]),
    table: &mut NeighborTable,
    tails: &mut Vec<PointId>,
    mut scores: Scores<'_, '_, P, M>,
) -> (u64, u64) {
    let (mut c, mut evals) = (0u64, 0u64);
    for &v in participants {
        let (news, olds) = (&fwd_new[v as usize], &fwd_old[v as usize]);
        for_each_call(news, olds, tails, |heads, tails| {
            let dists = scores.next(heads, tails);
            for (j, (&u1, row)) in heads.iter().zip(dists.chunks(tails.len())).enumerate() {
                for (&u2, &d) in tails[j..].iter().zip(&row[j..]) {
                    if u2 != u1 {
                        evals += 1;
                        c += u64::from(table.insert(u1 as usize, u2, d, true));
                        c += u64::from(table.insert(u2 as usize, u1, d, true));
                    }
                }
            }
        });
    }
    (c, evals)
}

/// The producer's side of [`join`]: every distance `participants` will
/// read, in the order it reads them.
fn score_ahead<P: Point, M: BatchMetric<P>>(
    theta: &Theta<'_, P, M>,
    participants: &[PointId],
    (fwd_new, fwd_old): (&[Vec<PointId>], &[Vec<PointId>]),
    (tails, dbuf): &mut (Vec<PointId>, Vec<f32>),
) -> Vec<f32> {
    let mut scored = Vec::new();
    for &v in participants {
        let (news, olds) = (&fwd_new[v as usize], &fwd_old[v as usize]);
        for_each_call(news, olds, tails, |heads, tails| {
            theta.score(heads, tails, dbuf);
            scored.extend_from_slice(dbuf);
        });
    }
    scored
}

/// The descent loop (Algorithm 1 lines 6-23) over pre-filled, pre-flagged
/// rows — the crate's only one: [`build_with_init`] enters it with every
/// entry flagged new, [`crate::refine()`] with a handful. Runs until an
/// iteration makes fewer than `delta * K * N` updates or `max_iters` is
/// reached. The returned `distance_evals` is `theta`'s whole count, so it
/// includes what the caller evaluated to fill the rows.
///
/// A vertex takes part in an iteration only if it has a *new* candidate:
/// one sampled from its own row, or a reversed one (it was sampled from
/// somebody else's). That changes nothing but the cost, because in the
/// loop over all vertices a vertex outside that set does no work anybody
/// can observe:
///
/// * its `news` list — own sample united with the reverse sample — is
///   empty, and the neighbor check joins `news x (news + olds)`, so it
///   evaluates and inserts nothing;
/// * it leaves every random stream alone: both streams are seeded per
///   `(seed, vertex, iteration)`, so no draw of one vertex shifts
///   another's, and a vertex with no new entry shuffles an empty list,
///   which draws nothing.
///
/// A vertex inside the set needs exactly what the all-vertices loop would
/// have given it. Its union stream shuffles `rev_old[v]` *then*
/// `rev_new[v]`, so the draws the second shuffle sees depend on the length
/// of the first list: `rev_old[v]` must be complete and in the same order
/// — ascending source vertex, taken from the flags as they stood before
/// this iteration's samples were marked old. Hence the two passes below:
/// the first samples and finds who takes part, the second reads every
/// row's old entries (no evaluation, no allocation for a vertex outside
/// the set) and only then marks the samples.
///
/// The neighbor check runs on `workers` threads: at one it scores each
/// call on the spot; above, producers score the participants ahead a chunk
/// at a time and this thread applies the inserts (see the module doc). The
/// result is the same at every worker count. A caller inside a `ygm` rank
/// passes 1: a rank is one OS thread.
pub(crate) fn descend<P: Point, M: BatchMetric<P>>(
    theta: &mut Theta<'_, P, M>,
    table: &mut NeighborTable,
    params: NnDescentParams,
    workers: usize,
) -> BuildStats {
    let (n, k) = (table.n_rows(), params.k);
    let max_sample = ((params.rho * k as f64).round() as usize).max(1);
    let threshold = (params.delta * k as f64 * n as f64) as u64;
    let mut stats = BuildStats::default();

    // Per-vertex lists, filled for this iteration's participants only and
    // cleared behind them, so an iteration allocates for what it touches.
    let mut fwd_old: Vec<Vec<PointId>> = vec![Vec::new(); n];
    let mut fwd_new: Vec<Vec<PointId>> = vec![Vec::new(); n];
    let mut rev_old: Vec<Vec<PointId>> = vec![Vec::new(); n];
    let mut rev_new: Vec<Vec<PointId>> = vec![Vec::new(); n];
    let mut takes_part = vec![false; n];
    let mut participants: Vec<PointId> = Vec::new();
    let (mut tails, mut dbuf): (Vec<PointId>, Vec<f32>) = (Vec::new(), Vec::new());

    for iter in 0..params.max_iters {
        // Lines 7-10, first half: each vertex samples rho*K of its new
        // entries (row order, then shuffled). A sampled id takes part
        // too: it gets the sampling vertex as a reversed new candidate.
        for v in 0..n as PointId {
            let candidates = &mut fwd_new[v as usize];
            candidates.extend(table.row(v as usize).iter().filter(|e| e.new).map(|e| e.id));
            if candidates.is_empty() {
                continue;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(
                params.seed ^ 0xA11CE ^ (u64::from(v) << 18) ^ (iter as u64),
            );
            candidates.shuffle(&mut rng);
            candidates.truncate(max_sample);
            for &u in candidates.iter().chain([&v]) {
                if !std::mem::replace(&mut takes_part[u as usize], true) {
                    participants.push(u);
                }
            }
        }
        participants.sort_unstable();

        // Second half, and lines 11-12: old lists and all four reversed
        // lists of the participants, sources ascending; then the sampled
        // news flip to old.
        for v in 0..n as PointId {
            for e in table.row(v as usize).iter().filter(|e| !e.new) {
                if takes_part[v as usize] {
                    fwd_old[v as usize].push(e.id);
                }
                if takes_part[e.id as usize] {
                    rev_old[e.id as usize].push(v);
                }
            }
            for &u in &fwd_new[v as usize] {
                rev_new[u as usize].push(v);
                table.mark_old(v as usize, u);
            }
        }

        // Lines 15-16: sample rho*K of each reverse list, union forward.
        let union_sample =
            |fwd: &mut Vec<PointId>, rev: &mut Vec<PointId>, rng: &mut ChaCha8Rng| {
                rev.shuffle(rng);
                rev.truncate(max_sample);
                for &u in rev.iter() {
                    if !fwd.contains(&u) {
                        fwd.push(u);
                    }
                }
            };
        for &v in &participants {
            let mut rng = ChaCha8Rng::seed_from_u64(
                params.seed ^ 0xBEE ^ (u64::from(v) << 18) ^ (iter as u64),
            );
            let v = v as usize;
            union_sample(&mut fwd_old[v], &mut rev_old[v], &mut rng);
            union_sample(&mut fwd_new[v], &mut rev_new[v], &mut rng);
        }

        // Lines 17-22: neighbor checks, in `join`.
        let lists = (&fwd_new[..], &fwd_old[..]);
        let (c, evals) = if workers <= 1 {
            let scores = Scores::Inline(theta, &mut dbuf);
            join(&participants, lists, table, &mut tails, scores)
        } else {
            let (theta, mut sum) = (&*theta, (0, 0));
            par::pipeline(
                workers,
                participants.len(),
                JOIN_CHUNK,
                || (Vec::new(), Vec::new()),
                |scratch, items| score_ahead(theta, &participants[items], lists, scratch),
                |items, scored| {
                    let scores = Scores::Ahead(&scored);
                    let (c, evals) =
                        join::<P, M>(&participants[items], lists, table, &mut tails, scores);
                    sum = (sum.0 + c, sum.1 + evals);
                },
            );
            sum
        };
        theta.evals += evals;

        for v in participants.drain(..) {
            let v = v as usize;
            fwd_old[v].clear();
            fwd_new[v].clear();
            rev_old[v].clear();
            rev_new[v].clear();
            takes_part[v] = false;
        }

        stats.iterations = iter + 1;
        stats.updates_per_iter.push(c);
        if c < threshold.max(1) {
            break;
        }
    }

    stats.distance_evals = theta.evals;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::ground_truth::brute_force_knng;
    use dataset::metric::{Jaccard, L2};
    use dataset::recall::mean_recall;
    use dataset::synth::{gaussian_mixture, uniform, MixtureParams};

    /// The descent as it was before vertices with nothing new were skipped:
    /// every list of every vertex, rebuilt every iteration. Kept as the
    /// oracle [`descend`] must match, row for row.
    fn descend_over_all_vertices<P: Point, M: BatchMetric<P>>(
        theta: &mut Theta<'_, P, M>,
        table: &mut NeighborTable,
        params: NnDescentParams,
    ) -> BuildStats {
        let (n, k) = (table.n_rows(), params.k);
        let flagged_ids = |table: &NeighborTable, v: usize, new: bool| -> Vec<PointId> {
            let row = table.row(v).iter();
            row.filter(|e| e.new == new).map(|e| e.id).collect()
        };
        let max_sample = ((params.rho * k as f64).round() as usize).max(1);
        let threshold = (params.delta * k as f64 * n as f64) as u64;
        let mut stats = BuildStats::default();
        for iter in 0..params.max_iters {
            let mut fwd_old: Vec<Vec<PointId>> = Vec::with_capacity(n);
            let mut fwd_new: Vec<Vec<PointId>> = Vec::with_capacity(n);
            for v in 0..n as PointId {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    params.seed ^ 0xA11CE ^ (u64::from(v) << 18) ^ (iter as u64),
                );
                fwd_old.push(flagged_ids(table, v as usize, false));
                let mut candidates = flagged_ids(table, v as usize, true);
                candidates.shuffle(&mut rng);
                candidates.truncate(max_sample);
                for &u in &candidates {
                    table.mark_old(v as usize, u);
                }
                fwd_new.push(candidates);
            }
            let mut rev_old: Vec<Vec<PointId>> = vec![Vec::new(); n];
            let mut rev_new: Vec<Vec<PointId>> = vec![Vec::new(); n];
            for v in 0..n {
                for &u in &fwd_old[v] {
                    rev_old[u as usize].push(v as PointId);
                }
                for &u in &fwd_new[v] {
                    rev_new[u as usize].push(v as PointId);
                }
            }
            let union_sample =
                |fwd: &mut Vec<PointId>, rev: &mut Vec<PointId>, rng: &mut ChaCha8Rng| {
                    rev.shuffle(rng);
                    rev.truncate(max_sample);
                    for &u in rev.iter() {
                        if !fwd.contains(&u) {
                            fwd.push(u);
                        }
                    }
                };
            for v in 0..n {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    params.seed ^ 0xBEE ^ ((v as u64) << 18) ^ (iter as u64),
                );
                union_sample(&mut fwd_old[v], &mut rev_old[v], &mut rng);
                union_sample(&mut fwd_new[v], &mut rev_new[v], &mut rng);
            }
            let mut c = 0;
            let (mut tails, mut dbuf) = (Vec::new(), Vec::new());
            for v in 0..n {
                let (news, olds) = (&fwd_new[v], &fwd_old[v]);
                for (i, &u1) in news.iter().enumerate() {
                    tails.clear();
                    tails.extend(news[i + 1..].iter().chain(olds).filter(|&&u2| u2 != u1));
                    if tails.is_empty() {
                        continue;
                    }
                    theta.batch(u1, &tails, &mut dbuf);
                    for (&u2, &d) in tails.iter().zip(&dbuf) {
                        c += u64::from(table.insert(u1 as usize, u2, d, true));
                        c += u64::from(table.insert(u2 as usize, u1, d, true));
                    }
                }
            }
            stats.iterations = iter + 1;
            stats.updates_per_iter.push(c);
            if c < threshold.max(1) {
                break;
            }
        }
        stats.distance_evals = theta.evals;
        stats
    }

    /// A random table over `set`: each vertex holds up to `k` distinct random
    /// neighbors at their true distances, each flagged new with probability
    /// `new_pct` percent — inserted in random order, so the array layout
    /// (which the sampling order reads) varies too.
    fn random_table<P: Point, M: BatchMetric<P>>(
        set: &PointSet<P>,
        metric: &M,
        k: usize,
        new_pct: u32,
        seed: u64,
    ) -> NeighborTable {
        let n = set.len() as PointId;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut table = NeighborTable::new(n as usize, k);
        for v in 0..n {
            for _ in 0..rng.gen_range(0..2 * k + 1) {
                let u = rng.gen_range(0..n);
                if u != v {
                    let d = metric.distance(set.point(v), set.point(u));
                    table.insert(v as usize, u, d, rng.gen_range(0..100u32) < new_pct);
                }
            }
        }
        table
    }

    /// A banded table: vertex `v` holds `v ± 1 ..= v ± k / 2` (cyclic), the
    /// entries above `v` flagged new and those below old. In the first
    /// iteration every one of `v`'s own new entries is sampled (there are
    /// `k / 2 <= rho * k`) and names `v` as an *old* neighbor, so each join
    /// head sampled from `v`'s row is also in `v`'s `olds`; with the reverse
    /// news, `news` holds `k` heads — two full blocks at `k = 16`.
    fn banded_table<P: Point, M: BatchMetric<P>>(
        set: &PointSet<P>,
        metric: &M,
        k: usize,
    ) -> NeighborTable {
        let n = set.len();
        let mut table = NeighborTable::new(n, k);
        for v in 0..n {
            for step in 1..=k / 2 {
                for (u, new) in [((v + step) % n, true), ((v + n - step) % n, false)] {
                    let d = metric.distance(set.point(v as PointId), set.point(u as PointId));
                    table.insert(v, u as PointId, d, new);
                }
            }
        }
        table
    }

    /// Worker counts every descent test runs at: one (the inline loop), one
    /// producer, two producers taking alternate chunks, and more producers
    /// than most iterations have chunks.
    const WORKERS: [usize; 4] = [1, 2, 3, 8];

    /// [`descend`] at each of [`WORKERS`] against [`descend_over_all_vertices`],
    /// each from its own copy of one table: equal stats, and rows equal
    /// entry by entry in array order, flags included.
    fn check_descend<P: Point, M: BatchMetric<P>>(
        what: &str,
        set: &PointSet<P>,
        metric: &M,
        cache: &NormCache,
        params: NnDescentParams,
        table: impl Fn() -> NeighborTable,
    ) -> BuildStats {
        let mut want = table();
        let mut theta = Theta::new(set, metric, cache.clone());
        let want_stats = descend_over_all_vertices(&mut theta, &mut want, params);
        for workers in WORKERS {
            let mut got = table();
            let mut theta = Theta::new(set, metric, cache.clone());
            let got_stats = descend(&mut theta, &mut got, params, workers);
            assert_eq!(got_stats, want_stats, "{what}, {workers} workers");
            assert_eq!(got, want, "{what}, {workers} workers");
        }
        want_stats
    }

    /// The blocked neighbor check against the per-head oracle, on f32 rows
    /// with an empty and a filled norm cache and on `bigann_like` u8 rows;
    /// `k` up to 16, so `news` holds up to two full blocks of eight heads.
    #[test]
    fn skipping_idle_vertices_is_exact() {
        let set = gaussian_mixture(MixtureParams::embedding_like(160, 6), 5);
        let bytes = dataset::presets::bigann_like(160, 8);
        let caches = [NormCache::empty(), L2.preprocess(&set)];
        // All old (no work at all), sparse flag patterns, all new.
        for (case, new_pct) in [0u32, 1, 3, 10, 40, 100].into_iter().enumerate() {
            for k in [1usize, 4, 9, 16] {
                let params = NnDescentParams::new(k).seed(77 + case as u64).max_iters(6);
                let seed = 1000 * case as u64 + k as u64;
                let mut runs = Vec::new();
                for (c, cache) in caches.iter().enumerate() {
                    let what = format!("f32, cache {c}: {new_pct} % new, k = {k}");
                    runs.push(check_descend(&what, &set, &L2, cache, params, || {
                        random_table(&set, &L2, k, new_pct, seed)
                    }));
                }
                let what = format!("u8: {new_pct} % new, k = {k}");
                runs.push(check_descend(
                    &what,
                    &bytes,
                    &L2,
                    &NormCache::empty(),
                    params,
                    || random_table(&bytes, &L2, k, new_pct, seed),
                ));
                if new_pct == 0 {
                    for stats in runs {
                        assert_eq!(stats.distance_evals, 0, "{new_pct} % new, k = {k}");
                        assert_eq!(stats.updates_per_iter, [0], "{new_pct} % new, k = {k}");
                    }
                }
            }
        }
        // Heads that are also in `olds`, in full blocks.
        for k in [8usize, 16] {
            let params = NnDescentParams::new(k).seed(5).max_iters(6);
            for (c, cache) in caches.iter().enumerate() {
                let what = format!("f32 banded, cache {c}, k = {k}");
                check_descend(&what, &set, &L2, cache, params, || {
                    banded_table(&set, &L2, k)
                });
            }
            let what = format!("u8 banded, k = {k}");
            check_descend(&what, &bytes, &L2, &NormCache::empty(), params, || {
                banded_table(&bytes, &L2, k)
            });
        }
    }

    /// Large enough that iteration 0 has many chunks of participants.
    #[test]
    fn build_is_the_same_at_every_worker_count() {
        let f32s = gaussian_mixture(MixtureParams::embedding_like(1_500, 12), 4);
        let u8s = dataset::presets::bigann_like(700, 9);
        let (params, params_u8) = (NnDescentParams::new(10).seed(8), NnDescentParams::new(6));
        let (want, want_stats) = build_on(1, &f32s, &L2, params, None);
        let (want_u8, want_u8_stats) = build_on(1, &u8s, &L2, params_u8, None);
        assert!(want_stats.updates_per_iter[0] > 0, "{want_stats:?}");
        for workers in WORKERS {
            let (got, stats) = build_on(workers, &f32s, &L2, params, None);
            assert_eq!(stats, want_stats, "f32, {workers} workers");
            assert!(same_bits(&got, &want), "f32, {workers} workers");
            let (got, stats) = build_on(workers, &u8s, &L2, params_u8, None);
            assert_eq!(stats, want_u8_stats, "u8, {workers} workers");
            assert!(same_bits(&got, &want_u8), "u8, {workers} workers");
        }
        let (got, stats) = build(&f32s, &L2, params);
        assert_eq!(stats, want_stats, "par::cores() workers");
        assert!(same_bits(&got, &want), "par::cores() workers");
    }

    /// Equal ids and equal distance bits, row by row.
    fn same_bits(a: &KnnGraph, b: &KnnGraph) -> bool {
        let bits = |g: &KnnGraph| -> Vec<Vec<(PointId, u32)>> {
            let rows = g.rows.iter();
            rows.map(|r| r.iter().map(|&(u, d)| (u, d.to_bits())).collect())
                .collect()
        };
        bits(a) == bits(b)
    }

    #[test]
    fn graph_has_exactly_k_neighbors_per_vertex() {
        let set = uniform(200, 4, 1);
        let (g, _) = build(&set, &L2, NnDescentParams::new(5));
        assert_eq!(g.len(), 200);
        for v in 0..200 {
            assert_eq!(g.neighbors(v).len(), 5, "vertex {v}");
        }
    }

    #[test]
    fn no_self_edges_or_duplicates() {
        let set = uniform(150, 3, 2);
        let (g, _) = build(&set, &L2, NnDescentParams::new(8));
        for v in 0..150u32 {
            let ids: Vec<PointId> = g.neighbors(v).iter().map(|&(id, _)| id).collect();
            assert!(!ids.contains(&v), "self edge at {v}");
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), ids.len(), "duplicate edge at {v}");
        }
    }

    #[test]
    fn converges_to_high_recall_on_clustered_data() {
        let set = gaussian_mixture(MixtureParams::embedding_like(600, 16), 7);
        let (g, stats) = build(&set, &L2, NnDescentParams::new(10).seed(3));
        let truth = brute_force_knng(&set, &L2, 10);
        let recall = mean_recall(&g.neighbor_ids(), &truth);
        assert!(recall > 0.95, "recall {recall} too low; stats {stats:?}");
        // NN-Descent must beat brute force on distance evaluations here.
        assert!(stats.distance_evals < (600u64 * 599) / 2);
    }

    #[test]
    fn distances_in_graph_match_metric() {
        let set = uniform(100, 2, 9);
        let (g, _) = build(&set, &L2, NnDescentParams::new(4));
        for v in 0..100u32 {
            for &(u, d) in g.neighbors(v) {
                let expect = dataset::Metric::<Vec<f32>>::distance(&L2, set.point(v), set.point(u));
                assert!((d - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn rows_sorted_ascending() {
        let set = uniform(80, 3, 4);
        let (g, _) = build(&set, &L2, NnDescentParams::new(6));
        for v in 0..80u32 {
            let row = g.neighbors(v);
            assert!(row.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn works_with_jaccard_metric() {
        let set = dataset::presets::kosarak_like(200, 5);
        let (g, _) = build(&set, &Jaccard, NnDescentParams::new(5));
        let truth = brute_force_knng(&set, &Jaccard, 5);
        let recall = mean_recall(&g.neighbor_ids(), &truth);
        // Jaccard on power-law sets has heavy distance ties; a moderate
        // bar still demonstrates metric-genericity.
        assert!(recall > 0.5, "jaccard recall {recall}");
    }

    #[test]
    fn delta_controls_iterations() {
        let set = gaussian_mixture(MixtureParams::embedding_like(300, 8), 11);
        let (_, fast) = build(&set, &L2, NnDescentParams::new(5).delta(0.2).seed(1));
        let (_, slow) = build(&set, &L2, NnDescentParams::new(5).delta(0.0001).seed(1));
        assert!(fast.iterations <= slow.iterations);
    }

    #[test]
    fn max_iters_caps_work() {
        let set = uniform(120, 6, 8);
        let (_, stats) = build(&set, &L2, NnDescentParams::new(6).max_iters(2));
        assert!(stats.iterations <= 2);
    }

    #[test]
    fn tiny_dataset_k1() {
        let set = uniform(3, 2, 1);
        let (g, _) = build(&set, &L2, NnDescentParams::new(1));
        for v in 0..3 {
            assert_eq!(g.neighbors(v).len(), 1);
        }
    }

    #[test]
    fn init_candidates_are_honored() {
        // Give every vertex its true nearest neighbor as init; recall of the
        // first neighbor must be perfect even with max_iters = 0 refinement.
        let set = uniform(100, 2, 13);
        let truth = brute_force_knng(&set, &L2, 3);
        let init: Vec<Vec<PointId>> = truth.ids.clone();
        let (g, _) = build_with_init(&set, &L2, NnDescentParams::new(3).max_iters(1), Some(&init));
        let recall = mean_recall(&g.neighbor_ids(), &truth);
        assert!(recall > 0.99, "init not honored: recall {recall}");
    }

    #[test]
    fn validate_states_the_domain_at_its_edges() {
        // (field, value, accepted): each edge from both sides.
        let rows = [
            ("k", 0.0, false),
            ("k", 1.0, true),
            ("rho", 0.0, false),
            ("rho", f64::MIN_POSITIVE, true),
            ("rho", 1.0, true),
            ("rho", 1.0 + f64::EPSILON, false),
            ("rho", f64::NAN, false),
            ("delta", -f64::MIN_POSITIVE, false),
            ("delta", 0.0, true),
            ("delta", f64::MAX, true),
            ("delta", f64::INFINITY, false),
            ("delta", f64::NAN, false),
            ("max_iters", 0.0, false),
            ("max_iters", 1.0, true),
        ];
        for (field, v, accepted) in rows {
            let mut direct = NnDescentParams::new(10);
            match field {
                "k" => direct.k = v as usize,
                "rho" => direct.rho = v,
                "delta" => direct.delta = v,
                _ => direct.max_iters = v as usize,
            }
            let verdict = direct.validate();
            assert_eq!(verdict.is_ok(), accepted, "{field} = {v}: {verdict:?}");
            let built = testutil::panic_message(move || match field {
                "k" => NnDescentParams::new(v as usize),
                "rho" => NnDescentParams::new(10).rho(v),
                "delta" => NnDescentParams::new(10).delta(v),
                _ => NnDescentParams::new(10).max_iters(v as usize),
            });
            let want = verdict.err().map(|e| format!("NnDescentParams: {e}"));
            assert_eq!(built, want, "{field} = {v}");
        }
    }

    #[test]
    fn check_k_states_k_against_the_point_count() {
        let at_least_2 = "the dataset must have at least 2 points (got 1)";
        assert_eq!(check_k(1, 1), Err(at_least_2.to_string()));
        for (k, n, accepted) in [
            (0, 2, false),
            (1, 2, true),
            (2, 2, false),
            (9, 10, true),
            (10, 10, false),
        ] {
            let verdict = check_k(k, n);
            assert_eq!(verdict.is_ok(), accepted, "k {k}, n {n}: {verdict:?}");
        }
        assert_eq!(
            check_k(10, 10),
            Err("k must be >= 1 and below the dataset size 10 (got 10)".into())
        );
    }

    #[test]
    #[should_panic(expected = "below the dataset size")]
    fn k_ge_n_rejected() {
        let set = uniform(5, 2, 1);
        let _ = build(&set, &L2, NnDescentParams::new(5));
    }

    #[test]
    fn updates_per_iter_is_decreasing_overall() {
        let set = gaussian_mixture(MixtureParams::embedding_like(400, 8), 21);
        let (_, stats) = build(&set, &L2, NnDescentParams::new(8).seed(2));
        let first = stats.updates_per_iter.first().copied().unwrap_or(0);
        let last = stats.updates_per_iter.last().copied().unwrap_or(0);
        assert!(
            last < first,
            "descent should slow down: {:?}",
            stats.updates_per_iter
        );
    }
}
