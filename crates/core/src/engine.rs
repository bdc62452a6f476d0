//! The distributed NN-Descent engine.
//!
//! One SPMD `rank_main` runs per simulated rank inside a [`ygm::World`].
//! Phases, mirroring Section 4:
//!
//! 1. **Initialization** — every rank seeds its owned vertices' heaps with
//!    `K` random candidates; distances to remote candidates are computed by
//!    shipping the vector to the candidate's owner and receiving the
//!    distance back (the Section 4.1 example RPC chain).
//! 2. **Descent iterations** — local old/new sampling, the reverse-neighbor
//!    exchange with shuffled destinations (4.2), then the neighbor checks
//!    under either the unoptimized (Figure 1a) or optimized (Figure 1b:
//!    Type 1 / Type 2+ / Type 3) protocol (4.3), issued in globally
//!    coordinated batches separated by barriers (4.4). Termination when the
//!    all-reduced update count drops below `delta * K * N`.
//!
//! Since the batched distance-kernel rework, checks travel as **join rows**
//! — `(head, [partners...])` — instead of single pairs: each rank groups a
//! head's partners by destination rank, ships the head's vector once per
//! destination, and the receiver evaluates the whole row with one batched
//! [`BatchMetric::distance_one_to_many`] call against its cached norms.
//! Because the batched kernels are bit-identical to the scalar reference
//! per element, the delivered pair multiset (and therefore the final graph
//! under the unoptimized protocol) is unchanged by the batching.
//! 3. **Graph optimization** (optional, 4.5) — reverse edges are shipped to
//!    their endpoint's owner, merged, deduplicated, and pruned to
//!    `ceil(K * m)` neighbors.

use crate::config::{CommOpts, DnndConfig};
use crate::msgs::*;
use crate::partition::{Buckets, Partitioner};
use dataset::batch::{BatchMetric, NormCache};
use dataset::order::sort_edges;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use nnd::graph::{Edge, KnnGraph};
use nnd::heap::NeighborTable;
use obs::{FaultSection, MatrixSection, PhaseRecord};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use ygm::{ClockBreakdown, Comm, TagStats, World};

/// Everything `build` reports besides the graph itself.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Ranks the world simulated.
    pub n_ranks: usize,
    /// Descent iterations executed.
    pub iterations: usize,
    /// Global update count (`c`) per iteration: the number of neighbor-heap
    /// members added during the iteration that survived to its end. Counting
    /// survivors (end-of-iteration set difference) instead of transient
    /// insert successes makes the value — and therefore the `delta * K * N`
    /// termination decision — independent of message-arrival order, so every
    /// rung builds the same graph at every rank count.
    pub updates_per_iter: Vec<u64>,
    /// Total distance evaluations across all ranks.
    pub distance_evals: u64,
    /// Virtual (simulated cluster) construction time, seconds.
    pub sim_secs: f64,
    /// Virtual construction time in exact nanoseconds (final clock reading);
    /// the critical-path analyzer attributes collective time from this.
    pub sim_ns: u64,
    /// Compute / communication / barrier decomposition of `sim_secs` — the
    /// profiling view the paper's Section 7 asks for.
    pub breakdown: ClockBreakdown,
    /// Per-phase (barrier-to-barrier) virtual-time records.
    pub phases: Vec<PhaseRecord>,
    /// Real wall-clock time of the whole simulated run, seconds.
    pub wall_secs: f64,
    /// Per-tag message statistics (Figure 4's raw data).
    pub tags: Vec<(u16, String, TagStats)>,
    /// Totals over all tags.
    pub total: TagStats,
    /// Rank×rank×tag traffic matrix (diagonal = rank-local sends).
    pub matrix: MatrixSection,
    /// Injected-fault / reliable-delivery counters when the world ran under
    /// a [`ygm::FaultPlan`]; `None` on fault-free runs.
    pub faults: Option<FaultSection>,
}

impl BuildReport {
    /// Stats for one tag (zero if unused).
    pub fn tag(&self, tag: u16) -> TagStats {
        self.tags
            .iter()
            .find(|(t, _, _)| *t == tag)
            .map(|(_, _, s)| *s)
            .unwrap_or_default()
    }

    /// Combined count/bytes of the neighbor-check messages only (Type 1, 2,
    /// 2+, 3) — the paper's Figure 4 scope.
    pub fn check_traffic(&self) -> TagStats {
        let mut out = TagStats::default();
        for t in [TAG_TYPE1, TAG_TYPE2, TAG_TYPE2_PLUS, TAG_TYPE3] {
            let s = self.tag(t);
            out.count += s.count;
            out.bytes += s.bytes;
            out.remote_count += s.remote_count;
            out.remote_bytes += s.remote_bytes;
        }
        out
    }
}

/// The result of a distributed construction.
#[derive(Debug, Clone)]
pub struct DnndOutput {
    /// The assembled k-NNG (optimized if `graph_opt_m` was set).
    pub graph: KnnGraph,
    /// Run metrics.
    pub report: BuildReport,
}

/// Per-rank mutable state shared between the SPMD main loop and the
/// message handlers (single-threaded within a rank, hence `Rc<RefCell>`).
///
/// Everything kept per owned vertex is a `Vec` parallel to the rank's
/// ascending `owned` list, reached from a global id through `slots` — an
/// index, not a hash, per message received. (Per-message scratch — kernel
/// output, reply pairs, destination buckets — belongs to the handler
/// closure that fills it.)
struct State {
    /// [`Partitioner::slot_table`]: global id -> index into the vectors
    /// below on the id's owner. Shared by every rank of the world.
    slots: Arc<Vec<u32>>,
    /// One row per owned vertex.
    heaps: NeighborTable,
    /// Each row's ids as the iteration opened, `k` slots per row padded
    /// with `PointId::MAX`: what the update count and the redundant-check
    /// skips read ([`State::opened_with`]).
    start_ids: Vec<PointId>,
    /// Row capacity.
    k: usize,
    /// Reverse lists received this iteration; cleared (capacity kept) at
    /// the start of the next.
    rev_new: Vec<Vec<PointId>>,
    rev_old: Vec<Vec<PointId>>,
    /// Reverse edges received during the graph-optimization phase.
    opt_extra: Vec<Vec<Edge>>,
    /// Heap-insert attempts this iteration (denominator of the accept
    /// rate histogram).
    attempts: u64,
    /// Distance evaluations performed on this rank.
    dist_evals: u64,
    /// Batched kernel invocations on this rank (each covering one or more
    /// distance evaluations); `dist_evals / kernel_batches` is the mean
    /// batch width the telemetry gauge reports.
    kernel_batches: u64,
    /// Distance evaluations attributed per owned vertex; counted only
    /// when the world has a tracer attached.
    dist_by_vertex: Vec<u64>,
}

impl State {
    fn new(slots: Arc<Vec<u32>>, owned: usize, k: usize) -> Self {
        State {
            slots,
            heaps: NeighborTable::new(owned, k),
            start_ids: vec![PointId::MAX; owned * k],
            k,
            rev_new: vec![Vec::new(); owned],
            rev_old: vec![Vec::new(); owned],
            opt_extra: vec![Vec::new(); owned],
            attempts: 0,
            dist_evals: 0,
            kernel_batches: 0,
            dist_by_vertex: vec![0; owned],
        }
    }

    /// Index of owned vertex `v` in the per-vertex vectors.
    #[inline]
    fn slot(&self, v: PointId) -> usize {
        self.slots[v as usize] as usize
    }

    /// Whether row `at` held `id` as the iteration opened. A fold over all
    /// `k` slots rather than an early-exit `contains`: the Type 2 / 2+
    /// handlers ask once per pair, the answer is mostly "no", and a
    /// fixed-width loop with no exit to mispredict is the cheaper scan.
    #[inline]
    fn opened_with(&self, at: usize, id: PointId) -> bool {
        let row = &self.start_ids[at * self.k..(at + 1) * self.k];
        row.iter().fold(false, |hit, &x| hit | (x == id))
    }

    /// Account one batched kernel call covering `n` evaluations.
    fn record_batch(&mut self, n: usize) {
        self.dist_evals += n as u64;
        self.kernel_batches += 1;
    }

    /// Count one distance evaluation for `v`'s benefit (tracing only).
    #[inline]
    fn trace_dist(&mut self, traced: bool, v: PointId) {
        if traced {
            let at = self.slot(v);
            self.dist_by_vertex[at] += 1;
        }
    }

    /// Offer `(id, d)` to owned vertex `v`'s heap.
    #[inline]
    fn insert(&mut self, v: PointId, id: PointId, d: f32) {
        self.attempts += 1;
        let at = self.slot(v);
        self.heaps.insert(at, id, d, true);
    }

    /// Each vertex of the rank's `owned` list with its sorted neighbor list.
    fn rows<'a>(&'a self, owned: &'a [PointId]) -> impl Iterator<Item = (PointId, Vec<Edge>)> + 'a {
        (owned.iter().enumerate()).map(|(i, &v)| (v, self.heaps.sorted_edges(i)))
    }
}

/// Charge the virtual compute cost of `n` distance evaluations at once.
pub(crate) fn charge_batch(comm: &Comm, dim: usize, n: usize) {
    comm.charge_compute(comm.cost().distance_cost_ns(dim) * n as u64);
}

/// Build a k-NNG over `set` using `world.n_ranks()` simulated ranks.
///
/// `set` is shared read-only with every rank (in a real deployment each
/// rank holds only its partition; handlers here only ever read vectors the
/// owning rank would hold or that arrived inside a message).
pub fn build<P, M>(world: &World, set: &Arc<PointSet<P>>, metric: &M, cfg: DnndConfig) -> DnndOutput
where
    P: Point,
    M: BatchMetric<P>,
{
    let verdict = cfg
        .validate()
        .and_then(|()| nnd::check_k(cfg.descent.k, set.len()));
    verdict.unwrap_or_else(|e| panic!("invalid DnndConfig: {e}"));
    // One id -> slot table for the whole world, built once.
    let slots = Arc::new(Partitioner::new(world.n_ranks()).slot_table(set.len()));
    let report = world.run(|comm| {
        rank_main(
            comm,
            Arc::clone(set),
            metric.clone(),
            cfg,
            Arc::clone(&slots),
        )
    });

    // Assemble the distributed rows into one graph (driver-side; the paper
    // would instead leave the graph partitioned in Metall).
    let mut rows: Vec<Vec<Edge>> = vec![Vec::new(); set.len()];
    let mut iterations = 0;
    let mut updates_per_iter = Vec::new();
    let mut distance_evals = 0;
    for (rank_rows, metrics) in &report.results {
        for (v, edges) in rank_rows {
            rows[*v as usize] = edges.clone();
        }
        iterations = metrics.iterations;
        updates_per_iter.clone_from(&metrics.updates_per_iter);
        distance_evals += metrics.dist_evals;
    }
    DnndOutput {
        graph: KnnGraph::from_rows(rows),
        report: BuildReport {
            n_ranks: world.n_ranks(),
            iterations,
            updates_per_iter,
            distance_evals,
            sim_secs: report.sim_secs,
            sim_ns: report.sim_ns,
            breakdown: report.breakdown,
            phases: report.phases,
            wall_secs: report.wall_secs,
            tags: report.tags,
            total: report.total,
            matrix: report.matrix,
            faults: report.faults,
        },
    }
}

/// Per-rank return payload.
#[derive(Debug, Clone)]
struct RankMetrics {
    iterations: usize,
    updates_per_iter: Vec<u64>,
    dist_evals: u64,
}

type RankRows = Vec<(PointId, Vec<Edge>)>;

fn rank_main<P, M>(
    comm: &Comm,
    set: Arc<PointSet<P>>,
    metric: M,
    cfg: DnndConfig,
    slots: Arc<Vec<u32>>,
) -> (RankRows, RankMetrics)
where
    P: Point,
    M: BatchMetric<P>,
{
    let part = Partitioner::new(comm.n_ranks());
    let n = set.len();
    let dim = set.dim().max(1);
    let owned = part.owned_ids(n, comm.rank());
    let st = Rc::new(RefCell::new(State::new(slots, owned.len(), cfg.descent.k)));
    // Per-set norm cache (Section "cached-norm preprocessing"): each rank
    // computes the squared norms once up front so every dot-form distance
    // afterwards skips both norm recomputations. A real deployment would
    // compute only its partition; the virtual clock charges accordingly.
    let cache = Arc::new(metric.preprocess(&set));
    charge_batch(comm, dim, owned.len());
    register_handlers(comm, &st, &set, &metric, &cache, part, cfg, dim);
    let traced = comm.tracer().is_some();

    // ---- Phase 1: random initialization ------------------------------------
    comm.trace_begin("init");
    let quota = (cfg.batch_size / comm.n_ranks() as u64).max(1) as usize;
    let mut chosen: Vec<PointId> = Vec::with_capacity(cfg.descent.k);
    let mut buckets = Buckets::default();
    let mut dbuf: Vec<f32> = Vec::new();
    batched(comm, owned.len(), quota.max(1), |i| {
        let v = owned[i];
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.descent.seed ^ (u64::from(v) << 20));
        chosen.clear();
        let mut guard = 0;
        while chosen.len() < cfg.descent.k && guard < 100 * cfg.descent.k {
            let u: PointId = rng.gen_range(0..n as PointId);
            if u != v && !chosen.contains(&u) {
                chosen.push(u);
            }
            guard += 1;
        }
        // One group per owner; this rank's own group is scored in place,
        // the rest travel as one message each.
        part.group_into(&chosen, &mut buckets);
        if let Some((_, local)) = buckets.iter().find(|&(dest, _)| dest == comm.rank()) {
            // Local candidates: one batched 1xN evaluation.
            metric.distance_member_to_many(v, &set, &cache, local, &mut dbuf);
            charge_batch(comm, dim, local.len());
            comm.trace_hist("kernel_batch_len", local.len() as u64);
            let mut s = st.borrow_mut();
            s.record_batch(local.len());
            for (&u, &d) in local.iter().zip(&dbuf) {
                s.trace_dist(traced, v);
                s.insert(v, u, d);
            }
        }
        for (dest, us) in buckets.iter().filter(|&(dest, _)| dest != comm.rank()) {
            comm.async_send(dest, TAG_INIT_REQ, &(v, us, set.point(v)));
        }
    });
    comm.trace_end("init");

    // ---- Phase 2: descent iterations ----------------------------------------
    let max_sample = ((cfg.descent.rho * cfg.descent.k as f64).round() as usize).max(1);
    let threshold = ((cfg.descent.delta * cfg.descent.k as f64 * n as f64) as u64).max(1);
    let mut iterations = 0;
    let mut updates_per_iter = Vec::new();

    // One entry per owned vertex, parallel to `owned`; refilled (capacity
    // kept) every iteration.
    let mut fwd_old: Vec<Vec<PointId>> = vec![Vec::new(); owned.len()];
    let mut fwd_new: Vec<Vec<PointId>> = vec![Vec::new(); owned.len()];
    let mut joins = Joins::default();
    let mut weights: Vec<usize> = Vec::new();

    for iter in 0..cfg.descent.max_iters {
        comm.trace_begin_arg("iteration", iter as u64);
        // Snapshot each owned heap's membership: the iteration's update
        // count `c` is the number of ids present at iteration end but not
        // here. Unlike counting `checked_insert` successes (which tallies
        // transient entrants that a later, closer candidate evicts), the
        // set difference is a pure function of the delivered message
        // multiset — message-arrival order cannot flip the termination
        // decision. Sampling only flips flags and the reverse exchange
        // inserts nothing, so this is also each row as the neighbor check
        // opens, which the redundant-check skips read (4.3.2).
        {
            let s = &mut *st.borrow_mut();
            s.attempts = 0;
            s.rev_new.iter_mut().for_each(Vec::clear);
            s.rev_old.iter_mut().for_each(Vec::clear);
            for (i, ids) in s.start_ids.chunks_exact_mut(s.k).enumerate() {
                ids.fill(PointId::MAX);
                for (id, n) in ids.iter_mut().zip(s.heaps.row(i)) {
                    *id = n.id;
                }
            }
        }

        // 2a. Local sampling: split each owned vertex's heap into old ids
        // and a rho*K sample of new ids (flipped to old).
        comm.trace_begin("sample");
        {
            let mut s = st.borrow_mut();
            for (i, &v) in owned.iter().enumerate() {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    cfg.descent.seed ^ 0xA11CE ^ (u64::from(v) << 18) ^ (iter as u64),
                );
                let heap = s.heaps.row(i);
                // The heap's array layout depends on the order updates
                // arrived, which is a function of the rank count; sort both
                // id lists so the sample below — and with it the unoptimized
                // graph — is the same at every rank count.
                let (old, candidates) = (&mut fwd_old[i], &mut fwd_new[i]);
                old.clear();
                old.extend(heap.iter().filter(|n| !n.new).map(|n| n.id));
                old.sort_unstable();
                candidates.clear();
                candidates.extend(heap.iter().filter(|n| n.new).map(|n| n.id));
                candidates.sort_unstable();
                candidates.shuffle(&mut rng);
                candidates.truncate(max_sample);
                for &u in candidates.iter() {
                    s.heaps.mark_old(i, u);
                }
            }
        }

        comm.trace_end("sample");

        // 2b. Reverse-neighbor exchange (Section 4.2): ship (u, v) to
        // owner(u). Destination order is shuffled to spread load.
        comm.trace_begin("reverse_exchange");
        let mut order: Vec<usize> = (0..owned.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(
            cfg.descent.seed ^ 0x5F0F ^ (iter as u64) ^ ((comm.rank() as u64) << 32),
        );
        order.shuffle(&mut rng);
        batched(comm, order.len(), quota, |i| {
            let at = order[i];
            let v = owned[at];
            for &u in &fwd_new[at] {
                comm.async_send(part.owner(u), TAG_REV_NEW, &(u, v));
            }
            for &u in &fwd_old[at] {
                comm.async_send(part.owner(u), TAG_REV_OLD, &(u, v));
            }
        });

        comm.trace_end("reverse_exchange");

        // 2c. Sample rho*K of each received reverse list and union into the
        // forward lists (Algorithm 1 lines 15-16).
        comm.trace_begin("union_sample");
        {
            let mut s = st.borrow_mut();
            for (i, &v) in owned.iter().enumerate() {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    cfg.descent.seed ^ 0xBEE ^ (u64::from(v) << 18) ^ (iter as u64),
                );
                let mut union_sample = |fwd: &mut Vec<PointId>, rev: &mut Vec<PointId>| {
                    // The reverse lists arrive in an order that is a
                    // function of the rank count; canonicalize so the sample
                    // is the same at every rank count.
                    rev.sort_unstable();
                    rev.shuffle(&mut rng);
                    rev.truncate(max_sample);
                    for &u in rev.iter() {
                        if u != v && !fwd.contains(&u) {
                            fwd.push(u);
                        }
                    }
                };
                union_sample(&mut fwd_new[i], &mut s.rev_new[i]);
                union_sample(&mut fwd_old[i], &mut s.rev_old[i]);
            }
        }

        comm.trace_end("union_sample");

        // 2d. Generate the neighbor-check join rows for this rank's
        // vertices: one forward row `(u1, [u2...])` per sampled-new head,
        // plus (two-sided protocol only) the mirror rows `(u2, [u1...])`
        // grouped per mirror head in first-seen order. A row is the unit
        // of batched evaluation at the receiver.
        comm.trace_begin("gen_pairs");
        joins.clear();
        let mut n_pairs: u64 = 0;
        for (news, olds) in fwd_new.iter().zip(&fwd_old) {
            let fwd_start = joins.len();
            for (i, &u1) in news.iter().enumerate() {
                let tails = news[i + 1..].iter().chain(olds.iter()).copied();
                n_pairs += joins.push_row(u1, tails.filter(|&u2| u2 != u1)) as u64;
            }
            if cfg.opts < CommOpts::OneSided {
                joins.push_mirrors(fwd_start);
            }
        }

        comm.trace_end("gen_pairs");
        comm.trace_hist("check_pairs_per_iter", n_pairs);

        // 2e. Issue checks in globally coordinated batches (Section 4.4).
        // Batching is weighted by row width so every rank advances through
        // roughly `quota` *pairs* (not rows) per barrier window, matching
        // the per-pair batching the protocol used before rows existed.
        comm.trace_begin("neighbor_check");
        weights.clear();
        weights.extend((0..joins.len()).map(|i| joins.row(i).1.len()));
        batched_weighted(comm, &weights, quota, |i| {
            // A `Type1`.
            let row = joins.row(i);
            comm.async_send(part.owner(row.0), TAG_TYPE1, &row);
        });

        comm.trace_end("neighbor_check");

        // 2f. Convergence test on the all-reduced update count.
        let (c_local, attempts) = {
            let s = st.borrow();
            let c: u64 = (0..owned.len())
                .map(|i| {
                    let row = s.heaps.row(i).iter();
                    row.filter(|n| !s.opened_with(i, n.id)).count() as u64
                })
                .sum();
            (c, s.attempts)
        };
        if let Some(pct) = (c_local * 100).checked_div(attempts) {
            comm.trace_hist("heap_accept_pct", pct);
        }
        let c_global = comm.all_reduce_sum_u64(c_local);
        iterations = iter + 1;
        updates_per_iter.push(c_global);
        comm.trace_instant("iter_updates", c_global);
        // Per-iteration telemetry gauges: the surviving-update rate and the
        // cumulative distance-eval count per rank. The global termination
        // counter is the report's convergence row, not a gauge.
        comm.gauge("heap_updates", c_local as f64);
        {
            let s = st.borrow();
            comm.gauge("dist_evals", s.dist_evals as f64);
            comm.gauge(
                "dist_evals_per_batch",
                s.dist_evals as f64 / s.kernel_batches.max(1) as f64,
            );
        }
        comm.trace_end("iteration");
        if c_global < threshold {
            break;
        }
    }

    // ---- Phase 3: optional distributed graph optimization -------------------
    let rows: RankRows = if let Some(m) = cfg.graph_opt_m {
        comm.trace_begin("graph_optimize");
        let limit = nnd::prune_limit(cfg.descent.k, m).expect("validated by build");
        let rows = optimize_distributed(comm, &st, &owned, part, limit, quota);
        comm.trace_end("graph_optimize");
        rows
    } else {
        st.borrow().rows(&owned).collect()
    };

    let s = st.borrow();
    if traced {
        for &evals in &s.dist_by_vertex {
            comm.trace_hist("dist_evals_per_item", evals);
        }
    }
    (
        rows,
        RankMetrics {
            iterations,
            updates_per_iter,
            dist_evals: s.dist_evals,
        },
    )
}

/// One iteration's neighbor-check join rows in flat storage, refilled every
/// iteration: row `i` is head `heads[i]` with the tails
/// `tails[ends[i - 1]..ends[i]]`. A row is sent as the borrowed
/// `(head, &tails[..])`, which is a [`Type1`] on the wire.
#[derive(Default)]
struct Joins {
    heads: Vec<PointId>,
    ends: Vec<usize>,
    tails: Vec<PointId>,
    /// `push_mirrors` scratch: distinct mirror heads in first-seen order,
    /// each one's partner count (then write cursor), and the group of
    /// every pair.
    mirror_heads: Vec<PointId>,
    mirror_fill: Vec<usize>,
    pair_group: Vec<usize>,
}

impl Joins {
    fn clear(&mut self) {
        self.heads.clear();
        self.ends.clear();
        self.tails.clear();
    }

    fn len(&self) -> usize {
        self.heads.len()
    }

    /// Where row `i`'s tails begin (for `i == len()`: where the next row's
    /// would).
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.ends[prev])
    }

    fn row(&self, i: usize) -> (PointId, &[PointId]) {
        (self.heads[i], &self.tails[self.start(i)..self.ends[i]])
    }

    /// Append the row `(head, tails)` unless it is empty; returns its width.
    fn push_row(&mut self, head: PointId, tails: impl Iterator<Item = PointId>) -> usize {
        let start = self.tails.len();
        self.tails.extend(tails);
        let width = self.tails.len() - start;
        if width > 0 {
            self.heads.push(head);
            self.ends.push(self.tails.len());
        }
        width
    }

    /// Append the mirror rows of rows `from..`: every pair `(u1, u2)` of
    /// those rows again as `(u2, u1)`, grouped per `u2` in first-seen
    /// order with the `u1`s in pair order (a stable counting sort by
    /// mirror head).
    fn push_mirrors(&mut self, from: usize) {
        let fwd = from..self.len();
        let pairs = self.start(from)..self.tails.len();
        self.mirror_heads.clear();
        self.mirror_fill.clear();
        self.pair_group.clear();
        for &u2 in &self.tails[pairs.clone()] {
            let group = match self.mirror_heads.iter().position(|&h| h == u2) {
                Some(g) => g,
                None => {
                    self.mirror_heads.push(u2);
                    self.mirror_fill.push(0);
                    self.mirror_heads.len() - 1
                }
            };
            self.mirror_fill[group] += 1;
            self.pair_group.push(group);
        }
        // Open the rows at their final widths, turning each group's count
        // into its write cursor.
        let mut cursor = self.tails.len();
        self.tails.resize(cursor + pairs.len(), 0);
        for (fill, &head) in self.mirror_fill.iter_mut().zip(&self.mirror_heads) {
            let width = std::mem::replace(fill, cursor);
            cursor += width;
            self.heads.push(head);
            self.ends.push(cursor);
        }
        let mut groups = self.pair_group.iter();
        for row in fwd {
            for &group in groups.by_ref().take(self.ends[row] - self.start(row)) {
                self.tails[self.mirror_fill[group]] = self.heads[row];
                self.mirror_fill[group] += 1;
            }
        }
    }
}

/// Section 4.5 as a distributed pass: ship every edge `v -> u` to
/// `owner(u)` as a reverse edge, merge + dedup + prune to `limit`
/// ([`nnd::prune_limit`]).
fn optimize_distributed(
    comm: &Comm,
    st: &Rc<RefCell<State>>,
    owned: &[PointId],
    part: Partitioner,
    limit: usize,
    quota: usize,
) -> RankRows {
    batched(comm, owned.len(), quota, |i| {
        let v = owned[i];
        let edges = st.borrow().heaps.sorted_edges(i);
        for (u, d) in edges {
            comm.async_send(part.owner(u), TAG_OPT_EDGE, &(u, v, d));
        }
    });
    let mut s = st.borrow_mut();
    (owned.iter().enumerate())
        .map(|(i, &v)| {
            let mut edges = s.heaps.sorted_edges(i);
            edges.append(&mut s.opt_extra[i]);
            sort_edges(&mut edges);
            edges.dedup_by_key(|e| e.0);
            edges.truncate(limit);
            (v, edges)
        })
        .collect()
}

/// Process local work items `0..total` in chunks of `quota`:
/// [`batched_weighted`] over unit weights.
pub(crate) fn batched<F: FnMut(usize)>(comm: &Comm, total: usize, quota: usize, f: F) {
    batched_weighted(comm, &vec![1; total], quota, f)
}

/// The Section 4.4 batched-communication pattern: process local work items
/// in windows, item `i` costing `weights[i]` units against the per-window
/// `quota` (a window always admits at least one item; join rows cost their
/// pair count), with a global barrier after each window, looping until
/// *every* rank is out of work.
pub(crate) fn batched_weighted<F: FnMut(usize)>(
    comm: &Comm,
    weights: &[usize],
    quota: usize,
    mut f: F,
) {
    let mut idx = 0;
    loop {
        let start = idx;
        let mut used = 0usize;
        while idx < weights.len() && (used == 0 || used + weights[idx] <= quota) {
            used += weights[idx];
            idx += 1;
        }
        if used > 0 {
            comm.trace_hist("batch_size", used as u64);
        }
        (start..idx).for_each(&mut f);
        comm.barrier();
        let left: u64 = weights[idx..].iter().map(|&w| w as u64).sum();
        if comm.all_reduce_sum_u64(left) == 0 {
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn register_handlers<P, M>(
    comm: &Comm,
    st: &Rc<RefCell<State>>,
    set: &Arc<PointSet<P>>,
    metric: &M,
    cache: &Arc<NormCache>,
    part: Partitioner,
    cfg: DnndConfig,
    dim: usize,
) where
    P: Point,
    M: BatchMetric<P>,
{
    let traced = comm.tracer().is_some();

    // Init: compute theta(v, u) for every u we own (one batched call),
    // reply once to owner(v).
    {
        let st = Rc::clone(st);
        let set = Arc::clone(set);
        let metric = metric.clone();
        let cache = Arc::clone(cache);
        let mut dbuf: Vec<f32> = Vec::new();
        let mut reply: Vec<(PointId, f32)> = Vec::new();
        comm.register_named::<InitReq<P>, _>(
            TAG_INIT_REQ,
            tag_display(TAG_INIT_REQ),
            move |c, msg| {
                metric.distance_one_to_many(&msg.vec, &set, &cache, &msg.us, &mut dbuf);
                charge_batch(c, dim, msg.us.len());
                c.trace_hist("kernel_batch_len", msg.us.len() as u64);
                let mut s = st.borrow_mut();
                s.record_batch(msg.us.len());
                for &u in &msg.us {
                    s.trace_dist(traced, u);
                }
                drop(s);
                reply.clear();
                reply.extend(msg.us.iter().copied().zip(dbuf.iter().copied()));
                c.async_send(part.owner(msg.v), TAG_INIT_RESP, &(msg.v, reply.as_slice()));
            },
        );
    }
    {
        let st = Rc::clone(st);
        comm.register_named::<InitResp, _>(
            TAG_INIT_RESP,
            tag_display(TAG_INIT_RESP),
            move |_, (v, pairs)| {
                let mut s = st.borrow_mut();
                for &(u, d) in pairs.iter() {
                    s.insert(*v, u, d);
                }
            },
        );
    }

    // Reverse-neighbor exchange accumulators.
    {
        let st = Rc::clone(st);
        comm.register_named::<RevEntry, _>(
            TAG_REV_NEW,
            tag_display(TAG_REV_NEW),
            move |_, &mut (u, v)| {
                let mut s = st.borrow_mut();
                let at = s.slot(u);
                s.rev_new[at].push(v);
            },
        );
    }
    {
        let st = Rc::clone(st);
        comm.register_named::<RevEntry, _>(
            TAG_REV_OLD,
            tag_display(TAG_REV_OLD),
            move |_, &mut (u, v)| {
                let mut s = st.borrow_mut();
                let at = s.slot(u);
                s.rev_old[at].push(v);
            },
        );
    }

    // Type 1: this rank owns u1. Filter the row against u1's row as the
    // iteration opened, read the live pruning bound once, then forward one
    // Type 2 / Type 2+ per destination rank — shipping u1's vector once per
    // destination instead of once per pair, and borrowing it from the set
    // rather than cloning it into the message.
    {
        let st = Rc::clone(st);
        let set = Arc::clone(set);
        let mut buckets = Buckets::default();
        comm.register_named::<Type1, _>(TAG_TYPE1, tag_display(TAG_TYPE1), move |c, (u1, u2s)| {
            let u1 = *u1;
            let bound = {
                let s = st.borrow();
                let at = s.slot(u1);
                if cfg.opts >= CommOpts::SkipRedundant {
                    // Redundant-check reduction (4.3.2) on the forward path.
                    u2s.retain(|&u2| !s.opened_with(at, u2));
                }
                if cfg.opts >= CommOpts::Optimized {
                    s.heaps.max_dist(at)
                } else {
                    f32::INFINITY
                }
            };
            // Rank-local endpoints travel as ordinary self-sends too, so
            // they show up on the traffic matrix diagonal.
            part.group_into(u2s, &mut buckets);
            for (dest, u2s) in buckets.iter() {
                if cfg.opts >= CommOpts::OneSided {
                    // A `Type2Plus`, field for field.
                    c.async_send(dest, TAG_TYPE2_PLUS, &(u1, u2s, bound, set.point(u1)));
                } else {
                    // A `Type2`.
                    c.async_send(dest, TAG_TYPE2, &(u1, u2s, set.point(u1)));
                }
            }
        });
    }

    // Type 2 (unoptimized): one batched evaluation, update only our side.
    {
        let st = Rc::clone(st);
        let set = Arc::clone(set);
        let metric = metric.clone();
        let cache = Arc::clone(cache);
        let mut dbuf: Vec<f32> = Vec::new();
        comm.register_named::<Type2<P>, _>(TAG_TYPE2, tag_display(TAG_TYPE2), move |c, msg| {
            metric.distance_one_to_many(&msg.vec, &set, &cache, &msg.u2s, &mut dbuf);
            charge_batch(c, dim, msg.u2s.len());
            c.trace_hist("kernel_batch_len", msg.u2s.len() as u64);
            let mut s = st.borrow_mut();
            s.record_batch(msg.u2s.len());
            for (&u2, &d) in msg.u2s.iter().zip(&dbuf) {
                s.trace_dist(traced, u2);
                s.insert(u2, msg.u1, d);
            }
        });
    }

    // Type 2+ (optimized): update our side, Type 3 back unless pruned.
    {
        let st = Rc::clone(st);
        let set = Arc::clone(set);
        let metric = metric.clone();
        let cache = Arc::clone(cache);
        let mut dbuf: Vec<f32> = Vec::new();
        let mut replies: Vec<(PointId, f32)> = Vec::new();
        comm.register_named::<Type2Plus<P>, _>(
            TAG_TYPE2_PLUS,
            tag_display(TAG_TYPE2_PLUS),
            move |c, msg| {
                // Redundant-check reduction on the return path (4.3.2): if
                // u1 was a neighbor of u2 as the iteration opened, this pair
                // was checked before — drop it from the row before evaluating.
                if cfg.opts >= CommOpts::SkipRedundant {
                    let s = st.borrow();
                    msg.u2s.retain(|&u2| !s.opened_with(s.slot(u2), msg.u1));
                }
                if msg.u2s.is_empty() {
                    return;
                }
                metric.distance_one_to_many(&msg.vec, &set, &cache, &msg.u2s, &mut dbuf);
                charge_batch(c, dim, msg.u2s.len());
                c.trace_hist("kernel_batch_len", msg.u2s.len() as u64);
                replies.clear();
                {
                    let mut s = st.borrow_mut();
                    s.record_batch(msg.u2s.len());
                    for (&u2, &d) in msg.u2s.iter().zip(&dbuf) {
                        s.trace_dist(traced, u2);
                        s.insert(u2, msg.u1, d);
                        // Long-distance pruning (4.3.3): drop only a reply
                        // u1's row would reject — its bound only falls.
                        if d <= msg.bound {
                            replies.push((u2, d));
                        }
                    }
                }
                if !replies.is_empty() {
                    c.async_send(part.owner(msg.u1), TAG_TYPE3, &(msg.u1, replies.as_slice()));
                }
            },
        );
    }

    // Type 3: the returned distances update u1's heap.
    {
        let st = Rc::clone(st);
        comm.register_named::<Type3, _>(
            TAG_TYPE3,
            tag_display(TAG_TYPE3),
            move |_, (u1, pairs)| {
                let mut s = st.borrow_mut();
                for &(u2, d) in pairs.iter() {
                    s.insert(*u1, u2, d);
                }
            },
        );
    }

    // Graph-optimization reverse edges.
    {
        let st = Rc::clone(st);
        comm.register_named::<OptEdge, _>(
            TAG_OPT_EDGE,
            tag_display(TAG_OPT_EDGE),
            move |_, &mut (u, v, d)| {
                let mut s = st.borrow_mut();
                let at = s.slot(u);
                s.opt_extra[at].push((v, d));
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branch-free skip test answers what the row's `contains` does:
    /// for ids in a full row (last slot included), ids not in it, and a
    /// short row padded with `PointId::MAX`.
    #[test]
    fn opened_with_agrees_with_the_rows_contains() {
        let k = 4;
        let mut s = State::new(Arc::new(vec![0, 1, 2]), 3, k);
        let pad = PointId::MAX;
        s.start_ids
            .copy_from_slice(&[5, 9, 2, 7, 3, pad, pad, pad, 0, 1, 8, 6]);
        assert!(s.opened_with(0, 7) && s.opened_with(1, 3) && s.opened_with(2, 0));
        assert!(!s.opened_with(0, 3) && !s.opened_with(1, 5));
        for at in 0..3 {
            let row = &s.start_ids[at * k..(at + 1) * k];
            for id in (0..12).chain([pad]) {
                let want = row.contains(&id);
                assert_eq!(s.opened_with(at, id), want, "row {at}, id {id}");
            }
        }
    }

    /// The flat rows against the nested-`Vec` generation they replaced,
    /// written out: forward rows per head, then mirror rows grouped per
    /// mirror head in first-seen order.
    #[test]
    fn flat_join_rows_equal_the_nested_reference() {
        let lists: [(&[PointId], &[PointId]); 5] = [
            (&[4, 9, 2], &[7, 9, 1]),
            (&[], &[3]),
            (&[5], &[]),
            (&[8, 8, 6], &[6, 8]),
            (&[1, 2, 3, 4], &[2, 9]),
        ];
        for two_sided in [false, true] {
            let mut want: Vec<Type1> = Vec::new();
            let mut joins = Joins::default();
            // Stale rows from an earlier iteration must not survive.
            joins.push_row(99, [1, 2, 3].into_iter());
            joins.push_mirrors(0);
            joins.clear();
            for (news, olds) in lists {
                let fwd_start = want.len();
                assert_eq!(joins.len(), fwd_start);
                for (i, &u1) in news.iter().enumerate() {
                    let tails: Vec<PointId> = news[i + 1..]
                        .iter()
                        .chain(olds.iter())
                        .copied()
                        .filter(|&u2| u2 != u1)
                        .collect();
                    joins.push_row(u1, tails.iter().copied());
                    if !tails.is_empty() {
                        want.push((u1, tails));
                    }
                }
                if two_sided {
                    let mut mirrors: Vec<Type1> = Vec::new();
                    for (u1, tails) in &want[fwd_start..] {
                        for &u2 in tails {
                            match mirrors.iter_mut().find(|(h, _)| *h == u2) {
                                Some((_, g)) => g.push(*u1),
                                None => mirrors.push((u2, vec![*u1])),
                            }
                        }
                    }
                    want.extend(mirrors);
                    joins.push_mirrors(fwd_start);
                }
            }
            let got: Vec<Type1> = (0..joins.len())
                .map(|i| (joins.row(i).0, joins.row(i).1.to_vec()))
                .collect();
            assert_eq!(got, want, "two_sided = {two_sided}");
        }
    }
}
