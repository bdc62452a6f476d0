//! RNN-Descent graph optimization (Relative NN-Descent, after GRNND and
//! the `mini_rnn` reference implementation): an iterative alternative to
//! the paper's Section 4.5 reverse-merge + degree-prune pass that yields a
//! *sparser* search graph at equal or better recall.
//!
//! Starting from a built k-NNG, each **inner round** rescans every
//! neighbor list with the relative-neighborhood (occlusion) rule: walking
//! `v`'s row in ascending `(dist, id)` order, edge `v -> w` is dropped when
//! some already-kept closer neighbor `u` satisfies
//! `(theta(u, w), u) < (theta(v, w), w)` lexicographically — `w` stays
//! reachable through `u`, so the direct edge only costs search fan-out.
//! The pruned edge is not discarded: `w` is *inserted into `u`'s row*,
//! which is how candidates propagate between neighborhoods. After `T2`
//! inner rounds an **outer round** ends by adding every reverse edge
//! (`add_reverse_edges`), re-seeding rows with fresh candidates; after `T1`
//! outer rounds every row is capped at the `K0` closest entries and
//! [`repair_connectivity`] reconnects any vertex the pruning left with
//! zero in-degree (such a vertex would be unreachable by graph search at
//! any beam width).
//!
//! # Determinism contract
//!
//! Unlike `mini_rnn` (which inserts into other rows mid-scan, making the
//! result depend on vertex visit order), every round here is
//! **synchronous**: all rows are scanned against the same snapshot, and
//! prune/insert decisions are applied afterwards in the canonical
//! `(dist, id)` order. Pair distances are only consulted for *flagged*
//! pairs (at least one endpoint `new`, NN-Descent style), and the set of
//! flagged pairs is a pure function of row state — so the distance-eval
//! count, every pruning decision, and the final graph are bit-identical
//! across reruns, rank counts, and kernel dispatch (the batched kernels
//! are bit-identical to the scalar reference by the crate contract). The
//! distributed pass in the `dnnd` crate reuses [`scan_row`] /
//! [`apply_inserts`] verbatim, so shared-memory and distributed runs
//! produce the same graph.

use crate::graph::{Edge, KnnGraph};
use dataset::batch::{BatchMetric, NormCache};
use dataset::order::{sort_edges, DistKey};
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use obs::RnnRoundReport;
use std::cmp::Ordering;
use std::collections::HashMap;

/// RNN-Descent hyper-parameters (`mini_rnn`'s `rnn_para`, minus the
/// sampling knob its random init needs — we always start from a built
/// k-NNG).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RnnParams {
    /// Outer rounds: each ends with a reverse-edge add (except the last).
    pub t1: usize,
    /// Inner neighbor-update rounds per outer round (an outer round exits
    /// early once no flagged pair remains — convergence).
    pub t2: usize,
    /// Final out-degree cap (`K0`): every row is clamped to its `k0`
    /// closest entries when the optimization finishes.
    pub k0: usize,
    /// Working-row capacity (`R`): rows may grow to `r` entries between
    /// rounds (inserts + reverse edges) before the final cap.
    pub r: usize,
}

impl RnnParams {
    /// Defaults scaled from `mini_rnn` (`T1=3, T2=20, R=3*K0`): `t2` is
    /// lowered to 8 because rounds converge (zero flagged pairs) long
    /// before 20 at the scales this repo simulates.
    pub fn new(k0: usize) -> Self {
        let params = RnnParams {
            t1: 3,
            t2: 8,
            k0,
            r: 3 * k0,
        };
        crate::checked(params, "RnnParams", Self::validate)
    }

    /// Set the outer round count.
    pub fn t1(mut self, t1: usize) -> Self {
        self.t1 = t1;
        crate::checked(self, "RnnParams", Self::validate)
    }

    /// Set the inner round cap.
    pub fn t2(mut self, t2: usize) -> Self {
        self.t2 = t2;
        crate::checked(self, "RnnParams", Self::validate)
    }

    /// Set the working-row capacity.
    pub fn r(mut self, r: usize) -> Self {
        self.r = r;
        crate::checked(self, "RnnParams", Self::validate)
    }

    /// The pass's domain, stated once for both RNN passes.
    pub fn validate(&self) -> Result<(), String> {
        let RnnParams { t1, t2, k0, r } = *self;
        for (name, value) in [("k0", k0), ("t1", t1), ("t2", t2)] {
            if value < 1 {
                return Err(format!("{name} must be >= 1 (got 0)"));
            }
        }
        if r < k0 {
            return Err(format!("require r >= k0 (got r = {r}, k0 = {k0})"));
        }
        Ok(())
    }
}

/// One working edge: a [`crate::graph::Edge`] plus the NN-Descent `new`
/// flag that limits occlusion checks to not-yet-compared pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RnnEdge {
    /// Target vertex.
    pub id: PointId,
    /// Distance from the row's owner to `id`.
    pub dist: f32,
    /// Whether this edge has not yet survived a scan round.
    pub new: bool,
}

/// The `(dist, id)` total order every row is kept in. Ties on distance
/// break by id, so boundary decisions never depend on arrival order.
pub fn canonical(a: &RnnEdge, b: &RnnEdge) -> Ordering {
    DistKey::new(a.dist, a.id).cmp(&DistKey::new(b.dist, b.id))
}

fn sort_row(row: &mut [RnnEdge]) {
    row.sort_unstable_by(canonical);
}

/// The index pairs `(i, j)`, `i < j`, of `row` whose occlusion check needs
/// a distance this round: at least one endpoint is flagged `new`. Pairs
/// with both endpoints old were checked in an earlier round, and their
/// verdict cannot change (neither `theta(u, w)` nor `theta(v, w)` moves).
/// The flagged-pair list — and therefore the round's distance-eval count —
/// is a pure function of row state.
pub fn flagged_pairs(row: &[RnnEdge]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..row.len() {
        for j in i + 1..row.len() {
            if row[i].new || row[j].new {
                out.push((i, j));
            }
        }
    }
    out
}

/// What one row scan decided.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// Indices (into the scanned row) of surviving edges, ascending.
    pub kept: Vec<usize>,
    /// Redirected edges `(u, w, theta(u, w))`: `v -> w` was occluded by the
    /// kept neighbor `u`, so `w` must be inserted into `u`'s row.
    pub inserts: Vec<(PointId, PointId, f32)>,
}

/// Scan one row (already in canonical order) with the occlusion rule.
///
/// Walking the row ascending, edge `w` is dropped iff some already-kept
/// `u` with `(u.new || w.new)` satisfies
/// `(theta(u, w), u) < (w.dist, w)` lexicographically; the *first* such
/// `u` in kept order receives the redirected edge. `pair_dist(i, j)` must
/// return `theta(row[i].id, row[j].id)` for every flagged pair — the
/// distributed pass pre-fetches exactly [`flagged_pairs`] and serves them
/// from a map, the shared-memory pass computes them in place; both paths
/// therefore take identical decisions.
pub fn scan_row<F: Fn(usize, usize) -> f32>(row: &[RnnEdge], pair_dist: F) -> ScanOutcome {
    let mut kept: Vec<usize> = Vec::with_capacity(row.len());
    let mut inserts = Vec::new();
    for (j, w) in row.iter().enumerate() {
        let mut occluder: Option<(usize, f32)> = None;
        for &i in &kept {
            let u = &row[i];
            if !(u.new || w.new) {
                continue;
            }
            let d_uw = pair_dist(i, j);
            if (d_uw, u.id) < (w.dist, w.id) {
                occluder = Some((i, d_uw));
                break;
            }
        }
        match occluder {
            None => kept.push(j),
            Some((i, d_uw)) => inserts.push((row[i].id, w.id, d_uw)),
        }
    }
    ScanOutcome { kept, inserts }
}

/// Merge candidate edges into a row deterministically: candidates are
/// sorted into the canonical `(dist, id)` order first (so arrival order is
/// irrelevant), self-loops and already-present ids are skipped, and the
/// grown row is re-sorted and clamped to `cap`. Returns how many
/// candidates were actually inserted (before the clamp).
pub fn apply_inserts(
    row: &mut Vec<RnnEdge>,
    mut candidates: Vec<(PointId, f32)>,
    owner: PointId,
    cap: usize,
) -> u64 {
    sort_edges(&mut candidates);
    let mut added = 0;
    for (id, dist) in candidates {
        if id == owner || row.iter().any(|e| e.id == id) {
            continue;
        }
        row.push(RnnEdge {
            id,
            dist,
            new: true,
        });
        added += 1;
    }
    sort_row(row);
    row.truncate(cap);
    added
}

/// Counters for a whole RNN-Descent optimization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RnnStats {
    /// One entry per executed inner round.
    pub rounds: Vec<RnnRoundReport>,
    /// Reverse edges inserted per exchange (length `t1`): entry 0 is the
    /// seed merge before the first outer round, entries `1..t1` the
    /// outer-round boundaries (the last outer round adds none).
    pub reverse_added: Vec<u64>,
    /// Total distance evaluations (sum of `rounds[i].pairs`).
    pub dist_evals: u64,
    /// Zero-in-degree vertices reconnected by [`repair_connectivity`]
    /// after the final cap.
    pub repaired: u64,
}

/// The stepping state: rows plus accumulated stats. Exposed (rather than
/// only a one-shot driver) so property tests can assert invariants after
/// every individual round, and so the distributed pass has a shared-memory
/// twin to compare against.
#[derive(Debug, Clone)]
pub struct RnnState {
    rows: Vec<Vec<RnnEdge>>,
    params: RnnParams,
    stats: RnnStats,
}

/// Canonicalize one adjacency row into a working row: self-loops and
/// duplicate ids dropped, `(dist, id)` order, clamped to `r`, every edge
/// flagged `new`. Shared with the distributed pass so both seed
/// identically.
pub fn seed_row(edges: &[Edge], owner: PointId, r: usize) -> Vec<RnnEdge> {
    let mut row: Vec<RnnEdge> = edges
        .iter()
        .filter(|&&(id, _)| id != owner)
        .map(|&(id, dist)| RnnEdge {
            id,
            dist,
            new: true,
        })
        .collect();
    sort_row(&mut row);
    row.dedup_by_key(|e| e.id);
    row.truncate(r);
    row
}

impl RnnState {
    /// Seed from a built k-NNG: every edge flagged `new`, rows clamped to
    /// the working capacity `r`.
    pub fn from_graph(graph: &KnnGraph, params: RnnParams) -> Self {
        let rows = (0..graph.len() as PointId)
            .map(|v| seed_row(graph.neighbors(v), v, params.r))
            .collect();
        RnnState {
            rows,
            params,
            stats: RnnStats::default(),
        }
    }

    /// The working rows (tests: invariants hold after every round).
    pub fn rows(&self) -> &[Vec<RnnEdge>] {
        &self.rows
    }

    /// The parameters this state steps under.
    pub fn params(&self) -> RnnParams {
        self.params
    }

    /// Stats accumulated so far.
    pub fn stats(&self) -> &RnnStats {
        &self.stats
    }

    /// One synchronous inner round: scan every row against the current
    /// snapshot, then apply survivors (flags -> old) and redirected
    /// inserts (flagged new) in canonical order. Returns the round's
    /// counters; `pairs == 0` means the state has converged and further
    /// inner rounds are no-ops.
    pub fn inner_round<P: Point, M: BatchMetric<P>>(
        &mut self,
        base: &PointSet<P>,
        metric: &M,
        cache: &NormCache,
        outer: u64,
        inner: u64,
    ) -> RnnRoundReport {
        let n = self.rows.len();
        let mut round = RnnRoundReport {
            outer,
            inner,
            ..RnnRoundReport::default()
        };
        let mut kept_rows: Vec<Vec<RnnEdge>> = Vec::with_capacity(n);
        let mut pending: Vec<Vec<(PointId, f32)>> = vec![Vec::new(); n];
        let mut dbuf: Vec<f32> = Vec::new();
        for row in &self.rows {
            let pairs = flagged_pairs(row);
            round.pairs += pairs.len() as u64;
            // Batch the pair distances head-by-head: one 1xN kernel call
            // per distinct head index, exactly like the distributed pass
            // ships one vector per (head, destination) group.
            let mut dists: HashMap<(usize, usize), f32> = HashMap::with_capacity(pairs.len());
            let mut h = 0;
            while h < pairs.len() {
                let head = pairs[h].0;
                let mut t = h;
                while t < pairs.len() && pairs[t].0 == head {
                    t += 1;
                }
                let tails: Vec<PointId> = pairs[h..t].iter().map(|&(_, j)| row[j].id).collect();
                dbuf.clear();
                metric.distance_one_to_many(
                    base.point(row[head].id),
                    base,
                    cache,
                    &tails,
                    &mut dbuf,
                );
                for (&(i, j), &d) in pairs[h..t].iter().zip(&dbuf) {
                    dists.insert((i, j), d);
                }
                h = t;
            }
            let out = scan_row(row, |i, j| dists[&(i, j)]);
            round.pruned += (row.len() - out.kept.len()) as u64;
            for (u, w, d) in out.inserts {
                pending[u as usize].push((w, d));
            }
            kept_rows.push(
                out.kept
                    .iter()
                    .map(|&i| RnnEdge {
                        new: false,
                        ..row[i]
                    })
                    .collect(),
            );
        }
        self.rows = kept_rows;
        for (v, cands) in pending.into_iter().enumerate() {
            if !cands.is_empty() {
                round.added += apply_inserts(&mut self.rows[v], cands, v as PointId, self.params.r);
            }
        }
        self.stats.dist_evals += round.pairs;
        self.stats.rounds.push(round.clone());
        round
    }

    /// Add every reverse edge (`v -> w` spawns `w -> v` flagged new; the
    /// distance is already known, so this costs no evaluations), clamping
    /// rows to `r`. Returns how many edges were inserted.
    pub fn add_reverse_edges(&mut self) -> u64 {
        let n = self.rows.len();
        let mut pending: Vec<Vec<(PointId, f32)>> = vec![Vec::new(); n];
        for (v, row) in self.rows.iter().enumerate() {
            for e in row {
                pending[e.id as usize].push((v as PointId, e.dist));
            }
        }
        let mut added = 0;
        for (v, cands) in pending.into_iter().enumerate() {
            if !cands.is_empty() {
                added += apply_inserts(&mut self.rows[v], cands, v as PointId, self.params.r);
            }
        }
        self.stats.reverse_added.push(added);
        added
    }

    /// Cap every row at `k0`, repair connectivity, and emit the final
    /// graph plus the stats.
    pub fn finish(mut self) -> (KnnGraph, RnnStats) {
        let k0 = self.params.k0;
        let mut rows: Vec<Vec<Edge>> = self
            .rows
            .drain(..)
            .map(|row| row.iter().take(k0).map(|e| (e.id, e.dist)).collect())
            .collect();
        self.stats.repaired = repair_connectivity(&mut rows, k0);
        (KnnGraph::from_rows(rows), self.stats)
    }
}

/// Reconnect zero-in-degree vertices after the final `k0` cap.
///
/// Occlusion pruning plus the cap can leave a vertex with no in-edges at
/// all, which makes it unreachable by graph search at *any* beam width.
/// For each such orphan `w` (ascending id), the reverse of `w`'s closest
/// out-edge is inserted into that neighbor's row (the distance is already
/// known, so this costs no evaluations). If the insert pushes the row past
/// `k0`, the worst evictable edge is dropped — an edge is evictable only
/// when removing it cannot orphan *its* target (in-degree stays >= 1); if
/// none is, the row keeps the extra edge.
///
/// This is a pure function of the capped rows, so the shared-memory and
/// distributed passes stay bit-identical by running it on the same
/// assembled data. Returns the number of orphans reconnected.
pub fn repair_connectivity(rows: &mut [Vec<Edge>], k0: usize) -> u64 {
    let mut indeg = vec![0u32; rows.len()];
    for row in rows.iter() {
        for &(u, _) in row.iter() {
            indeg[u as usize] += 1;
        }
    }
    let mut repaired = 0;
    for w in 0..rows.len() {
        if indeg[w] > 0 {
            continue;
        }
        // Rows are in canonical (dist, id) order: entry 0 is the closest
        // out-neighbor. A row can only be empty if the vertex was isolated
        // in the input graph; nothing to repair onto then.
        let Some(&(u, d)) = rows[w].first() else {
            continue;
        };
        let row = &mut rows[u as usize];
        row.push((w as PointId, d));
        sort_edges(row);
        indeg[w] += 1;
        repaired += 1;
        if row.len() > k0 {
            // Evict the worst edge whose target keeps an in-edge elsewhere
            // (the just-added edge never qualifies: its target has
            // in-degree exactly 1).
            if let Some(i) = (0..row.len()).rev().find(|&i| indeg[row[i].0 as usize] > 1) {
                indeg[row[i].0 as usize] -= 1;
                row.remove(i);
            }
        }
    }
    repaired
}

/// The full shared-memory RNN-Descent optimization: a seed reverse-edge
/// merge (so the raw directed k-NNG can be passed as-is), then `t1` outer
/// rounds of (up to `t2` inner rounds, early-exiting once converged, then
/// — except after the last outer round — a reverse-edge add), finished
/// with the `k0` cap.
pub fn rnn_optimize<P: Point, M: BatchMetric<P>>(
    graph: &KnnGraph,
    base: &PointSet<P>,
    metric: &M,
    params: RnnParams,
) -> (KnnGraph, RnnStats) {
    assert_eq!(graph.len(), base.len(), "graph and base set disagree on N");
    params
        .validate()
        .unwrap_or_else(|e| panic!("invalid RnnParams: {e}"));
    let cache = metric.preprocess(base);
    let mut st = RnnState::from_graph(graph, params);
    st.add_reverse_edges();
    for outer in 0..params.t1 {
        for inner in 0..params.t2 {
            let round = st.inner_round(base, metric, &cache, outer as u64, inner as u64);
            if round.pairs == 0 {
                break;
            }
        }
        if outer + 1 < params.t1 {
            st.add_reverse_edges();
        }
    }
    st.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nndescent::{build, NnDescentParams};
    use dataset::metric::{SquaredL2, L2};
    use dataset::synth::{gaussian_mixture, MixtureParams};

    fn edge(id: PointId, dist: f32, new: bool) -> RnnEdge {
        RnnEdge { id, dist, new }
    }

    #[test]
    fn collinear_edge_redirected() {
        // 0 -- 1 -- 2 on a line: 0's edge to 2 (d=2) is occluded by 1
        // (d(1,2)=1 < 2) and must be redirected into 1's row.
        let row = vec![edge(1, 1.0, true), edge(2, 2.0, true)];
        let out = scan_row(&row, |_, _| 1.0);
        assert_eq!(out.kept, vec![0]);
        assert_eq!(out.inserts, vec![(1, 2, 1.0)]);
    }

    #[test]
    fn tie_breaks_by_id_both_ways() {
        // theta(u, w) equals w.dist exactly: the edge survives iff
        // u.id >= w.id under the lexicographic (dist, id) rule.
        let survives = scan_row(&[edge(7, 1.0, true), edge(3, 2.0, true)], |_, _| 2.0);
        assert_eq!(survives.kept, vec![0, 1], "occluder id 7 > target id 3");
        let pruned = scan_row(&[edge(2, 1.0, true), edge(3, 2.0, true)], |_, _| 2.0);
        assert_eq!(pruned.kept, vec![0], "occluder id 2 < target id 3");
        assert_eq!(pruned.inserts, vec![(2, 3, 2.0)]);
    }

    #[test]
    fn old_old_pairs_never_checked_or_occluded() {
        let row = vec![edge(1, 1.0, false), edge(2, 2.0, false)];
        let out = scan_row(&row, |_, _| panic!("old-old pair must not be evaluated"));
        assert_eq!(out.kept, vec![0, 1]);
        assert!(flagged_pairs(&row).is_empty());
    }

    #[test]
    fn flagged_pairs_counts_mixed_flags() {
        let row = vec![edge(1, 1.0, false), edge(2, 2.0, true), edge(3, 3.0, false)];
        // (0,1) and (1,2) flagged via the new middle edge; (0,2) both old.
        assert_eq!(flagged_pairs(&row), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn apply_inserts_dedups_skips_self_and_clamps() {
        let mut row = vec![edge(1, 1.0, false)];
        let added = apply_inserts(
            &mut row,
            vec![(2, 2.0), (1, 1.0), (5, 0.5), (9, 9.0), (2, 2.0)],
            9,
            3,
        );
        // id 1 duplicate, id 9 self-loop, second id 2 duplicate: 2 added
        // (5 and 2), then the clamp keeps the closest 3.
        assert_eq!(added, 2);
        assert_eq!(
            row,
            vec![edge(5, 0.5, true), edge(1, 1.0, false), edge(2, 2.0, true)]
        );
    }

    #[test]
    fn insert_order_is_irrelevant() {
        let cands = vec![(4u32, 4.0f32), (2, 2.0), (8, 0.25)];
        let mut a = vec![edge(1, 1.0, false)];
        let mut b = a.clone();
        apply_inserts(&mut a, cands.clone(), 0, 3);
        let mut rev = cands;
        rev.reverse();
        apply_inserts(&mut b, rev, 0, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn converges_and_caps_degree() {
        let base = gaussian_mixture(MixtureParams::embedding_like(300, 8), 5);
        let (g, _) = build(&base, &L2, NnDescentParams::new(8).seed(1));
        let params = RnnParams::new(10).t1(2).t2(6);
        let (opt, stats) = rnn_optimize(&g, &base, &L2, params);
        assert!(opt.max_degree() <= 10);
        assert!(stats.dist_evals > 0);
        // Seed merge + one outer-round boundary.
        assert_eq!(stats.reverse_added.len(), 2);
        // Every executed round's pairs are mirrored in dist_evals.
        let total: u64 = stats.rounds.iter().map(|r| r.pairs).sum();
        assert_eq!(total, stats.dist_evals);
        // No self loops or duplicates in the result.
        for v in 0..opt.len() as PointId {
            let ids: Vec<PointId> = opt.neighbors(v).iter().map(|&(id, _)| id).collect();
            assert!(!ids.contains(&v), "self loop at {v}");
            let mut d = ids.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), ids.len(), "duplicate edge at {v}");
        }
    }

    #[test]
    fn rerun_is_bit_identical() {
        let base = gaussian_mixture(MixtureParams::embedding_like(250, 6), 9);
        let (g, _) = build(&base, &SquaredL2, NnDescentParams::new(6).seed(2));
        let p = RnnParams::new(8);
        let (a, sa) = rnn_optimize(&g, &base, &SquaredL2, p);
        let (b, sb) = rnn_optimize(&g, &base, &SquaredL2, p);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn sparser_than_reverse_prune_at_same_start() {
        let base = gaussian_mixture(MixtureParams::embedding_like(400, 8), 11);
        let k = 8;
        let (g, _) = build(&base, &L2, NnDescentParams::new(k).seed(3));
        let rp = g.optimize(k, 1.5);
        let (rnn, _) = rnn_optimize(&g, &base, &L2, RnnParams::new(10));
        assert!(
            rnn.edge_count() < rp.edge_count(),
            "rnn {} >= reverse-prune {}",
            rnn.edge_count(),
            rp.edge_count()
        );
    }

    #[test]
    fn validate_states_the_domain_at_its_edges() {
        // (field, value, accepted) against `RnnParams::new(4)`.
        let rows = [
            ("k0", 0, false),
            ("k0", 1, true),
            ("t1", 0, false),
            ("t1", 1, true),
            ("t2", 0, false),
            ("t2", 1, true),
            ("r", 3, false),
            ("r", 4, true),
        ];
        for (field, v, accepted) in rows {
            let mut direct = RnnParams::new(4);
            match field {
                "k0" => direct.k0 = v,
                "t1" => direct.t1 = v,
                "t2" => direct.t2 = v,
                _ => direct.r = v,
            }
            let verdict = direct.validate();
            assert_eq!(verdict.is_ok(), accepted, "{field} = {v}: {verdict:?}");
            let built = testutil::panic_message(move || match field {
                "k0" => RnnParams::new(v),
                "t1" => RnnParams::new(4).t1(v),
                "t2" => RnnParams::new(4).t2(v),
                _ => RnnParams::new(4).r(v),
            });
            let want = verdict.err().map(|e| format!("RnnParams: {e}"));
            assert_eq!(built, want, "{field} = {v}");
        }
    }

    #[test]
    #[should_panic(expected = "require r >= k0")]
    fn r_below_k0_rejected() {
        let _ = RnnParams::new(16).r(8);
    }

    #[test]
    fn repair_reconnects_orphans() {
        // Vertex 2 has out-edges but no in-edges: the reverse of its
        // closest out-edge (2 -> 0, d=1) must be added to row 0.
        let mut rows: Vec<Vec<Edge>> =
            vec![vec![(1, 1.0)], vec![(0, 1.0)], vec![(0, 1.0), (1, 2.0)]];
        let repaired = repair_connectivity(&mut rows, 4);
        assert_eq!(repaired, 1);
        assert_eq!(rows[0], vec![(1, 1.0), (2, 1.0)]);
        let mut indeg = [0; 3];
        rows.iter()
            .flatten()
            .for_each(|&(u, _)| indeg[u as usize] += 1);
        assert!(indeg.iter().all(|&d| d > 0));
    }

    #[test]
    fn repair_eviction_never_orphans() {
        // Row 0 is full at k0=2; inserting the repair edge for orphan 3
        // must evict the worst edge whose target stays reachable (vertex 2
        // also has an in-edge from row 1, so (2, 3.0) goes; vertex 1 and
        // the fresh edge to 3 stay).
        let mut rows: Vec<Vec<Edge>> = vec![
            vec![(1, 1.0), (2, 3.0)],
            vec![(0, 1.0), (2, 2.0)],
            vec![(0, 3.0)],
            vec![(0, 2.5)],
        ];
        let repaired = repair_connectivity(&mut rows, 2);
        assert_eq!(repaired, 1);
        assert_eq!(rows[0], vec![(1, 1.0), (3, 2.5)]);
        let mut indeg = vec![0; 4];
        rows.iter()
            .flatten()
            .for_each(|&(u, _)| indeg[u as usize] += 1);
        assert!(indeg.iter().all(|&d| d > 0), "indeg {indeg:?}");
    }

    #[test]
    fn finish_leaves_no_orphans() {
        let base = gaussian_mixture(MixtureParams::embedding_like(500, 8), 17);
        let (g, _) = build(&base, &L2, NnDescentParams::new(8).seed(6));
        let (opt, stats) = rnn_optimize(&g, &base, &L2, RnnParams::new(8));
        let mut indeg = vec![0u32; opt.len()];
        for v in 0..opt.len() as PointId {
            for &(u, _) in opt.neighbors(v) {
                indeg[u as usize] += 1;
            }
        }
        assert!(indeg.iter().all(|&d| d > 0), "orphan vertex survived");
        // The counter mirrors what actually happened (may be zero).
        assert!(stats.repaired <= opt.len() as u64);
    }
}
