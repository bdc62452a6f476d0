//! The HNSW index: hierarchical navigable small-world graph following
//! Malkov & Yashunin (TPAMI 2018), the algorithm behind Hnswlib.
//!
//! Differences from a k-NNG that matter for the paper's comparison
//! (Section 5.3.2): HNSW's layered structure is *not* a general-purpose
//! k-NNG — each node keeps up to `M` (layer > 0) or `2M` (layer 0)
//! links chosen by the select-neighbors heuristic, and extracting a
//! portable k-NNG requires extra processing. Construction quality is
//! governed by `ef_construction`, search quality by `ef`.

use dataset::marks::VisitMarks;
use dataset::metric::Metric;
use dataset::order::{sort_edges, DistKey};
use dataset::par;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Construction parameters (Table 2 of the paper sweeps `M` and `efc`).
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Max links per node on layers above 0; layer 0 allows `2 * m`.
    pub m: usize,
    /// Beam width during construction (`ef_construction`).
    pub ef_construction: usize,
    /// RNG seed for level sampling.
    pub seed: u64,
}

impl HnswParams {
    /// Defaults in the range Hnswlib ships.
    pub fn new(m: usize, ef_construction: usize) -> Self {
        assert!(m >= 2 && ef_construction >= 1);
        HnswParams {
            m,
            ef_construction,
            seed: 0x45A7,
        }
    }

    /// Set the level-sampling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-node adjacency: one neighbor list per layer the node exists on.
#[derive(Debug, Clone)]
struct NodeLinks {
    /// `layers[l]` = neighbor ids on layer `l`; `layers.len() - 1` is the
    /// node's top layer.
    layers: Vec<Vec<PointId>>,
}

/// An HNSW index over a borrowed [`PointSet`].
pub struct HnswIndex<'a, P, M> {
    base: &'a PointSet<P>,
    metric: M,
    params: HnswParams,
    nodes: Vec<NodeLinks>,
    entry: PointId,
    max_layer: usize,
    /// Distance evaluations spent during construction.
    pub build_distance_evals: u64,
}

impl<'a, P: Point, M: Metric<P>> HnswIndex<'a, P, M> {
    /// Build an index over every point in `base`, inserting in id order.
    pub fn build(base: &'a PointSet<P>, metric: M, params: HnswParams) -> Self {
        assert!(!base.is_empty(), "cannot index an empty set");
        let ml = 1.0 / (params.m as f64).ln();
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        let mut scratch = LayerScratch::new(base.len());
        let mut index = HnswIndex {
            base,
            metric,
            params,
            nodes: Vec::with_capacity(base.len()),
            entry: 0,
            max_layer: 0,
            build_distance_evals: 0,
        };
        for id in 0..base.len() as PointId {
            let level = (-rng.gen::<f64>().ln() * ml).floor() as usize;
            index.insert(id, level, &mut scratch);
        }
        index
    }

    /// The layer traversal over the current links, charging construction's
    /// distance-eval counter.
    fn build_walk(&mut self) -> LayerWalk<'_, P, M> {
        LayerWalk {
            nodes: &self.nodes,
            base: self.base,
            metric: &self.metric,
            evals: &mut self.build_distance_evals,
        }
    }

    /// Algorithm 4 of the HNSW paper: the select-neighbors *heuristic*. A
    /// candidate is kept only if it is closer to the query than to every
    /// already-kept neighbor — this spreads links across directions, which
    /// is what gives HNSW graphs their navigability.
    fn select_neighbors(&mut self, candidates: &[(f32, PointId)], m: usize) -> Vec<PointId> {
        let mut kept: Vec<(f32, PointId)> = Vec::with_capacity(m);
        for &(d, c) in candidates {
            if kept.len() >= m {
                break;
            }
            let point_c = self.base.point(c).clone();
            let dominated = kept.iter().any(|&(_, s)| {
                self.build_distance_evals += 1;
                self.metric.distance(&point_c, self.base.point(s)) < d
            });
            if !dominated {
                kept.push((d, c));
            }
        }
        // Hnswlib pads with the nearest remaining candidates if the
        // heuristic kept fewer than m (keepPrunedConnections=true).
        if kept.len() < m {
            for &(d, c) in candidates {
                if kept.len() >= m {
                    break;
                }
                if !kept.iter().any(|&(_, s)| s == c) {
                    kept.push((d, c));
                }
            }
        }
        kept.into_iter().map(|(_, id)| id).collect()
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            2 * self.params.m
        } else {
            self.params.m
        }
    }

    fn insert(&mut self, id: PointId, level: usize, scratch: &mut LayerScratch) {
        let node = NodeLinks {
            layers: vec![Vec::new(); level + 1],
        };
        self.nodes.push(node);
        debug_assert_eq!(self.nodes.len() - 1, id as usize);
        if id == 0 {
            self.entry = 0;
            self.max_layer = level;
            return;
        }
        let base = self.base;
        let q = base.point(id);
        let mut cur = self.entry;
        // Descend greedily through layers above the insertion level.
        for layer in ((level + 1)..=self.max_layer).rev() {
            cur = self.build_walk().greedy_closest(q, cur, layer);
        }
        // Connect on each layer from min(level, max_layer) down to 0.
        let mut entries = vec![cur];
        for layer in (0..=level.min(self.max_layer)).rev() {
            let efc = self.params.ef_construction;
            let found = self
                .build_walk()
                .search_layer(scratch, q, &entries, efc, layer);
            let m = self.params.m;
            let selected = self.select_neighbors(&found, m);
            for &u in &selected {
                self.nodes[id as usize].layers[layer].push(u);
                self.nodes[u as usize].layers[layer].push(id);
                // Shrink the neighbor's list if it overflowed.
                let cap = self.max_links(layer);
                if self.nodes[u as usize].layers[layer].len() > cap {
                    let mut walk = self.build_walk();
                    let mut scored: Vec<(f32, PointId)> = walk.nodes[u as usize].layers[layer]
                        .iter()
                        .map(|&w| (walk.dist(w, base.point(u)), w))
                        .collect();
                    scored.sort_unstable_by_key(|&(d, w)| DistKey::new(d, w));
                    let shrunk = self.select_neighbors(&scored, cap);
                    self.nodes[u as usize].layers[layer] = shrunk;
                }
            }
            entries = found.into_iter().map(|(_, id)| id).collect();
        }
        if level > self.max_layer {
            self.max_layer = level;
            self.entry = id;
        }
    }

    /// k-ANN query with beam width `ef` (clamped up to `k`). Returns up to
    /// `k` `(id, dist)` pairs ascending.
    pub fn search(&self, q: &P, k: usize, ef: usize) -> Vec<(PointId, f32)> {
        self.search_with(&mut LayerScratch::new(self.nodes.len()), q, k, ef)
    }

    /// [`HnswIndex::search`] reusing `scratch`'s visited marks and heap.
    fn search_with(
        &self,
        scratch: &mut LayerScratch,
        q: &P,
        k: usize,
        ef: usize,
    ) -> Vec<(PointId, f32)> {
        // Queries charge a local counter, never the build counter.
        let mut evals = 0;
        let mut me = LayerWalk {
            nodes: &self.nodes,
            base: self.base,
            metric: &self.metric,
            evals: &mut evals,
        };
        let ef = ef.max(k);
        let mut cur = self.entry;
        for layer in (1..=self.max_layer).rev() {
            cur = me.greedy_closest(q, cur, layer);
        }
        let found = me.search_layer(scratch, q, &[cur], ef, 0);
        found.into_iter().take(k).map(|(d, id)| (id, d)).collect()
    }

    /// Parallel batch query: [`HnswIndex::search`] per query,
    /// [`par::QUERY_CHUNK`] queries at a time per worker, each worker with
    /// one [`LayerScratch`] for all its queries; returns per-query
    /// id lists (equal to the one-at-a-time searches', whatever the number
    /// of workers) and throughput.
    pub fn search_batch(
        &self,
        queries: &PointSet<P>,
        k: usize,
        ef: usize,
    ) -> (Vec<Vec<PointId>>, f64) {
        let start = std::time::Instant::now();
        let ids = par::map_indexed(
            queries.len(),
            par::QUERY_CHUNK,
            || LayerScratch::new(self.nodes.len()),
            |scratch, qi| {
                let found = self.search_with(scratch, queries.point(qi as PointId), k, ef);
                found.into_iter().map(|(id, _)| id).collect()
            },
        );
        let secs = start.elapsed().as_secs_f64();
        (ids, queries.len() as f64 / secs.max(1e-12))
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Highest populated layer.
    pub fn max_layer(&self) -> usize {
        self.max_layer
    }

    /// Total links on a layer (for structural tests).
    pub fn layer_links(&self, layer: usize) -> usize {
        self.nodes
            .iter()
            .map(|n| n.layers.get(layer).map_or(0, Vec::len))
            .sum()
    }

    /// The current entry point node id.
    pub fn entry_point(&self) -> PointId {
        self.entry
    }

    /// The construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// Extract the layer-0 adjacency as rows of `(id, dist)` — the "extra
    /// processing" the paper mentions is needed to get a portable k-NNG out
    /// of Hnswlib.
    pub fn layer0_graph(&self) -> Vec<Vec<(PointId, f32)>> {
        (0..self.nodes.len() as PointId)
            .map(|v| {
                let mut row: Vec<(PointId, f32)> = self.nodes[v as usize].layers[0]
                    .iter()
                    .map(|&u| {
                        (
                            u,
                            self.metric.distance(self.base.point(v), self.base.point(u)),
                        )
                    })
                    .collect();
                sort_edges(&mut row);
                row
            })
            .collect()
    }
}

/// Reusable state of [`LayerWalk::search_layer`]: the visited marks and
/// the candidate heap. The build keeps one for every insert and each
/// [`HnswIndex::search_batch`] worker one for all its queries, so a layer
/// search allocates no per-node array.
struct LayerScratch {
    marks: VisitMarks,
    candidates: BinaryHeap<Reverse<DistKey>>,
}

impl LayerScratch {
    /// Scratch for an index of up to `n` nodes.
    fn new(n: usize) -> Self {
        LayerScratch {
            marks: VisitMarks::new(n),
            candidates: BinaryHeap::new(),
        }
    }

    /// Start a layer search: every node unvisited, no candidate.
    fn reset(&mut self) {
        self.marks.reset();
        self.candidates.clear();
    }
}

/// The traversal routines of one layer — shared by `insert` and `search`
/// — over borrowed links, charging every distance to `evals`: the index's
/// `build_distance_evals` during construction, a local counter in queries
/// (which is what lets `search` take `&self`).
struct LayerWalk<'w, P, M> {
    nodes: &'w [NodeLinks],
    base: &'w PointSet<P>,
    metric: &'w M,
    evals: &'w mut u64,
}

impl<P: Point, M: Metric<P>> LayerWalk<'_, P, M> {
    #[inline]
    fn dist(&mut self, a: PointId, q: &P) -> f32 {
        *self.evals += 1;
        self.metric.distance(self.base.point(a), q)
    }

    /// Greedy single-entry descent on one layer (used above the insertion
    /// layer and during query descent).
    fn greedy_closest(&mut self, q: &P, mut cur: PointId, layer: usize) -> PointId {
        let mut cur_d = self.dist(cur, q);
        loop {
            let mut improved = false;
            for &u in &self.nodes[cur as usize].layers[layer] {
                let d = self.dist(u, q);
                if d < cur_d {
                    cur = u;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Beam search on one layer: returns up to `ef` closest `(dist, id)`
    /// pairs, ascending.
    fn search_layer(
        &mut self,
        scratch: &mut LayerScratch,
        q: &P,
        entries: &[PointId],
        ef: usize,
        layer: usize,
    ) -> Vec<(f32, PointId)> {
        scratch.reset();
        let mut result: BinaryHeap<DistKey> = BinaryHeap::new(); // max-heap
        let worst =
            |result: &BinaryHeap<DistKey>| result.peek().map_or(f32::INFINITY, |w| w.dist());
        for &e in entries {
            if !scratch.marks.visit(e) {
                continue;
            }
            let d = self.dist(e, q);
            result.push(DistKey::new(d, e));
            scratch.candidates.push(Reverse(DistKey::new(d, e)));
        }
        while result.len() > ef {
            result.pop();
        }
        while let Some(Reverse(next)) = scratch.candidates.pop() {
            if next.dist() > worst(&result) && result.len() >= ef {
                break;
            }
            for &u in &self.nodes[next.id() as usize].layers[layer] {
                if !scratch.marks.visit(u) {
                    continue;
                }
                let du = self.dist(u, q);
                if result.len() < ef || du < worst(&result) {
                    result.push(DistKey::new(du, u));
                    if result.len() > ef {
                        result.pop();
                    }
                    scratch.candidates.push(Reverse(DistKey::new(du, u)));
                }
            }
        }
        let ascending = result.into_sorted_vec();
        ascending.iter().map(|key| (key.dist(), key.id())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::ground_truth::brute_force_queries;
    use dataset::metric::L2;
    use dataset::recall::mean_recall;
    use dataset::synth::{gaussian_mixture, split_queries, uniform, MixtureParams};

    #[test]
    fn builds_over_all_points() {
        let set = uniform(200, 4, 1);
        let idx = HnswIndex::build(&set, L2, HnswParams::new(8, 50));
        assert_eq!(idx.len(), 200);
        assert!(idx.layer_links(0) > 0);
    }

    #[test]
    fn member_query_finds_itself() {
        let set = uniform(300, 4, 2);
        let idx = HnswIndex::build(&set, L2, HnswParams::new(8, 64));
        for probe in [0u32, 57, 299] {
            let r = idx.search(set.point(probe), 1, 32);
            assert_eq!(r[0].0, probe, "probe {probe}");
            assert_eq!(r[0].1, 0.0);
        }
    }

    #[test]
    fn search_results_sorted_and_unique() {
        let set = uniform(400, 6, 3);
        let idx = HnswIndex::build(&set, L2, HnswParams::new(8, 64));
        let r = idx.search(set.point(9), 10, 50);
        assert_eq!(r.len(), 10);
        assert!(r.windows(2).all(|w| w[0].1 <= w[1].1));
        let mut ids: Vec<PointId> = r.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn layer0_degree_bounded_by_2m() {
        let set = uniform(500, 4, 4);
        let m = 6;
        let idx = HnswIndex::build(&set, L2, HnswParams::new(m, 40));
        for v in 0..idx.len() as PointId {
            assert!(idx.nodes[v as usize].layers[0].len() <= 2 * m);
            for (layer, links) in idx.nodes[v as usize].layers.iter().enumerate().skip(1) {
                assert!(links.len() <= m, "layer {layer} overflow");
            }
        }
    }

    #[test]
    fn upper_layers_are_sparser() {
        let set = uniform(2000, 4, 5);
        let idx = HnswIndex::build(&set, L2, HnswParams::new(8, 40));
        if idx.max_layer() >= 1 {
            assert!(idx.layer_links(1) < idx.layer_links(0));
        }
    }

    #[test]
    fn recall_improves_with_ef() {
        let set = gaussian_mixture(MixtureParams::embedding_like(1500, 12), 6);
        let (base, queries) = split_queries(set, 50);
        let idx = HnswIndex::build(&base, L2, HnswParams::new(12, 100));
        let truth = brute_force_queries(&base, &queries, &L2, 10);
        let (lo_ids, _) = idx.search_batch(&queries, 10, 10);
        let (hi_ids, _) = idx.search_batch(&queries, 10, 200);
        let lo = mean_recall(&lo_ids, &truth);
        let hi = mean_recall(&hi_ids, &truth);
        assert!(hi >= lo, "ef=200 ({hi}) must beat ef=10 ({lo})");
        assert!(hi > 0.9, "hnsw recall at ef=200 was {hi}");
    }

    #[test]
    fn efc_improves_graph_quality() {
        let set = gaussian_mixture(MixtureParams::embedding_like(1200, 12), 7);
        let (base, queries) = split_queries(set, 40);
        let truth = brute_force_queries(&base, &queries, &L2, 10);
        let cheap = HnswIndex::build(&base, L2, HnswParams::new(8, 10));
        let good = HnswIndex::build(&base, L2, HnswParams::new(8, 150));
        let (c_ids, _) = cheap.search_batch(&queries, 10, 60);
        let (g_ids, _) = good.search_batch(&queries, 10, 60);
        let rc = mean_recall(&c_ids, &truth);
        let rg = mean_recall(&g_ids, &truth);
        assert!(rg >= rc - 0.02, "efc=150 ({rg}) vs efc=10 ({rc})");
        // Higher efc must cost more construction work.
        assert!(good.build_distance_evals > cheap.build_distance_evals);
    }

    #[test]
    fn layer0_graph_extraction_is_sorted_symmetless() {
        let set = uniform(100, 3, 8);
        let idx = HnswIndex::build(&set, L2, HnswParams::new(4, 20));
        let g = idx.layer0_graph();
        assert_eq!(g.len(), 100);
        for row in &g {
            assert!(row.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn single_point_index() {
        let set = PointSet::new(vec![vec![1.0f32, 2.0]]);
        let idx = HnswIndex::build(&set, L2, HnswParams::new(4, 10));
        let r = idx.search(&vec![0.0f32, 0.0], 1, 10);
        assert_eq!(r[0].0, 0);
    }

    #[test]
    fn deterministic_in_seed() {
        let set = uniform(300, 4, 9);
        let a = HnswIndex::build(&set, L2, HnswParams::new(6, 30).seed(1));
        let b = HnswIndex::build(&set, L2, HnswParams::new(6, 30).seed(1));
        let qa = a.search(set.point(5), 5, 30);
        let qb = b.search(set.point(5), 5, 30);
        assert_eq!(qa, qb);
    }
}
