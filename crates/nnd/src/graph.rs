//! The k-nearest-neighbor graph `G` — NN-Descent's output — plus the two
//! PyNNDescent graph optimizations the paper implements (Section 4.5),
//! reverse-edge merging and neighborhood-size pruning, applied together by
//! [`KnnGraph::optimize`].

use crate::heap::NeighborTable;
use dataset::order::sort_edges;
use dataset::set::PointId;
use metall::{Result as StoreResult, Store, StoreError};

/// One directed neighbor edge `(target id, distance)`.
pub type Edge = (PointId, f32);

/// The paper's prune factor `m` (Section 4.5): [`KnnGraph::optimize`]
/// clamps every merged row to `ceil(k * m)` entries, and the evaluation
/// uses `m = 1.5` throughout.
pub const PRUNE_M: f64 = 1.5;

/// The Section 4.5 prune limit `ceil(k * m)`, stated once; the paper requires `m >= 1`.
pub fn prune_limit(k: usize, m: f64) -> Result<usize, String> {
    if m.is_nan() || m < 1.0 {
        return Err(format!("m must be at least 1 (got {m})"));
    }
    let limit = (k as f64 * m).ceil() as usize;
    if limit < 1 {
        return Err(format!("the prune limit must be >= 1 (got k = {k})"));
    }
    Ok(limit)
}

/// The dedup and prune of [`KnnGraph::optimize`] on row `v`, which holds
/// its forward edges and the reverses of the edges to it, in any order:
/// ascending by `(distance, id)`, an id's closest copy comes first, so keep
/// first occurrences, up to `limit`. `keeper[id] == v` marks an id the row
/// has kept; on return exactly the kept ids carry the mark.
#[inline]
pub(crate) fn prune_merged(v: PointId, row: &mut Vec<Edge>, limit: usize, keeper: &mut [PointId]) {
    sort_edges(row);
    let mut kept = 0;
    for i in 0..row.len() {
        if kept == limit {
            break;
        }
        let id = row[i].0 as usize;
        if std::mem::replace(&mut keeper[id], v) != v {
            row[kept] = row[i];
            kept += 1;
        }
    }
    row.truncate(kept);
}

/// An adjacency-list k-NN graph. Row `v` holds `v`'s approximate nearest
/// neighbors sorted ascending by `(distance, id)`. After construction every
/// row has exactly `k` entries; after [`KnnGraph::optimize`] a row may hold
/// up to `ceil(k * m)`, and after [`crate::remove_points`] a removed
/// vertex's row is empty.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnGraph {
    pub(crate) rows: Vec<Vec<Edge>>,
}

impl KnnGraph {
    /// Build from raw adjacency rows; each row is sorted by `(dist, id)`.
    pub fn from_rows(mut rows: Vec<Vec<Edge>>) -> Self {
        for row in &mut rows {
            sort_edges(row);
        }
        KnnGraph { rows }
    }

    /// Build from a builder's neighbor table, one row per vertex.
    pub fn from_table(table: &NeighborTable) -> Self {
        KnnGraph {
            rows: (0..table.n_rows()).map(|v| table.sorted_edges(v)).collect(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Neighbor row of vertex `v` (ascending by distance).
    pub fn neighbors(&self, v: PointId) -> &[Edge] {
        &self.rows[v as usize]
    }

    /// Neighbor ids only, per row, for recall scoring.
    pub fn neighbor_ids(&self) -> Vec<Vec<PointId>> {
        self.rows
            .iter()
            .map(|r| r.iter().map(|&(id, _)| id).collect())
            .collect()
    }

    /// Total directed edges.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        self.rows.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Memory the id+distance payload occupies (the paper's `k x N x T`
    /// accounting uses ids only; distances double it in this layout).
    pub fn storage_bytes(&self) -> usize {
        self.edge_count() * (4 + 4)
    }

    /// Both Section 4.5 optimizations, as the paper's optimization
    /// executable applies them. (1) Merge the transposed graph into this one
    /// and deduplicate, producing a more densely connected graph for ANN
    /// search. Under a symmetric metric forward and reverse copies of an
    /// edge carry equal distances; if they ever differ (asymmetric
    /// similarity functions are legal in NN-Descent) the smaller distance is
    /// kept. (2) Clamp every row to its [`prune_limit`]`(k, m)` closest
    /// entries (the paper uses `m = `[`PRUNE_M`]). One pass does both: rows
    /// are sized by in-degree up front, sorted once and cut in place.
    pub fn optimize(&self, k: usize, m: f64) -> KnnGraph {
        let limit = prune_limit(k, m).unwrap_or_else(|e| panic!("KnnGraph::optimize: {e}"));
        let mut degree: Vec<usize> = self.rows.iter().map(Vec::len).collect();
        for &(u, _) in self.rows.iter().flatten() {
            degree[u as usize] += 1;
        }
        let mut rows: Vec<Vec<Edge>> = (self.rows.iter().zip(degree))
            .map(|(row, degree)| {
                let mut merged = Vec::with_capacity(degree);
                merged.extend_from_slice(row);
                merged
            })
            .collect();
        for (v, edges) in self.rows.iter().enumerate() {
            for &(u, d) in edges {
                rows[u as usize].push((v as PointId, d));
            }
        }
        // Rows are visited once each, so `keeper` needs no reset between them.
        let mut keeper = vec![PointId::MAX; rows.len()];
        for (v, row) in rows.iter_mut().enumerate() {
            prune_merged(v as PointId, row, limit, &mut keeper);
        }
        KnnGraph { rows }
    }

    /// Persist into `store` under `prefix` (CSR-style: offsets, ids, dists).
    pub fn save(&self, store: &mut Store, prefix: &str) -> StoreResult<()> {
        let mut offsets: Vec<u64> = Vec::with_capacity(self.len() + 1);
        let mut ids: Vec<u32> = Vec::with_capacity(self.edge_count());
        let mut dists: Vec<f32> = Vec::with_capacity(self.edge_count());
        offsets.push(0);
        for row in &self.rows {
            for &(id, d) in row {
                ids.push(id);
                dists.push(d);
            }
            offsets.push(ids.len() as u64);
        }
        store.put(&format!("{prefix}/offsets"), &offsets)?;
        store.put(&format!("{prefix}/ids"), &ids)?;
        store.put(&format!("{prefix}/dists"), &dists)
    }

    /// Load a graph persisted by [`KnnGraph::save`], checking what every
    /// consumer indexes by, which a checksum does not: offsets that delimit
    /// the stored edges, edge ids below the vertex count, no NaN distance.
    pub fn load(store: &Store, prefix: &str) -> StoreResult<Self> {
        let offsets: Vec<u64> = store.get(&format!("{prefix}/offsets"))?;
        let ids: Vec<u32> = store.get(&format!("{prefix}/ids"))?;
        let dists: Vec<f32> = store.get(&format!("{prefix}/dists"))?;
        let n = offsets.len().saturating_sub(1);
        if ids.len() != dists.len()
            || offsets.first() != Some(&0)
            || offsets.last().copied() != Some(ids.len() as u64)
        {
            return Err(StoreError::Decode("inconsistent knng arrays".into()));
        }
        let rows = (offsets.windows(2).enumerate())
            .map(|(v, w)| {
                if w[0] > w[1] || w[1] > ids.len() as u64 {
                    return Err(StoreError::Decode("non-monotone knng offsets".into()));
                }
                let (a, b) = (w[0] as usize, w[1] as usize);
                let row: Vec<Edge> = (ids[a..b].iter().copied())
                    .zip(dists[a..b].iter().copied())
                    .collect();
                match row.iter().find(|(u, d)| *u as usize >= n || d.is_nan()) {
                    Some((u, d)) => Err(StoreError::Decode(format!(
                        "knng row {v} holds the edge ({u}, {d}) in a graph of {n} vertices"
                    ))),
                    None => Ok(row),
                }
            })
            .collect::<StoreResult<_>>()?;
        Ok(KnnGraph { rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_limit_states_m_and_the_limit_at_their_edges() {
        assert_eq!(prune_limit(10, 1.0), Ok(10));
        assert_eq!(prune_limit(10, PRUNE_M), Ok(15));
        assert_eq!(prune_limit(3, 1.5), Ok(5));
        for m in [1.0 - f64::EPSILON, 0.0, f64::NAN] {
            assert_eq!(
                prune_limit(10, m),
                Err(format!("m must be at least 1 (got {m})"))
            );
        }
        assert!(prune_limit(0, 1.5).unwrap_err().contains("got k = 0"));
        let built = testutil::panic_message(|| diamond().optimize(2, 0.5));
        assert_eq!(
            built.as_deref(),
            Some("KnnGraph::optimize: m must be at least 1 (got 0.5)")
        );
    }

    fn diamond() -> KnnGraph {
        // 0 -> {1, 2}, 1 -> {0}, 2 -> {3}, 3 -> {}
        KnnGraph::from_rows(vec![
            vec![(1, 1.0), (2, 2.0)],
            vec![(0, 1.0)],
            vec![(3, 0.5)],
            vec![],
        ])
    }

    #[test]
    fn rows_sorted_on_construction() {
        let g = KnnGraph::from_rows(vec![vec![(2, 3.0), (1, 1.0), (9, 1.0)]]);
        assert_eq!(g.neighbors(0), &[(1, 1.0), (9, 1.0), (2, 3.0)]);
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.storage_bytes(), 4 * 8);
    }

    #[test]
    fn merge_adds_missing_back_edges_and_dedups() {
        // A limit of 4 = the vertex count: no merged row reaches it.
        let g = diamond().optimize(4, 1.0);
        // 0 <-> 1 existed both ways: stays single after dedup.
        assert_eq!(g.neighbors(0), &[(1, 1.0), (2, 2.0)]);
        assert_eq!(g.neighbors(1), &[(0, 1.0)]);
        // 3 gains the reverse edge to 2.
        assert_eq!(g.neighbors(3), &[(2, 0.5)]);
        // 2 keeps 3 and gains 0.
        assert_eq!(g.neighbors(2), &[(3, 0.5), (0, 2.0)]);
    }

    #[test]
    fn optimize_bounds_degree_by_k_m() {
        // Star: many vertices point at 0, so 0's merged degree explodes and
        // must be pruned back to ceil(k * m).
        let n = 20;
        let mut rows = vec![vec![(0u32, 1.0f32)]; n];
        rows[0] = vec![(1, 1.0)];
        let g = KnnGraph::from_rows(rows);
        let k = 2;
        let opt = g.optimize(k, 1.5);
        assert!(opt.max_degree() <= 3);
        // And every vertex keeps at least its original edge.
        for v in 1..n as u32 {
            assert!(!opt.neighbors(v).is_empty());
        }
    }

    #[test]
    fn neighbor_ids_strips_distances() {
        let ids = diamond().neighbor_ids();
        assert_eq!(ids[0], vec![1, 2]);
        assert!(ids[3].is_empty());
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "nnd-graph-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::create(&dir).unwrap();
        let g = diamond();
        g.save(&mut store, "knng").unwrap();
        let back = KnnGraph::load(&store, "knng").unwrap();
        assert_eq!(back, g);
        Store::destroy(&dir).unwrap();
    }

    #[test]
    fn load_rejects_arrays_that_are_not_a_graph() {
        let dir = testutil::TmpDir::new("nnd-graph-load");
        let mut store = Store::create(dir.join("store")).unwrap();
        let mut put = |offsets: &[u64], ids: &[u32], dists: &[f32]| {
            store.put("g/offsets", &offsets.to_vec()).unwrap();
            store.put("g/ids", &ids.to_vec()).unwrap();
            store.put("g/dists", &dists.to_vec()).unwrap();
            KnnGraph::load(&store, "g").map_err(|e| e.to_string())
        };
        let two = KnnGraph::from_rows(vec![vec![(1, 0.5)], vec![(0, 0.5)]]);
        assert_eq!(put(&[0, 1, 2], &[1, 0], &[0.5, 0.5]), Ok(two));
        // An id past the last vertex: `optimize` and `refine()` index by it.
        let err = put(&[0, 1, 2], &[1, 7], &[0.5, 0.5]).unwrap_err();
        assert!(err.contains("row 1 holds the edge (7, 0.5)"), "{err}");
        assert!(err.contains("2 vertices"), "{err}");
        let err = put(&[0, 1, 2], &[1, 0], &[f32::NAN, 0.5]).unwrap_err();
        assert!(err.contains("row 0 holds the edge (1, NaN)"), "{err}");
        // An offset past the stored edges, before the window that shows
        // the sequence is not monotone.
        let err = put(&[0, 9, 2], &[1, 0], &[0.5, 0.5]).unwrap_err();
        assert!(err.contains("non-monotone"), "{err}");
    }

    #[test]
    fn from_table_sorts_rows() {
        let mut t = NeighborTable::new(2, 3);
        t.insert(0, 5, 2.0, true);
        t.insert(0, 1, 1.0, true);
        let g = KnnGraph::from_table(&t);
        assert_eq!(g.neighbors(0), &[(1, 1.0), (5, 2.0)]);
        assert!(g.neighbors(1).is_empty());
    }
}
