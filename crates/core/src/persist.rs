//! Sharded persistence of a distributed k-NNG.
//!
//! The real DNND leaves the graph *partitioned*: each MPI rank owns a
//! Metall datastore holding its vertices' neighbor lists, and the
//! graph-optimization executable reopens those per-rank stores (Section
//! 5.1.3). This module reproduces that layout: one `metall::Store` per
//! rank under a common directory, each holding only the rows that rank's
//! partitioner owns, plus a manifest shard recording `(n, n_ranks, k)` so
//! loaders can validate the set of shards.

use crate::partition::Partitioner;
use dataset::set::PointId;
use metall::{Result as StoreResult, Store, StoreError};
use nnd::graph::{decode_rows, Edge, KnnGraph};
use std::path::Path;

const META_KEY: &str = "shard-meta"; // [n, n_ranks, rank]

fn shard_dir(base: &Path, rank: usize) -> std::path::PathBuf {
    base.join(format!("rank-{rank}"))
}

/// Persist `graph` as `n_ranks` per-rank stores under `base`, using the
/// same hash partitioner DNND builds with. Overwrites existing shards.
pub fn save_sharded(graph: &KnnGraph, base: impl AsRef<Path>, n_ranks: usize) -> StoreResult<()> {
    assert!(n_ranks >= 1);
    let base = base.as_ref();
    let part = Partitioner::new(n_ranks);
    for rank in 0..n_ranks {
        let dir = shard_dir(base, rank);
        Store::destroy(&dir)?;
        let mut store = Store::create(&dir)?;
        store.put(
            META_KEY,
            &vec![graph.len() as u64, n_ranks as u64, rank as u64],
        )?;
        // CSR over this rank's owned vertices only.
        let owned = part.owned_ids(graph.len(), rank);
        let mut verts: Vec<u32> = Vec::with_capacity(owned.len());
        let mut offsets: Vec<u64> = Vec::with_capacity(owned.len() + 1);
        let mut ids: Vec<u32> = Vec::new();
        let mut dists: Vec<f32> = Vec::new();
        offsets.push(0);
        for v in owned {
            verts.push(v);
            for &(u, d) in graph.neighbors(v) {
                ids.push(u);
                dists.push(d);
            }
            offsets.push(ids.len() as u64);
        }
        store.put("verts", &verts)?;
        store.put("offsets", &offsets)?;
        store.put("ids", &ids)?;
        store.put("dists", &dists)?;
    }
    Ok(())
}

/// Load a graph persisted by [`save_sharded`], validating that every shard
/// is present and consistent: each shard's rows are checked as
/// [`decode_rows`] documents, each vertex is below the header's vertex
/// count and stored once, by its owner — and nothing is sized by the header
/// before the shards bear it out.
pub fn load_sharded(base: impl AsRef<Path>) -> StoreResult<KnnGraph> {
    let base = base.as_ref();
    // Shard 0's meta tells us how many shards to expect.
    let first = Store::open(shard_dir(base, 0))?;
    let meta: Vec<u64> = first.get(META_KEY)?;
    let [n, n_ranks, _] = meta[..] else {
        return Err(StoreError::Decode("bad shard meta".into()));
    };
    if n_ranks == 0 {
        return Err(StoreError::Decode("shard meta names no ranks".into()));
    }
    let part = Partitioner::new(n_ranks as usize);

    let mut stored: Vec<(PointId, Vec<Edge>)> = Vec::new();
    for rank in 0..n_ranks as usize {
        let store = Store::open(shard_dir(base, rank))?;
        let meta: Vec<u64> = store.get(META_KEY)?;
        if meta != vec![n, n_ranks, rank as u64] {
            return Err(StoreError::Corrupt(format!("shard {rank} meta mismatch")));
        }
        let verts: Vec<u32> = store.get("verts")?;
        let offsets: Vec<u64> = store.get("offsets")?;
        let ids: Vec<u32> = store.get("ids")?;
        let dists: Vec<f32> = store.get("dists")?;
        if offsets.len() != verts.len() + 1 {
            return Err(StoreError::Decode(format!(
                "shard {rank} arrays inconsistent"
            )));
        }
        let what = format!("shard {rank}");
        let rows = decode_rows(&what, &offsets, &ids, &dists, n as usize)?;
        for (v, row) in verts.into_iter().zip(rows) {
            if u64::from(v) >= n {
                return Err(StoreError::Decode(format!(
                    "shard {rank} stores vertex {v} of a graph of {n} vertices"
                )));
            }
            if part.owner(v) != rank {
                return Err(StoreError::Corrupt(format!(
                    "vertex {v} stored in shard {rank} but owned by {}",
                    part.owner(v)
                )));
            }
            stored.push((v, row));
        }
    }
    // `n` distinct vertices below `n` are each vertex once: sorted, the
    // rows are the graph's.
    if stored.len() as u64 != n {
        return Err(StoreError::Corrupt(format!(
            "the shards store {} vertices of a graph of {n}",
            stored.len()
        )));
    }
    stored.sort_unstable_by_key(|&(v, _)| v);
    if let Some(w) = stored.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(StoreError::Decode(format!(
            "vertex {} is stored twice",
            w[0].0
        )));
    }
    Ok(KnnGraph::from_rows(
        stored.into_iter().map(|(_, row)| row).collect(),
    ))
}

/// Remove every shard of a sharded graph. No-op for missing shards.
pub fn destroy_sharded(base: impl AsRef<Path>, n_ranks: usize) -> StoreResult<()> {
    for rank in 0..n_ranks {
        Store::destroy(shard_dir(base.as_ref(), rank))?;
    }
    Ok(())
}

/// Ids a shard on disk claims to own (for inspection/tests).
pub fn shard_vertices(base: impl AsRef<Path>, rank: usize) -> StoreResult<Vec<PointId>> {
    let store = Store::open(shard_dir(base.as_ref(), rank))?;
    store.get("verts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dnnd-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_graph(n: usize) -> KnnGraph {
        KnnGraph::from_rows(
            (0..n)
                .map(|v| vec![(((v + 1) % n) as u32, 1.0), (((v + 2) % n) as u32, 2.0)])
                .collect(),
        )
    }

    #[test]
    fn sharded_round_trip() {
        let dir = tmpdir("rt");
        let g = sample_graph(50);
        save_sharded(&g, &dir, 4).unwrap();
        let back = load_sharded(&dir).unwrap();
        assert_eq!(back, g);
        destroy_sharded(&dir, 4).unwrap();
    }

    #[test]
    fn single_shard_round_trip() {
        let dir = tmpdir("one");
        let g = sample_graph(10);
        save_sharded(&g, &dir, 1).unwrap();
        assert_eq!(load_sharded(&dir).unwrap(), g);
        destroy_sharded(&dir, 1).unwrap();
    }

    #[test]
    fn shards_hold_only_owned_vertices() {
        let dir = tmpdir("owned");
        let g = sample_graph(40);
        save_sharded(&g, &dir, 3).unwrap();
        let part = Partitioner::new(3);
        let mut seen = Vec::new();
        for rank in 0..3 {
            for v in shard_vertices(&dir, rank).unwrap() {
                assert_eq!(part.owner(v), rank);
                seen.push(v);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<u32>>());
        destroy_sharded(&dir, 3).unwrap();
    }

    #[test]
    fn missing_shard_is_detected() {
        let dir = tmpdir("missing");
        let g = sample_graph(30);
        save_sharded(&g, &dir, 3).unwrap();
        Store::destroy(dir.join("rank-2")).unwrap();
        assert!(load_sharded(&dir).is_err());
        destroy_sharded(&dir, 3).unwrap();
    }

    #[test]
    fn tampered_shard_is_detected() {
        let dir = tmpdir("tamper");
        let g = sample_graph(30);
        save_sharded(&g, &dir, 2).unwrap();
        // Replace shard 1's meta with a wrong rank count.
        let mut store = Store::open(dir.join("rank-1")).unwrap();
        store.put(META_KEY, &vec![30u64, 5, 1]).unwrap();
        assert!(load_sharded(&dir).is_err());
        destroy_sharded(&dir, 2).unwrap();
    }

    /// The objects of one shard.
    #[derive(Clone)]
    struct Shard {
        meta: Vec<u64>,
        verts: Vec<u32>,
        offsets: Vec<u64>,
        ids: Vec<u32>,
        dists: Vec<f32>,
    }

    /// What one table row does to the good objects.
    type Damage = fn(&mut Shard);

    /// One row per defect of a one-shard graph of three vertices: each is a
    /// typed error naming it, never a panic and never an allocation sized by
    /// a damaged header.
    #[test]
    fn load_rejects_shards_that_are_not_a_graph() {
        let dir = tmpdir("damaged");
        let mut store = Store::create(dir.join("rank-0")).unwrap();
        let mut load = |s: &Shard| {
            store.put(META_KEY, &s.meta).unwrap();
            store.put("verts", &s.verts).unwrap();
            store.put("offsets", &s.offsets).unwrap();
            store.put("ids", &s.ids).unwrap();
            store.put("dists", &s.dists).unwrap();
            load_sharded(&dir).map_err(|e| e.to_string())
        };
        let good = Shard {
            meta: vec![3, 1, 0],
            verts: vec![0, 1, 2],
            offsets: vec![0, 1, 2, 3],
            ids: vec![1, 2, 0],
            dists: vec![0.5; 3],
        };
        assert_eq!(load(&good).unwrap().neighbors(2), &[(0, 0.5)]);
        let rows: [(&str, Damage); 9] = [
            ("no ranks", |s| s.meta[1] = 0),
            ("non-monotone shard 0 offsets", |s| s.offsets[1] = 9),
            ("inconsistent shard 0 arrays", |s| s.offsets[0] = 1),
            ("shard 0 arrays inconsistent", |s| s.offsets = vec![0, 3]),
            ("holds the edge (7, 0.5)", |s| s.ids[2] = 7),
            ("holds the edge (1, NaN)", |s| s.dists[0] = f32::NAN),
            ("stores vertex 5", |s| s.verts[2] = 5),
            ("vertex 1 is stored twice", |s| s.verts[2] = 1),
            ("store 3 vertices of a graph of", |s| s.meta[0] = u64::MAX),
        ];
        for (defect, damage) in rows {
            let mut shard = good.clone();
            damage(&mut shard);
            let err = load(&shard).unwrap_err();
            assert!(err.contains(defect), "{defect}: {err}");
        }
        destroy_sharded(&dir, 1).unwrap();
    }

    #[test]
    fn overwrite_replaces_previous_shards() {
        let dir = tmpdir("overwrite");
        save_sharded(&sample_graph(20), &dir, 2).unwrap();
        let g2 = sample_graph(24);
        save_sharded(&g2, &dir, 2).unwrap();
        assert_eq!(load_sharded(&dir).unwrap(), g2);
        destroy_sharded(&dir, 2).unwrap();
    }
}
