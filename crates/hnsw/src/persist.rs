//! HNSW index persistence into a [`metall::Store`] — the counterpart of
//! Hnswlib's `saveIndex`/`loadIndex`, so the Table 2 survey's expensive
//! builds can be constructed once and re-queried.
//!
//! Layout under a prefix: `meta` = `[n, max_layer, entry, m, efc]`, plus
//! per-layer CSR arrays (`layer<l>/offsets`, `layer<l>/ids`) over all
//! nodes (nodes absent from a layer have empty rows).

use crate::index::{HnswIndex, HnswParams};
use dataset::metric::Metric;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use metall::{Result as StoreResult, Store, StoreError};

/// Snapshot of an index's structure, detached from its borrowed base set.
#[derive(Debug, Clone, PartialEq)]
pub struct HnswSnapshot {
    /// Number of nodes.
    pub n: usize,
    /// Highest populated layer.
    pub max_layer: usize,
    /// Entry point node.
    pub entry: PointId,
    /// Construction `m`.
    pub m: usize,
    /// Construction `ef_construction`.
    pub ef_construction: usize,
    /// Top layer of each node (a node exists on layers `0..=levels[node]`
    /// even where its link list is empty).
    pub levels: Vec<u32>,
    /// `layers[l][node]` = neighbor ids of `node` on layer `l`.
    pub layers: Vec<Vec<Vec<PointId>>>,
}

impl HnswSnapshot {
    /// Persist under `prefix`.
    pub fn save(&self, store: &mut Store, prefix: &str) -> StoreResult<()> {
        store.put(
            &format!("{prefix}/meta"),
            &vec![
                self.n as u64,
                self.max_layer as u64,
                u64::from(self.entry),
                self.m as u64,
                self.ef_construction as u64,
            ],
        )?;
        store.put(&format!("{prefix}/levels"), &self.levels)?;
        for (l, layer) in self.layers.iter().enumerate() {
            let mut offsets: Vec<u64> = Vec::with_capacity(self.n + 1);
            let mut ids: Vec<u32> = Vec::new();
            offsets.push(0);
            for row in layer {
                ids.extend_from_slice(row);
                offsets.push(ids.len() as u64);
            }
            store.put(&format!("{prefix}/layer{l}/offsets"), &offsets)?;
            store.put(&format!("{prefix}/layer{l}/ids"), &ids)?;
        }
        Ok(())
    }

    /// Load a snapshot persisted by [`HnswSnapshot::save`], checking what
    /// [`HnswIndex::from_snapshot`] and a search index by, which a checksum
    /// does not: construction parameters it accepts, every node's top layer
    /// at most `max_layer`, an entry point on the top layer, and per layer
    /// offsets that delimit the stored links and links to nodes on that
    /// layer.
    pub fn load(store: &Store, prefix: &str) -> StoreResult<Self> {
        let meta: Vec<u64> = store.get(&format!("{prefix}/meta"))?;
        let [n, max_layer, entry, m, efc] = meta[..] else {
            return Err(StoreError::Decode("bad hnsw meta".into()));
        };
        if m < 2 || efc < 1 {
            return Err(StoreError::Decode(format!(
                "bad hnsw meta: m {m}, ef {efc}"
            )));
        }
        let levels: Vec<u32> = store.get(&format!("{prefix}/levels"))?;
        if levels.len() as u64 != n {
            return Err(StoreError::Decode("levels length mismatch".into()));
        }
        if let Some(node) = levels.iter().position(|&l| u64::from(l) > max_layer) {
            return Err(StoreError::Decode(format!(
                "node {node} is on layer {} above the top layer {max_layer}",
                levels[node]
            )));
        }
        let on_top = |e: usize| levels.get(e).is_some_and(|&l| u64::from(l) == max_layer);
        if !usize::try_from(entry).is_ok_and(on_top) {
            return Err(StoreError::Decode(format!(
                "entry point {entry} is not a node of the top layer {max_layer}"
            )));
        }
        let mut layers = Vec::new();
        for l in 0..=max_layer as usize {
            let offsets: Vec<u64> = store.get(&format!("{prefix}/layer{l}/offsets"))?;
            let ids: Vec<u32> = store.get(&format!("{prefix}/layer{l}/ids"))?;
            layers.push(decode_layer(l, &offsets, &ids, &levels)?);
        }
        Ok(HnswSnapshot {
            n: levels.len(),
            max_layer: max_layer as usize,
            entry: entry as PointId,
            m: m as usize,
            ef_construction: efc as usize,
            levels,
            layers,
        })
    }
}

/// Layer `l`'s link lists, one per node: `offsets` must delimit `ids` in
/// order, and every link must name a node that is on layer `l`.
fn decode_layer(
    l: usize,
    offsets: &[u64],
    ids: &[u32],
    levels: &[u32],
) -> StoreResult<Vec<Vec<PointId>>> {
    let bad = |what: String| StoreError::Decode(format!("layer {l} {what}"));
    let end = ids.len() as u64;
    if offsets.len() != levels.len() + 1 || offsets[0] != 0 || offsets.last() != Some(&end) {
        return Err(bad("arrays inconsistent".into()));
    }
    let on_layer = |u: &&PointId| {
        levels
            .get(**u as usize)
            .is_some_and(|&top| top as usize >= l)
    };
    (offsets.windows(2).enumerate())
        .map(|(node, w)| {
            if w[0] > w[1] || w[1] > end {
                return Err(bad("offsets are not monotone".into()));
            }
            let row = &ids[w[0] as usize..w[1] as usize];
            match row.iter().find(|u| !on_layer(u)) {
                Some(u) => Err(bad(format!(
                    "links node {node} to {u}, not a node of the layer"
                ))),
                None => Ok(row.to_vec()),
            }
        })
        .collect()
}

impl<'a, P: Point, M: Metric<P>> HnswIndex<'a, P, M> {
    /// Capture the index structure for persistence.
    pub fn snapshot(&self) -> HnswSnapshot {
        let mut layers: Vec<Vec<Vec<PointId>>> =
            vec![vec![Vec::new(); self.len()]; self.max_layer() + 1];
        for node in 0..self.len() as PointId {
            for (l, links) in self.node_layers(node).iter().enumerate() {
                layers[l][node as usize] = links.clone();
            }
        }
        HnswSnapshot {
            n: self.len(),
            max_layer: self.max_layer(),
            entry: self.entry_point(),
            m: self.params().m,
            ef_construction: self.params().ef_construction,
            levels: (0..self.len() as PointId)
                .map(|node| (self.node_layers(node).len() - 1) as u32)
                .collect(),
            layers,
        }
    }

    /// Reattach a snapshot to its base set, producing a queryable index.
    /// The base set must be the one the snapshot was built over.
    pub fn from_snapshot(base: &'a PointSet<P>, metric: M, snap: &HnswSnapshot) -> Self {
        assert_eq!(base.len(), snap.n, "snapshot and base set disagree on N");
        HnswIndex::restore(
            base,
            metric,
            HnswParams::new(snap.m, snap.ef_construction),
            snap.entry,
            snap.max_layer,
            (0..snap.n as PointId)
                .map(|node| {
                    let top = snap.levels[node as usize] as usize;
                    (0..=top)
                        .map(|l| snap.layers[l][node as usize].clone())
                        .collect()
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::metric::L2;
    use dataset::synth::uniform;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hnsw-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn snapshot_save_load_round_trip() {
        let dir = tmpdir("rt");
        let base = uniform(300, 6, 1);
        let idx = HnswIndex::build(&base, L2, HnswParams::new(8, 40).seed(2));
        let snap = idx.snapshot();
        let mut store = Store::create(&dir).unwrap();
        snap.save(&mut store, "hnsw").unwrap();
        let back = HnswSnapshot::load(&store, "hnsw").unwrap();
        assert_eq!(back, snap);
        Store::destroy(&dir).unwrap();
    }

    #[test]
    fn restored_index_answers_identically() {
        let dir = tmpdir("same");
        let base = uniform(400, 5, 3);
        let idx = HnswIndex::build(&base, L2, HnswParams::new(6, 30).seed(4));
        let mut store = Store::create(&dir).unwrap();
        idx.snapshot().save(&mut store, "h").unwrap();
        drop(store);

        let store = Store::open(&dir).unwrap();
        let snap = HnswSnapshot::load(&store, "h").unwrap();
        let restored = HnswIndex::from_snapshot(&base, L2, &snap);
        for probe in [0u32, 123, 399] {
            let a = idx.search(base.point(probe), 5, 40);
            let b = restored.search(base.point(probe), 5, 40);
            assert_eq!(a, b, "probe {probe} diverged after restore");
        }
        Store::destroy(&dir).unwrap();
    }

    /// The objects of one snapshot: `meta`, `levels` and per layer
    /// `(offsets, ids)`.
    #[derive(Clone)]
    struct Blobs {
        meta: Vec<u64>,
        levels: Vec<u32>,
        layers: Vec<(Vec<u64>, Vec<u32>)>,
    }

    /// What one table row does to the good objects.
    type Damage = fn(&mut Blobs);

    /// One row per defect: each damaged blob is a decode error naming it,
    /// never a panic here or in `from_snapshot` / a search later.
    #[test]
    fn load_rejects_arrays_that_are_not_an_index() {
        let dir = tmpdir("damaged");
        let mut store = Store::create(&dir).unwrap();
        let mut load = |b: &Blobs| {
            store.put("h/meta", &b.meta).unwrap();
            store.put("h/levels", &b.levels).unwrap();
            for (l, (offsets, ids)) in b.layers.iter().enumerate() {
                store.put(&format!("h/layer{l}/offsets"), offsets).unwrap();
                store.put(&format!("h/layer{l}/ids"), ids).unwrap();
            }
            HnswSnapshot::load(&store, "h").map_err(|e| e.to_string())
        };
        // Three nodes; node 0 is the entry and alone on layer 1.
        let good = Blobs {
            meta: vec![3, 1, 0, 4, 20],
            levels: vec![1, 0, 0],
            layers: vec![
                (vec![0, 2, 3, 4], vec![1, 2, 0, 0]),
                (vec![0, 0, 0, 0], vec![]),
            ],
        };
        let snap = load(&good).unwrap();
        assert_eq!((snap.n, snap.entry), (3, 0));
        assert_eq!(snap.layers[0][0], vec![1, 2]);
        let rows: [(&str, Damage); 10] = [
            ("m 1", |b| b.meta[3] = 1),
            ("levels length", |b| b.meta[0] = 4),
            ("above the top layer", |b| b.levels[1] = 2),
            ("entry point 9", |b| b.meta[2] = 9),
            ("entry point 1", |b| b.meta[2] = 1),
            ("entry point 0", |b| b.meta[1] = u64::MAX),
            ("layer 0 arrays inconsistent", |b| b.layers[0].0[0] = 1),
            ("layer 0 offsets are not monotone", |b| b.layers[0].0[1] = 9),
            ("links node 1 to 7", |b| b.layers[0].1[2] = 7),
            ("layer 1 links node 0 to 1", |b| {
                b.layers[1] = (vec![0, 1, 1, 1], vec![1])
            }),
        ];
        for (defect, damage) in rows {
            let mut blobs = good.clone();
            damage(&mut blobs);
            let err = load(&blobs).unwrap_err();
            assert!(err.contains(defect), "{defect}: {err}");
        }
        Store::destroy(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "snapshot and base set disagree")]
    fn wrong_base_rejected() {
        let base = uniform(50, 3, 5);
        let idx = HnswIndex::build(&base, L2, HnswParams::new(4, 20));
        let snap = idx.snapshot();
        let other = uniform(40, 3, 6);
        let _ = HnswIndex::from_snapshot(&other, L2, &snap);
    }
}
