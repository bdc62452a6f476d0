//! Namespaced collections persisted through [`metall::Store`].
//!
//! Store layout for a namespace `NS` (all names under the `ns/` prefix so
//! collections co-exist with the pipeline's `meta/`, `dataset/`, `knng/`
//! keys in one store):
//!
//! ```text
//! ns/NS/info/k            u64     graph degree target
//! ns/NS/info/metric       String  metric name ("l2", "sql2", "cosine", "l1")
//! ns/NS/info/epoch        u64     graph epoch (bumped by ingest/compact)
//! ns/NS/points/{meta,data}        the point vectors (PointSet::save)
//! ns/NS/knn/{offsets,ids,dists}   the k-NN rows (KnnGraph::save)
//! ns/NS/meta              bytes       every point's MetaRecord, in id order
//! ns/NS/tombstones        Vec<u32>    deleted, not yet compacted
//! ns/NS/dead              Vec<u32>    deleted and compacted out
//! ```
//!
//! A namespace is these eleven objects whatever its size: `meta` holds
//! each record's `Persist` bytes prefixed by their `u32` LE length, so a
//! save rewrites eleven blobs, not one per point. [`Collection::open`]
//! checks what it reads: `meta` parses to exactly one record per point,
//! and the tombstone and dead lists are strictly increasing, below the
//! point count and disjoint, and the k-NN rows are rows a k-NN graph can
//! hold. A store written with one `meta/{id}` object per point has no
//! `meta` object and does not open; one that stored the served graph
//! (`graph/*`) instead of the k-NN rows is refused by name; stores are
//! regenerated, not migrated.
//!
//! ## The served graph is derived
//!
//! The collection keeps its k-NN rows ([`nnd::KnnRows`]: every entry
//! flagged old between mutations) and serves `graph`, the Section 4.5
//! merge-and-prune of them (`KnnGraph::optimize` at [`nnd::PRUNE_M`]). Only
//! the rows are stored; [`Collection::create`] and [`Collection::open`]
//! derive the served graph in one full pass. A mutation refines the rows
//! in place, and a served row depends only on its vertex's k-NN row and on
//! the rows that name the vertex, so [`nnd::KnnRows::rederive`] redoes just
//! the served rows where either moved: `graph` always equals a full
//! `optimize` of the rows, bit for bit, at the cost of what changed.
//!
//! ## Id stability and the delete path
//!
//! Point ids are **stable for the life of the namespace**: a delete marks
//! the id as a tombstone (masked out of every search immediately) and a
//! later [`Collection::compact`] rewires the k-NN rows *around* the dead
//! vertex with [`nnd::remove_points`], which renumbers nothing, so no
//! cached result, metadata record or in-flight query goes stale.
//! Compacted-dead ids keep their vectors as inert rows (never returned,
//! never navigated through — their rows are empty, which is how
//! `nnd::refine` knows to link nothing to them) and the namespace only ever
//! grows at the tail, which is exactly the contract `nnd::refine` needs for
//! the online ingest path.
//!
//! ## Determinism
//!
//! Every mutating operation is a pure function of `(collection state,
//! arguments)` — graph build and refinement use the seeded NN-Descent
//! passes, compaction repairs rows in `(distance, id)` order — so a replay
//! of the same mutation sequence reproduces the same store bytes and the
//! same search results, which is what lets the serving layer schedule
//! compaction as a PRF of the serve seed and still assert cross-rank
//! fingerprints.

use crate::meta::{self, MetaRecord};
use crate::predicate::Predicate;
use dataset::set::{check_finite, PointId, PointSet};
use dnnd::IdMask;
use metall::Store;
use nnd::{KnnGraph, KnnRows, NnDescentParams, PRUNE_M};

/// True iff `s` is a valid namespace name: `[A-Za-z0-9_-]{1,32}`.
pub fn valid_namespace(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 32
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

fn key(ns: &str, tail: &str) -> String {
    format!("ns/{ns}/{tail}")
}

/// A stored id list (`tombstones` or `dead`) must be strictly increasing
/// and below the point count `n`: every mask and liveness count relies on
/// it.
fn check_ids(ns: &str, list: &str, ids: &[PointId], n: usize) -> Result<(), String> {
    if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!(
            "namespace {ns:?}: {list} is not strictly increasing ({} then {})",
            w[0], w[1]
        ));
    }
    match ids.last() {
        Some(&id) if id as usize >= n => Err(format!(
            "namespace {ns:?}: {list} names id {id}, past the {n} points"
        )),
        _ => Ok(()),
    }
}

/// The element type of every collection, as `dataset::with_metric!` names it.
const ELEM: &str = "f32";

/// The `max_iters` of [`nnd::refine()`]: NN-Descent iterations an ingest
/// runs over the rows it linked, and a compaction over the rows it
/// shortened. An iteration joins the
/// neighborhoods of the entries flagged new — not the whole graph — so it
/// costs a few hundred distance evaluations whatever the collection's size.
const REFINE_ITERS: usize = 1;

/// Counters describing one namespace (the `stat` CLI verb and the
/// RunReport `vdb` section both read these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionStat {
    /// Namespace name.
    pub name: String,
    /// Total ids (live + tombstoned + compacted-dead).
    pub points: u64,
    /// Live (searchable) ids.
    pub live: u64,
    /// Deleted, awaiting compaction.
    pub tombstones: u64,
    /// Deleted and compacted out of the adjacency.
    pub dead: u64,
    /// Graph epoch (bumped by every ingest and compaction).
    pub epoch: u64,
    /// Vector dimension.
    pub dim: u64,
    /// Degree target.
    pub k: u64,
    /// Metric name.
    pub metric: String,
}

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Tombstones folded into the dead set.
    pub tombstones_cleared: u64,
    /// Live rows that lost at least one edge and were repaired.
    pub rows_repaired: u64,
    /// The epoch after the pass.
    pub epoch: u64,
}

/// An open namespaced collection: vectors + adjacency + per-point
/// metadata + the tombstone/dead sets, all round-tripping through one
/// [`metall::Store`].
#[derive(Debug, Clone)]
pub struct Collection {
    name: String,
    /// The point vectors (tail-append only; dead ids keep their rows).
    pub base: PointSet<Vec<f32>>,
    /// The served graph over `base`, derived from the k-NN rows (dead ids
    /// have empty rows post-compaction).
    pub graph: KnnGraph,
    /// Per-point metadata, indexed by id.
    pub meta: Vec<MetaRecord>,
    tombstones: Vec<PointId>,
    dead: Vec<PointId>,
    epoch: u64,
    metric: String,
    /// The k-NN rows `graph` is derived from.
    knn: KnnRows,
}

impl Collection {
    /// Build a new collection from `points` (+ one [`MetaRecord`] per
    /// point) and persist nothing yet — call [`Collection::save`]. The k-NN
    /// rows are a seeded NN-Descent build and the served graph their
    /// reverse-prune optimization, so creation is deterministic in
    /// `(points, k, seed)`.
    pub fn create(
        name: &str,
        points: PointSet<Vec<f32>>,
        meta: Vec<MetaRecord>,
        metric: &str,
        k: usize,
        seed: u64,
    ) -> Result<Collection, String> {
        if !valid_namespace(name) {
            return Err(format!(
                "invalid namespace {name:?}: want [A-Za-z0-9_-]{{1,32}}"
            ));
        }
        if meta.len() != points.len() {
            return Err(format!(
                "{} points but {} metadata records",
                points.len(),
                meta.len()
            ));
        }
        check_finite(points.points())?;
        nnd::check_k(k, points.len())?;
        let knn = dataset::with_metric!(ELEM, metric, P, m => {
            nnd::build(&points, &m, NnDescentParams::new(k).seed(seed)).0
        })?;
        Ok(Collection {
            name: name.to_string(),
            base: points,
            graph: knn.optimize(k, PRUNE_M),
            meta,
            tombstones: Vec::new(),
            dead: Vec::new(),
            epoch: 0,
            metric: metric.to_string(),
            knn: KnnRows::new(&knn, k)?,
        })
    }

    /// Open a collection previously [`Collection::save`]d into `store`.
    /// A missing or damaged object is `Err` naming the namespace, never a
    /// panic later (see the module docs for what is checked).
    pub fn open(store: &Store, name: &str) -> Result<Collection, String> {
        if !Collection::exists(store, name) {
            return Err(format!("no namespace {name:?} in store"));
        }
        let err = |e: metall::StoreError| format!("namespace {name:?}: {e}");
        let k: u64 = store.get(&key(name, "info/k")).map_err(err)?;
        let metric: String = store.get(&key(name, "info/metric")).map_err(err)?;
        // An unknown name is rejected here, so no later mutation can fail
        // on it half way.
        dataset::with_metric!(ELEM, metric.as_str(), P, _known => ())?;
        let epoch: u64 = store.get(&key(name, "info/epoch")).map_err(err)?;
        let base = PointSet::<Vec<f32>>::load(store, &key(name, "points")).map_err(err)?;
        if !store.contains(&key(name, "knn/offsets")) && store.contains(&key(name, "graph/offsets"))
        {
            return Err(format!(
                "namespace {name:?} stores its served graph, not its k-NN rows: \
                 it was written by an older version; regenerate it"
            ));
        }
        let knn = KnnGraph::load(store, &key(name, "knn")).map_err(err)?;
        let tombstones: Vec<u32> = store.get(&key(name, "tombstones")).map_err(err)?;
        let dead: Vec<u32> = store.get(&key(name, "dead")).map_err(err)?;
        let blob = store.get_bytes(&key(name, "meta")).map_err(err)?;
        let meta =
            meta::unpack(&blob, base.len()).map_err(|e| format!("namespace {name:?}: {e}"))?;
        if knn.len() != base.len() {
            return Err(format!(
                "namespace {name:?}: the k-NN rows cover {} ids, base has {}",
                knn.len(),
                base.len()
            ));
        }
        let knn = KnnRows::new(&knn, k as usize).map_err(|e| format!("namespace {name:?}: {e}"))?;
        check_ids(name, "tombstones", &tombstones, base.len())?;
        check_ids(name, "dead", &dead, base.len())?;
        if let Some(id) = tombstones.iter().find(|id| dead.binary_search(id).is_ok()) {
            return Err(format!(
                "namespace {name:?}: id {id} is both in tombstones and in dead"
            ));
        }
        if let Some(id) = dead
            .iter()
            .find(|&&id| !knn.table().row(id as usize).is_empty())
        {
            return Err(format!("namespace {name:?}: dead id {id} has a k-NN row"));
        }
        Ok(Collection {
            name: name.to_string(),
            base,
            graph: knn.to_graph().optimize(knn.k(), PRUNE_M),
            meta,
            tombstones,
            dead,
            epoch,
            metric,
            knn,
        })
    }

    /// Persist the full collection state into `store` (overwrites the
    /// namespace's previous generation). The k-NN rows are stored, not the
    /// served graph: [`Collection::open`] derives it.
    pub fn save(&self, store: &mut Store) -> Result<(), String> {
        let err = |e: metall::StoreError| format!("namespace {:?}: {e}", self.name);
        store
            .put(&key(&self.name, "info/k"), &(self.k() as u64))
            .map_err(err)?;
        store
            .put(&key(&self.name, "info/metric"), &self.metric)
            .map_err(err)?;
        store
            .put(&key(&self.name, "info/epoch"), &self.epoch)
            .map_err(err)?;
        self.base
            .save(store, &key(&self.name, "points"))
            .map_err(err)?;
        self.knn
            .to_graph()
            .save(store, &key(&self.name, "knn"))
            .map_err(err)?;
        store
            .put(&key(&self.name, "tombstones"), &self.tombstones)
            .map_err(err)?;
        store
            .put(&key(&self.name, "dead"), &self.dead)
            .map_err(err)?;
        store
            .put_bytes(&key(&self.name, "meta"), &meta::pack(&self.meta))
            .map_err(err)
    }

    /// Does `store` hold a namespace called `name`?
    pub fn exists(store: &Store, name: &str) -> bool {
        valid_namespace(name) && store.contains(&key(name, "info/k"))
    }

    /// All namespace names in `store`, sorted.
    pub fn list(store: &Store) -> Vec<String> {
        let mut out: Vec<String> = store
            .names()
            .into_iter()
            .filter_map(|n| {
                let rest = n.strip_prefix("ns/")?;
                let (ns, tail) = rest.split_once('/')?;
                (tail == "info/k").then(|| ns.to_string())
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Namespace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Degree target.
    pub fn k(&self) -> usize {
        self.knn.k()
    }

    /// Metric name.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// The k-NN rows `graph` is derived from: `graph` equals
    /// `knn().to_graph().optimize(k, nnd::PRUNE_M)`.
    pub fn knn(&self) -> &KnnRows {
        &self.knn
    }

    /// Graph epoch: bumped by every adjacency rewrite (ingest, compact).
    /// The serving layer folds this into its result-cache key, so a bump
    /// invalidates every cached result for the namespace at once.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pending (uncompacted) tombstones, sorted.
    pub fn tombstones(&self) -> &[PointId] {
        &self.tombstones
    }

    /// Compacted-dead ids, sorted.
    pub fn dead(&self) -> &[PointId] {
        &self.dead
    }

    /// Live (searchable) id count.
    pub fn n_live(&self) -> usize {
        self.base.len() - self.tombstones.len() - self.dead.len()
    }

    /// Pending-tombstone fraction of the id space — the quantity the
    /// serving loop compares against its compaction watermark.
    pub fn tombstone_ratio(&self) -> f64 {
        if self.base.is_empty() {
            0.0
        } else {
            self.tombstones.len() as f64 / self.base.len() as f64
        }
    }

    /// Is `id` live (present, not tombstoned, not dead)?
    pub fn is_live(&self, id: PointId) -> bool {
        (id as usize) < self.base.len()
            && self.tombstones.binary_search(&id).is_err()
            && self.dead.binary_search(&id).is_err()
    }

    /// Allow-list of live ids (tombstones and dead masked out).
    pub fn live_mask(&self) -> IdMask {
        let mut m = IdMask::all(self.base.len());
        for &t in &self.tombstones {
            m.deny(t);
        }
        for &d in &self.dead {
            m.deny(d);
        }
        m
    }

    /// Compile `pred` into the allow-list the filter-pushed search
    /// consumes: predicate over the metadata, intersected with the live
    /// set. `None` means unfiltered (live set only).
    pub fn compile_mask(&self, pred: Option<&Predicate>) -> IdMask {
        let live = self.live_mask();
        match pred {
            None => live,
            Some(p) => {
                let mut m = IdMask::from_fn(self.base.len(), |id| p.eval(&self.meta[id as usize]));
                m.intersect(&live);
                m
            }
        }
    }

    /// Append `points` (+ metadata) at the tail and refine the k-NN rows
    /// with [`nnd::refine()`]'s short NN-Descent pass — the
    /// `examples/incremental_updates.rs` path: each new point is located by
    /// a search of the served graph, linked both ways, and one NN-Descent
    /// iteration joins what that flagged; then the served rows that moved
    /// are derived again. Returns the id range the new points received.
    /// Bumps the epoch. Nothing is copied or changed when an argument is
    /// rejected.
    ///
    /// **Mutations never resurrect:** a compacted-dead id keeps its empty
    /// row, and no row — of an old point or a new one — gains an edge to it.
    pub fn ingest(
        &mut self,
        points: Vec<Vec<f32>>,
        meta: Vec<MetaRecord>,
    ) -> Result<std::ops::Range<PointId>, String> {
        if points.is_empty() {
            return Err("ingest of zero points".into());
        }
        if meta.len() != points.len() {
            return Err(format!(
                "{} points but {} metadata records",
                points.len(),
                meta.len()
            ));
        }
        if let Some(p) = points.iter().find(|p| p.len() != self.base.dim()) {
            return Err(format!(
                "dimension mismatch: collection is {}-d, point is {}-d",
                self.base.dim(),
                p.len()
            ));
        }
        check_finite(&points)?;
        let n_old = self.base.len();
        self.base.extend(points);
        self.refine(&[])?;
        self.meta.extend(meta);
        self.epoch += 1;
        Ok(n_old as PointId..self.base.len() as PointId)
    }

    /// [`nnd::refine()`] of the k-NN rows — the points past them are new,
    /// `shortened` rows flagged new — seeded by the epoch so a replay
    /// repeats it, then the served rows that moved derived again. Fails only
    /// on an unknown metric name, which `create` and `open` reject.
    fn refine(&mut self, shortened: &[PointId]) -> Result<(), String> {
        let params = NnDescentParams::new(self.k())
            .seed(self.epoch.wrapping_mul(0x9E37_79B9) | 1)
            .max_iters(REFINE_ITERS);
        let (knn, graph, base) = (&mut self.knn, &self.graph, &self.base);
        dataset::with_metric!(ELEM, self.metric.as_str(), P, m => {
            nnd::refine(knn, graph, base, &m, params, shortened);
        })?;
        self.knn.rederive(&mut self.graph);
        Ok(())
    }

    /// Tombstone `ids`: they disappear from every mask (and therefore
    /// every result) immediately; the adjacency is untouched until the
    /// next [`Collection::compact`]. Already-deleted ids are rejected.
    /// Does not bump the epoch — masking, not rewiring.
    pub fn delete(&mut self, ids: &[PointId]) -> Result<usize, String> {
        for &id in ids {
            if (id as usize) >= self.base.len() {
                return Err(format!("delete of unknown id {id}"));
            }
            if !self.is_live(id) {
                return Err(format!("delete of already-deleted id {id}"));
            }
        }
        let mut added = self.tombstones.clone();
        added.extend_from_slice(ids);
        added.sort_unstable();
        added.dedup();
        let n = added.len() - self.tombstones.len();
        self.tombstones = added;
        Ok(n)
    }

    /// Deterministic compaction: rewire the adjacency around every
    /// tombstoned vertex without renumbering ids, then fold the tombstones
    /// into the dead set and bump the epoch.
    ///
    /// 1. [`nnd::remove_points`] empties every tombstoned k-NN row, drops
    ///    its id from the rows that held it and tops a row left below `k`
    ///    back up from its old two-hop neighborhood in `(distance, id)`
    ///    order;
    /// 2. the paper's "deleted, followed by a short graph refinement
    ///    phase": [`nnd::refine()`] with the rows that lost an edge flagged
    ///    new, so one NN-Descent iteration joins their neighborhoods — the
    ///    local repair only looks two hops out;
    /// 3. the served rows whose k-NN row or holders moved are merged and
    ///    pruned again (`KnnGraph::optimize`'s rule), restoring the reverse
    ///    edges and the degree cap.
    ///
    /// **Mutations never resurrect:** afterwards every dead row is empty and
    /// no live row holds a dead id, and [`Collection::ingest`] keeps it so.
    pub fn compact(&mut self) -> Result<CompactReport, String> {
        // The dead are out of the rows already: only the tombstones go.
        let (knn, base, gone) = (&mut self.knn, &self.base, &self.tombstones);
        let shortened = dataset::with_metric!(ELEM, self.metric.as_str(), P, m => {
            nnd::remove_points(knn, base, &m, gone)
        })?;
        self.refine(&shortened)?;
        let cleared = self.tombstones.len() as u64;
        let mut dead = std::mem::take(&mut self.dead);
        dead.extend(std::mem::take(&mut self.tombstones));
        dead.sort_unstable();
        self.dead = dead;
        self.epoch += 1;
        Ok(CompactReport {
            tombstones_cleared: cleared,
            rows_repaired: shortened.len() as u64,
            epoch: self.epoch,
        })
    }

    /// Snapshot the counters for `stat`/reporting.
    pub fn stat(&self) -> CollectionStat {
        CollectionStat {
            name: self.name.clone(),
            points: self.base.len() as u64,
            live: self.n_live() as u64,
            tombstones: self.tombstones.len() as u64,
            dead: self.dead.len() as u64,
            epoch: self.epoch,
            dim: self.base.dim() as u64,
            k: self.k() as u64,
            metric: self.metric.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Value;
    use dataset::synth::{gaussian_mixture, MixtureParams};
    use dataset::{brute_force_queries, mean_recall, L2};
    use nnd::{search_batch, SearchParams};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let pid = std::process::id();
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("vdb-{tag}-{pid}-{t}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_meta(n: usize) -> Vec<MetaRecord> {
        (0..n)
            .map(|i| {
                let mut r = MetaRecord::new();
                r.set(
                    "tier",
                    Value::Str(if i % 3 == 0 { "gold" } else { "base" }.into()),
                )
                .unwrap();
                r.set("year", Value::Int(2000 + (i % 25) as i64)).unwrap();
                r
            })
            .collect()
    }

    fn sample_collection(n: usize) -> Collection {
        let pts = gaussian_mixture(MixtureParams::embedding_like(n, 8), 33);
        Collection::create("test", pts, sample_meta(n), "l2", 8, 7).unwrap()
    }

    /// "Mutations never resurrect": every dead row is empty and no other
    /// row holds a dead id.
    #[track_caller]
    fn assert_never_resurrected(col: &Collection) {
        for v in 0..col.graph.len() as PointId {
            let row = col.graph.neighbors(v);
            if col.dead().contains(&v) {
                assert!(row.is_empty(), "dead row {v} not empty: {row:?}");
            } else {
                let dead = row.iter().find(|(u, _)| col.dead().contains(u));
                assert_eq!(dead, None, "row {v} holds a dead id");
            }
        }
    }

    #[test]
    fn create_validates() {
        let pts = gaussian_mixture(MixtureParams::embedding_like(50, 4), 1);
        assert!(Collection::create("bad name", pts.clone(), sample_meta(50), "l2", 4, 1).is_err());
        assert!(Collection::create("ok", pts.clone(), sample_meta(49), "l2", 4, 1).is_err());
        assert!(Collection::create("ok", pts.clone(), sample_meta(50), "what", 4, 1).is_err());
        assert!(Collection::create("ok", pts, sample_meta(50), "l2", 99, 1).is_err());
    }

    #[test]
    fn a_coordinate_that_is_not_finite_is_refused() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut pts = gaussian_mixture(MixtureParams::embedding_like(50, 4), 1)
                .points()
                .to_vec();
            pts[5][2] = bad;
            let want = format!("point 5 coordinate 2 is not finite ({bad})");
            let made = Collection::create("ok", PointSet::new(pts), sample_meta(50), "l2", 4, 1);
            assert_eq!(made.unwrap_err(), want);

            let mut col = sample_collection(60);
            let before = (col.stat(), col.graph.neighbor_ids(), col.base.len());
            let batch = vec![vec![0.5; 8], vec![0.25, 0.5, 0.75, bad, 1.0, 1.0, 1.0, 1.0]];
            let got = col.ingest(batch, sample_meta(2));
            assert_eq!(
                got.unwrap_err(),
                format!("point 1 coordinate 3 is not finite ({bad})")
            );
            assert_eq!(
                (col.stat(), col.graph.neighbor_ids(), col.base.len()),
                before
            );
        }
    }

    #[test]
    fn save_open_round_trip() {
        let col = sample_collection(120);
        let dir = tmpdir("roundtrip");
        let mut store = Store::create(&dir).unwrap();
        col.save(&mut store).unwrap();
        assert!(Collection::exists(&store, "test"));
        assert_eq!(Collection::list(&store), vec!["test".to_string()]);
        let back = Collection::open(&store, "test").unwrap();
        assert_eq!(back.base.points(), col.base.points());
        assert_eq!(back.graph, col.graph);
        assert_eq!(back.knn().to_graph(), col.knn().to_graph());
        assert_eq!(back.meta, col.meta);
        assert_eq!(back.epoch(), col.epoch());
        assert_eq!(back.k(), col.k());
        assert_eq!(back.metric(), col.metric());
        assert!(Collection::open(&store, "nope").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_namespace_is_the_same_objects_at_every_size() {
        let dir = tmpdir("objects");
        let mut counts = Vec::new();
        for n in [50, 300] {
            let mut store = Store::create(dir.join(format!("n{n}"))).unwrap();
            sample_collection(n).save(&mut store).unwrap();
            counts.push(store.len());
        }
        assert_eq!(counts, vec![11, 11]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `open`'s error after `damage` has rewritten `col`'s saved store.
    fn open_damaged(col: &Collection, tag: &str, damage: impl FnOnce(&mut Store)) -> String {
        let dir = tmpdir(tag);
        let mut store = Store::create(&dir).unwrap();
        col.save(&mut store).unwrap();
        damage(&mut store);
        let err = Collection::open(&store, col.name()).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        err
    }

    #[test]
    fn a_missing_or_damaged_meta_object_is_an_error() {
        let col = sample_collection(50);
        let meta = key("test", "meta");
        let blob = meta::pack(&col.meta);
        // The per-point layout had no `meta` object.
        let err = open_damaged(&col, "no-meta", |s| {
            s.remove(&meta).unwrap();
        });
        assert_eq!(err, "namespace \"test\": object not found: ns/test/meta");
        let err = open_damaged(&col, "cut-meta", |s| {
            s.put_bytes(&meta, &blob[..blob.len() - 3]).unwrap();
        });
        assert!(err.contains("record 49 wants"), "{err}");
        let err = open_damaged(&col, "cut-len", |s| {
            let mut cut = meta::pack(&col.meta[..49]);
            cut.extend_from_slice(&[7, 0]);
            s.put_bytes(&meta, &cut).unwrap();
        });
        assert!(err.contains("record 49's length is cut short"), "{err}");
        let err = open_damaged(&col, "short-meta", |s| {
            s.put_bytes(&meta, &meta::pack(&col.meta[..49])).unwrap();
        });
        assert!(
            err.contains("holds 49 records, the namespace has 50 points"),
            "{err}"
        );
    }

    #[test]
    fn a_store_of_the_served_graph_is_refused_by_name() {
        // The layout before the k-NN rows were kept: the served graph
        // under `graph/`, no `knn/`.
        let col = sample_collection(50);
        let err = open_damaged(&col, "served-graph", |s| {
            for part in ["offsets", "ids", "dists"] {
                s.remove(&key("test", &format!("knn/{part}"))).unwrap();
            }
            col.graph.save(s, &key("test", "graph")).unwrap();
        });
        assert_eq!(
            err,
            "namespace \"test\" stores its served graph, not its k-NN rows: \
             it was written by an older version; regenerate it"
        );
    }

    #[test]
    fn k_nn_rows_a_graph_cannot_hold_are_errors() {
        let col = sample_collection(50);
        let kept = col.knn().to_graph();
        let kept: Vec<Vec<nnd::Edge>> = (0..50).map(|v| kept.neighbors(v).to_vec()).collect();
        let rows = |edit: fn(&mut Vec<Vec<nnd::Edge>>)| {
            let mut rows = kept.clone();
            move |s: &mut Store| {
                edit(&mut rows);
                KnnGraph::from_rows(rows)
                    .save(s, &key("test", "knn"))
                    .unwrap();
            }
        };
        let err = open_damaged(&col, "long-row", rows(|r| r[3].push((40, 9.0))));
        assert_eq!(
            err,
            "namespace \"test\": k-NN row 3 holds 9 entries, k is 8"
        );
        let err = open_damaged(&col, "self-edge", rows(|r| r[3][0].0 = 3));
        assert!(
            err.starts_with("namespace \"test\": k-NN row 3 cannot hold the edge (3, "),
            "{err}"
        );
        let err = open_damaged(&col, "long", rows(|r| r.push(Vec::new())));
        assert_eq!(
            err,
            "namespace \"test\": the k-NN rows cover 51 ids, base has 50"
        );
        let err = open_damaged(&col, "dead-row", |s| {
            s.put(&key("test", "dead"), &vec![5u32]).unwrap()
        });
        assert_eq!(err, "namespace \"test\": dead id 5 has a k-NN row");
    }

    #[test]
    fn bad_tombstone_and_dead_lists_are_errors() {
        let col = sample_collection(50);
        let put = |list: &'static str, ids: Vec<u32>| {
            move |s: &mut Store| s.put(&key("test", list), &ids).unwrap()
        };
        let err = open_damaged(&col, "past-n", put("tombstones", vec![9999]));
        assert!(
            err.contains("tombstones names id 9999, past the 50 points"),
            "{err}"
        );
        let err = open_damaged(&col, "unsorted", put("dead", vec![4, 2]));
        assert!(
            err.contains("dead is not strictly increasing (4 then 2)"),
            "{err}"
        );
        let err = open_damaged(&col, "shared", |s| {
            put("tombstones", vec![1, 5])(s);
            put("dead", vec![5, 7])(s);
        });
        assert!(
            err.contains("id 5 is both in tombstones and in dead"),
            "{err}"
        );
    }

    #[test]
    fn masks_respect_predicate_and_tombstones() {
        let mut col = sample_collection(90);
        let pred = Predicate::parse("tier == gold").unwrap();
        let mask = col.compile_mask(Some(&pred));
        assert_eq!(mask.allowed(), 30);
        col.delete(&[0, 3]).unwrap(); // both gold (multiples of 3)
        let mask = col.compile_mask(Some(&pred));
        assert_eq!(mask.allowed(), 28);
        assert!(!mask.allows(0) && !mask.allows(3) && mask.allows(6));
        let live = col.compile_mask(None);
        assert_eq!(live.allowed(), 88);
        assert!(col.delete(&[0]).is_err(), "double delete rejected");
        assert!(col.delete(&[9999]).is_err(), "unknown id rejected");
    }

    #[test]
    fn ingest_appends_at_tail_and_bumps_epoch() {
        let mut col = sample_collection(150);
        let extra = gaussian_mixture(MixtureParams::embedding_like(30, 8), 99);
        let range = col
            .ingest(extra.points().to_vec(), sample_meta(30))
            .unwrap();
        assert_eq!(range, 150..180);
        assert_eq!(col.base.len(), 180);
        assert_eq!(col.graph.len(), 180);
        assert_eq!(col.meta.len(), 180);
        assert_eq!(col.epoch(), 1);
        // Quality: the refined graph still answers well.
        let queries = std::sync::Arc::new(PointSet::new(col.base.points()[..20].to_vec()));
        let base = std::sync::Arc::new(col.base.clone());
        let truth = brute_force_queries(&base, &queries, &L2, 8);
        let out = search_batch(
            &col.graph,
            &col.base,
            &L2,
            &queries,
            SearchParams::new(8).epsilon(0.2).entry_candidates(32),
        );
        let recall = mean_recall(&out.ids, &truth);
        assert!(recall > 0.85, "post-ingest recall {recall}");
        // A rejected ingest leaves the collection as it was: a wrong
        // dimension anywhere in the batch, or a metadata count that is off.
        let before = (col.base.clone(), col.graph.clone(), col.epoch());
        let mixed = vec![vec![0.0; 8], vec![0.0; 3]];
        assert!(col.ingest(mixed, sample_meta(2)).is_err());
        assert!(col.ingest(vec![vec![0.0; 8]], sample_meta(2)).is_err());
        assert!(col.ingest(Vec::new(), Vec::new()).is_err());
        assert_eq!((col.base.clone(), col.graph.clone(), col.epoch()), before);
    }

    #[test]
    fn ingest_after_compaction_never_resurrects() {
        let mut col = sample_collection(160);
        let doomed: Vec<PointId> = (0..160).step_by(9).collect();
        col.delete(&doomed).unwrap();
        col.compact().unwrap();
        let extra = gaussian_mixture(MixtureParams::embedding_like(24, 8), 99);
        // One point at a time (the serving loop's ingest), then a batch.
        let (singles, batch) = extra.points().split_at(8);
        let mut batches: Vec<Vec<Vec<f32>>> = singles.iter().map(|p| vec![p.clone()]).collect();
        batches.push(batch.to_vec());
        for points in batches {
            let meta = sample_meta(points.len());
            let new_ids = col.ingest(points, meta).unwrap();
            assert_never_resurrected(&col);
            for v in new_ids {
                assert!(!col.graph.neighbors(v).is_empty(), "new point {v} unlinked");
            }
        }
        assert_eq!(col.dead(), &doomed[..]);
    }

    #[test]
    fn compact_is_id_stable_and_never_resurrects() {
        let mut col = sample_collection(160);
        let doomed: Vec<PointId> = (0..160).step_by(9).collect();
        col.delete(&doomed).unwrap();
        assert!(col.tombstone_ratio() > 0.1);
        let before_len = col.base.len();
        let rep = col.compact().unwrap();
        assert_eq!(rep.tombstones_cleared, doomed.len() as u64);
        assert_eq!(rep.epoch, 1);
        assert_eq!(col.base.len(), before_len, "ids are stable");
        assert_eq!(col.tombstones().len(), 0);
        assert_eq!(col.dead(), &doomed[..]);
        assert!((col.tombstone_ratio() - 0.0).abs() < 1e-12);
        assert_never_resurrected(&col);
        // Quality after compaction: live queries still find live truth.
        let live_ids: Vec<PointId> = (0..160).filter(|&i| col.is_live(i)).collect();
        let sub = PointSet::new(
            live_ids
                .iter()
                .map(|&i| col.base.point(i).clone())
                .collect::<Vec<_>>(),
        );
        let queries = std::sync::Arc::new(PointSet::new(sub.points()[..20].to_vec()));
        let mut truth = brute_force_queries(&std::sync::Arc::new(sub), &queries, &L2, 6);
        for row in &mut truth.ids {
            for id in row.iter_mut() {
                *id = live_ids[*id as usize];
            }
        }
        let out = search_batch(
            &col.graph,
            &col.base,
            &L2,
            &queries,
            SearchParams::new(6).epsilon(0.2).entry_candidates(32),
        );
        let recall = mean_recall(&out.ids, &truth);
        assert!(recall > 0.8, "post-compaction recall {recall}");
    }

    /// Equal ids and equal distance bits, row by row.
    fn same_bits(a: &KnnGraph, b: &KnnGraph) -> bool {
        let bits = |g: &KnnGraph| -> Vec<Vec<(PointId, u32)>> {
            (0..g.len() as PointId)
                .map(|v| {
                    g.neighbors(v)
                        .iter()
                        .map(|&(u, d)| (u, d.to_bits()))
                        .collect()
                })
                .collect()
        };
        bits(a) == bits(b)
    }

    /// Ingests, deletes and compactions on DEEP-like and widened
    /// BIGANN-like points: after every step the served graph is a full
    /// `optimize` of the kept k-NN rows, bit for bit, and a reopened copy
    /// serves the same graph.
    #[test]
    fn the_served_graph_is_the_optimized_k_nn_rows() {
        let widen = |p: &Vec<u8>| p.iter().map(|&x| f32::from(x)).collect::<Vec<f32>>();
        let bigann = dataset::presets::bigann_like(260, 5);
        for points in [
            dataset::presets::deep1b_like(260, 4),
            PointSet::new(bigann.points().iter().map(widen).collect()),
        ] {
            let (base, extra) = dataset::synth::split_queries(points, 60);
            let mut col = Collection::create("test", base, sample_meta(200), "l2", 10, 3).unwrap();
            let mut extra = extra.points().iter().cloned();
            for step in 0..12u32 {
                match step % 4 {
                    0 | 2 => {
                        let batch: Vec<Vec<f32>> = extra.by_ref().take(1 + step as usize).collect();
                        let meta = sample_meta(batch.len());
                        col.ingest(batch, meta).unwrap();
                    }
                    1 => {
                        let live = (0..col.base.len() as PointId).filter(|&v| col.is_live(v));
                        let doomed: Vec<PointId> = live.step_by(7 + step as usize).collect();
                        col.delete(&doomed).unwrap();
                    }
                    _ => {
                        col.compact().unwrap();
                    }
                }
                let want = col.knn().to_graph().optimize(col.k(), nnd::PRUNE_M);
                assert!(same_bits(&col.graph, &want), "step {step}");
                assert_never_resurrected(&col);
            }
            let dir = tmpdir("derived");
            let mut store = Store::create(&dir).unwrap();
            col.save(&mut store).unwrap();
            let back = Collection::open(&store, "test").unwrap();
            assert!(same_bits(&back.graph, &col.graph));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn compaction_is_deterministic() {
        let run = || {
            let mut col = sample_collection(140);
            col.delete(&(0..140).step_by(7).collect::<Vec<_>>())
                .unwrap();
            col.compact().unwrap();
            col.graph.neighbor_ids()
        };
        assert_eq!(run(), run());
    }
}
