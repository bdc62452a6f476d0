//! [`PointSet`]: an indexed collection of points — the dataset `V` of the
//! paper, with `N = |V|` entries.
//!
//! Point ids are `u32` throughout, matching the paper's choice of 4-byte
//! point ids for the billion-scale runs (Section 5.3). Dense sets persist to
//! a [`metall::Store`] as a flat element buffer plus a header; sparse sets
//! as an offsets + items pair (CSR-style).

use crate::point::{Point, SparseVec};
use metall::{Persist, Result as StoreResult, Store, StoreError};

/// Vertex/point identifier, 4 bytes as in the paper's evaluation.
pub type PointId = u32;

/// Every coordinate must be finite. A NaN or an infinity has no distance
/// to anything — it scores as 0.0 against every point — so one such point
/// would build a row whose every neighbor is at 0.0, and sit in every
/// other row it reaches. `i` is the point's position in `points`. Every
/// f32 reader and every collection ingest calls this.
pub fn check_finite<'p>(points: impl IntoIterator<Item = &'p Vec<f32>>) -> Result<(), String> {
    for (i, p) in points.into_iter().enumerate() {
        if let Some((j, x)) = p.iter().enumerate().find(|(_, x)| !x.is_finite()) {
            return Err(format!("point {i} coordinate {j} is not finite ({x})"));
        }
    }
    Ok(())
}

/// An in-memory dataset of points with stable `u32` ids.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet<P> {
    points: Vec<P>,
    dim: usize,
}

impl<P: Point> PointSet<P> {
    /// Build from points. For dense sets all points must share a dimension.
    pub fn new(points: Vec<P>) -> Self {
        let dim = points.first().map_or(0, Point::dim);
        PointSet { points, dim }
    }

    /// Append `points` at the tail: they take the next ids, existing ids
    /// are unchanged. Dense points must have the set's dimension.
    pub fn extend(&mut self, points: impl IntoIterator<Item = P>) {
        self.points.extend(points);
        self.dim = self.points.first().map_or(0, Point::dim);
    }

    /// Number of points (`N`).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimensionality of the first point (dense sets: the common dimension;
    /// sparse sets: a representative size only).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The point with id `id`.
    #[inline]
    pub fn point(&self, id: PointId) -> &P {
        &self.points[id as usize]
    }

    /// All points, id order.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// The points, id order, moved out of the set.
    pub fn into_points(self) -> Vec<P> {
        self.points
    }

    /// Iterate `(id, point)`.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &P)> {
        self.points
            .iter()
            .enumerate()
            .map(|(i, p)| (i as PointId, p))
    }

    /// Total storage bytes (the paper's `N x dim x E`).
    pub fn storage_bytes(&self) -> usize {
        self.points.iter().map(Point::storage_bytes).sum()
    }
}

/// Names used for the store layout of a persisted point set.
fn key(prefix: &str, field: &str) -> String {
    format!("{prefix}/{field}")
}

/// Dense persistence, one body for every element type (`f32`, `u8`):
/// `<prefix>/meta` = [n, dim], `<prefix>/data` = the flat element buffer.
impl<E: Copy> PointSet<Vec<E>>
where
    Vec<E>: Point + Persist,
{
    /// Persist into `store` under `prefix`.
    pub fn save(&self, store: &mut Store, prefix: &str) -> StoreResult<()> {
        let meta = vec![self.len() as u64, self.dim as u64];
        let mut flat = Vec::with_capacity(self.len() * self.dim);
        for p in &self.points {
            flat.extend_from_slice(p);
        }
        store.put(&key(prefix, "meta"), &meta)?;
        store.put(&key(prefix, "data"), &flat)
    }

    /// Load a set persisted by [`PointSet::save`]. A header the data
    /// cannot match — zero-dimensional points, an `n * dim` past `usize` —
    /// is damaged input, not a panic.
    pub fn load(store: &Store, prefix: &str) -> StoreResult<Self> {
        let meta: Vec<u64> = store.get(&key(prefix, "meta"))?;
        let [n, dim] = meta[..] else {
            return Err(StoreError::Decode("bad point-set meta".into()));
        };
        if n > 0 && dim == 0 {
            return Err(StoreError::Decode(format!(
                "point-set meta claims {n} points of dimension 0"
            )));
        }
        let flat: Vec<E> = store.get(&key(prefix, "data"))?;
        let want = usize::try_from(n)
            .ok()
            .zip(usize::try_from(dim).ok())
            .and_then(|(n, dim)| n.checked_mul(dim));
        if want != Some(flat.len()) {
            return Err(StoreError::Decode("point-set data length mismatch".into()));
        }
        // `dim == 0` only with `n == 0` here, where `flat` is empty.
        let points = flat
            .chunks_exact((dim as usize).max(1))
            .map(<[E]>::to_vec)
            .collect();
        Ok(PointSet::new(points))
    }
}

/// Sparse persistence: CSR-style offsets + item buffer.
impl PointSet<SparseVec> {
    /// Persist into `store` under `prefix`.
    pub fn save(&self, store: &mut Store, prefix: &str) -> StoreResult<()> {
        let mut offsets: Vec<u64> = Vec::with_capacity(self.len() + 1);
        let mut items: Vec<u32> = Vec::new();
        offsets.push(0);
        for p in &self.points {
            items.extend_from_slice(p.ids());
            offsets.push(items.len() as u64);
        }
        store.put(&key(prefix, "offsets"), &offsets)?;
        store.put(&key(prefix, "items"), &items)
    }

    /// Load a set persisted by [`PointSet::save`].
    pub fn load(store: &Store, prefix: &str) -> StoreResult<Self> {
        let offsets: Vec<u64> = store.get(&key(prefix, "offsets"))?;
        let items: Vec<u32> = store.get(&key(prefix, "items"))?;
        if offsets.first() != Some(&0) || offsets.last().copied() != Some(items.len() as u64) {
            return Err(StoreError::Decode("bad sparse offsets".into()));
        }
        let points = offsets
            .windows(2)
            .map(|w| {
                if w[0] > w[1] {
                    Err(StoreError::Decode("non-monotone sparse offsets".into()))
                } else {
                    Ok(SparseVec::from_sorted(
                        items[w[0] as usize..w[1] as usize].to_vec(),
                    ))
                }
            })
            .collect::<StoreResult<Vec<_>>>()?;
        Ok(PointSet::new(points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dataset-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn basic_accessors() {
        let s = PointSet::new(vec![vec![1.0f32, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.point(1), &vec![3.0, 4.0]);
        assert_eq!(s.storage_bytes(), 3 * 2 * 4);
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn extend_appends_at_the_tail() {
        let mut s = PointSet::new(Vec::<Vec<f32>>::new());
        s.extend([vec![1.0, 2.0]]);
        s.extend([vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!((s.len(), s.dim()), (3, 2));
        assert_eq!(s.point(0), &vec![1.0, 2.0]);
        assert_eq!(s.point(2), &vec![5.0, 6.0]);
    }

    #[test]
    fn f32_save_load_round_trip() {
        let dir = tmpdir("f32");
        let mut store = Store::create(&dir).unwrap();
        let s = PointSet::new(vec![vec![1.0f32, 2.0], vec![-3.5, 4.25]]);
        s.save(&mut store, "ds").unwrap();
        let back = PointSet::<Vec<f32>>::load(&store, "ds").unwrap();
        assert_eq!(back, s);
        Store::destroy(&dir).unwrap();
    }

    #[test]
    fn u8_save_load_round_trip() {
        let dir = tmpdir("u8");
        let mut store = Store::create(&dir).unwrap();
        let s = PointSet::new(vec![vec![1u8, 2, 3], vec![200, 100, 0]]);
        s.save(&mut store, "bigann").unwrap();
        let back = PointSet::<Vec<u8>>::load(&store, "bigann").unwrap();
        assert_eq!(back, s);
        Store::destroy(&dir).unwrap();
    }

    #[test]
    fn sparse_save_load_round_trip() {
        let dir = tmpdir("sparse");
        let mut store = Store::create(&dir).unwrap();
        let s = PointSet::new(vec![
            SparseVec::new(vec![1, 5, 9]),
            SparseVec::default(),
            SparseVec::new(vec![2]),
        ]);
        s.save(&mut store, "kosarak").unwrap();
        let back = PointSet::<SparseVec>::load(&store, "kosarak").unwrap();
        assert_eq!(back, s);
        Store::destroy(&dir).unwrap();
    }

    #[test]
    fn load_rejects_a_header_the_data_cannot_match() {
        fn check<E: Copy>(tag: &str)
        where
            Vec<E>: Point + Persist,
        {
            let dir = tmpdir(tag);
            let mut store = Store::create(&dir).unwrap();
            let cases: [(&str, [u64; 2]); 4] = [
                ("zero-dim", [3, 0]),
                ("overflow", [u64::MAX / 2 + 1, 4]),
                ("wide", [1 << 40, 1 << 40]),
                ("empty", [0, 0]),
            ];
            for (name, meta) in cases {
                store.put(&key(name, "meta"), &meta.to_vec()).unwrap();
                store.put(&key(name, "data"), &Vec::<E>::new()).unwrap();
            }
            for name in ["zero-dim", "overflow", "wide"] {
                let got = PointSet::<Vec<E>>::load(&store, name);
                assert!(matches!(got, Err(StoreError::Decode(_))), "{tag} {name}");
            }
            assert!(PointSet::<Vec<E>>::load(&store, "empty")
                .unwrap()
                .is_empty());
            Store::destroy(&dir).unwrap();
        }
        check::<f32>("hdr-f32");
        check::<u8>("hdr-u8");
    }

    #[test]
    fn load_detects_length_mismatch() {
        let dir = tmpdir("mismatch");
        let mut store = Store::create(&dir).unwrap();
        store.put("bad/meta", &vec![2u64, 3u64]).unwrap();
        store.put("bad/data", &vec![1.0f32; 5]).unwrap(); // should be 6
        assert!(PointSet::<Vec<f32>>::load(&store, "bad").is_err());
        Store::destroy(&dir).unwrap();
    }
}
