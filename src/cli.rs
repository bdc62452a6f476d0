//! Shared plumbing for the command-line executables (`dnnd-construct`,
//! `dnnd-optimize`, `dnnd-query`, `dnnd-serve`, `dnnd-vdb`) — the paper's
//! Section 5.1.3 artifact shape: separate construction and optimization
//! programs communicating through a persistent store, plus query programs.
//!
//! A store produced by `dnnd-construct` holds:
//!
//! ```text
//! meta/k         u64           construction k
//! meta/elem      string        "f32" | "u8"
//! meta/metric    string        "l2" | "sql2" | "cosine" | "l1"
//! dataset/...    PointSet      (element-type specific layout)
//! knng/...       KnnGraph      raw NN-Descent output
//! opt/...        KnnGraph      written by dnnd-optimize (reverse-prune)
//! rnn/...        KnnGraph      written by dnnd-optimize --opt-mode rnn
//! ```
//!
//! [`Session`] is the one reader of that layout; `dataset::with_metric!`
//! is the one dispatch from the stored `(elem, metric)` pair to typed code.

use bench::Args;
pub use bench::{die, or_die, require_at_least_1};
use dataset::io;
use dataset::point::Point;
use dataset::set::PointSet;
use metall::{Persist, Result as StoreResult, Store};
use nnd::KnnGraph;
use std::path::Path;

/// Which dense element type a store holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Elem {
    /// 32-bit float vectors (fvecs/fbin inputs).
    F32,
    /// Byte vectors (bvecs/u8bin inputs).
    U8,
}

impl Elem {
    /// Parse the `meta/elem` value.
    pub fn from_name(s: &str) -> Option<Elem> {
        match s {
            "f32" => Some(Elem::F32),
            "u8" => Some(Elem::U8),
            _ => None,
        }
    }

    /// The `meta/elem` value.
    pub fn name(self) -> &'static str {
        match self {
            Elem::F32 => "f32",
            Elem::U8 => "u8",
        }
    }
}

/// The required `--store <dir>` flag.
pub fn store_flag(args: &Args) -> String {
    let dir: String = args.get("store", String::new());
    if dir.is_empty() {
        die("--store <dir> is required");
    }
    dir
}

/// A point type a store's `dataset/` can hold: where its sets come from.
pub trait StoredPoint: Point {
    /// `--input`: a file by extension, or a synthetic `preset:NAME`.
    fn read_input(input: &str, n: usize, seed: u64) -> PointSet<Self>;
    /// A `--queries` file.
    fn read_queries(path: &str) -> std::io::Result<PointSet<Self>>;
    /// The stored `dataset/`.
    fn load(store: &Store) -> StoreResult<PointSet<Self>>;
    /// Write `dataset/`.
    fn save(set: &PointSet<Self>, store: &mut Store) -> StoreResult<()>;
}

impl StoredPoint for Vec<f32> {
    fn read_input(input: &str, n: usize, seed: u64) -> PointSet<Self> {
        if let Some(preset) = input.strip_prefix("preset:") {
            return match preset {
                "deep1b" => dataset::presets::deep1b_like(n, seed),
                "glove25" => dataset::presets::glove25_like(n, seed),
                "nytimes" => dataset::presets::nytimes_like(n, seed),
                "lastfm" => dataset::presets::lastfm_like(n, seed),
                "fashion-mnist" => dataset::presets::fashion_mnist_like(n, seed),
                "mnist" => dataset::presets::mnist_like(n, seed),
                other => die(&format!("unknown f32 preset {other:?}")),
            };
        }
        let path = Path::new(input);
        let result = match path.extension().and_then(|e| e.to_str()) {
            Some("fvecs") => io::read_fvecs(path),
            Some("fbin") => io::read_fbin(path),
            other => die(&format!("unsupported f32 input extension {other:?}")),
        };
        result.unwrap_or_else(|e| die(&format!("failed to read {input}: {e}")))
    }
    fn read_queries(path: &str) -> std::io::Result<PointSet<Self>> {
        io::read_fvecs(path)
    }
    fn load(store: &Store) -> StoreResult<PointSet<Self>> {
        PointSet::<Vec<f32>>::load(store, "dataset")
    }
    fn save(set: &PointSet<Self>, store: &mut Store) -> StoreResult<()> {
        set.save(store, "dataset")
    }
}

impl StoredPoint for Vec<u8> {
    fn read_input(input: &str, n: usize, seed: u64) -> PointSet<Self> {
        if let Some(preset) = input.strip_prefix("preset:") {
            return match preset {
                "bigann" => dataset::presets::bigann_like(n, seed),
                other => die(&format!("unknown u8 preset {other:?}")),
            };
        }
        let path = Path::new(input);
        let result = match path.extension().and_then(|e| e.to_str()) {
            Some("bvecs") => io::read_bvecs(path),
            Some("u8bin") => io::read_u8bin(path),
            other => die(&format!("unsupported u8 input extension {other:?}")),
        };
        result.unwrap_or_else(|e| die(&format!("failed to read {input}: {e}")))
    }
    fn read_queries(path: &str) -> std::io::Result<PointSet<Self>> {
        io::read_bvecs(path)
    }
    fn load(store: &Store) -> StoreResult<PointSet<Self>> {
        PointSet::<Vec<u8>>::load(store, "dataset")
    }
    fn save(set: &PointSet<Self>, store: &mut Store) -> StoreResult<()> {
        set.save(store, "dataset")
    }
}

/// The query set of a run over `base`: the `--queries` file when given —
/// at least one vector, each of `base`'s dimension — else the last `n`
/// member points re-queried (the graph indexes all of `base`, so ids stay
/// valid), which needs `0 < n < N`; `flag` names `n`.
pub fn query_pool<P: StoredPoint>(
    base: &PointSet<P>,
    file: &str,
    n: usize,
    flag: &str,
) -> PointSet<P> {
    if !file.is_empty() {
        let queries =
            P::read_queries(file).unwrap_or_else(|e| die(&format!("bad --queries file: {e}")));
        if queries.is_empty() {
            die("--queries holds 0 vectors (need at least 1)");
        }
        if let Some(q) = queries.points().iter().find(|q| q.dim() != base.dim()) {
            die(&format!(
                "--queries vectors have dimension {}, the dataset's have {}",
                q.dim(),
                base.dim()
            ));
        }
        return queries;
    }
    if n == 0 || n >= base.len() {
        die(&format!(
            "--{flag} must be above 0 and below the dataset size {} (got {n}), \
             unless --queries <file> is given",
            base.len()
        ));
    }
    PointSet::new(base.points()[base.len() - n..].to_vec())
}

/// One opened store: the layout above, read in one place.
pub struct Session {
    /// The open store.
    pub store: Store,
    /// `meta/k`: the construction `k`.
    pub k: usize,
    /// `meta/elem`.
    pub elem: Elem,
    /// `meta/metric`.
    pub metric: String,
}

impl Session {
    /// Open the store at `dir` and read its metadata.
    pub fn open(dir: &str) -> Session {
        fn meta<T: Persist>(store: &Store, key: &str) -> T {
            store
                .get(key)
                .unwrap_or_else(|e| die(&format!("store missing {key}: {e}")))
        }
        let store = Store::open(dir).unwrap_or_else(|e| die(&format!("cannot open store: {e}")));
        let k: u64 = meta(&store, "meta/k");
        let elem: String = meta(&store, "meta/elem");
        Session {
            k: k as usize,
            elem: Elem::from_name(&elem).unwrap_or_else(|| die(&format!("bad meta/elem {elem:?}"))),
            metric: meta(&store, "meta/metric"),
            store,
        }
    }

    /// Record the metadata a later [`Session::open`] reads.
    pub fn write_meta(store: &mut Store, k: usize, elem: Elem, metric: &str) -> StoreResult<()> {
        store.put("meta/k", &(k as u64))?;
        store.put("meta/elem", &elem.name().to_string())?;
        store.put("meta/metric", &metric.to_string())
    }

    /// The graph stored under `key` (`knng`, `opt` or `rnn`).
    pub fn graph(&self, key: &str) -> KnnGraph {
        or_die(KnnGraph::load(&self.store, key))
    }

    /// The stored dataset, as the point type the dispatch chose.
    pub fn base<P: StoredPoint>(&self) -> PointSet<P> {
        or_die(P::load(&self.store))
    }
}

/// Resolve the `--fault-profile` / `--sim-seed` pair into a fault plan.
/// An empty or `"none"` profile means fault-free; unknown names abort with
/// the list of valid profiles. Used by `dnnd-construct` both to test runs
/// under adversarial transport and to replay a failing `simtest` seed.
pub fn parse_fault_plan(profile: &str, sim_seed: u64) -> Option<ygm::FaultPlan> {
    if profile.is_empty() || profile == "none" {
        return None;
    }
    let p = ygm::FaultProfile::by_name(profile).unwrap_or_else(|| {
        die(&format!(
            "unknown fault profile {profile:?} (expected one of {:?} or \"none\")",
            ygm::FaultProfile::NAMES
        ))
    });
    Some(ygm::FaultPlan::new(p, sim_seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_round_trip() {
        assert_eq!(Elem::from_name("f32"), Some(Elem::F32));
        assert_eq!(Elem::from_name("u8"), Some(Elem::U8));
        assert_eq!(Elem::from_name("f64"), None);
        assert_eq!(Elem::F32.name(), "f32");
    }

    #[test]
    fn metric_dispatch_names() {
        // Every name `Elem` can record is one the dispatch has arms for.
        for &name in dataset::metric::METRIC_NAMES {
            assert!(dataset::with_metric!(Elem::F32.name(), name, P, _m => ()).is_ok());
        }
        assert!(dataset::with_metric!(Elem::U8.name(), "l2", P, _m => ()).is_ok());
    }

    #[test]
    fn fault_plan_parsing() {
        assert!(parse_fault_plan("", 7).is_none());
        assert!(parse_fault_plan("none", 7).is_none());
        let plan = parse_fault_plan("stormy", 7).expect("stormy is a profile");
        assert_eq!(plan.sim_seed, 7);
        assert_eq!(plan.profile.name(), "stormy");
    }

    #[test]
    fn presets_load_via_cli_path() {
        let s = Vec::<f32>::read_input("preset:deep1b", 100, 3);
        assert_eq!(s.len(), 100);
        assert_eq!(s.dim(), 96);
        let b = Vec::<u8>::read_input("preset:bigann", 50, 3);
        assert_eq!(b.dim(), 128);
    }

    #[test]
    fn file_load_round_trips() {
        let dir = std::env::temp_dir();
        let p = dir.join(format!("cli-io-{}.fvecs", std::process::id()));
        let set = dataset::synth::uniform(20, 4, 1);
        io::write_fvecs(&p, &set).unwrap();
        let back = Vec::<f32>::read_input(p.to_str().unwrap(), 0, 0);
        assert_eq!(back, set);
        std::fs::remove_file(p).unwrap();
    }
}
