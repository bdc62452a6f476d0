//! Shared plumbing for the command-line executables (`dnnd-construct`,
//! `dnnd-optimize`, `dnnd-query`) — the paper's Section 5.1.3 artifact
//! shape: separate construction and optimization programs communicating
//! through a persistent store, plus a query program.
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

pub use bench::die;
use dataset::io;
use dataset::metric::Metric;
use dataset::set::PointSet;
use dataset::synth::split_queries;
use metall::Store;
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

/// Supported metric names for dense data on the CLI.
pub const METRIC_NAMES: &[&str] = &["l2", "sql2", "cosine", "l1"];

/// The observability output paths every executable accepts
/// (`--trace-out`, `--report-out`, `--dashboard-out`); empty = not asked
/// for. Any one of them requires a tracer on the run.
#[derive(Debug, Clone, Default)]
pub struct ObsOuts {
    /// Chrome-trace / Perfetto span timeline destination.
    pub trace: String,
    /// Unified JSON run-report destination.
    pub report: String,
    /// Self-contained HTML dashboard destination.
    pub dashboard: String,
    /// Whether cross-rank flow events are recorded (`--trace-flows`,
    /// `on` by default; `off` drops the `ph:"s"/"f"` arrow pairs from the
    /// exported trace, shrinking it when only spans are wanted).
    pub flows: bool,
}

impl ObsOuts {
    /// Read the observability flags from parsed CLI arguments.
    pub fn parse(args: &bench::Args) -> ObsOuts {
        let flows = args.get("trace-flows", "on".to_string());
        match flows.as_str() {
            "on" | "off" => {}
            other => die(&format!(
                "invalid --trace-flows value {other:?} (expected \"on\" or \"off\")"
            )),
        }
        ObsOuts {
            trace: args.get("trace-out", String::new()),
            report: args.get("report-out", String::new()),
            dashboard: args.get("dashboard-out", String::new()),
            flows: flows != "off",
        }
    }

    /// Whether any output was requested (i.e. the run needs a tracer).
    pub fn any(&self) -> bool {
        !self.trace.is_empty() || !self.report.is_empty() || !self.dashboard.is_empty()
    }

    /// Whether a `RunReport` must be assembled (report or dashboard).
    pub fn wants_report(&self) -> bool {
        !self.report.is_empty() || !self.dashboard.is_empty()
    }
}

/// Dispatch a dense-f32 metric name to a monomorphized call.
pub fn with_f32_metric<R>(name: &str, f: impl FnOnce(&dyn DynMetricF32) -> R) -> R {
    match name {
        "l2" => f(&dataset::L2),
        "sql2" => f(&dataset::SquaredL2),
        "cosine" => f(&dataset::Cosine),
        "l1" => f(&dataset::L1),
        other => die(&format!(
            "unknown metric {other:?} (expected one of {METRIC_NAMES:?})"
        )),
    }
}

/// Object-safe shim over `Metric<Vec<f32>>` — the CLI only needs dispatch,
/// not generic performance, at its boundaries; inner loops re-monomorphize.
pub trait DynMetricF32 {
    /// Metric name (matches the constructor name).
    fn name(&self) -> &'static str;
}

impl<M: Metric<Vec<f32>>> DynMetricF32 for M {
    fn name(&self) -> &'static str {
        Metric::<Vec<f32>>::name(self)
    }
}

/// Load a dense f32 dataset from a file by extension, or a synthetic
/// preset by `preset:NAME` syntax.
pub fn load_f32(input: &str, n: usize, seed: u64) -> PointSet<Vec<f32>> {
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

/// Load a dense u8 dataset from a file by extension, or `preset:bigann`.
pub fn load_u8(input: &str, n: usize, seed: u64) -> PointSet<Vec<u8>> {
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

/// Read the store's metadata triple `(k, elem, metric)`.
pub fn read_meta(store: &Store) -> (usize, Elem, String) {
    let k: u64 = store
        .get("meta/k")
        .unwrap_or_else(|e| die(&format!("store missing meta/k: {e}")));
    let elem: String = store
        .get("meta/elem")
        .unwrap_or_else(|e| die(&format!("store missing meta/elem: {e}")));
    let metric: String = store
        .get("meta/metric")
        .unwrap_or_else(|e| die(&format!("store missing meta/metric: {e}")));
    let elem = Elem::from_name(&elem).unwrap_or_else(|| die(&format!("bad meta/elem {elem:?}")));
    (k as usize, elem, metric)
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

/// Hold out `n_queries` random-suffix points when the user asks the CLI to
/// self-evaluate (no query file).
pub fn self_split<P: dataset::Point>(
    set: PointSet<P>,
    n_queries: usize,
) -> (PointSet<P>, PointSet<P>) {
    if n_queries == 0 || n_queries >= set.len() {
        die("need 0 < queries < N for self-evaluation");
    }
    split_queries(set, n_queries)
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
        for &name in METRIC_NAMES {
            let resolved = with_f32_metric(name, |m| m.name().to_lowercase());
            // Display names differ in case/abbreviation but must resolve.
            assert!(!resolved.is_empty(), "{name} resolved to nothing");
        }
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
        let s = load_f32("preset:deep1b", 100, 3);
        assert_eq!(s.len(), 100);
        assert_eq!(s.dim(), 96);
        let b = load_u8("preset:bigann", 50, 3);
        assert_eq!(b.dim(), 128);
    }

    #[test]
    fn file_load_round_trips() {
        let dir = std::env::temp_dir();
        let p = dir.join(format!("cli-io-{}.fvecs", std::process::id()));
        let set = dataset::synth::uniform(20, 4, 1);
        io::write_fvecs(&p, &set).unwrap();
        let back = load_f32(p.to_str().unwrap(), 0, 0);
        assert_eq!(back, set);
        std::fs::remove_file(p).unwrap();
    }
}
