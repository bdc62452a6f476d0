//! `simtest` — deterministic fault-injection seed sweep for the YGM runtime.
//!
//! For every (preset, protocol, opt mode, fault profile, sim seed) tuple
//! this driver builds a k-NNG with the distributed engine under injected
//! transport faults and checks the simulation-harness invariants:
//!
//! 1. **Termination** — construction completes (the runtime's storm guard
//!    converts genuine hangs into panics naming the seed, which the sweep
//!    records as failures instead of wedging).
//! 2. **Exactly-once delivery** — under either protocol the engine is a
//!    pure function of the delivered message multiset (the optimized
//!    protocol's Section 4.3 skips read the rows the iteration opened with),
//!    so every fault profile (and the fault-free run) must produce a
//!    bit-identical graph; any divergence means the reliable-delivery layer
//!    dropped or double-applied a message. The RNN-Descent optimization mode
//!    (`--opt-mode rnn`) is swept on top of both protocols — the distributed
//!    RNN pass runs over the built graph on the same faulty world: its
//!    pruning decisions are pure functions of canonical row state, so its
//!    graph must also be bit-identical under every fault profile.
//!
//! The summary table reports recall against brute-force ground truth; it is
//! not checked (RNN trials' is low by design — occlusion pruning removes
//! near-duplicate k-NN edges to sparsify the search graph).
//!
//! Every failing seed gets a `RunReport` JSON (fault counters included)
//! under `--out`, and the sweep ends by printing the *minimal* failing seed
//! plus the exact replay command. Replay a single seed with:
//!
//! ```text
//! cargo run --release -p bench --bin simtest -- \
//!     --preset clustered --protocol optimized --profile stormy --sim-seed 17
//! ```
//!
//! The same sim seed always replays the same run: fault decisions are pure
//! functions of `(sim_seed, frame coordinates)`, and the frames a rank
//! dispatches in a round are a function of what every rank flushed before
//! the last meeting — neither depends on thread scheduling.

use bench::{die, or_die, require_at_least_1, Args, ObsOuts, Table};
use dataset::ground_truth::{brute_force_knng, GroundTruth};
use dataset::metric::L2;
use dataset::recall::mean_recall;
use dataset::set::{PointId, PointSet};
use dataset::synth::{gaussian_mixture, MixtureParams};
use dnnd::obs_report::{fill_rnn, report_from_build};
use dnnd::{build, rnn_optimize_distributed, BuildReport, CommOpts, DnndConfig};
use nnd::rnn::{RnnParams, RnnStats};
use nnd::KnnGraph;
use obs::FaultSection;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use ygm::{FaultPlan, FaultProfile, World};

/// One synthetic workload the sweep runs against.
struct Preset {
    name: &'static str,
    set: Arc<PointSet<Vec<f32>>>,
    /// Brute-force ground truth for recall scoring.
    truth: GroundTruth,
}

/// Fault-free reference for one (preset, protocol) pair.
struct Baseline {
    ids: Vec<Vec<PointId>>,
    recall: f64,
}

/// One trial's graph with the construction's report and, in rnn mode, the
/// RNN pass's knobs and counters.
struct Built {
    graph: KnnGraph,
    report: BuildReport,
    rnn: Option<(RnnParams, RnnStats)>,
    /// Faults injected into the construction and the pass.
    injected: u64,
}

/// Outcome of a single faulted build.
struct Trial {
    preset: &'static str,
    protocol: &'static str,
    opt_mode: &'static str,
    profile: &'static str,
    sim_seed: u64,
    recall: f64,
    injected: u64,
    failure: Option<String>,
}

/// The names `--{flag} {arg}` selects: every one of `names` for `all`,
/// else the one it names.
fn select(flag: &str, arg: &str, all: &str, names: &[&'static str]) -> Vec<&'static str> {
    if arg == all {
        return names.to_vec();
    }
    match names.iter().find(|&&name| name == arg) {
        Some(&name) => vec![name],
        None => die(&format!(
            "unknown --{flag} {arg:?} ({}|{all})",
            names.join("|")
        )),
    }
}

fn make_presets(n: usize, k: usize) -> Vec<Preset> {
    // Two shapes the paper's datasets span: tightly clustered (easy local
    // neighborhoods) and spread-out (more cross-rank traffic per update).
    let shapes: [(&'static str, MixtureParams); 2] = [
        ("clustered", MixtureParams::embedding_like(n, 8)),
        (
            "spread",
            MixtureParams {
                n,
                dim: 12,
                n_clusters: 3,
                center_spread: 2.0,
                cluster_std: 4.0,
            },
        ),
    ];
    shapes
        .into_iter()
        .map(|(name, params)| {
            // The data seed is fixed: the sweep varies *sim* seeds, and the
            // baseline must be the same-workload fault-free run.
            let set = Arc::new(gaussian_mixture(params, 5));
            let truth = brute_force_knng(&set, &L2, k);
            Preset { name, set, truth }
        })
        .collect()
}

struct Sweep {
    k: usize,
    ranks: usize,
    data_seed: u64,
    out_dir: std::path::PathBuf,
    keep_all_reports: bool,
}

impl Sweep {
    /// Build on `world`, then in rnn mode run the RNN pass on the same world.
    fn build(&self, world: &World, preset: &Preset, protocol: &str, opt_mode: &str) -> Built {
        let opts = match protocol {
            "optimized" => CommOpts::optimized(),
            _ => CommOpts::unoptimized(),
        };
        let cfg = DnndConfig::new(self.k).seed(self.data_seed).comm_opts(opts);
        let out = build(world, &preset.set, &L2, cfg);
        let injected = |faults: &Option<FaultSection>| faults.as_ref().map_or(0, |f| f.injected());
        let mut built = Built {
            injected: injected(&out.report.faults),
            graph: out.graph,
            report: out.report,
            rnn: None,
        };
        if opt_mode == "rnn" {
            // k0 = k + 2 mirrors the bench fixture's headroom over k.
            let params = RnnParams::new(self.k + 2);
            let (graph, stats, run) =
                rnn_optimize_distributed(world, &preset.set, &L2, &built.graph, params);
            built.graph = graph;
            built.rnn = Some((params, stats));
            built.injected += injected(&run.faults);
        }
        built
    }

    fn baseline(&self, preset: &Preset, protocol: &str, opt_mode: &str) -> Baseline {
        let out = self.build(&World::new(self.ranks), preset, protocol, opt_mode);
        let ids = out.graph.neighbor_ids();
        let recall = mean_recall(&ids, &preset.truth);
        println!(
            "baseline {}/{protocol}/{opt_mode}: fault-free recall {recall:.4}",
            preset.name
        );
        Baseline { ids, recall }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_trial(
        &self,
        preset: &Preset,
        baseline: &Baseline,
        protocol: &'static str,
        opt_mode: &'static str,
        profile: FaultProfile,
        sim_seed: u64,
    ) -> Trial {
        let plan = FaultPlan::new(profile, sim_seed);
        let world = World::new(self.ranks).fault_plan(plan);
        let built = catch_unwind(AssertUnwindSafe(|| {
            self.build(&world, preset, protocol, opt_mode)
        }));

        let mut trial = Trial {
            preset: preset.name,
            protocol,
            opt_mode,
            profile: profile.name(),
            sim_seed,
            recall: 0.0,
            injected: 0,
            failure: None,
        };
        match built {
            Err(payload) => {
                // Storm guard (or any other runtime panic): a termination
                // failure.
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into());
                trial.failure = Some(format!("did not terminate: {msg}"));
            }
            Ok(out) => {
                let ids = out.graph.neighbor_ids();
                trial.recall = mean_recall(&ids, &preset.truth);
                trial.injected = out.injected;
                if ids != baseline.ids {
                    let v = first_divergent(&ids, &baseline.ids);
                    trial.failure = Some(format!(
                        "graph differs from fault-free run (first divergent node {v}): \
                         exactly-once delivery violated"
                    ));
                }
                if trial.failure.is_some() || self.keep_all_reports {
                    self.write_trial_report(&trial, baseline, &out);
                }
            }
        }
        trial
    }

    fn write_trial_report(&self, trial: &Trial, baseline: &Baseline, built: &Built) {
        let mut run = report_from_build("simtest", &built.report);
        if let Some((params, stats)) = &built.rnn {
            // The trial's evaluations are the construction's and the pass's.
            fill_rnn(&mut run, *params, stats);
            run.distance_evals += built.report.distance_evals;
        }
        run.params = vec![
            ("preset".into(), trial.preset.into()),
            ("protocol".into(), trial.protocol.into()),
            ("opt_mode".into(), trial.opt_mode.into()),
            ("profile".into(), trial.profile.into()),
            ("sim_seed".into(), trial.sim_seed.to_string()),
            ("recall".into(), format!("{:.4}", trial.recall)),
            ("baseline_recall".into(), format!("{:.4}", baseline.recall)),
            (
                "verdict".into(),
                trial
                    .failure
                    .clone()
                    .map(|f| format!("FAIL: {f}"))
                    .unwrap_or_else(|| "PASS".into()),
            ),
        ];
        let stem = format!(
            "simtest-{}-{}-{}-{}-seed{}",
            trial.preset, trial.protocol, trial.opt_mode, trial.profile, trial.sim_seed
        );
        let stem = self.out_dir.join(stem).display().to_string();
        // A dashboard next to each report: failing seeds get a one-file
        // visual of the run (timeline, traffic, fault counters) in CI
        // artifacts, no replay needed for a first look.
        let outs = ObsOuts {
            report: format!("{stem}.json"),
            dashboard: format!("{stem}.html"),
            ..ObsOuts::default()
        };
        // A sweep's verdict outlives an artifact that could not be written.
        if let Err(e) = outs.write(None, || run) {
            eprintln!("warning: {e}");
        }
    }
}

fn first_divergent(a: &[Vec<PointId>], b: &[Vec<PointId>]) -> usize {
    a.iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()))
}

fn replay_command(t: &Trial) -> String {
    format!(
        "cargo run --release -p bench --bin simtest -- --preset {} --protocol {} --opt-mode {} --profile {} --sim-seed {}",
        t.preset, t.protocol, t.opt_mode, t.profile, t.sim_seed
    )
}

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", 400);
    let k: usize = args.get("k", 8);
    let replay_seed: Option<u64> = args.opt("sim-seed");
    let sweep = Sweep {
        k,
        ranks: args.get("ranks", 4),
        data_seed: args.get("seed", 5),
        out_dir: args.out_dir(),
        keep_all_reports: args.flag("reports") || replay_seed.is_some(),
    };
    let n_seeds: u64 = args.get("seeds", 25);
    let profile_arg: String = args.get("profile", "all".to_string());
    let protocol_arg: String = args.get("protocol", "both".to_string());
    let opt_mode_arg: String = args.get("opt-mode", "both".to_string());
    let preset_arg: String = args.get("preset", "all".to_string());
    args.finish();
    require_at_least_1("ranks", sweep.ranks);
    or_die(nnd::check_k(k, n));

    // Replay mode: `--sim-seed S` runs exactly one seed (deterministically
    // reproducing a sweep failure); otherwise sweep seeds 0..--seeds.
    let seeds: Vec<u64> = match replay_seed {
        Some(s) => vec![s],
        None => (0..n_seeds).collect(),
    };

    let profiles = select("profile", &profile_arg, "all", &FaultProfile::NAMES);
    let profiles: Vec<FaultProfile> = (profiles.into_iter())
        .map(|name| FaultProfile::by_name(name).expect("a name from NAMES"))
        .collect();
    let protocols = ["optimized", "unoptimized"];
    let protocols = select("protocol", &protocol_arg, "both", &protocols);
    let opt_modes = select("opt-mode", &opt_mode_arg, "both", &["default", "rnn"]);
    let combos: Vec<(&'static str, &'static str)> = (opt_modes.iter())
        .flat_map(|&m| protocols.iter().map(move |&p| (p, m)))
        .collect();

    let mut presets = make_presets(n, k);
    let names: Vec<&'static str> = presets.iter().map(|p| p.name).collect();
    let chosen = select("preset", &preset_arg, "all", &names);
    presets.retain(|p| chosen.contains(&p.name));
    std::fs::create_dir_all(&sweep.out_dir).expect("create --out dir");

    println!(
        "simtest sweep: {} preset(s) x {} (protocol, mode) combo(s) x {} profile(s) x {} seed(s), ranks={}",
        presets.len(),
        combos.len(),
        profiles.len(),
        seeds.len(),
        sweep.ranks
    );

    let mut trials: Vec<Trial> = Vec::new();
    for preset in &presets {
        for &(protocol, opt_mode) in &combos {
            let baseline = sweep.baseline(preset, protocol, opt_mode);
            for &profile in &profiles {
                for &sim_seed in &seeds {
                    trials.push(
                        sweep.run_trial(preset, &baseline, protocol, opt_mode, profile, sim_seed),
                    );
                }
            }
        }
    }

    let mut table = Table::new(
        "simtest: per-(preset, protocol, profile) summary",
        &[
            "Preset",
            "Protocol",
            "Mode",
            "Profile",
            "Seeds",
            "Min recall",
            "Mean recall",
            "Faults injected",
            "Failures",
        ],
    );
    for preset in &presets {
        for &(protocol, opt_mode) in &combos {
            for &profile in &profiles {
                let group: Vec<&Trial> = trials
                    .iter()
                    .filter(|t| {
                        t.preset == preset.name
                            && t.protocol == protocol
                            && t.opt_mode == opt_mode
                            && t.profile == profile.name()
                    })
                    .collect();
                let done: Vec<&&Trial> = group
                    .iter()
                    .filter(|t| !t.failure.as_deref().unwrap_or("").starts_with("did not"))
                    .collect();
                let min_recall = done.iter().map(|t| t.recall).fold(f64::INFINITY, f64::min);
                let mean = if done.is_empty() {
                    0.0
                } else {
                    done.iter().map(|t| t.recall).sum::<f64>() / done.len() as f64
                };
                let injected: u64 = group.iter().map(|t| t.injected).sum();
                let failures = group.iter().filter(|t| t.failure.is_some()).count();
                table.row(&[
                    &preset.name,
                    &protocol,
                    &opt_mode,
                    &profile.name(),
                    &group.len(),
                    &format!("{min_recall:.4}"),
                    &format!("{mean:.4}"),
                    &injected,
                    &failures,
                ]);
            }
        }
    }
    table.print();
    let _ = table.write_csv(&sweep.out_dir, "simtest");

    let mut failures: Vec<&Trial> = trials.iter().filter(|t| t.failure.is_some()).collect();
    if failures.is_empty() {
        println!(
            "\nsimtest PASS: all {} trial(s) terminated with the fault-free graph",
            trials.len()
        );
        return;
    }
    failures.sort_by_key(|t| t.sim_seed);
    let minimal = failures[0];
    println!("\nsimtest FAIL: {} failing trial(s)", failures.len());
    for t in &failures {
        println!(
            "  preset={} protocol={} profile={} --sim-seed {} : {}",
            t.preset,
            t.protocol,
            t.profile,
            t.sim_seed,
            t.failure.as_deref().unwrap()
        );
    }
    println!(
        "\nminimal failing seed: {} (preset={} protocol={} profile={})",
        minimal.sim_seed, minimal.preset, minimal.protocol, minimal.profile
    );
    println!("replay with:\n  {}", replay_command(minimal));
    println!(
        "failing-seed RunReports (fault counters included) are under {}",
        sweep.out_dir.display()
    );
    std::process::exit(1);
}
