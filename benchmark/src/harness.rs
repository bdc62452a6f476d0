//! What every workload shares: the run context, seed derivation, the
//! measuring loop of rounds, and the check/metric ledger.

use crate::spans::Recorder;
use crate::stats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A set-up is repeated before every this-many-th round of an untraced run,
/// so its samples are spread over the run like those of the stages.
pub const SETUP_EVERY: usize = 4;
/// Fewest rounds of an untraced run.
pub const MIN_ROUNDS: usize = 3;
/// Fewest rounds per side (recorder off / on) of a traced run.
pub const MIN_TRACED_ROUNDS: usize = 2;
/// Share of `--seconds` a traced run spends on rounds; the rest is for the
/// isolated-layer and reference measurements that follow them.
pub const TRACED_ROUNDS_SHARE: f64 = 0.4;

/// Everything derived from `--seed`: the same seed gives the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub data: u64,
    pub build: u64,
    pub query: u64,
    pub serve: u64,
}

pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seeds {
    pub fn from(seed: u64) -> Seeds {
        let s = |salt: u64| splitmix64(seed ^ splitmix64(salt));
        Seeds {
            data: s(1),
            build: s(2),
            query: s(3),
            serve: s(4),
        }
    }
}

/// Metrics, item counts and failed checks of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a failed correctness check; the run then exits non-zero.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }

    /// `Err` becomes a failed check; `Ok` passes its value through.
    pub fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        r.map_err(|e| self.fail(e)).ok()
    }

    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// One run of one workload.
pub struct Ctx {
    pub seeds: Seeds,
    /// How long the run measures, seconds.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub rec: Recorder,
    pub ledger: Ledger,
    scratch: PathBuf,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, smoke: bool, scratch: PathBuf) -> Ctx {
        Ctx {
            seeds: Seeds::from(seed),
            seconds,
            trace,
            smoke,
            rec: Recorder::new(trace),
            ledger: Ledger::default(),
            scratch,
        }
    }

    /// This run's private directory for stores (inside the build directory,
    /// so inside the checkout); removed when the run ends.
    pub fn scratch(&self) -> &Path {
        &self.scratch
    }

    /// The measuring loop of a run. One set-up and one discarded warm-up rep
    /// of every stage, then rounds until `--seconds` (counted from the start
    /// of this call) is spent: a round is one timed rep of every stage in
    /// turn, and before every [`SETUP_EVERY`]-th round the set-up is timed
    /// again. Every stage's samples and the set-up's are therefore spread
    /// over the whole run, and each is reported as its **minimum** (see
    /// [`stats::min`]): `setup_s`, each stage's `metric`, and beside them
    /// `run.rounds`, `run.setups` and each stage's `spread_metric` (IQR /
    /// median of its reps). A traced run sets up once, alternates
    /// recorder-off and recorder-on rounds and records
    /// `trace.overhead_frac` from the two sides. `run.peak_rss_mb` is read
    /// once the fewest rounds are done, so it does not depend on how many
    /// more the budget allowed. Returns the last set-up's product.
    pub fn measure<S>(
        &mut self,
        mut setup: impl FnMut(&mut Recorder) -> S,
        stages: &mut [Stage<'_, S>],
    ) -> S {
        let started = Instant::now();
        let (budget, sides, min_rounds) = if self.trace {
            (self.seconds * TRACED_ROUNDS_SHARE, 2, 2 * MIN_TRACED_ROUNDS)
        } else {
            (self.seconds, 1, MIN_ROUNDS)
        };
        let mut setup_times = Vec::new();
        let mut timed_setup = |rec: &mut Recorder| {
            let open = rec.begin("setup", -1);
            let (secs, out) = timed(|| setup(rec));
            rec.end(open, 0);
            setup_times.push(secs);
            out
        };
        let mut inputs = timed_setup(&mut self.rec);

        self.rec.set_enabled(false);
        for stage in stages.iter_mut() {
            (stage.rep)(&mut self.rec, &inputs, -1);
        }
        // [recorder off, recorder on][stage] -> wall seconds of each rep
        let mut times = [
            vec![Vec::new(); stages.len()],
            vec![Vec::new(); stages.len()],
        ];
        let mut round = 0;
        loop {
            let began = Instant::now();
            if !self.trace && round > 0 && round % SETUP_EVERY == 0 {
                inputs = timed_setup(&mut self.rec);
            }
            let side = round % sides;
            self.rec.set_enabled(side == 1);
            for (stage, samples) in stages.iter_mut().zip(&mut times[side]) {
                samples.push((stage.rep)(&mut self.rec, &inputs, round as i64));
            }
            round += 1;
            if round == min_rounds {
                if let Some(mb) = self.ledger.check(stats::peak_rss_mb()) {
                    self.ledger.set("run.peak_rss_mb", mb);
                }
            }
            let next = began.elapsed().as_secs_f64();
            if round >= min_rounds && started.elapsed().as_secs_f64() + next > budget {
                break;
            }
        }
        self.rec.set_enabled(self.trace);

        let [plain, traced] = times;
        let ledger = &mut self.ledger;
        ledger.set("setup_s", stats::min(&setup_times));
        ledger.set("run.setups", setup_times.len() as f64);
        ledger.set("run.rounds", plain[0].len() as f64);
        let (mut plain_sum, mut traced_sum) = (0.0, 0.0);
        for (i, stage) in stages.iter().enumerate() {
            println!("{} rep seconds: {:.4?}", stage.metric, plain[i]);
            let wall = stats::min(&plain[i]);
            ledger.set(stage.metric, wall);
            ledger.set(stage.spread_metric, stats::iqr_frac(&plain[i]));
            plain_sum += wall;
            if self.trace {
                traced_sum += stats::min(&traced[i]);
            }
        }
        println!("set-up seconds: {setup_times:.4?}");
        if self.trace {
            ledger.set("trace.overhead_frac", traced_sum / plain_sum - 1.0);
        }
        inputs
    }
}

/// One timed call of the pipeline, repeated once per round by
/// [`Ctx::measure`].
pub struct Stage<'a, S> {
    /// End-to-end metric its timing is reported as.
    pub metric: &'static str,
    /// Per-layer metric for the IQR / median of its reps.
    pub spread_metric: &'static str,
    pub rep: Box<RepFn<'a, S>>,
}

/// `(recorder, set-up product, rep)` -> wall seconds of the timed call alone;
/// `rep` is -1 for the discarded warm-up.
pub type RepFn<'a, S> = dyn FnMut(&mut Recorder, &S, i64) -> f64 + 'a;

/// Wall seconds of `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// All values equal? The exact-replay checks compare every rep to the first.
pub fn all_equal<T: PartialEq + std::fmt::Debug>(what: &str, values: &[T]) -> Result<(), String> {
    match values.iter().position(|v| *v != values[0]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what} differs between rep 0 and rep {i}: {:?} vs {:?}",
            values[0], values[i]
        )),
    }
}

/// FNV-1a digest of a k-NN graph's rows (ids and distance bits, row order).
pub fn graph_digest(graph: &nnd::KnnGraph) -> u64 {
    let mut bytes = Vec::with_capacity(graph.edge_count() * 8 + graph.len() * 4);
    for v in 0..graph.len() as u32 {
        bytes.extend_from_slice(&v.to_le_bytes());
        for &(id, dist) in graph.neighbors(v) {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&dist.to_bits().to_le_bytes());
        }
    }
    metall::checksum::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_a_pure_function_of_the_seed() {
        let (a, b, c) = (Seeds::from(7), Seeds::from(7), Seeds::from(11));
        assert_eq!(
            (a.data, a.build, a.query, a.serve),
            (b.data, b.build, b.query, b.serve)
        );
        assert_ne!(a.data, c.data);
        let all = [a.data, a.build, a.query, a.serve];
        for i in 0..4 {
            for j in 0..i {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn all_equal_names_the_first_divergent_rep() {
        assert!(all_equal("d", &[1, 1, 1]).is_ok());
        let err = all_equal("digest", &[1, 1, 2]).unwrap_err();
        assert!(err.contains("digest") && err.contains("rep 2"), "{err}");
    }

    #[test]
    fn measure_discards_the_warm_up_and_reports_minima() {
        let mut ctx = Ctx::new(7, 0.0, false, true, std::env::temp_dir());
        let (mut a_calls, mut b_calls, mut setups) = (0, 0, 0);
        let product = ctx.measure(
            |_| {
                setups += 1;
                setups
            },
            &mut [
                Stage {
                    metric: "a_s",
                    spread_metric: "run.a_spread",
                    rep: Box::new(|_, _, _| {
                        a_calls += 1;
                        a_calls as f64
                    }),
                },
                Stage {
                    metric: "b_s",
                    spread_metric: "run.b_spread",
                    rep: Box::new(|_, product, rep| {
                        assert_eq!(*product, 1);
                        b_calls += 1;
                        if rep < 0 {
                            0.5
                        } else {
                            10.0 - rep as f64
                        }
                    }),
                },
            ],
        );
        // one set-up; one warm-up (value 1 / 0.5) is discarded; reps follow
        assert_eq!(
            (product, a_calls, b_calls),
            (1, 1 + MIN_ROUNDS, 1 + MIN_ROUNDS)
        );
        let m = &ctx.ledger.metrics;
        assert_eq!((m["a_s"], m["b_s"]), (2.0, 10.0 - (MIN_ROUNDS - 1) as f64));
        assert_eq!((m["run.rounds"], m["run.setups"]), (MIN_ROUNDS as f64, 1.0));
        assert!(m["run.peak_rss_mb"] > 0.0 && m["setup_s"] >= 0.0);
        assert!(m["run.a_spread"] > 0.0);
    }
}
