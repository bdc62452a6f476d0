//! DNND configuration: Algorithm 1 hyper-parameters plus the paper's
//! distributed-specific knobs (the communication-saving ladder and the
//! batch size) and the optional Section 4.5 reverse-prune pass.
//! RNN-Descent is a separate pass over the built graph
//! ([`crate::rnn_optimize_distributed`]).

use nnd::NnDescentParams;

/// How many of the Section 4.3 communication-saving techniques are active:
/// a ladder whose rungs each add one technique to the rung below. The paper
/// evaluates the bottom rung (Figure 1a) against the top one (Figure 1b);
/// the two middle rungs are the cumulative ablation's steps. Measured with
/// k = 10 on the DEEP-like and BigANN-like stand-ins at 1, 2 and 4 ranks:
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CommOpts {
    /// Figure 1a: a Type 1 to each endpoint, which ships its vector to the
    /// other as Type 2 — full feature vectors both ways, and each side's row
    /// updated from its own evaluation.
    Unoptimized,
    /// 4.3.1 one-sided communication: the center vertex contacts only `u1`,
    /// which forwards its vector to `u2`; `u2` answers with a Type 3
    /// distance message instead of a second full-vector exchange. Builds
    /// [`CommOpts::Unoptimized`]'s graph bit for bit at every rank count
    /// with about half the distance evaluations (DEEP-like: 217 174 →
    /// 110 587 at n = 400, seed 3; 1 014 014 → 514 507 at n = 1 500,
    /// seed 7).
    OneSided,
    /// Adds 4.3.2 redundant-check reduction: drop the check when the
    /// partner was a neighbor as the iteration opened (at `u1` before
    /// Type 2+, at `u2` before Type 3). The only rung that changes the
    /// graph; it reads each row's start-of-iteration snapshot, not the live
    /// row, so it builds one graph with one evaluation count at every rank
    /// count.
    SkipRedundant,
    /// Adds 4.3.3 long-distance pruning — the paper's optimized protocol
    /// (Figure 1b): Type 2+ carries `u1`'s current farthest-neighbor
    /// distance and `u2` replies only when the computed distance is at most
    /// that, the row's own admission test. The bound only falls, so a
    /// dropped reply is one the row would reject: builds
    /// [`CommOpts::SkipRedundant`]'s graph at the same evaluation count with
    /// fewer Type 3 replies, on both element types.
    Optimized,
}

impl CommOpts {
    /// The paper's optimized protocol (Figure 1b): all three techniques.
    pub fn optimized() -> Self {
        CommOpts::Optimized
    }

    /// The unoptimized baseline (Figure 1a): Type 1 to both endpoints,
    /// full feature vectors both ways.
    pub fn unoptimized() -> Self {
        CommOpts::Unoptimized
    }
}

/// Full DNND configuration. Defaults follow Section 5.1.3.
#[derive(Debug, Clone, Copy)]
pub struct DnndConfig {
    /// Algorithm 1's parameters — `K`, `rho`, `delta`, the iteration cap
    /// and the seed — as the shared-memory builder takes them. The graph is
    /// a function of the seed and the inputs, at every rank count and
    /// under every fault plan.
    pub descent: NnDescentParams,
    /// Global number of neighbor-check requests issued between barriers
    /// (Section 4.4; the paper uses 2^25–2^30 at billion scale — scale this
    /// with your dataset).
    pub batch_size: u64,
    /// Communication-saving rung (Section 4.3).
    pub opts: CommOpts,
    /// When `Some(m)`, run the Section 4.5 distributed graph optimization
    /// (reverse-edge merge, dedup, prune to `ceil(k * m)`) after the
    /// descent. The paper's evaluation uses `m = 1.5`.
    pub graph_opt_m: Option<f64>,
}

impl DnndConfig {
    /// Paper defaults for a given `k`, optimized protocol; the descent
    /// parameters are [`NnDescentParams::new`]'s, seed included.
    pub fn new(k: usize) -> Self {
        DnndConfig {
            descent: NnDescentParams::new(k),
            batch_size: 1 << 16,
            opts: CommOpts::optimized(),
            graph_opt_m: None,
        }
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.descent.seed = seed;
        self
    }

    /// Set `rho`.
    pub fn rho(mut self, rho: f64) -> Self {
        self.descent.rho = rho;
        nnd::checked(self, "DnndConfig", Self::validate)
    }

    /// Set `delta`.
    pub fn delta(mut self, delta: f64) -> Self {
        self.descent.delta = delta;
        nnd::checked(self, "DnndConfig", Self::validate)
    }

    /// Set the iteration cap.
    pub fn max_iters(mut self, n: usize) -> Self {
        self.descent.max_iters = n;
        nnd::checked(self, "DnndConfig", Self::validate)
    }

    /// Set the global per-batch request budget.
    pub fn batch_size(mut self, b: u64) -> Self {
        self.batch_size = b;
        nnd::checked(self, "DnndConfig", Self::validate)
    }

    /// Set the communication-saving rung.
    pub fn comm_opts(mut self, opts: CommOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Enable the post-descent graph optimization with prune factor `m`.
    pub fn graph_opt(mut self, m: f64) -> Self {
        self.graph_opt_m = Some(m);
        nnd::checked(self, "DnndConfig", Self::validate)
    }

    /// Algorithm 1's domain, a batch of at least 1, and [`nnd::prune_limit`].
    pub fn validate(&self) -> Result<(), String> {
        self.descent.validate()?;
        if self.batch_size < 1 {
            return Err("batch_size must be >= 1 (got 0)".into());
        }
        if let Some(m) = self.graph_opt_m {
            nnd::prune_limit(self.descent.k, m)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DnndConfig::new(10);
        assert_eq!(c.descent.k, 10);
        assert_eq!(c.descent.rho, 0.8);
        assert_eq!(c.descent.delta, 0.001);
        assert_eq!(c.descent.seed, 0x5EED);
        assert_eq!(c.opts, CommOpts::optimized());
    }

    /// The shared-memory builder's defaults, field by field (an exhaustive
    /// pattern: a new field does not compile here unnamed). With one seed,
    /// `DnndConfig::new(k)` under the one-sided protocol builds
    /// `nnd::build(NnDescentParams::new(k))`'s graph.
    #[test]
    fn descent_defaults_are_the_shared_memory_builders() {
        #[rustfmt::skip]
        let fields = |NnDescentParams { k, rho, delta, max_iters, seed }|
            (k, rho, delta, max_iters, seed);
        assert_eq!(
            fields(DnndConfig::new(10).descent),
            fields(NnDescentParams::new(10))
        );
    }

    #[test]
    fn builder_chain() {
        let c = DnndConfig::new(5)
            .seed(1)
            .rho(0.5)
            .delta(0.01)
            .max_iters(3)
            .batch_size(128)
            .comm_opts(CommOpts::unoptimized());
        assert_eq!(c.descent.seed, 1);
        assert_eq!(c.descent.rho, 0.5);
        assert_eq!(c.descent.delta, 0.01);
        assert_eq!(c.descent.max_iters, 3);
        assert_eq!(c.batch_size, 128);
        assert_eq!(c.opts, CommOpts::Unoptimized);
    }

    #[test]
    fn validate_states_the_domain_at_its_edges() {
        // (field, value, accepted): each edge of what the configuration adds
        // to Algorithm 1's parameters, and one of those it forwards.
        let rows = [
            ("batch_size", 0.0, false),
            ("batch_size", 1.0, true),
            ("m", 1.0 - f64::EPSILON, false),
            ("m", 1.0, true),
            ("m", f64::NAN, false),
            ("rho", 0.0, false),
            ("rho", 1.0, true),
            ("max_iters", 0.0, false),
            ("max_iters", 1.0, true),
        ];
        for (field, v, accepted) in rows {
            let mut direct = DnndConfig::new(10);
            match field {
                "batch_size" => direct.batch_size = v as u64,
                "m" => direct.graph_opt_m = Some(v),
                "rho" => direct.descent.rho = v,
                _ => direct.descent.max_iters = v as usize,
            }
            let verdict = direct.validate();
            assert_eq!(verdict.is_ok(), accepted, "{field} = {v}: {verdict:?}");
            let built = testutil::panic_message(move || match field {
                "batch_size" => DnndConfig::new(10).batch_size(v as u64),
                "m" => DnndConfig::new(10).graph_opt(v),
                "rho" => DnndConfig::new(10).rho(v),
                _ => DnndConfig::new(10).max_iters(v as usize),
            });
            let want = verdict.err().map(|e| format!("DnndConfig: {e}"));
            assert_eq!(built, want, "{field} = {v}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_rho_rejected() {
        let _ = DnndConfig::new(5).rho(0.0);
    }
}
