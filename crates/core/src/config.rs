//! DNND configuration: Algorithm 1 hyper-parameters plus the paper's
//! distributed-specific knobs (communication-saving switches, batch size,
//! reverse-exchange shuffling) and the optional Section 4.5 reverse-prune
//! pass. RNN-Descent is a separate pass over the built graph
//! ([`crate::rnn_optimize_distributed`]).

/// Which of the Section 4.3 communication-saving techniques are active.
/// Separately switchable for the ablation benches; the paper evaluates only
/// all-off ("unoptimized") vs all-on ("optimized").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommOpts {
    /// 4.3.1 One-sided communication: the center vertex contacts only
    /// `u1`, which forwards its vector to `u2`; `u2` answers with a Type 3
    /// distance message instead of a second full-vector exchange.
    pub one_sided: bool,
    /// 4.3.2 Redundant-check reduction: drop the check when the partner is
    /// already a neighbor (applied at `u1` before Type 2+, and at `u2`
    /// before Type 3).
    pub skip_redundant: bool,
    /// 4.3.3 Long-distance pruning: Type 2+ carries `u1`'s current
    /// farthest-neighbor distance; `u2` replies only if the computed
    /// distance beats it.
    pub prune_distance: bool,
}

impl CommOpts {
    /// The paper's optimized protocol (Figure 1b): all three techniques.
    pub fn optimized() -> Self {
        CommOpts {
            one_sided: true,
            skip_redundant: true,
            prune_distance: true,
        }
    }

    /// The unoptimized baseline (Figure 1a): Type 1 to both endpoints,
    /// full feature vectors both ways.
    pub fn unoptimized() -> Self {
        CommOpts {
            one_sided: false,
            skip_redundant: false,
            prune_distance: false,
        }
    }
}

/// Full DNND configuration. Defaults follow Section 5.1.3.
#[derive(Debug, Clone, Copy)]
pub struct DnndConfig {
    /// Neighbors per vertex in the output graph (`K`).
    pub k: usize,
    /// Sample rate `rho` (paper: 0.8).
    pub rho: f64,
    /// Early-termination threshold `delta` (paper: 0.001).
    pub delta: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// RNG seed. A run is a function of the seed, the inputs and — for the
    /// optimized protocol, whose pruning reads the heap as messages arrive —
    /// the rank count and fault plan.
    pub seed: u64,
    /// Global number of neighbor-check requests issued between barriers
    /// (Section 4.4; the paper uses 2^25–2^30 at billion scale — scale this
    /// with your dataset).
    pub batch_size: u64,
    /// Communication-saving switches (Section 4.3).
    pub opts: CommOpts,
    /// Shuffle destination order in the reverse-neighbor exchange to avoid
    /// congestion (Section 4.2).
    pub shuffle_reverse: bool,
    /// When `Some(m)`, run the Section 4.5 distributed graph optimization
    /// (reverse-edge merge, dedup, prune to `ceil(k * m)`) after the
    /// descent. The paper's evaluation uses `m = 1.5`.
    pub graph_opt_m: Option<f64>,
}

impl DnndConfig {
    /// Paper defaults for a given `k`, optimized protocol.
    pub fn new(k: usize) -> Self {
        DnndConfig {
            k,
            rho: 0.8,
            delta: 0.001,
            max_iters: 60,
            seed: 0xD00D,
            batch_size: 1 << 16,
            opts: CommOpts::optimized(),
            shuffle_reverse: true,
            graph_opt_m: None,
        }
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set `rho`.
    pub fn rho(mut self, rho: f64) -> Self {
        assert!(rho > 0.0 && rho <= 1.0);
        self.rho = rho;
        self
    }

    /// Set `delta`.
    pub fn delta(mut self, delta: f64) -> Self {
        assert!(delta >= 0.0);
        self.delta = delta;
        self
    }

    /// Set the iteration cap.
    pub fn max_iters(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.max_iters = n;
        self
    }

    /// Set the global per-batch request budget.
    pub fn batch_size(mut self, b: u64) -> Self {
        assert!(b >= 1);
        self.batch_size = b;
        self
    }

    /// Set the communication options.
    pub fn comm_opts(mut self, opts: CommOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Enable/disable reverse-exchange destination shuffling.
    pub fn shuffle_reverse(mut self, on: bool) -> Self {
        self.shuffle_reverse = on;
        self
    }

    /// Enable the post-descent graph optimization with prune factor `m`.
    pub fn graph_opt(mut self, m: f64) -> Self {
        assert!(m >= 1.0, "paper requires m >= 1");
        self.graph_opt_m = Some(m);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DnndConfig::new(10);
        assert_eq!(c.k, 10);
        assert_eq!(c.rho, 0.8);
        assert_eq!(c.delta, 0.001);
        assert!(c.shuffle_reverse);
        assert_eq!(c.opts, CommOpts::optimized());
    }

    #[test]
    fn builder_chain() {
        let c = DnndConfig::new(5)
            .seed(1)
            .rho(0.5)
            .delta(0.01)
            .max_iters(3)
            .batch_size(128)
            .comm_opts(CommOpts::unoptimized())
            .shuffle_reverse(false);
        assert_eq!(c.seed, 1);
        assert_eq!(c.rho, 0.5);
        assert_eq!(c.delta, 0.01);
        assert_eq!(c.max_iters, 3);
        assert_eq!(c.batch_size, 128);
        assert!(!c.opts.one_sided);
        assert!(!c.shuffle_reverse);
    }

    #[test]
    #[should_panic]
    fn zero_rho_rejected() {
        let _ = DnndConfig::new(5).rho(0.0);
    }
}
