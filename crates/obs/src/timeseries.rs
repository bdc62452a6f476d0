//! Continuous telemetry: per-rank gauge time series sampled on the
//! virtual clock.
//!
//! A [`TimeSeriesSet`] holds named series, one track per rank, where each
//! point is `(virtual time ns, value)`. Sampling is *paced* by virtual
//! time: callers ask [`TimeSeriesSet::should_sample`] at natural probe
//! points (barrier entry in `ygm`), and the set admits at most one sample
//! per rank per fixed virtual-time interval. Because the virtual clock is
//! a deterministic function of the run (it only advances at barriers and
//! collectives, by modeled cost), the sampled series are bit-identical
//! across reruns with the same seed — they carry no wall-clock input.
//!
//! Event-driven gauges (e.g. per-iteration heap updates) bypass pacing and
//! call [`TimeSeriesSet::record`] directly; they are deterministic because
//! their trigger points are.

use crate::report::{report_struct, List, Val};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default sampling interval: 10 µs of virtual time. Barrier phases in the
/// simulated cluster cost tens of microseconds each, so even small runs
/// produce a usable number of samples without flooding large ones.
pub const DEFAULT_SAMPLE_INTERVAL_NS: u64 = 10_000;

report_struct! {
    /// One sampled gauge value at a virtual-clock timestamp.
    #[derive(Copy)]
    pub struct SeriesPoint {
        /// Virtual time of the sample, nanoseconds.
        pub t_ns: u64 => Val;
        pub value: f64 => Val;
    }
}

report_struct! {
    /// One named series on one rank's track, in sample order.
    pub struct SeriesSnapshot {
        pub name: String => Val;
        pub rank: u64 => Val;
        pub points: Vec<SeriesPoint> => List;
    }
}

/// Named per-rank gauge series with virtual-time pacing.
///
/// Shared across rank threads behind the owning `Tracer`'s `Arc`. The
/// per-rank pacing state is atomic; point storage takes a mutex, which is
/// fine because sampling is rare by construction (once per interval).
pub struct TimeSeriesSet {
    n_ranks: usize,
    interval_ns: u64,
    /// Next virtual timestamp at which each rank's paced sample is due.
    next_due: Box<[AtomicU64]>,
    /// name → per-rank point vectors. `BTreeMap` so snapshot order is
    /// deterministic regardless of which rank registered a name first.
    series: Mutex<BTreeMap<String, Vec<Vec<SeriesPoint>>>>,
}

impl TimeSeriesSet {
    pub fn new(n_ranks: usize, interval_ns: u64) -> Self {
        assert!(interval_ns > 0, "sampling interval must be positive");
        TimeSeriesSet {
            n_ranks,
            interval_ns,
            next_due: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Whether `rank`'s paced sample is due at virtual time `now_ns`.
    /// On `true`, advances the due point to the next interval boundary
    /// after `now_ns`, so each interval admits at most one sample.
    ///
    /// Pacing is per-rank and must be driven from the owning rank's
    /// thread (as with the tracer's ring buffers).
    pub fn should_sample(&self, rank: usize, now_ns: u64) -> bool {
        let due = &self.next_due[rank];
        if now_ns < due.load(Ordering::Relaxed) {
            return false;
        }
        // Next boundary strictly after `now_ns`, aligned to the interval
        // grid so runs of different lengths sample at the same timestamps.
        let next = (now_ns / self.interval_ns + 1) * self.interval_ns;
        due.store(next, Ordering::Relaxed);
        true
    }

    /// Append one point to `rank`'s track of the series `name`.
    pub fn record(&self, rank: usize, name: &str, t_ns: u64, value: f64) {
        let mut series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let tracks = series
            .entry(name.to_string())
            .or_insert_with(|| vec![Vec::new(); self.n_ranks]);
        tracks[rank].push(SeriesPoint { t_ns, value });
    }

    /// All non-empty tracks, sorted by series name then rank.
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        let series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for (name, tracks) in series.iter() {
            for (rank, points) in tracks.iter().enumerate() {
                if points.is_empty() {
                    continue;
                }
                out.push(SeriesSnapshot {
                    name: name.clone(),
                    rank: rank as u64,
                    points: points.clone(),
                });
            }
        }
        out
    }

    /// Total points across all tracks.
    pub fn total_points(&self) -> usize {
        let series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        series
            .values()
            .map(|tracks| tracks.iter().map(Vec::len).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_admits_one_sample_per_interval() {
        let ts = TimeSeriesSet::new(1, 100);
        assert!(ts.should_sample(0, 0));
        assert!(!ts.should_sample(0, 50)); // same interval
        assert!(!ts.should_sample(0, 99));
        assert!(ts.should_sample(0, 100)); // next interval
        assert!(ts.should_sample(0, 350)); // skipped intervals are fine
        assert!(!ts.should_sample(0, 399));
        assert!(ts.should_sample(0, 400));
    }

    #[test]
    fn pacing_is_per_rank() {
        let ts = TimeSeriesSet::new(2, 100);
        assert!(ts.should_sample(0, 10));
        assert!(ts.should_sample(1, 10)); // rank 1 unaffected by rank 0
        assert!(!ts.should_sample(1, 20));
    }

    #[test]
    fn snapshot_is_name_then_rank_ordered() {
        let ts = TimeSeriesSet::new(2, 100);
        ts.record(1, "zeta", 10, 1.0);
        ts.record(0, "alpha", 20, 2.0);
        ts.record(1, "alpha", 20, 3.0);
        let snap = ts.snapshot();
        let keys: Vec<(&str, u64)> = snap.iter().map(|s| (s.name.as_str(), s.rank)).collect();
        assert_eq!(keys, vec![("alpha", 0), ("alpha", 1), ("zeta", 1)]);
        assert_eq!(
            snap[0].points,
            vec![SeriesPoint {
                t_ns: 20,
                value: 2.0
            }]
        );
    }

    #[test]
    fn empty_tracks_are_omitted() {
        let ts = TimeSeriesSet::new(4, 100);
        ts.record(2, "only", 5, 9.0);
        let snap = ts.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].rank, 2);
        assert_eq!(ts.total_points(), 1);
    }

    #[test]
    fn points_keep_insertion_order() {
        let ts = TimeSeriesSet::new(1, 10);
        for t in [0u64, 10, 20, 30] {
            ts.record(0, "g", t, t as f64);
        }
        let snap = ts.snapshot();
        let ts_list: Vec<u64> = snap[0].points.iter().map(|p| p.t_ns).collect();
        assert_eq!(ts_list, vec![0, 10, 20, 30]);
    }
}
