//! Continuous telemetry: per-rank gauge time series sampled on the
//! virtual clock.
//!
//! A [`RankSeries`] holds one rank's named series, each point `(virtual
//! time ns, value)`, inside that rank's slot of the
//! [`Tracer`](crate::tracer::Tracer). Sampling is *paced* by virtual time:
//! callers ask [`RankSeries::should_sample`] (through
//! `Tracer::should_sample`) at natural probe points (barrier entry in
//! `ygm`), which admits at most one sample per fixed virtual-time interval. Because the virtual clock is a deterministic
//! function of the run (it only advances at barriers and collectives, by
//! modeled cost), the sampled series are bit-identical across reruns with
//! the same seed — they carry no wall-clock input.
//!
//! Event-driven gauges (e.g. per-iteration heap updates) bypass pacing and
//! go straight to [`RankSeries::record`] (`Tracer::gauge`); they are
//! deterministic because their trigger points are.

use crate::report::{report_struct, List, Val};
use std::collections::BTreeMap;

/// Sampling interval: 10 µs of virtual time. Barrier phases in the
/// simulated cluster cost tens of microseconds each, so even small runs
/// produce a usable number of samples without flooding large ones.
pub const SAMPLE_INTERVAL_NS: u64 = 10_000;

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

/// One rank's gauge series and its pacing point.
#[derive(Default)]
pub struct RankSeries {
    /// Next virtual timestamp at which the paced sample is due.
    next_due: u64,
    tracks: BTreeMap<String, Vec<SeriesPoint>>,
}

impl RankSeries {
    /// Whether the paced sample is due at virtual time `now_ns`. On `true`,
    /// advances the due point to the next boundary after `now_ns` of the
    /// [`SAMPLE_INTERVAL_NS`] grid, so each interval admits at most one
    /// sample and runs of different lengths sample at the same timestamps.
    pub fn should_sample(&mut self, now_ns: u64) -> bool {
        if now_ns < self.next_due {
            return false;
        }
        self.next_due = (now_ns / SAMPLE_INTERVAL_NS + 1) * SAMPLE_INTERVAL_NS;
        true
    }

    /// Append one point to the series `name`.
    pub fn record(&mut self, name: &str, t_ns: u64, value: f64) {
        let point = SeriesPoint { t_ns, value };
        if let Some(points) = self.tracks.get_mut(name) {
            points.push(point);
        } else {
            self.tracks.insert(name.to_string(), vec![point]);
        }
    }

    /// Every series of this rank, which is `rank`, in name order.
    pub fn snapshot(&self, rank: usize) -> impl Iterator<Item = SeriesSnapshot> + '_ {
        self.tracks
            .iter()
            .map(move |(name, points)| SeriesSnapshot {
                name: name.clone(),
                rank: rank as u64,
                points: points.clone(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_admits_one_sample_per_interval() {
        let mut s = RankSeries::default();
        assert!(s.should_sample(0));
        assert!(!s.should_sample(5_000)); // same interval
        assert!(!s.should_sample(9_999));
        assert!(s.should_sample(10_000)); // next interval
        assert!(s.should_sample(35_000)); // skipped intervals are fine
        assert!(!s.should_sample(39_999));
        assert!(s.should_sample(40_000));
    }

    #[test]
    fn points_keep_insertion_order_and_series_are_name_ordered() {
        let mut s = RankSeries::default();
        for t in [0u64, 10, 20, 30] {
            s.record("g", t, t as f64);
        }
        s.record("a", 5, 9.0);
        let snap: Vec<SeriesSnapshot> = s.snapshot(2).collect();
        assert_eq!((snap[0].name.as_str(), snap[0].rank), ("a", 2));
        assert_eq!(
            snap[0].points,
            vec![SeriesPoint {
                t_ns: 5,
                value: 9.0
            }]
        );
        let ts_list: Vec<u64> = snap[1].points.iter().map(|p| p.t_ns).collect();
        assert_eq!(ts_list, vec![0, 10, 20, 30]);
    }
}
