//! The [`Tracer`]: what each rank records — spans and events, named
//! histograms, gauge series — in a slot of its own, added up at export.

use crate::hist::Histogram;
use crate::ring::{EventKind, Ring, TraceEvent};
use crate::timeseries::{RankSeries, SeriesSnapshot};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Default per-rank event capacity (events beyond this overwrite the
/// oldest; the drop count is reported in the Chrome trace).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// What one rank has recorded: plain data, written by that rank alone.
struct RankTrace {
    ring: Ring,
    /// Named histograms, in the order this rank first used the names.
    hists: Vec<(String, Histogram)>,
    series: RankSeries,
}

/// Collects spans, instants, histograms and gauges for one simulated run.
///
/// Shared across rank threads behind an `Arc`. Every recording call names a
/// rank and touches that rank's slot only, under the slot's own lock: the
/// rank's thread is the one taker while the run lasts (the `ygm::World`
/// wiring guarantees this), so the lock is never waited for, and the export
/// that reads every slot afterwards needs no word about thread joins.
///
/// A tracer of span capacity 0 records histograms and gauge series only: a
/// span or event call returns before it reads the clock or takes a lock.
/// That is the tracer of a run that writes a report and no trace.
pub struct Tracer {
    slots: Box<[Mutex<RankTrace>]>,
    /// Events each rank's ring holds; 0 records no events at all.
    span_capacity: usize,
    epoch: Instant,
    /// Tag id → display name, used to label flow arrows in exports.
    tag_names: Mutex<Vec<(u64, String)>>,
}

impl Tracer {
    pub fn new(n_ranks: usize) -> Self {
        Self::with_capacity(n_ranks, DEFAULT_RING_CAPACITY)
    }

    pub fn with_capacity(n_ranks: usize, capacity_per_rank: usize) -> Self {
        let slot = || {
            Mutex::new(RankTrace {
                ring: Ring::new(capacity_per_rank),
                hists: Vec::new(),
                series: RankSeries::default(),
            })
        };
        Tracer {
            slots: (0..n_ranks).map(|_| slot()).collect(),
            span_capacity: capacity_per_rank,
            epoch: Instant::now(),
            tag_names: Mutex::new(Vec::new()),
        }
    }

    /// Attach a display name to a message tag; flow arrows for the tag are
    /// exported under this name. Last write wins.
    pub fn name_tag(&self, tag: u64, name: &str) {
        let mut names = self.tag_names.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, n)) = names.iter_mut().find(|(t, _)| *t == tag) {
            *n = name.to_string();
        } else {
            names.push((tag, name.to_string()));
        }
    }

    /// The display name registered for `tag`, if any.
    pub fn tag_name(&self, tag: u64) -> Option<String> {
        let names = self.tag_names.lock().unwrap_or_else(|e| e.into_inner());
        names
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, n)| n.clone())
    }

    pub fn n_ranks(&self) -> usize {
        self.slots.len()
    }

    fn slot(&self, rank: usize) -> MutexGuard<'_, RankTrace> {
        self.slots[rank].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wall nanoseconds since this tracer was created.
    #[inline]
    pub fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a raw event on `rank`'s track. `virt_ns` is the simulation
    /// clock sampled by the caller.
    #[inline]
    pub fn event(&self, rank: usize, kind: EventKind, name: &'static str, virt_ns: u64, arg: u64) {
        self.event2(rank, kind, name, virt_ns, arg, 0);
    }

    /// Record a raw event carrying both numeric payload slots.
    #[inline]
    pub fn event2(
        &self,
        rank: usize,
        kind: EventKind,
        name: &'static str,
        virt_ns: u64,
        arg: u64,
        arg2: u64,
    ) {
        if self.span_capacity == 0 {
            return;
        }
        let wall_ns = self.wall_ns();
        self.slot(rank).ring.push(TraceEvent {
            kind,
            name,
            wall_ns,
            virt_ns,
            arg,
            arg2,
        });
    }

    /// Open a span on `rank`'s track.
    #[inline]
    pub fn begin(&self, rank: usize, name: &'static str, virt_ns: u64) {
        self.event(rank, EventKind::Begin, name, virt_ns, 0);
    }

    /// Open a span carrying a numeric payload (e.g. an iteration index).
    #[inline]
    pub fn begin_arg(&self, rank: usize, name: &'static str, virt_ns: u64, arg: u64) {
        self.event(rank, EventKind::Begin, name, virt_ns, arg);
    }

    /// Close the most recent unmatched span with `name` on `rank`'s track.
    #[inline]
    pub fn end(&self, rank: usize, name: &'static str, virt_ns: u64) {
        self.event(rank, EventKind::End, name, virt_ns, 0);
    }

    /// Record a zero-duration point event.
    #[inline]
    pub fn instant(&self, rank: usize, name: &'static str, virt_ns: u64, arg: u64) {
        self.event(rank, EventKind::Instant, name, virt_ns, arg);
    }

    /// Record the origin half of a causal flow arrow (`ph:"s"`).
    #[inline]
    pub fn flow_send(&self, rank: usize, name: &'static str, virt_ns: u64, id: u64, tag: u64) {
        self.event2(rank, EventKind::FlowSend, name, virt_ns, id, tag);
    }

    /// Record the terminating half of a causal flow arrow (`ph:"f"`).
    #[inline]
    pub fn flow_recv(&self, rank: usize, name: &'static str, virt_ns: u64, id: u64, tag: u64) {
        self.event2(rank, EventKind::FlowRecv, name, virt_ns, id, tag);
    }

    /// Open an async (nestable) span (`ph:"b"`). `id` pairs it with the
    /// matching [`Self::async_end`]; overlapping spans on one track are
    /// fine — Chrome matches on `(category, id, name)`, not nesting.
    #[inline]
    pub fn async_begin(&self, rank: usize, name: &'static str, virt_ns: u64, id: u64) {
        self.event2(rank, EventKind::AsyncBegin, name, virt_ns, id, 0);
    }

    /// Close the async span opened with the same `(name, id)` (`ph:"e"`).
    #[inline]
    pub fn async_end(&self, rank: usize, name: &'static str, virt_ns: u64, id: u64) {
        self.event2(rank, EventKind::AsyncEnd, name, virt_ns, id, 0);
    }

    /// One sample into `rank`'s histogram named `name`.
    pub fn record_hist(&self, rank: usize, name: &str, value: u64) {
        let mut slot = self.slot(rank);
        let hists = &mut slot.hists;
        let at = hists.iter().position(|(n, _)| n == name);
        let at = at.unwrap_or_else(|| {
            hists.push((name.to_string(), Histogram::new()));
            hists.len() - 1
        });
        hists[at].1.record(value);
    }

    /// Every named histogram, each the sum of the ranks' own
    /// ([`Histogram::merge`]), in rank 0's first-use order followed by the
    /// names only later ranks used: a function of what each rank recorded,
    /// not of which thread got anywhere first.
    pub fn hist_snapshots(&self) -> Vec<(String, Histogram)> {
        let mut out: Vec<(String, Histogram)> = Vec::new();
        for rank in 0..self.n_ranks() {
            for (name, h) in &self.slot(rank).hists {
                match out.iter_mut().find(|(n, _)| n == name) {
                    Some((_, sum)) => sum.merge(h),
                    None => out.push((name.clone(), h.clone())),
                }
            }
        }
        out
    }

    /// Whether `rank`'s paced gauge sample is due at virtual time `now_ns`
    /// (see [`RankSeries::should_sample`]).
    pub fn should_sample(&self, rank: usize, now_ns: u64) -> bool {
        self.slot(rank).series.should_sample(now_ns)
    }

    /// Append one point to `rank`'s track of the gauge series `name`.
    pub fn gauge(&self, rank: usize, name: &str, t_ns: u64, value: f64) {
        self.slot(rank).series.record(name, t_ns, value);
    }

    /// Every gauge track, sorted by series name then rank.
    pub fn series_snapshot(&self) -> Vec<SeriesSnapshot> {
        let mut out: Vec<SeriesSnapshot> = Vec::new();
        for rank in 0..self.n_ranks() {
            out.extend(self.slot(rank).series.snapshot(rank));
        }
        // Stable, and ranks were visited in order.
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Surviving events for one rank, oldest first.
    pub fn events(&self, rank: usize) -> Vec<TraceEvent> {
        self.slot(rank).ring.ordered()
    }

    /// Total events lost to ring wrap-around, across ranks.
    pub fn dropped_events(&self) -> usize {
        self.dropped_events_per_rank().iter().sum::<u64>() as usize
    }

    /// Events lost to ring wrap-around on each rank's ring (index = rank),
    /// so an overflowing rank is visible in the trace, not just a total.
    pub fn dropped_events_per_rank(&self) -> Vec<u64> {
        (0..self.n_ranks())
            .map(|r| self.slot(r).ring.dropped() as u64)
            .collect()
    }

    /// Total events recorded (including any later overwritten).
    pub fn total_events(&self) -> usize {
        (0..self.n_ranks())
            .map(|r| self.slot(r).ring.pushed())
            .sum()
    }

    /// Deterministic digest of the span structure: for each rank, the
    /// sequence of `(kind, name, virt_ns, arg)` with wall time omitted.
    /// Two runs with the same seed must produce identical span logs.
    pub fn span_log(&self) -> Vec<Vec<(EventKind, &'static str, u64, u64)>> {
        (0..self.n_ranks())
            .map(|r| {
                self.events(r)
                    .into_iter()
                    .map(|e| (e.kind, e.name, e.virt_ns, e.arg))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_per_rank() {
        let t = Tracer::new(2);
        t.begin(0, "phase", 100);
        t.instant(1, "tick", 100, 7);
        t.end(0, "phase", 250);
        let r0 = t.events(0);
        assert_eq!(r0.len(), 2);
        assert_eq!(r0[0].kind, EventKind::Begin);
        assert_eq!(r0[1].kind, EventKind::End);
        assert_eq!(r0[1].virt_ns, 250);
        assert!(r0[1].wall_ns >= r0[0].wall_ns);
        let r1 = t.events(1);
        assert_eq!(r1.len(), 1);
        assert_eq!((r1[0].name, r1[0].arg), ("tick", 7));
    }

    #[test]
    fn hist_registry_is_stable() {
        let t = Tracer::new(1);
        t.record_hist(0, "flush_bytes", 10);
        t.record_hist(0, "batch", 5);
        t.record_hist(0, "flush_bytes", 30);
        let snaps = t.hist_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, "flush_bytes");
        assert_eq!(snaps[0].1.count, 2);
        assert_eq!(snaps[1].1.count, 1);
    }

    #[test]
    fn hist_order_is_rank_0s_first_use_then_later_ranks_new_names() {
        let t = Tracer::new(3);
        // Recorded in an order no export may follow: rank 2 first.
        t.record_hist(2, "only_r2", 1);
        t.record_hist(2, "b", 2);
        t.record_hist(1, "only_r1", 3);
        t.record_hist(1, "a", 4);
        t.record_hist(0, "b", 5);
        t.record_hist(0, "a", 6);
        let snaps = t.hist_snapshots();
        let names: Vec<&str> = snaps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["b", "a", "only_r1", "only_r2"]);
        assert_eq!((snaps[0].1.count, snaps[0].1.sum), (2, 7));
        assert_eq!((snaps[1].1.min, snaps[1].1.max), (4, 6));
    }

    /// What rank `r` records in the concurrency test below.
    fn record_rank(t: &Tracer, r: usize) {
        for i in 0..2_000u64 {
            t.begin_arg(r, "work", i, r as u64);
            t.record_hist(r, "shared", i * (r as u64 + 1));
            t.record_hist(r, ["even", "odd"][r % 2], i);
            if t.should_sample(r, i * 100) {
                t.gauge(r, "paced", i * 100, i as f64);
            }
            t.gauge(r, ["g_even", "g_odd"][r % 2], i, (i + r as u64) as f64);
            t.end(r, "work", i + 1);
        }
    }

    #[test]
    fn ranks_recording_at_once_equal_the_single_threaded_reference() {
        // The ring holds 4 000 events a rank, so the overwrite path runs too.
        let (threaded, reference) = (
            Tracer::with_capacity(4, 3_000),
            Tracer::with_capacity(4, 3_000),
        );
        std::thread::scope(|s| {
            for r in 0..4 {
                let t = &threaded;
                s.spawn(move || record_rank(t, r));
            }
        });
        for r in 0..4 {
            record_rank(&reference, r);
        }
        assert_eq!(threaded.span_log(), reference.span_log());
        assert_eq!(threaded.events(3).len(), 3_000);
        assert_eq!(threaded.dropped_events(), 4 * 1_000);
        assert_eq!(threaded.total_events(), reference.total_events());
        assert_eq!(threaded.hist_snapshots(), reference.hist_snapshots());
        assert_eq!(threaded.hist_snapshots()[0].1.count, 8_000);
        assert_eq!(threaded.series_snapshot(), reference.series_snapshot());
    }

    #[test]
    fn zero_span_capacity_records_only_histograms_and_series() {
        let (spanless, full) = (Tracer::with_capacity(4, 0), Tracer::new(4));
        for t in [&spanless, &full] {
            for r in 0..4 {
                record_rank(t, r);
            }
        }
        assert_eq!((spanless.total_events(), spanless.dropped_events()), (0, 0));
        assert!(spanless.events(2).is_empty());
        assert_eq!(spanless.hist_snapshots(), full.hist_snapshots());
        assert_eq!(spanless.series_snapshot(), full.series_snapshot());
    }

    #[test]
    fn pacing_is_per_rank() {
        let t = Tracer::new(2);
        assert!(t.should_sample(0, 10));
        assert!(t.should_sample(1, 10)); // rank 1 unaffected by rank 0
        assert!(!t.should_sample(1, 20));
    }

    #[test]
    fn series_snapshot_is_name_then_rank_ordered_without_empty_tracks() {
        let t = Tracer::new(4);
        t.gauge(3, "zeta", 10, 1.0);
        t.gauge(2, "alpha", 20, 2.0);
        t.gauge(3, "alpha", 20, 3.0);
        let snap = t.series_snapshot();
        let keys: Vec<(&str, u64)> = snap.iter().map(|s| (s.name.as_str(), s.rank)).collect();
        assert_eq!(keys, vec![("alpha", 2), ("alpha", 3), ("zeta", 3)]);
        assert_eq!(snap[0].points.len(), 1);
        assert_eq!((snap[0].points[0].t_ns, snap[0].points[0].value), (20, 2.0));
    }

    #[test]
    fn flow_events_carry_id_and_tag() {
        let t = Tracer::new(2);
        t.flow_send(0, "flow", 10, 0xABCD, 14);
        t.flow_recv(1, "flow", 20, 0xABCD, 14);
        let s = t.events(0);
        assert_eq!(s[0].kind, EventKind::FlowSend);
        assert_eq!((s[0].arg, s[0].arg2), (0xABCD, 14));
        let r = t.events(1);
        assert_eq!(r[0].kind, EventKind::FlowRecv);
        assert_eq!((r[0].arg, r[0].arg2), (0xABCD, 14));
    }

    #[test]
    fn tag_names_register_and_overwrite() {
        let t = Tracer::new(1);
        assert_eq!(t.tag_name(14), None);
        t.name_tag(14, "Type 1");
        t.name_tag(15, "Type 2");
        t.name_tag(14, "Type 1b");
        assert_eq!(t.tag_name(14).as_deref(), Some("Type 1b"));
        assert_eq!(t.tag_name(15).as_deref(), Some("Type 2"));
    }

    #[test]
    fn span_log_omits_wall_time() {
        let t = Tracer::new(1);
        t.begin_arg(0, "iter", 0, 3);
        t.end(0, "iter", 1_000);
        let log = t.span_log();
        assert_eq!(
            log[0],
            vec![
                (EventKind::Begin, "iter", 0, 3),
                (EventKind::End, "iter", 1_000, 0)
            ]
        );
    }

    proptest::proptest! {
        /// Samples split at random across ranks — some ranks get none —
        /// merge to what one recorder of all of them holds.
        #[test]
        fn split_samples_merge_to_the_one_recorder_snapshot(
            samples in proptest::collection::vec(
                (0usize..5, proptest::prelude::any::<u64>(), 0u32..64),
                0..200,
            ),
        ) {
            let (split, one) = (Tracer::new(5), Tracer::new(1));
            for &(rank, bits, shift) in &samples {
                // Every magnitude, so every bucket range is hit.
                let v = bits >> shift;
                split.record_hist(rank, "h", v);
                one.record_hist(0, "h", v);
            }
            proptest::prop_assert_eq!(split.hist_snapshots(), one.hist_snapshots());
        }
    }
}
