//! Communication statistics.
//!
//! Two families of counters are maintained:
//!
//! * **Cumulative per-tag counters** — message count and byte volume per
//!   message tag, for the whole run. These are the quantities reported in the
//!   paper's Figure 4 (Type 1 / Type 2 / Type 2+ / Type 3 messages during the
//!   neighbor-check phase).
//! * **Per-rank phase counters** — compute nanoseconds charged and
//!   remote traffic (messages/bytes in and out) since the last barrier.
//!   The virtual clock consumes these at every barrier to advance simulated
//!   time by the phase makespan (see [`crate::cost`]).
//!
//! "Remote" traffic means `source != destination`; rank-local messages are
//! counted in the per-tag totals (they are real work for the handler) but do
//! not contribute network cost, mirroring shared-memory delivery inside one
//! node.
//!
//! Sends and compute charges are not written here one by one. Each rank
//! counts them in a private [`Tally`] and [`Stats::merge`]s it once per
//! barrier round, before the round's first wait; everything that reads
//! these counters (the clock's phase advance, the end-of-run report) runs
//! after that wait. Only the rare fault-path charges
//! ([`Stats::record_transport`], [`Stats::charge_fault`]) write directly.

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of distinct message tags a world supports.
pub const MAX_TAGS: usize = 64;

/// One tag's rank×rank traffic counts, row-major (`[src * n_ranks + dest]`).
///
/// The diagonal (rank-local sends) is included, so each tag's cells sum to
/// that tag's cumulative [`TagStats::count`] / [`TagStats::bytes`] — the
/// invariant the report layer asserts. Transport-level retransmits and
/// duplicates are *not* in the matrix, matching their exclusion from the
/// per-tag totals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TagMatrix {
    pub tag: u16,
    pub name: String,
    pub counts: Vec<u64>,
    pub bytes: Vec<u64>,
}

/// The full rank×rank×tag traffic matrix of a run; tags with no traffic
/// are omitted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrafficMatrix {
    pub n_ranks: usize,
    pub tags: Vec<TagMatrix>,
}

/// A snapshot of the cumulative counters for one message tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagStats {
    /// Total messages sent with this tag (local + remote).
    pub count: u64,
    /// Total payload + frame header bytes sent with this tag.
    pub bytes: u64,
    /// Messages sent to a different rank.
    pub remote_count: u64,
    /// Bytes sent to a different rank.
    pub remote_bytes: u64,
}

/// Per-rank counters accumulated between two barriers.
#[derive(Debug, Default)]
pub(crate) struct PhaseCounters {
    pub compute_ns: AtomicU64,
    pub msgs_out: AtomicU64,
    pub bytes_out: AtomicU64,
    pub msgs_in: AtomicU64,
    pub bytes_in: AtomicU64,
    /// Transport-level traffic (retransmits, duplicates) kept separate from
    /// the application counters so the critical-path analyzer can attribute
    /// retransmit time distinctly. The clock sums app + transport, so the
    /// split never changes phase totals.
    pub tr_msgs_out: AtomicU64,
    pub tr_bytes_out: AtomicU64,
    pub tr_msgs_in: AtomicU64,
    pub tr_bytes_in: AtomicU64,
    /// Virtual nanoseconds this rank lost to injected faults (frame delays,
    /// stalls) since the last barrier. Folded into the phase makespan's
    /// communication share so sim-time stays meaningful under fault runs.
    pub fault_ns: AtomicU64,
}

impl PhaseCounters {
    fn reset(&self) {
        self.compute_ns.store(0, Ordering::Relaxed);
        self.msgs_out.store(0, Ordering::Relaxed);
        self.bytes_out.store(0, Ordering::Relaxed);
        self.msgs_in.store(0, Ordering::Relaxed);
        self.bytes_in.store(0, Ordering::Relaxed);
        self.tr_msgs_out.store(0, Ordering::Relaxed);
        self.tr_bytes_out.store(0, Ordering::Relaxed);
        self.tr_msgs_in.store(0, Ordering::Relaxed);
        self.tr_bytes_in.store(0, Ordering::Relaxed);
        self.fault_ns.store(0, Ordering::Relaxed);
    }
}

/// One rank's sends and compute charges since its last [`Stats::merge`]:
/// plain integers, touched only by the owning rank's thread.
pub(crate) struct Tally {
    n_ranks: usize,
    /// Bit `t` set: tag `t` has a nonzero cell below.
    touched: u64,
    /// Messages / bytes (frame header included) per `[tag * n_ranks + dest]`.
    count: Box<[u64]>,
    bytes: Box<[u64]>,
    /// Virtual compute nanoseconds charged.
    pub(crate) compute_ns: u64,
}

impl Tally {
    pub(crate) fn new(n_ranks: usize) -> Self {
        Tally {
            n_ranks,
            touched: 0,
            count: vec![0; MAX_TAGS * n_ranks].into(),
            bytes: vec![0; MAX_TAGS * n_ranks].into(),
            compute_ns: 0,
        }
    }

    /// Count one message sent to `dest`. `bytes` includes the frame header.
    #[inline]
    pub(crate) fn add_send(&mut self, tag: u16, dest: usize, bytes: usize) {
        assert!(
            (tag as usize) < MAX_TAGS,
            "message tag {tag} out of range (MAX_TAGS = {MAX_TAGS})"
        );
        self.touched |= 1 << tag;
        let cell = tag as usize * self.n_ranks + dest;
        self.count[cell] += 1;
        self.bytes[cell] += bytes as u64;
    }
}

/// Shared statistics block for a world. All methods are thread-safe; updates
/// are relaxed atomics, issued per barrier round rather than per message.
pub struct Stats {
    n_ranks: usize,
    tag_count: Box<[CachePadded<AtomicU64>]>,
    tag_bytes: Box<[CachePadded<AtomicU64>]>,
    tag_remote_count: Box<[CachePadded<AtomicU64>]>,
    tag_remote_bytes: Box<[CachePadded<AtomicU64>]>,
    /// Rank×rank×tag traffic cells, `(tag * n + src) * n + dest`. Flat
    /// unpadded atomics: each (tag, src) row is written by one rank only,
    /// so false sharing is bounded and the `MAX_TAGS · n²` footprint stays
    /// small.
    matrix_count: Box<[AtomicU64]>,
    matrix_bytes: Box<[AtomicU64]>,
    tag_names: Mutex<HashMap<u16, String>>,
    /// One past the highest tag index ever used (sent, registered, or
    /// named). Lets full-table scans stop at the tags actually in play
    /// instead of walking all `MAX_TAGS` slots.
    tag_high_water: CachePadded<AtomicU64>,
    pub(crate) phase: Box<[CachePadded<PhaseCounters>]>,
}

fn atomic_array(n: usize) -> Box<[CachePadded<AtomicU64>]> {
    (0..n)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect()
}

impl Stats {
    pub(crate) fn new(n_ranks: usize) -> Self {
        let cells = MAX_TAGS * n_ranks * n_ranks;
        Stats {
            n_ranks,
            tag_count: atomic_array(MAX_TAGS),
            tag_bytes: atomic_array(MAX_TAGS),
            tag_remote_count: atomic_array(MAX_TAGS),
            tag_remote_bytes: atomic_array(MAX_TAGS),
            matrix_count: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            matrix_bytes: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            tag_names: Mutex::new(HashMap::new()),
            tag_high_water: CachePadded::new(AtomicU64::new(0)),
            phase: (0..n_ranks)
                .map(|_| CachePadded::new(PhaseCounters::default()))
                .collect(),
        }
    }

    /// Record that `tag` is in play, bumping the high-water mark. Called at
    /// handler registration, tag naming, and when a merge carries the tag.
    pub(crate) fn mark_tag_used(&self, tag: u16) {
        assert!(
            (tag as usize) < MAX_TAGS,
            "message tag {tag} out of range (MAX_TAGS = {MAX_TAGS})"
        );
        self.tag_high_water
            .fetch_max(tag as u64 + 1, Ordering::Relaxed);
    }

    /// One past the highest tag index in use.
    fn high_water(&self) -> usize {
        self.tag_high_water.load(Ordering::Relaxed) as usize
    }

    /// Fold everything rank `src` counted in `tally` into the cumulative
    /// per-tag counters, the traffic matrix and the current phase, and leave
    /// `tally` zeroed; returns how many messages that was. The one place a
    /// sent message is accounted.
    pub(crate) fn merge(&self, src: usize, tally: &mut Tally) -> u64 {
        let n = self.n_ranks;
        let mut merged = 0;
        let mut touched = std::mem::take(&mut tally.touched);
        while touched != 0 {
            let t = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            self.mark_tag_used(t as u16);
            for dest in 0..n {
                let count = std::mem::take(&mut tally.count[t * n + dest]);
                if count == 0 {
                    continue;
                }
                let bytes = std::mem::take(&mut tally.bytes[t * n + dest]);
                merged += count;
                self.tag_count[t].fetch_add(count, Ordering::Relaxed);
                self.tag_bytes[t].fetch_add(bytes, Ordering::Relaxed);
                let cell = (t * n + src) * n + dest;
                self.matrix_count[cell].fetch_add(count, Ordering::Relaxed);
                self.matrix_bytes[cell].fetch_add(bytes, Ordering::Relaxed);
                if src != dest {
                    self.tag_remote_count[t].fetch_add(count, Ordering::Relaxed);
                    self.tag_remote_bytes[t].fetch_add(bytes, Ordering::Relaxed);
                    let ps = &self.phase[src];
                    ps.msgs_out.fetch_add(count, Ordering::Relaxed);
                    ps.bytes_out.fetch_add(bytes, Ordering::Relaxed);
                    let pd = &self.phase[dest];
                    pd.msgs_in.fetch_add(count, Ordering::Relaxed);
                    pd.bytes_in.fetch_add(bytes, Ordering::Relaxed);
                }
            }
        }
        let compute_ns = std::mem::take(&mut tally.compute_ns);
        if compute_ns > 0 {
            self.phase[src]
                .compute_ns
                .fetch_add(compute_ns, Ordering::Relaxed);
        }
        merged
    }

    /// Record transport-level traffic (a retransmitted or duplicated frame)
    /// in the transport phase counters only: it consumes link capacity and so
    /// must charge virtual time, but it is not application traffic and must
    /// not distort the per-tag message statistics. The clock folds these into
    /// the same makespan as application traffic; keeping them in their own
    /// cells lets the critical-path analyzer attribute retransmit time.
    #[inline]
    pub(crate) fn record_transport(&self, src: usize, dest: usize, bytes: usize) {
        if src == dest {
            return;
        }
        let ps = &self.phase[src];
        ps.tr_msgs_out.fetch_add(1, Ordering::Relaxed);
        ps.tr_bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
        let pd = &self.phase[dest];
        pd.tr_msgs_in.fetch_add(1, Ordering::Relaxed);
        pd.tr_bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Charge `ns` nanoseconds of injected-fault time (delay, stall) to
    /// `rank`'s current phase.
    #[inline]
    pub(crate) fn charge_fault(&self, rank: usize, ns: u64) {
        self.phase[rank].fault_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn reset_phase(&self) {
        for p in self.phase.iter() {
            p.reset();
        }
    }

    /// Give a human-readable name to a tag for reports.
    pub fn name_tag(&self, tag: u16, name: &str) {
        self.mark_tag_used(tag);
        self.tag_names.lock().insert(tag, name.to_owned());
    }

    /// The registered name of `tag`, or `"tag<N>"`.
    pub fn tag_name(&self, tag: u16) -> String {
        self.tag_names
            .lock()
            .get(&tag)
            .cloned()
            .unwrap_or_else(|| format!("tag{tag}"))
    }

    /// Cumulative counters for one tag.
    pub fn tag(&self, tag: u16) -> TagStats {
        let t = tag as usize;
        TagStats {
            count: self.tag_count[t].load(Ordering::Relaxed),
            bytes: self.tag_bytes[t].load(Ordering::Relaxed),
            remote_count: self.tag_remote_count[t].load(Ordering::Relaxed),
            remote_bytes: self.tag_remote_bytes[t].load(Ordering::Relaxed),
        }
    }

    /// Sum of all per-tag counters.
    pub fn total(&self) -> TagStats {
        let mut out = TagStats::default();
        for t in 0..self.high_water() as u16 {
            let s = self.tag(t);
            out.count += s.count;
            out.bytes += s.bytes;
            out.remote_count += s.remote_count;
            out.remote_bytes += s.remote_bytes;
        }
        out
    }

    /// All tags that have recorded at least one message, with names.
    pub fn nonzero_tags(&self) -> Vec<(u16, String, TagStats)> {
        (0..self.high_water() as u16)
            .filter_map(|t| {
                let s = self.tag(t);
                (s.count > 0).then(|| (t, self.tag_name(t), s))
            })
            .collect()
    }

    /// Snapshot the rank×rank traffic matrix for every tag that has sent
    /// at least one message.
    pub fn matrix(&self) -> TrafficMatrix {
        let n = self.n_ranks;
        let mut tags = Vec::new();
        for t in 0..self.high_water() {
            if self.tag_count[t].load(Ordering::Relaxed) == 0 {
                continue;
            }
            let base = t * n * n;
            let load = |cells: &[AtomicU64]| -> Vec<u64> {
                cells[base..base + n * n]
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect()
            };
            tags.push(TagMatrix {
                tag: t as u16,
                name: self.tag_name(t as u16),
                counts: load(&self.matrix_count),
                bytes: load(&self.matrix_bytes),
            });
        }
        TrafficMatrix { n_ranks: n, tags }
    }
}

/// Test helper shared with `cost`'s unit tests: account one message
/// `src -> dest` of `bytes` bytes through a one-entry [`Tally`] merge.
#[cfg(test)]
pub(crate) fn merge_one(stats: &Stats, tag: u16, bytes: usize, src: usize, dest: usize) {
    let mut tally = Tally::new(stats.n_ranks);
    tally.add_send(tag, dest, bytes);
    stats.merge(src, &mut tally);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_per_tag() {
        let s = Stats::new(4);
        merge_one(&s, 3, 100, 0, 1);
        merge_one(&s, 3, 50, 1, 1); // local: no remote accounting
        merge_one(&s, 5, 10, 2, 3);
        let t3 = s.tag(3);
        assert_eq!(t3.count, 2);
        assert_eq!(t3.bytes, 150);
        assert_eq!(t3.remote_count, 1);
        assert_eq!(t3.remote_bytes, 100);
        let total = s.total();
        assert_eq!(total.count, 3);
        assert_eq!(total.bytes, 160);
    }

    #[test]
    fn phase_counters_track_in_and_out() {
        let s = Stats::new(2);
        merge_one(&s, 0, 64, 0, 1);
        assert_eq!(s.phase[0].msgs_out.load(Ordering::Relaxed), 1);
        assert_eq!(s.phase[0].bytes_out.load(Ordering::Relaxed), 64);
        assert_eq!(s.phase[1].msgs_in.load(Ordering::Relaxed), 1);
        assert_eq!(s.phase[1].bytes_in.load(Ordering::Relaxed), 64);
        s.reset_phase();
        assert_eq!(s.phase[0].msgs_out.load(Ordering::Relaxed), 0);
        assert_eq!(s.phase[1].bytes_in.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn transport_traffic_lands_in_its_own_cells() {
        let s = Stats::new(2);
        merge_one(&s, 0, 64, 0, 1);
        s.record_transport(0, 1, 100); // retransmit of the same frame
        s.record_transport(1, 1, 999); // local: ignored entirely
        assert_eq!(s.phase[0].msgs_out.load(Ordering::Relaxed), 1);
        assert_eq!(s.phase[0].bytes_out.load(Ordering::Relaxed), 64);
        assert_eq!(s.phase[0].tr_msgs_out.load(Ordering::Relaxed), 1);
        assert_eq!(s.phase[0].tr_bytes_out.load(Ordering::Relaxed), 100);
        assert_eq!(s.phase[1].tr_msgs_in.load(Ordering::Relaxed), 1);
        assert_eq!(s.phase[1].tr_bytes_in.load(Ordering::Relaxed), 100);
        s.reset_phase();
        assert_eq!(s.phase[0].tr_msgs_out.load(Ordering::Relaxed), 0);
        assert_eq!(s.phase[1].tr_bytes_in.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn tag_names_default_and_custom() {
        let s = Stats::new(1);
        assert_eq!(s.tag_name(7), "tag7");
        s.name_tag(7, "type1_check");
        assert_eq!(s.tag_name(7), "type1_check");
    }

    #[test]
    fn nonzero_tags_lists_only_used() {
        let s = Stats::new(2);
        merge_one(&s, 1, 8, 0, 1);
        merge_one(&s, 4, 8, 0, 1);
        let tags: Vec<u16> = s.nonzero_tags().into_iter().map(|(t, _, _)| t).collect();
        assert_eq!(tags, vec![1, 4]);
    }

    #[test]
    fn high_water_bounds_scans() {
        let s = Stats::new(2);
        assert_eq!(s.high_water(), 0);
        merge_one(&s, 5, 8, 0, 1);
        assert_eq!(s.high_water(), 6);
        s.name_tag(9, "late"); // naming alone also raises the mark
        assert_eq!(s.high_water(), 10);
        merge_one(&s, 2, 8, 0, 1);
        assert_eq!(s.high_water(), 10); // monotone
        assert_eq!(s.total().count, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tag_is_a_hard_error() {
        let s = Stats::new(1);
        merge_one(&s, MAX_TAGS as u16, 8, 0, 0);
    }

    #[test]
    fn matrix_cells_track_edges_including_diagonal() {
        let s = Stats::new(3);
        merge_one(&s, 2, 100, 0, 1);
        merge_one(&s, 2, 40, 0, 1);
        merge_one(&s, 2, 7, 1, 1); // local send lands on the diagonal
        merge_one(&s, 4, 9, 2, 0);
        let m = s.matrix();
        assert_eq!(m.n_ranks, 3);
        assert_eq!(m.tags.len(), 2);
        let t2 = &m.tags[0];
        assert_eq!(t2.tag, 2);
        assert_eq!(t2.counts, vec![0, 2, 0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(t2.bytes, vec![0, 140, 0, 0, 7, 0, 0, 0, 0]);
        assert_eq!(m.tags[1].counts[2 * 3], 1); // tag 4: (src 2, dest 0)
    }

    #[test]
    fn matrix_sums_equal_tag_totals() {
        // The invariant the report layer relies on: per-tag cell sums equal
        // the cumulative tag counters, and transport traffic stays out.
        let s = Stats::new(2);
        merge_one(&s, 1, 100, 0, 1);
        merge_one(&s, 1, 50, 1, 0);
        merge_one(&s, 1, 25, 0, 0);
        s.record_transport(0, 1, 999); // retransmit: phase counters only
        let m = s.matrix();
        let t1 = &m.tags[0];
        assert_eq!(t1.counts.iter().sum::<u64>(), s.tag(1).count);
        assert_eq!(t1.bytes.iter().sum::<u64>(), s.tag(1).bytes);
        assert_eq!(t1.bytes.iter().sum::<u64>(), 175);
        // Off-diagonal cells sum to the remote counters.
        let remote_bytes: u64 = (0..2)
            .flat_map(|s_| (0..2).map(move |d| (s_, d)))
            .filter(|(s_, d)| s_ != d)
            .map(|(s_, d)| t1.bytes[s_ * 2 + d])
            .sum();
        assert_eq!(remote_bytes, s.tag(1).remote_bytes);
    }

    #[test]
    fn merge_drains_the_tally_and_batches_a_whole_round() {
        // Many sends to several destinations and a compute charge fold in
        // as one merge; a second merge of the now-empty tally adds nothing.
        let s = Stats::new(3);
        let mut t = Tally::new(3);
        for _ in 0..5 {
            t.add_send(2, 1, 10);
        }
        t.add_send(2, 0, 7); // rank-local for src 0
        t.add_send(6, 2, 100);
        t.compute_ns += 900;
        assert_eq!(s.merge(0, &mut t), 7);
        assert_eq!(s.merge(0, &mut t), 0);
        assert_eq!(s.tag(2).count, 6);
        assert_eq!(s.tag(2).bytes, 57);
        assert_eq!(s.tag(2).remote_count, 5);
        assert_eq!(s.tag(6).remote_bytes, 100);
        assert_eq!(s.phase[0].msgs_out.load(Ordering::Relaxed), 6);
        assert_eq!(s.phase[0].bytes_out.load(Ordering::Relaxed), 150);
        assert_eq!(s.phase[1].msgs_in.load(Ordering::Relaxed), 5);
        assert_eq!(s.phase[2].bytes_in.load(Ordering::Relaxed), 100);
        assert_eq!(s.phase[0].compute_ns.load(Ordering::Relaxed), 900);
        assert_eq!(s.matrix().tags[0].counts, vec![1, 5, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn compute_charge_accumulates_across_merges() {
        let s = Stats::new(2);
        let mut t = Tally::new(2);
        t.compute_ns += 500;
        s.merge(1, &mut t);
        t.compute_ns += 250;
        s.merge(1, &mut t);
        assert_eq!(s.phase[1].compute_ns.load(Ordering::Relaxed), 750);
    }
}
