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
//! Nothing is written here one event at a time. Each rank counts its sends,
//! compute charges, retransmitted frames and fault time in a private
//! [`Tally`]; the world's [`Stats`] are plain integers inside the rendezvous
//! (`crate::world`) and change only by [`Stats::merge`], under its mutex,
//! when the rank arrives at a meeting.

use crate::fault::FaultCounters;
use obs::{MatrixSection, MatrixTagReport};
use std::collections::HashMap;

/// Maximum number of distinct message tags a world supports.
pub const MAX_TAGS: usize = 64;

/// Panic unless `tag` is one a world can carry. A real panic, not a debug
/// assertion: registration and the first send are where a bad tag enters.
pub(crate) fn check_tag(tag: u16) {
    assert!(
        (tag as usize) < MAX_TAGS,
        "message tag {tag} out of range (MAX_TAGS = {MAX_TAGS})"
    );
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
    pub compute_ns: u64,
    pub msgs_out: u64,
    pub bytes_out: u64,
    pub msgs_in: u64,
    pub bytes_in: u64,
    /// Transport-level traffic (retransmits, duplicates) kept separate from
    /// the application counters so the critical-path analyzer can attribute
    /// retransmit time distinctly. The clock sums app + transport, so the
    /// split never changes phase totals.
    pub tr_msgs_out: u64,
    pub tr_bytes_out: u64,
    pub tr_msgs_in: u64,
    pub tr_bytes_in: u64,
    /// Virtual nanoseconds this rank lost to injected faults (frame delays,
    /// stalls) since the last barrier. Folded into the phase makespan's
    /// communication share so sim-time stays meaningful under fault runs.
    pub fault_ns: u64,
}

/// Everything one rank did since it last met the others: plain integers,
/// touched only by the owning rank's thread, and the only way anything
/// reaches the world's counters.
pub(crate) struct Tally {
    n_ranks: usize,
    /// Bit `t` set: tag `t` has a nonzero cell below.
    touched: u64,
    /// Messages / bytes (frame header included) per `[tag * n_ranks + dest]`.
    count: Box<[u64]>,
    bytes: Box<[u64]>,
    /// Retransmitted and duplicated frames / their bytes per destination.
    /// They consume link capacity and so must charge virtual time, but they
    /// are not application traffic and stay out of the per-tag statistics.
    tr_count: Box<[u64]>,
    tr_bytes: Box<[u64]>,
    /// Tag names given since the last merge.
    names: Vec<(u16, String)>,
    /// Virtual compute nanoseconds charged.
    pub(crate) compute_ns: u64,
    /// Virtual nanoseconds lost to injected faults (frame delays, stalls).
    pub(crate) fault_ns: u64,
    /// Messages handled (messages sent are the cells' total).
    pub(crate) processed: u64,
    /// Fault and reliable-delivery events on this rank.
    pub(crate) faults: FaultCounters,
}

impl Tally {
    pub(crate) fn new(n_ranks: usize) -> Self {
        Tally {
            n_ranks,
            touched: 0,
            count: vec![0; MAX_TAGS * n_ranks].into(),
            bytes: vec![0; MAX_TAGS * n_ranks].into(),
            tr_count: vec![0; n_ranks].into(),
            tr_bytes: vec![0; n_ranks].into(),
            names: Vec::new(),
            compute_ns: 0,
            fault_ns: 0,
            processed: 0,
            faults: FaultCounters::default(),
        }
    }

    /// Count one message sent to `dest`. `bytes` includes the frame header.
    #[inline]
    pub(crate) fn add_send(&mut self, tag: u16, dest: usize, bytes: usize) {
        check_tag(tag);
        self.touched |= 1 << tag;
        let cell = tag as usize * self.n_ranks + dest;
        self.count[cell] += 1;
        self.bytes[cell] += bytes as u64;
    }

    /// Count one retransmitted or duplicated frame of `bytes` bytes to `dest`.
    pub(crate) fn add_transport(&mut self, dest: usize, bytes: usize) {
        self.tr_count[dest] += 1;
        self.tr_bytes[dest] += bytes as u64;
    }

    /// Give `tag` a human-readable name for reports (last write wins).
    pub(crate) fn name_tag(&mut self, tag: u16, name: &str) {
        check_tag(tag);
        self.names.push((tag, name.to_owned()));
    }
}

/// A world's statistics block.
pub struct Stats {
    n_ranks: usize,
    tags: Box<[TagStats]>,
    /// Rank×rank×tag traffic cells, `(tag * n + src) * n + dest`.
    matrix_count: Box<[u64]>,
    matrix_bytes: Box<[u64]>,
    tag_names: HashMap<u16, String>,
    pub(crate) phase: Box<[PhaseCounters]>,
}

impl Stats {
    pub(crate) fn new(n_ranks: usize) -> Self {
        let cells = MAX_TAGS * n_ranks * n_ranks;
        Stats {
            n_ranks,
            tags: vec![TagStats::default(); MAX_TAGS].into(),
            matrix_count: vec![0; cells].into(),
            matrix_bytes: vec![0; cells].into(),
            tag_names: HashMap::new(),
            phase: (0..n_ranks).map(|_| PhaseCounters::default()).collect(),
        }
    }

    /// Fold what rank `src` counted in `tally` into the cumulative per-tag
    /// counters, the traffic matrix, the tag names and the current phase, and
    /// leave those parts of `tally` zeroed; returns how many messages that
    /// was. The one place a sent message is accounted.
    pub(crate) fn merge(&mut self, src: usize, tally: &mut Tally) -> u64 {
        let n = self.n_ranks;
        let mut merged = 0;
        let mut touched = std::mem::take(&mut tally.touched);
        while touched != 0 {
            let t = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            for dest in 0..n {
                let count = std::mem::take(&mut tally.count[t * n + dest]);
                if count == 0 {
                    continue;
                }
                let bytes = std::mem::take(&mut tally.bytes[t * n + dest]);
                merged += count;
                let tag = &mut self.tags[t];
                tag.count += count;
                tag.bytes += bytes;
                let cell = (t * n + src) * n + dest;
                self.matrix_count[cell] += count;
                self.matrix_bytes[cell] += bytes;
                if src != dest {
                    tag.remote_count += count;
                    tag.remote_bytes += bytes;
                    self.phase[src].msgs_out += count;
                    self.phase[src].bytes_out += bytes;
                    self.phase[dest].msgs_in += count;
                    self.phase[dest].bytes_in += bytes;
                }
            }
        }
        for dest in 0..n {
            let count = std::mem::take(&mut tally.tr_count[dest]);
            let bytes = std::mem::take(&mut tally.tr_bytes[dest]);
            // A rank-local frame crosses no link.
            if src != dest {
                self.phase[src].tr_msgs_out += count;
                self.phase[src].tr_bytes_out += bytes;
                self.phase[dest].tr_msgs_in += count;
                self.phase[dest].tr_bytes_in += bytes;
            }
        }
        self.phase[src].compute_ns += std::mem::take(&mut tally.compute_ns);
        self.phase[src].fault_ns += std::mem::take(&mut tally.fault_ns);
        self.tag_names.extend(tally.names.drain(..));
        merged
    }

    pub(crate) fn reset_phase(&mut self) {
        self.phase.fill_with(PhaseCounters::default);
    }

    /// The registered name of `tag`, or `"tag<N>"`.
    pub fn tag_name(&self, tag: u16) -> String {
        self.tag_names
            .get(&tag)
            .cloned()
            .unwrap_or_else(|| format!("tag{tag}"))
    }

    /// Cumulative counters for one tag.
    pub fn tag(&self, tag: u16) -> TagStats {
        self.tags[tag as usize]
    }

    /// Sum of all per-tag counters.
    pub fn total(&self) -> TagStats {
        let mut out = TagStats::default();
        for s in self.tags.iter() {
            out.count += s.count;
            out.bytes += s.bytes;
            out.remote_count += s.remote_count;
            out.remote_bytes += s.remote_bytes;
        }
        out
    }

    /// All tags that have recorded at least one message, with names.
    pub fn nonzero_tags(&self) -> Vec<(u16, String, TagStats)> {
        (0..MAX_TAGS as u16)
            .filter_map(|t| {
                let s = self.tag(t);
                (s.count > 0).then(|| (t, self.tag_name(t), s))
            })
            .collect()
    }

    /// The rank×rank traffic matrix, `[src * n_ranks + dest]`, of every tag
    /// that has sent at least one message. The diagonal (rank-local sends) is
    /// included, so each tag's cells sum to its [`TagStats::count`] /
    /// [`TagStats::bytes`]; retransmits and duplicates are not in it, as they
    /// are not in the per-tag totals.
    pub fn matrix(&self) -> MatrixSection {
        let n = self.n_ranks;
        let tags = self
            .nonzero_tags()
            .into_iter()
            .map(|(tag, name, _)| {
                let cells = tag as usize * n * n..(tag as usize + 1) * n * n;
                MatrixTagReport {
                    tag: tag.into(),
                    name,
                    counts: self.matrix_count[cells.clone()].to_vec(),
                    bytes: self.matrix_bytes[cells].to_vec(),
                }
            })
            .collect();
        MatrixSection {
            n_ranks: n as u64,
            tags,
        }
    }
}

/// Test helper shared with `cost`'s unit tests: account one message
/// `src -> dest` of `bytes` bytes through a one-entry [`Tally`] merge.
#[cfg(test)]
pub(crate) fn merge_one(stats: &mut Stats, tag: u16, bytes: usize, src: usize, dest: usize) {
    let mut tally = Tally::new(stats.n_ranks);
    tally.add_send(tag, dest, bytes);
    stats.merge(src, &mut tally);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_per_tag() {
        let mut s = Stats::new(4);
        merge_one(&mut s, 3, 100, 0, 1);
        merge_one(&mut s, 3, 50, 1, 1); // local: no remote accounting
        merge_one(&mut s, 5, 10, 2, 3);
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
        let mut s = Stats::new(2);
        merge_one(&mut s, 0, 64, 0, 1);
        assert_eq!((s.phase[0].msgs_out, s.phase[0].bytes_out), (1, 64));
        assert_eq!((s.phase[1].msgs_in, s.phase[1].bytes_in), (1, 64));
        s.reset_phase();
        assert_eq!(s.phase[0].msgs_out, 0);
        assert_eq!(s.phase[1].bytes_in, 0);
    }

    #[test]
    fn transport_traffic_lands_in_its_own_cells() {
        let mut s = Stats::new(2);
        merge_one(&mut s, 0, 64, 0, 1);
        let mut t = Tally::new(2);
        t.add_transport(1, 100); // retransmit of the same frame
        t.add_transport(0, 999); // local: ignored entirely
        s.merge(0, &mut t);
        assert_eq!((s.phase[0].msgs_out, s.phase[0].bytes_out), (1, 64));
        assert_eq!((s.phase[0].tr_msgs_out, s.phase[0].tr_bytes_out), (1, 100));
        assert_eq!((s.phase[1].tr_msgs_in, s.phase[1].tr_bytes_in), (1, 100));
        assert_eq!((s.phase[0].tr_msgs_in, s.phase[0].tr_bytes_in), (0, 0));
        s.merge(0, &mut t); // drained: a second merge adds nothing
        assert_eq!(s.phase[0].tr_msgs_out, 1);
        s.reset_phase();
        assert_eq!(s.phase[0].tr_msgs_out, 0);
        assert_eq!(s.phase[1].tr_bytes_in, 0);
    }

    #[test]
    fn tag_names_default_and_custom() {
        let mut s = Stats::new(1);
        assert_eq!(s.tag_name(7), "tag7");
        let mut t = Tally::new(1);
        t.name_tag(7, "first");
        t.name_tag(7, "type1_check"); // last write wins
        s.merge(0, &mut t);
        assert_eq!(s.tag_name(7), "type1_check");
    }

    #[test]
    fn nonzero_tags_lists_only_used() {
        let mut s = Stats::new(2);
        merge_one(&mut s, 1, 8, 0, 1);
        merge_one(&mut s, 4, 8, 0, 1);
        let mut named_only = Tally::new(2);
        named_only.name_tag(9, "never sent");
        s.merge(0, &mut named_only);
        let tags: Vec<u16> = s.nonzero_tags().into_iter().map(|(t, _, _)| t).collect();
        assert_eq!(tags, vec![1, 4]);
        assert_eq!(s.total().count, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tag_is_a_hard_error() {
        let mut s = Stats::new(1);
        merge_one(&mut s, MAX_TAGS as u16, 8, 0, 0);
    }

    #[test]
    fn matrix_cells_track_edges_including_diagonal() {
        let mut s = Stats::new(3);
        merge_one(&mut s, 2, 100, 0, 1);
        merge_one(&mut s, 2, 40, 0, 1);
        merge_one(&mut s, 2, 7, 1, 1); // local send lands on the diagonal
        merge_one(&mut s, 4, 9, 2, 0);
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
        let mut s = Stats::new(2);
        merge_one(&mut s, 1, 100, 0, 1);
        merge_one(&mut s, 1, 50, 1, 0);
        merge_one(&mut s, 1, 25, 0, 0);
        let mut t = Tally::new(2);
        t.add_transport(1, 999); // retransmit: phase counters only
        s.merge(0, &mut t);
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
        // Many sends to several destinations, a compute charge and a fault
        // charge fold in as one merge; a second merge of the now-empty tally
        // adds nothing.
        let mut s = Stats::new(3);
        let mut t = Tally::new(3);
        for _ in 0..5 {
            t.add_send(2, 1, 10);
        }
        t.add_send(2, 0, 7); // rank-local for src 0
        t.add_send(6, 2, 100);
        t.compute_ns += 900;
        t.fault_ns += 33;
        assert_eq!(s.merge(0, &mut t), 7);
        assert_eq!(s.merge(0, &mut t), 0);
        assert_eq!(s.tag(2).count, 6);
        assert_eq!(s.tag(2).bytes, 57);
        assert_eq!(s.tag(2).remote_count, 5);
        assert_eq!(s.tag(6).remote_bytes, 100);
        assert_eq!((s.phase[0].msgs_out, s.phase[0].bytes_out), (6, 150));
        assert_eq!(s.phase[1].msgs_in, 5);
        assert_eq!(s.phase[2].bytes_in, 100);
        assert_eq!((s.phase[0].compute_ns, s.phase[0].fault_ns), (900, 33));
        assert_eq!(s.matrix().tags[0].counts, vec![1, 5, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn compute_charge_accumulates_across_merges() {
        let mut s = Stats::new(2);
        let mut t = Tally::new(2);
        t.compute_ns += 500;
        s.merge(1, &mut t);
        t.compute_ns += 250;
        s.merge(1, &mut t);
        assert_eq!(s.phase[1].compute_ns, 750);
    }
}
