//! Per-rank communicator: asynchronous fire-and-forget RPC, buffered sends,
//! dispatch after each meeting, and barrier with global termination detection.
//!
//! Semantics follow YGM:
//!
//! * [`Comm::async_send`] enqueues a message for a destination rank and
//!   returns immediately. Messages are buffered per destination and flushed
//!   when the buffer exceeds the world's flush threshold (or at a barrier).
//! * The registered handler for the message's tag runs on the destination
//!   rank at a later time — during one of its [`Comm::barrier`] calls, in
//!   the round after the meeting that carried the frame. Handlers may
//!   themselves send messages
//!   (fire-and-forget RPC chains, e.g. the paper's Type 1 -> Type 2+ -> Type 3
//!   neighbor-check cascade).
//! * [`Comm::barrier`] returns only when **all** ranks have reached it and
//!   every message in the world — including messages sent by handlers while
//!   draining — has been processed (termination detection via global
//!   sent/processed counters).
//!
//! The execution model is SPMD: every rank must execute the same sequence of
//! collective operations (`barrier`, `all_reduce_sum_u64`, `broadcast*`),
//! each of which is one meeting at the world's rendezvous (`crate::world`).
//! Handlers must not call `barrier` or `register` (enforced by a `RefCell`
//! borrow panic in debug and release).

use crate::codec::{Encode, Wire};
use crate::cost::CostModel;
use crate::fault::{FaultCounters, FaultPlan};
use crate::stats::{check_tag, Tally};
use crate::world::{Mailbox, Meet, Outcome, Shared};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Frame header: `u16` tag + `u32` payload length. Every message on the
/// wire is accounted as header + payload bytes.
pub const FRAME_HEADER_BYTES: usize = 6;

/// Non-quiescent barrier rounds tolerated under fault injection before the
/// world aborts with the offending sim seed. Converts a termination-
/// detection hang (the worst possible test outcome) into a diagnosable,
/// replayable failure.
const STORM_ROUNDS: u64 = 10_000;

/// One flushed aggregation buffer in flight; the meeting that carries it
/// knows its source and destination. `seq` numbers frames per directed edge
/// `(src -> dest)` in flush order, and every retransmit and injected
/// duplicate carries its frame's number: it names the frame's flow arrows,
/// and under fault injection the reliable-delivery layer acks and dedups by
/// it.
#[derive(Debug, Clone)]
pub(crate) struct Packet {
    pub(crate) seq: u64,
    pub(crate) attempt: u32,
    pub(crate) bytes: Bytes,
}

/// A sent-but-unacknowledged frame retained for retransmission.
struct UnackedFrame {
    bytes: Bytes,
    attempt: u32,
    /// Epoch at which the frame is retransmitted if still unacked.
    next_retry: u64,
    /// Whether the attempt cap was reached (frame now delivered fault-free).
    forced: bool,
}

/// Ranks a flow id can tell apart: 13 bits each for origin and destination.
pub(crate) const MAX_FLOW_RANKS: usize = 1 << 13;

/// Stable identity shared by the `ph:"s"` and `ph:"f"` halves of one
/// cross-rank flow arrow: tag (6 bits, `MAX_TAGS` = 64), origin (13),
/// destination (13) and the frame's number on its edge (32) packed into one
/// u64 — distinct for distinct arrows of a world that may record them
/// ([`crate::World::tracer`] refuses more than [`MAX_FLOW_RANKS`]). The
/// sender and the receiver each compute it from what the meeting already
/// tells them, so pairing needs no extra wire traffic.
fn flow_id(tag: u16, src: usize, dest: usize, seq: u64) -> u64 {
    debug_assert!(src.max(dest) < MAX_FLOW_RANKS);
    ((tag as u64) << 58) | ((src as u64) << 45) | ((dest as u64) << 32) | (seq & 0xFFFF_FFFF)
}

/// Iterate the set bits of a per-destination tag bitset as tag ids.
fn tag_bits(mut mask: u64) -> impl Iterator<Item = u16> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let t = mask.trailing_zeros() as u16;
            mask &= mask - 1;
            Some(t)
        }
    })
}

/// Per-rank reliable-delivery state, both directions; nothing in it is
/// visible to another rank. Only exists under a fault plan.
struct FaultLocal {
    plan: FaultPlan,
    /// Unacked frames per destination, by sequence number.
    unacked: Vec<BTreeMap<u64, UnackedFrame>>,
    /// Per source: every frame numbered below `.0` has been delivered to a
    /// handler, and so has every one in `.1` (out-of-order arrivals).
    delivered: Vec<(u64, BTreeSet<u64>)>,
    /// Received frames held back by delay injection: `(release_epoch, src,
    /// packet)`.
    inbox: Vec<(u64, usize, Packet)>,
    /// Sends per destination edge (drives flush-jitter decisions).
    send_count: Vec<u64>,
    /// Current sync epoch: barrier rounds finished. Every rank's agrees
    /// without shared state, because a round ends in a meeting.
    epoch: u64,
}

impl FaultLocal {
    fn new(plan: FaultPlan, n: usize) -> Self {
        FaultLocal {
            plan,
            unacked: (0..n).map(|_| BTreeMap::new()).collect(),
            delivered: vec![(0, BTreeSet::new()); n],
            inbox: Vec::new(),
            send_count: vec![0; n],
            epoch: 0,
        }
    }

    /// Has frame `seq` from `src` been delivered to a handler?
    fn is_delivered(&self, src: usize, seq: u64) -> bool {
        let (mark, out_of_order) = &self.delivered[src];
        seq < *mark || out_of_order.contains(&seq)
    }

    /// Record frame `seq` from `src` as delivered, advancing the contiguous
    /// watermark past any out-of-order frames it now absorbs.
    fn mark_delivered(&mut self, src: usize, seq: u64) {
        let (mark, out_of_order) = &mut self.delivered[src];
        if seq != *mark {
            out_of_order.insert(seq);
            return;
        }
        *mark += 1;
        while out_of_order.remove(mark) {
            *mark += 1;
        }
    }
}

/// A registered handler: decodes its message from the cursor (positioned
/// at the payload) and runs the user closure. [`Comm::dispatch_block`]
/// checks it consumed exactly the frame.
type Handler = Box<dyn FnMut(&Comm, &mut Bytes)>;

/// A rank's handle to the world. Not `Send`: each rank owns exactly one,
/// created by [`crate::World::run`].
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
    /// Flushed frames on their way to the next meeting, and the last
    /// meetings' frames on their way to a handler.
    mailbox: RefCell<Mailbox>,
    out: RefCell<Vec<BytesMut>>,
    /// Storage of frames this rank has dispatched (at most one per
    /// destination buffer), emptied: what [`Self::flush`] restarts a send
    /// buffer on instead of allocating one.
    spare: RefCell<Vec<BytesMut>>,
    handlers: RefCell<Vec<Option<Handler>>>,
    fault: Option<RefCell<FaultLocal>>,
    /// Virtual time in nanoseconds as of this rank's last meeting, which is
    /// the time now: the clock cannot move before this rank's next arrival.
    now_ns: Cell<u64>,
    /// Next frame sequence number per destination edge.
    next_seq: RefCell<Vec<u64>>,
    /// Bitset of tags buffered per destination since its last flush, so
    /// one flow arrow is drawn per (frame, tag) rather than per message.
    pending_tags: RefCell<Vec<u64>>,
    /// Everything this rank did since it last met the others — sends,
    /// messages handled, compute and fault charges, fault events, tag names.
    /// Rank-private; [`Self::meet`] hands it to the rendezvous, which is the
    /// only way any of it reaches the world's counters.
    tally: RefCell<Tally>,
}

impl Comm {
    pub(crate) fn new(rank: usize, shared: Arc<Shared>) -> Self {
        let n = shared.n_ranks;
        let fault = (shared.fault).map(|plan| RefCell::new(FaultLocal::new(plan, n)));
        Comm {
            rank,
            shared,
            mailbox: RefCell::default(),
            out: RefCell::new((0..n).map(|_| BytesMut::new()).collect()),
            spare: RefCell::new(Vec::with_capacity(n)),
            handlers: RefCell::new((0..crate::stats::MAX_TAGS).map(|_| None).collect()),
            fault,
            now_ns: Cell::new(0),
            next_seq: RefCell::new(vec![0; n]),
            pending_tags: RefCell::new(vec![0; n]),
            tally: RefCell::new(Tally::new(n)),
        }
    }

    /// This rank's id in `0..n_ranks`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn n_ranks(&self) -> usize {
        self.shared.n_ranks
    }

    /// Register the handler invoked on this rank for messages sent with
    /// `tag`. Must be called before any message with that tag can arrive
    /// (i.e. before the first barrier that delivers one), and never from
    /// inside a handler. Replaces any previous handler for the tag.
    ///
    /// Every message is decoded into a fresh `M` the handler owns: the
    /// form for handlers that keep what they receive (the collectives, a
    /// benchmark sink). A protocol handler that only reads its message
    /// should use [`Self::register_mut`].
    pub fn register<M, F>(&self, tag: u16, mut f: F)
    where
        M: Wire,
        F: FnMut(&Comm, M) + 'static,
    {
        self.install(
            tag,
            Box::new(move |comm, payload| f(comm, M::decode(payload))),
        );
    }

    /// [`Self::register`] for the steady-state message path: the tag keeps
    /// **one** decoded message, every arrival is `decode_into` it (so its
    /// vectors keep their capacity and a dispatch allocates nothing), and
    /// the handler borrows it. The handler may mutate the message — drain
    /// a list, sort it — but whatever it leaves there is overwritten by
    /// the next arrival: it must copy out anything it wants to keep.
    pub fn register_mut<M, F>(&self, tag: u16, mut f: F)
    where
        M: Wire + 'static,
        F: FnMut(&Comm, &mut M) + 'static,
    {
        let mut slot: Option<M> = None;
        self.install(
            tag,
            Box::new(move |comm, payload| match &mut slot {
                Some(msg) => {
                    msg.decode_into(payload);
                    f(comm, msg);
                }
                None => f(comm, slot.insert(M::decode(payload))),
            }),
        );
    }

    fn install(&self, tag: u16, shim: Handler) {
        // Registration is where an out-of-range tag first becomes an
        // error: a real panic (not just a debug assertion) before any
        // message can be sent.
        check_tag(tag);
        self.handlers.borrow_mut()[tag as usize] = Some(shim);
    }

    /// [`Self::register_mut`] plus a human-readable tag name in one step,
    /// so every protocol handler registration site self-documents in
    /// reports and traces.
    pub fn register_named<M, F>(&self, tag: u16, name: &str, f: F)
    where
        M: Wire + 'static,
        F: FnMut(&Comm, &mut M) + 'static,
    {
        self.name_tag(tag, name);
        self.register_mut(tag, f);
    }

    /// Attach a display name to `tag` in the world statistics (any rank may
    /// call; last write wins). Also names the tag's flow arrows in trace
    /// exports.
    pub fn name_tag(&self, tag: u16, name: &str) {
        self.tally.borrow_mut().name_tag(tag, name);
        if let Some(t) = self.tracer() {
            t.name_tag(tag as u64, name);
        }
    }

    // ---- Tracing ---------------------------------------------------------
    //
    // All helpers are single-branch no-ops when the world has no tracer.
    // Span timestamps pair the wall clock (measured by the tracer) with the
    // virtual simulation clock sampled here.

    /// The world's tracer, if one was attached.
    #[inline]
    pub fn tracer(&self) -> Option<&obs::Tracer> {
        self.shared.tracer.as_deref()
    }

    /// Open a span named `name` on this rank's track.
    #[inline]
    pub fn trace_begin(&self, name: &'static str) {
        if let Some(t) = self.tracer() {
            t.begin(self.rank, name, self.now_ns());
        }
    }

    /// Open a span carrying a numeric payload (iteration index, batch id).
    #[inline]
    pub fn trace_begin_arg(&self, name: &'static str, arg: u64) {
        if let Some(t) = self.tracer() {
            t.begin_arg(self.rank, name, self.now_ns(), arg);
        }
    }

    /// Close the most recent unmatched span named `name` on this rank.
    #[inline]
    pub fn trace_end(&self, name: &'static str) {
        if let Some(t) = self.tracer() {
            t.end(self.rank, name, self.now_ns());
        }
    }

    /// Record a zero-duration point event on this rank's track.
    #[inline]
    pub fn trace_instant(&self, name: &'static str, arg: u64) {
        if let Some(t) = self.tracer() {
            t.instant(self.rank, name, self.now_ns(), arg);
        }
    }

    /// Record the origin half (`ph:"s"`) of a causal flow arrow on this
    /// rank's track. `id` pairs it with a later [`Self::trace_flow_recv`]
    /// carrying the same id; `tag` labels the arrow. No-op when untraced.
    #[inline]
    pub fn trace_flow_send(&self, name: &'static str, id: u64, tag: u64) {
        if let Some(t) = self.tracer() {
            t.flow_send(self.rank, name, self.now_ns(), id, tag);
        }
    }

    /// Record the terminating half (`ph:"f"`) of a causal flow arrow on
    /// this rank's track.
    #[inline]
    pub fn trace_flow_recv(&self, name: &'static str, id: u64, tag: u64) {
        if let Some(t) = self.tracer() {
            t.flow_recv(self.rank, name, self.now_ns(), id, tag);
        }
    }

    /// Open an async (nestable) span (`ph:"b"`) on this rank's track. `id`
    /// pairs it with the matching [`Self::trace_async_end`]; overlapping
    /// spans are fine.
    #[inline]
    pub fn trace_async_begin(&self, name: &'static str, id: u64) {
        if let Some(t) = self.tracer() {
            t.async_begin(self.rank, name, self.now_ns(), id);
        }
    }

    /// Close the async span opened with the same `(name, id)` (`ph:"e"`).
    #[inline]
    pub fn trace_async_end(&self, name: &'static str, id: u64) {
        if let Some(t) = self.tracer() {
            t.async_end(self.rank, name, self.now_ns(), id);
        }
    }

    /// Record one sample into the named histogram (no-op untraced).
    #[inline]
    pub fn trace_hist(&self, name: &str, value: u64) {
        if let Some(t) = self.tracer() {
            t.record_hist(self.rank, name, value);
        }
    }

    /// Record one point of the named continuous-telemetry gauge on this
    /// rank's track, stamped with the current virtual time (no-op
    /// untraced). Event-driven probes (per-iteration heap updates, the
    /// termination counter) call this directly; runtime gauges are
    /// sampled automatically at barrier entry, paced by the tracer's
    /// virtual-time interval.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(t) = self.tracer() {
            t.gauge(self.rank, name, self.now_ns(), value);
        }
    }

    /// Paced runtime-gauge sampling, a fixed set per rank whatever the
    /// world's size: send-buffer occupancy (total bytes, the largest
    /// destination's bytes, how many destinations hold any) and, under a
    /// fault plan, the reliable-delivery windows. Runs at barrier entry —
    /// the one point where this rank's buffers still hold the phase's
    /// residual messages and the virtual timestamp is stable (identical
    /// run-to-run), so the sampled series are deterministic under a fixed
    /// seed.
    fn sample_gauges(&self) {
        let Some(t) = self.tracer() else { return };
        let now = self.now_ns();
        if !t.should_sample(self.rank, now) {
            return;
        }
        let (mut total, mut largest, mut dests) = (0, 0, 0);
        for buf in self.out.borrow().iter().filter(|b| !b.is_empty()) {
            total += buf.len();
            largest = largest.max(buf.len());
            dests += 1;
        }
        t.gauge(self.rank, "send_buf_bytes", now, total as f64);
        t.gauge(self.rank, "send_buf_max_bytes", now, largest as f64);
        t.gauge(self.rank, "send_buf_dests", now, dests as f64);
        if let Some(fl) = &self.fault {
            let fl = fl.borrow();
            let unacked: usize = fl.unacked.iter().map(BTreeMap::len).sum();
            t.gauge(self.rank, "unacked_frames", now, unacked as f64);
            t.gauge(self.rank, "delay_inbox_frames", now, fl.inbox.len() as f64);
        }
    }

    /// Fire-and-forget: enqueue `msg` for `dest`'s handler registered under
    /// `tag`. Returns immediately. `msg` only has to [`Encode`] to the bytes
    /// of the handler's message type: send a tuple of borrows rather than
    /// cloning a vector into an owned struct. Self-sends are legal and
    /// travel the same way as any other (handled at the next barrier).
    pub fn async_send<M: Encode + ?Sized>(&self, dest: usize, tag: u16, msg: &M) {
        debug_assert!(dest < self.n_ranks(), "destination rank out of range");
        let sz = msg.wire_size();
        let mut flush_now = {
            let mut out = self.out.borrow_mut();
            let buf = &mut out[dest];
            buf.reserve(FRAME_HEADER_BYTES + sz);
            buf.put_u16_le(tag);
            buf.put_u32_le(sz as u32);
            let before = buf.len();
            msg.encode(buf);
            debug_assert_eq!(buf.len() - before, sz, "wire_size mismatch for tag {tag}");
            buf.len() >= self.shared.flush_threshold
        };
        self.pending_tags.borrow_mut()[dest] |= 1u64 << (tag as u32 & 63);
        self.tally
            .borrow_mut()
            .add_send(tag, dest, FRAME_HEADER_BYTES + sz);
        if let Some(fl) = &self.fault {
            // Flush jitter: randomly force an early flush, perturbing frame
            // boundaries and therefore the fault coordinates of every later
            // frame on the edge.
            let jitter = {
                let mut fl = fl.borrow_mut();
                let nth = fl.send_count[dest];
                fl.send_count[dest] += 1;
                fl.plan.jitter_flush(self.rank, dest, nth)
            };
            if !flush_now && jitter {
                self.count_fault(|f| &mut f.jittered_flushes);
                flush_now = true;
            }
        }
        if flush_now {
            self.flush(dest);
        }
    }

    /// Flush one destination buffer into the outbox. This is the one
    /// place a frame is numbered: retransmits and duplicates carry the
    /// number given here.
    fn flush(&self, dest: usize) {
        let (frame, tags) = {
            let mut out = self.out.borrow_mut();
            if out[dest].is_empty() {
                return;
            }
            let tags = std::mem::take(&mut self.pending_tags.borrow_mut()[dest]);
            // The frame's storage goes with it; the buffer restarts on a
            // dispatched frame's or, failing that, at the capacity that was
            // just enough instead of regrowing from empty.
            let next = (self.spare.borrow_mut().pop())
                .unwrap_or_else(|| BytesMut::with_capacity(out[dest].capacity()));
            (std::mem::replace(&mut out[dest], next).freeze(), tags)
        };
        let seq = {
            let mut next = self.next_seq.borrow_mut();
            next[dest] += 1;
            next[dest] - 1
        };
        if let Some(t) = self.tracer() {
            let now = self.now_ns();
            t.instant(self.rank, "flush", now, frame.len() as u64);
            t.record_hist(self.rank, "flush_bytes", frame.len() as u64);
            // One origin event per distinct tag in the frame; the receiver
            // computes the same ids from the frame's source and number.
            for tag in tag_bits(tags) {
                let id = flow_id(tag, self.rank, dest, seq);
                t.flow_send(self.rank, "flow", now, id, tag as u64);
            }
        }
        // Under a fault plan, reliable delivery: retain the frame until the
        // destination's ack names it.
        if let Some(fl) = &self.fault {
            let mut fl = fl.borrow_mut();
            // Grace of two epochs: a fault-free frame flushed at epoch e is
            // dispatched by the receiver in round e+1, its ack rides that
            // round's meeting and the pump applies it at e+2 before it
            // looks, so a clean run never retransmits spuriously.
            let next_retry = fl.epoch + 2;
            fl.unacked[dest].insert(
                seq,
                UnackedFrame {
                    bytes: frame.clone(),
                    attempt: 0,
                    next_retry,
                    forced: false,
                },
            );
        }
        self.transmit(dest, seq, frame, 0);
    }

    /// Hand one delivery attempt of frame `(self.rank -> dest, seq)` to the
    /// next meeting, applying a fault plan's drops and duplications.
    fn transmit(&self, dest: usize, seq: u64, bytes: Bytes, attempt: u32) {
        let pkt = Packet {
            seq,
            attempt,
            bytes,
        };
        if let Some(plan) = self.shared.fault {
            if plan.drop_frame(self.rank, dest, seq, attempt) {
                self.count_fault(|f| &mut f.dropped);
                return; // the retransmit pump will try again next epoch
            }
            if plan.duplicate_frame(self.rank, dest, seq, attempt) {
                self.count_fault(|f| &mut f.duplicated);
                // The duplicate consumes real link capacity: charge
                // transport-level (phase) counters without touching
                // application per-tag stats.
                self.tally.borrow_mut().add_transport(dest, pkt.bytes.len());
                self.mailbox.borrow_mut().outbox.push((dest, pkt.clone()));
            }
        }
        self.mailbox.borrow_mut().outbox.push((dest, pkt));
    }

    /// Handle one frame a meeting brought from `src`. Fault mode: dedup
    /// against what `src` has already delivered here, possibly park it in
    /// the delay inbox; otherwise dispatch.
    fn receive_packet(&self, src: usize, pkt: Packet) {
        let Some(fl) = &self.fault else {
            return self.dispatch_block(src, pkt);
        };
        let mut fl = fl.borrow_mut();
        if fl.is_delivered(src, pkt.seq) {
            // Injected duplicate or a retransmit that crossed its ack. Without
            // this check the frame's messages would be handled twice AND
            // `processed` would overrun `sent`, wedging termination
            // detection (see the regression test in tests/fault_injection.rs).
            self.count_fault(|f| &mut f.dedup_discards);
            return;
        }
        let delay = (fl.plan).delay_epochs(src, self.rank, pkt.seq, pkt.attempt);
        if delay > 0 {
            self.count_fault(|f| &mut f.delayed);
            // The frame sits on the (virtual) wire for `delay` epochs;
            // charge the receiving rank so sim-time reflects the fault.
            self.tally.borrow_mut().fault_ns += self.shared.cost.delay_cost_ns(delay);
            let release = fl.epoch + delay as u64;
            fl.inbox.push((release, src, pkt));
            return;
        }
        drop(fl);
        self.deliver_packet(src, pkt)
    }

    /// Mark a frame from `src` delivered, owe `src` its ack and dispatch the
    /// frame's messages. This is the exactly-once point under faults — dedup
    /// upstream guarantees one delivery per `(edge, seq)`, so the flow-recv
    /// events emitted by the dispatch pair 1:1 with the flow-send events of
    /// the flush.
    fn deliver_packet(&self, src: usize, pkt: Packet) {
        let fl = self.fault.as_ref().expect("deliver without faults");
        fl.borrow_mut().mark_delivered(src, pkt.seq);
        self.mailbox.borrow_mut().acks_out.push((src, pkt.seq));
        self.dispatch_block(src, pkt)
    }

    /// Drive the reliable-delivery layer one step: drop the frames the last
    /// meetings' acks name from the retransmit window, release matured
    /// delayed frames, and retransmit overdue ones with capped exponential
    /// backoff (in epochs). Fault mode only; no-op otherwise.
    fn pump_transport(&self) {
        let Some(fl_cell) = &self.fault else { return };
        let epoch = {
            let mut fl = fl_cell.borrow_mut();
            for (dest, seq) in self.mailbox.borrow_mut().acks_in.drain(..) {
                fl.unacked[dest].remove(&seq);
            }
            fl.epoch
        };

        // Release delayed frames whose epoch has come (re-checking dedup:
        // a retransmit may have been delivered while this copy was parked).
        loop {
            let (src, pkt) = {
                let mut fl = fl_cell.borrow_mut();
                match fl.inbox.iter().position(|(release, ..)| *release <= epoch) {
                    Some(i) => {
                        let (_, src, pkt) = fl.inbox.swap_remove(i);
                        (src, pkt)
                    }
                    None => break,
                }
            };
            if fl_cell.borrow().is_delivered(src, pkt.seq) {
                self.count_fault(|f| &mut f.dedup_discards);
            } else {
                self.deliver_packet(src, pkt);
            }
        }

        // Retransmission, under the frame's own number.
        let mut resend: Vec<(usize, u64, Bytes, u32)> = Vec::new();
        {
            let mut fl = fl_cell.borrow_mut();
            let max_faulty_attempts = fl.plan.profile.max_faulty_attempts;
            for (dest, unacked) in fl.unacked.iter_mut().enumerate() {
                for (seq, frame) in unacked.iter_mut() {
                    if frame.next_retry > epoch {
                        continue;
                    }
                    frame.attempt += 1;
                    if frame.attempt >= max_faulty_attempts && !frame.forced {
                        frame.forced = true;
                        self.count_fault(|f| &mut f.forced_deliveries);
                    }
                    // Backoff 2, 4, 8, 8, ... epochs (same two-epoch floor
                    // as the initial send, so in-flight attempts are not
                    // re-sent before their ack can possibly arrive).
                    frame.next_retry = epoch + (1u64 << frame.attempt.min(3)).max(2);
                    resend.push((dest, *seq, frame.bytes.clone(), frame.attempt));
                }
            }
        }
        for (dest, seq, bytes, attempt) in resend {
            self.count_fault(|f| &mut f.retransmits);
            self.tally.borrow_mut().add_transport(dest, bytes.len());
            self.transmit(dest, seq, bytes, attempt);
        }
    }

    /// Whether stall injection sidelines this rank for the round under way
    /// (it flushes its own sends but dispatches nothing; its mail waits, in
    /// order, ahead of the next meeting's), charging the stall if so.
    fn stalled_this_round(&self) -> bool {
        let Some(fl) = &self.fault else { return false };
        let fl = fl.borrow();
        let stalled = fl.plan.stall(self.rank, fl.epoch);
        if stalled {
            self.count_fault(|f| &mut f.stalls);
            self.tally.borrow_mut().fault_ns += self.shared.cost.delay_cost_ns(1);
        }
        stalled
    }

    /// Flush all destination buffers.
    fn flush_all(&self) {
        for dest in 0..self.n_ranks() {
            self.flush(dest);
        }
    }

    /// Decode and dispatch every message in the frame `pkt` from `src`;
    /// flow-recv events are emitted per distinct tag, inside the dispatch
    /// span, exactly once per delivery.
    fn dispatch_block(&self, src: usize, pkt: Packet) {
        let mut block = pkt.bytes;
        let tracer = self.tracer();
        if tracer.is_some() {
            self.trace_begin_arg("dispatch", block.remaining() as u64);
        }
        let mut n = 0;
        let mut tags_seen: u64 = 0;
        {
            // Re-entrancy note: a handler receives `&Comm` and may
            // async_send (touches `out`, not `handlers`). A handler calling
            // barrier/register would re-borrow `handlers` and panic, which
            // is the documented contract.
            let mut handlers = self.handlers.borrow_mut();
            while block.has_remaining() {
                let tag = block.get_u16_le();
                tags_seen |= 1u64 << (tag as u32 & 63);
                let len = block.get_u32_le() as usize;
                assert!(
                    len <= block.remaining(),
                    "frame for tag {tag} claims {len} bytes, block has {}",
                    block.remaining()
                );
                let after = block.remaining() - len;
                let slot = handlers[tag as usize]
                    .as_mut()
                    .unwrap_or_else(|| panic!("no handler registered for tag {tag}"));
                // The handler decodes straight off the block cursor. A
                // message type whose decode is shorter or longer than the
                // frame would misalign every frame behind it, so the check
                // is a hard one in release too.
                slot(self, &mut block);
                assert_eq!(
                    block.remaining(),
                    after,
                    "handler for tag {tag} did not consume exactly its {len}-byte frame"
                );
                n += 1;
            }
        }
        self.tally.borrow_mut().processed += n as u64;
        // The frame is read: its storage backs a later flush, unless the
        // retransmit window (or a duplicate in flight) still holds it.
        if let Ok(storage) = block.try_into_mut() {
            let mut spare = self.spare.borrow_mut();
            if spare.len() < self.n_ranks() {
                spare.push(storage);
            }
        }
        if let Some(t) = tracer {
            let now = self.now_ns();
            for tag in tag_bits(tags_seen) {
                let id = flow_id(tag, src, self.rank, pkt.seq);
                t.flow_recv(self.rank, "flow", now, id, tag as u64);
            }
            self.trace_end("dispatch");
        }
    }

    /// The oldest frame the meetings so far brought and no handler has seen.
    fn next_mail(&self) -> Option<(usize, Packet)> {
        self.mailbox.borrow_mut().mail.pop_front()
    }

    /// Global barrier with termination detection: returns once all ranks
    /// have entered the barrier and no message is buffered, in flight, or
    /// being handled anywhere in the world. Advances the virtual clock by
    /// the completed phase's makespan.
    pub fn barrier(&self) {
        self.sample_gauges();
        self.trace_begin("barrier");
        let mut rounds: u64 = 0;
        loop {
            // A stalled rank still flushes its own buffered sends (so peers
            // are not starved) but dispatches nothing this round.
            if !self.stalled_this_round() {
                self.pump_transport();
                while let Some((src, pkt)) = self.next_mail() {
                    self.receive_packet(src, pkt);
                }
            }
            self.flush_all();
            // Every rank arrives having handled what the last meeting
            // brought it and flushed what that produced; the round is
            // quiescent when, summed over those arrivals, nothing sent is
            // still unhandled.
            let Outcome::Round { quiescent } = self.meet(Meet::Round) else {
                unreachable!("ranks met in different collectives");
            };
            if let Some(fl) = &self.fault {
                fl.borrow_mut().epoch += 1;
            }
            if quiescent {
                // The clock advanced inside the meeting, so this span's
                // virtual duration is exactly the completed phase's makespan.
                self.trace_end("barrier");
                return;
            }
            // Non-quiescent round: messages are still in the mail, parked
            // in delay inboxes or in retransmit windows. Go around again;
            // in the next epoch delays mature and backoffs fire.
            rounds += 1;
            if let Some(plan) = (self.shared.fault).filter(|_| rounds >= STORM_ROUNDS) {
                panic!(
                    "fault-sim storm: barrier failed to quiesce after {rounds} rounds; \
                     replay with --sim-seed {}",
                    plan.sim_seed
                );
            }
        }
    }

    /// Meet the other ranks at the world's rendezvous, handing over this
    /// rank's tally, outbox and acks and taking its mail: the one blocking
    /// wait of a barrier round or a collective. The world's last barrier
    /// included, which
    /// [`crate::World::run`] enters after the rank's closure returns, so a
    /// send issued after the closure's own last barrier is still counted.
    fn meet(&self, what: Meet) -> Outcome {
        let (outcome, now_ns) = self.shared.rendezvous.meet(
            self.rank,
            &mut self.tally.borrow_mut(),
            &mut self.mailbox.borrow_mut(),
            what,
        );
        self.now_ns.set(now_ns);
        outcome
    }

    /// Count one fault or reliable-delivery event on this rank.
    fn count_fault(&self, counter: fn(&mut FaultCounters) -> &mut u64) {
        *counter(&mut self.tally.borrow_mut().faults) += 1;
    }

    /// Charge `ns` nanoseconds of virtual compute time to this rank's
    /// current phase.
    #[inline]
    pub fn charge_compute(&self, ns: u64) {
        self.tally.borrow_mut().compute_ns += ns;
    }

    /// The world's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.shared.cost
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.get()
    }

    /// Running count of reliable-delivery retransmits world-wide; always 0
    /// without a fault plan. Stable (and identical on every rank) when read
    /// right after a barrier, so SPMD code may branch on it — the serving
    /// layer uses the per-window delta to charge retransmit recovery
    /// against query latency.
    pub fn fault_retransmits(&self) -> u64 {
        self.shared.rendezvous.retransmits()
    }

    /// Meetings the world's rendezvous has finished.
    #[cfg(test)]
    pub(crate) fn meetings(&self) -> u64 {
        self.shared.rendezvous.generation()
    }

    // ---- Collectives -----------------------------------------------------
    //
    // Small fixed-size collectives go through the rendezvous rather than
    // the message path (a real MPI implementation would use optimized
    // collectives too). They charge the virtual clock a log2(P) latency.
    // SPMD: all ranks must call the same collective at the same point.
    //
    // The clock advances inside the meeting, before any rank is woken, so
    // virtual timestamps sampled anywhere outside a collective are
    // identical run to run (required for deterministic trace export).

    /// Sum `v` across all ranks; every rank receives the total.
    pub fn all_reduce_sum_u64(&self, v: u64) -> u64 {
        self.trace_begin("all_reduce");
        let Outcome::Sum(total) = self.meet(Meet::Sum(v)) else {
            unreachable!("ranks met in different collectives");
        };
        self.trace_end("all_reduce");
        total
    }

    /// Broadcast `data` from `root` to all ranks.
    pub fn broadcast_bytes(&self, root: usize, data: Option<Bytes>) -> Bytes {
        self.trace_begin("broadcast");
        let payload =
            (self.rank == root).then(|| data.expect("root must supply broadcast payload"));
        let Outcome::Broadcast(bytes) = self.meet(Meet::Broadcast(payload)) else {
            unreachable!("ranks met in different collectives");
        };
        self.trace_end("broadcast");
        bytes
    }

    /// Broadcast a `Wire` value from `root`.
    pub fn broadcast<M: Wire>(&self, root: usize, value: Option<&M>) -> M {
        let payload = value.map(crate::codec::encode_to_bytes);
        let bytes = self.broadcast_bytes(root, payload);
        crate::codec::decode_from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Every `(tag, origin, dest, seq)` a world of 300 ranks can draw an
    /// arrow for has its own id: the edges of the tag and sequence ranges
    /// against every pair of ranks, and every field's top value at once.
    #[test]
    fn flow_ids_are_distinct_above_256_ranks() {
        let mut ids = HashSet::new();
        let mut arrows = 0;
        for tag in [0u16, 1, 63] {
            for src in 0..300 {
                for dest in 0..300 {
                    for seq in [0u64, 1, u32::MAX as u64] {
                        ids.insert(flow_id(tag, src, dest, seq));
                        arrows += 1;
                    }
                }
            }
        }
        assert_eq!(ids.len(), arrows);
        let top = MAX_FLOW_RANKS - 1;
        assert_eq!(flow_id(63, top, top, u32::MAX as u64), u64::MAX);
    }
}
