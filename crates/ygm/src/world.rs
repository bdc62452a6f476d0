//! World construction and the SPMD launcher.
//!
//! A [`World`] describes a simulated multi-rank job: rank count, flush
//! threshold, and cost model. [`World::run`] spawns one OS thread per rank,
//! hands each a [`Comm`], executes the supplied SPMD closure, performs a
//! final implicit barrier (so no message is ever dropped), and returns the
//! per-rank results together with timing and traffic summaries.

use crate::comm::{Comm, Packet, MAX_FLOW_RANKS};
use crate::cost::{ClockBreakdown, CostModel, VirtualClock};
use crate::fault::{FaultCounters, FaultPlan};
use crate::stats::{Stats, TagStats, Tally};
use bytes::Bytes;
use obs::{FaultSection, MatrixSection, PhaseRecord, Tracer};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Default per-destination buffer size before an automatic flush (bytes).
/// YGM uses aggregation buffers of comparable magnitude.
pub const DEFAULT_FLUSH_THRESHOLD: usize = 64 * 1024;

/// One kind of thing ranks pass each other — frames, acks — on the world's
/// side of a meeting. A rank's arrival appends to its own row of `posted`,
/// so the order ranks arrive in leaves no trace.
struct Route<T> {
    /// `posted[src]`: what `src` handed to the meeting under way, `(dest,
    /// item)` in the order it produced them.
    posted: Vec<Vec<(usize, T)>>,
    /// `sorted[dest]`: the finished meeting's items for `dest`, `(src, item)`
    /// ordered by `(src, src's order)`; `dest` takes them as it leaves.
    sorted: Vec<Vec<(usize, T)>>,
}

impl<T> Route<T> {
    fn new(n: usize) -> Self {
        Route {
            posted: (0..n).map(|_| Vec::new()).collect(),
            sorted: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// The last arriver's step. Every vector keeps its capacity: a steady
    /// round allocates nothing here.
    fn sort(&mut self) {
        for (src, posted) in self.posted.iter_mut().enumerate() {
            for (dest, item) in posted.drain(..) {
                self.sorted[dest].push((src, item));
            }
        }
    }
}

/// A rank's side of the mail, rank-private between meetings:
/// [`Rendezvous::meet`] takes the `out` halves and fills the `in` halves.
#[derive(Default)]
pub(crate) struct Mailbox {
    /// Frames flushed since the last meeting, `(dest, frame)` in flush order.
    pub(crate) outbox: Vec<(usize, Packet)>,
    /// Frames received and not dispatched yet, `(src, frame)`, oldest
    /// meeting first and `(src, flush order)` within one.
    pub(crate) mail: VecDeque<(usize, Packet)>,
    /// Under a fault plan: `(src, seq)` of the frames delivered to a handler
    /// since the last meeting ...
    pub(crate) acks_out: Vec<(usize, u64)>,
    /// ... and `(dest, seq)` of this rank's frames whose delivery it has
    /// been told of and not yet dropped from its retransmit window.
    pub(crate) acks_in: Vec<(usize, u64)>,
}

/// What a rank brings to a meeting, besides its [`Tally`] and [`Mailbox`].
/// SPMD: every rank brings the same kind to the same meeting.
pub(crate) enum Meet {
    /// One round of a barrier.
    Round,
    /// This rank's addend of an all-reduce.
    Sum(u64),
    /// A broadcast; the root brings the payload, everyone else `None`.
    Broadcast(Option<Bytes>),
}

/// What every rank takes away from a meeting.
#[derive(Clone)]
pub(crate) enum Outcome {
    /// A barrier round; `quiescent` when every message sent anywhere had
    /// been handled by the time its receiver arrived.
    Round { quiescent: bool },
    /// An all-reduce's total.
    Sum(u64),
    /// A broadcast's payload.
    Broadcast(Bytes),
}

/// Panic payload used when a rank aborts *because a peer panicked* (the
/// poisoned-rendezvous path). Distinguishable from application panics so
/// [`World::run`] can re-raise the peer's original payload instead of this
/// secondary one.
pub(crate) struct WorldAborted;

/// Everything that changes only when ranks meet, as plain values under the
/// rendezvous' one mutex.
struct Meeting {
    arrived: usize,
    generation: u64,
    poisoned: bool,
    /// Result of the last finished meeting. It cannot be overwritten before
    /// every rank has read it: the next meeting finishes only once all of
    /// them have arrived at it.
    outcome: Outcome,
    /// Messages sent / handled world-wide, as of each rank's last arrival.
    sent: u64,
    processed: u64,
    /// All-reduce accumulator and broadcast payload of the meeting under
    /// way; taken by its finishing step.
    sum: u64,
    payload: Option<Bytes>,
    /// The mail: frames, and under a fault plan the sequence numbers of
    /// frames delivered, on their way back to whoever sent them.
    frames: Route<Packet>,
    acks: Route<u64>,
    stats: Stats,
    clock: VirtualClock,
    faults: FaultCounters,
}

/// The one place ranks synchronize: a combining rendezvous. A rank folds its
/// contribution in as it arrives; the last one to arrive finishes the
/// meeting — sorts the mail, decides quiescence and advances the clock, or
/// takes the reduced value — and publishes the [`Outcome`] before it wakes
/// anyone. So a barrier round or a collective is one blocking wait, a rank
/// cannot forget to publish (its tally is the argument), and a frame has one
/// way to travel: what a rank dispatches after a meeting is a function of
/// what every rank flushed before it, whatever the interleaving.
///
/// It can be *poisoned*: when any rank panics, the world aborts instead of
/// deadlocking the surviving ranks in their waits — the in-process analogue
/// of `MPI_Abort`.
pub(crate) struct Rendezvous {
    n: usize,
    cost: CostModel,
    state: Mutex<Meeting>,
    wake: Condvar,
}

impl Rendezvous {
    fn new(n: usize, cost: CostModel) -> Self {
        Rendezvous {
            n,
            cost,
            state: Mutex::new(Meeting {
                arrived: 0,
                generation: 0,
                poisoned: false,
                outcome: Outcome::Sum(0),
                sent: 0,
                processed: 0,
                sum: 0,
                payload: None,
                frames: Route::new(n),
                acks: Route::new(n),
                stats: Stats::new(n),
                clock: VirtualClock::default(),
                faults: FaultCounters::default(),
            }),
            wake: Condvar::new(),
        }
    }

    /// Fold in what `rank` did since its last meeting (`tally`, left zeroed),
    /// the frames and acks it has for the others and what it brings to this
    /// meeting, block until all ranks have arrived, leave `rank`'s share of
    /// the meeting's mail in `mailbox`, and return the meeting's outcome and
    /// the virtual time in nanoseconds — the same on every rank, and the
    /// time until `rank` next arrives, because the clock moves only when the
    /// last rank arrives at a meeting. Panics on all ranks if the rendezvous
    /// is poisoned.
    pub(crate) fn meet(
        &self,
        rank: usize,
        tally: &mut Tally,
        mailbox: &mut Mailbox,
        what: Meet,
    ) -> (Outcome, u64) {
        let mut guard = self.state.lock();
        let m = &mut *guard;
        if m.poisoned {
            std::panic::panic_any(WorldAborted);
        }
        m.sent += m.stats.merge(rank, tally);
        m.processed += std::mem::take(&mut tally.processed);
        m.faults.absorb(&mut tally.faults);
        m.frames.posted[rank].append(&mut mailbox.outbox);
        m.acks.posted[rank].append(&mut mailbox.acks_out);
        match &what {
            Meet::Round | Meet::Broadcast(None) => {}
            Meet::Sum(v) => m.sum = m.sum.wrapping_add(*v),
            Meet::Broadcast(Some(bytes)) => m.payload = Some(bytes.clone()),
        }
        m.arrived += 1;
        if m.arrived == self.n {
            m.arrived = 0;
            m.generation += 1;
            m.frames.sort();
            m.acks.sort();
            m.outcome = match what {
                Meet::Round => {
                    let quiescent = m.sent == m.processed;
                    if quiescent {
                        m.clock.advance_phase(&m.stats, &self.cost, self.n);
                        m.stats.reset_phase();
                    }
                    Outcome::Round { quiescent }
                }
                Meet::Sum(_) => {
                    m.clock.advance_collective(&self.cost, self.n);
                    Outcome::Sum(std::mem::take(&mut m.sum))
                }
                Meet::Broadcast(_) => {
                    m.clock.advance_collective(&self.cost, self.n);
                    Outcome::Broadcast(m.payload.take().expect("broadcast payload missing"))
                }
            };
            // A one-rank world has nobody to wake, and a wake is a
            // syscall whether or not anyone waits.
            if self.n > 1 {
                self.wake.notify_all();
            }
        } else {
            let generation = guard.generation;
            while guard.generation == generation && !guard.poisoned {
                self.wake.wait(&mut guard);
            }
            if guard.poisoned {
                std::panic::panic_any(WorldAborted);
            }
        }
        // Nobody sorts into these rows again before this rank has arrived
        // at the next meeting.
        mailbox.mail.extend(guard.frames.sorted[rank].drain(..));
        mailbox.acks_in.append(&mut guard.acks.sorted[rank]);
        (guard.outcome.clone(), guard.clock.now_ns())
    }

    fn poison(&self) {
        self.state.lock().poisoned = true;
        self.wake.notify_all();
    }

    /// Reliable-delivery retransmits world-wide, as of each rank's last
    /// arrival.
    pub(crate) fn retransmits(&self) -> u64 {
        self.state.lock().faults.retransmits
    }

    /// Meetings finished so far.
    #[cfg(test)]
    pub(crate) fn generation(&self) -> u64 {
        self.state.lock().generation
    }
}

pub(crate) struct Shared {
    pub n_ranks: usize,
    pub rendezvous: Rendezvous,
    pub cost: CostModel,
    pub flush_threshold: usize,
    /// Optional span/metric collector; `None` keeps the hot path at a
    /// single branch per instrumentation site.
    pub tracer: Option<Arc<Tracer>>,
    /// Fault-injection plan; `None` sends every frame once, unnumbered.
    pub fault: Option<FaultPlan>,
}

/// Configuration for a simulated multi-rank run.
#[derive(Clone)]
pub struct World {
    n_ranks: usize,
    flush_threshold: usize,
    cost: CostModel,
    tracer: Option<Arc<Tracer>>,
    fault: Option<FaultPlan>,
}

/// The outcome of a [`World::run`].
#[derive(Debug)]
pub struct WorldReport<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Virtual (simulated) elapsed time, seconds.
    pub sim_secs: f64,
    /// Virtual elapsed time in exact nanoseconds — the final clock reading.
    /// The critical-path analyzer needs this exact (not `sim_secs * 1e9`)
    /// to attribute collective time with zero rounding error.
    pub sim_ns: u64,
    /// Decomposition of the virtual time into compute / communication /
    /// barrier components.
    pub breakdown: ClockBreakdown,
    /// Per-phase (barrier-to-barrier) profile records.
    pub phases: Vec<PhaseRecord>,
    /// Real wall-clock elapsed time, seconds.
    pub wall_secs: f64,
    /// Cumulative per-tag traffic: `(tag, name, stats)` for used tags.
    pub tags: Vec<(u16, String, TagStats)>,
    /// Sum over all tags.
    pub total: TagStats,
    /// Rank×rank×tag traffic matrix (diagonal = rank-local sends); each
    /// tag's cells sum to its entry in `tags`.
    pub matrix: MatrixSection,
    /// Injected-fault and reliable-delivery counters; `None` when the world
    /// ran without a [`FaultPlan`].
    pub faults: Option<FaultSection>,
}

impl<T> WorldReport<T> {
    /// Split the per-rank results from the run summary.
    pub fn split(self) -> (Vec<T>, WorldReport<()>) {
        let summary = WorldReport {
            results: vec![(); self.results.len()],
            sim_secs: self.sim_secs,
            sim_ns: self.sim_ns,
            breakdown: self.breakdown,
            phases: self.phases,
            wall_secs: self.wall_secs,
            tags: self.tags,
            total: self.total,
            matrix: self.matrix,
            faults: self.faults,
        };
        (self.results, summary)
    }

    /// Stats for one tag, if any message used it.
    pub fn tag(&self, tag: u16) -> Option<TagStats> {
        self.tags
            .iter()
            .find(|(t, _, _)| *t == tag)
            .map(|(_, _, s)| *s)
    }
}

impl<T: PartialEq + std::fmt::Debug> WorldReport<T> {
    /// Split a run whose ranks all compute the same value into that value
    /// and the run summary. Panics with "`what` diverged across ranks" if
    /// any rank returned something else.
    pub fn into_replicated(self, what: &str) -> (T, WorldReport<()>) {
        let (results, summary) = self.split();
        let mut it = results.into_iter();
        let first = it.next().expect("world has at least one rank");
        for other in it {
            assert_eq!(other, first, "{what} diverged across ranks");
        }
        (first, summary)
    }
}

impl World {
    /// A world with `n_ranks` simulated ranks and default settings.
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks >= 1, "a world needs at least one rank");
        World {
            n_ranks,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            cost: CostModel::default(),
            tracer: None,
            fault: None,
        }
    }

    /// Run this world under seeded fault injection (see [`crate::fault`]):
    /// frames are dropped / duplicated / delayed per `plan`, and the
    /// reliable-delivery layer (sequence numbers, acks, retransmission,
    /// dedup) keeps every message exactly-once so barriers still terminate.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Override the per-destination buffer flush threshold (bytes).
    pub fn flush_threshold(mut self, bytes: usize) -> Self {
        assert!(bytes > 0);
        self.flush_threshold = bytes;
        self
    }

    /// Override the virtual cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Attach a tracer; runtime spans (barriers, dispatch, collectives),
    /// flush metrics, and any application spans recorded through
    /// [`Comm`]'s `trace_*` helpers land in it. The tracer must have been
    /// created for the same rank count, which must be no more than a flow
    /// arrow's id can name.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        assert_eq!(
            tracer.n_ranks(),
            self.n_ranks,
            "tracer rank count must match the world"
        );
        assert!(
            self.n_ranks <= MAX_FLOW_RANKS,
            "flow arrows identify at most {MAX_FLOW_RANKS} ranks"
        );
        self.tracer = Some(tracer);
        self
    }

    /// Number of ranks this world will launch.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Launch the SPMD program `f` on every rank and wait for completion.
    ///
    /// `f` runs once per rank with that rank's [`Comm`]. After `f` returns on
    /// a rank, an implicit final barrier drains any in-flight messages, so
    /// handlers may still fire after `f` returns. Panics in any rank
    /// propagate.
    pub fn run<T, F>(&self, f: F) -> WorldReport<T>
    where
        F: Fn(&Comm) -> T + Send + Sync,
        T: Send,
    {
        let n = self.n_ranks;
        let shared = Arc::new(Shared {
            n_ranks: n,
            rendezvous: Rendezvous::new(n, self.cost),
            cost: self.cost,
            flush_threshold: self.flush_threshold,
            tracer: self.tracer.clone(),
            fault: self.fault,
        });

        let start = Instant::now();
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let shared = Arc::clone(&shared);
                let f = &f;
                handles.push(scope.spawn(move || {
                    let world = Arc::clone(&shared);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let comm = Comm::new(rank, shared);
                        let out = f(&comm);
                        // Final drain: a rank may still owe handler
                        // executions to messages sent by other ranks at
                        // the tail of `f`.
                        comm.barrier();
                        out
                    }));
                    match result {
                        Ok(out) => out,
                        Err(payload) => {
                            // Abort the world so no rank deadlocks in a
                            // meeting waiting for us, then re-raise.
                            world.rendezvous.poison();
                            std::panic::resume_unwind(payload);
                        }
                    }
                }));
            }
            // Join *all* ranks before re-raising: the first rank in join
            // order is often one that aborted secondarily via the poisoned
            // rendezvous ([`WorldAborted`]); re-raise the peer's original
            // panic payload so the caller sees the real failure, not
            // "another rank panicked".
            let mut original: Option<Box<dyn std::any::Any + Send>> = None;
            let mut secondary: Option<Box<dyn std::any::Any + Send>> = None;
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(v) => results[rank] = Some(v),
                    Err(e) if e.downcast_ref::<WorldAborted>().is_some() => {
                        secondary.get_or_insert(e);
                    }
                    Err(e) => {
                        original.get_or_insert(e);
                    }
                }
            }
            if let Some(payload) = original.or(secondary) {
                std::panic::resume_unwind(payload);
            }
        });
        let wall_secs = start.elapsed().as_secs_f64();

        let m = shared.rendezvous.state.lock();
        WorldReport {
            results: results.into_iter().map(Option::unwrap).collect(),
            sim_secs: m.clock.now_secs(),
            sim_ns: m.clock.now_ns(),
            breakdown: m.clock.breakdown(),
            phases: m.clock.phases().to_vec(),
            wall_secs,
            tags: m.stats.nonzero_tags(),
            total: m.stats.total(),
            matrix: m.stats.matrix(),
            faults: self.fault.map(|plan| m.faults.report(&plan)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const PING: u16 = 0;
    const PONG: u16 = 1;

    #[test]
    fn single_rank_world_runs() {
        let report = World::new(1).run(|comm| comm.rank());
        assert_eq!(report.results, vec![0]);
        assert_eq!(report.total.count, 0);
    }

    #[test]
    fn a_replicated_result_splits_from_its_summary() {
        let report = World::new(3).run(|comm| comm.n_ranks());
        let sim_ns = report.sim_ns;
        let (value, summary) = report.into_replicated("rank count");
        assert_eq!(value, 3);
        assert_eq!((summary.results.len(), summary.sim_ns), (3, sim_ns));
    }

    #[test]
    #[should_panic(expected = "rank id diverged across ranks")]
    fn a_result_that_differs_by_rank_is_not_replicated() {
        World::new(2)
            .run(|comm| comm.rank())
            .into_replicated("rank id");
    }

    #[test]
    fn ranks_see_distinct_ids() {
        let report = World::new(4).run(|comm| (comm.rank(), comm.n_ranks()));
        assert_eq!(
            report.results,
            vec![(0usize, 4usize), (1, 4), (2, 4), (3, 4)]
        );
    }

    #[test]
    fn async_send_delivers_to_handler() {
        let report = World::new(3).run(|comm| {
            let received = Rc::new(RefCell::new(Vec::<u64>::new()));
            let r2 = Rc::clone(&received);
            comm.register::<u64, _>(PING, move |_, v| r2.borrow_mut().push(v));
            // Every rank sends its id to rank 0.
            comm.async_send(0, PING, &(comm.rank() as u64));
            comm.barrier();
            let mut got = received.borrow().clone();
            got.sort_unstable();
            got
        });
        assert_eq!(report.results[0], vec![0, 1, 2]);
        assert!(report.results[1].is_empty());
        assert_eq!(report.total.count, 3);
    }

    #[test]
    fn handler_chains_complete_before_barrier_returns() {
        // Rank r sends PING to r+1; the PING handler replies PONG to 0;
        // the barrier must retire the whole cascade.
        let report = World::new(4).run(|comm| {
            let pongs = Rc::new(RefCell::new(0u32));
            let p2 = Rc::clone(&pongs);
            comm.register::<u32, _>(PING, move |c, v| {
                c.async_send(0, PONG, &(v + 1));
            });
            comm.register::<u32, _>(PONG, move |_, _| *p2.borrow_mut() += 1);
            let next = (comm.rank() + 1) % comm.n_ranks();
            comm.async_send(next, PING, &7u32);
            comm.barrier();
            let n = *pongs.borrow();
            n
        });
        assert_eq!(report.results[0], 4);
        assert_eq!(report.results[1], 0);
    }

    #[test]
    fn self_sends_are_delivered() {
        let report = World::new(2).run(|comm| {
            let hits = Rc::new(RefCell::new(0u32));
            let h = Rc::clone(&hits);
            comm.register::<u32, _>(PING, move |_, _| *h.borrow_mut() += 1);
            for _ in 0..10 {
                comm.async_send(comm.rank(), PING, &1u32);
            }
            comm.barrier();
            let n = *hits.borrow();
            n
        });
        assert_eq!(report.results, vec![10, 10]);
        // Self-sends count in totals but not remote traffic.
        assert_eq!(report.total.count, 20);
        assert_eq!(report.total.remote_count, 0);
    }

    #[test]
    fn consecutive_reduces_do_not_bleed() {
        let report = World::new(3).run(|comm| {
            let a = comm.all_reduce_sum_u64(comm.rank() as u64 + 1);
            let b = comm.all_reduce_sum_u64(2);
            (a, b)
        });
        for r in &report.results {
            assert_eq!(*r, (6, 6));
        }
    }

    /// A barrier with nothing in flight, an all-reduce and a broadcast are
    /// one meeting each — one blocking wait — at any rank count. (Between
    /// two meetings the generation cannot move: the next one needs this
    /// rank.)
    #[test]
    fn an_empty_barrier_and_each_collective_meet_exactly_once() {
        for ranks in [1usize, 2, 3] {
            let report = World::new(ranks).run(|comm| {
                let start = comm.meetings();
                comm.barrier();
                let after_barrier = comm.meetings();
                comm.all_reduce_sum_u64(1);
                let after_reduce = comm.meetings();
                let _: u64 = comm.broadcast(0, (comm.rank() == 0).then_some(&7u64));
                [start, after_barrier, after_reduce, comm.meetings()]
            });
            for r in &report.results {
                assert_eq!(*r, [0, 1, 2, 3], "{ranks} ranks");
            }
        }
    }

    #[test]
    fn broadcast_distributes_roots_value() {
        let report = World::new(3).run(|comm| {
            let v: u64 = comm.broadcast(1, (comm.rank() == 1).then_some(&42u64));
            v
        });
        assert_eq!(report.results, vec![42, 42, 42]);
    }

    #[test]
    fn large_fanout_is_fully_counted() {
        let n = 4;
        let per_rank = 1000u64;
        let report = World::new(n).run(move |comm| {
            let count = Rc::new(RefCell::new(0u64));
            let c2 = Rc::clone(&count);
            comm.register::<u64, _>(PING, move |_, _| *c2.borrow_mut() += 1);
            for i in 0..per_rank {
                comm.async_send((i as usize) % comm.n_ranks(), PING, &i);
            }
            comm.barrier();
            let n = *count.borrow();
            n
        });
        let total: u64 = report.results.iter().sum();
        assert_eq!(total, per_rank * n as u64);
        assert_eq!(report.total.count, per_rank * n as u64);
    }

    #[test]
    fn virtual_clock_advances_with_charged_compute() {
        let report = World::new(2).run(|comm| {
            comm.charge_compute(1_000_000); // 1 ms per rank
            comm.barrier();
            comm.now_ns()
        });
        assert!(report.sim_secs >= 1e-3);
        assert!(report.results.iter().all(|&t| t >= 1_000_000));
    }

    #[test]
    fn threshold_flushes_lose_and_reorder_nothing() {
        // With a tiny threshold every message is its own frame, flushed long
        // before the barrier; the destination handles them all, in the order
        // they were sent, after the meeting that carries them.
        let report = World::new(2).flush_threshold(16).run(|comm| {
            let got = Rc::new(RefCell::new(Vec::new()));
            let g = Rc::clone(&got);
            comm.register::<u64, _>(PING, move |_, v| g.borrow_mut().push(v));
            if comm.rank() == 0 {
                for i in 0..100u64 {
                    comm.async_send(1, PING, &i);
                }
            }
            comm.barrier();
            got.take()
        });
        assert_eq!(report.results[1], (0..100).collect::<Vec<u64>>());
    }

    /// A rank that sits a round out keeps the mail the last meeting brought
    /// it and dispatches it, in order, ahead of the next meeting's.
    #[test]
    fn a_stalled_rank_keeps_its_mail_in_order() {
        let profile = crate::fault::FaultProfile {
            stall: 0.5,
            ..crate::fault::FaultProfile::clean()
        };
        // Rank 1 stalls in the second round of the first barrier and at no
        // other time this test lives through; a stall is a pure function of
        // `(seed, rank, epoch)`, so the seed can be searched for.
        let plan = (0..)
            .map(|seed| FaultPlan::new(profile, seed))
            .find(|p| p.stall(1, 1) && !(0..4).any(|e| p.stall(0, e) || (e != 1 && p.stall(1, e))))
            .unwrap();
        let report = World::new(2).fault_plan(plan).run(|comm| {
            let got = Rc::new(RefCell::new(Vec::new()));
            let g = Rc::clone(&got);
            comm.register::<u32, _>(PING, move |c, v| g.borrow_mut().push((v, c.meetings())));
            // PONG runs on rank 0 in round two, so its PING reaches rank 1
            // one meeting after the PING sent from here.
            comm.register::<u32, _>(PONG, |c, v| c.async_send(1, PING, &v));
            if comm.rank() == 0 {
                comm.async_send(1, PING, &1u32);
                comm.async_send(0, PONG, &2u32);
            }
            comm.barrier();
            got.take()
        });
        // Both in round three, the first meeting's frame first.
        assert_eq!(report.results[1], vec![(1, 2), (2, 2)]);
        assert_eq!(report.faults.unwrap().stalls, 1);
    }

    #[test]
    fn wire_bytes_match_frame_accounting() {
        let report = World::new(2).run(|comm| {
            comm.register::<u64, _>(PING, |_, _| {});
            if comm.rank() == 0 {
                comm.async_send(1, PING, &1u64);
            }
            comm.barrier();
        });
        let t = report.tag(PING).unwrap();
        assert_eq!(t.count, 1);
        assert_eq!(t.bytes, (crate::comm::FRAME_HEADER_BYTES + 8) as u64);
    }

    #[test]
    fn processed_equals_sent_after_run() {
        // The final implicit barrier must retire everything.
        let report = World::new(3).run(|comm| {
            comm.register::<u32, _>(PING, |_, _| {});
            // Fire at the very end of f, with no explicit barrier.
            comm.async_send((comm.rank() + 1) % comm.n_ranks(), PING, &1u32);
        });
        assert_eq!(report.total.count, 3);
    }

    #[test]
    fn sim_time_shrinks_with_more_ranks_for_fixed_total_work() {
        let run = |ranks: usize| {
            let total_work = 64_000_000u64; // 64 ms of virtual compute
            World::new(ranks)
                .run(move |comm| {
                    comm.charge_compute(total_work / comm.n_ranks() as u64);
                    comm.barrier();
                })
                .sim_secs
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(
            t4 < t1 / 2.0,
            "virtual clock must show strong scaling: t1={t1} t4={t4}"
        );
    }

    #[test]
    fn relayed_chains_are_retired_before_the_barrier_returns() {
        // Regression guard for the termination-detection invariant:
        // sent == processed implies no frame is left in any mailbox.
        let report = World::new(4).run(|comm| {
            comm.register::<u32, _>(PING, |c, v| {
                if v > 0 {
                    let next = (c.rank() + 1) % c.n_ranks();
                    c.async_send(next, PING, &(v - 1));
                }
            });
            comm.async_send((comm.rank() + 1) % comm.n_ranks(), PING, &25u32);
            comm.barrier();
            comm.now_ns()
        });
        // 4 chains x 26 messages each.
        assert_eq!(report.total.count, 4 * 26);
    }

    #[test]
    fn a_tracer_attached_to_two_runs_in_a_row_accumulates_both() {
        let tracer = Arc::new(Tracer::new(2));
        let world = World::new(2).tracer(Arc::clone(&tracer));
        let program = |comm: &Comm| {
            comm.register::<u64, _>(PING, |_, _| {});
            comm.async_send(1 - comm.rank(), PING, &7u64);
            comm.trace_hist("sample", comm.rank() as u64);
            comm.gauge("level", 1.0);
            comm.barrier();
        };
        world.run(program);
        let (events, log) = (tracer.total_events(), tracer.span_log());
        let hists = tracer.hist_snapshots();
        let points = |t: &Tracer| -> usize {
            (t.series_snapshot().iter())
                .filter(|s| s.name == "level")
                .map(|s| s.points.len())
                .sum()
        };
        assert_eq!(points(&tracer), 2);

        world.run(program);
        assert_eq!(tracer.total_events(), 2 * events);
        for (twice, once) in tracer.span_log().iter().zip(&log) {
            // Each run's world starts its own virtual clock at 0, so the
            // second run's events are the first's over again.
            assert_eq!(twice[..once.len()], once[..]);
            assert_eq!(twice[once.len()..], once[..]);
        }
        for ((name, twice), (_, once)) in tracer.hist_snapshots().iter().zip(&hists) {
            assert_eq!(twice.count, 2 * once.count, "{name}");
            assert_eq!((twice.min, twice.max), (once.min, once.max), "{name}");
        }
        assert_eq!(points(&tracer), 4);
    }
}
