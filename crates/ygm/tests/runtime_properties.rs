//! Property tests of the simulated runtime: codec round-trips under
//! arbitrary values, message conservation under random traffic patterns,
//! and partition-independent collective results — plus the accounting
//! equivalence battery: every counter a run reports equals a value the
//! test derives from the traffic pattern alone, whatever the rank count
//! and whether or not frames are being dropped.

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ygm::codec::{decode_from_bytes, encode_to_bytes};
use ygm::{CostModel, FaultPlan, FaultProfile, World, FRAME_HEADER_BYTES};

type Composite = (u32, f32, Vec<u64>, Vec<(u32, bool)>, Option<i64>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trips_arbitrary_composites(
        a in any::<u32>(),
        b in any::<f32>().prop_filter("NaN breaks Eq only", |x| !x.is_nan()),
        v in prop::collection::vec(any::<u64>(), 0..20),
        s in prop::collection::vec((any::<u32>(), any::<bool>()), 0..10),
        o in prop::option::of(any::<i64>()),
    ) {
        let value = (a, b, v, s, o);
        let enc = encode_to_bytes(&value);
        prop_assert_eq!(enc.len(), ygm::Encode::wire_size(&value));
        let back: Composite = decode_from_bytes(enc);
        prop_assert_eq!(back, value);
    }
}

proptest! {
    // World spins up threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every message sent is processed exactly once, no matter the traffic
    /// pattern, rank count, or flush threshold.
    #[test]
    fn message_conservation(
        ranks in 1usize..6,
        sends in prop::collection::vec((0usize..6, any::<u32>()), 0..60),
        flush in prop::sample::select(vec![32usize, 1024, 64 * 1024]),
    ) {
        const TAG: u16 = 0;
        let sends = Arc::new(sends);
        let report = World::new(ranks).flush_threshold(flush).run(|comm| {
            let got = Rc::new(RefCell::new(0u64));
            let g = Rc::clone(&got);
            comm.register::<u32, _>(TAG, move |_, _| *g.borrow_mut() += 1);
            // Rank 0 issues the scripted sends (destinations mod ranks).
            if comm.rank() == 0 {
                for &(dest, payload) in sends.iter() {
                    comm.async_send(dest % comm.n_ranks(), TAG, &payload);
                }
            }
            comm.barrier();
            let n = *got.borrow();
            n
        });
        let delivered: u64 = report.results.iter().sum();
        prop_assert_eq!(delivered, sends.len() as u64);
        prop_assert_eq!(report.total.count, sends.len() as u64);
    }

    /// All-reduce results are identical on every rank and independent of
    /// the rank count.
    #[test]
    fn all_reduce_is_rank_count_invariant(
        values in prop::collection::vec(1u64..1000, 1..5),
    ) {
        let total: u64 = values.iter().sum();
        for ranks in [1usize, 2, 4] {
            let values = values.clone();
            let report = World::new(ranks).run(move |comm| {
                // Spread the addends over ranks round-robin.
                let mine: u64 = values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % comm.n_ranks() == comm.rank())
                    .map(|(_, v)| *v)
                    .sum();
                comm.all_reduce_sum_u64(mine)
            });
            for r in &report.results {
                prop_assert_eq!(*r, total);
            }
        }
    }

    /// The virtual clock is monotone in added work.
    #[test]
    fn clock_monotone_in_compute(work in 0u64..10_000_000) {
        let base = World::new(2)
            .run(|comm| comm.barrier())
            .sim_secs;
        let loaded = World::new(2)
            .run(move |comm| {
                comm.charge_compute(work);
                comm.barrier();
            })
            .sim_secs;
        prop_assert!(loaded >= base);
    }
}

#[test]
fn rank_panic_propagates_to_caller() {
    // A panic on any rank must surface from World::run, not hang the
    // barrier. Catch it at the test boundary.
    let result = std::panic::catch_unwind(|| {
        World::new(2).run(|comm| {
            if comm.rank() == 1 {
                panic!("rank 1 exploded");
            }
            // Rank 0 must not deadlock waiting for rank 1's barrier; it
            // ends its SPMD body immediately and the implicit final
            // barrier would wait forever if the panic were swallowed.
        })
    });
    assert!(result.is_err(), "panic must propagate");
}

/// Peers parked inside an all-reduce are released by a panicking rank too,
/// and the caller sees that rank's own message, not the secondary abort of
/// the ranks it released. The gate orders it: the panic comes after both
/// peers are on their way into the collective.
#[test]
fn rank_panic_during_an_all_reduce_re_raises_the_original_payload() {
    let gate = std::sync::Barrier::new(3);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        World::new(3).run(|comm| {
            gate.wait();
            if comm.rank() == 1 {
                panic!("rank 1 exploded before the reduce");
            }
            comm.all_reduce_sum_u64(1)
        })
    }));
    let text = panic_text(result.expect_err("panic must propagate"));
    assert_eq!(text, "rank 1 exploded before the reduce");
}

#[test]
fn empty_world_rejected() {
    let result = std::panic::catch_unwind(|| World::new(0));
    assert!(result.is_err());
}

#[test]
fn sequential_worlds_are_independent() {
    // Worlds must not leak state (tags, counters) into each other.
    for seed in 0..3u64 {
        let report = World::new(2).run(move |comm| {
            let tag = 5u16;
            comm.register::<u64, _>(tag, |_, _| {});
            comm.async_send(0, tag, &seed);
            comm.barrier();
        });
        assert_eq!(
            report.total.count, 2,
            "world for seed {seed} saw foreign traffic"
        );
    }
}

/// The panic message a world re-raised, whichever string type carried it.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    }
}

/// A handler decodes straight off the block cursor, so a message type
/// shorter than the frame it was sent as would misalign every frame behind
/// it. That is a hard, named abort in release builds too — through the
/// poisoned rendezvous, so the other ranks do not hang — for the by-value
/// registration and for the reusing one.
#[test]
fn mistyped_handler_aborts_the_world_naming_the_tag() {
    const TAG: u16 = 9;
    for (ranks, reusing) in [(1usize, false), (2, false), (1, true), (2, true)] {
        let result = std::panic::catch_unwind(|| {
            World::new(ranks).run(|comm| {
                if reusing {
                    comm.register_mut::<u32, _>(TAG, |_, _| {});
                } else {
                    comm.register::<u32, _>(TAG, |_, _| {});
                }
                if comm.rank() == 0 {
                    // A well-typed frame first, so the reusing form is on
                    // its `decode_into` path for the second: 8 payload
                    // bytes to a handler that decodes 4.
                    comm.async_send(comm.n_ranks() - 1, TAG, &7u32);
                    comm.async_send(comm.n_ranks() - 1, TAG, &(1u32, 2u32));
                }
                comm.barrier();
            })
        });
        let text = panic_text(result.expect_err("a short decode must abort the world"));
        assert!(
            text.contains("tag 9") && text.contains("8-byte frame"),
            "abort message does not name the frame: {text:?}"
        );
    }
}

/// The reusing registration keeps one decoded message per tag and decodes
/// every arrival into it. A long row, then a short one, then a long one
/// again: each handler call sees exactly its own message — nothing left
/// over from the previous one — even when the handler scribbles on it, and
/// sent as a tuple of borrows.
#[test]
fn reusing_handler_sees_exactly_each_message() {
    const TAG: u16 = 6;
    type Row = (u32, Vec<u32>, Vec<f32>);
    let row = |i: u32| -> Row {
        let len = [40usize, 2, 0, 300, 1][i as usize % 5];
        (
            i,
            (0..len as u32).map(|j| i * 1_000 + j).collect(),
            (0..len * 3).map(|j| (i + j as u32) as f32 * 0.5).collect(),
        )
    };
    for ranks in [1usize, 2] {
        let report = World::new(ranks).flush_threshold(512).run(|comm| {
            let seen: Rc<RefCell<Vec<Row>>> = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&seen);
            comm.register_mut::<Row, _>(TAG, move |_, msg| {
                sink.borrow_mut().push(msg.clone());
                // Allowed by the contract, and invisible to the next call.
                msg.1.push(u32::MAX);
                msg.2.clear();
            });
            if comm.rank() == 0 {
                for i in 0..25 {
                    let (id, ids, vec) = row(i);
                    comm.async_send(comm.n_ranks() - 1, TAG, &(id, ids.as_slice(), &vec));
                }
            }
            comm.barrier();
            let got = seen.borrow().clone();
            got
        });
        let want: Vec<Row> = (0..25).map(row).collect();
        assert_eq!(report.results[ranks - 1], want, "{ranks} ranks");
    }
}

// ---- Accounting equivalence -------------------------------------------
//
// A three-hop handler chain (send -> handler sends -> handler sends), the
// shape of the Type 1 -> Type 2+ -> Type 3 cascade:
//
//   rank r, i in 0..M:  HOP_A (r, [0u8; i % 5])  -> rank (r + i) % n
//   on HOP_A (o, body): HOP_B (o, body.len())    -> rank (o + 1) % n
//   on HOP_B (o, len):  HOP_C len                -> rank o
//
// then one barrier, one all-reduce, then one more HOP_C from every rank to
// its right-hand neighbour with no barrier of the rank's own after it. The
// expected counters are computed by `Expected::of` from that description
// only.

const HOP_A: u16 = 3;
const HOP_B: u16 = 4;
const HOP_C: u16 = 5;
const CHAIN_SENDS: usize = 23;
const COMPUTE_MAIN: u64 = 1_000;
const COMPUTE_A: u64 = 100;
const COMPUTE_B: u64 = 10;

const HOP_NS: u64 = 700;

/// Integer-exact in f64: link cost is `100 * msgs + bytes`, a barrier or a
/// collective `700 * ceil(log2(ranks))`.
fn exact_cost() -> CostModel {
    CostModel {
        alpha_ns: 100.0,
        bytes_per_ns: 1.0,
        barrier_hop_ns: HOP_NS as f64,
        dist_elem_ns: 1.0,
    }
}

#[derive(Default, Clone, PartialEq, Debug)]
struct PhaseExpect {
    msgs: u64,
    bytes: u64,
    send_ns: Vec<f64>,
    recv_ns: Vec<f64>,
    compute_ns: Vec<f64>,
}

struct Expected {
    n: usize,
    /// `[tag - HOP_A][src * n + dest]` message counts and bytes.
    counts: [Vec<u64>; 3],
    bytes: [Vec<u64>; 3],
    phases: [PhaseExpect; 2],
}

impl Expected {
    fn of(n: usize) -> Self {
        let mut e = Expected {
            n,
            counts: std::array::from_fn(|_| vec![0; n * n]),
            bytes: std::array::from_fn(|_| vec![0; n * n]),
            phases: std::array::from_fn(|_| PhaseExpect {
                send_ns: vec![0.0; n],
                recv_ns: vec![0.0; n],
                compute_ns: vec![0.0; n],
                ..PhaseExpect::default()
            }),
        };
        for r in 0..n {
            e.phases[0].compute_ns[r] += (COMPUTE_MAIN + r as u64) as f64;
            for i in 0..CHAIN_SENDS {
                let a_dest = (r + i) % n;
                let b_dest = (r + 1) % n;
                // (u32, Vec<u8>), (u32, u64), u32.
                e.edge(0, HOP_A, r, a_dest, 4 + 4 + i % 5);
                e.phases[0].compute_ns[a_dest] += COMPUTE_A as f64;
                e.edge(0, HOP_B, a_dest, b_dest, 4 + 8);
                e.phases[0].compute_ns[b_dest] += COMPUTE_B as f64;
                e.edge(0, HOP_C, b_dest, r, 4);
            }
            e.edge(1, HOP_C, r, (r + 1) % n, 4);
        }
        e
    }

    fn edge(&mut self, phase: usize, tag: u16, src: usize, dest: usize, payload: usize) {
        let bytes = (FRAME_HEADER_BYTES + payload) as u64;
        let t = (tag - HOP_A) as usize;
        self.counts[t][src * self.n + dest] += 1;
        self.bytes[t][src * self.n + dest] += bytes;
        if src != dest {
            let p = &mut self.phases[phase];
            p.msgs += 1;
            p.bytes += bytes;
            p.send_ns[src] += 100.0 + bytes as f64;
            p.recv_ns[dest] += 100.0 + bytes as f64;
        }
    }
}

/// Run the chain; returns the report and the number of handler executions
/// world-wide (counted outside the world, so the HOP_C handled inside the
/// final implicit barrier is included).
fn run_chain(world: World) -> (ygm::WorldReport<()>, u64) {
    let handled = Arc::new(AtomicU64::new(0));
    let report = world.cost_model(exact_cost()).run(|comm| {
        let h = Arc::clone(&handled);
        comm.register::<(u32, Vec<u8>), _>(HOP_A, move |c, (origin, body)| {
            h.fetch_add(1, Ordering::Relaxed);
            c.charge_compute(COMPUTE_A);
            let dest = (origin as usize + 1) % c.n_ranks();
            c.async_send(dest, HOP_B, &(origin, body.len() as u64));
        });
        let h = Arc::clone(&handled);
        comm.register::<(u32, u64), _>(HOP_B, move |c, (origin, len)| {
            h.fetch_add(1, Ordering::Relaxed);
            c.charge_compute(COMPUTE_B);
            c.async_send(origin as usize, HOP_C, &(len as u32));
        });
        let h = Arc::clone(&handled);
        comm.register::<u32, _>(HOP_C, move |_, _| {
            h.fetch_add(1, Ordering::Relaxed);
        });

        comm.charge_compute(COMPUTE_MAIN + comm.rank() as u64);
        for i in 0..CHAIN_SENDS {
            let dest = (comm.rank() + i) % comm.n_ranks();
            comm.async_send(dest, HOP_A, &(comm.rank() as u32, vec![0u8; i % 5]));
        }
        comm.barrier();
        // A collective between the two phases: it must add its latency to
        // the clock and nothing to either phase.
        assert_eq!(comm.all_reduce_sum_u64(1), comm.n_ranks() as u64);
        // Sent after this rank's last barrier: only the world's implicit
        // final barrier can publish it.
        comm.async_send((comm.rank() + 1) % comm.n_ranks(), HOP_C, &7u32);
    });
    (report, handled.load(Ordering::Relaxed))
}

/// Every reported counter equals the independently derived one, at ranks
/// {1, 2, 4}, on the plain transport and with frames being dropped,
/// duplicated and delayed underneath.
#[test]
fn three_hop_chain_accounting_matches_independent_count() {
    for n in [1usize, 2, 4] {
        let want = Expected::of(n);
        for lossy in [false, true] {
            let world = if lossy {
                World::new(n).fault_plan(FaultPlan::new(FaultProfile::lossy(), 0xACC7))
            } else {
                World::new(n)
            };
            let (report, handled) = run_chain(world.flush_threshold(96));
            let ctx = format!("{n} ranks, lossy = {lossy}");

            // Matrix, cell for cell; tags and total follow from it.
            assert_eq!(report.matrix.n_ranks, n as u64, "{ctx}");
            assert_eq!(report.matrix.tags.len(), 3, "{ctx}");
            let (mut count, mut bytes, mut remote, mut remote_bytes) = (0, 0, 0, 0);
            for (t, got) in report.matrix.tags.iter().enumerate() {
                assert_eq!(got.tag, u64::from(HOP_A) + t as u64, "{ctx}");
                assert_eq!(got.counts, want.counts[t], "{ctx}: tag {} counts", got.tag);
                assert_eq!(got.bytes, want.bytes[t], "{ctx}: tag {} bytes", got.tag);
                let stats = report
                    .tag(HOP_A + t as u16)
                    .expect("tag in matrix but not in tags");
                let off_diagonal = |cells: &[u64]| -> u64 {
                    (0..n * n)
                        .filter(|c| c / n != c % n)
                        .map(|c| cells[c])
                        .sum()
                };
                assert_eq!(stats.count, got.counts.iter().sum::<u64>(), "{ctx}");
                assert_eq!(stats.bytes, got.bytes.iter().sum::<u64>(), "{ctx}");
                assert_eq!(stats.remote_count, off_diagonal(&got.counts), "{ctx}");
                assert_eq!(stats.remote_bytes, off_diagonal(&got.bytes), "{ctx}");
                count += stats.count;
                bytes += stats.bytes;
                remote += stats.remote_count;
                remote_bytes += stats.remote_bytes;
            }
            // 3 hops per chain send plus the post-barrier send, per rank.
            assert_eq!(count, (n * (3 * CHAIN_SENDS + 1)) as u64, "{ctx}");
            assert_eq!(report.total.count, count, "{ctx}");
            assert_eq!(report.total.bytes, bytes, "{ctx}");
            assert_eq!(report.total.remote_count, remote, "{ctx}");
            assert_eq!(report.total.remote_bytes, remote_bytes, "{ctx}");
            // processed == sent: every counted message ran its handler once.
            assert_eq!(handled, count, "{ctx}");

            // Phases: the chain, then the send after the last barrier.
            assert_eq!(report.phases.len(), 2, "{ctx}");
            for (got, want) in report.phases.iter().zip(&want.phases) {
                let got = PhaseExpect {
                    msgs: got.msgs,
                    bytes: got.bytes,
                    send_ns: got.rank_send_ns().to_vec(),
                    recv_ns: got.rank_recv_ns().to_vec(),
                    compute_ns: got.rank_compute_ns().to_vec(),
                };
                assert_eq!(&got, want, "{ctx}");
                // Every remote message leaves one rank and enters another.
                assert_eq!(
                    got.send_ns.iter().sum::<f64>(),
                    got.recv_ns.iter().sum::<f64>(),
                    "{ctx}"
                );
            }
            let phase_msgs: u64 = report.phases.iter().map(|p| p.msgs).sum();
            assert_eq!(phase_msgs, report.total.remote_count, "{ctx}");

            // The clock is the phases plus the one collective, to the
            // nanosecond (hops: 0, 1, 2 at ranks 1, 2, 4).
            let phase_ns: u64 = report.phases.iter().map(|p| p.total_ns).sum();
            let collective_ns = HOP_NS * n.trailing_zeros() as u64;
            assert_eq!(report.sim_ns, phase_ns + collective_ns, "{ctx}");
        }
    }
}
