//! Integration tests for the deterministic fault-injection layer and the
//! reliable-delivery protocol (`ygm::fault` + the `Comm` transport).
//!
//! The regression seeds named here were found by sweeping the harness during
//! development; each is pinned so the discovering schedule replays forever.

use std::cell::RefCell;
use std::rc::Rc;
use ygm::fault::{FaultPlan, FaultProfile};
use ygm::World;

const PING: u16 = 0;
const PONG: u16 = 1;

/// A chatty SPMD program: every rank fans out `per_rank` PINGs round-robin,
/// each PING handler replies PONG to the sender. Returns per-rank
/// `(pings_handled, pongs_handled)`.
fn chatty(world: World, per_rank: u64) -> ygm::WorldReport<(u64, u64)> {
    world.run(move |comm| {
        let pings = Rc::new(RefCell::new(0u64));
        let pongs = Rc::new(RefCell::new(0u64));
        let p1 = Rc::clone(&pings);
        let p2 = Rc::clone(&pongs);
        comm.register::<u64, _>(PING, move |c, from| {
            *p1.borrow_mut() += 1;
            c.async_send(from as usize, PONG, &1u64);
        });
        comm.register::<u64, _>(PONG, move |_, _| *p2.borrow_mut() += 1);
        for i in 0..per_rank {
            let dest = (comm.rank() + 1 + i as usize) % comm.n_ranks();
            comm.async_send(dest, PING, &(comm.rank() as u64));
        }
        comm.barrier();
        let out = (*pings.borrow(), *pongs.borrow());
        out
    })
}

/// Exactly-once conservation under every profile: all PINGs and PONGs are
/// handled precisely once world-wide, no matter what the transport injects.
#[test]
fn faulted_worlds_conserve_messages_exactly_once() {
    let n = 4;
    let per_rank = 300u64;
    for profile in [
        FaultProfile::clean(),
        FaultProfile::lossy(),
        FaultProfile::stormy(),
    ] {
        for sim_seed in [1u64, 2, 3] {
            let world = World::new(n)
                .flush_threshold(128)
                .fault_plan(FaultPlan::new(profile, sim_seed));
            let report = chatty(world, per_rank);
            let pings: u64 = report.results.iter().map(|r| r.0).sum();
            let pongs: u64 = report.results.iter().map(|r| r.1).sum();
            assert_eq!(
                pings,
                n as u64 * per_rank,
                "ping conservation failed (profile {} seed {sim_seed})",
                profile.name()
            );
            assert_eq!(
                pongs,
                n as u64 * per_rank,
                "pong conservation failed (profile {} seed {sim_seed})",
                profile.name()
            );
            let faults = report.faults.expect("fault report missing");
            assert_eq!(faults.sim_seed, sim_seed);
            if profile.is_hostile() {
                assert!(
                    faults.injected() > 0,
                    "hostile profile {} injected nothing at seed {sim_seed}",
                    profile.name()
                );
            }
        }
    }
}

/// The clean plan runs the full reliable-delivery machinery (sequencing,
/// acks, dedup) but injects nothing — results must match a plan-free world,
/// and the machinery must have nothing to recover: an ack is one meeting old
/// when the sender applies it, which the two-epoch grace of a fresh frame
/// covers.
#[test]
fn clean_plan_matches_fault_free_world() {
    let n = 3;
    let baseline = chatty(World::new(n).flush_threshold(64), 100);
    let clean = chatty(
        World::new(n)
            .flush_threshold(64)
            .fault_plan(FaultPlan::new(FaultProfile::clean(), 7)),
        100,
    );
    assert_eq!(baseline.results, clean.results);
    assert!(baseline.faults.is_none());
    let faults = clean.faults.unwrap();
    assert_eq!(faults.injected(), 0);
    assert_eq!((faults.retransmits, faults.dedup_discards), (0, 0));
}

/// Same seed => same run: the application outcome, every injected fault,
/// every recovery the transport made for it, and the virtual time all of it
/// cost, phase by phase. A frame's fault coordinates, the round a rank
/// dispatches it in and the epoch a retransmit fires at are functions of what
/// the ranks flushed, never of which thread ran first. This is the property
/// that makes `--sim-seed` a complete bug report.
#[test]
fn same_seed_replays_identically() {
    let n = 4;
    let run = || {
        chatty(
            World::new(n)
                .flush_threshold(96)
                .fault_plan(FaultPlan::new(FaultProfile::stormy(), 0xFACE)),
            250,
        )
    };
    let a = run();
    assert!(a.faults.as_ref().unwrap().retransmits > 0);
    for _ in 0..10 {
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!((a.total, &a.matrix), (b.total, &b.matrix));
        assert_eq!(a.faults, b.faults);
        assert_eq!((a.sim_ns, &a.phases), (b.sim_ns, &b.phases));
    }
}

/// Regression (satellite: barrier/termination bug under duplication).
///
/// Discovering seed: 0xBAD5EED. A transport that duplicates frames without
/// receive-side dedup dispatches the copy too: `processed` overruns `sent`,
/// `sent == processed` never holds again, and the termination-detection
/// barrier spins forever. With the dedup layer the copy is discarded, the
/// counters stay conserved, and the barrier exits.
#[test]
fn duplicated_frames_do_not_wedge_termination_detection() {
    let profile = FaultProfile {
        drop: 0.0,
        dup: 1.0, // duplicate every frame
        delay: 0.0,
        max_delay_epochs: 0,
        stall: 0.0,
        flush_jitter: 0.0,
        max_faulty_attempts: 4,
    };
    let n = 3;
    let world = World::new(n)
        .flush_threshold(64)
        .fault_plan(FaultPlan::new(profile, 0xBAD5EED));
    let report = chatty(world, 200);
    let pings: u64 = report.results.iter().map(|r| r.0).sum();
    assert_eq!(pings, n as u64 * 200);
    let faults = report.faults.unwrap();
    assert!(faults.duplicated > 0, "profile failed to duplicate");
    assert!(
        faults.dedup_discards >= faults.duplicated,
        "every injected duplicate must be discarded (dup={} discards={})",
        faults.duplicated,
        faults.dedup_discards
    );
}

/// Heavy drop storms terminate because the attempt cap forces frames
/// through fault-free once retransmission has charged enough virtual time.
#[test]
fn drop_storms_terminate_via_forced_delivery() {
    let profile = FaultProfile {
        drop: 0.95,
        dup: 0.0,
        delay: 0.0,
        max_delay_epochs: 0,
        stall: 0.0,
        flush_jitter: 0.0,
        max_faulty_attempts: 3,
    };
    let n = 3;
    let world = World::new(n)
        .flush_threshold(64)
        .fault_plan(FaultPlan::new(profile, 5));
    let report = chatty(world, 120);
    let pings: u64 = report.results.iter().map(|r| r.0).sum();
    assert_eq!(pings, n as u64 * 120);
    let faults = report.faults.unwrap();
    assert!(faults.dropped > 0);
    assert!(faults.retransmits > 0);
}

/// Injected faults must charge the virtual clock: a run with guaranteed
/// frame delays takes longer in sim-time than the identical clean run.
#[test]
fn faults_charge_virtual_time() {
    let delayed_profile = FaultProfile {
        drop: 0.0,
        dup: 0.0,
        delay: 1.0,
        max_delay_epochs: 4,
        stall: 0.0,
        flush_jitter: 0.0,
        max_faulty_attempts: 4,
    };
    let n = 2;
    let clean = chatty(
        World::new(n).fault_plan(FaultPlan::new(FaultProfile::clean(), 1)),
        50,
    );
    let delayed = chatty(
        World::new(n).fault_plan(FaultPlan::new(delayed_profile, 1)),
        50,
    );
    assert!(delayed.faults.as_ref().unwrap().delayed > 0);
    assert!(
        delayed.sim_secs > clean.sim_secs,
        "delays must extend sim-time: clean={} delayed={}",
        clean.sim_secs,
        delayed.sim_secs
    );
}

/// A transport bug that permanently prevents delivery must not hang: the
/// storm guard converts the wedged barrier into a panic naming the sim
/// seed, so the failure is replayable instead of a timeout.
#[test]
fn storm_guard_converts_hangs_into_replayable_failures() {
    let black_hole = FaultProfile {
        drop: 1.0,
        dup: 0.0,
        delay: 0.0,
        max_delay_epochs: 0,
        stall: 0.0,
        flush_jitter: 0.0,
        max_faulty_attempts: u32::MAX, // the cap never forces delivery
    };
    let err = std::panic::catch_unwind(|| {
        World::new(2)
            .fault_plan(FaultPlan::new(black_hole, 0xDEAD))
            .run(|comm| {
                comm.register::<u64, _>(PING, |_, _| {});
                if comm.rank() == 0 {
                    comm.async_send(1, PING, &1u64);
                }
                comm.barrier();
            });
    })
    .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
    assert!(
        msg.contains("--sim-seed 57005"), // 0xDEAD
        "storm panic must name the replay seed, got: {msg}"
    );
}

/// Regression (satellite: panic masking in `World::run`).
///
/// When one rank panics, peers abort out of the poisoned rendezvous with a
/// secondary payload. Joining in rank order used to re-raise whichever
/// came first — usually rank 0's "another rank panicked" — burying the
/// real failure. The caller must see the original payload.
#[test]
fn peer_abort_does_not_mask_the_original_panic() {
    let err = std::panic::catch_unwind(|| {
        World::new(4).run(|comm| {
            comm.register::<u64, _>(PING, |_, _| {});
            comm.barrier(); // everyone in lock-step first
            if comm.rank() == 2 {
                panic!("rank 2 exploded");
            }
            comm.barrier(); // survivors block here until poisoned
        });
    })
    .unwrap_err();
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert_eq!(
        msg, "rank 2 exploded",
        "caller must receive the original panic payload, not a secondary abort"
    );
}

/// Collectives (which bypass the message path) still work under faults.
#[test]
fn collectives_survive_fault_mode() {
    let report = World::new(4)
        .fault_plan(FaultPlan::new(FaultProfile::stormy(), 21))
        .run(|comm| {
            let sum = comm.all_reduce_sum_u64(comm.rank() as u64 + 1);
            let v: u64 = comm.broadcast(2, (comm.rank() == 2).then_some(&99u64));
            (sum, v)
        });
    for r in &report.results {
        assert_eq!(*r, (10, 99));
    }
}
