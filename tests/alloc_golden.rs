//! Allocation pins for the steady-state message path.
//!
//! A check message is bytes appended to a per-destination buffer and read
//! back out of the receive buffer (paper §4.3–4.4): sending borrows,
//! dispatch decodes into one kept message per tag, handlers keep their
//! scratch. This binary holds that with a counting `#[global_allocator]`
//! over `System` — the reason it is its own test binary, with a single
//! `#[test]`, run with `--test-threads 1`: the counter is process-wide.
//!
//! The ceilings are an order of magnitude under what the parent of the PR
//! that introduced them measured on the same inputs (`c2f2747`: 4.14 and
//! 4.69 allocations per message of an optimized / unoptimized build, 6.52
//! per expansion of a distributed search; that PR: 0.11, 0.07, 0.45; with
//! pooled query state, one-allocation phase records and reused frame
//! storage: 0.10, 0.06, 0.15). What is left scales with barriers and
//! flushed frames, not messages: a `PhaseRecord` per barrier, and one
//! allocation per frame — the `Arc` header of the frozen `Bytes`; its
//! replacement send buffer is the storage of a frame already dispatched,
//! and the outbox and the meeting's queues it travels through keep their
//! capacity from round to round.

use dataset::{presets, L2};
use dnnd::msgs::Type2Plus;
use dnnd::{build, distributed_search_batch, CommOpts, DnndConfig};
use nnd::SearchParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ygm::{Encode, World, DEFAULT_FLUSH_THRESHOLD, FRAME_HEADER_BYTES};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations (and reallocations) made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const ROW_TAG: u16 = 7;

/// Allocations of sending `rows` borrowed `Type2Plus` rows to this rank,
/// `per_frame` at a time with a barrier after each — one flushed frame,
/// which that barrier carries through a meeting and dispatches through a
/// reusing handler — and of `barriers` barriers in all (the rest find
/// nothing to do), on a one-rank world already warmed by a few rows.
fn row_allocations(rows: usize, per_frame: usize, barriers: usize) -> u64 {
    let vec: Vec<f32> = (0..96).map(|i| i as f32 * 0.37 - 11.5).collect();
    let ids: Vec<u32> = (0..8).collect();
    let report = World::new(1).run(|comm| {
        let seen = Rc::new(Cell::new(0usize));
        let sink = Rc::clone(&seen);
        comm.register_mut::<Type2Plus<Vec<f32>>, _>(ROW_TAG, move |_, msg| {
            sink.set(sink.get() + msg.u2s.len() + msg.vec.len());
        });
        let send = |n: usize, barriers: usize| {
            for i in 0..n {
                // Longest row first, so the kept message never regrows.
                let tails = &ids[..ids.len() - i % 3];
                comm.async_send(0, ROW_TAG, &(i as u32, tails, 0.5f32, &vec));
                if (i + 1) % per_frame == 0 {
                    comm.barrier();
                }
            }
            for _ in n / per_frame..barriers {
                comm.barrier();
            }
        };
        send(16, 1);
        let ((), allocations) = counted(|| send(rows, barriers));
        assert!(seen.get() > rows * 96, "every row was dispatched");
        allocations
    });
    report.results[0]
}

#[test]
fn the_message_path_does_not_allocate_per_message() {
    // (i) N and 4N rows cost the same up to the frames they fill: the
    // `Arc` header per flushed frame — its replacement buffer is the frame
    // dispatched before it — plus the list of phases doubling a few times.
    // Both runs pass as many barriers (a barrier allocates its
    // `PhaseRecord`), so what differs is the frames.
    let row_bytes = FRAME_HEADER_BYTES + (0u32, &[0u32; 8][..], 0f32, &vec![0f32; 96]).wire_size();
    // As many rows as stay under the flush threshold: the barrier flushes.
    let per_frame = (DEFAULT_FLUSH_THRESHOLD - 1) / row_bytes;
    let frames = |rows: usize| rows.div_ceil(per_frame) as u64;
    let n = 2_000;
    let barriers = frames(4 * n) as usize;
    let (small, large) = (
        row_allocations(n, per_frame, barriers),
        row_allocations(4 * n, per_frame, barriers),
    );
    let extra_frames = frames(4 * n) - frames(n);
    assert!(
        large <= small + extra_frames + 8,
        "{n} rows: {small} allocations, {} rows: {large} ({extra_frames} more frames)",
        4 * n
    );

    // (ii) Whole protocols, per message and per expansion.
    let base = Arc::new(presets::deep1b_like(1_200, 5));
    for (what, opts) in [
        ("optimized", CommOpts::optimized()),
        ("unoptimized", CommOpts::unoptimized()),
    ] {
        let cfg = DnndConfig::new(10).seed(3).comm_opts(opts).max_iters(6);
        let (out, allocations) = counted(|| build(&World::new(1), &base, &L2, cfg));
        let per_message = allocations as f64 / out.report.total.count as f64;
        assert!(
            per_message < 0.4,
            "{what} build: {allocations} allocations for {} messages = {per_message:.3} each",
            out.report.total.count
        );
    }

    let cfg = DnndConfig::new(10).seed(3).graph_opt(1.5);
    let graph = Arc::new(build(&World::new(1), &base, &L2, cfg).graph);
    let queries = Arc::new(presets::deep1b_like(64, 99));
    let params = SearchParams::new(10)
        .epsilon(0.2)
        .entry_candidates(32)
        .seed(0xD15C);
    let ((_, report), allocations) =
        counted(|| distributed_search_batch(&World::new(1), &base, &graph, &queries, &L2, params));
    let expansions = report
        .tag(dnnd::query::TAG_EXPAND)
        .expect("expansions")
        .count;
    let per_expansion = allocations as f64 / expansions as f64;
    assert!(
        per_expansion < 0.22,
        "search: {allocations} allocations for {expansions} expansions = {per_expansion:.3} each"
    );
}
