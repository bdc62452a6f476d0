//! Two scoped-worker helpers for the shared-memory loops: a data-parallel
//! map over independent items (a batch of queries, a block sweep of
//! brute-force truths, a preset's per-point transform), and an ordered
//! pipeline for a loop whose items are independent to compute but must be
//! applied in order (the NN-Descent neighbour check).
//!
//! [`map_indexed`] is `(0..n).map(|i| f(&mut state, i))` in index order,
//! computed by as many scoped workers as the process may run on
//! ([`std::thread::available_parallelism`], which honours the affinity
//! mask: under `taskset -c 0` it is one worker and nothing is spawned),
//! never more than there are chunks. The calling thread is one of the
//! workers; each worker builds its own `state` with `init()` and takes
//! `chunk` consecutive items at a time off one shared counter. The chunks
//! are put back in index order, so the result is the sequential map's
//! whenever `f(state, i)` does not depend on what `state` saw before — the
//! caller's contract, which every per-worker scratch here keeps (a search
//! resets its marks per query, a sweep clears its buffer per column).
//!
//! [`pipeline`] is `for c in 0..chunks { consume(items, produce(items)) }`
//! over the same fixed chunks of `chunk` consecutive items: the `produce`
//! calls run ahead on `workers - 1` scoped workers — chunk `c` on worker
//! `c % (workers - 1)`, which hands it over through its own bounded
//! channel — while the calling thread runs every `consume`, one
//! chunk at a time in index order. What the consumer sees is therefore the
//! sequential loop's whenever `produce(state, items)` does not depend on
//! what `state` saw before; the consumer itself may carry any state from
//! one chunk to the next. At one worker nothing is spawned and each chunk
//! is produced, then consumed, on the calling thread.
//!
//! There is no pool object: every call spawns its workers inside
//! [`std::thread::scope`] and joins them before it returns. A simulated
//! `ygm` rank is one OS thread and must stay one, so nothing that runs
//! inside a `World` rank calls these with more than one worker.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Queries a worker of a search batch takes at a time: enough to pay for
/// the grab, few enough that the last ones finish together. A batch of this
/// many or fewer is one chunk, so it runs on the calling thread.
pub const QUERY_CHUNK: usize = 16;

/// Chunks a [`pipeline`] producer may finish ahead of the consumer before
/// it waits: enough to ride out one slow chunk, few enough that the scored
/// but unconsumed data stays small.
const AHEAD: usize = 2;

/// The workers [`map_indexed`] runs on: one per core the process may run
/// on, as [`std::thread::available_parallelism`] reports it (so 1 under
/// `taskset -c 0`). A caller that passes a worker count passes this.
pub fn cores() -> usize {
    thread::available_parallelism().map_or(1, |c| c.get())
}

/// `(0..n).map(|i| f(&mut state, i)).collect()`, in index order, with one
/// `state = init()` per worker and `chunk` items per grab. A panic in `f`
/// or `init` propagates to the caller once every worker has stopped.
///
/// # Panics
/// If `chunk` is 0.
pub fn map_indexed<S, T, I, F>(n: usize, chunk: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    map_indexed_on(cores(), n, chunk, init, f)
}

/// [`map_indexed`] on at most `workers` workers.
fn map_indexed_on<S, T, I, F>(workers: usize, n: usize, chunk: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    assert!(chunk > 0, "chunk must be at least 1");
    if n == 0 {
        return Vec::new();
    }
    let chunks = n.div_ceil(chunk);
    let workers = workers.clamp(1, chunks);
    if workers == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    let next = AtomicUsize::new(0);
    // One worker: its own state, then chunks off the counter until none is
    // left; it returns what it computed, tagged with each chunk's number.
    let work = || {
        let mut state = init();
        let mut done: Vec<(usize, Vec<T>)> = Vec::new();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                return done;
            }
            let items = c * chunk..(c * chunk + chunk).min(n);
            done.push((c, items.map(|i| f(&mut state, i)).collect()));
        }
    };
    let mut parts = thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut parts = work();
        for handle in spawned {
            match handle.join() {
                Ok(more) => parts.extend(more),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        parts
    });
    parts.sort_unstable_by_key(|&(c, _)| c);
    parts.into_iter().flat_map(|(_, items)| items).collect()
}

/// `for items in chunks { consume(items, produce(&mut state, items)) }`,
/// where the chunks are `0..n` cut into runs of `chunk` (the last one
/// shorter): `produce` runs ahead on `workers - 1` scoped workers, each
/// with its own `state = init()`, and `consume` runs on the calling thread
/// in index order. At `workers <= 1` nothing is spawned. A panic in
/// `init`, `produce` or `consume` propagates to the caller once every
/// worker has stopped.
///
/// # Panics
/// If `chunk` is 0.
pub fn pipeline<S, T, I, P, C>(
    workers: usize,
    n: usize,
    chunk: usize,
    init: I,
    produce: P,
    mut consume: C,
) where
    T: Send,
    I: Fn() -> S + Sync,
    P: Fn(&mut S, Range<usize>) -> T + Sync,
    C: FnMut(Range<usize>, T),
{
    assert!(chunk > 0, "chunk must be at least 1");
    let chunks = n.div_ceil(chunk);
    let items = |c: usize| c * chunk..(c * chunk + chunk).min(n);
    let producers = workers.saturating_sub(1).min(chunks);
    if producers == 0 {
        if chunks > 0 {
            let mut state = init();
            for c in 0..chunks {
                consume(items(c), produce(&mut state, items(c)));
            }
        }
        return;
    }

    let (init, produce, items) = (&init, &produce, &items);
    thread::scope(|s| {
        let (workers, ready): (Vec<_>, Vec<_>) = (0..producers)
            .map(|w| {
                let (send, ready) = mpsc::sync_channel(AHEAD);
                let worker = s.spawn(move || {
                    let mut state = init();
                    for c in (w..chunks).step_by(producers) {
                        // The consumer is gone only if something panicked.
                        if send.send(produce(&mut state, items(c))).is_err() {
                            return;
                        }
                    }
                });
                (worker, ready)
            })
            .unzip();
        for c in 0..chunks {
            // A closed channel before the last chunk is a producer that
            // panicked: stop here and let the join below report it.
            let Ok(done) = ready[c % producers].recv() else {
                break;
            };
            consume(items(c), done);
        }
        drop(ready);
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An item whose value depends on its index only, computed through a
    /// per-worker buffer the way the callers use one.
    fn item(buf: &mut Vec<u64>, i: usize) -> u64 {
        buf.clear();
        buf.extend((0..=i as u64 % 5).map(|j| j * 31 + i as u64));
        buf.iter().fold(i as u64, |h, &x| h.rotate_left(7) ^ x)
    }

    #[test]
    fn every_worker_count_and_chunk_gives_the_sequential_map() {
        for n in [0usize, 1, 5, 6, 7, 63, 64, 65, 200, 1_000] {
            let want: Vec<u64> = (0..n).map(|i| item(&mut Vec::new(), i)).collect();
            for workers in [1, 2, 3, 8] {
                for chunk in [1, 7, 64] {
                    let got = map_indexed_on(workers, n, chunk, Vec::new, item);
                    assert_eq!(got, want, "n {n}, {workers} workers, chunk {chunk}");
                }
            }
            assert_eq!(map_indexed(n, 7, Vec::new, item), want, "n {n}");
        }
    }

    #[test]
    fn one_worker_per_chunk_at_most() {
        // n < chunk: one chunk, so the calling thread does it all.
        let caller = thread::current().id();
        let on = map_indexed_on(8, 5, 64, || (), |(), _| thread::current().id());
        assert!(on.iter().all(|&t| t == caller));
        // Nothing to do builds no state.
        let none: Vec<()> = map_indexed_on(8, 0, 1, || panic!("state for no items"), |(), _| ());
        assert!(none.is_empty());
    }

    #[test]
    fn each_worker_builds_its_own_state() {
        let inits = AtomicUsize::new(0);
        let init = || {
            inits.fetch_add(1, Ordering::Relaxed);
        };
        let _ = map_indexed_on(3, 90, 1, init, |(), i| i);
        assert!((1..=3).contains(&inits.load(Ordering::Relaxed)));
    }

    #[test]
    #[should_panic(expected = "item 41 failed")]
    fn a_panicking_item_propagates() {
        let _ = map_indexed_on(
            3,
            100,
            4,
            || (),
            |(), i| {
                assert!(i != 41, "item {i} failed");
                i
            },
        );
    }

    #[test]
    #[should_panic(expected = "chunk must be at least 1")]
    fn a_zero_chunk_is_refused() {
        let _ = map_indexed(10, 0, || (), |(), i| i);
    }

    #[test]
    fn the_pipeline_consumes_every_chunk_in_index_order() {
        for n in [0usize, 1, 5, 6, 7, 63, 64, 65, 200] {
            let want: Vec<u64> = (0..n).map(|i| item(&mut Vec::new(), i)).collect();
            for workers in [1, 2, 3, 8] {
                for chunk in [1, 7, 64] {
                    let what = format!("n {n}, {workers} workers, chunk {chunk}");
                    let (mut got, mut next) = (Vec::new(), 0);
                    let produce = |buf: &mut Vec<u64>, items: Range<usize>| {
                        // Even chunks are slow, so with two producers or
                        // more each finishes after its successor.
                        if (items.start / chunk).is_multiple_of(2) {
                            thread::sleep(std::time::Duration::from_micros(50));
                        }
                        (
                            items.clone(),
                            items.map(|i| item(buf, i)).collect::<Vec<_>>(),
                        )
                    };
                    pipeline(
                        workers,
                        n,
                        chunk,
                        Vec::new,
                        produce,
                        |items, (of, values)| {
                            assert_eq!(items, next..(next + chunk).min(n), "{what}");
                            assert_eq!(of, items, "{what}");
                            next = items.end;
                            got.extend(values);
                        },
                    );
                    assert_eq!((next, got), (n, want.clone()), "{what}");
                }
            }
        }
    }

    #[test]
    fn a_one_worker_pipeline_spawns_nothing() {
        let caller = thread::current().id();
        let mut on = Vec::new();
        pipeline(
            1,
            50,
            3,
            || (),
            |(), _| thread::current().id(),
            |_, t| on.push(t),
        );
        assert_eq!(on, vec![caller; 17]);
        pipeline(
            4,
            0,
            3,
            || panic!("state for no items"),
            |(), _| (),
            |_, ()| unreachable!(),
        );
    }

    #[test]
    #[should_panic(expected = "chunk 3 failed")]
    fn a_panicking_producer_propagates() {
        let produce = |(): &mut (), items: Range<usize>| {
            assert!(items.start != 12, "chunk 3 failed");
            items
        };
        pipeline(3, 100, 4, || (), produce, |_, _| ());
    }

    #[test]
    #[should_panic(expected = "consumer failed")]
    fn a_panicking_consumer_propagates() {
        pipeline(
            2,
            100,
            1,
            || (),
            |(), items| items,
            |items, _| {
                assert!(items.start != 5, "consumer failed");
            },
        );
    }
}
