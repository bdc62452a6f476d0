//! Criterion benchmarks of the simulated YGM runtime: fire-and-forget RPC
//! throughput (id-only `u64`s and feature-vector rows — owned into a
//! by-value handler, and borrowed into a reusing one), the codec on the
//! same row messages (`decode` against `decode_into`), barrier cost, and
//! the effect of the aggregation-buffer flush threshold (the knob behind
//! the paper's Section 4.4 discussion).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dnnd::msgs::Type2;
use std::cell::RefCell;
use std::rc::Rc;
use ygm::codec::BytesMut;
use ygm::codec::{decode_from_bytes, encode_to_bytes};
use ygm::{Encode, Wire, World};

const TAG: u16 = 0;

fn rpc_round(n_ranks: usize, msgs_per_rank: u64, flush: usize) -> u64 {
    let report = World::new(n_ranks).flush_threshold(flush).run(move |comm| {
        let hits = Rc::new(RefCell::new(0u64));
        let h = Rc::clone(&hits);
        comm.register::<u64, _>(TAG, move |_, _| *h.borrow_mut() += 1);
        for i in 0..msgs_per_rank {
            comm.async_send((i as usize) % comm.n_ranks(), TAG, &i);
        }
        comm.barrier();
        let n = *hits.borrow();
        n
    });
    report.results.iter().sum()
}

fn bench_rpc_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("ygm_rpc_round");
    for ranks in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("10k_msgs", ranks), &ranks, |b, &r| {
            b.iter(|| rpc_round(r, 10_000 / r as u64, ygm::DEFAULT_FLUSH_THRESHOLD))
        });
    }
    group.finish();
}

/// The DEEP-like row: a 96-d f32 vector travelling with 4 tail ids.
fn f32_row() -> Type2<Vec<f32>> {
    Type2 {
        u1: 17,
        u2s: vec![3, 1_000, 70_000, 9],
        vec: (0..96).map(|i| i as f32 * 0.37 - 11.5).collect(),
    }
}

/// The BIGANN-like row: a 128-d u8 vector.
fn u8_row() -> Type2<Vec<u8>> {
    Type2 {
        u1: 17,
        u2s: vec![3, 1_000, 70_000, 9],
        vec: (0..128).map(|i| (i * 7 + 3) as u8).collect(),
    }
}

/// Every rank sends `msgs_per_rank` copies of `row` round-robin; the
/// handler only touches the decoded vector, so this is send + frame +
/// dispatch + codec and nothing else.
fn row_round<M>(n_ranks: usize, msgs_per_rank: usize, row: &M, weigh: fn(M) -> usize) -> usize
where
    M: Wire + Sync + 'static,
{
    let report = World::new(n_ranks).run(|comm| {
        let seen = Rc::new(RefCell::new(0usize));
        let s = Rc::clone(&seen);
        comm.register::<M, _>(TAG, move |_, msg| *s.borrow_mut() += weigh(msg));
        for i in 0..msgs_per_rank {
            comm.async_send(i % comm.n_ranks(), TAG, row);
        }
        comm.barrier();
        let n = *seen.borrow();
        n
    });
    report.results.iter().sum()
}

/// [`row_round`] as the engine does it: the row is sent as a tuple of
/// borrows and lands in the one message a `register_mut` handler reuses.
fn borrowed_row_round<P>(n_ranks: usize, msgs_per_rank: usize, row: &Type2<P>) -> usize
where
    P: Wire + Sync + 'static,
    Type2<P>: Wire,
{
    let report = World::new(n_ranks).run(|comm| {
        let seen = Rc::new(RefCell::new(0usize));
        let s = Rc::clone(&seen);
        comm.register_mut::<Type2<P>, _>(TAG, move |_, msg| *s.borrow_mut() += msg.u2s.len());
        for i in 0..msgs_per_rank {
            comm.async_send(
                i % comm.n_ranks(),
                TAG,
                &(row.u1, row.u2s.as_slice(), &row.vec),
            );
        }
        comm.barrier();
        let n = *seen.borrow();
        n
    });
    report.results.iter().sum()
}

fn bench_rpc_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("ygm_rpc_row");
    let (f, u) = (f32_row(), u8_row());
    for ranks in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::new("type2_f32_d96_x5k", ranks),
            &ranks,
            |b, &r| b.iter(|| row_round(r, 5_000 / r, &f, |m| m.vec.len())),
        );
        group.bench_with_input(
            BenchmarkId::new("type2_u8_d128_x5k", ranks),
            &ranks,
            |b, &r| b.iter(|| row_round(r, 5_000 / r, &u, |m| m.vec.len())),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("ygm_rpc_borrowed_row");
    for ranks in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::new("type2_f32_d96_x5k", ranks),
            &ranks,
            |b, &r| b.iter(|| borrowed_row_round(r, 5_000 / r, &f)),
        );
        group.bench_with_input(
            BenchmarkId::new("type2_u8_d128_x5k", ranks),
            &ranks,
            |b, &r| b.iter(|| borrowed_row_round(r, 5_000 / r, &u)),
        );
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let (f, u) = (f32_row(), u8_row());
    let (f_enc, u_enc) = (encode_to_bytes(&f), encode_to_bytes(&u));
    group.bench_function("encode_type2_f32_d96_x1k", |b| {
        b.iter(|| (0..1_000).fold(0, |n, _| n + encode_to_bytes(black_box(&f)).len()))
    });
    group.bench_function("decode_type2_f32_d96_x1k", |b| {
        b.iter(|| {
            (0..1_000).fold(0, |n, _| {
                n + decode_from_bytes::<Type2<Vec<f32>>>(f_enc.clone())
                    .vec
                    .len()
            })
        })
    });
    group.bench_function("decode_into_type2_f32_d96_x1k", |b| {
        let mut kept = f.clone();
        b.iter(|| {
            (0..1_000).fold(0, |n, _| {
                kept.decode_into(&mut f_enc.clone());
                n + kept.vec.len()
            })
        })
    });
    group.bench_function("encode_borrowed_type2_f32_d96_x1k", |b| {
        let mut buf = BytesMut::with_capacity(f.wire_size());
        b.iter(|| {
            (0..1_000).fold(0, |n, _| {
                buf.clear();
                black_box(&(f.u1, f.u2s.as_slice(), &f.vec)).encode(&mut buf);
                n + buf.len()
            })
        })
    });
    group.bench_function("encode_type2_u8_d128_x1k", |b| {
        b.iter(|| (0..1_000).fold(0, |n, _| n + encode_to_bytes(black_box(&u)).len()))
    });
    group.bench_function("decode_type2_u8_d128_x1k", |b| {
        b.iter(|| {
            (0..1_000).fold(0, |n, _| {
                n + decode_from_bytes::<Type2<Vec<u8>>>(u_enc.clone()).vec.len()
            })
        })
    });
    group.bench_function("decode_into_type2_u8_d128_x1k", |b| {
        let mut kept = u.clone();
        b.iter(|| {
            (0..1_000).fold(0, |n, _| {
                kept.decode_into(&mut u_enc.clone());
                n + kept.vec.len()
            })
        })
    });
    group.finish();
}

fn bench_flush_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("ygm_flush_threshold");
    for flush in [256usize, 4 * 1024, 64 * 1024] {
        group.bench_with_input(BenchmarkId::new("4ranks_10k", flush), &flush, |b, &f| {
            b.iter(|| rpc_round(4, 2_500, f))
        });
    }
    group.finish();
}

fn bench_barrier(c: &mut Criterion) {
    let mut group = c.benchmark_group("ygm_barrier");
    for ranks in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("empty", ranks), &ranks, |b, &r| {
            b.iter(|| {
                World::new(r).run(|comm| {
                    for _ in 0..10 {
                        comm.barrier();
                    }
                })
            })
        });
    }
    group.finish();
}

fn fast_config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_rpc_throughput, bench_rpc_rows, bench_codec, bench_flush_threshold,
        bench_barrier
}
criterion_main!(benches);
