//! Criterion micro-bench: the ordered-index (B+tree) substrate — insert,
//! point get, range-scan throughput, and the bulk load a table's first
//! range scan pays.

use std::cell::RefCell;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ltpg_storage::{OrderedIndex, RowId};
use ltpg_workloads::tpcc::{order_key, orderline_key};

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    group.bench_function("insert_sequential", |b| {
        b.iter_batched(
            OrderedIndex::new,
            |mut idx| {
                for k in 0..4_096i64 {
                    idx.insert(k, RowId(k as u32));
                }
                black_box(idx)
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("insert_random", |b| {
        // A fixed pseudo-random permutation (LCG) of 4096 keys.
        b.iter_batched(
            OrderedIndex::new,
            |mut idx| {
                let mut k = 1u64;
                for _ in 0..4_096 {
                    k = k.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    idx.insert((k >> 16) as i64, RowId(k as u32));
                }
                black_box(idx)
            },
            criterion::BatchSize::SmallInput,
        );
    });

    let mut idx = OrderedIndex::new();
    for k in 0..100_000i64 {
        idx.insert(k * 2, RowId(k as u32));
    }
    group.bench_function("get", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7_919) % 200_000;
            black_box(idx.get(k))
        });
    });
    for len in [16i64, 256] {
        group.bench_function(BenchmarkId::new("range", len), |b| {
            let mut lo = 0i64;
            b.iter(|| {
                lo = (lo + 7_919) % 150_000;
                black_box(idx.range(lo, lo + len))
            });
        });
    }

    // The one-off cost of a table's first range scan after a copy or a
    // recovery: bulk-loading ORDER_LINE's tree at the size a `tpcc_engine`
    // run leaves it (8 warehouses x 10 districts x 1 750 orders x 10
    // lines, 1.4 M keys), from keys already sorted. The tree a sample
    // built is dropped outside the timed region.
    let mut lines: Vec<(i64, RowId)> = (1..=8)
        .flat_map(|w| (1..=10).flat_map(move |d| (0..1_750).map(move |o| order_key(w, d, o))))
        .flat_map(|order| (1..=10).map(move |ol| orderline_key(order, ol)))
        .zip(0..)
        .map(|(key, row)| (key, RowId(row)))
        .collect();
    lines.sort_unstable();
    let built = RefCell::new(None);
    group.bench_function("bulk_load_order_line_1_4m", |b| {
        b.iter_batched(
            || drop(built.borrow_mut().take()),
            |()| *built.borrow_mut() = Some(OrderedIndex::from_sorted(black_box(&lines))),
            criterion::BatchSize::PerIteration,
        );
    });
    assert_eq!(built.borrow().as_ref().map(OrderedIndex::len), Some(1_400_000));
    group.finish();
}

criterion_group!(benches, bench_btree);
criterion_main!(benches);
