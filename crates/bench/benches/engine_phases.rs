//! Criterion micro-bench: where one engine batch spends its *host* time.
//!
//! On the ledger's two engine workloads at its batch size — TPC-C 50/50 on
//! 8 warehouses with the Table II config, and YCSB-A on 1 M records at
//! Zipf 0.6 — one batch of 4 096 is timed in three pieces:
//!
//! * `speculate` — `execute_speculative` over the batch alone: index and
//!   row lookups plus building the read and write sets, no engine;
//! * `prepare` — `try_prepare_batch`: the same speculation inside the
//!   execute kernel, staging, conflict-log registration, the detect-item
//!   flatten and the detect kernel;
//! * `finish` — `try_finish_batch`: write-back, delayed-update merge and
//!   report assembly (dropping the batch's buffered outcomes included).
//!
//! `prepare − speculate` is registration + detection + staging; the split
//! quoted in DESIGN.md "Hot path" comes from here, so it can be regenerated
//! without patching timers into the engine. Every sample runs a fresh batch
//! (a finished TPC-C batch cannot be finished twice); batches are generated
//! and dropped outside the timed region.

use std::cell::RefCell;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ltpg::{LtpgConfig, LtpgEngine, OptFlags};
use ltpg_bench::ltpg_tpcc_config;
use ltpg_txn::exec::execute_speculative;
use ltpg_txn::{Batch, BatchEngine, TidGen, Txn};
use ltpg_workloads::{TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbWorkload};

const BATCH: usize = 4_096;
/// Samples per benchmark; with the warm-up run this bounds how many
/// batches `finish` applies, which the TPC-C insert headroom must cover.
const SAMPLES: usize = 10;

fn bench_workload(
    c: &mut Criterion,
    name: &str,
    engine: LtpgEngine,
    mut gen: impl FnMut(usize) -> Vec<Txn>,
) {
    let engine = RefCell::new(engine);
    let mut tids = TidGen::new();
    let mut fresh = move || Batch::assemble(Vec::new(), gen(BATCH), &mut tids);
    let mut group = c.benchmark_group(format!("engine_phases/{name}").as_str());
    group.sample_size(SAMPLES);

    let batch = fresh();
    group.bench_function(BenchmarkId::from_parameter("speculate"), |b| {
        let engine = engine.borrow();
        b.iter(|| {
            for txn in &batch.txns {
                black_box(execute_speculative(engine.database(), txn).ok());
            }
        });
    });

    // What a sample produced is parked here and dropped by the next
    // set-up, outside the timed region.
    let parked = RefCell::new(Vec::new());
    group.bench_function(BenchmarkId::from_parameter("prepare"), |b| {
        b.iter_batched(
            || {
                parked.borrow_mut().clear();
                fresh()
            },
            |batch| {
                let prepared = engine.borrow_mut().try_prepare_batch(&batch, None).unwrap();
                parked.borrow_mut().push((batch, Some(prepared)));
            },
            BatchSize::PerIteration,
        );
    });
    group.bench_function(BenchmarkId::from_parameter("finish"), |b| {
        b.iter_batched(
            || {
                parked.borrow_mut().clear();
                let batch = fresh();
                let prepared = engine.borrow_mut().try_prepare_batch(&batch, None).unwrap();
                (batch, prepared)
            },
            |(batch, prepared)| {
                let report = engine.borrow_mut().try_finish_batch(&batch, prepared, None).unwrap();
                assert!(!report.report.committed.is_empty());
                parked.borrow_mut().push((batch, None));
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

fn bench_tpcc(c: &mut Criterion) {
    let wl = TpccConfig::new(8, 50).with_headroom(4 * SAMPLES * BATCH);
    let (db, tables, mut gen) = TpccGenerator::new(wl);
    let engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, BATCH, OptFlags::all()));
    bench_workload(c, "tpcc_8wh", engine, move |n| gen.gen_batch(n));
}

fn bench_ycsb(c: &mut Criterion) {
    let wl = YcsbConfig::new(YcsbWorkload::A, 1_000_000).with_alpha(0.6);
    let (db, _table, mut gen) = YcsbGenerator::new(wl);
    let engine = LtpgEngine::new(db, LtpgConfig { max_batch: BATCH, ..LtpgConfig::default() });
    bench_workload(c, "ycsb_a_1m_zipf06", engine, move |n| gen.gen_batch(n));
}

criterion_group!(benches, bench_tpcc, bench_ycsb);
criterion_main!(benches);
