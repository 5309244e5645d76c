//! Criterion micro-bench: where one engine batch spends its *host* time.
//!
//! On the ledger's two engine workloads at its batch size — TPC-C 50/50 on
//! 8 warehouses with the Table II config, and YCSB-A on 1 M records at
//! Zipf 0.6 — one batch of 4 096 is timed in three pieces:
//!
//! * `speculate` — `execute_speculative` over the batch alone: index and
//!   row lookups plus building the read and write sets, no engine;
//! * `prepare` — `try_prepare_batch`: the execute kernel's pre-pass (the
//!   warp's row touch, speculation into the lane's recycled plan, staging
//!   and row resolution), conflict-log registration, the detect-item
//!   flatten and the detect kernel;
//! * `finish` — `try_finish_batch`: write-back through the plans' rows,
//!   delayed-update merge and report assembly;
//! * `prepare_2_threads` — `prepare` again on an engine whose device has two
//!   host threads: a helper runs the execute kernel's pre-pass ahead of the
//!   lanes.
//!
//! The first three run on one host thread. `prepare − speculate` is
//! registration + detection + staging, and `prepare − prepare_2_threads`
//! what the helper takes off the launching thread; the split quoted in
//! DESIGN.md "Hot path" comes from here, so it can be regenerated without
//! patching timers into the engine (the engine's `ltpg.host.*` histograms
//! give the same split per launch from any run). `prepare` writes no row,
//! so `prepare` and `prepare_2_threads` re-run one generated batch against
//! an unchanged database, abandoning each sample's prepared batch
//! (`LtpgEngine::abandon_batch`) outside the timed region: every sample
//! sees the same database and recycled plans, and two runs of the binary
//! read alike. `finish` writes, so each of its samples prepares a fresh
//! batch outside the timed region (a finished TPC-C batch cannot be
//! finished twice). The two-thread engine is built after the one-thread
//! one is dropped, over the same generated database.

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

/// Build an engine on `threads` host threads with its transaction generator.
type Build<G> = fn(usize) -> (LtpgEngine, G);

fn bench_workload<G: FnMut(usize) -> Vec<Txn>>(c: &mut Criterion, name: &str, build: Build<G>) {
    let mut group = c.benchmark_group(format!("engine_phases/{name}").as_str());
    group.sample_size(SAMPLES);
    let phases: [(usize, &[&str]); 2] =
        [(1, &["speculate", "prepare", "finish"]), (2, &["prepare_2_threads"])];
    for (threads, labels) in phases {
        let (engine, mut gen) = build(threads);
        let engine = RefCell::new(engine);
        let mut tids = TidGen::new();
        let mut fresh = move || Batch::assemble(Vec::new(), gen(BATCH), &mut tids);
        // What a `finish` sample produced is parked here and dropped by the
        // next set-up, outside the timed region.
        let parked = RefCell::new(Vec::new());
        let batch = fresh();
        for &label in labels {
            match label {
                "speculate" => group.bench_function(BenchmarkId::from_parameter(label), |b| {
                    let engine = engine.borrow();
                    b.iter(|| {
                        for txn in &batch.txns {
                            black_box(execute_speculative(engine.database(), txn).ok());
                        }
                    });
                }),
                "prepare" | "prepare_2_threads" => {
                    let abandoned = RefCell::new(None);
                    let group = group.bench_function(BenchmarkId::from_parameter(label), |b| {
                        b.iter_batched(
                            || {
                                if let Some(prepared) = abandoned.borrow_mut().take() {
                                    engine.borrow_mut().abandon_batch(prepared);
                                }
                            },
                            |()| {
                                let prepared = engine.borrow_mut().try_prepare_batch(&batch, None).unwrap();
                                *abandoned.borrow_mut() = Some(prepared);
                            },
                            BatchSize::PerIteration,
                        );
                    });
                    if let Some(prepared) = abandoned.into_inner() {
                        engine.borrow_mut().abandon_batch(prepared);
                    }
                    group
                }
                _ => group.bench_function(BenchmarkId::from_parameter(label), |b| {
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
                            parked.borrow_mut().push(batch);
                        },
                        BatchSize::PerIteration,
                    );
                }),
            };
        }
    }
    group.finish();
}

fn bench_tpcc(c: &mut Criterion) {
    bench_workload(c, "tpcc_8wh", |threads| {
        let wl = TpccConfig::new(8, 50).with_headroom(4 * SAMPLES * BATCH);
        let (db, tables, mut gen) = TpccGenerator::new(wl);
        let mut cfg = ltpg_tpcc_config(&tables, BATCH, OptFlags::all());
        cfg.device.parallel_host_threads = threads;
        (LtpgEngine::new(db, cfg), move |n| gen.gen_batch(n))
    });
}

fn bench_ycsb(c: &mut Criterion) {
    bench_workload(c, "ycsb_a_1m_zipf06", |threads| {
        let wl = YcsbConfig::new(YcsbWorkload::A, 1_000_000).with_alpha(0.6);
        let (db, _table, mut gen) = YcsbGenerator::new(wl);
        let mut cfg = LtpgConfig { max_batch: BATCH, ..LtpgConfig::default() };
        cfg.device.parallel_host_threads = threads;
        (LtpgEngine::new(db, cfg), move |n| gen.gen_batch(n))
    });
}

criterion_group!(benches, bench_tpcc, bench_ycsb);
criterion_main!(benches);
