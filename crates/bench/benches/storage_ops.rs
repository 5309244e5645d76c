//! Criterion micro-bench: the storage substrate's hot paths — primary
//! index probes, cell access, speculative transaction execution, and the
//! checkpoint image (`deep_clone`).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ltpg_storage::{ColId, Database, PrimaryIndex, RowId, Table, TableBuilder};
use ltpg_txn::{execute_speculative, IrOp, ProcId, Src, Txn};
use ltpg_workloads::tpcc::{order_key, orderline_key};
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};

fn bench_index(c: &mut Criterion) {
    let idx = PrimaryIndex::with_capacity(100_000);
    for k in 0..100_000i64 {
        idx.insert(k, RowId(k as u32)).unwrap();
    }
    let mut group = c.benchmark_group("index");
    group.bench_function("get_hit", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7_919) % 100_000;
            black_box(idx.get(k))
        });
    });
    group.bench_function("get_miss", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k += 1;
            black_box(idx.get(1_000_000 + k))
        });
    });
    group.finish();
}

fn bench_speculate(c: &mut Criterion) {
    let mut db = Database::new();
    let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(10_000).build());
    for k in 0..10_000 {
        db.table(t).insert(k, &[k, 0]).unwrap();
    }
    let txn = Txn::new(
        ProcId(0),
        vec![],
        (0..10)
            .map(|i| IrOp::Read { table: t, key: Src::Const(i * 997 % 10_000), col: ColId(0), out: 0 })
            .chain(std::iter::once(IrOp::Update {
                table: t,
                key: Src::Const(42),
                col: ColId(1),
                val: Src::Reg(0),
            }))
            .collect(),
    );
    c.bench_function("exec/speculate_11_ops", |b| {
        b.iter(|| black_box(execute_speculative(&db, &txn).unwrap()));
    });
}

/// The checkpoint image. `deep_clone` is the first image (and every
/// standby seed and oracle snapshot): fresh arrays, so page faults included.
/// `deep_clone_from` is what `DurabilityManager::checkpoint` pays every
/// `checkpoint_every` batches, and it has two costs. `…_into_previous_image`
/// is the full copy into the image's own arrays — what the first checkpoint
/// and the first after a cutover or a rebuilt executor take — measured by
/// refreshing one image from two unrelated tables of the same shape in
/// turn, so it never mirrors the one it is refreshed from. `…_delta…` is
/// the steady state: the image mirrors its source and copies what was
/// written since the refresh before (the writes are made outside the timed
/// region). Two shapes: the ledger's YCSB table (1 M rows x 4 columns and a
/// quarter as much insert headroom, hash index only; a checkpoint period of
/// `fleet_server_ycsb` writes about 4 % of it) and an ORDER_LINE-shaped
/// table (composite keys, ordered index, 2x insert headroom, a tenth of the
/// rows deleted so the index carries tombstones; a period inserts 1 % and
/// deletes 0.1 %).
fn bench_deep_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("deep_clone");
    group.sample_size(10);

    let (ycsb, usertable, _) = YcsbGenerator::new(YcsbConfig::new(YcsbWorkload::A, 1_000_000));
    group.bench_function("ycsb_1m_x4", |b| b.iter(|| black_box(ycsb.deep_clone())));
    let mut image = ycsb.deep_clone();
    let unrelated = ycsb.deep_clone();
    let mut turn = 0usize;
    group.bench_function("ycsb_1m_x4_into_previous_image", |b| {
        b.iter(|| {
            turn += 1;
            let copied = image.deep_clone_from(black_box([&ycsb, &unrelated][turn % 2]));
            assert!(copied.full);
        })
    });
    let mut image = ycsb.deep_clone();
    image.deep_clone_from(&ycsb);
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    group.bench_function("ycsb_1m_x4_delta_4pct", |b| {
        b.iter_batched(
            || {
                for _ in 0..40_000 {
                    rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let rid = RowId(((rng >> 33) % 1_000_000) as u32);
                    ycsb.table(usertable).set(rid, ColId((rng >> 20) as u16 % 4), rng as i64);
                }
            },
            |()| {
                let copied = image.deep_clone_from(black_box(&ycsb));
                assert!(!copied.full && copied.rows > 39_000 && copied.index_slots == 0);
            },
            BatchSize::PerIteration,
        )
    });

    let order_line = Table::new(
        TableBuilder::new("ORDER_LINE")
            .columns(["OL_I_ID", "OL_SUPPLY_W", "OL_QUANTITY", "OL_AMOUNT", "OL_DELIVERY_D"])
            .capacity(600_000)
            .build(),
    )
    .with_ordered();
    let lines = |o: i64| {
        let order = order_key(1 + o % 8, 1 + o % 10, o);
        (1..=10).map(move |ol| (orderline_key(order, ol), [o, 1, 5, o * ol, 0]))
    };
    let insert_order = |o: i64| {
        for (key, row) in lines(o) {
            order_line.insert(key, &row).unwrap();
        }
    };
    let delete_order = |o: i64| {
        for (key, _) in lines(o) {
            order_line.delete(key).unwrap();
        }
    };
    for o in 0..30_000i64 {
        insert_order(o);
        if o % 10 == 0 {
            delete_order(o);
        }
    }
    group.bench_function("tpcc_order_line_300k_ordered", |b| {
        b.iter(|| black_box(order_line.deep_clone()))
    });
    let mut image = order_line.deep_clone();
    let unrelated = order_line.deep_clone();
    group.bench_function("tpcc_order_line_300k_ordered_into_previous_image", |b| {
        b.iter(|| {
            turn += 1;
            let copied = image.deep_clone_from(black_box([&order_line, &unrelated][turn % 2]));
            assert!(copied.full);
        })
    });
    // A period takes 300 new orders of ten lines and delivers (deletes)
    // thirty of the period before. The headroom holds 100 periods; the
    // harness takes a warm-up and ten samples.
    let mut image = order_line.deep_clone();
    image.deep_clone_from(&order_line);
    let mut next_order = 30_000i64;
    group.bench_function("tpcc_order_line_300k_ordered_delta", |b| {
        b.iter_batched(
            || {
                for o in next_order..next_order + 300 {
                    insert_order(o);
                    if o % 10 == 5 {
                        delete_order(o - 300);
                    }
                }
                next_order += 300;
            },
            |()| {
                let copied = image.deep_clone_from(black_box(&order_line));
                assert!(!copied.full && copied.rows == 3_300 && copied.index_slots >= 3_000);
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_index, bench_speculate, bench_deep_clone);
criterion_main!(benches);
