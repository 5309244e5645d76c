//! Criterion micro-bench: the storage substrate's hot paths — primary
//! index probes, cell access, speculative transaction execution, and the
//! checkpoint image (`deep_clone`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
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
/// `checkpoint_every` batches: the same copy into the image before it.
/// Two shapes: the ledger's YCSB table (1 M
/// rows x 10 columns, full to capacity, hash index only) and an
/// ORDER_LINE-shaped table (composite keys, ordered index, 2x insert
/// headroom, a tenth of the rows deleted so the index carries tombstones).
fn bench_deep_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("deep_clone");
    group.sample_size(10);

    let (ycsb, _, _) = YcsbGenerator::new(YcsbConfig::new(YcsbWorkload::A, 1_000_000));
    group.bench_function("ycsb_1m_x10", |b| b.iter(|| black_box(ycsb.deep_clone())));
    let mut image = ycsb.deep_clone();
    group.bench_function("ycsb_1m_x10_into_previous_image", |b| {
        b.iter(|| image.deep_clone_from(black_box(&ycsb)))
    });

    let order_line = Table::new(
        TableBuilder::new("ORDER_LINE")
            .columns(["OL_I_ID", "OL_SUPPLY_W", "OL_QUANTITY", "OL_AMOUNT", "OL_DELIVERY_D"])
            .capacity(600_000)
            .build(),
    )
    .with_ordered();
    for o in 0..30_000i64 {
        let order = order_key(1 + o % 8, 1 + o % 10, o);
        for ol in 1..=10 {
            order_line.insert(orderline_key(order, ol), &[o, 1, 5, o * ol, 0]).unwrap();
        }
        if o % 10 == 0 {
            for ol in 1..=10 {
                order_line.delete(orderline_key(order, ol)).unwrap();
            }
        }
    }
    group.bench_function("tpcc_order_line_300k_ordered", |b| {
        b.iter(|| black_box(order_line.deep_clone()))
    });
    let mut image = order_line.deep_clone();
    group.bench_function("tpcc_order_line_300k_ordered_into_previous_image", |b| {
        b.iter(|| image.deep_clone_from(black_box(&order_line)))
    });
    group.finish();
}

criterion_group!(benches, bench_index, bench_speculate, bench_deep_clone);
criterion_main!(benches);
