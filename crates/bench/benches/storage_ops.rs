//! Criterion micro-bench: the storage substrate's hot paths — primary
//! index probes, cell access, speculative transaction execution, copies of
//! a database (`deep_clone`) and the checkpoint image (`image`) — and the
//! serving tick's host work
//! around the kernels: the WAL append (`wal`) and routing (`route`).

use std::cell::RefCell;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ltpg::{DurabilityManager, LtpgConfig, ServerConfig, Topology};
use ltpg_shard::{ycsb_partitioner, Router, ShardedServer};
use ltpg_storage::wal::crc32;
use ltpg_storage::{ColId, Database, Image, PrimaryIndex, RowId, Table, TableBuilder};
use ltpg_txn::{execute_speculative, Batch, IrOp, ProcId, Src, TidGen, Txn};
use ltpg_workloads::tpcc::{order_key, orderline_key};
use ltpg_workloads::{TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbWorkload};

fn bench_index(c: &mut Criterion) {
    let mut idx = PrimaryIndex::with_capacity(100_000);
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
        db.table_mut(t).insert(k, &[k, 0]).unwrap();
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

/// Copies of a database. `deep_clone` (`deep_clone/…`) is the test
/// oracles' snapshot and the ledger's probe: fresh arrays, so page faults
/// included, index slots copied one for one. The checkpoint image
/// (`image/…`) copies rows alone. `…_fresh` is a new image (fresh arrays).
/// `refresh_from` is what `DurabilityManager::checkpoint` pays every
/// `checkpoint_every` batches, and it has two costs. `…_full_in_place` is
/// the full copy into the image's own arrays — what the first checkpoint
/// after a cutover or a rebuilt executor takes — measured by refreshing one
/// image from two unrelated databases of the same shape in turn, so it
/// never mirrors the one it is refreshed from. `…_delta…` is the steady
/// state: the image mirrors its source and copies what was written since
/// the refresh before (the writes are made outside the timed region).
/// `image/reindex` is `to_database`: what crash recovery, the degradation
/// rebuild and a standby spawn pay to start a replay — the rows copied
/// into fresh tables and each primary index rebuilt from the live keys.
/// Two shapes: the ledger's YCSB table (1 M rows x 4 columns and a quarter
/// as much insert headroom, hash index only; a checkpoint period of
/// `fleet_server_ycsb` writes about 4 % of it) and an ORDER_LINE-shaped
/// table (composite keys, 2x insert headroom, a tenth of the rows deleted;
/// a period inserts 1 % and deletes 0.1 %). It declares an ordered index,
/// as TPC-C's does, but nothing here scans it, so it is never built (a
/// copy leaves its tree for its own first scan to build; the `btree` bench
/// times that bulk load).
fn bench_images(c: &mut Criterion) {
    let (ycsb, usertable, _) = YcsbGenerator::new(YcsbConfig::new(YcsbWorkload::A, 1_000_000));
    let mut order_line_db = Database::new();
    let order_line_id = order_line_db.add_built_table(
        Table::new(
            TableBuilder::new("ORDER_LINE")
                .columns(["OL_I_ID", "OL_SUPPLY_W", "OL_QUANTITY", "OL_AMOUNT", "OL_DELIVERY_D"])
                .capacity(600_000)
                .build(),
        )
        .with_ordered(),
    );
    order_line_db.reserve(order_line_id, 600_000);
    let lines = |o: i64| {
        let order = order_key(1 + o % 8, 1 + o % 10, o);
        (1..=10).map(move |ol| (orderline_key(order, ol), [o, 1, 5, o * ol, 0]))
    };
    let insert_order = |order_line: &mut Table, o: i64| {
        for (key, row) in lines(o) {
            order_line.insert(key, &row).unwrap();
        }
    };
    let delete_order = |order_line: &mut Table, o: i64| {
        for (key, _) in lines(o) {
            order_line.delete(key).unwrap();
        }
    };
    let order_line = order_line_db.table_mut(order_line_id);
    for o in 0..30_000i64 {
        insert_order(order_line, o);
        if o % 10 == 0 {
            delete_order(order_line, o);
        }
    }

    let mut group = c.benchmark_group("deep_clone");
    group.sample_size(10);
    group.bench_function("ycsb_1m_x4", |b| b.iter(|| black_box(ycsb.deep_clone())));
    group.bench_function("tpcc_order_line_300k_ordered", |b| {
        b.iter(|| black_box(order_line_db.table(order_line_id).deep_clone()))
    });
    group.finish();

    let mut group = c.benchmark_group("image");
    group.sample_size(10);
    let mut full_in_place = |name: &str, db: &Database| {
        let unrelated = db.deep_clone();
        let mut image = Image::of(&unrelated);
        let mut turn = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                let copied = image.refresh_from(black_box([db, &unrelated][turn % 2]));
                turn += 1;
                assert!(copied.full);
            })
        });
    };
    full_in_place("ycsb_1m_x4_full_in_place", &ycsb);
    full_in_place("tpcc_order_line_300k_full_in_place", &order_line_db);
    group.bench_function("ycsb_1m_x4_fresh", |b| b.iter(|| black_box(Image::of(&ycsb))));
    let mut image = Image::of(&ycsb);
    group.bench_function("reindex", |b| b.iter(|| black_box(image.to_database())));
    // The writes between refreshes borrow the database mutably, the
    // refresh shares it.
    let ycsb = RefCell::new(ycsb);
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    group.bench_function("ycsb_1m_x4_delta_4pct", |b| {
        b.iter_batched(
            || {
                let mut ycsb = ycsb.borrow_mut();
                for _ in 0..40_000 {
                    rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let rid = RowId(((rng >> 33) % 1_000_000) as u32);
                    ycsb.table_mut(usertable).set(rid, ColId((rng >> 20) as u16 % 4), rng as i64);
                }
            },
            |()| {
                let copied = image.refresh_from(black_box(&ycsb.borrow()));
                assert!(!copied.full && copied.rows > 39_000 && copied.rows <= 40_000);
            },
            BatchSize::PerIteration,
        )
    });
    // A period takes 300 new orders of ten lines and delivers (deletes)
    // thirty of the period before. The headroom holds 100 periods; the
    // harness takes a warm-up and ten samples.
    let mut image = Image::of(&order_line_db);
    let order_line_db = RefCell::new(order_line_db);
    let mut next_order = 30_000i64;
    group.bench_function("tpcc_order_line_300k_delta", |b| {
        b.iter_batched(
            || {
                let mut db = order_line_db.borrow_mut();
                let order_line = db.table_mut(order_line_id);
                for o in next_order..next_order + 300 {
                    insert_order(order_line, o);
                    if o % 10 == 5 {
                        delete_order(order_line, o - 300);
                    }
                }
                next_order += 300;
            },
            |()| {
                let copied = image.refresh_from(black_box(&order_line_db.borrow()));
                assert!(!copied.full && copied.rows == 3_300);
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// A batch of `n` fresh transactions with TIDs assigned.
fn assembled(txns: Vec<Txn>) -> Batch {
    Batch::assemble(Vec::new(), txns, &mut TidGen::new())
}

/// The WAL append a serving tick pays before execution:
/// `DurabilityManager::log_batch` encodes the batch and writes its frame,
/// CRC included, at the end of the log image. The log lives on across
/// iterations, as a server's does, and is replaced every `cycle` batches
/// to bound its memory, so its growth is amortized in. Three shapes: the
/// fleet server's 256-transaction YCSB-A batch, the sharded fleet's
/// 2 048, and TPC-C 50/50 at 512 (larger transactions). `crc32/64KiB` is
/// the checksum alone.
fn bench_wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal");
    let image = Database::new();
    let ycsb = |n| {
        let (_, _, mut gen) = YcsbGenerator::new(YcsbConfig::new(YcsbWorkload::A, 65_536));
        assembled(gen.gen_batch(n))
    };
    let (_, _, mut tpcc) = TpccGenerator::new(TpccConfig::new(2, 50));
    let batches = [
        ("log_batch/ycsb_256", ycsb(256), 256),
        ("log_batch/ycsb_2048", ycsb(2_048), 32),
        ("log_batch/tpcc_512", assembled(tpcc.gen_batch(512)), 32),
    ];
    for (name, batch, cycle) in &batches {
        let mut dur = DurabilityManager::new(&image);
        group.bench_function(*name, |b| {
            b.iter(|| {
                if dur.logged_batches() == *cycle {
                    dur = DurabilityManager::new(&image);
                }
                dur.log_batch(black_box(batch))
            })
        });
    }
    let bytes: Vec<u8> = (0..64 * 1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    group.bench_function("crc32/64KiB", |b| b.iter(|| crc32(black_box(&bytes))));
    group.finish();
}

/// What a transaction pays for being sharded before any engine sees it:
/// `route/ycsb_4shards` routes one transaction of a 10 %-cross YCSB-A
/// stream over four range shards (a cycle of 1 024), and
/// `split/ycsb_4shards_2048` hands a 2 048-transaction batch of that stream
/// to the sharded topology, which routes each transaction and moves or
/// clones it into its participants' sub-batches (the sub-batches are
/// dropped inside the timing, as a tick drops them).
fn bench_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("route");
    let cfg = YcsbConfig::new(YcsbWorkload::A, 65_536).with_alpha(0.8).with_partitions(4, 10);
    let (db, table, mut gen) = YcsbGenerator::new(cfg.clone());
    let txns = assembled(gen.gen_batch(1_024)).txns;
    let router = Router::new(ycsb_partitioner(4, table, &cfg));
    let mut next = txns.iter().cycle();
    group.bench_function("route/ycsb_4shards", |b| {
        b.iter(|| router.route(black_box(next.next().expect("a cycle never ends"))))
    });
    let batch = assembled(gen.gen_batch(2_048));
    let mut server = ShardedServer::new(
        db,
        ycsb_partitioner(4, table, &cfg),
        LtpgConfig::default(),
        ServerConfig::default(),
    );
    let (topology, _) = server.topology_mut();
    let mut stats = Default::default();
    group.bench_function("split/ycsb_4shards_2048", |b| {
        b.iter_batched(|| batch.clone(), |batch| topology.split(batch, &mut stats), BatchSize::LargeInput)
    });
    group.finish();
}

criterion_group!(benches, bench_index, bench_speculate, bench_images, bench_wal, bench_route);
criterion_main!(benches);
