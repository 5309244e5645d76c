//! Sharded-execution integration suite.
//!
//! The load-bearing claim of `ltpg-shard` is **exactness**: a 4-shard
//! [`ShardedServer`] over a partitioned YCSB stream must produce the same
//! per-tick commit/abort history — and the same final table state — as one
//! single-device [`LtpgServer`] fed the identical stream, with and without
//! cross-shard transactions, and even after one shard's device is lost
//! mid-run. Routing must be a pure function of the transaction's declared
//! key set (property-tested below), or replicas and WAL replay would
//! classify transactions differently and the determinism argument breaks.

use ltpg::{LtpgConfig, LtpgServer, OptFlags, ServerConfig, Topology};
use ltpg_bench::ltpg_tpcc_config;
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{
    tpcc_partitioner, ycsb_partitioner, Partitioner, Route, Router, ShardedServer, TableRule,
};
use ltpg_storage::{ColId, Database, TableId};
use ltpg_telemetry::names;
use ltpg_txn::{IrOp, ProcId, Src, Txn};
use ltpg_workloads::{TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbWorkload};
use proptest::prelude::*;

const BATCH: usize = 256;
const BATCHES: usize = 6;

/// Build the two servers over the same partitioned YCSB database and feed
/// both the identical transaction stream.
fn servers(shards: u32, cross_pct: u32) -> (ShardedServer, LtpgServer) {
    // α = 0.4 keeps contention real (a batch of 256 ten-op transactions
    // over 4 096 keys still collides constantly, so every tick aborts and
    // requeues some work) without the α ≥ 1 hot-key storm where only a
    // handful of transactions survive each tick and draining takes
    // hundreds of ticks.
    let cfg = YcsbConfig::new(YcsbWorkload::A, 4_096)
        .with_seed(0xd15c)
        .with_alpha(0.4)
        .with_partitions(shards, cross_pct);
    let (db, table, mut gen) = YcsbGenerator::new(cfg.clone());
    let part = ycsb_partitioner(shards, table, &cfg);
    let scfg = ServerConfig { batch_size: BATCH, pipelined: false, ..ServerConfig::default() };
    let mut sharded = ShardedServer::new(db.deep_clone(), part, LtpgConfig::default(), scfg.clone());
    let mut single = LtpgServer::new(db, LtpgConfig::default(), scfg);
    let stream = gen.gen_batch(BATCH * BATCHES);
    sharded.submit_all(stream.iter().cloned());
    single.submit_all(stream);
    (sharded, single)
}

/// Tick both servers in lockstep until both drain, asserting the commit
/// and abort TID sequences agree on every tick.
fn assert_lockstep(sharded: &mut ShardedServer, single: &mut LtpgServer) {
    for tick in 0..60 * BATCHES {
        let a = sharded.tick();
        let b = single.tick();
        match (&a, &b) {
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.committed, sb.committed, "commit set diverged at tick {tick}");
                assert_eq!(sa.aborted, sb.aborted, "abort set diverged at tick {tick}");
            }
            (None, None) => {}
            _ => panic!("one server went idle before the other at tick {tick}"),
        }
        if a.is_none() && b.is_none() && sharded.pending() == 0 && single.pending() == 0 {
            assert!(sharded.stats().committed > 0, "stream should commit something");
            return;
        }
    }
    panic!("servers did not drain");
}

/// Every shard's final slice must equal the single device's database
/// restricted to that shard's ownership predicate.
fn assert_slices_match(sharded: &ShardedServer, single: &LtpgServer) {
    let part = sharded.partitioner().clone();
    for s in 0..sharded.shard_count() {
        let reference = single.database().partition_clone(part.slice_pred(s));
        assert_eq!(
            sharded.database(s).state_digest(),
            reference.state_digest(),
            "shard {s} state diverged from the single-device slice"
        );
    }
}

#[test]
fn four_shards_match_single_device_without_cross_traffic() {
    let (mut sharded, mut single) = servers(4, 0);
    assert_lockstep(&mut sharded, &mut single);
    assert_slices_match(&sharded, &single);
    assert_eq!(sharded.stats().cross_shard_txns + sharded.stats().broadcast_txns, 0);
}

#[test]
fn four_shards_match_single_device_with_cross_traffic() {
    let (mut sharded, mut single) = servers(4, 25);
    assert_lockstep(&mut sharded, &mut single);
    assert_slices_match(&sharded, &single);
    assert!(sharded.stats().cross_shard_fraction() > 0.0, "cross-shard txns should occur");
}

#[test]
fn four_shards_match_single_device_after_losing_one() {
    let (mut sharded, mut single) = servers(4, 25);
    // One clean tick on all four devices, then shard 1's GPU dies.
    let a = sharded.tick().expect("first tick runs a batch");
    let b = single.tick().expect("first tick runs a batch");
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.aborted, b.aborted);
    sharded.force_shard_failure(1);
    assert_lockstep(&mut sharded, &mut single);
    assert!(sharded.is_degraded(1), "lost shard must degrade to the CPU fallback");
    for s in [0, 2, 3] {
        assert!(!sharded.is_degraded(s), "healthy shard {s} must stay on its device");
    }
    assert_slices_match(&sharded, &single);
}

/// Primary-index slots of every table of `db`.
fn index_slots(db: &Database) -> Vec<usize> {
    db.iter().map(|(_, t)| t.index_slots()).collect()
}

/// TPC-C 50/50 on four warehouses, one per shard: NewOrder inserts into
/// every slice's ORDERS, NEW_ORDER and ORDER_LINE, Payment into HISTORY
/// (hash-routed, so into every slice too). The slices start with those
/// tables empty and indexes of 16 slots, so each grows through
/// `Table::reserve` again and again, and the run must stay bit-identical to
/// the one-device server — every tick's commits, aborts and flag words, and
/// every final slice — while
/// - a periodic checkpoint follows a growth (a growth moves no row, so it
///   is a delta: a checkpoint is the full copy only when the shard's
///   database was replaced since the one before),
/// - a standby row, attached to the empty slices, replays the growths and
///   is promoted when shard 1's device is lost,
/// - shard 2, lost with the pool spent, is rebuilt on the CPU fallback and
///   grows its slice there, and
/// - crash recovery replays, from the last checkpoint, batches that grow
///   the image's indexes again.
#[test]
fn four_tpcc_shards_grow_their_slice_indexes_and_match_one_device() {
    const TPCC_BATCH: usize = 128;
    const FAIL_AT: usize = 5;
    const DEGRADE_AT: usize = 7;
    let wl = TpccConfig::new(4, 50).with_headroom(4_096).with_partitions(4, 10);
    let (db, tables, mut gen) = TpccGenerator::new(wl);
    let cfg = ltpg_tpcc_config(&tables, TPCC_BATCH, OptFlags::all());
    let scfg = ServerConfig {
        batch_size: TPCC_BATCH,
        pipelined: false,
        checkpoint_every: Some(3),
        ..ServerConfig::default()
    };
    let part = tpcc_partitioner(4, &tables);
    let mut sharded = ShardedServer::new(db.deep_clone(), part.clone(), cfg.clone(), scfg.clone());
    let mut single = LtpgServer::new(db, cfg.clone(), scfg);
    sharded.attach_replicas(&ReplicaConfig { standbys: 1, ..ReplicaConfig::default() });
    let stream = gen.gen_batch(TPCC_BATCH * 10);
    sharded.submit_all(stream.iter().cloned());
    single.submit_all(stream);

    let inserted = [tables.orders, tables.new_order, tables.order_line, tables.history];
    let slots = |s: &ShardedServer| (0..4).map(|i| index_slots(s.database(i))).collect::<Vec<_>>();
    let at_start = slots(&sharded);
    for shard in &at_start {
        assert!(inserted.iter().all(|t| shard[usize::from(t.0)] == 16), "{shard:?}");
    }
    let mut at_checkpoint = at_start.clone();
    let mut cut = [0; 4];
    let mut delta_after_growth = 0;
    let mut replaced = [false; 4];
    let mut recovered = false;
    for tick in 0.. {
        assert!(tick < 200, "servers did not drain");
        if tick == FAIL_AT {
            sharded.force_shard_failure(1);
        }
        if tick == DEGRADE_AT {
            sharded.force_shard_failure(2);
        }
        if tick == FAIL_AT || tick == DEGRADE_AT {
            replaced = [true; 4];
        }
        let (a, b) = (sharded.tick(), single.tick());
        match (&a, &b) {
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.committed, sb.committed, "commit set diverged at tick {tick}");
                assert_eq!(sa.aborted, sb.aborted, "abort set diverged at tick {tick}");
                assert_eq!(sa.flag_words, sb.flag_words, "flag words diverged at tick {tick}");
            }
            (None, None) => {}
            _ => panic!("one server went idle before the other at tick {tick}"),
        }
        let now = slots(&sharded);
        let durability = &sharded.shards().durability;
        // The promotion and the rebuild move every shard to another
        // database (the promoted standby row's, the rebuild's replay):
        // another table to its image. Shards 1 and 2 then serve from the
        // promoted row and the CPU fallback.
        for s in [0, 3] {
            let dur = &durability[s];
            if dur.checkpoint_batch() != cut[s] {
                cut[s] = dur.checkpoint_batch();
                let grew = now[s] != at_checkpoint[s];
                let full = dur.last_checkpoint().full;
                assert_eq!(full, replaced[s], "shard {s}, tick {tick}");
                replaced[s] = false;
                delta_after_growth += usize::from(grew && !full);
                let image = dur.checkpoint_image();
                assert_eq!(image.state_digest(), sharded.database(s as u32).state_digest());
                assert_eq!(index_slots(&image), now[s], "an image has its source's index size");
                at_checkpoint[s] = now[s].clone();
            }
        }
        // Crash recovery, once a slice has grown since a periodic joint
        // checkpoint: replaying from it must grow the images' indexes as
        // the live ones grew, to the same sizes.
        if !recovered && [0, 3].iter().any(|&s| cut[s] > 0 && now[s] != at_checkpoint[s]) {
            let replayer = sharded.topology().replayer();
            let (dbs, _) = ltpg::recover(durability, &cfg, &replayer).expect("recover");
            for (s, db) in dbs.iter().enumerate() {
                let live = sharded.database(s as u32);
                assert_eq!(db.state_digest(), live.state_digest(), "shard {s}");
                assert_eq!(index_slots(db), now[s], "shard {s}");
            }
            recovered = true;
        }
        if a.is_none() && b.is_none() && sharded.pending() == 0 && single.pending() == 0 {
            break;
        }
    }
    assert!(delta_after_growth > 0, "no checkpoint followed a growth");
    assert!(sharded.stats().committed > 0);
    assert_eq!(sharded.telemetry().counter_value(names::REPLICA_PROMOTIONS), 1);
    assert!(sharded.is_degraded(2) && !sharded.is_degraded(1));
    let end = slots(&sharded);
    for s in 0..4u32 {
        let reference = single.database().partition_clone(part.slice_pred(s));
        assert_eq!(sharded.database(s).state_digest(), reference.state_digest(), "shard {s}");
        for t in inserted {
            let (i, s) = (usize::from(t.0), s as usize);
            assert!(end[s][i] > at_start[s][i], "shard {s} table {i} never grew");
        }
    }
    assert!(recovered, "no slice grew between checkpoints");
}

/// The sharded fleet's set-up in miniature (a quarter of its 1 M rows per
/// shard there, 16 384 here; `setup_peak` guards the full size's memory):
/// each slice keeps the table's schema capacity, so every modelled figure
/// is the one-device one, but its primary index is sized to the rows it
/// was cut with — the next power of two at or above twice them — and the
/// checkpoint images inherit that size.
#[test]
fn slice_indexes_are_sized_to_their_rows() {
    let wl = YcsbConfig::new(YcsbWorkload::A, 65_536)
        .with_alpha(0.4)
        .with_seed(1)
        .with_partitions(4, 10);
    let (db, table, _gen) = YcsbGenerator::new(wl.clone());
    let whole = db.table(table);
    let (capacity, bytes) = (whole.capacity(), whole.bytes());
    assert_eq!(whole.index_slots(), (2 * capacity).next_power_of_two());
    let scfg = ServerConfig {
        batch_size: 2_048,
        pipelined: false,
        checkpoint_every: Some(16),
        ..ServerConfig::default()
    };
    let mut sharded =
        ShardedServer::new(db, ycsb_partitioner(4, table, &wl), LtpgConfig::default(), scfg);
    sharded.attach_replicas(&ReplicaConfig { standbys: 1, ..ReplicaConfig::default() });
    for s in 0..4u32 {
        let slice = sharded.database(s).table(table);
        assert_eq!((slice.capacity(), slice.bytes()), (capacity, bytes));
        assert_eq!(slice.live_rows(), 16_384);
        assert_eq!(slice.index_slots(), 32_768);
        let image = sharded.shards().durability[s as usize].checkpoint_image();
        assert_eq!(image.table(table).index_slots(), 32_768);
    }
}

#[test]
fn more_shards_mean_more_throughput_on_partitionable_load() {
    // Sanity check behind the scaling bench's acceptance bar. The batch
    // must be large enough that per-transaction work, not the fixed
    // per-tick sync overhead, dominates the simulated critical path —
    // at batch 512 a 4-way split shows almost no speedup, at the bench's
    // 4096 it clears 2x. That workload is too heavy for an unoptimized
    // build, so debug runs only exercise the path; the release CI job
    // (and the shard_scaling bench itself) enforce the bar.
    let (batch, batches) = if cfg!(debug_assertions) { (512, 2) } else { (4_096, 6) };
    let mtps = |shards: u32| {
        let cfg = YcsbConfig::new(YcsbWorkload::A, 65_536)
            .with_seed(7)
            .with_alpha(0.4)
            .with_partitions(shards, 0);
        let (db, table, mut gen) = YcsbGenerator::new(cfg.clone());
        let part = ycsb_partitioner(shards, table, &cfg);
        let mut server = ShardedServer::new(
            db,
            part,
            LtpgConfig::default(),
            ServerConfig { batch_size: batch, pipelined: false, ..ServerConfig::default() },
        );
        server.submit_all(gen.gen_batch(batch * batches));
        let stats = server.drain(batches + 32);
        stats.committed as f64 * 1e3 / stats.sim_ns
    };
    let one = mtps(1);
    let four = mtps(4);
    assert!(one > 0.0 && four > 0.0, "both configurations must commit work");
    if !cfg!(debug_assertions) {
        assert!(
            four > 1.8 * one,
            "expected >1.8x scaling at 4 shards (got {one:.3} -> {four:.3} MTPS)"
        );
    }
}

// ---------------------------------------------------------------------------
// Routing determinism properties.

const T0: TableId = TableId(0);
const T1: TableId = TableId(1);
const T2: TableId = TableId(2);

fn arb_op() -> impl Strategy<Value = IrOp> {
    prop_oneof![
        (0..3u16, 0..2_000i64).prop_map(|(t, k)| IrOp::Read {
            table: TableId(t),
            key: Src::Const(k),
            col: ColId(0),
            out: 0,
        }),
        (0..3u16, 0..2_000i64).prop_map(|(t, k)| IrOp::Update {
            table: TableId(t),
            key: Src::Const(k),
            col: ColId(0),
            val: Src::Const(1),
        }),
        (0..3u16, 0..2_000i64).prop_map(|(t, k)| IrOp::Insert {
            table: TableId(t),
            key: Src::Const(k),
            values: vec![Src::Const(0)],
        }),
    ]
}

fn partitioner(shards: u32, reversed: bool) -> Partitioner {
    // Same rule set, two insertion orders: the route may depend only on
    // the resulting table→rule map, never on construction order.
    if reversed {
        Partitioner::new(shards, TableRule::Hash)
            .with_rule(T2, TableRule::Replicated)
            .with_rule(T1, TableRule::Stride { stride: 7 })
    } else {
        Partitioner::new(shards, TableRule::Hash)
            .with_rule(T1, TableRule::Stride { stride: 7 })
            .with_rule(T2, TableRule::Replicated)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Routing is a pure function of the declared key set and the rule
    /// map: two independently-built routers (rules inserted in different
    /// orders) agree, repeated calls agree, and every participant is a
    /// valid shard that the route itself claims to include.
    #[test]
    fn routing_is_deterministic(
        ops in proptest::collection::vec(arb_op(), 1..12),
        shards in prop_oneof![Just(2u32), Just(3), Just(4), Just(8)],
    ) {
        let txn = Txn::new(ProcId(0), vec![], ops);
        let a = Router::new(partitioner(shards, false));
        let b = Router::new(partitioner(shards, true));
        let route = a.route(&txn);
        prop_assert_eq!(&route, &b.route(&txn), "construction order changed the route");
        prop_assert_eq!(&route, &a.route(&txn), "repeated routing diverged");
        match &route {
            Route::Single(s) => {
                prop_assert!(*s < shards);
                prop_assert!(route.includes(*s));
            }
            Route::Multi(v) => {
                prop_assert!(v.len() > 1 && v.len() < shards as usize);
                let mut sorted = v.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(&sorted, v, "participants must be ascending and unique");
                prop_assert!(v.iter().all(|s| *s < shards && route.includes(*s)));
            }
            Route::Broadcast => {
                prop_assert!((0..shards).all(|s| route.includes(s)));
            }
        }
        prop_assert!(route.participant_count(shards) <= shards as usize);
    }

    /// A transaction touching keys owned by one shard always routes
    /// single-shard — the property the YCSB partition generator relies on
    /// to produce 0 %-cross streams.
    #[test]
    fn stride_confined_txns_stay_single_shard(
        keys in proptest::collection::vec(0..500i64, 1..8),
        shard in 0..4u32,
    ) {
        let part = Partitioner::new(4, TableRule::Stride { stride: 1 });
        let router = Router::new(part);
        let ops: Vec<IrOp> = keys
            .iter()
            .map(|&k| IrOp::Update {
                table: T0,
                key: Src::Const(4 * k + i64::from(shard)),
                col: ColId(0),
                val: Src::Const(1),
            })
            .collect();
        let txn = Txn::new(ProcId(0), vec![], ops);
        prop_assert_eq!(router.route(&txn), Route::Single(shard));
    }
}
