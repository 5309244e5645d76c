//! Elastic-sharding integration suite.
//!
//! The load-bearing claim of online repartitioning is **cutover
//! invisibility**: a sharded run that splits, merges, or re-rules its
//! key-space mid-stream must commit bit-identically — same per-tick
//! commit/abort TID sequences, same OR-merged conflict-flag words, same
//! final slice digests — to a from-scratch cluster built at the final
//! topology and fed the identical stream. Batches before the cutover
//! route under the old rules, batches from it under the new ones, and
//! nothing in the history betrays which path a row took.

use ltpg::{LtpgConfig, ReplicaChaos, ServerConfig};
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{
    ycsb_partitioner, Partitioner, PlannerConfig, RebalanceOp, RebalancePlan, ShardedServer,
    TableRule,
};
use ltpg_storage::{Database, Table, TableBuilder, TableId};
use ltpg_telemetry::names;
use ltpg_txn::{IrOp, ProcId, Src, Txn};
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const T0: TableId = TableId(0);

/// A four-shard range-partitioned single-table fixture: keys `0..256`,
/// bounds at 65/129/193 so shard `s` owns `[64s+1, 64s+64]` (shard 0 also
/// owns key 0).
fn range_fixture() -> (Database, Partitioner) {
    let mut db = Database::new();
    let schema = TableBuilder::new("T").columns(["a", "b"]).capacity(512).build();
    let id = db.add_built_table(Table::new(schema));
    for k in 0..256 {
        db.table_mut(id).insert(k, &[k, -k]).expect("seed row");
    }
    let part = Partitioner::new(4, TableRule::Hash)
        .with_rule(id, TableRule::Range { bounds: vec![65, 129, 193] });
    (db, part)
}

/// A deterministic update/add stream over `keys`, several ops per
/// transaction so cross-shard routes occur.
fn update_stream(seed: u64, n: usize, keys: std::ops::Range<i64>) -> Vec<Txn> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let nops = rng.gen_range(1..=4usize);
            let ops = (0..nops)
                .map(|_| {
                    let key = Src::Const(rng.gen_range(keys.clone()));
                    let col = ltpg_storage::ColId(rng.gen_range(0..2u16));
                    if rng.gen_bool(0.5) {
                        IrOp::Update { table: T0, key, col, val: Src::Const(rng.gen_range(-50..50)) }
                    } else {
                        IrOp::Add { table: T0, key, col, delta: Src::Const(rng.gen_range(-5..5)) }
                    }
                })
                .collect();
            Txn::new(ProcId(0), vec![], ops)
        })
        .collect()
}

fn server(db: &Database, part: &Partitioner, batch: usize) -> ShardedServer {
    ShardedServer::new(
        db.deep_clone(),
        part.clone(),
        LtpgConfig::default(),
        ServerConfig { batch_size: batch, pipelined: false, ..ServerConfig::default() },
    )
}

/// Tick `a` (which may rebalance mid-stream) and `b` (fixed topology) in
/// lockstep until both drain, asserting per-tick commit/abort sequences
/// AND the merged conflict-flag words stay bit-identical.
fn assert_lockstep_with_flags(a: &mut ShardedServer, b: &mut ShardedServer, max_ticks: usize) {
    assert_lockstep_around(a, b, max_ticks, |_| {});
}

/// The same, calling `before(a)` ahead of each tick.
fn assert_lockstep_around(
    a: &mut ShardedServer,
    b: &mut ShardedServer,
    max_ticks: usize,
    mut before: impl FnMut(&mut ShardedServer),
) {
    for tick in 0..max_ticks {
        before(a);
        let ra = a.tick();
        let rb = b.tick();
        match (&ra, &rb) {
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.committed, sb.committed, "commit set diverged at tick {tick}");
                assert_eq!(sa.aborted, sb.aborted, "abort set diverged at tick {tick}");
                assert_eq!(
                    sa.flag_words, sb.flag_words,
                    "merged conflict-flag words diverged at tick {tick}"
                );
            }
            (None, None) => {}
            _ => panic!("one server went idle before the other at tick {tick}"),
        }
        if ra.is_none() && rb.is_none() && a.pending() == 0 && b.pending() == 0 {
            assert!(a.stats().committed > 0, "stream should commit something");
            return;
        }
    }
    panic!("servers did not drain in {max_ticks} ticks");
}

/// Every shard of `a` must hold exactly the slice `b` holds — both ended
/// at the same topology, one via cutover, one from scratch.
fn assert_slices_identical(a: &ShardedServer, b: &ShardedServer) {
    assert_eq!(a.shard_count(), b.shard_count());
    for s in 0..a.shard_count() {
        assert_eq!(
            a.database(s).state_digest(),
            b.database(s).state_digest(),
            "shard {s} slice diverged between the rebalanced and from-scratch runs"
        );
    }
}

/// The headline acceptance run: 16 shards over a partitioned YCSB stream
/// with one range **split** and one **merge** applied mid-stream at
/// aligned batch boundaries. The rebalanced run must match a from-scratch
/// cluster at the final topology tick-for-tick (commits, aborts, flag
/// words) and slice-for-slice.
#[test]
fn sixteen_shards_split_and_merge_match_from_scratch_topology() {
    let (batch, batches) = if cfg!(debug_assertions) { (128, 4) } else { (256, 6) };
    let cfg = YcsbConfig::new(YcsbWorkload::A, 4_096)
        .with_seed(0xe1a5)
        .with_alpha(0.4)
        .with_partitions(16, 10);
    let (db, table, mut gen) = YcsbGenerator::new(cfg.clone());
    let part = ycsb_partitioner(16, table, &cfg);
    let size = cfg.partition_size() as i64;

    // Split shard 0's range at its midpoint, re-homing the upper half to
    // shard 15 (which then owns two ranges); later merge shard 7's range
    // into shard 6, leaving shard 7 with no owned range.
    let split = RebalancePlan {
        cutover: 2,
        ops: vec![RebalanceOp::Split { table, at: size / 2, to: 15 }],
    };
    let merge = RebalancePlan {
        cutover: 5,
        ops: vec![RebalanceOp::Merge { table, from: 7, to: 6 }],
    };
    let final_part = merge
        .apply_to(&split.apply_to(&part).expect("split validates"))
        .expect("merge validates");

    let mut rebalanced = server(&db, &part, batch);
    let mut fresh = server(&db, &final_part, batch);
    let stream = gen.gen_batch(batch * batches);
    rebalanced.submit_all(stream.iter().cloned());
    fresh.submit_all(stream);

    rebalanced.schedule_rebalance(split).expect("split scheduled");
    let mut pending_merge = Some(merge);
    assert_lockstep_around(&mut rebalanced, &mut fresh, 60 * batches, |rebalanced| {
        if pending_merge.is_some() && !rebalanced.rebalance_pending() {
            rebalanced.schedule_rebalance(pending_merge.take().unwrap()).expect("merge scheduled");
        }
    });
    assert_eq!(rebalanced.stats().rebalances, 2, "both plans must have cut over mid-stream");
    assert!(rebalanced.stats().rows_migrated > 0, "the split must have migrated rows");
    assert!(!rebalanced.rebalance_pending());
    assert_eq!(rebalanced.partitioner(), &final_part, "live rules must equal the plan product");
    assert!(rebalanced.stats().cross_shard_fraction() > 0.0, "stream must carry cross traffic");
    assert_slices_identical(&rebalanced, &fresh);
}

/// A 4→2 merge: shards 1 and 3 hand their ranges to 0 and 2. Each
/// survivor's new slice is cut from its own ~64 rows, with an index sized
/// for them, and `absorb_rows` must reserve room for the ~64 arriving ones:
/// the index grows to what a slice cut with all of them has, and the run
/// stays bit-identical to a cluster built at the final topology.
#[test]
fn a_four_to_two_merge_grows_the_surviving_slices_indexes() {
    let (db, part) = range_fixture();
    let plan = RebalancePlan {
        cutover: 3,
        ops: vec![
            RebalanceOp::Merge { table: T0, from: 1, to: 0 },
            RebalanceOp::Merge { table: T0, from: 3, to: 2 },
        ],
    };
    let final_part = plan.apply_to(&part).expect("merges validate");
    let mut merged = server(&db, &part, 16);
    let mut fresh = server(&db, &final_part, 16);
    let slots = |s: &ShardedServer, shard: u32| s.database(shard).table(T0).index_slots();
    let before = [0, 2].map(|shard| slots(&merged, shard));
    let stream = update_stream(31, 16 * 8, 0..256);
    merged.submit_all(stream.iter().cloned());
    fresh.submit_all(stream);
    merged.schedule_rebalance(plan).expect("merge scheduled");
    assert_lockstep_with_flags(&mut merged, &mut fresh, 64);
    assert_eq!(merged.stats().rebalances, 1);
    // Shard 1 owned keys 65..=128, shard 3 keys 193..=255.
    assert_eq!(merged.stats().rows_migrated, 64 + 63);
    assert_slices_identical(&merged, &fresh);
    for (i, shard) in [0, 2].into_iter().enumerate() {
        assert!(slots(&merged, shard) > before[i], "shard {shard}'s index did not grow");
        assert_eq!(slots(&merged, shard), slots(&fresh, shard));
    }
    for shard in [1, 3] {
        assert_eq!(merged.database(shard).table(T0).live_rows(), 0);
    }
}

/// Consistent snapshot reads come from the standby pool: after a cutover
/// the pool is rebuilt from the cutover checkpoints, so `snapshot_read`
/// serves the committed value for any key under the *new* routing.
#[test]
fn snapshot_reads_serve_standby_rows_across_a_cutover() {
    let (db, part) = range_fixture();
    let mut sharded = server(&db, &part, 16);
    assert!(sharded.snapshot_read(T0, 3).is_none(), "no pool, no snapshot reads");
    sharded.attach_replicas(&ReplicaConfig { standbys: 1, ..ReplicaConfig::default() });
    sharded.submit_all(update_stream(11, 96, 0..256));
    sharded.drain(64);

    // Move shard 1's range onto shard 2 at the next boundary; one idle
    // tick applies it and rebuilds the pool from the cutover images.
    let plan = RebalancePlan {
        cutover: sharded.stats().batches,
        ops: vec![RebalanceOp::Move { table: T0, at: 100, to: 2 }],
    };
    sharded.schedule_rebalance(plan).expect("move scheduled");
    sharded.tick();
    assert!(!sharded.rebalance_pending(), "idle tick must apply the due plan");

    for key in [0i64, 64, 100, 200, 255] {
        let home = sharded.partitioner().home(T0, key);
        let rid = sharded.database(home).table(T0).lookup(key).expect("seeded key");
        let live = sharded.database(home).table(T0).row_values(rid);
        let (vals, applied) = sharded.snapshot_read(T0, key).expect("standby row serves the key");
        assert_eq!(vals, live, "snapshot of key {key} diverged from the live slice");
        assert!(applied > 0, "snapshot must advertise the batch it reflects");
    }
}

/// An armed standby lag hold belongs to the server, not to whichever pool
/// existed when it was armed: arming before `attach_replicas` must take
/// effect, and the pool the cutover rebuilds must be held back too. The
/// held-back run still commits bit-identically to an unheld one.
#[test]
fn an_armed_standby_lag_survives_attach_order_and_a_cutover() {
    const HOLD: u64 = 2;
    let (db, part) = range_fixture();
    let mut held = server(&db, &part, 16);
    held.arm_replica_chaos(ReplicaChaos { standby_lag: Some((0, HOLD)), ..ReplicaChaos::none() });
    held.attach_replicas(&ReplicaConfig::default());
    let mut free = server(&db, &part, 16);
    free.attach_replicas(&ReplicaConfig::default());
    let plan = RebalancePlan {
        cutover: 4,
        ops: vec![RebalanceOp::Move { table: T0, at: 100, to: 2 }],
    };
    for s in [&mut held, &mut free] {
        s.submit_all(update_stream(23, 16 * 9, 0..256));
        s.schedule_rebalance(plan.clone()).expect("move scheduled");
    }
    let lag_gauge = names::replica_standby_lag_gauge(0);
    let lag = |s: &ShardedServer| s.telemetry().gauge_value(&lag_gauge);

    let tick_both = |held: &mut ShardedServer, free: &mut ShardedServer| {
        assert_eq!(held.tick().map(|t| t.committed), free.tick().map(|t| t.committed));
    };
    for _ in 0..4 {
        tick_both(&mut held, &mut free);
    }
    assert_eq!(held.stats().rebalances, 0);
    assert_eq!(lag(&held), HOLD as i64, "a hold armed before the pool attached was dropped");
    for _ in 0..HOLD {
        tick_both(&mut held, &mut free);
    }
    assert_eq!(held.stats().rebalances, 1, "the plan cut over at batch 4");
    assert_eq!(lag(&held), HOLD as i64, "the cutover's pool rebuild reset the hold");
    assert_eq!(lag(&free), 0);

    assert_lockstep_with_flags(&mut held, &mut free, 64);
    assert_slices_identical(&held, &free);
    // The hold is still in force on the drained pool: its cut trails the
    // unheld pool's by exactly the hold.
    let cut = |s: &ShardedServer| s.snapshot_read(T0, 3).expect("standby row serves the key").1;
    assert_eq!(cut(&held) + HOLD, cut(&free));
}

/// The load-driven planner: with every transaction landing on shard 0,
/// the `ltpg.batch.total_ns` imbalance crosses the hysteresis threshold
/// and the planner emits a median split of the hot shard — applied at an
/// aligned boundary with no operator in the loop.
#[test]
fn auto_planner_splits_the_hot_shard() {
    let (db, part) = range_fixture();
    let mut sharded = server(&db, &part, 8);
    sharded.set_auto_rebalance(PlannerConfig { imbalance_ratio: 1.5, patience: 2, cooldown: 4 });
    // 40 batches of work confined to shard 0's keys.
    sharded.submit_all(update_stream(23, 320, 0..64));
    sharded.drain(400);
    assert!(sharded.stats().rebalances >= 1, "sustained skew must trigger a split");
    assert_ne!(
        sharded.partitioner().table_rule(T0),
        &TableRule::Range { bounds: vec![65, 129, 193] },
        "the split must have rewritten table 0's rule"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any seeded valid plan applied at batch `cutover` yields the same
    /// commit history and slices as a fresh cluster at the new topology:
    /// the differential contract holds for arbitrary splits, merges,
    /// moves and rule swaps, not just the handcrafted ones above.
    #[test]
    fn seeded_plans_commit_identically_to_a_fresh_topology(
        op_pick in 0..4u32,
        split_at in 2..255i64,
        shard_a in 0..4u32,
        shard_b in 0..4u32,
        cutover in 1..4u64,
        stream_seed in 0..500u64,
    ) {
        let (db, part) = range_fixture();
        let op = match op_pick {
            0 => RebalanceOp::Split { table: T0, at: split_at, to: shard_a },
            1 => RebalanceOp::Merge { table: T0, from: shard_a, to: shard_b },
            2 => RebalanceOp::Move { table: T0, at: split_at, to: shard_a },
            _ => RebalanceOp::SetRule { table: T0, rule: TableRule::Hash },
        };
        // Degenerate draws (split at an existing bound, merge of an
        // absent or identical shard) are rejected by validation; they
        // fall back to an always-valid rule swap so every case still
        // exercises a cutover.
        let mut plan = RebalancePlan { cutover, ops: vec![op] };
        if plan.apply_to(&part).is_err() {
            plan.ops = vec![RebalanceOp::SetRule { table: T0, rule: TableRule::Hash }];
        }
        let final_part = plan.apply_to(&part).unwrap();

        let mut rebalanced = server(&db, &part, 8);
        let mut fresh = server(&db, &final_part, 8);
        let stream = update_stream(stream_seed, 64, 0..256);
        rebalanced.submit_all(stream.iter().cloned());
        fresh.submit_all(stream);
        rebalanced.schedule_rebalance(plan).expect("validated plan schedules");
        assert_lockstep_with_flags(&mut rebalanced, &mut fresh, 200);
        prop_assert!(!rebalanced.rebalance_pending(), "an 8-batch stream passes cutover {cutover}");
        prop_assert_eq!(rebalanced.stats().rebalances, 1);
        assert_slices_identical(&rebalanced, &fresh);
    }
}
