//! One shell, two topologies: the table-driven differential.
//!
//! `LtpgServer`, a 1-shard `ShardedServer` and a 4-shard `ShardedServer`
//! are the same `ltpg::Server` over different topologies, so every way of
//! running — and of losing a device — must leave the same history on all
//! three: per tick the same committed and aborted TIDs and the same merged
//! flag words, at the end the same slices. The one-device topology and the
//! one-shard sharded topology run the same device operations, so between
//! them the fault counters, the pool's counters and — while the device
//! lives — the simulated clock, to the bit, must agree as well.

use std::collections::BTreeSet;

use ltpg::{
    BatchSummary, FaultStats, LtpgConfig, LtpgServer, ReplicaChaos, Server, ServerConfig, Topology,
};
use ltpg_gpu_sim::DeviceFaultPlan;
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{Partitioner, ShardedServer, TableRule};
use ltpg_storage::{ColId, Database, TableBuilder, TableId};
use ltpg_telemetry::names;
use ltpg_txn::{IrOp, ProcId, Src, Txn};

const T: TableId = TableId(0);
const BATCH: usize = 24;

/// One way of running the stream.
struct Row {
    name: &'static str,
    /// Armed on the victim shard's device before the first tick.
    plan: DeviceFaultPlan,
    /// Kill the victim's device at the boundary after this many ticks.
    fail_after: Option<usize>,
    standbys: usize,
    recovers_after: Option<u64>,
}

fn rows() -> Vec<Row> {
    let quiet = || Row {
        name: "fault-free",
        plan: DeviceFaultPlan::none(),
        fail_after: None,
        standbys: 0,
        recovers_after: None,
    };
    // Op 0 is the first upload; op 6 a liveness check inside the second
    // batch the device runs (five fallible operations per batch).
    let transient = DeviceFaultPlan { transient_ops: BTreeSet::from([0]), ..DeviceFaultPlan::none() };
    let mid_batch = DeviceFaultPlan { lost_at_op: Some(6), ..DeviceFaultPlan::none() };
    // Every upload of the first batch faults until its retries run out:
    // the round is lost on a device that never failed.
    let retries = u64::from(ServerConfig::default().max_transient_retries);
    let exhausted = DeviceFaultPlan { transient_ops: (0..=retries).collect(), ..DeviceFaultPlan::none() };
    vec![
        quiet(),
        Row { name: "transient upload fault", plan: transient, ..quiet() },
        Row { name: "lost at a boundary, no pool", fail_after: Some(2), ..quiet() },
        Row { name: "lost mid-batch, no pool", plan: mid_batch.clone(), ..quiet() },
        Row { name: "lost at a boundary, one standby row", fail_after: Some(2), standbys: 1, ..quiet() },
        Row { name: "lost mid-batch, one standby row", plan: mid_batch, standbys: 1, ..quiet() },
        Row { name: "timed device recovery", fail_after: Some(1), recovers_after: Some(2), ..quiet() },
        Row {
            name: "retries exhausted, timed recovery",
            plan: exhausted,
            recovers_after: Some(2),
            ..quiet()
        },
    ]
}

/// 32 rows and a stream of single-key writes with, every third
/// transaction, a read of one key and a write of another (cross-shard under
/// the 4-shard stride partitioner, where key k lives on shard k % 4).
fn db_and_txns() -> (Database, Vec<Txn>) {
    let mut db = Database::new();
    db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(256).build());
    for k in 0..32 {
        db.table_mut(T).insert(k, &[k, 0]).unwrap();
    }
    let write = |key, val| IrOp::Update { table: T, key: Src::Const(key), col: ColId(0), val: Src::Const(val) };
    let txns = (0..240i64)
        .map(|i| {
            let (k1, k2) = (i % 32, (i * 7 + 3) % 32);
            let ops = if i % 3 == 0 {
                vec![IrOp::Read { table: T, key: Src::Const(k1), col: ColId(0), out: 0 }, write(k2, i + 1)]
            } else {
                vec![write(k1, i + 1)]
            };
            Txn::new(ProcId(0), vec![], ops)
        })
        .collect();
    (db, txns)
}

/// Everything a run leaves behind that another topology must reproduce.
struct Run {
    ticks: Vec<BatchSummary>,
    faults: FaultStats,
    degraded_shards: u32,
    replica: [u64; 4],
}

const REPLICA_COUNTERS: [&str; 4] = [
    names::REPLICA_PROMOTIONS,
    names::REPLICA_DEMOTIONS,
    names::REPLICA_REPROMOTIONS,
    names::REPLICA_CATCHUP_BATCHES,
];

/// Drive `server` through `row`, the faults landing on shard `victim`.
fn run<X: Topology>(server: &mut Server<X>, victim: usize, row: &Row, txns: &[Txn]) -> Run {
    if row.standbys > 0 {
        let pool = ReplicaConfig { standbys: row.standbys, ..ReplicaConfig::default() };
        ltpg_replica::attach(server, &pool);
    }
    server.arm_replica_chaos(ReplicaChaos {
        device_recovers_after_batches: row.recovers_after,
        ..ReplicaChaos::none()
    });
    server.shards_mut().arm_faults(victim, row.plan.clone());
    server.submit_all(txns.iter().cloned());
    let mut ticks = Vec::new();
    loop {
        if row.fail_after == Some(ticks.len()) {
            server.shards_mut().fail_device(victim);
        }
        match server.tick() {
            Some(summary) => ticks.push(summary),
            None => break,
        }
    }
    let reg = server.telemetry();
    Run {
        ticks,
        faults: server.stats().faults,
        degraded_shards: server.stats().degraded_shards,
        replica: REPLICA_COUNTERS.map(|name| reg.counter_value(name)),
    }
}

fn sharded(db: &Database, shards: u32, scfg: &ServerConfig) -> ShardedServer {
    let part = Partitioner::new(shards, TableRule::Stride { stride: 1 });
    ShardedServer::new(db.deep_clone(), part, LtpgConfig::default(), scfg.clone())
}

#[test]
fn every_row_leaves_the_same_history_on_every_topology() {
    let (db, txns) = db_and_txns();
    let scfg = ServerConfig { batch_size: BATCH, pipelined: false, ..ServerConfig::default() };
    let plain = || LtpgServer::new(db.deep_clone(), LtpgConfig::default(), scfg.clone());
    let reference = run(&mut plain(), 0, &rows()[0], &txns);
    for row in rows() {
        let name = row.name;
        let mut plain = plain();
        let mut one = sharded(&db, 1, &scfg);
        let mut four = sharded(&db, 4, &scfg);
        let p = run(&mut plain, 0, &row, &txns);
        let o = run(&mut one, 0, &row, &txns);
        let f = run(&mut four, 2, &row, &txns);

        for (who, other) in [("fault-free run", &reference), ("1 shard", &o), ("4 shards", &f)] {
            assert_eq!(p.ticks.len(), other.ticks.len(), "{name}: ticks vs {who}");
            for (tick, (a, b)) in p.ticks.iter().zip(&other.ticks).enumerate() {
                assert_eq!(a.committed, b.committed, "{name}: commits vs {who}, tick {tick}");
                assert_eq!(a.aborted, b.aborted, "{name}: aborts vs {who}, tick {tick}");
                assert_eq!(a.flag_words, b.flag_words, "{name}: flag words vs {who}, tick {tick}");
            }
        }
        // Same device operations under both one-device servers: the same
        // fault accounting, pool traffic and, on the device, clock (the
        // lockstep round re-adds the CPU fallback's total from its halves,
        // which may differ from its report in the last bit).
        let retries = u64::from(scfg.max_transient_retries);
        let exhausted = (0..=retries).all(|op| row.plan.transient_ops.contains(&op));
        let lost = row.fail_after.is_some() || row.plan.lost_at_op.is_some() || exhausted;
        let bits = |run: &Run| run.ticks.iter().map(|t| t.sim_ns.to_bits()).collect::<Vec<_>>();
        if !lost {
            assert_eq!(bits(&p), bits(&o), "{name}: sim_ns, plain vs 1 shard");
        }
        assert_eq!(p.faults, o.faults, "{name}: fault counters, plain vs 1 shard");
        assert_eq!(p.replica, o.replica, "{name}: replica counters, plain vs 1 shard");
        assert_eq!(p.degraded_shards, o.degraded_shards, "{name}");

        for (server, shards) in [(&one, 1), (&four, 4)] {
            let part = server.partitioner();
            for s in 0..shards {
                assert_eq!(
                    server.database(s).state_digest(),
                    plain.database().partition_clone(part.slice_pred(s)).state_digest(),
                    "{name}: shard {s} of {shards} vs the plain server's restriction"
                );
            }
        }
        // The row did what it says. A device behind a lost round is kept
        // for its timed recovery even when it never failed.
        assert_eq!(p.replica[0], u64::from(lost && row.standbys > 0), "{name}: promotions");
        assert_eq!(p.replica[2], u64::from(row.recovers_after.is_some()), "{name}: repromotions");
        let on_fallback = lost && row.standbys == 0 && row.recovers_after.is_none();
        assert_eq!(
            (p.degraded_shards, f.degraded_shards, p.faults.fallback_activations),
            (u32::from(on_fallback), u32::from(on_fallback), u64::from(lost && row.standbys == 0)),
            "{name}: degradation"
        );
        let retried = row.plan.transient_ops.len() as u64 - u64::from(exhausted);
        assert_eq!(p.faults.transient_retries, retried, "{name}");
    }
}
