#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ltpg-replica — deterministic replication and automatic failover
//!
//! LTPG's commit decision is a pure function of (snapshot, batch, TIDs):
//! the conflict-detection kernel's verdicts depend only on data that is
//! identical on every replica that has applied the same WAL prefix. That
//! is the Calvin-style determinism dividend — replicas need no
//! coordination protocol, no primary→standby state shipping, and no 2PC;
//! they just replay the batch-id-aligned commit stream and are
//! bit-identical by construction.
//!
//! This crate packages that dividend into three pieces:
//!
//! - [`ReplicaSet`] — N warm standby rows (one engine per shard), each
//!   replaying the logged batch stream behind the primary on its own
//!   worker thread, with catch-up replay from checkpoint + WAL for lagging
//!   rows and promotion of the freshest row at a batch boundary. The batch-id alignment machinery of the sharded
//!   server (every shard logs a record for every global batch id, empty
//!   sub-batches included) is exactly the cutover barrier: "promote at
//!   batch b" means the same instant on every shard.
//! - [`HealthMonitor`] — consecutive-miss heartbeat fencing with the
//!   verdict rules spelled out in [`health`]. False positives are safe:
//!   the promoted standby serves the same history the fenced primary
//!   would have.
//! - re-enlistment — a device that comes back from a timed outage
//!   ([`ltpg_gpu_sim::Device::revive`] + `reset_for_reuse`) is rebuilt
//!   into a fresh standby row over the current checkpoint instead of
//!   staying benched forever.
//!
//! A server reaches the pool through [`ltpg::StandbyRows`], which
//! [`ReplicaSet`] implements once, for any number of shards: [`attach`]
//! builds the pool over a server's shards with [`round_applier`] around the
//! server's own topology round (a lone device's prepare + finish, or the
//! sharded lockstep round with its remote view over row peers — only the
//! shard layer can build that, so the round comes in as a closure).
//!
//! Everything publishes under the `REPLICA_*` names in
//! [`ltpg_telemetry::names`]: per-standby lag gauges, promotion /
//! demotion / re-promotion counters, and a failover-latency histogram.

pub mod health;
pub mod set;

pub use health::{HealthMonitor, Heartbeat, HealthVerdict};
pub use set::{
    attach, round_applier, Applier, Demotion, MergedWords, ReplicaConfig, ReplicaError, ReplicaSet,
    SHIP_QUEUE_DEPTH,
};

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg::{LtpgConfig, LtpgServer, OneDevice, ServerConfig, StandbyRows, Topology};
    use ltpg_gpu_sim::{Device, DeviceError, DeviceFaultPlan};
    use ltpg_storage::{Database, TableBuilder, TableId};
    use ltpg_telemetry::{names, Registry};
    use ltpg_txn::{IrOp, ProcId, Src, Txn};
    use std::sync::Arc;

    fn db_and_writers(n: usize, keys: i64) -> (Database, Vec<Txn>) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(64).build());
        for k in 0..keys {
            db.table_mut(t).insert(k, &[0, 0]).unwrap();
        }
        let txns = (0..n as i64)
            .map(|i| {
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![IrOp::Update {
                        table: TableId(0),
                        key: Src::Const(i % keys),
                        col: ltpg_storage::ColId(0),
                        val: Src::Const(i + 1),
                    }],
                )
            })
            .collect();
        (db, txns)
    }

    fn server(db: Database, batch: usize) -> LtpgServer {
        LtpgServer::new(
            db,
            LtpgConfig::default(),
            ServerConfig { batch_size: batch, pipelined: false, ..ServerConfig::default() },
        )
    }

    fn attach_standbys(server: &mut LtpgServer, n: usize) {
        attach(server, &ReplicaConfig { standbys: n, ..ReplicaConfig::default() });
    }

    /// A pool of `standbys` rows over `primary`, replaying through `applier`.
    fn pool(primary: &LtpgServer, standbys: usize, applier: Applier) -> ReplicaSet {
        let cfg = ReplicaConfig { standbys, ..ReplicaConfig::default() };
        ReplicaSet::over(primary.shards(), &cfg, applier)
    }

    /// What replays one logged batch on a row of one.
    fn single_device_applier() -> Applier {
        round_applier(OneDevice.replayer())
    }

    /// `dur` as the logs of a one-shard server.
    fn logs(dur: &ltpg::DurabilityManager) -> &[ltpg::DurabilityManager] {
        std::slice::from_ref(dur)
    }

    /// Everything the pool publishes that a run's scheduling could not be
    /// allowed to move.
    fn replica_telemetry(reg: &Registry) -> [u64; 8] {
        let lag = reg.histogram(names::REPLICA_LAG_BATCHES).snapshot();
        let failover = reg.histogram(names::REPLICA_FAILOVER_NS).snapshot();
        [
            reg.counter_value(names::REPLICA_PROMOTIONS),
            reg.counter_value(names::REPLICA_DEMOTIONS),
            reg.counter_value(names::REPLICA_REPROMOTIONS),
            reg.counter_value(names::REPLICA_CATCHUP_BATCHES),
            lag.count,
            lag.sum,
            failover.count,
            failover.sum,
        ]
    }

    /// One failover run against its fault-free reference; returns the
    /// promoted server's state digest and the pool's telemetry.
    fn failover_run() -> (u64, [u64; 8]) {
        let (db, txns) = db_and_writers(120, 7);
        let mut reference = server(db.deep_clone(), 16);
        reference.submit_all(txns.clone());
        let ref_stats = reference.drain(200).clone();

        let mut primary = server(db, 16);
        attach_standbys(&mut primary, 1);
        primary.submit_all(txns);
        // Serve a few batches, then lose the device at a boundary.
        primary.tick().unwrap();
        primary.tick().unwrap();
        primary.force_device_failure();
        let stats = primary.drain(200).clone();

        assert!(!primary.is_degraded(), "failover must keep the server on a GPU engine");
        assert_eq!(primary.executor_name(), "LTPG");
        assert_eq!(stats.committed, ref_stats.committed);
        assert_eq!(stats.batches, ref_stats.batches, "cutover must not change batching");
        assert_eq!(
            primary.database().state_digest(),
            reference.database().state_digest(),
            "promoted standby must serve the exact fault-free history"
        );
        let reg = primary.telemetry();
        assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
        assert_eq!(
            reg.counter_value(names::FAULT_FALLBACK_ACTIVATIONS),
            0,
            "the CPU fallback must not have been touched"
        );
        assert!(reg.histogram(names::REPLICA_FAILOVER_NS).snapshot().count >= 1);
        (primary.database().state_digest(), replica_telemetry(reg))
    }

    #[test]
    fn failover_preserves_history_bit_for_bit() {
        failover_run();
    }

    /// Replay runs on its own thread, so how far a standby has got when the
    /// primary dies differs from run to run. Nothing observable may.
    #[test]
    fn failover_is_the_same_run_twenty_times() {
        let first = failover_run();
        for run in 1..20 {
            assert_eq!(failover_run(), first, "run {run} differs from run 0");
        }
    }

    /// A standby whose own device dies mid-stream: its worker stops, the
    /// primary keeps shipping past the dead row's queue depth without ever
    /// waiting on it, and the next join demotes the row — once, with the
    /// batch and the device error — while the healthy row is untouched.
    #[test]
    fn a_standby_device_fault_demotes_the_row_with_its_cause_and_never_blocks_the_primary() {
        const BATCHES: usize = 3 + 2 * SHIP_QUEUE_DEPTH;
        let (db, txns) = db_and_writers(16 * BATCHES, 7);
        let mut primary = server(db, 16);
        let mut set = pool(&primary, 1, single_device_applier());
        // Row 1 replays on a device that dies in the middle of its third
        // batch (a batch is five fallible device operations here).
        let mut doomed = Device::new(LtpgConfig::default().device);
        doomed.arm_faults(DeviceFaultPlan {
            lost_at_op: Some(12),
            ..DeviceFaultPlan::none()
        });
        set.reenlist(doomed, logs(primary.durability()));

        primary.submit_all(txns);
        for _ in 0..BATCHES {
            primary.tick().expect("a full batch");
            set.replicate(logs(primary.durability()));
        }
        assert_eq!(set.rows_alive(), 1, "the faulted row is demoted by the next join");
        let demoted = set.demoted();
        assert_eq!(demoted.len(), 1, "exactly one demotion: {demoted:?}");
        assert_eq!((demoted[0].row, demoted[0].batch_id), (1, 2));
        assert!(
            matches!(demoted[0].cause, ReplicaError::Dead(DeviceError::DeviceLost { .. })),
            "the cause survives the worker: {}",
            demoted[0]
        );
        let reg = primary.telemetry();
        assert_eq!(reg.counter_value(names::REPLICA_DEMOTIONS), 1);
        assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 1);
        assert_eq!(
            reg.counter_value(names::REPLICA_CATCHUP_BATCHES),
            BATCHES as u64 + 2,
            "the healthy row applied everything, the doomed one its first two batches"
        );
        let upto = primary.durability().logged_batches() as u64;
        let (survivor, _, _) = set.promote_row(upto, logs(primary.durability())).expect("row 0 lives");
        assert_eq!(survivor[0].database().state_digest(), primary.database().state_digest());
        assert_eq!(set.rows_alive(), 0);
    }

    /// Every running worker holds a clone of the applier, so its reference
    /// count is a census of the set's threads: dropping the server (and the
    /// set with it) in mid-stream leaves none.
    #[test]
    fn dropping_the_server_mid_stream_leaves_no_worker_running() {
        let (db, txns) = db_and_writers(64, 4);
        let mut primary = server(db, 16);
        let applier = single_device_applier();
        let set = pool(&primary, 2, Arc::clone(&applier));
        primary.attach_pool(Box::new(set));
        primary.submit_all(txns);
        primary.tick().unwrap();
        primary.tick().unwrap();
        assert_eq!(Arc::strong_count(&applier), 2 + 2, "this test, the set, a worker per row");
        drop(primary);
        assert_eq!(Arc::strong_count(&applier), 1, "a worker outlived its set");
    }

    /// A panic on a worker thread surfaces on the serving thread, at the
    /// first join after it; until then ships to the dead worker are dropped,
    /// however many there are.
    #[test]
    #[should_panic(expected = "the applier blew up")]
    fn a_worker_panic_is_re_raised_by_the_next_join() {
        let (db, txns) = db_and_writers(16 * (SHIP_QUEUE_DEPTH + 3), 4);
        let mut primary = server(db, 16);
        let mut set = pool(&primary, 1, Arc::new(|_, _| panic!("the applier blew up")));
        primary.submit_all(txns);
        while primary.tick().is_some() {
            set.replicate(logs(primary.durability()));
        }
        set.rows_alive();
    }

    /// A batch the log cannot produce is a demotion at ship time, after
    /// everything before the gap has been applied.
    #[test]
    fn a_wal_gap_demotes_the_row_where_the_log_ends() {
        let (db, txns) = db_and_writers(48, 4);
        let mut primary = server(db, 16);
        let mut set = pool(&primary, 1, single_device_applier());
        primary.submit_all(txns);
        primary.drain(10);
        let logged = primary.durability().logged_batches() as u64;
        set.observe(logged + 1, logs(primary.durability()));
        let demoted = set.demoted();
        assert_eq!(demoted.len(), 1);
        assert_eq!((demoted[0].row, demoted[0].batch_id), (0, logged));
        assert!(matches!(demoted[0].cause, ReplicaError::WalGap { batch_id } if batch_id == logged));
        assert_eq!(primary.telemetry().counter_value(names::REPLICA_CATCHUP_BATCHES), logged);
        assert_eq!(set.rows_alive(), 0);
    }

    /// A batch the log has retired is a gap like one it never held: a row
    /// still to be shipped batches a server has retired below (this pool
    /// is not attached to the server, so its cursor does not hold the
    /// frames back) is demoted at the first of them, never a panic.
    #[test]
    fn a_retired_batch_is_a_wal_gap() {
        let (db, txns) = db_and_writers(64, 4);
        let mut primary = LtpgServer::new(
            db,
            LtpgConfig::default(),
            ServerConfig {
                batch_size: 16,
                pipelined: false,
                checkpoint_every: Some(2),
                ..ServerConfig::default()
            },
        );
        let mut set = pool(&primary, 1, single_device_applier());
        primary.submit_all(txns);
        for _ in 0..4 {
            primary.tick().expect("a full batch");
        }
        let dur = primary.durability();
        assert_eq!((dur.checkpoint_batch(), dur.log().first_retained()), (4, 4));
        set.observe(dur.logged_batches() as u64, logs(dur));
        let demoted = set.demoted();
        assert_eq!(demoted.len(), 1);
        assert_eq!((demoted[0].row, demoted[0].batch_id), (0, 0));
        assert!(matches!(demoted[0].cause, ReplicaError::WalGap { batch_id: 0 }));
        assert_eq!(set.rows_alive(), 0);
    }

    #[test]
    fn exhausted_pool_falls_back_to_cpu() {
        let (db, txns) = db_and_writers(80, 5);
        let mut reference = server(db.deep_clone(), 16);
        reference.submit_all(txns.clone());
        reference.drain(200);

        let mut primary = server(db, 16);
        attach_standbys(&mut primary, 1);
        primary.submit_all(txns);
        primary.tick().unwrap();
        primary.force_device_failure(); // consumes the only standby
        primary.tick().unwrap();
        primary.force_device_failure(); // pool empty → CPU fallback
        let _ = primary.drain(200);

        assert!(primary.is_degraded(), "second loss must degrade to the CPU fallback");
        assert_eq!(
            primary.database().state_digest(),
            reference.database().state_digest()
        );
        let reg = primary.telemetry();
        assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
        assert_eq!(reg.counter_value(names::FAULT_FALLBACK_ACTIVATIONS), 1);
    }

    #[test]
    fn lagging_standby_catches_up_on_promotion() {
        let (db, txns) = db_and_writers(120, 7);
        let mut reference = server(db.deep_clone(), 16);
        reference.submit_all(txns.clone());
        reference.drain(200);

        let mut primary = server(db, 16);
        let mut set = pool(&primary, 1, single_device_applier());
        set.hold_lag(Some((0, 3))); // chaos: hold the standby 3 batches behind
        primary.attach_pool(Box::new(set));
        primary.submit_all(txns);
        for _ in 0..5 {
            primary.tick().unwrap();
        }
        let reg = Arc::clone(primary.telemetry());
        let lag_before = reg.gauge_value(&names::replica_standby_lag_gauge(0));
        assert!(lag_before >= 3, "injected lag must show on the gauge, got {lag_before}");
        primary.force_device_failure();
        primary.drain(200);
        assert!(!primary.is_degraded());
        assert_eq!(
            primary.database().state_digest(),
            reference.database().state_digest(),
            "catch-up replay must close the injected gap exactly"
        );
        assert!(reg.counter_value(names::REPLICA_CATCHUP_BATCHES) > 0);
    }

    #[test]
    fn standby_replay_tracks_the_log_and_lag_metrics_publish() {
        let (db, txns) = db_and_writers(64, 4);
        let mut primary = server(db, 16);
        attach_standbys(&mut primary, 2);
        primary.submit_all(txns);
        primary.drain(100);
        let reg = primary.telemetry();
        assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 2);
        assert_eq!(reg.gauge_value(&names::replica_standby_lag_gauge(0)), 0);
        assert_eq!(reg.gauge_value(&names::replica_standby_lag_gauge(1)), 0);
        assert!(reg.counter_value(names::REPLICA_CATCHUP_BATCHES) > 0);
        assert!(reg.histogram(names::REPLICA_LAG_BATCHES).snapshot().count > 0);
    }

    #[test]
    fn recovered_device_reenlists_as_a_standby() {
        let (db, txns) = db_and_writers(120, 6);
        let mut primary = server(db, 16);
        attach_standbys(&mut primary, 1);
        primary.arm_replica_chaos(ltpg::ReplicaChaos {
            device_recovers_after_batches: Some(2),
            ..ltpg::ReplicaChaos::none()
        });
        primary.submit_all(txns);
        primary.tick().unwrap();
        primary.force_device_failure();
        primary.drain(200);
        assert!(!primary.is_degraded());
        let reg = primary.telemetry();
        assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
        assert_eq!(
            reg.counter_value(names::REPLICA_REPROMOTIONS),
            1,
            "the revived device must have rejoined the pool as a standby"
        );
        assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 1);
    }

    #[test]
    fn a_second_loss_inside_the_outage_window_forgets_neither_device() {
        let (db, txns) = db_and_writers(160, 7);
        let mut reference = server(db.deep_clone(), 16);
        reference.submit_all(txns.clone());
        let ref_stats = reference.drain(200).clone();

        let mut primary = server(db, 16);
        attach_standbys(&mut primary, 2);
        primary.arm_replica_chaos(ltpg::ReplicaChaos {
            device_recovers_after_batches: Some(3),
            ..ltpg::ReplicaChaos::none()
        });
        primary.submit_all(txns);
        primary.tick().unwrap();
        primary.force_device_failure(); // the primary's device
        primary.tick().unwrap();
        primary.force_device_failure(); // the promoted standby's, one batch into the outage
        let stats = primary.drain(200).clone();

        assert!(!primary.is_degraded());
        let reg = primary.telemetry();
        assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 2);
        assert_eq!(
            reg.counter_value(names::REPLICA_REPROMOTIONS),
            2,
            "both lost devices must come back, not only the one lost last"
        );
        assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 2);
        assert_eq!(stats.committed, ref_stats.committed);
        assert_eq!(stats.batches, ref_stats.batches);
        assert_eq!(
            primary.database().state_digest(),
            reference.database().state_digest(),
            "two failovers and two re-enlistments must leave the fault-free history"
        );
    }

    #[test]
    fn promote_row_prefers_the_freshest_row() {
        let (db, txns) = db_and_writers(64, 4);
        let mut primary = server(db, 16);
        let mut set = pool(&primary, 2, single_device_applier());
        set.hold_lag(Some((0, 100))); // row 0 pinned at the checkpoint
        primary.submit_all(txns);
        for _ in 0..3 {
            primary.tick().unwrap();
            set.replicate(logs(primary.durability()));
        }
        let lags = set.lags(primary.durability().logged_batches() as u64);
        assert!(lags.iter().any(|&(id, lag)| id == 0 && lag >= 3));
        assert!(lags.iter().any(|&(id, lag)| id == 1 && lag == 0));
        // Promotion picks row 1 (fresh) and costs zero catch-up batches
        // beyond the already-applied tail.
        let upto = primary.durability().logged_batches() as u64;
        let (promoted, _, _) = set.promote_row(upto, logs(primary.durability())).expect("promotable");
        assert_eq!(
            promoted[0].database().state_digest(),
            primary.database().state_digest(),
            "fresh standby is already bit-identical to the primary"
        );
        assert_eq!(set.rows_alive(), 1, "the promoted row left the pool");
    }
}
