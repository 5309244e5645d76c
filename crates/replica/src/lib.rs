#![warn(missing_docs)]

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
//! - [`ReplicaSet`] — N warm standby rows (one engine per shard) replaying
//!   the logged batch stream behind the primary, with catch-up replay from
//!   checkpoint + WAL for lagging rows and promotion of the freshest row
//!   at a batch boundary. The batch-id alignment machinery of the sharded
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
//! The single-device case plugs into [`ltpg::LtpgServer`] through the
//! [`ltpg::FailoverProvider`] trait (implemented for [`ReplicaSet`] when
//! it has one shard). The sharded server drives the same pool through
//! [`ReplicaSet::observe`] / [`ReplicaSet::promote_row`] with a joint
//! lockstep [`ReplayDriver`], because cross-shard transactions need a
//! remote view over row peers that only the shard layer can build.
//!
//! Everything publishes under the `REPLICA_*` names in
//! [`ltpg_telemetry::names`]: per-standby lag gauges, promotion /
//! demotion / re-promotion counters, and a failover-latency histogram.

pub mod health;
pub mod set;

pub use health::{HealthMonitor, Heartbeat, HealthVerdict};
pub use set::{MergedWords, ReplayDriver, ReplicaConfig, ReplicaError, ReplicaSet};

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg::{FailoverProvider, LtpgConfig, LtpgServer, ServerConfig};
    use ltpg_storage::{Database, TableBuilder, TableId};
    use ltpg_telemetry::{names, Registry};
    use ltpg_txn::{IrOp, ProcId, Src, Txn};
    use std::sync::Arc;

    fn db_and_writers(n: usize, keys: i64) -> (Database, Vec<Txn>) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(64).build());
        for k in 0..keys {
            db.table(t).insert(k, &[0, 0]).unwrap();
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
        let set = ReplicaSet::new(
            vec![server.durability().checkpoint_image()],
            server.durability().checkpoint_batch(),
            LtpgConfig::default(),
            &ReplicaConfig { standbys: n, ..ReplicaConfig::default() },
            Arc::clone(server.telemetry()),
        );
        server.attach_failover(Box::new(set));
    }

    #[test]
    fn failover_preserves_history_bit_for_bit() {
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
        primary.force_device_failure(); // pool empty → CPU twin
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
        let mut set = ReplicaSet::new(
            vec![primary.durability().checkpoint_image()],
            primary.durability().checkpoint_batch(),
            LtpgConfig::default(),
            &ReplicaConfig { standbys: 1, ..ReplicaConfig::default() },
            Arc::clone(primary.telemetry()),
        );
        set.inject_lag(0, 3); // chaos: hold the standby 3 batches behind
        primary.attach_failover(Box::new(set));
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
        let mut set = ReplicaSet::new(
            vec![primary.durability().checkpoint_image()],
            primary.durability().checkpoint_batch(),
            LtpgConfig::default(),
            &ReplicaConfig { standbys: 2, ..ReplicaConfig::default() },
            Registry::new_shared(),
        );
        set.inject_lag(0, 100); // row 0 pinned at the checkpoint
        primary.submit_all(txns);
        for _ in 0..3 {
            primary.tick().unwrap();
            set.after_batch(primary.durability());
        }
        let lags = set.lags(primary.durability().logged_batches() as u64);
        assert!(lags.iter().any(|&(id, lag)| id == 0 && lag >= 3));
        assert!(lags.iter().any(|&(id, lag)| id == 1 && lag == 0));
        // Promotion picks row 1 (fresh) and costs zero catch-up batches
        // beyond the already-applied tail.
        let before = set.registry().counter_value(names::REPLICA_CATCHUP_BATCHES);
        let _ = before;
        let upto = primary.durability().logged_batches() as u64;
        let promoted =
            FailoverProvider::promote(&mut set, primary.durability(), upto).expect("promotable");
        assert_eq!(
            promoted.database().state_digest(),
            primary.database().state_digest(),
            "fresh standby is already bit-identical to the primary"
        );
        assert_eq!(set.rows_alive(), 1, "the promoted row left the pool");
    }
}
