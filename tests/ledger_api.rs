//! The frozen public API, type-checked inside the workspace.
//!
//! `benchmark/` is a package of its own, closed to product PRs. This file
//! names every `ltpg`, `ltpg_front`, `ltpg_shard` and `ltpg_replica` item
//! that `benchmark/README.md` lists under "Public functions the benchmark
//! calls", with the argument and return types
//! `benchmark/src/{workloads,sink}.rs` use, so a source-incompatible change
//! fails `cargo test` here and not only in the separate workspace. Nothing
//! runs: compiling is the test.

#![allow(dead_code)]

use std::collections::HashSet;
use std::sync::Arc;

use ltpg::stats::ReportWithStats;
use ltpg::{DurabilityManager, LtpgBatchStats, LtpgConfig, LtpgEngine, LtpgServer, ServerConfig};
use ltpg_front::{Fleet, FleetConfig, FrontConfig, FrontEnd, FrontStats, TickOutcome, TickSink};
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{ycsb_partitioner, Route, Router, ShardedServer, ShardedStats};
use ltpg_storage::{ColId, Database, TableId};
use ltpg_telemetry::Registry;
use ltpg_txn::{Batch, BatchEngine, Tid, Txn};
use ltpg_workloads::YcsbConfig;

/// The ledger implements its own traits for both servers in one crate
/// (`BatchCount`, `FleetServer: TickSink + BatchCount`), which is what
/// makes them necessarily distinct types.
trait BatchCount {
    fn batches_executed(&self) -> u64;
}

impl BatchCount for LtpgServer {
    fn batches_executed(&self) -> u64 {
        self.stats().batches
    }
}

impl BatchCount for ShardedServer {
    fn batches_executed(&self) -> u64 {
        self.stats().batches
    }
}

/// It also wraps either server in a sink of its own.
struct Wrapped<S>(S);

impl<S: TickSink + BatchCount> TickSink for Wrapped<S> {
    fn submit_batch(&mut self, txns: Vec<Txn>) {
        self.0.submit_batch(txns)
    }
    fn tick_outcome(&mut self) -> Option<TickOutcome> {
        let out: TickOutcome = self.0.tick_outcome()?;
        let (_, _, _): (&Vec<Tid>, &Vec<Tid>, f64) = (&out.committed, &out.aborted, out.sim_ns);
        Some(out)
    }
    fn queued(&self) -> usize {
        self.0.queued()
    }
    fn next_tid(&self) -> u64 {
        self.0.next_tid()
    }
    fn fault_delay_ns(&self) -> f64 {
        self.0.fault_delay_ns()
    }
    fn registry(&self) -> Arc<Registry> {
        self.0.registry()
    }
}

fn ltpg_items(db: Database, batch: &Batch) {
    let mut cfg: LtpgConfig = LtpgConfig::default();
    let _: (&mut usize, &mut usize) = (&mut cfg.max_batch, &mut cfg.est_accesses_per_txn);
    let _: [&mut HashSet<(TableId, ColId)>; 2] = [&mut cfg.commutative_cols, &mut cfg.delayed_cols];
    let _: &mut HashSet<TableId> = &mut cfg.premarked_popular;

    let mut engine = LtpgEngine::with_telemetry(db.deep_clone(), cfg.clone(), Registry::new_shared());
    let ReportWithStats { report, stats: s } = engine.execute_batch_report(batch);
    let _: (Vec<Tid>, Vec<Tid>, f64) = (report.committed, report.aborted, report.sim_ns);
    let _: &LtpgBatchStats = &s;
    let _: [f64; 4] = [s.h2d_ns, s.execute_ns, s.detect_ns, s.writeback_ns];
    let _: [f64; 4] = [s.sync_ns, s.d2h_ns, s.alloc_ns, s.critical_path_ns()];
    let _: &Database = BatchEngine::database(&engine);

    let (batch_size, pipelined, checkpoint_every) = (256, true, Some(32));
    let scfg = ServerConfig { batch_size, pipelined, checkpoint_every, ..ServerConfig::default() };
    let server: LtpgServer = LtpgServer::new(db.deep_clone(), cfg, scfg);
    let st = server.stats();
    let _: (u64, u64, u64, f64) = (st.batches, st.committed, st.abort_events, st.sim_ns);
    let _: &Arc<Registry> = server.telemetry();
    let _: &Database = server.database();
    let _: bool = server.is_degraded();

    let mut durability: DurabilityManager = DurabilityManager::new(&db);
    let _: u64 = durability.log_batch(batch);
    // The ledger times it as `median_ms(|| durability.checkpoint(&db))`
    // with `median_ms(f: impl FnMut())`: it must keep returning `()`.
    fn takes(_: impl FnMut()) {}
    takes(|| durability.checkpoint(&db));
    let _: u64 = durability.log_bytes();
}

fn front_items<S: TickSink + BatchCount>(server: S, txn: Txn) {
    let mut fleet: Fleet =
        Fleet::new(FleetConfig { clients: 2_000, offered_tps: 32e6, skew: 1.1, seed: 42 });
    let arrival = fleet.schedule(1).remove(0);
    let mut cfg: FrontConfig = FrontConfig::new(256, 100_000);
    cfg.client_queue_cap = 64;
    cfg.max_queued = 4_096;
    cfg.max_backlog_ns = 800_000;
    cfg.queue_timeout_ns = Some(1_600_000);
    let mut fe: FrontEnd<Wrapped<S>> = FrontEnd::new(Wrapped(server), cfg);
    let _: bool = fe.offer(arrival.client, arrival.at_ns, txn);
    fe.finish(16);
    let stats: FrontStats = fe.stats().clone();
    let _: [u64; 4] = [stats.submitted, stats.committed, stats.batches_sealed, stats.seals_deadline];
    let _: [u64; 2] = [stats.shed_rate_limited, stats.shed_backpressure];
    let _: [u64; 4] = [stats.shed_queue_full, stats.shed_timed_out, stats.shed(), fe.seal_digest()];
    let _: &Arc<Registry> = fe.telemetry();
    let _: (bool, usize) = (fe.conserves(), fe.pending());
    let _: u64 = fe.sink().0.batches_executed();
}

fn shard_and_replica_items(db: Database, table: TableId, wl: &YcsbConfig, txn: &Txn) {
    let scfg = ServerConfig { batch_size: 2_048, pipelined: false, ..ServerConfig::default() };
    let mut server: ShardedServer =
        ShardedServer::new(db, ycsb_partitioner(4, table, wl), LtpgConfig::default(), scfg);
    server.attach_replicas(&ReplicaConfig { standbys: 1, ..ReplicaConfig::default() });
    let st: &ShardedStats = server.stats();
    let _: (u64, u64, u64, f64) = (st.batches, st.committed, st.abort_events, st.sim_ns);
    let _: [u64; 4] = [st.single_shard_txns, st.cross_shard_txns, st.broadcast_txns, st.failovers];
    let _: f64 = st.merge_stall_ns;
    let _: &Arc<Registry> = server.telemetry();
    let shards: u32 = server.shard_count();
    let _: &Arc<Registry> = server.shard_telemetry(shards - 1);
    let _: &Database = server.database(0);
    let _: bool = server.is_degraded(0);
    let _: usize = server.standbys_alive();

    let router: Router = Router::new(ycsb_partitioner(4, table, wl));
    let _: Route = router.route(txn);
}

/// Both servers go where the ledger puts them.
fn both_servers_feed_a_front_end(a: LtpgServer, b: ShardedServer, txn: Txn) {
    front_items(a, txn.clone());
    front_items(b, txn);
}

#[test]
fn the_frozen_api_type_checks() {
    let _ = (ltpg_items, shard_and_replica_items, both_servers_feed_a_front_end);
}
