//! A log that checkpoints shorten.
//!
//! Once a joint checkpoint commits, the server retires every shard's WAL
//! frames below one watermark: the checkpoint id, lowered to the cursor of
//! the slowest alive standby row. No reader starts below it — crash
//! recovery and a degradation rebuild replay from the checkpoint, a
//! promotion from the row's cursor — so the log holds one window of frames
//! instead of every batch since start-up.
//!
//! Two servers run four times the perf ledger's batch count of their fleet
//! workload (`fleet_server_ycsb` logs ≈703 batches, `fleet_sharded_ycsb`
//! 171), beside a twin that never checkpoints and so never retires. At
//! every tick the resident image holds no more than the frames at or
//! above the watermark, and the cumulative byte count equals the twin's.
//! Recovery replays exactly the frames since the checkpoint and lands on
//! the live state.

use ltpg::{DurabilityManager, LtpgConfig, LtpgServer, Server, ServerConfig, Topology};
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{ycsb_partitioner, ShardedServer};
use ltpg_storage::Database;
use ltpg_telemetry::names;
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};

const BATCH: usize = 16;
const CHECKPOINT_EVERY: usize = 8;

fn ycsb(shards: u32) -> YcsbConfig {
    let cfg = YcsbConfig::new(YcsbWorkload::A, 4_096).with_alpha(0.6).with_seed(0x10_95);
    if shards > 1 {
        cfg.with_partitions(shards, 10)
    } else {
        cfg
    }
}

fn server_cfg(checkpoint_every: Option<usize>) -> ServerConfig {
    ServerConfig {
        batch_size: BATCH,
        pipelined: false,
        checkpoint_every,
        ..ServerConfig::default()
    }
}

/// Bytes of the frames of `dur` at or above `watermark`, every one of which
/// the image must still hold.
fn held_bytes(dur: &DurabilityManager, watermark: u64) -> usize {
    (watermark as usize..dur.logged_batches())
        .map(|i| dur.log().frame(i).unwrap_or_else(|| panic!("frame {i} was retired")).bytes.len())
        .sum()
}

/// One tick's checks: every shard's image holds at most the frames at or
/// above the watermark (the checkpoint id: a fault-free run ships every
/// row to the tail before it checkpoints), its cumulative bytes are the
/// twin's, and `wal.resident_bytes` says what the images hold.
fn check_tick<T: Topology>(server: &Server<T>, twin: &Server<T>) {
    let (logs, twin_logs) = (&server.shards().durability, &twin.shards().durability);
    let watermark = logs[0].checkpoint_batch();
    for (s, (dur, reference)) in logs.iter().zip(twin_logs).enumerate() {
        let log = dur.log();
        assert_eq!(log.first_retained() as u64, watermark, "shard {s}");
        assert!(
            log.disk_len() <= held_bytes(dur, watermark),
            "shard {s}: {} bytes",
            log.disk_len()
        );
        assert_eq!(dur.log_bytes(), reference.log_bytes(), "shard {s}: every frame is counted");
        assert_eq!(
            reference.log().disk_len() as u64,
            reference.log_bytes(),
            "the twin keeps them all"
        );
    }
    if logs[0].logged_batches() as u64 == watermark {
        let resident: usize = logs.iter().map(|dur| dur.log().disk_len()).sum();
        let gauge = server.telemetry().gauge_value(names::WAL_RESIDENT_BYTES);
        assert_eq!(gauge as usize, resident, "the gauge is set by the checkpoint's retirement");
    }
}

/// Crash recovery from `server`'s logs: it replays exactly the frames since
/// the checkpoint and rebuilds every slice as it is live.
fn check_recovery<T: Topology>(server: &Server<T>, live: &[&Database]) {
    let logs = &server.shards().durability;
    let (dbs, stats) = ltpg::recover(logs, &LtpgConfig::default(), &server.topology().replayer())
        .expect("an undamaged log recovers");
    let (logged, checkpoint) = (logs[0].logged_batches() as u64, logs[0].checkpoint_batch());
    assert_eq!(stats.frames_replayed, logged - checkpoint);
    for (s, db) in dbs.iter().enumerate() {
        assert_eq!(db.state_digest(), live[s].state_digest(), "shard {s}");
    }
}

/// `ticks` executed batches of fresh work on `server` and its twin, with the
/// per-tick checks, recovering every 256 batches and at the end.
fn run<T: Topology>(
    server: &mut Server<T>,
    twin: &mut Server<T>,
    gen: &mut YcsbGenerator,
    ticks: u64,
    live: impl Fn(&Server<T>) -> Vec<&Database>,
) {
    while server.stats().batches < ticks {
        let fresh = gen.gen_batch(BATCH);
        server.submit_all(fresh.iter().cloned());
        twin.submit_all(fresh);
        let (a, b) = (server.tick(), twin.tick());
        assert_eq!(a.map(|s| s.flag_words), b.map(|s| s.flag_words), "the twins diverged");
        check_tick(server, twin);
        if server.stats().batches.is_multiple_of(256) {
            check_recovery(server, &live(server));
        }
    }
    check_recovery(server, &live(server));
    let resident: usize = server.shards().durability.iter().map(|dur| dur.log().disk_len()).sum();
    let logged: u64 = server.shards().durability.iter().map(DurabilityManager::log_bytes).sum();
    assert!(resident as u64 * 16 < logged, "{resident} of {logged} bytes resident");
    assert!(server.summary().contains("wal resident"), "{}", server.summary());
}

#[test]
fn a_one_device_log_holds_one_window_of_frames() {
    let (db, _table, mut gen) = YcsbGenerator::new(ycsb(1));
    let mut server =
        LtpgServer::new(db.deep_clone(), LtpgConfig::default(), server_cfg(Some(CHECKPOINT_EVERY)));
    let mut twin = LtpgServer::new(db, LtpgConfig::default(), server_cfg(None));
    run(&mut server, &mut twin, &mut gen, 4 * 703, |s| vec![s.database()]);
}

#[test]
fn a_four_shard_log_with_a_standby_row_holds_one_window_of_frames() {
    let wl = ycsb(4);
    let (db, table, mut gen) = YcsbGenerator::new(wl.clone());
    let part = ycsb_partitioner(4, table, &wl);
    let cfg = LtpgConfig::default();
    let mut server = ShardedServer::new(
        db.deep_clone(),
        part.clone(),
        cfg.clone(),
        server_cfg(Some(CHECKPOINT_EVERY)),
    );
    server.attach_replicas(&ReplicaConfig { standbys: 1, ..ReplicaConfig::default() });
    let mut twin = ShardedServer::new(db, part, cfg, server_cfg(None));
    run(&mut *server, &mut *twin, &mut gen, 4 * 171, |s| {
        s.shards().execs.iter().map(|e| e.database()).collect()
    });
    assert_eq!(server.standbys_alive(), 1);
}
