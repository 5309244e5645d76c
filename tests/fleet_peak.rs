//! Peak resident set of a ledger-length sharded fleet run.
//!
//! The `fleet_sharded_ycsb` shape (1 M YCSB rows, 4 shards at 10 %
//! cross-shard picks, batch 2 048, a checkpoint every 16 batches, one
//! standby row) served for the ledger's 171 batches. Each shard's WAL frame
//! is ≈96 KB; a log that kept every batch since start-up held ≈83 MB over
//! the four shards by the end and the run peaked at 327–351 MB. A log that
//! checkpoints shorten holds under one period of frames per shard: the run
//! read ≈259 MB, and ≈222 MB once checkpoint images held the rows alone (on
//! a 2-vCPU x86-64 VM, release build). The run's `VmHWM` is the guard.
//!
//! The one test is `#[ignore]`d (a release build takes seconds, a debug
//! one much longer) and alone in its target, so the peak it reads is its
//! own process's:
//!
//! ```text
//! cargo test --release -p ltpg-bench --test fleet_peak -- --ignored
//! ```

mod common;

use common::peak_rss_mb;
use ltpg::{LtpgConfig, ServerConfig};
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{ycsb_partitioner, ShardedServer};
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};

const BATCH: usize = 2_048;
const CHECKPOINT_EVERY: usize = 16;
const TICKS: u64 = 171;

#[test]
#[ignore = "release-only memory guard: run with --release -- --ignored"]
fn a_ledger_length_sharded_fleet_run_peaks_under_300_mb() {
    let wl = YcsbConfig::new(YcsbWorkload::A, 1_000_000)
        .with_alpha(0.4)
        .with_seed(1)
        .with_partitions(4, 10);
    let (db, table, mut gen) = YcsbGenerator::new(wl.clone());
    let scfg = ServerConfig {
        batch_size: BATCH,
        pipelined: false,
        checkpoint_every: Some(CHECKPOINT_EVERY),
        ..ServerConfig::default()
    };
    let mut server =
        ShardedServer::new(db, ycsb_partitioner(4, table, &wl), LtpgConfig::default(), scfg);
    server.attach_replicas(&ReplicaConfig { standbys: 1, ..ReplicaConfig::default() });
    while server.stats().batches < TICKS {
        server.submit_all(gen.gen_batch(BATCH));
        server.tick().expect("work is queued");
    }
    assert_eq!(server.standbys_alive(), 1);
    for (s, dur) in server.shards().durability.iter().enumerate() {
        let log = dur.log();
        let (first, logged) = (log.first_retained(), dur.logged_batches());
        let window: usize =
            (first..logged).map(|i| log.frame(i).expect("a retained frame").bytes.len()).sum();
        println!(
            "shard {s}: {} resident bytes, frames {first}..{logged}, {} bytes logged",
            log.disk_len(),
            dur.log_bytes()
        );
        assert!(logged - first < CHECKPOINT_EVERY, "shard {s} holds frames {first}..{logged}");
        assert_eq!(log.disk_len(), window, "shard {s}: the image is its retained frames");
    }
    let peak = peak_rss_mb();
    println!("fleet_sharded_ycsb, {TICKS} batches: VmHWM {peak:.1} MB");
    assert!(peak < 300.0, "the run peaked at {peak:.1} MB");
}
