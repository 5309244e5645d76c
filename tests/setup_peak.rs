//! Peak resident set of the sharded fleet's set-up.
//!
//! A 4-shard server over 1 M YCSB rows with one standby row holds sixteen
//! copies of a quarter of the table at once (live slices, checkpoint
//! images, standby databases and the images they are spawned from). Each
//! copy must cost what its rows do, not what the table's schema capacity
//! would: its primary index is sized for the slice and the cell and key
//! tails past its rows are never touched. The set-up's `VmHWM` is the
//! guard.
//!
//! The one test is `#[ignore]`d (a release build takes seconds, a debug
//! one much longer) and alone in its target, so the peak it reads is its
//! own process's:
//!
//! ```text
//! cargo test --release -p ltpg-bench --test setup_peak -- --ignored
//! ```

mod common;

use common::peak_rss_mb;
use ltpg::{LtpgConfig, ServerConfig};
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{ycsb_partitioner, ShardedServer};
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};

/// The `fleet_sharded_ycsb` set-up (1 M rows, 4 shards at 10 % cross-shard
/// picks, batch 2 048, a checkpoint every 16 batches, one standby row)
/// peaks under 700 MB. On a 2-vCPU x86-64 VM (release build) it read
/// 1 431 MB when every copy carried an index for the whole table's capacity
/// and a slice wrote its cell and key tails, ≈254 MB with copies sized to
/// their slices, and ≈222 MB with checkpoint images of the rows alone.
#[test]
#[ignore = "release-only memory guard: run with --release -- --ignored"]
fn the_sharded_fleet_set_up_peaks_under_700_mb() {
    let wl = YcsbConfig::new(YcsbWorkload::A, 1_000_000)
        .with_alpha(0.4)
        .with_seed(1)
        .with_partitions(4, 10);
    let (db, table, _gen) = YcsbGenerator::new(wl.clone());
    let scfg = ServerConfig {
        batch_size: 2_048,
        pipelined: false,
        checkpoint_every: Some(16),
        ..ServerConfig::default()
    };
    let mut server =
        ShardedServer::new(db, ycsb_partitioner(4, table, &wl), LtpgConfig::default(), scfg);
    server.attach_replicas(&ReplicaConfig { standbys: 1, ..ReplicaConfig::default() });
    for s in 0..4 {
        let slice = server.database(s).table(table);
        assert_eq!((slice.live_rows(), slice.index_slots()), (250_000, 524_288));
    }
    let peak = peak_rss_mb();
    println!("fleet_sharded_ycsb set-up: VmHWM {peak:.1} MB");
    assert!(peak < 700.0, "set-up peaked at {peak:.1} MB");
}
