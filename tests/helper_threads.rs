//! Live pre-pass helper threads of a sharded server.
//!
//! Each `gpu_sim::Device` keeps the helper threads its launches post
//! pre-passes to (`Device::launch_with_pre`), from its first launch that
//! asks for them until it is dropped. A server with S shards has S
//! devices, so it holds S × (P − 1) helpers, P being the device's
//! `parallel_host_threads`, all parked between launches. This pins that
//! count on the operating system's own thread list and that dropping the
//! server joins every one of them.
//!
//! The one test is alone in its target, so every helper thread it sees is
//! its own. It reads `/proc/self/task/*/comm` and says so and passes where
//! that does not exist.

use ltpg::{Executor, LtpgConfig, ServerConfig};
use ltpg_shard::{ycsb_partitioner, ShardedServer};
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};

/// Threads of this process named like a device's pre-pass helpers, or
/// `None` where the process's thread list cannot be read.
fn helper_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|name| name.trim() == "gpu-sim-helper")
            .count(),
    )
}

/// The process's resident set in MB of 1 024 kB (`VmRSS`).
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|l| l.strip_prefix("VmRSS:")).map_or(0.0, |v| {
        v.trim().trim_end_matches("kB").trim().parse::<f64>().unwrap_or(0.0)
    });
    kb / 1_024.0
}

#[test]
fn a_sharded_server_keeps_p_minus_one_helpers_per_shard_until_dropped() {
    const SHARDS: u32 = 4;
    const THREADS: usize = 3;
    const BATCH: usize = 1_024;
    let Some(before) = helper_threads() else {
        println!("skipped: /proc/self/task is not readable here");
        return;
    };
    assert_eq!(before, 0, "helpers before any device launched");
    let wl = YcsbConfig::new(YcsbWorkload::A, 65_536)
        .with_seed(0x5e_17)
        .with_alpha(0.8)
        .with_partitions(SHARDS, 10);
    let (db, table, mut gen) = YcsbGenerator::new(wl.clone());
    let mut cfg = LtpgConfig { max_batch: BATCH, ..LtpgConfig::default() };
    cfg.device.parallel_host_threads = THREADS;
    let mut server = ShardedServer::new(
        db,
        ycsb_partitioner(SHARDS, table, &wl),
        cfg,
        ServerConfig { batch_size: BATCH, pipelined: false, ..ServerConfig::default() },
    );
    let rss_built = rss_mb();
    server.submit_all(gen.gen_batch(BATCH * 4));
    for _ in 0..4 {
        assert!(server.tick().is_some());
    }
    let helped: u64 = server
        .shards()
        .execs
        .iter()
        .map(|e| match e {
            Executor::Gpu(engine) => engine.device().stats().helper_lanes,
            _ => 0,
        })
        .sum();
    let live = helper_threads().expect("the thread list was readable a moment ago");
    println!(
        "{SHARDS} shards at {THREADS} host threads: {live} helper threads alive, {helped} lanes from \
         them; VmRSS {rss_built:.1} MB built, {:.1} MB after 4 ticks",
        rss_mb()
    );
    // Every shard's sub-batch spans more warps than it has helpers, so
    // each device started all P − 1 of its own.
    assert_eq!(live, SHARDS as usize * (THREADS - 1));
    drop(server);
    assert_eq!(helper_threads(), Some(0), "a dropped server left helpers running");
}
