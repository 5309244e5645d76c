//! Peak resident set of a ledger-length one-device fleet run.
//!
//! The `fleet_server_ycsb` shape without the front-end (1 M YCSB rows at
//! Zipf 0.4, batches of 256, pipelined, a checkpoint every 32 batches)
//! served for 704 batches. The live database is 38.1 MiB of cells and keys
//! and a 64 MiB primary index. A checkpoint image that copied the index
//! slot for slot was as large again, and the run peaked at 212 MB; an image
//! of the rows alone holds 38.1 MiB, and the run reads ≈148 MB (on a 2-vCPU
//! x86-64 VM, release build). The run's `VmHWM` is the guard.
//!
//! The one test is `#[ignore]`d (a release build takes seconds, a debug
//! one much longer) and alone in its target, so the peak it reads is its
//! own process's:
//!
//! ```text
//! cargo test --release -p ltpg-bench --test server_peak -- --ignored
//! ```

mod common;

use common::peak_rss_mb;
use ltpg::{LtpgConfig, LtpgServer, ServerConfig};
use ltpg_telemetry::names;
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};

const BATCH: usize = 256;
const CHECKPOINT_EVERY: usize = 32;
const BATCHES: u64 = 704;

#[test]
#[ignore = "release-only memory guard: run with --release -- --ignored"]
fn a_ledger_length_server_run_peaks_under_180_mb() {
    let wl = YcsbConfig::new(YcsbWorkload::A, 1_000_000).with_alpha(0.4).with_seed(1);
    let (db, _table, mut gen) = YcsbGenerator::new(wl);
    let scfg = ServerConfig {
        batch_size: BATCH,
        pipelined: true,
        checkpoint_every: Some(CHECKPOINT_EVERY),
        ..ServerConfig::default()
    };
    let mut server = LtpgServer::new(db, LtpgConfig::default(), scfg);
    while server.stats().batches < BATCHES {
        server.submit_all(gen.gen_batch(BATCH));
        server.tick();
    }
    let reg = server.telemetry();
    let checkpoints = reg.counter_value(names::SERVER_CHECKPOINTS);
    assert!(checkpoints >= BATCHES / CHECKPOINT_EVERY as u64 - 1, "{checkpoints} checkpoints");
    assert_eq!(reg.counter_value(names::DURABILITY_CHECKPOINT_FULL_IMAGES), 0);
    let image = reg.gauge_value(names::DURABILITY_IMAGE_RESIDENT_BYTES) as f64 / (1 << 20) as f64;
    let peak = peak_rss_mb();
    println!("fleet_server_ycsb, {BATCHES} batches: VmHWM {peak:.1} MB, image {image:.1} MiB");
    assert!(peak < 180.0, "the run peaked at {peak:.1} MB");
}
