//! Criterion micro-bench: the conflict log's registration and detection
//! paths, standard-sized vs large-sized buckets, cold vs hot keys. This
//! measures *host wall-clock* of the actual data structure (the simulated
//! latencies are Table VII's subject). The 8 192-bucket cases never leave
//! L2; the `dram_su1` cases run on a log of the size the engine really
//! builds (2 M buckets, 128 MB), where what an access costs is how many
//! cache lines of the log it touches.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ltpg::conflict::TableLog;
use ltpg_gpu_sim::{Device, DeviceConfig};

fn bench_register(c: &mut Criterion) {
    let device = Device::new(DeviceConfig::default());
    let mut group = c.benchmark_group("conflict_log/register_4096");
    for (label, s_u, hot) in
        [("spread_su1", 1usize, false), ("hot_su1", 1, true), ("hot_su32", 32, true)]
    {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut epoch = 1u32;
            b.iter(|| {
                let log = TableLog::new(1 << 13, s_u);
                device.launch_indexed("reg", 4_096, |lane| {
                    let key = if hot { 7 } else { lane.global_id as i64 };
                    let _ = log.register_write(lane, black_box(key), lane.global_id as u64 + 1, epoch);
                });
                epoch += 1;
                black_box(&log);
            });
        });
    }
    group.finish();
}

fn bench_detect(c: &mut Criterion) {
    let device = Device::new(DeviceConfig::default());
    let mut group = c.benchmark_group("conflict_log/min_write_4096");
    for (label, s_u) in [("su1", 1usize), ("su32", 32)] {
        let log = TableLog::new(1 << 13, s_u);
        device.launch_indexed("seed", 4_096, |lane| {
            let _ = log.register_write(lane, (lane.global_id % 512) as i64, lane.global_id as u64 + 1, 1);
        });
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                device.launch_indexed("probe", 4_096, |lane| {
                    let m = log.min_write(lane, (lane.global_id % 512) as i64, 1);
                    black_box(m);
                });
            });
        });
    }
    group.finish();
}

/// A DRAM-sized standard-bucket log: each iteration registers 4 096 keys
/// it has not touched for many epochs, or probes 4 096 of the million
/// keys registered up front (every probe a hit, so tag, mark and slot are
/// all read).
fn bench_dram(c: &mut Criterion) {
    const REGISTERED: usize = 1 << 20;
    let device = Device::new(DeviceConfig::default());
    let log = TableLog::new(1 << 21, 1);
    let mut group = c.benchmark_group("conflict_log/dram_su1");
    let mut epoch = 1u32;
    group.bench_function(BenchmarkId::from_parameter("register_4096"), |b| {
        b.iter(|| {
            epoch += 1;
            let base = i64::from(epoch) * 4_096;
            device.launch_indexed("reg", 4_096, |lane| {
                let key = base + lane.global_id as i64;
                let _ = log.register_write(lane, black_box(key), lane.global_id as u64 + 1, epoch);
            });
        });
    });
    epoch += 1;
    device.launch_indexed("seed", REGISTERED, |lane| {
        let _ = log.register_write(lane, lane.global_id as i64, lane.global_id as u64 + 1, epoch);
    });
    let mut round = 0usize;
    group.bench_function(BenchmarkId::from_parameter("min_write_4096"), |b| {
        b.iter(|| {
            round += 1;
            let base = round * 4_096;
            device.launch_indexed("probe", 4_096, |lane| {
                let key = ((base + lane.global_id) % REGISTERED) as i64;
                black_box(log.min_write(lane, key, epoch));
            });
        });
    });
    group.finish();
}

criterion_group!(benches, bench_register, bench_detect, bench_dram);
criterion_main!(benches);
