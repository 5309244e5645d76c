//! Criterion micro-bench: the conflict log's registration and detection
//! paths, standard-sized vs large-sized buckets, cold vs hot keys. This
//! measures *host wall-clock* of the actual data structure (the simulated
//! latencies are Table VII's subject). A log stores only the buckets an
//! epoch claims, so what an access costs is how many cache lines of that
//! table it touches and whether they are cached. The 8 192-bucket cases
//! never leave L2. `engine_su1` is shaped like the engine's YCSB row log:
//! 2²⁰ modelled buckets, 40 000 claims per epoch, a table of ≈5 MB.
//! `dram_su1` is the worst case: 1 M claims of a 2 M-bucket log, a table as
//! large as the whole modelled log (128 MB), far out of cache.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ltpg::conflict::TableLog;
use ltpg_gpu_sim::{Device, DeviceConfig};

fn bench_register(c: &mut Criterion) {
    let mut device = Device::new(DeviceConfig::default());
    let mut group = c.benchmark_group("conflict_log/register_4096");
    for (label, s_u, hot) in
        [("spread_su1", 1usize, false), ("hot_su1", 1, true), ("hot_su32", 32, true)]
    {
        // One log across epochs, settled between them as the engine does.
        let mut log = TableLog::new(1 << 13, s_u);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut epoch = 1u32;
            b.iter(|| {
                device.launch_indexed("reg", 4_096, |lane| {
                    let key = if hot { 7 } else { lane.global_id as i64 };
                    let _ = log.register_write(lane, black_box(key), lane.global_id as u64 + 1, epoch);
                });
                epoch += 1;
                log.settle();
            });
        });
    }
    group.finish();
}

fn bench_detect(c: &mut Criterion) {
    let mut device = Device::new(DeviceConfig::default());
    let mut group = c.benchmark_group("conflict_log/min_write_4096");
    for (label, s_u) in [("su1", 1usize), ("su32", 32)] {
        let mut log = TableLog::new(1 << 13, s_u);
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

/// A log shaped like the engine's YCSB row log: each `register` iteration
/// is one epoch claiming 40 000 fresh keys, settled as `begin_batch` does;
/// `min_write` probes 40 000 keys registered up front (every probe a hit).
fn bench_engine_shaped(c: &mut Criterion) {
    const CLAIMS: usize = 40_000;
    let mut device = Device::new(DeviceConfig::default());
    let mut log = TableLog::new(1 << 20, 1).with_ballot_probe(32);
    let mut group = c.benchmark_group("conflict_log/engine_su1");
    let mut epoch = 0u32;
    let epoch_of_claims = |device: &mut Device, log: &mut TableLog, epoch: u32| {
        let base = i64::from(epoch) * CLAIMS as i64;
        device.launch_indexed("reg", CLAIMS, |lane| {
            let key = base + lane.global_id as i64;
            let _ = log.register_write(lane, black_box(key), lane.global_id as u64 + 1, epoch);
        });
    };
    group.bench_function(BenchmarkId::from_parameter("register_40000"), |b| {
        b.iter(|| {
            epoch += 1;
            epoch_of_claims(&mut device, &mut log, epoch);
            log.settle();
        });
    });
    epoch += 1;
    epoch_of_claims(&mut device, &mut log, epoch);
    group.bench_function(BenchmarkId::from_parameter("min_write_40000"), |b| {
        let base = i64::from(epoch) * CLAIMS as i64;
        b.iter(|| {
            device.launch_indexed("probe", CLAIMS, |lane| {
                black_box(log.min_write(lane, base + lane.global_id as i64, epoch));
            });
        });
    });
    group.finish();
}

/// The worst case: 1 M claims of a 2 M-bucket standard log, so the table
/// holding them is as large as the modelled log. Each `register` iteration
/// claims 4 096 keys no earlier epoch touched; `min_write` probes 4 096 of
/// the million keys registered up front (every probe a hit, so tag, mark
/// and slot are all read).
fn bench_dram(c: &mut Criterion) {
    const REGISTERED: usize = 1 << 20;
    let mut device = Device::new(DeviceConfig::default());
    let mut log = TableLog::new(1 << 21, 1);
    let seed = |device: &mut Device, log: &mut TableLog, epoch: u32| {
        device.launch_indexed("seed", REGISTERED, |lane| {
            let id = lane.global_id;
            let _ = log.register_write(lane, id as i64, id as u64 + 1, epoch);
        });
    };
    // A first epoch of a million claims grows the table to hold them.
    seed(&mut device, &mut log, 1);
    log.settle();
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
            log.settle();
        });
    });
    epoch += 1;
    seed(&mut device, &mut log, epoch);
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

criterion_group!(benches, bench_register, bench_detect, bench_engine_shaped, bench_dram);
criterion_main!(benches);
