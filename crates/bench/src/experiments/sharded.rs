//! The `ShardedServer` sweeps on partitioned YCSB-A: shard scaling,
//! failover under primary loss, and mid-run rebalance.

use ltpg::{LtpgConfig, ReplicaChaos, ServerConfig};
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{ycsb_partitioner, Partitioner, RebalanceOp, RebalancePlan, ShardedServer};
use ltpg_storage::Database;
use ltpg_telemetry::names;
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};

use crate::record::{ensure, row, Record, Scale};

/// `(records, batch size, batches)` of a sweep: seconds-long at `--smoke`.
fn sizes(scale: Scale) -> (u64, usize, usize) {
    if scale == Scale::Smoke {
        (8_192, 512, 4)
    } else {
        (65_536, 4_096, 10)
    }
}

fn server(db: Database, part: Partitioner, batch_size: usize) -> ShardedServer {
    let cfg = ServerConfig { batch_size, pipelined: false, ..ServerConfig::default() };
    ShardedServer::new(db, part, LtpgConfig::default(), cfg)
}

/// Throughput in 10⁶ TXs/s of simulated time.
fn mtps(committed: u64, sim_ns: f64) -> f64 {
    if sim_ns > 0.0 {
        committed as f64 * 1e3 / sim_ns
    } else {
        0.0
    }
}

/// **Shard scaling** — sharded-LTPG throughput as the device count grows.
///
/// Sweeps 1/2/4/8 simulated GPUs × {0 %, 10 %, 50 %} cross-shard
/// transactions × {low, high} contention on partitioned YCSB-A. Each
/// configuration drives a [`ShardedServer`] over a range-partitioned
/// usertable (partition *i* owns one contiguous key range; cross-shard
/// transactions pair a local read with a remote-partition write) and
/// reports simulated throughput plus the speedup over the single-device
/// run of the same contention level.
///
/// Expected shape: near-linear scaling at 0 % cross-shard (each shard's
/// sub-batch shrinks by 1/N, and sub-batches execute concurrently — the
/// tick critical path is the slowest shard), degrading as the cross-shard
/// fraction grows (participants replicate execution work and stall on the
/// merge barrier).
pub fn shard_scaling(scale: Scale) -> Record {
    let (shard_counts, cross_pcts): (&[u32], &[u32]) =
        if scale == Scale::Smoke { (&[1, 2], &[0, 10]) } else { (&[1, 2, 4, 8], &[0, 10, 50]) };
    let (records, batch, batches) = sizes(scale);
    let mut rec = Record::new(
        "shard_scaling",
        scale,
        "Shard scaling — YCSB-A throughput vs simulated device count",
        SHARD_SCALING_COLUMNS,
    );
    // α = 0.4 keeps the key draw near-uniform (low contention); α = 2.5 is
    // the paper's high-contention YCSB setting.
    for (label, alpha) in [("low", 0.4), ("high", 2.5)] {
        let mut base_mtps = 0.0_f64;
        for &n in shard_counts {
            // A single device has no cross-shard traffic; emit one baseline
            // row per contention level instead of a degenerate pct sweep.
            let pcts: &[u32] = if n == 1 { &[0] } else { cross_pcts };
            for &pct in pcts {
                let cfg = YcsbConfig::new(YcsbWorkload::A, records)
                    .with_alpha(alpha)
                    .with_seed(0x5ca1_ab1e)
                    .with_partitions(n, pct);
                let (db, table, mut gen) = YcsbGenerator::new(cfg.clone());
                let mut server = server(db, ycsb_partitioner(n, table, &cfg), batch);
                server.submit_all(gen.gen_batch(batch * batches));
                let stats = server.drain(batches + 32);
                let mtps = mtps(stats.committed, stats.sim_ns);
                if n == 1 {
                    base_mtps = mtps;
                }
                rec.push(row![
                    n,
                    pct,
                    label,
                    alpha,
                    stats.committed,
                    stats.admitted,
                    stats.batches,
                    stats.cross_shard_fraction(),
                    stats.merge_stall_ns / 1e6,
                    stats.sim_ns / 1e6,
                    mtps,
                    if base_mtps > 0.0 { mtps / base_mtps } else { 0.0 }
                ]);
            }
        }
    }
    rec
}

const SHARD_SCALING_COLUMNS: &str = "shards cross_shard_pct contention zipf_alpha committed \
    admitted batches cross_shard_fraction merge_stall_ms sim_ms mtps speedup_vs_1";

/// What the `shard` CI job holds a shard_scaling record to.
pub fn check_shard_scaling(rec: &Record) -> Result<(), String> {
    rec.require_columns(SHARD_SCALING_COLUMNS)?;
    let (mut baselines, mut crossed) = (0, 0);
    for r in rec.rows() {
        ensure!(r.num("committed")? > 0.0 && r.num("mtps")? > 0.0, "a point did no work");
        if r.num("shards")? == 1.0 {
            baselines += 1;
            ensure!(r.num("speedup_vs_1")? == 1.0, "a 1-shard row is not its own baseline");
        }
        if r.num("cross_shard_pct")? > 0.0 {
            crossed += 1;
            ensure!(r.num("cross_shard_fraction")? > 0.0, "cross-shard knob had no effect");
        }
    }
    ensure!(baselines > 0 && crossed > 0, "sweep lacks a 1-shard baseline or a cross-shard point");
    Ok(())
}

/// What one failover run observed.
struct FailoverRun {
    committed: u64,
    batches: u64,
    failovers: u64,
    degraded_shards: u32,
    failover_ns_p50: u64,
    failover_ns_max: u64,
    catchup_batches: u64,
    lag_batches_p95: u64,
    mtps: f64,
}

fn failover_run(
    shards: u32,
    standbys: usize,
    (records, batch, batches): (u64, usize, usize),
    kill_at_tick: Option<usize>,
) -> FailoverRun {
    let cfg = YcsbConfig::new(YcsbWorkload::A, records)
        .with_alpha(0.4)
        .with_seed(0xfa11_0e72)
        .with_partitions(shards, FAILOVER_CROSS_PCT);
    let (db, table, mut gen) = YcsbGenerator::new(cfg.clone());
    let mut server = server(db, ycsb_partitioner(shards, table, &cfg), batch);
    if standbys > 0 {
        server.attach_replicas(&ReplicaConfig { standbys, ..ReplicaConfig::default() });
        // Hold the standby two batches behind the logged tail. A
        // continuously tailing standby makes promotion a free pointer
        // swap; the held-back row forces the promotion to pay a real
        // catch-up replay, which is the latency this experiment measures.
        server
            .arm_replica_chaos(ReplicaChaos { standby_lag: Some((0, 2)), ..ReplicaChaos::none() });
    }
    server.submit_all(gen.gen_batch(batch * batches));
    for tick in 0..(batches + 32) * 12 {
        if Some(tick) == kill_at_tick {
            server.force_shard_failure(1);
        }
        if server.tick().is_none() && server.pending() == 0 {
            break;
        }
    }
    let stats = server.stats();
    let reg = server.telemetry();
    let failover = reg.histogram(names::REPLICA_FAILOVER_NS).snapshot();
    FailoverRun {
        committed: stats.committed,
        batches: stats.batches,
        failovers: stats.failovers,
        degraded_shards: stats.degraded_shards,
        failover_ns_p50: failover.p50,
        failover_ns_max: failover.max,
        catchup_batches: reg.counter_value(names::REPLICA_CATCHUP_BATCHES),
        lag_batches_p95: reg.histogram(names::REPLICA_LAG_BATCHES).snapshot().p95,
        mtps: mtps(stats.committed, stats.sim_ns),
    }
}

const FAILOVER_CROSS_PCT: u32 = 10;

/// **Failover** — failover latency and throughput under primary loss.
///
/// For each shard count the experiment runs partitioned YCSB-A twice over
/// the identical stream: once fault-free, and once with a warm standby pool
/// ([`ShardedServer::attach_replicas`]) where shard 1's primary device is
/// killed mid-run. The heartbeat monitor fences the dead primary at the
/// next batch boundary and promotes the standby row, so the second run
/// commits the exact same history — the interesting outputs are the
/// *costs*: failover latency (the `replica.failover_ns` histogram, i.e.
/// simulated device time spent on catch-up replay inside the promotion),
/// catch-up volume, standby lag, and the throughput retained relative to
/// the fault-free run (`retention`: 1.0 = the failover was free).
pub fn failover(scale: Scale) -> Record {
    let shard_counts: &[u32] = if scale == Scale::Smoke { &[2] } else { &[2, 4, 8] };
    let mut rec = Record::new(
        "failover",
        scale,
        "Failover — latency and throughput under mid-run primary loss",
        FAILOVER_COLUMNS,
    );
    for &n in shard_counts {
        let clean = failover_run(n, 0, sizes(scale), None);
        // Kill after two ticks: late enough that the standby row carries
        // real catch-up lag, early enough that most of the run executes
        // on the promoted topology.
        let faulted = failover_run(n, 1, sizes(scale), Some(2));
        assert_eq!(faulted.failovers, 1, "{n}-shard run must fail over exactly once");
        assert_eq!(faulted.degraded_shards, 0, "failover must not degrade to the CPU fallback");
        assert_eq!(
            faulted.committed, clean.committed,
            "{n}-shard failover changed the committed count"
        );
        rec.push(row![
            n,
            1usize,
            FAILOVER_CROSS_PCT,
            faulted.committed,
            faulted.batches,
            faulted.failovers,
            faulted.degraded_shards,
            faulted.failover_ns_p50,
            faulted.failover_ns_max,
            faulted.catchup_batches,
            faulted.lag_batches_p95,
            clean.mtps,
            faulted.mtps,
            if clean.mtps > 0.0 { faulted.mtps / clean.mtps } else { 0.0 }
        ]);
    }
    rec
}

const FAILOVER_COLUMNS: &str = "shards standbys cross_shard_pct committed batches failovers \
    degraded_shards failover_ns_p50 failover_ns_max catchup_batches lag_batches_p95 \
    mtps_fault_free mtps_under_failure retention";

/// What the `replica-chaos` CI job holds a failover record to.
pub fn check_failover(rec: &Record) -> Result<(), String> {
    rec.require_columns(FAILOVER_COLUMNS)?;
    for r in rec.rows() {
        ensure!(r.num("failovers")? == 1.0, "a run did not fail over exactly once");
        ensure!(r.num("degraded_shards")? == 0.0, "failover degraded to the CPU fallback");
        ensure!(
            r.num("committed")? > 0.0 && r.num("mtps_under_failure")? > 0.0,
            "a run did no work"
        );
        ensure!(r.num("failover_ns_max")? > 0.0, "no failover latency was recorded");
        ensure!(r.num("catchup_batches")? > 0.0, "promotion did no catch-up replay");
        let retention = r.num("retention")?;
        ensure!(0.0 < retention && retention <= 1.5, "retention {retention} out of range");
    }
    Ok(())
}

/// **Elastic rebalance** — shard scaling at 8–16 devices with mid-run
/// topology changes.
///
/// Extends the `shard_scaling` sweep upward: each configuration drives a
/// [`ShardedServer`] over partitioned YCSB-A at 8/12/16 shards and, one
/// third and two thirds of the way through the stream, cuts over a range
/// **split** (hot shard's lower range halved, upper half re-homed to the
/// last shard) and a range **merge** (one middle shard folded into its
/// neighbour) at aligned batch boundaries. A from-scratch run at the
/// final topology over the identical stream is the correctness bar: the
/// experiment *asserts* every post-cutover slice digest matches it, then
/// reports throughput with and without the mid-run rebalances plus the
/// migration volume. The assertion holds at every scale.
pub fn rebalance(scale: Scale) -> Record {
    let shard_counts: &[u32] = if scale == Scale::Smoke { &[2, 4] } else { &[8, 12, 16] };
    let (records, batch, batches) = sizes(scale);
    let (cross_pct, alpha) = (10u32, 0.4);
    let mut rec = Record::new(
        "rebalance",
        scale,
        "Elastic rebalance — YCSB-A with mid-run split+merge cutover",
        REBALANCE_COLUMNS,
    );
    for &shards in shard_counts {
        let cfg = YcsbConfig::new(YcsbWorkload::A, records)
            .with_alpha(alpha)
            .with_seed(0x5ca1_ab1e)
            .with_partitions(shards, cross_pct);
        let (db, table, mut gen) = YcsbGenerator::new(cfg.clone());
        let part = ycsb_partitioner(shards, table, &cfg);
        let size = cfg.partition_size() as i64;

        let split_cutover = (batches as u64 / 3).max(1);
        let merge_cutover = (2 * batches as u64 / 3).max(split_cutover + 1);
        let split = RebalancePlan {
            cutover: split_cutover,
            ops: vec![RebalanceOp::Split { table, at: size / 2, to: shards - 1 }],
        };
        let merge = RebalancePlan {
            cutover: merge_cutover,
            ops: vec![RebalanceOp::Merge { table, from: shards / 2, to: shards / 2 - 1 }],
        };
        let final_part = merge
            .apply_to(&split.apply_to(&part).expect("split validates"))
            .expect("merge validates");

        let stream = gen.gen_batch(batch * batches);
        let mut rebalanced = server(db.deep_clone(), part, batch);
        rebalanced.submit_all(stream.iter().cloned());
        rebalanced.schedule_rebalance(split).expect("split scheduled");
        let mut pending_merge = Some(merge);
        for _ in 0..(batches + 32) * 12 {
            if !rebalanced.rebalance_pending() {
                if let Some(merge) = pending_merge.take() {
                    rebalanced.schedule_rebalance(merge).expect("merge scheduled");
                }
            }
            if rebalanced.tick().is_none() && rebalanced.pending() == 0 {
                break;
            }
        }
        assert!(
            !rebalanced.rebalance_pending() && rebalanced.stats().rebalances == 2,
            "both plans must cut over mid-stream (applied {})",
            rebalanced.stats().rebalances
        );

        // The correctness bar: a from-scratch cluster at the final topology
        // over the identical stream must agree slice-for-slice.
        let mut fresh = server(db, final_part, batch);
        fresh.submit_all(stream);
        let fresh_stats = fresh.drain(batches + 32).clone();
        let digest_match = (0..shards)
            .all(|s| rebalanced.database(s).state_digest() == fresh.database(s).state_digest());
        assert!(digest_match, "post-cutover slices diverged from the from-scratch topology");

        let stats = rebalanced.stats();
        rec.push(row![
            shards,
            cross_pct,
            alpha,
            split_cutover,
            merge_cutover,
            stats.committed,
            stats.batches,
            stats.rebalances,
            stats.rows_migrated,
            stats.cross_shard_fraction(),
            stats.sim_ns / 1e6,
            mtps(stats.committed, stats.sim_ns),
            mtps(fresh_stats.committed, fresh_stats.sim_ns),
            digest_match
        ]);
    }
    rec
}

const REBALANCE_COLUMNS: &str = "shards cross_shard_pct zipf_alpha split_cutover merge_cutover \
    committed batches rebalances rows_migrated cross_shard_fraction sim_ms mtps \
    mtps_fresh_topology digest_match";

/// What the `rebalance` CI job holds a rebalance record to: every run cut
/// over one split and one merge mid-stream and still matched the
/// from-scratch topology slice-for-slice.
pub fn check_rebalance(rec: &Record) -> Result<(), String> {
    rec.require_columns(REBALANCE_COLUMNS)?;
    for r in rec.rows() {
        ensure!(r.flag("digest_match")?, "post-cutover slices diverged from the fresh topology");
        ensure!(r.num("rebalances")? == 2.0, "a run did not apply exactly two plans");
        ensure!(r.num("split_cutover")? < r.num("merge_cutover")?, "split must precede merge");
        ensure!(r.num("rows_migrated")? > 0.0, "cutover migrated no rows");
        ensure!(r.num("committed")? > 0.0 && r.num("mtps")? > 0.0, "a run did no work");
        ensure!(r.num("mtps_fresh_topology")? > 0.0, "the fresh-topology run did no work");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_scaling_check_guards_the_baseline_and_the_columns() {
        let good = shard_scaling(Scale::Smoke);
        check_shard_scaling(&good).expect("a real smoke record passes");
        assert!(check_shard_scaling(&good.with("speedup_vs_1", 0, 0.5)).is_err());
        assert!(check_shard_scaling(&good.without_column("merge_stall_ms")).is_err());
    }

    #[test]
    fn failover_check_guards_the_failover_count() {
        let good = failover(Scale::Smoke);
        check_failover(&good).expect("a real smoke record passes");
        assert!(check_failover(&good.with("failovers", 0, 0u64)).is_err());
        assert!(check_failover(&good.with("catchup_batches", 0, 0u64)).is_err());
    }

    #[test]
    fn rebalance_check_guards_the_digest_match() {
        let good = rebalance(Scale::Smoke);
        check_rebalance(&good).expect("a real smoke record passes");
        assert!(check_rebalance(&good.with("digest_match", 1, false)).is_err());
        assert!(check_rebalance(&good.with("rows_migrated", 0, 0u64)).is_err());
    }
}
