//! The declared metrics and how each is computed from raw observations.
//!
//! Names, units and directions here are the same as in `BENCHMARK.json`
//! (a test holds the two together). Every metric says which clock it is on:
//! `sim_*` / `*_sim_*` is the calibrated `CostModel` clock — what the
//! modelled GPU would take, identical for identical inputs — and `host_*` /
//! `*_host_*` is wall time of this process on this machine.

use ltpg_telemetry::names;

use crate::json::Json;
use crate::spans::{root_total_ns, self_times};
use crate::stats::{median, middle_mean, percentile, samples_beyond, slice_rates};
use crate::workloads::{Pass, Probes};

#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// "higher" or "lower".
    pub better: &'static str,
    /// End-to-end only: share of the parent's median by which the metric may
    /// worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. A bound has to hold across *seeds* (the
/// acceptance rule compares runs with different seeds), so each simulated
/// clock bound is about three times the widest seed-to-seed spread the
/// metric shows on any workload — for one seed the value repeats to the
/// last digit, and `compare` checks that through the digests. The host
/// bounds are what ten runs on the shared 2-core box can resolve; the
/// README has the measured spreads.
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("sim_mtps", "Mtxn/s", "higher", 0.15),
    e2e("sim_batch_p50_us", "us", "lower", 0.03),
    e2e("sim_batch_p95_us", "us", "lower", 0.06),
    e2e("sim_e2e_mean_us", "us", "lower", 0.15),
    e2e("commit_rate", "frac", "higher", 0.15),
    e2e("host_ktps", "ktxn/s", "higher", 0.25),
    e2e("host_tick_tail_ratio", "ratio", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.05),
];

pub const PER_LAYER: &[Decl] = &[
    // workloads
    layer("workloads.gen_host_us_per_txn", "us/txn", "lower"),
    // front
    layer("front.offer_self_host_us_per_txn", "us/txn", "lower"),
    layer("front.self_host_share", "frac", "lower"),
    layer("front.queue_wait_sim_mean_us", "us", "lower"),
    layer("front.batch_fill_mean", "txn", "higher"),
    layer("front.seals_deadline_frac", "frac", "lower"),
    layer("front.shed_rate_limited", "count", "lower"),
    layer("front.shed_backpressure", "count", "lower"),
    layer("front.shed_queue_full", "count", "lower"),
    layer("front.shed_timed_out", "count", "lower"),
    layer("front.e2e_sim_p99_us", "us", "lower"),
    // server
    layer("server.tick_host_share", "frac", "lower"),
    layer("server.submit_host_us_per_txn", "us/txn", "lower"),
    layer("server.ticks_per_kcommit", "1/ktxn", "lower"),
    layer("server.abort_events_per_commit", "1/txn", "lower"),
    layer("server.checkpoints", "count", "lower"),
    layer("server.checkpoint_tick_host_ms_p50", "ms", "lower"),
    // durability / storage
    layer("wal.bytes_per_commit", "bytes", "lower"),
    layer("wal.log_batch_host_us_per_txn", "us/txn", "lower"),
    layer("wal.bytes_per_logged_txn", "bytes", "lower"),
    layer("wal.frames_appended", "count", "lower"),
    layer("durability.checkpoint_host_ms", "ms", "lower"),
    layer("storage.deep_clone_host_ms", "ms", "lower"),
    layer("storage.state_digest_host_ms", "ms", "lower"),
    layer("storage.rows", "count", "lower"),
    // engine
    layer("engine.h2d_sim_us_per_batch", "us", "lower"),
    layer("engine.execute_sim_us_per_batch", "us", "lower"),
    layer("engine.detect_sim_us_per_batch", "us", "lower"),
    layer("engine.writeback_sim_us_per_batch", "us", "lower"),
    layer("engine.sync_sim_us_per_batch", "us", "lower"),
    layer("engine.d2h_sim_us_per_batch", "us", "lower"),
    layer("engine.alloc_sim_us_per_batch", "us", "lower"),
    layer("engine.critical_path_sim_us_per_batch", "us", "lower"),
    layer("engine.transfer_sim_frac", "frac", "lower"),
    layer("engine.host_us_per_attempt", "us/txn", "lower"),
    layer("engine.host_ns_per_sim_ns", "ns/ns", "lower"),
    layer("engine.aborts_conflict_loser", "1/kattempt", "lower"),
    layer("engine.aborts_log_exhausted", "1/kattempt", "lower"),
    layer("engine.aborts_delayed_read", "1/kattempt", "lower"),
    layer("engine.aborts_reorder_rejected", "1/kattempt", "lower"),
    layer("engine.delayed_ops_per_batch", "count", "lower"),
    layer("engine.alloc_events", "count", "lower"),
    // conflict log / gpu-sim
    layer("conflict_log.accesses_per_attempt", "1/txn", "lower"),
    layer("conflict_log.bytes", "bytes", "lower"),
    layer("gpu.kernel_launches_per_batch", "count", "lower"),
    layer("gpu.syncs_per_batch", "count", "lower"),
    layer("gpu.atomic_ops_per_attempt", "1/txn", "lower"),
    layer("gpu.atomic_serial_depth_per_op", "count", "lower"),
    layer("gpu.divergent_warps_per_batch", "count", "lower"),
    layer("gpu.bytes_h2d_per_attempt", "bytes", "lower"),
    layer("gpu.bytes_d2h_per_attempt", "bytes", "lower"),
    layer("gpu.page_faults", "count", "lower"),
    // shard
    layer("shard.route_host_us_per_txn", "us/txn", "lower"),
    layer("shard.cross_frac", "frac", "lower"),
    layer("shard.broadcast_frac", "frac", "lower"),
    layer("shard.merge_stall_sim_us_per_tick", "us", "lower"),
    layer("shard.tick_sim_us_mean", "us", "lower"),
    // replica
    layer("replica.replay_host_ms_per_tick", "ms", "lower"),
    layer("replica.lag_batches_p95", "count", "lower"),
    layer("replica.standbys_alive", "count", "higher"),
    layer("replica.promotions", "count", "lower"),
    // host clock: tick latency, and what the normalisation did (speed.rs)
    layer("host.tick_p50_ms", "ms", "lower"),
    layer("host.tick_p90_ms", "ms", "lower"),
    layer("host.speed_factor_p50", "ratio", "lower"),
    layer("host.raw_ktps", "ktxn/s", "higher"),
    // trace
    layer("trace.overhead_frac", "frac", "lower"),
    layer("trace.host_closure_gap_frac", "frac", "lower"),
    layer("trace.sim_closure_gap_frac", "frac", "lower"),
];

/// A computed metric: value, declaration, and (for percentiles and medians)
/// the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
    /// 0 for per-layer metrics, which have no bound.
    pub bound: f64,
    pub samples: Option<u64>,
    /// For tail percentiles: samples strictly beyond the reported rank.
    pub beyond: Option<u64>,
}

impl Metric {
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("value", self.value)
            .with("unit", self.unit)
            .with("better", self.better);
        if self.bound > 0.0 {
            j.set("bound", self.bound);
        }
        if let Some(n) = self.samples {
            j.set("samples", n);
        }
        if let Some(n) = self.beyond {
            j.set("samples_beyond", n);
        }
        j
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pair computed values with their declarations; panics if a declared
/// metric was not computed or an undeclared one was (a benchmark bug).
fn declare(
    decls: &'static [Decl],
    values: Vec<(&'static str, f64, Option<u64>, Option<u64>)>,
) -> Vec<Metric> {
    assert_eq!(
        values.len(),
        decls.len(),
        "computed and declared metric counts differ"
    );
    decls
        .iter()
        .map(|d| {
            let (_, value, samples, beyond) = values
                .iter()
                .find(|(n, ..)| *n == d.name)
                .unwrap_or_else(|| panic!("declared metric {} was not computed", d.name));
            Metric {
                name: d.name,
                value: *value,
                unit: d.unit,
                better: d.better,
                bound: d.bound,
                samples: *samples,
                beyond: *beyond,
            }
        })
        .collect()
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Host throughput, 10³ committed txn per in-system second at reference
/// speed: the mean of the six middle slices of ten.
pub fn host_ktps(pass: &Pass) -> f64 {
    middle_mean(&slice_rates(&pass.slice_commits, &pass.slice_wall_ns)) / 1e3
}

/// The end-to-end metrics of an untraced pass. `setup_ns` holds one wall
/// time per set-up performed in this run.
pub fn end_to_end(pass: &Pass, setup_ns: &[u64]) -> Vec<Metric> {
    let sim_total: f64 = pass.unit_sim_ns.iter().sum();
    let sim_us: Vec<f64> = pass.unit_sim_ns.iter().map(|ns| ns / 1e3).collect();
    let tick_ms = ms(&pass.unit_wall_ns);
    let setups: Vec<f64> = setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    let n_sim = Some(sim_us.len() as u64);
    let n_tick = Some(tick_ms.len() as u64);
    declare(
        END_TO_END,
        vec![
            ("setup_s", median(&setups), Some(setups.len() as u64), None),
            (
                "sim_mtps",
                ratio(pass.committed as f64 * 1e3, sim_total),
                None,
                None,
            ),
            ("sim_batch_p50_us", percentile(&sim_us, 50.0), n_sim, None),
            (
                "sim_batch_p95_us",
                percentile(&sim_us, 95.0),
                n_sim,
                Some(samples_beyond(sim_us.len(), 95.0) as u64),
            ),
            (
                "sim_e2e_mean_us",
                ratio(pass.sim_e2e_sum_ns, pass.sim_e2e_count as f64) / 1e3,
                Some(pass.sim_e2e_count),
                None,
            ),
            (
                "commit_rate",
                ratio(pass.committed as f64, pass.attempts as f64),
                Some(pass.attempts),
                None,
            ),
            (
                "host_ktps",
                host_ktps(pass),
                Some(pass.slice_commits.len() as u64),
                None,
            ),
            (
                "host_tick_tail_ratio",
                ratio(percentile(&tick_ms, 90.0), percentile(&tick_ms, 50.0)),
                n_tick,
                Some(samples_beyond(tick_ms.len(), 90.0) as u64),
            ),
            ("peak_rss_mb", pass.peak_rss_kb as f64 / 1024.0, None, None),
        ],
    )
}

/// Host-time closure: the share of the timed section the span tree does not
/// account for.
pub fn host_closure_gap(pass: &Pass) -> f64 {
    let covered = root_total_ns(&pass.spans) as f64;
    ratio(
        (pass.in_system_ns as f64 - covered).abs(),
        pass.in_system_ns as f64,
    )
}

/// Simulated-time closure: Σ per-batch/tick `sim_ns` against the system's
/// own account (engine: the seven phases; fleet: server `stats().sim_ns`).
pub fn sim_closure_gap(pass: &Pass) -> f64 {
    let observed: f64 = pass.unit_sim_ns.iter().sum();
    ratio((observed - pass.system_sim_ns).abs(), pass.system_sim_ns)
}

/// The per-layer metrics of a traced run. `untraced` is the same workload
/// and seed with span recording off (for the tracing overhead);
/// `no_standby` is the sharded workload repeated with 0 standby rows.
pub fn per_layer(
    traced: &Pass,
    untraced: &Pass,
    no_standby: Option<&Pass>,
    probes: &Probes,
) -> Vec<Metric> {
    let p = traced;
    let c = |name: &str| p.counters.get(name).copied().unwrap_or(0.0);
    let st = self_times(&p.spans);
    let self_ns = |name: &str| st.get(name).map_or(0.0, |s| s.self_ns as f64);
    let in_system = p.in_system_ns as f64;
    let attempts = p.attempts as f64;
    let batches = p.phases.batches as f64;
    let committed = p.committed as f64;
    let front_self = self_ns("front.offer") + self_ns("front.finish");
    let ckpt_ms = ms(&p.checkpoint_tick_wall_ns);
    let tick_ms = ms(&p.unit_wall_ns);
    let ph = &p.phases;
    let per_batch_us = |ns: f64| ratio(ns, batches) / 1e3;
    let per_kattempt = |name: &str| ratio(c(name) * 1e3, attempts);
    let routed =
        c(names::SHARD_SINGLE_TXNS) + c(names::SHARD_CROSS_TXNS) + c(names::SHARD_BROADCAST_TXNS);
    let replay_ms = no_standby.map_or(0.0, |base| {
        percentile(&tick_ms, 50.0) - percentile(&ms(&base.unit_wall_ns), 50.0)
    });
    let n = |v: usize| Some(v as u64);
    let plain = |name: &'static str, value: f64| (name, value, None, None);

    declare(
        PER_LAYER,
        vec![
            plain(
                "workloads.gen_host_us_per_txn",
                ratio(p.gen_ns as f64, p.gen_txns as f64) / 1e3,
            ),
            plain(
                "front.offer_self_host_us_per_txn",
                ratio(front_self, p.submitted as f64) / 1e3,
            ),
            plain("front.self_host_share", ratio(front_self, in_system)),
            plain(
                "front.queue_wait_sim_mean_us",
                ratio(c("front.queue_wait_ns.sum"), c("front.queue_wait_ns.count")) / 1e3,
            ),
            plain(
                "front.batch_fill_mean",
                ratio(c("front.batch_fill.sum"), c("front.batch_fill.count")),
            ),
            plain(
                "front.seals_deadline_frac",
                ratio(
                    c(names::FRONT_SEALS_DEADLINE),
                    c(names::FRONT_BATCHES_SEALED),
                ),
            ),
            plain("front.shed_rate_limited", c(names::FRONT_SHED_RATE_LIMITED)),
            plain("front.shed_backpressure", c(names::FRONT_SHED_BACKPRESSURE)),
            plain("front.shed_queue_full", c(names::FRONT_SHED_QUEUE_FULL)),
            plain("front.shed_timed_out", c(names::FRONT_SHED_TIMED_OUT)),
            plain("front.e2e_sim_p99_us", c("front.e2e_ns.p99") / 1e3),
            plain(
                "server.tick_host_share",
                ratio(p.tick_wall_ns as f64, in_system),
            ),
            plain(
                "server.submit_host_us_per_txn",
                ratio(p.submit_wall_ns as f64, p.submit_txns as f64) / 1e3,
            ),
            plain(
                "server.ticks_per_kcommit",
                ratio(c(names::SERVER_TICKS) * 1e3, committed),
            ),
            plain(
                "server.abort_events_per_commit",
                ratio(p.abort_events as f64, committed),
            ),
            plain("server.checkpoints", c(names::SERVER_CHECKPOINTS)),
            (
                "server.checkpoint_tick_host_ms_p50",
                percentile(&ckpt_ms, 50.0),
                n(ckpt_ms.len()),
                None,
            ),
            plain("wal.bytes_per_commit", ratio(p.wal_bytes as f64, committed)),
            plain(
                "wal.log_batch_host_us_per_txn",
                probes.wal_log_ns_per_txn / 1e3,
            ),
            plain("wal.bytes_per_logged_txn", probes.wal_bytes_per_txn),
            plain("wal.frames_appended", p.wal_frames as f64),
            (
                "durability.checkpoint_host_ms",
                probes.checkpoint_ms,
                n(3),
                None,
            ),
            (
                "storage.deep_clone_host_ms",
                probes.deep_clone_ms,
                n(3),
                None,
            ),
            (
                "storage.state_digest_host_ms",
                probes.state_digest_ms,
                n(3),
                None,
            ),
            plain("storage.rows", p.rows as f64),
            plain("engine.h2d_sim_us_per_batch", per_batch_us(ph.h2d_ns)),
            plain(
                "engine.execute_sim_us_per_batch",
                per_batch_us(ph.execute_ns),
            ),
            plain("engine.detect_sim_us_per_batch", per_batch_us(ph.detect_ns)),
            plain(
                "engine.writeback_sim_us_per_batch",
                per_batch_us(ph.writeback_ns),
            ),
            plain("engine.sync_sim_us_per_batch", per_batch_us(ph.sync_ns)),
            plain("engine.d2h_sim_us_per_batch", per_batch_us(ph.d2h_ns)),
            plain("engine.alloc_sim_us_per_batch", per_batch_us(ph.alloc_ns)),
            plain(
                "engine.critical_path_sim_us_per_batch",
                per_batch_us(ph.critical_ns),
            ),
            plain(
                "engine.transfer_sim_frac",
                ratio(ph.h2d_ns + ph.d2h_ns, ph.total_ns()),
            ),
            plain(
                "engine.host_us_per_attempt",
                ratio(p.exec_wall_ns as f64, p.exec_attempts as f64) / 1e3,
            ),
            plain(
                "engine.host_ns_per_sim_ns",
                ratio(p.exec_wall_ns as f64, p.exec_sim_ns),
            ),
            plain(
                "engine.aborts_conflict_loser",
                per_kattempt(names::ABORT_CONFLICT_LOSER),
            ),
            plain(
                "engine.aborts_log_exhausted",
                per_kattempt(names::ABORT_LOG_EXHAUSTED),
            ),
            plain(
                "engine.aborts_delayed_read",
                per_kattempt(names::ABORT_DELAYED_READ),
            ),
            plain(
                "engine.aborts_reorder_rejected",
                per_kattempt(names::ABORT_REORDER_REJECTED),
            ),
            plain(
                "engine.delayed_ops_per_batch",
                ratio(c(names::LTPG_DELAYED_OPS_APPLIED), batches),
            ),
            plain("engine.alloc_events", c(names::LTPG_ALLOC_EVENTS)),
            plain(
                "conflict_log.accesses_per_attempt",
                ratio(c(names::LTPG_CONFLICT_LOG_ACCESSES), attempts),
            ),
            plain("conflict_log.bytes", c(names::LTPG_CONFLICT_LOG_BYTES)),
            plain(
                "gpu.kernel_launches_per_batch",
                ratio(c(names::GPU_KERNEL_LAUNCHES), batches),
            ),
            plain("gpu.syncs_per_batch", ratio(c(names::GPU_SYNCS), batches)),
            plain(
                "gpu.atomic_ops_per_attempt",
                ratio(c(names::GPU_ATOMIC_OPS), attempts),
            ),
            plain(
                "gpu.atomic_serial_depth_per_op",
                ratio(c(names::GPU_ATOMIC_SERIAL_DEPTH), c(names::GPU_ATOMIC_OPS)),
            ),
            plain(
                "gpu.divergent_warps_per_batch",
                ratio(c(names::GPU_DIVERGENT_WARPS), batches),
            ),
            plain(
                "gpu.bytes_h2d_per_attempt",
                ratio(c(names::GPU_BYTES_H2D), attempts),
            ),
            plain(
                "gpu.bytes_d2h_per_attempt",
                ratio(c(names::GPU_BYTES_D2H), attempts),
            ),
            plain("gpu.page_faults", c(names::GPU_PAGE_FAULTS)),
            plain("shard.route_host_us_per_txn", probes.route_ns_per_txn / 1e3),
            plain(
                "shard.cross_frac",
                ratio(c(names::SHARD_CROSS_TXNS), routed),
            ),
            plain(
                "shard.broadcast_frac",
                ratio(c(names::SHARD_BROADCAST_TXNS), routed),
            ),
            plain(
                "shard.merge_stall_sim_us_per_tick",
                ratio(c(names::SHARD_MERGE_STALL_NS), c("shard.tick_ns.count")) / 1e3,
            ),
            plain(
                "shard.tick_sim_us_mean",
                ratio(c("shard.tick_ns.sum"), c("shard.tick_ns.count")) / 1e3,
            ),
            (
                "replica.replay_host_ms_per_tick",
                replay_ms,
                n(tick_ms.len()),
                None,
            ),
            plain("replica.lag_batches_p95", c("replica.lag_batches.p95")),
            plain("replica.standbys_alive", c(names::REPLICA_STANDBYS)),
            plain("replica.promotions", c(names::REPLICA_PROMOTIONS)),
            (
                "host.tick_p50_ms",
                percentile(&tick_ms, 50.0),
                n(tick_ms.len()),
                None,
            ),
            (
                "host.tick_p90_ms",
                percentile(&tick_ms, 90.0),
                n(tick_ms.len()),
                Some(samples_beyond(tick_ms.len(), 90.0) as u64),
            ),
            (
                "host.speed_factor_p50",
                percentile(&p.speed_factors, 50.0),
                n(p.speed_factors.len()),
                None,
            ),
            plain(
                "host.raw_ktps",
                middle_mean(&slice_rates(&p.slice_commits, &p.slice_raw_wall_ns)) / 1e3,
            ),
            plain(
                "trace.overhead_frac",
                1.0 - ratio(host_ktps(traced), host_ktps(untraced)),
            ),
            plain("trace.host_closure_gap_frac", host_closure_gap(traced)),
            plain("trace.sim_closure_gap_frac", sim_closure_gap(traced)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(
                d.name.len() <= 64 && d.unit.len() <= 16,
                "{} too long",
                d.name
            );
            assert!(matches!(d.better, "higher" | "lower"));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    #[test]
    fn host_ktps_is_the_mean_of_the_middle_slices() {
        let pass = Pass {
            slice_commits: vec![1000; 10],
            slice_wall_ns: vec![
                1_000_000_000,
                1_000_000_000,
                2_000_000_000,
                1_000_000_000,
                500_000_000,
                1_000_000_000,
                1_000_000_000,
                1_000_000_000,
                4_000_000_000,
                1_000_000_000,
            ],
            ..Pass::default()
        };
        // Seven slices at 1000 txn/s: the fast one and the two slow ones are
        // outside the middle six.
        assert_eq!(host_ktps(&pass), 1.0);
    }

    #[test]
    fn every_declared_metric_is_computed_once() {
        let pass = Pass {
            slice_commits: vec![1; 10],
            slice_wall_ns: vec![1; 10],
            ..Pass::default()
        };
        let e = end_to_end(&pass, &[1, 2, 3]);
        assert_eq!(e.len(), END_TO_END.len());
        assert_eq!(e[0].name, "setup_s");
        assert_eq!(e[0].value, 2e-9);
        let l = per_layer(&pass, &pass, None, &Probes::default());
        assert_eq!(l.len(), PER_LAYER.len());
    }
}
