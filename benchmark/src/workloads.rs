//! The four workloads and the one pass function each of them runs.
//!
//! A *pass* builds the system from the seed, pushes a fixed amount of work
//! through it with a stopwatch that only runs inside calls into the system,
//! and returns raw observations ([`Pass`]). Turning observations into named
//! metrics is `metrics.rs`' job; deciding how many passes a run makes is
//! `lib.rs`'.
//!
//! Every constant below is a decision about *what is measured*, so each one
//! says why it has the value it has. `README.md` repeats the reasoning in
//! table form.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use ltpg::{LtpgConfig, LtpgEngine, LtpgServer, ServerConfig};
use ltpg_front::{Fleet, FleetConfig, FrontConfig, FrontEnd, TickSink};
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{ycsb_partitioner, ShardedServer};
use ltpg_storage::Database;
use ltpg_telemetry::{names, Registry};
use ltpg_txn::{Batch, BatchEngine, TidGen, Txn};
use ltpg_workloads::tpcc::{check_invariants, cols};
use ltpg_workloads::{TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbWorkload};

use crate::sink::{BatchCount, TimedSink};
use crate::spans::{spanned, Recorder, SharedRecorder, Span};
use crate::speed::{normalised, SpeedMeter};
use crate::{fnv_u64, FNV_OFFSET};

/// The `run_seconds` of `BENCHMARK.json`: the base counts below are sized
/// so one timed section takes about this long at the seed commit on the
/// 2-core reference box. `--seconds` scales every count linearly from here.
pub const RUN_SECONDS: f64 = 16.0;

/// `--smoke` divides every count by this (tests only).
pub const SMOKE_DIVISOR: f64 = 20.0;

/// How much of the declared work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on every batch/arrival count: `--seconds` over
    /// [`RUN_SECONDS`], divided by [`SMOKE_DIVISOR`] under `--smoke`.
    pub work: f64,
    /// `--smoke` also shrinks the YCSB tables, so that a plumbing test does
    /// not spend its time loading a million rows it will barely touch.
    pub smoke: bool,
}

impl Scale {
    pub fn new(seconds: f64, smoke: bool) -> Scale {
        Scale {
            work: seconds / RUN_SECONDS / if smoke { SMOKE_DIVISOR } else { 1.0 },
            smoke,
        }
    }

    fn count(&self, base: usize, floor: usize) -> usize {
        ((base as f64 * self.work).round() as usize).max(floor)
    }

    /// Rows in a YCSB `usertable`: 1 M — well above both client counts and,
    /// at 32 B of payload per row plus index, larger than the reference
    /// box's caches.
    fn ycsb_records(&self) -> u64 {
        if self.smoke {
            1_000_000 / SMOKE_DIVISOR as u64
        } else {
            1_000_000
        }
    }
}

/// Share of each workload's batches/arrivals treated as warm-up: executed,
/// counted, digested and charged on the simulated clock, but left out of
/// every host statistic (first-touch page faults and allocator growth make
/// the first batches 2× slower than steady state).
pub const WARMUP_FRAC: f64 = 0.05;

/// Host throughput is reported over this many equal-work slices (the mean of
/// the middle six: `stats::middle_mean`).
pub const SLICES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpccEngine,
    YcsbContendedEngine,
    FleetServerYcsb,
    FleetShardedYcsb,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TpccEngine,
        Workload::YcsbContendedEngine,
        Workload::FleetServerYcsb,
        Workload::FleetShardedYcsb,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccEngine => "tpcc_engine",
            Workload::YcsbContendedEngine => "ycsb_contended_engine",
            Workload::FleetServerYcsb => "fleet_server_ycsb",
            Workload::FleetShardedYcsb => "fleet_sharded_ycsb",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_fleet(self) -> bool {
        matches!(self, Workload::FleetServerYcsb | Workload::FleetShardedYcsb)
    }
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// Exact per-phase simulated time, summed over engine batches.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PhaseSums {
    pub h2d_ns: f64,
    pub execute_ns: f64,
    pub detect_ns: f64,
    pub writeback_ns: f64,
    pub sync_ns: f64,
    pub d2h_ns: f64,
    pub alloc_ns: f64,
    pub critical_ns: f64,
    /// Engine batches the sums cover (per shard on the sharded server).
    pub batches: u64,
}

impl PhaseSums {
    pub fn total_ns(&self) -> f64 {
        self.h2d_ns
            + self.execute_ns
            + self.detect_ns
            + self.writeback_ns
            + self.sync_ns
            + self.d2h_ns
            + self.alloc_ns
    }

    /// Exact `sum` and `count` of the `ltpg.phase.*` histograms, added over
    /// the given registries. Never a histogram quantile.
    fn from_registries(regs: &[Arc<Registry>]) -> PhaseSums {
        let sum = |name: &str| regs.iter().map(|r| r.histogram(name).sum()).sum::<u64>() as f64;
        PhaseSums {
            h2d_ns: sum(names::LTPG_PHASE_H2D_NS),
            execute_ns: sum(names::LTPG_PHASE_EXECUTE_NS),
            detect_ns: sum(names::LTPG_PHASE_DETECT_NS),
            writeback_ns: sum(names::LTPG_PHASE_WRITEBACK_NS),
            sync_ns: sum(names::LTPG_PHASE_SYNC_NS),
            d2h_ns: sum(names::LTPG_PHASE_D2H_NS),
            alloc_ns: sum(names::LTPG_PHASE_ALLOC_NS),
            critical_ns: sum(names::LTPG_BATCH_CRITICAL_NS),
            batches: regs
                .iter()
                .map(|r| r.histogram(names::LTPG_BATCH_TOTAL_NS).count())
                .sum(),
        }
    }
}

/// Counters read from the public registries after a pass (engine registry
/// on engine workloads; server/shard/front registries on fleet workloads).
/// Keys are the registry's own metric names.
pub type Counters = BTreeMap<&'static str, f64>;

const ENGINE_COUNTERS: [&str; 16] = [
    names::GPU_KERNEL_LAUNCHES,
    names::GPU_SYNCS,
    names::GPU_ATOMIC_OPS,
    names::GPU_ATOMIC_SERIAL_DEPTH,
    names::GPU_DIVERGENT_WARPS,
    names::GPU_BYTES_H2D,
    names::GPU_BYTES_D2H,
    names::GPU_PAGE_FAULTS,
    names::LTPG_CONFLICT_LOG_ACCESSES,
    names::LTPG_DELAYED_OPS_APPLIED,
    names::LTPG_ALLOC_EVENTS,
    names::ABORT_CONFLICT_LOSER,
    names::ABORT_LOG_EXHAUSTED,
    names::ABORT_DELAYED_READ,
    names::ABORT_REORDER_REJECTED,
    names::ABORT_USER,
];

fn read_engine_counters(regs: &[Arc<Registry>], out: &mut Counters) {
    for name in ENGINE_COUNTERS {
        out.insert(
            name,
            regs.iter().map(|r| r.counter_value(name)).sum::<u64>() as f64,
        );
    }
    out.insert(
        names::LTPG_CONFLICT_LOG_BYTES,
        regs.iter()
            .map(|r| r.gauge_value(names::LTPG_CONFLICT_LOG_BYTES))
            .sum::<i64>() as f64,
    );
}

/// WAL counters live on the process-global registry (the log has no owner
/// to hand it one), so a pass reads them as a delta.
fn wal_counters() -> (u64, u64) {
    let g = ltpg_telemetry::global();
    (
        g.counter_value(names::WAL_FRAMES_APPENDED),
        g.counter_value(names::WAL_BYTES_APPENDED),
    )
}

/// Raw observations of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    // ---- counts ----
    /// Fresh transactions handed to the system.
    pub submitted: u64,
    pub committed: u64,
    /// Shed, errored, or still uncommitted after the drain.
    pub failed: u64,
    /// Transaction attempts executed (a transaction aborted twice and then
    /// committed is three attempts).
    pub attempts: u64,
    pub abort_events: u64,
    /// Fresh-filled engine batches / server ticks that executed a batch.
    pub units: u64,
    // ---- simulated clock ----
    /// `sim_ns` of every executed batch/tick, in order (warm-up and drain
    /// included).
    pub unit_sim_ns: Vec<f64>,
    /// Σ and count of arrival → commit latency on the simulated clock.
    pub sim_e2e_sum_ns: f64,
    pub sim_e2e_count: u64,
    /// Σ sim_ns as the system itself accounts it (engine phase sums /
    /// server `stats().sim_ns`), for the closure check.
    pub system_sim_ns: f64,
    pub phases: PhaseSums,
    // ---- host clock ----
    /// Wall time of the whole timed section (warm-up, slices, drain).
    pub in_system_ns: u64,
    /// Wall of each post-warm-up `execute_batch` / `tick_outcome` call, at
    /// reference speed; the raw wall and the speed factor applied to it.
    pub unit_wall_ns: Vec<u64>,
    pub unit_raw_wall_ns: Vec<u64>,
    pub unit_speed: Vec<f64>,
    /// Units (batches / ticks) that fell into warm-up.
    pub warmup_units: usize,
    /// Per slice: transactions committed and in-system wall at reference
    /// speed, plus the raw wall.
    pub slice_commits: Vec<u64>,
    pub slice_wall_ns: Vec<u64>,
    pub slice_raw_wall_ns: Vec<u64>,
    /// Speed factor of every metered interval, and the calibration kernel's
    /// parts it is the mean of (see `speed.rs`).
    pub speed_factors: Vec<f64>,
    pub speed_parts: Vec<[f64; 3]>,
    /// Engine workloads: Σ execute wall and Σ attempts / sim_ns over the
    /// post-warm-up fresh-filled batches.
    pub exec_wall_ns: u64,
    pub exec_attempts: u64,
    pub exec_sim_ns: f64,
    /// This pass's set-up — database load, system construction and all
    /// input generation — at reference speed.
    pub setup_ns: u64,
    /// Input generation: wall and transactions generated.
    pub gen_ns: u64,
    pub gen_txns: u64,
    // ---- fleet only ----
    pub submit_wall_ns: u64,
    pub submit_txns: u64,
    pub tick_wall_ns: u64,
    /// Raw wall of ticks after which the server took a checkpoint.
    pub checkpoint_tick_wall_ns: Vec<u64>,
    pub wal_frames: u64,
    pub wal_bytes: u64,
    pub counters: Counters,
    // ---- identity ----
    pub history_digest: u64,
    pub state_digests: Vec<u64>,
    pub seal_digest: Option<u64>,
    pub rows: u64,
    pub checks: Vec<Check>,
    pub spans: Vec<Span>,
    /// `VmHWM` right after the timed section, kB.
    pub peak_rss_kb: u64,
}

/// `VmHWM` of this process in kB (0 where `/proc` is unavailable).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Split `total` units into warm-up + [`SLICES`] equal slices; returns
/// `(warm, per_slice)`. The run does `warm + SLICES * per_slice` units.
fn plan(total: usize) -> (usize, usize) {
    let warm = ((total as f64 * WARMUP_FRAC).round() as usize).max(1);
    let per_slice = (total.saturating_sub(warm) / SLICES).max(1);
    (warm, per_slice)
}

// ===================================================================
// Engine workloads: closed loop straight into `LtpgEngine`.
// ===================================================================

/// Batch size of both engine workloads: the repo's reduced-grid GPU batch
/// (`table2` default), large enough that per-batch fixed costs are small.
const ENGINE_BATCH: usize = 4096;

/// Upper bound on requeue-only drain batches after the last fresh one. The
/// backlog shrinks every batch (the minimum TID always wins), so this only
/// guards against a livelock bug: the contended YCSB backlog needs ≈100
/// batches to clear, TPC-C a handful. What is left counts as `failed`.
const DRAIN_CAP: usize = 1024;

/// What differs between the two engine workloads.
struct EngineSpec {
    /// Fresh-filled batches at [`RUN_SECONDS`].
    batches: usize,
    build: fn(seed: u64, batches: usize, scale: &Scale) -> EngineInputs,
}

/// A stream of fresh transactions: `gen(n)` yields the next `n`.
type TxnGen = Box<dyn FnMut(usize) -> Vec<Txn>>;

struct EngineInputs {
    db: Database,
    cfg: LtpgConfig,
    gen: TxnGen,
    /// Workload-specific check of the final database.
    verify: Box<dyn Fn(&Database) -> Check>,
}

/// TPC-C 50 % NewOrder / 50 % Payment on 8 warehouses — Table II's "50-8"
/// cell. The engine configuration is the one `ltpg-bench`'s `table2` uses
/// (copied, so the benchmark does not depend on the bench crate):
/// `D_NEXT_O_ID` is a sequencer, `W_YTD`/`D_YTD` take delayed updates, and
/// WAREHOUSE/DISTRICT are pre-marked popular.
fn build_tpcc(seed: u64, batches: usize, _scale: &Scale) -> EngineInputs {
    const WAREHOUSES: i64 = 8;
    // ORDERS/NEW_ORDER/HISTORY get one spare row per planned transaction
    // plus 30 % (ORDER_LINE 15× that): 640 k at 120 batches, so no insert
    // can fail for lack of room, drain included.
    let headroom = batches * ENGINE_BATCH * 13 / 10;
    let wl = TpccConfig::new(WAREHOUSES, 50)
        .with_headroom(headroom)
        .with_seed(seed);
    let (db, tables, mut gen) = TpccGenerator::new(wl);
    let mut cfg = LtpgConfig {
        max_batch: ENGINE_BATCH,
        est_accesses_per_txn: 12,
        ..LtpgConfig::default()
    };
    cfg.commutative_cols
        .insert((tables.district, cols::D_NEXT_O_ID));
    cfg.delayed_cols.insert((tables.warehouse, cols::W_YTD));
    cfg.delayed_cols.insert((tables.district, cols::D_YTD));
    cfg.premarked_popular.insert(tables.warehouse);
    cfg.premarked_popular.insert(tables.district);
    EngineInputs {
        db,
        cfg,
        gen: Box::new(move |n| gen.gen_batch(n)),
        verify: Box::new(move |db| match check_invariants(db, &tables, WAREHOUSES) {
            Ok(()) => Check::new("tpcc_invariants", true, "all consistency conditions hold"),
            Err(e) => Check::new("tpcc_invariants", false, e.to_string()),
        }),
    }
}

/// YCSB-A over 1 M records at Zipf 0.6 with the default engine config. At
/// 0.6 the steady-state commit rate is ≈12 %: conflict detection, abort
/// and re-execution dominate. Higher skew collapses it (measured: 1.5 % at
/// 0.8, 0.6 % at 0.9) and the run would measure nothing but re-execution of
/// a few hot keys.
fn build_ycsb_contended(seed: u64, _batches: usize, scale: &Scale) -> EngineInputs {
    let records = scale.ycsb_records();
    let wl = YcsbConfig::new(YcsbWorkload::A, records)
        .with_alpha(0.6)
        .with_seed(seed);
    let (db, _table, mut gen) = YcsbGenerator::new(wl);
    EngineInputs {
        db,
        cfg: LtpgConfig::default(),
        gen: Box::new(move |n| gen.gen_batch(n)),
        verify: Box::new(move |db| {
            let rows: u64 = db.iter().map(|(_, t)| t.live_rows() as u64).sum();
            Check::new(
                "ycsb_rows_preserved",
                rows == records,
                format!("{rows} live rows"),
            )
        }),
    }
}

fn engine_spec(w: Workload) -> EngineSpec {
    match w {
        // ≈170 ms host per 4096-batch at the seed commit.
        Workload::TpccEngine => EngineSpec {
            batches: 74,
            build: build_tpcc,
        },
        // ≈17 ms host per batch in steady state.
        Workload::YcsbContendedEngine => EngineSpec {
            batches: 800,
            build: build_ycsb_contended,
        },
        _ => unreachable!("{} is not an engine workload", w.name()),
    }
}

/// Only the setup half of an engine pass: load, construct, and generate
/// `gen_txns` transactions. Returns the wall time at reference speed, ns.
pub fn engine_setup_only(w: Workload, seed: u64, scale: &Scale, gen_txns: u64) -> u64 {
    let spec = engine_spec(w);
    let (warm, per_slice) = plan(scale.count(spec.batches, SLICES + 1));
    let batches = warm + per_slice * SLICES;
    let mut meter = SpeedMeter::start();
    let t = Instant::now();
    let mut inputs = (spec.build)(seed, batches, scale);
    let engine = LtpgEngine::with_telemetry(inputs.db, inputs.cfg.clone(), Registry::new_shared());
    let raw = t.elapsed().as_nanos() as u64;
    let mut total = normalised(raw, meter.lap());
    total += generate_metered(&mut meter, gen_txns, &mut |n| {
        std::hint::black_box((inputs.gen)(n));
    });
    std::hint::black_box(&engine);
    total
}

/// Generate `txns` inputs in [`GEN_CHUNK`]s through `gen`, metering each
/// chunk; returns the wall time at reference speed, ns.
fn generate_metered(meter: &mut SpeedMeter, txns: u64, gen: &mut dyn FnMut(usize)) -> u64 {
    let mut total = 0;
    let mut left = txns as usize;
    while left > 0 {
        let n = left.min(GEN_CHUNK);
        let t = Instant::now();
        gen(n);
        let raw = t.elapsed().as_nanos() as u64;
        total += normalised(raw, meter.lap());
        left -= n;
    }
    total
}

pub fn engine_pass(w: Workload, seed: u64, scale: &Scale, traced: bool) -> Pass {
    let spec = engine_spec(w);
    let total = scale.count(spec.batches, SLICES + 1);
    let (warm, per_slice) = plan(total);
    let total = warm + per_slice * SLICES;

    let mut pass = Pass::default();
    let mut meter = SpeedMeter::start();
    let t_setup = Instant::now();
    let mut inputs = (spec.build)(seed, total, scale);
    let registry = Registry::new_shared();
    let mut engine =
        LtpgEngine::with_telemetry(inputs.db, inputs.cfg.clone(), Arc::clone(&registry));
    let construct_ns = t_setup.elapsed().as_nanos() as u64;
    pass.setup_ns = normalised(construct_ns, meter.lap());

    let rec = Recorder::shared(traced);
    let mut tids = TidGen::new();
    let first_tid = tids.peek();
    // Simulated clock at each transaction's first submission, by TID.
    let mut first_seen_ns: Vec<f64> = Vec::new();
    let mut sim_clock = 0.0f64;
    let mut requeued: Vec<Txn> = Vec::new();
    let mut history = FNV_OFFSET;
    pass.slice_commits = vec![0; SLICES];
    pass.slice_wall_ns = vec![0; SLICES];
    pass.slice_raw_wall_ns = vec![0; SLICES];

    let mut unit = 0usize;
    let mut drained = 0usize;
    meter.factors.clear();
    meter.parts.clear();
    loop {
        let fresh_phase = unit < total;
        if !fresh_phase && (requeued.is_empty() || drained == DRAIN_CAP) {
            break;
        }
        // -- input generation: stopwatch stopped, charged to set-up --
        let mut gen_ns = 0;
        let fresh = if fresh_phase {
            let want = ENGINE_BATCH.saturating_sub(requeued.len());
            let t = Instant::now();
            let fresh = (inputs.gen)(want);
            gen_ns = t.elapsed().as_nanos() as u64;
            pass.gen_ns += gen_ns;
            pass.gen_txns += fresh.len() as u64;
            fresh
        } else {
            drained += 1;
            Vec::new()
        };
        pass.submitted += fresh.len() as u64;
        first_seen_ns.extend(std::iter::repeat_n(sim_clock, fresh.len()));

        // -- in-system: assemble, execute, requeue --
        rec.borrow_mut().unit = unit as u32;
        let t_unit = Instant::now();
        rec.borrow_mut().enter("driver.batch");
        let batch = spanned(&rec, "txn.assemble", || {
            Batch::assemble(std::mem::take(&mut requeued), fresh, &mut tids)
        });
        let t_exec = Instant::now();
        let out = spanned(&rec, "engine.execute_batch", || {
            engine.execute_batch_report(&batch)
        });
        let exec_ns = t_exec.elapsed().as_nanos() as u64;
        requeued = spanned(&rec, "driver.requeue", || {
            out.report
                .aborted
                .iter()
                .map(|tid| {
                    batch
                        .by_tid(*tid)
                        .expect("aborted tid is in its batch")
                        .clone()
                })
                .collect()
        });
        rec.borrow_mut().exit();
        let unit_ns = t_unit.elapsed().as_nanos() as u64;
        pass.in_system_ns += unit_ns;
        // Generation sits between two batches' probes; it is short against
        // the seconds-long speed states, so one probe per batch brackets.
        let speed = meter.lap();
        pass.setup_ns += normalised(gen_ns, speed);

        // -- bookkeeping: outside the stopwatch --
        let r = &out.report;
        let s = &out.stats;
        sim_clock += r.sim_ns;
        pass.unit_sim_ns.push(r.sim_ns);
        pass.attempts += batch.len() as u64;
        pass.committed += r.committed.len() as u64;
        pass.abort_events += r.aborted.len() as u64;
        history = fnv_u64(history, u64::MAX);
        for tid in &r.committed {
            history = fnv_u64(history, tid.0);
            pass.sim_e2e_sum_ns += sim_clock - first_seen_ns[(tid.0 - first_tid) as usize];
        }
        pass.sim_e2e_count += r.committed.len() as u64;
        pass.phases.h2d_ns += s.h2d_ns;
        pass.phases.execute_ns += s.execute_ns;
        pass.phases.detect_ns += s.detect_ns;
        pass.phases.writeback_ns += s.writeback_ns;
        pass.phases.sync_ns += s.sync_ns;
        pass.phases.d2h_ns += s.d2h_ns;
        pass.phases.alloc_ns += s.alloc_ns;
        pass.phases.critical_ns += s.critical_path_ns();
        pass.phases.batches += 1;
        if fresh_phase {
            pass.units += 1;
            if unit >= warm {
                let slice = (unit - warm) / per_slice;
                pass.slice_commits[slice] += r.committed.len() as u64;
                pass.slice_wall_ns[slice] += normalised(unit_ns, speed);
                pass.slice_raw_wall_ns[slice] += unit_ns;
                pass.unit_wall_ns.push(normalised(exec_ns, speed));
                pass.unit_raw_wall_ns.push(exec_ns);
                pass.unit_speed.push(speed);
                pass.exec_wall_ns += exec_ns;
                pass.exec_attempts += batch.len() as u64;
                pass.exec_sim_ns += r.sim_ns;
            }
        }
        unit += 1;
    }
    pass.peak_rss_kb = peak_rss_kb();
    pass.speed_factors = meter.factors;
    pass.speed_parts = meter.parts;
    pass.warmup_units = warm;
    pass.failed = requeued.len() as u64;
    pass.system_sim_ns = pass.phases.total_ns();
    pass.history_digest = history;
    read_engine_counters(&[registry], &mut pass.counters);

    let db = engine.database();
    pass.state_digests = vec![db.state_digest()];
    pass.rows = db.iter().map(|(_, t)| t.live_rows() as u64).sum();
    pass.checks.push((inputs.verify)(db));
    pass.checks.push(Check::new(
        "drained",
        requeued.is_empty(),
        format!(
            "{} transactions still aborted after {drained} drain batches",
            requeued.len()
        ),
    ));
    pass.checks.push(Check::new(
        "every_submission_resolved",
        pass.committed + pass.failed == pass.submitted,
        format!(
            "{} committed + {} failed of {}",
            pass.committed, pass.failed, pass.submitted
        ),
    ));
    pass.spans = rec.borrow_mut().take_spans();
    pass
}

// ===================================================================
// Fleet workloads: open loop, Fleet → FrontEnd → server.
// ===================================================================

/// What a fleet pass needs from the server behind the front-end, beyond
/// feeding it: where its numbers are published and what state it ended in.
pub trait FleetServer: TickSink + BatchCount {
    /// Registries the primary engines publish `ltpg.*` / `gpu.*` on.
    fn engine_registries(&self) -> Vec<Arc<Registry>>;
    fn databases(&self) -> Vec<&Database>;
    fn total_sim_ns(&self) -> f64;
    fn committed(&self) -> u64;
    fn abort_events(&self) -> u64;
    /// Whether any executor fell back to its CPU twin.
    fn any_degraded(&self) -> bool;
    fn server_counters(&self, out: &mut Counters);
}

impl FleetServer for LtpgServer {
    fn engine_registries(&self) -> Vec<Arc<Registry>> {
        vec![Arc::clone(self.telemetry())]
    }
    fn databases(&self) -> Vec<&Database> {
        vec![self.database()]
    }
    fn total_sim_ns(&self) -> f64 {
        self.stats().sim_ns
    }
    fn committed(&self) -> u64 {
        self.stats().committed
    }
    fn abort_events(&self) -> u64 {
        self.stats().abort_events
    }
    fn any_degraded(&self) -> bool {
        self.is_degraded()
    }
    fn server_counters(&self, out: &mut Counters) {
        let reg = self.telemetry();
        out.insert(
            names::SERVER_TICKS,
            reg.counter_value(names::SERVER_TICKS) as f64,
        );
    }
}

impl FleetServer for ShardedServer {
    fn engine_registries(&self) -> Vec<Arc<Registry>> {
        (0..self.shard_count())
            .map(|s| Arc::clone(self.shard_telemetry(s)))
            .collect()
    }
    fn databases(&self) -> Vec<&Database> {
        (0..self.shard_count()).map(|s| self.database(s)).collect()
    }
    fn total_sim_ns(&self) -> f64 {
        self.stats().sim_ns
    }
    fn committed(&self) -> u64 {
        self.stats().committed
    }
    fn abort_events(&self) -> u64 {
        self.stats().abort_events
    }
    fn any_degraded(&self) -> bool {
        (0..self.shard_count()).any(|s| self.is_degraded(s))
    }
    fn server_counters(&self, out: &mut Counters) {
        let reg = self.telemetry();
        let st = self.stats();
        out.insert(
            names::SERVER_TICKS,
            reg.counter_value(names::SHARD_TICKS) as f64,
        );
        out.insert(names::SHARD_SINGLE_TXNS, st.single_shard_txns as f64);
        out.insert(names::SHARD_CROSS_TXNS, st.cross_shard_txns as f64);
        out.insert(names::SHARD_BROADCAST_TXNS, st.broadcast_txns as f64);
        out.insert(names::SHARD_MERGE_STALL_NS, st.merge_stall_ns);
        let tick = reg.histogram(names::SHARD_TICK_NS);
        out.insert("shard.tick_ns.sum", tick.sum() as f64);
        out.insert("shard.tick_ns.count", tick.count() as f64);
        out.insert(
            names::REPLICA_PROMOTIONS,
            reg.counter_value(names::REPLICA_PROMOTIONS) as f64,
        );
        out.insert(names::REPLICA_STANDBYS, self.standbys_alive() as f64);
        out.insert(
            "replica.lag_batches.p95",
            reg.histogram(names::REPLICA_LAG_BATCHES)
                .quantile(0.95)
                .unwrap_or(0) as f64,
        );
        out.insert("shard.failovers", st.failovers as f64);
    }
}

/// Shape of one fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    pub clients: u32,
    /// Offered load, txn per simulated second. A constant — never derived
    /// from measured capacity — so latency is comparable across commits.
    pub offered_tps: f64,
    pub batch: usize,
    pub max_queued: usize,
    /// Arrivals at [`RUN_SECONDS`].
    pub arrivals: usize,
    pub checkpoint_every: usize,
    /// `Some((shards, cross_pct))` selects the sharded server.
    pub sharding: Option<(u32, u32)>,
    pub standbys: usize,
}

/// Mild skew: the fleet workloads measure ingestion, routing and
/// durability, not re-execution — commit rate stays above 95 %.
const FLEET_ALPHA: f64 = 0.4;
/// Zipf skew of per-client rates (`front_bench`'s production-shaped fleet).
const CLIENT_SKEW: f64 = 1.1;
/// Admission policy shared by both fleet workloads, simulated ns: seal an
/// open batch after 100 µs, stop pulling from client channels once the
/// engine is 800 µs behind, shed what waited 1.6 ms. With the fixed offered
/// rates below, none of the shed paths fires at the seed commit; a service
/// time regression of ≈10 % starts to.
const SEAL_DEADLINE_NS: u64 = 100_000;
const MAX_BACKLOG_NS: u64 = 800_000;
const QUEUE_TIMEOUT_NS: u64 = 1_600_000;
const CLIENT_QUEUE_CAP: usize = 64;

pub fn fleet_spec(w: Workload) -> FleetSpec {
    match w {
        // Many clients, small batches: the front-end's per-offer cost grows
        // with the client count, so it dominates; the rest is per-batch
        // fixed cost, WAL append and a checkpoint image every 32 batches.
        // 5.0e6 txn/s is ≈0.9× the seed commit's 5.54e6 saturation rate at
        // batch 256.
        Workload::FleetServerYcsb => FleetSpec {
            clients: 20_000,
            offered_tps: 5.0e6,
            batch: 256,
            max_queued: 4_096,
            arrivals: 180_000,
            checkpoint_every: 32,
            sharding: None,
            standbys: 0,
        },
        // Few clients, large batches, the whole stack: route/split, four
        // shard engines, flag-word merge, per-shard WAL, joint checkpoint
        // and one warm standby row replaying every batch. 32e6 txn/s is
        // ≈0.8× saturation.
        Workload::FleetShardedYcsb => FleetSpec {
            clients: 2_000,
            offered_tps: 32.0e6,
            batch: 2_048,
            max_queued: 32_768,
            arrivals: 350_000,
            checkpoint_every: 16,
            sharding: Some((4, 10)),
            standbys: 1,
        },
        _ => unreachable!("{} is not a fleet workload", w.name()),
    }
}

fn fleet_ycsb(spec: &FleetSpec, seed: u64, scale: &Scale) -> YcsbConfig {
    let cfg = YcsbConfig::new(YcsbWorkload::A, scale.ycsb_records())
        .with_alpha(FLEET_ALPHA)
        .with_seed(seed);
    match spec.sharding {
        Some((shards, cross_pct)) => cfg.with_partitions(shards, cross_pct),
        None => cfg,
    }
}

fn front_config(spec: &FleetSpec) -> FrontConfig {
    let mut cfg = FrontConfig::new(spec.batch, SEAL_DEADLINE_NS);
    cfg.client_queue_cap = CLIENT_QUEUE_CAP;
    cfg.max_queued = spec.max_queued;
    cfg.max_backlog_ns = MAX_BACKLOG_NS;
    cfg.queue_timeout_ns = Some(QUEUE_TIMEOUT_NS);
    cfg
}

fn single_server(spec: &FleetSpec, seed: u64, scale: &Scale) -> (LtpgServer, YcsbGenerator) {
    let (db, _table, gen) = YcsbGenerator::new(fleet_ycsb(spec, seed, scale));
    let server = LtpgServer::new(
        db,
        LtpgConfig::default(),
        ServerConfig {
            batch_size: spec.batch,
            pipelined: true,
            checkpoint_every: Some(spec.checkpoint_every),
            ..ServerConfig::default()
        },
    );
    (server, gen)
}

fn sharded_server(spec: &FleetSpec, seed: u64, scale: &Scale) -> (ShardedServer, YcsbGenerator) {
    let (shards, _) = spec.sharding.expect("sharded spec");
    let wl = fleet_ycsb(spec, seed, scale);
    let (db, table, gen) = YcsbGenerator::new(wl.clone());
    let mut server = ShardedServer::new(
        db,
        ycsb_partitioner(shards, table, &wl),
        LtpgConfig::default(),
        ServerConfig {
            batch_size: spec.batch,
            pipelined: false,
            checkpoint_every: Some(spec.checkpoint_every),
            ..ServerConfig::default()
        },
    );
    if spec.standbys > 0 {
        server.attach_replicas(&ReplicaConfig {
            standbys: spec.standbys,
            ..ReplicaConfig::default()
        });
    }
    (server, gen)
}

/// Inputs are generated (and, on fleet workloads, offered) in chunks of this
/// many: at most one chunk of pre-built transactions is alive at a time,
/// and each chunk is one speed-metered interval (≈0.1 s).
const GEN_CHUNK: usize = 2_048;

/// Only the setup half of a fleet pass; returns wall ns at reference speed.
pub fn fleet_setup_only(spec: &FleetSpec, seed: u64, scale: &Scale, gen_txns: u64) -> u64 {
    fn over<S: FleetServer>(
        spec: &FleetSpec,
        seed: u64,
        scale: &Scale,
        gen_txns: u64,
        build: fn(&FleetSpec, u64, &Scale) -> (S, YcsbGenerator),
    ) -> u64 {
        let mut meter = SpeedMeter::start();
        let t = Instant::now();
        let (server, mut gen) = build(spec, seed, scale);
        let fe = FrontEnd::new(
            TimedSink::new(server, Recorder::shared(false)),
            front_config(spec),
        );
        let mut fleet = new_fleet(spec, seed);
        let raw = t.elapsed().as_nanos() as u64;
        let mut total = normalised(raw, meter.lap());
        total += generate_metered(&mut meter, gen_txns, &mut |n| {
            std::hint::black_box((fleet.schedule(n), gen.gen_batch(n)));
        });
        std::hint::black_box(&fe);
        total
    }
    match spec.sharding {
        None => over(spec, seed, scale, gen_txns, single_server),
        Some(_) => over(spec, seed, scale, gen_txns, sharded_server),
    }
}

fn new_fleet(spec: &FleetSpec, seed: u64) -> Fleet {
    Fleet::new(FleetConfig {
        clients: spec.clients,
        offered_tps: spec.offered_tps,
        skew: CLIENT_SKEW,
        seed,
    })
}

pub fn fleet_pass(spec: &FleetSpec, seed: u64, scale: &Scale, traced: bool) -> Pass {
    match spec.sharding {
        None => fleet_pass_over(spec, seed, scale, traced, single_server),
        Some(_) => fleet_pass_over(spec, seed, scale, traced, sharded_server),
    }
}

fn fleet_pass_over<S: FleetServer>(
    spec: &FleetSpec,
    seed: u64,
    scale: &Scale,
    traced: bool,
    build: fn(&FleetSpec, u64, &Scale) -> (S, YcsbGenerator),
) -> Pass {
    let total = scale.count(spec.arrivals, spec.batch * (SLICES + 1));
    let (warm, mut per_slice) = plan(total);
    // Checkpoints stall one tick in `checkpoint_every`; a slice that is a
    // whole number of checkpoint periods holds the same number of stalls as
    // its neighbours (batches run a little under full, so only nearly).
    let period = spec.checkpoint_every * spec.batch;
    if per_slice >= period {
        per_slice -= per_slice % period;
    }
    let total = warm + per_slice * SLICES;

    let mut pass = Pass::default();
    let (wal_frames0, wal_bytes0) = wal_counters();
    let mut meter = SpeedMeter::start();
    let t_setup = Instant::now();
    let (server, mut gen) = build(spec, seed, scale);
    let rec: SharedRecorder = Recorder::shared(traced);
    let mut fe = FrontEnd::new(TimedSink::new(server, Rc::clone(&rec)), front_config(spec));
    let mut fleet = new_fleet(spec, seed);
    let construct_ns = t_setup.elapsed().as_nanos() as u64;
    pass.setup_ns = normalised(construct_ns, meter.lap());
    meter.factors.clear();
    meter.parts.clear();

    pass.slice_commits = vec![0; SLICES];
    pass.slice_wall_ns = vec![0; SLICES];
    pass.slice_raw_wall_ns = vec![0; SLICES];
    // Speed factor of each tick the sink has logged, by tick index.
    let mut tick_speed: Vec<f64> = Vec::new();
    // Section 0 is warm-up; sections 1..=SLICES are the slices.
    let mut warm_ticks = 0usize;
    for section in 0..=SLICES {
        let mut left = if section == 0 { warm } else { per_slice };
        let committed_before = fe.stats().committed;
        let (mut wall, mut raw_wall) = (0u64, 0u64);
        while left > 0 {
            let n = left.min(GEN_CHUNK);
            left -= n;
            // -- input generation: stopwatch stopped --
            let t = Instant::now();
            let arrivals = fleet.schedule(n);
            let txns = gen.gen_batch(n);
            let gen_ns = t.elapsed().as_nanos() as u64;
            pass.gen_ns += gen_ns;
            pass.gen_txns += n as u64;
            // -- in-system --
            let t = Instant::now();
            for (a, txn) in arrivals.into_iter().zip(txns) {
                spanned(&rec, "front.offer", || fe.offer(a.client, a.at_ns, txn));
            }
            let chunk_ns = t.elapsed().as_nanos() as u64;
            let speed = meter.lap();
            pass.setup_ns += normalised(gen_ns, speed);
            tick_speed.resize(fe.sink().log.ticks.len(), speed);
            raw_wall += chunk_ns;
            wall += normalised(chunk_ns, speed);
        }
        if section == SLICES {
            // Flush and drain; the tail's commits belong to the last slice.
            let max_ticks = total / spec.batch * 12 + 64;
            let t = Instant::now();
            spanned(&rec, "front.finish", || fe.finish(max_ticks));
            let finish_ns = t.elapsed().as_nanos() as u64;
            let speed = meter.lap();
            tick_speed.resize(fe.sink().log.ticks.len(), speed);
            raw_wall += finish_ns;
            wall += normalised(finish_ns, speed);
        }
        pass.in_system_ns += raw_wall;
        if section == 0 {
            warm_ticks = fe.sink().log.ticks.len();
        } else {
            pass.slice_commits[section - 1] = fe.stats().committed - committed_before;
            pass.slice_wall_ns[section - 1] = wall;
            pass.slice_raw_wall_ns[section - 1] = raw_wall;
        }
    }
    pass.peak_rss_kb = peak_rss_kb();
    pass.speed_factors = meter.factors;
    pass.speed_parts = meter.parts;
    let (wal_frames1, wal_bytes1) = wal_counters();
    pass.wal_frames = wal_frames1 - wal_frames0;
    pass.wal_bytes = wal_bytes1 - wal_bytes0;

    let stats = fe.stats().clone();
    let sink = fe.sink();
    let log = &sink.log;
    let server = sink.inner();
    pass.submitted = stats.submitted;
    pass.committed = stats.committed;
    pass.failed = stats.shed() + fe.pending() as u64;
    pass.abort_events = server.abort_events();
    pass.attempts = server.committed() + server.abort_events();
    pass.units = log.tick_sim_ns.len() as u64;
    pass.unit_sim_ns = log.tick_sim_ns.clone();
    pass.warmup_units = warm_ticks;
    for (t, speed) in log.ticks[warm_ticks..]
        .iter()
        .zip(&tick_speed[warm_ticks..])
    {
        if t.executed {
            pass.unit_wall_ns.push(normalised(t.wall_ns, *speed));
            pass.unit_raw_wall_ns.push(t.wall_ns);
            pass.unit_speed.push(*speed);
        }
    }
    pass.checkpoint_tick_wall_ns = log.ticks[warm_ticks..]
        .iter()
        .filter(|t| t.executed && t.batch_no % spec.checkpoint_every as u64 == 0)
        .map(|t| t.wall_ns)
        .collect();
    let e2e = fe.telemetry().histogram(names::FRONT_E2E_NS);
    pass.sim_e2e_sum_ns = e2e.sum() as f64;
    pass.sim_e2e_count = e2e.count();
    pass.system_sim_ns = server.total_sim_ns();
    pass.submit_wall_ns = log.submit_wall_ns;
    pass.submit_txns = log.submitted_txns;
    pass.tick_wall_ns = log.tick_wall_ns;
    pass.history_digest = log.history_digest;
    pass.seal_digest = Some(fe.seal_digest());
    pass.state_digests = server
        .databases()
        .iter()
        .map(|db| db.state_digest())
        .collect();
    pass.rows = server
        .databases()
        .iter()
        .flat_map(|db| db.iter())
        .map(|(_, t)| t.live_rows() as u64)
        .sum();

    let engine_regs = server.engine_registries();
    pass.phases = PhaseSums::from_registries(&engine_regs);
    read_engine_counters(&engine_regs, &mut pass.counters);
    server.server_counters(&mut pass.counters);
    // Counted from outside (the sharded server keeps no checkpoint counter):
    // both servers checkpoint after every `checkpoint_every`-th batch.
    let checkpoints = log
        .ticks
        .iter()
        .filter(|t| t.executed && t.batch_no % spec.checkpoint_every as u64 == 0);
    pass.counters
        .insert(names::SERVER_CHECKPOINTS, checkpoints.count() as f64);
    let front = fe.telemetry();
    let wait = front.histogram(names::FRONT_QUEUE_WAIT_NS);
    let fill = front.histogram(names::FRONT_BATCH_FILL);
    for (key, value) in [
        ("front.queue_wait_ns.sum", wait.sum() as f64),
        ("front.queue_wait_ns.count", wait.count() as f64),
        ("front.batch_fill.sum", fill.sum() as f64),
        ("front.batch_fill.count", fill.count() as f64),
        ("front.e2e_ns.p99", e2e.quantile(0.99).unwrap_or(0) as f64),
        (names::FRONT_BATCHES_SEALED, stats.batches_sealed as f64),
        (names::FRONT_SEALS_DEADLINE, stats.seals_deadline as f64),
        (
            names::FRONT_SHED_RATE_LIMITED,
            stats.shed_rate_limited as f64,
        ),
        (
            names::FRONT_SHED_BACKPRESSURE,
            stats.shed_backpressure as f64,
        ),
        (names::FRONT_SHED_QUEUE_FULL, stats.shed_queue_full as f64),
        (names::FRONT_SHED_TIMED_OUT, stats.shed_timed_out as f64),
    ] {
        pass.counters.insert(key, value);
    }

    pass.checks.push(Check::new(
        "front_conserves",
        fe.conserves(),
        format!("{stats:?}"),
    ));
    pass.checks.push(Check::new(
        "front_drained",
        fe.pending() == 0,
        format!("{} pending after finish", fe.pending()),
    ));
    pass.checks.push(Check::new(
        "nothing_shed",
        stats.shed() == 0,
        format!("{} of {} submissions shed", stats.shed(), stats.submitted),
    ));
    pass.checks.push(Check::new(
        "server_agrees_with_front",
        server.committed() == stats.committed,
        format!(
            "server committed {}, front {}",
            server.committed(),
            stats.committed
        ),
    ));
    pass.checks.push(Check::new(
        "no_degraded_executor",
        !server.any_degraded(),
        "",
    ));
    let promotions = pass
        .counters
        .get(names::REPLICA_PROMOTIONS)
        .copied()
        .unwrap_or(0.0);
    pass.checks.push(Check::new(
        "no_promotions",
        promotions == 0.0,
        format!("{promotions} standby promotions in a fault-free run"),
    ));
    if spec.sharding.is_some() {
        let alive = pass
            .counters
            .get(names::REPLICA_STANDBYS)
            .copied()
            .unwrap_or(0.0);
        pass.checks.push(Check::new(
            "standbys_alive",
            alive == spec.standbys as f64,
            format!("{alive} of {} standby rows alive", spec.standbys),
        ));
    }
    // Σ TickOutcome.sim_ns must be the server's own account of its time.
    let gap = (log.sim_ns - pass.system_sim_ns).abs();
    pass.checks.push(Check::new(
        "tick_sim_sums_to_server_sim",
        gap <= 1e-9 * pass.system_sim_ns.max(1.0),
        format!("ticks {} ns, server {} ns", log.sim_ns, pass.system_sim_ns),
    ));
    pass.spans = rec.borrow_mut().take_spans();
    pass
}

// ===================================================================
// Standalone layer probes (traced runs only).
// ===================================================================

/// Host-time probes of storage and durability calls the servers make
/// internally, timed on their own over the workload's inputs.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    pub wal_log_ns_per_txn: f64,
    pub wal_bytes_per_txn: f64,
    pub checkpoint_ms: f64,
    pub deep_clone_ms: f64,
    pub state_digest_ms: f64,
    pub route_ns_per_txn: f64,
}

fn median_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    crate::stats::median(&samples)
}

/// Probe the storage/durability layer on a freshly loaded database of the
/// workload and `batches` batches of its generated input.
pub fn run_probes(w: Workload, seed: u64, scale: &Scale) -> Probes {
    const PROBE_BATCHES: usize = 16;
    let (db, batch_size, mut gen, router): (Database, usize, TxnGen, _) = if w.is_fleet() {
        let spec = fleet_spec(w);
        let wl = fleet_ycsb(&spec, seed, scale);
        let (db, table, mut gen) = YcsbGenerator::new(wl.clone());
        let router = spec
            .sharding
            .map(|(shards, _)| ltpg_shard::Router::new(ycsb_partitioner(shards, table, &wl)));
        (db, spec.batch, Box::new(move |n| gen.gen_batch(n)), router)
    } else {
        let inputs = (engine_spec(w).build)(seed, PROBE_BATCHES, scale);
        (inputs.db, ENGINE_BATCH, inputs.gen, None)
    };
    let mut tids = TidGen::new();
    let batches: Vec<Batch> = (0..PROBE_BATCHES)
        .map(|_| Batch::assemble(Vec::new(), gen(batch_size), &mut tids))
        .collect();
    let txns = (PROBE_BATCHES * batch_size) as f64;

    let mut probes = Probes::default();
    let mut durability = ltpg::DurabilityManager::new(&db);
    let t = Instant::now();
    for b in &batches {
        std::hint::black_box(durability.log_batch(b));
    }
    probes.wal_log_ns_per_txn = t.elapsed().as_nanos() as f64 / txns;
    probes.wal_bytes_per_txn = durability.log_bytes() as f64 / txns;
    probes.checkpoint_ms = median_ms(|| durability.checkpoint(&db));
    probes.deep_clone_ms = median_ms(|| {
        std::hint::black_box(db.deep_clone());
    });
    probes.state_digest_ms = median_ms(|| {
        std::hint::black_box(db.state_digest());
    });
    if let Some(router) = router {
        let t = Instant::now();
        for b in &batches {
            for txn in &b.txns {
                std::hint::black_box(router.route(txn));
            }
        }
        probes.route_ns_per_txn = t.elapsed().as_nanos() as f64 / txns;
    }
    probes
}
