#![warn(missing_docs)]

//! # ltpg-bench — the experiment harness
//!
//! One `ltpg-bench` binary over a static table of [`experiments`] — one per
//! table/figure of the paper's evaluation (see DESIGN.md's experiment
//! index) and one per later subsystem sweep — plus Criterion
//! micro-benchmarks. Every experiment is a function from a
//! [`record::Scale`] to one [`record::Record`]. This library also holds the
//! machinery they share: the engine factory over all nine systems and
//! [`run_stream`], the per-batch fold every experiment runs over
//! `ltpg::drive_stream`.
//!
//! ## Scales
//!
//! The paper's full grid (64 warehouses, 2¹⁶ batches, 5 000 batches,
//! YCSB at 10⁷ rows) is heavy for a small machine, so every experiment
//! runs a **reduced but shape-preserving** grid by default and the full
//! grid with `--full`. Reduced runs keep the experiment's axes and its
//! qualitative outcome; EXPERIMENTS.md records both.

pub mod experiments;
pub mod record;

use std::time::Instant;

use ltpg::{drive_stream, LtpgConfig, LtpgEngine, OptFlags};
use ltpg_baselines::{
    AriaEngine, BambooEngine, BohmEngine, CalvinEngine, Dbx1000Engine, GaccoEngine, GputxEngine,
    PwvEngine,
};
use ltpg_storage::Database;
use ltpg_telemetry::Registry;
use ltpg_txn::{BatchEngine, Txn};
use ltpg_workloads::tpcc::{cols, TpccTables};

/// The nine systems of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// DBx1000 running TicToc.
    Dbx1000,
    /// Bamboo (2PL with early lock release).
    Bamboo,
    /// BOHM (deterministic MVCC).
    Bohm,
    /// PWV (early write visibility).
    Pwv,
    /// Calvin (deterministic locking).
    Calvin,
    /// Aria (deterministic batch OCC).
    Aria,
    /// GPUTx (T-dependency graph on the simulated GPU).
    Gputx,
    /// GaccO (sorted conflict order on the simulated GPU).
    Gacco,
    /// LTPG (this paper).
    Ltpg,
}

impl SystemKind {
    /// All systems, in Table II row order.
    pub const ALL: [SystemKind; 9] = [
        SystemKind::Dbx1000,
        SystemKind::Bamboo,
        SystemKind::Bohm,
        SystemKind::Pwv,
        SystemKind::Calvin,
        SystemKind::Aria,
        SystemKind::Gputx,
        SystemKind::Gacco,
        SystemKind::Ltpg,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Dbx1000 => "DBx1000",
            SystemKind::Bamboo => "Bamboo",
            SystemKind::Bohm => "BOHM",
            SystemKind::Pwv => "PWV",
            SystemKind::Calvin => "Calvin",
            SystemKind::Aria => "Aria",
            SystemKind::Gputx => "GPUTx",
            SystemKind::Gacco => "GaccO",
            SystemKind::Ltpg => "LTPG",
        }
    }

    /// The batch size each system naturally runs at (GPU systems want
    /// device-saturating batches; CPU deterministic systems use small
    /// batches; nondeterministic CPU systems just stream).
    pub fn preferred_batch(self, gpu_batch: usize) -> usize {
        match self {
            SystemKind::Ltpg | SystemKind::Gacco | SystemKind::Gputx => gpu_batch,
            SystemKind::Aria => gpu_batch.min(256),
            SystemKind::Calvin | SystemKind::Bohm | SystemKind::Pwv => gpu_batch.min(1_024),
            SystemKind::Dbx1000 | SystemKind::Bamboo => gpu_batch.min(2_048),
        }
    }
}

/// The LTPG configuration used for TPC-C throughout the harness:
/// `D_NEXT_O_ID` is a sequencer (always commutative); `W_YTD` and `D_YTD`
/// are the designated hot columns for splitting + delayed update; the
/// WAREHOUSE and DISTRICT tables are pre-marked popular.
pub fn ltpg_tpcc_config(tables: &TpccTables, max_batch: usize, opts: OptFlags) -> LtpgConfig {
    let mut cfg = LtpgConfig::with_opts(opts);
    cfg.max_batch = max_batch;
    cfg.est_accesses_per_txn = 12;
    cfg.commutative_cols.insert((tables.district, cols::D_NEXT_O_ID));
    cfg.delayed_cols.insert((tables.warehouse, cols::W_YTD));
    cfg.delayed_cols.insert((tables.district, cols::D_YTD));
    cfg.premarked_popular.insert(tables.warehouse);
    cfg.premarked_popular.insert(tables.district);
    cfg
}

/// Build an engine of `kind` over `db` (TPC-C layout).
pub fn build_tpcc_engine(
    kind: SystemKind,
    db: Database,
    tables: &TpccTables,
    max_batch: usize,
) -> Box<dyn BatchEngine> {
    match kind {
        SystemKind::Ltpg => {
            Box::new(LtpgEngine::new(db, ltpg_tpcc_config(tables, max_batch, OptFlags::all())))
        }
        SystemKind::Gacco => Box::new(GaccoEngine::new(db)),
        SystemKind::Gputx => Box::new(GputxEngine::new(db)),
        SystemKind::Aria => Box::new(AriaEngine::new(db)),
        SystemKind::Calvin => Box::new(CalvinEngine::new(db)),
        SystemKind::Bohm => Box::new(BohmEngine::new(db)),
        SystemKind::Pwv => Box::new(PwvEngine::new(db)),
        SystemKind::Dbx1000 => Box::new(Dbx1000Engine::new(db)),
        SystemKind::Bamboo => Box::new(BambooEngine::new(db)),
    }
}

/// Aggregate outcome of running a transaction stream through an engine.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Batches executed (rounds with nothing to run execute none).
    pub batches: usize,
    /// Fresh transactions admitted.
    pub admitted: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Abort events (a transaction may abort several times).
    pub abort_events: u64,
    /// Total simulated time, ns.
    pub sim_ns: f64,
    /// Mean per-batch simulated latency, ns (serial sum of phases).
    pub mean_batch_ns: f64,
    /// Mean per-batch *critical-path* latency, ns: the steady-state cost a
    /// batch adds under phase pipelining. Equals `mean_batch_ns` for
    /// engines without phase overlap; strictly lower for LTPG. Latency
    /// tables/figures report this one to avoid overstating pipelined
    /// latency.
    pub mean_critical_ns: f64,
    /// Mean per-batch transfer latency, ns (GPU engines).
    pub mean_transfer_ns: f64,
    /// Mean per-batch commit rate.
    pub mean_commit_rate: f64,
    /// Host wall-clock for the whole run, ns.
    pub wall_ns: u64,
}

impl RunOutcome {
    /// Committed transactions per second of simulated time.
    pub fn tps(&self) -> f64 {
        if self.sim_ns <= 0.0 {
            0.0
        } else {
            self.committed as f64 / (self.sim_ns * 1e-9)
        }
    }

    /// TPS in the paper's Table II unit (10⁶ TXs/s).
    pub fn mtps(&self) -> f64 {
        self.tps() / 1e6
    }
}

/// Run `batches` rounds of `batch_size` through `engine` in the closed
/// loop of [`drive_stream`]: fresh transactions come from `gen`, aborted
/// ones re-enter the next batch with their original TIDs. Each batch's
/// outcome is published to `registry`; the means are over the batches
/// executed.
pub fn run_stream(
    engine: &mut dyn BatchEngine,
    registry: &Registry,
    gen: &mut dyn FnMut(usize) -> Vec<Txn>,
    batches: usize,
    batch_size: usize,
) -> RunOutcome {
    let wall = Instant::now();
    let (mut sim_ns, mut critical_ns, mut transfer_ns, mut commit_rate) = (0.0, 0.0, 0.0, 0.0);
    let stream = drive_stream(gen, batches, batch_size, false, |batch| {
        let report = engine.execute_batch(batch);
        engine.record_telemetry(registry, &report);
        sim_ns += report.sim_ns;
        critical_ns += report.critical_path_ns;
        transfer_ns += report.transfer_ns;
        commit_rate += report.commit_rate(batch.len());
        report
    });
    let b = stream.batches.max(1) as f64;
    RunOutcome {
        batches: stream.batches,
        admitted: stream.admitted,
        committed: stream.committed,
        abort_events: stream.abort_events,
        sim_ns,
        mean_batch_ns: sim_ns / b,
        mean_critical_ns: critical_ns / b,
        mean_transfer_ns: transfer_ns / b,
        mean_commit_rate: commit_rate / b,
        wall_ns: wall.elapsed().as_nanos() as u64,
    }
}

/// The per-batch latency a table or figure should quote for `out`, in
/// microseconds: the steady-state *critical-path* cost (what one more
/// batch adds under phase pipelining), not the serial phase sum — see
/// [`RunOutcome::mean_critical_ns`].
pub fn latency_us(out: &RunOutcome) -> f64 {
    out.mean_critical_ns / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_workloads::{TpccConfig, TpccGenerator};

    #[test]
    fn every_system_runs_a_small_tpcc_stream() {
        let cfg = TpccConfig::new(1, 50).with_headroom(4_096);
        let (db0, tables, _gen) = TpccGenerator::new(cfg.clone());
        for kind in SystemKind::ALL {
            let db = db0.deep_clone();
            let mut engine = build_tpcc_engine(kind, db, &tables, 128);
            let mut gen = TpccGenerator::from_parts(cfg.clone(), tables);
            let registry = Registry::new();
            let out = run_stream(&mut *engine, &registry, &mut |n| gen.gen_batch(n), 3, 64);
            assert!(out.committed > 0, "{} committed nothing", kind.name());
            let counter = |m: &str| registry.counter_value(&format!("engine.{}.{m}", kind.name()));
            assert_eq!(
                (counter("batches"), counter("committed"), counter("abort_events")),
                (out.batches as u64, out.committed, out.abort_events),
                "{} published another run than it folded",
                kind.name()
            );
            assert!(out.sim_ns > 0.0, "{} accounted no time", kind.name());
            assert!(
                out.mean_critical_ns > 0.0 && out.mean_critical_ns <= out.mean_batch_ns + 1e-9,
                "{}: critical path must be positive and never exceed the serial sum",
                kind.name()
            );
            assert!(
                out.committed + out.abort_events >= out.admitted,
                "{} lost transactions",
                kind.name()
            );
        }
    }

    /// A generator that runs dry ends the run's batches early: the means
    /// are over the batches that ran, not over the rounds asked for.
    #[test]
    fn a_dry_generator_averages_over_the_batches_that_ran() {
        let cfg = TpccConfig::new(1, 50).with_headroom(4_096);
        let (db, tables, mut gen) = TpccGenerator::new(cfg);
        let mut engine = build_tpcc_engine(SystemKind::Ltpg, db, &tables, 128);
        let mut left = 2 * 64;
        let mut dry = |n: usize| {
            let n = n.min(left);
            left -= n;
            gen.gen_batch(n)
        };
        let out = run_stream(&mut *engine, &Registry::new(), &mut dry, 8, 64);
        assert!(out.batches >= 2 && out.batches < 8, "{out:?}");
        assert_eq!(out.admitted, 2 * 64);
        assert_eq!(out.mean_batch_ns, out.sim_ns / out.batches as f64);
        assert!(out.mean_commit_rate > 0.0 && out.mean_commit_rate <= 1.0, "{out:?}");
    }

    #[test]
    fn quoted_latency_is_the_critical_path() {
        let out = RunOutcome {
            batches: 1,
            admitted: 0,
            committed: 0,
            abort_events: 0,
            sim_ns: 0.0,
            mean_batch_ns: 9_000.0,
            mean_critical_ns: 5_000.0,
            mean_transfer_ns: 0.0,
            mean_commit_rate: 0.0,
            wall_ns: 0,
        };
        assert!((latency_us(&out) - 5.0).abs() < 1e-12, "must quote critical path, not serial sum");
    }

    #[test]
    fn preferred_batches_cap_cpu_engines() {
        assert_eq!(SystemKind::Ltpg.preferred_batch(1 << 14), 1 << 14);
        assert_eq!(SystemKind::Aria.preferred_batch(1 << 14), 256);
        assert_eq!(SystemKind::Dbx1000.preferred_batch(1 << 14), 2_048);
    }
}
