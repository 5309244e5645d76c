//! The static table of experiments behind `ltpg-bench`.
//!
//! Adding an experiment is adding a function `fn(Scale) -> Record` and a
//! line here. An experiment that CI guards also names a `check`: its
//! invariants over a record it wrote, kept next to the code that produces
//! the record.

mod adaptive;
mod front;
mod paper;
mod sharded;

use crate::record::{Record, Scale};

/// An experiment's invariants over a record it wrote.
pub type Check = fn(&Record) -> Result<(), String>;

/// One entry of the harness's table.
pub struct Experiment {
    /// Name on the command line and stem of the record file.
    pub name: &'static str,
    /// One line for `ltpg-bench list`.
    pub about: &'static str,
    /// Run the grid at a scale.
    pub run: fn(Scale) -> Record,
    /// The invariants CI holds a written record to, if any.
    pub check: Option<Check>,
}

const fn paper(name: &'static str, about: &'static str, run: fn(Scale) -> Record) -> Experiment {
    Experiment { name, about, run, check: None }
}

/// Every experiment, in the order `ltpg-bench all` runs them.
pub static EXPERIMENTS: [Experiment; 17] = [
    Experiment {
        name: "table2",
        about: "Table II: TPC-C throughput of all nine systems",
        run: paper::table2,
        check: Some(paper::check_table2),
    },
    paper("table3", "Table III: LTPG throughput vs batch size", paper::table3),
    paper("table4", "Table IV: batch and transfer latency, LTPG vs GaccO", paper::table4),
    paper("table5", "Table V: read/write-set copy overhead", paper::table5),
    paper("table6", "Table VI: commits with/without the contention suite", paper::table6),
    paper("table7", "Table VII: conflict-log mark/read latency by bucket size", paper::table7),
    paper("table8", "Table VIII: memory share of large vs standard buckets", paper::table8),
    paper("table9", "Table IX: phase times, zero-copy vs unified memory", paper::table9),
    paper("fig6a", "Fig. 6(a): commit rate and latency vs batch size", paper::fig6a),
    paper("fig6b", "Fig. 6(b): throughput as optimizations are layered", paper::fig6b),
    paper("fig7", "Fig. 7: YCSB A-E throughput vs batch size and cardinality", paper::fig7),
    Experiment {
        name: "shard_scaling",
        about: "sharded YCSB-A throughput vs device count and cross-shard share",
        run: sharded::shard_scaling,
        check: Some(sharded::check_shard_scaling),
    },
    Experiment {
        name: "failover",
        about: "failover latency and retained throughput under primary loss",
        run: sharded::failover,
        check: Some(sharded::check_failover),
    },
    Experiment {
        name: "rebalance",
        about: "8-16 shards with a mid-run split and merge vs a fresh topology",
        run: sharded::rebalance,
        check: Some(sharded::check_rebalance),
    },
    Experiment {
        name: "front",
        about: "offered load vs end-to-end latency and shed rate through ltpg-front",
        run: front::front,
        check: Some(front::check_against_committed),
    },
    Experiment {
        name: "adaptive",
        about: "LTPG, Block-STM, address graph and the adaptive engine per regime",
        run: adaptive::adaptive,
        check: Some(adaptive::check),
    },
    paper(
        "timing_probe",
        "calibration probe: per-system throughput and latency",
        paper::timing_probe,
    ),
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}
