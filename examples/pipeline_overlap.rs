//! Batch-to-batch pipelining (paper §V-E) in action.
//!
//! Runs the same TPC-C stream twice through LTPG: once with every batch
//! strictly sequential (upload → compute → download), once with the three
//! stages overlapped on separate streams, where aborted transactions can
//! only re-enter two batches later. Prints the makespans and the speedup —
//! the paper reports 10–15 % from this optimization.
//!
//! Run with: `cargo run --release -p ltpg --example pipeline_overlap`

use ltpg::{drive_stream, LtpgConfig, LtpgEngine, OptFlags};
use ltpg_gpu_sim::Pipeline;
use ltpg_workloads::tpcc::cols;
use ltpg_workloads::{TpccConfig, TpccGenerator};

fn engine_and_gen(batch: usize) -> (LtpgEngine, TpccGenerator) {
    let cfg = TpccConfig::new(8, 50).with_headroom(batch * 64);
    let (db, tables, gen) = TpccGenerator::new(cfg);
    let mut lcfg = LtpgConfig::with_opts(OptFlags::all());
    lcfg.max_batch = batch;
    lcfg.est_accesses_per_txn = 12;
    lcfg.commutative_cols.insert((tables.district, cols::D_NEXT_O_ID));
    lcfg.delayed_cols.insert((tables.warehouse, cols::W_YTD));
    lcfg.delayed_cols.insert((tables.district, cols::D_YTD));
    lcfg.premarked_popular.insert(tables.warehouse);
    lcfg.premarked_popular.insert(tables.district);
    (LtpgEngine::new(db, lcfg), gen)
}

fn main() {
    let batch = 4_096usize;
    let batches = 8usize;

    for pipelined in [false, true] {
        let (mut engine, mut gen) = engine_and_gen(batch);
        let mut pipe = Pipeline::new();
        let out = drive_stream(|n| gen.gen_batch(n), batches, batch, pipelined, |b| {
            let rws = engine.execute_batch_report(b);
            pipe.push(rws.stats.stages());
            rws.report
        });
        let label = if pipelined { "pipelined " } else { "sequential" };
        let makespan =
            if pipelined { pipe.overlapped_makespan_ns() } else { pipe.serial_makespan_ns() };
        println!(
            "{label}: {} batches, {} committed, makespan {:.0} µs ({:.2} MTPS), abort re-entry delay {} batch(es)",
            out.batches,
            out.committed,
            makespan / 1e3,
            out.committed as f64 / (makespan * 1e-9) / 1e6,
            if pipelined { 2 } else { 1 },
        );
        if pipelined {
            println!(
                "overlap speedup vs its own serial schedule: {:.2}x (paper reports 10-15%)",
                pipe.speedup()
            );
        }
    }
}
