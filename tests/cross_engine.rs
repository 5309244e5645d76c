//! Cross-engine agreement: all nine systems consume the *same* TPC-C
//! transaction stream. Each engine's final state must match a serial
//! replay of exactly the transactions it committed (per its semantics),
//! and the engines that commit everything (the deterministic baselines)
//! must agree with each other bit-for-bit.

use ltpg_baselines::{BambooEngine, Dbx1000Engine};
use ltpg_bench::{build_tpcc_engine, SystemKind};
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::oracle::{check_ordered_serializable, check_snapshot_serializable};
use ltpg_txn::{Batch, BatchEngine, Tid, TidGen, Txn};
use ltpg_workloads::tpcc::check_invariants;
use ltpg_workloads::{TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbWorkload};

const W: i64 = 2;
const BATCH: usize = 384;

fn shared_batch() -> (ltpg_storage::Database, ltpg_workloads::TpccTables, TpccConfig, Batch) {
    let cfg = TpccConfig::new(W, 50).with_headroom(BATCH * 8).with_seed(21);
    let (db, tables, mut gen) = TpccGenerator::new(cfg.clone());
    let mut tids = TidGen::new();
    let batch = Batch::assemble(vec![], gen.gen_batch(BATCH), &mut tids);
    (db, tables, cfg, batch)
}

#[test]
fn every_engine_is_consistent_with_its_commit_story() {
    let (db0, tables, _cfg, batch) = shared_batch();
    for kind in SystemKind::ALL {
        let db = db0.deep_clone();
        let pre = db0.deep_clone();
        let mut engine = build_tpcc_engine(kind, db, &tables, BATCH);
        let report = engine.execute_batch(&batch);
        assert!(
            !report.committed.is_empty(),
            "{} committed nothing on a shared batch",
            kind.name()
        );
        let committed: Vec<&Txn> =
            report.committed.iter().map(|t| batch.by_tid(*t).unwrap()).collect();
        match report.semantics {
            CommitSemantics::SnapshotBatch => {
                check_snapshot_serializable(&pre, &committed, engine.database())
                    .unwrap_or_else(|v| panic!("{}: {v:?}", kind.name()));
            }
            CommitSemantics::SerialOrder => {
                check_ordered_serializable(&pre, &committed, engine.database())
                    .unwrap_or_else(|v| panic!("{}: {v:?}", kind.name()));
            }
        }
        // TPC-C consistency holds for the committed subset of any engine.
        check_invariants(engine.database(), &tables, W)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
}

#[test]
fn commit_everything_engines_agree_bit_for_bit() {
    let (db0, tables, _cfg, batch) = shared_batch();
    // These engines commit the whole batch in TID-order-equivalent
    // schedules, so their final states must be identical.
    let all_commit =
        [SystemKind::Calvin, SystemKind::Bohm, SystemKind::Pwv, SystemKind::Gputx, SystemKind::Gacco];
    let mut digests = Vec::new();
    for kind in all_commit {
        let db = db0.deep_clone();
        let mut engine = build_tpcc_engine(kind, db, &tables, BATCH);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), BATCH, "{} must commit everything", kind.name());
        digests.push((kind.name(), engine.database().state_digest()));
    }
    let first = digests[0].1;
    for (name, d) in &digests {
        assert_eq!(*d, first, "{name} disagrees with {}", digests[0].0);
    }
}

/// What one run of an engine over one batch decided: the commit order,
/// the aborts, the simulated time's bits and the final state's digest.
type Outcome = (Vec<Tid>, Vec<Tid>, u64, u64);

fn outcome(engine: &mut dyn BatchEngine, batch: &Batch) -> Outcome {
    let r = engine.execute_batch(batch);
    (r.committed, r.aborted, r.sim_ns.to_bits(), engine.database().state_digest())
}

#[test]
fn dbx1000_and_bamboo_are_deterministic() {
    // TicToc's modelled workers and Bamboo's locked schedule run on one
    // host thread, so a run is a function of its input: two runs over one
    // stream are one run. Their equivalent serial order is not TID order,
    // so only the per-engine oracle (above) and the invariants constrain
    // their state. One TPC-C stream, which both commit whole, and one
    // YCSB-A stream at Zipf 0.99, on which TicToc's workers must really
    // interleave: some of its attempts fail validation and run again.
    let (tpcc_db, tables, _cfg, tpcc) = shared_batch();
    let ycsb_cfg = YcsbConfig::new(YcsbWorkload::A, 10_000).with_alpha(0.99).with_seed(5);
    let (ycsb_db, _table, mut gen) = YcsbGenerator::new(ycsb_cfg);
    let ycsb = Batch::assemble(vec![], gen.gen_batch(BATCH), &mut TidGen::new());
    for (stream, db0, batch) in [("TPC-C", &tpcc_db, &tpcc), ("YCSB-A", &ycsb_db, &ycsb)] {
        let run = || {
            let mut dbx = Dbx1000Engine::new(db0.deep_clone());
            let mut bamboo = BambooEngine::new(db0.deep_clone());
            let dbx_outcome = outcome(&mut dbx, batch);
            (dbx_outcome, dbx.attempts(), outcome(&mut bamboo, batch), dbx, bamboo)
        };
        let (dbx, attempts, bamboo, dbx_engine, bamboo_engine) = run();
        let again = run();
        assert_eq!((&dbx, attempts), (&again.0, again.1), "{stream}: DBx1000 ran differently twice");
        assert_eq!(bamboo, again.2, "{stream}: Bamboo ran differently twice");
        if stream == "TPC-C" {
            for (name, committed, db) in [
                ("DBx1000", dbx.0.len(), dbx_engine.database()),
                ("Bamboo", bamboo.0.len(), bamboo_engine.database()),
            ] {
                assert_eq!(committed, BATCH, "{name} left transactions behind");
                check_invariants(db, &tables, W).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        } else {
            assert!(attempts > BATCH as u64, "YCSB-A: {attempts} DBx1000 attempts, no retry");
        }
    }
}

#[test]
fn schedulers_match_serial_commit_sets_on_seeded_schedules() {
    // The Block-STM and address-graph schedulers both promise bit-identical
    // equivalence to serial TID-order execution — including *which*
    // transactions commit (the only aborts either may produce are user
    // aborts, e.g. duplicate inserts, which serial execution aborts too).
    // 32 seeded generated schedules, three sites each (Block-STM,
    // address graph, serial replay), compared pairwise per batch.
    for seed in 0..32u64 {
        let case = ltpg_qa::gen::generate(seed);
        let db0 = case.build_database();
        let mut stm = ltpg_baselines::BlockStmEngine::new(db0.deep_clone());
        let mut ag = ltpg_baselines::AddrGraphEngine::new(db0.deep_clone());
        let mut serial_db = db0.deep_clone();
        let mut tids = TidGen::new();
        for chunk in case.batches() {
            let batch = Batch::assemble(Vec::new(), chunk.to_vec(), &mut tids);
            let stm_report = stm.execute_batch(&batch);
            let ag_report = ag.execute_batch(&batch);
            let mut serial_committed = Vec::new();
            for txn in &batch.txns {
                if ltpg_txn::execute_serial(&mut serial_db, txn).is_ok() {
                    serial_committed.push(txn.tid);
                }
            }
            assert_eq!(
                stm_report.committed, serial_committed,
                "seed {seed}: Block-STM commit set diverges from serial TID order"
            );
            assert_eq!(
                ag_report.committed, serial_committed,
                "seed {seed}: address-graph commit set diverges from serial TID order"
            );
        }
        let serial_digest = serial_db.state_digest();
        assert_eq!(
            stm.database().state_digest(),
            serial_digest,
            "seed {seed}: Block-STM final state diverges"
        );
        assert_eq!(
            ag.database().state_digest(),
            serial_digest,
            "seed {seed}: address-graph final state diverges"
        );
    }
}

#[test]
fn adaptive_choice_trace_and_state_are_deterministic() {
    // Same seed, same stream → the adaptive engine must pick the same
    // scheduler for every batch and land on the same final state. The
    // stream crosses regimes (read-only, then write-heavy hot) so the
    // trace actually exercises the policy, not just one branch.
    use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};
    let run = || {
        let cfg = YcsbConfig::new(YcsbWorkload::C, 2_000).with_alpha(2.5).with_headroom(4096);
        let (db, table, _) = YcsbGenerator::new(cfg.clone());
        let mut engine = ltpg::AdaptiveEngine::new(db, ltpg::LtpgConfig::default());
        let mut tids = TidGen::new();
        for round in 0..6 {
            // Hot read-only (→ address graph) then low-skew write-heavy
            // (→ LTPG), so the trace must contain a switch.
            let (wl, alpha) =
                if round < 3 { (YcsbWorkload::C, 2.5) } else { (YcsbWorkload::A, 0.4) };
            let mut gen = YcsbGenerator::from_parts(
                YcsbConfig::new(wl, 2_000).with_alpha(alpha).with_headroom(4096).with_seed(round),
                table,
            );
            let batch = Batch::assemble(Vec::new(), gen.gen_batch(256), &mut tids);
            engine.execute_batch(&batch);
        }
        (engine.choices().to_vec(), engine.into_database().state_digest())
    };
    let (choices_a, digest_a) = run();
    let (choices_b, digest_b) = run();
    assert_eq!(choices_a, choices_b, "adaptive choice trace must be seed-deterministic");
    assert_eq!(digest_a, digest_b, "adaptive final state must be seed-deterministic");
    assert!(
        choices_a.windows(2).any(|w| w[0] != w[1]),
        "stream should cross regimes so the trace exercises a switch: {choices_a:?}"
    );
}

#[test]
fn ltpg_with_and_without_optimizations_agree_on_committed_effects() {
    // Different flag sets commit different subsets, but each subset must
    // independently pass the snapshot oracle against the same pre-state.
    let (db0, tables, _cfg, batch) = shared_batch();
    for opts in [ltpg::OptFlags::all(), ltpg::OptFlags::all().with_contention_suite(false), ltpg::OptFlags::none()]
    {
        let db = db0.deep_clone();
        let pre = db0.deep_clone();
        let mut engine =
            ltpg::LtpgEngine::new(db, ltpg_bench::ltpg_tpcc_config(&tables, BATCH, opts));
        let report = ltpg_txn::BatchEngine::execute_batch(&mut engine, &batch);
        let committed: Vec<&Txn> =
            report.committed.iter().map(|t| batch.by_tid(*t).unwrap()).collect();
        check_snapshot_serializable(&pre, &committed, ltpg_txn::BatchEngine::database(&engine))
            .unwrap_or_else(|v| panic!("opts {opts:?}: {v:?}"));
    }
}
