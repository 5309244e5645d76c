//! Determinism: the paper's core guarantee is that the same input batch
//! with the same TIDs always produces the same commit set and final state
//! (that is what makes replica-free re-execution and log-based recovery
//! work). These tests re-run identical streams through fresh engines and
//! demand bit-identical outcomes — including across simulator host-thread
//! counts for LTPG, down to every flag word and simulated-clock bit.

use ltpg::{commit_decision, drive_stream, flag, ExecScope, LtpgConfig, LtpgEngine, OptFlags};
use ltpg_bench::{build_tpcc_engine, ltpg_tpcc_config, run_stream, SystemKind};
use ltpg_storage::{ColId, Database, TableBuilder, TableId};
use ltpg_telemetry::{names, Registry};
use ltpg_txn::group::order_by_proc;
use ltpg_qa::reference;
use ltpg_txn::exec::apply_mutation;
use ltpg_txn::oracle::check_snapshot_serializable;
use ltpg_txn::{execute_speculative, Batch, BatchEngine, BatchReport, IrOp, ProcId, Src, Tid, TidGen, Txn};
use ltpg_workloads::tpcc::PROC_DELIVERY;
use ltpg_workloads::{TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbWorkload};

fn tpcc_stream(
    kind: SystemKind,
    seed: u64,
    batches: usize,
    batch_size: usize,
) -> (Vec<Tid>, u64) {
    let cfg = TpccConfig::new(2, 50).with_headroom(batch_size * batches * 4).with_seed(seed);
    let (db, tables, mut gen) = TpccGenerator::new(cfg);
    let mut engine = build_tpcc_engine(kind, db, &tables, batch_size);
    let mut committed = Vec::new();
    drive_stream(|n| gen.gen_batch(n), batches, batch_size, false, |batch| {
        let report = engine.execute_batch(batch);
        committed.extend(report.committed.iter().copied());
        report
    });
    (committed, engine.database().state_digest())
}

#[test]
fn ltpg_is_deterministic_across_runs() {
    let a = tpcc_stream(SystemKind::Ltpg, 7, 3, 512);
    let b = tpcc_stream(SystemKind::Ltpg, 7, 3, 512);
    assert_eq!(a.0, b.0, "commit sets must be identical");
    assert_eq!(a.1, b.1, "final states must be identical");
    // A different seed must (overwhelmingly) differ.
    let c = tpcc_stream(SystemKind::Ltpg, 8, 3, 512);
    assert_ne!(a.1, c.1);
}

/// What one batch decided and what the simulated device charged for it,
/// bit for bit: commits, every flag word, the state digest, both clocks,
/// the atomics' serial depth and the divergent warps.
#[derive(Debug, PartialEq)]
struct BatchBits {
    committed: Vec<Tid>,
    flags: Vec<u32>,
    digest: u64,
    sim_ns: u64,
    critical_path_ns: u64,
    atomic_serial_depth: u64,
    divergent_warps: u64,
}

/// A fresh engine on the given host threads, and the batch to run on it.
type Build = dyn Fn(usize) -> (LtpgEngine, Batch);

/// Run `batch` through `engine`, prepare and finish (within `scope`, if
/// any), and read it back bit for bit; the batch's report is the second
/// half.
fn run_batch(engine: &mut LtpgEngine, batch: &Batch, scope: Option<&ExecScope<'_>>) -> (BatchBits, BatchReport) {
    let prepared = engine.try_prepare_batch(batch, scope).unwrap();
    let flags = (0..prepared.len()).map(|i| prepared.flag_word(i)).collect();
    let rws = engine.try_finish_batch(batch, prepared, scope).unwrap();
    let bits = BatchBits {
        committed: rws.report.committed.clone(),
        flags,
        digest: engine.database().state_digest(),
        sim_ns: rws.report.sim_ns.to_bits(),
        critical_path_ns: rws.report.critical_path_ns.to_bits(),
        atomic_serial_depth: rws.stats.atomic_serial_depth,
        divergent_warps: rws.stats.divergent_warps,
    };
    (bits, rws.report)
}

/// One 4 096-lane batch through a fresh engine on `threads` host threads,
/// and the lanes whose pre-pass a helper thread produced.
fn batch_bits(threads: usize, build: &Build) -> (BatchBits, u64) {
    let (mut engine, batch) = build(threads);
    assert_eq!(batch.len(), 4_096);
    let (bits, _) = run_batch(&mut engine, &batch, None);
    assert_eq!(engine.device().config().parallel_host_threads, threads);
    (bits, engine.device().stats().helper_lanes)
}

/// The execute kernel's pre-pass runs on helper threads; nothing the batch
/// decides or charges may depend on how many. Each batch spans 128 warps,
/// so at two threads a helper must have produced some lanes.
#[test]
fn ltpg_is_deterministic_across_host_parallelism() {
    let tpcc = |threads: usize| {
        let cfg = TpccConfig::new(2, 50).with_headroom(4 * 4_096).with_seed(3);
        let (db, tables, mut gen) = TpccGenerator::new(cfg);
        let mut lcfg = ltpg_tpcc_config(&tables, 4_096, OptFlags::all());
        lcfg.device.parallel_host_threads = threads;
        let batch = Batch::assemble(vec![], gen.gen_batch(4_096), &mut TidGen::new());
        (LtpgEngine::new(db, lcfg), batch)
    };
    let ycsb = |threads: usize| {
        let cfg = YcsbConfig::new(YcsbWorkload::A, 65_536).with_alpha(0.6).with_seed(3);
        let (db, _table, mut gen) = YcsbGenerator::new(cfg);
        let mut lcfg = LtpgConfig { max_batch: 4_096, ..LtpgConfig::default() };
        lcfg.device.parallel_host_threads = threads;
        let batch = Batch::assemble(vec![], gen.gen_batch(4_096), &mut TidGen::new());
        (LtpgEngine::new(db, lcfg), batch)
    };
    let workloads: [(&str, &Build); 2] = [("TPC-C", &tpcc), ("YCSB-A", &ycsb)];
    for (name, build) in workloads {
        let (one, helped) = batch_bits(1, build);
        assert_eq!(helped, 0, "{name}: one host thread has no helper");
        assert!(one.flags.iter().any(|&f| f != 0), "{name}: the batch must conflict");
        for threads in [2, 4] {
            let (bits, helped) = batch_bits(threads, build);
            assert_eq!(bits, one, "{name}: the batch depends on host threading ({threads})");
            if threads == 2 {
                assert!(helped > 0, "{name}: no helper produced a lane at two threads");
            }
        }
    }
}

/// A table's ordered index is built by its first range scan, and nothing
/// the engine decides or charges may depend on when. A full-mix TPC-C
/// database is served two 50/50 batches first (NewOrder inserts into
/// NEW_ORDER and ORDER_LINE, and nothing scans, so neither tree is built),
/// then full-mix batches, whose Delivery and OrderStatus scans build both
/// trees in the third batch's execute phase — where a helper thread runs
/// speculation, possibly on it. Every batch's flag words and clock bits and
/// the final digest must equal those of the run whose two trees were built
/// (`Table::ordered`) before the first batch, at 1, 2 and 4 host threads.
#[test]
fn when_an_ordered_index_is_built_changes_nothing() {
    const BATCH: usize = 1_024;
    let run = |threads: usize, built_first: bool| {
        let cfg = TpccConfig::new(2, 50).with_full_mix().with_headroom(6 * BATCH * 4).with_seed(21);
        let (db, tables, _) = TpccGenerator::new(cfg.clone());
        let trees = [tables.new_order, tables.order_line];
        if built_first {
            trees.iter().for_each(|&t| assert!(db.table(t).ordered().is_some()));
        }
        let fifty = TpccConfig { full_mix: false, ..cfg.clone() };
        let mut gens =
            [TpccGenerator::from_parts(fifty, tables), TpccGenerator::from_parts(cfg, tables)];
        let mut lcfg = ltpg_tpcc_config(&tables, BATCH, OptFlags::all());
        lcfg.est_accesses_per_txn = 24;
        lcfg.device.parallel_host_threads = threads;
        let mut engine = LtpgEngine::new(db, lcfg);
        let mut calls = 0;
        let gen = |n| {
            calls += 1;
            gens[usize::from(calls > 2)].gen_batch(n)
        };
        let mut history = Vec::new();
        drive_stream(gen, 6, BATCH, false, |batch| {
            let i = history.len();
            let (bits, report) = run_batch(&mut engine, batch, None);
            let built = trees.map(|t| engine.database().table(t).ordered_is_built());
            assert_eq!(built, [built_first || i >= 2; 2], "batch {i}, built first: {built_first}");
            history.push(bits);
            report
        });
        (history, engine.device().stats().helper_lanes)
    };
    let (reference, _) = run(1, true);
    assert!(reference.iter().any(|b| b.flags.iter().any(|&f| f != 0)), "the stream must conflict");
    for threads in [1, 2, 4] {
        let (lazy, helped) = run(threads, false);
        assert_eq!(lazy, reference, "a first build mid-run moved the stream ({threads} threads)");
        assert_eq!(helped > 0, threads > 1, "{threads} threads: helper lanes {helped}");
        if threads > 1 {
            assert_eq!(run(threads, true).0, reference, "built first, {threads} threads");
        }
    }
}

#[test]
fn deterministic_baselines_are_deterministic() {
    for kind in [SystemKind::Aria, SystemKind::Calvin, SystemKind::Bohm, SystemKind::Pwv, SystemKind::Gputx, SystemKind::Gacco] {
        let a = tpcc_stream(kind, 11, 2, 256);
        let b = tpcc_stream(kind, 11, 2, 256);
        assert_eq!(a.0, b.0, "{} commit set varies across runs", kind.name());
        assert_eq!(a.1, b.1, "{} state varies across runs", kind.name());
    }
}

#[test]
fn ltpg_opt_configurations_remain_deterministic() {
    // Each optimization subset must be individually deterministic.
    for opts in [
        OptFlags::none(),
        OptFlags { warp_division: true, ..OptFlags::none() },
        OptFlags::all().with_contention_suite(false),
        OptFlags::all(),
    ] {
        let run = || {
            let cfg = TpccConfig::new(2, 0).with_headroom(4_096).with_seed(5);
            let (db, tables, mut gen) = TpccGenerator::new(cfg);
            let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 256, opts));
            let mut tids = TidGen::new();
            let batch = Batch::assemble(vec![], gen.gen_batch(256), &mut tids);
            let r = engine.execute_batch(&batch);
            (r.committed.clone(), engine.database().state_digest())
        };
        assert_eq!(run(), run(), "flags {opts:?} nondeterministic");
    }
    let _ = LtpgConfig::default();
}

#[test]
fn simulated_time_is_reproducible() {
    // With one host thread, even the simulated clock must be bit-stable.
    let run = || {
        let cfg = TpccConfig::new(1, 50).with_headroom(8_192).with_seed(9);
        let (db, tables, mut gen) = TpccGenerator::new(cfg);
        let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 512, OptFlags::all()));
        run_stream(&mut engine, &Registry::new(), &mut |n| gen.gen_batch(n), 2, 512).sim_ns
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_bits(), b.to_bits(), "simulated time must be reproducible");
}

/// A row-ownership rule, as a shard's [`ExecScope`] carries it.
type Owns = dyn Fn(TableId, i64) -> bool + Sync;

/// The kernels prefetch ahead of the lane that uses a line: detect a warp
/// ahead, write-back over the lane's whole warp. So a launch's edges are
/// where an index could run past an array: batches of one lane, one short
/// of a warp, one warp, one past it, two warps and one, at warps of 1, 7 and
/// 32 lanes, on a contended YCSB-A table (Zipf 2.5), so that detect arrays
/// end mid-warp and whole write-back warps abort. Whole, scoped to a shard
/// owning a third of the rows, and scoped to one owning none (no
/// write-back warp of it owns a row), every flag word must be the exact
/// reference's, every commit and state what those words and the oracle
/// say, and both clocks at two host threads the one-thread engine's.
#[test]
fn warp_edges_move_no_decision_and_no_charge() {
    const SIZES: [usize; 7] = [1, 31, 32, 33, 65, 33, 1];
    let thirds = |_: TableId, key: i64| key % 3 == 0;
    let nothing = |_: TableId, _: i64| false;
    let owners: [(&str, Option<&Owns>); 3] = [("whole", None), ("a third", Some(&thirds)), ("no row", Some(&nothing))];
    let (mut mid_warp, mut dead_warp) = (false, false);
    for warp in [1u32, 7, 32] {
        for (who, owns_row) in owners {
            let scope = owns_row.map(|owns_row| ExecScope { remote: None, owns_row });
            let setup = || {
                let cfg = YcsbConfig::new(YcsbWorkload::A, 2_048).with_seed(17);
                let (db, _table, gen) = YcsbGenerator::new(cfg);
                let mut lcfg = LtpgConfig { max_batch: 65, ..LtpgConfig::default() };
                lcfg.device.warp_size = warp;
                (db, gen, lcfg)
            };
            // Per batch: the batch, its bits and its detect items; one host
            // thread is checked against the reference as it goes.
            let engine_run = |threads: usize| {
                let (db, mut gen, mut lcfg) = setup();
                lcfg.device.parallel_host_threads = threads;
                let mut engine = LtpgEngine::with_telemetry(db, lcfg, Registry::new_shared());
                let items = engine.telemetry().counter(names::LTPG_CONFLICT_LOG_ACCESSES);
                let mut tids = TidGen::new();
                let mut history = Vec::new();
                for (k, n) in SIZES.into_iter().enumerate() {
                    let batch = Batch::assemble(vec![], gen.gen_batch(n), &mut tids);
                    let before = items.get();
                    let at = format!("warp {warp}, {who}, batch {k} of {n}");
                    let bits = if threads == 1 {
                        checked_batch(&at, &mut engine, &batch, scope.as_ref())
                    } else {
                        run_batch(&mut engine, &batch, scope.as_ref()).0
                    };
                    history.push((batch, bits, items.get() - before));
                }
                history
            };
            let (one, two) = (engine_run(1), engine_run(2));
            for (k, (batch, bits, items)) in one.iter().enumerate() {
                let at = format!("warp {warp}, {who}, batch {k} of {}", batch.len());
                assert_eq!(bits, &two[k].1, "{at}: two host threads moved the batch");
                mid_warp |= warp > 1 && items % u64::from(warp) != 0;
                dead_warp |= scope.is_none()
                    && order_by_proc(batch)
                        .chunks(warp as usize)
                        .any(|w| w.iter().all(|&i| !bits.committed.contains(&batch.txns[i].tid)));
            }
        }
    }
    assert!(mid_warp, "no detect array ended mid-warp");
    assert!(dead_warp, "no write-back warp had every lane abort");
}

/// `pre` with the mutations of `committed` on rows `owns` keeps applied,
/// transaction by transaction in TID order: what a scoped write-back of
/// that commit set leaves. The snapshot oracle checks an unscoped one.
fn owned_write_back(pre: &Database, committed: &[&Txn], owns: impl Fn(TableId, i64) -> bool) -> Database {
    let mut db = pre.deep_clone();
    for txn in committed {
        let fx = execute_speculative(pre, txn).expect("a committed transaction speculates");
        for m in fx.mutations.iter().filter(|m| owns(m.row().0, m.row().1)) {
            apply_mutation(&mut db, m, None).expect("a committed write applies");
        }
    }
    db
}

/// [`run_batch`], checked: every flag word must be the exact reference's —
/// or `LOG_FULL` alone, on a lane the log could not hold — the commits must be what the words say, and the
/// state what the snapshot oracle (within `scope`, the owned write-back)
/// derives from the pre-batch database.
fn checked_batch(at: &str, engine: &mut LtpgEngine, batch: &Batch, scope: Option<&ExecScope<'_>>) -> BatchBits {
    let pre = engine.database().deep_clone();
    let owns = |t: TableId, k: i64| scope.is_none_or(|s| (s.owns_row)(t, k));
    let want = reference::flag_words(&pre, engine.config(), batch, owns);
    let (bits, _) = run_batch(engine, batch, scope);
    for (i, (&got, &word)) in bits.flags.iter().zip(&want).enumerate() {
        let expected = if got & flag::LOG_FULL != 0 { flag::LOG_FULL } else { word };
        assert_eq!(got, expected, "{at}, txn {i}: flag word against the reference");
    }
    let reordering = engine.config().opts.logical_reordering;
    let decided: Vec<Tid> = (batch.txns.iter().zip(&bits.flags))
        .filter(|&(_, &word)| commit_decision(reordering, word))
        .map(|(txn, _)| txn.tid)
        .collect();
    assert_eq!(bits.committed, decided, "{at}: commits against the words");
    let committed: Vec<&Txn> = bits.committed.iter().map(|&tid| batch.by_tid(tid).unwrap()).collect();
    if scope.is_none() {
        let verdict = check_snapshot_serializable(&pre, &committed, engine.database());
        assert!(verdict.is_ok(), "{at}: the oracle rejects the batch: {verdict:?}");
    } else {
        let digest = owned_write_back(&pre, &committed, owns).state_digest();
        assert_eq!(bits.digest, digest, "{at}: state against the owned write-back");
    }
    bits
}

/// The engine at one and two host threads over `batches` (fresh, nothing
/// requeued), from copies of `db`, every batch within `scope`: at one
/// thread each batch is [`checked_batch`], and everything the engine
/// decided or charged must be bit-equal at the two thread counts. With
/// `heavy` lanes, a helper thread must have produced some (cheap ones may
/// all run inline while other tests hold the second CPU). Returns the
/// one-thread engine's bits and the index slots of every table after each
/// batch.
fn against_the_reference(
    at: &str,
    db: &Database,
    lcfg: &LtpgConfig,
    batches: &[Batch],
    scope: Option<&ExecScope<'_>>,
    heavy: bool,
) -> (Vec<BatchBits>, Vec<Vec<usize>>) {
    let engine_run = |threads: usize| {
        let mut cfg = lcfg.clone();
        cfg.device.parallel_host_threads = threads;
        let mut engine = LtpgEngine::with_telemetry(db.deep_clone(), cfg, Registry::new_shared());
        let mut history = Vec::new();
        let mut slots = Vec::new();
        for (k, batch) in batches.iter().enumerate() {
            history.push(if threads == 1 {
                checked_batch(&format!("{at}, batch {k}"), &mut engine, batch, scope)
            } else {
                run_batch(&mut engine, batch, scope).0
            });
            let db = engine.database();
            slots.push((0..db.table_count()).map(|t| db.table(TableId(t as u16)).index_slots()).collect());
        }
        (history, slots, engine.device().stats().helper_lanes)
    };
    let (one, slots, _) = engine_run(1);
    let (two, _, helped) = engine_run(2);
    assert!(helped > 0 || !heavy, "{at}: no helper produced a lane at two threads");
    for (k, (one, two)) in one.iter().zip(&two).enumerate() {
        assert_eq!(one, two, "{at}, batch {k}: two host threads moved the batch");
    }
    (one, slots)
}

/// Keys of the churn table.
const CHURN_KEYS: i64 = 48;

/// A two-column table of [`CHURN_KEYS`] rows and `batches` batches of `n`
/// transactions that read, update, add to, delete and insert its keys at
/// random, one in eight of them deleting, re-inserting and then updating
/// one key. Rows die and come back under their keys, so a key's row moves
/// between batches and inside a transaction. Keys are constants, so the
/// test can see what meets where.
fn churn_stream(seed: u64, batches: usize, n: usize) -> (Database, TableId, Vec<Batch>) {
    let mut db = Database::new();
    let t = db.add_table(TableBuilder::new("CHURN").columns(["a", "b"]).capacity(1 << 16).build());
    for k in 1..=CHURN_KEYS {
        db.table_mut(t).insert(k, &[k, 0]).unwrap();
    }
    let mut x = seed | 1;
    let mut next = move |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    let mut tids = TidGen::new();
    let batches = (0..batches)
        .map(|_| {
            let txns = (0..n)
                .map(|_| {
                    let key = |k: u64| Src::Const(k as i64 + 1);
                    let ops = if next(8) == 0 {
                        let k = key(next(CHURN_KEYS as u64));
                        vec![
                            IrOp::Delete { table: t, key: k },
                            IrOp::Insert { table: t, key: k, values: vec![Src::Const(7), Src::Const(7)] },
                            IrOp::Update { table: t, key: k, col: ColId(0), val: Src::Tid },
                        ]
                    } else {
                        (0..1 + next(3))
                            .map(|_| {
                                let k = key(next(CHURN_KEYS as u64));
                                match next(6) {
                                    0 => IrOp::Read { table: t, key: k, col: ColId(1), out: 0 },
                                    1 | 2 => IrOp::Update { table: t, key: k, col: ColId(0), val: Src::Tid },
                                    3 => IrOp::Add { table: t, key: k, col: ColId(1), delta: Src::Const(3) },
                                    4 => IrOp::Delete { table: t, key: k },
                                    _ => IrOp::Insert { table: t, key: k, values: vec![Src::Tid, Src::Const(1)] },
                                }
                            })
                            .collect()
                    };
                    Txn::new(ProcId(0), vec![], ops)
                })
                .collect();
            Batch::assemble(vec![], txns, &mut tids)
        })
        .collect();
    (db, t, batches)
}

/// The keys a transaction deletes and the keys it updates or adds to.
fn deleted_and_written(txn: &Txn) -> (Vec<i64>, Vec<i64>) {
    let (mut deleted, mut written) = (Vec::new(), Vec::new());
    for op in &txn.ops {
        match op {
            IrOp::Delete { key: Src::Const(k), .. } => deleted.push(*k),
            IrOp::Update { key: Src::Const(k), .. } | IrOp::Add { key: Src::Const(k), .. } => written.push(*k),
            _ => {}
        }
    }
    (deleted, written)
}

/// Write-back stores an update or add through the row the execute
/// pre-pass resolved in the snapshot. Under a stream whose rows die and
/// come back (deleted, re-inserted, updated, within a transaction and
/// across batches), where a delete and an update of one row meet in a
/// batch, every word must be the reference's and every state the
/// oracle's, which re-derive each key from the snapshot, and the oracle's
/// resolves each key at write-back, at one and two host threads. A row
/// resolved against a stale copy of the database, or carried across the
/// transaction's own delete and re-insert, writes a dead row.
#[test]
fn rows_that_die_and_come_back_are_written_where_they_live() {
    let (db, t, batches) = churn_stream(0x5eed, 8, 1_024);
    let lcfg = LtpgConfig { max_batch: 1_024, ..LtpgConfig::default() };
    against_the_reference("churn", &db, &lcfg, &batches, None, false);
    // The stream did what it is for: a delete and an update of one key met
    // in a batch.
    let met = batches.iter().any(|batch| {
        let keys: Vec<_> = batch.txns.iter().map(deleted_and_written).collect();
        keys.iter().any(|(deleted, _)| deleted.iter().any(|k| keys.iter().any(|(_, w)| w.contains(k))))
    });
    assert!(met, "no delete and update of one row met in a batch");
    // And a key whose row had come back committed an update or add in a
    // later batch, from a transaction that did not delete it itself.
    let mut engine = LtpgEngine::with_telemetry(db.deep_clone(), lcfg, Registry::new_shared());
    let mut reborn_then_written = false;
    for batch in &batches {
        let table = engine.database().table(t);
        let moved: Vec<i64> = (1..=CHURN_KEYS)
            .filter(|&k| table.lookup(k).is_some_and(|rid| Some(rid) != db.table(t).lookup(k)))
            .collect();
        let committed = engine.execute_batch(batch).committed;
        reborn_then_written |= batch.txns.iter().filter(|txn| committed.contains(&txn.tid)).any(|txn| {
            let (deleted, written) = deleted_and_written(txn);
            deleted.is_empty() && written.iter().any(|k| moved.contains(k))
        });
    }
    assert!(reborn_then_written, "no key was written after its row came back");
}

/// A shard carries rows only for what it owns: a scope owning every other
/// key, over a database holding all of them, must write back exactly what
/// its owned write-back says, and the rows it does not own stay as
/// they were.
#[test]
fn a_scoped_shard_carries_rows_only_for_what_it_owns() {
    let (db, t, batches) = churn_stream(0xface, 6, 1_024);
    let lcfg = LtpgConfig { max_batch: 1_024, ..LtpgConfig::default() };
    let evens = |_: TableId, key: i64| key % 2 == 0;
    let scope = ExecScope { remote: None, owns_row: &evens };
    let (history, _) = against_the_reference("evens", &db, &lcfg, &batches, Some(&scope), false);
    assert!(history.iter().any(|bits| !bits.committed.is_empty()));
    let mut engine = LtpgEngine::with_telemetry(db.deep_clone(), lcfg, Registry::new_shared());
    for batch in &batches {
        run_batch(&mut engine, batch, Some(&scope));
    }
    let out = engine.database().table(t);
    for k in (1..=CHURN_KEYS).filter(|k| k % 2 == 1) {
        let row = |table: &ltpg_storage::Table| table.lookup(k).map(|rid| table.row_values(rid));
        assert_eq!(row(out), row(db.table(t)), "key {k} is not the shard's");
    }
}

/// Rows never move when an index grows: TPC-C full-mix batches whose
/// write-back first grows insert tables' indexes (`reserve_inserts`, after
/// the execute pre-pass resolved its rows) while Delivery updates ORDERS
/// and ORDER_LINE rows through rows resolved before the growth, decide and
/// write what the reference and the oracle say, at one and two host threads. A small first
/// batch lays the insert tables' indexes out small, so later ones grow.
#[test]
fn a_grown_index_keeps_the_carried_rows() {
    const BATCH: usize = 512;
    let cfg = TpccConfig::new(1, 50).with_full_mix().with_headroom(8 * BATCH * 4).with_seed(43);
    let (db, tables, mut gen) = TpccGenerator::new(cfg);
    let mut lcfg = ltpg_tpcc_config(&tables, BATCH, OptFlags::all());
    lcfg.est_accesses_per_txn = 24;
    let mut tids = TidGen::new();
    let batches: Vec<Batch> = [32, BATCH, BATCH, BATCH, BATCH, BATCH]
        .map(|n| Batch::assemble(vec![], gen.gen_batch(n), &mut tids))
        .into();
    let before: Vec<usize> = (0..db.table_count()).map(|t| db.table(TableId(t as u16)).index_slots()).collect();
    let (history, slots) = against_the_reference("TPC-C full mix", &db, &lcfg, &batches, None, true);
    assert!(history.iter().all(|bits| !bits.committed.is_empty()));
    // A batch after the first grew ORDERS' or ORDER_LINE's index and
    // committed a Delivery, whose updates of those tables carried rows.
    let layouts: Vec<&Vec<usize>> = std::iter::once(&before).chain(&slots).collect();
    let grew_under_delivery = (1..batches.len()).any(|k| {
        let grew = [tables.orders, tables.order_line]
            .iter()
            .any(|&t| layouts[k + 1][usize::from(t.0)] > layouts[k][usize::from(t.0)]);
        grew && batches[k].txns.iter().any(|txn| txn.proc == PROC_DELIVERY && history[k].committed.contains(&txn.tid))
    });
    assert!(grew_under_delivery, "no batch grew ORDERS' or ORDER_LINE's index under a committed Delivery");
}

/// A conflict log that runs out mid-batch force-aborts the lanes it cannot
/// hold, and only those. Every transaction reads and updates rows of HOT,
/// whose log is large-bucketed (32 slots) and grows within each batch;
/// one in three also reads a dozen private missing keys of the 8-row
/// TINY, whose 128-bucket log runs out a few dozen lanes into each batch.
/// So `LOG_FULL` lanes sit between kept ones in the staged detect items,
/// each dropped back to its start. At one and two host threads the batch
/// bits must be equal, and against the exact reference (which never runs
/// out) a `LOG_FULL` word must carry no other bit and every other word
/// must be the reference's, with commits and state as the words and the
/// snapshot oracle say. It fails if a lane's items are kept past a
/// failed registration, if an item carries its entry's position rather
/// than its modelled bucket, or if a registration into slot 0 skips a
/// large record's running minimum.
#[test]
fn a_log_that_runs_out_mid_batch_drops_only_its_lanes() {
    const HOT_KEYS: u64 = 2_048;
    let mut db = Database::new();
    let hot = db.add_table(TableBuilder::new("HOT").columns(["a", "b"]).capacity(4_096).build());
    let tiny = db.add_table(TableBuilder::new("TINY").columns(["a"]).capacity(8).build());
    db.reserve(hot, HOT_KEYS as usize);
    for k in 0..HOT_KEYS as i64 {
        db.table_mut(hot).insert(k, &[k, 0]).unwrap();
    }
    let mut lcfg = LtpgConfig { max_batch: 256, est_accesses_per_txn: 8, ..LtpgConfig::default() };
    lcfg.premarked_popular.insert(hot);
    let mut x = 0x10f_u64;
    let mut next = move |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    let mut tids = TidGen::new();
    let mut private = 1_000;
    let batches: Vec<Batch> = (0..4)
        .map(|_| {
            let txns = (0..256)
                .map(|i| {
                    let key = |k: u64| Src::Const(k as i64);
                    let mut ops = vec![
                        IrOp::Read { table: hot, key: key(next(HOT_KEYS)), col: ColId(0), out: 0 },
                        IrOp::Read { table: hot, key: key(next(HOT_KEYS)), col: ColId(0), out: 1 },
                        IrOp::Read { table: hot, key: key(next(HOT_KEYS)), col: ColId(1), out: 2 },
                        IrOp::Update { table: hot, key: key(next(HOT_KEYS)), col: ColId(0), val: Src::Tid },
                    ];
                    if i % 3 == 1 {
                        for _ in 0..12 {
                            private += 1;
                            ops.push(IrOp::Read { table: tiny, key: Src::Const(private), col: ColId(0), out: 3 });
                        }
                    }
                    Txn::new(ProcId(0), vec![], ops)
                })
                .collect();
            Batch::assemble(vec![], txns, &mut tids)
        })
        .collect();
    let engine_run = |threads: usize| {
        let mut cfg = lcfg.clone();
        cfg.device.parallel_host_threads = threads;
        let mut engine = LtpgEngine::with_telemetry(db.deep_clone(), cfg, Registry::new_shared());
        let fresh = engine.conflict_log().resident_bytes();
        let history: Vec<BatchBits> = (batches.iter().enumerate())
            .map(|(k, batch)| match threads {
                1 => checked_batch(&format!("batch {k}"), &mut engine, batch, None),
                _ => run_batch(&mut engine, batch, None).0,
            })
            .collect();
        assert!(engine.conflict_log().resident_bytes() > fresh, "HOT's log must grow");
        history
    };
    let (one, two) = (engine_run(1), engine_run(2));
    let mut kept_after_full = 0;
    for (k, (one, two)) in one.iter().zip(&two).enumerate() {
        assert_eq!(one, two, "batch {k}: two host threads moved the batch");
        let mut full_seen = false;
        for &word in &one.flags {
            full_seen |= word & flag::LOG_FULL != 0;
            kept_after_full += usize::from(full_seen && word != 0 && word & flag::LOG_FULL == 0);
        }
    }
    assert!(kept_after_full > 0, "no kept lane after a LOG_FULL one raised a conflict");
}
