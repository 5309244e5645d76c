//! Crash-recovery hardening: seeded fault-injection sweeps.
//!
//! Each seed derives a complete failure schedule ([`ltpg::FaultPlan`]):
//! transient device transfer faults, a hard device loss (possibly
//! mid-batch, between phase kernels), a crashpoint at a batch boundary,
//! and WAL damage (torn tail, frame corruption) applied at crash time.
//! The sweep runs a mixed workload under every schedule, kills the server
//! at the crashpoint, damages the log, and recovers — asserting that
//!
//! - recovery reproduces the uninterrupted run's state digest for exactly
//!   the batches that survived on disk,
//! - all injected damage surfaces as typed [`ltpg::RecoveryError`]s,
//!   never a panic,
//! - device loss degrades the live server to the deterministic CPU
//!   fallback with bit-identical commit history.

use ltpg::{
    BatchSummary, DurabilityManager, Executor, FaultHorizon, FaultInjector, FaultPlan, LtpgConfig,
    LtpgEngine, LtpgServer, OneDevice, OptFlags, RecoveryError, Server, ServerConfig, Topology,
};
use ltpg_bench::ltpg_tpcc_config;
use ltpg_shard::{Partitioner, RebalanceOp, RebalancePlan, ShardedServer, TableRule};
use ltpg_storage::{ColId, Database, FrameError, TableBuilder, TableId};
use ltpg_telemetry::{names, Registry};
use ltpg_txn::{Batch, BatchEngine, IrOp, ProcId, Src, TidGen, Txn};
use ltpg_workloads::{TpccConfig, TpccGenerator};
use proptest::prelude::*;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const PLAIN_KEYS: i64 = 24;
const HOT_KEYS: i64 = 4;

/// Two tables: `plain` (updates / RMW adds / inserts / deletes / reads)
/// and `hot`, whose column 1 is commutatively maintained via delayed
/// update. Deletes and updates never touch `hot` column 1, so no
/// transaction is forced-aborted forever.
fn build_db() -> (Database, TableId, TableId) {
    let mut db = Database::new();
    let plain = db.add_table(
        TableBuilder::new("plain").columns(["a", "b"]).capacity(8_192).build(),
    );
    let hot = db.add_table(TableBuilder::new("hot").columns(["x", "y"]).capacity(64).build());
    for k in 0..PLAIN_KEYS {
        db.table_mut(plain).insert(k, &[k, 0]).unwrap();
    }
    for k in 0..HOT_KEYS {
        db.table_mut(hot).insert(k, &[0, 0]).unwrap();
    }
    (db, plain, hot)
}

fn engine_cfg(hot: TableId) -> LtpgConfig {
    let mut cfg = LtpgConfig::default();
    cfg.delayed_cols.insert((hot, ColId(1)));
    cfg
}

/// A deterministic mixed workload: contended updates, plain RMW adds,
/// commutative hot-column adds, inserts of fresh keys, deletes, reads.
fn mixed_txns(plain: TableId, hot: TableId, seed: u64, n: usize) -> Vec<Txn> {
    let mut s = seed ^ 0xA076_1D64_78BD_642F;
    let mut fresh_key = 1_000_000 + (seed as i64) * 10_000;
    (0..n)
        .map(|_| {
            let mut ops = Vec::new();
            for _ in 0..1 + splitmix64(&mut s) % 3 {
                match splitmix64(&mut s) % 6 {
                    0 => ops.push(IrOp::Update {
                        table: plain,
                        key: Src::Const((splitmix64(&mut s) % PLAIN_KEYS as u64) as i64),
                        col: ColId(0),
                        val: Src::Const((splitmix64(&mut s) % 1_000) as i64),
                    }),
                    1 => ops.push(IrOp::Add {
                        table: plain,
                        key: Src::Const((splitmix64(&mut s) % PLAIN_KEYS as u64) as i64),
                        col: ColId(1),
                        delta: Src::Const(1 + (splitmix64(&mut s) % 9) as i64),
                    }),
                    2 => ops.push(IrOp::Add {
                        table: hot,
                        key: Src::Const((splitmix64(&mut s) % HOT_KEYS as u64) as i64),
                        col: ColId(1),
                        delta: Src::Const(1 + (splitmix64(&mut s) % 5) as i64),
                    }),
                    3 => {
                        fresh_key += 1;
                        ops.push(IrOp::Insert {
                            table: plain,
                            key: Src::Const(fresh_key),
                            values: vec![Src::Const(7), Src::Const(7)],
                        });
                    }
                    4 => ops.push(IrOp::Delete {
                        table: plain,
                        key: Src::Const((splitmix64(&mut s) % PLAIN_KEYS as u64) as i64),
                    }),
                    _ => ops.push(IrOp::Read {
                        table: hot,
                        key: Src::Const((splitmix64(&mut s) % HOT_KEYS as u64) as i64),
                        col: ColId(0),
                        out: 0,
                    }),
                }
            }
            Txn::new(ProcId(0), vec![], ops)
        })
        .collect()
}

const SWEEP_SEEDS: u64 = 40;
const SWEEP_TXNS: usize = 128;
const SWEEP_BATCH: usize = 16;

/// What one seeded run observed.
#[derive(Default)]
struct SweepObservations {
    killed: bool,
    degraded: bool,
    torn_tail: bool,
    frame_error: bool,
    quiet: bool,
    /// Checkpoints that copied only what was written: the image recovery
    /// started from was maintained by deltas.
    delta_checkpoints: u64,
}

/// `(checkpoints, full image copies)` as the server counted them.
fn checkpoint_counts(reg: &Registry) -> (u64, u64) {
    (
        reg.counter_value(names::SERVER_CHECKPOINTS),
        reg.counter_value(names::DURABILITY_CHECKPOINT_FULL_IMAGES),
    )
}

fn run_one_seed(seed: u64) -> SweepObservations {
    let (db, plain, hot) = build_db();
    let cfg = engine_cfg(hot);
    let initial_digest = db.state_digest();
    let mut server = LtpgServer::new(
        db,
        cfg.clone(),
        ServerConfig {
            batch_size: SWEEP_BATCH,
            pipelined: true,
            // Odd seeds checkpoint often enough that the image the crash
            // leaves behind has been through several delta refreshes.
            checkpoint_every: Some(if seed.is_multiple_of(2) { 4 } else { 2 }),
            ..ServerConfig::default()
        },
    );
    let plan = FaultPlan::from_seed(seed, FaultHorizon::for_batches(14));
    let injector = FaultInjector::new(plan.clone());
    let mut obs = SweepObservations { quiet: plan.is_quiet(), ..SweepObservations::default() };
    server.arm_faults(injector.device_plan());
    server.submit_all(mixed_txns(plain, hot, seed, SWEEP_TXNS));

    // Digest after each executed batch — the uninterrupted history the
    // recovered state must land on.
    let mut digests: Vec<u64> = Vec::new();
    for _ in 0..400 {
        let before = server.stats().batches;
        match server.try_tick().expect("live log is undamaged; ticking cannot fail") {
            None => break,
            Some(_) => {
                if server.stats().batches > before {
                    digests.push(server.database().state_digest());
                    if injector.should_kill_after_batch(server.stats().batches - 1) {
                        obs.killed = true;
                        break; // the process dies here
                    }
                }
            }
        }
    }
    obs.degraded = server.is_degraded();
    // The image the server's log started with mirrors the database it
    // serves, so no checkpoint of that database is a full copy: on a run
    // that kept its device every one took the delta.
    let (checkpoints, full) = checkpoint_counts(server.telemetry());
    if !obs.degraded {
        assert_eq!(full, 0, "seed {seed}: a steady-state checkpoint fell back");
        obs.delta_checkpoints = checkpoints;
    }

    // Crash aftermath: damage the on-disk log the way a dying process
    // would, then recover.
    let damage = injector.damage_wal(server.durability_mut().log_mut());
    match server.durability().recover(cfg) {
        Ok(o) => {
            assert_eq!(
                damage.frames_corrupted, 0,
                "seed {seed}: corrupted frames must surface as typed errors"
            );
            obs.torn_tail = o.stats.torn_tail;
            let total = server.durability().checkpoint_batch() + o.stats.frames_replayed;
            let expect = if total == 0 {
                initial_digest
            } else {
                digests[total as usize - 1]
            };
            assert_eq!(
                o.db.state_digest(),
                expect,
                "seed {seed}: recovered state must equal the uninterrupted run \
                 after {total} batches"
            );
        }
        Err(RecoveryError::Frame(_)) => {
            assert!(
                damage.frames_corrupted > 0,
                "seed {seed}: a frame error requires injected frame corruption"
            );
            obs.frame_error = true;
        }
        Err(other) => panic!("seed {seed}: unexpected recovery error {other}"),
    }
    obs
}

#[test]
fn crash_recovery_seed_sweep() {
    let mut seen = SweepObservations::default();
    for seed in 0..SWEEP_SEEDS {
        let obs = run_one_seed(seed);
        seen.killed |= obs.killed;
        seen.degraded |= obs.degraded;
        seen.torn_tail |= obs.torn_tail;
        seen.frame_error |= obs.frame_error;
        seen.quiet |= obs.quiet;
        seen.delta_checkpoints = seen.delta_checkpoints.max(obs.delta_checkpoints);
    }
    // The sweep is only meaningful if it actually exercised every failure
    // class at least once.
    assert!(seen.killed, "no seed hit a crashpoint");
    assert!(seen.degraded, "no seed lost the device");
    assert!(seen.torn_tail, "no seed tore the WAL tail");
    assert!(seen.frame_error, "no seed corrupted a frame");
    assert!(seen.quiet, "no fault-free control seed");
    assert!(
        seen.delta_checkpoints >= 3,
        "no seed recovered off an image that three or more delta checkpoints maintained"
    );
}

/// Recovery off delta-maintained images on a 4-shard server, across a
/// rebalance cutover. The victim checkpoints every second batch, cuts a
/// range over to another shard at batch 4 and loses a device after batch
/// 9; every shard is then rebuilt from its checkpoint image (last brought
/// up to date by a delta at batch 8) plus its WAL. Commit for commit and
/// slice for slice it must stay the run that never crashed. Along the way
/// the image copies are counted: one full copy per shard for the cutover's
/// new slices, deltas otherwise (the first checkpoint included: each
/// shard's image mirrors the slice it was taken of).
#[test]
fn sharded_recovery_off_delta_images_across_a_cutover_matches_the_uncrashed_run() {
    const T: TableId = TableId(0);
    const SHARDS: u64 = 4;
    let mut db = Database::new();
    db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(512).build());
    for k in 0..256 {
        db.table_mut(T).insert(k, &[k, -k]).unwrap();
    }
    let part = Partitioner::new(SHARDS as u32, TableRule::Hash)
        .with_rule(T, TableRule::Range { bounds: vec![65, 129, 193] });
    let mut s = 0x5eed_u64;
    let mut fresh_key = 1_000;
    let stream: Vec<Txn> = (0..16 * 14)
        .map(|_| {
            let key = Src::Const((splitmix64(&mut s) % 256) as i64);
            let op = match splitmix64(&mut s) % 4 {
                0 => IrOp::Update { table: T, key, col: ColId(0), val: Src::Const(7) },
                1 => IrOp::Add { table: T, key, col: ColId(1), delta: Src::Const(3) },
                2 => IrOp::Delete { table: T, key },
                _ => {
                    fresh_key += 1;
                    let values = vec![Src::Const(1), Src::Const(2)];
                    IrOp::Insert { table: T, key: Src::Const(fresh_key), values }
                }
            };
            Txn::new(ProcId(0), vec![], vec![op])
        })
        .collect();
    let plan = RebalancePlan {
        cutover: 4,
        ops: vec![RebalanceOp::Move { table: T, at: 100, to: 2 }],
    };
    let mut servers = [(); 2].map(|()| {
        let scfg = ServerConfig {
            batch_size: 16,
            pipelined: false,
            checkpoint_every: Some(2),
            ..ServerConfig::default()
        };
        let mut server =
            ShardedServer::new(db.deep_clone(), part.clone(), LtpgConfig::default(), scfg);
        server.submit_all(stream.iter().cloned());
        server.schedule_rebalance(plan.clone()).expect("move scheduled");
        server
    });
    let [reference, victim] = &mut servers;

    let mut counted = Vec::new();
    for tick in 0..400 {
        // Shard 2 is the one the cutover moved rows onto.
        if victim.stats().batches == 9 && !victim.is_degraded(2) {
            victim.shards_mut().fail_device(2);
        }
        let (a, b) = (reference.tick(), victim.tick());
        assert_eq!(
            a.as_ref().map(|t| (&t.committed, &t.aborted)),
            b.as_ref().map(|t| (&t.committed, &t.aborted)),
            "tick {tick}: the recovered run left the un-crashed history"
        );
        if a.is_none() {
            break;
        }
        counted.push(checkpoint_counts(reference.telemetry()));
    }
    assert!(victim.is_degraded(2), "the device loss must have forced a rebuild from the images");
    assert_eq!(reference.stats().rebalances, 1);
    assert!(reference.stats().batches >= 12);
    for shard in 0..SHARDS as u32 {
        assert_eq!(
            victim.database(shard).state_digest(),
            reference.database(shard).state_digest(),
            "shard {shard}: rebuilt from a delta image + WAL, it must hold the un-crashed slice"
        );
    }
    // After batch 2: the first checkpoint, a delta per shard, and so is
    // batch 4's; the cutover before batch 5 checkpoints four new slices in
    // full; batches 6, 8, … are deltas again.
    assert_eq!(counted[1], (1, 0));
    assert_eq!(counted[3], (2, 0));
    assert_eq!(counted[4], (3, SHARDS));
    assert_eq!(counted[7], (5, SHARDS));
    assert_eq!(*counted.last().unwrap(), (counted.len() as u64 / 2 + 1, SHARDS));
    let copied = reference.telemetry().counter_value(names::DURABILITY_CHECKPOINT_ROWS_COPIED);
    assert!(copied > 256 && copied < 2 * 256 + 16 * 14, "rows copied: {copied}");
}

/// Crash recovery of a sharded server through the one replay loop. A
/// 4-shard server that checkpoints every second batch dies one batch past
/// its last checkpoint; shard 1's tail is torn (or left whole) and all four
/// logs are recovered with the server's own sharding replayer. Every shard
/// lands on the un-crashed run's slice at the joint cut — the fewest
/// complete frames over the shards — so a batch one shard lost is replayed
/// on none.
#[test]
fn sharded_recovery_replays_every_log_to_the_joint_cut() {
    const T: TableId = TableId(0);
    let mut db = Database::new();
    db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(512).build());
    for k in 0..256 {
        db.table_mut(T).insert(k, &[k, -k]).unwrap();
    }
    let part = Partitioner::new(4, TableRule::Hash);
    let mut s = 0x00c0_ffee_u64;
    let stream: Vec<Txn> = (0..16 * 12)
        .map(|_| {
            let (k1, k2) = ((splitmix64(&mut s) % 256) as i64, (splitmix64(&mut s) % 256) as i64);
            let ops = vec![
                IrOp::Read { table: T, key: Src::Const(k1), col: ColId(0), out: 0 },
                IrOp::Add { table: T, key: Src::Const(k2), col: ColId(1), delta: Src::Const(3) },
            ];
            Txn::new(ProcId(0), vec![], ops)
        })
        .collect();
    let slices = |server: &ShardedServer| -> Vec<u64> {
        (0..4).map(|s| server.database(s).state_digest()).collect()
    };
    for tear in [0, 5] {
        let scfg = ServerConfig {
            batch_size: 16,
            pipelined: false,
            checkpoint_every: Some(2),
            ..ServerConfig::default()
        };
        let mut server =
            ShardedServer::new(db.deep_clone(), part.clone(), LtpgConfig::default(), scfg);
        server.submit_all(stream.iter().cloned());
        // The slices after every batch: the run that never crashed.
        let mut digests = vec![slices(&server)];
        while server.stats().batches < 7 {
            let before = server.stats().batches;
            server.tick().expect("work is queued");
            if server.stats().batches > before {
                digests.push(slices(&server));
            }
        }
        server.topology_mut().1.durability[1].log_mut().tear_tail(tear);
        let logs = &server.shards().durability;
        assert_eq!((logs[0].checkpoint_batch(), logs[0].logged_batches()), (6, 7));
        let cut = logs.iter().map(DurabilityManager::logged_batches).min().unwrap();
        assert_eq!(cut, if tear == 0 { 7 } else { 6 });
        let replay = server.topology().replayer();
        let (dbs, stats) = ltpg::recover(logs, &LtpgConfig::default(), &replay)
            .unwrap_or_else(|e| panic!("tear {tear}: a torn tail is not damage: {e}"));
        assert_eq!((stats.torn_tail, stats.frames_replayed), (tear > 0, cut as u64 - 6));
        let recovered: Vec<u64> = dbs.iter().map(Database::state_digest).collect();
        assert_eq!(recovered, digests[cut], "tear {tear}: every slice at batch {cut}");
    }
}

/// The degradation rebuild reads the log as it lies: a frame corrupted
/// behind the last checkpoint of a live server stops the rebuild a device
/// loss starts, as a typed error out of the tick — it is never rebuilt from
/// a copy the damage missed.
#[test]
fn degradation_rebuild_reads_the_damaged_log() {
    let (db, plain, hot) = build_db();
    let scfg = ServerConfig {
        batch_size: SWEEP_BATCH,
        pipelined: false,
        checkpoint_every: Some(4),
        ..ServerConfig::default()
    };
    let mut server = LtpgServer::new(db, engine_cfg(hot), scfg);
    server.submit_all(mixed_txns(plain, hot, 7, SWEEP_TXNS));
    while server.stats().batches < 6 {
        server.tick().expect("work is queued");
    }
    let dur = server.durability_mut();
    assert_eq!((dur.checkpoint_batch(), dur.logged_batches()), (4, 6));
    assert!(dur.log_mut().corrupt_frame(5, 0x10));
    server.force_device_failure();
    match server.try_tick() {
        Err(ltpg::ServerError::DegradationFailed(RecoveryError::Frame(
            FrameError::ChecksumMismatch { frame_index, .. },
        ))) => assert_eq!(frame_index, 5),
        other => panic!("expected the rebuild to meet the corrupt frame, got {other:?}"),
    }
}

/// Every batch a server ran from here until its queue ran dry: what it
/// committed and aborted, its merged flag words, and the state digest after
/// it.
fn drain_bits(server: &mut LtpgServer) -> Vec<(BatchSummary, u64)> {
    let mut out = Vec::new();
    while let Some(summary) = server.tick() {
        out.push((summary, server.database().state_digest()));
        assert!(out.len() < 400, "the queue does not drain");
    }
    out
}

/// Serve `txns` twice: once on a device that never fails, and once on one
/// lost after `lose_after` ticks, which rebuilds from its last checkpoint
/// image and WAL on the CPU fallback and drains the rest there. Every batch
/// must commit, flag and leave the state as the uncrashed run's did. Returns
/// the degraded server and the batch its last checkpoint before the loss
/// was taken at.
fn lose_device_and_drain(
    db: Database,
    cfg: LtpgConfig,
    scfg: ServerConfig,
    txns: Vec<Txn>,
    lose_after: usize,
) -> (LtpgServer, u64) {
    let mut reference = LtpgServer::new(db.deep_clone(), cfg.clone(), scfg.clone());
    reference.submit_all(txns.clone());
    let want = drain_bits(&mut reference);
    assert!(!reference.is_degraded());

    let mut server = LtpgServer::new(db, cfg, scfg);
    server.submit_all(txns);
    let mut got = Vec::new();
    for _ in 0..lose_after {
        let summary = server.tick().expect("work is queued");
        got.push((summary, server.database().state_digest()));
    }
    let checkpointed = server.durability().checkpoint_batch();
    server.force_device_failure(); // hard crashpoint at a batch boundary
    got.extend(drain_bits(&mut server));

    assert!(server.is_degraded());
    assert_eq!(server.executor_name(), "LTPG-CPU-fallback");
    assert_eq!(server.stats().faults.fallback_activations, 1);
    assert_eq!(server.stats().committed, reference.stats().committed);
    assert_eq!(server.stats().batches, reference.stats().batches);
    assert_eq!(got.len(), want.len());
    for (i, ((g, g_digest), (w, w_digest))) in got.iter().zip(&want).enumerate() {
        assert_eq!((&g.committed, &g.aborted), (&w.committed, &w.aborted), "tick {i}");
        assert_eq!(g.flag_words, w.flag_words, "tick {i}: merged flag words");
        assert_eq!(g_digest, w_digest, "tick {i}: the degraded run's state must be bit-identical");
    }
    (server, checkpointed)
}

/// A device lost at a batch boundary degrades the server to the CPU
/// fallback, which drains the rest of the workload with every decision,
/// flag word and state bit-identical to the all-GPU run. Two cases: the
/// mixed workload, lost two batches in with no checkpoint taken, and
/// full-mix TPC-C, lost one batch past its second checkpoint. Its images
/// carry no B+tree: the rebuild's replay of the logged batch and the
/// Delivery, OrderStatus and StockLevel scans served after it build the
/// rebuilt tables' own.
#[test]
fn forced_device_loss_drains_remaining_workload_on_cpu_identically() {
    let (db, plain, hot) = build_db();
    let scfg = ServerConfig { batch_size: 20, ..ServerConfig::default() };
    lose_device_and_drain(db, engine_cfg(hot), scfg, mixed_txns(plain, hot, 99, 200), 2);

    let (batch, batches) = (256, 8);
    let wl = TpccConfig::new(2, 50).with_full_mix().with_headroom(batch * batches * 4);
    let (db, tables, mut gen) = TpccGenerator::new(wl.with_seed(33));
    let mut cfg = ltpg_tpcc_config(&tables, batch, OptFlags::all());
    cfg.est_accesses_per_txn = 24;
    let scfg =
        ServerConfig { batch_size: batch, checkpoint_every: Some(2), ..ServerConfig::default() };
    let (server, checkpointed) =
        lose_device_and_drain(db, cfg, scfg, gen.gen_batch(batch * batches), 5);
    assert_eq!(checkpointed, 4, "the rebuild starts from the second checkpoint's image");
    let db = server.database();
    for t in [tables.new_order, tables.order_line, tables.stock] {
        let table = db.table(t);
        assert!(table.ordered_is_built(), "{}: never scanned", table.schema().name);
    }
}

// ---- One decision procedure under log pressure. ----

/// Transactions of the log-pressure stream, one audit row each.
const PRESSURE_TXNS: usize = 1_536;

/// `HOT` (2 columns, 2 048 of 4 096 rows), `TINY` (1 column, 8 rows, all
/// missing) and `COUNT` (the audit: one row of 0 per transaction); with
/// `warm`, a fourth table `WARM` (1 column, 256 rows, all missing).
fn pressure_db(warm: bool) -> (Database, [TableId; 3], Option<TableId>) {
    let mut db = Database::new();
    let hot = db.add_table(TableBuilder::new("HOT").columns(["a", "b"]).capacity(4_096).build());
    let tiny = db.add_table(TableBuilder::new("TINY").columns(["a"]).capacity(8).build());
    let count = db.add_table(TableBuilder::new("COUNT").columns(["n"]).capacity(2_048).build());
    let warm = warm.then(|| db.add_table(TableBuilder::new("WARM").columns(["a"]).capacity(256).build()));
    db.reserve(hot, 2_048);
    db.reserve(count, PRESSURE_TXNS);
    for k in 0..2_048 {
        db.table_mut(hot).insert(k, &[k, 0]).unwrap();
    }
    for k in 0..PRESSURE_TXNS as i64 {
        db.table_mut(count).insert(k, &[0]).unwrap();
    }
    (db, [hot, tiny, count], warm)
}

/// Transaction `i` reads a random `HOT` key, sets another to its TID and
/// adds 1 to audit row `i`; every third one also reads 12 distinct missing
/// `TINY` keys, which run `TINY`'s 128-bucket conflict log out a few dozen
/// lanes into a 256-lane batch. With `WARM`, another third reads 64
/// distinct missing `WARM` keys: ≈5 400 in the first batch, which runs out
/// the 2 048 buckets `WARM`'s log is built with (256 rows for 256
/// transactions: standard buckets) and makes it large, with 8 192 buckets
/// that hold what later batches register.
fn pressure_txns([hot, tiny, count]: [TableId; 3], warm: Option<TableId>) -> Vec<Txn> {
    let mut state = 0x18;
    let mut hot_key = move || Src::Const((splitmix64(&mut state) % 2_048) as i64);
    let missing = |table, from: i64, n| (from..from + n).map(move |key| IrOp::Read { table, key: Src::Const(key), col: ColId(0), out: 1 });
    (0..PRESSURE_TXNS as i64)
        .map(|i| {
            let mut ops = vec![
                IrOp::Read { table: hot, key: hot_key(), col: ColId(0), out: 0 },
                IrOp::Update { table: hot, key: hot_key(), col: ColId(0), val: Src::Tid },
                IrOp::Add { table: count, key: Src::Const(i), col: ColId(0), delta: Src::Const(1) },
            ];
            match (i % 3, warm) {
                (1, _) => ops.extend(missing(tiny, 1_000 + 12 * i, 12)),
                (2, Some(warm)) => ops.extend(missing(warm, 1_000 + 64 * i, 64)),
                _ => {}
            }
            Txn::new(ProcId(0), vec![], ops)
        })
        .collect()
}

/// The audit oracle, which shares nothing with the engine: summed over the
/// shards' `COUNT` slices, row `k` must read 1 if transaction `k` (TID
/// `k + 1`) was acknowledged and 0 if not. Fails with how many rows were
/// applied more than once, lost although acknowledged, or applied unacknowledged.
fn audit(at: &str, dbs: &[&Database], count: TableId, acked: &[bool]) {
    let mut wrong = [0; 3];
    for (k, &acked) in acked.iter().enumerate() {
        let applied: i64 = (dbs.iter().map(|db| db.table(count)))
            .filter_map(|table| table.lookup(k as i64).map(|rid| table.get(rid, ColId(0))))
            .sum();
        match (applied, acked) {
            (2.., _) => wrong[0] += 1,
            (0, true) => wrong[1] += 1,
            (1, false) => wrong[2] += 1,
            _ => {}
        }
    }
    let [twice, lost, unacked] = wrong;
    assert_eq!(wrong, [0; 3], "{at}: {twice} applied more than once, {lost} acknowledged but lost, {unacked} applied unacknowledged");
}

/// The live state and the state `recover` rebuilds from the logs pass the
/// audit, and every recovered slice digests as its live one.
fn audit_live_and_recovered<T: Topology>(
    at: &str,
    server: &Server<T>,
    cfg: &LtpgConfig,
    count: TableId,
    acked: &[bool],
) {
    let live: Vec<&Database> = server.shards().execs.iter().map(Executor::database).collect();
    audit(&format!("{at}, live"), &live, count, acked);
    let replay = server.topology().replayer();
    let (recovered, _) = ltpg::recover(&server.shards().durability, cfg, &replay).expect("undamaged logs");
    for (s, (r, l)) in recovered.iter().zip(&live).enumerate() {
        assert_eq!(r.state_digest(), l.state_digest(), "{at}: shard {s} recovered vs live");
    }
    audit(&format!("{at}, recovered"), &recovered.iter().collect::<Vec<_>>(), count, acked);
}

/// Serve `txns` (the pressure stream, auditing into `count`), losing shard
/// `victim`'s device after `lose_after` ticks, and audit live and recovered three ticks after the
/// loss (some transactions still unacknowledged) and once drained (all of
/// them). The shard must have degraded, and its CPU fallback must have
/// aborted `LOG_FULL` lanes as the device did.
fn serve_under_pressure<T: Topology>(
    at: &str,
    server: &mut Server<T>,
    cfg: &LtpgConfig,
    (txns, count): (&[Txn], TableId),
    victim: usize,
    lose_after: usize,
) {
    server.submit_all(txns.iter().cloned());
    let mut acked = vec![false; PRESSURE_TXNS];
    let log_full =
        |server: &Server<T>| server.shards().registries[victim].counter_value(names::ABORT_LOG_EXHAUSTED);
    let mut full_at_loss = 0;
    let mut ticks = 0;
    while let Some(summary) = server.tick() {
        summary.committed.iter().for_each(|tid| acked[tid.0 as usize - 1] = true);
        ticks += 1;
        if ticks == lose_after {
            server.shards_mut().fail_device(victim);
        } else if ticks == lose_after + 1 {
            assert_eq!(server.stats().degraded_shards, 1, "{at}: the loss degrades one shard");
            full_at_loss = log_full(server);
        } else if ticks == lose_after + 3 {
            audit_live_and_recovered(&format!("{at}, tick {ticks}"), server, cfg, count, &acked);
        }
        assert!(ticks < 400, "{at}: the queue does not drain");
    }
    assert!(ticks > lose_after + 3, "{at}: the stream drained before the audit");
    assert!(acked.iter().all(|&a| a), "{at}: a transaction was never acknowledged");
    assert!(log_full(server) > full_at_loss, "{at}: the fallback ran no lane out of its log");
    audit_live_and_recovered(&format!("{at}, drained"), server, cfg, count, &acked);
}

/// A server that degrades under conflict-log pressure must decide every
/// batch as the device did, since every replay — the degradation rebuild,
/// recovery — re-decides from the log. On one device and on four shards,
/// losing a device at `sweep` seeded ticks (and, with `checkpoint_every`,
/// after checkpoints the rebuild starts from), no transaction may be
/// applied twice and no acknowledged commit lost, live or recovered.
fn degradation_under_log_pressure(checkpoint_every: Option<usize>, sweep: usize, warm: bool, window: (usize, usize)) {
    let (db, tables, warm) = pressure_db(warm);
    let stream = (&pressure_txns(tables, warm)[..], tables[2]);
    let cfg = LtpgConfig { max_batch: 256, est_accesses_per_txn: 8, ..LtpgConfig::default() };
    let scfg = ServerConfig { batch_size: 256, checkpoint_every, ..ServerConfig::default() };
    // One device drains the stream in 53 ticks, four shards (whose logs
    // hold four times as much) in 13: each loss leaves three ticks to serve.
    let mut state = 0x18a;
    for _ in 0..sweep {
        let (draw, victim) = (splitmix64(&mut state) as usize, splitmix64(&mut state) as usize % 4);
        let lose_after = 1 + draw % window.0;
        let at = format!("one device, lost after {lose_after} ticks");
        let mut server = LtpgServer::new(db.deep_clone(), cfg.clone(), scfg.clone());
        serve_under_pressure(&at, &mut server, &cfg, stream, 0, lose_after);
        let lose_after = 1 + draw % window.1;
        let at = format!("4 shards, shard {victim} lost after {lose_after} ticks");
        let part = Partitioner::new(4, TableRule::Hash);
        let mut server = ShardedServer::new(db.deep_clone(), part, cfg.clone(), scfg.clone());
        serve_under_pressure(&at, &mut server, &cfg, stream, victim, lose_after);
    }
}

#[test]
fn degradation_under_log_pressure_applies_each_commit_once() {
    degradation_under_log_pressure(None, 8, false, (48, 9));
}

/// The rebuild starts from a checkpoint, on engines built from its image
/// (`TINY`'s log is large from construction: its 256 transactions a batch
/// outnumber its 8 rows).
#[test]
fn degradation_from_a_checkpoint_under_log_pressure_applies_each_commit_once() {
    degradation_under_log_pressure(Some(4), 3, false, (48, 9));
}

/// The rebuild and recovery start from checkpoints taken after `WARM`'s
/// log went from standard to large buckets (and from 2 048 buckets to
/// 8 192) at its first batch: an engine built from such an image must
/// take over the sizing the live log had reached, or the batches after the
/// checkpoint run out of log where the live ones did not. Only one device
/// runs out so; four shards' logs each hold a quarter of the keys.
#[test]
fn degradation_from_a_checkpoint_after_a_log_went_large_applies_each_commit_once() {
    degradation_under_log_pressure(Some(4), 8, true, (12, 9));
}

/// Satellite of the replication work (ISSUE 6): crashes *inside the
/// promotion window*. Seeds whose [`FaultPlan`] drew a
/// [`PromotionCrashpoint`] run with a warm standby attached; the device
/// loss triggers failover and the injected crash kills the "process"
/// either before the standby replays anything or after the catch-up
/// replay but before the cutover completes. Both must surface as
/// [`ServerError::InjectedCrash`] (never a panic), and recovery from
/// checkpoint + WAL must converge to the exact digest of an un-crashed
/// reference run — the promotion window adds no new durability states.
#[test]
fn promotion_crashpoint_sweep_recovers_to_the_uncrashed_digest() {
    use ltpg::{PromotionCrashpoint, ReplicaChaos, ServerError};
    use ltpg_replica::ReplicaConfig;

    let mut saw_before = false;
    let mut saw_after = false;
    for seed in 0..SWEEP_SEEDS {
        let plan = FaultPlan::from_seed(seed, FaultHorizon::for_batches(14));
        let Some(crash) = plan.replica.promotion_crash else { continue };

        let (db, plain, hot) = build_db();
        let cfg = engine_cfg(hot);
        let txns = mixed_txns(plain, hot, seed, SWEEP_TXNS);
        let scfg = ServerConfig {
            batch_size: SWEEP_BATCH,
            pipelined: true,
            checkpoint_every: Some(4),
            ..ServerConfig::default()
        };

        // Un-crashed reference: the digest after every executed batch.
        let mut reference = LtpgServer::new(db.deep_clone(), cfg.clone(), scfg.clone());
        reference.submit_all(txns.clone());
        let mut digests: Vec<u64> = Vec::new();
        for _ in 0..400 {
            let before = reference.stats().batches;
            match reference.tick() {
                None => break,
                Some(_) => {
                    if reference.stats().batches > before {
                        digests.push(reference.database().state_digest());
                    }
                }
            }
        }

        // Crashing run: a standby attached, the device lost at a batch
        // boundary, and the promotion window armed to die.
        let mut server = LtpgServer::new(db, cfg.clone(), scfg);
        ltpg_replica::attach(&mut server, &ReplicaConfig::default());
        server.arm_replica_chaos(ReplicaChaos {
            promotion_crash: Some(crash),
            ..ReplicaChaos::none()
        });
        server.submit_all(txns);
        server.tick().unwrap();
        server.tick().unwrap();
        server.force_device_failure();
        let mut crash_err = None;
        for _ in 0..400 {
            match server.try_tick() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    crash_err = Some(e);
                    break;
                }
            }
        }
        let site = match crash_err {
            Some(ServerError::InjectedCrash(site)) => site,
            other => panic!("seed {seed}: expected the promotion crashpoint, got {other:?}"),
        };
        match crash {
            PromotionCrashpoint::BeforeCatchup => {
                assert_eq!(site, "promotion:before-catchup", "seed {seed}");
                saw_before = true;
            }
            PromotionCrashpoint::AfterCatchup => {
                assert_eq!(site, "promotion:after-catchup", "seed {seed}");
                saw_after = true;
            }
        }

        // The "process" died mid-cutover. Recovery replays checkpoint +
        // WAL (which includes the in-flight batch, logged before
        // execution) and must land exactly on the un-crashed history.
        let out = server.durability().recover(cfg).expect("seed {seed}: the log is undamaged");
        let total = server.durability().checkpoint_batch() + out.stats.frames_replayed;
        assert!(total > 0, "seed {seed}: the crashed run must have logged batches");
        assert_eq!(
            out.db.state_digest(),
            digests[total as usize - 1],
            "seed {seed}: recovery after a `{site}` crash must converge to the \
             un-crashed digest at batch {total}"
        );
    }
    assert!(saw_before, "no sweep seed crashed before catch-up");
    assert!(saw_after, "no sweep seed crashed after catch-up");
}

/// Build a logged history of `rounds` batches and return the manager plus
/// the live engine (for digests).
fn logged_history(rounds: usize, seed: u64) -> (DurabilityManager, LtpgEngine, LtpgConfig) {
    let (db, plain, hot) = build_db();
    let cfg = engine_cfg(hot);
    let mut dur = DurabilityManager::new(&db);
    let mut engine = LtpgEngine::new(db, cfg.clone());
    let mut tids = TidGen::new();
    for round in 0..rounds {
        let fresh = mixed_txns(plain, hot, seed.wrapping_add(round as u64), 12);
        let batch = Batch::assemble(vec![], fresh, &mut tids);
        dur.log_batch(&batch);
        engine.execute_batch(&batch);
    }
    (dur, engine, cfg)
}

// ---- One test per RecoveryError variant. ----

#[test]
fn recovery_error_frame_checksum() {
    let (mut dur, _engine, cfg) = logged_history(3, 1);
    assert!(dur.log_mut().corrupt_frame(1, 0x10));
    match dur.recover(cfg) {
        Err(RecoveryError::Frame(FrameError::ChecksumMismatch { frame_index, .. })) => {
            assert_eq!(frame_index, 1)
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn recovery_error_frame_bad_magic() {
    let (mut dur, _engine, cfg) = logged_history(2, 2);
    // Flip a byte of frame 1's magic (first byte of the frame).
    let offset = dur.log().frame(1).expect("frame 1 is logged").offset;
    dur.log_mut().corrupt_byte(offset, 0xFF);
    match dur.recover(cfg) {
        Err(RecoveryError::Frame(FrameError::BadMagic { frame_index, .. })) => {
            assert_eq!(frame_index, 1)
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn recovery_error_missing_batch() {
    let (dur, _engine, cfg) = logged_history(2, 4);
    let mut row = [Executor::from(LtpgEngine::new(dur.checkpoint_image(), cfg))];
    let beyond = dur.logged_batches() as u64 + 1;
    let (logs, replay) = (std::slice::from_ref(&dur), OneDevice.replayer());
    match ltpg::replay_logged(&mut row, logs, 0..beyond, &replay, &Registry::new()) {
        Err(RecoveryError::MissingBatch(id)) => assert_eq!(id, beyond - 1),
        other => panic!("expected MissingBatch, got {other:?}"),
    }
}

/// A batch the log has retired is missing like one it never held: a replay
/// that starts below the retired base names the first batch it cannot
/// read, and crash recovery, which starts at the checkpoint, never asks.
#[test]
fn recovery_error_missing_retired_batch() {
    let (db, plain, hot) = build_db();
    let cfg = engine_cfg(hot);
    let mut dur = DurabilityManager::new(&db);
    let mut engine = LtpgEngine::new(db, cfg.clone());
    let mut tids = TidGen::new();
    for round in 0..5 {
        let batch = Batch::assemble(vec![], mixed_txns(plain, hot, 40 + round, 12), &mut tids);
        dur.log_batch(&batch);
        engine.execute_batch(&batch);
        if round == 2 {
            dur.checkpoint(engine.database());
        }
    }
    dur.retire_below(u64::MAX);
    assert_eq!((dur.checkpoint_batch(), dur.log().first_retained()), (3, 3), "never past the checkpoint");
    let recovered = dur.recover(cfg.clone()).expect("recovery starts at the checkpoint");
    assert_eq!(recovered.stats.frames_replayed, 2);
    assert_eq!(recovered.db.state_digest(), engine.database().state_digest());
    let mut row = [Executor::from(LtpgEngine::new(dur.checkpoint_image(), cfg))];
    let (logs, replay) = (std::slice::from_ref(&dur), OneDevice.replayer());
    match ltpg::replay_logged(&mut row, logs, 1..5, &replay, &Registry::new()) {
        Err(RecoveryError::MissingBatch(1)) => {}
        other => panic!("expected batch 1 missing, got {other:?}"),
    }
}

#[test]
fn recovery_error_round() {
    let (dur, _engine, cfg) = logged_history(2, 5);
    let refuse: ltpg::Replayer =
        std::sync::Arc::new(|_, _| Err(ltpg::ServerError::MissingFlagWord { tid: 7 }));
    match ltpg::recover(std::slice::from_ref(&dur), &cfg, &refuse) {
        Err(RecoveryError::Round(e)) => {
            assert!(matches!(*e, ltpg::ServerError::MissingFlagWord { tid: 7 }), "{e}")
        }
        other => panic!("expected a failed round, got {other:?}"),
    }
}

#[test]
fn recovery_error_corrupt_payload() {
    let (db, _plain, hot) = build_db();
    let mut dur = DurabilityManager::new(&db);
    // A frame whose CRC is fine but whose payload is not a batch encoding:
    // codec-level corruption, distinct from disk damage.
    dur.log_mut().append(&[1], &[0xDE, 0xAD, 0xBE, 0xEF]);
    match dur.recover(engine_cfg(hot)) {
        Err(RecoveryError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

// ---- Recovery idempotence. ----

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Recovering twice from the same (possibly damaged) log yields the
    /// same database, and repairing the WAL first changes nothing about
    /// the recovered state.
    #[test]
    fn recovery_is_idempotent(seed in 0u64..1_000, rounds in 1usize..4, tear in 0usize..64) {
        let (mut dur, _engine, cfg) = logged_history(rounds, seed);
        dur.log_mut().tear_tail(tear);
        let once = dur.recover(cfg.clone()).unwrap();
        let twice = dur.recover(cfg.clone()).unwrap();
        prop_assert_eq!(once.db.state_digest(), twice.db.state_digest());
        prop_assert_eq!(once.stats, twice.stats);

        // Physical repair: drops the torn tail, keeps the replayable set.
        let dropped = dur.repair_wal().unwrap();
        prop_assert_eq!(dur.repair_wal().unwrap(), 0, "repair is idempotent");
        let repaired = dur.recover(cfg).unwrap();
        prop_assert_eq!(once.db.state_digest(), repaired.db.state_digest());
        prop_assert!(!repaired.stats.torn_tail);
        if once.stats.torn_tail {
            prop_assert!(dropped > 0);
        }
    }
}

