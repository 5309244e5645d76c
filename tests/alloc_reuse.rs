//! Steady-state allocation reuse (ISSUE 7 tentpole regression tests).
//!
//! The engine recycles its per-batch buffers (`EngineScratch`), so once the
//! arena has warmed to the workload's high-watermark a tick must not grow
//! the heap. Pinned at two levels:
//!
//! * **Engine level** — a counting global allocator proves the *net* heap
//!   delta of a steady-state `execute_batch` round-trip is zero (transient
//!   allocations are fine; retained growth is the regression).
//! * **Allocator calls** — net bytes cannot see churn, so the same
//!   allocator also counts *calls* (alloc + realloc) and
//!   `steady_state_allocator_calls_per_transaction` pins how many a
//!   steady-state transaction costs. A count repeats exactly, which makes
//!   it the regression guard for the per-transaction data path that a
//!   timing on a shared box cannot be.
//! * **Checkpoints** — `a_steady_state_checkpoint_allocates_nothing` pins
//!   the same counter over `DurabilityManager::checkpoint`: none, for a
//!   YCSB-A image and for a TPC-C one whose tables declare ordered indexes.
//!   `a_checkpointed_log_reuses_its_image` pins that a log whose covered
//!   frames each checkpoint retires stops allocating for its disk image.
//! * **Around the kernels** — the same counter over the serving tick's own
//!   host work: routing a single-shard transaction allocates nothing,
//!   logging a batch takes a fixed number of calls whatever its size, and a
//!   steady-state 4-shard tick (route, split, log, round, decide, requeue)
//!   is pinned per transaction.
//! * **Conflict-log residency** — the host bytes a steady-state engine's
//!   conflict log holds are pinned for the TPC-C and YCSB-A engines the
//!   ledger runs: what their batches claim, not the modelled geometry.
//! * **Server level** — `LtpgServer` and `ShardedServer` retain per-tick
//!   state the engine does not (WAL, replication log), so raw heap deltas
//!   are not zero there. Instead the simulated-side watermark is pinned:
//!   the `ltpg.alloc_events` counter must stop growing after warm-up —
//!   every steady-state tick is absorbed by the recycled arena.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use ltpg::{DurabilityManager, LtpgConfig, LtpgEngine, LtpgServer, OptFlags, ServerConfig};
use ltpg_bench::ltpg_tpcc_config;
use ltpg_shard::{ycsb_partitioner, Route, Router, ShardedServer};
use ltpg_telemetry::names;
use ltpg_txn::{Batch, BatchEngine, TidGen, Txn};
use ltpg_workloads::{TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbWorkload};

/// Counts the net bytes currently allocated through the global allocator,
/// and how many times it was asked for memory.
struct CountingAlloc;

static NET_BYTES: AtomicI64 = AtomicI64::new(0);
/// `alloc` + `realloc` calls (`alloc_zeroed` defaults to `alloc`).
static CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            NET_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            NET_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocator counter is process-global, so tests in this binary must
/// not run concurrently with a measurement window.
static SERIAL: Mutex<()> = Mutex::new(());

/// Hold [`SERIAL`] for a measurement window. A test that failed while
/// holding it poisoned it; the guard is taken all the same, so each test
/// reports its own result rather than the first failure's.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ycsb(records: u64, shards: u32) -> YcsbConfig {
    let cfg = YcsbConfig::new(YcsbWorkload::A, records).with_seed(0xa1_10_c8);
    if shards > 1 {
        cfg.with_partitions(shards, 0)
    } else {
        cfg
    }
}

#[test]
fn steady_state_engine_batches_add_zero_net_heap() {
    let _guard = serial();
    let (db, _table, mut gen) = YcsbGenerator::new(ycsb(4_096, 1));
    let cfg = LtpgConfig { max_batch: 512, ..LtpgConfig::default() };
    let mut engine = LtpgEngine::new(db, cfg);

    // Pre-assemble every batch so the measurement window sees only the
    // engine's own allocations.
    let mut tids = TidGen::new();
    let batches: Vec<Batch> =
        (0..8).map(|_| Batch::assemble(Vec::new(), gen.gen_batch(256), &mut tids)).collect();

    let mut marks = Vec::with_capacity(batches.len());
    for batch in &batches {
        let rws = engine.execute_batch_report(batch);
        assert!(!rws.report.committed.is_empty());
        drop(rws);
        marks.push(NET_BYTES.load(Ordering::Relaxed));
    }
    // Rounds 0..4 warm the arena (buffer growth to the workload watermark,
    // lazy telemetry registration); every later round must leave the heap
    // exactly where warm-up left it.
    let baseline = marks[3];
    for (i, m) in marks.iter().enumerate().skip(4) {
        assert!(
            *m <= baseline,
            "steady-state batch {i} grew the heap: {} -> {} bytes",
            baseline,
            m
        );
    }
}

/// Allocator calls per transaction over batches 4..8 of `batches` (0..4
/// warm the arena), every batch pre-assembled so only the engine allocates
/// inside the window, and the lanes whose pre-pass ran twice in it
/// (`DeviceStats::lanes_computed_twice`).
fn steady_state_calls_per_txn(engine: &mut LtpgEngine, batches: &[Batch]) -> (f64, u64) {
    let (warm, timed) = batches.split_at(4);
    for batch in warm {
        drop(engine.execute_batch_report(batch));
    }
    let twice = engine.device().stats().lanes_computed_twice;
    let before = CALLS.load(Ordering::Relaxed);
    for batch in timed {
        drop(engine.execute_batch_report(batch));
    }
    let calls = CALLS.load(Ordering::Relaxed) - before;
    let txns = timed.iter().map(Batch::len).sum::<usize>() as f64;
    (calls as f64 / txns, engine.device().stats().lanes_computed_twice - twice)
}

/// At commit d46e7a0 (three `HashMap`s per speculation, a `Vec` per op in
/// `reg_count`, every inserted row and every mutation cloned once more)
/// this read 20.18 calls per YCSB-A transaction and 106.91 per TPC-C 50/50
/// transaction, and 5.03 and 19.66 once speculation built one read set,
/// one write set, a register file, a write index and a row per insert for
/// every transaction. Since each execute lane builds its plan in buffers
/// its slot keeps from batch to batch (the register file and write index
/// per thread, inserted rows from the previous occupant's), the data path
/// may use at most one call per transaction. It reads 0.06 and 0.71: a
/// slot or a lane's item buffer grows the first time it holds a larger
/// transaction than it has yet held.
#[test]
fn steady_state_allocator_calls_per_transaction() {
    let _guard = serial();
    let mut tids = TidGen::new();

    let (db, _table, mut gen) = YcsbGenerator::new(ycsb(65_536, 1).with_alpha(0.6));
    let mut engine =
        LtpgEngine::new(db, LtpgConfig { max_batch: 512, ..LtpgConfig::default() });
    let batches: Vec<Batch> =
        (0..8).map(|_| Batch::assemble(Vec::new(), gen.gen_batch(512), &mut tids)).collect();
    let (ycsb_calls, _) = steady_state_calls_per_txn(&mut engine, &batches);

    let wl = TpccConfig::new(2, 50).with_headroom(8 * 512 * 20);
    let (db, tables, mut gen) = TpccGenerator::new(wl);
    let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 512, OptFlags::all()));
    let batches: Vec<Batch> =
        (0..8).map(|_| Batch::assemble(Vec::new(), gen.gen_batch(512), &mut tids)).collect();
    let (tpcc_calls, _) = steady_state_calls_per_txn(&mut engine, &batches);

    println!("allocator calls per transaction: YCSB-A {ycsb_calls:.2}, TPC-C {tpcc_calls:.2}");
    assert!(ycsb_calls <= 1.0, "YCSB-A: {ycsb_calls:.2} allocator calls per transaction");
    assert!(tpcc_calls <= 1.0, "TPC-C 50/50: {tpcc_calls:.2} allocator calls per transaction");
}

/// The execute kernel's pre-pass (the warp's row touch, speculation and
/// staging) allocates on a helper thread what it would have allocated
/// inline, and its result slots are kept in the engine's arena. The
/// helper is the device's, parked between launches, so a launch posts to
/// it without spawning a thread, and its per-thread scratch outlives the
/// launch. So per steady-state transaction of 4 096-lane TPC-C batches,
/// an engine on two host threads may not exceed the one-thread figure
/// (0.410 calls per transaction when each launch spawned its helper, 0.407
/// with it parked). A launching thread that reaches a lane its helper is
/// still filling fills the lanes ahead meanwhile, in their own slots, and
/// then waits for the helper as long as the launch has run; only a helper
/// stalled past that has its lane filled again, into a spare value. How
/// many lanes that happens to is up to the scheduler, so each is charged
/// apart: at most what one transaction allocates on one thread, the
/// pre-pass included.
#[test]
fn a_parked_helper_adds_nothing_to_allocator_calls() {
    const TIMED_TXNS: f64 = (4 * 4_096) as f64;
    let _guard = serial();
    let calls_at = |threads: usize| {
        let wl = TpccConfig::new(2, 50).with_headroom(8 * 4_096 * 2);
        let (db, tables, mut gen) = TpccGenerator::new(wl);
        let mut cfg = ltpg_tpcc_config(&tables, 4_096, OptFlags::all());
        cfg.device.parallel_host_threads = threads;
        let mut engine = LtpgEngine::new(db, cfg);
        let mut tids = TidGen::new();
        let batches: Vec<Batch> =
            (0..8).map(|_| Batch::assemble(Vec::new(), gen.gen_batch(4_096), &mut tids)).collect();
        let (calls, twice) = steady_state_calls_per_txn(&mut engine, &batches);
        (calls, twice, engine.device().stats().helper_lanes)
    };
    let (one, ..) = calls_at(1);
    let (two, twice, helped) = calls_at(2);
    let recomputed = twice as f64 * one / TIMED_TXNS;
    println!(
        "allocator calls per TPC-C transaction: {one:.3} on one host thread, {two:.3} on two \
         ({helped} lanes from the helper, {twice} computed twice: {recomputed:.3} allowed for them)"
    );
    assert!(helped > 0, "no helper produced a lane");
    assert!(
        two <= one + recomputed,
        "two host threads: {two:.3} calls per transaction against {one:.3}; \
         {twice} lanes were computed twice"
    );
}

/// The conflict log holds only the buckets a batch claims, in tables that
/// grow between batches to two or three times what one claims. At commit
/// c973947 every engine held its whole modelled log in host memory: 409.6
/// MiB for the 8-warehouse TPC-C engine below, 96.1 MiB for the YCSB-A one.
/// After eight steady-state batches of 4 096 they may hold 32 and 16 MiB.
#[test]
fn a_steady_state_conflict_log_holds_what_its_batches_claim() {
    const MIB: f64 = (1 << 20) as f64;
    let _guard = serial();
    let mut tids = TidGen::new();
    let mut resident_after_8 = |engine: &mut LtpgEngine, gen: &mut dyn FnMut(usize) -> Vec<Txn>| {
        for _ in 0..8 {
            drop(engine.execute_batch_report(&Batch::assemble(Vec::new(), gen(4_096), &mut tids)));
        }
        engine.conflict_log().resident_bytes() as f64 / MIB
    };

    let wl = TpccConfig::new(8, 50).with_headroom(8 * 4_096 * 2);
    let (db, tables, mut gen) = TpccGenerator::new(wl);
    let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 4_096, OptFlags::all()));
    let tpcc = resident_after_8(&mut engine, &mut |n| gen.gen_batch(n));

    let (db, _table, mut gen) = YcsbGenerator::new(ycsb(1 << 20, 1).with_alpha(0.6));
    let mut engine = LtpgEngine::new(db, LtpgConfig::default());
    let ycsb = resident_after_8(&mut engine, &mut |n| gen.gen_batch(n));

    println!("conflict-log resident MiB after 8 batches: TPC-C {tpcc:.1}, YCSB-A {ycsb:.1}");
    assert!(tpcc <= 32.0, "TPC-C: {tpcc:.1} MiB resident");
    assert!(ycsb <= 16.0, "YCSB-A: {ycsb:.1} MiB resident");
}

/// The huge-page advice lands: a 1 M-row YCSB-A engine that ran one batch
/// of 4 096 holds at least its conflict-log entry table's aligned 2 MiB
/// pages as `AnonHugePages`, where transparent huge pages are `madvise` or
/// `always` (elsewhere the advice does nothing and the test says so). The
/// log's resident bytes are the row log's entry table, a multiple of 2 MiB
/// here, and under 2 MiB of the membership log's, so the table holds at
/// least `⌊resident / 2 MiB⌋ − 1` aligned huge pages. It reads only this
/// process's `/proc/self/smaps_rollup` and the setting's file in `/sys`.
#[test]
#[ignore = "release-only: run with --release -- --ignored"]
fn the_conflict_log_entry_table_sits_on_huge_pages() {
    const HUGE_PAGE: u64 = 2 << 20;
    let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").unwrap_or_default();
    if !(mode.contains("[madvise]") || mode.contains("[always]")) {
        println!("skipped: transparent huge pages are not offered here ({})", mode.trim());
        return;
    }
    let (db, _table, mut gen) = YcsbGenerator::new(ycsb(1 << 20, 1).with_alpha(0.6));
    let mut engine = LtpgEngine::new(db, LtpgConfig::default());
    let mut tids = TidGen::new();
    drop(engine.execute_batch_report(&Batch::assemble(Vec::new(), gen.gen_batch(4_096), &mut tids)));
    let aligned = (engine.conflict_log().resident_bytes() / HUGE_PAGE).saturating_sub(1) * HUGE_PAGE;
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").expect("/proc/self/smaps_rollup");
    let huge = rollup
        .lines()
        .find_map(|l| l.strip_prefix("AnonHugePages:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("an AnonHugePages line")
        * 1_024;
    println!("AnonHugePages {} MiB; the entry table's aligned huge pages {} MiB", huge >> 20, aligned >> 20);
    assert!(aligned > 0, "the entry table must span a whole huge page");
    assert!(huge >= aligned, "{} MiB on huge pages, want at least {} MiB", huge >> 20, aligned >> 20);
}

/// Run `batches` through `engine`, checkpointing after each, and return the
/// allocator calls every checkpoint made together with the rows they
/// copied. The image `DurabilityManager::new` takes mirrors the engine's
/// database, so every checkpoint, the first included, must be a delta.
fn steady_state_checkpoint_calls(engine: &mut LtpgEngine, batches: &[Batch]) -> (u64, u64) {
    let mut dur = DurabilityManager::new(engine.database());
    let (mut calls, mut rows) = (0, 0);
    for (i, batch) in batches.iter().enumerate() {
        drop(engine.execute_batch_report(batch));
        let before = CALLS.load(Ordering::Relaxed);
        dur.checkpoint(engine.database());
        let copied = dur.last_checkpoint();
        assert!(!copied.full, "checkpoint {i}: {copied:?}");
        calls += CALLS.load(Ordering::Relaxed) - before;
        rows += copied.rows;
    }
    assert_eq!(dur.checkpoint_image().state_digest(), engine.database().state_digest());
    (calls, rows)
}

/// `DurabilityManager::checkpoint` "copies bytes and allocates nothing", for
/// TPC-C too. Until PR 22 a TPC-C image cloned (and dropped) three whole
/// B+trees per checkpoint — about two allocator calls per 17-key node,
/// ≈ 35 000 calls for the 300 000-row ORDER_LINE of `tpcc_engine` — and
/// then brought its trees up to date in place, allocating where the live
/// tree did (about one call per seven rows copied; the pin allowed one per
/// four). No image carries a tree any more: NEW_ORDER's and ORDER_LINE's
/// are built by a table's first range scan, which the 50/50 mix never
/// runs, so its checkpoints copy cells and keys and nothing else.
#[test]
fn a_steady_state_checkpoint_allocates_nothing() {
    let _guard = serial();
    let mut tids = TidGen::new();

    let (db, _table, mut gen) = YcsbGenerator::new(ycsb(65_536, 1).with_alpha(0.6));
    let mut engine =
        LtpgEngine::new(db, LtpgConfig { max_batch: 512, ..LtpgConfig::default() });
    let batches: Vec<Batch> =
        (0..6).map(|_| Batch::assemble(Vec::new(), gen.gen_batch(512), &mut tids)).collect();
    let (ycsb_calls, ycsb_rows) = steady_state_checkpoint_calls(&mut engine, &batches);

    let wl = TpccConfig::new(2, 50).with_headroom(8 * 512 * 20);
    let (db, tables, mut gen) = TpccGenerator::new(wl);
    let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 512, OptFlags::all()));
    let batches: Vec<Batch> =
        (0..6).map(|_| Batch::assemble(Vec::new(), gen.gen_batch(512), &mut tids)).collect();
    let order_lines = engine.database().table(tables.order_line).len();
    let (tpcc_calls, tpcc_rows) = steady_state_checkpoint_calls(&mut engine, &batches);
    let inserted = engine.database().table(tables.order_line).len() - order_lines;

    println!(
        "allocator calls per checkpoint-copied row: YCSB-A {ycsb_calls}/{ycsb_rows}, \
         TPC-C {tpcc_calls}/{tpcc_rows} ({inserted} ORDER_LINE rows inserted)"
    );
    assert!(ycsb_rows > 1_000, "the YCSB checkpoints must have had rows to copy");
    assert_eq!(ycsb_calls, 0, "an image without an ordered index allocates nothing");
    assert!(inserted > 1_000, "the TPC-C checkpoints must have had ORDER_LINE inserts to apply");
    assert_eq!(tpcc_calls, 0, "TPC-C: {tpcc_calls} allocator calls to copy {tpcc_rows} rows");
}

/// Routing a transaction whose accesses all live on one shard walks its
/// constant-folded keys without building a vector: no allocator call. At
/// commit 077ecc4 (four declared-access vectors, a register vector and a
/// sorted participant list per transaction) this read 1 853 calls for the
/// 256 transactions below, 7.24 each.
#[test]
fn routing_a_single_shard_transaction_allocates_nothing() {
    let _guard = serial();
    let cfg = ycsb(65_536, 4).with_alpha(0.8);
    let (_db, table, mut gen) = YcsbGenerator::new(cfg.clone());
    let router = Router::new(ycsb_partitioner(4, table, &cfg));
    let txns = gen.gen_batch(256);
    let before = CALLS.load(Ordering::Relaxed);
    let single = txns.iter().filter(|t| matches!(router.route(t), Route::Single(_))).count();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    println!("allocator calls routing {} single-shard YCSB-A transactions: {calls}", txns.len());
    assert_eq!(single, txns.len(), "a 0 %-cross stream routes single-shard");
    assert_eq!(calls, 0);
}

/// Allocator calls of one steady-state `DurabilityManager::log_batch` of
/// `batch_size` YCSB-A transactions: the median over sixteen batches, so
/// the regrowth of a log no checkpoint shortens — its disk image and its
/// frame-end list — is not counted (a log that checkpoints stops
/// regrowing: `a_checkpointed_log_reuses_its_image`).
fn log_batch_calls(batch_size: usize) -> u64 {
    let (db, _table, mut gen) = YcsbGenerator::new(ycsb(4_096, 1));
    let mut dur = DurabilityManager::new(&db);
    let mut tids = TidGen::new();
    let batches: Vec<Batch> =
        (0..20).map(|_| Batch::assemble(Vec::new(), gen.gen_batch(batch_size), &mut tids)).collect();
    let mut calls: Vec<u64> = batches
        .iter()
        .map(|batch| {
            let before = CALLS.load(Ordering::Relaxed);
            dur.log_batch(batch);
            CALLS.load(Ordering::Relaxed) - before
        })
        .skip(4)
        .collect();
    calls.sort_unstable();
    calls[calls.len() / 2]
}

/// Logging a batch encodes it into one buffer sized from the batch and
/// writes the frame in place: a fixed number of allocator calls per batch,
/// whatever its size. At commit 077ecc4 (a buffer per transaction, copied
/// into a regrowing batch buffer) this read 741 calls for 256
/// transactions and 5 815 for 2 048; it reads 3 for both (the TID list, the
/// payload buffer and the `Bytes` it is frozen into).
#[test]
fn log_batch_allocator_calls_do_not_grow_with_the_batch() {
    let _guard = serial();
    let (small, large) = (log_batch_calls(256), log_batch_calls(2_048));
    println!("allocator calls per log_batch: {small} (256 transactions), {large} (2 048)");
    assert_eq!(small, large, "log_batch allocates per transaction");
    assert!(small <= 4, "{small} allocator calls per logged batch");
}

/// A checkpoint retires the frames it covers and the image's buffer keeps
/// its capacity, so once the image has reached its steady size a
/// `log_batch` makes only the calls for its own buffers (the TID list, the
/// payload and its `Bytes`: the same count every batch) and a checkpoint
/// with its retirement makes none. Without retirement the image regrows
/// as the log does, and some batches in the window would make one more.
#[test]
fn a_checkpointed_log_reuses_its_image() {
    const PERIOD: usize = 4;
    let _guard = serial();
    let (db, _table, mut gen) = YcsbGenerator::new(ycsb(4_096, 1));
    let mut dur = DurabilityManager::new(&db);
    let mut tids = TidGen::new();
    let batches: Vec<Batch> =
        (0..48).map(|_| Batch::assemble(Vec::new(), gen.gen_batch(256), &mut tids)).collect();
    let (mut logged, mut checkpointed) = (Vec::with_capacity(batches.len()), 0);
    for (i, batch) in batches.iter().enumerate() {
        let before = CALLS.load(Ordering::Relaxed);
        dur.log_batch(batch);
        let after_log = CALLS.load(Ordering::Relaxed);
        if (i + 1) % PERIOD == 0 {
            dur.checkpoint(&db);
            dur.retire_below(dur.checkpoint_batch());
        }
        let after_checkpoint = CALLS.load(Ordering::Relaxed);
        // Four periods warm the image to its steady size.
        if i >= 4 * PERIOD {
            logged.push(after_log - before);
            checkpointed += after_checkpoint - after_log;
        }
    }
    let disk = dur.log().disk_len();
    println!("allocator calls per log_batch with a checkpoint every {PERIOD}: {logged:?}");
    assert_eq!(disk, 0, "every frame is retired at the last checkpoint");
    assert_eq!(dur.logged_batches(), batches.len());
    assert!(logged.iter().all(|&n| n == logged[0] && n <= 4), "log_batch calls: {logged:?}");
    assert_eq!(checkpointed, 0, "checkpoints and retirements made {checkpointed} calls");
}

/// Allocator calls per transaction of a steady-state 4-shard tick over a
/// 10 %-cross YCSB-A stream (routing, split, WAL, the round, decision and
/// requeue; no standby rows, whose replay threads would be counted too).
fn four_shard_tick_calls_per_txn() -> f64 {
    const BATCH: usize = 1_024;
    let cfg = YcsbConfig::new(YcsbWorkload::A, 65_536)
        .with_seed(0xa1_10_c8)
        .with_alpha(0.8)
        .with_partitions(4, 10);
    let (db, table, mut gen) = YcsbGenerator::new(cfg.clone());
    let mut server = ShardedServer::new(
        db,
        ycsb_partitioner(4, table, &cfg),
        LtpgConfig { max_batch: BATCH, ..LtpgConfig::default() },
        ServerConfig { batch_size: BATCH, pipelined: false, ..ServerConfig::default() },
    );
    server.submit_all(gen.gen_batch(BATCH * 14));
    for _ in 0..8 {
        assert!(server.tick().is_some());
    }
    let (before, mut txns) = (CALLS.load(Ordering::Relaxed), 0);
    for _ in 0..4 {
        let summary = server.tick().expect("work queued");
        txns += summary.committed.len() + summary.aborted.len();
    }
    (CALLS.load(Ordering::Relaxed) - before) as f64 / txns as f64
}

/// A 4-shard tick moves each single-shard transaction into its sub-batch
/// and each aborted one back into the intake, where it cloned both, and
/// routes and logs without per-transaction buffers. At commit 077ecc4 this
/// read 20.38 allocator calls per transaction; it reads 6.11, and may read
/// at most a third of the old figure.
#[test]
fn a_steady_state_four_shard_tick_allocates_less_than_before() {
    let _guard = serial();
    let calls = four_shard_tick_calls_per_txn();
    println!("allocator calls per transaction of a 4-shard tick: {calls:.2}");
    assert!(calls <= 20.38 / 3.0, "{calls:.2} allocator calls per transaction");
}

#[test]
fn steady_state_server_ticks_charge_zero_alloc_events() {
    let _guard = serial();
    let (db, _table, mut gen) = YcsbGenerator::new(ycsb(4_096, 1));
    let mut server = LtpgServer::new(
        db,
        LtpgConfig { max_batch: 512, ..LtpgConfig::default() },
        ServerConfig { batch_size: 256, pipelined: false, ..ServerConfig::default() },
    );
    server.submit_all(gen.gen_batch(256 * 10));

    for _ in 0..4 {
        assert!(server.tick().is_some());
    }
    let events = server.telemetry().counter_value(names::LTPG_ALLOC_EVENTS);
    assert!(events > 0, "warm-up ticks must charge the initial arena fills");
    for t in 0..6 {
        assert!(server.tick().is_some());
        let now = server.telemetry().counter_value(names::LTPG_ALLOC_EVENTS);
        assert_eq!(now, events, "steady-state server tick {t} charged new alloc events");
    }
}

#[test]
fn steady_state_sharded_ticks_charge_zero_alloc_events() {
    let _guard = serial();
    let shards = 2;
    let cfg = ycsb(4_096, shards);
    let (db, table, mut gen) = YcsbGenerator::new(cfg.clone());
    let mut server = ShardedServer::new(
        db,
        ycsb_partitioner(shards, table, &cfg),
        LtpgConfig { max_batch: 512, ..LtpgConfig::default() },
        ServerConfig { batch_size: 256, pipelined: false, ..ServerConfig::default() },
    );
    server.submit_all(gen.gen_batch(256 * 26));

    // Sub-batch sizes vary with routing, so the per-shard arenas warm over
    // several ticks: each new per-shard high-watermark charges one arena
    // refill, and with this seed the last watermark break lands at tick 17.
    // The fixed seed makes the sequence reproducible.
    for _ in 0..20 {
        assert!(server.tick().is_some());
    }
    fn per_shard(server: &ShardedServer, shards: u32) -> Vec<u64> {
        (0..shards)
            .map(|s| server.shard_telemetry(s).counter_value(names::LTPG_ALLOC_EVENTS))
            .collect()
    }
    let events = per_shard(&server, shards);
    assert!(events.iter().all(|&e| e > 0), "every shard warms its own arena: {events:?}");
    for t in 0..4 {
        assert!(server.tick().is_some());
        let now = per_shard(&server, shards);
        assert_eq!(now, events, "steady-state sharded tick {t} charged new alloc events");
    }
}
