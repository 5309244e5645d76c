//! The LTPG engine: three-phase deterministic optimistic concurrency
//! control on the simulated device (paper §IV, Algorithm 1).
//!
//! Each batch runs as three kernels separated by device barriers:
//!
//! * **execute** — one lane per transaction (warps typed by procedure when
//!   adaptive warp division is on). The lane runs the transaction
//!   speculatively against the device-resident snapshot, stores its local
//!   read/write sets, and registers its TID in the conflict log.
//!   Commutative hot-column adds are staged for delayed update instead of
//!   being registered.
//! * **conflict_d** — one lane per recorded access (read-check and
//!   write-check lanes in separate warp groups, per Algorithm 1's
//!   rcheck/wcheck split). Write accesses flag WAW (an earlier writer
//!   exists) and WAR (an earlier reader exists); read accesses flag RAW.
//! * **writeback** — one lane per transaction. The deterministic commit
//!   rule is `¬WAW ∧ ¬RAW` (plain) or `¬WAW ∧ (¬RAW ∨ ¬WAR)` with logical
//!   reordering. Committed lanes apply their buffered mutations to the
//!   snapshot; a final merge kernel folds the committed delayed adds.
//!
//! All conflict decisions derive from `atomicMin`-maintained minimum TIDs,
//! so the committed set is a pure function of (snapshot, batch, TIDs) —
//! deterministic regardless of device scheduling.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use ltpg_gpu_sim::{Device, DeviceError, PreSlots, SimAtomicU32};
use ltpg_storage::{ColId, Database, TableError, TableId};
use ltpg_telemetry::{names, Registry};
use ltpg_txn::exec::{
    execute_speculative, execute_speculative_on, touch_point_rows, CellStore, Mutation, ReadAccess,
    TxnEffects,
};
use ltpg_txn::group::{arrival_order, order_by_proc};
use ltpg_txn::{Batch, BatchEngine, BatchReport};

use crate::config::LtpgConfig;
use crate::conflict::ConflictLog;
use crate::footprint::{self, conflict_flags, mutation_cells, read_cell, Cell, Check};
use crate::stats::{LtpgBatchStats, ReportWithStats};

/// Conflict-flag bits per transaction. Public so cooperating executors
/// (the sharded CPU twin, cross-shard flag merging) can combine per-shard
/// verdicts: the flag word of a transaction is the bitwise OR of the words
/// derived by every shard that owns one of its cells, and the commit rule
/// ([`commit_decision`]) is a pure function of that word.
pub mod flag {
    /// Write-after-write: an earlier (smaller-TID) writer of the cell exists.
    pub const WAW: u32 = 1 << 0;
    /// Read-after-write: an earlier writer of a cell this txn read exists.
    pub const RAW: u32 = 1 << 1;
    /// Write-after-read: an earlier reader of a cell this txn wrote exists.
    pub const WAR: u32 = 1 << 2;
    /// User/logic abort during speculation (e.g. duplicate insert).
    pub const USER: u32 = 1 << 3;
    /// Forced abort: the transaction read or overwrote a column that the
    /// configuration maintains commutatively (sound fallback).
    pub const FORCED: u32 = 1 << 4;
    /// Forced abort: the conflict log ran out of buckets for one of the
    /// transaction's accesses (log exhaustion — tracked separately from
    /// the delayed-read fallback so dashboards can tell "log undersized"
    /// from "workload touched a commutative column").
    pub const LOG_FULL: u32 = 1 << 5;
}

/// The deterministic commit rule applied to a transaction's final flag
/// word: `¬WAW ∧ ¬RAW` plain, or `¬WAW ∧ (¬RAW ∨ ¬WAR)` under logical
/// reordering — identical on every executor, which is what lets shards
/// reach bit-identical decisions from OR-merged flag words without a
/// voting round.
#[inline]
pub fn commit_decision(logical_reordering: bool, f: u32) -> bool {
    if f & (flag::USER | flag::FORCED | flag::LOG_FULL | flag::WAW) != 0 {
        return false;
    }
    if logical_reordering {
        // Aria's reordering rule: ¬RAW ∨ ¬WAR.
        f & flag::RAW == 0 || f & flag::WAR == 0
    } else {
        f & flag::RAW == 0
    }
}

/// Deliberate-bug injection for the differential QA harness (`ltpg-qa`).
///
/// Only compiled under the `qa-inject` cargo feature — the cross-crate
/// analogue of a `#[cfg(test)]` hook — and default-off at runtime even
/// then, so feature unification during workspace test builds changes
/// nothing. The harness's self-test arms the hook, fuzzes until the
/// resulting divergence is caught, and asserts the shrinker reduces the
/// failing case to a handful of transactions.
#[cfg(feature = "qa-inject")]
pub mod qa_inject {
    use std::sync::atomic::{AtomicBool, Ordering};

    static WAW_BLIND_SPOT: AtomicBool = AtomicBool::new(false);

    /// Arm/disarm the injected bug: transactions whose TID is a multiple
    /// of 3 become invisible to WAW detection at commit time, so a WAW
    /// loser with such a TID commits alongside the winner — exactly the
    /// class of merge-path determinism bug the harness exists to catch.
    pub fn set_waw_blind_spot(on: bool) {
        WAW_BLIND_SPOT.store(on, Ordering::SeqCst);
    }

    /// Whether the blind spot is armed.
    pub fn waw_blind_spot() -> bool {
        WAW_BLIND_SPOT.load(Ordering::SeqCst)
    }
}

/// Result of [`stage_effects`]: speculation output split into plain
/// buffered mutations, staged commutative deltas, and the forced-abort
/// verdict. Shared by the execute kernel and the sharded CPU twin so both
/// derive identical staging decisions.
pub struct Staged {
    /// Recorded reads, in program order.
    pub reads: Vec<ReadAccess>,
    /// Non-commutative buffered mutations, in program order.
    pub normal: Vec<Mutation>,
    /// Staged commutative deltas: `(table, col, key, delta)`.
    pub delayed: Vec<(TableId, ColId, i64, i64)>,
    /// Whether the transaction must be force-aborted (it read or plainly
    /// overwrote a commutatively-maintained column, or deleted from a
    /// table containing one).
    pub forced: bool,
}

/// Classify one transaction's speculation effects exactly as the execute
/// kernel does: commutative adds are staged for the delayed merge, plain
/// overwrites of commutative columns (and deletes against their tables,
/// and reads of them) force-abort, everything else buffers for write-back.
/// The effects are consumed: what buffers for write-back stays in the
/// vector speculation built.
pub fn stage_effects(
    cfg: &LtpgConfig,
    commutative_tables: &HashSet<TableId>,
    fx: TxnEffects,
) -> Staged {
    let TxnEffects { reads, mutations: mut normal, .. } = fx;
    let mut forced = false;
    let mut delayed = Vec::new();
    normal.retain(|m| match m {
        Mutation::Add { table, key, col, delta } if cfg.is_commutative(*table, *col) => {
            delayed.push((*table, *col, *key, *delta));
            false
        }
        // A plain overwrite of a commutative column cannot be merged —
        // abort for soundness.
        Mutation::Update { table, col, .. } if cfg.is_commutative(*table, *col) => {
            forced = true;
            false
        }
        Mutation::Delete { table, .. } if commutative_tables.contains(table) => {
            forced = true;
            false
        }
        _ => true,
    });
    // Reading a commutatively-maintained column would observe a value that
    // delayed merging later changes; force-abort the reader (sound
    // fallback).
    forced |= reads.iter().any(|r| r.col.is_some_and(|c| cfg.is_commutative(r.table, c)));
    Staged { reads, normal, delayed, forced }
}

/// Restricts an engine to the slice of a partitioned database it owns.
///
/// With a scope, the engine still *executes* every transaction of its
/// (sub-)batch in full — resolving reads of rows held elsewhere through
/// `remote` — but registers, detects and writes back **only the cells its
/// shard owns**. Because shards partition the cell space disjointly, the
/// bitwise OR of all participants' flag words for a transaction equals the
/// word a single engine over the whole database would derive, and
/// [`commit_decision`] over the merged word reproduces the single-device
/// commit decision bit-for-bit.
pub struct ExecScope<'a> {
    /// Read view resolving rows this shard does not hold (`None` when the
    /// local database is complete, e.g. a 1-shard scope).
    pub remote: Option<&'a (dyn CellStore + Sync)>,
    /// Whether this shard owns row `(table, key)`. A cell registers, is
    /// checked and is written back where its [`Cell::anchor`] key is
    /// owned: a row's existence and column cells with the row, a
    /// membership marker with the smallest key of its partition.
    pub owns_row: &'a (dyn Fn(TableId, i64) -> bool + Sync),
}

/// Whether `scope` owns row `(table, key)`; the trivial scope owns
/// everything.
#[inline]
pub(crate) fn scope_owns_row(scope: Option<&ExecScope<'_>>, table: TableId, key: i64) -> bool {
    scope.is_none_or(|s| (s.owns_row)(table, key))
}

/// Whether `scope` owns `cell`.
#[inline]
pub(crate) fn scope_owns(scope: Option<&ExecScope<'_>>, cell: Cell) -> bool {
    scope_owns_row(scope, cell.table, cell.anchor())
}

/// Chain of the shard-local slice and the remote view: reads try the local
/// slice first (shards partition keys, so a local hit is authoritative)
/// and fall through to the remote view; ordered scans merge both sides.
/// Shared by the engine's execute kernel and the CPU twin.
pub(crate) struct ScopedStore<'a> {
    pub(crate) local: &'a Database,
    pub(crate) remote: &'a (dyn CellStore + Sync),
}

impl CellStore for ScopedStore<'_> {
    fn cell(&self, table: TableId, key: i64, col: ColId) -> Option<i64> {
        self.local.cell(table, key, col).or_else(|| self.remote.cell(table, key, col))
    }

    fn row_exists(&self, table: TableId, key: i64) -> bool {
        self.local.row_exists(table, key) || self.remote.row_exists(table, key)
    }

    fn row_width(&self, table: TableId) -> usize {
        self.local.row_width(table)
    }

    fn range_keys(&self, table: TableId, lo: i64, hi: i64) -> Option<Vec<i64>> {
        match (self.local.range_keys(table, lo, hi), self.remote.range_keys(table, lo, hi)) {
            (None, None) => None,
            (a, b) => {
                let mut keys: Vec<i64> =
                    a.into_iter().flatten().chain(b.into_iter().flatten()).collect();
                keys.sort_unstable();
                keys.dedup();
                Some(keys)
            }
        }
    }
}

/// Make room in `db`'s primary indexes for the committed inserts among
/// `normal` whose row `owns_row` says is written here, counted per table
/// into `counts`: the `&mut` step before a write-back, which inserts
/// through `&Database` and never grows an index. Shared by the engine and
/// the CPU twin.
pub(crate) fn reserve_inserts<'m>(
    db: &mut Database,
    counts: &mut Vec<usize>,
    normal: impl Iterator<Item = &'m Mutation>,
    owns_row: impl Fn(TableId, i64) -> bool,
) {
    counts.clear();
    counts.resize(db.table_count(), 0);
    for m in normal {
        if let Mutation::Insert { table, key, .. } = m {
            if owns_row(*table, *key) {
                counts[usize::from(table.0)] += 1;
            }
        }
    }
    for (t, &n) in counts.iter().enumerate() {
        if n > 0 {
            db.reserve(TableId(t as u16), n);
        }
    }
}

/// Apply one committed mutation to `db`: the write-back step shared by
/// the engine's kernel and the CPU twin.
pub(crate) fn apply_mutation(db: &Database, m: &Mutation) {
    match m {
        Mutation::Update { table, key, col, value } => {
            let t = db.table(*table);
            if let Some(rid) = t.lookup(*key) {
                t.set(rid, *col, *value);
            }
        }
        Mutation::Add { table, key, col, delta } => {
            let t = db.table(*table);
            if let Some(rid) = t.lookup(*key) {
                t.add(rid, *col, *delta);
            }
        }
        Mutation::Insert { table, key, values } => match db.table(*table).insert(*key, values) {
            Ok(_) => {}
            // Invariant: two committed inserts of one key would be a WAW
            // pair, and WAW always aborts the younger — a duplicate here
            // means the conflict log itself is broken, not the input.
            Err(TableError::Duplicate(_)) => {
                unreachable!("committed duplicate insert: WAW detection failed for key {key}")
            }
            // Invariant: the schema's modelled capacity
            // (TableBuilder::capacity) covers the workload's maximum insert
            // headroom, and the index was reserved for this batch's inserts
            // before the write-back; running out mid-writeback is a sizing
            // bug, and there is no transactional way to un-commit here.
            Err(TableError::Full) => {
                panic!("table {} out of insert headroom", db.table(*table).schema().name)
            }
        },
        Mutation::Delete { table, key } => {
            db.table(*table).delete(*key);
        }
    }
}

/// Outcome of one transaction's execute phase.
struct ExecOutcome {
    /// Non-commutative buffered mutations, in program order.
    normal: Vec<Mutation>,
    /// Staged commutative deltas: `(table, col, key, delta)`.
    delayed: Vec<(TableId, ColId, i64, i64)>,
    /// Device→host bytes of the read/write set ([`TxnEffects::rw_set_bytes`]).
    rw_bytes: u64,
}

/// What the execute kernel's pre-pass hands a lane: its transaction's
/// speculation, staged, with the read/write-set bytes it ships back, or
/// `None` when speculation aborted.
type Speculated = Option<(Staged, u64)>;

/// One conflict-detection work item: one cell of one transaction's
/// footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DetectItem {
    cell: Cell,
    txn: u32,
    check: Check,
}

/// Lay the lanes' detect items out as the detect kernel's dense work
/// array, in lane index order. With `split_checks` the read checks of every
/// lane come first and the write checks after them (rcheck warps and
/// wcheck warps, Algorithm 1 lines 13–16). A lane emits its reads before
/// its writes, so this is the order a stable sort on `check.is_write()`
/// over the concatenation gives, from two slice copies per lane.
fn flatten_detect_items(lanes: &[Vec<DetectItem>], split_checks: bool, items: &mut Vec<DetectItem>) {
    items.clear();
    if !split_checks {
        lanes.iter().for_each(|lane| items.extend_from_slice(lane));
        return;
    }
    let reads_of = |lane: &[DetectItem]| lane.partition_point(|i| !i.check.is_write());
    for lane in lanes {
        items.extend_from_slice(&lane[..reads_of(lane)]);
    }
    for lane in lanes {
        items.extend_from_slice(&lane[reads_of(lane)..]);
    }
}

/// Per-batch state carried from [`LtpgEngine::try_prepare_batch`] to
/// [`LtpgEngine::try_finish_batch`]: buffered execution outcomes, the
/// per-transaction conflict-flag words, and the phase-stats accumulated so
/// far. A sharded caller reads and rewrites the flag words (indexed by
/// position in the batch, i.e. TID order) to merge verdicts across
/// participant shards before finishing.
pub struct PreparedBatch {
    lane_order: Vec<usize>,
    outcomes: Vec<Option<ExecOutcome>>,
    flags: Vec<SimAtomicU32>,
    /// Dense TID array (structure-of-arrays layout): `tids[i]` mirrors
    /// `batch.txns[i].tid.0` so the detect kernel reads TIDs coalesced
    /// instead of gathering through the AoS transaction records.
    tids: Vec<u64>,
    detect_items: u64,
    stats: LtpgBatchStats,
    wall_start: Instant,
}

impl PreparedBatch {
    /// Number of transactions in the prepared batch.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the prepared batch is empty.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Conflict-flag word of transaction `i` (batch order), as derived by
    /// this engine over the cells it owns. See [`flag`] for the bit set.
    pub fn flag_word(&self, i: usize) -> u32 {
        self.flags[i].load()
    }

    /// Overwrite the flag word of transaction `i` with a merged verdict
    /// (the OR over every participant shard's [`Self::flag_word`]).
    pub fn set_flag_word(&mut self, i: usize, word: u32) {
        self.flags[i].store(word);
    }

    /// Simulated nanoseconds accumulated so far (at prepare time this is
    /// exactly the prepare-phase cost: upload, execute, detect and the
    /// interleaved syncs — writeback/D2H have not run yet). Sharded servers
    /// use this to charge merge-barrier stall time.
    pub fn sim_ns(&self) -> f64 {
        self.stats.total_ns()
    }
}

/// Reusable per-batch buffers held by the engine across batches — the
/// arena/slab pass. The buffers are always recycled (finish hands them
/// back, prepare resets them in place), so steady-state batches add zero
/// net heap growth, and the simulated device charges
/// [`ltpg_gpu_sim::CostModel::device_alloc_ns`] only when a buffer grows
/// past its high watermark.
#[derive(Default)]
struct EngineScratch {
    flags: Vec<SimAtomicU32>,
    outcomes: Vec<Option<ExecOutcome>>,
    /// The execute kernel's pre-pass results, one slot per lane.
    speculated: PreSlots<Speculated>,
    items: Vec<DetectItem>,
    /// One buffer per execute lane for the detect items it emits, kept
    /// (with its capacity) from batch to batch.
    lane_items: Vec<Vec<DetectItem>>,
    tids: Vec<u64>,
    committed_flags: Vec<bool>,
    /// Committed inserts per table of the batch being finished.
    insert_counts: Vec<usize>,
    op_items: Vec<(usize, bool)>,
    /// High-watermark (in transactions) of the batch-sized device buffers.
    wm_txns: usize,
    /// High-watermark (in items) of the detect work-item buffer.
    wm_items: usize,
    /// High-watermark (in ops) of the delayed-merge scratch.
    wm_merge: usize,
}

/// The LTPG engine. Owns its database (the device-resident snapshot) and
/// a simulated device.
pub struct LtpgEngine {
    db: Database,
    cfg: LtpgConfig,
    device: Arc<Device>,
    log: ConflictLog,
    /// Tables containing at least one commutatively-maintained column —
    /// deletes against them are force-aborted for soundness.
    commutative_tables: HashSet<TableId>,
    /// Metrics registry every batch publishes to (phase histograms, abort
    /// taxonomy, transfer counters, trace spans).
    telemetry: Arc<Registry>,
    /// Monotonic simulated clock across batches, used to timestamp phase
    /// trace spans.
    sim_clock_ns: f64,
    /// Recycled per-batch buffers (see [`EngineScratch`]).
    scratch: EngineScratch,
}

impl LtpgEngine {
    /// Create an engine over `db` with `cfg`, publishing metrics to the
    /// process-wide registry ([`ltpg_telemetry::global`]).
    pub fn new(db: Database, cfg: LtpgConfig) -> Self {
        Self::with_telemetry(db, cfg, Arc::clone(ltpg_telemetry::global()))
    }

    /// Create an engine over `db` with `cfg`, publishing metrics to a
    /// caller-owned registry (used by [`crate::LtpgServer`] so concurrent
    /// servers in one process do not cross-contaminate).
    pub fn with_telemetry(db: Database, cfg: LtpgConfig, telemetry: Arc<Registry>) -> Self {
        let device = Arc::new(Device::new(cfg.device.clone()));
        Self::on_device(db, cfg, telemetry, device)
    }

    /// Create an engine over `db` that adopts an *existing* device instead
    /// of allocating a fresh one. This is the re-promotion path: a device
    /// that recovered from a timed outage is handed back (after
    /// [`Device::revive`] + [`Device::reset_for_reuse`]) and becomes the
    /// substrate for a new engine over the fallback's live database. The
    /// previous owner's allocation footprint is released and replaced by
    /// this engine's working set, as a real re-initialization would remap
    /// device memory from scratch.
    pub fn with_device(
        db: Database,
        cfg: LtpgConfig,
        telemetry: Arc<Registry>,
        device: Arc<Device>,
    ) -> Self {
        device.release_allocation(device.allocated_bytes());
        Self::on_device(db, cfg, telemetry, device)
    }

    /// The one constructor: size the conflict log, account the working set
    /// on `device` and pre-touch the counters.
    fn on_device(
        db: Database,
        cfg: LtpgConfig,
        telemetry: Arc<Registry>,
        device: Arc<Device>,
    ) -> Self {
        let log = ConflictLog::new(&db, &cfg);
        device.register_allocation(db.bytes() + log.bytes());
        let commutative_tables = cfg.commutative_tables();
        let mut engine = LtpgEngine {
            db,
            cfg,
            device,
            log,
            commutative_tables,
            telemetry: Arc::clone(&telemetry),
            sim_clock_ns: 0.0,
            scratch: EngineScratch::default(),
        };
        engine.rebind_telemetry(telemetry);
        engine
    }

    /// The registry this engine publishes to.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Re-point this engine's (and its device's) metrics at `reg`.
    /// Promotion uses this: a standby replays into a detached registry so
    /// warm-up noise stays off the serving dashboards, then rebinds to the
    /// server's registry the moment it becomes the primary.
    pub fn rebind_telemetry(&mut self, reg: Arc<Registry>) {
        self.device.set_telemetry(&reg);
        // Pre-touch the abort-taxonomy and retry counters so exports show
        // them at zero even before any abort or fault occurs.
        for name in names::ABORT_REASONS {
            reg.counter(name);
        }
        reg.counter(names::FAULT_TRANSIENT_RETRIES);
        self.telemetry = reg;
    }

    /// The simulated device (for stats and calibration experiments).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// A shared handle to the simulated device, outliving the engine. The
    /// failover layer stashes this when a device is lost so a later timed
    /// recovery can revive and re-enlist the same physical device.
    pub fn device_handle(&self) -> Arc<Device> {
        Arc::clone(&self.device)
    }

    /// The engine configuration.
    pub fn config(&self) -> &LtpgConfig {
        &self.cfg
    }

    /// The conflict log (memory occupancy reporting, Table VIII).
    pub fn conflict_log(&self) -> &ConflictLog {
        &self.log
    }

    /// Consume the engine, returning the final database.
    pub fn into_database(self) -> Database {
        self.db
    }

    /// Execute one batch and return the report with the full phase
    /// breakdown.
    ///
    /// Infallible variant for callers that never arm a device fault plan.
    pub fn execute_batch_report(&mut self, batch: &Batch) -> ReportWithStats {
        // Invariant: with no fault plan armed (the default), the device's
        // fallible APIs cannot fail, so this cannot panic. Callers that
        // arm faults must use `try_execute_batch_report`.
        self.try_execute_batch_report(batch)
            .expect("device fault with no fault-aware caller: use try_execute_batch_report")
    }

    /// Execute one batch, surfacing injected device faults.
    ///
    /// Failure atomicity is *not* promised: a [`DeviceError::DeviceLost`]
    /// can land mid-batch (between phase kernels or at the result
    /// download), leaving the live database partially written. That is
    /// exactly the crash model the durability layer handles — the batch
    /// was logged before execution, so replaying checkpoint + log on a
    /// healthy executor reconstructs the correct state
    /// (see `crate::recovery::DurabilityManager`). A
    /// [`DeviceError::TransientTransfer`] before the execute phase leaves
    /// the database untouched and the whole call may simply be retried.
    pub fn try_execute_batch_report(
        &mut self,
        batch: &Batch,
    ) -> Result<ReportWithStats, DeviceError> {
        let prepared = self.try_prepare_batch(batch, None)?;
        self.try_finish_batch(batch, prepared, None)
    }

    /// First half of a batch: upload, speculative execution, conflict-log
    /// registration and conflict detection. **No database mutation happens
    /// here** — write-back lives in [`try_finish_batch`] — so a sharded
    /// caller can prepare every participant shard against the pre-batch
    /// snapshot, OR-merge the per-shard flag words of cross-shard
    /// transactions ([`PreparedBatch::flag_word`] /
    /// [`PreparedBatch::set_flag_word`]), and only then finish each shard.
    ///
    /// `scope: None` runs the engine over its whole database (the
    /// single-device path, bit-identical to the pre-split behaviour).
    pub fn try_prepare_batch(
        &mut self,
        batch: &Batch,
        scope: Option<&ExecScope<'_>>,
    ) -> Result<PreparedBatch, DeviceError> {
        let wall_start = Instant::now();
        let mut stats = LtpgBatchStats::default();
        let n = batch.len();
        let owns = |cell: Cell| scope_owns(scope, cell);
        let scoped_store = scope
            .and_then(|s| s.remote)
            .map(|remote| ScopedStore { local: &self.db, remote });
        self.log.begin_batch();

        // ---- Upload: transaction parameters to the device. ----
        stats.bytes_h2d = batch.payload_bytes();
        stats.h2d_ns = self.device.try_h2d(stats.bytes_h2d)?;

        // ---- Phase 1: execute. ----
        let lane_order = if self.cfg.opts.warp_division {
            order_by_proc(batch)
        } else {
            arrival_order(batch)
        };
        // Per-batch buffers come from the engine arena: reset in place,
        // handed back by `try_finish_batch`. Steady-state batches touch no
        // allocator (see `EngineScratch`).
        let mut outcomes = std::mem::take(&mut self.scratch.outcomes);
        outcomes.clear();
        outcomes.resize_with(n, || None);
        let mut flags = std::mem::take(&mut self.scratch.flags);
        if flags.len() < n {
            flags.resize_with(n, || SimAtomicU32::new(0));
        } else {
            flags.truncate(n);
        }
        for f in &mut flags {
            f.store(0);
        }
        let mut tids = std::mem::take(&mut self.scratch.tids);
        tids.clear();
        tids.extend(batch.txns.iter().map(|t| t.tid.0));
        // Each execute lane emits its detect items as it registers, so no
        // second scan of the access sets runs between execute and detect.
        let mut lane_items = std::mem::take(&mut self.scratch.lane_items);
        if lane_items.len() < n {
            lane_items.resize_with(n, Vec::new);
        }

        let lane_proc_overhead = self.device.cost().proc_overhead_cycles;
        self.device.check_alive()?;
        let warp_lanes = self.cfg.device.warp_size as usize;
        let (db, cfg, commutative_tables) = (&self.db, &self.cfg, &self.commutative_tables);
        let log = &mut self.log;
        // The pure half of a lane: it reads the snapshot and charges
        // nothing, so helper threads may run it ahead of the lanes
        // (DESIGN.md "Hot path", the pre-pass).
        let speculate = |k: usize| -> Speculated {
            if k.is_multiple_of(warp_lanes) {
                // The warp's snapshot reads go out together, as they do on
                // the device (DESIGN.md "Hot path", touch passes).
                let warp = &lane_order[k..];
                touch_point_rows(db, warp[..warp.len().min(warp_lanes)].iter().map(|&i| &batch.txns[i]));
            }
            let txn = &batch.txns[lane_order[k]];
            let fx = match &scoped_store {
                Some(store) => execute_speculative_on(store, txn),
                None => execute_speculative(db, txn),
            }
            .ok()?;
            let rw_bytes = fx.rw_set_bytes();
            Some((stage_effects(cfg, commutative_tables, fx), rw_bytes))
        };
        let mut speculated = std::mem::take(&mut self.scratch.speculated);
        let exec_report = self.device.launch_with_pre("execute", n, &mut speculated, speculate, |lane, spec| {
            let idx = lane_order[lane.global_id];
            let txn = &batch.txns[idx];
            let local_items = &mut lane_items[idx];
            local_items.clear();
            lane.branch(u32::from(txn.proc.0));
            lane.charge_alu(txn.ops.len() as u32);
            lane.charge_cycles(lane_proc_overhead);
            // An aborted speculation buffers nothing; its read/write set
            // still ships back.
            let nothing =
                |rw_bytes| Some(ExecOutcome { normal: Vec::new(), delayed: Vec::new(), rw_bytes });
            let Some((Staged { reads, normal, delayed, forced }, rw_bytes)) = spec else {
                lane.atomic_or_u32(&mut flags[idx], flag::USER);
                outcomes[idx] = nothing(TxnEffects::default().rw_set_bytes());
                return;
            };
            let tid = txn.tid.0;
            for _ in &delayed {
                // Staged for the delayed-update merge.
                lane.write_global(1);
            }
            if forced {
                lane.atomic_or_u32(&mut flags[idx], flag::FORCED);
                outcomes[idx] = nothing(rw_bytes);
                return;
            }
            // The footprint is walked twice. A registration reads and writes
            // a bucket that is rarely in cache, and the next one depends on
            // what it found. So the lane first loads the home bucket of
            // every cell it is about to register, back to back: the misses
            // overlap.
            footprint::walk(db, &reads, &normal, |cell, _| {
                if owns(cell) {
                    log.touch(cell);
                }
            });
            // Then, per operation, the snapshot read (readMem) and the
            // local-set write (recordLS) are charged, and per owned cell the
            // TID is registered (recordTID) and the detect item emitted —
            // the item array is the local set laid out linearly, so emission
            // rides the recordLS writes. A failed registration means the log
            // ran out of buckets: the walk goes on (registered TIDs only
            // ever *add* conflicts) and the transaction aborts below.
            let mut registered = true;
            let mut register = |lane: &mut _, cell: Cell, check: Check| {
                if owns(cell) {
                    registered &= log.register(lane, cell, check, tid);
                    local_items.push(DetectItem { cell, txn: idx as u32, check });
                }
            };
            for r in &reads {
                lane.read_global_random(2);
                lane.write_global(1);
                register(lane, read_cell(r), Check::Read);
            }
            for m in &normal {
                lane.write_global(2);
                mutation_cells(db, m, |cell, check| register(lane, cell, check));
            }
            if !registered {
                // Force-abort: this lane's items must not reach the detect
                // kernel.
                local_items.clear();
                lane.atomic_or_u32(&mut flags[idx], flag::LOG_FULL);
            }
            outcomes[idx] = Some(ExecOutcome { normal, delayed, rw_bytes });
        });
        self.scratch.speculated = speculated;
        stats.execute_ns = exec_report.sim_ns;
        self.device.synchronize();
        stats.sync_ns += self.device.cost().device_sync_ns;

        // ---- Phase 2: conflict detection. ----
        // Items were emitted inline during execute.
        let mut items = std::mem::take(&mut self.scratch.items);
        flatten_detect_items(&lane_items[..n], self.cfg.opts.warp_division, &mut items);
        self.scratch.lane_items = lane_items;

        // ---- Simulated device-side buffer (re)allocation. ----
        // Only growth past a high watermark allocates — zero events in
        // steady state. The batch-sized buffers are the lane order, flag
        // words, outcome slots and the SoA TID array.
        let mut alloc_events = 0u64;
        if n > self.scratch.wm_txns {
            self.scratch.wm_txns = n;
            alloc_events += 4;
        }
        if items.len() > self.scratch.wm_items {
            self.scratch.wm_items = items.len();
            alloc_events += 1;
        }
        if alloc_events > 0 {
            let ns = alloc_events as f64 * self.device.cost().device_alloc_ns;
            stats.alloc_events += alloc_events;
            stats.alloc_ns += ns;
            self.device.advance(ns);
        }
        self.device.check_alive()?;
        let detect_report = self.device.launch("conflict_d", &items, |lane, item| {
            if lane.lane_id == 0 {
                // The warp's checks, like its registrations: every bucket
                // loaded back to back before the first is inspected.
                let warp = &items[lane.global_id..];
                warp[..warp.len().min(warp_lanes)].iter().for_each(|it| self.log.touch(it.cell));
            }
            lane.branch(u32::from(item.check.is_write()));
            // Work-item fetch: the items sit in the dense array execute
            // emitted (one coalesced word).
            lane.read_global(1);
            // TID fetch: coalesced from the SoA TID array.
            lane.read_global(1);
            let word = &mut flags[item.txn as usize];
            conflict_flags(
                lane,
                item.check,
                tids[item.txn as usize],
                |lane, record| self.log.min(lane, item.cell, record),
                |lane, bit| {
                    lane.atomic_or_u32(word, bit);
                },
            );
        });
        stats.detect_ns = detect_report.sim_ns;
        self.device.synchronize();
        stats.sync_ns += self.device.cost().device_sync_ns;

        // Detect items are consumed; recycle the buffer now.
        stats.atomic_ops = exec_report.atomic_ops + detect_report.atomic_ops;
        stats.atomic_serial_depth =
            exec_report.atomic_serial_depth + detect_report.atomic_serial_depth;
        stats.divergent_warps = exec_report.divergent_warps + detect_report.divergent_warps;
        stats.page_faults = exec_report.page_faults + detect_report.page_faults;
        let detect_items = items.len() as u64;
        items.clear();
        self.scratch.items = items;

        Ok(PreparedBatch { lane_order, outcomes, flags, tids, detect_items, stats, wall_start })
    }

    /// Second half of a batch: write-back of committing transactions, the
    /// delayed-update merge, result download and report assembly. The
    /// commit decision is [`commit_decision`] over each transaction's flag
    /// word as it stands in `prepared` — which a sharded caller has
    /// OR-merged across participants between the two halves. With a scope,
    /// only mutations of owned rows are applied.
    pub fn try_finish_batch(
        &mut self,
        batch: &Batch,
        prepared: PreparedBatch,
        scope: Option<&ExecScope<'_>>,
    ) -> Result<ReportWithStats, DeviceError> {
        #[cfg(feature = "qa-inject")]
        let mut prepared = prepared;
        #[cfg(feature = "qa-inject")]
        if qa_inject::waw_blind_spot() {
            for (i, txn) in batch.txns.iter().enumerate() {
                if txn.tid.0 % 3 == 0 {
                    prepared.set_flag_word(i, prepared.flag_word(i) & !flag::WAW);
                }
            }
        }
        let PreparedBatch {
            lane_order,
            mut outcomes,
            flags,
            mut tids,
            detect_items,
            mut stats,
            wall_start,
        } = prepared;
        let n = batch.len();
        let owns_row = |t: TableId, k: i64| scope_owns_row(scope, t, k);

        // ---- Phase 3: write-back. ----
        let reordering = self.cfg.opts.logical_reordering;
        let commit_ok = |f: u32| commit_decision(reordering, f);
        let mut committed_flags = std::mem::take(&mut self.scratch.committed_flags);
        committed_flags.clear();
        committed_flags.extend((0..n).map(|i| commit_ok(flags[i].load())));
        let committed = committed_flags.iter().zip(&outcomes).filter(|(&ok, _)| ok);
        reserve_inserts(
            &mut self.db,
            &mut self.scratch.insert_counts,
            committed.filter_map(|(_, out)| out.as_ref()).flat_map(|out| &out.normal),
            owns_row,
        );
        self.device.check_alive()?;
        let wb_report = self.device.launch("writeback", &lane_order, |lane, &idx| {
            let txn = &batch.txns[idx];
            lane.branch(u32::from(txn.proc.0));
            // Flag-word fetch: one coalesced word from the dense SoA flag
            // array.
            lane.read_global(1);
            let f = flags[idx].load();
            if !commit_ok(f) {
                return;
            }
            let Some(out) = &outcomes[idx] else { return };
            for m in &out.normal {
                let (mt, mk) = m.row();
                if !owns_row(mt, mk) {
                    continue;
                }
                // Row ids were resolved during execute and carried in the
                // local set; write-back only stores.
                match m {
                    Mutation::Update { .. } | Mutation::Add { .. } => lane.write_global_random(1),
                    Mutation::Insert { values, .. } => {
                        lane.write_global_random(values.len() as u32 + 1)
                    }
                    Mutation::Delete { .. } => lane.write_global(1),
                }
                apply_mutation(&self.db, m);
            }
        });
        stats.writeback_ns = wb_report.sim_ns;

        // ---- Delayed-update merge (paper Example 3). ----
        let mut merge_map: std::collections::HashMap<(TableId, ColId, i64), (i64, u32)> =
            std::collections::HashMap::new();
        for (idx, committed) in committed_flags.iter().enumerate().take(n) {
            if !committed {
                continue;
            }
            let Some(out) = &outcomes[idx] else { continue };
            for &(t, c, k, d) in &out.delayed {
                if !owns_row(t, k) {
                    continue;
                }
                stats.delayed_ops_applied += 1;
                let e = merge_map.entry((t, c, k)).or_insert((0, 0));
                e.0 = e.0.wrapping_add(d);
                e.1 += 1;
            }
        }
        let mut merged: Vec<((TableId, ColId, i64), i64, u32)> =
            merge_map.into_iter().map(|(cell, (sum, cnt))| (cell, sum, cnt)).collect();
        merged.sort_unstable_by_key(|(cell, ..)| *cell);
        // One lane per delayed *op* (grouped by cell into warps, as the
        // paper's Example 3 assigns same-row ops to one warp); the cell's
        // last lane writes the merged result. `(cell idx, is_last)`.
        let mut op_items = std::mem::take(&mut self.scratch.op_items);
        op_items.clear();
        for (ci, (_, _, cnt)) in merged.iter().enumerate() {
            for j in 0..*cnt {
                op_items.push((ci, j + 1 == *cnt));
            }
        }
        // Simulated buffer allocation for the finish half: the merge
        // scratch, charged only when it grows past its watermark.
        if op_items.len() > self.scratch.wm_merge {
            self.scratch.wm_merge = op_items.len();
            let ns = self.device.cost().device_alloc_ns;
            stats.alloc_events += 1;
            stats.alloc_ns += ns;
            self.device.advance(ns);
        }
        if !op_items.is_empty() {
            let merge_report = self.device.launch("delayed_merge", &op_items, |lane, &(ci, is_last)| {
                let ((t, c, k), sum, cnt) = &merged[ci];
                // Intra-warp broadcast/merge: log2 steps over the ops that
                // folded into this cell.
                lane.warp_shuffle(32 - (cnt.max(&1)).leading_zeros());
                lane.read_global(1);
                if is_last {
                    lane.read_global_random(1);
                    lane.write_global(1);
                    let table = self.db.table(*t);
                    if let Some(rid) = table.lookup(*k) {
                        table.add(rid, *c, *sum);
                    }
                }
            });
            stats.writeback_ns += merge_report.sim_ns;
        }
        self.device.synchronize();
        stats.sync_ns += self.device.cost().device_sync_ns;

        // ---- Download: results / read-write sets to the host. ----
        // Only the flag table and the read/write sets are shipped back (the
        // paper's low-volume mode; Table V measures its overhead).
        stats.bytes_d2h =
            n as u64 + outcomes.iter().flatten().map(|o| o.rw_bytes).sum::<u64>();
        // By this point the batch has fully executed on the device; a
        // transient fault here only repeats the copy (re-running the batch
        // would double-apply its writes), so the retry happens in place.
        // Terminates because a plan's transient set is finite and loss
        // dominates. Device loss still propagates.
        stats.d2h_ns = loop {
            match self.device.try_d2h(stats.bytes_d2h) {
                Ok(ns) => break ns + stats.d2h_retries as f64 * self.device.cost().pcie_latency_ns,
                Err(e @ DeviceError::DeviceLost { .. }) => return Err(e),
                Err(DeviceError::TransientTransfer { .. }) => {
                    // Count on the registry immediately — a later device
                    // loss must not erase retries that already happened.
                    // Each wasted round trip already charged one PCIe
                    // latency on the device clock; the `break` arm folds
                    // the same amount into the phase's simulated time so
                    // histogram, critical path and device agree.
                    stats.d2h_retries += 1;
                    self.telemetry.counter(names::FAULT_TRANSIENT_RETRIES).inc();
                    self.telemetry
                        .counter(names::FAULT_RETRY_PENALTY_NS)
                        .add(self.device.cost().pcie_latency_ns.round() as u64);
                }
            }
        };

        // ---- Counters and report assembly. ----
        stats.divergent_warps += wb_report.divergent_warps;
        stats.page_faults += wb_report.page_faults;
        stats.delayed_read_aborts =
            (0..n).filter(|&i| flags[i].load() & flag::FORCED != 0).count() as u64;
        stats.log_exhausted_aborts =
            (0..n).filter(|&i| flags[i].load() & flag::LOG_FULL != 0).count() as u64;

        let mut committed = Vec::new();
        let mut aborted = Vec::new();
        for (i, txn) in batch.txns.iter().enumerate() {
            if committed_flags[i] {
                committed.push(txn.tid);
            } else {
                aborted.push(txn.tid);
            }
        }
        self.publish_batch(&stats, &flags, &committed_flags, detect_items);
        let report = BatchReport {
            committed,
            aborted,
            sim_ns: stats.total_ns(),
            critical_path_ns: stats.critical_path_ns(),
            transfer_ns: stats.transfer_ns(),
            wall_ns: wall_start.elapsed().as_nanos() as u64,
            semantics: ltpg_txn::engine::CommitSemantics::SnapshotBatch,
        };
        // Hand the batch buffers back to the arena. `clear` drops the held
        // outcomes (their inner vectors are per-transaction and not
        // reusable) but keeps every outer allocation.
        outcomes.clear();
        self.scratch.outcomes = outcomes;
        self.scratch.flags = flags;
        tids.clear();
        self.scratch.tids = tids;
        self.scratch.committed_flags = committed_flags;
        op_items.clear();
        self.scratch.op_items = op_items;
        Ok(ReportWithStats { report, stats })
    }

    /// Publish one batch's phase breakdown, abort taxonomy, conflict-log
    /// occupancy and phase trace spans to the engine's registry.
    fn publish_batch(
        &mut self,
        stats: &LtpgBatchStats,
        flags: &[SimAtomicU32],
        committed_flags: &[bool],
        detect_items: u64,
    ) {
        let reg = &self.telemetry;
        stats.publish(reg);

        // Abort taxonomy. Delayed-read and log-exhaustion forced aborts are
        // already counted by `stats.publish`; here the conflict losers are
        // classified. A RAW ∧ WAR pair under logical reordering is a
        // "reorder rejected" (both escape hatches closed); every other
        // conflict abort lost to a smaller TID outright.
        let mut user = 0u64;
        let mut conflict_loser = 0u64;
        let mut reorder_rejected = 0u64;
        for (i, &ok) in committed_flags.iter().enumerate() {
            if ok {
                continue;
            }
            let f = flags[i].load();
            if f & flag::USER != 0 {
                user += 1;
            } else if f & (flag::FORCED | flag::LOG_FULL) != 0 {
                // Counted via stats.publish.
            } else if f & flag::WAW != 0 {
                conflict_loser += 1;
            } else if self.cfg.opts.logical_reordering
                && f & flag::RAW != 0
                && f & flag::WAR != 0
            {
                reorder_rejected += 1;
            } else {
                conflict_loser += 1;
            }
        }
        reg.counter(names::ABORT_USER).add(user);
        reg.counter(names::ABORT_CONFLICT_LOSER).add(conflict_loser);
        reg.counter(names::ABORT_REORDER_REJECTED).add(reorder_rejected);

        // Conflict-log occupancy: device bytes as modelled and host bytes
        // held right now (gauges), and accesses recorded this batch (one
        // detect item per registered access).
        reg.gauge(names::LTPG_CONFLICT_LOG_BYTES).set(self.log.bytes() as i64);
        reg.gauge(names::LTPG_CONFLICT_LOG_RESIDENT_BYTES).set(self.log.resident_bytes() as i64);
        reg.counter(names::LTPG_CONFLICT_LOG_ACCESSES).add(detect_items);

        // Phase trace: consecutive spans on the engine's simulated clock.
        let trace = reg.trace();
        let mut at = self.sim_clock_ns;
        for (name, dur) in [
            ("ltpg.alloc", stats.alloc_ns),
            ("ltpg.h2d", stats.h2d_ns),
            ("ltpg.execute", stats.execute_ns),
            ("ltpg.detect", stats.detect_ns),
            ("ltpg.writeback", stats.writeback_ns),
            ("ltpg.sync", stats.sync_ns),
            ("ltpg.d2h", stats.d2h_ns),
        ] {
            trace.record(name, at, dur);
            at += dur;
        }
        self.sim_clock_ns = at;
    }
}

impl BatchEngine for LtpgEngine {
    fn name(&self) -> &'static str {
        "LTPG"
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        self.execute_batch_report(batch).report
    }
}

impl std::fmt::Debug for LtpgEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LtpgEngine").field("tables", &self.db.table_count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptFlags;
    use ltpg_storage::TableBuilder;
    use ltpg_txn::oracle::check_snapshot_serializable;
    use ltpg_txn::{IrOp, ProcId, Src, Tid, TidGen, Txn};

    fn small_db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(256).build());
        for k in 0..100 {
            db.table(t).insert(k, &[k, 0]).unwrap();
        }
        (db, t)
    }

    fn read(t: TableId, k: i64, out: u8) -> IrOp {
        IrOp::Read { table: t, key: Src::Const(k), col: ColId(0), out }
    }
    fn write(t: TableId, k: i64, v: i64) -> IrOp {
        IrOp::Update { table: t, key: Src::Const(k), col: ColId(0), val: Src::Const(v) }
    }
    fn add(t: TableId, k: i64, d: i64) -> IrOp {
        IrOp::Add { table: t, key: Src::Const(k), col: ColId(1), delta: Src::Const(d) }
    }

    fn run(db: Database, cfg: LtpgConfig, txns: Vec<Txn>) -> (LtpgEngine, Batch, BatchReport, Database) {
        let pre = db.deep_clone();
        let mut engine = LtpgEngine::new(db, cfg);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let report = engine.execute_batch(&batch);
        (engine, batch, report, pre)
    }

    fn assert_serializable(engine: &LtpgEngine, batch: &Batch, report: &BatchReport, pre: &Database) {
        let committed: Vec<&Txn> =
            report.committed.iter().map(|t| batch.by_tid(*t).unwrap()).collect();
        check_snapshot_serializable(pre, &committed, engine.database()).expect("serializable");
    }

    #[test]
    fn disjoint_batch_commits_fully() {
        let (db, t) = small_db();
        let txns = (0..50).map(|k| Txn::new(ProcId(0), vec![], vec![write(t, k, k + 1000)])).collect();
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), txns);
        assert_eq!(report.committed.len(), 50);
        assert!(report.aborted.is_empty());
        assert_serializable(&engine, &batch, &report, &pre);
        let rid = engine.database().table(t).lookup(7).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 1007);
    }

    #[test]
    fn waw_admits_exactly_the_min_tid_writer() {
        let (db, t) = small_db();
        let txns: Vec<Txn> =
            (0..10).map(|i| Txn::new(ProcId(0), vec![], vec![write(t, 5, 100 + i)])).collect();
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), txns);
        assert_eq!(report.committed, vec![Tid(1)]);
        assert_eq!(report.aborted.len(), 9);
        assert_serializable(&engine, &batch, &report, &pre);
        let rid = engine.database().table(t).lookup(5).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 100);
    }

    #[test]
    fn logical_reordering_commits_war_only_transactions() {
        let (db, t) = small_db();
        // tid1 reads k9 (written by tid2): tid1 has no RAW (writer is
        // later), tid2 has WAR (reader is earlier) but no RAW/WAW.
        let txns = vec![
            Txn::new(ProcId(0), vec![], vec![read(t, 9, 0), write(t, 1, 11)]),
            Txn::new(ProcId(0), vec![], vec![write(t, 9, 99)]),
        ];
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), txns);
        assert_eq!(report.committed.len(), 2, "reordering must commit both");
        assert_serializable(&engine, &batch, &report, &pre);

        // Without reordering, the WAR writer... still commits (WAR alone
        // does not abort in plain Aria either; RAW is what kills). Check a
        // genuine RAW case instead: reader AFTER writer.
        let (db2, t2) = small_db();
        let txns2 = vec![
            Txn::new(ProcId(0), vec![], vec![write(t2, 9, 99)]),
            Txn::new(ProcId(0), vec![], vec![read(t2, 9, 0), write(t2, 1, 11)]),
        ];
        let cfg = LtpgConfig::with_opts(OptFlags { logical_reordering: false, ..OptFlags::all() });
        let (engine2, batch2, report2, pre2) = run(db2, cfg, txns2);
        // tid2 reads what tid1 wrote: RAW → abort without reordering.
        assert_eq!(report2.committed, vec![Tid(1)]);
        assert_serializable(&engine2, &batch2, &report2, &pre2);
    }

    #[test]
    fn reordering_still_aborts_raw_and_war_combination() {
        let (db, t) = small_db();
        // tid1 writes k3 and reads k4; tid2 reads k3 (RAW vs tid1) and
        // writes k4 (WAR vs tid1) → tid2 must abort even with reordering.
        let txns = vec![
            Txn::new(ProcId(0), vec![], vec![write(t, 3, 30), read(t, 4, 0)]),
            Txn::new(ProcId(0), vec![], vec![read(t, 3, 0), write(t, 4, 40)]),
        ];
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), txns);
        assert_eq!(report.committed, vec![Tid(1)]);
        assert_eq!(report.aborted, vec![Tid(2)]);
        assert_serializable(&engine, &batch, &report, &pre);
    }

    #[test]
    fn commutative_adds_all_commit_with_delayed_update() {
        let (db, t) = small_db();
        let mut cfg = LtpgConfig::default();
        cfg.delayed_cols.insert((t, ColId(1)));
        let txns: Vec<Txn> =
            (0..32).map(|i| Txn::new(ProcId(0), vec![], vec![add(t, 7, i + 1)])).collect();
        let (engine, batch, report, pre) = run(db, cfg, txns);
        assert_eq!(report.committed.len(), 32, "delayed update must commit all adders");
        assert_serializable(&engine, &batch, &report, &pre);
        let rid = engine.database().table(t).lookup(7).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(1)), (1..=32).sum::<i64>());
    }

    #[test]
    fn without_delayed_update_adds_conflict_as_rmw() {
        let (db, t) = small_db();
        let mut cfg = LtpgConfig::default();
        cfg.delayed_cols.insert((t, ColId(1)));
        cfg.opts.delayed_update = false;
        let txns: Vec<Txn> =
            (0..10).map(|i| Txn::new(ProcId(0), vec![], vec![add(t, 7, i + 1)])).collect();
        let (engine, batch, report, pre) = run(db, cfg, txns);
        assert_eq!(report.committed.len(), 1, "RMW adds must WAW-conflict");
        assert_serializable(&engine, &batch, &report, &pre);
    }

    #[test]
    fn reader_of_commutative_column_is_force_aborted() {
        let (db, t) = small_db();
        let mut cfg = LtpgConfig::default();
        cfg.delayed_cols.insert((t, ColId(1)));
        let reader = Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Read { table: t, key: Src::Const(7), col: ColId(1), out: 0 }],
        );
        let adder = Txn::new(ProcId(0), vec![], vec![add(t, 7, 5)]);
        let (engine, batch, report, pre) = run(db, cfg, vec![reader, adder]);
        assert_eq!(report.committed, vec![Tid(2)], "adder commits, reader force-aborts");
        assert_serializable(&engine, &batch, &report, &pre);
    }

    #[test]
    fn cell_granularity_decouples_columns_of_one_row() {
        // Writer of column 0 vs writer of column 1 on the same row: LTPG's
        // conflict flags are cell-granular, so both commit — with or
        // without the dedicated split log for column 1 (splitting is a
        // contention/routing optimization, not a semantic one).
        let build = |split: bool| {
            let (db, t) = small_db();
            let mut cfg = LtpgConfig::default();
            cfg.opts.logical_reordering = false;
            cfg.opts.delayed_update = false;
            cfg.opts.conflict_splitting = split;
            cfg.delayed_cols.insert((t, ColId(1)));
            let txns = vec![
                Txn::new(ProcId(0), vec![], vec![write(t, 5, 50)]), // col 0 writer
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![IrOp::Update { table: t, key: Src::Const(5), col: ColId(1), val: Src::Const(9) }],
                ),
            ];
            run(db, cfg, txns)
        };
        for split in [true, false] {
            let (engine, batch, report, pre) = build(split);
            assert_eq!(report.committed.len(), 2, "distinct cells must not conflict (split={split})");
            assert_serializable(&engine, &batch, &report, &pre);
        }
        // Same cell still conflicts, of course.
        let (db, t) = small_db();
        let txns = vec![
            Txn::new(ProcId(0), vec![], vec![write(t, 5, 50)]),
            Txn::new(ProcId(0), vec![], vec![write(t, 5, 60)]),
        ];
        let (.., same_cell, _) = run(db, LtpgConfig::default(), txns);
        assert_eq!(same_cell.committed.len(), 1);
    }

    /// The execute kernel's pre-pass (speculation and staging) may run on
    /// helper threads; the decisions, the state and every simulated figure
    /// must not notice.
    #[test]
    fn engine_is_deterministic_across_parallelism() {
        let mk = |threads: usize| {
            let (db, t) = small_db();
            let mut cfg = LtpgConfig::default();
            cfg.device.parallel_host_threads = threads;
            let txns: Vec<Txn> = (0..200)
                .map(|i| {
                    Txn::new(
                        ProcId((i % 2) as u16),
                        vec![],
                        vec![read(t, i % 30, 0), write(t, (i * 7) % 40, i)],
                    )
                })
                .collect();
            let (engine, _b, report, _p) = run(db, cfg, txns);
            let stats = engine.device().stats();
            let simulated = (
                report.sim_ns.to_bits(),
                report.critical_path_ns.to_bits(),
                stats.busy_ns.to_bits(),
                stats.atomic_serial_depth,
                stats.divergent_warps,
            );
            (report.committed, engine.database().state_digest(), simulated, stats.helper_lanes)
        };
        let (c1, d1, s1, h1) = mk(1);
        assert_eq!(h1, 0, "one host thread has no helper");
        for threads in [2, 4] {
            let (c, d, s, _) = mk(threads);
            assert_eq!((&c, d, s), (&c1, d1, s1), "{threads} host threads");
        }
    }

    #[test]
    fn aborted_txn_commits_on_reexecution_with_original_tid() {
        let (db, t) = small_db();
        let mut engine = LtpgEngine::new(db, LtpgConfig::default());
        let mut gen = TidGen::new();
        let txns: Vec<Txn> =
            (0..5).map(|i| Txn::new(ProcId(0), vec![], vec![write(t, 5, 100 + i)])).collect();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let r1 = engine.execute_batch(&batch);
        assert_eq!(r1.committed.len(), 1);
        // Re-queue the aborted transactions (original TIDs).
        let requeued: Vec<Txn> =
            r1.aborted.iter().map(|tid| batch.by_tid(*tid).unwrap().clone()).collect();
        let batch2 = Batch::assemble(requeued, vec![], &mut gen);
        let r2 = engine.execute_batch(&batch2);
        // Again exactly one commits — the smallest remaining TID.
        assert_eq!(r2.committed, vec![Tid(2)]);
        let rid = engine.database().table(t).lookup(5).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 101);
    }

    #[test]
    fn inserts_conflict_with_each_other_but_not_with_unique_keys() {
        let (db, t) = small_db();
        let mk = |key: i64| {
            Txn::new(
                ProcId(0),
                vec![],
                vec![IrOp::Insert { table: t, key: Src::Const(key), values: vec![Src::Const(1), Src::Const(2)] }],
            )
        };
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), vec![mk(200), mk(200), mk(201)]);
        assert_eq!(report.committed, vec![Tid(1), Tid(3)]);
        assert_serializable(&engine, &batch, &report, &pre);
    }

    #[test]
    fn user_abort_does_not_block_others() {
        let (db, t) = small_db();
        // Key 5 exists: inserting it is a user abort; an unrelated writer
        // of the same row must still commit (the user abort registers no
        // conflict-log entries).
        let txns = vec![
            Txn::new(ProcId(0), vec![], vec![IrOp::Insert { table: t, key: Src::Const(5), values: vec![Src::Const(0), Src::Const(0)] }]),
            Txn::new(ProcId(0), vec![], vec![write(t, 5, 77)]),
        ];
        let (engine, _batch, report, _pre) = run(db, LtpgConfig::default(), txns);
        assert_eq!(report.committed, vec![Tid(2)]);
        let rid = engine.database().table(t).lookup(5).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 77);
    }

    #[test]
    fn phase_stats_are_populated() {
        let (db, t) = small_db();
        let txns = vec![Txn::new(ProcId(0), vec![1], vec![write(t, 1, 2)])];
        let pre = db.deep_clone();
        let _ = pre;
        let mut engine = LtpgEngine::new(db, LtpgConfig::default());
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let rws = engine.execute_batch_report(&batch);
        let s = &rws.stats;
        assert!(s.h2d_ns > 0.0 && s.d2h_ns > 0.0);
        assert!(s.execute_ns > 0.0 && s.detect_ns > 0.0 && s.writeback_ns > 0.0);
        assert!(s.bytes_h2d > 0 && s.bytes_d2h > 0);
        assert!((rws.report.sim_ns - s.total_ns()).abs() < 1e-9);
        assert!(rws.report.transfer_ns < rws.report.sim_ns);
        // Every phase is non-zero, so the pipelined critical path (the
        // bottleneck stage) is strictly below the serial six-phase sum.
        assert!((rws.report.critical_path_ns - s.critical_path_ns()).abs() < 1e-9);
        assert!(rws.report.critical_path_ns > 0.0);
        assert!(rws.report.critical_path_ns < rws.report.sim_ns);
    }

    #[test]
    fn ordered_scans_are_phantom_protected() {
        // A table with an ordered index; a scanner sums a range while an
        // inserter adds a key inside it.
        let mut db = Database::new();
        let t = db.add_built_table(
            ltpg_storage::Table::new(
                ltpg_storage::TableBuilder::new("T").columns(["a", "b"]).capacity(64).build(),
            )
            .with_ordered(),
        );
        for k in 0..10 {
            db.table(t).insert(k, &[k, 0]).unwrap();
        }
        let scanner = Txn::new(
            ProcId(0),
            vec![],
            vec![
                IrOp::RangeSum { table: t, lo: Src::Const(0), hi: Src::Const(20), col: ColId(0), out: 0 },
                IrOp::Update { table: t, key: Src::Const(1), col: ColId(1), val: Src::Reg(0) },
            ],
        );
        let inserter = Txn::new(
            ProcId(1),
            vec![],
            vec![IrOp::Insert { table: t, key: Src::Const(15), values: vec![Src::Const(100), Src::Const(0)] }],
        );
        // Scanner first (tid 1), inserter second (tid 2): scanner read the
        // snapshot, inserter's membership write has WAR only — both commit,
        // ordered scanner-before-inserter; the oracle validates exactly that.
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), vec![scanner, inserter]);
        assert_eq!(report.committed.len(), 2);
        assert_serializable(&engine, &batch, &report, &pre);
        // The scanner's recorded sum is the pre-insert sum (0..=9).
        let rid = engine.database().table(t).lookup(1).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(1)), (0..10).sum::<i64>());
    }

    #[test]
    fn scanner_reading_after_inserter_aborts_when_it_would_be_inconsistent() {
        // Inserter (tid 1) adds to the range; scanner (tid 2) scans it AND
        // overwrites something the inserter read — RAW (via the membership
        // marker) plus WAR: the scanner must abort under the reorder rule.
        let mut db = Database::new();
        let t = db.add_built_table(
            ltpg_storage::Table::new(
                ltpg_storage::TableBuilder::new("T").columns(["a", "b"]).capacity(64).build(),
            )
            .with_ordered(),
        );
        for k in 0..10 {
            db.table(t).insert(k, &[k, 0]).unwrap();
        }
        let inserter = Txn::new(
            ProcId(1),
            vec![],
            vec![
                IrOp::Read { table: t, key: Src::Const(5), col: ColId(1), out: 0 },
                IrOp::Insert { table: t, key: Src::Const(15), values: vec![Src::Const(100), Src::Reg(0)] },
            ],
        );
        let scanner = Txn::new(
            ProcId(0),
            vec![],
            vec![
                IrOp::RangeSum { table: t, lo: Src::Const(0), hi: Src::Const(20), col: ColId(0), out: 0 },
                IrOp::Update { table: t, key: Src::Const(5), col: ColId(1), val: Src::Reg(0) },
            ],
        );
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), vec![inserter, scanner]);
        assert_eq!(report.committed, vec![Tid(1)], "the scanner must abort: {report:?}");
        assert_serializable(&engine, &batch, &report, &pre);
    }

    #[test]
    fn log_overflow_force_aborts_instead_of_panicking() {
        // A deliberately tiny conflict log: transactions that cannot
        // register abort gracefully and the rest of the batch proceeds.
        let mut db = Database::new();
        let t = db.add_table(
            ltpg_storage::TableBuilder::new("T").columns(["a", "b"]).capacity(1024).build(),
        );
        for k in 0..600 {
            db.table(t).insert(k, &[k, 0]).unwrap();
        }
        // Log sized for ~4*2 accesses: 128 buckets.
        let cfg =
            LtpgConfig { max_batch: 4, est_accesses_per_txn: 2, ..LtpgConfig::default() };
        // 600 distinct write cells overflow a 128-bucket log.
        let txns: Vec<Txn> =
            (0..600).map(|i| Txn::new(ProcId(0), vec![], vec![write(t, i, i)])).collect();
        let pre = db.deep_clone();
        // Private registry: the taxonomy assertion below must not race
        // with other tests publishing to the process-global registry.
        let mut engine =
            LtpgEngine::with_telemetry(db, cfg, ltpg_telemetry::Registry::new_shared());
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let rws = engine.execute_batch_report(&batch);
        // Some force-aborted, the rest committed; nothing panicked and the
        // committed subset is serializable.
        assert!(!rws.report.aborted.is_empty(), "tiny log must overflow");
        assert!(!rws.report.committed.is_empty());
        assert!(rws.stats.log_exhausted_aborts > 0, "overflow counts as log-exhausted aborts");
        assert_eq!(rws.stats.delayed_read_aborts, 0, "no commutative columns in play");
        // The taxonomy counter mirrors the per-batch stat.
        assert_eq!(
            engine.telemetry().counter_value(ltpg_telemetry::names::ABORT_LOG_EXHAUSTED),
            rws.stats.log_exhausted_aborts
        );
        let committed: Vec<&Txn> =
            rws.report.committed.iter().map(|t| batch.by_tid(*t).unwrap()).collect();
        check_snapshot_serializable(&pre, &committed, engine.database()).unwrap();
    }

    #[test]
    fn warp_division_removes_divergence() {
        let mk = |division: bool| {
            let (db, t) = small_db();
            let mut cfg = LtpgConfig::default();
            cfg.opts.warp_division = division;
            let txns: Vec<Txn> = (0..256)
                .map(|i| Txn::new(ProcId((i % 2) as u16), vec![], vec![write(t, i % 100, i)]))
                .collect();
            let pre = db.deep_clone();
            let _ = pre;
            let mut engine = LtpgEngine::new(db, cfg);
            let mut gen = TidGen::new();
            let batch = Batch::assemble(vec![], txns, &mut gen);
            engine.execute_batch_report(&batch).stats.divergent_warps
        };
        assert_eq!(mk(true), 0);
        assert!(mk(false) > 0);
    }

    /// Satellite regression: a retried D2H transfer must charge one PCIe
    /// latency per wasted round trip in the *phase stats* (simulated time)
    /// and in the *device telemetry*, and the two views must agree.
    #[test]
    fn d2h_retry_charges_pcie_latency_in_stats_and_telemetry() {
        use ltpg_gpu_sim::DeviceFaultPlan;
        let (db, t) = small_db();
        let reg = ltpg_telemetry::Registry::new_shared();
        let mut engine = LtpgEngine::with_telemetry(db, LtpgConfig::default(), reg);
        // Engine fault ordinals within one batch: h2d=0, the three
        // check_alive probes=1..=3, d2h=4. Transients at {4, 5} force the
        // download to fail twice and succeed on the third attempt.
        engine.device().arm_faults(DeviceFaultPlan {
            transient_ops: [4u64, 5].into_iter().collect(),
            lost_at_op: None,
            recover_at_op: None,
        });
        let txns: Vec<Txn> =
            (0..16).map(|k| Txn::new(ProcId(0), vec![], vec![write(t, k, k + 1)])).collect();
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let rws = engine.try_execute_batch_report(&batch).unwrap();
        assert_eq!(rws.report.committed.len(), 16);
        assert_eq!(rws.stats.d2h_retries, 2);

        let cost = engine.device().cost();
        let expect = cost.transfer_ns(rws.stats.bytes_d2h) + 2.0 * cost.pcie_latency_ns;
        assert!(
            (rws.stats.d2h_ns - expect).abs() < 1e-6,
            "d2h_ns {} must include both wasted round trips (expected {expect})",
            rws.stats.d2h_ns
        );
        // Telemetry agrees: the device's transfer histogram saw four
        // transfers (upload, two failed downloads, final download) whose
        // total time is exactly the two phase stats.
        let snap = engine
            .telemetry()
            .histogram(ltpg_telemetry::names::GPU_TRANSFER_NS)
            .snapshot();
        assert_eq!(snap.count, 4);
        let phases = rws.stats.h2d_ns + rws.stats.d2h_ns;
        // The histogram stores integer nanoseconds: one rounding step per
        // recorded transfer.
        assert!(
            (snap.sum as f64 - phases).abs() < 4.0,
            "device telemetry ({}) and phase stats ({phases}) disagree",
            snap.sum
        );
        assert_eq!(
            engine.telemetry().counter_value(ltpg_telemetry::names::FAULT_TRANSIENT_RETRIES),
            2
        );
    }

    /// A private-registry engine with the Table II TPC-C configuration.
    fn tpcc_engine(
        db: Database,
        tables: &ltpg_workloads::tpcc::TpccTables,
        max_batch: usize,
    ) -> LtpgEngine {
        use ltpg_workloads::tpcc::cols;
        let mut cfg = LtpgConfig { max_batch, est_accesses_per_txn: 12, ..LtpgConfig::default() };
        cfg.commutative_cols.insert((tables.district, cols::D_NEXT_O_ID));
        cfg.delayed_cols.insert((tables.warehouse, cols::W_YTD));
        cfg.delayed_cols.insert((tables.district, cols::D_YTD));
        cfg.premarked_popular.insert(tables.warehouse);
        cfg.premarked_popular.insert(tables.district);
        LtpgEngine::with_telemetry(db, cfg, ltpg_telemetry::Registry::new_shared())
    }

    /// Fold of a requeue-driven run: committed-TID history, final state
    /// and the bit patterns of every batch's simulated time.
    fn golden_run(
        engine: &mut LtpgEngine,
        gen: &mut dyn FnMut(usize) -> Vec<Txn>,
        batches: usize,
        batch_size: usize,
    ) -> (u64, u64, u64) {
        let mut tids = TidGen::new();
        let mut requeued: Vec<Txn> = Vec::new();
        let (mut history, mut sim_bits) = (0xcbf2_9ce4_8422_2325u64, 0u64);
        let mut fold = |x: u64| history = (history ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        for b in 0..batches {
            let fresh = gen(batch_size - requeued.len());
            // Sticky TIDs: aborted transactions re-enter with the TID they
            // were first assigned.
            let batch = Batch::assemble(std::mem::take(&mut requeued), fresh, &mut tids);
            let report = engine.execute_batch(&batch);
            fold(b as u64);
            report.committed.iter().for_each(|t| fold(t.0));
            sim_bits = sim_bits.wrapping_add(report.sim_ns.to_bits());
            requeued =
                report.aborted.iter().map(|t| batch.by_tid(*t).unwrap().clone()).collect();
        }
        (history, engine.database().state_digest(), sim_bits)
    }

    /// Golden decision digest: what the four hot-path toggles used to pin
    /// by comparison. At commit 4da3952 these streams were run with every
    /// toggle off and every toggle on; both produced the history and state
    /// digests below, and the shipping path produced these simulated-time
    /// bits. The same constants hold in debug and release builds.
    #[test]
    fn golden_decision_digest_pins_the_shipping_path() {
        use ltpg_workloads::{TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbWorkload};

        // TPC-C 50/50 on 2 warehouses with the Table II engine config.
        let (batches, batch_size) = (8, 512);
        let wl = TpccConfig::new(2, 50).with_headroom(batches * batch_size * 20);
        let (db, tables, mut gen) = TpccGenerator::new(wl);
        let mut engine = tpcc_engine(db, &tables, batch_size);
        let tpcc = golden_run(&mut engine, &mut |n| gen.gen_batch(n), batches, batch_size);
        assert_eq!(
            tpcc,
            (0x8d28_bd17_3b88_1d35, 0xcca6_4072_3350_5d9e, 0x07a2_e95b_c427_e56a),
            "TPC-C (history, state, sim-time bits): {tpcc:#x?}"
        );

        // YCSB-A, Zipf 0.6: conflict detection and requeue dominate.
        let (batches, batch_size) = (10, 512);
        let wl = YcsbConfig::new(YcsbWorkload::A, 10_000).with_alpha(0.6);
        let (db, _table, mut gen) = YcsbGenerator::new(wl);
        let cfg = LtpgConfig { max_batch: batch_size, ..LtpgConfig::default() };
        let mut engine =
            LtpgEngine::with_telemetry(db, cfg, ltpg_telemetry::Registry::new_shared());
        let ycsb = golden_run(&mut engine, &mut |n| gen.gen_batch(n), batches, batch_size);
        assert_eq!(
            ycsb,
            (0xf619_866b_5ab6_c7c0, 0xcd01_1c0e_6959_8ce1, 0x8904_ce91_d174_5d1c),
            "YCSB-A (history, state, sim-time bits): {ycsb:#x?}"
        );
    }

    /// The golden digest's streams never delete a row or scan a range.
    /// This one does both: in the TPC-C full mix Delivery finds the oldest
    /// undelivered order with an ordered scan and deletes its NEW_ORDER
    /// row, StockLevel and OrderStatus scan too, and every scan reads a
    /// membership marker that NewOrder's inserts and Delivery's deletes
    /// write. All three values were recorded at commit 555f039, before the
    /// footprint walk existed; moving a delete's marker registration ahead
    /// of its column cells changed none of them (EXPERIMENTS.md, "Perf
    /// ledger — PR 24").
    #[test]
    fn full_mix_digest_pins_a_stream_that_deletes_and_scans() {
        use ltpg_workloads::{TpccConfig, TpccGenerator};
        let (batches, batch_size) = (8, 512);
        let wl = TpccConfig::new(2, 50).with_full_mix().with_headroom(batches * batch_size * 20);
        let (db, tables, mut gen) = TpccGenerator::new(wl);
        let mut engine = tpcc_engine(db, &tables, batch_size);
        let full = golden_run(&mut engine, &mut |n| gen.gen_batch(n), batches, batch_size);
        let new_order = engine.database().table(tables.new_order);
        assert!(new_order.live_rows() < new_order.len(), "Delivery deleted no NEW_ORDER row");
        assert_eq!(
            full,
            (0xa030_8b85_5083_7d7d, 0x437e_f805_ce89_a524, 0x07d7_3edd_a98e_f608),
            "TPC-C full mix (history, state, sim-time bits): {full:#x?}"
        );
    }

    /// The conflict log's epoch space wraps after 2²⁴ − 3 batches, about
    /// four hours of a server ticking 1 100 batches a second. The golden
    /// TPC-C stream started three batches below the top crosses the wrap in
    /// its fourth batch and must fold to the history, state and
    /// simulated-time bits of the same stream started at epoch 0. Without
    /// the clear at the wrap, the slots stamped in the highest epochs hide
    /// fresh TIDs from every later batch, and the histories part.
    #[test]
    fn a_stream_across_the_epoch_wrap_is_the_stream_from_epoch_zero() {
        use crate::conflict::LAST_EPOCH;
        use ltpg_workloads::{TpccConfig, TpccGenerator};
        let run = |resume: Option<u32>| {
            let (batches, batch_size) = (8, 512);
            let wl = TpccConfig::new(2, 50).with_headroom(batches * batch_size * 20);
            let (db, tables, mut gen) = TpccGenerator::new(wl);
            let mut engine = tpcc_engine(db, &tables, batch_size);
            if let Some(epoch) = resume {
                engine.log.resume_at(epoch);
            }
            golden_run(&mut engine, &mut |n| gen.gen_batch(n), batches, batch_size)
        };
        assert_eq!(run(Some(LAST_EPOCH - 3)), run(None));
    }

    /// The detect work array is laid out without a sort: on a mixed TPC-C
    /// batch it must still be exactly the stable `sort_by_key(is_write)` of
    /// the lane-ordered items when the checks are split (warp division
    /// on), and the lane-ordered items themselves when they are not.
    #[test]
    fn flatten_order_is_the_stable_partition_by_is_write() {
        use ltpg_workloads::{TpccConfig, TpccGenerator};
        let (db, _tables, mut gen) = TpccGenerator::new(TpccConfig::new(2, 50).with_headroom(4_096));
        let mut tids = TidGen::new();
        let batch = Batch::assemble(vec![], gen.gen_batch(256), &mut tids);
        let lanes: Vec<Vec<DetectItem>> = batch
            .txns
            .iter()
            .enumerate()
            .map(|(idx, txn)| {
                let fx = execute_speculative(&db, txn).unwrap();
                let mut lane = Vec::new();
                footprint::walk(&db, &fx.reads, &fx.mutations, |cell, check| {
                    lane.push(DetectItem { cell, txn: idx as u32, check })
                });
                lane
            })
            .collect();
        let lane_ordered: Vec<DetectItem> = lanes.iter().flatten().copied().collect();
        let is_write = |i: &DetectItem| i.check.is_write();
        assert!(lane_ordered.iter().any(is_write) && !lane_ordered.iter().all(is_write));
        assert!(
            lane_ordered.iter().any(|i| i.check == Check::MarkerWrite),
            "NewOrder inserts guard membership"
        );

        let mut items = vec![lane_ordered[0]; 3]; // stale content must be cleared
        flatten_detect_items(&lanes, false, &mut items);
        assert_eq!(items, lane_ordered);

        let mut sorted = lane_ordered;
        sorted.sort_by_key(is_write);
        flatten_detect_items(&lanes, true, &mut items);
        assert_eq!(items, sorted);
    }

    /// Once the arena has warmed up (first batch), a steady-state batch
    /// allocates nothing — zero alloc events, zero alloc time — and the
    /// telemetry counter goes flat.
    #[test]
    fn steady_state_batches_charge_zero_alloc_events() {
        let (db, t) = small_db();
        let reg = ltpg_telemetry::Registry::new_shared();
        let mut engine = LtpgEngine::with_telemetry(db, LtpgConfig::default(), reg);
        let mut gen = TidGen::new();
        let mut per_batch = Vec::new();
        for round in 0..4 {
            let txns: Vec<Txn> = (0..64)
                .map(|i| {
                    Txn::new(
                        ProcId(0),
                        vec![],
                        vec![read(t, (round + i) % 30, 0), write(t, (i * 3) % 90, i)],
                    )
                })
                .collect();
            let batch = Batch::assemble(vec![], txns, &mut gen);
            let rws = engine.execute_batch_report(&batch);
            per_batch.push((rws.stats.alloc_events, rws.stats.alloc_ns));
        }
        let counter = engine.telemetry().counter_value(ltpg_telemetry::names::LTPG_ALLOC_EVENTS);

        assert!(per_batch[0].0 > 0, "warm-up batch must charge the initial allocations");
        for (events, ns) in &per_batch[1..] {
            assert_eq!(*events, 0, "steady-state batch allocated");
            assert_eq!(*ns, 0.0, "steady-state batch charged alloc time");
        }
        assert_eq!(counter, per_batch[0].0, "telemetry watermark must stop at warm-up");
    }
}
