//! Durability and deterministic recovery.
//!
//! The paper's durability story (§IV): database snapshots are saved
//! regularly to the hard drive, and the CPU records every batch of
//! transactions as a log, **preserving their original TIDs**. Because the
//! commit decision is a pure function of (snapshot, batch, TIDs), replaying
//! the logged batches from the last checkpoint reproduces the database
//! bit-for-bit — no per-transaction redo/undo logging, the signature
//! economy of deterministic databases.
//!
//! [`DurabilityManager`] provides that surface for one durability domain
//! (the database, or one shard's slice). The "disk" is the simulated WAL of
//! `ltpg-storage` (real checksummed frames via the binary codec of
//! `ltpg-txn`, byte-accounted; only the medium is simulated) plus an
//! in-memory checkpoint image: the rows alone ([`Image`]), each primary
//! index rebuilt from them when a replay starts.
//!
//! There is one replay ([`replay_logged`]; one batch, [`replay_frames`]):
//! from the checkpoint images, each logged batch's frames are read through
//! the WAL's one checked reader and run as a round of the topology's
//! [`Replayer`]. Crash [`recover`]y, the degradation rebuild and standby
//! rows all run it, so each meets what a crash (or an injected fault) left
//! in the log. Each starts from [`DurabilityManager::checkpoint_engine`]:
//! the image, and the conflict-log sizing the checkpointed engine had
//! reached, without which the batches after a checkpoint could run out of
//! log where the live ones did not. Three kinds of damage are distinguished:
//!
//! - a **torn tail** — the last frame is incomplete because the process
//!   died mid-write. This is expected crash damage: recovery drops it,
//!   replays the intact prefix and reports it in [`RecoveryStats`].
//! - a **corrupt frame** — a complete frame whose magic, length or CRC does
//!   not check out. This is never expected; it surfaces as
//!   [`RecoveryError::Frame`], from recovery (which checks every frame the
//!   image holds before it replays any) and from any replay that reads it.
//! - a **missing batch** — a log holds no frame for a batch the replay
//!   needs (never written, torn off, or retired); surfaces as
//!   [`RecoveryError::MissingBatch`].
//!
//! A log is shortened by checkpoints: once one commits, the server shell
//! retires the frames below it ([`DurabilityManager::retire_below`]), or
//! below the cursor of a standby row still to be shipped them. No replay
//! starts below the checkpoint, so every reader finds the frames it reads.
//!
//! All damage is reported through typed errors — recovery never panics on
//! log contents.

use std::ops::Range;
use std::sync::Arc;

use ltpg_gpu_sim::Device;
use ltpg_storage::{BatchLog, Database, Frame, FrameError, Image, ImageCopy, TailState};
use ltpg_telemetry::{names, Registry};
use ltpg_txn::codec::{decode_batch, encode_batch, DecodeError};
use ltpg_txn::Batch;

use crate::config::LtpgConfig;
use crate::conflict::LogSizing;
use crate::engine::LtpgEngine;
use crate::executor::Executor;
use crate::server::{MergedWords, OneDevice, Replayer, Round, ServerError, Topology};

/// Why recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// A logged payload did not decode (the frame passed its CRC, so this
    /// indicates a codec mismatch, not disk damage).
    Corrupt(DecodeError),
    /// A log holds no complete frame for a batch the replay needs.
    MissingBatch(u64),
    /// A complete frame failed its integrity checks (magic, length or CRC).
    Frame(FrameError),
    /// The replayed round failed: its merged flag words do not match the
    /// batch it was handed.
    Round(Box<ServerError>),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Corrupt(e) => write!(f, "logged payload does not decode: {e}"),
            RecoveryError::MissingBatch(id) => write!(f, "batch {id} missing from the log"),
            RecoveryError::Frame(e) => write!(f, "{e}"),
            RecoveryError::Round(e) => write!(f, "replayed round failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Corrupt(e) => Some(e),
            RecoveryError::Frame(e) => Some(e),
            RecoveryError::Round(e) => Some(&**e),
            RecoveryError::MissingBatch(_) => None,
        }
    }
}

impl From<FrameError> for RecoveryError {
    fn from(e: FrameError) -> Self {
        RecoveryError::Frame(e)
    }
}

/// Counters describing one recovery pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Logged batches re-executed (a frame of every log apiece).
    pub frames_replayed: u64,
    /// Bytes of torn tail dropped, over every log (0 when each ended
    /// cleanly).
    pub bytes_truncated: u64,
    /// Whether a log ended in a torn frame, which was dropped.
    pub torn_tail: bool,
}

/// A recovered database plus the counters describing how it was rebuilt.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The rebuilt database.
    pub db: Database,
    /// Recovery counters.
    pub stats: RecoveryStats,
}

/// Checkpoints + batch log + deterministic replay.
pub struct DurabilityManager {
    log: BatchLog,
    /// The checkpoint image and the id of the first batch *not* covered
    /// by it.
    checkpoint: (u64, Image),
    /// The checkpointed engine's conflict-log sizing (the default after a
    /// checkpoint of a bare database).
    sizing: LogSizing,
    /// What the most recent [`checkpoint`](Self::checkpoint) copied.
    last_checkpoint: ImageCopy,
}

impl DurabilityManager {
    /// Start with the initial database as checkpoint 0. The image mirrors
    /// `initial`, so the first [`checkpoint`](Self::checkpoint) of it is a
    /// delta.
    pub fn new(initial: &Database) -> Self {
        DurabilityManager {
            log: BatchLog::new(),
            checkpoint: (0, Image::of(initial)),
            sizing: LogSizing::new(),
            last_checkpoint: ImageCopy::default(),
        }
    }

    /// Log a batch (exactly as admitted — requeued transactions keep their
    /// original TIDs). Must be called once per executed batch, in order.
    /// Returns the assigned batch id.
    pub fn log_batch(&mut self, batch: &Batch) -> u64 {
        let tids: Vec<u64> = batch.txns.iter().map(|t| t.tid.0).collect();
        self.log.append(&tids, &encode_batch(&batch.txns))
    }

    /// Take a checkpoint of `db`, covering everything up to (excluding)
    /// the next batch to be logged. The image is brought up to date in
    /// place ([`Image::refresh_from`]): when it was last taken from this
    /// same `db` (or `db` is the one [`new`](Self::new) started from), only
    /// the rows written since are copied and nothing is allocated; the
    /// first of another database (a rebalance cutover's new slice, a
    /// rebuilt executor) is a full copy into the same arrays. No index slot
    /// is copied, so an index growth costs nothing here. Take it at a batch
    /// boundary. [`last_checkpoint`](Self::last_checkpoint) says what this
    /// one copied.
    pub fn checkpoint(&mut self, db: &Database) {
        self.checkpoint.0 = self.log.len() as u64;
        self.last_checkpoint = self.checkpoint.1.refresh_from(db);
        self.sizing.clear();
    }

    /// [`checkpoint`](Self::checkpoint) of `exec`'s database, keeping its
    /// conflict log's sizing for [`checkpoint_engine`](Self::checkpoint_engine).
    pub fn checkpoint_executor(&mut self, exec: &Executor) {
        self.checkpoint(exec.database());
        exec.engine().conflict_log().record_sizing(&mut self.sizing);
    }

    /// What the most recent [`checkpoint`](Self::checkpoint) copied
    /// (nothing before the first).
    pub fn last_checkpoint(&self) -> ImageCopy {
        self.last_checkpoint
    }

    /// Retire the log's frames below batch `watermark`, never past the
    /// checkpoint: no replay starts below it, so those frames are read
    /// again only by a standby row still to be shipped them, which the
    /// caller lowers the watermark for. The image keeps its buffer.
    pub fn retire_below(&mut self, watermark: u64) {
        self.log.retire_below(watermark.min(self.checkpoint.0) as usize);
    }

    /// Bytes written to the simulated log so far, retired frames included.
    pub fn log_bytes(&self) -> u64 {
        self.log.bytes_written()
    }

    /// Batches logged so far, retired ones included.
    pub fn logged_batches(&self) -> usize {
        self.log.len()
    }

    /// The underlying write-ahead log (inspection).
    pub fn log(&self) -> &BatchLog {
        &self.log
    }

    /// The underlying write-ahead log, to damage it (fault injection).
    pub fn log_mut(&mut self) -> &mut BatchLog {
        &mut self.log
    }

    /// Id of the first batch *not* covered by the current checkpoint.
    pub fn checkpoint_batch(&self) -> u64 {
        self.checkpoint.0
    }

    /// Crash recovery of this log alone ([`recover`] with the one-device
    /// round): the checkpoint image plus every intact logged batch after
    /// it, re-executed through a fresh engine with `cfg`. Determinism
    /// guarantees the result equals the lost live state.
    pub fn recover(&self, cfg: LtpgConfig) -> Result<RecoveryOutcome, RecoveryError> {
        let (dbs, stats) = recover(std::slice::from_ref(self), &cfg, &OneDevice.replayer())?;
        let db = dbs.into_iter().next().expect("one database per log");
        Ok(RecoveryOutcome { db, stats })
    }

    /// The database of the current checkpoint (the starting point for any
    /// replay): fresh tables holding the image's rows, each primary index
    /// rebuilt from the live keys under the same row ids, at the slot
    /// count its source had ([`Image::to_database`]).
    pub fn checkpoint_image(&self) -> Database {
        self.checkpoint.1.to_database()
    }

    /// The engine every replay starts from: over the
    /// [`checkpoint_image`](Self::checkpoint_image), on `device` (a fresh
    /// one for `None`), its conflict log sized as the checkpointed
    /// executor's was, so it decides the logged batches as that one did.
    pub fn checkpoint_engine(
        &self,
        cfg: LtpgConfig,
        telemetry: Arc<Registry>,
        device: Option<Device>,
    ) -> LtpgEngine {
        let device = device.unwrap_or_else(|| Device::new(cfg.device.clone()));
        let mut engine = LtpgEngine::with_device(self.checkpoint_image(), cfg, telemetry, device);
        engine.resize_log(&self.sizing);
        engine
    }

    /// Bytes of cells and keys the checkpoint image holds.
    pub fn image_resident_bytes(&self) -> u64 {
        self.checkpoint.1.resident_bytes()
    }

    /// Repair the physical log in place: verify every retained complete
    /// frame and drop a torn tail if present. Returns the number of bytes
    /// dropped. Fails (without modifying anything) if a complete frame is
    /// corrupt — truncating *that* would silently lose acknowledged
    /// batches.
    pub fn repair_wal(&mut self) -> Result<usize, FrameError> {
        self.log.truncate_torn_tail()
    }
}

/// Crash recovery of a topology from its durability domains (`logs[s]` is
/// shard `s`'s). Every image is checked frame by frame first — a damaged
/// frame it holds is an error, a torn tail is dropped and reported — then
/// the joint checkpoint is replayed up to the joint cut (the fewest
/// complete frames over the logs) through `replay`, on fresh engines that
/// publish to a private registry. Returns each shard's rebuilt database.
pub fn recover(
    logs: &[DurabilityManager],
    cfg: &LtpgConfig,
    replay: &Replayer,
) -> Result<(Vec<Database>, RecoveryStats), RecoveryError> {
    let mut stats = RecoveryStats::default();
    for dur in logs {
        if let TailState::Torn { bytes, .. } = dur.log.verify()? {
            stats.torn_tail = true;
            stats.bytes_truncated += bytes as u64;
        }
    }
    // Checkpoints are joint: every shard's is at the same batch id.
    let from = logs.first().map_or(0, DurabilityManager::checkpoint_batch);
    let cut = logs.iter().map(|dur| dur.logged_batches() as u64).min().unwrap_or(0).max(from);
    let reg = Registry::new_shared();
    let mut row: Vec<Executor> =
        logs.iter().map(|dur| dur.checkpoint_engine(cfg.clone(), Arc::clone(&reg), None).into()).collect();
    replay_logged(&mut row, logs, from..cut, replay, &reg)?;
    stats.frames_replayed = cut - from;
    Ok((row.into_iter().map(Executor::into_database).collect(), stats))
}

/// The one replay loop: logged batches `ids` of `logs` (one WAL per shard)
/// onto `row` (one executor per shard, holding the state the range starts
/// from) by [`replay_frames`]. Counts `wal.recovery.frames_replayed` on
/// `reg`; returns the last batch's merged words. The executors must not
/// lose their device (engines with no fault plan armed): a lost round has
/// no words.
pub fn replay_logged(
    row: &mut [Executor],
    logs: &[DurabilityManager],
    ids: Range<u64>,
    replay: &Replayer,
    reg: &Registry,
) -> Result<MergedWords, RecoveryError> {
    let replayed = reg.counter(names::WAL_FRAMES_REPLAYED);
    let mut words = MergedWords::new();
    for id in ids {
        let frames: Option<Vec<Frame>> = logs.iter().map(|dur| dur.log.frame(id as usize)).collect();
        let frames = frames.ok_or(RecoveryError::MissingBatch(id))?;
        words = replay_frames(row, &frames, replay)?.words;
        replayed.add(frames.len() as u64);
    }
    Ok(words)
}

/// One logged batch replayed: `frames[s]`, shard `s`'s frame of it as the
/// log holds it (or as it was shipped), checked and decoded by the WAL's
/// one reader, then one round of `replay` over `row`.
pub fn replay_frames(
    row: &mut [Executor],
    frames: &[Frame],
    replay: &Replayer,
) -> Result<Round, RecoveryError> {
    let sub = |frame: &Frame| -> Result<Batch, RecoveryError> {
        let txns = decode_batch(&frame.decode()?.payload).map_err(RecoveryError::Corrupt)?;
        Ok(Batch { txns })
    };
    let subs = frames.iter().map(sub).collect::<Result<Vec<_>, _>>()?;
    replay(row, &subs).map_err(|e| RecoveryError::Round(Box::new(e)))
}

impl std::fmt::Debug for DurabilityManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityManager")
            .field("logged_batches", &self.logged_batches())
            .field("checkpoint_at", &self.checkpoint.0)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::{ColId, TableBuilder};
    use ltpg_txn::{BatchEngine, IrOp, ProcId, Src, TidGen, Txn};

    fn contended_txns(t: ltpg_storage::TableId, n: usize, salt: i64) -> Vec<Txn> {
        (0..n as i64)
            .map(|i| {
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![IrOp::Update {
                        table: t,
                        key: Src::Const((i * salt) % 12),
                        col: ColId(0),
                        val: Src::Const(i + salt),
                    }],
                )
            })
            .collect()
    }

    fn build() -> (Database, ltpg_storage::TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(64).build());
        for k in 0..12 {
            db.table_mut(t).insert(k, &[0, 0]).unwrap();
        }
        (db, t)
    }

    /// Run `rounds` batches, logging each, returning the manager + engine.
    fn run_logged(rounds: usize, per_round: usize) -> (DurabilityManager, LtpgEngine) {
        let (db, t) = build();
        let mut dur = DurabilityManager::new(&db);
        let mut engine = LtpgEngine::new(db, LtpgConfig::default());
        // Every round adds `per_round` fresh writers to its re-entry wave:
        // no batch size caps it.
        let mut salt = 2;
        let gen = |_| {
            salt += 1;
            contended_txns(t, per_round, salt)
        };
        crate::intake::drive_stream(gen, rounds, usize::MAX, false, |batch| {
            dur.log_batch(batch);
            engine.execute_batch(batch)
        });
        (dur, engine)
    }

    #[test]
    fn recovery_reproduces_the_live_state_bit_for_bit() {
        let (dur, engine) = run_logged(5, 20);
        let live = engine.database().state_digest();
        let recovered = dur.recover(LtpgConfig::default()).unwrap().db;
        assert_eq!(recovered.state_digest(), live);
        assert!(dur.log_bytes() > 0);
    }

    #[test]
    fn checkpoint_truncates_replay_but_not_correctness() {
        let (db, t) = build();
        let mut dur = DurabilityManager::new(&db);
        let mut engine = LtpgEngine::new(db, LtpgConfig::default());
        let mut tids = TidGen::new();
        for round in 0..9 {
            let batch = Batch::assemble(vec![], contended_txns(t, 10, round + 1), &mut tids);
            dur.log_batch(&batch);
            engine.execute_batch(&batch);
            // Each checkpoint brings the image before it up to date in
            // place by copying what its batches wrote: the image `new`
            // took mirrors the initial database, so the first is a delta
            // too.
            if round % 2 == 0 && round < 8 {
                dur.checkpoint(engine.database());
                assert_eq!(dur.checkpoint_batch(), round as u64 + 1);
                assert_eq!(
                    dur.checkpoint_image().state_digest(),
                    engine.database().state_digest()
                );
                let copied = dur.last_checkpoint();
                assert!(!copied.full, "{copied:?}");
                assert!((1..=12).contains(&copied.rows), "{copied:?}");
            }
        }
        let outcome = dur.recover(LtpgConfig::default()).unwrap();
        assert_eq!(outcome.db.state_digest(), engine.database().state_digest());
        assert_eq!(outcome.stats.frames_replayed, 2, "checkpoint covers the first 7 batches");
        assert!(!outcome.stats.torn_tail);
    }

    #[test]
    fn recovery_with_different_host_parallelism_is_identical() {
        let (dur, engine) = run_logged(3, 16);
        let mut par_cfg = LtpgConfig::default();
        par_cfg.device.parallel_host_threads = 4;
        let recovered = dur.recover(par_cfg).unwrap().db;
        assert_eq!(recovered.state_digest(), engine.database().state_digest());
    }

    #[test]
    fn torn_tail_is_dropped_and_reported() {
        let (mut dur, _engine) = run_logged(4, 12);
        let torn = 5;
        assert_eq!(dur.log_mut().tear_tail(torn), torn);
        let outcome = dur.recover(LtpgConfig::default()).unwrap();
        assert!(outcome.stats.torn_tail);
        assert_eq!(outcome.stats.frames_replayed, 3, "the torn 4th frame is dropped");
        assert!(outcome.stats.bytes_truncated > 0);
    }

    #[test]
    fn truncated_recovery_equals_the_shorter_history() {
        // Dropping the torn last frame must recover exactly the state the
        // engine had *before* that batch — verified against a fresh run of
        // the surviving prefix.
        let (db, t) = build();
        let mut dur = DurabilityManager::new(&db);
        let mut engine = LtpgEngine::new(db.deep_clone(), LtpgConfig::default());
        let mut reference = LtpgEngine::new(db, LtpgConfig::default());
        let mut tids = TidGen::new();
        for round in 0..4 {
            let batch = Batch::assemble(vec![], contended_txns(t, 10, round + 1), &mut tids);
            dur.log_batch(&batch);
            engine.execute_batch(&batch);
            if round < 3 {
                reference.execute_batch(&batch);
            }
        }
        dur.log_mut().tear_tail(3);
        let recovered = dur.recover(LtpgConfig::default()).unwrap().db;
        assert_eq!(recovered.state_digest(), reference.database().state_digest());
    }

    #[test]
    fn corrupt_frame_is_a_typed_error_never_a_panic() {
        let (mut dur, _engine) = run_logged(3, 10);
        assert!(dur.log_mut().corrupt_frame(1, 0x40));
        match dur.recover(LtpgConfig::default()) {
            Err(RecoveryError::Frame(FrameError::ChecksumMismatch { frame_index, .. })) => {
                assert_eq!(frame_index, 1);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    /// The loop replays exactly its range, and names the first batch a log
    /// does not hold.
    #[test]
    fn replay_logged_replays_exactly_its_range() {
        let (dur, _engine) = run_logged(5, 10);
        let (_, two) = run_logged(2, 10);
        let (logs, replay, reg) = (std::slice::from_ref(&dur), OneDevice.replayer(), Registry::new());
        let mut row = [Executor::from(LtpgEngine::new(dur.checkpoint_image(), LtpgConfig::default()))];
        replay_logged(&mut row, logs, 0..2, &replay, &reg).unwrap();
        assert_eq!(row[0].database().state_digest(), two.database().state_digest());
        assert_eq!(reg.counter_value(names::WAL_FRAMES_REPLAYED), 2);
        match replay_logged(&mut row, logs, 2..7, &replay, &reg) {
            Err(RecoveryError::MissingBatch(5)) => {}
            other => panic!("expected batch 5 missing, got {other:?}"),
        }
    }

    #[test]
    fn repair_wal_drops_the_tail_and_rejects_mid_log_corruption() {
        let (mut dur, _engine) = run_logged(3, 10);
        dur.log_mut().tear_tail(2);
        assert_eq!(dur.repair_wal().unwrap(), dur_tail_len(), "whole torn frame dropped");
        assert_eq!(dur.repair_wal().unwrap(), 0, "repair is idempotent");

        let (mut dur2, _engine2) = run_logged(3, 10);
        dur2.log_mut().corrupt_frame(0, 0x01);
        assert!(dur2.repair_wal().is_err(), "complete-frame corruption is not repairable");
    }

    /// Length of the torn 3rd frame after dropping 2 bytes: computed from
    /// the log geometry of `run_logged(3, 10)`.
    fn dur_tail_len() -> usize {
        let (dur, _e) = run_logged(3, 10);
        dur.log().frame(2).unwrap().bytes.len() - 2
    }
}
