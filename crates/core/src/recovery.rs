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
//! [`DurabilityManager`] provides that surface. The "disk" is the simulated
//! WAL of `ltpg-storage` (real checksummed frames via the binary codec of
//! `ltpg-txn`, byte-accounted; only the medium is simulated) plus an
//! in-memory checkpoint image.
//!
//! Recovery is *scan-based*: it walks the physical disk image frame by
//! frame, so it sees exactly what a crash (or an injected fault) left
//! behind. Three kinds of damage are distinguished:
//!
//! - a **torn tail** — the last frame is incomplete because the process
//!   died mid-write. This is expected crash damage; the default
//!   [`TailPolicy::Truncate`] drops it and replays the intact prefix.
//!   [`TailPolicy::Strict`] reports it as [`RecoveryError::TornTail`].
//! - a **corrupt frame** — a complete frame whose magic or CRC does not
//!   match. This is never expected; it surfaces as
//!   [`RecoveryError::Frame`] under every policy.
//! - a **missing batch** — the frame sequence has a gap below the log's
//!   logical tail; surfaces as [`RecoveryError::MissingBatch`].
//!
//! All damage is reported through typed errors — recovery never panics on
//! log contents.

use bytes::Bytes;
use ltpg_storage::{BatchLog, BatchRecord, Database, FrameError, ImageCopy, TailState};
use ltpg_txn::codec::{decode_batch, encode_batch, DecodeError};
use ltpg_txn::{Batch, BatchEngine};

use crate::config::LtpgConfig;
use crate::engine::LtpgEngine;

/// Why recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// A logged payload did not decode (the frame passed its CRC, so this
    /// indicates a codec mismatch, not disk damage).
    Corrupt(DecodeError),
    /// The log is missing a batch between the checkpoint and the tail.
    MissingBatch(u64),
    /// A complete frame failed its integrity checks (bad magic or CRC).
    Frame(FrameError),
    /// The log ends in a partial frame and the caller asked for
    /// [`TailPolicy::Strict`].
    TornTail {
        /// Byte offset at which the partial frame starts.
        offset: usize,
        /// Length of the partial frame, bytes.
        bytes: usize,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Corrupt(e) => write!(f, "recovery failed: {e}"),
            RecoveryError::MissingBatch(id) => write!(f, "recovery failed: batch {id} missing"),
            RecoveryError::Frame(e) => write!(f, "recovery failed: {e}"),
            RecoveryError::TornTail { offset, bytes } => {
                write!(f, "recovery failed: torn tail of {bytes} bytes at offset {offset}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Corrupt(e) => Some(e),
            RecoveryError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for RecoveryError {
    fn from(e: FrameError) -> Self {
        RecoveryError::Frame(e)
    }
}

/// What to do about a partial frame at the end of the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TailPolicy {
    /// Drop the torn tail and replay the intact prefix (normal crash
    /// recovery — the tail's batch never acknowledged durability).
    #[default]
    Truncate,
    /// Treat a torn tail as an error. For callers that know the log was
    /// cleanly closed and want silence to mean completeness.
    Strict,
}

/// Recovery policy knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryOptions {
    /// Torn-tail handling.
    pub tail_policy: TailPolicy,
}

/// Counters describing one recovery pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Batches re-executed from the log.
    pub frames_replayed: u64,
    /// Bytes of torn tail dropped (0 when the log ended cleanly).
    pub bytes_truncated: u64,
    /// Whether a torn tail was encountered (and, under
    /// [`TailPolicy::Truncate`], dropped).
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
    checkpoint: (u64, Database),
    /// What the most recent [`checkpoint`](Self::checkpoint) copied.
    last_checkpoint: ImageCopy,
}

impl DurabilityManager {
    /// Start with the initial database as checkpoint 0.
    pub fn new(initial: &Database) -> Self {
        DurabilityManager {
            log: BatchLog::new(),
            checkpoint: (0, initial.deep_clone()),
            last_checkpoint: ImageCopy::default(),
        }
    }

    /// Log a batch (exactly as admitted — requeued transactions keep their
    /// original TIDs). Must be called once per executed batch, in order.
    /// Returns the assigned batch id.
    pub fn log_batch(&mut self, batch: &Batch) -> u64 {
        let payload: Bytes = encode_batch(&batch.txns);
        self.log.append(batch.txns.iter().map(|t| t.tid.0).collect(), payload)
    }

    /// Take a checkpoint of `db`, covering everything up to (excluding)
    /// the next batch to be logged. The image is brought up to date in
    /// place ([`Database::deep_clone_from`]): when it was last taken from
    /// this same `db`, only the rows and index slots written since are
    /// copied and nothing is allocated (bar the node splits of an ordered
    /// index that took inserts); the first checkpoint, and the first of
    /// another database (a rebalance cutover's new slice, a rebuilt
    /// executor), is a full copy into the same arrays. Take it at a batch
    /// boundary. [`last_checkpoint`](Self::last_checkpoint) says what this
    /// one copied.
    pub fn checkpoint(&mut self, db: &Database) {
        self.checkpoint.0 = self.log.len() as u64;
        self.last_checkpoint = self.checkpoint.1.deep_clone_from(db);
    }

    /// What the most recent [`checkpoint`](Self::checkpoint) copied
    /// (nothing before the first).
    pub fn last_checkpoint(&self) -> ImageCopy {
        self.last_checkpoint
    }

    /// Bytes written to the simulated log so far.
    pub fn log_bytes(&self) -> u64 {
        self.log.bytes_written()
    }

    /// Batches currently in the log.
    pub fn logged_batches(&self) -> usize {
        self.log.len()
    }

    /// The underlying write-ahead log (inspection, fault injection).
    pub fn log(&self) -> &BatchLog {
        &self.log
    }

    /// Id of the first batch *not* covered by the current checkpoint.
    pub fn checkpoint_batch(&self) -> u64 {
        self.checkpoint.0
    }

    /// Scan the physical log image, applying `opts.tail_policy`. Returns
    /// the intact records plus tail accounting.
    fn scan_disk(
        &self,
        opts: &RecoveryOptions,
    ) -> Result<(Vec<BatchRecord>, RecoveryStats), RecoveryError> {
        let scan = self.log.scan()?;
        let mut stats = RecoveryStats::default();
        if let TailState::Torn { offset, bytes } = scan.tail {
            match opts.tail_policy {
                TailPolicy::Strict => return Err(RecoveryError::TornTail { offset, bytes }),
                TailPolicy::Truncate => {
                    stats.torn_tail = true;
                    stats.bytes_truncated = bytes as u64;
                }
            }
        }
        Ok((scan.records, stats))
    }

    /// Replay the logged batches after the checkpoint onto `engine`, which
    /// must already hold the checkpoint image. `upto` bounds the replay to
    /// batch ids `< upto` (None = everything intact on disk). This is the
    /// engine-agnostic core of recovery: the same log replays onto the GPU
    /// engine or the CPU fallback and — determinism — yields the same
    /// database.
    pub fn replay_onto<E: BatchEngine>(
        &self,
        engine: &mut E,
        opts: &RecoveryOptions,
        upto: Option<u64>,
    ) -> Result<RecoveryStats, RecoveryError> {
        let (records, mut stats) = self.scan_disk(opts)?;
        let from = self.checkpoint.0;
        let end = upto.unwrap_or(records.len() as u64);
        for id in from..end {
            let record = records
                .get(id as usize)
                .filter(|r| r.batch_id == id)
                .ok_or(RecoveryError::MissingBatch(id))?;
            let txns = decode_batch(&record.payload).map_err(RecoveryError::Corrupt)?;
            let batch = Batch { txns };
            // Replay: the commit rule re-derives the same committed set;
            // aborted transactions were re-logged in their retry batches,
            // so no extra scheduling is needed here.
            let _ = engine.execute_batch(&batch);
            stats.frames_replayed += 1;
        }
        let reg = ltpg_telemetry::global();
        reg.counter(ltpg_telemetry::names::WAL_FRAMES_REPLAYED)
            .add(stats.frames_replayed);
        reg.counter(ltpg_telemetry::names::WAL_BYTES_TRUNCATED)
            .add(stats.bytes_truncated);
        Ok(stats)
    }

    /// Rebuild the database: clone the checkpoint, then re-execute every
    /// intact logged batch after it through a fresh engine with `cfg`.
    /// Determinism guarantees the result equals the lost live state.
    pub fn recover(&self, cfg: LtpgConfig) -> Result<Database, RecoveryError> {
        self.recover_with(cfg, &RecoveryOptions::default()).map(|o| o.db)
    }

    /// [`recover`](Self::recover) with explicit options and full
    /// accounting of what the scan found.
    pub fn recover_with(
        &self,
        cfg: LtpgConfig,
        opts: &RecoveryOptions,
    ) -> Result<RecoveryOutcome, RecoveryError> {
        let mut engine = LtpgEngine::new(self.checkpoint.1.deep_clone(), cfg);
        let stats = self.replay_onto(&mut engine, opts, None)?;
        Ok(RecoveryOutcome { db: engine.into_database(), stats })
    }

    /// A deep clone of the current checkpoint image (the starting point
    /// for any replay).
    pub fn checkpoint_image(&self) -> Database {
        self.checkpoint.1.deep_clone()
    }

    /// Repair the physical log in place: verify every complete frame and
    /// drop a torn tail if present. Returns the number of bytes dropped.
    /// Fails (without modifying anything) if a complete frame is corrupt —
    /// truncating *that* would silently lose acknowledged batches.
    pub fn repair_wal(&self) -> Result<usize, FrameError> {
        self.log.truncate_torn_tail()
    }
}

/// One logged batch's WAL records (`records[s]` is shard `s`'s) as its
/// per-shard sub-batches: the input of a replayed round.
pub fn decode_subs(records: &[BatchRecord]) -> Result<Vec<Batch>, RecoveryError> {
    let decode = |rec: &BatchRecord| decode_batch(&rec.payload).map(|txns| Batch { txns });
    records.iter().map(decode).collect::<Result<_, _>>().map_err(RecoveryError::Corrupt)
}

/// Logged batch `batch_id` as its per-shard sub-batches, read back from
/// every shard's WAL, for degradation replay.
pub(crate) fn logged_subs(logs: &[DurabilityManager], batch_id: u64) -> Result<Vec<Batch>, RecoveryError> {
    let fetch = |dur: &DurabilityManager| dur.log().fetch(batch_id);
    let records: Option<Vec<BatchRecord>> = logs.iter().map(fetch).collect();
    decode_subs(&records.ok_or(RecoveryError::MissingBatch(batch_id))?)
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
    use ltpg_txn::{IrOp, ProcId, Src, TidGen, Txn};

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
            db.table(t).insert(k, &[0, 0]).unwrap();
        }
        (db, t)
    }

    /// Run `rounds` batches, logging each, returning the manager + engine.
    fn run_logged(rounds: usize, per_round: usize) -> (DurabilityManager, LtpgEngine) {
        let (db, t) = build();
        let mut dur = DurabilityManager::new(&db);
        let mut engine = LtpgEngine::new(db, LtpgConfig::default());
        let mut tids = TidGen::new();
        let mut requeued: Vec<Txn> = Vec::new();
        for round in 0..rounds {
            let batch = Batch::assemble(
                std::mem::take(&mut requeued),
                contended_txns(t, per_round, round as i64 + 3),
                &mut tids,
            );
            dur.log_batch(&batch);
            let report = engine.execute_batch(&batch);
            requeued =
                report.aborted.iter().map(|x| batch.by_tid(*x).unwrap().clone()).collect();
        }
        (dur, engine)
    }

    #[test]
    fn recovery_reproduces_the_live_state_bit_for_bit() {
        let (dur, engine) = run_logged(5, 20);
        let live = engine.database().state_digest();
        let recovered = dur.recover(LtpgConfig::default()).unwrap();
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
            // place: the first by a full copy (the image is a clone of the
            // initial database, which mirrors nothing), the three after it
            // by copying what their two batches wrote.
            if round % 2 == 0 && round < 8 {
                dur.checkpoint(engine.database());
                assert_eq!(dur.checkpoint_batch(), round as u64 + 1);
                assert_eq!(
                    dur.checkpoint_image().state_digest(),
                    engine.database().state_digest()
                );
                let copied = dur.last_checkpoint();
                assert_eq!(copied.full, round == 0);
                assert!(round == 0 || (1..=12).contains(&copied.rows), "{copied:?}");
            }
        }
        let outcome =
            dur.recover_with(LtpgConfig::default(), &RecoveryOptions::default()).unwrap();
        assert_eq!(outcome.db.state_digest(), engine.database().state_digest());
        assert_eq!(outcome.stats.frames_replayed, 2, "checkpoint covers the first 7 batches");
        assert!(!outcome.stats.torn_tail);
    }

    #[test]
    fn recovery_with_different_host_parallelism_is_identical() {
        let (dur, engine) = run_logged(3, 16);
        let mut par_cfg = LtpgConfig::default();
        par_cfg.device.parallel_host_threads = 4;
        let recovered = dur.recover(par_cfg).unwrap();
        assert_eq!(recovered.state_digest(), engine.database().state_digest());
    }

    #[test]
    fn torn_tail_truncates_by_default_and_errors_in_strict_mode() {
        let (dur, _engine) = run_logged(4, 12);
        let torn = 5;
        assert_eq!(dur.log().tear_tail(torn), torn);

        let outcome =
            dur.recover_with(LtpgConfig::default(), &RecoveryOptions::default()).unwrap();
        assert!(outcome.stats.torn_tail);
        assert_eq!(outcome.stats.frames_replayed, 3, "the torn 4th frame is dropped");
        assert!(outcome.stats.bytes_truncated > 0);

        let strict =
            RecoveryOptions { tail_policy: TailPolicy::Strict };
        match dur.recover_with(LtpgConfig::default(), &strict) {
            Err(RecoveryError::TornTail { bytes, .. }) => assert!(bytes > 0),
            other => panic!("expected TornTail, got {other:?}"),
        }
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
        dur.log().tear_tail(3);
        let recovered = dur.recover(LtpgConfig::default()).unwrap();
        assert_eq!(recovered.state_digest(), reference.database().state_digest());
    }

    #[test]
    fn corrupt_frame_is_a_typed_error_never_a_panic() {
        let (dur, _engine) = run_logged(3, 10);
        assert!(dur.log().corrupt_frame(1, 0x40));
        match dur.recover(LtpgConfig::default()) {
            Err(RecoveryError::Frame(FrameError::ChecksumMismatch { frame_index, .. })) => {
                assert_eq!(frame_index, 1);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn replay_onto_respects_the_upto_bound() {
        let (dur, _engine) = run_logged(5, 10);
        let mut replayer = LtpgEngine::new(dur.checkpoint_image(), LtpgConfig::default());
        let stats =
            dur.replay_onto(&mut replayer, &RecoveryOptions::default(), Some(2)).unwrap();
        assert_eq!(stats.frames_replayed, 2);
    }

    #[test]
    fn repair_wal_drops_the_tail_and_rejects_mid_log_corruption() {
        let (dur, _engine) = run_logged(3, 10);
        dur.log().tear_tail(2);
        assert_eq!(dur.repair_wal().unwrap(), dur_tail_len(), "whole torn frame dropped");
        assert_eq!(dur.repair_wal().unwrap(), 0, "repair is idempotent");

        let (dur2, _engine2) = run_logged(3, 10);
        dur2.log().corrupt_frame(0, 0x01);
        assert!(dur2.repair_wal().is_err(), "complete-frame corruption is not repairable");
    }

    /// Length of the torn 3rd frame after dropping 2 bytes: computed from
    /// the log geometry of `run_logged(3, 10)`.
    fn dur_tail_len() -> usize {
        let (dur, _e) = run_logged(3, 10);
        let spans = dur.log().frame_spans();
        let (_, len) = spans[2];
        len - 2
    }
}
