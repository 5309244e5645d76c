#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # LTPG — Large-batch Transaction Processing on GPUs
//!
//! Reproduction of the LTPG engine (Wei et al., ICDE 2024): a GPU-resident
//! OLTP engine that executes large transaction batches under **deterministic
//! optimistic concurrency control** in three device kernels —
//!
//! 1. **Execute** — every transaction runs speculatively against the
//!    device-resident snapshot, buffering writes in local sets and
//!    registering its TID in the conflict log (`atomicMin` per accessed
//!    row).
//! 2. **Conflict detection** — each access checks the recorded minimum
//!    read/write TIDs for WAW / RAW / WAR conflicts and flags its
//!    transaction.
//! 3. **Write-back** — transactions that pass the deterministic commit rule
//!    apply their local write sets; the rest abort and re-enter a later
//!    batch with their original TID.
//!
//! Unlike GPUTx/GaccO there is **no pre-declared read/write set and no
//! dependency graph** — that is the paper's headline claim, and this crate
//! reproduces the machinery that makes it viable:
//!
//! * [`conflict::ConflictLog`] — dynamic hash buckets (§V-C): popular
//!   tables get `s_u = ⌈E/WS⌉·WS`-slot buckets so TID registration spreads
//!   over slots instead of serializing on one atomic.
//! * [`footprint`] — a transaction's access list as a value (Algorithm
//!   1's `recordTID` / `rcheck` / `wcheck` all run over one list): which
//!   conflict cells a read or a buffered mutation touches, in which order,
//!   with which check, and the WAW / WAR / RAW table. The engine and the
//!   CPU twin both walk it.
//! * adaptive warp division (§V-B) — lanes are ordered so each 32-lane warp
//!   runs one procedure type, eliminating intra-warp divergence.
//! * the high-contention suite (§V-D) — Aria-style logical reordering
//!   (commit iff ¬WAW ∧ (¬RAW ∨ ¬WAR)), row-level conflict-flag splitting
//!   (hot columns get their own conflict log), and delayed updates
//!   (commutative hot-column adds skip conflict detection entirely and
//!   fold at write-back via an intra-warp merge).
//! * [`intake::drive_stream`] — the closed loop every generator-fed run
//!   goes through: aborted transactions re-enter with their original TIDs
//!   one batch later, or two under batch-to-batch pipelining (§V-E), whose
//!   upload / compute / download overlap is [`ltpg_gpu_sim::Pipeline`]
//!   over [`LtpgBatchStats::stages`].
//!
//! The "GPU" is the functional SIMT simulator of [`ltpg_gpu_sim`]; see
//! DESIGN.md for why that substitution preserves the paper's behaviour.
//!
//! ## Quick example
//!
//! ```
//! use ltpg::{LtpgConfig, LtpgEngine};
//! use ltpg_storage::{Database, TableBuilder};
//! use ltpg_txn::{Batch, IrOp, ProcId, Src, TidGen, Txn};
//!
//! let mut db = Database::new();
//! let t = db.add_table(TableBuilder::new("T").column("v").capacity(16).build());
//! db.table_mut(t).insert(1, &[10]).unwrap();
//!
//! let mut engine = LtpgEngine::new(db, LtpgConfig::default());
//! let mut tids = TidGen::new();
//! let txn = Txn::new(
//!     ProcId(0),
//!     vec![],
//!     vec![IrOp::Update { table: t, key: Src::Const(1), col: ltpg_storage::ColId(0), val: Src::Const(42) }],
//! );
//! let batch = Batch::assemble(vec![], vec![txn], &mut tids);
//! let report = engine.execute_batch_report(&batch);
//! assert_eq!(report.report.committed.len(), 1);
//! ```

pub mod adaptive;
pub mod config;
pub mod conflict;
pub mod engine;
pub mod executor;
pub mod faults;
pub mod footprint;
pub mod intake;
#[cfg(test)]
mod pipeline;
pub mod recovery;
pub mod server;
pub mod stats;
pub mod twin;

pub use adaptive::{AdaptiveEngine, AdaptivePolicy, BatchProfile, EngineChoice};
pub use config::{CommutativeMask, LtpgConfig, OptFlags, ServerConfig};
pub use conflict::ConflictLog;
pub use engine::{
    commit_decision, flag, stage_effects, ExecScope, LtpgEngine, PreparedBatch,
};
pub use executor::{Executor, LostDevices, Prepared};
pub use faults::{
    FaultHorizon, FaultInjector, FaultPlan, PromotionCrashpoint, ReplicaChaos, WalDamage,
    WalDamageReport,
};
pub use intake::{drive_stream, Formed, Intake, StreamOutcome};
#[cfg(feature = "qa-inject")]
pub use engine::qa_inject;
pub use recovery::{
    recover, replay_frames, replay_logged, DurabilityManager, RecoveryError, RecoveryOutcome,
    RecoveryStats,
};
pub use server::{
    BatchSummary, LtpgServer, MergedWords, OneDevice, Replayer, Round, Server,
    ServerError, ServerStats, Shards, StandbyRows, Topology,
};
pub use stats::{FaultStats, LtpgBatchStats};
pub use twin::{CpuTwin, TwinPrepared};
