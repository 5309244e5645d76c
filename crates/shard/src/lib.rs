#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ltpg-shard — sharded multi-device LTPG
//!
//! Scales the LTPG engine across N simulated GPUs with a **deterministic
//! cross-shard protocol that needs no two-phase commit**:
//!
//! * [`Partitioner`] / [`TableRule`] map every `(table, key)` to a home
//!   shard (hash, stride, range, or replicated); [`Router`] classifies
//!   each transaction single-shard vs cross-shard from its declared key
//!   set alone.
//! * Cross-shard transactions run on **every participant**: each shard
//!   executes the whole transaction over its slice (remote reads resolve
//!   through a [`RemoteView`] of the peer snapshots), runs LTPG's
//!   three-phase OCC locally, and the server OR-merges the per-shard
//!   conflict-flag words. Ownership partitions the conflict-cell space
//!   disjointly, so the merged word is exactly the word a single device
//!   would derive — and the shared fixed-TID-order commit rule then gives
//!   every shard the same verdict with **zero extra round trips**
//!   (Calvin-style determinism replacing 2PC, but with no pre-declared
//!   read/write sets on the hot path — routing uses declarations when it
//!   can and broadcasts when it cannot).
//! * [`ShardedServer`] wraps the N engines behind submit/tick/drain, with
//!   per-shard WALs + checkpoints (batch ids aligned across shards) and
//!   per-shard fault injection: losing one device degrades only that
//!   shard to the scoped CPU twin ([`ltpg::CpuTwin`]), rebuilt by joint
//!   lockstep WAL replay, while the history stays bit-identical.
//! * Topology is **elastic**: a [`RebalancePlan`] (range splits, merges,
//!   moves, or wholesale rule swaps) validated against the live
//!   [`Partitioner`] cuts over atomically at an aligned batch id — no
//!   quiescing: batches before the cutover route under the old rules,
//!   batches from it under the new ones, with rows migrated between
//!   slices at the barrier. A load-driven [`RebalancePlanner`] can emit
//!   plans automatically from per-shard telemetry.
//! * With a warm standby pool attached
//!   ([`ShardedServer::attach_replicas`], backed by `ltpg-replica`),
//!   device loss instead promotes a full standby row — one engine per
//!   shard, kept in lockstep by replaying the logged batch stream — at
//!   the next batch boundary; heartbeat monitors fence unresponsive
//!   primaries, timed recoveries re-promote revived devices, and the CPU
//!   twin remains the last-resort fallback when the pool is exhausted.
//!
//! See DESIGN.md ("Sharded execution") for the exactness argument and its
//! one caveat (`LOG_FULL` capacity divergence).

mod lockstep;
pub mod partition;
pub mod rebalance;
pub mod remote;
pub mod router;
pub mod server;

pub use partition::{tpcc_partitioner, ycsb_partitioner, PartitionError, Partitioner, TableRule};
pub use rebalance::{
    plan_split, Imbalance, PlannerConfig, RebalanceError, RebalanceOp, RebalancePlan,
    RebalancePlanner,
};
pub use remote::RemoteView;
pub use router::{Route, Router};
pub use server::{ShardedBatchSummary, ShardedServer, ShardedStats};
