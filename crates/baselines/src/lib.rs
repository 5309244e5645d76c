#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ltpg-baselines — the paper's comparison systems
//!
//! Reimplementations of every system LTPG is evaluated against (paper
//! §VI-A) plus two modern rivals (Block-STM and an OptME/Nezha-style
//! address-graph scheduler), all running over the shared substrates
//! (`ltpg-storage` tables, the `ltpg-txn` IR, and — for the GPU systems —
//! the `ltpg-gpu-sim` device):
//!
//! | Engine | Kind | Essence |
//! |---|---|---|
//! | [`AriaEngine`] | CPU, deterministic | batch OCC against a snapshot, reservation tables, optional deterministic reordering |
//! | [`CalvinEngine`] | CPU, deterministic | single-threaded lock manager over pre-declared R/W sets, worker pool execution |
//! | [`BohmEngine`] | CPU, deterministic | MVCC placeholder insertion partitioned by key, then dependency-resolved execution |
//! | [`PwvEngine`] | CPU, deterministic | transaction fragments with early write visibility, per-partition TID-ordered execution |
//! | [`Dbx1000Engine`] | CPU, nondeterministic | TicToc OCC (per-row read/write timestamps, validation with rts extension), real worker threads |
//! | [`BambooEngine`] | CPU, nondeterministic | wound-wait 2PL with early lock release on hot rows and commit dependencies |
//! | [`GputxEngine`] | GPU (simulated) | T-dependency graph from declared sets, rank-by-rank bulk-synchronous execution |
//! | [`GaccoEngine`] | GPU (simulated) | pre-processing sort into per-key conflict order, wave execution with atomic-exchange optimization |
//! | [`BlockStmEngine`] | GPU (simulated) | optimistic wave execution, read-set validation, deterministic TID-order finalization with deferral re-execution |
//! | [`AddrGraphEngine`] | GPU (simulated) | address-sorted conflict graph from declared sets, topological layers executed in parallel, serial barriers for undeclarable txns |
//!
//! Every engine implements [`ltpg_txn::BatchEngine`], so the benchmark
//! harness sweeps them interchangeably with LTPG. Deterministic engines
//! are validated by the ordered-replay oracle; the two nondeterministic
//! ones by final-state equivalence against their claimed commit order plus
//! the TPC-C invariants.
//!
//! Simulated time for the CPU engines comes from one calibrated
//! [`cpu::CpuCostModel`] (30 workers, matching the paper's "30 CPU cores"),
//! so GPU-vs-CPU throughput ratios are comparable in shape.

pub mod addrgraph;
pub mod aria;
pub mod bamboo;
pub mod blockstm;
pub mod bohm;
pub mod calvin;
pub mod cpu;
pub mod dbx1000;
pub mod gacco;
pub mod gputx;
mod mvcc;
pub mod pwv;

pub use addrgraph::{AddrGraphCore, AddrGraphEngine, AddrGraphStats};
pub use aria::AriaEngine;
pub use blockstm::{BlockStmCore, BlockStmEngine, BlockStmStats};
pub use bamboo::BambooEngine;
pub use bohm::BohmEngine;
pub use calvin::CalvinEngine;
pub use cpu::CpuCostModel;
pub use dbx1000::Dbx1000Engine;
pub use gacco::GaccoEngine;
pub use gputx::GputxEngine;
pub use pwv::PwvEngine;
