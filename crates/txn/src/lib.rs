#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ltpg-txn — the transaction model
//!
//! Transactions in this reproduction are instances of **stored procedures
//! compiled to a small dataflow IR** ([`ir::IrOp`]), mirroring the paper's
//! setting: "pre-compiled, stored procedures using CUDA C++ to handle
//! one-time and short transactions" (§VI-A). A transaction carries its
//! parameter block and its (loop-unrolled) operation list; registers thread
//! dataflow between operations (e.g. TPC-C NewOrder reads `D_NEXT_O_ID`
//! into a register and derives the inserted order's key from it).
//!
//! One IR, many interpreters: the serial reference executor in [`exec`]
//! defines the semantics; LTPG's GPU kernels and every baseline engine
//! interpret the same IR, which is what makes the cross-engine
//! state-equivalence tests meaningful.
//!
//! The crate also hosts:
//! * [`oracle`] — the serializability checker: builds the reader-before-
//!   writer constraint graph over a committed set, finds an equivalent
//!   serial order (or reports a cycle), replays it, and compares states.
//! * [`engine::BatchEngine`] — the trait all nine engines implement, so the
//!   benchmark harness sweeps them uniformly.
//! * [`group`] — the typed-warp grouping helper behind LTPG's adaptive warp
//!   division (paper §V-B).

pub mod codec;
pub mod declared;
pub mod engine;
pub mod exec;
pub mod group;
pub mod ir;
pub mod oracle;
pub mod txn;

pub use codec::{decode_batch, decode_txn, encode_batch, encode_txn};
pub use declared::{declared_accesses, visit_declared, Declared, DeclaredAccess};
pub use engine::{BatchEngine, BatchReport};
pub use exec::{apply_mutation, execute_serial, execute_speculative, CellStore, TxnEffects};
pub use ir::{ComputeFn, IrOp, OpKind, Src};
pub use txn::{Batch, ProcId, Tid, TidGen, Txn};
