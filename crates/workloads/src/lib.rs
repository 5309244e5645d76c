#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ltpg-workloads — TPC-C and YCSB for the LTPG reproduction
//!
//! Workload generators matching the paper's experimental setup (§VI-A):
//!
//! * **TPC-C** ([`tpcc`]) — NewOrder and Payment only (≈90 % of the full
//!   mix, and the only transaction types every compared system supports),
//!   all attributes integer-typed, hash indexes only, range-query keys
//!   predefined. The NewOrder/Payment percentage and warehouse count are
//!   the two axes of the paper's Tables II and III.
//! * **YCSB** ([`ycsb`]) — workloads A–E over a single `usertable`, ten
//!   operations per transaction, Zipfian key selection with α = 2.5 (the
//!   paper's high-contention setting), cardinality 10⁴–10⁷ (Fig. 7).
//!
//! Both generators are deterministic given a seed, produce [`ltpg_txn::Txn`]
//! instances in the shared IR, and size their tables with headroom for the
//! inserts the batches will perform (device buffers are preallocated, as on
//! a real GPU).

pub mod tpcc;
pub mod ycsb;
pub mod zipf;

pub use tpcc::{TpccConfig, TpccGenerator, TpccTables};
pub use ycsb::{YcsbConfig, YcsbGenerator, YcsbWorkload};
pub use zipf::Zipf;
