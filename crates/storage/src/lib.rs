#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # ltpg-storage — the in-memory storage engine
//!
//! Storage substrate shared by LTPG and every baseline engine in this
//! reproduction. Mirrors the paper's storage assumptions (§VI-A):
//!
//! * **All attributes are 64-bit integers.** The paper sets every column to
//!   integer type ("CUDA does not support strings at present"); we do the
//!   same, so a row is a fixed-width slice of `i64`.
//! * **Hash indexing only.** Each table has a primary open-addressing hash
//!   index (key → row). Range support is emulated over predefined keys,
//!   exactly as the paper does for TPC-C's range-dependent transactions.
//! * **One writer per database.** Cells, keys and index slots are plain
//!   words. Reads take `&` and may be shared (an engine's pre-pass helpers
//!   read during execute); every write takes `&mut`, so the borrow checker
//!   proves the execute → write-back barrier. The write-back kernel's
//!   parallel lanes are modelled by their charges, not raced on the host.
//!
//! The crate also provides a simulated write-ahead batch log
//! ([`wal::BatchLog`]) standing in for the paper's "batch of transactions
//! recorded on the hard drive as logs", and the checkpoint image that log
//! is replayed from ([`image::Image`]: a database's rows, no index).

pub mod btree;
pub mod database;
mod dirty;
pub mod hint;
pub mod image;
pub mod index;
pub mod schema;
pub mod table;
pub mod wal;
mod zeroed;

pub use btree::OrderedIndex;
pub use database::Database;
pub use image::{Image, ImageCopy};
pub use index::PrimaryIndex;
pub use schema::{ColId, Schema, TableBuilder, TableId};
pub use table::{
    membership_key, membership_partition, RowId, Table, TableError, MEMBERSHIP_MARKER_KEY,
    MEMBERSHIP_PARTITION_SHIFT,
};
pub use wal::{BatchLog, BatchRecord, Frame, FrameError, TailState};
