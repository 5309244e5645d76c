//! An exact min-TID reference for the engine's conflict-flag words.
//!
//! The engine keeps each cell's minimum reader and writer TIDs in hashed
//! buckets, which can run out and force-abort a lane (`LOG_FULL`). This
//! reference keeps them in exact maps and never runs out. It stages and
//! walks a transaction with the engine's public rules ([`stage_effects`],
//! [`footprint::walk`], [`conflict_flags`]), so what it checks is the
//! conflict log: registration, the min-TID probe and the ownership split.
//! An engine's word must equal the reference's, `LOG_FULL` being the one
//! bit the engine may add.

use std::collections::BTreeMap;

use ltpg::footprint::{self, conflict_flags, Cell};
use ltpg::{flag, stage_effects, CommutativeMask, LtpgConfig};
use ltpg_storage::{Database, TableId};
use ltpg_txn::{execute_speculative, Batch};

/// The flag word of every transaction of `batch` (batch order) against the
/// whole database `db`, registered and checked over the cells whose
/// [`Cell::anchor`] row `owns` says is owned here: a shard's words under
/// that ownership, or the unscoped words with `|_, _| true`.
pub fn flag_words(
    db: &Database,
    cfg: &LtpgConfig,
    batch: &Batch,
    owns: impl Fn(TableId, i64) -> bool,
) -> Vec<u32> {
    let owned = |cell: &Cell| owns(cell.table, cell.anchor());
    let commutative = CommutativeMask::new(cfg);
    let mut min: [BTreeMap<Cell, u64>; 2] = Default::default();
    let mut words = vec![0u32; batch.len()];
    let mut staged = Vec::with_capacity(batch.len());
    for (txn, word) in batch.txns.iter().zip(&mut words) {
        let Ok(fx) = execute_speculative(db, txn) else {
            *word |= flag::USER;
            staged.push(None);
            continue;
        };
        let (reads, mut normal) = (fx.reads, fx.mutations);
        // Delayed adds register nothing, so the reference drops them.
        if stage_effects(&commutative, &reads, &mut normal, &mut Vec::new()) {
            *word |= flag::FORCED;
            staged.push(None);
            continue;
        }
        footprint::walk(db, &reads, &normal, |cell, check| {
            if owned(&cell) {
                for &record in check.records() {
                    let tid = txn.tid.0;
                    min[record as usize].entry(cell).and_modify(|m| *m = (*m).min(tid)).or_insert(tid);
                }
            }
        });
        staged.push(Some((reads, normal)));
    }
    for ((txn, word), staged) in batch.txns.iter().zip(&mut words).zip(&staged) {
        let Some((reads, normal)) = staged else { continue };
        footprint::walk(db, reads, normal, |cell, check| {
            if owned(&cell) {
                let probe = |_: &mut u32, record| min[record as usize].get(&cell).copied();
                conflict_flags(word, check, txn.tid.0, probe, |word, bit| *word |= bit);
            }
        });
    }
    words
}

/// The first lane whose engine word in `got` the reference's `want` does
/// not admit. A lane the engine's log could not hold must read `LOG_FULL`
/// alone; the reference registers what that lane dropped, so in a batch
/// with such a lane the other words may only lack bits of the
/// reference's. In any other batch they are equal.
pub fn first_mismatch(got: &[u32], want: &[u32]) -> Option<usize> {
    let full = got.iter().any(|w| w & flag::LOG_FULL != 0);
    got.iter().zip(want).position(|(&got, &expected)| match (got & flag::LOG_FULL != 0, full) {
        (true, _) => got != flag::LOG_FULL,
        (false, true) => got & !expected != 0,
        (false, false) => got != expected,
    })
}
