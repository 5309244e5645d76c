//! A multi-version record store, built for the BOHM baseline.
//!
//! BOHM (Faleiro & Abadi, VLDB 2015) runs each batch in two steps: a
//! *concurrency-control* step inserts, for every key in every transaction's
//! write set, a **placeholder version** tagged with the writer's TID; an
//! *execution* step then runs transaction logic, reading for each key the
//! version with the largest TID strictly below the reader's TID (falling
//! back to the pre-batch table when no in-batch version qualifies) and
//! filling in its own placeholders. A read that lands on an unfilled
//! placeholder is a data dependency: the reader must wait for the writer.

use std::collections::BTreeMap;

use ltpg_storage::TableId;

/// One version of a record within a batch.
#[derive(Debug, Clone)]
struct Version {
    tid: u64,
    /// `None` while the placeholder has not been filled by its writer.
    row: Option<Vec<i64>>,
}

/// Result of a visibility query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VisibleRead {
    /// A filled version with the given TID is visible; its row is returned.
    Filled(u64, Vec<i64>),
    /// The visible version is a placeholder still being produced by the
    /// transaction with this TID — the caller must wait for it.
    Pending(u64),
    /// No in-batch version is visible; read the base table instead.
    Base,
}

/// Multi-version store keyed by `(table, key)`: one ordered map of
/// version chains, written by the one thread that runs the batch.
#[derive(Debug, Default)]
pub struct MultiVersionStore {
    chains: BTreeMap<(u16, i64), Vec<Version>>,
}

impl MultiVersionStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// CC step: insert a placeholder for `(table, key)` written by `tid`.
    /// Versions for one key must be inserted in increasing TID order within
    /// a partition (BOHM partitions keys across CC threads to guarantee it);
    /// out-of-order inserts are sorted defensively.
    pub fn insert_placeholder(&mut self, table: TableId, key: i64, tid: u64) {
        let chain = self.chains.entry((table.0, key)).or_default();
        chain.push(Version { tid, row: None });
        if chain.len() >= 2 {
            let n = chain.len();
            if chain[n - 2].tid > chain[n - 1].tid {
                chain.sort_by_key(|v| v.tid);
            }
        }
    }

    /// Execution step: fill `tid`'s placeholder with the produced row.
    /// Panics if the placeholder does not exist (a CC-step bug).
    pub fn fill(&mut self, table: TableId, key: i64, tid: u64, row: Vec<i64>) {
        let chain = self.chains.get_mut(&(table.0, key)).expect("fill without placeholder");
        let v = chain
            .iter_mut()
            .find(|v| v.tid == tid)
            .expect("fill without matching placeholder tid");
        v.row = Some(row);
    }

    /// Remove `tid`'s placeholder (the writer aborted; readers fall through
    /// to the next older version).
    pub fn retract(&mut self, table: TableId, key: i64, tid: u64) {
        if let Some(chain) = self.chains.get_mut(&(table.0, key)) {
            chain.retain(|v| v.tid != tid);
        }
    }

    /// What does a reader with `reader_tid` see for `(table, key)`? The
    /// version with the largest TID `< reader_tid`, per BOHM's rule.
    pub fn read_visible(&self, table: TableId, key: i64, reader_tid: u64) -> VisibleRead {
        let Some(chain) = self.chains.get(&(table.0, key)) else {
            return VisibleRead::Base;
        };
        // Chains are sorted ascending by TID; scan from the back.
        for v in chain.iter().rev() {
            if v.tid < reader_tid {
                return match &v.row {
                    Some(row) => VisibleRead::Filled(v.tid, row.clone()),
                    None => VisibleRead::Pending(v.tid),
                };
            }
        }
        VisibleRead::Base
    }

    /// The newest filled version of a key, if any (used at batch end to
    /// migrate final versions into the base table).
    pub fn newest_filled(&self, table: TableId, key: i64) -> Option<(u64, Vec<i64>)> {
        let chain = self.chains.get(&(table.0, key))?;
        chain.iter().rev().find_map(|v| v.row.as_ref().map(|r| (v.tid, r.clone())))
    }

    /// All keys currently holding chains, in `(table, key)` order
    /// (batch-end migration sweep).
    pub fn keys(&self) -> Vec<(TableId, i64)> {
        self.chains.keys().map(|&(t, k)| (TableId(t), k)).collect()
    }

    /// Drop all chains (between batches).
    pub fn clear(&mut self) {
        self.chains.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(0);

    #[test]
    fn visibility_follows_largest_tid_below_reader() {
        let mut mv = MultiVersionStore::new();
        mv.insert_placeholder(T, 1, 10);
        mv.insert_placeholder(T, 1, 20);
        mv.fill(T, 1, 10, vec![100]);
        mv.fill(T, 1, 20, vec![200]);
        assert_eq!(mv.read_visible(T, 1, 5), VisibleRead::Base);
        assert_eq!(mv.read_visible(T, 1, 15), VisibleRead::Filled(10, vec![100]));
        assert_eq!(mv.read_visible(T, 1, 25), VisibleRead::Filled(20, vec![200]));
        // A reader at exactly the writer's TID does not see its own slot.
        assert_eq!(mv.read_visible(T, 1, 20), VisibleRead::Filled(10, vec![100]));
    }

    #[test]
    fn unfilled_placeholder_reports_pending() {
        let mut mv = MultiVersionStore::new();
        mv.insert_placeholder(T, 9, 3);
        assert_eq!(mv.read_visible(T, 9, 7), VisibleRead::Pending(3));
        mv.fill(T, 9, 3, vec![1, 2]);
        assert_eq!(mv.read_visible(T, 9, 7), VisibleRead::Filled(3, vec![1, 2]));
    }

    #[test]
    fn retract_exposes_older_version() {
        let mut mv = MultiVersionStore::new();
        mv.insert_placeholder(T, 4, 1);
        mv.insert_placeholder(T, 4, 2);
        mv.fill(T, 4, 1, vec![10]);
        mv.retract(T, 4, 2);
        assert_eq!(mv.read_visible(T, 4, 100), VisibleRead::Filled(1, vec![10]));
    }

    #[test]
    fn out_of_order_placeholder_insertion_is_sorted() {
        let mut mv = MultiVersionStore::new();
        mv.insert_placeholder(T, 5, 30);
        mv.insert_placeholder(T, 5, 10); // arrives late
        mv.fill(T, 5, 10, vec![1]);
        mv.fill(T, 5, 30, vec![3]);
        assert_eq!(mv.read_visible(T, 5, 20), VisibleRead::Filled(10, vec![1]));
        assert_eq!(mv.newest_filled(T, 5), Some((30, vec![3])));
    }

    #[test]
    fn keys_are_ordered_and_clear_empties_the_store() {
        let mut mv = MultiVersionStore::new();
        for k in 0..100 {
            mv.insert_placeholder(TableId((k % 3) as u16), k, 1);
        }
        let keys = mv.keys();
        assert_eq!(keys.len(), 100);
        assert!(keys.windows(2).all(|w| (w[0].0 .0, w[0].1) < (w[1].0 .0, w[1].1)));
        mv.clear();
        assert!(mv.keys().is_empty());
        assert_eq!(mv.read_visible(T, 0, 10), VisibleRead::Base);
    }
}
