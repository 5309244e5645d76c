//! Remote-read views for cross-shard execution.
//!
//! During the execute phase of a cross-shard transaction every participant
//! shard runs the **whole** transaction speculatively, reading rows it does
//! not own through a [`RemoteView`] over the other shards' snapshots. This
//! models the paper's multi-device read path (peer snapshot fetches over
//! the interconnect) while keeping the simulation single-process: all
//! shards execute against the same consistent batch-start cut, so a remote
//! read observes exactly the value the owning shard's own lanes observe.
//!
//! The local-then-remote composition (local hit wins, existence is the OR,
//! range scans merge both sides) lives in `ltpg`, where every executor —
//! a degraded shard's CPU fallback included — reads through it.

use ltpg_storage::{ColId, Database, TableId};
use ltpg_txn::CellStore;

use crate::partition::Partitioner;

/// Read-only view of every *other* shard's database, routed by the
/// partitioner. The slot at the reading shard's own index is `None`: local
/// rows resolve through the local side of the scope chain, and leaving the
/// slot empty keeps the borrow of the reader's own (mutably held) database
/// out of the view.
pub struct RemoteView<'a> {
    part: &'a Partitioner,
    dbs: Vec<Option<&'a Database>>,
}

impl<'a> RemoteView<'a> {
    /// A view over `dbs` (indexed by shard, `None` at the reading shard's
    /// own position) routed by `part`.
    pub fn new(part: &'a Partitioner, dbs: Vec<Option<&'a Database>>) -> Self {
        assert_eq!(dbs.len(), part.shards() as usize, "one slot per shard");
        RemoteView { part, dbs }
    }

    fn db_for(&self, table: TableId, key: i64) -> Option<&'a Database> {
        self.dbs[self.part.home(table, key) as usize]
    }
}

impl CellStore for RemoteView<'_> {
    fn cell(&self, table: TableId, key: i64, col: ColId) -> Option<i64> {
        self.db_for(table, key).and_then(|db| db.cell(table, key, col))
    }

    fn row_exists(&self, table: TableId, key: i64) -> bool {
        self.db_for(table, key).is_some_and(|db| db.row_exists(table, key))
    }

    fn row_width(&self, table: TableId) -> usize {
        // Schema is identical on every shard; ask any populated slot.
        self.dbs
            .iter()
            .flatten()
            .next()
            .map_or(0, |db| db.row_width(table))
    }

    fn range_keys(&self, table: TableId, lo: i64, hi: i64) -> Option<Vec<i64>> {
        // An ordered scan must see every shard's slice of the range. Each
        // remote slice is itself sorted; merge and dedup (replicated tables
        // appear in every slice).
        let mut any = false;
        let mut keys: Vec<i64> = Vec::new();
        for db in self.dbs.iter().flatten() {
            if let Some(ks) = db.range_keys(table, lo, hi) {
                any = true;
                keys.extend(ks);
            }
        }
        if !any {
            return None;
        }
        keys.sort_unstable();
        keys.dedup();
        Some(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::TableRule;
    use ltpg_storage::TableBuilder;

    const T: TableId = TableId(0);

    fn db_with(keys: &[i64]) -> Database {
        let mut db = Database::new();
        let t = db.add_built_table(
            ltpg_storage::Table::new(TableBuilder::new("T").column("v").capacity(64).build())
                .with_ordered(),
        );
        assert_eq!(t, T);
        for &k in keys {
            db.table_mut(T).insert(k, &[k * 10]).unwrap();
        }
        db
    }

    #[test]
    fn remote_view_routes_reads_to_the_owning_shard() {
        let part = Partitioner::new(2, TableRule::Stride { stride: 1 });
        let d1 = db_with(&[1, 3]);
        // Shard 0 reading: own slot empty.
        let view = RemoteView::new(&part, vec![None, Some(&d1)]);
        assert_eq!(view.cell(T, 3, ColId(0)), Some(30));
        assert_eq!(view.cell(T, 2, ColId(0)), None, "own rows are not in the view");
        assert!(view.row_exists(T, 1) && !view.row_exists(T, 4));
        assert_eq!(view.row_width(T), 1);
    }
}
