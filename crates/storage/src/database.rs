//! The database: an ordered collection of tables plus whole-state helpers
//! (deep clone for oracles, digests for cross-engine comparison, byte
//! footprint for the device memory model).

use crate::dirty::ImageCopy;
use crate::schema::{Schema, TableId};
use crate::table::{RowId, Table};

/// A set of tables addressed by [`TableId`]. This *is* the "database
/// snapshot" of the paper: LTPG keeps it device-resident and the write-back
/// phase mutates it in place after conflicts are resolved.
#[derive(Debug, Default)]
pub struct Database {
    tables: Vec<Table>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Add a table, returning its id.
    pub fn add_table(&mut self, schema: Schema) -> TableId {
        assert!(self.tables.len() < u16::MAX as usize, "too many tables");
        self.tables.push(Table::new(schema));
        TableId((self.tables.len() - 1) as u16)
    }

    /// Add a pre-built table (e.g. one carrying an ordered index).
    pub fn add_built_table(&mut self, table: Table) -> TableId {
        assert!(self.tables.len() < u16::MAX as usize, "too many tables");
        self.tables.push(table);
        TableId((self.tables.len() - 1) as u16)
    }

    /// Access a table.
    #[inline]
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[usize::from(id.0)]
    }

    /// Make room in table `id`'s primary index for `n` more inserts
    /// ([`Table::reserve`]).
    pub fn reserve(&mut self, id: TableId, n: usize) {
        self.tables[usize::from(id.0)].reserve(n);
    }

    /// Find a table by name.
    pub fn table_by_name(&self, name: &str) -> Option<(TableId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .find(|(_, t)| t.schema().name == name)
            .map(|(i, t)| (TableId(i as u16), t))
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Iterate `(id, table)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables.iter().enumerate().map(|(i, t)| (TableId(i as u16), t))
    }

    /// Total byte footprint of all tables (cells + key arrays).
    pub fn bytes(&self) -> u64 {
        self.tables.iter().map(Table::bytes).sum()
    }

    /// Deep copy of all tables — the oracle's pre-batch snapshot.
    pub fn deep_clone(&self) -> Database {
        Database { tables: self.tables.iter().map(Table::deep_clone).collect() }
    }

    /// Make `self` a deep copy of `src` in the arrays `self` already owns,
    /// table by table (see [`Table::deep_clone_from`]: each copies what was
    /// written since `self` last mirrored it, or everything if it does
    /// not): what a checkpoint does to the image before it. A `self` with
    /// another table count is replaced. Returns what was copied.
    pub fn deep_clone_from(&mut self, src: &Database) -> ImageCopy {
        if self.tables.len() != src.tables.len() {
            // Copied once more in place below: that second, full pass is
            // what makes the new image a mirror. Once per image at most.
            *self = src.deep_clone();
        }
        let mut copied = ImageCopy::default();
        for (image, table) in self.tables.iter_mut().zip(&src.tables) {
            copied += image.deep_clone_from(table);
        }
        copied
    }

    /// Clone the subset of rows for which `keep(table, key)` holds, keeping
    /// every table present (possibly empty) so [`TableId`]s line up with the
    /// source. This is the shard-slice constructor: a partitioner's
    /// ownership predicate carves one device-resident snapshot out of the
    /// global database.
    pub fn partition_clone(&self, keep: impl Fn(TableId, i64) -> bool) -> Database {
        Database {
            tables: self
                .tables
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let id = TableId(i as u16);
                    t.filtered_clone(|k| keep(id, k))
                })
                .collect(),
        }
    }

    /// Copy every live row of `other` that satisfies `keep(table, key)`
    /// and is not already present here into this database's tables (the
    /// two must share a table layout). Returns the number of rows copied.
    ///
    /// This is the rebalance migration primitive: a shard's post-cutover
    /// slice is its own surviving rows ([`partition_clone`](Self::partition_clone)
    /// under the new rules) plus the rows absorbed from every other
    /// shard's slice. The presence check makes replicated tables — whose
    /// rows exist identically on every source — merge first-wins instead
    /// of burning duplicate slots. Each table's index is
    /// [reserved](Table::reserve) for exactly the rows it absorbs.
    pub fn absorb_rows(&mut self, other: &Database, keep: impl Fn(TableId, i64) -> bool) -> u64 {
        assert_eq!(self.table_count(), other.table_count(), "table layouts must line up");
        let mut copied = 0;
        for ((id, src), dst) in other.iter().zip(&mut self.tables) {
            let moving: Vec<(RowId, i64)> =
                src.live_keys().filter(|&(_, k)| keep(id, k) && dst.lookup(k).is_none()).collect();
            dst.reserve(moving.len());
            for &(rid, k) in &moving {
                dst.insert(k, &src.row_values(rid)).expect("absorb_rows insert");
            }
            copied += moving.len() as u64;
        }
        copied
    }

    /// Digest of the complete live state. Two databases that executed the
    /// same committed transactions agree on this value.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for t in &self.tables {
            t.digest_into(&mut h);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColId, TableBuilder};

    fn two_table_db() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let a = db.add_table(TableBuilder::new("A").column("x").capacity(10).build());
        let b = db.add_table(TableBuilder::new("B").columns(["y", "z"]).capacity(10).build());
        (db, a, b)
    }

    #[test]
    fn tables_are_addressable_by_id_and_name() {
        let (db, a, b) = two_table_db();
        assert_eq!(db.table_count(), 2);
        assert_eq!(db.table(a).schema().name, "A");
        assert_eq!(db.table_by_name("B").unwrap().0, b);
        assert!(db.table_by_name("C").is_none());
    }

    #[test]
    fn digest_covers_all_tables() {
        let (db, a, b) = two_table_db();
        db.table(a).insert(1, &[5]).unwrap();
        let d1 = db.state_digest();
        db.table(b).insert(1, &[5, 6]).unwrap();
        let d2 = db.state_digest();
        assert_ne!(d1, d2);
    }

    #[test]
    fn deep_clone_matches_then_diverges() {
        let (db, a, _) = two_table_db();
        db.table(a).insert(3, &[30]).unwrap();
        let clone = db.deep_clone();
        assert_eq!(db.state_digest(), clone.state_digest());
        let rid = clone.table(a).lookup(3).unwrap();
        clone.table(a).set(rid, ColId(0), 31);
        assert_ne!(db.state_digest(), clone.state_digest());
    }

    #[test]
    fn partition_clone_splits_rows_without_losing_any() {
        let (db, a, b) = two_table_db();
        for k in 1..=6 {
            db.table(a).insert(k, &[k * 10]).unwrap();
            db.table(b).insert(k, &[k, -k]).unwrap();
        }
        let even = db.partition_clone(|_, k| k % 2 == 0);
        let odd = db.partition_clone(|_, k| k % 2 != 0);
        assert_eq!(even.table_count(), 2);
        assert_eq!(even.table(a).len() + odd.table(a).len(), 6);
        assert_eq!(even.table(a).capacity(), db.table(a).capacity());
        assert!(even.table(b).lookup(4).is_some());
        assert!(even.table(b).lookup(3).is_none());
        assert!(odd.table(b).lookup(3).is_some());
        // Digests of disjoint slices re-fold to the whole-state digest.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (id, t) in db.iter() {
            let merged = t.filtered_clone(|_| true);
            assert_eq!(merged.len(), db.table(id).len());
            merged.digest_into(&mut h);
        }
        assert_eq!(h, db.state_digest());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// A database image kept up to date round after round is the
            /// fresh clone, table for table and bit for bit, across tables
            /// of different widths, capacities and index kinds; only the
            /// first refresh (of a fresh clone, or of an image with another
            /// table count) is a full copy, and a later one copies no more
            /// rows than the round wrote.
            #[test]
            fn a_delta_maintained_database_image_is_the_fresh_clone(
                starts_empty in any::<bool>(),
                rounds in proptest::collection::vec(
                    proptest::collection::vec((0..3usize, 0..3u8, 0..24i64, -9..9i64), 0..40),
                    2..6,
                ),
            ) {
                let mut db = Database::new();
                db.add_table(TableBuilder::new("A").column("x").capacity(40).build());
                let wide = TableBuilder::new("B").columns(["p", "q", "r"]).capacity(64).build();
                db.add_built_table(Table::new(wide).with_ordered());
                db.add_table(TableBuilder::new("C").columns(["y", "z"]).capacity(16).build());
                let mut image = if starts_empty { Database::new() } else { db.deep_clone() };
                for (round, ops) in rounds.iter().enumerate() {
                    for &(t, op, k, v) in ops {
                        let table = &db.tables[t];
                        match (op, table.lookup(k)) {
                            (0, _) => {
                                let _ = table.insert(k, &vec![v; table.width()]);
                            }
                            (1, _) => {
                                table.delete(k);
                            }
                            (_, Some(rid)) => table.set(rid, ColId(0), v),
                            _ => {}
                        }
                    }
                    let copied = image.deep_clone_from(&db);
                    prop_assert_eq!(copied.full, round == 0);
                    if round > 0 {
                        prop_assert!(copied.rows <= ops.len() as u64);
                    }
                    let fresh = db.deep_clone();
                    prop_assert_eq!(image.state_digest(), fresh.state_digest());
                    for (got, want) in image.tables.iter().zip(&fresh.tables) {
                        prop_assert!(got.image_bits() == want.image_bits());
                        if let (Some(a), Some(b)) = (got.ordered(), want.ordered()) {
                            let all = |t: &crate::OrderedIndex| t.range(i64::MIN, i64::MAX);
                            prop_assert_eq!(all(a), all(b));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bytes_sums_tables() {
        let (db, a, b) = two_table_db();
        assert_eq!(db.bytes(), db.table(a).bytes() + db.table(b).bytes());
    }
}
