//! A transaction's conflict footprint: which cells it touches, and how.
//!
//! Algorithm 1 keeps one access list per transaction: `recordTID`
//! registers a TID per access, and `rcheck` / `wcheck` later run once per
//! access over the same list. This module is that list for this codebase.
//! A [`Cell`] is the unit a TID is registered against, a [`Check`] says how
//! an access registers and what detection asks of it, [`read_cell`] and
//! [`mutation_cells`] enumerate the cells of one recorded read and of one
//! staged mutation in the canonical order, and [`conflict_flags`] is the
//! WAW / WAR / RAW table. The engine keeps minimum TIDs in hashed buckets
//! ([`crate::ConflictLog`]); a reference may keep them in exact maps and
//! walk the same list.

use ltpg_storage::{membership_partition, ColId, Database, TableId, MEMBERSHIP_PARTITION_SHIFT};
use ltpg_txn::exec::{Mutation, ReadAccess};

use crate::engine::flag;

/// Which part of a table a [`Cell`] stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Part {
    /// The row-existence pseudo-cell: inserts and deletes write it, probes
    /// of missing keys read it.
    Exists,
    /// One column of the row.
    Col(ColId),
    /// The membership (phantom-guard) marker of a key partition: ordered
    /// scans read it, inserts and deletes write it.
    Members,
}

/// One conflict cell. Flags are **cell-granular**: a read of one attribute
/// never conflicts with a write of another — the behaviour the paper's
/// Table VI baseline exhibits (its unoptimized NewOrder rate is unaffected
/// by Payment's `W_YTD` writes on the same warehouse rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell {
    /// Table the cell belongs to.
    pub table: TableId,
    /// Existence, a column, or the membership marker.
    pub part: Part,
    /// Row key — or the key partition, for the marker.
    pub key: i64,
}

impl Cell {
    /// The key ownership is decided by: the row key, and for a marker the
    /// smallest key of its partition, so that whoever is home to that key
    /// owns the marker.
    #[inline]
    pub fn anchor(&self) -> i64 {
        match self.part {
            Part::Members => self.key << MEMBERSHIP_PARTITION_SHIFT,
            Part::Exists | Part::Col(_) => self.key,
        }
    }
}

/// One of a cell's two minimum-TID records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// Smallest TID that read the cell this batch.
    Reads = 0,
    /// Smallest TID that wrote it.
    Writes = 1,
}

/// How an access registers and what detection checks for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Snapshot read.
    Read,
    /// Buffered write.
    Write,
    /// Non-commutative read-modify-write: reader and writer of the cell,
    /// checked as a write.
    Rmw,
    /// Write of a membership marker. Marker writes commute with each
    /// other, so an earlier one is no conflict; an earlier scan is.
    MarkerWrite,
}

impl Check {
    /// Whether detection runs this check on a `wcheck` lane.
    #[inline]
    pub fn is_write(self) -> bool {
        self != Check::Read
    }

    /// The records an access with this check registers its TID in.
    #[inline]
    pub fn records(self) -> &'static [Record] {
        match self {
            Check::Read => &[Record::Reads],
            Check::Write | Check::MarkerWrite => &[Record::Writes],
            Check::Rmw => &[Record::Reads, Record::Writes],
        }
    }
}

/// The conflict table (Algorithm 1's `rcheck` / `wcheck`): a write is
/// flagged by an earlier writer (WAW) and by an earlier reader (WAR), a
/// read by an earlier writer (RAW). `min` probes one record of the checked
/// cell and `raise` receives each flag as soon as it is known; `ctx` is
/// whatever both need. A probe is made only when its answer can raise a
/// flag — on the device each one costs a bucket scan.
#[inline]
pub fn conflict_flags<C>(
    ctx: &mut C,
    check: Check,
    tid: u64,
    min: impl Fn(&mut C, Record) -> Option<u64>,
    mut raise: impl FnMut(&mut C, u32),
) {
    let mut probe = |record, bit| {
        if min(ctx, record).is_some_and(|earliest| earliest < tid) {
            raise(ctx, bit);
        }
    };
    match check {
        Check::Read => probe(Record::Writes, flag::RAW),
        Check::Write | Check::Rmw => {
            probe(Record::Writes, flag::WAW);
            probe(Record::Reads, flag::WAR);
        }
        Check::MarkerWrite => probe(Record::Reads, flag::WAR),
    }
}

/// The cell a recorded read observed; its check is [`Check::Read`]. Scans
/// record their phantom guard as a read of a reserved key
/// (`ltpg_storage::membership_key`), which is the marker of that partition.
#[inline]
pub fn read_cell(r: &ReadAccess) -> Cell {
    match membership_partition(r.key) {
        Some(partition) => Cell { table: r.table, part: Part::Members, key: partition },
        None => Cell { table: r.table, part: r.col.map_or(Part::Exists, Part::Col), key: r.key },
    }
}

/// Visit the cells a staged mutation writes, in the canonical order:
/// existence, membership marker, columns. An update or an add writes its
/// column; an insert creates the row and changes the partition's
/// membership; a delete also writes every column, because a reader of any
/// of them must order before it. `db` supplies the table width.
#[inline]
pub fn mutation_cells(db: &Database, m: &Mutation, mut visit: impl FnMut(Cell, Check)) {
    let (table, key) = m.row();
    let mut at = |part, key, check| visit(Cell { table, part, key }, check);
    let columns = match m {
        Mutation::Update { col, .. } => return at(Part::Col(*col), key, Check::Write),
        Mutation::Add { col, .. } => return at(Part::Col(*col), key, Check::Rmw),
        Mutation::Insert { .. } => 0,
        Mutation::Delete { .. } => db.table(table).width() as u16,
    };
    at(Part::Exists, key, Check::Write);
    at(Part::Members, key >> MEMBERSHIP_PARTITION_SHIFT, Check::MarkerWrite);
    for c in 0..columns {
        at(Part::Col(ColId(c)), key, Check::Write);
    }
}

/// The whole footprint of one transaction: its recorded reads, then its
/// staged mutations. For consumers that charge nothing per operation.
pub fn walk(
    db: &Database,
    reads: &[ReadAccess],
    mutations: &[Mutation],
    mut visit: impl FnMut(Cell, Check),
) {
    reads.iter().for_each(|r| visit(read_cell(r), Check::Read));
    mutations.iter().for_each(|m| mutation_cells(db, m, &mut visit));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::{membership_key, TableBuilder};

    const T: TableId = TableId(0);

    fn cell(part: Part, key: i64) -> Cell {
        Cell { table: T, part, key }
    }

    fn col(c: u16) -> Part {
        Part::Col(ColId(c))
    }

    /// The whole table: every read kind and every mutation kind, against a
    /// 3-column table, to its exact cells, checks and order.
    #[test]
    fn every_access_kind_walks_to_its_exact_cells_in_order() {
        let mut db = Database::new();
        db.add_table(TableBuilder::new("T").columns(["a", "b", "c"]).capacity(8).build());
        let read = |key, col| ReadAccess { table: T, key, col, value: 0 };
        // Key 5 sits in partition 0; a key above bit 40 in partition 3.
        let far = (3 << MEMBERSHIP_PARTITION_SHIFT) + 5;
        let reads = [
            (read(5, Some(ColId(1))), cell(col(1), 5)),
            (read(5, None), cell(Part::Exists, 5)),
            (read(membership_key(3), None), cell(Part::Members, 3)),
        ];
        for (r, want) in &reads {
            assert_eq!(read_cell(r), *want, "{r:?}");
        }
        // A marker is owned with the first key of its partition, a row
        // cell with its row.
        assert_eq!(reads[2].1.anchor(), 3 << MEMBERSHIP_PARTITION_SHIFT);
        assert_eq!((reads[0].1.anchor(), reads[1].1.anchor()), (5, 5));

        use Check::{MarkerWrite, Rmw, Write};
        let mutations = [
            (
                Mutation::Update { table: T, key: 5, col: ColId(2), value: 1 },
                vec![(cell(col(2), 5), Write)],
            ),
            (
                Mutation::Add { table: T, key: 5, col: ColId(0), delta: 1 },
                vec![(cell(col(0), 5), Rmw)],
            ),
            (
                Mutation::Insert { table: T, key: far, values: vec![0, 0, 0] },
                vec![(cell(Part::Exists, far), Write), (cell(Part::Members, 3), MarkerWrite)],
            ),
            (
                Mutation::Delete { table: T, key: far },
                vec![
                    (cell(Part::Exists, far), Write),
                    (cell(Part::Members, 3), MarkerWrite),
                    (cell(col(0), far), Write),
                    (cell(col(1), far), Write),
                    (cell(col(2), far), Write),
                ],
            ),
        ];
        for (m, want) in &mutations {
            let mut got = Vec::new();
            mutation_cells(&db, m, |cell, check| got.push((cell, check)));
            assert_eq!(got, *want, "{m:?}");
        }

        // `walk` is the reads, then the mutations, with nothing added.
        let rs: Vec<_> = reads.iter().map(|r| r.0.clone()).collect();
        let ms: Vec<_> = mutations.iter().map(|m| m.0.clone()).collect();
        let mut whole = Vec::new();
        walk(&db, &rs, &ms, |cell, check| whole.push((cell, check)));
        let want: Vec<_> = reads
            .iter()
            .map(|r| (r.1, Check::Read))
            .chain(mutations.iter().flat_map(|m| m.1.iter().copied()))
            .collect();
        assert_eq!(whole, want);
    }

    /// The conflict table, row by row: which record each check probes, in
    /// which order, and which flag an earlier TID there raises — and that
    /// nothing else is probed (a probe costs a bucket scan on the device).
    #[test]
    fn the_conflict_table_probes_lazily_and_in_order() {
        use Record::{Reads, Writes};
        // (check, own TID, min read TID, min write TID) → probes, flags.
        let run = |check, tid, min_r: Option<u64>, min_w: Option<u64>| {
            let mut seen = (Vec::new(), Vec::new());
            conflict_flags(
                &mut seen,
                check,
                tid,
                |seen, record| {
                    seen.0.push(record);
                    if record == Reads { min_r } else { min_w }
                },
                |seen, bit| seen.1.push(bit),
            );
            seen
        };
        let (early, late) = (Some(3), Some(9));
        assert_eq!(run(Check::Read, 5, early, early), (vec![Writes], vec![flag::RAW]));
        assert_eq!(run(Check::Read, 5, early, late), (vec![Writes], vec![]));
        assert_eq!(run(Check::Read, 5, early, Some(5)), (vec![Writes], vec![]), "own TID");
        for check in [Check::Write, Check::Rmw] {
            let both = vec![Writes, Reads];
            assert_eq!(run(check, 5, early, early), (both.clone(), vec![flag::WAW, flag::WAR]));
            assert_eq!(run(check, 5, late, early), (both.clone(), vec![flag::WAW]));
            assert_eq!(run(check, 5, early, None), (both, vec![flag::WAR]));
        }
        assert_eq!(run(Check::MarkerWrite, 5, early, early), (vec![Reads], vec![flag::WAR]));
        assert_eq!(run(Check::MarkerWrite, 5, None, early), (vec![Reads], vec![]));

        assert_eq!(Check::Read.records(), [Reads]);
        assert_eq!(Check::Write.records(), [Writes]);
        assert_eq!(Check::MarkerWrite.records(), [Writes]);
        assert_eq!(Check::Rmw.records(), [Reads, Writes]);
        assert!(!Check::Read.is_write() && Check::MarkerWrite.is_write() && Check::Rmw.is_write());
    }
}
