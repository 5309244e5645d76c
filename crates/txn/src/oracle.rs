//! The serializability oracle.
//!
//! Two checkers, matching the two execution semantics in this workspace:
//!
//! * [`check_snapshot_serializable`] — for batch-OCC engines (LTPG, Aria)
//!   where **every committed transaction read the pre-batch snapshot**. The
//!   oracle re-derives each committed transaction's accesses against the
//!   snapshot, builds the *reader-before-writer* constraint graph (a reader
//!   of a cell observed its pre-batch value, so it must precede any
//!   committed writer of that cell in an equivalent serial order), rejects
//!   write-write overlaps (commutative adds excepted), topologically sorts,
//!   replays that order serially, and compares final states. A cycle means
//!   the committed set is not serializable; a state mismatch means the
//!   engine's write-back disagrees with its own commit story.
//!
//! * [`check_ordered_serializable`] — for engines that claim an explicit
//!   equivalent serial order (Calvin, BOHM, PWV, GaccO, GPUTx: TID order;
//!   TicToc: commit-timestamp order): replay the committed transactions in
//!   that order and compare final states.

use std::collections::{BinaryHeap, HashMap};

use ltpg_storage::{Database, TableId};

use crate::exec::{apply_effects, execute_speculative, execute_serial, Mutation, TxnEffects};
use crate::txn::{Tid, Txn};

/// Column code for the row-existence pseudo-cell.
const EXISTENCE: u32 = u32::MAX;

/// A conflict-granularity cell: `(table, key, column-or-existence)`.
type Cell = (u16, i64, u32);

/// How a transaction touched a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Read,
    Write,
    /// Commutative add: adds on the same cell commute with each other but
    /// conflict with reads (reader first) and with plain writes (violation).
    Add,
}

/// Why a committed set failed the check.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Two committed transactions wrote the same cell (and they were not
    /// both commutative adds).
    WriteOverlap {
        /// First writer's TID.
        a: Tid,
        /// Second writer's TID.
        b: Tid,
        /// Human-readable cell description.
        cell: String,
    },
    /// The reader-before-writer constraint graph has a cycle: no equivalent
    /// serial order exists.
    Cycle {
        /// TIDs involved in the strongly connected remainder.
        members: Vec<Tid>,
    },
    /// A committed transaction user-aborts when executed against the
    /// snapshot — it could never have committed.
    CommittedUserAbort {
        /// The offending TID.
        tid: Tid,
    },
    /// Serial replay of the equivalent order produced a different final
    /// state than the engine left behind.
    StateMismatch {
        /// Digest of the serial replay.
        expected: u64,
        /// Digest of the engine's database.
        actual: u64,
    },
}

/// Expand one transaction's effects into `(cell, kind)` pairs.
fn cell_accesses(fx: &TxnEffects, db: &Database) -> Vec<(Cell, AccessKind)> {
    let mut out = Vec::with_capacity(fx.reads.len() + fx.mutations.len());
    for r in &fx.reads {
        match r.col {
            Some(c) => {
                out.push(((r.table.0, r.key, u32::from(c.0)), AccessKind::Read));
                // A cell read presumes the row exists.
                out.push(((r.table.0, r.key, EXISTENCE), AccessKind::Read));
            }
            None => out.push(((r.table.0, r.key, EXISTENCE), AccessKind::Read)),
        }
    }
    for m in &fx.mutations {
        match m {
            Mutation::Update { table, key, col, .. } => {
                out.push(((table.0, *key, u32::from(col.0)), AccessKind::Write));
            }
            Mutation::Add { table, key, col, .. } => {
                out.push(((table.0, *key, u32::from(col.0)), AccessKind::Add));
            }
            Mutation::Insert { table, key, .. } => {
                out.push(((table.0, *key, EXISTENCE), AccessKind::Write));
                for c in 0..db.table(*table).width() as u32 {
                    out.push(((table.0, *key, c), AccessKind::Write));
                }
                // Membership change: commutes with other membership
                // changes, conflicts with ordered scans of the same key
                // partition (which record reads of the partition's
                // membership pseudo-cell).
                out.push((
                    (
                        table.0,
                        ltpg_storage::membership_key(*key >> ltpg_storage::MEMBERSHIP_PARTITION_SHIFT),
                        EXISTENCE,
                    ),
                    AccessKind::Add,
                ));
            }
            Mutation::Delete { table, key } => {
                out.push(((table.0, *key, EXISTENCE), AccessKind::Write));
                for c in 0..db.table(*table).width() as u32 {
                    out.push(((table.0, *key, c), AccessKind::Write));
                }
                out.push((
                    (
                        table.0,
                        ltpg_storage::membership_key(*key >> ltpg_storage::MEMBERSHIP_PARTITION_SHIFT),
                        EXISTENCE,
                    ),
                    AccessKind::Add,
                ));
            }
        }
    }
    out
}

/// Check a snapshot-semantics committed set and return the equivalent
/// serial order it validates under.
///
/// * `pre` — the database as it stood before the batch.
/// * `committed` — the committed transactions (any order).
/// * `final_db` — the engine's database after write-back.
pub fn check_snapshot_serializable(
    pre: &Database,
    committed: &[&Txn],
    final_db: &Database,
) -> Result<Vec<Tid>, Violation> {
    let n = committed.len();
    // 1. Re-derive accesses against the snapshot.
    let mut all_fx = Vec::with_capacity(n);
    for t in committed {
        match execute_speculative(pre, t) {
            Ok(fx) => all_fx.push(fx),
            Err(_) => return Err(Violation::CommittedUserAbort { tid: t.tid }),
        }
    }

    // 2. Cell → (readers, writers) occupancy.
    #[derive(Default)]
    struct CellOcc {
        readers: Vec<usize>,
        adders: Vec<usize>,
        writer: Option<usize>,
    }
    let mut cells: HashMap<Cell, CellOcc> = HashMap::new();
    for (i, fx) in all_fx.iter().enumerate() {
        for (cell, kind) in cell_accesses(fx, pre) {
            let occ = cells.entry(cell).or_default();
            match kind {
                AccessKind::Read => {
                    if occ.readers.last() != Some(&i) {
                        occ.readers.push(i);
                    }
                }
                AccessKind::Add => {
                    if occ.adders.last() != Some(&i) {
                        occ.adders.push(i);
                    }
                }
                AccessKind::Write => match occ.writer {
                    None => occ.writer = Some(i),
                    Some(w) if w != i => {
                        return Err(Violation::WriteOverlap {
                            a: committed[w].tid,
                            b: committed[i].tid,
                            cell: format!("table {} key {} col {}", cell.0, cell.1, cell.2),
                        });
                    }
                    Some(_) => {}
                },
            }
        }
    }
    // Write/Add overlap on one cell is also a violation (non-commuting).
    for (cell, occ) in &cells {
        if let Some(w) = occ.writer {
            if let Some(&a) = occ.adders.iter().find(|&&a| a != w) {
                return Err(Violation::WriteOverlap {
                    a: committed[w].tid,
                    b: committed[a].tid,
                    cell: format!("table {} key {} col {} (write vs add)", cell.0, cell.1, cell.2),
                });
            }
        }
    }

    // 3. Edges: reader → writer/adder of the same cell.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    {
        let mut seen: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
        let mut add_edge = |from: usize, to: usize, adj: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>| {
            if from != to && seen.insert((from, to)) {
                adj[from].push(to);
                indeg[to] += 1;
            }
        };
        for occ in cells.values() {
            for &r in &occ.readers {
                if let Some(w) = occ.writer {
                    add_edge(r, w, &mut adj, &mut indeg);
                }
                for &a in &occ.adders {
                    add_edge(r, a, &mut adj, &mut indeg);
                }
            }
        }
    }

    // 4. Kahn topological sort, smallest TID first for determinism.
    let mut heap: BinaryHeap<std::cmp::Reverse<(Tid, usize)>> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| std::cmp::Reverse((committed[i].tid, i)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse((_, i))) = heap.pop() {
        order.push(i);
        for &j in &adj[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                heap.push(std::cmp::Reverse((committed[j].tid, j)));
            }
        }
    }
    if order.len() != n {
        let members = (0..n).filter(|&i| indeg[i] > 0).map(|i| committed[i].tid).collect();
        return Err(Violation::Cycle { members });
    }

    // 5. Replay serially. By construction no transaction's reads can have
    // been overwritten by a predecessor, so applying the snapshot-derived
    // effects in topo order reproduces exactly what a serial execution
    // in that order would do.
    let mut replay = pre.deep_clone();
    // Room for every committed insert first, as a write-back makes it.
    let mut inserts = vec![0; pre.table_count()];
    for m in all_fx.iter().flat_map(|fx| &fx.mutations) {
        if let Mutation::Insert { table, .. } = m {
            inserts[usize::from(table.0)] += 1;
        }
    }
    for (t, &n) in inserts.iter().enumerate().filter(|(_, &n)| n > 0) {
        replay.reserve(TableId(t as u16), n);
    }
    for &i in &order {
        apply_effects(&mut replay, &all_fx[i]).map_err(|_| Violation::StateMismatch {
            expected: 0,
            actual: final_db.state_digest(),
        })?;
    }
    let expected = replay.state_digest();
    let actual = final_db.state_digest();
    if expected != actual {
        return Err(Violation::StateMismatch { expected, actual });
    }
    Ok(order.into_iter().map(|i| committed[i].tid).collect())
}

/// Check an explicitly ordered committed set: replay `committed` serially
/// in the given order on a clone of `pre` and compare with `final_db`.
pub fn check_ordered_serializable(
    pre: &Database,
    committed: &[&Txn],
    final_db: &Database,
) -> Result<(), Violation> {
    let mut replay = pre.deep_clone();
    for t in committed {
        if execute_serial(&mut replay, t).is_err() {
            return Err(Violation::CommittedUserAbort { tid: t.tid });
        }
    }
    let expected = replay.state_digest();
    let actual = final_db.state_digest();
    if expected != actual {
        return Err(Violation::StateMismatch { expected, actual });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrOp, Src};
    use crate::txn::{ProcId, Txn};
    use ltpg_storage::{ColId, TableBuilder};

    fn db() -> (Database, TableId) {
        let mut d = Database::new();
        let t = d.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(64).build());
        for k in 0..10 {
            d.table_mut(t).insert(k, &[k, 0]).unwrap();
        }
        (d, t)
    }

    fn txn(tid: u64, ops: Vec<IrOp>) -> Txn {
        let mut t = Txn::new(ProcId(0), vec![], ops);
        t.tid = Tid(tid);
        t
    }

    fn read(t: TableId, k: i64, c: u16, out: u8) -> IrOp {
        IrOp::Read { table: t, key: Src::Const(k), col: ColId(c), out }
    }
    fn write(t: TableId, k: i64, c: u16, v: i64) -> IrOp {
        IrOp::Update { table: t, key: Src::Const(k), col: ColId(c), val: Src::Const(v) }
    }
    fn add(t: TableId, k: i64, c: u16, d: i64) -> IrOp {
        IrOp::Add { table: t, key: Src::Const(k), col: ColId(c), delta: Src::Const(d) }
    }

    /// Commit a snapshot batch the way LTPG/Aria would: every txn reads the
    /// pre state, then all write-sets apply.
    fn run_snapshot_batch(pre: &Database, txns: &[&Txn]) -> Database {
        let mut after = pre.deep_clone();
        let fx: Vec<_> = txns.iter().map(|t| execute_speculative(pre, t).unwrap()).collect();
        for f in &fx {
            apply_effects(&mut after, f).unwrap();
        }
        after
    }

    #[test]
    fn disjoint_writers_pass_in_tid_order() {
        let (pre, t) = db();
        let t1 = txn(1, vec![write(t, 1, 0, 100)]);
        let t2 = txn(2, vec![write(t, 2, 0, 200)]);
        let after = run_snapshot_batch(&pre, &[&t1, &t2]);
        let order = check_snapshot_serializable(&pre, &[&t1, &t2], &after).unwrap();
        assert_eq!(order, vec![Tid(1), Tid(2)]);
    }

    #[test]
    fn war_only_pair_serializes_reader_first() {
        let (pre, t) = db();
        // t1 writes key 3; t2 (smaller tid 0? no) — reader has LARGER tid:
        // reader must still precede the writer in the equivalent order.
        let writer = txn(1, vec![write(t, 3, 0, 99)]);
        let reader = txn(2, vec![read(t, 3, 0, 0), write(t, 4, 1, 7)]);
        let after = run_snapshot_batch(&pre, &[&writer, &reader]);
        let order = check_snapshot_serializable(&pre, &[&writer, &reader], &after).unwrap();
        // Reader (tid 2) must come before writer (tid 1).
        assert_eq!(order, vec![Tid(2), Tid(1)]);
    }

    #[test]
    fn write_write_overlap_is_a_violation() {
        let (pre, t) = db();
        let t1 = txn(1, vec![write(t, 5, 0, 1)]);
        let t2 = txn(2, vec![write(t, 5, 0, 2)]);
        let after = run_snapshot_batch(&pre, &[&t1, &t2]);
        let v = check_snapshot_serializable(&pre, &[&t1, &t2], &after).unwrap_err();
        assert!(matches!(v, Violation::WriteOverlap { .. }));
    }

    #[test]
    fn cross_reading_writers_form_a_cycle() {
        let (pre, t) = db();
        // t1 reads k1 and writes k2; t2 reads k2 and writes k1.
        // Each reader must precede the other as writer: a cycle.
        let t1 = txn(1, vec![read(t, 1, 0, 0), write(t, 2, 0, 10)]);
        let t2 = txn(2, vec![read(t, 2, 0, 0), write(t, 1, 0, 20)]);
        let after = run_snapshot_batch(&pre, &[&t1, &t2]);
        let v = check_snapshot_serializable(&pre, &[&t1, &t2], &after).unwrap_err();
        assert!(matches!(v, Violation::Cycle { .. }));
    }

    #[test]
    fn commutative_adds_coexist_without_edges() {
        let (pre, t) = db();
        let t1 = txn(1, vec![add(t, 1, 1, 5)]);
        let t2 = txn(2, vec![add(t, 1, 1, 7)]);
        let t3 = txn(3, vec![add(t, 1, 1, 11)]);
        let after = run_snapshot_batch(&pre, &[&t1, &t2, &t3]);
        check_snapshot_serializable(&pre, &[&t1, &t2, &t3], &after).unwrap();
        let rid = after.table(t).lookup(1).unwrap();
        assert_eq!(after.table(t).get(rid, ColId(1)), 23);
    }

    #[test]
    fn add_vs_plain_write_is_a_violation() {
        let (pre, t) = db();
        let t1 = txn(1, vec![add(t, 1, 1, 5)]);
        let t2 = txn(2, vec![write(t, 1, 1, 100)]);
        let after = run_snapshot_batch(&pre, &[&t1, &t2]);
        let v = check_snapshot_serializable(&pre, &[&t1, &t2], &after).unwrap_err();
        assert!(matches!(v, Violation::WriteOverlap { .. }));
    }

    #[test]
    fn reader_of_hot_cell_and_adders_serialize_reader_first() {
        let (pre, t) = db();
        let reader = txn(5, vec![read(t, 1, 1, 0)]);
        let adder = txn(2, vec![add(t, 1, 1, 9)]);
        let after = run_snapshot_batch(&pre, &[&reader, &adder]);
        let order = check_snapshot_serializable(&pre, &[&reader, &adder], &after).unwrap();
        assert_eq!(order, vec![Tid(5), Tid(2)]);
    }

    #[test]
    fn state_mismatch_detected() {
        let (pre, t) = db();
        let t1 = txn(1, vec![write(t, 1, 0, 42)]);
        let mut after = run_snapshot_batch(&pre, &[&t1]);
        // Corrupt the "engine" state.
        let rid = after.table(t).lookup(2).unwrap();
        after.table_mut(t).set(rid, ColId(0), 12345);
        let v = check_snapshot_serializable(&pre, &[&t1], &after).unwrap_err();
        assert!(matches!(v, Violation::StateMismatch { .. }));
    }

    #[test]
    fn insert_conflicts_with_existence_reader() {
        let (pre, t) = db();
        // Reader probes missing key 50; inserter creates it. Reader saw
        // "absent" (snapshot), so reader must precede inserter.
        let reader = txn(3, vec![read(t, 50, 0, 0)]);
        let inserter = txn(1, vec![IrOp::Insert {
            table: t,
            key: Src::Const(50),
            values: vec![Src::Const(1), Src::Const(2)],
        }]);
        let after = run_snapshot_batch(&pre, &[&reader, &inserter]);
        let order = check_snapshot_serializable(&pre, &[&reader, &inserter], &after).unwrap();
        assert_eq!(order, vec![Tid(3), Tid(1)]);
    }

    #[test]
    fn double_insert_of_same_key_is_violation() {
        let (pre, t) = db();
        let mk = |tid| {
            txn(tid, vec![IrOp::Insert {
                table: t,
                key: Src::Const(50),
                values: vec![Src::Const(1), Src::Const(2)],
            }])
        };
        let (a, b) = (mk(1), mk(2));
        // Build "after" by hand: snapshot batch would apply-fail; commit a only.
        let after = run_snapshot_batch(&pre, &[&a]);
        let v = check_snapshot_serializable(&pre, &[&a, &b], &after).unwrap_err();
        assert!(matches!(v, Violation::WriteOverlap { .. }));
    }

    #[test]
    fn ordered_check_replays_in_given_order() {
        let (pre, t) = db();
        // t1 reads key 1 col 0 into col 1 of key 2; t2 bumps key 1 col 0.
        let t1 = txn(1, vec![read(t, 1, 0, 0), IrOp::Update { table: t, key: Src::Const(2), col: ColId(1), val: Src::Reg(0) }]);
        let t2 = txn(2, vec![write(t, 1, 0, 500)]);
        // Execute serially in order (t2, t1): t1 sees 500.
        let mut eng = pre.deep_clone();
        execute_serial(&mut eng, &t2).unwrap();
        execute_serial(&mut eng, &t1).unwrap();
        check_ordered_serializable(&pre, &[&t2, &t1], &eng).unwrap();
        // The other order does not reproduce this state.
        let v = check_ordered_serializable(&pre, &[&t1, &t2], &eng).unwrap_err();
        assert!(matches!(v, Violation::StateMismatch { .. }));
    }
}
