//! Static read/write-set declaration.
//!
//! Calvin, BOHM, GPUTx and GaccO all require transactions to **pre-declare**
//! the rows they will touch (the very requirement LTPG's deterministic OCC
//! removes). For IR transactions this is a constant-folding pass: a key is
//! statically known if it derives only from constants, parameters, the
//! transaction's own TID, and [`crate::ir::IrOp::Compute`] chains over
//! those. A key fed by a [`crate::ir::IrOp::Read`] result is dynamic, and
//! declaration fails — exactly the class of transaction those systems must
//! reject or handle with reconnaissance queries.

use ltpg_storage::TableId;

use crate::ir::{IrOp, Src};
use crate::txn::Txn;

/// Row-granularity declared access sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeclaredAccess {
    /// Rows read (table, key), deduplicated, in first-access order.
    pub reads: Vec<(TableId, i64)>,
    /// Rows written (updates, adds, deletes), deduplicated.
    pub writes: Vec<(TableId, i64)>,
    /// Rows inserted (unique new keys; append-only, never contended in the
    /// workloads here, but declared so lock-based engines can cover them).
    pub inserts: Vec<(TableId, i64)>,
    /// Rows deleted. Deletes also appear in `writes` (they contend like any
    /// write), but are listed separately because membership-changing ops
    /// touch a table's membership partition — shard routers need them, like
    /// inserts, to compute membership ownership.
    pub deletes: Vec<(TableId, i64)>,
}

impl DeclaredAccess {
    /// All rows the transaction may write, inserts included.
    pub fn all_writes(&self) -> impl Iterator<Item = (TableId, i64)> + '_ {
        self.writes.iter().chain(self.inserts.iter()).copied()
    }
}

/// One constant-folded row access, as [`visit_declared`] hands it over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Declared {
    /// A row read: a `Read`, or one key of a `ScanSum`.
    Read(TableId, i64),
    /// A row updated or added to.
    Write(TableId, i64),
    /// A row inserted.
    Insert(TableId, i64),
    /// A row deleted (it contends like any write).
    Delete(TableId, i64),
}

/// The register lattice: `Some(v)` = statically known, `None` = dynamic.
/// Every register starts dynamic and only a `Compute` over known operands
/// makes one known, so the table is allocated at the first such `Compute`
/// — a transaction without one never allocates it.
struct Registers(Vec<Option<i64>>);

impl Registers {
    fn get(&self, r: u8) -> Option<i64> {
        self.0.get(usize::from(r)).copied().flatten()
    }

    fn set(&mut self, txn: &Txn, r: u8, v: Option<i64>) {
        if v.is_some() && self.0.is_empty() {
            self.0 = vec![None; txn.reg_count()];
        }
        if let Some(slot) = self.0.get_mut(usize::from(r)) {
            *slot = v;
        }
    }
}

/// Constant-fold `txn` and hand each of its row accesses to `visit`, in
/// program order, duplicates included; no vector is built. Returns `None`
/// — after visiting the accesses before it — at the first access whose key
/// depends on a read result, or at an ordered scan: the transaction is
/// undeclarable. This is the one folding definition; [`declared_accesses`]
/// and the shard router both walk it.
pub fn visit_declared(txn: &Txn, mut visit: impl FnMut(Declared)) -> Option<()> {
    let mut regs = Registers(Vec::new());
    let fold = |s: Src, regs: &Registers| -> Option<i64> {
        match s {
            Src::Const(v) => Some(v),
            Src::Param(p) => txn.params.get(usize::from(p)).copied(),
            Src::Reg(r) => regs.get(r),
            Src::Tid => Some(txn.tid.0 as i64),
        }
    };
    for op in &txn.ops {
        match op {
            IrOp::Read { table, key, out, .. } => {
                visit(Declared::Read(*table, fold(*key, &regs)?));
                // The value read is dynamic.
                regs.set(txn, *out, None);
            }
            IrOp::Update { table, key, .. } | IrOp::Add { table, key, .. } => {
                visit(Declared::Write(*table, fold(*key, &regs)?));
            }
            IrOp::Insert { table, key, .. } => visit(Declared::Insert(*table, fold(*key, &regs)?)),
            IrOp::Delete { table, key } => visit(Declared::Delete(*table, fold(*key, &regs)?)),
            IrOp::Compute { f, a, b, out } => {
                let v = fold(*a, &regs).zip(fold(*b, &regs)).map(|(x, y)| f.apply(x, y));
                regs.set(txn, *out, v);
            }
            IrOp::ScanSum { table, start, count, out, .. } => {
                let s = fold(*start, &regs)?;
                for i in 0..i64::from(*count) {
                    visit(Declared::Read(*table, s + i));
                }
                regs.set(txn, *out, None);
            }
            // Ordered scans read a predicate, not an enumerable key set —
            // undeclarable, exactly the class of transaction that
            // declaration-based systems cannot run.
            IrOp::RangeSum { .. } | IrOp::RangeMinKey { .. } | IrOp::RangeCountBelow { .. } => {
                return None;
            }
        }
    }
    Some(())
}

fn push_unique(v: &mut Vec<(TableId, i64)>, item: (TableId, i64)) {
    if !v.contains(&item) {
        v.push(item);
    }
}

/// Constant-fold the transaction and extract its access sets. Returns
/// `None` if any data access has a key that depends on a read result.
pub fn declared_accesses(txn: &Txn) -> Option<DeclaredAccess> {
    let mut acc = DeclaredAccess::default();
    visit_declared(txn, |access| match access {
        Declared::Read(t, k) => push_unique(&mut acc.reads, (t, k)),
        Declared::Write(t, k) => push_unique(&mut acc.writes, (t, k)),
        Declared::Insert(t, k) => push_unique(&mut acc.inserts, (t, k)),
        Declared::Delete(t, k) => {
            push_unique(&mut acc.writes, (t, k));
            push_unique(&mut acc.deletes, (t, k));
        }
    })?;
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ComputeFn;
    use crate::txn::{ProcId, Tid};
    use ltpg_storage::ColId;

    const T: TableId = TableId(0);

    fn txn(tid: u64, params: Vec<i64>, ops: Vec<IrOp>) -> Txn {
        let mut t = Txn::new(ProcId(0), params, ops);
        t.tid = Tid(tid);
        t
    }

    #[test]
    fn folds_params_tid_and_compute_chains() {
        // Insert key = (param0 * 100) + tid — fully static.
        let t = txn(
            7,
            vec![3],
            vec![
                IrOp::Compute { f: ComputeFn::Mul, a: Src::Param(0), b: Src::Const(100), out: 0 },
                IrOp::Compute { f: ComputeFn::Add, a: Src::Reg(0), b: Src::Tid, out: 0 },
                IrOp::Insert { table: T, key: Src::Reg(0), values: vec![Src::Const(1)] },
                IrOp::Update { table: T, key: Src::Param(0), col: ColId(0), val: Src::Reg(0) },
            ],
        );
        let acc = declared_accesses(&t).unwrap();
        assert_eq!(acc.inserts, vec![(T, 307)]);
        assert_eq!(acc.writes, vec![(T, 3)]);
        assert!(acc.reads.is_empty());
    }

    #[test]
    fn read_dependent_key_defeats_declaration() {
        let t = txn(
            1,
            vec![],
            vec![
                IrOp::Read { table: T, key: Src::Const(1), col: ColId(0), out: 0 },
                IrOp::Update { table: T, key: Src::Reg(0), col: ColId(0), val: Src::Const(9) },
            ],
        );
        assert_eq!(declared_accesses(&t), None);
    }

    #[test]
    fn dynamic_values_are_fine_if_keys_are_static() {
        // Writing a *value* derived from a read is fine — only keys matter.
        let t = txn(
            1,
            vec![5],
            vec![
                IrOp::Read { table: T, key: Src::Const(1), col: ColId(0), out: 0 },
                IrOp::Update { table: T, key: Src::Param(0), col: ColId(0), val: Src::Reg(0) },
            ],
        );
        let acc = declared_accesses(&t).unwrap();
        assert_eq!(acc.reads, vec![(T, 1)]);
        assert_eq!(acc.writes, vec![(T, 5)]);
    }

    #[test]
    fn scan_declares_every_probed_key_and_dedups() {
        let t = txn(
            1,
            vec![],
            vec![
                IrOp::ScanSum { table: T, start: Src::Const(4), count: 3, col: ColId(0), out: 0 },
                IrOp::Read { table: T, key: Src::Const(5), col: ColId(0), out: 1 },
            ],
        );
        let acc = declared_accesses(&t).unwrap();
        assert_eq!(acc.reads, vec![(T, 4), (T, 5), (T, 6)]);
    }

    #[test]
    fn all_writes_covers_inserts() {
        let t = txn(
            2,
            vec![],
            vec![
                IrOp::Add { table: T, key: Src::Const(1), col: ColId(0), delta: Src::Const(1) },
                IrOp::Insert { table: T, key: Src::Tid, values: vec![Src::Const(0)] },
            ],
        );
        let acc = declared_accesses(&t).unwrap();
        let all: Vec<_> = acc.all_writes().collect();
        assert_eq!(all, vec![(T, 1), (T, 2)]);
    }
}
