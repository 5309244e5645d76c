//! The dataflow IR that stored procedures compile to.
//!
//! Operand sources ([`Src`]) reference either a literal, a slot of the
//! transaction's parameter block, or a register written by an earlier
//! operation. Every engine interprets the same IR; the reference semantics
//! live in [`crate::exec`].

use ltpg_storage::{ColId, TableId};

/// Where an operand comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A literal value baked into the op.
    Const(i64),
    /// Slot `n` of the transaction's parameter block.
    Param(u8),
    /// Register `n`, written by an earlier op of the same transaction.
    Reg(u8),
    /// The transaction's own TID. Deterministic engines use this to derive
    /// unique insert keys (order ids, history keys) without a read-modify-
    /// write on a shared sequence row — the standard deterministic-database
    /// trick for TPC-C's `D_NEXT_O_ID` hotspot (see DESIGN.md).
    Tid,
}

/// Pure functions available to [`IrOp::Compute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeFn {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// TPC-C stock replenishment: `if a - b >= 10 { a - b } else { a - b + 91 }`.
    StockSub,
}

impl ComputeFn {
    /// Apply the function.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            ComputeFn::Add => a.wrapping_add(b),
            ComputeFn::Sub => a.wrapping_sub(b),
            ComputeFn::Mul => a.wrapping_mul(b),
            ComputeFn::Min => a.min(b),
            ComputeFn::Max => a.max(b),
            ComputeFn::StockSub => {
                let d = a.wrapping_sub(b);
                if d >= 10 {
                    d
                } else {
                    d + 91
                }
            }
        }
    }
}

/// One operation of a transaction. Keys are primary-key values; composite
/// keys (e.g. TPC-C `(w_id, d_id)`) are packed into a single `i64` by the
/// workload layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names (table/key/col/out/...) are uniform and self-describing
pub enum IrOp {
    /// Read `table[key].col` into register `out`. Reading a missing key
    /// yields 0 (and is tracked as a row-existence read by the oracle).
    Read { table: TableId, key: Src, col: ColId, out: u8 },
    /// Overwrite `table[key].col` with `val`. A missing key is a no-op.
    Update { table: TableId, key: Src, col: ColId, val: Src },
    /// Commutative read-modify-write: `table[key].col += delta`. LTPG's
    /// delayed-update optimization applies to these when the column is
    /// marked hot; otherwise engines treat it as read + write.
    Add { table: TableId, key: Src, col: ColId, delta: Src },
    /// Insert a new row. Duplicate keys are a user abort in the reference
    /// semantics.
    Insert { table: TableId, key: Src, values: Vec<Src> },
    /// Delete the row under `key`. A missing key is a no-op.
    Delete { table: TableId, key: Src },
    /// Pure computation: `out = f(a, b)`.
    Compute { f: ComputeFn, a: Src, b: Src, out: u8 },
    /// Emulated short range scan (YCSB-E): sum `col` over keys
    /// `start .. start + count` via repeated point lookups (missing keys
    /// contribute 0), result into `out`.
    ScanSum { table: TableId, start: Src, count: u16, col: ColId, out: u8 },
    /// True ordered range scan over a B+tree index (the paper's stated
    /// future-work extension): sum `col` over existing keys in
    /// `[lo, hi)`, result into `out`. Requires the table to carry an
    /// ordered index; phantom-protected via the table-membership marker
    /// (see `ltpg_storage::table::MEMBERSHIP_MARKER_KEY` consumers).
    RangeSum { table: TableId, lo: Src, hi: Src, col: ColId, out: u8 },
    /// Smallest existing key in `[lo, hi)` into `out` (0 when none) —
    /// TPC-C Delivery's "oldest undelivered order" probe.
    RangeMinKey { table: TableId, lo: Src, hi: Src, out: u8 },
    /// Count keys in `[lo, hi)` whose `col` is strictly below `threshold`
    /// — TPC-C StockLevel's low-stock count.
    RangeCountBelow { table: TableId, lo: Src, hi: Src, col: ColId, threshold: Src, out: u8 },
}

/// Coarse operation class — the unit of LTPG's warp typing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Point read.
    Read,
    /// Point overwrite.
    Update,
    /// Commutative add.
    Add,
    /// Row insert.
    Insert,
    /// Row delete.
    Delete,
    /// Pure ALU.
    Compute,
    /// Range scan.
    Scan,
}

impl IrOp {
    /// The op's class.
    pub fn kind(&self) -> OpKind {
        match self {
            IrOp::Read { .. } => OpKind::Read,
            IrOp::Update { .. } => OpKind::Update,
            IrOp::Add { .. } => OpKind::Add,
            IrOp::Insert { .. } => OpKind::Insert,
            IrOp::Delete { .. } => OpKind::Delete,
            IrOp::Compute { .. } => OpKind::Compute,
            IrOp::ScanSum { .. }
            | IrOp::RangeSum { .. }
            | IrOp::RangeMinKey { .. }
            | IrOp::RangeCountBelow { .. } => OpKind::Scan,
        }
    }

    /// The register this op writes, if any.
    pub fn out_reg(&self) -> Option<u8> {
        match self {
            IrOp::Read { out, .. }
            | IrOp::Compute { out, .. }
            | IrOp::ScanSum { out, .. }
            | IrOp::RangeSum { out, .. }
            | IrOp::RangeMinKey { out, .. }
            | IrOp::RangeCountBelow { out, .. } => Some(*out),
            _ => None,
        }
    }

    /// Visit every operand source this op consumes, in operand order.
    pub fn for_each_src(&self, mut f: impl FnMut(Src)) {
        match self {
            IrOp::Read { key, .. } | IrOp::Delete { key, .. } => f(*key),
            IrOp::Update { key, val: b, .. } | IrOp::Add { key, delta: b, .. } => {
                f(*key);
                f(*b);
            }
            IrOp::Insert { key, values, .. } => {
                f(*key);
                values.iter().copied().for_each(f);
            }
            IrOp::Compute { a, b, .. } => {
                f(*a);
                f(*b);
            }
            IrOp::ScanSum { start, .. } => f(*start),
            IrOp::RangeSum { lo, hi, .. } | IrOp::RangeMinKey { lo, hi, .. } => {
                f(*lo);
                f(*hi);
            }
            IrOp::RangeCountBelow { lo, hi, threshold, .. } => {
                f(*lo);
                f(*hi);
                f(*threshold);
            }
        }
    }

    /// All operand sources this op consumes.
    pub fn srcs(&self) -> Vec<Src> {
        let mut v = Vec::new();
        self.for_each_src(|s| v.push(s));
        v
    }
}

impl OpKind {
    /// Stable numeric tag for warp-divergence bookkeeping.
    pub fn tag(self) -> u32 {
        match self {
            OpKind::Read => 0,
            OpKind::Update => 1,
            OpKind::Add => 2,
            OpKind::Insert => 3,
            OpKind::Delete => 4,
            OpKind::Compute => 5,
            OpKind::Scan => 6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_fns_match_reference_semantics() {
        assert_eq!(ComputeFn::Add.apply(2, 3), 5);
        assert_eq!(ComputeFn::Sub.apply(2, 3), -1);
        assert_eq!(ComputeFn::Mul.apply(4, 5), 20);
        assert_eq!(ComputeFn::Min.apply(4, 5), 4);
        assert_eq!(ComputeFn::Max.apply(4, 5), 5);
    }

    #[test]
    fn stock_sub_wraps_below_threshold() {
        // Plenty of stock: plain subtraction.
        assert_eq!(ComputeFn::StockSub.apply(50, 10), 40);
        // Exactly at threshold: no wrap.
        assert_eq!(ComputeFn::StockSub.apply(20, 10), 10);
        // Below threshold: replenish by 91.
        assert_eq!(ComputeFn::StockSub.apply(12, 10), 2 + 91);
    }

    #[test]
    fn kinds_and_out_regs() {
        let t = TableId(0);
        let c = ColId(0);
        let read = IrOp::Read { table: t, key: Src::Const(1), col: c, out: 3 };
        assert_eq!(read.kind(), OpKind::Read);
        assert_eq!(read.out_reg(), Some(3));
        let upd = IrOp::Update { table: t, key: Src::Param(0), col: c, val: Src::Reg(3) };
        assert_eq!(upd.kind(), OpKind::Update);
        assert_eq!(upd.out_reg(), None);
        assert_eq!(upd.srcs(), vec![Src::Param(0), Src::Reg(3)]);
    }

    #[test]
    fn kind_tags_are_distinct() {
        let kinds = [
            OpKind::Read,
            OpKind::Update,
            OpKind::Add,
            OpKind::Insert,
            OpKind::Delete,
            OpKind::Compute,
            OpKind::Scan,
        ];
        let mut tags: Vec<u32> = kinds.iter().map(|k| k.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), kinds.len());
    }
}
