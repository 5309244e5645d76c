//! Transactions, TIDs, and batches.

use crate::ir::{IrOp, Src};

/// A transaction identifier. TIDs are assigned at batch admission and are
/// **sticky**: a transaction aborted by deterministic OCC re-enters a later
/// batch with its original TID, which (together with the deterministic
/// commit rule) is what makes LTPG's outcomes replayable (paper §IV).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u64);

/// Identifies a stored procedure (for warp typing and per-type reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u16);

/// A transaction instance: a procedure id, its parameter block, and its
/// loop-unrolled operation list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Txn {
    /// Batch-assigned identifier (sticky across re-executions).
    pub tid: Tid,
    /// Which stored procedure this is an instance of.
    pub proc: ProcId,
    /// Parameter block referenced by [`Src::Param`].
    pub params: Vec<i64>,
    /// The operations, in program order.
    pub ops: Vec<IrOp>,
}

impl Txn {
    /// Construct with a placeholder TID (0); batches assign real TIDs.
    pub fn new(proc: ProcId, params: Vec<i64>, ops: Vec<IrOp>) -> Self {
        Txn { tid: Tid(0), proc, params, ops }
    }

    /// Number of registers the op list requires (max register index + 1).
    pub fn reg_count(&self) -> usize {
        // Runs once per speculation: no per-op allocation.
        let mut count = 0usize;
        for op in &self.ops {
            if let Some(r) = op.out_reg() {
                count = count.max(usize::from(r) + 1);
            }
            op.for_each_src(|s| {
                if let Src::Reg(r) = s {
                    count = count.max(usize::from(r) + 1);
                }
            });
        }
        count
    }

    /// Approximate bytes this transaction contributes to the host→device
    /// parameter upload: 32-bit device-side parameters plus a fixed header
    /// (tid, proc, op count).
    pub fn payload_bytes(&self) -> u64 {
        (self.params.len() * 4 + 8) as u64
    }

    /// Validate register dataflow: every `Src::Reg` must have been written
    /// by an earlier op, and every `Src::Param` must be in range. Returns a
    /// description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut written = [false; 256];
        for (i, op) in self.ops.iter().enumerate() {
            for s in op.srcs() {
                match s {
                    Src::Reg(r) if !written[usize::from(r)] => {
                        return Err(format!("op {i} reads register {r} before any write"));
                    }
                    Src::Param(p) if usize::from(p) >= self.params.len() => {
                        return Err(format!("op {i} reads param {p}, only {} given", self.params.len()));
                    }
                    _ => {}
                }
            }
            if let Some(r) = op.out_reg() {
                written[usize::from(r)] = true;
            }
        }
        Ok(())
    }
}

/// Hands out monotonically increasing TIDs across batches. TID 0 is never
/// assigned: engines use 0-adjacent sentinels (`u64::MAX` for "no TID yet")
/// and 1-based TIDs keep `min` logic unambiguous.
#[derive(Debug, Default)]
pub struct TidGen {
    next: u64,
}

impl TidGen {
    /// Start at TID 1.
    pub fn new() -> Self {
        TidGen { next: 1 }
    }

    /// Allocate the next TID.
    #[allow(clippy::should_implement_trait)] // not an iterator: infinite, infallible
    pub fn next(&mut self) -> Tid {
        let t = Tid(self.next);
        self.next += 1;
        t
    }

    /// The TID the next call to [`next`](Self::next) will return, without
    /// allocating it. Because fresh admissions are assigned TIDs in FIFO
    /// submission order, an ingestion layer can mirror this to map commit
    /// notifications back to submissions without a side channel.
    pub fn peek(&self) -> u64 {
        self.next
    }
}

/// An ordered batch of transactions. Invariant: TIDs strictly increase in
/// batch order (fresh admissions get new TIDs; re-executed aborts keep
/// their old — smaller — TIDs and therefore sort to the front).
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// The transactions, sorted by TID ascending.
    pub txns: Vec<Txn>,
}

impl Batch {
    /// Assemble a batch from re-queued transactions (already carrying TIDs)
    /// plus fresh ones (assigned TIDs here), then sort by TID.
    pub fn assemble(requeued: Vec<Txn>, fresh: Vec<Txn>, gen: &mut TidGen) -> Batch {
        let mut txns = requeued;
        for mut t in fresh {
            t.tid = gen.next();
            txns.push(t);
        }
        txns.sort_by_key(|t| t.tid);
        debug_assert!(txns.windows(2).all(|w| w[0].tid < w[1].tid), "duplicate TIDs in batch");
        Batch { txns }
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Host→device upload size for this batch's parameters.
    pub fn payload_bytes(&self) -> u64 {
        self.txns.iter().map(Txn::payload_bytes).sum()
    }

    /// Find a transaction by TID (batches are sorted, so binary search).
    pub fn by_tid(&self, tid: Tid) -> Option<&Txn> {
        self.txns.binary_search_by_key(&tid, |t| t.tid).ok().map(|i| &self.txns[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ComputeFn, IrOp, OpKind};
    use ltpg_storage::{ColId, TableId};

    fn mk(ops: Vec<IrOp>, params: Vec<i64>) -> Txn {
        Txn::new(ProcId(0), params, ops)
    }

    #[test]
    fn reg_count_spans_reads_and_writes() {
        let t = TableId(0);
        let txn = mk(
            vec![
                IrOp::Read { table: t, key: Src::Param(0), col: ColId(0), out: 2 },
                IrOp::Compute { f: ComputeFn::Add, a: Src::Reg(2), b: Src::Const(1), out: 5 },
            ],
            vec![9],
        );
        assert_eq!(txn.reg_count(), 6);
        assert!(txn.validate().is_ok());
    }

    #[test]
    fn validate_catches_use_before_def_and_param_overflow() {
        let t = TableId(0);
        let bad_reg = mk(
            vec![IrOp::Update { table: t, key: Src::Const(0), col: ColId(0), val: Src::Reg(1) }],
            vec![],
        );
        assert!(bad_reg.validate().unwrap_err().contains("register 1"));
        let bad_param =
            mk(vec![IrOp::Read { table: t, key: Src::Param(3), col: ColId(0), out: 0 }], vec![1]);
        assert!(bad_param.validate().unwrap_err().contains("param 3"));
    }

    #[test]
    fn assemble_orders_by_tid_with_requeued_first() {
        let mut gen = TidGen::new();
        let mut fresh1 = mk(vec![], vec![]);
        fresh1.tid = gen.next(); // tid 1, pretend it ran and aborted
        let b = Batch::assemble(
            vec![fresh1.clone()],
            vec![mk(vec![], vec![1]), mk(vec![], vec![2])],
            &mut gen,
        );
        assert_eq!(b.len(), 3);
        assert_eq!(b.txns[0].tid, Tid(1));
        assert_eq!(b.txns[1].tid, Tid(2));
        assert_eq!(b.txns[2].tid, Tid(3));
        assert_eq!(b.by_tid(Tid(2)).unwrap().params, vec![1]);
        assert!(b.by_tid(Tid(99)).is_none());
    }

    #[test]
    fn payload_bytes_scale_with_params() {
        let a = mk(vec![], vec![1, 2, 3]);
        assert_eq!(a.payload_bytes(), 3 * 4 + 8);
        let b = Batch { txns: vec![a.clone(), a] };
        assert_eq!(b.payload_bytes(), 2 * (3 * 4 + 8));
    }

    #[test]
    fn op_kind_helper_visible_through_txn() {
        let t = TableId(0);
        let txn = mk(
            vec![IrOp::ScanSum { table: t, start: Src::Const(0), count: 4, col: ColId(0), out: 0 }],
            vec![],
        );
        assert_eq!(txn.ops[0].kind(), OpKind::Scan);
    }
}
