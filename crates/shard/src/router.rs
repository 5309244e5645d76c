//! Transaction routing: which shards must participate in a transaction.
//!
//! The route of a transaction is a **pure function of its declared access
//! set and the partitioner** — no load balancing, no run-time state — so
//! every node (and every replay of the WAL) classifies a transaction the
//! same way. Participants are:
//!
//! * the home shard of every row read (skipped for replicated tables —
//!   any participant can read its full local copy),
//! * the home shard of every row written or inserted (a write to a
//!   *replicated* table must reach every copy, so it broadcasts),
//! * the membership owner of every inserted or deleted key's partition
//!   (phantom guards must register where ordered scanners look).
//!
//! Transactions whose key set cannot be derived statically (ordered-scan
//! ops; see [`ltpg_txn::declared`]) broadcast to every shard: each shard
//! scans its slice plus the remote view, and the merge rule keeps the
//! verdict deterministic.

use ltpg_storage::{membership_partition, MEMBERSHIP_PARTITION_SHIFT};
use ltpg_txn::{visit_declared, Declared, Txn};

use crate::partition::Partitioner;

/// Where a transaction must run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Exactly one shard; no merge round needed.
    Single(u32),
    /// Several (but not all) shards, ascending and deduplicated.
    Multi(Vec<u32>),
    /// Every shard participates.
    Broadcast,
}

impl Route {
    /// Does `shard` participate (out of `n` shards total)?
    pub fn includes(&self, shard: u32) -> bool {
        match self {
            Route::Single(s) => *s == shard,
            Route::Multi(v) => v.contains(&shard),
            Route::Broadcast => true,
        }
    }

    /// Number of participant shards (out of `n` total).
    pub fn participant_count(&self, n: u32) -> usize {
        match self {
            Route::Single(_) => 1,
            Route::Multi(v) => v.len(),
            Route::Broadcast => n as usize,
        }
    }

    /// Whether more than one shard participates.
    pub fn is_cross(&self) -> bool {
        !matches!(self, Route::Single(_))
    }
}

/// The participant set as it is folded: the first shard seen, and the
/// others in order of appearance. Nothing is allocated until a second
/// distinct shard appears.
#[derive(Default)]
struct Participants {
    first: Option<u32>,
    more: Vec<u32>,
}

impl Participants {
    fn add(&mut self, shard: u32) {
        match self.first {
            None => self.first = Some(shard),
            Some(first) if first == shard => {}
            Some(_) if self.more.contains(&shard) => {}
            Some(_) => self.more.push(shard),
        }
    }

    /// The route of `shards` total shards.
    fn into_route(self, shards: u32) -> Route {
        let Participants { first, mut more } = self;
        let Some(first) = first else {
            // No partitioned-table access at all (e.g. reads of replicated
            // tables only): any shard works; pin shard 0 for determinism.
            return Route::Single(0);
        };
        if more.is_empty() {
            return Route::Single(first);
        }
        if more.len() + 1 == shards as usize {
            return Route::Broadcast;
        }
        more.push(first);
        more.sort_unstable();
        Route::Multi(more)
    }
}

/// Classifies transactions against a [`Partitioner`].
#[derive(Debug, Clone)]
pub struct Router {
    part: Partitioner,
}

impl Router {
    /// A router over `part`.
    pub fn new(part: Partitioner) -> Self {
        Router { part }
    }

    /// The underlying partitioner.
    pub fn partitioner(&self) -> &Partitioner {
        &self.part
    }

    /// Compute the participant set of `txn`. Deterministic: depends only
    /// on the transaction's statically-declared key set and the
    /// partitioner rules (TIDs only enter through keys derived from
    /// `Src::Tid`, which the declaration pass folds like any constant).
    /// One walk of the declared accesses, folding each one's shard into the
    /// participant set as it is visited; a single-shard transaction
    /// allocates nothing.
    pub fn route(&self, txn: &Txn) -> Route {
        let part = &self.part;
        let mut to = Participants::default();
        let mut replicated_write = false;
        let declared = visit_declared(txn, |access| match access {
            // Every shard can serve a replicated read locally.
            Declared::Read(t, _) if part.is_replicated(t) => {}
            // A read of a membership marker key observes the partition
            // guard — it must run where that guard registers.
            Declared::Read(t, k) => to.add(match membership_partition(k) {
                Some(p) => part.membership_owner(t, p),
                None => part.home(t, k),
            }),
            // Every copy must apply a replicated write.
            Declared::Write(t, _) | Declared::Insert(t, _) | Declared::Delete(t, _)
                if part.is_replicated(t) =>
            {
                replicated_write = true;
            }
            Declared::Write(t, k) => to.add(part.home(t, k)),
            Declared::Insert(t, k) | Declared::Delete(t, k) => {
                to.add(part.home(t, k));
                to.add(part.membership_owner(t, k >> MEMBERSHIP_PARTITION_SHIFT));
            }
        });
        // Undeclarable (an ordered scan, a key read from a register: the
        // key set is a predicate, not a list) or a replicated write.
        if declared.is_none() || replicated_write {
            return Route::Broadcast;
        }
        to.into_route(part.shards())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::TableRule;
    use ltpg_storage::{ColId, TableId};
    use ltpg_txn::{IrOp, ProcId, Src};

    const A: TableId = TableId(0);
    const R: TableId = TableId(1);

    fn part4() -> Partitioner {
        Partitioner::new(4, TableRule::Stride { stride: 1 }).with_rule(R, TableRule::Replicated)
    }

    fn read(t: TableId, k: i64, out: u8) -> IrOp {
        IrOp::Read { table: t, key: Src::Const(k), col: ColId(0), out }
    }

    fn update(t: TableId, k: i64) -> IrOp {
        IrOp::Update { table: t, key: Src::Const(k), col: ColId(0), val: Src::Const(1) }
    }

    #[test]
    fn single_multi_and_broadcast_are_classified() {
        let r = Router::new(part4());
        let single = Txn::new(ProcId(0), vec![], vec![read(A, 4, 0), update(A, 8)]);
        assert_eq!(r.route(&single), Route::Single(0));
        let multi = Txn::new(ProcId(0), vec![], vec![update(A, 1), update(A, 2)]);
        assert_eq!(r.route(&multi), Route::Multi(vec![1, 2]));
        let all = Txn::new(
            ProcId(0),
            vec![],
            vec![update(A, 0), update(A, 1), update(A, 2), update(A, 3)],
        );
        assert_eq!(r.route(&all), Route::Broadcast);
    }

    #[test]
    fn replicated_reads_are_free_but_writes_broadcast() {
        let r = Router::new(part4());
        let t = Txn::new(ProcId(0), vec![], vec![read(R, 7, 0), update(A, 5)]);
        assert_eq!(r.route(&t), Route::Single(1));
        let w = Txn::new(ProcId(0), vec![], vec![update(R, 7)]);
        assert_eq!(r.route(&w), Route::Broadcast);
        let ronly = Txn::new(ProcId(0), vec![], vec![read(R, 7, 0)]);
        assert_eq!(r.route(&ronly), Route::Single(0));
    }

    #[test]
    fn inserts_add_the_membership_owner() {
        // Stride 1 on table A: row home of key k is k mod 4; the membership
        // owner of partition 0 (all small keys) is home(0) = 0.
        let r = Router::new(part4());
        let t = Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Insert { table: A, key: Src::Const(5), values: vec![Src::Const(0)] }],
        );
        assert_eq!(r.route(&t), Route::Multi(vec![0, 1]));
    }

    #[test]
    fn undeclarable_txns_broadcast() {
        let r = Router::new(part4());
        let t = Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::RangeSum {
                table: A,
                lo: Src::Const(0),
                hi: Src::Const(10),
                col: ColId(0),
                out: 0,
            }],
        );
        assert_eq!(r.route(&t), Route::Broadcast);
    }
}
