//! Greedy delta-debugging minimization of divergent cases.
//!
//! The shrinker repeatedly proposes a smaller candidate, re-runs the full
//! differential check, and keeps the candidate iff it still diverges (any
//! divergence counts — the failure may legitimately change shape as the
//! case shrinks). Everything is a pure function of the case, so shrinking
//! is deterministic. Reduction passes, applied to a fixpoint:
//!
//! 1. **Transaction ddmin** — drop chunks of transactions at halving
//!    granularities down to single transactions.
//! 2. **Op pruning** — drop individual ops inside each surviving
//!    transaction (skipping removals that would break register dataflow).
//! 3. **Domain shrinking** — drop seed rows, then drop trailing tables no
//!    transaction references.
//! 4. **Layer removal** — each layer of the stack off in turn (one shard,
//!    no pipeline, no fault, no standbys, no front-end, no cutover, one
//!    host thread, no checkpointing, one big batch).

use ltpg_txn::{IrOp, Txn};

use crate::run::{run_case, Divergence};
use crate::QaCase;

/// Result of a successful shrink.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimized case (still diverging).
    pub case: QaCase,
    /// The divergence the minimized case exhibits.
    pub divergence: Divergence,
    /// Differential runs spent shrinking (candidate evaluations).
    pub steps: u64,
}

/// Evaluation budget: candidate runs per shrink. Generous — cases are
/// small and each run is milliseconds — but bounded, so adversarial cases
/// cannot wedge the fuzzer.
const MAX_STEPS: u64 = 3_000;

/// The shrink in progress: the smallest case seen to diverge so far, its
/// divergence, and the runs spent.
struct Ctx {
    cur: QaCase,
    div: Divergence,
    steps: u64,
}

impl Ctx {
    /// Run `cand` (within the budget); keep it iff it differs and still
    /// diverges.
    fn keep(&mut self, cand: QaCase) -> bool {
        if self.steps >= MAX_STEPS || cand == self.cur {
            return false;
        }
        self.steps += 1;
        let Err(div) = run_case(&cand) else { return false };
        (self.cur, self.div) = (cand, div);
        true
    }
}

/// Minimize `case`. Returns `None` if the case does not diverge at all.
pub fn shrink(case: &QaCase) -> Option<Shrunk> {
    let div = run_case(case).err()?;
    let mut ctx = Ctx { cur: case.clone(), div, steps: 1 };
    loop {
        let mut progress = false;
        progress |= shrink_txns(&mut ctx);
        progress |= shrink_ops(&mut ctx);
        progress |= shrink_rows(&mut ctx);
        progress |= shrink_config(&mut ctx);
        if !progress || ctx.steps >= MAX_STEPS {
            break;
        }
    }
    Some(Shrunk { case: ctx.cur, divergence: ctx.div, steps: ctx.steps })
}

/// Classic ddmin over the transaction schedule.
fn shrink_txns(ctx: &mut Ctx) -> bool {
    let mut progress = false;
    let mut chunk = (ctx.cur.txns.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < ctx.cur.txns.len() && ctx.cur.txns.len() > 1 {
            let mut cand = ctx.cur.clone();
            let end = (i + chunk).min(cand.txns.len());
            cand.txns.drain(i..end);
            if ctx.keep(cand) {
                // Same index now holds the next chunk.
                progress = true;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    progress
}

/// A transaction with op `oi` removed, if the result is still well-formed.
fn without_op(txn: &Txn, oi: usize) -> Option<Txn> {
    if txn.ops.len() <= 1 {
        return None;
    }
    let mut ops = txn.ops.clone();
    ops.remove(oi);
    let cand = Txn::new(txn.proc, txn.params.clone(), ops);
    cand.validate().ok().map(|()| cand)
}

fn shrink_ops(ctx: &mut Ctx) -> bool {
    let mut progress = false;
    let mut ti = 0;
    while ti < ctx.cur.txns.len() {
        let mut oi = 0;
        while oi < ctx.cur.txns[ti].ops.len() {
            let Some(cand_txn) = without_op(&ctx.cur.txns[ti], oi) else {
                oi += 1;
                continue;
            };
            let mut cand = ctx.cur.clone();
            cand.txns[ti] = cand_txn;
            if ctx.keep(cand) {
                progress = true;
            } else {
                oi += 1;
            }
        }
        ti += 1;
    }
    progress
}

fn shrink_rows(ctx: &mut Ctx) -> bool {
    let mut progress = false;
    for t in 0..ctx.cur.tables.len() {
        let mut ri = 0;
        while ri < ctx.cur.tables[t].rows.len() {
            let mut cand = ctx.cur.clone();
            cand.tables[t].rows.remove(ri);
            if ctx.keep(cand) {
                progress = true;
            } else {
                ri += 1;
            }
        }
    }
    // Trailing tables can go wholesale (dropping interior tables would
    // renumber `TableId`s referenced by the surviving ops) — but only ones
    // no op references, or the candidate is malformed and its
    // out-of-bounds panic would masquerade as the divergence under test.
    while ctx.cur.tables.len() > 1 && !references_table(&ctx.cur, ctx.cur.tables.len() - 1) {
        let mut cand = ctx.cur.clone();
        cand.tables.pop();
        if !ctx.keep(cand) {
            break;
        }
        progress = true;
    }
    progress
}

/// Does any op of any transaction touch table `ti`?
fn references_table(case: &QaCase, ti: usize) -> bool {
    let id = ltpg_storage::TableId(ti as u16);
    case.txns.iter().any(|txn| {
        txn.ops.iter().any(|op| match op {
            IrOp::Read { table, .. }
            | IrOp::Update { table, .. }
            | IrOp::Add { table, .. }
            | IrOp::Insert { table, .. }
            | IrOp::Delete { table, .. }
            | IrOp::ScanSum { table, .. }
            | IrOp::RangeSum { table, .. }
            | IrOp::RangeMinKey { table, .. }
            | IrOp::RangeCountBelow { table, .. } => *table == id,
            IrOp::Compute { .. } => false,
        })
    })
}

/// One candidate per layer, turning it off. One shard takes the loss and
/// the cutover with it, which need a second shard to fire.
fn shrink_config(ctx: &mut Ctx) -> bool {
    let candidates: [fn(&mut QaCase); 12] = [
        |c| c.via_rebalance = false,
        |c| c.via_schedulers = false,
        |c| c.via_front = false,
        |c| c.standbys = 0,
        |c| c.fail_shard = None,
        |c| c.host_threads = 1,
        |c| (c.shards, c.fail_shard, c.via_rebalance) = (1, None, false),
        |c| c.pipelined = false,
        |c| c.checkpoint_every = None,
        |c| c.commutative_t0c0 = false,
        |c| c.log_pressure = false,
        |c| c.batch_size = c.txns.len().max(1),
    ];
    let mut progress = false;
    for f in candidates {
        let mut cand = ctx.cur.clone();
        f(&mut cand);
        progress |= ctx.keep(cand);
    }
    progress
}
