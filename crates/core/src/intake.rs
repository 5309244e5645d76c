//! Batch intake: the host-side queueing both servers share.
//!
//! Clients submit transactions; each tick forms one batch from the aborted
//! transactions whose re-entry delay has elapsed plus fresh submissions up
//! to the batch size, assigns TIDs (re-entering transactions keep theirs),
//! and — once the batch has executed — parks its aborted transactions for
//! re-entry one batch later, or two under the pipeline model (§V-E: the
//! next batch's upload slot has already left the host).
//!
//! A server feeds its intake from client submissions. Every closed loop fed
//! by a generator instead — the experiments, the examples, the tests that
//! replay a stream — runs through [`drive_stream`], so two schemes driven
//! by the same generator see the same stream.

use std::collections::VecDeque;

use ltpg_txn::{Batch, BatchReport, ProcId, Tid, TidGen, Txn};

/// What [`Intake::next_batch`] found.
pub enum Formed {
    /// Nothing is queued anywhere.
    Idle,
    /// Nothing is due *yet*, but aborted transactions are waiting out
    /// their re-entry delay; the call advanced the delay clock.
    Waiting,
    /// The next batch, TIDs assigned.
    Batch(Batch),
}

/// TID generator, inbox and requeue delay slots.
pub struct Intake {
    tids: TidGen,
    /// Fresh client submissions.
    inbox: VecDeque<Txn>,
    /// Aborted transactions waiting out their re-entry delay; slot 0
    /// re-enters at the next batch.
    requeue: VecDeque<Vec<Txn>>,
}

impl Intake {
    /// An empty intake whose first TID is 1.
    #[allow(clippy::new_without_default)] // `TidGen::default()` starts at 0, not 1
    pub fn new() -> Self {
        Intake { tids: TidGen::new(), inbox: VecDeque::new(), requeue: VecDeque::new() }
    }

    /// Enqueue one fresh transaction.
    pub fn submit(&mut self, txn: Txn) {
        self.inbox.push_back(txn);
    }

    /// Transactions waiting (fresh + re-queued).
    pub fn pending(&self) -> usize {
        self.inbox.len() + self.requeue.iter().map(Vec::len).sum::<usize>()
    }

    /// Fresh submissions waiting in the inbox (excludes re-queued aborts
    /// sitting out their retry delay).
    fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// Size of the re-entry wave due at the next batch: what
    /// [`drive_stream`] subtracts from the batch size.
    fn due_len(&self) -> usize {
        self.requeue.front().map_or(0, Vec::len)
    }

    /// The TID the next fresh admission will receive at batch assembly.
    /// Fresh TIDs are handed out in inbox FIFO order.
    pub fn next_tid(&self) -> u64 {
        self.tids.peek()
    }

    /// Form the next batch: everything due for re-entry, then fresh
    /// submissions until `batch_size` is reached.
    pub fn next_batch(&mut self, batch_size: usize) -> Formed {
        let due = self.requeue.pop_front().unwrap_or_default();
        if due.is_empty() && self.inbox.is_empty() {
            return if self.requeue.iter().all(Vec::is_empty) {
                Formed::Idle
            } else {
                Formed::Waiting
            };
        }
        let mut fresh = Vec::new();
        while fresh.len() + due.len() < batch_size {
            match self.inbox.pop_front() {
                Some(t) => fresh.push(t),
                None => break,
            }
        }
        Formed::Batch(Batch::assemble(due, fresh, &mut self.tids))
    }

    /// Park the `aborted` transactions (ascending TIDs) for re-entry: two
    /// batches later when `pipelined`, otherwise the next batch. They are
    /// taken out of `subs` — the batch's sub-batches as it ran, each in TID
    /// order; one device's is the batch itself — each once, from the first
    /// sub-batch that holds it (a cross-shard transaction's other copies
    /// stay behind), and parked in TID order.
    pub fn requeue_aborted(&mut self, subs: &mut [Batch], aborted: &[Tid], pipelined: bool) {
        if aborted.is_empty() {
            return;
        }
        let delay = if pipelined { 2 } else { 1 };
        while self.requeue.len() < delay {
            self.requeue.push_back(Vec::new());
        }
        let slot = &mut self.requeue[delay - 1];
        slot.reserve(aborted.len());
        // Both lists ascend: one cursor per sub-batch walks it once.
        let mut cursors = vec![0usize; subs.len()];
        for &tid in aborted {
            let mut taken = None;
            for (sub, at) in subs.iter_mut().zip(&mut cursors) {
                while sub.txns.get(*at).is_some_and(|t| t.tid < tid) {
                    *at += 1;
                }
                if taken.is_none() && sub.txns.get(*at).is_some_and(|t| t.tid == tid) {
                    let hole = Txn::new(ProcId(0), Vec::new(), Vec::new());
                    taken = Some(std::mem::replace(&mut sub.txns[*at], hole));
                }
            }
            // Invariant: `aborted` is the verdict on the batch the
            // sub-batches were split from, so every TID names one of its
            // transactions.
            slot.push(taken.expect("aborted tid in batch"));
        }
    }
}

/// What [`drive_stream`] counted over a run. Every admitted transaction is
/// accounted for: `committed + still_pending + dropped == admitted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Batches executed; a round with nothing due and nothing generated
    /// executes none.
    pub batches: usize,
    /// Fresh transactions admitted into some batch (re-executions are not
    /// re-admissions).
    pub admitted: u64,
    /// Transactions committed (a re-executed one counts once, at commit).
    pub committed: u64,
    /// Abort events (a transaction aborted twice counts twice).
    pub abort_events: u64,
    /// Transactions aborted within the re-entry delay of the last round:
    /// their re-entry slot lies past the run, so they leave it uncommitted.
    pub dropped: u64,
    /// Aborted transactions still waiting out their delay when the run
    /// ended.
    pub still_pending: usize,
    /// Largest batch executed (≤ the batch size: a re-entry wave is one
    /// earlier batch's aborts, and a generator's surplus waits in the
    /// inbox).
    pub max_batch_len: usize,
}

/// Drive `rounds` rounds of a closed loop. Each round asks `gen` for the
/// seats the due re-entry wave and any earlier surplus leave free (it may
/// be asked for 0, and may hand over more or fewer), forms a batch of at
/// most `batch_size` with TIDs assigned, and runs it through `step`, which
/// folds whatever per-batch figures its caller keeps. The batch's aborted
/// transactions re-enter with their original TIDs one round later, or two
/// when `pipelined` (§V-E); aborts too close to the end to re-enter are
/// counted as dropped.
pub fn drive_stream(
    mut gen: impl FnMut(usize) -> Vec<Txn>,
    rounds: usize,
    batch_size: usize,
    pipelined: bool,
    mut step: impl FnMut(&Batch) -> BatchReport,
) -> StreamOutcome {
    let delay = if pipelined { 2 } else { 1 };
    let mut intake = Intake::new();
    let mut out = StreamOutcome::default();
    for round in 0..rounds {
        let due = intake.due_len();
        gen(batch_size.saturating_sub(due + intake.inbox_len()))
            .into_iter()
            .for_each(|t| intake.submit(t));
        let Formed::Batch(mut batch) = intake.next_batch(batch_size) else { continue };
        let report = step(&batch);
        out.batches += 1;
        out.admitted += (batch.len() - due) as u64;
        out.max_batch_len = out.max_batch_len.max(batch.len());
        out.committed += report.committed.len() as u64;
        out.abort_events += report.aborted.len() as u64;
        if round + delay < rounds {
            intake.requeue_aborted(std::slice::from_mut(&mut batch), &report.aborted, pipelined);
        } else {
            out.dropped += report.aborted.len() as u64;
        }
    }
    out.still_pending = intake.pending() - intake.inbox_len();
    out
}
