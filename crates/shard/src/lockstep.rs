//! One lockstep round of the cross-shard protocol.
//!
//! `prepare every participant → OR-merge flag words by TID → write the
//! merged words back → finish every participant` is the whole protocol,
//! and it is the same whether the executors are the live shards, fresh
//! engines replaying checkpoint + WAL after a device loss, or a standby row
//! replaying the logged stream. [`lockstep_round`] is that round, written
//! once over the [`Executor`] seam.

use ltpg::{ExecScope, Executor, MergedWords, PreparedBatch, ServerConfig, ServerError};
use ltpg_gpu_sim::DeviceError;
use ltpg_storage::Database;
use ltpg_txn::{Batch, CellStore, Tid};

use crate::partition::Partitioner;
use crate::remote::RemoteView;

/// One participant's phase costs (shards with an empty sub-batch do not
/// participate).
pub(crate) struct Participant {
    /// The participating shard.
    pub shard: usize,
    /// Simulated nanoseconds of its prepare half.
    pub prep_ns: f64,
    /// Simulated nanoseconds of its finish half (0 until it finished).
    pub finish_ns: f64,
}

/// What a round produced.
pub(crate) struct Round {
    /// OR-merged conflict-flag word per TID; empty unless every prepare
    /// succeeded (the merge barrier was reached).
    pub merged: MergedWords,
    /// Per-participant phase costs, in shard order.
    pub participants: Vec<Participant>,
    /// The first shard whose device died, and how. A loss before the
    /// barrier mutated nothing; a loss after it may have left that shard's
    /// slice partly written. Either way the sub-batches were logged before
    /// execution, so recovery replays them.
    pub lost: Option<(usize, DeviceError)>,
}

impl Round {
    /// The slowest participant's prepare: when the merge barrier opened.
    pub fn max_prep_ns(&self) -> f64 {
        self.participants.iter().map(|p| p.prep_ns).fold(0.0, f64::max)
    }
}

/// What the shell needs of a round: the words, the critical path (slowest
/// prepare + slowest finish) and the loss.
impl From<Round> for ltpg::Round {
    fn from(round: Round) -> Self {
        let max_finish = round.participants.iter().map(|p| p.finish_ns).fold(0.0, f64::max);
        let sim_ns = round.max_prep_ns() + max_finish;
        ltpg::Round { words: round.merged, sim_ns, lost: round.lost }
    }
}

/// The merged flag word of `tid`: every transaction of a sub-batch was
/// merged at the barrier, so a miss is a bug surfaced as a server error.
fn merged_word(merged: &MergedWords, tid: Tid) -> Result<u32, ServerError> {
    merged.get(&tid.0).copied().ok_or(ServerError::MissingFlagWord { tid: tid.0 })
}

/// Run `f` with shard `s`'s execution scope: ownership by `part`, remote
/// reads through `remote`. A one-shard topology owns everything, so its
/// scope is the trivial one (`None`).
fn with_scope<R>(
    part: &Partitioner,
    s: usize,
    remote: Option<&RemoteView<'_>>,
    f: impl FnOnce(Option<&ExecScope<'_>>) -> R,
) -> R {
    if part.shards() == 1 {
        return f(None);
    }
    let shard = s as u32;
    let owns_row = move |t, k| part.owns_row(shard, t, k);
    f(Some(&ExecScope { remote: remote.map(|v| v as &(dyn CellStore + Sync)), owns_row: &owns_row }))
}

/// Execute `subs[s]` on `execs[s]` for every shard, as one deterministic
/// cross-shard round. Ownership partitions the cell space, so the merged
/// word of a transaction equals the word a single device over the whole
/// database derives, and the shared commit rule then gives every shard the
/// same verdict with no second round trip.
///
/// Transient upload faults are retried per `retry` (`None` = never, as in
/// replay), the pauses accumulating into `backoff_ns`.
pub(crate) fn lockstep_round(
    execs: &mut [Executor],
    subs: &[Batch],
    part: &Partitioner,
    retry: Option<&ServerConfig>,
    backoff_ns: &mut f64,
) -> Result<Round, ServerError> {
    let mut round = Round {
        merged: MergedWords::new(),
        participants: Vec::with_capacity(subs.len()),
        lost: None,
    };
    let mut prepared: Vec<PreparedBatch> = Vec::with_capacity(subs.len());

    // ---- Prepare every participant against the pre-batch snapshot. ----
    for (s, sub) in subs.iter().enumerate() {
        if sub.txns.is_empty() {
            continue;
        }
        let (before, rest) = execs.split_at_mut(s);
        // Invariant: callers pass one executor per sub-batch.
        let (exec, after) = rest.split_first_mut().expect("one executor per sub-batch");
        // The reader's own slot stays empty: local rows resolve through
        // the local side of the scope chain.
        let dbs: Vec<Option<&Database>> = before
            .iter()
            .map(|e| Some(e.database()))
            .chain(std::iter::once(None))
            .chain(after.iter().map(|e| Some(e.database())))
            .collect();
        let view = RemoteView::new(part, dbs);
        match with_scope(part, s, Some(&view), |scope| exec.prepare(sub, scope, retry, backoff_ns))
        {
            Ok(p) => {
                round.participants.push(Participant {
                    shard: s,
                    prep_ns: p.sim_ns(),
                    finish_ns: 0.0,
                });
                prepared.push(p);
            }
            Err(e) => {
                round.lost = Some((s, e));
                return Ok(round);
            }
        }
    }

    // ---- Merge barrier: OR the per-shard words of each transaction. ----
    for (p, prepared) in round.participants.iter().zip(&prepared) {
        for (j, txn) in subs[p.shard].txns.iter().enumerate() {
            *round.merged.entry(txn.tid.0).or_insert(0) |= prepared.flag_word(j);
        }
    }

    // ---- Finish every participant with the merged words. ----
    for (p, mut prepared) in round.participants.iter_mut().zip(prepared) {
        let s = p.shard;
        for (j, txn) in subs[s].txns.iter().enumerate() {
            prepared.set_flag_word(j, merged_word(&round.merged, txn.tid)?);
        }
        // Finish never reads remote rows (write-back applies only owned
        // mutations), so the scope carries no remote view.
        match with_scope(part, s, None, |scope| execs[s].finish(&subs[s], prepared, scope)) {
            Ok((_, finish_ns)) => p.finish_ns = finish_ns,
            Err(e) => {
                round.lost = Some((s, e));
                return Ok(round);
            }
        }
    }
    Ok(round)
}
