//! The engine under ownership splits: for any way of partitioning a
//! database's cells across 2–4 scoped engines, the bitwise OR of their
//! per-transaction conflict-flag words equals the word the unscoped engine
//! derives over the whole database — and the word the exact min-TID
//! reference (`ltpg_qa::reference`) derives — transaction by transaction,
//! batch after batch. This is the exactness argument behind cross-shard
//! flag merging (DESIGN.md, "Sharded execution"), checked directly on the
//! words rather than through commit sets. A case that runs its logs out
//! (QA's log-pressure axis) holds the unscoped engine to the reference
//! alone, `LOG_FULL` lanes aside: N scoped engines' logs hold more than one
//! engine's, so their `LOG_FULL` lanes differ by design.

use ltpg::{ExecScope, LtpgEngine};
use ltpg_qa::gen::{generate_mix, OpMix};
use ltpg_qa::reference;
use ltpg_shard::RemoteView;
use ltpg_storage::Database;
use ltpg_telemetry::Registry;
use ltpg_txn::{Batch, BatchEngine, TidGen};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn scoped_engine_words_or_to_the_unscoped_and_reference_words(
        seed in 0u64..100_000,
        ways in prop_oneof![Just(2u32), Just(3), Just(4)],
        marker_heavy in any::<bool>(),
    ) {
        // A generated QA case (random schema, rules and schedule), re-cut
        // `ways` ways: the case's own per-table rules decide who owns what.
        // Half the cases are mostly deletes, colliding inserts and ordered
        // scans, so that marker cells — owned with their partition's first
        // key, through the one ownership predicate — carry the conflicts.
        let mix = if marker_heavy { &OpMix::MARKER_HEAVY } else { &OpMix::BROAD };
        let mut case = generate_mix(seed, mix);
        // A log-pressure case runs its logs out, and N shards' logs hold
        // more than one device's: that `LOG_FULL` difference is by design,
        // so such a case holds the unscoped engine to the reference alone.
        let ways = if case.log_pressure { 0 } else { ways };
        case.shards = ways.max(1);
        let part = case.partitioner();
        let cfg = case.engine_config();
        let db = case.build_database();
        let engine = |db: Database| LtpgEngine::with_telemetry(db, cfg.clone(), Registry::new_shared());

        let mut scoped: Vec<LtpgEngine> =
            (0..ways).map(|s| engine(db.partition_clone(part.slice_pred(s)))).collect();
        let mut whole = engine(db);

        let mut tids = TidGen::new();
        for (step, chunk) in case.batches().enumerate() {
            let batch = Batch::assemble(Vec::new(), chunk.to_vec(), &mut tids);
            let want = reference::flag_words(whole.database(), &cfg, &batch, |_, _| true);
            // Every engine executes the whole batch, registering and
            // detecting only the cells it owns.
            let mut prepared = Vec::new();
            for s in 0..ways as usize {
                let (before, rest) = scoped.split_at_mut(s);
                let (shard, after) = rest.split_first_mut().unwrap();
                let dbs: Vec<Option<&Database>> = before
                    .iter()
                    .map(|e| Some(e.database()))
                    .chain([None])
                    .chain(after.iter().map(|e| Some(e.database())))
                    .collect();
                let view = RemoteView::new(&part, dbs);
                let owns_row = |t, k| part.owns_row(s as u32, t, k);
                let scope = ExecScope { remote: Some(&view), owns_row: &owns_row };
                prepared.push(shard.try_prepare_batch(&batch, Some(&scope)).unwrap());
            }
            let whole_prepared = whole.try_prepare_batch(&batch, None).unwrap();

            let words: Vec<u32> = (0..batch.len()).map(|i| whole_prepared.flag_word(i)).collect();
            if let Some(i) = reference::first_mismatch(&words, &want) {
                prop_assert!(
                    false,
                    "seed {} batch {} tid {}: the unscoped engine's word {:#x} vs the reference's {:#x}",
                    seed, step, batch.txns[i].tid.0, words[i], want[i]
                );
            }
            let merged: Vec<u32> = (0..batch.len())
                .map(|i| prepared.iter().fold(0, |word, p| word | p.flag_word(i)))
                .collect();
            // Under log pressure no scoped engine runs.
            for (i, txn) in batch.txns.iter().enumerate().filter(|_| ways > 0) {
                prop_assert_eq!(
                    merged[i], words[i],
                    "seed {} batch {} tid {}: OR of {} scoped words vs the unscoped engine",
                    seed, step, txn.tid.0, ways
                );
            }

            // Finish everything on the merged words so the next batch
            // starts from the same state everywhere.
            for (s, (shard, mut p)) in scoped.iter_mut().zip(prepared).enumerate() {
                for (i, &word) in merged.iter().enumerate() {
                    p.set_flag_word(i, word);
                }
                let owns_row = |t, k| part.owns_row(s as u32, t, k);
                let scope = ExecScope { remote: None, owns_row: &owns_row };
                shard.try_finish_batch(&batch, p, Some(&scope)).unwrap();
            }
            whole.try_finish_batch(&batch, whole_prepared, None).unwrap();
        }

        for (s, shard) in scoped.iter().enumerate() {
            prop_assert_eq!(
                shard.database().state_digest(),
                whole.database().partition_clone(part.slice_pred(s as u32)).state_digest(),
                "seed {}: slice {} of {} drifted from the whole database", seed, s, ways
            );
        }
    }
}
