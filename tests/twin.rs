//! The CPU twin under ownership splits: for any way of partitioning a
//! database's cells across 2–4 scoped twins, the bitwise OR of their
//! per-transaction conflict-flag words equals the word the unscoped twin
//! derives over the whole database — and the word the GPU engine derives —
//! transaction by transaction, batch after batch. This is the exactness
//! argument behind cross-shard flag merging (DESIGN.md, "Sharded
//! execution"), checked directly on the words rather than through commit
//! sets.

use ltpg::{CpuTwin, ExecScope, LtpgEngine};
use ltpg_qa::gen::{generate_mix, OpMix};
use ltpg_shard::RemoteView;
use ltpg_storage::Database;
use ltpg_txn::{Batch, BatchEngine, TidGen};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn scoped_twin_words_or_to_the_unscoped_and_engine_words(
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
        case.shards = ways;
        let part = case.partitioner();
        let cfg = case.engine_config();
        let db = case.build_database();

        let mut scoped: Vec<CpuTwin> = (0..ways)
            .map(|s| CpuTwin::new(db.partition_clone(part.slice_pred(s)), cfg.clone()))
            .collect();
        let mut whole = CpuTwin::new(db.deep_clone(), cfg.clone());
        let mut engine = LtpgEngine::with_telemetry(db, cfg, ltpg_telemetry::Registry::new_shared());

        let mut tids = TidGen::new();
        for (step, chunk) in case.batches().enumerate() {
            let batch = Batch::assemble(Vec::new(), chunk.to_vec(), &mut tids);
            // Every twin executes the whole batch, registering and
            // detecting only the cells it owns.
            let mut prepared = Vec::new();
            for s in 0..ways as usize {
                let (before, rest) = scoped.split_at_mut(s);
                let (twin, after) = rest.split_first_mut().unwrap();
                let dbs: Vec<Option<&Database>> = before
                    .iter()
                    .map(|t| Some(t.database()))
                    .chain([None])
                    .chain(after.iter().map(|t| Some(t.database())))
                    .collect();
                let view = RemoteView::new(&part, dbs);
                let owns_row = |t, k| part.owns_row(s as u32, t, k);
                let scope = ExecScope { remote: Some(&view), owns_row: &owns_row };
                prepared.push(twin.prepare(&batch, Some(&scope)));
            }
            let whole_prepared = whole.prepare(&batch, None);
            let engine_prepared = engine.try_prepare_batch(&batch, None).unwrap();

            let merged: Vec<u32> = (0..batch.len())
                .map(|i| prepared.iter().fold(0, |word, p| word | p.flag_word(i)))
                .collect();
            for (i, txn) in batch.txns.iter().enumerate() {
                prop_assert_eq!(
                    merged[i], whole_prepared.flag_word(i),
                    "seed {} batch {} tid {}: OR of {} scoped words vs unscoped twin",
                    seed, step, txn.tid.0, ways
                );
                prop_assert_eq!(
                    merged[i], engine_prepared.flag_word(i),
                    "seed {} batch {} tid {}: OR of {} scoped words vs GPU engine",
                    seed, step, txn.tid.0, ways
                );
            }

            // Finish everything on the merged words so the next batch
            // starts from the same state everywhere.
            for (s, (twin, mut p)) in scoped.iter_mut().zip(prepared).enumerate() {
                for (i, &word) in merged.iter().enumerate() {
                    p.set_flag_word(i, word);
                }
                let owns_row = |t, k| part.owns_row(s as u32, t, k);
                let scope = ExecScope { remote: None, owns_row: &owns_row };
                twin.finish(&batch, p, Some(&scope));
            }
            whole.finish(&batch, whole_prepared, None);
            engine.try_finish_batch(&batch, engine_prepared, None).unwrap();
        }

        prop_assert_eq!(whole.database().state_digest(), engine.database().state_digest());
        for (s, twin) in scoped.iter().enumerate() {
            prop_assert_eq!(
                twin.database().state_digest(),
                whole.database().partition_clone(part.slice_pred(s as u32)).state_digest(),
                "seed {}: slice {} of {} drifted from the whole database", seed, s, ways
            );
        }
    }
}
