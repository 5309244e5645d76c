//! Tests of batch-to-batch pipelining (§V-E) through `drive_stream`:
//! aborts re-enter with their original TIDs one batch later, or two when
//! pipelined, and the overlap is a `Pipeline` over `LtpgBatchStats::stages`.

mod tests {
    use ltpg_gpu_sim::Pipeline;
    use ltpg_storage::{ColId, Database, TableBuilder};
    use ltpg_txn::{IrOp, ProcId, Src, Tid, Txn};

    use crate::config::LtpgConfig;
    use crate::engine::LtpgEngine;
    use crate::intake::{drive_stream, StreamOutcome};

    /// An engine over 8 rows and a generator of blind writers of key
    /// `i % 8`: heavy WAW contention, so every batch of more than 8 aborts.
    fn contended() -> (LtpgEngine, impl FnMut(usize) -> Vec<Txn>) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").column("v").capacity(64).build());
        for k in 0..8 {
            db.table_mut(t).insert(k, &[0]).unwrap();
        }
        let mut i = 0i64;
        let gen = move |n: usize| {
            (0..n)
                .map(|_| {
                    i += 1;
                    let op =
                        IrOp::Update { table: t, key: Src::Const(i % 8), col: ColId(0), val: Src::Const(i) };
                    Txn::new(ProcId(0), vec![], vec![op])
                })
                .collect()
        };
        (LtpgEngine::new(db, LtpgConfig::default()), gen)
    }

    #[derive(Debug, Clone, Copy)]
    enum Arrivals {
        /// Exactly the seats asked for.
        Steady,
        /// 2.5 batches' worth of writers whenever any seat is asked for.
        Bursty,
        /// Two batches' worth, then nothing.
        Dry,
    }

    struct Run {
        out: StreamOutcome,
        /// Per executed batch: its TIDs and its aborted TIDs.
        ran: Vec<(Vec<Tid>, Vec<Tid>)>,
        pipe: Pipeline,
        mean_commit_rate: f64,
        /// Aborts of the last `delay` batches: their re-entry slot lies
        /// past the end of the run.
        tail_aborts: u64,
    }

    /// Drive `rounds` rounds of the contended stream and check what every
    /// run keeps: one report per executed batch, no batch past the batch
    /// size, conservation (`committed + still_pending + dropped ==
    /// admitted`), and the re-entry wave of batch j being exactly batch
    /// j − delay's aborts under their original TIDs (executed batches are
    /// rounds here: every round has fresh or due work).
    fn stream(arrivals: Arrivals, rounds: usize, batch_size: usize, pipelined: bool) -> Run {
        let case = format!("{arrivals:?}, {rounds} rounds of {batch_size}, pipelined {pipelined}");
        let (mut engine, mut gen_one) = contended();
        let mut calls = 0usize;
        let gen = |n: usize| {
            calls += 1;
            match arrivals {
                Arrivals::Steady => gen_one(n),
                Arrivals::Bursty if n > 0 => gen_one(batch_size * 5 / 2),
                Arrivals::Dry if calls == 1 => gen_one(2 * batch_size),
                _ => Vec::new(),
            }
        };
        let mut ran: Vec<(Vec<Tid>, Vec<Tid>)> = Vec::new();
        let mut pipe = Pipeline::new();
        let mut rate = 0.0;
        let out = drive_stream(gen, rounds, batch_size, pipelined, |batch| {
            let rws = engine.execute_batch_report(batch);
            pipe.push(rws.stats.stages());
            rate += rws.report.commit_rate(batch.len());
            ran.push((batch.txns.iter().map(|t| t.tid).collect(), rws.report.aborted.clone()));
            rws.report
        });
        assert_eq!(out.batches, ran.len(), "{case}");
        assert!(out.max_batch_len <= batch_size, "{case}: overfilled to {}", out.max_batch_len);
        assert_eq!(
            out.committed + out.still_pending as u64 + out.dropped,
            out.admitted,
            "{case}: the run lost transactions: {out:?}"
        );
        let delay = if pipelined { 2 } else { 1 };
        for (j, (tids, _)) in ran.iter().enumerate() {
            let seen: Vec<Tid> = ran[..j].iter().flat_map(|(t, _)| t).copied().collect();
            let again: Vec<Tid> = tids.iter().filter(|t| seen.contains(t)).copied().collect();
            let due = if j >= delay { ran[j - delay].1.clone() } else { Vec::new() };
            assert_eq!(again, due, "{case}: batch {j}'s re-entry wave");
        }
        let tail_aborts = ran.iter().rev().take(delay).map(|(_, a)| a.len() as u64).sum();
        Run { mean_commit_rate: rate / out.batches.max(1) as f64, out, ran, pipe, tail_aborts }
    }

    #[test]
    fn aborts_reenter_after_two_batches_and_eventually_commit() {
        let run = stream(Arrivals::Steady, 12, 32, true);
        let out = &run.out;
        assert_eq!(out.batches, 12);
        assert!(out.abort_events > 0, "contention must cause aborts");
        assert!(out.committed > 0);
        // Every batch can commit at most 8 txns (8 keys): rate well below 1.
        assert!(run.mean_commit_rate < 0.7, "{}", run.mean_commit_rate);
        assert!(run.pipe.speedup() >= 1.0);
        assert!(run.pipe.overlapped_makespan_ns() <= run.pipe.serial_makespan_ns());
    }

    #[test]
    fn non_pipelined_requeues_next_batch() {
        let run = stream(Arrivals::Steady, 6, 16, false);
        assert!(run.out.committed > 0);
        // `stream` checked that batch 1's re-entry wave is batch 0's aborts.
        assert!(!run.ran[0].1.is_empty(), "batch 0 must abort for the check to bite");
    }

    #[test]
    fn conserves_transactions() {
        for pipelined in [false, true] {
            // `stream` asserts exact conservation: every admitted
            // transaction committed, is still waiting out its delay, or
            // was aborted too close to the end to re-enter (dropped).
            let out = stream(Arrivals::Steady, 10, 16, pipelined).out;
            assert!(out.abort_events > 0 && out.committed > 0, "{out:?}");
            assert!(out.admitted <= 10 * 16, "{out:?}");
        }
    }

    #[test]
    fn dropped_counts_tail_aborts() {
        for pipelined in [false, true] {
            // Every batch aborts most of its 16 writers over 8 keys: the
            // last `delay` batches' aborts cannot re-enter.
            let run = stream(Arrivals::Steady, 6, 16, pipelined);
            assert!(run.out.dropped > 0, "tail aborts must be reported as dropped: {:?}", run.out);
            assert_eq!(run.out.dropped, run.tail_aborts, "pipelined {pipelined}");
        }
    }

    #[test]
    fn bursty_generator_never_overfills_a_batch() {
        const BATCH: usize = 16;
        for pipelined in [false, true] {
            // Every request is answered with 2.5 batches' worth of
            // conflicting writers: abort storms bigger than one batch, and
            // a surplus that must wait in the inbox.
            let run = stream(Arrivals::Bursty, 8, BATCH, pipelined);
            let out = &run.out;
            assert!(out.max_batch_len <= BATCH, "overfilled past lane capacity: {}", out.max_batch_len);
            assert!(out.abort_events > 0, "storm must cause aborts");
            assert_eq!(out.batches, 8);
            assert_eq!(out.dropped, run.tail_aborts);
        }
    }

    #[test]
    fn a_dry_generator_executes_only_the_batches_that_had_work() {
        const BATCH: usize = 16;
        for pipelined in [false, true] {
            // 32 writers over 8 keys drain in a few waves, well inside the
            // run, so nothing is dropped and the idle rounds run nothing.
            let out = stream(Arrivals::Dry, 10, BATCH, pipelined).out;
            assert!(out.batches < 10, "{out:?}");
            assert_eq!(out.admitted, 2 * BATCH as u64);
            assert_eq!(out.dropped, 0, "{out:?}");
            assert_eq!(out.still_pending, 0, "{out:?}");
        }
    }
}
