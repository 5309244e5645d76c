//! Replication & failover acceptance suite.
//!
//! The headline claim of `ltpg-replica` (ISSUE 6): a 4-shard server with
//! a warm standby pool that loses a primary device mid-run must fail over
//! to a standby **within one batch boundary**, and the post-failover
//! commit stream, per-transaction conflict-flag words, and final state
//! digests must be bit-identical to a fault-free run — because standbys
//! replay the same deterministic commit stream the primaries executed,
//! promotion is just a pointer swap at an aligned batch id.
//!
//! The suite drives a partitioned YCSB stream through two topologies in
//! lockstep — the faulted 4-shard server and a fault-free single-device
//! [`LtpgServer`], the reference for history and flag words alike — and
//! also routes replicated chaos schedules through the `ltpg-qa`
//! differential runner.

use ltpg::{FaultHorizon, FaultPlan, LtpgConfig, LtpgServer, ReplicaChaos, ServerConfig};
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{ycsb_partitioner, ShardedServer};
use ltpg_telemetry::names;
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};

const BATCH: usize = 128;
const BATCHES: usize = 5;

/// A 4-shard-partitionable YCSB stream plus the two servers: the sharded
/// system under test and the fault-free single-device reference.
fn topologies(shards: u32) -> (ShardedServer, LtpgServer) {
    let cfg = YcsbConfig::new(YcsbWorkload::A, 2_048)
        .with_seed(0xfa11)
        .with_alpha(0.4)
        .with_partitions(shards, 20);
    let (db, table, mut gen) = YcsbGenerator::new(cfg.clone());
    let part = ycsb_partitioner(shards, table, &cfg);
    let scfg = ServerConfig { batch_size: BATCH, pipelined: false, ..ServerConfig::default() };
    let mut sharded =
        ShardedServer::new(db.deep_clone(), part, LtpgConfig::default(), scfg.clone());
    let mut single = LtpgServer::new(db, LtpgConfig::default(), scfg);
    let stream = gen.gen_batch(BATCH * BATCHES);
    sharded.submit_all(stream.iter().cloned());
    single.submit_all(stream);
    (sharded, single)
}

fn assert_slices_match(sharded: &ShardedServer, single: &LtpgServer) {
    let part = sharded.partitioner().clone();
    for s in 0..sharded.shard_count() {
        let reference = single.database().partition_clone(part.slice_pred(s));
        assert_eq!(
            sharded.database(s).state_digest(),
            reference.state_digest(),
            "shard {s} state diverged from the single-device slice"
        );
    }
}

/// What a finished run shows of itself: slice digests, work done, and
/// everything the standby pool published. Standby replay runs on worker
/// threads, so two runs of one schedule interleave differently; none of
/// this may differ between them.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    slice_digests: Vec<u64>,
    committed: u64,
    batches: u64,
    failovers: u64,
    standbys_alive: usize,
    /// promotions, demotions, repromotions, catch-up batches, heartbeat
    /// misses, then count and sum of the lag and failover histograms.
    replica_telemetry: [u64; 9],
}

fn observe(sharded: &ShardedServer) -> Observed {
    let reg = sharded.telemetry();
    let lag = reg.histogram(names::REPLICA_LAG_BATCHES).snapshot();
    let failover = reg.histogram(names::REPLICA_FAILOVER_NS).snapshot();
    Observed {
        slice_digests: (0..sharded.shard_count())
            .map(|s| sharded.database(s).state_digest())
            .collect(),
        committed: sharded.stats().committed,
        batches: sharded.stats().batches,
        failovers: sharded.stats().failovers,
        standbys_alive: sharded.standbys_alive(),
        replica_telemetry: [
            reg.counter_value(names::REPLICA_PROMOTIONS),
            reg.counter_value(names::REPLICA_DEMOTIONS),
            reg.counter_value(names::REPLICA_REPROMOTIONS),
            reg.counter_value(names::REPLICA_CATCHUP_BATCHES),
            reg.counter_value(names::REPLICA_HEARTBEAT_MISSES),
            lag.count,
            lag.sum,
            failover.count,
            failover.sum,
        ],
    }
}

/// The acceptance test: 4 shards, one warm standby row, shard 1's device
/// killed after two batches. Commit stream, conflict-flag words and
/// final state must all be bit-identical to the fault-free references,
/// the failover must complete within one batch boundary, and the
/// `REPLICA_*` telemetry must capture it.
#[test]
fn four_shard_failover_is_bit_identical_to_fault_free_run() {
    four_shard_failover();
}

fn four_shard_failover() -> Observed {
    let (mut sharded, mut single) = topologies(4);
    sharded.attach_replicas(&ReplicaConfig::default());

    let mut ticks = 0usize;
    let mut failed_at: Option<usize> = None;
    for tick in 0..60 * BATCHES {
        if tick == 2 {
            sharded.force_shard_failure(1);
            failed_at = Some(tick);
        }
        let a = sharded.tick();
        let b = single.tick();
        match (&a, &b) {
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.committed, sb.committed, "commit stream diverged at tick {tick}");
                assert_eq!(sa.aborted, sb.aborted, "abort stream diverged at tick {tick}");
                assert_eq!(
                    sa.flag_words, sb.flag_words,
                    "merged conflict-flag words diverged at tick {tick}"
                );
            }
            (None, None) => {}
            _ => panic!("topologies went idle at different ticks (tick {tick})"),
        }
        if let Some(f) = failed_at {
            if tick == f {
                // Within one batch boundary: the Dead heartbeat fences the
                // primary at the very next boundary, so by the end of the
                // tick after the loss the promotion has already happened.
                assert_eq!(
                    sharded.stats().failovers,
                    1,
                    "failover must complete within one batch boundary"
                );
            }
        }
        ticks = tick + 1;
        if a.is_none() && b.is_none() && sharded.pending() == 0 && single.pending() == 0 {
            break;
        }
    }
    assert!(ticks < 60 * BATCHES, "servers did not drain");
    assert!(sharded.stats().committed > 0);

    assert_slices_match(&sharded, &single);
    assert_eq!(sharded.stats().failovers, 1);
    assert_eq!(sharded.stats().degraded_shards, 0, "failover must not touch the CPU fallback");
    for s in 0..4 {
        assert!(!sharded.is_degraded(s));
    }

    let reg = sharded.telemetry();
    assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
    assert_eq!(reg.counter_value(names::REPLICA_DEMOTIONS), 0);
    assert!(reg.counter_value(names::REPLICA_CATCHUP_BATCHES) > 0);
    assert!(
        reg.histogram(names::REPLICA_FAILOVER_NS).snapshot().count >= 1,
        "failover latency must be recorded"
    );
    assert!(reg.histogram(names::REPLICA_LAG_BATCHES).snapshot().count > 0);
    // The workers time their own replay, once per batch they apply.
    assert_eq!(
        reg.histogram(names::REPLICA_REPLAY_HOST_NS).snapshot().count,
        reg.counter_value(names::REPLICA_CATCHUP_BATCHES),
        "replay host time must be recorded once per replayed batch"
    );
    assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 0, "the only row was promoted");
    observe(&sharded)
}

/// Replica chaos derived from sweep seeds (heartbeat drops, standby lag,
/// timed recovery) must never change the served history: every knob is
/// either absorbed or triggers a failover that replays the same stream.
#[test]
fn seeded_replica_chaos_is_invisible_to_the_history() {
    let exercised = seeded_chaos_sweep(usize::MAX).len();
    assert!(exercised >= 3, "the sweep must exercise several chaotic seeds, got {exercised}");
}

/// Run the chaotic seeds of the sweep, at most `limit` of them, each
/// against its fault-free reference.
fn seeded_chaos_sweep(limit: usize) -> Vec<Observed> {
    let mut exercised = Vec::new();
    for seed in 0..40u64 {
        if exercised.len() == limit {
            break;
        }
        let plan = FaultPlan::from_seed(seed, FaultHorizon::for_batches(BATCHES as u64));
        let chaos = plan.replica;
        if chaos.is_quiet() {
            continue;
        }
        // Promotion crashpoints model process death and are covered by
        // the crash-recovery sweep; here we keep the server alive.
        let chaos = ReplicaChaos { promotion_crash: None, ..chaos };
        let (mut sharded, mut single) = topologies(2);
        sharded.attach_replicas(&ReplicaConfig { standbys: 2, heartbeat_miss_threshold: 2 });
        sharded.arm_replica_chaos(chaos);
        for tick in 0..60 * BATCHES {
            let a = sharded.tick();
            let b = single.tick();
            match (&a, &b) {
                (Some(sa), Some(sb)) => {
                    assert_eq!(sa.committed, sb.committed, "seed {seed}: diverged at {tick}");
                    assert_eq!(sa.aborted, sb.aborted, "seed {seed}: diverged at {tick}");
                }
                (None, None) => {}
                _ => panic!("seed {seed}: idle skew at tick {tick}"),
            }
            if a.is_none() && b.is_none() && sharded.pending() == 0 && single.pending() == 0 {
                break;
            }
        }
        assert_slices_match(&sharded, &single);
        exercised.push(observe(&sharded));
    }
    exercised
}

/// The fixed-seed runs above, twenty times over: every digest and every
/// `replica.*` figure of run N equals run 0's. A debug build repeats the
/// first three chaotic seeds of the sweep, a release build all of them.
#[test]
fn replicated_runs_are_the_same_run_twenty_times() {
    let sweep = if cfg!(debug_assertions) { 3 } else { usize::MAX };
    let first = (four_shard_failover(), seeded_chaos_sweep(sweep));
    for run in 1..20 {
        let again = (four_shard_failover(), seeded_chaos_sweep(sweep));
        assert_eq!(again, first, "run {run} differs from run 0");
    }
}

/// Replicated chaos schedules route through the QA differential runner:
/// on 2 and 4 shards, {direct, front-end} ingress × {no plan, a cutover at
/// batch 1} × a shard kill before tick {0, 1, 2} × {0, 1} standby rows must
/// pass every differential assertion (engine vs the exact reference, lockstep, slice
/// digests, WAL replay, and the rival schedulers where the seed draws
/// them). The sweep holds a loss exactly at the cutover tick and a
/// failover under front-end ingress.
#[test]
fn qa_runner_accepts_replicated_chaos_schedules() {
    use ltpg_qa::{Cell, QaCase};
    let mut fired = [0u32; Cell::ALL.len()];
    for run in 0..48u32 {
        let (shards, standbys, combo) = ([2u32, 4][run as usize / 24], run / 12 % 2, run % 12);
        let (via_front, via_rebalance, tick) = (combo & 1 == 1, combo & 2 == 2, combo >> 2);
        // Each of the 12 generated schedules (seeds 100..112) meets four
        // layer combinations, one per (shards, standbys) block. Cut to three
        // batches of eight so every kill tick lands inside the schedule.
        let mut base = ltpg_qa::gen::generate(100 + u64::from((combo + 5 * (run / 12)) % 12));
        base.txns.truncate(24);
        let fail_shard = Some((1, tick));
        let case = QaCase { batch_size: 8, shards, via_front, via_rebalance, fail_shard, standbys, ..base };
        match ltpg_qa::run_case(&case) {
            Ok(outcome) => outcome.cells.iter().for_each(|&c| fired[c as usize] += 1),
            Err(d) => panic!("replicated chaos schedule diverged: {d}\n{}", ltpg_qa::repro::to_text(&case)),
        }
    }
    for cell in [Cell::Promotion, Cell::Degradation, Cell::LossAtCutover, Cell::LossUnderFront] {
        assert!(fired[cell as usize] > 0, "no case fired {cell:?}: {fired:?}");
    }
}

/// A standby row is shipped the log's bytes, damage included. A row held
/// three batches behind meets a frame corrupted inside the held window when
/// the primary's loss makes it catch up, and is demoted with that cause,
/// which the summary names. The rebuild that takes over then starts at the
/// checkpoint past the damage, so the fault-free history is still served.
#[test]
fn a_standby_catching_up_over_a_corrupt_frame_is_demoted_with_its_cause() {
    let cfg = YcsbConfig::new(YcsbWorkload::A, 2_048).with_seed(0xfa11).with_alpha(0.4);
    let (db, _table, mut gen) = YcsbGenerator::new(cfg);
    let scfg = ServerConfig {
        batch_size: BATCH,
        pipelined: false,
        checkpoint_every: Some(2),
        ..ServerConfig::default()
    };
    let stream = gen.gen_batch(BATCH * 2 * BATCHES);
    let mut reference = LtpgServer::new(db.deep_clone(), LtpgConfig::default(), scfg.clone());
    reference.submit_all(stream.iter().cloned());
    reference.drain(400);

    let mut server = LtpgServer::new(db, LtpgConfig::default(), scfg);
    ltpg_replica::attach(&mut server, &ReplicaConfig::default());
    server.arm_replica_chaos(ReplicaChaos { standby_lag: Some((0, 3)), ..ReplicaChaos::none() });
    server.submit_all(stream);
    while server.stats().batches < 4 {
        server.tick().expect("work is queued");
    }
    // Batches 0..4 are logged and checkpointed; the held row was shipped
    // batch 0 alone, so frame 2 lies inside its window.
    assert_eq!(server.durability().checkpoint_batch(), 4);
    assert!(server.durability_mut().log_mut().corrupt_frame(2, 0x10));
    server.force_device_failure();
    server.drain(400);

    assert!(server.is_degraded(), "the only row was demoted, so the CPU fallback took over");
    assert_eq!(server.database().state_digest(), reference.database().state_digest());
    let reg = server.telemetry();
    assert_eq!(reg.counter_value(names::REPLICA_DEMOTIONS), 1);
    assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 0);
    let summary = server.summary();
    let demoted = summary
        .lines()
        .find(|line| line.starts_with("standby demoted"))
        .unwrap_or_else(|| panic!("no demotion in the summary:\n{summary}"));
    assert!(
        demoted.contains("row 0 at batch 2: corrupt WAL record: frame 2 at byte ")
            && demoted.contains("checksum mismatch"),
        "{demoted}"
    );
}

/// A held standby keeps its frames. The log retires below the checkpoint
/// lowered to the slowest alive row's cursor, so a row held five batches —
/// more than two checkpoint periods — behind keeps the frames it still
/// needs across every checkpoint of the hold. Released, it is shipped to
/// the tail and the next checkpoint retires what it had held back. Held
/// again and promoted, it catches up over retained frames only: no
/// `WalGap` demotion, and tick for tick the reference history.
#[test]
fn a_held_standby_keeps_its_frames_and_is_promoted_without_a_gap() {
    const HOLD: u64 = 5;
    let cfg = YcsbConfig::new(YcsbWorkload::A, 2_048).with_seed(0xfa11).with_alpha(0.4);
    let (db, _table, mut gen) = YcsbGenerator::new(cfg);
    let scfg = ServerConfig {
        batch_size: BATCH,
        pipelined: false,
        checkpoint_every: Some(2),
        ..ServerConfig::default()
    };
    let mut reference = LtpgServer::new(db.deep_clone(), LtpgConfig::default(), scfg.clone());
    let mut server = LtpgServer::new(db, LtpgConfig::default(), scfg);
    ltpg_replica::attach(&mut server, &ReplicaConfig::default());
    let hold = |batches| ReplicaChaos { standby_lag: Some((0, batches)), ..ReplicaChaos::none() };
    server.arm_replica_chaos(hold(HOLD));
    let stream = gen.gen_batch(BATCH * 30);
    reference.submit_all(stream.iter().cloned());
    server.submit_all(stream);
    let mut tick = |server: &mut LtpgServer, tick: u64| {
        let (a, b) = (server.tick().expect("work is queued"), reference.tick().expect("work is queued"));
        assert_eq!((&a.committed, &a.aborted), (&b.committed, &b.aborted), "tick {tick}");
        assert_eq!(a.flag_words, b.flag_words, "tick {tick}");
    };
    // Five checkpoints (batches 2..=10) with the row held behind each.
    for t in 0..10 {
        tick(&mut server, t);
        let dur = server.durability();
        let (logged, checkpoint) = (dur.logged_batches() as u64, dur.checkpoint_batch());
        if logged == checkpoint && checkpoint > HOLD {
            assert_eq!(dur.log().first_retained() as u64, checkpoint - HOLD, "batch {logged}");
        }
        let first = dur.log().first_retained();
        assert!((first..logged as usize).all(|i| dur.log().frame(i).is_some()));
    }
    // Released: shipped to the tail, then retired past at the checkpoint.
    server.arm_replica_chaos(hold(0));
    for t in 10..12 {
        tick(&mut server, t);
    }
    let dur = server.durability();
    assert_eq!((dur.checkpoint_batch(), dur.log().first_retained()), (12, 12));
    assert_eq!(dur.log().disk_len(), 0, "nothing is held back any more");
    // Held again over three checkpoints, then promoted.
    server.arm_replica_chaos(hold(HOLD));
    for t in 12..18 {
        tick(&mut server, t);
    }
    assert_eq!(server.durability().log().first_retained(), 18 - HOLD as usize);
    server.force_device_failure();
    for t in 18..24 {
        tick(&mut server, t);
    }
    let reg = server.telemetry();
    assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
    assert_eq!(reg.counter_value(names::REPLICA_DEMOTIONS), 0, "{}", server.summary());
    assert!(!server.is_degraded(), "the held row took over");
    assert_eq!(server.database().state_digest(), reference.database().state_digest());
}
