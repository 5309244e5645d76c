//! The seeded case generator.
//!
//! Everything a case contains — schema shape, initial rows, transaction
//! schedule, and each layer of the stack it runs on — is derived from one
//! `u64` seed, so a seed is a complete, replayable description of a case.
//! Each layer draws from its own `StdRng`, keyed by the seed and the
//! layer's tag (`stream`): adding, dropping or re-tuning one layer never
//! moves another's draws. Coverage is deliberately broad and adversarial:
//!
//! * 1–3 tables, 1–3 columns, optionally carrying an ordered index, with
//!   per-table shard rules (hash / stride / replicated, i.e. broadcast
//!   writes);
//! * YCSB-fragment point ops (Zipfian keys, including the α just above 1
//!   regime), TPC-C-fragment read-modify-write chains and TID-keyed
//!   inserts, plus deletes and duplicate-prone inserts for phantom and
//!   user-abort coverage, and range scans against ordered tables;
//! * batch sizes small enough that schedules span many batches, 1/2/4
//!   shards, pipelined re-execution (re-entry delay 2), checkpoint
//!   cadences, mid-run shard loss, standby rows, front-end ingress, a
//!   rebalance cutover, two host threads (on batches of two or three
//!   warps), and a commutative
//!   (delayed-merge) column in one fifth of the cases.

use ltpg_storage::{ColId, TableId};
use ltpg_txn::{ComputeFn, IrOp, ProcId, Src, Txn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{QaCase, ShardRule, TableSpec};

/// Shape of one table while the schedule is being generated (capacity is
/// finalized afterwards, once the insert count is known).
struct TableShape {
    cols: u16,
    rows: i64,
    ordered: bool,
    rule: ShardRule,
    inserts: usize,
}

/// How a schedule's operations are drawn. [`OpMix::BROAD`] is what
/// [`generate`] draws from.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Probability that a table carries an ordered index (ordered scans
    /// run only against those).
    ordered: f64,
    /// Probability that an insert is TID-keyed (always fresh) rather than
    /// a constant key that may collide.
    fresh_insert: f64,
    /// Upper bounds, in percent, of the draws that become a read, update,
    /// add, insert, delete, compute and emulated scan; the rest are
    /// ordered range scans.
    cuts: [u32; 7],
}

impl OpMix {
    /// The broad mix every QA case has always been drawn from.
    pub const BROAD: OpMix =
        OpMix { ordered: 0.3, fresh_insert: 0.6, cuts: [30, 50, 65, 75, 82, 90, 95] };
    /// Mostly deletes, colliding inserts and ordered scans over ordered
    /// tables: the operations that read and write membership markers, whose
    /// owner need not be the owner of any row they guard.
    pub const MARKER_HEAVY: OpMix =
        OpMix { ordered: 0.9, fresh_insert: 0.3, cuts: [15, 25, 30, 50, 70, 72, 75] };
}

/// Generate the case for `seed` from the broad mix.
pub fn generate(seed: u64) -> QaCase {
    generate_mix(seed, &OpMix::BROAD)
}

/// Layer `tag`'s own draw stream for `seed`: the seed, decorrelated from
/// its neighbours, mixed with an FNV-1a hash of the tag.
fn stream(seed: u64, tag: &str) -> StdRng {
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    let tag = tag.bytes().fold(0xCBF2_9CE4_8422_2325, fnv);
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed ^ tag)
}

/// Generate the case for `seed` from `mix` (which shapes only the schedule).
pub fn generate_mix(seed: u64, mix: &OpMix) -> QaCase {
    let mut rng = stream(seed, "workload");
    let ntables = rng.gen_range(1..=3usize);
    let mut shapes: Vec<TableShape> = (0..ntables)
        .map(|_| TableShape {
            cols: rng.gen_range(1..=3u16),
            rows: [8i64, 16, 32][rng.gen_range(0..3usize)],
            ordered: rng.gen_bool(mix.ordered),
            rule: match rng.gen_range(0..10u32) {
                0..=4 => ShardRule::Hash,
                5..=7 => ShardRule::Stride([1i64, 2, 8][rng.gen_range(0..3usize)]),
                _ => ShardRule::Replicated,
            },
            inserts: 0,
        })
        .collect();

    // One Zipf exponent per case; 1.01 deliberately sits in the regime the
    // sampler used to degenerate in.
    let alpha = [0.0f64, 0.8, 1.01, 2.5][rng.gen_range(0..4usize)];
    let ntxns = rng.gen_range(8..=80usize);
    let mut txns = Vec::with_capacity(ntxns);
    for _ in 0..ntxns {
        txns.push(gen_txn(&mut rng, &mut shapes, alpha, mix));
    }
    // Two host threads only act past one warp: a one-warp launch spawns no
    // helper, and a helper claims lanes half a warp past the launching
    // thread's warp. So that layer adds transactions from its own stream and
    // draws batches of two or three warps.
    let mut threads = stream(seed, "host_threads");
    let host_threads = if threads.gen_bool(0.3) { 2 } else { 1 };
    if host_threads > 1 {
        for _ in 0..threads.gen_range(128..=192usize) {
            txns.push(gen_txn(&mut threads, &mut shapes, alpha, mix));
        }
    }

    let tables = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut rows = Vec::with_capacity(s.rows as usize);
            for k in 0..s.rows {
                let vals: Vec<i64> =
                    (0..s.cols).map(|_| rng.gen_range(-100..100i64)).collect();
                rows.push((k, vals));
            }
            TableSpec {
                name: format!("T{i}"),
                cols: s.cols,
                capacity: s.rows as usize + s.inserts + 8,
                ordered: s.ordered,
                rule: s.rule,
                rows,
            }
        })
        .collect();

    let mut batching = stream(seed, "batching");
    let shards = [1u32, 2, 4][stream(seed, "shards").gen_range(0..3usize)];
    // A loss and a cutover need a second shard; the rebalance cutover and
    // a loss before tick 1 coincide.
    let mut fault = stream(seed, "fault");
    let fail_shard = (shards > 1 && fault.gen_bool(0.4))
        .then(|| (fault.gen_range(0..shards), fault.gen_range(0..3u32)));
    let mut standby = stream(seed, "standbys");
    let small_batch = [4usize, 8, 16, 32][batching.gen_range(0..4usize)];
    QaCase {
        seed,
        tables,
        txns,
        batch_size: if host_threads > 1 { [64, 96][threads.gen_range(0..2usize)] } else { small_batch },
        shards,
        pipelined: batching.gen_bool(0.5),
        checkpoint_every: stream(seed, "checkpoint").gen_bool(0.3).then_some(2),
        fail_shard,
        commutative_t0c0: stream(seed, "commutative").gen_bool(0.2),
        standbys: if standby.gen_bool(0.3) { standby.gen_range(1..=2u32) } else { 0 },
        via_front: stream(seed, "ingress").gen_bool(0.33),
        via_schedulers: stream(seed, "schedulers").gen_bool(0.5),
        via_rebalance: shards > 1 && stream(seed, "rebalance").gen_bool(0.5),
        host_threads,
    }
}

/// A Zipf-skewed key in `0 .. 2*rows` — half the domain is seeded, half is
/// initially absent, so reads miss, updates no-op, inserts create and
/// deletes erase.
fn key_for(rng: &mut StdRng, rows: i64, alpha: f64) -> i64 {
    let domain = (2 * rows) as u64;
    let z = ltpg_workloads::Zipf::new(domain, alpha);
    let rank = z.sample_scrambled(rng);
    (rank - 1) as i64
}

fn val_src(rng: &mut StdRng, params: usize, defined: &[u8]) -> Src {
    match rng.gen_range(0..10u32) {
        0..=5 => Src::Const(rng.gen_range(-50..50i64)),
        6..=7 if params > 0 => Src::Param(rng.gen_range(0..params) as u8),
        8 if !defined.is_empty() => Src::Reg(defined[rng.gen_range(0..defined.len())]),
        _ => Src::Const(rng.gen_range(-50..50i64)),
    }
}

fn gen_txn(rng: &mut StdRng, shapes: &mut [TableShape], alpha: f64, mix: &OpMix) -> Txn {
    let params: Vec<i64> =
        (0..rng.gen_range(0..=2usize)).map(|_| rng.gen_range(0..16i64)).collect();
    let nops = rng.gen_range(1..=6usize);
    let mut ops = Vec::with_capacity(nops + 1);
    let mut defined: Vec<u8> = Vec::new();
    for _ in 0..nops {
        let ti = rng.gen_range(0..shapes.len());
        let t = TableId(ti as u16);
        let shape = &shapes[ti];
        let col = ColId(rng.gen_range(0..shape.cols));
        let key = Src::Const(key_for(rng, shape.rows, alpha));
        let rows = shape.rows;
        let ordered = shape.ordered;
        let draw = rng.gen_range(0..100u32);
        let op = match mix.cuts.iter().position(|&cut| draw < cut) {
            // Point read into a register.
            Some(0) => {
                let out = rng.gen_range(0..4u8);
                defined.push(out);
                IrOp::Read { table: t, key, col, out }
            }
            // Overwrite (sometimes with dataflow from an earlier read).
            Some(1) => IrOp::Update {
                table: t,
                key,
                col,
                val: val_src(rng, params.len(), &defined),
            },
            // Commutative read-modify-write.
            Some(2) => IrOp::Add {
                table: t,
                key,
                col,
                delta: val_src(rng, params.len(), &defined),
            },
            // Insert: TID-keyed (always fresh — the deterministic-database
            // idiom) or a constant key that may collide for user-abort and
            // phantom coverage.
            Some(3) => {
                shapes[ti].inserts += 1;
                let ikey = if rng.gen_bool(mix.fresh_insert) {
                    Src::Tid
                } else {
                    Src::Const(key_for(rng, rows, alpha))
                };
                let values: Vec<Src> = (0..shapes[ti].cols)
                    .map(|_| Src::Const(rng.gen_range(-50..50i64)))
                    .collect();
                IrOp::Insert { table: t, key: ikey, values }
            }
            // Delete (phantom coverage against scans and inserts).
            Some(4) => IrOp::Delete { table: t, key },
            // Pure compute over whatever registers exist.
            Some(5) => {
                let f = [ComputeFn::Add, ComputeFn::Sub, ComputeFn::Mul, ComputeFn::Min,
                    ComputeFn::Max][rng.gen_range(0..5usize)];
                let a = val_src(rng, params.len(), &defined);
                let b = val_src(rng, params.len(), &defined);
                let out = rng.gen_range(0..4u8);
                defined.push(out);
                IrOp::Compute { f, a, b, out }
            }
            // Emulated short scan (point-lookup based, any table).
            Some(6) => {
                let out = rng.gen_range(0..4u8);
                defined.push(out);
                IrOp::ScanSum {
                    table: t,
                    start: Src::Const(rng.gen_range(0..rows)),
                    count: rng.gen_range(1..=6u16),
                    col,
                    out,
                }
            }
            // True ordered range scans, only against ordered tables.
            _ => {
                let out = rng.gen_range(0..4u8);
                let lo = rng.gen_range(0..rows);
                let hi = lo + rng.gen_range(1..=8i64);
                defined.push(out);
                if ordered {
                    match rng.gen_range(0..3u32) {
                        0 => IrOp::RangeSum {
                            table: t,
                            lo: Src::Const(lo),
                            hi: Src::Const(hi),
                            col,
                            out,
                        },
                        1 => IrOp::RangeMinKey {
                            table: t,
                            lo: Src::Const(lo),
                            hi: Src::Const(hi),
                            out,
                        },
                        _ => IrOp::RangeCountBelow {
                            table: t,
                            lo: Src::Const(lo),
                            hi: Src::Const(hi),
                            col,
                            threshold: Src::Const(rng.gen_range(-20..20i64)),
                            out,
                        },
                    }
                } else {
                    IrOp::ScanSum {
                        table: t,
                        start: Src::Const(lo),
                        count: (hi - lo) as u16,
                        col,
                        out,
                    }
                }
            }
        };
        ops.push(op);
    }
    let txn = Txn::new(ProcId(rng.gen_range(0..4u16)), params, ops);
    debug_assert!(txn.validate().is_ok(), "generator produced invalid txn: {txn:?}");
    txn
}
