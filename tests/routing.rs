//! Routing equivalence: the allocation-free router against the one it
//! replaced.
//!
//! `Router::route` folds home shards as the declaration pass visits each
//! constant-folded access, and `declared_accesses` collects the same
//! visits into vectors. Both must give exactly what they gave when routing
//! first built the four declared-access vectors and then sorted a
//! participant list. The two reference functions below are that earlier
//! code, kept verbatim apart from names: every input here is routed and
//! declared both ways and must agree, order included — QA-generated cases
//! of both op mixes (every op kind, replicated tables, colliding inserts,
//! deletes, marker reads), TPC-C's full mix under its warehouse
//! partitioner, partitioned YCSB-A at 0 / 10 / 100 % cross-shard, and
//! transactions keyed by a read register.

use ltpg_qa::gen::{generate_mix, OpMix};
use ltpg_shard::{tpcc_partitioner, ycsb_partitioner, Partitioner, Route, Router, TableRule};
use ltpg_storage::{membership_partition, ColId, TableId, MEMBERSHIP_PARTITION_SHIFT};
use ltpg_txn::{declared_accesses, Batch, DeclaredAccess, IrOp, ProcId, Src, TidGen, Txn};
use ltpg_workloads::{TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbWorkload};

fn push_unique(v: &mut Vec<(TableId, i64)>, item: (TableId, i64)) {
    if !v.contains(&item) {
        v.push(item);
    }
}

/// The declaration pass as four vectors built directly from the op list.
fn reference_declared(txn: &Txn) -> Option<DeclaredAccess> {
    let mut regs: Vec<Option<i64>> = vec![None; txn.reg_count()];
    let fold = |s: Src, regs: &[Option<i64>]| -> Option<i64> {
        match s {
            Src::Const(v) => Some(v),
            Src::Param(p) => txn.params.get(usize::from(p)).copied(),
            Src::Reg(r) => regs[usize::from(r)],
            Src::Tid => Some(txn.tid.0 as i64),
        }
    };
    let mut acc = DeclaredAccess::default();
    for op in &txn.ops {
        match op {
            IrOp::Read { table, key, out, .. } => {
                let k = fold(*key, &regs)?;
                push_unique(&mut acc.reads, (*table, k));
                regs[usize::from(*out)] = None;
            }
            IrOp::Update { table, key, .. } | IrOp::Add { table, key, .. } => {
                let k = fold(*key, &regs)?;
                push_unique(&mut acc.writes, (*table, k));
            }
            IrOp::Insert { table, key, .. } => {
                let k = fold(*key, &regs)?;
                push_unique(&mut acc.inserts, (*table, k));
            }
            IrOp::Delete { table, key } => {
                let k = fold(*key, &regs)?;
                push_unique(&mut acc.writes, (*table, k));
                push_unique(&mut acc.deletes, (*table, k));
            }
            IrOp::Compute { f, a, b, out } => {
                let av = fold(*a, &regs);
                let bv = fold(*b, &regs);
                regs[usize::from(*out)] = match (av, bv) {
                    (Some(x), Some(y)) => Some(f.apply(x, y)),
                    _ => None,
                };
            }
            IrOp::ScanSum { table, start, count, out, .. } => {
                let s = fold(*start, &regs)?;
                for i in 0..i64::from(*count) {
                    push_unique(&mut acc.reads, (*table, s + i));
                }
                regs[usize::from(*out)] = None;
            }
            IrOp::RangeSum { .. } | IrOp::RangeMinKey { .. } | IrOp::RangeCountBelow { .. } => {
                return None;
            }
        }
    }
    Some(acc)
}

/// Routing as a sorted, deduplicated list of the declared sets' shards.
fn reference_route(part: &Partitioner, txn: &Txn) -> Route {
    let Some(acc) = reference_declared(txn) else {
        return Route::Broadcast;
    };
    let n = part.shards();
    let mut parts: Vec<u32> = Vec::new();
    for &(t, k) in &acc.reads {
        if part.is_replicated(t) {
            continue;
        }
        match membership_partition(k) {
            Some(p) => parts.push(part.membership_owner(t, p)),
            None => parts.push(part.home(t, k)),
        }
    }
    for (t, k) in acc.all_writes() {
        if part.is_replicated(t) {
            return Route::Broadcast;
        }
        parts.push(part.home(t, k));
    }
    for &(t, k) in acc.inserts.iter().chain(acc.deletes.iter()) {
        if !part.is_replicated(t) {
            parts.push(part.membership_owner(t, k >> MEMBERSHIP_PARTITION_SHIFT));
        }
    }
    parts.sort_unstable();
    parts.dedup();
    match parts.len() {
        0 => Route::Single(0),
        1 => Route::Single(parts[0]),
        l if l == n as usize => Route::Broadcast,
        _ => Route::Multi(parts),
    }
}

/// How many of each route class a set of transactions produced.
#[derive(Debug, Default, PartialEq)]
struct Classes {
    single: usize,
    multi: usize,
    broadcast: usize,
}

/// Route and declare every transaction both ways, assert they agree, and
/// count the route classes.
fn assert_equivalent<'a>(part: &Partitioner, txns: impl IntoIterator<Item = &'a Txn>) -> Classes {
    let router = Router::new(part.clone());
    let mut classes = Classes::default();
    for txn in txns {
        assert_eq!(declared_accesses(txn), reference_declared(txn), "declared sets of {txn:?}");
        let route = router.route(txn);
        assert_eq!(route, reference_route(part, txn), "route of {txn:?}");
        match route {
            Route::Single(_) => classes.single += 1,
            Route::Multi(_) => classes.multi += 1,
            Route::Broadcast => classes.broadcast += 1,
        }
    }
    classes
}

/// TIDs assigned as the server assigns them, so `Src::Tid` keys fold to
/// the values they take in a real batch.
fn with_tids(txns: Vec<Txn>) -> Vec<Txn> {
    Batch::assemble(Vec::new(), txns, &mut TidGen::new()).txns
}

#[test]
fn qa_cases_of_both_mixes_route_as_before() {
    for (mix, name) in [(OpMix::BROAD, "broad"), (OpMix::MARKER_HEAVY, "marker-heavy")] {
        let mut total = Classes::default();
        for seed in 0..400 {
            let case = generate_mix(seed, &mix);
            let txns = with_tids(case.txns.clone());
            // The case's own shard count, and four shards over its rules.
            let four = (0..case.tables.len()).fold(Partitioner::new(4, TableRule::Hash), |p, t| {
                p.with_rule(TableId(t as u16), case.partitioner().table_rule(TableId(t as u16)).clone())
            });
            for part in [case.partitioner(), four] {
                let c = assert_equivalent(&part, &txns);
                total.single += c.single;
                total.multi += c.multi;
                total.broadcast += c.broadcast;
            }
        }
        assert!(
            total.single > 0 && total.multi > 0 && total.broadcast > 0,
            "{name}: every route class must be exercised: {total:?}"
        );
    }
}

#[test]
fn tpcc_full_mix_routes_as_before() {
    let cfg = TpccConfig::new(8, 45).with_full_mix().with_headroom(1 << 14).with_seed(0x5eed);
    let (_, tables, mut gen) = TpccGenerator::new(cfg);
    let txns = with_tids(gen.gen_batch(2_000));
    let classes = assert_equivalent(&tpcc_partitioner(4, &tables), &txns);
    assert!(
        classes.single > 0 && classes.multi > 0 && classes.broadcast > 0,
        "the full mix holds local, cross-warehouse and undeclarable transactions: {classes:?}"
    );
    // ITEM is replicated: reading it is free, writing it reaches every copy.
    let write_item = Txn::new(
        ProcId(9),
        vec![],
        vec![IrOp::Update { table: tables.item, key: Src::Const(7), col: ColId(0), val: Src::Const(1) }],
    );
    let classes = assert_equivalent(&tpcc_partitioner(4, &tables), [&write_item]);
    assert_eq!(classes.broadcast, 1);
    // A delete with a declarable key goes to the row's home and to the
    // owner of its membership partition: warehouse 5 lives on shard 1, the
    // partition of every small key on shard 0.
    let delete =
        Txn::new(ProcId(9), vec![], vec![IrOp::Delete { table: tables.warehouse, key: Src::Const(5) }]);
    assert_eq!(assert_equivalent(&tpcc_partitioner(4, &tables), [&delete]).multi, 1);
}

#[test]
fn partitioned_ycsb_a_routes_as_before() {
    for (cross_pct, expect_single) in [(0, true), (10, false), (100, false)] {
        let cfg = YcsbConfig::new(YcsbWorkload::A, 65_536)
            .with_seed(0x40c7)
            .with_alpha(0.8)
            .with_partitions(4, cross_pct);
        let (_, table, mut gen) = YcsbGenerator::new(cfg.clone());
        let txns = with_tids(gen.gen_batch(2_048));
        let classes = assert_equivalent(&ycsb_partitioner(4, table, &cfg), &txns);
        assert_eq!(classes.single == txns.len(), expect_single, "{cross_pct}%: {classes:?}");
        assert_eq!(classes.broadcast, 0, "{cross_pct}%: YCSB-A touches no replicated table");
    }
}

#[test]
fn register_keyed_transactions_broadcast_as_before() {
    let t = TableId(0);
    let part = Partitioner::new(4, TableRule::Stride { stride: 1 });
    let read = |key, out| IrOp::Read { table: t, key, col: ColId(0), out };
    let txns = [
        // A key read from a register is a predicate, not a list.
        vec![read(Src::Const(1), 0), IrOp::Update { table: t, key: Src::Reg(0), col: ColId(0), val: Src::Const(9) }],
        vec![read(Src::Const(2), 3), read(Src::Reg(3), 4)],
        vec![read(Src::Const(2), 1), IrOp::Delete { table: t, key: Src::Reg(1) }],
        // A register a compute made static again is a constant key.
        vec![
            read(Src::Const(2), 1),
            IrOp::Compute { f: ltpg_txn::ComputeFn::Add, a: Src::Param(0), b: Src::Tid, out: 1 },
            IrOp::Insert { table: t, key: Src::Reg(1), values: vec![Src::Const(0)] },
        ],
    ]
    .map(|ops| Txn::new(ProcId(0), vec![40], ops));
    let txns = with_tids(txns.to_vec());
    let classes = assert_equivalent(&part, &txns);
    assert_eq!(classes, Classes { single: 0, multi: 1, broadcast: 3 });
}
