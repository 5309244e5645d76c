//! Cross-crate property tests on substrate invariants.

use ltpg::conflict::TableLog;
use ltpg_gpu_sim::{Device, DeviceConfig};
use ltpg_storage::{ColId, Database, TableBuilder};
use ltpg_txn::exec::execute_range_direct;
use ltpg_txn::{execute_serial, ComputeFn, IrOp, ProcId, Src, Tid, Txn};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Reference model for one epoch of a [`TableLog`]: exact minima, plus
/// which keys hold a bucket — with `buckets` of them taken, a key that
/// holds none cannot register.
struct LogModel {
    buckets: usize,
    owners: BTreeSet<i64>,
    read_min: BTreeMap<i64, u64>,
    write_min: BTreeMap<i64, u64>,
}

impl LogModel {
    fn new(buckets: usize) -> Self {
        LogModel {
            buckets,
            owners: BTreeSet::new(),
            read_min: BTreeMap::new(),
            write_min: BTreeMap::new(),
        }
    }

    /// Whether the registration lands (the log's `true`).
    fn register(&mut self, key: i64, tid: u64, is_write: bool) -> bool {
        if !self.owners.contains(&key) && self.owners.len() == self.buckets {
            return false;
        }
        self.owners.insert(key);
        let min = if is_write { &mut self.write_min } else { &mut self.read_min };
        min.entry(key).and_modify(|m| *m = (*m).min(tid)).or_insert(tid);
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The dynamic hash-bucket log never loses a registration and never
    /// invents one: over three consecutive epochs on one 16-bucket log —
    /// few keys that collide while probing, or more keys than buckets —
    /// `min_read`/`min_write` equal a reference map's minima for every
    /// key, and a registration returns `false` exactly when the model's
    /// buckets are exhausted, whatever the bucket size and probing mode.
    #[test]
    fn conflict_log_matches_reference_minima(
        epochs in proptest::collection::vec(
            proptest::collection::vec((0..40i64, 1..1_000u64, proptest::bool::ANY), 1..120),
            3..4,
        ),
        key_space in prop_oneof![Just(8i64), Just(40)],
        s_u in prop_oneof![Just(1usize), Just(32), Just(512)],
        ballot in proptest::bool::ANY,
    ) {
        // One host thread: lanes register in item order, as the model does.
        let device = Device::new(DeviceConfig::default());
        let mut log = TableLog::new(16, s_u);
        if ballot {
            log = log.with_ballot_probe(32);
        }
        for (e, ops) in epochs.iter().enumerate() {
            let epoch = e as u32 + 1;
            let ops: Vec<(i64, u64, bool)> =
                ops.iter().map(|&(k, tid, w)| (k % key_space, tid, w)).collect();
            let mut model = LogModel::new(log.bucket_count());
            let expected: Vec<bool> =
                ops.iter().map(|&(k, tid, w)| model.register(k, tid, w)).collect();
            let landed = parking_lot::Mutex::new(vec![false; ops.len()]);
            device.launch("register", &ops, |lane, &(key, tid, is_write)| {
                let ok = if is_write {
                    log.register_write(lane, key, tid, epoch)
                } else {
                    log.register_read(lane, key, tid, epoch)
                };
                landed.lock()[lane.global_id] = ok;
            });
            prop_assert_eq!(landed.into_inner(), expected, "exhaustion in epoch {}", epoch);
            let results = parking_lot::Mutex::new(Vec::new());
            device.launch_indexed("probe", 40, |lane| {
                let k = lane.global_id as i64;
                let mins = (log.min_read(lane, k, epoch), log.min_write(lane, k, epoch));
                results.lock().push((k, mins.0, mins.1));
            });
            for (k, r, w) in results.into_inner() {
                prop_assert_eq!(r, model.read_min.get(&k).copied(), "epoch {} read min, key {}", epoch, k);
                prop_assert_eq!(w, model.write_min.get(&k).copied(), "epoch {} write min, key {}", epoch, k);
            }
        }
    }

    /// Buffered execution (speculate, then apply) and direct execution
    /// (apply each op immediately) agree, for any single transaction, on
    /// the final table and on both registers — read-your-own-writes must
    /// behave identically. Six keys (four present at the start) against up
    /// to sixteen ops make one key meet update→delete→read,
    /// delete→insert→read and insert→delete→insert within a transaction.
    #[test]
    fn buffered_and_direct_execution_agree(
        ops in proptest::collection::vec(
            prop_oneof![
                (0..6i64, 0..2u16, 0..2u8).prop_map(|(k, c, out)| IrOp::Read {
                    table: ltpg_storage::TableId(0), key: Src::Const(k), col: ColId(c), out }),
                (0..6i64, 0..2u16, 0..2u8).prop_map(|(k, c, r)| IrOp::Update {
                    table: ltpg_storage::TableId(0), key: Src::Const(k), col: ColId(c), val: Src::Reg(r) }),
                (0..6i64, 0..2u16, -9..9i64).prop_map(|(k, c, d)| IrOp::Add {
                    table: ltpg_storage::TableId(0), key: Src::Const(k), col: ColId(c), delta: Src::Const(d) }),
                (0..6i64,).prop_map(|(k,)| IrOp::Delete {
                    table: ltpg_storage::TableId(0), key: Src::Const(k) }),
                (0..6i64, 0..2u8).prop_map(|(k, r)| IrOp::Insert {
                    table: ltpg_storage::TableId(0), key: Src::Const(k),
                    values: vec![Src::Const(100 + k), Src::Reg(r)] }),
                Just(IrOp::Compute { f: ComputeFn::Mul, a: Src::Reg(0), b: Src::Const(3), out: 1 }),
                (0..6i64,).prop_map(|(k,)| IrOp::ScanSum {
                    table: ltpg_storage::TableId(0), start: Src::Const(k), count: 4,
                    col: ColId(0), out: 0 }),
            ],
            1..16,
        )
    ) {
        let table = ltpg_storage::TableId(0);
        let sink = Src::Const(9);
        let build = || {
            let mut db = Database::new();
            let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(64).build());
            for k in [0, 1, 2, 3, 9] {
                db.table(t).insert(k, &[k, -k]).unwrap();
            }
            db
        };
        // Both registers are written first and stored last, in a row the
        // drawn ops cannot reach: the final registers are part of the
        // final table.
        let mut v = vec![
            IrOp::Read { table, key: Src::Const(0), col: ColId(0), out: 0 },
            IrOp::Read { table, key: Src::Const(1), col: ColId(1), out: 1 },
        ];
        v.extend(ops.clone());
        v.push(IrOp::Update { table, key: sink, col: ColId(0), val: Src::Reg(0) });
        v.push(IrOp::Update { table, key: sink, col: ColId(1), val: Src::Reg(1) });
        let mut txn = Txn::new(ProcId(0), vec![], v);
        txn.tid = Tid(1);
        let a = build();
        let buffered = execute_serial(&a, &txn);
        let b = build();
        let mut regs = vec![0i64; txn.reg_count()];
        let direct = execute_range_direct(&b, &txn, 0..txn.ops.len(), &mut regs);
        match (buffered, direct) {
            (Ok(_), Ok(())) => prop_assert_eq!(a.state_digest(), b.state_digest()),
            // Duplicate inserts abort in both paths; direct may have
            // partially applied (it is not atomic), so states can differ.
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", x.map(|_| ()), y),
        }
    }
}
