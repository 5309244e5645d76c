//! Cross-crate property tests on substrate invariants.

use ltpg::conflict::TableLog;
use ltpg::footprint::{Cell, Check, Part, Record};
use ltpg::{ConflictLog, LtpgConfig};
use ltpg_gpu_sim::{Device, DeviceConfig, KernelReport, Lane};
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

/// The conflict log as it was built before it stored only the buckets an
/// epoch claims: every modelled bucket one host cache line, slots `1..s_u`
/// of every bucket in two side arrays. The reference a [`TableLog`] must be
/// indistinguishable from on the simulated clock.
mod dense {
    use ltpg_gpu_sim::{Lane, SimAtomicU64};
    use ltpg_storage::index::mix_key;
    use std::ops::Range;

    const TID_BITS: u32 = 40;
    const TID_MASK: u64 = (1 << TID_BITS) - 1;
    const EPOCH_CEIL: u64 = (1 << 24) - 1;
    const SLOT_EMPTY: u64 = u64::MAX;

    fn encode(epoch: u32, tid: u64) -> u64 {
        ((EPOCH_CEIL - u64::from(epoch)) << TID_BITS) | tid
    }

    fn decode(v: u64, epoch: u32) -> Option<u64> {
        (v != SLOT_EMPTY && (v >> TID_BITS) == EPOCH_CEIL - u64::from(epoch)).then_some(v & TID_MASK)
    }

    struct Bucket {
        tag: SimAtomicU64,
        mark: [u64; 2],
        slot0: [SimAtomicU64; 2],
    }

    pub struct DenseLog {
        mask: usize,
        s_u: usize,
        buckets: Vec<Bucket>,
        more: [Vec<SimAtomicU64>; 2],
        ballot: Option<usize>,
    }

    impl DenseLog {
        pub fn new(s_h: usize, s_u: usize, ballot: Option<usize>) -> Self {
            let slot = || SimAtomicU64::new(SLOT_EMPTY);
            let more = || (0..s_h * (s_u - 1)).map(|_| slot()).collect::<Vec<_>>();
            DenseLog {
                mask: s_h - 1,
                s_u,
                buckets: (0..s_h)
                    .map(|_| Bucket { tag: slot(), mark: [u64::MAX; 2], slot0: [slot(), slot()] })
                    .collect(),
                more: [more(), more()],
                ballot,
            }
        }

        fn bucket_for(&mut self, lane: &mut Lane<'_>, key: i64, epoch: u32, claim: bool) -> Option<usize> {
            let h = mix_key(key);
            let tag_val = encode(epoch, h & TID_MASK);
            let start = (h as usize) & self.mask;
            for i in 0..=self.mask {
                let b = (start + i) & self.mask;
                match self.ballot {
                    None => lane.charge_light(12.0),
                    Some(ws) => {
                        if i % ws == 0 {
                            lane.charge_light(12.0);
                            lane.warp_shuffle(1);
                        }
                    }
                }
                let tag = &mut self.buckets[b].tag;
                let mut cur = tag.load();
                loop {
                    if cur == tag_val {
                        return Some(b);
                    }
                    if decode(cur, epoch).is_some() {
                        break;
                    }
                    if !claim {
                        return None;
                    }
                    match lane.atomic_cas_u64(tag, cur, tag_val) {
                        Ok(_) => return Some(b),
                        Err(observed) => cur = observed,
                    }
                }
            }
            None
        }

        /// Where slots `1..s_u` of bucket `b` sit in `more`.
        fn more_slots(&self, b: usize) -> Range<usize> {
            let run = self.s_u - 1;
            b * run..(b + 1) * run
        }

        pub fn register(
            &mut self,
            lane: &mut Lane<'_>,
            record: usize,
            key: i64,
            tid: u64,
            epoch: u32,
        ) -> bool {
            let Some(b) = self.bucket_for(lane, key, epoch, true) else { return false };
            self.buckets[b].mark[record] = u64::from(epoch);
            let more = self.more_slots(b);
            let slot = match tid as usize % self.s_u {
                0 => &mut self.buckets[b].slot0[record],
                s => &mut self.more[record][more][s - 1],
            };
            lane.atomic_min_u64(slot, encode(epoch, tid));
            true
        }

        pub fn min(&mut self, lane: &mut Lane<'_>, record: usize, key: i64, epoch: u32) -> Option<u64> {
            let b = self.bucket_for(lane, key, epoch, false)?;
            let bucket = &self.buckets[b];
            lane.charge_light(12.0);
            if bucket.mark[record] != u64::from(epoch) {
                return None;
            }
            match self.ballot {
                None => lane.charge_light(4.0 * self.s_u as f64),
                Some(ws) => {
                    lane.charge_light(4.0 * (self.s_u as f64 / ws as f64).ceil());
                    lane.warp_shuffle((ws as u32).max(2).ilog2());
                }
            }
            std::iter::once(&bucket.slot0[record])
                .chain(&self.more[record][self.more_slots(b)])
                .filter_map(|s| decode(s.load(), epoch))
                .min()
        }
    }
}

/// Everything the simulated clock and the decisions see of one epoch: the
/// charges of the registration and probe kernels (simulated time, the
/// slowest warp's and all warps' cycles as bit patterns, atomics, their
/// serialization depth), every registration's return, and both minima of
/// every probed key.
type EpochTrace = ([[u64; 5]; 2], Vec<bool>, Vec<(Option<u64>, Option<u64>)>);

/// Run one epoch of `ops` (key, TID, is-write) through `log` on `device`,
/// then read both records of every key in `probe`.
fn epoch_trace<L>(
    device: &mut Device,
    ops: &[(i64, u64, bool)],
    probe: &[i64],
    log: &mut L,
    mut register: impl FnMut(&mut L, &mut Lane<'_>, i64, u64, Record) -> bool,
    mut min: impl FnMut(&mut L, &mut Lane<'_>, i64, Record) -> Option<u64>,
) -> EpochTrace {
    let charges = |r: &KernelReport| {
        let bits = [r.sim_ns, r.critical_warp_cycles, r.total_warp_cycles].map(f64::to_bits);
        [bits[0], bits[1], bits[2], r.atomic_ops, r.atomic_serial_depth]
    };
    let record = |write| if write { Record::Writes } else { Record::Reads };
    let mut landed = Vec::new();
    let registered = device.launch("register", ops, |lane, &(key, tid, write)| {
        landed.push(register(log, lane, key, tid, record(write)));
    });
    let mut mins = Vec::new();
    let probed = device.launch("probe", probe, |lane, &key| {
        mins.push((min(log, lane, key, Record::Reads), min(log, lane, key, Record::Writes)));
    });
    ([charges(&registered), charges(&probed)], landed, mins)
}

/// Every key `ops` names plus the first 32 (some of them unregistered).
fn probe_keys(ops: &[(i64, u64, bool)]) -> Vec<i64> {
    let keys: BTreeSet<i64> = ops.iter().map(|&(k, ..)| k).chain(0..32).collect();
    keys.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A log that stores only the buckets an epoch claims is the dense log
    /// it replaced, as far as the simulated clock and the decisions can
    /// tell: over three or four epochs, with one, 32 or 512 slots per
    /// bucket, ballot probing on or off, 16 buckets (whose keys overflow
    /// it, so registrations fail) or 1 024 (the physical table's first
    /// size, so the table holds every modelled bucket), every kernel's
    /// charges are bit-equal, and so are every registration's return and
    /// every minimum.
    #[test]
    fn a_log_of_claimed_buckets_charges_what_the_dense_log_did(
        epochs in proptest::collection::vec(
            proptest::collection::vec((0..1_000_000i64, 1..1_000u64, proptest::bool::ANY), 1..400),
            3..5,
        ),
        s_h in prop_oneof![Just(16usize), Just(1_024)],
        wide in proptest::bool::ANY,
        s_u in prop_oneof![Just(1usize), Just(32), Just(512)],
        ballot in proptest::bool::ANY,
    ) {
        // Keys below or above the bucket count.
        let key_space = if wide { s_h as i64 * 5 / 2 } else { s_h as i64 / 2 };
        let ws = ballot.then_some(32);
        let mut sparse = TableLog::new(s_h, s_u);
        if let Some(ws) = ws {
            sparse = sparse.with_ballot_probe(ws);
        }
        let mut dense = dense::DenseLog::new(s_h, s_u, ws);
        // One host thread each: lanes run in item order on both sides.
        let (mut on_sparse, mut on_dense) =
            (Device::new(DeviceConfig::default()), Device::new(DeviceConfig::default()));
        for (e, ops) in epochs.iter().enumerate() {
            let epoch = e as u32 + 1;
            let ops: Vec<(i64, u64, bool)> =
                ops.iter().map(|&(k, tid, w)| (k % key_space, tid, w)).collect();
            let probe = probe_keys(&ops);
            let got = epoch_trace(
                &mut on_sparse,
                &ops,
                &probe,
                &mut sparse,
                |sparse, lane, key, tid, record| match record {
                    Record::Reads => sparse.register_read(lane, key, tid, epoch),
                    Record::Writes => sparse.register_write(lane, key, tid, epoch),
                },
                |sparse, lane, key, record| match record {
                    Record::Reads => sparse.min_read(lane, key, epoch),
                    Record::Writes => sparse.min_write(lane, key, epoch),
                },
            );
            let want = epoch_trace(
                &mut on_dense,
                &ops,
                &probe,
                &mut dense,
                |dense, lane, key, tid, record| dense.register(lane, record as usize, key, tid, epoch),
                |dense, lane, key, record| dense.min(lane, record as usize, key, epoch),
            );
            prop_assert_eq!(got, want, "epoch {}", epoch);
            sparse.settle();
        }
    }

    /// The same equality through a `ConflictLog` whose one 8-row table is
    /// remodelled by popularity twice: large-bucketed while the first epoch
    /// registers at least 16 accesses, standard after a second epoch of at
    /// most four, large again after a third of at least 16. A remodel
    /// changes only the modelled geometry, and must charge what a freshly
    /// built dense log of the new geometry charged.
    #[test]
    fn a_popularity_rebuild_charges_what_a_fresh_dense_log_did(
        epochs in (
            proptest::collection::vec((0..40i64, 1..1_000u64, proptest::bool::ANY), 16..120),
            proptest::collection::vec((0..40i64, 1..1_000u64, proptest::bool::ANY), 1..5),
            proptest::collection::vec((0..40i64, 1..1_000u64, proptest::bool::ANY), 16..120),
            proptest::collection::vec((0..40i64, 1..1_000u64, proptest::bool::ANY), 1..120),
        ),
    ) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("H").columns(["a"]).capacity(8).build());
        let cfg = LtpgConfig { max_batch: 1 << 12, ..LtpgConfig::default() };
        let mut log = ConflictLog::new(&db, &cfg);
        let cell = |key| Cell { table: t, part: Part::Exists, key };
        let (mut on_sparse, mut on_dense) =
            (Device::new(DeviceConfig::default()), Device::new(DeviceConfig::default()));
        let mut geometry = (0, 0);
        let mut dense = dense::DenseLog::new(16, 1, None);
        let mut remodels = 0;
        for (e, ops) in [&epochs.0, &epochs.1, &epochs.2, &epochs.3].into_iter().enumerate() {
            let epoch = e as u32 + 1;
            log.begin_batch();
            // The row log's modelled geometry, read off its Table VIII row.
            let report = log.memory_report();
            let s_u = report[0].bucket_size;
            let now = (report[0].bytes as usize / (32 + 32 * s_u), s_u);
            if now != geometry {
                remodels += usize::from(e > 0);
                geometry = now;
                dense = dense::DenseLog::new(now.0, now.1, Some(32));
            }
            let probe = probe_keys(ops);
            let check = |record| if record == Record::Writes { Check::Write } else { Check::Read };
            let got = epoch_trace(
                &mut on_sparse,
                ops,
                &probe,
                &mut log,
                |log, lane, key, tid, record| log.register(lane, cell(key), check(record), tid).is_some(),
                |log, lane, key, record| log.min(lane, cell(key), record),
            );
            let want = epoch_trace(
                &mut on_dense,
                ops,
                &probe,
                &mut dense,
                |dense, lane, key, tid, record| dense.register(lane, record as usize, key * 64, tid, epoch),
                |dense, lane, key, record| dense.min(lane, record as usize, key * 64, epoch),
            );
            prop_assert_eq!(got, want, "epoch {} at geometry {:?}", epoch, geometry);
        }
        prop_assert_eq!(remodels, 2);
    }
}

/// The same equality where the physical table grows: an epoch claims
/// 3 000 buckets of 8 192, so the table doubles from 1 024 entries three
/// times while the registration kernel runs, and a quieter second epoch
/// runs on the grown table.
#[test]
fn growth_within_an_epoch_charges_what_the_dense_log_did() {
    for s_u in [1, 32] {
        let mut sparse = TableLog::new(1 << 13, s_u).with_ballot_probe(32);
        let mut dense = dense::DenseLog::new(1 << 13, s_u, Some(32));
        let (mut on_sparse, mut on_dense) =
            (Device::new(DeviceConfig::default()), Device::new(DeviceConfig::default()));
        for (epoch, keys) in [(1u32, 3_000u64), (2, 300)] {
            // Three passes over the keys, TIDs rising: each key's minimum
            // is its first registration, made before the table last grew.
            let ops: Vec<(i64, u64, bool)> =
                (0..3 * keys).map(|i| ((i * 7_919 % keys) as i64, i + 1, i % 7 == 0)).collect();
            let probe = probe_keys(&ops);
            let got = epoch_trace(
                &mut on_sparse,
                &ops,
                &probe,
                &mut sparse,
                |sparse, lane, key, tid, record| match record {
                    Record::Reads => sparse.register_read(lane, key, tid, epoch),
                    Record::Writes => sparse.register_write(lane, key, tid, epoch),
                },
                |sparse, lane, key, record| match record {
                    Record::Reads => sparse.min_read(lane, key, epoch),
                    Record::Writes => sparse.min_write(lane, key, epoch),
                },
            );
            let want = epoch_trace(
                &mut on_dense,
                &ops,
                &probe,
                &mut dense,
                |dense, lane, key, tid, record| dense.register(lane, record as usize, key, tid, epoch),
                |dense, lane, key, record| dense.min(lane, record as usize, key, epoch),
            );
            assert_eq!(got, want, "s_u {s_u}, epoch {epoch}");
            sparse.settle();
        }
        assert!(sparse.resident_bytes() >= 8_192 * 64, "the table must have grown");
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
        let mut device = Device::new(DeviceConfig::default());
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
            let mut landed = Vec::new();
            device.launch("register", &ops, |lane, &(key, tid, is_write)| {
                landed.push(if is_write {
                    log.register_write(lane, key, tid, epoch)
                } else {
                    log.register_read(lane, key, tid, epoch)
                });
            });
            prop_assert_eq!(landed, expected, "exhaustion in epoch {}", epoch);
            let mut results = Vec::new();
            device.launch_indexed("probe", 40, |lane| {
                let k = lane.global_id as i64;
                results.push((k, log.min_read(lane, k, epoch), log.min_write(lane, k, epoch)));
            });
            for (k, r, w) in results {
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
                db.table_mut(t).insert(k, &[k, -k]).unwrap();
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
        let mut a = build();
        let buffered = execute_serial(&mut a, &txn);
        let mut b = build();
        let mut regs = vec![0i64; txn.reg_count()];
        let direct = execute_range_direct(&mut b, &txn, 0..txn.ops.len(), &mut regs);
        match (buffered, direct) {
            (Ok(_), Ok(())) => prop_assert_eq!(a.state_digest(), b.state_digest()),
            // Duplicate inserts abort in both paths; direct may have
            // partially applied (it is not atomic), so states can differ.
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", x.map(|_| ()), y),
        }
    }
}
