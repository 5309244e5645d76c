//! YCSB, as the paper runs it (§VI-E): a single `usertable`, ten operations
//! per transaction, Zipfian key selection with α = 2.5 (high contention),
//! data cardinality 10⁴–10⁷, and the five core workloads:
//!
//! | Workload | Mix |
//! |---|---|
//! | A (update heavy) | 50 % read / 50 % update |
//! | B (read heavy)   | 95 % read / 5 % update |
//! | C (read only)    | 100 % read |
//! | D (read latest)  | 95 % read-latest / 5 % insert |
//! | E (short ranges) | 95 % scan / 5 % insert |
//!
//! Scans are emulated over repeated hash lookups ([`ltpg_txn::IrOp::ScanSum`])
//! — the same slow path the paper observes for workload E on its
//! hash-indexed storage.

use ltpg_storage::{ColId, Database, TableBuilder, TableId};
use ltpg_txn::{IrOp, ProcId, Src, Txn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// Number of value fields per row.
pub const FIELDS: u16 = 4;

/// First procedure id used by YCSB transactions (A=20, B=21, ... E=24).
pub const PROC_YCSB_BASE: u16 = 20;

/// The five core YCSB workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbWorkload {
    /// 50 % read / 50 % update.
    A,
    /// 95 % read / 5 % update.
    B,
    /// Read only.
    C,
    /// 95 % read-latest / 5 % insert.
    D,
    /// 95 % short scan / 5 % insert.
    E,
}

impl YcsbWorkload {
    /// All five workloads, in paper order.
    pub const ALL: [YcsbWorkload; 5] =
        [YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::C, YcsbWorkload::D, YcsbWorkload::E];

    /// Display letter.
    pub fn letter(self) -> char {
        match self {
            YcsbWorkload::A => 'A',
            YcsbWorkload::B => 'B',
            YcsbWorkload::C => 'C',
            YcsbWorkload::D => 'D',
            YcsbWorkload::E => 'E',
        }
    }

    /// The [`ProcId`] instances of this workload carry.
    pub fn proc(self) -> ProcId {
        ProcId(
            PROC_YCSB_BASE
                + match self {
                    YcsbWorkload::A => 0,
                    YcsbWorkload::B => 1,
                    YcsbWorkload::C => 2,
                    YcsbWorkload::D => 3,
                    YcsbWorkload::E => 4,
                },
        )
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Number of preloaded records (the paper sweeps 10⁴–10⁷).
    pub records: u64,
    /// Operations per transaction (the paper fixes 10).
    pub ops_per_txn: usize,
    /// Zipfian exponent (the paper uses 2.5 for high contention).
    pub zipf_alpha: f64,
    /// Which workload mix to generate.
    pub workload: YcsbWorkload,
    /// Maximum emulated scan length for workload E.
    pub scan_len_max: u16,
    /// Workload E scans through a B+tree ordered index (`RangeSum`) instead
    /// of emulated point lookups (`ScanSum`) — the paper's future-work
    /// extension. Builds `usertable` with an ordered index.
    pub ordered_scans: bool,
    /// Spare rows for workloads D/E inserts.
    pub insert_headroom: usize,
    /// RNG seed.
    pub seed: u64,
    /// Number of contiguous key partitions the keyspace is carved into for
    /// sharded execution (1 = the classic unpartitioned generator; the RNG
    /// stream is bit-identical to pre-knob builds in that case). With `n > 1`
    /// each transaction picks a home partition uniformly and draws its
    /// Zipfian keys inside it, so a [Range-partitioned] shard layout makes
    /// the transaction single-shard by construction.
    ///
    /// [Range-partitioned]: YcsbConfig::partition_bounds
    pub partitions: u32,
    /// Percentage (0–100) of transactions that deliberately straddle two
    /// partitions: odd-numbered operation slots draw their keys from a
    /// second, distinct partition. Only meaningful when `partitions > 1`.
    pub cross_shard_pct: u32,
}

impl YcsbConfig {
    /// Paper defaults for a workload and cardinality.
    pub fn new(workload: YcsbWorkload, records: u64) -> Self {
        YcsbConfig {
            records,
            ops_per_txn: 10,
            zipf_alpha: 2.5,
            workload,
            scan_len_max: 16,
            ordered_scans: false,
            insert_headroom: 1 << 18,
            seed: 0x7963_7362,
            partitions: 1,
            cross_shard_pct: 0,
        }
    }

    /// Override the insert headroom.
    pub fn with_headroom(mut self, rows: usize) -> Self {
        self.insert_headroom = rows;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the Zipf exponent.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.zipf_alpha = alpha;
        self
    }

    /// Enable true ordered scans for workload E (see
    /// [`YcsbConfig::ordered_scans`]).
    pub fn with_ordered_scans(mut self) -> Self {
        self.ordered_scans = true;
        self
    }

    /// Carve the keyspace into `partitions` contiguous ranges and make
    /// `cross_shard_pct` percent of transactions straddle two of them (see
    /// [`YcsbConfig::partitions`]).
    pub fn with_partitions(mut self, partitions: u32, cross_shard_pct: u32) -> Self {
        assert!(partitions >= 1, "need at least one partition");
        assert!(cross_shard_pct <= 100, "cross_shard_pct is a percentage");
        self.partitions = partitions;
        self.cross_shard_pct = cross_shard_pct;
        self
    }

    /// Keys per partition (`records / partitions`, floor division; leftover
    /// tail keys belong to the last partition but are never drawn).
    pub fn partition_size(&self) -> u64 {
        self.records / u64::from(self.partitions.max(1))
    }

    /// Range-partitioner split points: partition `i` covers keys
    /// `(i·size, i·size + size]`. Feed these to a range-based shard
    /// partitioner so each home partition maps onto exactly one shard.
    pub fn partition_bounds(&self) -> Vec<i64> {
        let size = self.partition_size() as i64;
        (1..i64::from(self.partitions.max(1))).map(|j| j * size + 1).collect()
    }
}

/// Deterministic YCSB transaction generator.
#[derive(Debug)]
pub struct YcsbGenerator {
    cfg: YcsbConfig,
    table: TableId,
    rng: StdRng,
    zipf: Zipf,
    /// Zipfian over one partition's key range (`partitions > 1` only).
    part_zipf: Option<Zipf>,
    /// Key offset of the partition the current operation draws from.
    cur_base: i64,
    /// Next key for workload D/E inserts.
    next_insert_key: i64,
}

impl YcsbGenerator {
    /// Build the populated `usertable` and a generator over it.
    pub fn new(cfg: YcsbConfig) -> (Database, TableId, YcsbGenerator) {
        assert!(cfg.records >= 1, "need at least one record");
        assert!(cfg.ops_per_txn >= 1 && cfg.ops_per_txn <= 200, "unreasonable ops_per_txn");
        let mut db = Database::new();
        let cap = cfg.records as usize + cfg.insert_headroom;
        let schema = TableBuilder::new("usertable")
            .columns(["FIELD0", "FIELD1", "FIELD2", "FIELD3"])
            .capacity(cap)
            .build();
        let table = if cfg.ordered_scans {
            db.add_built_table(ltpg_storage::Table::new(schema).with_ordered())
        } else {
            db.add_table(schema)
        };
        // Lay the index out for the records and the inserts the generator
        // may add (workloads D and E) before loading.
        db.reserve(table, cap);
        let mut load_rng = StdRng::seed_from_u64(cfg.seed ^ 0x6c6f_6164);
        let t = db.table_mut(table);
        for k in 1..=cfg.records as i64 {
            t.insert(k, &[load_rng.gen(), load_rng.gen(), load_rng.gen(), load_rng.gen()])
                .expect("usertable insert");
        }
        let gen = Self::from_parts(cfg, table);
        (db, table, gen)
    }

    /// A generator over an already-built `usertable` (for sharing one
    /// populated database across engines via deep clones).
    pub fn from_parts(cfg: YcsbConfig, table: TableId) -> YcsbGenerator {
        let zipf = Zipf::new(cfg.records, cfg.zipf_alpha);
        let part_zipf = if cfg.partitions > 1 {
            assert!(
                cfg.partition_size() >= 1,
                "records must cover at least one key per partition"
            );
            Some(Zipf::new(cfg.partition_size(), cfg.zipf_alpha))
        } else {
            None
        };
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x6f70_7321);
        let next_insert_key = cfg.records as i64 + 1;
        YcsbGenerator { cfg, table, rng, zipf, part_zipf, cur_base: 0, next_insert_key }
    }

    /// The `usertable` id.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Generate `n` fresh transactions.
    pub fn gen_batch(&mut self, n: usize) -> Vec<Txn> {
        (0..n).map(|_| self.gen_txn()).collect()
    }

    fn zipf_key(&mut self) -> i64 {
        match &self.part_zipf {
            Some(pz) => self.cur_base + pz.sample_scrambled(&mut self.rng) as i64,
            None => self.zipf.sample_scrambled(&mut self.rng) as i64,
        }
    }

    /// Workload D's "latest" distribution: recency-skewed key below the
    /// current insert frontier.
    fn latest_key(&mut self) -> i64 {
        let back = self.zipf.sample(&mut self.rng) as i64 - 1;
        (self.next_insert_key - 1 - back).max(1)
    }

    fn rand_field(&mut self) -> ColId {
        ColId(self.rng.gen_range(0..FIELDS))
    }

    /// Pick the current transaction's home partition base and, if the
    /// cross-shard roll fires, a second distinct partition base for odd
    /// operation slots. Draws nothing from the RNG when unpartitioned, so
    /// `partitions <= 1` preserves the classic key stream bit-for-bit.
    fn pick_txn_partitions(&mut self) -> (i64, i64, bool) {
        if self.cfg.partitions <= 1 {
            return (0, 0, false);
        }
        let p = i64::from(self.cfg.partitions);
        let size = self.cfg.partition_size() as i64;
        let home = self.rng.gen_range(0..p);
        let cross = self.rng.gen_range(0..100u32) < self.cfg.cross_shard_pct;
        let base = home * size;
        let alt = if cross {
            let mut o = self.rng.gen_range(0..p - 1);
            if o >= home {
                o += 1;
            }
            o * size
        } else {
            base
        };
        (base, alt, cross)
    }

    /// Generate one transaction of `cfg.ops_per_txn` operations.
    ///
    /// Workload D's "latest" reads and D/E inserts are *not* partition
    /// confined: inserts land above the preloaded keyspace (owned by the
    /// last range partition) and additionally touch the table's membership
    /// partition, so they are inherently multi-shard under range sharding.
    /// Partition-confined scaling experiments should use workloads A–C.
    pub fn gen_txn(&mut self) -> Txn {
        let (home_base, alt_base, cross) = self.pick_txn_partitions();
        let mut ops = Vec::with_capacity(self.cfg.ops_per_txn);
        for slot in 0..self.cfg.ops_per_txn {
            self.cur_base = if cross && slot % 2 == 1 { alt_base } else { home_base };
            let out = (slot % 128) as u8;
            let roll = self.rng.gen_range(0..100u32);
            let op = match self.cfg.workload {
                YcsbWorkload::A if roll < 50 => self.read_op(out),
                YcsbWorkload::A => self.update_op(),
                YcsbWorkload::B if roll < 95 => self.read_op(out),
                YcsbWorkload::B => self.update_op(),
                YcsbWorkload::C => self.read_op(out),
                YcsbWorkload::D if roll < 95 => {
                    let k = self.latest_key();
                    let col = self.rand_field();
                    IrOp::Read { table: self.table, key: Src::Const(k), col, out }
                }
                YcsbWorkload::D => self.insert_op(),
                YcsbWorkload::E if roll < 95 => {
                    let start = self.zipf_key();
                    let count = self.rng.gen_range(1..=self.cfg.scan_len_max);
                    let col = self.rand_field();
                    if self.cfg.ordered_scans {
                        IrOp::RangeSum {
                            table: self.table,
                            lo: Src::Const(start),
                            hi: Src::Const(start + i64::from(count)),
                            col,
                            out,
                        }
                    } else {
                        IrOp::ScanSum { table: self.table, start: Src::Const(start), count, col, out }
                    }
                }
                YcsbWorkload::E => self.insert_op(),
            };
            ops.push(op);
        }
        Txn::new(self.cfg.workload.proc(), vec![self.cfg.records as i64], ops)
    }

    fn read_op(&mut self, out: u8) -> IrOp {
        let k = self.zipf_key();
        let col = self.rand_field();
        IrOp::Read { table: self.table, key: Src::Const(k), col, out }
    }

    fn update_op(&mut self) -> IrOp {
        let k = self.zipf_key();
        let col = self.rand_field();
        IrOp::Update { table: self.table, key: Src::Const(k), col, val: Src::Const(self.rng.gen()) }
    }

    fn insert_op(&mut self) -> IrOp {
        let k = self.next_insert_key;
        self.next_insert_key += 1;
        IrOp::Insert {
            table: self.table,
            key: Src::Const(k),
            values: (0..FIELDS).map(|_| Src::Const(self.rng.gen())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_txn::{execute_serial, Batch, OpKind, TidGen};

    fn config(w: YcsbWorkload) -> YcsbConfig {
        YcsbConfig::new(w, 1_000).with_headroom(4_096)
    }

    #[test]
    fn workload_c_is_read_only() {
        let (_db, _t, mut g) = YcsbGenerator::new(config(YcsbWorkload::C));
        for txn in g.gen_batch(50) {
            assert!(txn.ops.iter().all(|o| o.kind() == OpKind::Read));
            assert_eq!(txn.ops.len(), 10);
        }
    }

    #[test]
    fn workload_a_mix_is_roughly_half_updates() {
        let (_db, _t, mut g) = YcsbGenerator::new(config(YcsbWorkload::A));
        let batch = g.gen_batch(300);
        let (mut reads, mut updates) = (0usize, 0usize);
        for txn in &batch {
            for op in &txn.ops {
                match op.kind() {
                    OpKind::Read => reads += 1,
                    OpKind::Update => updates += 1,
                    k => panic!("unexpected op kind {k:?} in workload A"),
                }
            }
        }
        let frac = updates as f64 / (reads + updates) as f64;
        assert!((frac - 0.5).abs() < 0.05, "update fraction {frac}");
    }

    #[test]
    fn workload_e_scans_and_inserts() {
        let (_db, _t, mut g) = YcsbGenerator::new(config(YcsbWorkload::E));
        let batch = g.gen_batch(200);
        let mut kinds = std::collections::HashMap::new();
        for txn in &batch {
            for op in &txn.ops {
                *kinds.entry(op.kind()).or_insert(0usize) += 1;
            }
        }
        assert!(kinds[&OpKind::Scan] > kinds[&OpKind::Insert]);
        assert!(kinds.contains_key(&OpKind::Insert));
        assert_eq!(kinds.len(), 2);
    }

    #[test]
    fn inserted_keys_are_fresh_and_serial_execution_works() {
        let (mut db, t, mut g) = YcsbGenerator::new(config(YcsbWorkload::D));
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], g.gen_batch(100), &mut gen);
        for txn in &batch.txns {
            execute_serial(&mut db, txn).expect("YCSB-D txn must not user-abort");
        }
        assert!(db.table(t).live_rows() > 1_000);
    }

    #[test]
    fn zipfian_keys_hit_hotset() {
        let (_db, _t, mut g) = YcsbGenerator::new(config(YcsbWorkload::A));
        let batch = g.gen_batch(500);
        let mut counts = std::collections::HashMap::<i64, usize>::new();
        for txn in &batch {
            for op in &txn.ops {
                if let IrOp::Read { key: Src::Const(k), .. } | IrOp::Update { key: Src::Const(k), .. } = op
                {
                    *counts.entry(*k).or_default() += 1;
                }
            }
        }
        let total: usize = counts.values().sum();
        let max = counts.values().max().copied().unwrap();
        // α = 2.5 concentrates ~74 % of accesses on one key.
        assert!(max as f64 / total as f64 > 0.6, "hottest key fraction {}", max as f64 / total as f64);
    }

    fn touched_partitions(txn: &Txn, size: i64) -> std::collections::BTreeSet<i64> {
        txn.ops
            .iter()
            .filter_map(|op| match op {
                IrOp::Read { key: Src::Const(k), .. }
                | IrOp::Update { key: Src::Const(k), .. } => Some((k - 1) / size),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn partitions_one_preserves_classic_stream() {
        let mk = |cfg: YcsbConfig| {
            let (_d, _t, mut g) = YcsbGenerator::new(cfg);
            g.gen_batch(40)
        };
        assert_eq!(mk(config(YcsbWorkload::A)), mk(config(YcsbWorkload::A).with_partitions(1, 0)));
    }

    #[test]
    fn partitioned_keys_stay_in_home_partition() {
        let cfg = config(YcsbWorkload::A).with_partitions(4, 0);
        let size = cfg.partition_size() as i64;
        assert_eq!(cfg.partition_bounds(), vec![size + 1, 2 * size + 1, 3 * size + 1]);
        let (_d, _t, mut g) = YcsbGenerator::new(cfg);
        let mut seen = std::collections::BTreeSet::new();
        for txn in g.gen_batch(200) {
            let parts = touched_partitions(&txn, size);
            assert_eq!(parts.len(), 1, "0% cross-shard txn touched {parts:?}");
            seen.extend(parts);
        }
        assert_eq!(seen.len(), 4, "all partitions should be drawn as homes");
    }

    #[test]
    fn cross_shard_fraction_tracks_knob() {
        let cfg = config(YcsbWorkload::A).with_partitions(4, 50);
        let size = cfg.partition_size() as i64;
        let (_d, _t, mut g) = YcsbGenerator::new(cfg);
        let batch = g.gen_batch(400);
        let cross =
            batch.iter().filter(|t| touched_partitions(t, size).len() == 2).count();
        let frac = cross as f64 / batch.len() as f64;
        assert!((frac - 0.5).abs() < 0.1, "cross-shard fraction {frac}");
    }

    #[test]
    fn generation_deterministic_per_seed() {
        let mk = |seed| {
            let (_d, _t, mut g) =
                YcsbGenerator::new(config(YcsbWorkload::B).with_seed(seed));
            g.gen_batch(30)
        };
        assert_eq!(mk(4), mk(4));
        assert_ne!(mk(4), mk(5));
    }
}
