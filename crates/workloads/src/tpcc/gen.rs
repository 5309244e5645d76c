//! TPC-C transaction generation: parameter distributions per the spec
//! (NURand item/customer selection, 5–15 order lines, 1 % remote order
//! lines, 15 % remote payments) compiled to IR instances.

use ltpg_storage::Database;
use ltpg_txn::{ComputeFn, IrOp, ProcId, Src, Txn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::keys::{
    cust_key, dist_key, order_key_base, stock_key, wh_key, CUSTOMERS_PER_D, DISTRICTS_PER_W, ITEMS,
};
use super::keys::orderline_key;
use super::schema::{cols, TpccTables};

/// Procedure id of NewOrder.
pub const PROC_NEWORDER: ProcId = ProcId(0);
/// Procedure id of Payment.
pub const PROC_PAYMENT: ProcId = ProcId(1);
/// Procedure id of Delivery (full mix only; needs ordered indexes).
pub const PROC_DELIVERY: ProcId = ProcId(2);
/// Procedure id of OrderStatus (full mix only).
pub const PROC_ORDERSTATUS: ProcId = ProcId(3);
/// Procedure id of StockLevel (full mix only; needs ordered STOCK).
pub const PROC_STOCKLEVEL: ProcId = ProcId(4);

/// How NewOrder picks items.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ItemDistribution {
    /// Uniform over the 100 000-item catalogue. **Default**: this is the
    /// only distribution consistent with the paper's measured NewOrder
    /// commit rates (63–88 %, Table VI) — under TPC-C's NURand the OR-bias
    /// concentrates picks on ~37 k items, multiplying stock collisions
    /// ~18× and collapsing NewOrder commits at large batches. See
    /// EXPERIMENTS.md for the calibration derivation.
    #[default]
    Uniform,
    /// TPC-C specification `NURand(8191, 1, 100000)`.
    NuRand,
}

/// Generator configuration. The paper's experiment axes are
/// `warehouses` ∈ {8, 16, 32, 64} and `neworder_pct` ∈ {0, 50, 100}.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Number of warehouses (the paper's "database size" axis).
    pub warehouses: i64,
    /// Percent of NewOrder transactions; the rest are Payment.
    pub neworder_pct: u8,
    /// Item selection distribution.
    pub item_dist: ItemDistribution,
    /// Generate the full five-transaction mix (NewOrder 45 %, Payment
    /// 43 %, OrderStatus 4 %, Delivery 4 %, StockLevel 4 % — the official
    /// TPC-C proportions) instead of the two-transaction
    /// `neworder_pct`/Payment mix the paper benchmarks. Requires the
    /// ordered-index extension: only LTPG and the serial reference can run
    /// it (Delivery/OrderStatus/StockLevel are undeclarable).
    pub full_mix: bool,
    /// Fraction (percent) of order lines supplied by a remote warehouse.
    pub remote_ol_pct: u8,
    /// Fraction (percent) of payments by a customer of a remote warehouse.
    pub remote_payment_pct: u8,
    /// Spare rows for insert-target tables (size to total planned txns).
    pub insert_headroom: usize,
    /// RNG seed: population and parameter streams are derived from it.
    pub seed: u64,
    /// Warehouse-aligned partition count for sharded execution (1 = classic
    /// generator, RNG stream bit-identical to pre-knob builds). With
    /// `n > 1`, warehouses are grouped round-robin by `w % n` — matching a
    /// stride-based shard partitioner that derives the warehouse from every
    /// TPC-C composite key — and *remote* picks (NewOrder supply warehouses,
    /// Payment customer warehouses) stay inside the home warehouse's group
    /// unless the cross-shard roll fires. Payment's TID-keyed HISTORY insert
    /// is not warehouse-aligned and still spreads across shards under hash
    /// routing; partition-confined scaling experiments use YCSB.
    pub partitions: u32,
    /// Percentage (0–100) of *remote* picks that deliberately leave the home
    /// warehouse group. Only meaningful when `partitions > 1`; the overall
    /// cross-shard fraction is roughly `remote_*_pct × cross_shard_pct`.
    pub cross_shard_pct: u32,
}

impl TpccConfig {
    /// Paper-defaults for a given warehouse count and NewOrder percentage.
    pub fn new(warehouses: i64, neworder_pct: u8) -> Self {
        TpccConfig {
            warehouses,
            neworder_pct,
            item_dist: ItemDistribution::Uniform,
            full_mix: false,
            remote_ol_pct: 1,
            remote_payment_pct: 15,
            insert_headroom: 1 << 20,
            seed: 0xD5C0_1234,
            partitions: 1,
            cross_shard_pct: 0,
        }
    }

    /// Group warehouses into `partitions` round-robin classes and let
    /// `cross_shard_pct` percent of remote picks leave the home class (see
    /// [`TpccConfig::partitions`]).
    pub fn with_partitions(mut self, partitions: u32, cross_shard_pct: u32) -> Self {
        assert!(partitions >= 1, "need at least one partition");
        assert!(cross_shard_pct <= 100, "cross_shard_pct is a percentage");
        self.partitions = partitions;
        self.cross_shard_pct = cross_shard_pct;
        self
    }

    /// Override the item-selection distribution.
    pub fn with_item_dist(mut self, dist: ItemDistribution) -> Self {
        self.item_dist = dist;
        self
    }

    /// Enable the full five-transaction mix (see [`TpccConfig::full_mix`]).
    pub fn with_full_mix(mut self) -> Self {
        self.full_mix = true;
        self
    }

    /// Override the insert headroom (tests use small values).
    pub fn with_headroom(mut self, rows: usize) -> Self {
        self.insert_headroom = rows;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// TPC-C NURand(A, x, y) non-uniform distribution.
fn nurand<R: Rng + ?Sized>(rng: &mut R, a: i64, c: i64, x: i64, y: i64) -> i64 {
    (((rng.gen_range(0..=a) | rng.gen_range(x..=y)) + c) % (y - x + 1)) + x
}

/// Deterministic TPC-C transaction generator.
#[derive(Debug)]
pub struct TpccGenerator {
    cfg: TpccConfig,
    tables: TpccTables,
    rng: StdRng,
    /// NURand run constants (per the spec, fixed per run).
    c_cust: i64,
    c_item: i64,
    /// Simulated wall-clock for O_ENTRY_D / H_DATE.
    clock: i64,
    /// Transactions emitted so far — approximates the current TID frontier
    /// for OrderStatus/StockLevel key guesses (missing keys are no-ops).
    emitted: i64,
}

impl TpccGenerator {
    /// Build the populated database and a generator over it.
    pub fn new(cfg: TpccConfig) -> (Database, TpccTables, TpccGenerator) {
        let (db, tables) = super::schema::build_database_with(
            cfg.warehouses,
            cfg.insert_headroom,
            cfg.seed,
            cfg.full_mix,
        );
        (db, tables, Self::from_parts(cfg, tables))
    }

    /// A generator over an already-built database (e.g. a
    /// [`Database::deep_clone`] shared across engines for fairness — the
    /// same seed yields the same transaction stream).
    pub fn from_parts(cfg: TpccConfig, tables: TpccTables) -> TpccGenerator {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6765_6e21);
        let c_cust = rng.gen_range(0..=1_023);
        let c_item = rng.gen_range(0..=8_191);
        TpccGenerator { cfg, tables, rng, c_cust, c_item, clock: 1_000_000, emitted: 0 }
    }

    /// The table ids this generator targets.
    pub fn tables(&self) -> TpccTables {
        self.tables
    }

    /// Generate `n` fresh transactions (TIDs unassigned; use
    /// [`ltpg_txn::Batch::assemble`]).
    pub fn gen_batch(&mut self, n: usize) -> Vec<Txn> {
        (0..n).map(|_| self.gen_txn()).collect()
    }

    /// Generate one transaction according to the configured mix.
    pub fn gen_txn(&mut self) -> Txn {
        self.clock += 1;
        self.emitted += 1;
        if self.cfg.full_mix {
            // Official TPC-C proportions: 45/43/4/4/4.
            return match self.rng.gen_range(0..100u32) {
                0..=44 => self.gen_neworder(),
                45..=87 => self.gen_payment(),
                88..=91 => self.gen_orderstatus(),
                92..=95 => self.gen_delivery(),
                _ => self.gen_stocklevel(),
            };
        }
        if self.rng.gen_range(0..100u32) < u32::from(self.cfg.neworder_pct) {
            self.gen_neworder()
        } else {
            self.gen_payment()
        }
    }

    fn pick_warehouse(&mut self) -> i64 {
        self.rng.gen_range(1..=self.cfg.warehouses)
    }

    /// Pick a remote (≠ `w`) warehouse. Unpartitioned, any other warehouse
    /// qualifies and the RNG draw matches pre-knob builds bit-for-bit. With
    /// `partitions > 1` the pick stays inside `w`'s round-robin group
    /// (`w % partitions`) unless the cross-shard roll fires; a group with no
    /// other member falls back to a cross-group pick so the remote fraction
    /// is preserved.
    fn pick_remote_warehouse(&mut self, w: i64) -> i64 {
        let p = i64::from(self.cfg.partitions);
        if p <= 1 {
            let mut sw = self.rng.gen_range(1..=self.cfg.warehouses - 1);
            if sw >= w {
                sw += 1;
            }
            return sw;
        }
        let cross = self.rng.gen_range(0..100u32) < self.cfg.cross_shard_pct;
        let rem = w.rem_euclid(p);
        let first = if rem == 0 { p } else { rem };
        let group = if first > self.cfg.warehouses {
            0
        } else {
            (self.cfg.warehouses - first) / p + 1
        };
        if !cross && group > 1 {
            let own = (w - first) / p;
            let mut idx = self.rng.gen_range(0..group - 1);
            if idx >= own {
                idx += 1;
            }
            return first + idx * p;
        }
        // Cross-group (or the home group has no other member): rejection-
        // sample a warehouse of a different residue class. Terminates since
        // `warehouses >= 2` inhabits at least two classes when `p >= 2`.
        loop {
            let sw = self.rng.gen_range(1..=self.cfg.warehouses);
            if sw.rem_euclid(p) != rem {
                return sw;
            }
        }
    }

    /// NewOrder: read warehouse/district/customer, derive a TID-unique
    /// order id, insert ORDERS + NEW_ORDER, then per order line read the
    /// item, RMW the stock row (non-commutative wraparound — the genuine
    /// OCC conflict surface), and insert the ORDER_LINE.
    fn gen_neworder(&mut self) -> Txn {
        let t = self.tables;
        let w = self.pick_warehouse();
        let d = self.rng.gen_range(1..=DISTRICTS_PER_W);
        let c = nurand(&mut self.rng, 1_023, self.c_cust, 1, CUSTOMERS_PER_D);
        let ol_cnt = self.rng.gen_range(5..=15i64);
        let entry_d = self.clock;

        // Registers: 0 W_TAX, 1 D_TAX, 2 C_DISCOUNT, 3 order key,
        // 4 orderline key base, 5.. per-line scratch (reused).
        let mut ops = Vec::with_capacity(8 + 9 * ol_cnt as usize);
        let mut params = vec![w, d, c, ol_cnt, entry_d];
        ops.push(IrOp::Read { table: t.warehouse, key: Src::Const(wh_key(w)), col: cols::W_TAX, out: 0 });
        ops.push(IrOp::Read { table: t.district, key: Src::Const(dist_key(w, d)), col: cols::D_TAX, out: 1 });
        // Deterministic sequencer: count the order; the id itself is
        // TID-derived (see module docs).
        ops.push(IrOp::Add {
            table: t.district,
            key: Src::Const(dist_key(w, d)),
            col: cols::D_NEXT_O_ID,
            delta: Src::Const(1),
        });
        ops.push(IrOp::Read {
            table: t.customer,
            key: Src::Const(cust_key(w, d, c)),
            col: cols::C_DISCOUNT,
            out: 2,
        });
        ops.push(IrOp::Compute {
            f: ComputeFn::Add,
            a: Src::Const(order_key_base(w, d)),
            b: Src::Tid,
            out: 3,
        });
        let mut all_local = 1i64;
        let mut lines = Vec::with_capacity(ol_cnt as usize);
        for _ in 0..ol_cnt {
            let i_id = match self.cfg.item_dist {
                ItemDistribution::Uniform => self.rng.gen_range(1..=ITEMS),
                ItemDistribution::NuRand => nurand(&mut self.rng, 8_191, self.c_item, 1, ITEMS),
            };
            let supply_w = if self.cfg.warehouses > 1
                && self.rng.gen_range(0..100u32) < u32::from(self.cfg.remote_ol_pct)
            {
                all_local = 0;
                self.pick_remote_warehouse(w)
            } else {
                w
            };
            let qty = self.rng.gen_range(1..=10i64);
            lines.push((i_id, supply_w, qty));
        }
        ops.push(IrOp::Insert {
            table: t.orders,
            key: Src::Reg(3),
            values: vec![
                Src::Const(cust_key(w, d, c)),
                Src::Const(entry_d),
                Src::Const(0),
                Src::Const(ol_cnt),
                Src::Const(all_local),
            ],
        });
        ops.push(IrOp::Insert { table: t.new_order, key: Src::Reg(3), values: vec![Src::Const(1)] });
        ops.push(IrOp::Compute { f: ComputeFn::Mul, a: Src::Reg(3), b: Src::Const(16), out: 4 });
        for (ol, (i_id, supply_w, qty)) in lines.iter().enumerate() {
            params.extend_from_slice(&[*i_id, *supply_w, *qty]);
            ops.push(IrOp::Read { table: t.item, key: Src::Const(*i_id), col: cols::I_PRICE, out: 5 });
            ops.push(IrOp::Read {
                table: t.stock,
                key: Src::Const(stock_key(*supply_w, *i_id)),
                col: cols::S_QUANTITY,
                out: 6,
            });
            ops.push(IrOp::Compute { f: ComputeFn::StockSub, a: Src::Reg(6), b: Src::Const(*qty), out: 7 });
            ops.push(IrOp::Update {
                table: t.stock,
                key: Src::Const(stock_key(*supply_w, *i_id)),
                col: cols::S_QUANTITY,
                val: Src::Reg(7),
            });
            ops.push(IrOp::Add {
                table: t.stock,
                key: Src::Const(stock_key(*supply_w, *i_id)),
                col: cols::S_YTD,
                delta: Src::Const(*qty),
            });
            ops.push(IrOp::Add {
                table: t.stock,
                key: Src::Const(stock_key(*supply_w, *i_id)),
                col: cols::S_ORDER_CNT,
                delta: Src::Const(1),
            });
            if *supply_w != w {
                ops.push(IrOp::Add {
                    table: t.stock,
                    key: Src::Const(stock_key(*supply_w, *i_id)),
                    col: cols::S_REMOTE_CNT,
                    delta: Src::Const(1),
                });
            }
            ops.push(IrOp::Compute { f: ComputeFn::Mul, a: Src::Reg(5), b: Src::Const(*qty), out: 8 });
            ops.push(IrOp::Compute {
                f: ComputeFn::Add,
                a: Src::Reg(4),
                b: Src::Const(ol as i64 + 1),
                out: 9,
            });
            ops.push(IrOp::Insert {
                table: t.order_line,
                key: Src::Reg(9),
                values: vec![
                    Src::Const(*i_id),
                    Src::Const(*supply_w),
                    Src::Const(*qty),
                    Src::Reg(8),
                    Src::Const(0),
                ],
            });
        }
        Txn::new(PROC_NEWORDER, params, ops)
    }

    /// Payment: read warehouse/district/customer identity columns, add the
    /// amount to W_YTD (the hotspot), D_YTD and the customer's balance
    /// columns, and insert a HISTORY row keyed by TID.
    fn gen_payment(&mut self) -> Txn {
        let t = self.tables;
        let w = self.pick_warehouse();
        let d = self.rng.gen_range(1..=DISTRICTS_PER_W);
        // 15 % of payments come from a customer of a remote warehouse.
        let (cw, cd) = if self.cfg.warehouses > 1
            && self.rng.gen_range(0..100u32) < u32::from(self.cfg.remote_payment_pct)
        {
            let rw = self.pick_remote_warehouse(w);
            (rw, self.rng.gen_range(1..=DISTRICTS_PER_W))
        } else {
            (w, d)
        };
        let c = nurand(&mut self.rng, 1_023, self.c_cust, 1, CUSTOMERS_PER_D);
        let amount = self.rng.gen_range(100..=500_000i64);
        let date = self.clock;
        let params = vec![w, d, cw, cd, c, amount, date];
        let ops = vec![
            IrOp::Read { table: t.warehouse, key: Src::Const(wh_key(w)), col: cols::W_ZIP, out: 0 },
            IrOp::Add { table: t.warehouse, key: Src::Const(wh_key(w)), col: cols::W_YTD, delta: Src::Const(amount) },
            IrOp::Read { table: t.district, key: Src::Const(dist_key(w, d)), col: cols::D_ZIP, out: 1 },
            IrOp::Add { table: t.district, key: Src::Const(dist_key(w, d)), col: cols::D_YTD, delta: Src::Const(amount) },
            IrOp::Read { table: t.customer, key: Src::Const(cust_key(cw, cd, c)), col: cols::C_CREDIT, out: 2 },
            IrOp::Add { table: t.customer, key: Src::Const(cust_key(cw, cd, c)), col: cols::C_BALANCE, delta: Src::Const(-amount) },
            IrOp::Add { table: t.customer, key: Src::Const(cust_key(cw, cd, c)), col: cols::C_YTD_PAYMENT, delta: Src::Const(amount) },
            IrOp::Add { table: t.customer, key: Src::Const(cust_key(cw, cd, c)), col: cols::C_PAYMENT_CNT, delta: Src::Const(1) },
            IrOp::Insert {
                table: t.history,
                key: Src::Tid,
                values: vec![
                    Src::Const(cust_key(cw, cd, c)),
                    Src::Const(d),
                    Src::Const(w),
                    Src::Const(amount),
                    Src::Const(date),
                ],
            },
        ];
        Txn::new(PROC_PAYMENT, params, ops)
    }
    /// Delivery (full mix): for each of the ten districts, find the oldest
    /// undelivered order (range-min over the NEW_ORDER ordered index),
    /// delete its NEW_ORDER row, stamp the carrier, total its order lines
    /// (ordered range sum) and credit the customer. Districts with no
    /// pending order fall through via the missing-key no-op semantics
    /// (`RangeMinKey` yields 0, and every downstream op on key 0 is a
    /// no-op).
    fn gen_delivery(&mut self) -> Txn {
        let t = self.tables;
        let w = self.pick_warehouse();
        let carrier = self.rng.gen_range(1..=10i64);
        let params = vec![w, carrier];
        // Registers: 10 order key, 11 customer key, 12/13 OL bounds, 14 sum.
        let mut ops = Vec::with_capacity(9 * DISTRICTS_PER_W as usize);
        for d in 1..=DISTRICTS_PER_W {
            let base = order_key_base(w, d);
            ops.push(IrOp::RangeMinKey {
                table: t.new_order,
                lo: Src::Const(base),
                hi: Src::Const(base + (1 << 40)),
                out: 10,
            });
            ops.push(IrOp::Delete { table: t.new_order, key: Src::Reg(10) });
            ops.push(IrOp::Update {
                table: t.orders,
                key: Src::Reg(10),
                col: cols::O_CARRIER_ID,
                val: Src::Const(carrier),
            });
            ops.push(IrOp::Read { table: t.orders, key: Src::Reg(10), col: cols::O_C_ID, out: 11 });
            ops.push(IrOp::Compute { f: ComputeFn::Mul, a: Src::Reg(10), b: Src::Const(16), out: 12 });
            ops.push(IrOp::Compute { f: ComputeFn::Add, a: Src::Reg(12), b: Src::Const(16), out: 13 });
            ops.push(IrOp::RangeSum {
                table: t.order_line,
                lo: Src::Reg(12),
                hi: Src::Reg(13),
                col: cols::OL_AMOUNT,
                out: 14,
            });
            ops.push(IrOp::Add {
                table: t.customer,
                key: Src::Reg(11),
                col: cols::C_BALANCE,
                delta: Src::Reg(14),
            });
            ops.push(IrOp::Add {
                table: t.customer,
                key: Src::Reg(11),
                col: cols::C_DELIVERY_CNT,
                delta: Src::Const(1),
            });
        }
        Txn::new(PROC_DELIVERY, params, ops)
    }

    /// OrderStatus (full mix, read-only): customer balance/payment count
    /// plus the line total of a recent order. The order id is a predefined
    /// guess near the TID frontier (the paper predefines range-query keys
    /// for the same reason); a missed guess reads nothing.
    fn gen_orderstatus(&mut self) -> Txn {
        let t = self.tables;
        let w = self.pick_warehouse();
        let d = self.rng.gen_range(1..=DISTRICTS_PER_W);
        let c = nurand(&mut self.rng, 1_023, self.c_cust, 1, CUSTOMERS_PER_D);
        let guess_tid = self.rng.gen_range(1..=self.emitted.max(1));
        let okey = order_key_base(w, d) | guess_tid;
        let params = vec![w, d, c, guess_tid];
        let ops = vec![
            IrOp::Read { table: t.customer, key: Src::Const(cust_key(w, d, c)), col: cols::C_BALANCE, out: 0 },
            IrOp::Read { table: t.customer, key: Src::Const(cust_key(w, d, c)), col: cols::C_PAYMENT_CNT, out: 1 },
            IrOp::Read { table: t.orders, key: Src::Const(okey), col: cols::O_OL_CNT, out: 2 },
            IrOp::RangeSum {
                table: t.order_line,
                lo: Src::Const(orderline_key(okey, 0)),
                hi: Src::Const(orderline_key(okey, 0) + 16),
                col: cols::OL_AMOUNT,
                out: 3,
            },
        ];
        Txn::new(PROC_ORDERSTATUS, params, ops)
    }

    /// StockLevel (full mix, read-only): sum the quantities of the
    /// district's recent order lines and count low stock over a sampled
    /// item window (predefined key bounds, per the paper's hash-index
    /// constraint; the ordered STOCK index makes the count a true range
    /// scan).
    fn gen_stocklevel(&mut self) -> Txn {
        let t = self.tables;
        let w = self.pick_warehouse();
        let d = self.rng.gen_range(1..=DISTRICTS_PER_W);
        let threshold = self.rng.gen_range(10..=20i64);
        let recent_lo = (self.emitted - 200).max(1);
        let okey_lo = order_key_base(w, d) | recent_lo;
        let okey_hi = order_key_base(w, d) | (self.emitted + 1).max(2);
        let i0 = self.rng.gen_range(1..=ITEMS - 200);
        let params = vec![w, d, threshold];
        let ops = vec![
            IrOp::RangeSum {
                table: t.order_line,
                lo: Src::Const(orderline_key(okey_lo, 0)),
                hi: Src::Const(orderline_key(okey_hi, 0)),
                col: cols::OL_QUANTITY,
                out: 0,
            },
            IrOp::RangeCountBelow {
                table: t.stock,
                lo: Src::Const(stock_key(w, i0)),
                hi: Src::Const(stock_key(w, i0 + 200)),
                col: cols::S_QUANTITY,
                threshold: Src::Const(threshold),
                out: 1,
            },
        ];
        Txn::new(PROC_STOCKLEVEL, params, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_txn::declared::declared_accesses;
    use ltpg_txn::{execute_serial, Batch, Tid, TidGen};

    fn generator(pct: u8) -> (Database, TpccTables, TpccGenerator) {
        TpccGenerator::new(TpccConfig::new(2, pct).with_headroom(4_096))
    }

    #[test]
    fn all_generated_txns_validate_and_declare() {
        let (_db, _t, mut g) = generator(50);
        for txn in g.gen_batch(200) {
            txn.validate().expect("IR must validate");
            let mut t = txn.clone();
            t.tid = Tid(99);
            assert!(declared_accesses(&t).is_some(), "TPC-C must be statically declarable");
        }
    }

    #[test]
    fn mix_percentage_is_respected() {
        let (_db, _t, mut g) = generator(50);
        let batch = g.gen_batch(2_000);
        let neworders = batch.iter().filter(|t| t.proc == PROC_NEWORDER).count();
        assert!((800..1_200).contains(&neworders), "neworder count {neworders}");
        let (_db, _t, mut g100) = generator(100);
        assert!(g100.gen_batch(100).iter().all(|t| t.proc == PROC_NEWORDER));
        let (_db, _t, mut g0) = generator(0);
        assert!(g0.gen_batch(100).iter().all(|t| t.proc == PROC_PAYMENT));
    }

    #[test]
    fn serial_execution_of_a_batch_succeeds_and_grows_tables() {
        let (mut db, t, mut g) = generator(50);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], g.gen_batch(100), &mut gen);
        let mut orders = 0;
        for txn in &batch.txns {
            execute_serial(&mut db, txn).expect("serial TPC-C txn");
            if txn.proc == PROC_NEWORDER {
                orders += 1;
            }
        }
        assert_eq!(db.table(t.orders).live_rows(), orders);
        assert_eq!(db.table(t.new_order).live_rows(), orders);
        assert_eq!(db.table(t.history).live_rows(), 100 - orders);
        assert!(db.table(t.order_line).live_rows() >= orders * 5);
    }

    #[test]
    fn neworder_order_keys_are_unique_per_tid() {
        let (mut db, t, mut g) = generator(100);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], g.gen_batch(50), &mut gen);
        for txn in &batch.txns {
            execute_serial(&mut db, txn).unwrap();
        }
        // 50 orders, all distinct keys (insert would have failed otherwise).
        assert_eq!(db.table(t.orders).live_rows(), 50);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (_d1, _t1, mut g1) = TpccGenerator::new(TpccConfig::new(1, 50).with_headroom(64).with_seed(5));
        let (_d2, _t2, mut g2) = TpccGenerator::new(TpccConfig::new(1, 50).with_headroom(64).with_seed(5));
        assert_eq!(g1.gen_batch(50), g2.gen_batch(50));
    }

    #[test]
    fn partitions_one_preserves_classic_stream() {
        let mk = |cfg: TpccConfig| {
            let (_d, _t, mut g) = TpccGenerator::new(cfg);
            g.gen_batch(300)
        };
        let base = TpccConfig::new(4, 50).with_headroom(4_096);
        assert_eq!(mk(base.clone()), mk(base.with_partitions(1, 0)));
    }

    #[test]
    fn partitioned_remote_picks_stay_in_warehouse_group() {
        // 8 warehouses, 4 groups (w % 4), remote payments only, 0% cross.
        let cfg = TpccConfig::new(8, 0).with_headroom(4_096).with_partitions(4, 0);
        let (_d, _t, mut g) = TpccGenerator::new(cfg);
        let batch = g.gen_batch(2_000);
        let mut remote = 0;
        for t in &batch {
            // params: [w, d, cw, cd, c, amount, date]
            let (w, cw) = (t.params[0], t.params[2]);
            if w != cw {
                remote += 1;
                assert_eq!(w % 4, cw % 4, "remote pick left the warehouse group");
            }
        }
        assert!(remote > 100, "remote payments should still occur ({remote})");
    }

    #[test]
    fn cross_shard_pct_sends_remote_picks_out_of_group() {
        let cfg = TpccConfig::new(8, 0).with_headroom(4_096).with_partitions(4, 100);
        let (_d, _t, mut g) = TpccGenerator::new(cfg);
        let batch = g.gen_batch(2_000);
        let mut remote = 0;
        for t in &batch {
            let (w, cw) = (t.params[0], t.params[2]);
            if w != cw {
                remote += 1;
                assert_ne!(w % 4, cw % 4, "100% cross pick stayed in group");
            }
        }
        assert!(remote > 100, "remote payments should still occur ({remote})");
    }

    #[test]
    fn payment_remote_fraction_roughly_matches() {
        let (_db, _t, mut g) = generator(0);
        let batch = g.gen_batch(3_000);
        let remote = batch
            .iter()
            .filter(|t| {
                // params: [w, d, cw, cd, c, amount, date]
                t.params[0] != t.params[2]
            })
            .count();
        let frac = remote as f64 / 3_000.0;
        assert!((frac - 0.15).abs() < 0.03, "remote payment fraction {frac}");
    }
}
