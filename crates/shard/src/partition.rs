//! Key-space partitioning: which shard owns which row.
//!
//! A [`Partitioner`] maps every `(table, key)` pair to a **home shard**
//! through a per-table [`TableRule`]. The mapping is a pure function of
//! the rule set — no `RandomState`, no per-process salt — so every node
//! that holds the same rules derives the same homes, which is what lets
//! the [router](crate::Router) classify transactions identically on every
//! shard and across restarts.
//!
//! Row ownership is the only ownership. The membership (phantom-guard)
//! marker of key partition `p` of a table is owned with the smallest key
//! of that partition (`p << MEMBERSHIP_PARTITION_SHIFT`, the marker's
//! anchor key — `ltpg::footprint::Cell::anchor`), so executors ask
//! [`Partitioner::owns_row`] about every conflict cell. For rules whose
//! granularity is at least one membership partition (e.g. the TPC-C
//! order-table strides, which are multiples of 2⁴⁰), the marker's owner
//! coincides with the row owner of every key in the partition.
//!
//! Rules are **validated at construction** ([`Partitioner::try_new`] /
//! [`Partitioner::try_with_rule`]): unsorted or oversized range bounds and
//! non-positive strides are rejected with a typed [`PartitionError`]
//! instead of being silently clamped at routing time, where a mis-ordered
//! rebalance plan would mis-home rows before anyone noticed.

use ltpg_storage::{TableId, MEMBERSHIP_PARTITION_SHIFT};
use ltpg_workloads::tpcc::TpccTables;
use ltpg_workloads::YcsbConfig;
use std::collections::BTreeMap;
use std::fmt;

/// How one table's keys map to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableRule {
    /// Multiplicative hash of the key (Fibonacci constant), mapped to a
    /// shard by widened multiply-shift. The default for tables with no
    /// exploitable structure.
    Hash,
    /// `owner = (key div stride) mod shards`. Composite keys that pack a
    /// partition-aligned field (e.g. the TPC-C warehouse) above a
    /// `stride`-sized sub-key all land on that field's shard.
    Stride {
        /// Keys per contiguous run; must be positive.
        stride: i64,
    },
    /// Sorted split points: `owner = #{b in bounds : b <= key}`. Pairs
    /// with contiguous key-range generators
    /// ([`YcsbConfig::partition_bounds`]).
    Range {
        /// Strictly ascending split points; `len + 1` ranges require
        /// `len + 1 <= n` shards (extra shards simply own no range of
        /// this table). Validated at construction.
        bounds: Vec<i64>,
    },
    /// Range partitioning with an explicit home per range: range `i`
    /// (keys in `[bounds[i-1], bounds[i])`) is owned by `homes[i]`.
    /// Unlike [`TableRule::Range`], homes need not be `0..len` — this is
    /// the shape rebalance plans produce when they split, merge, or move
    /// ranges between shards.
    RangeMap {
        /// Strictly ascending split points.
        bounds: Vec<i64>,
        /// Home shard per range; `homes.len() == bounds.len() + 1` and
        /// every home `< shards`. Validated at construction.
        homes: Vec<u32>,
    },
    /// Every shard holds a full copy. Reads are always local; writes must
    /// reach every copy, so the router broadcasts writers of replicated
    /// tables.
    Replicated,
}

/// Why a rule set was rejected at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The partitioner was asked to cover zero shards.
    NoShards,
    /// A stride rule carried a non-positive stride.
    BadStride {
        /// The offending stride.
        stride: i64,
    },
    /// Range bounds were not strictly ascending.
    UnsortedBounds {
        /// Index of the first bound that is `<=` its predecessor.
        at: usize,
    },
    /// A `Range` rule named more ranges than there are shards, so the
    /// trailing ranges would all collapse onto the last shard.
    TooManyRanges {
        /// Ranges the rule describes (`bounds.len() + 1`).
        ranges: usize,
        /// Shards available.
        shards: u32,
    },
    /// A `RangeMap` rule's home list does not cover its ranges
    /// one-to-one.
    HomesMismatch {
        /// Homes supplied.
        homes: usize,
        /// Ranges the bounds describe (`bounds.len() + 1`).
        ranges: usize,
    },
    /// A `RangeMap` home pointed past the last shard.
    HomeOutOfRange {
        /// The offending home.
        home: u32,
        /// Shards available.
        shards: u32,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoShards => write!(f, "need at least one shard"),
            PartitionError::BadStride { stride } => {
                write!(f, "stride must be positive (got {stride})")
            }
            PartitionError::UnsortedBounds { at } => {
                write!(f, "range bounds must be strictly ascending (violation at index {at})")
            }
            PartitionError::TooManyRanges { ranges, shards } => {
                write!(f, "range rule describes {ranges} ranges but only {shards} shards exist")
            }
            PartitionError::HomesMismatch { homes, ranges } => {
                write!(f, "range map has {homes} homes for {ranges} ranges")
            }
            PartitionError::HomeOutOfRange { home, shards } => {
                write!(f, "range map home {home} out of range for {shards} shards")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Strictly-ascending check shared by the range rules.
fn check_ascending(bounds: &[i64]) -> Result<(), PartitionError> {
    if let Some(at) = (1..bounds.len()).find(|&i| bounds[i] <= bounds[i - 1]) {
        return Err(PartitionError::UnsortedBounds { at });
    }
    Ok(())
}

/// Validate one rule against a shard count.
fn check_rule(rule: &TableRule, shards: u32) -> Result<(), PartitionError> {
    match rule {
        TableRule::Hash | TableRule::Replicated => Ok(()),
        TableRule::Stride { stride } => {
            if *stride > 0 {
                Ok(())
            } else {
                Err(PartitionError::BadStride { stride: *stride })
            }
        }
        TableRule::Range { bounds } => {
            check_ascending(bounds)?;
            let ranges = bounds.len() + 1;
            if ranges > shards as usize {
                return Err(PartitionError::TooManyRanges { ranges, shards });
            }
            Ok(())
        }
        TableRule::RangeMap { bounds, homes } => {
            check_ascending(bounds)?;
            let ranges = bounds.len() + 1;
            if homes.len() != ranges {
                return Err(PartitionError::HomesMismatch { homes: homes.len(), ranges });
            }
            if let Some(&home) = homes.iter().find(|h| **h >= shards) {
                return Err(PartitionError::HomeOutOfRange { home, shards });
            }
            Ok(())
        }
    }
}

/// A deterministic `(table, key) -> shard` mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioner {
    shards: u32,
    default_rule: TableRule,
    rules: BTreeMap<TableId, TableRule>,
}

impl Partitioner {
    /// A partitioner over `shards` shards applying `default_rule` to every
    /// table without a specific rule. Panics on an invalid rule; see
    /// [`try_new`](Self::try_new) for the fallible form.
    pub fn new(shards: u32, default_rule: TableRule) -> Self {
        Partitioner::try_new(shards, default_rule)
            .unwrap_or_else(|e| panic!("invalid partitioner: {e}"))
    }

    /// Fallible [`new`](Self::new): rejects zero shards and malformed
    /// rules with a typed error instead of panicking.
    pub fn try_new(shards: u32, default_rule: TableRule) -> Result<Self, PartitionError> {
        if shards < 1 {
            return Err(PartitionError::NoShards);
        }
        check_rule(&default_rule, shards)?;
        Ok(Partitioner { shards, default_rule, rules: BTreeMap::new() })
    }

    /// A hash-everything partitioner (no table structure assumed).
    pub fn hash(shards: u32) -> Self {
        Partitioner::new(shards, TableRule::Hash)
    }

    /// Attach a per-table rule (builder style). Panics on an invalid
    /// rule; see [`try_with_rule`](Self::try_with_rule).
    pub fn with_rule(self, table: TableId, rule: TableRule) -> Self {
        self.try_with_rule(table, rule)
            .unwrap_or_else(|e| panic!("invalid rule for table: {e}"))
    }

    /// Fallible [`with_rule`](Self::with_rule): rejects unsorted or
    /// oversized range bounds, bad strides, and out-of-range homes.
    pub fn try_with_rule(mut self, table: TableId, rule: TableRule) -> Result<Self, PartitionError> {
        check_rule(&rule, self.shards)?;
        self.rules.insert(table, rule);
        Ok(self)
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    fn rule(&self, table: TableId) -> &TableRule {
        self.rules.get(&table).unwrap_or(&self.default_rule)
    }

    /// The effective rule for `table` (its override, or the default).
    pub fn table_rule(&self, table: TableId) -> &TableRule {
        self.rule(table)
    }

    /// The rule applied to tables without a per-table override.
    pub fn default_rule(&self) -> &TableRule {
        &self.default_rule
    }

    /// Whether every shard holds a full copy of `table`.
    pub fn is_replicated(&self, table: TableId) -> bool {
        matches!(self.rule(table), TableRule::Replicated)
    }

    /// Home shard of `(table, key)`. Replicated tables report shard 0 as
    /// their nominal home; use [`owns_row`](Self::owns_row) for ownership.
    pub fn home(&self, table: TableId, key: i64) -> u32 {
        match self.rule(table) {
            TableRule::Hash => {
                let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                // Widened multiply-shift: maps the full 64-bit hash onto
                // `0..shards` without the modulo bias (and entropy loss)
                // of `(h >> 32) % n`.
                ((u128::from(h) * u128::from(self.shards)) >> 64) as u32
            }
            TableRule::Stride { stride } => {
                key.div_euclid(*stride).rem_euclid(i64::from(self.shards)) as u32
            }
            TableRule::Range { bounds } => {
                // Construction guarantees `bounds.len() + 1 <= shards`,
                // so the index is always a valid shard — no clamp.
                bounds.partition_point(|b| *b <= key) as u32
            }
            TableRule::RangeMap { bounds, homes } => {
                homes[bounds.partition_point(|b| *b <= key)]
            }
            TableRule::Replicated => 0,
        }
    }

    /// Owner of membership (phantom-guard) partition `p` of `table`: the
    /// home of the partition's smallest key.
    pub fn membership_owner(&self, table: TableId, partition: i64) -> u32 {
        self.home(table, partition << MEMBERSHIP_PARTITION_SHIFT)
    }

    /// Does `shard` own row `(table, key)`? Replicated tables are owned
    /// everywhere.
    pub fn owns_row(&self, shard: u32, table: TableId, key: i64) -> bool {
        self.is_replicated(table) || self.home(table, key) == shard
    }

    /// Row predicate for carving shard `shard`'s database slice out of a
    /// global snapshot (see `ltpg_storage::Database::partition_clone`):
    /// replicated tables keep every row, others keep the rows homed here.
    pub fn slice_pred(&self, shard: u32) -> impl Fn(TableId, i64) -> bool + '_ {
        move |t, k| self.owns_row(shard, t, k)
    }
}

/// The warehouse-aligned TPC-C partitioner: every composite key packs the
/// warehouse above a fixed-size sub-key, so stride rules recover `w` and
/// route each table's rows to shard `w mod n`. ITEM is read-only catalogue
/// data and is replicated; HISTORY is keyed by TID (no warehouse in the
/// key) and falls back to hashing — Payment transactions therefore always
/// carry a cross-shard HISTORY insert (see `TpccConfig::partitions`).
pub fn tpcc_partitioner(shards: u32, t: &TpccTables) -> Partitioner {
    Partitioner::new(shards, TableRule::Hash)
        .with_rule(t.warehouse, TableRule::Stride { stride: 1 })
        .with_rule(t.district, TableRule::Stride { stride: 16 })
        .with_rule(t.customer, TableRule::Stride { stride: 16 * 4_096 })
        .with_rule(t.stock, TableRule::Stride { stride: 131_072 })
        .with_rule(t.item, TableRule::Replicated)
        .with_rule(t.orders, TableRule::Stride { stride: 16 << 40 })
        .with_rule(t.new_order, TableRule::Stride { stride: 16 << 40 })
        .with_rule(t.order_line, TableRule::Stride { stride: 256 << 40 })
        .with_rule(t.history, TableRule::Hash)
}

/// The range partitioner matching a partitioned YCSB generator: the
/// `usertable`'s contiguous key partitions map one-to-one onto shards, so
/// a `cross_shard_pct = 0` stream is single-shard by construction.
pub fn ycsb_partitioner(shards: u32, usertable: TableId, cfg: &YcsbConfig) -> Partitioner {
    assert_eq!(
        shards, cfg.partitions,
        "shard count must match the generator's partition count"
    );
    Partitioner::new(shards, TableRule::Hash)
        .with_rule(usertable, TableRule::Range { bounds: cfg.partition_bounds() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_workloads::tpcc::{cust_key, dist_key, order_key, orderline_key, stock_key, wh_key};
    use ltpg_workloads::YcsbWorkload;

    const T: TableId = TableId(0);

    #[test]
    fn stride_and_range_rules_agree_with_their_generators() {
        let cfg = YcsbConfig::new(YcsbWorkload::A, 1_000).with_partitions(4, 0);
        let p = ycsb_partitioner(4, T, &cfg);
        let size = cfg.partition_size() as i64;
        for k in 1..=1_000 {
            assert_eq!(i64::from(p.home(T, k)), ((k - 1) / size).min(3), "key {k}");
        }
    }

    #[test]
    fn hash_rule_is_deterministic_and_spread() {
        let p = Partitioner::hash(8);
        let mut hit = [false; 8];
        for k in 0..1_000 {
            let h = p.home(T, k);
            assert_eq!(h, p.home(T, k));
            assert!(h < 8);
            hit[h as usize] = true;
        }
        assert!(hit.iter().all(|&b| b), "all shards should receive keys");
    }

    #[test]
    fn hash_rule_is_unbiased_across_odd_shard_counts() {
        // The widened multiply-shift should keep every shard within a
        // loose tolerance of the uniform share, even for shard counts
        // that are not powers of two (where `% n` of a truncated hash
        // was visibly biased).
        for shards in [3u32, 5, 7, 12] {
            let p = Partitioner::hash(shards);
            let mut counts = vec![0u32; shards as usize];
            let n = 50_000i64;
            for k in 0..n {
                counts[p.home(T, k) as usize] += 1;
            }
            let expect = n as f64 / f64::from(shards);
            for (s, &c) in counts.iter().enumerate() {
                let ratio = f64::from(c) / expect;
                assert!(
                    (0.9..=1.1).contains(&ratio),
                    "shard {s}/{shards} got {c} of {n} keys (ratio {ratio:.3})"
                );
            }
        }
    }

    #[test]
    fn range_map_routes_by_explicit_homes() {
        let p = Partitioner::new(4, TableRule::Hash).with_rule(
            T,
            TableRule::RangeMap { bounds: vec![10, 20], homes: vec![2, 0, 3] },
        );
        assert_eq!(p.home(T, i64::MIN), 2);
        assert_eq!(p.home(T, 9), 2);
        assert_eq!(p.home(T, 10), 0);
        assert_eq!(p.home(T, 19), 0);
        assert_eq!(p.home(T, 20), 3);
        assert_eq!(p.home(T, i64::MAX), 3);
    }

    #[test]
    fn construction_rejects_malformed_rules() {
        assert_eq!(
            Partitioner::try_new(0, TableRule::Hash).unwrap_err(),
            PartitionError::NoShards
        );
        assert_eq!(
            Partitioner::try_new(2, TableRule::Stride { stride: 0 }).unwrap_err(),
            PartitionError::BadStride { stride: 0 }
        );
        let base = || Partitioner::hash(2);
        assert_eq!(
            base().try_with_rule(T, TableRule::Range { bounds: vec![5, 5] }).unwrap_err(),
            PartitionError::UnsortedBounds { at: 1 }
        );
        assert_eq!(
            base().try_with_rule(T, TableRule::Range { bounds: vec![9, 3] }).unwrap_err(),
            PartitionError::UnsortedBounds { at: 1 }
        );
        // Three ranges cannot be served by two shards — previously this
        // clamped silently at routing time.
        assert_eq!(
            base().try_with_rule(T, TableRule::Range { bounds: vec![1, 2] }).unwrap_err(),
            PartitionError::TooManyRanges { ranges: 3, shards: 2 }
        );
        assert_eq!(
            base()
                .try_with_rule(T, TableRule::RangeMap { bounds: vec![1], homes: vec![0] })
                .unwrap_err(),
            PartitionError::HomesMismatch { homes: 1, ranges: 2 }
        );
        assert_eq!(
            base()
                .try_with_rule(T, TableRule::RangeMap { bounds: vec![1], homes: vec![0, 2] })
                .unwrap_err(),
            PartitionError::HomeOutOfRange { home: 2, shards: 2 }
        );
        // A well-formed map is accepted.
        assert!(base()
            .try_with_rule(T, TableRule::RangeMap { bounds: vec![1], homes: vec![1, 0] })
            .is_ok());
    }

    #[test]
    fn tpcc_rules_route_every_table_by_warehouse() {
        let t = TpccTables {
            warehouse: TableId(0),
            district: TableId(1),
            customer: TableId(2),
            item: TableId(3),
            stock: TableId(4),
            orders: TableId(5),
            new_order: TableId(6),
            order_line: TableId(7),
            history: TableId(8),
        };
        let p = tpcc_partitioner(4, &t);
        for w in 1..=16i64 {
            let shard = (w % 4) as u32;
            assert_eq!(p.home(t.warehouse, wh_key(w)), shard);
            for d in [1, 10] {
                assert_eq!(p.home(t.district, dist_key(w, d)), shard);
                assert_eq!(p.home(t.customer, cust_key(w, d, 3_000)), shard);
                let ok = order_key(w, d, (1 << 40) - 1);
                assert_eq!(p.home(t.orders, ok), shard);
                assert_eq!(p.home(t.new_order, ok), shard);
                assert_eq!(p.home(t.order_line, orderline_key(ok, 15)), shard);
                // Membership partitions of the order tables are owned by
                // the same shard as their rows.
                assert_eq!(p.membership_owner(t.orders, ok >> 40), shard);
                assert_eq!(p.membership_owner(t.order_line, orderline_key(ok, 15) >> 40), shard);
            }
            assert_eq!(p.home(t.stock, stock_key(w, 100_000)), shard);
            assert!(p.owns_row(0, t.item, 5) && p.owns_row(3, t.item, 5));
        }
    }
}
