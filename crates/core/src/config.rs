//! Engine configuration: optimization toggles (the axes of the paper's
//! ablation, Fig. 6b and Table VI), hot-column designations, data
//! synchronization mode, the simulated-device setup, and the server's
//! batching and retry policy ([`ServerConfig`]).

use std::collections::HashSet;

use ltpg_gpu_sim::DeviceConfig;
use ltpg_storage::{ColId, TableId};

/// Which of LTPG's optimizations are active. `OptFlags::all()` is the full
/// system; the ablation benches switch subsets off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptFlags {
    /// Adaptive warp division (§V-B): order lanes so each warp runs one
    /// procedure type.
    pub warp_division: bool,
    /// Dynamic hash buckets (§V-C): large buckets for popular tables.
    /// When off, every bucket has a single slot (`s_u = 1`).
    pub dynamic_buckets: bool,
    /// Logical reordering (§V-D): commit iff ¬WAW ∧ (¬RAW ∨ ¬WAR)
    /// instead of plain ¬WAW ∧ ¬RAW.
    pub logical_reordering: bool,
    /// Row-level conflict-flag splitting (§V-D): designated hot columns
    /// get their own conflict log so the rest of the row is unaffected.
    pub conflict_splitting: bool,
    /// Delayed updates (§V-D): commutative adds to designated hot columns
    /// skip conflict detection and fold at write-back via a warp merge.
    pub delayed_update: bool,
}

impl OptFlags {
    /// Everything on (the paper's default configuration).
    pub fn all() -> Self {
        OptFlags {
            warp_division: true,
            dynamic_buckets: true,
            logical_reordering: true,
            conflict_splitting: true,
            delayed_update: true,
        }
    }

    /// Everything off (the unenhanced baseline of Fig. 6b).
    pub fn none() -> Self {
        OptFlags {
            warp_division: false,
            dynamic_buckets: false,
            logical_reordering: false,
            conflict_splitting: false,
            delayed_update: false,
        }
    }

    /// The high-contention suite only (Table VI's "has optimization" axis
    /// toggles these three together).
    pub fn with_contention_suite(mut self, on: bool) -> Self {
        self.logical_reordering = on;
        self.conflict_splitting = on;
        self.delayed_update = on;
        self
    }
}

impl Default for OptFlags {
    fn default() -> Self {
        Self::all()
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct LtpgConfig {
    /// Optimization toggles.
    pub opts: OptFlags,
    /// Simulated device setup (warp size, memory mode, host parallelism).
    pub device: DeviceConfig,
    /// Largest batch the engine will see — sizes the conflict log.
    pub max_batch: usize,
    /// Columns that are *always* maintained commutatively (deterministic
    /// sequencer columns such as TPC-C's `D_NEXT_O_ID`). Independent of
    /// the `delayed_update` flag.
    pub commutative_cols: HashSet<(TableId, ColId)>,
    /// Hot columns covered by conflict splitting + delayed update when
    /// those optimizations are on (TPC-C: `W_YTD`, `D_YTD`).
    pub delayed_cols: HashSet<(TableId, ColId)>,
    /// Tables the operator pre-marks as popular (the engine also detects
    /// popularity at run time from `E = T/D`).
    pub premarked_popular: HashSet<TableId>,
    /// Estimated data accesses per transaction, used to size conflict-log
    /// hash tables before the first batch.
    pub est_accesses_per_txn: usize,
}

impl LtpgConfig {
    /// A configuration with the given optimization flags and defaults for
    /// everything else.
    pub fn with_opts(opts: OptFlags) -> Self {
        LtpgConfig { opts, ..LtpgConfig::default() }
    }

    /// Is this (table, column) treated commutatively for the *current*
    /// flags? (Always-commutative sequencers, plus delayed columns when
    /// the delayed-update optimization is on.)
    pub fn is_commutative(&self, table: TableId, col: ColId) -> bool {
        self.commutative_cols.contains(&(table, col))
            || (self.opts.delayed_update && self.delayed_cols.contains(&(table, col)))
    }

    /// Tables containing at least one commutatively-maintained column,
    /// whatever the flags say — deletes against them are force-aborted for
    /// soundness.
    pub fn commutative_tables(&self) -> HashSet<TableId> {
        self.commutative_cols.iter().chain(&self.delayed_cols).map(|&(t, _)| t).collect()
    }

    /// Is this column routed to a dedicated split conflict log?
    pub fn is_split(&self, table: TableId, col: ColId) -> bool {
        self.opts.conflict_splitting && self.delayed_cols.contains(&(table, col))
    }
}

/// A configuration's commutative columns as one column bitmask per table,
/// built once per engine: [`crate::stage_effects`] asks it per read and per
/// mutation where [`LtpgConfig::is_commutative`] and
/// [`LtpgConfig::commutative_tables`] would hash. The configuration's sets
/// stay what is configured.
#[derive(Debug, Clone, Default)]
pub struct CommutativeMask {
    /// Per table id: bit `c` is set when column `c` is commutative under
    /// the configuration's flags.
    cols: Vec<u128>,
    /// Per table id: whether the table holds a commutatively-maintained
    /// column, whatever the flags say.
    tables: Vec<bool>,
}

impl CommutativeMask {
    /// The mask of `cfg`'s sets under its flags.
    pub fn new(cfg: &LtpgConfig) -> Self {
        let mut mask = CommutativeMask::default();
        for &(t, c) in cfg.commutative_cols.iter().chain(&cfg.delayed_cols) {
            assert!(c.0 < 128, "commutative column {} of table {} is past the mask's 128", c.0, t.0);
            let t = usize::from(t.0);
            if mask.tables.len() <= t {
                mask.tables.resize(t + 1, false);
                mask.cols.resize(t + 1, 0);
            }
            mask.tables[t] = true;
            if cfg.is_commutative(TableId(t as u16), c) {
                mask.cols[t] |= 1 << c.0;
            }
        }
        mask
    }

    /// [`LtpgConfig::is_commutative`].
    #[inline]
    pub fn col(&self, table: TableId, col: ColId) -> bool {
        self.cols.get(usize::from(table.0)).is_some_and(|&m| col.0 < 128 && m >> col.0 & 1 == 1)
    }

    /// Whether [`LtpgConfig::commutative_tables`] holds `table`.
    #[inline]
    pub fn table(&self, table: TableId) -> bool {
        self.tables.get(usize::from(table.0)).is_some_and(|&t| t)
    }
}

impl Default for LtpgConfig {
    fn default() -> Self {
        LtpgConfig {
            opts: OptFlags::all(),
            device: DeviceConfig::default(),
            max_batch: 1 << 14,
            commutative_cols: HashSet::new(),
            delayed_cols: HashSet::new(),
            premarked_popular: HashSet::new(),
            est_accesses_per_txn: 16,
        }
    }
}

/// Server policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Transactions per batch (smaller final batches are allowed when
    /// draining).
    pub batch_size: usize,
    /// Pipeline mode: aborted transactions re-enter two batches later
    /// (their upload slot for the next batch has already left the host);
    /// otherwise the next batch.
    pub pipelined: bool,
    /// Take a durability checkpoint every `n` batches (None = only the
    /// initial checkpoint).
    pub checkpoint_every: Option<usize>,
    /// How many times to re-issue a batch whose upload failed transiently
    /// before declaring the device unusable.
    pub max_transient_retries: u32,
    /// Simulated backoff before the first retry, ns; doubles per attempt
    /// (the doubling exponent is clamped so arbitrarily high retry limits
    /// cannot overflow).
    pub retry_backoff_ns: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_size: 1 << 12,
            pipelined: true,
            checkpoint_every: None,
            max_transient_retries: 4,
            retry_backoff_ns: 5_000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_presets() {
        assert!(OptFlags::all().delayed_update);
        assert!(!OptFlags::none().warp_division);
        let partial = OptFlags::all().with_contention_suite(false);
        assert!(partial.warp_division && partial.dynamic_buckets);
        assert!(!partial.logical_reordering && !partial.delayed_update && !partial.conflict_splitting);
    }

    #[test]
    fn commutativity_respects_flags() {
        let mut cfg = LtpgConfig::default();
        let cell = (TableId(1), ColId(2));
        cfg.delayed_cols.insert(cell);
        assert!(cfg.is_commutative(cell.0, cell.1));
        cfg.opts.delayed_update = false;
        assert!(!cfg.is_commutative(cell.0, cell.1));
        // Sequencer columns stay commutative regardless.
        cfg.commutative_cols.insert(cell);
        assert!(cfg.is_commutative(cell.0, cell.1));
    }

    /// The mask answers what the configuration's sets answer, for every
    /// table and column, a table past the last configured one included,
    /// with the delayed-update flag on and off.
    #[test]
    fn the_commutative_mask_is_the_configured_sets() {
        let mut cfg = LtpgConfig::default();
        cfg.commutative_cols.insert((TableId(3), ColId(0)));
        cfg.delayed_cols.extend([(TableId(1), ColId(2)), (TableId(1), ColId(100)), (TableId(3), ColId(5))]);
        for delayed in [true, false] {
            cfg.opts.delayed_update = delayed;
            let mask = CommutativeMask::new(&cfg);
            let tables = cfg.commutative_tables();
            for t in (0..6).map(TableId) {
                assert_eq!(mask.table(t), tables.contains(&t), "table {}", t.0);
                for c in (0..130).map(ColId) {
                    assert_eq!(mask.col(t, c), cfg.is_commutative(t, c), "table {} col {}", t.0, c.0);
                }
            }
        }
    }

    #[test]
    fn split_routing_requires_flag() {
        let mut cfg = LtpgConfig::default();
        let cell = (TableId(0), ColId(0));
        cfg.delayed_cols.insert(cell);
        assert!(cfg.is_split(cell.0, cell.1));
        cfg.opts.conflict_splitting = false;
        assert!(!cfg.is_split(cell.0, cell.1));
    }
}
