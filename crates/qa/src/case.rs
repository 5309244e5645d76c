//! The unit of differential testing: a self-contained case bundling a
//! schema, its initial rows, a transaction schedule and the run
//! configuration (batching, sharding, fault plan).
//!
//! A [`QaCase`] carries everything needed to replay an execution — it is
//! what the generator produces, what the runner consumes, what the
//! shrinker minimizes and what the repro format serializes. Nothing in a
//! case refers back to the seed that produced it (the seed is kept only as
//! provenance), so a shrunk case replays identically forever even if the
//! generator evolves.

use ltpg::{LtpgConfig, ServerConfig};
use ltpg_shard::{Partitioner, TableRule};
use ltpg_storage::{ColId, Database, Table, TableBuilder, TableId};
use ltpg_txn::Txn;

/// One table of a case's schema plus its initial rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Table name (unique within the case).
    pub name: String,
    /// Number of value columns (named `c0..`).
    pub cols: u16,
    /// Row capacity (sized with insert headroom by the generator).
    pub capacity: usize,
    /// Whether the table carries an ordered (B+tree) index, enabling the
    /// `Range*` scan ops.
    pub ordered: bool,
    /// How the table's keys map to shards in the sharded pass.
    pub rule: ShardRule,
    /// Initial rows: `(key, one value per column)`.
    pub rows: Vec<(i64, Vec<i64>)>,
}

/// Per-table partitioning rule, mirroring [`TableRule`] in a form the
/// repro format can serialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRule {
    /// Multiplicative hash of the key.
    Hash,
    /// `owner = (key div stride) mod shards`.
    Stride(i64),
    /// Every shard holds a full copy (writes broadcast).
    Replicated,
}

impl ShardRule {
    /// The `ltpg-shard` rule this spec stands for.
    pub fn to_table_rule(self) -> TableRule {
        match self {
            ShardRule::Hash => TableRule::Hash,
            ShardRule::Stride(s) => TableRule::Stride { stride: s },
            ShardRule::Replicated => TableRule::Replicated,
        }
    }
}

/// A complete differential-testing case.
#[derive(Debug, Clone, PartialEq)]
pub struct QaCase {
    /// Generator seed (provenance only — replay never re-derives anything
    /// from it).
    pub seed: u64,
    /// Schema and initial data.
    pub tables: Vec<TableSpec>,
    /// The transaction schedule, in admission order. TIDs are assigned at
    /// batch assembly, so the `Txn::tid` fields here are ignored.
    pub txns: Vec<Txn>,
    /// Transactions per batch.
    pub batch_size: usize,
    /// Shard count of the server under test (1, 2 or 4).
    pub shards: u32,
    /// Whether the servers run in pipelined mode (re-entry delay 2).
    pub pipelined: bool,
    /// Checkpoint cadence of both servers.
    pub checkpoint_every: Option<usize>,
    /// Fault layer: shard `.0`'s device fails before tick `.1` of the
    /// server under test, however it is fed.
    pub fail_shard: Option<(u32, u32)>,
    /// Warm standby rows attached to the server under test: a loss then
    /// promotes a row instead of degrading to the CPU twin, and every
    /// differential assertion must hold regardless.
    pub standbys: u32,
    /// Treat column 0 of table 0 as always-commutative (exercises the
    /// delayed-merge and forced-abort paths).
    pub commutative_t0c0: bool,
    /// Ingress layer: the `ltpg-front` pipeline (lossless config) forms the
    /// batches of the server under test instead of direct submission. It
    /// selects this layer; it does not add a pass beside a directly fed
    /// sharded server.
    pub via_front: bool,
    /// Also run the batches through the two competing schedulers
    /// (Block-STM and the address graph): both promise bit-identical
    /// equivalence to serial TID-order execution, so their commit sets
    /// and final digests are differentially compared against a serial
    /// replay and the ordered-serializability oracle.
    pub via_schedulers: bool,
    /// Rebalance layer: a plan swapping table 0's rule cuts over at batch 1
    /// of the server under test. Only meaningful when `shards > 1`. It
    /// selects this layer; it does not add a second sharded run.
    pub via_rebalance: bool,
    /// Host threads of the engines under test: above one, helpers run the
    /// execute kernel's pre-pass ahead of its lanes (the references stay at
    /// one).
    pub host_threads: u32,
}

impl QaCase {
    /// Materialize the initial database.
    pub fn build_database(&self) -> Database {
        let mut db = Database::new();
        for spec in &self.tables {
            let col_names: Vec<String> =
                (0..spec.cols).map(|c| format!("c{c}")).collect();
            let schema = TableBuilder::new(&spec.name)
                .columns(col_names.iter().map(String::as_str))
                .capacity(spec.capacity)
                .build();
            let table = if spec.ordered {
                Table::new(schema).with_ordered()
            } else {
                Table::new(schema)
            };
            let id = db.add_built_table(table);
            for (key, vals) in &spec.rows {
                db.table(id).insert(*key, vals).expect("seed row insert");
            }
        }
        db
    }

    /// Engine configuration of the references (one host thread).
    pub fn engine_config(&self) -> LtpgConfig {
        let mut cfg = LtpgConfig { max_batch: self.batch_size.max(64), ..LtpgConfig::default() };
        cfg.device.parallel_host_threads = 1;
        if self.commutative_t0c0 && !self.tables.is_empty() {
            cfg.commutative_cols.insert((TableId(0), ColId(0)));
        }
        cfg
    }

    /// Engine configuration of the engines under test: the references' on
    /// `host_threads`.
    pub fn under_test_config(&self) -> LtpgConfig {
        let mut cfg = self.engine_config();
        cfg.device.parallel_host_threads = self.host_threads as usize;
        cfg
    }

    /// Server configuration shared by the reference and the server under test.
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            batch_size: self.batch_size,
            pipelined: self.pipelined,
            checkpoint_every: self.checkpoint_every,
            ..ServerConfig::default()
        }
    }

    /// Partitioner of the server under test.
    pub fn partitioner(&self) -> Partitioner {
        let mut p = Partitioner::new(self.shards, TableRule::Hash);
        for (i, spec) in self.tables.iter().enumerate() {
            p = p.with_rule(TableId(i as u16), spec.rule.to_table_rule());
        }
        p
    }

    /// Transactions per batch chunk, in admission order.
    pub fn batches(&self) -> impl Iterator<Item = &[Txn]> {
        self.txns.chunks(self.batch_size.max(1))
    }
}
