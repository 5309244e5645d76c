//! The reference interpreter.
//!
//! [`execute_speculative`] defines the semantics of the IR: it runs a
//! transaction against a database **without mutating it**, buffering writes
//! locally (with read-your-own-writes visibility) and recording every access
//! in a [`TxnEffects`]. This is precisely what a deterministic-OCC execute
//! phase does; it is also the building block of the serial reference
//! executor ([`execute_serial`]) and of the serializability oracle.
//! [`execute_speculative_into`] is the same interpreter writing into
//! buffers its caller keeps from transaction to transaction, for a hot path
//! that must not allocate per transaction.

use std::cell::RefCell;

use ltpg_storage::index::mix_key;
use ltpg_storage::{ColId, Database, RowId, TableError, TableId};

use crate::ir::{IrOp, Src};
use crate::txn::{Tid, Txn};

/// A recorded read. `col: None` records a row-*existence* probe (insert
/// duplicate checks, reads/updates of missing keys, scan probes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadAccess {
    /// Table read.
    pub table: TableId,
    /// Primary key probed.
    pub key: i64,
    /// Cell column, or `None` for an existence probe.
    pub col: Option<ColId>,
    /// Value observed (0 for missing cells; 0/1 for existence probes).
    pub value: i64,
}

/// A buffered mutation, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Overwrite one cell.
    Update {
        /// Table mutated.
        table: TableId,
        /// Row key.
        key: i64,
        /// Column.
        col: ColId,
        /// New value.
        value: i64,
    },
    /// Commutative add to one cell.
    Add {
        /// Table mutated.
        table: TableId,
        /// Row key.
        key: i64,
        /// Column.
        col: ColId,
        /// Delta to add.
        delta: i64,
    },
    /// Insert a row.
    Insert {
        /// Table mutated.
        table: TableId,
        /// New row key.
        key: i64,
        /// Full row of column values.
        values: Vec<i64>,
    },
    /// Delete a row.
    Delete {
        /// Table mutated.
        table: TableId,
        /// Row key.
        key: i64,
    },
}

impl Mutation {
    /// The `(table, row key)` this mutation targets.
    #[inline]
    pub fn row(&self) -> (TableId, i64) {
        match self {
            Mutation::Update { table, key, .. }
            | Mutation::Add { table, key, .. }
            | Mutation::Insert { table, key, .. }
            | Mutation::Delete { table, key } => (*table, *key),
        }
    }
}

/// Everything a transaction did, as observed against its read snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnEffects {
    /// The transaction's TID (copied for convenience).
    pub tid: Tid,
    /// All reads, in program order.
    pub reads: Vec<ReadAccess>,
    /// All buffered mutations, in program order.
    pub mutations: Vec<Mutation>,
}

impl TxnEffects {
    /// Count of point reads (cell reads, not existence probes).
    pub fn cell_reads(&self) -> usize {
        self.reads.iter().filter(|r| r.col.is_some()).count()
    }

    /// Approximate device→host bytes for shipping this read/write set
    /// (paper Table V): compact 4-byte mutation records plus a 1-byte
    /// read-set bitmap entry per read and a 16-byte header.
    pub fn rw_set_bytes(&self) -> u64 {
        (self.mutations.len() * 4 + self.reads.len() + 8) as u64
    }
}

/// Why speculative execution failed. Engine-level aborts (conflicts) are
/// *not* errors; these are user/logic aborts defined by the IR semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Insert hit an existing key.
    DuplicateInsert {
        /// Table of the failed insert.
        table: TableId,
        /// Conflicting key.
        key: i64,
    },
}

/// The storage a speculating transaction reads from. [`Database`] is the
/// canonical implementation; baselines substitute their own views (e.g.
/// BOHM reads TID-visible versions from a multi-version store).
pub trait CellStore {
    /// Read one cell; `None` if the row does not exist.
    fn cell(&self, table: TableId, key: i64, col: ColId) -> Option<i64>;
    /// Does the row exist?
    fn row_exists(&self, table: TableId, key: i64) -> bool;
    /// Column count of a table (insert width checking).
    fn row_width(&self, table: TableId) -> usize;
    /// Existing keys in `[lo, hi)` in ascending order, or `None` when the
    /// table carries no ordered index (or the store does not support
    /// ordered scans — only snapshot-reading engines do).
    fn range_keys(&self, table: TableId, lo: i64, hi: i64) -> Option<Vec<i64>> {
        let _ = (table, lo, hi);
        None
    }
}

impl CellStore for Database {
    #[inline]
    fn cell(&self, table: TableId, key: i64, col: ColId) -> Option<i64> {
        let t = self.table(table);
        t.lookup(key).map(|rid| t.get(rid, col))
    }

    #[inline]
    fn row_exists(&self, table: TableId, key: i64) -> bool {
        self.table(table).lookup(key).is_some()
    }

    #[inline]
    fn row_width(&self, table: TableId) -> usize {
        self.table(table).width()
    }

    fn range_keys(&self, table: TableId, lo: i64, hi: i64) -> Option<Vec<i64>> {
        self.table(table)
            .ordered()
            .map(|ord| ord.range(lo, hi).into_iter().map(|(k, _)| k).collect())
    }
}

/// Finds a row's buffered writes in [`TxnEffects::mutations`], which is the
/// one write buffer of a speculation: program-ordered, so walking a row's
/// mutations newest-first meets the entry that decides what the transaction
/// sees — its latest overwrite of the cell, the row it inserted, or its
/// delete (which hides every older write of the row).
///
/// Rows are hashed ([`mix_key`]) into an open-addressed table of chain
/// heads, and each mutation links to the previous one of its row. A plain
/// newest-first scan of the vector was measured first and is quadratic:
/// 1 000 writes to distinct rows followed by 1 000 reads speculated in
/// 1.39 ms (0.23 ms with `std` hash maps keyed by cell and by row, 0.05 ms
/// with this index), and at TPC-C NewOrder's ~75 writes it was already no
/// faster than the maps.
#[derive(Default)]
struct WriteIndex {
    /// `heads[slot]` = 1 + index of the newest mutation of the row that
    /// probes to `slot`; 0 = free. Power-of-two length, at least twice the
    /// transaction's write ops, so a free slot always ends a probe.
    heads: Vec<u32>,
    /// `prev[i]` = 1 + index of the previous mutation of mutation `i`'s
    /// row; 0 = none.
    prev: Vec<u32>,
}

impl WriteIndex {
    /// Empty the index for a transaction with `writes` write ops, keeping
    /// its vectors.
    fn reset(&mut self, writes: usize) {
        let slots = if writes == 0 { 0 } else { (2 * writes).next_power_of_two() };
        self.heads.clear();
        self.heads.resize(slots, 0);
        self.prev.clear();
    }

    /// The slot holding the chain head of row `(table, key)`, or the free
    /// slot its first mutation will claim.
    fn slot(&self, mutations: &[Mutation], table: TableId, key: i64) -> usize {
        let mask = self.heads.len() - 1;
        let mut slot = mix_key(key ^ (i64::from(table.0) << 48)) as usize & mask;
        while self.heads[slot] != 0 && mutations[self.heads[slot] as usize - 1].row() != (table, key) {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Link the mutation about to be pushed at index `mutations.len()`.
    fn note(&mut self, mutations: &[Mutation], table: TableId, key: i64) {
        let slot = self.slot(mutations, table, key);
        self.prev.push(self.heads[slot]);
        self.heads[slot] = mutations.len() as u32 + 1;
    }

    /// The buffered mutations of row `(table, key)`, newest first.
    fn row_writes<'m>(
        &'m self,
        mutations: &'m [Mutation],
        table: TableId,
        key: i64,
    ) -> impl Iterator<Item = &'m Mutation> {
        // A transaction without write ops has no table to probe.
        let newest =
            if self.heads.is_empty() { 0 } else { self.heads[self.slot(mutations, table, key)] };
        std::iter::successors(newest.checked_sub(1), |&i| self.prev[i as usize].checked_sub(1))
            .map(|i| &mutations[i as usize])
    }
}

/// A speculation's register file and write index: per thread, kept from
/// transaction to transaction ([`SCRATCH`]).
#[derive(Default)]
struct Scratch {
    regs: Vec<i64>,
    index: WriteIndex,
}

thread_local! {
    /// This thread's [`Scratch`]. Speculation never re-enters itself (a
    /// [`CellStore`] only reads), so one per thread is enough.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Buffers a speculation writes into ([`execute_speculative_into`]). The
/// caller keeps them from transaction to transaction: each speculation
/// empties them and refills them in place, so once they have held a
/// transaction of some shape the next one of that shape allocates nothing.
#[derive(Debug, Default)]
pub struct SpecBuffers {
    /// All reads, in program order.
    pub reads: Vec<ReadAccess>,
    /// All buffered mutations, in program order. A caller may drop
    /// mutations from it (staging does); the rows of the inserts it keeps
    /// return to the pool at the next speculation.
    pub mutations: Vec<Mutation>,
    /// Tables a buffered insert or delete reshapes, as bit `t % 64` of
    /// table id `t` ([`Self::writes_snapshot_rows`]).
    reshaped: u64,
    /// Row vectors for the next speculation's inserts: the ones the
    /// previous occupant's inserts held.
    rows: Vec<Vec<i64>>,
}

impl SpecBuffers {
    /// Empty the buffers, keeping their capacity: the rows of the buffered
    /// inserts go back to the pool.
    pub fn clear(&mut self) {
        self.reads.clear();
        self.reshaped = 0;
        for m in self.mutations.drain(..) {
            if let Mutation::Insert { values, .. } = m {
                self.rows.push(values);
            }
        }
    }

    /// [`TxnEffects::rw_set_bytes`] of what the buffers held when the
    /// speculation ended, before any mutation was dropped.
    pub fn rw_set_bytes(&self) -> u64 {
        (self.mutations.len() * 4 + self.reads.len() + 8) as u64
    }

    /// Whether every buffered update or add of `table` writes the row its
    /// key resolves to in the store the speculation read: true unless the
    /// transaction also inserts into or deletes from a table whose id is
    /// `table`'s modulo 64, and so may have replaced the row first.
    #[inline]
    pub fn writes_snapshot_rows(&self, table: TableId) -> bool {
        self.reshaped & (1 << (table.0 % 64)) == 0
    }
}

/// Executes ops against a [`CellStore`] with buffered writes, into
/// buffers it borrows.
struct Speculator<'a, S: CellStore + ?Sized> {
    db: &'a S,
    tid: Tid,
    regs: &'a mut [i64],
    index: &'a mut WriteIndex,
    reads: &'a mut Vec<ReadAccess>,
    mutations: &'a mut Vec<Mutation>,
    reshaped: &'a mut u64,
    /// Row vectors for inserts; popped, refilled, pushed back on a
    /// duplicate.
    rows: &'a mut Vec<Vec<i64>>,
}

impl<'a, S: CellStore + ?Sized> Speculator<'a, S> {
    fn resolve(&self, s: Src, params: &[i64]) -> i64 {
        match s {
            Src::Const(v) => v,
            Src::Param(p) => params[usize::from(p)],
            Src::Reg(r) => self.regs[usize::from(r)],
            Src::Tid => self.tid.0 as i64,
        }
    }

    /// This transaction's buffered writes to row `(table, key)`, newest
    /// first.
    fn row_writes(&self, table: TableId, key: i64) -> impl Iterator<Item = &Mutation> {
        self.index.row_writes(self.mutations, table, key)
    }

    /// Buffer `m`, a write to row `(table, key)`.
    fn buffer(&mut self, table: TableId, key: i64, m: Mutation) {
        if matches!(m, Mutation::Insert { .. } | Mutation::Delete { .. }) {
            *self.reshaped |= 1 << (table.0 % 64);
        }
        self.index.note(self.mutations, table, key);
        self.mutations.push(m);
    }

    /// Whether this transaction's own writes decide that `key` exists:
    /// `None` when it never wrote the row.
    fn exists_locally(&self, table: TableId, key: i64) -> Option<bool> {
        // Updates and adds are only buffered against a row that exists.
        self.row_writes(table, key).next().map(|m| !matches!(m, Mutation::Delete { .. }))
    }

    /// Does `key` exist from this transaction's point of view?
    fn exists(&self, table: TableId, key: i64) -> bool {
        self.exists_locally(table, key).unwrap_or_else(|| self.db.row_exists(table, key))
    }

    /// Read one cell through the write buffer.
    fn read_cell(&self, table: TableId, key: i64, col: ColId) -> Option<i64> {
        // Adds newer than the cell's base value, folded in on the way out.
        let mut added = 0i64;
        for m in self.row_writes(table, key) {
            match m {
                Mutation::Update { col: c, value, .. } if *c == col => {
                    return Some(value.wrapping_add(added));
                }
                Mutation::Add { col: c, delta, .. } if *c == col => {
                    added = added.wrapping_add(*delta);
                }
                Mutation::Update { .. } | Mutation::Add { .. } => {}
                Mutation::Insert { values, .. } => {
                    return Some(values[col.idx()].wrapping_add(added));
                }
                Mutation::Delete { .. } => return None,
            }
        }
        self.db.cell(table, key, col).map(|v| v.wrapping_add(added))
    }

    fn record_cell_read(&mut self, table: TableId, key: i64, col: ColId, value: i64) {
        self.reads.push(ReadAccess { table, key, col: Some(col), value });
    }

    fn record_existence_read(&mut self, table: TableId, key: i64, existed: bool) {
        self.reads.push(ReadAccess { table, key, col: None, value: i64::from(existed) });
    }

    /// Record reads of the membership predicate cells covering `[lo, hi)`
    /// (phantom protection for ordered scans). One cell per key partition;
    /// ranges in practice span a single partition (a TPC-C district's
    /// orders, a YCSB keyspace).
    fn record_membership_read(&mut self, table: TableId, lo: i64, hi: i64) {
        let p_lo = lo >> ltpg_storage::MEMBERSHIP_PARTITION_SHIFT;
        let p_hi = (hi - 1).max(lo) >> ltpg_storage::MEMBERSHIP_PARTITION_SHIFT;
        assert!(
            p_hi - p_lo <= 64,
            "ordered scan spans {} membership partitions (max 64)",
            p_hi - p_lo + 1
        );
        for p in p_lo..=p_hi {
            self.reads.push(ReadAccess {
                table,
                key: ltpg_storage::membership_key(p),
                col: None,
                value: 0,
            });
        }
    }

    /// Ordered keys in `[lo, hi)` as this transaction sees them: the
    /// store's range merged with local inserts, minus local deletes.
    fn range_view(&self, table: TableId, lo: i64, hi: i64) -> Vec<i64> {
        let mut keys = self
            .db
            .range_keys(table, lo, hi)
            .unwrap_or_else(|| panic!("table {} has no ordered index (RangeSum/RangeMinKey/RangeCountBelow need Table::with_ordered)", table.0));
        keys.retain(|k| self.exists_locally(table, *k) != Some(false));
        for m in self.mutations.iter() {
            if let Mutation::Insert { table: t, key: k, .. } = m {
                if *t == table
                    && (lo..hi).contains(k)
                    && self.exists_locally(table, *k) == Some(true)
                    && !keys.contains(k)
                {
                    keys.push(*k);
                }
            }
        }
        keys.sort_unstable();
        keys
    }

    fn run(&mut self, txn: &Txn) -> Result<(), ExecError> {
        for op in &txn.ops {
            match op {
                IrOp::Read { table, key, col, out } => {
                    let k = self.resolve(*key, &txn.params);
                    let v = match self.read_cell(*table, k, *col) {
                        Some(v) => {
                            self.record_cell_read(*table, k, *col, v);
                            v
                        }
                        None => {
                            self.record_existence_read(*table, k, false);
                            0
                        }
                    };
                    self.regs[usize::from(*out)] = v;
                }
                IrOp::Update { table, key, col, val } => {
                    let k = self.resolve(*key, &txn.params);
                    let v = self.resolve(*val, &txn.params);
                    if self.exists(*table, k) {
                        self.buffer(*table, k, Mutation::Update {
                            table: *table,
                            key: k,
                            col: *col,
                            value: v,
                        });
                    } else {
                        // Missing key: deterministic no-op, tracked as an
                        // existence miss so conflict analysis still sees it.
                        self.record_existence_read(*table, k, false);
                    }
                }
                IrOp::Add { table, key, col, delta } => {
                    let k = self.resolve(*key, &txn.params);
                    let d = self.resolve(*delta, &txn.params);
                    if self.read_cell(*table, k, *col).is_some() {
                        self.buffer(*table, k, Mutation::Add {
                            table: *table,
                            key: k,
                            col: *col,
                            delta: d,
                        });
                    } else {
                        self.record_existence_read(*table, k, false);
                    }
                }
                IrOp::Insert { table, key, values } => {
                    let k = self.resolve(*key, &txn.params);
                    let mut row = self.rows.pop().unwrap_or_default();
                    row.clear();
                    row.extend(values.iter().map(|s| self.resolve(*s, &txn.params)));
                    assert_eq!(
                        row.len(),
                        self.db.row_width(*table),
                        "insert width mismatch on table {}",
                        table.0
                    );
                    let existed = self.exists(*table, k);
                    self.record_existence_read(*table, k, existed);
                    if existed {
                        self.rows.push(row);
                        return Err(ExecError::DuplicateInsert { table: *table, key: k });
                    }
                    self.buffer(*table, k, Mutation::Insert { table: *table, key: k, values: row });
                }
                IrOp::Delete { table, key } => {
                    let k = self.resolve(*key, &txn.params);
                    let existed = self.exists(*table, k);
                    self.record_existence_read(*table, k, existed);
                    if existed {
                        self.buffer(*table, k, Mutation::Delete { table: *table, key: k });
                    }
                }
                IrOp::Compute { f, a, b, out } => {
                    let av = self.resolve(*a, &txn.params);
                    let bv = self.resolve(*b, &txn.params);
                    self.regs[usize::from(*out)] = f.apply(av, bv);
                }
                IrOp::RangeSum { table, lo, hi, col, out } => {
                    let (l, h) = (self.resolve(*lo, &txn.params), self.resolve(*hi, &txn.params));
                    let keys = self.range_view(*table, l, h);
                    let mut sum = 0i64;
                    for k in keys {
                        if let Some(v) = self.read_cell(*table, k, *col) {
                            self.record_cell_read(*table, k, *col, v);
                            sum = sum.wrapping_add(v);
                        }
                    }
                    self.record_membership_read(*table, l, h);
                    self.regs[usize::from(*out)] = sum;
                }
                IrOp::RangeMinKey { table, lo, hi, out } => {
                    let (l, h) = (self.resolve(*lo, &txn.params), self.resolve(*hi, &txn.params));
                    let min = self.range_view(*table, l, h).into_iter().next().unwrap_or(0);
                    if min != 0 {
                        self.record_existence_read(*table, min, true);
                    }
                    self.record_membership_read(*table, l, h);
                    self.regs[usize::from(*out)] = min;
                }
                IrOp::RangeCountBelow { table, lo, hi, col, threshold, out } => {
                    let (l, h) = (self.resolve(*lo, &txn.params), self.resolve(*hi, &txn.params));
                    let t = self.resolve(*threshold, &txn.params);
                    let keys = self.range_view(*table, l, h);
                    let mut count = 0i64;
                    for k in keys {
                        if let Some(v) = self.read_cell(*table, k, *col) {
                            self.record_cell_read(*table, k, *col, v);
                            if v < t {
                                count += 1;
                            }
                        }
                    }
                    self.record_membership_read(*table, l, h);
                    self.regs[usize::from(*out)] = count;
                }
                IrOp::ScanSum { table, start, count, col, out } => {
                    let s = self.resolve(*start, &txn.params);
                    let mut sum = 0i64;
                    for i in 0..i64::from(*count) {
                        let k = s + i;
                        match self.read_cell(*table, k, *col) {
                            Some(v) => {
                                self.record_cell_read(*table, k, *col, v);
                                sum = sum.wrapping_add(v);
                            }
                            None => self.record_existence_read(*table, k, false),
                        }
                    }
                    self.regs[usize::from(*out)] = sum;
                }
            }
        }
        Ok(())
    }
}

/// Run `txn` against `store`, appending its reads and buffered mutations
/// to `reads` and `mutations` (and setting `reshaped`), inserted rows taken
/// from `rows`. The register file and write index are this thread's.
fn speculate<S: CellStore + ?Sized>(
    store: &S,
    txn: &Txn,
    reads: &mut Vec<ReadAccess>,
    mutations: &mut Vec<Mutation>,
    reshaped: &mut u64,
    rows: &mut Vec<Vec<i64>>,
) -> Result<(), ExecError> {
    SCRATCH.with_borrow_mut(|Scratch { regs, index }| {
        regs.clear();
        regs.resize(txn.reg_count(), 0);
        index.reset(write_ops(txn));
        Speculator { db: store, tid: txn.tid, regs, index, reads, mutations, reshaped, rows }.run(txn)
    })
}

/// `txn`'s write ops: at most one buffered mutation each.
fn write_ops(txn: &Txn) -> usize {
    txn.ops
        .iter()
        .filter(|op| {
            matches!(
                op,
                IrOp::Update { .. } | IrOp::Add { .. } | IrOp::Insert { .. } | IrOp::Delete { .. }
            )
        })
        .count()
}

/// `txn`'s ops other than computations. Each records at most one read and
/// buffers at most one mutation, bar the multi-key scans' extra reads.
fn access_ops(txn: &Txn) -> usize {
    txn.ops.iter().filter(|op| !matches!(op, IrOp::Compute { .. })).count()
}

/// Run `txn` against any [`CellStore`] without mutating it; return the
/// recorded effects. This is the OCC "execute phase" semantics: all reads
/// observe the store as a snapshot (plus the transaction's own buffered
/// writes).
pub fn execute_speculative_on<S: CellStore + ?Sized>(
    store: &S,
    txn: &Txn,
) -> Result<TxnEffects, ExecError> {
    // Sized up front: at most one buffered mutation per write op, and one
    // recorded read per remaining op (only multi-key scans record more).
    let writes = write_ops(txn);
    let mut reads = Vec::with_capacity(txn.ops.len() - writes);
    let mut mutations = Vec::with_capacity(writes);
    speculate(store, txn, &mut reads, &mut mutations, &mut 0, &mut Vec::new())?;
    Ok(TxnEffects { tid: txn.tid, reads, mutations })
}

/// [`execute_speculative_on`] into `buf`, which the caller keeps: the
/// buffers are emptied ([`SpecBuffers::clear`]) and refilled, and an insert
/// takes a row vector an earlier occupant's insert returned. Both sets are
/// reserved for `txn`'s count of ops other than computations, which bounds
/// each before speculation runs (only multi-key scans record more reads),
/// so buffers that have held a transaction with as many grow no more, how
/// ever its reads and writes split. On an error the buffers hold what ran
/// before it.
pub fn execute_speculative_into<S: CellStore + ?Sized>(
    store: &S,
    txn: &Txn,
    buf: &mut SpecBuffers,
) -> Result<(), ExecError> {
    buf.clear();
    let bound = access_ops(txn);
    buf.reads.reserve_exact(bound);
    buf.mutations.reserve_exact(bound);
    let SpecBuffers { reads, mutations, reshaped, rows } = buf;
    speculate(store, txn, reads, mutations, reshaped, rows)
}

/// Prefetch into the host's cache what speculating `txns` will read from
/// `db`: for every point op whose key is known before execution (a
/// constant, a parameter, the TID), first the primary-index slot, then — in
/// a second pass, when the slots have arrived — the cell a `Read` or `Add`
/// loads. Nothing is recorded and nothing changes; the caller only gets its
/// misses in flight together instead of taking them one at a time inside
/// the interpreter, where each op's bookkeeping separates them. Keys
/// computed from a read result are skipped, as are the range and scan ops.
pub fn touch_point_rows<'a>(db: &Database, txns: impl Iterator<Item = &'a Txn> + Clone) {
    for cells in [false, true] {
        for txn in txns.clone() {
            for op in &txn.ops {
                let (table, key, col) = match op {
                    IrOp::Read { table, key, col, .. } | IrOp::Add { table, key, col, .. } => {
                        (*table, *key, Some(*col))
                    }
                    IrOp::Update { table, key, .. }
                    | IrOp::Insert { table, key, .. }
                    | IrOp::Delete { table, key } => (*table, *key, None),
                    _ => continue,
                };
                let key = match key {
                    Src::Const(v) => v,
                    Src::Param(p) => txn.params[usize::from(p)],
                    Src::Tid => txn.tid.0 as i64,
                    Src::Reg(_) => continue,
                };
                let t = db.table(table);
                if !cells {
                    t.touch(key);
                } else if let Some(col) = col {
                    if let Some(rid) = t.lookup(key) {
                        t.prefetch(rid, col);
                    }
                }
            }
        }
    }
}

/// [`execute_speculative_on`] specialized to a [`Database`] snapshot.
pub fn execute_speculative(db: &Database, txn: &Txn) -> Result<TxnEffects, ExecError> {
    execute_speculative_on(db, txn)
}

/// Execute a contiguous range of `txn`'s ops **directly against `db`**
/// (writes apply immediately — "early write visibility"), threading the
/// register file between fragments. This is the PWV fragment-execution
/// primitive. Reads of missing rows yield 0; updates/adds/deletes of
/// missing rows are no-ops, as in the reference semantics.
pub fn execute_range_direct(
    db: &mut Database,
    txn: &Txn,
    range: std::ops::Range<usize>,
    regs: &mut [i64],
) -> Result<(), ExecError> {
    use crate::ir::IrOp;
    let resolve = |s: crate::ir::Src, regs: &[i64]| -> i64 {
        match s {
            crate::ir::Src::Const(v) => v,
            crate::ir::Src::Param(p) => txn.params[usize::from(p)],
            crate::ir::Src::Reg(r) => regs[usize::from(r)],
            crate::ir::Src::Tid => txn.tid.0 as i64,
        }
    };
    for op in &txn.ops[range] {
        match op {
            IrOp::Read { table, key, col, out } => {
                let k = resolve(*key, regs);
                let t = db.table(*table);
                regs[usize::from(*out)] =
                    t.lookup(k).map(|rid| t.get(rid, *col)).unwrap_or(0);
            }
            IrOp::Update { table, key, col, val } => {
                let (key, value) = (resolve(*key, regs), resolve(*val, regs));
                let _ = apply_mutation(db, &Mutation::Update { table: *table, key, col: *col, value }, None);
            }
            IrOp::Add { table, key, col, delta } => {
                let (key, delta) = (resolve(*key, regs), resolve(*delta, regs));
                let _ = apply_mutation(db, &Mutation::Add { table: *table, key, col: *col, delta }, None);
            }
            IrOp::Insert { table, key, values } => {
                let key = resolve(*key, regs);
                let values = values.iter().map(|s| resolve(*s, regs)).collect();
                apply_mutation(db, &Mutation::Insert { table: *table, key, values }, None)
                    .map_err(|_| ExecError::DuplicateInsert { table: *table, key })?;
            }
            IrOp::Delete { table, key } => {
                let key = resolve(*key, regs);
                let _ = apply_mutation(db, &Mutation::Delete { table: *table, key }, None);
            }
            IrOp::Compute { f, a, b, out } => {
                let av = resolve(*a, regs);
                let bv = resolve(*b, regs);
                regs[usize::from(*out)] = f.apply(av, bv);
            }
            IrOp::ScanSum { table, start, count, col, out } => {
                let s = resolve(*start, regs);
                let t = db.table(*table);
                let mut sum = 0i64;
                for i in 0..i64::from(*count) {
                    if let Some(rid) = t.lookup(s + i) {
                        sum = sum.wrapping_add(t.get(rid, *col));
                    }
                }
                regs[usize::from(*out)] = sum;
            }
            IrOp::RangeSum { table, lo, hi, col, out } => {
                let t = db.table(*table);
                let ord = t.ordered().expect("RangeSum needs an ordered index");
                let (l, h) = (resolve(*lo, regs), resolve(*hi, regs));
                regs[usize::from(*out)] =
                    ord.range(l, h).into_iter().map(|(_, rid)| t.get(rid, *col)).sum();
            }
            IrOp::RangeMinKey { table, lo, hi, out } => {
                let t = db.table(*table);
                let ord = t.ordered().expect("RangeMinKey needs an ordered index");
                let (l, h) = (resolve(*lo, regs), resolve(*hi, regs));
                regs[usize::from(*out)] = match ord.first_at_or_after(l) {
                    Some((k, _)) if k < h => k,
                    _ => 0,
                };
            }
            IrOp::RangeCountBelow { table, lo, hi, col, threshold, out } => {
                let t = db.table(*table);
                let ord = t.ordered().expect("RangeCountBelow needs an ordered index");
                let (l, h) = (resolve(*lo, regs), resolve(*hi, regs));
                let thr = resolve(*threshold, regs);
                regs[usize::from(*out)] =
                    ord.range(l, h).into_iter().filter(|(_, rid)| t.get(*rid, *col) < thr).count()
                        as i64;
            }
        }
    }
    Ok(())
}

/// Errors from applying buffered mutations to a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// An insert collided with an existing key — the committing engine let
    /// two inserts of the same key through, or capacity ran out.
    InsertFailed {
        /// Table of the failed insert.
        table: TableId,
        /// Offending key.
        key: i64,
    },
}

/// Apply one mutation to `db`: the one write path of every engine and
/// interpreter. An update, add or delete of a row that is not there is a
/// no-op; an insert reports what refused it, and each caller says what that
/// means to it. `row` is the row an update or add writes when the caller
/// resolved its key already (it must be the row the key resolves to in
/// `db`); with `None` the key is looked up here. Inserts and deletes
/// ignore it.
pub fn apply_mutation(db: &mut Database, m: &Mutation, row: Option<RowId>) -> Result<(), TableError> {
    let resolve = |t: &ltpg_storage::Table, key: i64| {
        debug_assert!(
            row.is_none_or(|rid| t.key_of(rid) == Some(key)),
            "a carried row of {} does not hold key {key}",
            t.schema().name
        );
        row.or_else(|| t.lookup(key))
    };
    match m {
        Mutation::Update { table, key, col, value } => {
            let t = db.table_mut(*table);
            if let Some(rid) = resolve(t, *key) {
                t.set(rid, *col, *value);
            }
        }
        Mutation::Add { table, key, col, delta } => {
            let t = db.table_mut(*table);
            if let Some(rid) = resolve(t, *key) {
                t.add(rid, *col, *delta);
            }
        }
        Mutation::Insert { table, key, values } => {
            db.table_mut(*table).insert(*key, values)?;
        }
        Mutation::Delete { table, key } => {
            db.table_mut(*table).delete(*key);
        }
    }
    Ok(())
}

/// Apply a transaction's buffered mutations to `db`, in program order.
/// Updates/adds/deletes of rows that vanished meanwhile are no-ops.
pub fn apply_effects(db: &mut Database, effects: &TxnEffects) -> Result<(), ApplyError> {
    for m in &effects.mutations {
        apply_mutation(db, m, None).map_err(|_| {
            let (table, key) = m.row();
            ApplyError::InsertFailed { table, key }
        })?;
    }
    Ok(())
}

/// Execute `txn` serially: speculate, then apply. The canonical semantics
/// every engine must be equivalent to (per committed transaction).
pub fn execute_serial(db: &mut Database, txn: &Txn) -> Result<TxnEffects, ExecError> {
    let effects = execute_speculative(db, txn)?;
    apply_effects(db, &effects).expect("serial apply cannot fail after speculation");
    Ok(effects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ComputeFn;
    use crate::txn::ProcId;
    use ltpg_storage::TableBuilder;

    fn db_one_table() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(64).build());
        (db, t)
    }

    fn txn(ops: Vec<IrOp>, params: Vec<i64>) -> Txn {
        let t = Txn::new(ProcId(0), params, ops);
        t.validate().expect("test txn must validate");
        t
    }

    /// The touch pass takes every op kind, a key no row has and a key only
    /// execution can know, and leaves the database as it found it.
    #[test]
    fn touching_rows_changes_nothing_and_skips_what_it_cannot_know() {
        let (mut db, t) = db_one_table();
        db.table_mut(t).insert(1, &[10, 20]).unwrap();
        let before = db.state_digest();
        let tx = txn(
            vec![
                IrOp::Read { table: t, key: Src::Param(0), col: ColId(1), out: 0 },
                IrOp::Read { table: t, key: Src::Reg(0), col: ColId(0), out: 1 },
                IrOp::Update { table: t, key: Src::Const(1), col: ColId(0), val: Src::Const(5) },
                IrOp::Add { table: t, key: Src::Const(404), col: ColId(0), delta: Src::Const(1) },
                IrOp::Insert { table: t, key: Src::Tid, values: vec![Src::Const(0), Src::Const(0)] },
                IrOp::Delete { table: t, key: Src::Const(1) },
                IrOp::ScanSum { table: t, start: Src::Const(1), count: 2, col: ColId(0), out: 2 },
            ],
            vec![1],
        );
        touch_point_rows(&db, [&tx, &tx].into_iter());
        assert_eq!(db.state_digest(), before);
        assert_eq!(db.table(t).live_rows(), 1);
    }

    #[test]
    fn speculative_execution_does_not_touch_db() {
        let (mut db, t) = db_one_table();
        db.table_mut(t).insert(1, &[10, 20]).unwrap();
        let tx = txn(
            vec![IrOp::Update { table: t, key: Src::Const(1), col: ColId(0), val: Src::Const(99) }],
            vec![],
        );
        let fx = execute_speculative(&db, &tx).unwrap();
        assert_eq!(db.table(t).get(db.table(t).lookup(1).unwrap(), ColId(0)), 10);
        assert_eq!(fx.mutations.len(), 1);
    }

    #[test]
    fn read_your_own_writes() {
        let (mut db, t) = db_one_table();
        db.table_mut(t).insert(1, &[10, 20]).unwrap();
        let tx = txn(
            vec![
                IrOp::Update { table: t, key: Src::Const(1), col: ColId(0), val: Src::Const(50) },
                IrOp::Read { table: t, key: Src::Const(1), col: ColId(0), out: 0 },
                IrOp::Update { table: t, key: Src::Const(1), col: ColId(1), val: Src::Reg(0) },
            ],
            vec![],
        );
        let fx = execute_speculative(&db, &tx).unwrap();
        // The read saw the buffered 50, and the second update carried it.
        assert_eq!(fx.reads[0].value, 50);
        assert!(matches!(
            fx.mutations[1],
            Mutation::Update { col: ColId(1), value: 50, .. }
        ));
    }

    #[test]
    fn insert_then_read_and_delete_locally() {
        let (db, t) = db_one_table();
        let tx = txn(
            vec![
                IrOp::Insert { table: t, key: Src::Const(5), values: vec![Src::Const(7), Src::Const(8)] },
                IrOp::Read { table: t, key: Src::Const(5), col: ColId(1), out: 0 },
                IrOp::Delete { table: t, key: Src::Const(5) },
                IrOp::Read { table: t, key: Src::Const(5), col: ColId(1), out: 1 },
            ],
            vec![],
        );
        let fx = execute_speculative(&db, &tx).unwrap();
        assert_eq!(fx.reads[1].value, 8); // saw own insert
        let last = fx.reads.last().unwrap();
        assert_eq!(last.col, None); // post-delete read is a miss
        assert_eq!(last.value, 0);
    }

    /// The row's buffered cells die with it: a read after update→delete is
    /// an existence miss, a read after a re-insert sees the new row, and an
    /// add on the deleted row is a no-op — as direct execution has it.
    #[test]
    fn a_delete_hides_the_rows_earlier_writes() {
        let (mut db, t) = db_one_table();
        db.table_mut(t).insert(1, &[10, 20]).unwrap();
        let key = Src::Const(1);
        let tx = txn(
            vec![
                IrOp::Update { table: t, key, col: ColId(0), val: Src::Const(50) },
                IrOp::Delete { table: t, key },
                IrOp::Read { table: t, key, col: ColId(0), out: 0 },
                IrOp::Add { table: t, key, col: ColId(0), delta: Src::Const(5) },
                IrOp::Insert { table: t, key, values: vec![Src::Const(7), Src::Const(8)] },
                IrOp::Read { table: t, key, col: ColId(0), out: 1 },
                IrOp::Delete { table: t, key },
                IrOp::Insert { table: t, key, values: vec![Src::Const(3), Src::Const(4)] },
                IrOp::Add { table: t, key, col: ColId(1), delta: Src::Const(2) },
                IrOp::Read { table: t, key, col: ColId(1), out: 2 },
                IrOp::Update { table: t, key: Src::Const(2), col: ColId(0), val: Src::Reg(2) },
            ],
            vec![],
        );
        let fx = execute_speculative(&db, &tx).unwrap();
        let miss = |existed| ReadAccess { table: t, key: 1, col: None, value: existed };
        let cell = |c, value| ReadAccess { table: t, key: 1, col: Some(ColId(c)), value };
        assert_eq!(
            fx.reads,
            vec![
                miss(1),     // delete: the row existed
                miss(0),     // read after the delete
                miss(0),     // add on the deleted row
                miss(0),     // insert: no duplicate
                cell(0, 7),  // the re-inserted row, not the dead 50
                miss(1),     // second delete
                miss(0),     // second insert
                cell(1, 6),  // 4 + 2 through the buffer
                ReadAccess { table: t, key: 2, col: None, value: 0 },
            ]
        );
        assert_eq!(fx.mutations.len(), 6, "the add on the deleted row buffers nothing");

        let mut regs = vec![0; tx.reg_count()];
        let mut direct = db.deep_clone();
        execute_range_direct(&mut direct, &tx, 0..tx.ops.len(), &mut regs).unwrap();
        assert_eq!(regs, vec![0, 7, 6]);
        apply_effects(&mut db, &fx).unwrap();
        assert_eq!(db.state_digest(), direct.state_digest());
    }

    /// Speculating into kept buffers records what a fresh speculation
    /// records, transaction after transaction, a user abort in between; the
    /// rows of one occupant's inserts serve the next one's; and buffers
    /// that have held a transaction grow no more for one with as many
    /// accesses. Only an insert or a delete marks its table reshaped.
    #[test]
    fn speculating_into_kept_buffers_records_what_a_fresh_speculation_does() {
        let (mut db, t) = db_one_table();
        let u = db.add_table(TableBuilder::new("U").columns(["a"]).capacity(64).build());
        db.table_mut(t).insert(1, &[10, 20]).unwrap();
        db.table_mut(u).insert(9, &[1]).unwrap();
        let row = |k: i64| vec![Src::Const(k), Src::Const(k + 1)];
        let txns = [
            txn(
                vec![
                    IrOp::Insert { table: t, key: Src::Const(5), values: row(5) },
                    IrOp::Insert { table: t, key: Src::Const(6), values: row(6) },
                    IrOp::Read { table: t, key: Src::Const(5), col: ColId(1), out: 0 },
                    IrOp::Update { table: u, key: Src::Const(9), col: ColId(0), val: Src::Reg(0) },
                ],
                vec![],
            ),
            // A duplicate insert: a user abort, after one insert.
            txn(
                vec![
                    IrOp::Insert { table: t, key: Src::Const(7), values: row(7) },
                    IrOp::Insert { table: t, key: Src::Const(1), values: row(1) },
                ],
                vec![],
            ),
            txn(
                vec![
                    IrOp::Add { table: u, key: Src::Const(9), col: ColId(0), delta: Src::Const(2) },
                    IrOp::Delete { table: u, key: Src::Const(9) },
                    IrOp::Insert { table: t, key: Src::Const(8), values: row(8) },
                    IrOp::Compute { f: ComputeFn::Add, a: Src::Const(1), b: Src::Const(2), out: 0 },
                ],
                vec![],
            ),
        ];
        let mut buf = SpecBuffers::default();
        for _ in 0..2 {
            for tx in &txns {
                let into = execute_speculative_into(&db, tx, &mut buf);
                match execute_speculative(&db, tx) {
                    Ok(fx) => {
                        assert_eq!(into, Ok(()));
                        assert_eq!((&buf.reads, &buf.mutations), (&fx.reads, &fx.mutations));
                        assert_eq!(buf.rw_set_bytes(), fx.rw_set_bytes());
                    }
                    Err(e) => assert_eq!(into, Err(e)),
                }
            }
        }
        // The last transaction deletes from U and inserts into T, and its
        // add of U's row writes before its own delete reshapes U.
        assert!(!buf.writes_snapshot_rows(t) && !buf.writes_snapshot_rows(u));
        execute_speculative_into(&db, &txns[0], &mut buf).unwrap();
        assert!(!buf.writes_snapshot_rows(t) && buf.writes_snapshot_rows(u));
        // A second run of the first transaction takes its rows from the
        // pool and needs no more room.
        let rows_of = |buf: &SpecBuffers| -> Vec<*const i64> {
            buf.mutations
                .iter()
                .filter_map(|m| match m {
                    Mutation::Insert { values, .. } => Some(values.as_ptr()),
                    _ => None,
                })
                .collect()
        };
        let (rows, caps) = (rows_of(&buf), (buf.reads.capacity(), buf.mutations.capacity()));
        execute_speculative_into(&db, &txns[0], &mut buf).unwrap();
        let mut again = rows_of(&buf);
        again.reverse();
        assert_eq!(again, rows, "the pool hands the rows back, last in first out");
        assert_eq!((buf.reads.capacity(), buf.mutations.capacity()), caps);
        assert_eq!(caps, (4, 4), "reserved for the ops that access, exactly");
    }

    #[test]
    fn duplicate_insert_is_user_abort() {
        let (mut db, t) = db_one_table();
        db.table_mut(t).insert(5, &[0, 0]).unwrap();
        let tx = txn(
            vec![IrOp::Insert { table: t, key: Src::Const(5), values: vec![Src::Const(1), Src::Const(1)] }],
            vec![],
        );
        assert_eq!(
            execute_speculative(&db, &tx),
            Err(ExecError::DuplicateInsert { table: t, key: 5 })
        );
    }

    #[test]
    fn update_of_missing_key_is_noop_with_existence_read() {
        let (db, t) = db_one_table();
        let tx = txn(
            vec![IrOp::Update { table: t, key: Src::Const(9), col: ColId(0), val: Src::Const(1) }],
            vec![],
        );
        let fx = execute_speculative(&db, &tx).unwrap();
        assert!(fx.mutations.is_empty());
        assert_eq!(fx.reads, vec![ReadAccess { table: t, key: 9, col: None, value: 0 }]);
    }

    #[test]
    fn add_accumulates_through_buffer() {
        let (mut db, t) = db_one_table();
        db.table_mut(t).insert(1, &[100, 0]).unwrap();
        let tx = txn(
            vec![
                IrOp::Add { table: t, key: Src::Const(1), col: ColId(0), delta: Src::Const(5) },
                IrOp::Add { table: t, key: Src::Const(1), col: ColId(0), delta: Src::Const(7) },
                IrOp::Read { table: t, key: Src::Const(1), col: ColId(0), out: 0 },
            ],
            vec![],
        );
        let fx = execute_speculative(&db, &tx).unwrap();
        assert_eq!(fx.reads.last().unwrap().value, 112);
        apply_effects(&mut db, &fx).unwrap();
        assert_eq!(db.table(t).get(db.table(t).lookup(1).unwrap(), ColId(0)), 112);
    }

    #[test]
    fn serial_execution_applies_register_dataflow() {
        let (mut db, t) = db_one_table();
        db.table_mut(t).insert(1, &[3, 0]).unwrap();
        // b = a * 10 + 4
        let tx = txn(
            vec![
                IrOp::Read { table: t, key: Src::Const(1), col: ColId(0), out: 0 },
                IrOp::Compute { f: ComputeFn::Mul, a: Src::Reg(0), b: Src::Const(10), out: 1 },
                IrOp::Compute { f: ComputeFn::Add, a: Src::Reg(1), b: Src::Const(4), out: 1 },
                IrOp::Update { table: t, key: Src::Const(1), col: ColId(1), val: Src::Reg(1) },
            ],
            vec![],
        );
        execute_serial(&mut db, &tx).unwrap();
        assert_eq!(db.table(t).get(db.table(t).lookup(1).unwrap(), ColId(1)), 34);
    }

    #[test]
    fn scan_sum_emulates_range_over_point_lookups() {
        let (mut db, t) = db_one_table();
        for k in 0..5 {
            db.table_mut(t).insert(k, &[k * 10, 0]).unwrap();
        }
        let tx = txn(
            vec![
                IrOp::ScanSum { table: t, start: Src::Const(2), count: 5, col: ColId(0), out: 0 },
                IrOp::Update { table: t, key: Src::Const(0), col: ColId(1), val: Src::Reg(0) },
            ],
            vec![],
        );
        let fx = execute_serial(&mut db, &tx).unwrap();
        // Keys 2,3,4 exist (20+30+40); 5,6 are misses.
        assert_eq!(db.table(t).get(db.table(t).lookup(0).unwrap(), ColId(1)), 90);
        assert_eq!(fx.reads.iter().filter(|r| r.col.is_none()).count(), 2);
    }

    #[test]
    fn rw_set_bytes_counts_all_accesses() {
        let (mut db, t) = db_one_table();
        db.table_mut(t).insert(1, &[0, 0]).unwrap();
        let tx = txn(
            vec![
                IrOp::Read { table: t, key: Src::Const(1), col: ColId(0), out: 0 },
                IrOp::Update { table: t, key: Src::Const(1), col: ColId(1), val: Src::Const(2) },
            ],
            vec![],
        );
        let fx = execute_speculative(&db, &tx).unwrap();
        assert_eq!(fx.rw_set_bytes(), 4 + 1 + 8);
        assert_eq!(fx.cell_reads(), 1);
    }
}
