//! Fixed-width integer tables: plain cells, a primary hash index and an
//! ordered index built on demand. Reads take `&Table` and may be shared
//! (an engine's pre-pass helpers read during execute); every write takes
//! `&mut Table`, so the end of a batch's read phase is a borrow the
//! compiler sees end before write-back starts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::btree::OrderedIndex;
use crate::dirty::DirtyBits;
use crate::index::{DuplicateKey, PrimaryIndex};
use crate::schema::{ColId, Schema};
use crate::zeroed::{copy_to_fresh, stored, zeroed};

/// Base of the reserved key range standing for "membership of this
/// table's key partitions" — the predicate cells that ordered range scans
/// read and inserts/deletes write, giving Aria-style phantom protection.
/// A partition is the key's high bits (`key >> MEMBERSHIP_PARTITION_SHIFT`),
/// so a scan confined to one partition (e.g. one TPC-C district's order
/// range) only conflicts with inserts into that partition. Never use keys
/// at or near this value as real row keys.
pub const MEMBERSHIP_MARKER_KEY: i64 = i64::MAX - 1;

/// High-bit shift defining membership partitions. TPC-C order keys pack
/// the district above bit 40, so partition == district; small keyspaces
/// (YCSB) all fall into partition 0 (table-granular protection).
pub const MEMBERSHIP_PARTITION_SHIFT: u32 = 40;

/// The membership predicate cell key for `partition`.
#[inline]
pub fn membership_key(partition: i64) -> i64 {
    debug_assert!((0..(1 << 22)).contains(&partition), "implausible membership partition");
    MEMBERSHIP_MARKER_KEY - partition
}

/// Inverse of [`membership_key`]: `Some(partition)` when `key` lies in the
/// reserved membership range.
#[inline]
pub fn membership_partition(key: i64) -> Option<i64> {
    let p = MEMBERSHIP_MARKER_KEY.checked_sub(key)?;
    (0..(1 << 22)).contains(&p).then_some(p)
}

/// Identifies a row within a table (a dense 0-based slot number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

impl RowId {
    /// Row index as usize.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Key sentinel for a row slot that has been deleted.
const DELETED_KEY: i64 = i64::MIN;

/// Errors raised by table mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The table's fixed capacity is exhausted.
    Full,
    /// The primary key is already present.
    Duplicate(RowId),
}

/// A fixed-capacity table of `i64` cells.
///
/// The capacity is the schema's and is what the device model charges
/// ([`bytes`](Self::bytes), [`TableError::Full`]); the host pays for what
/// the table holds. The cell and key arrays span the capacity but come
/// zeroed from the allocator and are written only up to [`len`](Self::len),
/// so the pages past it are never faulted in. The primary index of a new
/// table is a never-written placeholder for the whole capacity;
/// [`reserve`](Self::reserve) lays it out for the rows the table will hold
/// (a loader's row count, a batch's inserts) and is the one way it grows.
/// A [`filtered_clone`](Self::filtered_clone)'s is laid out for the rows it
/// keeps.
pub struct Table {
    schema: Schema,
    width: usize,
    /// Row-major cell storage, `capacity * width` words; zero past `len`.
    data: Box<[i64]>,
    /// Primary key of each row slot, [`stored`]: the all-zero word of a
    /// slot straight from `alloc_zeroed` — every slot past `len` — reads as
    /// `DELETED_KEY`, and no key column is ever written to say so. Lets the
    /// table be deep-cloned, imaged and digested without walking the index.
    keys: Box<[i64]>,
    row_count: usize,
    primary: PrimaryIndex,
    /// Declared by `with_ordered`, built by [`ordered`](Self::ordered).
    ordered: Option<OnceLock<OrderedIndex>>,
    /// Row slots written (cells or key) since an image of this table was
    /// last brought up to date ([`Image::refresh_from`](crate::Image::refresh_from)).
    /// `set`, `add` and `delete` mark; only
    /// [`sync_image`](Self::sync_image) clears.
    /// `insert` does not: row slots are handed out in order and never
    /// again, so the slots allocated since are the ones past the count the
    /// image last saw.
    dirty: DirtyBits,
    /// Names this table *as of the last time its marks were drained*: a
    /// process-unique number, replaced by a new one at every drain — an
    /// identity and a generation in one. An atomic for the dirty words'
    /// reason: `sync_image` replaces it through `&Table`. `Relaxed` loads
    /// and stores: it publishes nothing, and one thread at a time reads it.
    sync: AtomicU64,
    /// Rows deleted so far. Below the row count an image last saw, only a
    /// delete changes a key, so an image copies keys there only when this
    /// moved.
    deletes: u64,
}

/// What an image last took of a table ([`Table::sync_image`]): the `sync`
/// it handed the table, and the table's counts and index shape then (the
/// default names no table).
#[derive(Default, Clone, Copy)]
pub(crate) struct Synced {
    sync: u64,
    deletes: u64,
    pub(crate) rows: usize,
    pub(crate) index_slots: usize,
    /// Whether the primary index was a placeholder nothing was put in.
    pub(crate) index_unlaid: bool,
    /// Whether an ordered index was declared.
    pub(crate) ordered: bool,
}

/// The next [`Table::sync`] value; 0 is never handed out. Process-wide:
/// every thread that makes or images a table draws from it (a standby
/// worker builds its own), so it is the one storage word several threads
/// write, and an atomic `fetch_add`.
static NEXT_SYNC: AtomicU64 = AtomicU64::new(1);

fn fresh_sync() -> u64 {
    NEXT_SYNC.fetch_add(1, Ordering::Relaxed)
}

impl Table {
    /// Create an empty table from `schema`. Nothing of it is written:
    /// cells, keys, dirty bits and the primary index all come from
    /// `alloc_zeroed`, and the index is a placeholder for the whole capacity
    /// ([`PrimaryIndex::with_capacity`]). The first
    /// [`reserve`](Self::reserve) lays it out for the count reserved; a
    /// table nobody reserves fills the placeholder in place.
    pub fn new(schema: Schema) -> Self {
        let cap = schema.capacity;
        Table::with_primary(schema, PrimaryIndex::with_capacity(cap), false)
    }

    /// An empty table over `primary`, an empty index.
    fn with_primary(schema: Schema, primary: PrimaryIndex, ordered: bool) -> Self {
        let (cap, width) = (schema.capacity, schema.width());
        Table::from_parts(schema, zeroed(cap * width), zeroed(cap), 0, primary, ordered)
    }

    /// A table over arrays that hold `rows` allocated row slots and an
    /// index over their live keys, with an ordered index declared (unbuilt)
    /// if `ordered`. Nothing is marked written.
    pub(crate) fn from_parts(
        schema: Schema,
        data: Box<[i64]>,
        keys: Box<[i64]>,
        rows: usize,
        primary: PrimaryIndex,
        ordered: bool,
    ) -> Self {
        let cap = schema.capacity;
        debug_assert_eq!((data.len(), keys.len()), (cap * schema.width(), cap));
        Table {
            width: schema.width(),
            data,
            keys,
            row_count: rows,
            primary,
            ordered: ordered.then(OnceLock::new),
            dirty: DirtyBits::new(cap),
            sync: AtomicU64::new(fresh_sync()),
            deletes: 0,
            schema,
        }
    }

    /// Declare an ordered (B+tree) index, enabling range scans; the first
    /// [`ordered`](Self::ordered) call builds it.
    pub fn with_ordered(mut self) -> Self {
        self.ordered = Some(OnceLock::new());
        self
    }

    /// The ordered index, if the table was declared with one: every range
    /// scan's way in. The first call bulk-loads it from the sorted live keys
    /// while any other reader waits, and `insert` and `delete` maintain it
    /// from then on; until then they skip it, and no copy of a table carries
    /// one, so a table nobody scans (TPC-C's 50/50 mix) never pays for a
    /// tree. Nothing modelled reads it (not [`bytes`](Self::bytes), not any
    /// charge), so when it is built moves no simulated figure.
    ///
    /// It builds through `&self` — a scan in an engine's read-only execute
    /// phase, possibly on a pre-pass helper thread — and no writer can hold
    /// the table meanwhile.
    pub fn ordered(&self) -> Option<&OrderedIndex> {
        let tree = self.ordered.as_ref()?;
        Some(tree.get_or_init(|| {
            let mut live = Vec::with_capacity(self.live_rows());
            live.extend(self.live_keys().map(|(rid, k)| (k, rid)));
            live.sort_unstable_by_key(|&(k, _)| k);
            OrderedIndex::from_sorted(&live)
        }))
    }

    /// Whether [`ordered`](Self::ordered) has built the index; builds nothing.
    pub fn ordered_is_built(&self) -> bool {
        self.built_ordered().is_some()
    }

    /// The ordered index if it has been built.
    fn built_ordered(&self) -> Option<&OrderedIndex> {
        self.ordered.as_ref().and_then(OnceLock::get)
    }

    /// The ordered index if it has been built: the one writes maintain.
    fn built_ordered_mut(&mut self) -> Option<&mut OrderedIndex> {
        self.ordered.as_mut().and_then(OnceLock::get_mut)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of row slots ever allocated (including deleted rows).
    pub fn len(&self) -> usize {
        self.row_count
    }

    /// Whether no rows were ever inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live (indexed) rows.
    pub fn live_rows(&self) -> usize {
        self.primary.len()
    }

    /// Fixed row capacity.
    pub fn capacity(&self) -> usize {
        self.schema.capacity
    }

    /// Columns per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Bytes of cell + key storage at the schema's capacity — the
    /// *modelled* device footprint of this table, whatever part of it the
    /// host has touched. The host-side dirty bitmaps and the primary index
    /// are not part of it.
    pub fn bytes(&self) -> u64 {
        ((self.data.len() + self.keys.len()) * std::mem::size_of::<i64>()) as u64
    }

    /// Slots of the primary index (live, tombstoned and empty): the
    /// schema capacity's worth for a table created with [`new`](Self::new)
    /// and never reserved (a placeholder, resident only as far as inserts
    /// filled it), what was reserved otherwise. Nothing modelled reads it.
    pub fn index_slots(&self) -> usize {
        self.primary.slot_count()
    }

    /// Drain the marks for an image that last took this table as `seen`, and
    /// make `seen` this table now. While the image mirrors the table (it
    /// took this one, and no other image drained it since) that yields the
    /// marked row slots below `seen`'s old row count, and whether a row was
    /// deleted since (below that count nothing else changes a key); `None`
    /// — the marks dropped — when it must take the full copy.
    pub(crate) fn sync_image(
        &self,
        seen: &mut Synced,
    ) -> Option<(impl Iterator<Item = usize> + '_, bool)> {
        let (last, rows, deletes) = (*seen, self.len(), self.deletes);
        let (index_slots, index_unlaid) = (self.primary.slot_count(), self.primary.unlaid());
        let ordered = self.ordered.is_some();
        *seen = Synced { sync: fresh_sync(), deletes, rows, index_slots, index_unlaid, ordered };
        let mirrored = self.sync.load(Ordering::Relaxed) == last.sync;
        self.sync.store(seen.sync, Ordering::Relaxed);
        if !mirrored {
            self.dirty.drain().for_each(drop);
            return None;
        }
        Some((self.dirty.drain().filter(move |&r| r < last.rows), deletes != last.deletes))
    }

    /// The cell and key arrays, `capacity * width` and `capacity` words.
    pub(crate) fn words(&self) -> (&[i64], &[i64]) {
        (&self.data, &self.keys)
    }

    /// Make room in the primary index for `n` more inserts
    /// ([`PrimaryIndex::reserve`]): a fresh table's first reservation lays
    /// its placeholder index out for `n` keys and room for more, and later
    /// ones grow it. Call it, with the exact count, before inserts — a
    /// write-back launch inserts and never grows anything. The rows do not
    /// move, so an image of the table stays a mirror of it. Returns whether
    /// the index was replaced.
    pub fn reserve(&mut self, n: usize) -> bool {
        self.primary.reserve(n)
    }

    /// The word of cell `(rid, col)`.
    #[inline]
    fn at(&self, rid: RowId, col: ColId) -> usize {
        debug_assert!(col.idx() < self.width, "column out of range");
        rid.idx() * self.width + col.idx()
    }

    /// Insert a row under `key`. `values` must match the schema width. A
    /// full table or a present key is refused before anything is written.
    /// The index must have room ([`reserve`](Self::reserve)); an insert
    /// past its half load panics under `debug_assertions`.
    pub fn insert(&mut self, key: i64, values: &[i64]) -> Result<RowId, TableError> {
        assert_eq!(values.len(), self.width, "row width mismatch for {}", self.schema.name);
        if self.row_count >= self.schema.capacity {
            return Err(TableError::Full);
        }
        let rid = RowId(self.row_count as u32);
        self.primary.insert(key, rid).map_err(|DuplicateKey { existing }| TableError::Duplicate(existing))?;
        self.row_count += 1;
        let at = rid.idx() * self.width;
        self.data[at..at + self.width].copy_from_slice(values);
        self.keys[rid.idx()] = stored(key);
        if let Some(ord) = self.built_ordered_mut() {
            ord.insert(key, rid);
        }
        Ok(rid)
    }

    /// Resolve a primary key to its row.
    #[inline]
    pub fn lookup(&self, key: i64) -> Option<RowId> {
        self.primary.get(key)
    }

    /// Prefetch the primary-index slot a [`lookup`](Self::lookup) of `key`
    /// starts at ([`PrimaryIndex::touch`]).
    #[inline]
    pub fn touch(&self, key: i64) {
        self.primary.touch(key);
    }

    /// Prefetch the cell a [`get`](Self::get) of `(rid, col)` reads
    /// ([`crate::hint`]).
    #[inline]
    pub fn prefetch(&self, rid: RowId, col: ColId) {
        crate::hint::prefetch(&self.data[self.at(rid, col)]);
    }

    /// Read one cell.
    #[inline]
    pub fn get(&self, rid: RowId, col: ColId) -> i64 {
        self.data[self.at(rid, col)]
    }

    /// Overwrite one cell.
    #[inline]
    pub fn set(&mut self, rid: RowId, col: ColId, v: i64) {
        self.dirty.mark(rid.idx());
        let at = self.at(rid, col);
        self.data[at] = v;
    }

    /// Add `delta` to one cell (wrapping), returning the previous value.
    /// Used by the delayed-update write-back and by CPU baselines.
    #[inline]
    pub fn add(&mut self, rid: RowId, col: ColId, delta: i64) -> i64 {
        self.dirty.mark(rid.idx());
        let at = self.at(rid, col);
        let old = self.data[at];
        self.data[at] = old.wrapping_add(delta);
        old
    }

    /// Copy a row's cells into a fresh vector.
    pub fn row_values(&self, rid: RowId) -> Vec<i64> {
        self.data[rid.idx() * self.width..][..self.width].to_vec()
    }

    /// The primary key stored at `rid`, or `None` if the slot was deleted.
    pub fn key_of(&self, rid: RowId) -> Option<i64> {
        let k = stored(self.keys[rid.idx()]);
        (k != DELETED_KEY).then_some(k)
    }

    /// The allocated row slots that hold a live row, with its key, in
    /// slot order.
    pub(crate) fn live_keys(&self) -> impl Iterator<Item = (RowId, i64)> + '_ {
        (0..self.len() as u32).filter_map(|r| self.key_of(RowId(r)).map(|k| (RowId(r), k)))
    }

    /// Delete the row under `key`. Returns the freed row id.
    pub fn delete(&mut self, key: i64) -> Option<RowId> {
        let rid = self.primary.remove(key)?;
        if let Some(ord) = self.built_ordered_mut() {
            ord.remove(key);
        }
        self.dirty.mark(rid.idx());
        self.deletes += 1;
        self.keys[rid.idx()] = stored(DELETED_KEY);
        Some(rid)
    }

    /// Deep copy, structural: the cells and keys of the `len` allocated
    /// row slots are copied into the clone's arrays (the never-allocated
    /// tail of either is not even written) and the primary index slot for
    /// slot (tombstones included, at the source's size); an ordered index
    /// is left for the clone's first range scan to build.
    /// The cost is bytes copied, never rows re-inserted, and the clone
    /// resolves every key to the same [`RowId`] by the same probe sequence
    /// as the original. This is the test oracles' pre-batch snapshot (a
    /// checkpoint image copies rows alone: [`crate::Image`]).
    pub fn deep_clone(&self) -> Table {
        let n = self.len();
        Table::from_parts(
            self.schema.clone(),
            copy_prefix(&self.data, n * self.width),
            copy_prefix(&self.keys, n),
            n,
            self.primary.clone(),
            self.ordered.is_some(),
        )
    }

    /// Clone only the live rows whose key satisfies `keep`, preserving the
    /// schema and index kinds. Row slots are compacted, which is fine
    /// everywhere this is used: the state digest is row-order-insensitive,
    /// and engines address rows through the primary index. This is how a
    /// shard derives its slice of a database. The slice keeps the schema's
    /// capacity — what every modelled figure reads, so each shard is
    /// charged as the single-device engine is — but holds only what it
    /// was cut with: cells and keys past its rows stay untouched zero
    /// pages, and its primary index is laid out for the kept rows, to grow
    /// by [`reserve`](Self::reserve) as inserts arrive.
    pub fn filtered_clone(&self, keep: impl Fn(i64) -> bool) -> Table {
        let kept: Vec<(RowId, i64)> = self.live_keys().filter(|&(_, k)| keep(k)).collect();
        let primary = PrimaryIndex::for_keys(kept.len());
        let mut clone = Table::with_primary(self.schema.clone(), primary, self.ordered.is_some());
        for (rid, k) in kept {
            clone.insert(k, &self.row_values(rid)).expect("filtered clone insert");
        }
        clone
    }

    /// Fold the table's live contents into a **row-order-insensitive**
    /// digest (a multiset hash: per-row FNV hashes combined by wrapping
    /// addition). Row slot order varies with the engine that wrote the
    /// table, but the logical state — the set of `(key, cells)` rows — must
    /// not, so engine outcomes are compared on exactly that.
    pub fn digest_into(&self, h: &mut u64) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        for (rid, k) in self.live_keys() {
            let mut row = (FNV_OFFSET ^ (k as u64)).wrapping_mul(FNV_PRIME);
            for &v in &self.data[rid.idx() * self.width..][..self.width] {
                row = (row ^ (v as u64)).wrapping_mul(FNV_PRIME);
            }
            *h = h.wrapping_add(row);
        }
    }
}

/// A cell or key array as long as `src`: the first `live` words hold
/// `src`'s, the rest (never-allocated row slots) are zero. The array comes
/// zeroed from the allocator, so the tail is never written — a shard's
/// slice occupies a quarter of its table's capacity, and writing (and
/// page-faulting) the other three quarters was most of its image's cost.
pub(crate) fn copy_prefix(src: &[i64], live: usize) -> Box<[i64]> {
    let mut words: Box<[i64]> = zeroed(src.len());
    copy_to_fresh(&mut words[..live], &src[..live]);
    words
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.schema.name)
            .field("rows", &self.len())
            .field("capacity", &self.schema.capacity)
            .field("width", &self.width)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{ImageCopy, TableImage};
    use crate::schema::TableBuilder;

    fn small() -> Table {
        Table::new(TableBuilder::new("T").columns(["a", "b"]).capacity(100).build())
    }

    #[test]
    fn insert_lookup_get_set_roundtrip() {
        let mut t = small();
        let rid = t.insert(7, &[10, 20]).unwrap();
        assert_eq!(t.lookup(7), Some(rid));
        assert_eq!(t.get(rid, ColId(0)), 10);
        assert_eq!(t.get(rid, ColId(1)), 20);
        t.set(rid, ColId(1), 99);
        assert_eq!(t.get(rid, ColId(1)), 99);
        assert_eq!(t.row_values(rid), vec![10, 99]);
        assert_eq!(t.key_of(rid), Some(7));
    }

    #[test]
    fn add_is_fetch_add() {
        let mut t = small();
        let rid = t.insert(1, &[5, 0]).unwrap();
        assert_eq!(t.add(rid, ColId(0), 3), 5);
        assert_eq!(t.get(rid, ColId(0)), 8);
    }

    #[test]
    fn duplicate_key_rejected_and_capacity_enforced() {
        let mut t = Table::new(TableBuilder::new("T").column("a").capacity(3).build());
        let r0 = t.insert(1, &[0]).unwrap();
        // The duplicate is refused before a slot is taken.
        assert_eq!(t.insert(1, &[1]), Err(TableError::Duplicate(r0)));
        t.insert(2, &[0]).unwrap();
        t.insert(3, &[0]).unwrap();
        assert_eq!(t.insert(4, &[0]), Err(TableError::Full));
        assert_eq!(t.insert(1, &[0]), Err(TableError::Full), "a full table refuses first");
        assert_eq!((t.len(), t.live_rows()), (3, 3));
    }

    #[test]
    fn delete_unindexes_and_key_of_reports_none() {
        let mut t = small();
        let rid = t.insert(5, &[1, 2]).unwrap();
        assert_eq!(t.delete(5), Some(rid));
        assert_eq!(t.lookup(5), None);
        assert_eq!(t.key_of(rid), None);
        assert_eq!(t.delete(5), None);
        assert_eq!(t.live_rows(), 0);
    }

    fn digest(t: &Table) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        t.digest_into(&mut h);
        h
    }

    /// The reference model for [`Table::deep_clone`]: the rebuild it
    /// replaced — a fresh table, cells copied row by row, every live key
    /// re-inserted into a fresh primary index (an ordered one is built from
    /// them when first read).
    fn rebuild_clone(t: &Table) -> Table {
        let mut clone = Table::new(t.schema.clone());
        if t.ordered.is_some() {
            clone = clone.with_ordered();
        }
        let n = t.len();
        for r in 0..n {
            let rid = RowId(r as u32);
            for c in 0..t.width {
                clone.data[r * t.width + c] = t.get(rid, ColId(c as u16));
            }
            let k = t.key_of(rid).unwrap_or(DELETED_KEY);
            clone.keys[r] = stored(k);
            if k != DELETED_KEY {
                clone.primary.insert(k, rid).expect("clone index insert");
            }
        }
        clone.row_count = n;
        clone
    }

    /// Everything a reader can observe of `a` and `b` agrees: digest, slot
    /// and live counts, and per key in `keys` the row id, the cells and
    /// (with an ordered index) the ordered lookup.
    fn assert_same_view(a: &Table, b: &Table, keys: impl Iterator<Item = i64>) {
        assert_eq!(digest(a), digest(b));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.live_rows(), b.live_rows());
        for r in 0..a.len() {
            assert_eq!(a.key_of(RowId(r as u32)), b.key_of(RowId(r as u32)), "slot {r}");
        }
        for k in keys {
            assert_eq!(a.lookup(k), b.lookup(k), "key {k}");
            if let Some(rid) = a.lookup(k) {
                assert_eq!(a.row_values(rid), b.row_values(rid), "key {k}");
            }
            if let (Some(oa), Some(ob)) = (a.ordered(), b.ordered()) {
                assert_eq!(oa.get(k), ob.get(k), "ordered key {k}");
            }
        }
        if let (Some(oa), Some(ob)) = (a.ordered(), b.ordered()) {
            assert_eq!(oa.len(), ob.len());
            assert_eq!(oa.range(i64::MIN, i64::MAX), ob.range(i64::MIN, i64::MAX));
        }
    }

    #[test]
    fn deep_clone_is_independent_and_equal() {
        let mut t = small();
        for k in 0..50 {
            t.insert(k, &[k * 2, k * 3]).unwrap();
        }
        t.delete(10);
        let mut c = t.deep_clone();
        assert_eq!(digest(&t), digest(&c));
        assert_eq!(c.lookup(10), None);
        assert_eq!(c.lookup(11).map(|r| c.get(r, ColId(0))), Some(22));
        // Mutating the clone leaves the original untouched.
        let rid = c.lookup(20).unwrap();
        c.set(rid, ColId(0), 777);
        assert_eq!(t.get(t.lookup(20).unwrap(), ColId(0)), 40);
    }

    /// A table that has been through deletes (tombstoned index slots,
    /// dead row slots), a refused duplicate and re-inserts, with an
    /// ordered index a scan built halfway: the structural clone reads
    /// exactly like the original, row ids included — its own ordered index,
    /// unbuilt until it is read, too — and the two then grow independently.
    #[test]
    fn deep_clone_carries_tombstones_dead_slots_and_the_ordered_index() {
        let mut t = Table::new(TableBuilder::new("T").columns(["a", "b"]).capacity(64).build())
            .with_ordered();
        for k in 0..40 {
            t.insert(k * 3, &[k, -k]).unwrap();
        }
        assert_eq!(t.ordered().unwrap().len(), 40);
        for k in (0..40).step_by(4) {
            t.delete(k * 3).unwrap();
        }
        assert!(t.insert(3, &[0, 0]).is_err(), "duplicate");
        t.insert(12, &[99, 98]).unwrap(); // re-insert over a tombstone
        let mut c = t.deep_clone();
        assert!(t.ordered_is_built() && !c.ordered_is_built());
        assert_same_view(&t, &c, -5..130);
        assert_eq!(t.ordered().unwrap().range(10, 40), c.ordered().unwrap().range(10, 40));
        assert_eq!(
            t.ordered().unwrap().first_at_or_after(13),
            c.ordered().unwrap().first_at_or_after(13)
        );

        // Independent growth: the same insert lands in the same slot on
        // both sides; an insert or delete on one side is invisible to the
        // other.
        assert_eq!(t.insert(1_000, &[1, 1]), c.insert(1_000, &[2, 2]));
        assert_eq!(t.get(t.lookup(1_000).unwrap(), ColId(0)), 1);
        assert_eq!(c.get(c.lookup(1_000).unwrap(), ColId(0)), 2);
        c.insert(2_000, &[0, 0]).unwrap();
        assert_eq!(t.lookup(2_000), None);
        assert_eq!(t.ordered().unwrap().get(2_000), None);
        t.delete(6).unwrap();
        assert!(c.lookup(6).is_some());
        assert_eq!(c.ordered().unwrap().get(6), c.lookup(6));
        // Both fill up at the same point.
        let room = |x: &mut Table| (0..).take_while(|i| x.insert(5_000 + i, &[0, 0]).is_ok()).count();
        assert_eq!(room(&mut t), room(&mut c) + 1);
    }

    /// A table's ordered index is built by its first reader, from the rows
    /// it holds by then, and kept up to date from there; until then writes
    /// skip it. Copies leave it unbuilt, and so does the table an image
    /// rebuilds: an image keeps no tree.
    #[test]
    fn the_ordered_index_is_built_by_its_first_reader() {
        let scanned = |t: &Table| t.ordered().unwrap().range(i64::MIN, i64::MAX);
        let live = |t: &Table| {
            let mut keys: Vec<_> = t.live_keys().map(|(rid, k)| (k, rid)).collect();
            keys.sort_unstable();
            keys
        };
        let mut t = small().with_ordered();
        for k in (0..60).rev() {
            t.insert(k, &[k, 0]).unwrap();
        }
        t.delete(7).unwrap();
        let copy = t.deep_clone();
        assert!(!t.ordered_is_built() && !copy.ordered_is_built());
        assert_eq!(scanned(&t), live(&t));
        assert!(t.ordered_is_built());
        t.insert(-3, &[0, 0]).unwrap();
        t.delete(40).unwrap();
        assert_eq!(scanned(&t), live(&t));
        assert_eq!(t.ordered().unwrap().first_at_or_after(40), Some((41, t.lookup(41).unwrap())));

        assert!(!t.deep_clone().ordered_is_built());
        assert!(!t.filtered_clone(|_| true).ordered_is_built());
        let mut image = TableImage::default();
        image.refresh_from(&t);
        let rebuilt = image.to_table();
        assert!(!rebuilt.ordered_is_built());
        assert_eq!(scanned(&rebuilt), live(&t));
        t.delete(41).unwrap();
        assert!(!image.refresh_from(&t).full);
        assert_eq!(scanned(&image.to_table()), live(&t));
        // An index declared on a table that already holds rows has them.
        let mut late = Table::new(t.schema.clone());
        late.insert(5, &[1, 1]).unwrap();
        assert_eq!(late.with_ordered().ordered().unwrap().get(5), Some(RowId(0)));
    }

    /// A slice cut from a quarter of a table's rows keeps the table's
    /// modelled capacity and bytes, but gets an index for what it holds:
    /// at most the next power of two at or above twice the kept rows. Its
    /// copies inherit that size, and so does the index an image of it
    /// rebuilds. `reserve` grows it and every row keeps its id; the growth
    /// moves no row, so the image's next refresh is the delta of the rows
    /// inserted, and its rebuild is laid out at the grown size.
    #[test]
    fn a_quarter_slice_gets_an_index_for_its_rows() {
        let mut t = Table::new(TableBuilder::new("T").columns(["a", "b"]).capacity(4_000).build());
        for k in 0..1_000i64 {
            t.insert(k, &[k, -k]).unwrap();
        }
        assert_eq!(t.index_slots(), 8_192);
        let mut slice = t.filtered_clone(|k| k % 4 == 0);
        let kept = slice.live_rows();
        assert_eq!(kept, 250);
        assert!(slice.index_slots() <= (2 * kept).next_power_of_two(), "{}", slice.index_slots());
        assert_eq!((slice.capacity(), slice.bytes()), (t.capacity(), t.bytes()));
        assert_eq!(slice.deep_clone().index_slots(), slice.index_slots());
        let mut image = TableImage::default();
        assert!(image.refresh_from(&slice).full);
        assert!(!image.refresh_from(&slice).full);
        assert_eq!(image.to_table().index_slots(), slice.index_slots());

        let rows: Vec<_> = (0..1_000i64).step_by(4).map(|k| (k, slice.lookup(k))).collect();
        let slots = slice.index_slots();
        assert!(slice.reserve(1_000));
        assert!(slice.index_slots() >= 2 * (kept + 1_000) && slice.index_slots() > slots);
        for &(k, rid) in &rows {
            assert_eq!(slice.lookup(k), rid);
        }
        for k in 5_000..6_000i64 {
            slice.insert(k, &[k, k]).unwrap();
        }
        assert_eq!(image.refresh_from(&slice), ImageCopy { rows: 1_000, full: false });
        let rebuilt = image.to_table();
        assert_eq!(rebuilt.index_slots(), slice.index_slots());
        assert_same_view(&rebuilt, &slice, 0..6_000);
    }

    /// A fresh table's index is a placeholder for its capacity. Its copies
    /// are placeholders of the same size, and so is the index an image of it
    /// rebuilds, which the first reservation lays out as it lays out the
    /// source's; a slice of it is laid out for no rows. Once a key is in,
    /// the rebuild is laid out at the source's size with the key under its
    /// row id; and a placeholder emptied by a delete is none any more, on
    /// either side.
    #[test]
    fn copies_of_a_placeholder_copy_no_index_slot() {
        let mut t = Table::new(TableBuilder::new("T").columns(["a", "b"]).capacity(10_000).build());
        assert_eq!(t.index_slots(), 32_768);
        assert_eq!(t.deep_clone().index_slots(), 32_768);
        assert_eq!(t.filtered_clone(|_| true).index_slots(), 16);
        let mut image = TableImage::default();
        assert_eq!(image.refresh_from(&t), ImageCopy { rows: 0, full: true });
        let reserved_alike = |image: &TableImage, t: &Table, n: usize| {
            let (mut a, mut b) = (image.to_table(), t.deep_clone());
            assert_eq!(a.index_slots(), b.index_slots());
            a.reserve(n);
            b.reserve(n);
            assert_eq!(a.index_slots(), b.index_slots());
            a.index_slots()
        };
        assert_eq!(reserved_alike(&image, &t, 10), 256);

        t.insert(7, &[1, 2]).unwrap();
        assert_eq!(image.refresh_from(&t), ImageCopy { rows: 1, full: false });
        let rebuilt = image.to_table();
        assert_eq!((rebuilt.index_slots(), rebuilt.lookup(7)), (32_768, t.lookup(7)));
        t.delete(7).unwrap();
        image.refresh_from(&t);
        assert_eq!(reserved_alike(&image, &t, 100), 32_768);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reserve first")]
    fn a_slice_insert_past_half_load_without_a_reserve_panics() {
        let mut t = Table::new(TableBuilder::new("T").column("a").capacity(1_000).build());
        for k in 0..100i64 {
            t.insert(k, &[k]).unwrap();
        }
        let mut slice = t.filtered_clone(|_| true);
        for k in 100..1_000i64 {
            slice.insert(k, &[k]).unwrap();
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// After any history of inserts (duplicates and overflow
            /// included), deletes and cell writes, `deep_clone` is
            /// indistinguishable from the rebuild it replaced.
            #[test]
            fn deep_clone_matches_the_rebuild(
                ordered in any::<bool>(),
                ops in proptest::collection::vec((0..3u8, 0..48i64, -9..9i64), 0..200),
            ) {
                let mut t = scratch_table(96, ordered);
                apply(&mut t, &ops);
                let c = t.deep_clone();
                assert_same_view(&c, &rebuild_clone(&t), -2..50);
                assert_same_view(&c, &t, -2..50);
            }

            /// An image of another table — an earlier state of the source
            /// that a second image drained since, or an unrelated history
            /// with more or fewer row slots allocated, of the same shape or
            /// another — refreshed from the source takes the full copy and
            /// is then, bit for bit, the fresh image; the table it rebuilds
            /// reads like the source and grows like it.
            #[test]
            fn an_image_of_another_table_refreshes_to_the_fresh_image(
                ordered in any::<bool>(),
                related in any::<bool>(),
                image_capacity in prop_oneof![Just(96usize), Just(96usize), Just(40usize)],
                before in proptest::collection::vec((0..3u8, 0..48i64, -9..9i64), 0..200),
                after in proptest::collection::vec((0..3u8, 0..48i64, -9..9i64), 0..200),
            ) {
                let mut t = scratch_table(96, ordered);
                let mut image = TableImage::default();
                if related {
                    apply(&mut t, &before);
                    image.refresh_from(&t);
                    TableImage::default().refresh_from(&t);
                } else {
                    let mut other = scratch_table(image_capacity, !ordered);
                    apply(&mut other, &before);
                    image.refresh_from(&other);
                }
                apply(&mut t, &after);
                prop_assert!(image.refresh_from(&t).full, "does not mirror `t`");
                prop_assert!(image.bits() == fresh_image(&t).bits());
                assert_grows_like(image.to_table(), t.deep_clone());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

            /// An image kept up to date by `refresh_from` round after round
            /// *is* the fresh rows-only copy — cells, keys, row count and
            /// the source's index shape, bit for bit — whether the round
            /// took the delta (and then it says so, and copied no more rows
            /// than were written) or one of the ways the image can stop
            /// mirroring its source happened first and it fell back to the
            /// full copy. The table it rebuilds resolves every live key to
            /// its source's row id, has the source's digest and slot count,
            /// reads like it in every slot and ordered scan, and grows like
            /// it.
            ///
            /// `apply` reserves before it inserts, so a fresh table's first
            /// reservation replaces its placeholder index with one sized to
            /// the round's inserts, and later rounds grow it; one event
            /// grows it outright, and one starts the source over as a fresh
            /// table whose first reservation lays its index out. A growth
            /// moves no row: the refresh after it is a delta.
            ///
            /// Mutation check, by hand: with the mark taken out of any one of
            /// `set`, `add` or `delete`, with the newly allocated
            /// row slots left out of the delta, with the delta's keys
            /// skipped after a delete (`keys_moved` held false), or with the
            /// rebuild laid out at another size than the recorded one, this
            /// test fails.
            #[test]
            fn a_delta_maintained_image_is_the_fresh_clone(
                ordered in any::<bool>(),
                rounds in proptest::collection::vec(
                    (proptest::collection::vec((0..4u8, 0..48i64, -9..9i64), 0..60), 0..10u8),
                    2..7,
                ),
            ) {
                let mut t = scratch_table(96, ordered);
                let mut image = TableImage::default();
                let mut mirrors = false;
                for (ops, event) in &rounds {
                    apply(&mut t, ops);
                    match event {
                        // A second image is refreshed in between: it takes
                        // the marks this image needed.
                        0 => {
                            TableImage::default().refresh_from(&t);
                            mirrors = false;
                        }
                        // The source is replaced by a copy of itself: the
                        // same rows, another table.
                        1 => {
                            t = t.deep_clone();
                            mirrors = false;
                        }
                        2 => {
                            t = t.filtered_clone(|_| true);
                            mirrors = false;
                        }
                        // The image is replaced by one of another shape.
                        3 => {
                            image = fresh_image(&scratch_table(40, !ordered));
                            mirrors = false;
                        }
                        // The source index grows between refreshes.
                        4 => {
                            let slots = t.index_slots();
                            prop_assert!(t.reserve(slots));
                            prop_assert!(t.index_slots() > slots);
                        }
                        // The source starts over as a fresh table, the
                        // image is refreshed from it, and its first
                        // reservation replaces the placeholder index.
                        5 => {
                            t = scratch_table(96, ordered);
                            prop_assert!(image.refresh_from(&t).full);
                            prop_assert!(t.reserve(1));
                            prop_assert_eq!(t.index_slots(), 128);
                            apply(&mut t, ops);
                            mirrors = true;
                        }
                        // The source is scanned: its tree is built, and
                        // the next rounds' writes maintain it.
                        6 => {
                            let _ = t.ordered();
                        }
                        _ => {}
                    }
                    let copied = image.refresh_from(&t);
                    prop_assert_eq!(copied.full, !mirrors, "event {}", event);
                    if mirrors {
                        prop_assert!(copied.rows <= ops.len() as u64, "event {}", event);
                    }
                    mirrors = true;
                    prop_assert!(image.bits() == fresh_image(&t).bits(), "event {}", event);
                    let rebuilt = image.to_table();
                    prop_assert_eq!(rebuilt.index_slots(), t.index_slots());
                    assert_same_view(&rebuilt, &t, -2..70);
                }
                assert_grows_like(image.to_table(), t.deep_clone());
            }
        }

        /// A fresh rows-only image of `t`, taken from a copy so that `t`'s
        /// marks stay where they are.
        fn fresh_image(t: &Table) -> TableImage {
            let mut image = TableImage::default();
            image.refresh_from(&t.deep_clone());
            image
        }

        /// `a` and `b` read alike, and keep doing so through the same
        /// reservation and inserts.
        fn assert_grows_like(mut a: Table, mut b: Table) {
            assert_same_view(&a, &b, -2..120);
            a.reserve(10);
            b.reserve(10);
            assert_eq!(a.index_slots(), b.index_slots());
            for k in 100..110 {
                assert_eq!(a.insert(k, &[k, k]), b.insert(k, &[k, k]));
            }
            assert_same_view(&a, &b, -2..120);
        }

        fn scratch_table(capacity: usize, ordered: bool) -> Table {
            let schema = TableBuilder::new("T").columns(["a", "b"]).capacity(capacity).build();
            if ordered {
                Table::new(schema).with_ordered()
            } else {
                Table::new(schema)
            }
        }

        /// `(0, k, v)` inserts, `(1, k, _)` deletes, `(2, k, v)` writes a
        /// cell, `(3, k, v)` adds to one. The index is reserved for the
        /// inserts first.
        fn apply(t: &mut Table, ops: &[(u8, i64, i64)]) {
            t.reserve(ops.iter().filter(|&&(op, ..)| op == 0).count());
            for &(op, k, v) in ops {
                let rid = t.lookup(k);
                match (op, rid) {
                    (0, _) => {
                        let _ = t.insert(k, &[v, k]);
                    }
                    (1, _) => {
                        t.delete(k);
                    }
                    (2, Some(rid)) => t.set(rid, ColId(0), v),
                    (3, Some(rid)) => {
                        t.add(rid, ColId(1), v);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn digest_detects_single_cell_change() {
        let mut t = small();
        t.insert(1, &[1, 1]).unwrap();
        let mut before = 0u64;
        t.digest_into(&mut before);
        t.set(t.lookup(1).unwrap(), ColId(1), 2);
        let mut after = 0u64;
        t.digest_into(&mut after);
        assert_ne!(before, after);
    }

    #[test]
    fn bytes_counts_cells_and_keys() {
        let t = small(); // 100 rows * 2 cols + 100 keys, 8 bytes each
        assert_eq!(t.bytes(), (100 * 2 + 100) * 8);
    }
}
