//! Fixed-width integer tables with atomic cells and a lock-free primary
//! index. Safe for the phase-structured concurrency of the engines in this
//! workspace: readers and writers of the *same* batch phase never overlap on
//! a cell by protocol, and cross-phase ordering comes from barriers.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};

use crate::btree::OrderedIndex;
use crate::dirty::{in_groups, DirtyBits, ImageCopy};
use crate::index::{DuplicateKey, PrimaryIndex};
use crate::schema::{ColId, Schema};

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

/// The key column holds `key ^ DELETED_KEY`: the all-zero word of a row
/// slot straight from `alloc_zeroed` — every slot past [`Table::len`] —
/// then reads as deleted, and no key column is ever written to say so.
#[inline]
fn stored(key: i64) -> i64 {
    key ^ DELETED_KEY
}

/// The key a key-column word holds ([`stored`] undone).
#[inline]
fn loaded(word: &AtomicI64) -> i64 {
    word.load(Ordering::Acquire) ^ DELETED_KEY
}

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
/// so the pages past it are never faulted in. The primary index is sized
/// for what the table may receive: its whole capacity when created, the
/// rows it was cut with for a [`filtered_clone`](Self::filtered_clone),
/// and it grows only through [`reserve`](Self::reserve).
pub struct Table {
    schema: Schema,
    width: usize,
    /// Row-major cell storage, `capacity * width` atomics; zero past `len`.
    data: Box<[AtomicI64]>,
    /// Primary key of each row slot ([`stored`]; `DELETED_KEY` when removed
    /// or never allocated); lets the table be deep-cloned and digested
    /// without walking the index.
    keys: Box<[AtomicI64]>,
    row_count: AtomicU32,
    primary: PrimaryIndex,
    ordered: Option<OrderedIndex>,
    /// Row slots written (cells or key) since an image of this table was
    /// last brought up to date by [`deep_clone_from`](Self::deep_clone_from).
    /// `set`, `add`, `cas` and `delete` mark; only `deep_clone_from` clears.
    /// `insert` does not: row slots are handed out in order and never
    /// again, so the slots allocated since are the ones past the count the
    /// image last saw (lanes inserting side by side would otherwise fight
    /// over one bitmap word, as they already do over `row_count`).
    dirty: DirtyBits,
    /// Names this table *as of the last time its marks were drained*: a
    /// process-unique number, replaced by a new one at every drain — an
    /// identity and a generation in one. `Relaxed`: it publishes nothing,
    /// and is read and replaced only by `deep_clone_from`, which may not
    /// race a writer anyway.
    sync: AtomicU64,
    /// On an image: what it was last refreshed from.
    mirror: Option<Mirror>,
}

/// What an image remembers of its last refresh. While `source` is still the
/// source's `sync` and `own` the image's, the two differ only in marked row
/// and index slots and in row slots from `rows` up.
#[derive(Clone, Copy)]
struct Mirror {
    source: u64,
    own: u64,
    /// Row slots the source had allocated.
    rows: usize,
}

/// The next [`Table::sync`] value; 0 is never handed out.
static NEXT_SYNC: AtomicU64 = AtomicU64::new(1);

fn fresh_sync() -> u64 {
    NEXT_SYNC.fetch_add(1, Ordering::Relaxed)
}

impl Table {
    /// Create an empty table from `schema`, its index sized for the
    /// whole capacity: it never needs a [`reserve`](Self::reserve).
    pub fn new(schema: Schema) -> Self {
        let cap = schema.capacity;
        Table::with_index_for(schema, cap)
    }

    /// An empty table whose primary index takes `keys` inserts before it
    /// must grow.
    fn with_index_for(schema: Schema, keys: usize) -> Self {
        let width = schema.width();
        let cap = schema.capacity;
        Table {
            width,
            data: zeroed_words(cap * width),
            keys: zeroed_words(cap),
            row_count: AtomicU32::new(0),
            primary: PrimaryIndex::with_capacity(keys),
            ordered: None,
            dirty: DirtyBits::new(cap),
            sync: AtomicU64::new(fresh_sync()),
            mirror: None,
            schema,
        }
    }

    /// Attach an ordered (B+tree) index, enabling range scans.
    pub fn with_ordered(mut self) -> Self {
        self.ordered = Some(OrderedIndex::new());
        // Another table as far as any image of the old one is concerned.
        self.sync = AtomicU64::new(fresh_sync());
        self
    }

    /// The ordered index, if the table was built with one.
    pub fn ordered(&self) -> Option<&OrderedIndex> {
        self.ordered.as_ref()
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of row slots ever allocated (including deleted rows).
    pub fn len(&self) -> usize {
        self.row_count.load(Ordering::Acquire) as usize
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

    /// Slots of the primary index as the host holds it (live, tombstoned
    /// and empty): the schema capacity's worth for a table created with
    /// [`new`](Self::new), what was cut or reserved for a slice. Nothing
    /// modelled reads it.
    pub fn index_slots(&self) -> usize {
        self.primary.slot_count()
    }

    /// Make room in the primary index for `n` more inserts, the one way it
    /// grows ([`PrimaryIndex::reserve`]): call it, with the exact count, at
    /// the `&mut` point before inserts into a table that was not created at
    /// its full capacity — a write-back launch inserts through `&self` and
    /// never grows anything. A growth lays the index out anew, so the table
    /// is another table to its images: the next
    /// [`deep_clone_from`](Self::deep_clone_from) takes the full copy.
    /// Returns whether it did.
    pub fn reserve(&mut self, n: usize) -> bool {
        let rebuilt = self.primary.reserve(n);
        if rebuilt {
            *self.sync.get_mut() = fresh_sync();
        }
        rebuilt
    }

    #[inline]
    fn cell(&self, rid: RowId, col: ColId) -> &AtomicI64 {
        debug_assert!(col.idx() < self.width, "column out of range");
        &self.data[rid.idx() * self.width + col.idx()]
    }

    /// Insert a row under `key`. `values` must match the schema width.
    /// Concurrent-safe; at most one insert of a given key wins. The index
    /// must have room ([`reserve`](Self::reserve)); an insert past its half
    /// load panics under `debug_assertions`.
    pub fn insert(&self, key: i64, values: &[i64]) -> Result<RowId, TableError> {
        assert_eq!(values.len(), self.width, "row width mismatch for {}", self.schema.name);
        let rid = self.row_count.fetch_add(1, Ordering::AcqRel);
        if rid as usize >= self.schema.capacity {
            self.row_count.fetch_sub(1, Ordering::AcqRel);
            return Err(TableError::Full);
        }
        let rid = RowId(rid);
        for (c, v) in values.iter().enumerate() {
            self.data[rid.idx() * self.width + c].store(*v, Ordering::Relaxed);
        }
        self.keys[rid.idx()].store(stored(key), Ordering::Release);
        match self.primary.insert(key, rid) {
            Ok(()) => {
                if let Some(ord) = &self.ordered {
                    ord.insert(key, rid);
                }
                Ok(rid)
            }
            Err(DuplicateKey { existing }) => {
                // The slot is leaked (never indexed); mark it dead.
                self.keys[rid.idx()].store(stored(DELETED_KEY), Ordering::Release);
                Err(TableError::Duplicate(existing))
            }
        }
    }

    /// Resolve a primary key to its row.
    #[inline]
    pub fn lookup(&self, key: i64) -> Option<RowId> {
        self.primary.get(key)
    }

    /// Bring the primary-index slot a [`lookup`](Self::lookup) of `key`
    /// starts at into cache ([`PrimaryIndex::touch`]).
    #[inline]
    pub fn touch(&self, key: i64) {
        self.primary.touch(key);
    }

    /// Read one cell.
    #[inline]
    pub fn get(&self, rid: RowId, col: ColId) -> i64 {
        self.cell(rid, col).load(Ordering::Acquire)
    }

    /// Overwrite one cell.
    #[inline]
    pub fn set(&self, rid: RowId, col: ColId, v: i64) {
        self.dirty.mark(rid.idx());
        self.cell(rid, col).store(v, Ordering::Release);
    }

    /// Atomically add `delta` to one cell, returning the previous value.
    /// Used by the delayed-update write-back and by CPU baselines.
    #[inline]
    pub fn add(&self, rid: RowId, col: ColId, delta: i64) -> i64 {
        self.dirty.mark(rid.idx());
        self.cell(rid, col).fetch_add(delta, Ordering::AcqRel)
    }

    /// Atomic compare-exchange on one cell (TicToc-style lock words).
    #[inline]
    pub fn cas(&self, rid: RowId, col: ColId, expect: i64, new: i64) -> Result<i64, i64> {
        self.dirty.mark(rid.idx());
        self.cell(rid, col).compare_exchange(expect, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Copy a row's cells into a fresh vector.
    pub fn row_values(&self, rid: RowId) -> Vec<i64> {
        (0..self.width).map(|c| self.get(rid, ColId(c as u16))).collect()
    }

    /// The primary key stored at `rid`, or `None` if the slot was deleted.
    pub fn key_of(&self, rid: RowId) -> Option<i64> {
        let k = loaded(&self.keys[rid.idx()]);
        (k != DELETED_KEY).then_some(k)
    }

    /// The allocated row slots that hold a live row, with its key, in
    /// slot order.
    pub(crate) fn live_keys(&self) -> impl Iterator<Item = (RowId, i64)> + '_ {
        (0..self.len() as u32).filter_map(|r| self.key_of(RowId(r)).map(|k| (RowId(r), k)))
    }

    /// Delete the row under `key`. Returns the freed row id.
    pub fn delete(&self, key: i64) -> Option<RowId> {
        let rid = self.primary.remove(key)?;
        if let Some(ord) = &self.ordered {
            ord.remove(key);
        }
        self.dirty.mark(rid.idx());
        self.keys[rid.idx()].store(stored(DELETED_KEY), Ordering::Release);
        Some(rid)
    }

    /// Deep copy, structural: the cells and keys of the `len` allocated
    /// row slots are copied into the clone's arrays (the never-allocated
    /// tail of either is not even written), the primary index slot for slot
    /// (tombstones included, at the source's size) and the ordered index
    /// node for node.
    /// The cost is bytes copied, never rows re-inserted, and the clone
    /// resolves every key to the same [`RowId`] by the same probe sequence
    /// as the original. This is the checkpoint image, the standby-row seed
    /// and the test oracles' pre-batch snapshot; take it at a batch
    /// boundary (it must not race a writer).
    pub fn deep_clone(&self) -> Table {
        let n = self.len();
        Table {
            schema: self.schema.clone(),
            width: self.width,
            data: copy_prefix(&self.data, n * self.width),
            keys: copy_prefix(&self.keys, n),
            row_count: AtomicU32::new(n as u32),
            primary: self.primary.clone(),
            ordered: self.ordered.clone(),
            dirty: DirtyBits::new(self.schema.capacity),
            sync: AtomicU64::new(fresh_sync()),
            mirror: None,
        }
    }

    /// Make `self` what [`src.deep_clone()`](Self::deep_clone) would
    /// return, in the arrays `self` already owns, and say what that took.
    /// This is how a checkpoint replaces the image before it.
    ///
    /// **Delta.** If `self` was last refreshed from this very `src` and
    /// nobody else has drained `src`'s marks since (nor `self`'s), the two
    /// differ only in the row slots marked or allocated since and in the
    /// marked index slots: those rows' cells and keys and those index slots
    /// are copied, the ordered index has the keys that left such a row
    /// removed and the keys that arrived inserted (not at all if it was
    /// never touched), and nothing is allocated beyond what those tree
    /// inserts need. The cost is what was written since the last refresh,
    /// not the table.
    ///
    /// **Full.** Anything else — an image of another source, of another
    /// state of it (a second image was refreshed in between), a fresh
    /// `deep_clone` — takes the full copy: the live prefix of the cells and
    /// keys is overwritten, row slots `self` had allocated beyond `src`'s
    /// are vacated, the index slots are overwritten one for one, the
    /// ordered index is cloned. No array is allocated, so no page of a
    /// 100 MB image is faulted in again; a `self` whose arrays have another
    /// size is replaced by a fresh clone.
    ///
    /// Either way `src`'s marks are drained and `self` mirrors `src` for
    /// the next call. Like `deep_clone`, take it at a batch boundary.
    pub fn deep_clone_from(&mut self, src: &Table) -> ImageCopy {
        let (source, own) = (src.sync.load(Ordering::Relaxed), *self.sync.get_mut());
        let copied = match self.mirror {
            Some(m) if m.source == source && m.own == own => self.copy_written(src, m.rows),
            _ => self.copy_all(src),
        };
        let source = fresh_sync();
        src.sync.store(source, Ordering::Relaxed);
        self.mirror = Some(Mirror { source, own: *self.sync.get_mut(), rows: src.len() });
        copied
    }

    /// The full copy of [`deep_clone_from`](Self::deep_clone_from); leaves
    /// both sides without a mark.
    fn copy_all(&mut self, src: &Table) -> ImageCopy {
        if self.data.len() != src.data.len() || self.keys.len() != src.keys.len() {
            *self = src.deep_clone();
        } else {
            let (was, n) = (self.len(), src.len());
            overwrite(&mut self.data, &src.data, n * src.width, was * self.width);
            overwrite(&mut self.keys, &src.keys, n, was);
            *self.row_count.get_mut() = n as u32;
            self.primary.clone_from(&src.primary);
            self.ordered.clone_from(&src.ordered);
            self.schema.clone_from(&src.schema);
            self.width = src.width;
            self.dirty.clear();
        }
        src.dirty.clear();
        src.primary.clear_dirty();
        if let Some(ord) = &src.ordered {
            ord.take_touched();
        }
        let (rows, index_slots) = (src.len() as u64, src.primary.slot_count() as u64);
        ImageCopy { rows, index_slots, full: true }
    }

    /// The delta of [`deep_clone_from`](Self::deep_clone_from): `self`
    /// equals `src` except in slots marked on either side and in row slots
    /// either side allocated since the source had `synced` of them (the
    /// image's own writes count too: an image is not meant to be written,
    /// but if it was, they say where it strayed from the source).
    fn copy_written(&mut self, src: &Table, synced: usize) -> ImageCopy {
        let upper = src.len().max(self.len());
        let Table { data, keys, dirty, primary, ordered, row_count, .. } = self;
        // A key enters or leaves the key column only together with its
        // index slot (the burned slot of a duplicate insert ends as vacant
        // as it began), so a period that wrote no index slot — every
        // update-only table — has no key to copy, and its scattered rows
        // cost one cache miss a side instead of two.
        let index_slots = primary.refresh_from(&src.primary);
        let keys_moved = index_slots > 0;
        let mut tree = match (ordered.as_mut(), &src.ordered) {
            (Some(own), Some(theirs)) => {
                (theirs.take_touched() | own.take_touched()).then_some(own)
            }
            _ => None,
        };
        if let Some(tree) = tree.as_deref_mut() {
            // Every key that left a slot goes before any key arrives (in
            // `copy_keys_of`): a key deleted from one slot and re-inserted in
            // another is in the tree once, under the row it moved to.
            for r in written_rows(src.dirty.marked_with(dirty), synced, upper) {
                let (was, now) = (loaded(&keys[r]), loaded(&src.keys[r]));
                if was != now && was != DELETED_KEY {
                    tree.remove_mut(was);
                }
            }
        }
        let rows = in_groups(written_rows(src.dirty.drain_with(dirty), synced, upper), |group| {
            copy_cells_of(group, data, src);
            if keys_moved {
                copy_keys_of(group, keys, src, tree.as_deref_mut());
            }
        });
        *row_count.get_mut() = src.len() as u32;
        ImageCopy { rows, index_slots, full: false }
    }

    /// Clone only the live rows whose key satisfies `keep`, preserving the
    /// schema and index kinds. Row slots are compacted, which is fine
    /// everywhere this is used: the state digest is row-order-insensitive,
    /// and engines address rows through the primary index. This is how a
    /// shard derives its slice of a database. The slice keeps the schema's
    /// capacity — what every modelled figure reads, so each shard is
    /// charged as the single-device engine is — but holds only what it
    /// was cut with: cells and keys past its rows stay untouched zero
    /// pages, and its primary index is sized for the kept rows, to grow by
    /// [`reserve`](Self::reserve) as inserts arrive.
    pub fn filtered_clone(&self, keep: impl Fn(i64) -> bool) -> Table {
        let kept: Vec<(RowId, i64)> = self.live_keys().filter(|&(_, k)| keep(k)).collect();
        let mut clone = Table::with_index_for(self.schema.clone(), kept.len());
        if self.ordered.is_some() {
            clone = clone.with_ordered();
        }
        for (rid, k) in kept {
            clone.insert(k, &self.row_values(rid)).expect("filtered clone insert");
        }
        clone
    }

    /// Fold the table's live contents into a **row-order-insensitive**
    /// digest (a multiset hash: per-row FNV hashes combined by wrapping
    /// addition). Row slot order varies with write-back parallelism, but
    /// the logical state — the set of `(key, cells)` rows — must not, so
    /// engine outcomes are compared on exactly that.
    pub fn digest_into(&self, h: &mut u64) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let n = self.len();
        for r in 0..n {
            let k = loaded(&self.keys[r]);
            if k == DELETED_KEY {
                continue;
            }
            let mut row = (FNV_OFFSET ^ (k as u64)).wrapping_mul(FNV_PRIME);
            for c in 0..self.width {
                let v = self.get(RowId(r as u32), ColId(c as u16));
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
fn copy_prefix(src: &[AtomicI64], live: usize) -> Box<[AtomicI64]> {
    let words = zeroed_words(src.len());
    for (dst, word) in words.iter().zip(&src[..live]) {
        dst.store(word.load(Ordering::Acquire), Ordering::Relaxed);
    }
    words
}

/// `len` zero words straight from `alloc_zeroed` (for a large array: fresh
/// zero pages, untouched until first written).
fn zeroed_words(len: usize) -> Box<[AtomicI64]> {
    if len == 0 {
        return Box::default();
    }
    let layout = Layout::array::<AtomicI64>(len).expect("cell array exceeds the address space");
    // SAFETY: `layout` has non-zero size (`len > 0`). `AtomicI64` has the
    // bit validity of `i64`, so all-zero bytes are `len` initialised cells.
    // The pointer comes from the global allocator with exactly the layout a
    // `Box<[AtomicI64]>` of this length is freed with.
    unsafe {
        let ptr = alloc_zeroed(layout).cast::<AtomicI64>();
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len))
    }
}

/// Bring `dst`, an array of `src`'s length whose first `stale` entries may
/// hold anything and whose rest are zero, to what a fresh copy would be:
/// the first `live` entries from `src`, everything after them zero.
fn overwrite(dst: &mut [AtomicI64], src: &[AtomicI64], live: usize, stale: usize) {
    for (d, s) in dst.iter_mut().zip(&src[..live]) {
        *d.get_mut() = s.load(Ordering::Acquire);
    }
    for d in dst.iter_mut().take(stale).skip(live) {
        *d.get_mut() = 0;
    }
}

#[cfg(test)]
impl Table {
    /// Every bit an image must share with a fresh clone: all cells, all
    /// keys, all primary-index slots.
    pub(crate) fn image_bits(&self) -> (Vec<i64>, Vec<i64>, Vec<(i64, u32)>) {
        let bits = |x: &[AtomicI64]| x.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        (bits(&self.data), bits(&self.keys), self.primary.slot_bits())
    }
}

/// The row slots a delta copies: the `marked` ones below `synced`, then
/// every slot from `synced` (the first the image's last refresh did not see
/// allocated) up to `upper`.
fn written_rows(
    marked: impl Iterator<Item = usize>,
    synced: usize,
    upper: usize,
) -> impl Iterator<Item = usize> {
    marked.filter(move |&r| r < synced).chain(synced..upper)
}

/// Copy the cells of row slots `rows` of `src` into an image's `data`, in
/// the two passes of [`in_groups`]: touch, then copy.
fn copy_cells_of(rows: &[usize], data: &mut [AtomicI64], src: &Table) {
    let width = src.width;
    let touch = |line: Option<&AtomicI64>| {
        std::hint::black_box(line.map(|cell| cell.load(Ordering::Relaxed)));
    };
    for &r in rows {
        let cells = r * width..(r + 1) * width;
        for side in [&src.data[cells.clone()], &data[cells]] {
            touch(side.first());
            touch(side.last());
        }
    }
    for &r in rows {
        let cells = r * width..(r + 1) * width;
        for (dst, cell) in data[cells.clone()].iter_mut().zip(&src.data[cells]) {
            *dst.get_mut() = cell.load(Ordering::Acquire);
        }
    }
}

/// Copy the keys of row slots `rows` of `src` into an image's `keys`; a key
/// that arrives in a slot goes into `tree`. (Rows that change key are
/// allocated together or deleted in key order: their key slots share cache
/// lines, and no touch pass is needed.)
fn copy_keys_of(
    rows: &[usize],
    keys: &mut [AtomicI64],
    src: &Table,
    mut tree: Option<&mut OrderedIndex>,
) {
    for &r in rows {
        let (was, now) = (loaded(&keys[r]), loaded(&src.keys[r]));
        *keys[r].get_mut() = stored(now);
        if let Some(tree) = tree.as_deref_mut() {
            if was != now && now != DELETED_KEY {
                tree.insert_mut(now, RowId(r as u32));
            }
        }
    }
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
    use crate::schema::TableBuilder;

    fn small() -> Table {
        Table::new(TableBuilder::new("T").columns(["a", "b"]).capacity(100).build())
    }

    #[test]
    fn insert_lookup_get_set_roundtrip() {
        let t = small();
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
        let t = small();
        let rid = t.insert(1, &[5, 0]).unwrap();
        assert_eq!(t.add(rid, ColId(0), 3), 5);
        assert_eq!(t.get(rid, ColId(0)), 8);
    }

    #[test]
    fn duplicate_key_rejected_and_capacity_enforced() {
        let t = Table::new(TableBuilder::new("T").column("a").capacity(3).build());
        let r0 = t.insert(1, &[0]).unwrap();
        // The duplicate attempt burns its allocated slot (lock-free slot
        // allocation cannot be handed back), leaving one usable slot.
        assert_eq!(t.insert(1, &[1]), Err(TableError::Duplicate(r0)));
        t.insert(2, &[0]).unwrap();
        assert_eq!(t.insert(3, &[0]), Err(TableError::Full));
        assert_eq!(t.live_rows(), 2);
    }

    #[test]
    fn delete_unindexes_and_key_of_reports_none() {
        let t = small();
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
    /// re-inserted into fresh indexes.
    fn rebuild_clone(t: &Table) -> Table {
        let mut clone = Table::new(t.schema.clone());
        if t.ordered.is_some() {
            clone = clone.with_ordered();
        }
        let n = t.len();
        for r in 0..n {
            let rid = RowId(r as u32);
            for c in 0..t.width {
                clone.data[r * t.width + c].store(t.get(rid, ColId(c as u16)), Ordering::Relaxed);
            }
            let k = t.key_of(rid).unwrap_or(DELETED_KEY);
            clone.keys[r].store(stored(k), Ordering::Relaxed);
            if k != DELETED_KEY {
                clone.primary.insert(k, rid).expect("clone index insert");
                if let Some(ord) = &clone.ordered {
                    ord.insert(k, rid);
                }
            }
        }
        clone.row_count.store(n as u32, Ordering::Release);
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
        let t = small();
        for k in 0..50 {
            t.insert(k, &[k * 2, k * 3]).unwrap();
        }
        t.delete(10);
        let c = t.deep_clone();
        assert_eq!(digest(&t), digest(&c));
        assert_eq!(c.lookup(10), None);
        assert_eq!(c.lookup(11).map(|r| c.get(r, ColId(0))), Some(22));
        // Mutating the clone leaves the original untouched.
        let rid = c.lookup(20).unwrap();
        c.set(rid, ColId(0), 777);
        assert_eq!(t.get(t.lookup(20).unwrap(), ColId(0)), 40);
    }

    /// A table that has been through deletes (tombstoned index slots,
    /// dead row slots), a burned duplicate slot and re-inserts, with an
    /// ordered index: the structural clone reads exactly like the
    /// original, row ids included, and the two then grow independently.
    #[test]
    fn deep_clone_carries_tombstones_dead_slots_and_the_ordered_index() {
        let t = Table::new(TableBuilder::new("T").columns(["a", "b"]).capacity(64).build())
            .with_ordered();
        for k in 0..40 {
            t.insert(k * 3, &[k, -k]).unwrap();
        }
        for k in (0..40).step_by(4) {
            t.delete(k * 3).unwrap();
        }
        assert!(t.insert(3, &[0, 0]).is_err(), "duplicate burns a slot");
        t.insert(12, &[99, 98]).unwrap(); // re-insert over a tombstone
        let c = t.deep_clone();
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
        let room = |x: &Table| (0..).take_while(|i| x.insert(5_000 + i, &[0, 0]).is_ok()).count();
        assert_eq!(room(&t), room(&c) + 1);
    }

    /// A slice cut from a quarter of a table's rows keeps the table's
    /// modelled capacity and bytes, but gets an index for what it holds:
    /// at most the next power of two at or above twice the kept rows. Its
    /// copies inherit that size; `reserve` grows it and every row keeps its
    /// id.
    #[test]
    fn a_quarter_slice_gets_an_index_for_its_rows() {
        let t = Table::new(TableBuilder::new("T").columns(["a", "b"]).capacity(4_000).build());
        for k in 0..1_000i64 {
            t.insert(k, &[k, -k]).unwrap();
        }
        assert_eq!(t.index_slots(), 8_192);
        let mut slice = t.filtered_clone(|k| k % 4 == 0);
        let kept = slice.live_rows();
        assert_eq!(kept, 250);
        assert!(slice.index_slots() <= (2 * kept).next_power_of_two(), "{}", slice.index_slots());
        assert_eq!((slice.capacity(), slice.bytes()), (t.capacity(), t.bytes()));
        let mut image = slice.deep_clone();
        assert_eq!(image.index_slots(), slice.index_slots());
        assert!(image.deep_clone_from(&slice).full);
        assert!(!image.deep_clone_from(&slice).full);

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
        // The grown index is another table to the image: a full copy, the
        // source's new size.
        let copied = image.deep_clone_from(&slice);
        assert!(copied.full);
        assert_eq!(copied.index_slots, slice.index_slots() as u64);
        assert_eq!(image.image_bits(), slice.deep_clone().image_bits());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reserve first")]
    fn a_slice_insert_past_half_load_without_a_reserve_panics() {
        let t = Table::new(TableBuilder::new("T").column("a").capacity(1_000).build());
        for k in 0..100i64 {
            t.insert(k, &[k]).unwrap();
        }
        let slice = t.filtered_clone(|_| true);
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

            /// An image of any table of the same shape — an earlier state
            /// of the source, or an unrelated history with more or fewer
            /// row slots allocated — refreshed in place is, cell for cell,
            /// the fresh clone; an image of another shape is replaced.
            #[test]
            fn deep_clone_from_matches_a_fresh_clone(
                ordered in any::<bool>(),
                related in any::<bool>(),
                image_capacity in prop_oneof![Just(96usize), Just(96usize), Just(40usize)],
                before in proptest::collection::vec((0..3u8, 0..48i64, -9..9i64), 0..200),
                after in proptest::collection::vec((0..3u8, 0..48i64, -9..9i64), 0..200),
            ) {
                let mut t = scratch_table(96, ordered);
                let mut image = if related {
                    apply(&mut t, &before);
                    t.deep_clone()
                } else {
                    let mut other = scratch_table(image_capacity, !ordered);
                    apply(&mut other, &before);
                    other
                };
                apply(&mut t, &after);
                prop_assert!(image.deep_clone_from(&t).full, "never refreshed from `t` before");
                let fresh = t.deep_clone();
                assert_same_view(&image, &fresh, -2..50);
                prop_assert!(image.image_bits() == fresh.image_bits());
                // The two keep agreeing as they grow.
                for k in 100..110 {
                    assert_eq!(image.insert(k, &[k, k]), fresh.insert(k, &[k, k]));
                }
                assert_same_view(&image, &fresh, -2..120);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

            /// An image kept up to date by `deep_clone_from` round after
            /// round *is* the fresh clone — cells, keys and index slots bit
            /// for bit, the ordered index by everything a reader can ask —
            /// whether the round took the delta (and then it says so, and
            /// copied no more rows than were written) or one of the ways
            /// the image can stop mirroring its source happened first and
            /// it fell back to the full copy.
            ///
            /// A source cut by `filtered_clone` has an index sized to its
            /// rows, so its inserts grow it (`apply` reserves first), and
            /// one event grows it outright: a grown index is laid out anew,
            /// and the refresh after it must be the full copy.
            ///
            /// Mutation check, by hand (PR 22): with the mark taken out of
            /// any one of `set`, `add`, `cas` or `delete`, or out of
            /// `PrimaryIndex::claim` / `remove`, with the newly allocated
            /// row slots (inserts, and the burned slot of a duplicate) left
            /// out of `written_rows`, with `OrderedIndex::insert` /
            /// `remove` not setting `touched`, or with a departing key
            /// removed from the tree only as its slot is copied, this test
            /// fails; so it does with `Table::reserve` not replacing the
            /// table's `sync` when the index grows.
            #[test]
            fn a_delta_maintained_image_is_the_fresh_clone(
                ordered in any::<bool>(),
                rounds in proptest::collection::vec(
                    (proptest::collection::vec((0..5u8, 0..48i64, -9..9i64), 0..60), 0..12u8),
                    2..7,
                ),
            ) {
                let mut t = scratch_table(96, ordered);
                let mut image = t.deep_clone();
                let mut mirrors = false;
                for (ops, event) in &rounds {
                    mirrors &= !apply(&mut t, ops);
                    match event {
                        // A second image is refreshed in between: it takes
                        // the marks this image needed.
                        0 => {
                            scratch_table(96, ordered).deep_clone_from(&t);
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
                            image = scratch_table(40, !ordered);
                            mirrors = false;
                        }
                        // The image itself is written: its own marks say
                        // where, and the delta repairs it.
                        // (Unless the write grew the image's index.)
                        4 => mirrors &= !apply(&mut image, &[(0, 60, 1), (1, 7, 0), (2, 9, 5), (0, 7, 3)]),
                        // The written image is then drained as a source, so
                        // its marks are gone: it may not take the delta.
                        5 => {
                            apply(&mut image, &[(0, 61, 1), (1, 8, 0), (3, 10, 5)]);
                            scratch_table(96, ordered).deep_clone_from(&image);
                            mirrors = false;
                        }
                        // The source index grew between refreshes.
                        6 => {
                            let slots = t.index_slots();
                            prop_assert!(t.reserve(slots));
                            prop_assert!(t.index_slots() > slots);
                            mirrors = false;
                        }
                        _ => {}
                    }
                    let copied = image.deep_clone_from(&t);
                    prop_assert_eq!(copied.full, !mirrors, "event {}", event);
                    if copied.full {
                        prop_assert_eq!(copied.index_slots, t.index_slots() as u64);
                    }
                    if mirrors && *event > 6 {
                        let written = ops.len() as u64;
                        prop_assert!(copied.rows <= written && copied.index_slots <= written);
                    }
                    mirrors = true;
                    let fresh = t.deep_clone();
                    prop_assert!(image.image_bits() == fresh.image_bits(), "event {}", event);
                    assert_same_view(&image, &fresh, -2..70);
                }
                // The two keep agreeing as they grow, through the same
                // reservation.
                let mut fresh = t.deep_clone();
                assert_eq!(image.reserve(10), fresh.reserve(10));
                for k in 100..110 {
                    assert_eq!(image.insert(k, &[k, k]), fresh.insert(k, &[k, k]));
                }
                assert_same_view(&image, &fresh, -2..120);
                prop_assert!(image.image_bits() == fresh.image_bits());
            }
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
        /// cell, `(3, k, v)` adds to one, `(4, k, v)` compare-exchanges one.
        /// The index is reserved for the inserts first; returns whether
        /// that rebuilt it.
        fn apply(t: &mut Table, ops: &[(u8, i64, i64)]) -> bool {
            let rebuilt = t.reserve(ops.iter().filter(|&&(op, ..)| op == 0).count());
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
                    (4, Some(rid)) => {
                        let _ = t.cas(rid, ColId(1), t.get(rid, ColId(1)), v);
                    }
                    _ => {}
                }
            }
            rebuilt
        }
    }

    #[test]
    fn digest_detects_single_cell_change() {
        let t = small();
        t.insert(1, &[1, 1]).unwrap();
        let mut before = 0u64;
        t.digest_into(&mut before);
        t.set(t.lookup(1).unwrap(), ColId(1), 2);
        let mut after = 0u64;
        t.digest_into(&mut after);
        assert_ne!(before, after);
    }

    #[test]
    fn concurrent_inserts_fill_distinct_slots() {
        let t = Table::new(TableBuilder::new("T").column("a").capacity(4000).build());
        crossbeam::scope(|s| {
            for th in 0..4i64 {
                let t = &t;
                s.spawn(move |_| {
                    for i in 0..1000i64 {
                        t.insert(th * 1000 + i, &[th]).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(t.len(), 4000);
        assert_eq!(t.live_rows(), 4000);
        for k in 0..4000i64 {
            let rid = t.lookup(k).expect("key missing");
            assert_eq!(t.key_of(rid), Some(k));
        }
    }

    #[test]
    fn bytes_counts_cells_and_keys() {
        let t = small(); // 100 rows * 2 cols + 100 keys, 8 bytes each
        assert_eq!(t.bytes(), (100 * 2 + 100) * 8);
    }
}
