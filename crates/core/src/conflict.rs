//! The conflict log: dynamic hash buckets for TID registration (§V-C).
//!
//! Every data access of the execute phase registers its transaction's TID
//! against the accessed row with a single `atomicMin`. A bucket holds
//! `s_u` *slots* for each of the read-TID and write-TID records:
//!
//! * **standard-sized** buckets (`s_u = 1`) — one slot; concurrent
//!   registrations against one row serialize on one atomic.
//! * **large-sized** buckets (`s_u = ⌈E/WS⌉·WS`) — used when the table's
//!   access frequency `E = T/D` exceeds 1 (or the operator pre-marked it):
//!   a registering thread re-hashes to slot `TID mod s_u`, spreading the
//!   atomics across slots. Detection scans all slots and takes the min —
//!   reads are cheap and coalesced; it is the *serialized atomic writes*
//!   the design avoids (paper Table VII).
//!
//! Buckets are addressed by open addressing with linear probing
//! (`h(key, i) = (h(key) + i) mod s_h`), the same policy the paper states.
//! Four engineering choices worth calling out:
//!
//! * **Modelled geometry, physical claims.** `s_h`, `s_u`, the home bucket
//!   and the probe sequence are the *modelled* log: they decide every
//!   probe charged, every collision and when the log is full. The host
//!   stores only the buckets claimed in the current epoch, in a small
//!   open-addressed table keyed by `(epoch, modelled bucket index)` that
//!   grows between epochs with what they claimed. Finding a bucket's
//!   entry is host bookkeeping on plain atomics and charges no lane; the
//!   charged operations land on the entry's own [`SimAtomicU64`]s, which
//!   see exactly the operations the modelled bucket would.
//! * **One cache line per claimed bucket.** An entry's physical key, owner
//!   tag, two summary marks and first read and write slot sit together in
//!   one 64-byte `Entry` (WarpSpeed sizes its buckets the same way), so a
//!   registration or detection probe of a standard-sized bucket touches
//!   one line. Large-sized buckets take slots `1..s_u` of a record as one
//!   run, on the record's first registration, from a grow-only arena
//!   recycled between epochs.
//! * **Epoch-packed slots.** A slot stores `(epoch', tid)` with
//!   `epoch' = EPOCH_CEIL − epoch`, so values from the current batch are
//!   always numerically smaller than stale ones and a plain `atomicMin`
//!   simultaneously overrides stale state and maintains the minimum —
//!   an entry recycled from an earlier epoch needs no reset. Only when the
//!   24-bit epoch space wraps is everything cleared.
//! * **40-bit key tags.** A bucket's owner tag stores a 40-bit hash of the
//!   key rather than the key itself (keys don't fit next to the epoch).
//!   A tag collision merges two rows' records, which can only *add*
//!   conflicts (extra aborts), never hide one — safe, and vanishingly rare.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use ltpg_gpu_sim::{Lane, SimAtomicU64};
use ltpg_storage::index::mix_key;
use ltpg_storage::{ColId, Database, TableId};
use parking_lot::Mutex;

use crate::config::LtpgConfig;
use crate::footprint::{Cell, Check, Part, Record};

/// TIDs must fit in 40 bits (≈ 10¹² transactions per engine lifetime).
const TID_BITS: u32 = 40;
const TID_MASK: u64 = (1 << TID_BITS) - 1;
/// Epochs fit in the remaining 24 bits.
const EPOCH_CEIL: u64 = (1 << 24) - 1;
/// The last epoch [`ConflictLog::begin_batch`] hands out before it wraps.
pub(crate) const LAST_EPOCH: u32 = (EPOCH_CEIL - 2) as u32;
/// Slot value meaning "never written".
const SLOT_EMPTY: u64 = u64::MAX;

#[inline]
fn encode(epoch: u32, tid: u64) -> u64 {
    debug_assert!(tid <= TID_MASK, "TID exceeds 40 bits");
    debug_assert!(u64::from(epoch) < EPOCH_CEIL);
    ((EPOCH_CEIL - u64::from(epoch)) << TID_BITS) | tid
}

#[inline]
fn decode(v: u64, epoch: u32) -> Option<u64> {
    if v == SLOT_EMPTY {
        return None;
    }
    ((v >> TID_BITS) == EPOCH_CEIL - u64::from(epoch)).then_some(v & TID_MASK)
}

/// `(epoch, index)` in one word: an entry's physical key (the index is a
/// modelled bucket) and a run word (the index is an arena unit).
/// Every word stamped in another epoch reads as free.
#[inline]
fn stamp(epoch: u32, index: usize) -> u64 {
    (u64::from(epoch) << TID_BITS) | index as u64
}

#[inline]
fn stamped_in(word: u64, epoch: u32) -> bool {
    word >> TID_BITS == u64::from(epoch)
}

/// A word no epoch stamped (its epoch field is `EPOCH_CEIL`).
const UNSTAMPED: u64 = u64::MAX;

/// Upper bound on the bucket size (the paper's worked example uses
/// `s_u = 512` for a 2¹⁴ batch over 32 warehouses; beyond this the
/// detection-phase bucket scan costs more than the serialization it
/// avoids).
const S_U_CAP: usize = 512;

/// Entries a log's physical table starts with (fewer when the modelled
/// log is smaller).
const PHYSICAL_FLOOR: usize = 1_024;
/// Entries a lookup inspects before it takes the locked spill path.
const PROBE_WINDOW: usize = 64;
/// Spilled entries an epoch may leave behind for reuse; a wholesale spill
/// (a first batch) hands its memory back instead.
const SPILL_KEEP: usize = 1_024;

/// One claimed bucket: everything an access to a standard-sized bucket
/// reads or writes, in one cache line (8 + 16 + 2 × 4 + 2 × 16 bytes — a
/// [`SimAtomicU64`] is the value and its contention meter).
#[repr(C, align(64))]
struct Entry {
    /// The modelled bucket held: `stamp(epoch, bucket index)`, taken by a
    /// compare-and-swap (`AcqRel`) that lookups read with `Acquire`. It
    /// publishes nothing else: every other field is epoch-stamped itself.
    key: AtomicU64,
    /// Owner tag: `(epoch', key_hash40)`.
    tag: SimAtomicU64,
    /// Per [`Record`] (indexed by it, as `slot0` and the runs are), the
    /// epoch one was last registered in: lets the detection phase skip
    /// scanning an untouched record with one read.
    mark: [AtomicU32; 2],
    /// Per record, min-TID slot 0.
    slot0: [SimAtomicU64; 2],
}

impl Entry {
    fn new() -> Self {
        let slot = || SimAtomicU64::new(SLOT_EMPTY);
        let mark = || AtomicU32::new(u32::MAX);
        let key = AtomicU64::new(UNSTAMPED);
        Entry { key, tag: slot(), mark: [mark(), mark()], slot0: [slot(), slot()] }
    }
}

/// Per [`Record`], the word naming the slot run a large bucket's record
/// was handed this epoch: `stamp(epoch, arena unit)`.
type Runs = [AtomicU64; 2];

fn unstamped_runs() -> Runs {
    [AtomicU64::new(UNSTAMPED), AtomicU64::new(UNSTAMPED)]
}

/// An entry taken on the locked spill path, with its own run words.
struct Spilled {
    entry: Entry,
    runs: Runs,
}

impl Spilled {
    fn new() -> Self {
        Spilled { entry: Entry::new(), runs: unstamped_runs() }
    }
}

/// A claimed bucket's entry and, in a large-bucket log, its run words.
#[derive(Clone, Copy)]
struct Held<'a> {
    entry: &'a Entry,
    runs: Option<&'a Runs>,
}

/// Number of chunks a [`Pool`] can grow to (chunk `k` holds `4 << k` units).
const POOL_CHUNKS: usize = 40;

/// Grow-only storage handed out in fixed-size units and recycled whole
/// between epochs. Chunk `k` holds `4 << k` units, so a unit never moves
/// once handed out, and a pool back at its high-water mark allocates
/// nothing.
struct Pool<T> {
    /// Items per unit.
    unit: usize,
    fresh: fn() -> T,
    chunks: [OnceLock<Box<[T]>>; POOL_CHUNKS],
    /// Units handed out since the last recycle.
    next: AtomicUsize,
}

impl<T> Pool<T> {
    fn new(unit: usize, fresh: fn() -> T) -> Self {
        let chunks = std::array::from_fn(|_| OnceLock::new());
        Pool { unit, fresh, chunks, next: AtomicUsize::new(0) }
    }

    /// Hand out a unit.
    fn take(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Unit `i`, its chunk allocated on first use.
    fn unit(&self, i: usize) -> &[T] {
        let k = (i / 4 + 1).ilog2() as usize;
        let len = (4 << k) * self.unit;
        let chunk = self.chunks[k].get_or_init(|| (0..len).map(|_| (self.fresh)()).collect());
        let at = (i - 4 * ((1 << k) - 1)) * self.unit;
        &chunk[at..at + self.unit]
    }

    /// Take every unit back; returns how many were handed out.
    fn recycle(&mut self) -> usize {
        std::mem::take(self.next.get_mut())
    }

    fn bytes(&self) -> usize {
        self.chunks.iter().filter_map(OnceLock::get).map(|c| std::mem::size_of_val(&**c)).sum()
    }
}

/// The buckets one log claimed in the current epoch. Entries live in an
/// open-addressed table keyed by `stamp(epoch, b)`, with linear probing
/// from home `b × len / s_h` (order-preserving, so a modelled probe run
/// walks adjacent entries, and no division on the path). An entry stamped
/// in another epoch is free, so a new epoch starts empty without a reset.
/// A lookup that finds a whole [`PROBE_WINDOW`] taken by other buckets
/// goes to a locked spill map, so a batch that claims more than the table
/// holds never runs out of room; [`Claimed::settle`] then grows the table
/// before the next epoch.
struct Claimed {
    entries: Box<[Entry]>,
    /// `log₂ s_h` of the modelled log.
    s_h_bits: u32,
    /// Per entry of a large-bucket log, its run words; empty for a
    /// standard log.
    runs: Box<[Runs]>,
    /// Entries taken this epoch, spilled ones included (lost increments
    /// allowed: see [`Claimed::entry`]).
    claims: AtomicUsize,
    /// Spilled entries by key: their units in `spilled`.
    spill: Mutex<HashMap<u64, usize>>,
    spilled: Pool<Spilled>,
    /// Slot runs: per unit, slots `1..s_u` of one record.
    arena: Pool<SimAtomicU64>,
}

impl Claimed {
    fn new(len: usize, s_h: usize, s_u: usize) -> Self {
        Claimed {
            entries: (0..len).map(|_| Entry::new()).collect(),
            s_h_bits: s_h.trailing_zeros(),
            runs: (0..if s_u > 1 { len } else { 0 }).map(|_| unstamped_runs()).collect(),
            claims: AtomicUsize::new(0),
            spill: Mutex::new(HashMap::new()),
            spilled: Pool::new(1, Spilled::new),
            arena: Pool::new(s_u - 1, || SimAtomicU64::new(SLOT_EMPTY)),
        }
    }

    /// Where the entry of modelled bucket `b` is first looked for.
    #[inline]
    fn home(&self, b: usize) -> usize {
        // `b < s_h`, and the table is no larger than `s_h` or the floor,
        // all far below 2³²: the product cannot overflow.
        ((b as u64 * self.entries.len() as u64) >> self.s_h_bits) as usize
    }

    /// The entry holding modelled bucket `b` in `epoch`; with `claim`, one
    /// is taken for it if there is none.
    #[inline]
    fn entry(&self, b: usize, epoch: u32, claim: bool) -> Option<Held<'_>> {
        let want = stamp(epoch, b);
        let n = self.entries.len();
        let mut p = self.home(b);
        for _ in 0..n.min(PROBE_WINDOW) {
            let key = &self.entries[p].key;
            let mut cur = key.load(Ordering::Acquire);
            loop {
                if cur == want {
                    return Some(Held { entry: &self.entries[p], runs: self.runs.get(p) });
                }
                if stamped_in(cur, epoch) {
                    break; // another bucket's this epoch: probe on
                }
                if !claim {
                    return None;
                }
                match key.compare_exchange(cur, want, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        // A statistic for sizing, so not a locked add:
                        // lanes run on one host thread, and were two to
                        // race, a lost increment would only delay the
                        // table's growth by a batch.
                        let claims = &self.claims;
                        claims.store(claims.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                        return Some(Held { entry: &self.entries[p], runs: self.runs.get(p) });
                    }
                    Err(seen) => cur = seen,
                }
            }
            p = if p + 1 == n { 0 } else { p + 1 };
        }
        self.spill_entry(want, claim)
    }

    /// The entry for `want` past a window of other buckets' entries: the
    /// rare locked path. A key spills only past a full window, and entries
    /// are never freed within an epoch, so a lookup that met a free entry
    /// in its window knew the key is not here.
    #[cold]
    #[inline(never)]
    fn spill_entry(&self, want: u64, claim: bool) -> Option<Held<'_>> {
        let mut spill = self.spill.lock();
        let i = match spill.get(&want) {
            Some(&i) => i,
            None if claim => {
                self.claims.fetch_add(1, Ordering::Relaxed);
                let i = self.spilled.take();
                spill.insert(want, i);
                i
            }
            None => return None,
        };
        drop(spill);
        let s = &self.spilled.unit(i)[0];
        Some(Held { entry: &s.entry, runs: Some(&s.runs) })
    }

    /// Slots `1..s_u` of `held`'s `record`, if it was handed a run this
    /// epoch (none of them registered otherwise).
    fn run(&self, held: Held<'_>, record: Record, epoch: u32) -> &[SimAtomicU64] {
        match held.runs.map(|r| r[record as usize].load(Ordering::Acquire)) {
            Some(w) if stamped_in(w, epoch) => self.arena.unit((w & TID_MASK) as usize),
            _ => &[],
        }
    }

    /// Slots `1..s_u` of `held`'s `record`, handed out on first use this
    /// epoch. A lane that loses the race leaves its unit unused until the
    /// recycle.
    fn run_or_take(&self, held: Held<'_>, record: Record, epoch: u32) -> &[SimAtomicU64] {
        let word = &held.runs.expect("a large bucket's entry has run words")[record as usize];
        let mut cur = word.load(Ordering::Acquire);
        if !stamped_in(cur, epoch) {
            let mine = stamp(epoch, self.arena.take());
            cur = match word.compare_exchange(cur, mine, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => mine,
                Err(seen) => seen,
            };
        }
        self.arena.unit((cur & TID_MASK) as usize)
    }

    /// Between epochs: take back the spill path and the arena, and when
    /// the last epoch filled more than half the table, rebuild it at three
    /// times its claims (never more than the `s_h` modelled buckets), so a
    /// lookup walks about 1.25 entries and an insert 1.6.
    fn settle(&mut self, s_h: usize, s_u: usize) {
        let claims = std::mem::take(self.claims.get_mut());
        let spilled = self.spilled.recycle();
        self.spill.get_mut().clear();
        self.arena.recycle();
        let (len, grown) = (self.entries.len(), (3 * claims).min(s_h));
        if (2 * claims > len && grown > len) || spilled > SPILL_KEEP {
            *self = Claimed::new(grown.max(len), s_h, s_u);
        }
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.entries)
            + std::mem::size_of_val(&*self.runs)
            + self.spilled.bytes()
            + self.arena.bytes()
    }
}

/// One hash table of TID records, covering one table (or one split-off hot
/// column of one table).
pub struct TableLog {
    /// Modelled bucket count (power of two).
    s_h: usize,
    mask: usize,
    /// Modelled slots per bucket (1 = standard-sized, ≥ warp size =
    /// large-sized).
    s_u: usize,
    /// Accesses observed in the current batch (popularity telemetry).
    accesses: AtomicU64,
    /// `Some(warp_size)` = warp-cooperative probing (WarpSpeed-style): the
    /// warp ballots over `warp_size` buckets (or slots) at once — one
    /// cached inspection plus one shuffle step per *group*, instead of one
    /// inspection per bucket — and the detection scan's slot minimum folds
    /// through a log₂(warp_size) shuffle reduction. `None` = the original
    /// serial per-lane loop. Timing-only: claims, registrations and
    /// minima are identical either way.
    ballot: Option<usize>,
    /// What the current epoch claimed.
    claimed: Claimed,
}

/// `(s_h, s_u)` as a log holds them: at least 16 buckets, a power of two,
/// and at least one slot.
fn normalized(s_h: usize, s_u: usize) -> (usize, usize) {
    (s_h.max(16).next_power_of_two(), s_u.max(1))
}

/// The paper's sizing rule; see [`TableLog::sized_for`].
fn sized_geometry(
    rows: usize,
    cells: usize,
    est_txns: usize,
    est_accesses: usize,
    ws: usize,
    dynamic: bool,
    popular_hint: bool,
) -> (usize, usize) {
    let e = est_txns as f64 / rows.max(1) as f64;
    let s_u = if dynamic && (e > 1.0 || popular_hint) {
        (((e.max(1.0) / ws as f64).ceil() as usize).max(1) * ws).min(S_U_CAP)
    } else {
        1
    };
    // Enough buckets for every distinct accessed cell at ≤ 25 % load.
    let s_h = (4 * est_accesses.min(cells).max(32)).next_power_of_two();
    (s_h, s_u)
}

impl TableLog {
    /// Create a log with `s_h` buckets (rounded up to a power of two) of
    /// `s_u` slots each.
    pub fn new(s_h: usize, s_u: usize) -> Self {
        let (s_h, s_u) = normalized(s_h, s_u);
        TableLog {
            s_h,
            mask: s_h - 1,
            s_u,
            accesses: AtomicU64::new(0),
            ballot: None,
            claimed: Claimed::new(s_h.min(PHYSICAL_FLOOR), s_h, s_u),
        }
    }

    /// Switch this log to warp-cooperative (ballot) probing with the given
    /// warp size. Returns `self` for builder-style use.
    pub fn with_ballot_probe(mut self, warp_size: usize) -> Self {
        self.ballot = (warp_size > 1).then_some(warp_size);
        self
    }

    /// Whether warp-cooperative probing is active.
    pub fn uses_ballot_probe(&self) -> bool {
        self.ballot.is_some()
    }

    /// Size a log per the paper's rule. `rows` is the covered table's row
    /// cardinality (the paper's `D` in `E = T/D`), `cells` the number of
    /// distinct conflict cells the table exposes (rows × (columns + 1) at
    /// cell granularity), `est_txns` the expected transactions touching
    /// the table per batch (the paper's `T`), `est_accesses` the expected
    /// total registrations per batch, `ws` the warp size.
    pub fn sized_for(
        rows: usize,
        cells: usize,
        est_txns: usize,
        est_accesses: usize,
        ws: usize,
        dynamic: bool,
        popular_hint: bool,
    ) -> Self {
        let (s_h, s_u) =
            sized_geometry(rows, cells, est_txns, est_accesses, ws, dynamic, popular_hint);
        TableLog::new(s_h, s_u)
    }

    /// Give the log another modelled geometry. Only the addresses change:
    /// the claimed entries, stale anyway between epochs, are rebuilt at the
    /// size they had (or `s_h`, if that is now smaller).
    fn remodel(&mut self, (s_h, s_u): (usize, usize)) {
        (self.s_h, self.s_u) = normalized(s_h, s_u);
        self.mask = self.s_h - 1;
        self.clear();
    }

    /// Between two epochs: recycle what the last one claimed and grow the
    /// physical table if it claimed more than the table comfortably holds.
    /// A log that is never settled stays correct; its claims beyond the
    /// first table only take the slower locked path.
    pub fn settle(&mut self) {
        self.claimed.settle(self.s_h, self.s_u);
    }

    /// Forget every claim, stale ones included: the epoch space wrapped.
    fn clear(&mut self) {
        self.claimed = Claimed::new(self.claimed.entries.len().min(self.s_h), self.s_h, self.s_u);
    }

    /// Slots per bucket.
    pub fn bucket_size(&self) -> usize {
        self.s_u
    }

    /// Bucket count.
    pub fn bucket_count(&self) -> usize {
        self.s_h
    }

    /// Whether this log uses large-sized buckets.
    pub fn is_large(&self) -> bool {
        self.s_u > 1
    }

    /// Device memory footprint of the log as the cost model accounts it:
    /// a 16-byte tag, two 8-byte marks and `2 × s_u` 16-byte slots per
    /// bucket. This feeds `register_allocation` and Table VIII, so it is
    /// stated by formula rather than read off the host layout.
    pub fn bytes(&self) -> u64 {
        (self.s_h * (16 + 2 * 8 + 2 * self.s_u * 16)) as u64
    }

    /// Host memory the log holds: its table of claimed buckets, spill path
    /// and slot-run arena.
    pub fn resident_bytes(&self) -> u64 {
        self.claimed.bytes() as u64
    }

    /// Accesses registered since the last [`TableLog::take_accesses`].
    pub fn take_accesses(&self) -> u64 {
        self.accesses.swap(0, Ordering::Relaxed)
    }

    /// Load the entry `key`'s home bucket would live in and do nothing
    /// with it.
    #[inline]
    fn touch(&self, key: i64) {
        let home = self.claimed.home(mix_key(key) as usize & self.mask);
        std::hint::black_box(self.claimed.entries[home].key.load(Ordering::Relaxed));
    }

    /// Find (or claim) the bucket owning `key` in `epoch`. `claim = false`
    /// only locates existing buckets.
    fn bucket_for(&self, lane: &mut Lane<'_>, key: i64, epoch: u32, claim: bool) -> Option<Held<'_>> {
        let h = mix_key(key);
        let tag_val = encode(epoch, h & TID_MASK);
        let start = (h as usize) & self.mask;
        for i in 0..self.s_h {
            let b = (start + i) & self.mask;
            match self.ballot {
                // Serial probing: one cached inspection per bucket.
                None => lane.charge_light(12.0),
                // Cooperative probing: the warp ballots over `ws` buckets
                // at once (`__ballot_sync` + `__popc` on the tag matches),
                // so the inspection cost lands once per group, plus one
                // shuffle to broadcast the winning bucket.
                Some(ws) => {
                    if i % ws == 0 {
                        lane.charge_light(12.0);
                        lane.warp_shuffle(1);
                    }
                }
            }
            // A bucket without an entry is stale or empty: it holds no
            // record this epoch.
            let held = self.claimed.entry(b, epoch, claim)?;
            let tag = &held.entry.tag;
            let mut cur = tag.load();
            loop {
                if cur == tag_val {
                    return Some(held); // our key owns this bucket
                }
                if decode(cur, epoch).is_some() {
                    break; // owned by another key this epoch: probe on
                }
                if !claim {
                    return None; // stale/empty bucket: no record this epoch
                }
                // Stale or empty: try to claim it for this key. Its stale
                // slots self-neutralize via epoch encoding.
                match lane.atomic_cas_u64(tag, cur, tag_val) {
                    Ok(_) => return Some(held),
                    Err(observed) => cur = observed,
                }
            }
        }
        // Log exhausted: the caller treats a failed registration as a
        // forced abort of the registering transaction (always sound).
        None
    }

    fn register(&self, lane: &mut Lane<'_>, record: Record, key: i64, tid: u64, epoch: u32) -> bool {
        self.accesses.fetch_add(1, Ordering::Relaxed);
        let Some(held) = self.bucket_for(lane, key, epoch, true) else { return false };
        held.entry.mark[record as usize].store(epoch, Ordering::Release);
        // Large-sized buckets re-hash by TID (paper: h(key) = TID mod s_u).
        let slot = match tid as usize % self.s_u {
            0 => &held.entry.slot0[record as usize],
            s => &self.claimed.run_or_take(held, record, epoch)[s - 1],
        };
        lane.atomic_min_u64(slot, encode(epoch, tid));
        true
    }

    /// Register a read by `tid` against `key`. Returns `false` when the
    /// log is exhausted (caller must abort the transaction).
    #[must_use]
    pub fn register_read(&self, lane: &mut Lane<'_>, key: i64, tid: u64, epoch: u32) -> bool {
        self.register(lane, Record::Reads, key, tid, epoch)
    }

    /// Register a write by `tid` against `key`. Returns `false` when the
    /// log is exhausted (caller must abort the transaction).
    #[must_use]
    pub fn register_write(&self, lane: &mut Lane<'_>, key: i64, tid: u64, epoch: u32) -> bool {
        self.register(lane, Record::Writes, key, tid, epoch)
    }

    fn min_of(&self, lane: &mut Lane<'_>, record: Record, key: i64, epoch: u32) -> Option<u64> {
        let held = self.bucket_for(lane, key, epoch, false)?;
        // One-word summary check first: untouched buckets cost one cached
        // log read (the conflict log is hot in L2 during detection).
        lane.charge_light(12.0);
        if held.entry.mark[record as usize].load(Ordering::Acquire) != epoch {
            return None;
        }
        match self.ballot {
            // Scanning the bucket is a streaming read of s_u contiguous
            // words, one lane walking them serially.
            None => lane.charge_light(4.0 * self.s_u as f64),
            // Cooperative scan: the warp strides the bucket `ws` slots per
            // step, then folds the per-lane minima with a log₂(ws)
            // shuffle-XOR tree reduction.
            Some(ws) => {
                lane.charge_light(4.0 * (self.s_u as f64 / ws as f64).ceil());
                lane.warp_shuffle((ws as u32).max(2).ilog2());
            }
        }
        std::iter::once(&held.entry.slot0[record as usize])
            .chain(self.claimed.run(held, record, epoch))
            .filter_map(|s| decode(s.load(), epoch))
            .min()
    }

    /// Minimum read TID recorded for `key` this epoch.
    pub fn min_read(&self, lane: &mut Lane<'_>, key: i64, epoch: u32) -> Option<u64> {
        self.min_of(lane, Record::Reads, key, epoch)
    }

    /// Minimum write TID recorded for `key` this epoch.
    pub fn min_write(&self, lane: &mut Lane<'_>, key: i64, epoch: u32) -> Option<u64> {
        self.min_of(lane, Record::Writes, key, epoch)
    }
}

impl std::fmt::Debug for TableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableLog")
            .field("buckets", &self.s_h)
            .field("bucket_size", &self.s_u)
            .finish()
    }
}

/// Memory occupancy of one constituent log (paper Table VIII).
#[derive(Debug, Clone)]
pub struct LogMemory {
    /// Covered table.
    pub table: TableId,
    /// `Some(col)` when this is a split-off hot-column log.
    pub split_col: Option<ColId>,
    /// Device bytes.
    pub bytes: u64,
    /// Bucket size `s_u`.
    pub bucket_size: usize,
}

/// The engine-wide conflict log: one row-granularity [`TableLog`] per
/// table, plus dedicated logs for split-off hot columns.
pub struct ConflictLog {
    epoch: u32,
    warp_size: usize,
    dynamic: bool,
    rows_per_table: Vec<usize>,
    popular_hint: Vec<bool>,
    row_logs: Vec<TableLog>,
    split_logs: Vec<((TableId, ColId), TableLog)>,
    /// `split_route[table][col]` = index into `split_logs` of the column's
    /// dedicated log. A table without split columns has an empty row, so
    /// routing is two indexed loads whatever the number of split logs.
    split_route: Vec<Vec<Option<usize>>>,
    /// One single-key log per table for the membership predicate (ordered
    /// scans read it, inserts/deletes write it). The marker is by
    /// construction the hottest cell of an insert-heavy table, so it gets
    /// a maximal bucket unconditionally.
    membership_logs: Vec<TableLog>,
}

impl ConflictLog {
    /// Build logs for every table of `db` per `cfg`.
    pub fn new(db: &Database, cfg: &LtpgConfig) -> Self {
        let warp_size = cfg.device.warp_size as usize;
        let dynamic = cfg.opts.dynamic_buckets;
        // Every constituent log probes warp-cooperatively.
        let probe = |log: TableLog| log.with_ballot_probe(warp_size);
        let est = cfg.max_batch * cfg.est_accesses_per_txn;
        let hinted = |table: TableId| cfg.premarked_popular.contains(&table);
        let sized = |table: TableId, rows: usize, cells: usize| {
            probe(TableLog::sized_for(
                rows,
                cells,
                cfg.max_batch,
                est,
                warp_size,
                dynamic,
                hinted(table),
            ))
        };
        let row_logs: Vec<_> = db
            .iter()
            .map(|(id, t)| sized(id, t.capacity(), t.capacity().saturating_mul(t.width() + 1)))
            .collect();
        // A split log covers exactly one column: cells = rows.
        let split_logs: Vec<_> = cfg
            .delayed_cols
            .iter()
            .filter(|_| cfg.opts.conflict_splitting)
            .map(|&(t, c)| ((t, c), sized(t, db.table(t).capacity(), db.table(t).capacity())))
            .collect();
        let mut split_route = vec![Vec::new(); row_logs.len()];
        for (i, ((t, c), _)) in split_logs.iter().enumerate() {
            let row = &mut split_route[usize::from(t.0)];
            row.resize(row.len().max(c.idx() + 1), None);
            row[c.idx()] = Some(i);
        }
        let membership_logs =
            db.iter().map(|_| probe(TableLog::new(2_048, if dynamic { 512 } else { 1 }))).collect();
        ConflictLog {
            epoch: 0,
            warp_size,
            dynamic,
            rows_per_table: db.iter().map(|(_, t)| t.capacity()).collect(),
            popular_hint: db.iter().map(|(id, _)| hinted(id)).collect(),
            row_logs,
            split_logs,
            split_route,
            membership_logs,
        }
    }

    /// Every constituent log.
    fn logs(&self) -> impl Iterator<Item = &TableLog> {
        let split = self.split_logs.iter().map(|(_, log)| log);
        self.row_logs.iter().chain(split).chain(&self.membership_logs)
    }

    /// Start a new batch: an epoch bump that leaves every claim of the last
    /// one stale, plus run-time popularity adaptation — a table whose
    /// observed `E = T/D` crossed 1 is remodelled with large buckets (and
    /// vice versa), the paper's "identify such tables in real-time".
    ///
    /// After [`LAST_EPOCH`] the epoch restarts at 1 and every log forgets
    /// what it holds. Restarting alone would be unsound: a slot stamped in
    /// a high epoch encodes *smaller* than a fresh one, so `atomicMin`
    /// would keep it and `decode` would then drop the fresh TID, hiding a
    /// conflict.
    pub fn begin_batch(&mut self) {
        let wrapped = self.epoch == LAST_EPOCH;
        self.epoch = if wrapped { 1 } else { self.epoch + 1 };
        let logs = self.row_logs.iter_mut().chain(self.split_logs.iter_mut().map(|(_, log)| log));
        for log in logs.chain(&mut self.membership_logs) {
            if wrapped {
                log.clear();
            } else {
                log.settle();
            }
        }
        if !self.dynamic {
            return;
        }
        for (i, log) in self.row_logs.iter_mut().enumerate() {
            let observed = log.take_accesses() as usize;
            if observed == 0 {
                continue;
            }
            let e = observed as f64 / self.rows_per_table[i].max(1) as f64;
            let want_large = e > 1.0 || self.popular_hint[i];
            if want_large != log.is_large() {
                log.remodel(sized_geometry(
                    self.rows_per_table[i],
                    self.rows_per_table[i].saturating_mul(8),
                    observed,
                    observed,
                    self.warp_size,
                    true,
                    self.popular_hint[i],
                ));
            }
        }
    }

    /// Continue as if `epoch` batches had begun (tests of the wrap).
    #[cfg(test)]
    pub(crate) fn resume_at(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// The constituent log `cell` lives in and its key there: the marker
    /// in the table's membership log under its partition, a split-off hot
    /// column in its own log, everything else in the table's row log; row
    /// cells under `key × 64 + (0 for existence, column + 1)`.
    #[inline]
    fn route(&self, cell: Cell) -> (&TableLog, i64) {
        let t = usize::from(cell.table.0);
        let row_key = |code: i64| cell.key.wrapping_mul(64).wrapping_add(code);
        match cell.part {
            Part::Members => (&self.membership_logs[t], cell.key),
            Part::Exists => (&self.row_logs[t], row_key(0)),
            Part::Col(c) => {
                let log = match self.split_route[t].get(c.idx()).copied().flatten() {
                    Some(i) => &self.split_logs[i].1,
                    None => &self.row_logs[t],
                };
                (log, row_key(i64::from(c.0) + 1))
            }
        }
    }

    /// Bring the entry of `cell`'s home bucket into the host's cache.
    /// Charges no lane and changes nothing: the simulated clock cannot see
    /// it. A caller about to register or check a group of accesses touches
    /// them all first and the misses overlap instead of queueing one
    /// behind the other (DESIGN.md "Hot path").
    #[inline]
    pub fn touch(&self, cell: Cell) {
        let (log, key) = self.route(cell);
        log.touch(key);
    }

    /// Register `tid` against `cell` in every record `check` names.
    /// `false` = log exhausted, abort the transaction; the remaining
    /// records are still registered (extra TIDs only ever add conflicts).
    #[must_use]
    pub fn register(&self, lane: &mut Lane<'_>, cell: Cell, check: Check, tid: u64) -> bool {
        let (log, key) = self.route(cell);
        let mut registered = true;
        for &record in check.records() {
            registered &= log.register(lane, record, key, tid, self.epoch);
        }
        registered
    }

    /// Minimum TID registered in `record` of `cell` this batch.
    pub fn min(&self, lane: &mut Lane<'_>, cell: Cell, record: Record) -> Option<u64> {
        let (log, key) = self.route(cell);
        log.min_of(lane, record, key, self.epoch)
    }

    /// Memory occupancy report (paper Table VIII).
    pub fn memory_report(&self) -> Vec<LogMemory> {
        let mut out = Vec::new();
        for (i, log) in self.row_logs.iter().enumerate() {
            out.push(LogMemory {
                table: TableId(i as u16),
                split_col: None,
                bytes: log.bytes(),
                bucket_size: log.bucket_size(),
            });
        }
        for ((t, c), log) in &self.split_logs {
            out.push(LogMemory {
                table: *t,
                split_col: Some(*c),
                bytes: log.bytes(),
                bucket_size: log.bucket_size(),
            });
        }
        out
    }

    /// Total device bytes across all constituent logs, as modelled.
    pub fn bytes(&self) -> u64 {
        self.memory_report().iter().map(|m| m.bytes).sum()
    }

    /// Host bytes every constituent log holds
    /// ([`TableLog::resident_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        self.logs().map(TableLog::resident_bytes).sum()
    }
}

impl std::fmt::Debug for ConflictLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConflictLog")
            .field("epoch", &self.epoch)
            .field("row_logs", &self.row_logs.len())
            .field("split_logs", &self.split_logs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_gpu_sim::{Device, DeviceConfig};

    /// Run `f` on a single-lane kernel and return its result.
    fn on_lane<T: Send>(f: impl Fn(&mut Lane<'_>) -> T + Sync) -> T {
        let device = Device::new(DeviceConfig::default());
        let out = parking_lot::Mutex::new(None);
        device.launch_indexed("test", 1, |lane| {
            *out.lock() = Some(f(lane));
        });
        out.into_inner().unwrap()
    }

    #[test]
    fn a_bucket_is_one_cache_line_and_bytes_is_the_modelled_footprint() {
        assert_eq!(std::mem::size_of::<Entry>(), 64);
        assert_eq!(std::mem::align_of::<Entry>(), 64);
        // The modelled footprint counts every slot of every bucket, however
        // few the host holds: tag + 2 marks + 2 x s_u slots per bucket.
        assert_eq!(TableLog::new(64, 1).bytes(), 64 * 64);
        assert_eq!(TableLog::new(64, 32).bytes(), 64 * (16 + 16 + 2 * 32 * 16));
        let big = TableLog::new(1 << 20, 512);
        assert_eq!(big.bytes(), (1 << 20) * (16 + 16 + 2 * 512 * 16));
        assert_eq!(big.resident_bytes(), (PHYSICAL_FLOOR * (64 + 16)) as u64, "nothing claimed yet");
    }

    #[test]
    fn register_and_min_roundtrip() {
        let log = TableLog::new(64, 1);
        on_lane(|lane| {
            let _ = log.register_read(lane, 42, 7, 1);
            let _ = log.register_read(lane, 42, 3, 1);
            let _ = log.register_write(lane, 42, 9, 1);
            assert_eq!(log.min_read(lane, 42, 1), Some(3));
            assert_eq!(log.min_write(lane, 42, 1), Some(9));
            assert_eq!(log.min_read(lane, 999, 1), None);
            assert_eq!(log.min_write(lane, 42, 2), None, "stale epoch invisible");
        });
    }

    #[test]
    fn a_touch_leaves_the_log_as_it_was() {
        let log = TableLog::new(64, 1);
        on_lane(|lane| {
            let _ = log.register_write(lane, 42, 9, 1);
            log.touch(42);
            log.touch(7); // never registered: must not claim a bucket
            assert_eq!(log.min_write(lane, 42, 1), Some(9));
            assert_eq!(log.min_write(lane, 7, 1), None);
            assert_eq!(log.min_read(lane, 7, 1), None);
        });
        assert_eq!(log.take_accesses(), 1, "a touch is not an access");
    }

    #[test]
    fn epoch_bump_is_an_implicit_reset() {
        let log = TableLog::new(64, 4);
        on_lane(|lane| {
            let _ = log.register_write(lane, 5, 100, 1);
            assert_eq!(log.min_write(lane, 5, 1), Some(100));
            // Next epoch: the very same bucket must read as empty, and a
            // larger TID min-registers fine over the stale smaller value.
            let _ = log.register_write(lane, 5, 900, 2);
            assert_eq!(log.min_write(lane, 5, 2), Some(900));
        });
    }

    #[test]
    fn large_bucket_spreads_tids_across_slots() {
        let log = TableLog::new(16, 8);
        on_lane(|lane| {
            for tid in 1..=20u64 {
                let _ = log.register_write(lane, 7, tid, 3);
            }
            assert_eq!(log.min_write(lane, 7, 3), Some(1));
        });
    }

    #[test]
    fn colliding_keys_probe_to_distinct_buckets() {
        let log = TableLog::new(16, 1);
        on_lane(|lane| {
            // More keys than buckets would fail; use enough distinct keys
            // to force probing while staying under s_h.
            for key in 0..12i64 {
                let _ = log.register_read(lane, key, key as u64 + 1, 1);
            }
            for key in 0..12i64 {
                assert_eq!(log.min_read(lane, key, 1), Some(key as u64 + 1), "key {key}");
            }
        });
    }

    /// An epoch that claims far more buckets than the physical table holds
    /// takes the spill path and loses nothing; settling grows the table so
    /// the next such epoch does not spill, and a later, smaller epoch keeps
    /// the grown table instead of reallocating.
    #[test]
    fn claims_beyond_the_table_spill_and_the_table_grows_between_epochs() {
        let mut log = TableLog::new(1 << 16, 32).with_ballot_probe(32);
        let keys = 3_000usize;
        let device = Device::new(DeviceConfig::default());
        let epoch_with = |log: &mut TableLog, epoch: u32, keys: usize| {
            device.launch_indexed("reg", 2 * keys, |lane| {
                let key = (lane.global_id % keys) as i64;
                assert!(log.register_write(lane, key, lane.global_id as u64 + 1, epoch));
            });
            let spilled = log.claimed.spill.lock().len();
            let wrong = parking_lot::Mutex::new(0);
            device.launch_indexed("probe", keys, |lane| {
                let key = lane.global_id as i64;
                if log.min_write(lane, key, epoch) != Some(key as u64 + 1) {
                    *wrong.lock() += 1;
                }
            });
            assert_eq!(wrong.into_inner(), 0, "epoch {epoch}: a spilled claim lost its minimum");
            log.settle();
            spilled
        };
        assert!(epoch_with(&mut log, 1, keys) > keys / 2, "a floor-sized table must spill");
        let grown = log.claimed.entries.len();
        assert!(grown >= 2 * keys, "settle must grow the table to twice the claims: {grown}");
        assert_eq!(epoch_with(&mut log, 2, keys), 0, "the grown table holds the epoch");
        assert_eq!(epoch_with(&mut log, 3, keys / 10), 0);
        assert_eq!(log.claimed.entries.len(), grown, "a quieter epoch must not shrink or rebuild");
        assert!(log.resident_bytes() < log.bytes() / 8);
    }

    #[test]
    fn sized_for_follows_the_paper_rule() {
        // E = 16384/32 = 512 transactions per row, warp 32: s_u = 512.
        let hot = TableLog::sized_for(32, 32 * 4, 16_384, 16_384, 32, true, false);
        assert_eq!(hot.bucket_size(), 512);
        assert!(hot.is_large());
        // E < 1: standard-sized.
        let cold = TableLog::sized_for(1_000_000, 5_000_000, 16_384, 160_000, 32, true, false);
        assert_eq!(cold.bucket_size(), 1);
        // Dynamic buckets off: always standard.
        let off = TableLog::sized_for(32, 128, 16_384, 16_384, 32, false, true);
        assert_eq!(off.bucket_size(), 1);
        // Pre-marked popular: large even when E ≤ 1.
        let marked = TableLog::sized_for(1_000_000, 5_000_000, 16_384, 160_000, 32, true, true);
        assert!(marked.is_large());
        // The cap holds for extreme skew (2^16 txns on one row).
        let extreme = TableLog::sized_for(1, 8, 1 << 16, 1 << 16, 32, true, false);
        assert_eq!(extreme.bucket_size(), 512);
    }

    /// Registration stays on the lanes when a pre-pass (here: each lane's
    /// key and TID) runs on helper threads, so the minima and every charge
    /// are those of one thread.
    #[test]
    fn parallel_registration_is_deterministic() {
        let run = |threads: usize| {
            let device = Device::new(DeviceConfig::parallel(threads));
            let log = TableLog::new(1 << 13, 32);
            let mut slots = ltpg_gpu_sim::PreSlots::default();
            let keyed = |k: usize| ((k as u64 + 1) % 64, k as u64 + 1);
            let report = device.launch_with_pre("reg", 4_096, &mut slots, keyed, |lane, (key, tid)| {
                let _ = log.register_write(lane, key as i64, tid, 1);
            });
            let mut mins = Vec::new();
            Device::new(DeviceConfig::default()).launch_indexed("read", 1, |lane| {
                mins = (0..64i64).map(|k| log.min_write(lane, k, 1)).collect();
            });
            (mins, report.sim_ns.to_bits(), report.atomic_serial_depth)
        };
        let (seq, seq_ns, seq_depth) = run(1);
        let (par, par_ns, par_depth) = run(4);
        assert_eq!((&seq, seq_ns, seq_depth), (&par, par_ns, par_depth));
        // Key k's writers are {k+64n}; min is the smallest, i.e. k (or 64 for k=0).
        assert_eq!(seq[1], Some(1));
        assert_eq!(seq[0], Some(64));
    }

    #[test]
    fn take_accesses_resets_on_read() {
        let log = TableLog::new(64, 1);
        on_lane(|lane| {
            let _ = log.register_read(lane, 1, 1, 1);
            let _ = log.register_write(lane, 2, 1, 1);
            let _ = log.register_read(lane, 3, 2, 1);
        });
        assert_eq!(log.take_accesses(), 3);
        // The read consumed the counter: a second take observes zero...
        assert_eq!(log.take_accesses(), 0);
        // ...and only new registrations repopulate it.
        on_lane(|lane| {
            let _ = log.register_write(lane, 4, 3, 1);
        });
        assert_eq!(log.take_accesses(), 1);
    }

    #[test]
    fn probe_cost_charged_per_bucket_inspected() {
        // Regression: `bucket_for` used to charge the probe cost only
        // after iterating past a bucket owned by another key, so hits,
        // fresh claims and first-bucket misses were all free. The charge
        // now lands once per bucket inspected — so even a missing-key
        // lookup on an empty log (one bucket inspected, then "no record
        // this epoch") must cost more than not touching the log at all.
        let cycles_for = |f: &(dyn Fn(&mut Lane<'_>) + Sync)| {
            let device = Device::new(DeviceConfig::default());
            device.launch_indexed("probe", 1, f).sim_ns
        };
        let log = TableLog::new(64, 1);
        let baseline = cycles_for(&|_lane| {});
        let miss = cycles_for(&|lane: &mut Lane<'_>| {
            assert_eq!(log.min_read(lane, 10, 1), None);
        });
        assert!(
            miss > baseline,
            "a one-bucket inspection must charge a probe (miss {miss} vs baseline {baseline})"
        );
    }

    #[test]
    fn ballot_probe_is_cheaper_and_decision_identical() {
        // Warp-cooperative probing is a timing-only change: the same
        // registrations produce the same minima, but the detect-side scan
        // of a large bucket charges far fewer cycles.
        let items: Vec<u64> = (1..=2_048).collect();
        let run = |ballot: bool| {
            let device = Device::new(DeviceConfig::default());
            let mut log = TableLog::new(64, 512);
            if ballot {
                log = log.with_ballot_probe(32);
            }
            device.launch("mark", &items, |lane, &tid| {
                let _ = log.register_write(lane, (tid % 8) as i64, tid, 1);
            });
            let mins = parking_lot::Mutex::new(Vec::new());
            let read = device.launch_indexed("read", 64, |lane| {
                let m = log.min_write(lane, (lane.global_id % 8) as i64, 1);
                mins.lock().push((lane.global_id, m));
            });
            let mut mins = mins.into_inner();
            mins.sort_unstable();
            (mins, read.sim_ns)
        };
        let (serial_mins, serial_ns) = run(false);
        let (ballot_mins, ballot_ns) = run(true);
        assert_eq!(serial_mins, ballot_mins, "probing mode must not change any minimum");
        assert!(
            ballot_ns < serial_ns,
            "cooperative scan must be cheaper: ballot {ballot_ns} vs serial {serial_ns}"
        );
    }

    #[test]
    fn popularity_rebuild_keeps_ballot_probing() {
        use ltpg_storage::TableBuilder;
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("H").columns(["a"]).capacity(8).build());
        let cfg = LtpgConfig { max_batch: 1 << 12, ..LtpgConfig::default() };
        let mut log = ConflictLog::new(&db, &cfg);
        let cell = Cell { table: t, part: Part::Exists, key: 1 };
        assert!(log.route(cell).0.uses_ballot_probe());
        // The 8-row table starts large (E = 4096/8 ≫ 1). Observe only a
        // handful of accesses so E drops below 1 and the next begin_batch
        // rebuilds it standard-sized — the rebuild must keep the probing
        // mode.
        let device = Device::new(DeviceConfig::default());
        log.begin_batch();
        assert!(log.route(cell).0.is_large());
        device.launch_indexed("trickle", 4, |lane| {
            let _ = log.register(lane, cell, Check::Write, lane.global_id as u64 + 1);
        });
        log.begin_batch();
        assert!(!log.route(cell).0.is_large(), "E < 1 must rebuild standard-sized");
        assert!(log.route(cell).0.uses_ballot_probe(), "rebuild dropped ballot probing");
    }

    /// Three batches below the top of the epoch space a log runs six
    /// batches, so the fourth restarts at epoch 1. Minima and exhaustion
    /// stay those of a per-batch reference model throughout, although the
    /// batches reuse the same physical entries and slots: skipping the
    /// clear at the wrap leaves slots stamped in the highest epochs, which
    /// encode smaller than any fresh TID and hide it.
    #[test]
    fn the_epoch_space_wraps_without_losing_a_registration() {
        use ltpg_storage::TableBuilder;
        use std::collections::{BTreeMap, BTreeSet};
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("W").columns(["a"]).capacity(64).build());
        let cfg = LtpgConfig {
            max_batch: 8,
            est_accesses_per_txn: 2,
            opts: crate::config::OptFlags { dynamic_buckets: false, ..Default::default() },
            ..LtpgConfig::default()
        };
        let mut log = ConflictLog::new(&db, &cfg);
        log.resume_at(LAST_EPOCH - 3);
        let device = Device::new(DeviceConfig::default());
        let mut exhausted = 0;
        for batch in 0..6u64 {
            log.begin_batch();
            let epoch = if batch < 3 { LAST_EPOCH - 2 + batch as u32 } else { batch as u32 - 2 };
            assert_eq!(log.epoch, epoch);
            // Batch b writes keys 0..(90 + 30 b) with descending TIDs, so
            // the later batches overflow the 128-bucket log.
            let keys = 90 + 30 * batch as i64;
            let ops: Vec<(i64, u64)> =
                (0..2 * keys).map(|i| (i % keys, 1_000 * (batch + 1) - i as u64)).collect();
            let cell = |key| Cell { table: t, part: Part::Exists, key };
            let buckets = log.route(cell(0)).0.bucket_count();
            let (mut owners, mut min) = (BTreeSet::new(), BTreeMap::new());
            let expected: Vec<bool> = ops
                .iter()
                .map(|&(k, tid)| {
                    if !owners.contains(&k) && owners.len() == buckets {
                        return false;
                    }
                    owners.insert(k);
                    min.entry(k).and_modify(|m: &mut u64| *m = (*m).min(tid)).or_insert(tid);
                    true
                })
                .collect();
            let landed = parking_lot::Mutex::new(vec![false; ops.len()]);
            device.launch("register", &ops, |lane, &(key, tid)| {
                landed.lock()[lane.global_id] = log.register(lane, cell(key), Check::Write, tid);
            });
            let landed = landed.into_inner();
            assert_eq!(landed, expected, "exhaustion in batch {batch}");
            exhausted += landed.iter().filter(|ok| !**ok).count();
            let mins = parking_lot::Mutex::new(BTreeMap::new());
            device.launch_indexed("probe", keys as usize, |lane| {
                let key = lane.global_id as i64;
                if let Some(m) = log.min(lane, cell(key), Record::Writes) {
                    mins.lock().insert(key, m);
                }
            });
            assert_eq!(mins.into_inner(), min, "minima in batch {batch}");
        }
        assert!(exhausted > 0, "the later batches must exhaust the log");
    }

    #[test]
    fn large_buckets_reduce_atomic_serialization() {
        let items: Vec<u64> = (1..=2_048).collect();
        let run = |s_u: usize| {
            let device = Device::new(DeviceConfig::default());
            let log = TableLog::new(64, s_u);
            let r = device.launch("hot", &items, |lane, &tid| {
                let _ = log.register_write(lane, 1, tid, 1);
            });
            r.atomic_serial_depth
        };
        let standard = run(1);
        let large = run(32);
        assert!(large < standard / 8, "standard {standard} vs large {large}");
    }

    #[test]
    fn split_routing_and_adaptation() {
        use ltpg_storage::TableBuilder;
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("W").columns(["a", "b"]).capacity(32).build());
        let mut cfg = LtpgConfig { max_batch: 1 << 12, ..LtpgConfig::default() };
        cfg.delayed_cols.insert((t, ColId(1)));
        let mut log = ConflictLog::new(&db, &cfg);
        log.begin_batch();
        // Column 1 routes to its split log; column 0 to the row log; the
        // marker to neither.
        let of = |part| log.route(Cell { table: t, part, key: 0 }).0;
        assert!(std::ptr::eq(of(Part::Col(ColId(0))), of(Part::Exists)));
        assert!(!std::ptr::eq(of(Part::Col(ColId(1))), of(Part::Exists)));
        assert!(!std::ptr::eq(of(Part::Members), of(Part::Exists)));
        // The 32-row table with est 4096*8 accesses must be large-bucketed.
        assert!(of(Part::Exists).is_large());
        assert!(log.bytes() > 0);
        assert_eq!(log.memory_report().len(), 2);
    }
}
