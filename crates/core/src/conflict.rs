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
//!   the design avoids (paper Table VII). The scan is charged; the host
//!   keeps a running minimum per large record instead of performing it.
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
//!   doubles, within the epoch, before a claim fills it past half. Finding
//!   a bucket's entry is host bookkeeping on plain data and charges no
//!   lane; the charged operations land on the entry's own
//!   [`SimAtomicU64`]s, which see exactly the operations the modelled
//!   bucket would. Registering takes the log by `&mut` and a lookup by
//!   `&`, so only the launching thread's lanes ever change it.
//! * **One cache line per claimed bucket.** An entry's physical key, owner
//!   tag, two summary marks and first read and write slot sit together in
//!   one 64-byte `Entry` (WarpSpeed sizes its buckets the same way), so a
//!   registration or detection probe of a standard-sized bucket touches
//!   one line. Large-sized buckets take slots `1..s_u` of a record as one
//!   run, on the record's first registration, from a grow-only arena
//!   handed out again from its start each epoch. Beside the entry's run
//!   words sits each record's running minimum: every registration folds
//!   its slot value in, so detection reads one word where the device
//!   scans `s_u` slots. The entry table of a log past 2 MiB is advised
//!   onto huge pages (`ltpg_storage::hint::huge_pages`).
//! * **A probe is found once.** A registration returns where it settled
//!   ([`Settled`]: the log, the modelled bucket and its probe position).
//!   The detect kernel carries that pair and looks the entry up once,
//!   charging the probe run the by-key walk charges. The pair, not the
//!   entry's position, is carried: a growth moves entries within an
//!   epoch, but a key's modelled bucket stays where it settled, since the
//!   run's earlier buckets stay owned by other keys.
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

use ltpg_gpu_sim::{Lane, SimAtomicU64};
use ltpg_storage::index::mix_key;
use ltpg_storage::{ColId, Database, TableId};

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

/// One claimed bucket: everything an access to a standard-sized bucket
/// reads or writes, in one cache line (8 + 16 + 2 × 4 + 2 × 16 bytes — a
/// [`SimAtomicU64`] is the value and its contention meter).
#[repr(C, align(64))]
struct Entry {
    /// The modelled bucket held: `stamp(epoch, bucket index)`.
    key: u64,
    /// Owner tag: `(epoch', key_hash40)`.
    tag: SimAtomicU64,
    /// Per [`Record`] (indexed by it, as `slot0` and the runs are), the
    /// epoch one was last registered in: lets the detection phase skip
    /// scanning an untouched record with one read.
    mark: [u32; 2],
    /// Per record, min-TID slot 0.
    slot0: [SimAtomicU64; 2],
}

impl Entry {
    fn new() -> Self {
        let slot = || SimAtomicU64::new(SLOT_EMPTY);
        Entry { key: UNSTAMPED, tag: slot(), mark: [u32::MAX; 2], slot0: [slot(), slot()] }
    }
}

/// Per [`Record`] of a large bucket (indexed by it): the word naming the
/// slot run the record was handed this epoch, `stamp(epoch, arena unit)`,
/// and the smallest slot value registered in it. A stale minimum encodes
/// larger than any registration of a later epoch, so it needs no reset
/// until the epoch space wraps.
#[derive(Clone, Copy)]
struct Runs {
    run: [u64; 2],
    min: [u64; 2],
}

impl Runs {
    const FREE: Runs = Runs { run: [UNSTAMPED; 2], min: [SLOT_EMPTY; 2] };
}

/// `len` free entries, advised onto huge pages before any is written.
fn entry_table(len: usize) -> Vec<Entry> {
    let mut entries = Vec::with_capacity(len);
    ltpg_storage::hint::huge_pages(entries.spare_capacity_mut());
    entries.resize_with(len, Entry::new);
    entries
}

/// The buckets one log claimed in the current epoch. Entries live in an
/// open-addressed table keyed by `stamp(epoch, b)`, with linear probing
/// from home `b × len / s_h` (order-preserving, so a modelled probe run
/// walks adjacent entries, and no division on the path). An entry stamped
/// in another epoch is free, so a new epoch starts empty without a reset.
/// A claim that would fill the table past half doubles it first, up to
/// the `s_h` entries that hold every modelled bucket, so a lookup always
/// ends at its key or at a free entry.
struct Claimed {
    entries: Vec<Entry>,
    /// `log₂ s_h` of the modelled log.
    s_h_bits: u32,
    /// Per entry of a large-bucket log, its run words and running minima;
    /// empty for a standard log.
    runs: Vec<Runs>,
    /// Entries taken this epoch.
    claims: usize,
    /// Slot runs of `unit = s_u − 1` slots: per unit, slots `1..s_u` of
    /// one record.
    arena: Vec<SimAtomicU64>,
    unit: usize,
    /// Units handed out this epoch.
    units: usize,
}

impl Claimed {
    fn new(len: usize, s_h: usize, s_u: usize) -> Self {
        Claimed {
            entries: entry_table(len),
            s_h_bits: s_h.trailing_zeros(),
            runs: vec![Runs::FREE; if s_u > 1 { len } else { 0 }],
            claims: 0,
            arena: Vec::new(),
            unit: s_u - 1,
            units: 0,
        }
    }

    /// Where the entry of modelled bucket `b` is first looked for.
    #[inline]
    fn home(&self, b: usize) -> usize {
        // `b < s_h`, and the table is no larger than `s_h` or the floor,
        // all far below 2³²: the product cannot overflow.
        ((b as u64 * self.entries.len() as u64) >> self.s_h_bits) as usize
    }

    /// `Ok(entry)` holding modelled bucket `b` in `epoch`, or `Err(entry)`:
    /// the free one a claim of it would take.
    #[inline]
    fn find(&self, b: usize, epoch: u32) -> Result<usize, usize> {
        let (want, n) = (stamp(epoch, b), self.entries.len());
        let mut p = self.home(b);
        loop {
            match self.entries[p].key {
                key if key == want => return Ok(p),
                key if !stamped_in(key, epoch) => return Err(p),
                _ => p = if p + 1 == n { 0 } else { p + 1 },
            }
        }
    }

    /// The entry holding modelled bucket `b` in `epoch`, taken now if
    /// there is none.
    #[inline]
    fn claim(&mut self, b: usize, epoch: u32) -> usize {
        let free = match self.find(b, epoch) {
            Ok(p) => return p,
            Err(p)
                if 2 * (self.claims + 1) <= self.entries.len()
                    || self.entries.len() == 1 << self.s_h_bits =>
            {
                p
            }
            Err(_) => {
                self.grow(epoch);
                self.find(b, epoch).expect_err("a growth claims no bucket")
            }
        };
        self.entries[free].key = stamp(epoch, b);
        self.claims += 1;
        free
    }

    /// Double the table within the epoch: this epoch's entries, with their
    /// run words and minima, move to their homes in the larger one.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, epoch: u32) {
        let len = (2 * self.entries.len()).min(1 << self.s_h_bits);
        let entries = std::mem::replace(&mut self.entries, entry_table(len));
        let runs = if self.runs.is_empty() { Vec::new() } else { vec![Runs::FREE; len] };
        let runs = std::mem::replace(&mut self.runs, runs);
        for (p, entry) in entries.into_iter().enumerate() {
            if stamped_in(entry.key, epoch) {
                let b = (entry.key & TID_MASK) as usize;
                let q = self.find(b, epoch).expect_err("a bucket has one entry");
                self.entries[q] = entry;
                if let Some(&r) = runs.get(p) {
                    self.runs[q] = r;
                }
            }
        }
    }

    /// Slots `1..s_u` of entry `p`'s `record`, handed out on first use
    /// this epoch.
    fn run_or_take(&mut self, p: usize, record: Record, epoch: u32) -> &mut [SimAtomicU64] {
        let word = &mut self.runs[p].run[record as usize];
        if !stamped_in(*word, epoch) {
            *word = stamp(epoch, self.units);
            self.units += 1;
            let len = self.units * self.unit;
            if self.arena.len() < len {
                self.arena.resize_with(len, || SimAtomicU64::new(SLOT_EMPTY));
            }
        }
        let at = (*word & TID_MASK) as usize * self.unit;
        &mut self.arena[at..at + self.unit]
    }

    /// Between epochs: count claims afresh and hand the arena's units out
    /// again (the last epoch's entries already read as free).
    fn settle(&mut self) {
        (self.claims, self.units) = (0, 0);
    }

    fn bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
            + self.runs.capacity() * std::mem::size_of::<Runs>()
            + self.arena.capacity() * std::mem::size_of::<SimAtomicU64>()
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
    accesses: u64,
    /// `Some(warp_size)` = warp-cooperative probing (WarpSpeed-style): the
    /// warp ballots over `warp_size` buckets (or slots) at once — one
    /// cached inspection plus one shuffle step per *group*, instead of one
    /// inspection per bucket — and the detection scan's slot minimum folds
    /// through a log₂(warp_size) shuffle reduction. `None` = the original
    /// serial per-lane loop. Timing-only: claims, registrations and
    /// minima are identical either way.
    ballot: Option<usize>,
    /// The light cycles of one detection scan of a bucket, and the
    /// shuffle steps that fold it under ballot probing: priced once per
    /// geometry and probing mode.
    scan: (f64, Option<u32>),
    /// What the current epoch claimed.
    claimed: Claimed,
}

/// Where a registration settled: the constituent log, the modelled bucket
/// its key owns there, and that bucket's position in the key's probe run.
/// The detect kernel carries it and finds the bucket with one lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settled {
    log: u16,
    bucket: u32,
    probe: u32,
}

/// A bucket a registration settled on, looked up for detection: its
/// records are read without another lookup.
pub(crate) struct Found<'a> {
    log: &'a TableLog,
    entry: usize,
    probe: usize,
    epoch: u32,
}

impl Found<'_> {
    /// Minimum TID in `record` of the bucket, charged as the by-key lookup
    /// is: the probe run up to the bucket, then the record.
    #[inline]
    pub(crate) fn min(&self, lane: &mut Lane<'_>, record: Record) -> Option<u64> {
        for i in 0..=self.probe {
            self.log.charge_probe(lane, i);
        }
        self.log.min_of(lane, self.entry, record, self.epoch)
    }
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

/// What one detection scan of an `s_u`-slot bucket charges: a streaming
/// read of `s_u` words by one lane, or under ballot probing a `ws`-slot
/// stride per step folded by a log₂(ws) shuffle-XOR tree.
fn scan_price(s_u: usize, ballot: Option<usize>) -> (f64, Option<u32>) {
    match ballot {
        None => (4.0 * s_u as f64, None),
        Some(ws) => (4.0 * (s_u as f64 / ws as f64).ceil(), Some((ws as u32).max(2).ilog2())),
    }
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
            accesses: 0,
            ballot: None,
            scan: scan_price(s_u, None),
            claimed: Claimed::new(s_h.min(PHYSICAL_FLOOR), s_h, s_u),
        }
    }

    /// Switch this log to warp-cooperative (ballot) probing with the given
    /// warp size. Returns `self` for builder-style use.
    pub fn with_ballot_probe(mut self, warp_size: usize) -> Self {
        self.ballot = (warp_size > 1).then_some(warp_size);
        self.scan = scan_price(self.s_u, self.ballot);
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
        self.scan = scan_price(self.s_u, self.ballot);
        self.clear();
    }

    /// Between two epochs: hand every entry and slot run out again. A log
    /// that is never settled stays correct; it only grows its table and
    /// arena further than its epochs need.
    pub fn settle(&mut self) {
        self.claimed.settle();
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

    /// Host memory the log holds: its table of claimed buckets and
    /// slot-run arena.
    pub fn resident_bytes(&self) -> u64 {
        self.claimed.bytes() as u64
    }

    /// Accesses registered since the last [`TableLog::take_accesses`].
    pub fn take_accesses(&mut self) -> u64 {
        std::mem::take(&mut self.accesses)
    }

    /// Prefetch the entry `key`'s home bucket would live in.
    #[inline]
    fn touch(&self, key: i64) {
        self.touch_bucket(mix_key(key) as usize & self.mask);
    }

    /// Prefetch the entry modelled bucket `b` is first looked for in.
    #[inline]
    fn touch_bucket(&self, b: usize) {
        ltpg_storage::hint::prefetch(&self.claimed.entries[self.claimed.home(b)].key);
    }

    /// Charge the inspection of bucket `i` of a probe run.
    #[inline]
    fn charge_probe(&self, lane: &mut Lane<'_>, i: usize) {
        match self.ballot {
            // Serial probing: one cached inspection per bucket.
            None => lane.charge_light(12.0),
            // Cooperative probing: the warp ballots over `ws` buckets at
            // once (`__ballot_sync` + `__popc` on the tag matches), so the
            // inspection cost lands once per group, plus one shuffle to
            // broadcast the winning bucket.
            Some(ws) => {
                if i.is_multiple_of(ws) {
                    lane.charge_light(12.0);
                    lane.warp_shuffle(1);
                }
            }
        }
    }

    /// The entry of the bucket `key` owns in `epoch`, if it has one.
    fn bucket_of(&self, lane: &mut Lane<'_>, key: i64, epoch: u32) -> Option<usize> {
        let h = mix_key(key);
        let (tag_val, start) = (encode(epoch, h & TID_MASK), h as usize & self.mask);
        for i in 0..self.s_h {
            self.charge_probe(lane, i);
            // A bucket without an entry, or with a stale tag, holds no
            // record this epoch.
            let p = self.claimed.find((start + i) & self.mask, epoch).ok()?;
            let tag = self.claimed.entries[p].tag.load();
            if tag == tag_val {
                return Some(p);
            }
            decode(tag, epoch)?; // owned by another key this epoch: probe on
        }
        None
    }

    /// The entry of the bucket `key` owns in `epoch`, claiming the first
    /// stale or empty bucket of its probe run if it owns none, with that
    /// bucket and its probe position. `None`: the log is exhausted.
    fn claim_bucket(&mut self, lane: &mut Lane<'_>, key: i64, epoch: u32) -> Option<(usize, usize, usize)> {
        let h = mix_key(key);
        let (tag_val, start) = (encode(epoch, h & TID_MASK), h as usize & self.mask);
        for i in 0..self.s_h {
            self.charge_probe(lane, i);
            let b = (start + i) & self.mask;
            let p = self.claimed.claim(b, epoch);
            let tag = &mut self.claimed.entries[p].tag;
            let cur = tag.load();
            if cur == tag_val {
                return Some((p, b, i)); // our key owns this bucket
            }
            if decode(cur, epoch).is_none() {
                // Stale or empty: claim it for this key. Its stale slots
                // self-neutralize via epoch encoding.
                let won = lane.atomic_cas_u64(tag, cur, tag_val);
                debug_assert_eq!(won, Ok(cur));
                return Some((p, b, i));
            }
        }
        // Log exhausted: the caller treats a failed registration as a
        // forced abort of the registering transaction (always sound).
        None
    }

    /// Register `tid` in `record` of the bucket `key` owns: the modelled
    /// bucket and probe position it settled on, or `None` when the log is
    /// exhausted.
    fn register(
        &mut self,
        lane: &mut Lane<'_>,
        record: Record,
        key: i64,
        tid: u64,
        epoch: u32,
    ) -> Option<(usize, usize)> {
        self.accesses += 1;
        let (p, b, probe) = self.claim_bucket(lane, key, epoch)?;
        let claimed = &mut self.claimed;
        claimed.entries[p].mark[record as usize] = epoch;
        let value = encode(epoch, tid);
        // Large-sized buckets re-hash by TID (paper: h(key) = TID mod s_u).
        let slot = match tid as usize % self.s_u {
            0 => &mut claimed.entries[p].slot0[record as usize],
            s => &mut claimed.run_or_take(p, record, epoch)[s - 1],
        };
        lane.atomic_min_u64(slot, value);
        if let Some(runs) = claimed.runs.get_mut(p) {
            let min = &mut runs.min[record as usize];
            *min = (*min).min(value);
        }
        Some((b, probe))
    }

    /// Register a read by `tid` against `key`. Returns `false` when the
    /// log is exhausted (caller must abort the transaction).
    #[must_use]
    pub fn register_read(&mut self, lane: &mut Lane<'_>, key: i64, tid: u64, epoch: u32) -> bool {
        self.register(lane, Record::Reads, key, tid, epoch).is_some()
    }

    /// Register a write by `tid` against `key`. Returns `false` when the
    /// log is exhausted (caller must abort the transaction).
    #[must_use]
    pub fn register_write(&mut self, lane: &mut Lane<'_>, key: i64, tid: u64, epoch: u32) -> bool {
        self.register(lane, Record::Writes, key, tid, epoch).is_some()
    }

    /// The bucket a registration in `epoch` settled on, at probe position
    /// `probe` of its key's run: one lookup, charged nothing.
    #[inline]
    fn found(&self, bucket: usize, probe: usize, epoch: u32) -> Found<'_> {
        let entry = self.claimed.find(bucket, epoch).expect("a settled bucket holds an entry all epoch");
        Found { log: self, entry, probe, epoch }
    }

    /// Minimum TID in `record` of the bucket entry `p` holds. The device
    /// checks the record's one-word summary, then scans the bucket's `s_u`
    /// slots; the host reads slot 0 of a standard bucket, and a large
    /// bucket's running minimum.
    #[inline]
    fn min_of(&self, lane: &mut Lane<'_>, p: usize, record: Record, epoch: u32) -> Option<u64> {
        let entry = &self.claimed.entries[p];
        // One-word summary check first: untouched buckets cost one cached
        // log read (the conflict log is hot in L2 during detection).
        lane.charge_light(12.0);
        if entry.mark[record as usize] != epoch {
            return None;
        }
        let (scan, fold) = self.scan;
        lane.charge_light(scan);
        if let Some(steps) = fold {
            lane.warp_shuffle(steps);
        }
        let min = match self.claimed.runs.get(p) {
            Some(runs) => runs.min[record as usize],
            None => entry.slot0[record as usize].load(),
        };
        decode(min, epoch)
    }

    /// Minimum TID in `record` of the bucket `key` owns in `epoch`.
    fn min_by_key(&self, lane: &mut Lane<'_>, record: Record, key: i64, epoch: u32) -> Option<u64> {
        let p = self.bucket_of(lane, key, epoch)?;
        self.min_of(lane, p, record, epoch)
    }

    /// Minimum read TID recorded for `key` this epoch.
    pub fn min_read(&self, lane: &mut Lane<'_>, key: i64, epoch: u32) -> Option<u64> {
        self.min_by_key(lane, Record::Reads, key, epoch)
    }

    /// Minimum write TID recorded for `key` this epoch.
    pub fn min_write(&self, lane: &mut Lane<'_>, key: i64, epoch: u32) -> Option<u64> {
        self.min_by_key(lane, Record::Writes, key, epoch)
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

/// A [`ConflictLog`]'s run-time sizing ([`ConflictLog::record_sizing`]):
/// per table, its row log's `(s_h, s_u)` and pending access count. Empty
/// stands for a log as constructed.
pub(crate) type LogSizing = Vec<(usize, usize, u64)>;

/// The engine-wide conflict log: one row-granularity [`TableLog`] per
/// table, plus dedicated logs for split-off hot columns.
pub struct ConflictLog {
    epoch: u32,
    warp_size: usize,
    dynamic: bool,
    rows_per_table: Vec<usize>,
    popular_hint: Vec<bool>,
    /// Every constituent log: one row log per table (indexed by table),
    /// then one per split-off column of `split_cols`, then one membership
    /// log per table. The marker is by construction the hottest cell of an
    /// insert-heavy table, so a membership log (a single-key log for the
    /// membership predicate: ordered scans read it, inserts and deletes
    /// write it) gets a maximal bucket unconditionally.
    logs: Vec<TableLog>,
    split_cols: Vec<(TableId, ColId)>,
    /// `split_route[table][col]` = index into `logs` of the column's
    /// dedicated log. A table without split columns has an empty row, so
    /// routing is two indexed loads whatever the number of split logs.
    split_route: Vec<Vec<Option<usize>>>,
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
        let mut logs: Vec<_> = db
            .iter()
            .map(|(id, t)| sized(id, t.capacity(), t.capacity().saturating_mul(t.width() + 1)))
            .collect();
        let split_cols: Vec<_> =
            cfg.delayed_cols.iter().copied().filter(|_| cfg.opts.conflict_splitting).collect();
        let mut split_route = vec![Vec::new(); logs.len()];
        for &(t, c) in &split_cols {
            let row = &mut split_route[usize::from(t.0)];
            row.resize(row.len().max(c.idx() + 1), None);
            row[c.idx()] = Some(logs.len());
            // A split log covers exactly one column: cells = rows.
            logs.push(sized(t, db.table(t).capacity(), db.table(t).capacity()));
        }
        logs.extend(db.iter().map(|_| probe(TableLog::new(2_048, if dynamic { 512 } else { 1 }))));
        ConflictLog {
            epoch: 0,
            warp_size,
            dynamic,
            rows_per_table: db.iter().map(|(_, t)| t.capacity()).collect(),
            popular_hint: db.iter().map(|(id, _)| hinted(id)).collect(),
            logs,
            split_cols,
            split_route,
        }
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
        for log in &mut self.logs {
            if wrapped {
                log.clear();
            } else {
                log.settle();
            }
        }
        if !self.dynamic {
            return;
        }
        for (i, log) in self.logs[..self.rows_per_table.len()].iter_mut().enumerate() {
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

    /// Write into `sizing` (reusing its buffer) what
    /// [`begin_batch`](Self::begin_batch) resizes from: every row log's
    /// geometry and the accesses registered since it last began a batch.
    /// A checkpoint keeps it beside the image, so an engine built from that
    /// image sizes its next batch's logs as this one would.
    pub(crate) fn record_sizing(&self, sizing: &mut LogSizing) {
        let rows = &self.logs[..self.rows_per_table.len()];
        sizing.clear();
        sizing.extend(rows.iter().map(|log| (log.s_h, log.s_u, log.accesses)));
    }

    /// Take over the [`record_sizing`](Self::record_sizing) of a log over
    /// the same tables. An empty sizing changes nothing.
    pub(crate) fn resize(&mut self, sizing: &LogSizing) {
        for (log, &(s_h, s_u, accesses)) in self.logs.iter_mut().zip(sizing) {
            if (log.s_h, log.s_u) != (s_h, s_u) {
                log.remodel((s_h, s_u));
            }
            log.accesses = accesses;
        }
    }

    /// Continue as if `epoch` batches had begun (tests of the wrap).
    #[cfg(test)]
    pub(crate) fn resume_at(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// The index in `logs` of the constituent log `cell` lives in, and its
    /// key there: the marker in the table's membership log under its
    /// partition, a split-off hot column in its own log, everything else
    /// in the table's row log; row cells under `key × 64 + (0 for
    /// existence, column + 1)`.
    #[inline]
    fn locate(&self, cell: Cell) -> (usize, i64) {
        let t = usize::from(cell.table.0);
        let row_key = |code: i64| cell.key.wrapping_mul(64).wrapping_add(code);
        match cell.part {
            Part::Members => (self.logs.len() - self.rows_per_table.len() + t, cell.key),
            Part::Exists => (t, row_key(0)),
            Part::Col(c) => {
                let log = self.split_route[t].get(c.idx()).copied().flatten().unwrap_or(t);
                (log, row_key(i64::from(c.0) + 1))
            }
        }
    }

    /// The constituent log `cell` lives in and its key there.
    #[inline]
    fn route(&self, cell: Cell) -> (&TableLog, i64) {
        let (log, key) = self.locate(cell);
        (&self.logs[log], key)
    }

    /// Prefetch the entry of `cell`'s home bucket into the host's cache.
    /// Charges no lane and changes nothing: the simulated clock cannot see
    /// it. A caller about to register or check a group of accesses touches
    /// them all first and the misses are in flight together instead of
    /// queueing one behind the other (DESIGN.md "Hot path").
    #[inline]
    pub fn touch(&self, cell: Cell) {
        let (log, key) = self.route(cell);
        log.touch(key);
    }

    /// Prefetch the entry a registration settled on, as [`Self::touch`]
    /// does for a cell.
    #[inline]
    pub(crate) fn touch_settled(&self, at: Settled) {
        self.logs[usize::from(at.log)].touch_bucket(at.bucket as usize);
    }

    /// Register `tid` against `cell` in every record `check` names, and
    /// return where it settled. `None` = log exhausted, abort the
    /// transaction; the remaining records are still registered (extra TIDs
    /// only ever add conflicts).
    #[must_use]
    pub fn register(&mut self, lane: &mut Lane<'_>, cell: Cell, check: Check, tid: u64) -> Option<Settled> {
        let (log, key) = self.locate(cell);
        let (table_log, epoch) = (&mut self.logs[log], self.epoch);
        let mut settled = Some((0, 0));
        for &record in check.records() {
            // Every record of one key settles on the same bucket.
            let at = table_log.register(lane, record, key, tid, epoch);
            settled = settled.and(at);
        }
        let (bucket, probe) = settled?;
        Some(Settled { log: log as u16, bucket: bucket as u32, probe: probe as u32 })
    }

    /// The bucket a registration of this batch settled on, looked up once
    /// for both its records. Charges nothing: [`Found::min`] charges the
    /// probe run.
    #[inline]
    pub(crate) fn found(&self, at: Settled) -> Found<'_> {
        self.logs[usize::from(at.log)].found(at.bucket as usize, at.probe as usize, self.epoch)
    }

    /// Minimum TID registered in `record` of `cell` this batch, found by
    /// walking `cell`'s probe run: for a caller that holds no
    /// [`Settled`] (the detect kernel carries one).
    pub fn min(&self, lane: &mut Lane<'_>, cell: Cell, record: Record) -> Option<u64> {
        let (log, key) = self.route(cell);
        log.min_by_key(lane, record, key, self.epoch)
    }

    /// Memory occupancy report (paper Table VIII): the row logs, then the
    /// split-off column logs.
    pub fn memory_report(&self) -> Vec<LogMemory> {
        let rows = (0..self.rows_per_table.len()).map(|t| (TableId(t as u16), None));
        let split = self.split_cols.iter().map(|&(t, c)| (t, Some(c)));
        rows.chain(split)
            .zip(&self.logs)
            .map(|((table, split_col), log)| LogMemory {
                table,
                split_col,
                bytes: log.bytes(),
                bucket_size: log.bucket_size(),
            })
            .collect()
    }

    /// Total device bytes across all constituent logs, as modelled.
    pub fn bytes(&self) -> u64 {
        self.memory_report().iter().map(|m| m.bytes).sum()
    }

    /// Host bytes every constituent log holds
    /// ([`TableLog::resident_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        self.logs.iter().map(TableLog::resident_bytes).sum()
    }
}

impl std::fmt::Debug for ConflictLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConflictLog")
            .field("epoch", &self.epoch)
            .field("row_logs", &self.rows_per_table.len())
            .field("split_logs", &self.split_cols.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_gpu_sim::{Device, DeviceConfig};

    /// Run `f` on a single-lane kernel and return its result.
    fn on_lane<T>(mut f: impl FnMut(&mut Lane<'_>) -> T) -> T {
        let mut out = None;
        Device::new(DeviceConfig::default()).launch_indexed("test", 1, |lane| out = Some(f(lane)));
        out.unwrap()
    }

    /// Plain data throughout: a detect pass on other threads could share
    /// the log between epochs' registrations.
    #[test]
    fn a_conflict_log_is_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<ConflictLog>();
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
        assert_eq!(big.resident_bytes(), (PHYSICAL_FLOOR * (64 + 32)) as u64, "nothing claimed yet");
    }

    #[test]
    fn register_and_min_roundtrip() {
        let mut log = TableLog::new(64, 1);
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
        let mut log = TableLog::new(64, 1);
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
        let mut log = TableLog::new(64, 4);
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
        let mut log = TableLog::new(16, 8);
        on_lane(|lane| {
            for tid in 1..=20u64 {
                let _ = log.register_write(lane, 7, tid, 3);
            }
            assert_eq!(log.min_write(lane, 7, 3), Some(1));
        });
    }

    #[test]
    fn colliding_keys_probe_to_distinct_buckets() {
        let mut log = TableLog::new(16, 1);
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

    /// An epoch that claims three times the buckets the physical table
    /// starts with grows it within the epoch, to hold its claims at most
    /// half full, and loses no minimum; a quieter next epoch neither
    /// rebuilds nor shrinks the grown table.
    #[test]
    fn claims_past_half_the_table_grow_it_within_the_epoch() {
        let mut log = TableLog::new(1 << 16, 32).with_ballot_probe(32);
        let keys = 3_000usize;
        let mut device = Device::new(DeviceConfig::default());
        // The table's length after each registration of one epoch.
        let mut epoch_with = |log: &mut TableLog, epoch: u32, keys: usize| {
            let mut lens = Vec::new();
            device.launch_indexed("reg", 2 * keys, |lane| {
                let key = (lane.global_id % keys) as i64;
                assert!(log.register_write(lane, key, lane.global_id as u64 + 1, epoch));
                lens.push(log.claimed.entries.len());
            });
            let mut wrong = 0;
            device.launch_indexed("probe", keys, |lane| {
                let key = lane.global_id as i64;
                wrong += usize::from(log.min_write(lane, key, epoch) != Some(key as u64 + 1));
            });
            assert_eq!(wrong, 0, "epoch {epoch}: a claim lost its minimum");
            log.settle();
            lens
        };
        assert_eq!(log.claimed.entries.len(), PHYSICAL_FLOOR);
        let lens = epoch_with(&mut log, 1, keys);
        let grown = log.claimed.entries.len();
        assert!((2 * keys..4 * keys).contains(&grown), "claims at most half the table: {grown}");
        assert_eq!(lens[keys - 1], grown, "the epoch's last claim finds the table grown");
        assert!(lens.windows(2).all(|w| w[0] <= w[1]), "the table never shrinks");
        let at = log.claimed.entries.as_ptr();
        let quiet = epoch_with(&mut log, 2, keys / 10);
        assert!(quiet.iter().all(|&len| len == grown), "a quieter epoch must not shrink the table");
        assert_eq!(log.claimed.entries.as_ptr(), at, "a quieter epoch must not rebuild the table");
        assert!(log.resident_bytes() < log.bytes() / 8);
    }

    /// The by-key lookup as it was before detection carried buckets: the
    /// walk of `key`'s probe run, then the record's summary check and a
    /// scan of every slot of the bucket, charged as the scan was priced.
    fn scanned_min(log: &TableLog, lane: &mut Lane<'_>, record: Record, key: i64, epoch: u32) -> Option<u64> {
        let p = log.bucket_of(lane, key, epoch)?;
        let entry = &log.claimed.entries[p];
        lane.charge_light(12.0);
        if entry.mark[record as usize] != epoch {
            return None;
        }
        match log.ballot {
            None => lane.charge_light(4.0 * log.s_u as f64),
            Some(ws) => {
                lane.charge_light(4.0 * (log.s_u as f64 / ws as f64).ceil());
                lane.warp_shuffle((ws as u32).max(2).ilog2());
            }
        }
        let claimed = &log.claimed;
        let run = match claimed.runs.get(p).map(|r| r.run[record as usize]) {
            Some(w) if stamped_in(w, epoch) => {
                let at = (w & TID_MASK) as usize * claimed.unit;
                &claimed.arena[at..at + claimed.unit]
            }
            _ => &[],
        };
        std::iter::once(&entry.slot0[record as usize]).chain(run).filter_map(|s| decode(s.load(), epoch)).min()
    }

    /// Every registration's carried bucket finds what the by-key lookup
    /// found, charged the same to the bit: after the table grew under the
    /// registrations (3 000 claims of 8 192 buckets), at probe positions
    /// past 1 and past the ballot width (a 64-bucket log filled to
    /// exhaustion), with one, 32 and 512 slots per bucket — where the
    /// running minimum must equal the slot scan, slot 0 included — and
    /// across the wrap of the epoch space, which must reset the minima. It
    /// fails if an item carries the entry's position instead of its
    /// modelled bucket, or if a registration into slot 0 skips the minimum.
    #[test]
    fn a_carried_bucket_finds_what_the_key_walk_found() {
        let mut device = Device::new(DeviceConfig::default());
        let (mut grew, mut far, mut near) = (false, false, false);
        for (s_h, keys, s_u, ballot) in [
            (1 << 13, 3_000u64, 1, true),
            (1 << 13, 3_000, 32, true),
            (1 << 13, 3_000, 512, false),
            (64, 80, 1, true),
            (64, 80, 32, false),
            (64, 80, 512, true),
        ] {
            let mut log = TableLog::new(s_h, s_u);
            if ballot {
                log = log.with_ballot_probe(32);
            }
            let first = log.claimed.entries.len();
            // Two epochs below the top of the epoch space, then the wrap.
            for epoch in [LAST_EPOCH - 1, LAST_EPOCH, 1, 2] {
                if epoch == 1 {
                    log.clear();
                }
                let at = format!("s_h {s_h}, s_u {s_u}, ballot {ballot}, epoch {epoch}");
                // Three passes over the keys, TIDs falling: every slot a
                // registration lands in, slot 0 too, takes a new minimum.
                // A stale minimum of the epoch before the wrap encodes
                // smaller than any fresh one, and would hide it.
                let ops: Vec<(i64, u64, Record)> = (0..3 * keys)
                    .map(|i| {
                        let record = if i % 3 == 0 { Record::Writes } else { Record::Reads };
                        ((i * 7_919 % keys) as i64, 3 * keys - i, record)
                    })
                    .collect();
                let mut settled = Vec::new();
                device.launch("register", &ops, |lane, &(key, tid, record)| {
                    if let Some(at) = log.register(lane, record, key, tid, epoch) {
                        settled.push((key, at));
                    }
                });
                assert!(settled.len() < ops.len() || s_h > 64, "{at}: the small log must run out");
                grew |= log.claimed.entries.len() > first;
                far |= settled.iter().any(|&(_, (_, probe))| probe >= 32);
                near |= settled.iter().any(|&(_, (_, probe))| (1..32).contains(&probe));
                let both = |min: &mut dyn FnMut(Record) -> Option<u64>| [min(Record::Reads), min(Record::Writes)];
                let mut walked = Vec::new();
                let by_key = device.launch("by key", &settled, |lane, &(key, _)| {
                    walked.push(both(&mut |record| scanned_min(&log, lane, record, key, epoch)));
                });
                let mut carried = Vec::new();
                let found = device.launch("carried", &settled, |lane, &(_, (bucket, probe))| {
                    let found = log.found(bucket, probe, epoch);
                    carried.push(both(&mut |record| found.min(lane, record)));
                });
                assert_eq!(carried, walked, "{at}: minima");
                assert_eq!(found.sim_ns.to_bits(), by_key.sim_ns.to_bits(), "{at}: sim_ns");
                log.settle();
            }
        }
        assert!(grew && far && near, "grew {grew}, a probe past the ballot width {far}, one within it {near}");
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
            let mut device = Device::new(DeviceConfig::parallel(threads));
            let mut log = TableLog::new(1 << 13, 32);
            let mut slots = ltpg_gpu_sim::PreSlots::default();
            let keyed = |k: usize, v: &mut (u64, u64)| *v = ((k as u64 + 1) % 64, k as u64 + 1);
            let report = device.launch_with_pre("reg", 4_096, &mut slots, keyed, |lane, &mut (key, tid)| {
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
        let mut log = TableLog::new(64, 1);
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
        let cycles_for = |f: &mut dyn FnMut(&mut Lane<'_>)| {
            let mut device = Device::new(DeviceConfig::default());
            device.launch_indexed("probe", 1, f).sim_ns
        };
        let log = TableLog::new(64, 1);
        let baseline = cycles_for(&mut |_lane| {});
        let miss = cycles_for(&mut |lane: &mut Lane<'_>| {
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
            let mut device = Device::new(DeviceConfig::default());
            let mut log = TableLog::new(64, 512);
            if ballot {
                log = log.with_ballot_probe(32);
            }
            device.launch("mark", &items, |lane, &tid| {
                let _ = log.register_write(lane, (tid % 8) as i64, tid, 1);
            });
            let mut mins = Vec::new();
            let read = device.launch_indexed("read", 64, |lane| {
                mins.push(log.min_write(lane, (lane.global_id % 8) as i64, 1));
            });
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
        let mut device = Device::new(DeviceConfig::default());
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
        let mut device = Device::new(DeviceConfig::default());
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
            let mut landed = Vec::new();
            device.launch("register", &ops, |lane, &(key, tid)| {
                landed.push(log.register(lane, cell(key), Check::Write, tid).is_some());
            });
            assert_eq!(landed, expected, "exhaustion in batch {batch}");
            exhausted += landed.iter().filter(|ok| !**ok).count();
            let mut mins = BTreeMap::new();
            device.launch_indexed("probe", keys as usize, |lane| {
                let key = lane.global_id as i64;
                if let Some(m) = log.min(lane, cell(key), Record::Writes) {
                    mins.insert(key, m);
                }
            });
            assert_eq!(mins, min, "minima in batch {batch}");
        }
        assert!(exhausted > 0, "the later batches must exhaust the log");
    }

    #[test]
    fn large_buckets_reduce_atomic_serialization() {
        let items: Vec<u64> = (1..=2_048).collect();
        let run = |s_u: usize| {
            let mut device = Device::new(DeviceConfig::default());
            let mut log = TableLog::new(64, s_u);
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
