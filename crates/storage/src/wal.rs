//! Simulated batch write-ahead log.
//!
//! The paper's CPU side "records each batch of transactions on the hard
//! drive as logs" and replays aborted transactions **with their original
//! TIDs** to keep re-execution deterministic (§IV). This module provides
//! that durability surface with a real on-disk format over a simulated
//! medium: every appended batch is encoded as a checksummed frame into a
//! byte image (`disk`), and recovery re-parses that image. Only the
//! physical medium is simulated — the parsing, checksums, and torn-tail
//! handling are the real thing, which is what makes fault injection
//! ([`BatchLog::corrupt_byte`], [`BatchLog::tear_tail`]) meaningful.
//!
//! ## Frame format (big-endian)
//!
//! ```text
//! magic     u32   0x4C54_5047 ("LTPG")
//! body_len  u32   length of `body` in bytes
//! body      [u8]  batch_id u64 | tid_count u32 | tids u64×n
//!                 | payload_len u32 | payload
//! crc       u32   CRC-32 (IEEE) over `body`
//! ```
//!
//! A frame is written once, in place at the end of the image: no body or
//! frame buffer is built on the way.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{Buf, BufMut, Bytes};

/// Frame magic: `"LTPG"` as a big-endian `u32`.
pub const FRAME_MAGIC: u32 = 0x4C54_5047;

/// Fixed frame overhead: magic + body length + trailing CRC.
pub const FRAME_OVERHEAD: usize = 12;

/// Slicing-by-8 tables: `CRC32_TABLES[0]` is the bytewise table of the
/// reflected IEEE polynomial, and `CRC32_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight table lookups fold eight
/// input bytes at once.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// The running CRC register `c` advanced over one 8-byte word.
#[inline]
fn crc32_word(c: u32, word: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let w = u64::from_le_bytes(word.try_into().expect("an 8-byte word")) ^ u64::from(c);
    let byte = |k: u32| ((w >> (8 * k)) & 0xFF) as usize;
    t[7][byte(0)]
        ^ t[6][byte(1)]
        ^ t[5][byte(2)]
        ^ t[4][byte(3)]
        ^ t[3][byte(4)]
        ^ t[2][byte(5)]
        ^ t[1][byte(6)]
        ^ t[0][byte(7)]
}

/// The running CRC register `c` advanced over `bytes`: whole words, then
/// the tail bytewise.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        c = crc32_word(c, w);
    }
    for &b in words.remainder() {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// `a · b` modulo the polynomial, both in the reflected bit order (bit 31
/// is `x⁰`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ 0xEDB8_8320 } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `X2N[k]` is `x^(2^k)` modulo the polynomial.
static X2N: [u32; 64] = {
    let mut t = [0u32; 64];
    let mut p = 1u32 << 30; // x¹
    let mut k = 0;
    while k < 64 {
        t[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    t
};

/// The CRC-32 of `a ‖ b` from `crc_a = crc32(a)`, `crc_b = crc32(b)` and
/// `b`'s length: `crc_a` shifted past `len_b` zero bytes — a product with
/// `x^(8·len_b)`, built from the `X2N` powers of the set bits of
/// `8·len_b` — plus `crc_b`.
fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    let mut shift = 1u32 << 31; // x⁰
    let mut n = len_b as u64;
    let mut k = 3; // bit 0 of `len_b` is bit 3 of `8·len_b`
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod_p(X2N[k], shift);
        }
        n >>= 1;
        k += 1;
    }
    mul_mod_p(shift, crc_a) ^ crc_b
}

/// CRC-32 (IEEE 802.3, reflected) — the checksum protecting frame bodies.
/// Slicing-by-8 through [`CRC32_TABLES`]. From 512 bytes on, the buffer is
/// taken as two halves whose word loops run interleaved — each step waits
/// only on its own half's lookups, so the two chains overlap — and the
/// halves' CRCs are combined.
pub fn crc32(bytes: &[u8]) -> u32 {
    let half = bytes.len() / 16 * 8;
    if half < 256 {
        return !crc32_update(!0, bytes);
    }
    let (a, b) = bytes.split_at(half);
    let (mut ca, mut cb) = (!0u32, !0u32);
    for (wa, wb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        ca = crc32_word(ca, wa);
        cb = crc32_word(cb, wb);
    }
    let cb = crc32_update(cb, &b[half..]);
    crc32_combine(!ca, !cb, b.len())
}

/// One durable batch record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Monotonic batch sequence number.
    pub batch_id: u64,
    /// TIDs of the transactions in the batch, in assignment order.
    pub tids: Vec<u64>,
    /// Serialized transaction parameters (opaque to the log).
    pub payload: Bytes,
}

impl BatchRecord {
    /// Append this record's checksummed frame to `image` in place —
    /// magic, body length, body, CRC-32 of the body — and return the
    /// frame's length.
    fn write_frame(&self, image: &mut Vec<u8>) -> usize {
        let body_len = 8 + 4 + 8 * self.tids.len() + 4 + self.payload.len();
        image.reserve(FRAME_OVERHEAD + body_len);
        image.put_u32(FRAME_MAGIC);
        image.put_u32(body_len as u32);
        let body = image.len();
        image.put_u64(self.batch_id);
        image.put_u32(self.tids.len() as u32);
        for t in &self.tids {
            image.put_u64(*t);
        }
        image.put_u32(self.payload.len() as u32);
        image.put_slice(&self.payload);
        let crc = crc32(&image[body..]);
        image.put_u32(crc);
        FRAME_OVERHEAD + body_len
    }

    /// Decode a CRC-verified frame body. Internal length fields are
    /// re-validated so a hostile (or buggy) body can never cause a panic.
    fn decode_body(mut body: &[u8]) -> Option<BatchRecord> {
        if body.remaining() < 12 {
            return None;
        }
        let batch_id = body.get_u64();
        let tid_count = body.get_u32() as usize;
        if body.remaining() < tid_count * 8 + 4 {
            return None;
        }
        let tids: Vec<u64> = (0..tid_count).map(|_| body.get_u64()).collect();
        let payload_len = body.get_u32() as usize;
        if body.remaining() != payload_len {
            return None;
        }
        let payload = Bytes::copy_from_slice(body.chunk());
        Some(BatchRecord { batch_id, tids, payload })
    }
}

/// A frame that failed validation during a scan. Torn tails are *not*
/// frame errors — they are reported separately via [`WalScan::tail`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes at `offset` do not start with [`FRAME_MAGIC`].
    BadMagic {
        /// Index of the frame that failed (0-based).
        frame_index: usize,
        /// Byte offset of the frame in the log image.
        offset: usize,
        /// The four bytes found instead of the magic.
        found: u32,
    },
    /// The frame's CRC-32 does not match its body.
    ChecksumMismatch {
        /// Index of the frame that failed (0-based).
        frame_index: usize,
        /// Byte offset of the frame in the log image.
        offset: usize,
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum recomputed over the body.
        computed: u32,
    },
    /// The CRC verified but the body's internal length fields are
    /// inconsistent (writer bug or checksum collision).
    BadBody {
        /// Index of the frame that failed (0-based).
        frame_index: usize,
        /// Byte offset of the frame in the log image.
        offset: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { frame_index, offset, found } => write!(
                f,
                "frame {frame_index} at byte {offset}: bad magic {found:#010x} (expected {FRAME_MAGIC:#010x})"
            ),
            FrameError::ChecksumMismatch { frame_index, offset, stored, computed } => write!(
                f,
                "frame {frame_index} at byte {offset}: checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            FrameError::BadBody { frame_index, offset } => {
                write!(f, "frame {frame_index} at byte {offset}: inconsistent body lengths")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// State of the log image's tail after a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailState {
    /// The image ends exactly on a frame boundary.
    Clean,
    /// The image ends with a partial frame (a torn write): `bytes`
    /// trailing bytes starting at `offset` do not form a complete frame.
    Torn {
        /// Byte offset where the partial frame starts.
        offset: usize,
        /// Number of trailing bytes in the partial frame.
        bytes: usize,
    },
}

/// Result of parsing the physical log image.
#[derive(Debug, Clone)]
pub struct WalScan {
    /// Every frame that validated, in log order.
    pub records: Vec<BatchRecord>,
    /// Whether the image ends cleanly or with a torn (partial) frame.
    pub tail: TailState,
}

/// An append-only batch log over a simulated disk image.
#[derive(Debug, Default)]
pub struct BatchLog {
    /// Logical view: what the writer appended (undamaged).
    records: Mutex<Vec<BatchRecord>>,
    /// Physical view: the encoded byte image. Fault injection mutates
    /// this; recovery parses it.
    disk: Mutex<Vec<u8>>,
    bytes_written: AtomicU64,
    next_batch_id: AtomicU64,
}

impl BatchLog {
    /// Create an empty log.
    pub fn new() -> Self {
        BatchLog::default()
    }

    /// Append a batch, returning its assigned batch id.
    pub fn append(&self, tids: Vec<u64>, payload: Bytes) -> u64 {
        // Lock order: disk before records, matching every other method
        // that takes both. The id is drawn under the lock, so a record's
        // id is its position in both views whoever else is appending.
        let mut disk = self.disk.lock();
        let batch_id = self.next_batch_id.fetch_add(1, Ordering::Relaxed);
        let rec = BatchRecord { batch_id, tids, payload };
        let frame_len = rec.write_frame(&mut disk) as u64;
        self.bytes_written.fetch_add(frame_len, Ordering::Relaxed);
        let reg = ltpg_telemetry::global();
        reg.counter(ltpg_telemetry::names::WAL_FRAMES_APPENDED).inc();
        reg.counter(ltpg_telemetry::names::WAL_BYTES_APPENDED).add(frame_len);
        self.records.lock().push(rec);
        batch_id
    }

    /// Fetch a batch from the *logical* view (original TIDs preserved).
    /// Unaffected by injected faults; recovery paths should use
    /// [`BatchLog::scan`] instead.
    pub fn fetch(&self, batch_id: u64) -> Option<BatchRecord> {
        // Ids are dense from 0 in append order: index, then check.
        let records = self.records.lock();
        records.get(usize::try_from(batch_id).ok()?).filter(|r| r.batch_id == batch_id).cloned()
    }

    /// Number of batches appended (logical view).
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded bytes "written to disk".
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Size of the physical image right now (shrinks under
    /// [`BatchLog::tear_tail`] / [`BatchLog::truncate_torn_tail`]).
    pub fn disk_len(&self) -> usize {
        self.disk.lock().len()
    }

    /// Byte spans `(offset, len)` of each complete frame in the image,
    /// derived from frame headers without validating checksums.
    pub fn frame_spans(&self) -> Vec<(usize, usize)> {
        let disk = self.disk.lock();
        let mut spans = Vec::new();
        let mut off = 0usize;
        while disk.len() - off >= FRAME_OVERHEAD {
            let body_len =
                u32::from_be_bytes([disk[off + 4], disk[off + 5], disk[off + 6], disk[off + 7]])
                    as usize;
            let frame_len = body_len + FRAME_OVERHEAD;
            if disk.len() - off < frame_len {
                break;
            }
            spans.push((off, frame_len));
            off += frame_len;
        }
        spans
    }

    /// Fault injection: XOR one byte of the physical image.
    /// Out-of-range positions are ignored (the injector may race a tear).
    pub fn corrupt_byte(&self, pos: usize, xor: u8) {
        let mut disk = self.disk.lock();
        if let Some(b) = disk.get_mut(pos) {
            *b ^= xor;
        }
    }

    /// Fault injection: flip a byte inside the *body* of frame
    /// `frame_index`, so the damage is caught by the CRC rather than the
    /// magic check. Returns `false` if no such frame exists.
    pub fn corrupt_frame(&self, frame_index: usize, xor: u8) -> bool {
        let spans = self.frame_spans();
        let Some(&(off, len)) = spans.get(frame_index) else {
            return false;
        };
        debug_assert!(len > FRAME_OVERHEAD);
        // First body byte (the batch id's high byte).
        self.corrupt_byte(off + 8, if xor == 0 { 0xFF } else { xor });
        true
    }

    /// Fault injection: a torn write — drop the last `drop_bytes` bytes of
    /// the physical image, as if the machine died mid-`write(2)`. Returns
    /// the number of bytes actually dropped.
    pub fn tear_tail(&self, drop_bytes: usize) -> usize {
        let mut disk = self.disk.lock();
        let dropped = drop_bytes.min(disk.len());
        let keep = disk.len() - dropped;
        disk.truncate(keep);
        dropped
    }

    /// Parse the physical image. Stops at the first invalid frame
    /// (`Err`), or returns every valid record plus the tail state. A
    /// partial trailing frame is *not* an error — it is reported as
    /// [`TailState::Torn`] for the caller's truncation policy.
    pub fn scan(&self) -> Result<WalScan, FrameError> {
        let disk = self.disk.lock();
        let mut records = Vec::new();
        let mut off = 0usize;
        let mut frame_index = 0usize;
        while off < disk.len() {
            let remaining = disk.len() - off;
            if remaining < FRAME_OVERHEAD {
                return Ok(WalScan { records, tail: TailState::Torn { offset: off, bytes: remaining } });
            }
            let magic = u32::from_be_bytes([disk[off], disk[off + 1], disk[off + 2], disk[off + 3]]);
            if magic != FRAME_MAGIC {
                return Err(FrameError::BadMagic { frame_index, offset: off, found: magic });
            }
            let body_len =
                u32::from_be_bytes([disk[off + 4], disk[off + 5], disk[off + 6], disk[off + 7]])
                    as usize;
            if remaining < body_len + FRAME_OVERHEAD {
                return Ok(WalScan { records, tail: TailState::Torn { offset: off, bytes: remaining } });
            }
            let body = &disk[off + 8..off + 8 + body_len];
            let crc_off = off + 8 + body_len;
            let stored = u32::from_be_bytes([
                disk[crc_off],
                disk[crc_off + 1],
                disk[crc_off + 2],
                disk[crc_off + 3],
            ]);
            let computed = crc32(body);
            if stored != computed {
                return Err(FrameError::ChecksumMismatch {
                    frame_index,
                    offset: off,
                    stored,
                    computed,
                });
            }
            let record = BatchRecord::decode_body(body)
                .ok_or(FrameError::BadBody { frame_index, offset: off })?;
            records.push(record);
            off += body_len + FRAME_OVERHEAD;
            frame_index += 1;
        }
        Ok(WalScan { records, tail: TailState::Clean })
    }

    /// Detect-and-truncate recovery policy: if the image ends with a
    /// partial frame, drop those bytes and return how many were dropped.
    /// Complete-but-corrupt frames are left untouched (they surface as
    /// `Err` from [`BatchLog::scan`]).
    pub fn truncate_torn_tail(&self) -> Result<usize, FrameError> {
        let scan = self.scan()?;
        match scan.tail {
            TailState::Clean => Ok(0),
            TailState::Torn { offset, bytes } => {
                let mut disk = self.disk.lock();
                // Re-check under the lock: the tail may have changed.
                if disk.len() == offset + bytes {
                    disk.truncate(offset);
                    Ok(bytes)
                } else {
                    Ok(0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_monotonic_ids_and_fetch_roundtrips() {
        let log = BatchLog::new();
        let id0 = log.append(vec![1, 2, 3], Bytes::from_static(b"abc"));
        let id1 = log.append(vec![4], Bytes::from_static(b"d"));
        assert_eq!((id0, id1), (0, 1));
        let r = log.fetch(0).unwrap();
        assert_eq!(r.tids, vec![1, 2, 3]);
        assert_eq!(&r.payload[..], b"abc");
        assert!(log.fetch(99).is_none());
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn fetch_finds_every_id_of_a_long_log_and_nothing_else() {
        let log = BatchLog::new();
        assert!(log.fetch(0).is_none(), "empty log");
        for i in 0..2_000u64 {
            assert_eq!(log.append(vec![i * 3], Bytes::new()), i);
        }
        for i in 0..2_000u64 {
            let r = log.fetch(i).unwrap_or_else(|| panic!("id {i} not found"));
            assert_eq!((r.batch_id, &r.tids[..]), (i, &[i * 3][..]));
        }
        assert!(log.fetch(2_000).is_none(), "one past the end");
        assert!(log.fetch(u64::MAX).is_none());
    }

    #[test]
    fn byte_accounting_matches_frame_sizes() {
        let log = BatchLog::new();
        log.append(vec![7, 8], Bytes::from_static(b"xyzw"));
        // Body: 8 (batch id) + 4 (tid count) + 16 (tids) + 4 (len)
        // + 4 (payload) = 36; frame adds magic + body_len + crc = 12.
        assert_eq!(log.bytes_written(), 48);
        assert_eq!(log.disk_len(), 48);
        assert_eq!(log.frame_spans(), vec![(0, 48)]);
    }

    #[test]
    fn scan_roundtrips_clean_image() {
        let log = BatchLog::new();
        log.append(vec![1], Bytes::from_static(b"a"));
        log.append(vec![2, 3], Bytes::from_static(b"bc"));
        let scan = log.scan().unwrap();
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].tids, vec![1]);
        assert_eq!(scan.records[1].batch_id, 1);
        assert_eq!(&scan.records[1].payload[..], b"bc");
    }

    #[test]
    fn corrupt_body_is_a_checksum_mismatch() {
        let log = BatchLog::new();
        log.append(vec![1], Bytes::from_static(b"a"));
        log.append(vec![2], Bytes::from_static(b"b"));
        assert!(log.corrupt_frame(0, 0x40));
        match log.scan() {
            Err(FrameError::ChecksumMismatch { frame_index: 0, .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_magic_is_bad_magic() {
        let log = BatchLog::new();
        log.append(vec![1], Bytes::from_static(b"a"));
        log.corrupt_byte(0, 0xFF);
        match log.scan() {
            Err(FrameError::BadMagic { frame_index: 0, offset: 0, .. }) => {}
            other => panic!("expected bad magic, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_detected_and_truncated() {
        let log = BatchLog::new();
        log.append(vec![1], Bytes::from_static(b"a"));
        log.append(vec![2], Bytes::from_static(b"b"));
        let torn = 5;
        log.tear_tail(torn);
        let scan = log.scan().unwrap();
        assert_eq!(scan.records.len(), 1, "partial second frame must not decode");
        match scan.tail {
            TailState::Torn { bytes, .. } => assert!(bytes > 0),
            TailState::Clean => panic!("tail should be torn"),
        }
        let dropped = log.truncate_torn_tail().unwrap();
        assert!(dropped > 0);
        let rescan = log.scan().unwrap();
        assert_eq!(rescan.tail, TailState::Clean);
        assert_eq!(rescan.records.len(), 1);
    }

    #[test]
    fn tear_of_whole_frames_leaves_clean_shorter_log() {
        let log = BatchLog::new();
        log.append(vec![1], Bytes::from_static(b"a"));
        let first = log.disk_len();
        log.append(vec![2], Bytes::from_static(b"b"));
        let second = log.disk_len() - first;
        log.tear_tail(second);
        let scan = log.scan().unwrap();
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The textbook bitwise CRC-32 (IEEE, reflected): one shift per bit, no
    /// table — the reference the table-driven [`crc32`] must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    fn pseudo_random_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Every length 0..=300 at every start offset 0..8, so each alignment of
    /// each whole-word run and each tail length is taken on one lane — and
    /// every length 500..=1_100, where two lanes take over at 512 and the
    /// second half carries a tail of 0..16 bytes.
    #[test]
    fn crc32_equals_the_bitwise_reference_at_every_length_and_offset() {
        let bytes = pseudo_random_bytes(1_100 + 8);
        for start in 0..8 {
            for len in (0..=300).chain(500..=1_100) {
                let s = &bytes[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, length {len}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn crc32_equals_the_bitwise_reference_on_random_buffers(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2_000),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// The physical image, byte for byte. The digests were recorded with
    /// the frame writer that built a body, copied it into a frame and the
    /// frame into the image; the in-place writer must leave the same bytes:
    /// an empty batch, small and multi-word bodies, a torn tail and its
    /// truncation, and an append after that.
    #[test]
    fn disk_image_bytes_are_pinned() {
        let log = BatchLog::new();
        let image = |log: &BatchLog| {
            let disk = log.disk.lock();
            (disk.len(), fnv64(&disk))
        };
        log.append(vec![], Bytes::new());
        log.append(vec![1, 2, 3], Bytes::from_static(b"abc"));
        log.append((10..300).collect(), Bytes::from(pseudo_random_bytes(1_000)));
        log.append(vec![u64::MAX], Bytes::from_static(b"\x00\xff"));
        let appended = image(&log);
        assert_eq!(log.tear_tail(7), 7);
        let dropped = log.truncate_torn_tail().unwrap();
        let truncated = image(&log);
        log.append(vec![5], Bytes::from_static(b"after a tear"));
        assert_eq!(appended, (3_469, 0xdea5_c400_1a83_f2a8));
        assert_eq!(dropped, 31, "the last frame is 38 bytes");
        assert_eq!(truncated, (3_431, 0x727b_b64c_7f99_1633));
        assert_eq!(image(&log), (3_479, 0xa90b_80ed_7ec8_3d00));
        let scan = log.scan().unwrap();
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.records.len(), 4);
    }

    #[test]
    fn concurrent_appends_get_distinct_ids() {
        let log = BatchLog::new();
        crossbeam::scope(|s| {
            for _ in 0..8 {
                let log = &log;
                s.spawn(move |_| {
                    for _ in 0..100 {
                        log.append(vec![], Bytes::new());
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(log.len(), 800);
        let mut ids: Vec<u64> = log.records.lock().iter().map(|r| r.batch_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 800);
    }
}
