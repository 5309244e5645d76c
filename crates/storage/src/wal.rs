//! Simulated batch write-ahead log.
//!
//! The paper's CPU side "records each batch of transactions on the hard
//! drive as logs" and replays aborted transactions **with their original
//! TIDs** to keep re-execution deterministic (§IV). This module provides
//! that durability surface with a real on-disk format over a simulated
//! medium: every appended batch is encoded as a checksummed frame into a
//! byte image, the log's only copy. Only the physical medium is simulated
//! — the framing, checksums and torn-tail handling are the real thing, so
//! fault injection ([`BatchLog::corrupt_byte`], [`BatchLog::tear_tail`])
//! reaches every reader: recovery, a degradation rebuild, a standby.
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
//! A frame is written once, in place at the end of the image, and found by
//! the end offsets kept beside it. [`Frame::decode`] is the one checked
//! reader (magic, body length against the frame's extent, CRC, then the
//! body), over the copy [`BatchLog::frame`] hands out.
//!
//! ## Retirement
//!
//! The image holds the frames from a retired base on: [`BatchLog::retire_below`]
//! drops the frames no reader can still ask for (those a checkpoint covers
//! and every standby has been shipped) by moving what follows them to the
//! front of the same buffer, so the image's capacity is what one window of
//! frames needs, not what the log's life has written. Frame indexes, byte
//! offsets (in [`Frame`] and [`FrameError`]) and [`BatchLog::bytes_written`]
//! count from the log's start, retired frames included; a retired frame
//! reads as absent, like one never written.

use std::ops::Range;

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

/// Append one batch's checksummed frame to `image` in place — magic, body
/// length, body, CRC-32 of the body — and return the frame's length.
fn write_frame(image: &mut Vec<u8>, batch_id: u64, tids: &[u64], payload: &[u8]) -> usize {
    let body_len = 8 + 4 + 8 * tids.len() + 4 + payload.len();
    image.reserve(FRAME_OVERHEAD + body_len);
    image.put_u32(FRAME_MAGIC);
    image.put_u32(body_len as u32);
    let body = image.len();
    image.put_u64(batch_id);
    image.put_u32(tids.len() as u32);
    for t in tids {
        image.put_u64(*t);
    }
    image.put_u32(payload.len() as u32);
    image.put_slice(payload);
    let crc = crc32(&image[body..]);
    image.put_u32(crc);
    FRAME_OVERHEAD + body_len
}

/// The body of `frame` (frame `frame_index`, at byte `offset`), once its
/// magic, a body length spanning exactly the frame and its CRC check out.
fn check_frame(frame: &[u8], frame_index: usize, offset: usize) -> Result<&[u8], FrameError> {
    let bad_body = FrameError::BadBody { frame_index, offset };
    if frame.len() < FRAME_OVERHEAD {
        return Err(bad_body);
    }
    let word = |at: usize| u32::from_be_bytes(frame[at..at + 4].try_into().expect("four bytes"));
    let found = word(0);
    if found != FRAME_MAGIC {
        return Err(FrameError::BadMagic { frame_index, offset, found });
    }
    let body_len = word(4) as usize;
    if body_len != frame.len() - FRAME_OVERHEAD {
        return Err(bad_body);
    }
    let body = &frame[8..8 + body_len];
    let (stored, computed) = (word(8 + body_len), crc32(body));
    if stored != computed {
        return Err(FrameError::ChecksumMismatch { frame_index, offset, stored, computed });
    }
    Ok(body)
}

/// One durable batch record: a checked frame's body, decoded.
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

/// A complete frame that failed its checks. Torn tails are *not* frame
/// errors — [`BatchLog::verify`] reports them as [`TailState::Torn`].
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
    /// A length field is inconsistent: the header's body length does not
    /// span the frame (a damaged header), or the CRC verified but the
    /// body's own tid and payload lengths do not add up (writer bug or
    /// checksum collision).
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

/// State of the log image's tail.
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

/// One complete frame's bytes as they lie in the image, damage included,
/// copied out with where they lay: what a standby is shipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Position of the frame in the log — the batch id it was appended
    /// under, unless a torn tail was truncated and appended over.
    pub index: usize,
    /// Byte offset of the frame from the log's start (retired frames
    /// included).
    pub offset: usize,
    /// The frame: magic, body length, body, CRC.
    pub bytes: Vec<u8>,
}

impl Frame {
    /// The one checked reader: check the frame's magic, length and CRC,
    /// then decode its body.
    pub fn decode(&self) -> Result<BatchRecord, FrameError> {
        let body = check_frame(&self.bytes, self.index, self.offset)?;
        BatchRecord::decode_body(body)
            .ok_or(FrameError::BadBody { frame_index: self.index, offset: self.offset })
    }
}

/// An append-only batch log over a simulated disk image: the retained
/// frames back to back, where each complete one ends (frame `i` starts
/// where `i - 1` ends, the first where the retired ones did; bytes past the
/// last end are a torn tail), the next batch id, and the bytes ever
/// appended (a tear or a retirement shrinks the image, not that count).
/// Offsets in `ends` and `retired` count from the log's start: `bytes[0]`
/// lies at `retired.offset`. One owner writes it (`&mut`); a standby is
/// shipped copies of its frames.
#[derive(Debug, Default)]
pub struct BatchLog {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    retired: Retired,
    next_batch_id: u64,
    bytes_written: u64,
}

/// The retired prefix of a log: how many frames, and the offset where the
/// first retained one starts.
#[derive(Debug, Default, Clone, Copy)]
struct Retired {
    frames: usize,
    offset: usize,
}

impl BatchLog {
    /// Create an empty log.
    pub fn new() -> Self {
        BatchLog::default()
    }

    /// Byte range of frame `index` in the log, if the image holds it
    /// complete.
    fn span(&self, index: usize) -> Option<Range<usize>> {
        let local = index.checked_sub(self.retired.frames)?;
        let end = *self.ends.get(local)?;
        Some(local.checked_sub(1).map_or(self.retired.offset, |prev| self.ends[prev])..end)
    }

    /// The image's bytes of the log's range `span`.
    fn at(&self, span: Range<usize>) -> &[u8] {
        let base = self.retired.offset;
        &self.bytes[span.start - base..span.end - base]
    }

    /// Append a batch — its TIDs in assignment order and its serialized
    /// parameters — as one frame, returning its batch id.
    pub fn append(&mut self, tids: &[u64], payload: &[u8]) -> u64 {
        let batch_id = self.next_batch_id;
        self.next_batch_id += 1;
        let frame_len = write_frame(&mut self.bytes, batch_id, tids, payload) as u64;
        self.ends.push(self.retired.offset + self.bytes.len());
        self.bytes_written += frame_len;
        let reg = ltpg_telemetry::global();
        reg.counter(ltpg_telemetry::names::WAL_FRAMES_APPENDED).inc();
        reg.counter(ltpg_telemetry::names::WAL_BYTES_APPENDED).add(frame_len);
        batch_id
    }

    /// A copy of frame `index`'s bytes as the image holds them, damage
    /// included; `None` when the image holds no complete frame there
    /// (never written, torn off, or retired). Read it with
    /// [`Frame::decode`].
    pub fn frame(&self, index: usize) -> Option<Frame> {
        let span = self.span(index)?;
        Some(Frame { index, offset: span.start, bytes: self.at(span).to_vec() })
    }

    /// Number of complete frames written, retired ones included: the
    /// index the next frame will take.
    pub fn len(&self) -> usize {
        self.retired.frames + self.ends.len()
    }

    /// Whether no complete frame was ever written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of the first frame the image holds: the frames below it are
    /// retired.
    pub fn first_retained(&self) -> usize {
        self.retired.frames
    }

    /// Retire every complete frame below index `below` (at most every
    /// complete frame): the frames that follow, and a torn tail, move to
    /// the front of the image's buffer, which keeps its capacity. Nothing
    /// moves when no frame follows — the usual case, a retirement right
    /// after the checkpoint that covers the whole log.
    pub fn retire_below(&mut self, below: usize) {
        let n = below.min(self.len()).saturating_sub(self.retired.frames);
        if n == 0 {
            return;
        }
        let end = self.ends[n - 1];
        self.bytes.drain(..end - self.retired.offset);
        self.ends.drain(..n);
        self.retired = Retired { frames: self.retired.frames + n, offset: end };
    }

    /// Total encoded bytes "written to disk".
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Size of the physical image right now: the retained frames and any
    /// torn tail (shrinks under [`BatchLog::retire_below`],
    /// [`BatchLog::tear_tail`] and [`BatchLog::truncate_torn_tail`]).
    pub fn disk_len(&self) -> usize {
        self.bytes.len()
    }

    /// Fault injection: XOR the byte at offset `pos` of the log. Positions
    /// the image does not hold (retired, or past its end) are ignored (the
    /// injector may race a tear).
    pub fn corrupt_byte(&mut self, pos: usize, xor: u8) {
        let Some(local) = pos.checked_sub(self.retired.offset) else { return };
        if let Some(b) = self.bytes.get_mut(local) {
            *b ^= xor;
        }
    }

    /// Fault injection: flip a byte inside the *body* of frame
    /// `frame_index`, so the damage is caught by the CRC rather than the
    /// magic check. Returns `false` if the image holds no such frame.
    pub fn corrupt_frame(&mut self, frame_index: usize, xor: u8) -> bool {
        let Some(span) = self.span(frame_index) else { return false };
        // First body byte (the batch id's high byte).
        let at = span.start - self.retired.offset + 8;
        self.bytes[at] ^= if xor == 0 { 0xFF } else { xor };
        true
    }

    /// Fault injection: a torn write — drop the last `drop_bytes` bytes of
    /// the physical image, as if the machine died mid-`write(2)`. A frame
    /// the tear reaches is no longer complete; a tear never reaches past
    /// the retired base. Returns the number of bytes actually dropped.
    pub fn tear_tail(&mut self, drop_bytes: usize) -> usize {
        let dropped = drop_bytes.min(self.bytes.len());
        let keep = self.bytes.len() - dropped;
        self.bytes.truncate(keep);
        let end = self.retired.offset + keep;
        while self.ends.last().is_some_and(|&e| e > end) {
            self.ends.pop();
        }
        dropped
    }

    /// Check every complete frame the image holds — magic, length, CRC —
    /// and decode none. Stops at the first damaged frame (`Err`); otherwise
    /// reports the tail. A partial trailing frame is *not* an error — it is
    /// [`TailState::Torn`], for the caller to drop.
    pub fn verify(&self) -> Result<TailState, FrameError> {
        let mut start = self.retired.offset;
        for (local, &end) in self.ends.iter().enumerate() {
            check_frame(self.at(start..end), self.retired.frames + local, start)?;
            start = end;
        }
        Ok(match self.retired.offset + self.bytes.len() - start {
            0 => TailState::Clean,
            bytes => TailState::Torn { offset: start, bytes },
        })
    }

    /// Detect-and-truncate: verify every retained complete frame, then drop
    /// a torn tail and return how many bytes were dropped. A damaged
    /// complete frame fails the call and nothing is dropped.
    pub fn truncate_torn_tail(&mut self) -> Result<usize, FrameError> {
        match self.verify()? {
            TailState::Clean => Ok(0),
            TailState::Torn { offset, bytes } => {
                self.bytes.truncate(offset - self.retired.offset);
                Ok(bytes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frame `index` of `log`, read back through the checked reader.
    fn read(log: &BatchLog, index: usize) -> Option<Result<BatchRecord, FrameError>> {
        log.frame(index).map(|frame| frame.decode())
    }

    #[test]
    fn append_assigns_monotonic_ids_and_fetch_roundtrips() {
        let mut log = BatchLog::new();
        let id0 = log.append(&[1, 2, 3], b"abc");
        let id1 = log.append(&[4], b"d");
        assert_eq!((id0, id1), (0, 1));
        let r = read(&log, 0).unwrap().unwrap();
        assert_eq!(r.tids, vec![1, 2, 3]);
        assert_eq!(&r.payload[..], b"abc");
        assert!(log.frame(99).is_none());
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn fetch_finds_every_id_of_a_long_log_and_nothing_else() {
        let mut log = BatchLog::new();
        assert!(log.frame(0).is_none(), "empty log");
        for i in 0..2_000u64 {
            assert_eq!(log.append(&[i * 3], &[]), i);
        }
        for i in 0..2_000u64 {
            let r = read(&log, i as usize).unwrap_or_else(|| panic!("id {i} not found"));
            let r = r.unwrap_or_else(|e| panic!("id {i}: {e}"));
            assert_eq!((r.batch_id, &r.tids[..]), (i, &[i * 3][..]));
        }
        assert!(log.frame(2_000).is_none(), "one past the end");
        assert!(log.frame(usize::MAX).is_none());
    }

    /// Damage is met by whoever reads the damaged frame: in a 2 000-frame
    /// log a corrupted frame reads as a checksum mismatch and a torn one is
    /// not there, while every other frame still reads as appended.
    #[test]
    fn damaged_and_torn_frames_are_errors_where_they_lie() {
        let mut log = BatchLog::new();
        for i in 0..2_000u64 {
            log.append(&[i], &i.to_be_bytes());
        }
        let shipped = log.frame(1_999).unwrap();
        assert!(log.corrupt_frame(700, 0x40));
        assert_eq!(log.tear_tail(3), 3);
        let offset = log.frame(700).unwrap().offset;
        match read(&log, 700) {
            Some(Err(FrameError::ChecksumMismatch { frame_index: 700, offset: at, .. })) => {
                assert_eq!(at, offset);
            }
            other => panic!("expected a checksum mismatch at frame 700, got {other:?}"),
        }
        assert!(log.frame(1_999).is_none(), "the torn frame is not complete");
        assert_eq!(log.len(), 1_999);
        for i in (0..700).chain(701..1_999) {
            let r = read(&log, i).unwrap().unwrap_or_else(|e| panic!("frame {i}: {e}"));
            let id = i as u64;
            assert_eq!((r.batch_id, &r.tids[..], &r.payload[..]), (id, &[id][..], &id.to_be_bytes()[..]));
        }
        assert!(matches!(log.verify(), Err(FrameError::ChecksumMismatch { frame_index: 700, .. })));
        // A copy taken before the damage reads as it was taken.
        assert_eq!(shipped.decode().unwrap().batch_id, 1_999);
    }

    #[test]
    fn byte_accounting_matches_frame_sizes() {
        let mut log = BatchLog::new();
        log.append(&[7, 8], b"xyzw");
        // Body: 8 (batch id) + 4 (tid count) + 16 (tids) + 4 (len)
        // + 4 (payload) = 36; frame adds magic + body_len + crc = 12.
        assert_eq!(log.bytes_written(), 48);
        assert_eq!(log.disk_len(), 48);
        let frame = log.frame(0).unwrap();
        assert_eq!((frame.offset, frame.bytes.len()), (0, 48));
    }

    #[test]
    fn scan_roundtrips_clean_image() {
        let mut log = BatchLog::new();
        assert_eq!(log.verify(), Ok(TailState::Clean), "empty log");
        log.append(&[1], b"a");
        log.append(&[2, 3], b"bc");
        assert_eq!(log.verify(), Ok(TailState::Clean));
        assert_eq!(read(&log, 0).unwrap().unwrap().tids, vec![1]);
        let r = read(&log, 1).unwrap().unwrap();
        assert_eq!((r.batch_id, &r.payload[..]), (1, &b"bc"[..]));
    }

    #[test]
    fn corrupt_body_is_a_checksum_mismatch() {
        let mut log = BatchLog::new();
        log.append(&[1], b"a");
        log.append(&[2], b"b");
        assert!(log.corrupt_frame(0, 0x40));
        match log.verify() {
            Err(FrameError::ChecksumMismatch { frame_index: 0, .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        assert!(matches!(read(&log, 0), Some(Err(FrameError::ChecksumMismatch { .. }))));
        assert!(read(&log, 1).unwrap().is_ok(), "the next frame still reads");
    }

    #[test]
    fn corrupt_magic_is_bad_magic() {
        let mut log = BatchLog::new();
        log.append(&[1], b"a");
        log.corrupt_byte(0, 0xFF);
        match log.verify() {
            Err(FrameError::BadMagic { frame_index: 0, offset: 0, .. }) => {}
            other => panic!("expected bad magic, got {other:?}"),
        }
    }

    /// A flipped body-length field no longer spans its frame: the header is
    /// damaged, and the frame after it is still found.
    #[test]
    fn corrupt_length_is_a_bad_body() {
        let mut log = BatchLog::new();
        log.append(&[1], b"a");
        log.append(&[2], b"b");
        log.corrupt_byte(7, 0x01);
        let bad = FrameError::BadBody { frame_index: 0, offset: 0 };
        assert_eq!(log.verify(), Err(bad.clone()));
        assert_eq!(read(&log, 0), Some(Err(bad)));
        assert_eq!(read(&log, 1).unwrap().unwrap().tids, vec![2]);
    }

    #[test]
    fn torn_tail_detected_and_truncated() {
        let mut log = BatchLog::new();
        log.append(&[1], b"a");
        log.append(&[2], b"b");
        let torn = 5;
        log.tear_tail(torn);
        assert_eq!(log.len(), 1, "partial second frame must not read");
        match log.verify() {
            Ok(TailState::Torn { bytes, .. }) => assert!(bytes > 0),
            other => panic!("tail should be torn, got {other:?}"),
        }
        let dropped = log.truncate_torn_tail().unwrap();
        assert!(dropped > 0);
        assert_eq!(log.verify(), Ok(TailState::Clean));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn tear_of_whole_frames_leaves_clean_shorter_log() {
        let mut log = BatchLog::new();
        log.append(&[1], b"a");
        let first = log.disk_len();
        log.append(&[2], b"b");
        let second = log.disk_len() - first;
        log.tear_tail(second);
        assert_eq!(log.verify(), Ok(TailState::Clean));
        assert_eq!(log.len(), 1);
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
        let mut log = BatchLog::new();
        let image = |log: &BatchLog| (log.bytes.len(), fnv64(&log.bytes));
        log.append(&[], &[]);
        log.append(&[1, 2, 3], b"abc");
        log.append(&(10..300).collect::<Vec<u64>>(), &pseudo_random_bytes(1_000));
        log.append(&[u64::MAX], b"\x00\xff");
        let appended = image(&log);
        assert_eq!(log.tear_tail(7), 7);
        let dropped = log.truncate_torn_tail().unwrap();
        let truncated = image(&log);
        log.append(&[5], b"after a tear");
        assert_eq!(appended, (3_469, 0xdea5_c400_1a83_f2a8));
        assert_eq!(dropped, 31, "the last frame is 38 bytes");
        assert_eq!(truncated, (3_431, 0x727b_b64c_7f99_1633));
        assert_eq!(image(&log), (3_479, 0xa90b_80ed_7ec8_3d00));
        assert_eq!(log.verify(), Ok(TailState::Clean));
        assert_eq!(log.len(), 4);
    }

    /// Retiring a prefix keeps what every reader sees of the rest: indexes,
    /// offsets and bytes of the retained frames, `len`, `bytes_written`,
    /// damage by absolute position, a torn tail and its truncation. A
    /// retired frame reads as absent and takes no damage.
    #[test]
    fn retired_frames_are_absent_and_the_rest_keep_their_positions() {
        let mut log = BatchLog::new();
        for i in 0..10u64 {
            log.append(&[i], &i.to_be_bytes());
        }
        let before: Vec<Frame> = (0..10).map(|i| log.frame(i).unwrap()).collect();
        let written = log.bytes_written();
        log.retire_below(6);
        assert_eq!((log.first_retained(), log.len(), log.bytes_written()), (6, 10, written));
        assert_eq!(log.disk_len(), before[6..].iter().map(|f| f.bytes.len()).sum::<usize>());
        assert!((0..6).all(|i| log.frame(i).is_none()));
        for frame in &before[6..] {
            assert_eq!(log.frame(frame.index).as_ref(), Some(frame));
        }
        assert_eq!(log.verify(), Ok(TailState::Clean));
        assert!(!log.corrupt_frame(5, 0x40), "a retired frame takes no damage");
        log.corrupt_byte(before[5].offset, 0xFF);
        assert_eq!(log.verify(), Ok(TailState::Clean));
        log.corrupt_byte(before[7].offset, 0xFF);
        let (index, offset) = (7, before[7].offset);
        assert!(matches!(log.verify(), Err(FrameError::BadMagic { frame_index, offset: at, .. })
            if (frame_index, at) == (index, offset)));
        log.corrupt_byte(before[7].offset, 0xFF);
        assert_eq!(log.tear_tail(3), 3);
        let torn = Ok(TailState::Torn { offset: before[9].offset, bytes: before[9].bytes.len() - 3 });
        assert_eq!(log.verify(), torn);
        assert_eq!(log.truncate_torn_tail(), Ok(before[9].bytes.len() - 3));
        assert_eq!(log.len(), 9);
        assert_eq!(log.append(&[99], b"next"), 10);
        let next = log.frame(9).unwrap();
        assert_eq!(next.offset, before[9].offset);
        assert_eq!(next.decode().unwrap().tids, vec![99]);
        // Below the base, and past the complete frames, is a no-op.
        log.retire_below(3);
        assert_eq!(log.first_retained(), 6);
        log.retire_below(usize::MAX);
        assert_eq!((log.first_retained(), log.len(), log.disk_len()), (10, 10, 0));
        assert_eq!(log.verify(), Ok(TailState::Clean));
        assert_eq!(log.append(&[], &[]), 11);
        assert_eq!(log.frame(10).unwrap().offset, next.offset + next.bytes.len());
    }

    /// Retiring everything below each checkpoint-like cut keeps the image's
    /// buffer at what one window needs: after the first windows, appends
    /// and retirements run in the capacity they left.
    #[test]
    fn retirement_stops_the_image_from_growing() {
        let mut log = BatchLog::new();
        let payload = pseudo_random_bytes(4_000);
        let capacity = |log: &BatchLog| (log.bytes.capacity(), log.ends.capacity());
        let mut steady = None;
        for window in 0..64 {
            for i in 0..8 {
                // A window keeps its last frame or two past the cut, as a
                // lagging reader would, so retirements move bytes as well.
                log.append(&[window, i], &payload[..1_000 + 300 * i as usize]);
            }
            log.retire_below(log.len() - (window as usize % 3));
            if window == 4 {
                steady = Some(capacity(&log));
            }
        }
        assert_eq!(Some(capacity(&log)), steady);
        assert_eq!(log.len(), 512);
        for index in log.first_retained()..log.len() {
            assert!(read(&log, index).unwrap().is_ok(), "frame {index}");
        }
    }
}
