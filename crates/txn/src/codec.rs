//! A compact binary codec for transactions — the bytes the durability
//! log actually stores (paper §IV: "the CPU also records each batch of
//! transactions on the hard drive as logs... if re-execution is necessary,
//! the system pulls the transactions from the log, while preserving their
//! original TIDs").

use bytes::{Buf, BufMut, Bytes};
use ltpg_storage::{ColId, TableId};

use crate::ir::{ComputeFn, IrOp, Src};
use crate::txn::{ProcId, Tid, Txn};

/// Decoding failure (truncated or corrupt frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn put_src(buf: &mut Vec<u8>, s: Src) {
    match s {
        Src::Const(v) => {
            buf.put_u8(0);
            buf.put_i64(v);
        }
        Src::Param(p) => {
            buf.put_u8(1);
            buf.put_u8(p);
        }
        Src::Reg(r) => {
            buf.put_u8(2);
            buf.put_u8(r);
        }
        Src::Tid => buf.put_u8(3),
    }
}

fn get_src(buf: &mut &[u8]) -> Result<Src, DecodeError> {
    let need = |buf: &&[u8], n: usize| {
        if buf.remaining() < n {
            Err(DecodeError("truncated src".into()))
        } else {
            Ok(())
        }
    };
    need(buf, 1)?;
    match buf.get_u8() {
        0 => {
            need(buf, 8)?;
            Ok(Src::Const(buf.get_i64()))
        }
        1 => {
            need(buf, 1)?;
            Ok(Src::Param(buf.get_u8()))
        }
        2 => {
            need(buf, 1)?;
            Ok(Src::Reg(buf.get_u8()))
        }
        3 => Ok(Src::Tid),
        t => Err(DecodeError(format!("bad src tag {t}"))),
    }
}

fn compute_fn_code(f: ComputeFn) -> u8 {
    match f {
        ComputeFn::Add => 0,
        ComputeFn::Sub => 1,
        ComputeFn::Mul => 2,
        ComputeFn::Min => 3,
        ComputeFn::Max => 4,
        ComputeFn::StockSub => 5,
    }
}

fn compute_fn_from(code: u8) -> Result<ComputeFn, DecodeError> {
    Ok(match code {
        0 => ComputeFn::Add,
        1 => ComputeFn::Sub,
        2 => ComputeFn::Mul,
        3 => ComputeFn::Min,
        4 => ComputeFn::Max,
        5 => ComputeFn::StockSub,
        c => return Err(DecodeError(format!("bad compute fn {c}"))),
    })
}

fn put_op(buf: &mut Vec<u8>, op: &IrOp) {
    match op {
        IrOp::Read { table, key, col, out } => {
            buf.put_u8(0);
            buf.put_u16(table.0);
            put_src(buf, *key);
            buf.put_u16(col.0);
            buf.put_u8(*out);
        }
        IrOp::Update { table, key, col, val } => {
            buf.put_u8(1);
            buf.put_u16(table.0);
            put_src(buf, *key);
            buf.put_u16(col.0);
            put_src(buf, *val);
        }
        IrOp::Add { table, key, col, delta } => {
            buf.put_u8(2);
            buf.put_u16(table.0);
            put_src(buf, *key);
            buf.put_u16(col.0);
            put_src(buf, *delta);
        }
        IrOp::Insert { table, key, values } => {
            buf.put_u8(3);
            buf.put_u16(table.0);
            put_src(buf, *key);
            buf.put_u16(values.len() as u16);
            for v in values {
                put_src(buf, *v);
            }
        }
        IrOp::Delete { table, key } => {
            buf.put_u8(4);
            buf.put_u16(table.0);
            put_src(buf, *key);
        }
        IrOp::Compute { f, a, b, out } => {
            buf.put_u8(5);
            buf.put_u8(compute_fn_code(*f));
            put_src(buf, *a);
            put_src(buf, *b);
            buf.put_u8(*out);
        }
        IrOp::ScanSum { table, start, count, col, out } => {
            buf.put_u8(6);
            buf.put_u16(table.0);
            put_src(buf, *start);
            buf.put_u16(*count);
            buf.put_u16(col.0);
            buf.put_u8(*out);
        }
        IrOp::RangeSum { table, lo, hi, col, out } => {
            buf.put_u8(7);
            buf.put_u16(table.0);
            put_src(buf, *lo);
            put_src(buf, *hi);
            buf.put_u16(col.0);
            buf.put_u8(*out);
        }
        IrOp::RangeMinKey { table, lo, hi, out } => {
            buf.put_u8(8);
            buf.put_u16(table.0);
            put_src(buf, *lo);
            put_src(buf, *hi);
            buf.put_u8(*out);
        }
        IrOp::RangeCountBelow { table, lo, hi, col, threshold, out } => {
            buf.put_u8(9);
            buf.put_u16(table.0);
            put_src(buf, *lo);
            put_src(buf, *hi);
            buf.put_u16(col.0);
            put_src(buf, *threshold);
            buf.put_u8(*out);
        }
    }
}

fn get_op(buf: &mut &[u8]) -> Result<IrOp, DecodeError> {
    let need = |buf: &&[u8], n: usize| {
        if buf.remaining() < n {
            Err(DecodeError("truncated op".into()))
        } else {
            Ok(())
        }
    };
    need(buf, 1)?;
    let tag = buf.get_u8();
    need(buf, 2)?;
    Ok(match tag {
        0 => {
            let table = TableId(buf.get_u16());
            let key = get_src(buf)?;
            need(buf, 3)?;
            IrOp::Read { table, key, col: ColId(buf.get_u16()), out: buf.get_u8() }
        }
        1 => {
            let table = TableId(buf.get_u16());
            let key = get_src(buf)?;
            need(buf, 2)?;
            let col = ColId(buf.get_u16());
            IrOp::Update { table, key, col, val: get_src(buf)? }
        }
        2 => {
            let table = TableId(buf.get_u16());
            let key = get_src(buf)?;
            need(buf, 2)?;
            let col = ColId(buf.get_u16());
            IrOp::Add { table, key, col, delta: get_src(buf)? }
        }
        3 => {
            let table = TableId(buf.get_u16());
            let key = get_src(buf)?;
            need(buf, 2)?;
            let n = buf.get_u16() as usize;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(get_src(buf)?);
            }
            IrOp::Insert { table, key, values }
        }
        4 => {
            let table = TableId(buf.get_u16());
            IrOp::Delete { table, key: get_src(buf)? }
        }
        5 => {
            // First u16 read above consumed fn code + first src tag... undo:
            // tag layout differs; re-parse carefully below.
            return Err(DecodeError("internal: compute parsed via fallthrough".into()));
        }
        6 => {
            let table = TableId(buf.get_u16());
            let start = get_src(buf)?;
            need(buf, 5)?;
            let count = buf.get_u16();
            let col = ColId(buf.get_u16());
            IrOp::ScanSum { table, start, count, col, out: buf.get_u8() }
        }
        7 => {
            let table = TableId(buf.get_u16());
            let lo = get_src(buf)?;
            let hi = get_src(buf)?;
            need(buf, 3)?;
            IrOp::RangeSum { table, lo, hi, col: ColId(buf.get_u16()), out: buf.get_u8() }
        }
        8 => {
            let table = TableId(buf.get_u16());
            let lo = get_src(buf)?;
            let hi = get_src(buf)?;
            need(buf, 1)?;
            IrOp::RangeMinKey { table, lo, hi, out: buf.get_u8() }
        }
        9 => {
            let table = TableId(buf.get_u16());
            let lo = get_src(buf)?;
            let hi = get_src(buf)?;
            need(buf, 2)?;
            let col = ColId(buf.get_u16());
            let threshold = get_src(buf)?;
            need(buf, 1)?;
            IrOp::RangeCountBelow { table, lo, hi, col, threshold, out: buf.get_u8() }
        }
        t => return Err(DecodeError(format!("bad op tag {t}"))),
    })
}

/// The longest op encoding without a value list: `RangeCountBelow` with
/// three constant operands. Only an insert of more than two values is
/// longer.
const MAX_OP_LEN: usize = 33;

/// Room for `txn`'s encoding and its length prefix, from its op and
/// parameter counts alone (no walk over the ops): enough unless it
/// inserts more than two values per op, and then the buffer grows.
fn room_for(txn: &Txn) -> usize {
    4 + 16 + 8 * txn.params.len() + MAX_OP_LEN * txn.ops.len()
}

/// The one transaction writer: append `txn`'s encoding to `buf`.
fn put_txn(buf: &mut Vec<u8>, txn: &Txn) {
    buf.put_u64(txn.tid.0);
    buf.put_u16(txn.proc.0);
    buf.put_u16(txn.params.len() as u16);
    for p in &txn.params {
        buf.put_i64(*p);
    }
    buf.put_u32(txn.ops.len() as u32);
    for op in &txn.ops {
        put_op(buf, op);
    }
}

/// Encode one transaction.
pub fn encode_txn(txn: &Txn) -> Bytes {
    let mut buf = Vec::with_capacity(room_for(txn));
    put_txn(&mut buf, txn);
    Bytes::from(buf)
}

/// Decode one transaction from the front of `buf`, advancing it.
pub fn decode_txn(buf: &mut &[u8]) -> Result<Txn, DecodeError> {
    let need = |buf: &&[u8], n: usize| {
        if buf.remaining() < n {
            Err(DecodeError("truncated txn header".into()))
        } else {
            Ok(())
        }
    };
    need(buf, 8 + 2 + 2)?;
    let tid = Tid(buf.get_u64());
    let proc = ProcId(buf.get_u16());
    let n_params = buf.get_u16() as usize;
    need(buf, n_params * 8 + 4)?;
    let params: Vec<i64> = (0..n_params).map(|_| buf.get_i64()).collect();
    let n_ops = buf.get_u32() as usize;
    if n_ops > 1 << 20 {
        return Err(DecodeError(format!("implausible op count {n_ops}")));
    }
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        // Peek for the Compute layout.
        if buf.remaining() >= 1 && buf[0] == 5 {
            let mut b = &buf[1..];
            if b.remaining() < 1 {
                return Err(DecodeError("truncated compute".into()));
            }
            let f = compute_fn_from(b.get_u8())?;
            let a = get_src(&mut b)?;
            let bb = get_src(&mut b)?;
            if b.remaining() < 1 {
                return Err(DecodeError("truncated compute out".into()));
            }
            let out = b.get_u8();
            *buf = b;
            ops.push(IrOp::Compute { f, a, b: bb, out });
        } else {
            ops.push(get_op(buf)?);
        }
    }
    let mut t = Txn::new(proc, params, ops);
    t.tid = tid;
    Ok(t)
}

/// Encode a whole batch: a count, then each transaction behind its length.
/// One buffer, sized from the batch's op and parameter counts; each
/// transaction is written straight into it and its length prefix
/// back-patched.
pub fn encode_batch(txns: &[Txn]) -> Bytes {
    let mut buf = Vec::with_capacity(4 + txns.iter().map(room_for).sum::<usize>());
    buf.put_u32(txns.len() as u32);
    for t in txns {
        let prefix = buf.len();
        buf.put_u32(0);
        put_txn(&mut buf, t);
        let txn_len = (buf.len() - prefix - 4) as u32;
        buf[prefix..prefix + 4].copy_from_slice(&txn_len.to_be_bytes());
    }
    Bytes::from(buf)
}

/// Decode a whole batch.
pub fn decode_batch(mut buf: &[u8]) -> Result<Vec<Txn>, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError("truncated batch header".into()));
    }
    let n = buf.get_u32() as usize;
    if n > 1 << 24 {
        return Err(DecodeError(format!("implausible batch size {n}")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.remaining() < 4 {
            return Err(DecodeError("truncated frame length".into()));
        }
        let len = buf.get_u32() as usize;
        if buf.remaining() < len {
            return Err(DecodeError("truncated frame".into()));
        }
        let mut frame = &buf[..len];
        out.push(decode_txn(&mut frame)?);
        if !frame.is_empty() {
            return Err(DecodeError("trailing bytes in frame".into()));
        }
        buf.advance(len);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_src() -> impl Strategy<Value = Src> {
        prop_oneof![
            any::<i64>().prop_map(Src::Const),
            (0..8u8).prop_map(Src::Param),
            (0..8u8).prop_map(Src::Reg),
            Just(Src::Tid),
        ]
    }

    fn arb_op() -> impl Strategy<Value = IrOp> {
        let t = (0..4u16).prop_map(TableId);
        let c = (0..6u16).prop_map(ColId);
        prop_oneof![
            (t.clone(), arb_src(), c.clone(), 0..8u8)
                .prop_map(|(table, key, col, out)| IrOp::Read { table, key, col, out }),
            (t.clone(), arb_src(), c.clone(), arb_src())
                .prop_map(|(table, key, col, val)| IrOp::Update { table, key, col, val }),
            (t.clone(), arb_src(), c.clone(), arb_src())
                .prop_map(|(table, key, col, delta)| IrOp::Add { table, key, col, delta }),
            (t.clone(), arb_src(), proptest::collection::vec(arb_src(), 0..5))
                .prop_map(|(table, key, values)| IrOp::Insert { table, key, values }),
            (t.clone(), arb_src()).prop_map(|(table, key)| IrOp::Delete { table, key }),
            (0..6u8, arb_src(), arb_src(), 0..8u8).prop_map(|(f, a, b, out)| IrOp::Compute {
                f: compute_fn_from(f).unwrap(),
                a,
                b,
                out
            }),
            (t.clone(), arb_src(), 0..200u16, c.clone(), 0..8u8)
                .prop_map(|(table, start, count, col, out)| IrOp::ScanSum { table, start, count, col, out }),
            (t.clone(), arb_src(), arb_src(), c.clone(), 0..8u8)
                .prop_map(|(table, lo, hi, col, out)| IrOp::RangeSum { table, lo, hi, col, out }),
            (t.clone(), arb_src(), arb_src(), 0..8u8)
                .prop_map(|(table, lo, hi, out)| IrOp::RangeMinKey { table, lo, hi, out }),
            (t, arb_src(), arb_src(), c, arb_src(), 0..8u8).prop_map(
                |(table, lo, hi, col, threshold, out)| IrOp::RangeCountBelow {
                    table,
                    lo,
                    hi,
                    col,
                    threshold,
                    out
                }
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn txn_roundtrips(
            tid in 1..u64::MAX / 2,
            proc in 0..100u16,
            params in proptest::collection::vec(any::<i64>(), 0..10),
            ops in proptest::collection::vec(arb_op(), 0..20),
        ) {
            let mut t = Txn::new(ProcId(proc), params, ops);
            t.tid = Tid(tid);
            let enc = encode_txn(&t);
            let long_insert =
                t.ops.iter().any(|op| matches!(op, IrOp::Insert { values, .. } if values.len() > 2));
            prop_assert!(long_insert || enc.len() + 4 <= room_for(&t), "room_for is a bound");
            let mut slice = &enc[..];
            let dec = decode_txn(&mut slice).unwrap();
            prop_assert!(slice.is_empty(), "all bytes consumed");
            prop_assert_eq!(dec, t);
        }

        #[test]
        fn batch_roundtrips(
            txns in proptest::collection::vec(
                proptest::collection::vec(arb_op(), 0..8).prop_map(|ops| Txn::new(ProcId(1), vec![7], ops)),
                0..12,
            )
        ) {
            let enc = encode_batch(&txns);
            let dec = decode_batch(&enc).unwrap();
            prop_assert_eq!(dec, txns);
        }
    }

    /// `MAX_OP_LEN` is the longest op without a value list, and an insert
    /// outgrows it only past two values — so `room_for` bounds every
    /// transaction whose inserts carry at most two.
    #[test]
    fn max_op_len_is_the_longest_op_short_of_a_long_insert() {
        let c = Src::Const(-1);
        let op_len = |op: IrOp| encode_txn(&Txn::new(ProcId(0), vec![], vec![op])).len() - 16;
        let range = IrOp::RangeCountBelow { table: TableId(1), lo: c, hi: c, col: ColId(2), threshold: c, out: 3 };
        assert_eq!(op_len(range), MAX_OP_LEN);
        let insert = |n| IrOp::Insert { table: TableId(1), key: c, values: vec![c; n] };
        assert!(op_len(insert(2)) <= MAX_OP_LEN && op_len(insert(3)) > MAX_OP_LEN);
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        assert!(decode_batch(&[]).is_err());
        assert!(decode_batch(&[0xFF; 3]).is_err());
        let t = Txn::new(ProcId(0), vec![1], vec![]);
        let enc = encode_batch(&[t]);
        // Truncate anywhere: must error, never panic.
        for cut in 0..enc.len() {
            let _ = decode_batch(&enc[..cut]);
        }
        // Flip bytes: must error or decode to something, never panic.
        for i in 0..enc.len() {
            let mut bad = enc.to_vec();
            bad[i] ^= 0xA5;
            let _ = decode_batch(&bad);
        }
    }
}
