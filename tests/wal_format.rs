//! The WAL payload format, pinned.
//!
//! A logged batch is `encode_batch(txns)` inside a `BatchLog` frame, and
//! recovery, standby replay and every fault-injection offset read those
//! bytes back, so the encoding may get faster but never different. The
//! digests below are FNV-1a over `encode_batch` of three generated batches
//! — YCSB-A (reads, updates), TPC-C with the full five-transaction mix
//! (adds, computes, inserts, deletes, the three ordered-range ops) and
//! YCSB-E (emulated scans, inserts) — recorded with the encoder that built
//! one buffer per transaction and copied it into the batch, before the
//! one-buffer writer replaced it. The frame around the payload is pinned
//! beside `BatchLog` (`disk_image_bytes_are_pinned` in `wal.rs`).

use std::collections::BTreeSet;

use ltpg_txn::{encode_batch, encode_txn, Batch, IrOp, TidGen, Txn};
use ltpg_workloads::{TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbWorkload};

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A TID-assigned batch whose first TID is `first_tid`.
fn assemble(txns: Vec<Txn>, first_tid: u64) -> Batch {
    let mut tids = TidGen::new();
    for _ in 1..first_tid {
        tids.next();
    }
    Batch::assemble(Vec::new(), txns, &mut tids)
}

fn ycsb_batch(workload: YcsbWorkload, n: usize) -> Batch {
    let cfg = YcsbConfig::new(workload, 65_536).with_seed(0x3a1).with_alpha(0.8).with_headroom(4_096);
    let (_, _, mut gen) = YcsbGenerator::new(cfg);
    assemble(gen.gen_batch(n), 1_000)
}

fn tpcc_full_mix_batch(n: usize) -> Batch {
    let cfg = TpccConfig::new(2, 45).with_full_mix().with_headroom(4_096).with_seed(0x7cc);
    let (_, _, mut gen) = TpccGenerator::new(cfg);
    assemble(gen.gen_batch(n), 77)
}

fn op_name(op: &IrOp) -> &'static str {
    match op {
        IrOp::Read { .. } => "Read",
        IrOp::Update { .. } => "Update",
        IrOp::Add { .. } => "Add",
        IrOp::Insert { .. } => "Insert",
        IrOp::Delete { .. } => "Delete",
        IrOp::Compute { .. } => "Compute",
        IrOp::ScanSum { .. } => "ScanSum",
        IrOp::RangeSum { .. } => "RangeSum",
        IrOp::RangeMinKey { .. } => "RangeMinKey",
        IrOp::RangeCountBelow { .. } => "RangeCountBelow",
    }
}

#[test]
fn ycsb_a_batch_encoding_is_pinned() {
    let batch = ycsb_batch(YcsbWorkload::A, 256);
    let bytes = encode_batch(&batch.txns);
    assert_eq!((bytes.len(), fnv64(&bytes)), (56_036, 0x9939_e3d7_ac53_7e0e));
}

#[test]
fn tpcc_full_mix_batch_encoding_is_pinned() {
    let batch = tpcc_full_mix_batch(512);
    let bytes = encode_batch(&batch.txns);
    assert_eq!((bytes.len(), fnv64(&bytes)), (607_061, 0xe635_86b2_7fb2_b46a));
}

#[test]
fn ycsb_e_batch_encoding_is_pinned() {
    let batch = ycsb_batch(YcsbWorkload::E, 128);
    let bytes = encode_batch(&batch.txns);
    assert_eq!((bytes.len(), fnv64(&bytes)), (27_361, 0x052e_99b1_862b_a0da));
}

/// The three pinned batches between them hold every `IrOp` variant, so a
/// change to any op's layout moves a pin.
#[test]
fn the_pinned_batches_cover_every_op_kind() {
    let batches =
        [ycsb_batch(YcsbWorkload::A, 256), tpcc_full_mix_batch(512), ycsb_batch(YcsbWorkload::E, 128)];
    let seen: BTreeSet<&str> =
        batches.iter().flat_map(|b| &b.txns).flat_map(|t| &t.ops).map(op_name).collect();
    let all = [
        "Add", "Compute", "Delete", "Insert", "RangeCountBelow", "RangeMinKey", "RangeSum", "Read",
        "ScanSum", "Update",
    ];
    assert_eq!(seen, all.into_iter().collect::<BTreeSet<_>>());
}

/// `encode_batch(t)` is `u32 n ‖ (u32 len ‖ encode_txn)*`, big-endian: the
/// batch writer and the transaction writer are one format.
#[test]
fn encode_batch_is_a_count_then_length_prefixed_transactions() {
    for batch in [Batch::default(), tpcc_full_mix_batch(64), ycsb_batch(YcsbWorkload::E, 16)] {
        let mut expect = (batch.txns.len() as u32).to_be_bytes().to_vec();
        for t in &batch.txns {
            let one = encode_txn(t);
            expect.extend_from_slice(&(one.len() as u32).to_be_bytes());
            expect.extend_from_slice(&one);
        }
        assert_eq!(&encode_batch(&batch.txns)[..], &expect[..]);
    }
}
