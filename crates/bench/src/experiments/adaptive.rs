//! **Adaptive CC sweep** — the three candidate schedulers (LTPG,
//! Block-STM, address graph) plus the adaptive engine across a contention
//! grid (Table II/VII shaped): YCSB A/B/C at low and high Zipf alpha,
//! plus a blind-write pile-up regime the YCSB mix cannot produce (hot
//! location written but never read — the regime where optimism finishes
//! in one wave while the graph serializes).
//!
//! Every engine of a regime consumes the **identical transaction stream**
//! (same workload seed, fresh database clone), so throughput ratios are
//! scheduler differences only. Each regime's row carries
//! `adaptive_vs_best = adaptive MTPS / best fixed MTPS`; the acceptance
//! bar ([`check`], enforced by the CI `schedulers` job on the smoke
//! variant) is `adaptive_vs_best >= 0.90` in *every* regime — the adaptive
//! policy must track the per-regime winner within 10%.

use ltpg::adaptive::{AdaptiveEngine, EngineChoice};
use ltpg::{LtpgConfig, LtpgEngine, OptFlags};
use ltpg_baselines::{AddrGraphEngine, BlockStmEngine};
use ltpg_storage::{ColId, Database, TableId};
use ltpg_telemetry::Registry;
use ltpg_txn::{BatchEngine, IrOp, ProcId, Src, Txn};
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};
use crate::record::JsonValue;

use crate::record::{ensure, row, Record, Scale};
use crate::{latency_us, run_stream};

/// The engines of a regime in column order; the first three are the fixed
/// candidates `best_fixed` names one of.
const ENGINES: [&str; 4] = ["LTPG", "BlockSTM", "AddrGraph", "Adaptive"];

const REGIMES: [&str; 7] = [
    "ycsb_c_alpha_0.4",
    "ycsb_c_alpha_2.5",
    "ycsb_b_alpha_0.4",
    "ycsb_b_alpha_2.5",
    "ycsb_a_alpha_0.4",
    "ycsb_a_alpha_2.5",
    "blind_pile_hot",
];

/// Per regime: each engine of [`ENGINES`] under its lower-cased name, then
/// the verdict.
const COLUMNS: &str = "name alpha write_frac ltpg_mtps ltpg_commit_rate ltpg_latency_us \
    blockstm_mtps blockstm_commit_rate blockstm_latency_us addrgraph_mtps addrgraph_commit_rate \
    addrgraph_latency_us adaptive_mtps adaptive_commit_rate adaptive_latency_us best_fixed \
    adaptive_vs_best choices_ltpg choices_blockstm choices_addrgraph";

fn ltpg_cfg(batch_size: usize) -> LtpgConfig {
    let mut cfg = LtpgConfig::with_opts(OptFlags::all());
    cfg.max_batch = batch_size;
    cfg.est_accesses_per_txn = 16;
    cfg
}

/// Deterministic xorshift64* for the synthetic blind-pile regime.
struct Rng64(u64);
impl Rng64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Blind pile-up: `ops` blind updates per transaction, 60% of them on one
/// hot row, the rest uniform — a write-only hot location (heartbeats,
/// status flags), the regime YCSB A–C cannot express.
fn blind_pile_batch(
    rng: &mut Rng64,
    table: TableId,
    records: u64,
    n: usize,
    ops: usize,
) -> Vec<Txn> {
    (0..n)
        .map(|_| {
            let ops = (0..ops)
                .map(|_| {
                    let r = rng.next();
                    let key = if r % 100 < 60 { 0 } else { (r >> 8) as i64 % records as i64 };
                    IrOp::Update {
                        table,
                        key: Src::Const(key),
                        col: ColId(0),
                        val: Src::Const((r >> 32) as i64),
                    }
                })
                .collect();
            Txn::new(ProcId(0), vec![], ops)
        })
        .collect()
}

/// Run all four engines over one regime and return its row. `stream_for`
/// must return a generator producing the identical stream on every call.
fn run_regime(
    name: &str,
    alpha: f64,
    write_frac: f64,
    db: &Database,
    mut stream_for: impl FnMut() -> Box<dyn FnMut(usize) -> Vec<Txn>>,
    batches: usize,
    batch_size: usize,
) -> Vec<JsonValue> {
    let mut row = row![name, alpha, write_frac];
    let mut mtps = Vec::new();
    let mut run = |engine: &mut dyn BatchEngine| {
        assert_eq!(engine.name(), ENGINES[mtps.len()], "ENGINES lists the engines in run order");
        let out = run_stream(engine, &Registry::new(), &mut *stream_for(), batches, batch_size);
        mtps.push(out.mtps());
        row.extend(row![out.mtps(), out.mean_commit_rate, latency_us(&out)]);
    };
    run(&mut LtpgEngine::new(db.deep_clone(), ltpg_cfg(batch_size)));
    run(&mut BlockStmEngine::new(db.deep_clone()));
    run(&mut AddrGraphEngine::new(db.deep_clone()));
    let mut adaptive = AdaptiveEngine::new(db.deep_clone(), ltpg_cfg(batch_size));
    run(&mut adaptive);
    let adaptive_mtps = mtps.pop().expect("four engines ran");
    // The fastest fixed engine (the last one on a tie, as before).
    let best = (0..3).max_by(|a, b| mtps[*a].partial_cmp(&mtps[*b]).expect("finite")).unwrap();
    let picked = |c| adaptive.choices().iter().filter(|x| **x == c).count();
    row.extend(row![
        ENGINES[best],
        if mtps[best] > 0.0 { adaptive_mtps / mtps[best] } else { 1.0 },
        picked(EngineChoice::Ltpg),
        picked(EngineChoice::BlockStm),
        picked(EngineChoice::AddrGraph),
    ]);
    row
}

/// Run the sweep: 10⁴ records at `--smoke`, 10⁵ by default, 10⁶ at `--full`.
pub fn adaptive(scale: Scale) -> Record {
    let (records, batches, batch_size) = match scale {
        Scale::Smoke => (10_000u64, 6usize, 256usize),
        Scale::Default => (100_000, 8, 4_096),
        Scale::Full => (1_000_000, 12, 16_384),
    };
    let mut rec = Record::new(
        "adaptive",
        scale,
        "Adaptive CC — fixed engines vs adaptive, by regime",
        COLUMNS,
    );
    rec.param("batches", batches);
    rec.param("batch_size", batch_size);
    rec.param("records", records);

    for (wl, write_frac) in
        [(YcsbWorkload::C, 0.0), (YcsbWorkload::B, 0.05), (YcsbWorkload::A, 0.5)]
    {
        for alpha in [0.4, 2.5] {
            let ycfg = YcsbConfig::new(wl, records).with_alpha(alpha).with_headroom(batch_size * 8);
            let (db, table, _) = YcsbGenerator::new(ycfg.clone());
            let stream_for = || -> Box<dyn FnMut(usize) -> Vec<Txn>> {
                let mut gen = YcsbGenerator::from_parts(ycfg.clone(), table);
                Box::new(move |k| gen.gen_batch(k))
            };
            let name = format!("ycsb_{}_alpha_{alpha}", wl.letter().to_lowercase());
            rec.push(run_regime(&name, alpha, write_frac, &db, stream_for, batches, batch_size));
        }
    }
    // The synthetic blind-write pile-up (hot location never read); it has
    // no Zipf skew, recorded as alpha -1.
    let ycfg = YcsbConfig::new(YcsbWorkload::C, records).with_headroom(batch_size * 8);
    let (db, table, _) = YcsbGenerator::new(ycfg);
    let stream_for = || -> Box<dyn FnMut(usize) -> Vec<Txn>> {
        let mut rng = Rng64(0x5EED_ADAD_5EED);
        Box::new(move |k| blind_pile_batch(&mut rng, table, records, k, 8))
    };
    rec.push(run_regime("blind_pile_hot", -1.0, 1.0, &db, stream_for, batches, batch_size));

    // The acceptance number: the minimum across the grid.
    let min = rec.rows().map(|r| r.num("adaptive_vs_best").expect("column pushed above"));
    rec.summarize("min_adaptive_vs_best", min.fold(f64::INFINITY, f64::min));
    rec
}

/// What the `schedulers` CI job holds an adaptive record to.
pub fn check(rec: &Record) -> Result<(), String> {
    rec.require_columns(COLUMNS)?;
    let mut used = [false; 3];
    let mut seen = Vec::new();
    for r in rec.rows() {
        let name = r.text("name")?;
        seen.push(name);
        for engine in ENGINES.map(str::to_lowercase) {
            let rate = r.num(&format!("{engine}_commit_rate"))?;
            ensure!(
                r.num(&format!("{engine}_mtps"))? > 0.0 && 0.0 < rate && rate <= 1.0,
                "{name}: {engine} did no work or has a commit rate outside (0, 1]"
            );
        }
        ensure!(ENGINES[..3].contains(&r.text("best_fixed")?), "{name}: unknown best engine");
        // The regression guard: adaptive within 10% of the best fixed
        // engine, in every regime.
        let ratio = r.num("adaptive_vs_best")?;
        ensure!(
            ratio >= 0.90,
            "{name}: adaptive at {ratio:.3} of best ({})",
            r.text("best_fixed")?
        );
        for (flag, col) in
            used.iter_mut().zip(["choices_ltpg", "choices_blockstm", "choices_addrgraph"])
        {
            *flag |= r.num(col)? > 0.0;
        }
    }
    let absent: Vec<_> = REGIMES.iter().filter(|n| !seen.contains(n)).collect();
    ensure!(absent.is_empty(), "regimes missing from the sweep: {absent:?}");
    ensure!(rec.num("min_adaptive_vs_best")? >= 0.90, "summary minimum is below 0.90");
    // The sweep must actually exercise all three schedulers.
    ensure!(used == [true; 3], "the adaptive policy never picked some scheduler: {used:?}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_guards_the_adaptive_ratio_and_the_regime_set() {
        let good = adaptive(Scale::Smoke);
        check(&good).expect("a real smoke record passes");
        assert!(check(&good.with("adaptive_vs_best", 2, 0.8)).is_err());
        assert!(check(&good.with_summary("min_adaptive_vs_best", 0.8)).is_err());
        assert!(check(&good.with("name", 6, "renamed")).is_err());
        assert!(check(&good.without_column("blockstm_mtps")).is_err());
    }
}
