//! The minimized-repro file format (v1): a line-oriented, human-readable,
//! diff-friendly serialization of a [`QaCase`].
//!
//! The shrinker writes these under `tests/repros/`; a `#[test]` loader
//! replays every checked-in file forever after, so a once-found divergence
//! can never silently regress. The same format doubles as the promotion
//! target for proptest regression seeds.
//!
//! ```text
//! # ltpg-qa repro v1
//! version 1
//! seed 42
//! batch_size 8
//! shards 2
//! pipelined true
//! checkpoint_every 2
//! fail_shard 1 2
//! standbys 1
//! via_front
//! via_rebalance
//! host_threads 2
//! commutative_t0c0
//! log_pressure
//! table T0 cols=2 capacity=40 ordered=false rule=hash
//! row 0 3 = 7 -2
//! txn proc=0 params=3,7
//!   op read t=0 key=c:3 col=0 out=0
//!   op update t=0 key=c:3 col=1 val=r:0
//! end
//! ```
//!
//! Operand sources: `c:<n>` literal, `p:<n>` parameter slot, `r:<n>`
//! register, `tid` the transaction's own TID. Absent layer directives are
//! off (`host_threads` then means 1).

use std::fmt::Write as _;
use std::path::Path;

use ltpg_storage::{ColId, TableId};
use ltpg_txn::{ComputeFn, IrOp, ProcId, Src, Txn};

use crate::{QaCase, ShardRule, TableSpec};

/// Render a case in repro format v1.
pub fn to_text(case: &QaCase) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# ltpg-qa repro v1");
    let _ = writeln!(s, "version 1");
    let _ = writeln!(s, "seed {}", case.seed);
    let _ = writeln!(s, "batch_size {}", case.batch_size);
    let _ = writeln!(s, "shards {}", case.shards);
    let _ = writeln!(s, "pipelined {}", case.pipelined);
    if let Some(every) = case.checkpoint_every {
        let _ = writeln!(s, "checkpoint_every {every}");
    }
    if let Some((shard, tick)) = case.fail_shard {
        let _ = writeln!(s, "fail_shard {shard} {tick}");
    }
    if case.standbys > 0 {
        let _ = writeln!(s, "standbys {}", case.standbys);
    }
    if case.host_threads != 1 {
        let _ = writeln!(s, "host_threads {}", case.host_threads);
    }
    if case.via_front {
        let _ = writeln!(s, "via_front");
    }
    if case.via_schedulers {
        let _ = writeln!(s, "via_schedulers");
    }
    if case.via_rebalance {
        let _ = writeln!(s, "via_rebalance");
    }
    if case.commutative_t0c0 {
        let _ = writeln!(s, "commutative_t0c0");
    }
    if case.log_pressure {
        let _ = writeln!(s, "log_pressure");
    }
    for (i, t) in case.tables.iter().enumerate() {
        let rule = match t.rule {
            ShardRule::Hash => "hash".to_string(),
            ShardRule::Stride(k) => format!("stride:{k}"),
            ShardRule::Replicated => "replicated".to_string(),
        };
        let _ = writeln!(
            s,
            "table {} cols={} capacity={} ordered={} rule={rule}",
            t.name, t.cols, t.capacity, t.ordered
        );
        for (key, vals) in &t.rows {
            let vals: Vec<String> = vals.iter().map(i64::to_string).collect();
            let _ = writeln!(s, "row {i} {key} = {}", vals.join(" "));
        }
    }
    for txn in &case.txns {
        let params: Vec<String> = txn.params.iter().map(i64::to_string).collect();
        if params.is_empty() {
            let _ = writeln!(s, "txn proc={}", txn.proc.0);
        } else {
            let _ = writeln!(s, "txn proc={} params={}", txn.proc.0, params.join(","));
        }
        for op in &txn.ops {
            let _ = writeln!(s, "  op {}", op_to_text(op));
        }
        let _ = writeln!(s, "end");
    }
    s
}

fn src_to_text(s: Src) -> String {
    match s {
        Src::Const(v) => format!("c:{v}"),
        Src::Param(p) => format!("p:{p}"),
        Src::Reg(r) => format!("r:{r}"),
        Src::Tid => "tid".to_string(),
    }
}

fn fn_to_text(f: ComputeFn) -> &'static str {
    match f {
        ComputeFn::Add => "add",
        ComputeFn::Sub => "sub",
        ComputeFn::Mul => "mul",
        ComputeFn::Min => "min",
        ComputeFn::Max => "max",
        ComputeFn::StockSub => "stocksub",
    }
}

fn op_to_text(op: &IrOp) -> String {
    match op {
        IrOp::Read { table, key, col, out } => format!(
            "read t={} key={} col={} out={out}",
            table.0,
            src_to_text(*key),
            col.0
        ),
        IrOp::Update { table, key, col, val } => format!(
            "update t={} key={} col={} val={}",
            table.0,
            src_to_text(*key),
            col.0,
            src_to_text(*val)
        ),
        IrOp::Add { table, key, col, delta } => format!(
            "add t={} key={} col={} delta={}",
            table.0,
            src_to_text(*key),
            col.0,
            src_to_text(*delta)
        ),
        IrOp::Insert { table, key, values } => {
            let vals: Vec<String> = values.iter().map(|v| src_to_text(*v)).collect();
            format!("insert t={} key={} vals={}", table.0, src_to_text(*key), vals.join(","))
        }
        IrOp::Delete { table, key } => {
            format!("delete t={} key={}", table.0, src_to_text(*key))
        }
        IrOp::Compute { f, a, b, out } => format!(
            "compute f={} a={} b={} out={out}",
            fn_to_text(*f),
            src_to_text(*a),
            src_to_text(*b)
        ),
        IrOp::ScanSum { table, start, count, col, out } => format!(
            "scansum t={} start={} count={count} col={} out={out}",
            table.0,
            src_to_text(*start),
            col.0
        ),
        IrOp::RangeSum { table, lo, hi, col, out } => format!(
            "rangesum t={} lo={} hi={} col={} out={out}",
            table.0,
            src_to_text(*lo),
            src_to_text(*hi),
            col.0
        ),
        IrOp::RangeMinKey { table, lo, hi, out } => format!(
            "rangemin t={} lo={} hi={} out={out}",
            table.0,
            src_to_text(*lo),
            src_to_text(*hi)
        ),
        IrOp::RangeCountBelow { table, lo, hi, col, threshold, out } => format!(
            "rangecountbelow t={} lo={} hi={} col={} thr={} out={out}",
            table.0,
            src_to_text(*lo),
            src_to_text(*hi),
            col.0,
            src_to_text(*threshold)
        ),
    }
}

/// Errors produced while parsing a repro file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "repro parse error at line {}: {}", self.line, self.message)
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

fn parse_src(line: usize, s: &str) -> Result<Src, ParseError> {
    if s == "tid" {
        return Ok(Src::Tid);
    }
    let (tag, val) = s.split_once(':').ok_or_else(|| err(line, format!("bad src `{s}`")))?;
    let parse = |v: &str| v.parse::<i64>().map_err(|_| err(line, format!("bad src `{s}`")));
    match tag {
        "c" => Ok(Src::Const(parse(val)?)),
        "p" => Ok(Src::Param(parse(val)? as u8)),
        "r" => Ok(Src::Reg(parse(val)? as u8)),
        _ => Err(err(line, format!("bad src tag `{tag}`"))),
    }
}

/// `key=value` fields of one op line, position-independent.
struct Fields<'a> {
    line: usize,
    kv: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn new(line: usize, toks: &[&'a str]) -> Result<Self, ParseError> {
        let mut kv = Vec::with_capacity(toks.len());
        for t in toks {
            let (k, v) =
                t.split_once('=').ok_or_else(|| err(line, format!("bad field `{t}`")))?;
            kv.push((k, v));
        }
        Ok(Fields { line, kv })
    }

    fn get(&self, key: &str) -> Result<&'a str, ParseError> {
        self.kv
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| err(self.line, format!("missing field `{key}`")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, ParseError> {
        self.get(key)?
            .parse::<T>()
            .map_err(|_| err(self.line, format!("bad number in field `{key}`")))
    }

    fn src(&self, key: &str) -> Result<Src, ParseError> {
        parse_src(self.line, self.get(key)?)
    }
}

fn parse_op(line: usize, toks: &[&str]) -> Result<IrOp, ParseError> {
    let kind = toks[0];
    let f = Fields::new(line, &toks[1..])?;
    let table = || -> Result<TableId, ParseError> { Ok(TableId(f.num::<u16>("t")?)) };
    let col = || -> Result<ColId, ParseError> { Ok(ColId(f.num::<u16>("col")?)) };
    match kind {
        "read" => Ok(IrOp::Read { table: table()?, key: f.src("key")?, col: col()?, out: f.num("out")? }),
        "update" => Ok(IrOp::Update { table: table()?, key: f.src("key")?, col: col()?, val: f.src("val")? }),
        "add" => Ok(IrOp::Add { table: table()?, key: f.src("key")?, col: col()?, delta: f.src("delta")? }),
        "insert" => {
            let vals = f.get("vals")?;
            let values = vals
                .split(',')
                .filter(|v| !v.is_empty())
                .map(|v| parse_src(line, v))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(IrOp::Insert { table: table()?, key: f.src("key")?, values })
        }
        "delete" => Ok(IrOp::Delete { table: table()?, key: f.src("key")? }),
        "compute" => {
            let func = match f.get("f")? {
                "add" => ComputeFn::Add,
                "sub" => ComputeFn::Sub,
                "mul" => ComputeFn::Mul,
                "min" => ComputeFn::Min,
                "max" => ComputeFn::Max,
                "stocksub" => ComputeFn::StockSub,
                other => return Err(err(line, format!("unknown compute fn `{other}`"))),
            };
            Ok(IrOp::Compute { f: func, a: f.src("a")?, b: f.src("b")?, out: f.num("out")? })
        }
        "scansum" => Ok(IrOp::ScanSum {
            table: table()?,
            start: f.src("start")?,
            count: f.num("count")?,
            col: col()?,
            out: f.num("out")?,
        }),
        "rangesum" => Ok(IrOp::RangeSum {
            table: table()?,
            lo: f.src("lo")?,
            hi: f.src("hi")?,
            col: col()?,
            out: f.num("out")?,
        }),
        "rangemin" => Ok(IrOp::RangeMinKey {
            table: table()?,
            lo: f.src("lo")?,
            hi: f.src("hi")?,
            out: f.num("out")?,
        }),
        "rangecountbelow" => Ok(IrOp::RangeCountBelow {
            table: table()?,
            lo: f.src("lo")?,
            hi: f.src("hi")?,
            col: col()?,
            threshold: f.src("thr")?,
            out: f.num("out")?,
        }),
        other => Err(err(line, format!("unknown op `{other}`"))),
    }
}

/// Parse repro text back into a case.
pub fn from_text(text: &str) -> Result<QaCase, ParseError> {
    let mut case = QaCase {
        seed: 0,
        tables: Vec::new(),
        txns: Vec::new(),
        batch_size: 16,
        shards: 1,
        pipelined: false,
        checkpoint_every: None,
        fail_shard: None,
        commutative_t0c0: false,
        standbys: 0,
        via_front: false,
        via_schedulers: false,
        via_rebalance: false,
        host_threads: 1,
        log_pressure: false,
    };
    // (proc, params, ops) of the txn currently being collected.
    let mut open_txn: Option<(u16, Vec<i64>, Vec<IrOp>)> = None;
    let mut saw_version = false;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = trimmed.split_whitespace().collect();
        match toks[0] {
            "version" => {
                let v: u32 = toks
                    .get(1)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(lineno, "bad version"))?;
                if v != 1 {
                    return Err(err(lineno, format!("unsupported repro version {v}")));
                }
                saw_version = true;
            }
            "seed" => case.seed = num(lineno, toks.get(1))?,
            "batch_size" => case.batch_size = positive(lineno, toks.get(1))? as usize,
            "shards" => case.shards = positive(lineno, toks.get(1))?,
            "host_threads" => case.host_threads = positive(lineno, toks.get(1))?,
            "pipelined" => {
                case.pipelined = match toks.get(1).copied() {
                    Some("true") => true,
                    Some("false") => false,
                    _ => return Err(err(lineno, "pipelined wants true/false")),
                }
            }
            "checkpoint_every" => case.checkpoint_every = Some(num(lineno, toks.get(1))?),
            "fail_shard" => {
                case.fail_shard =
                    Some((num(lineno, toks.get(1))?, num(lineno, toks.get(2))?))
            }
            "standbys" => case.standbys = num(lineno, toks.get(1))?,
            "via_front" => case.via_front = true,
            "via_schedulers" => case.via_schedulers = true,
            "via_rebalance" => case.via_rebalance = true,
            "commutative_t0c0" => case.commutative_t0c0 = true,
            "log_pressure" => case.log_pressure = true,
            "table" => {
                let name =
                    toks.get(1).ok_or_else(|| err(lineno, "table wants a name"))?.to_string();
                let f = Fields::new(lineno, &toks[2..])?;
                let rule_s = f.get("rule")?;
                let rule = if rule_s == "hash" {
                    ShardRule::Hash
                } else if rule_s == "replicated" {
                    ShardRule::Replicated
                } else if let Some(k) = rule_s.strip_prefix("stride:") {
                    ShardRule::Stride(
                        k.parse().map_err(|_| err(lineno, "bad stride"))?,
                    )
                } else {
                    return Err(err(lineno, format!("unknown rule `{rule_s}`")));
                };
                case.tables.push(TableSpec {
                    name,
                    cols: f.num("cols")?,
                    capacity: f.num("capacity")?,
                    ordered: f.get("ordered")? == "true",
                    rule,
                    rows: Vec::new(),
                });
            }
            "row" => {
                let t: usize = num(lineno, toks.get(1))?;
                let key: i64 = num(lineno, toks.get(2))?;
                if toks.get(3) != Some(&"=") {
                    return Err(err(lineno, "row wants `row <table> <key> = <vals...>`"));
                }
                let vals = toks[4..]
                    .iter()
                    .map(|v| v.parse::<i64>().map_err(|_| err(lineno, "bad row value")))
                    .collect::<Result<Vec<_>, _>>()?;
                let spec = case
                    .tables
                    .get_mut(t)
                    .ok_or_else(|| err(lineno, format!("row for undeclared table {t}")))?;
                if vals.len() != spec.cols as usize {
                    return Err(err(lineno, "row width does not match table cols"));
                }
                spec.rows.push((key, vals));
            }
            "txn" => {
                if open_txn.is_some() {
                    return Err(err(lineno, "txn before previous `end`"));
                }
                let f = Fields::new(lineno, &toks[1..])?;
                let proc: u16 = f.num("proc")?;
                let params = match f.get("params") {
                    Ok(p) => p
                        .split(',')
                        .filter(|v| !v.is_empty())
                        .map(|v| v.parse::<i64>().map_err(|_| err(lineno, "bad param")))
                        .collect::<Result<Vec<_>, _>>()?,
                    Err(_) => Vec::new(),
                };
                open_txn = Some((proc, params, Vec::new()));
            }
            "op" => {
                let Some((_, _, ops)) = open_txn.as_mut() else {
                    return Err(err(lineno, "op outside a txn block"));
                };
                ops.push(parse_op(lineno, &toks[1..])?);
            }
            "end" => {
                let (proc, params, ops) = open_txn
                    .take()
                    .ok_or_else(|| err(lineno, "end without an open txn"))?;
                let txn = Txn::new(ProcId(proc), params, ops);
                txn.validate().map_err(|e| err(lineno, format!("invalid txn: {e}")))?;
                case.txns.push(txn);
            }
            other => return Err(err(lineno, format!("unknown directive `{other}`"))),
        }
    }
    if !saw_version {
        return Err(err(1, "missing `version` line"));
    }
    if open_txn.is_some() {
        return Err(err(text.lines().count(), "unterminated txn block"));
    }
    if case.tables.is_empty() {
        return Err(err(1, "repro declares no tables"));
    }
    Ok(case)
}

fn num<T: std::str::FromStr>(line: usize, tok: Option<&&str>) -> Result<T, ParseError> {
    tok.and_then(|v| v.parse().ok()).ok_or_else(|| err(line, "missing/bad number"))
}

/// A count of shards, batch slots or threads: zero would leave nothing to
/// compare.
fn positive(line: usize, tok: Option<&&str>) -> Result<u32, ParseError> {
    num(line, tok).and_then(|v| if v > 0 { Ok(v) } else { Err(err(line, "must be at least 1")) })
}

/// Read and parse a repro file.
pub fn load_file(path: &Path) -> Result<QaCase, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    from_text(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write `case` to `path` in repro format.
pub fn write_file(path: &Path, case: &QaCase) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_text(case))
}
