//! The one record every experiment returns.
//!
//! An experiment is a plain function from a [`Scale`] to a [`Record`]: the
//! parameters it ran with, one table of named, typed columns, and a few
//! summary numbers. The record prints itself and serializes itself, so an
//! experiment builds each row once. `ltpg-bench check` reads a written
//! record back and hands it to the experiment's invariants.

use std::path::PathBuf;

pub use ltpg_telemetry::export::JsonValue;
use ltpg_telemetry::export::parse_json;

/// Schema tag of every record this harness writes.
pub const SCHEMA: &str = "ltpg-bench-v1";

/// Return `Err(format!(..))` from a check unless `cond` holds (a NaN
/// comparison does not hold).
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if $cond {
        } else {
            return Err(format!($($fmt)+));
        }
    };
}
pub(crate) use ensure;

/// A row for [`Record::push`]: each value lowered to its JSON kind.
macro_rules! row {
    ($($value:expr),+ $(,)?) => {
        vec![$($crate::record::JsonValue::from($value)),+]
    };
}
pub(crate) use row;

/// How large a grid an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A seconds-long grid for CI (`--smoke`). Experiments without a
    /// reduced grid run their default one.
    Smoke,
    /// The reduced but shape-preserving grid EXPERIMENTS.md reports.
    Default,
    /// The paper's grid (`--full`), where it differs from the default.
    Full,
}

impl Scale {
    /// The name written into the record.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }

    /// Where records of this scale live. `results/` is the single
    /// canonical location for committed records; smoke runs write to the
    /// git-ignored `results/smoke/` so a CI pass can never clobber one.
    fn dir(self) -> &'static str {
        if self == Scale::Smoke {
            "results/smoke"
        } else {
            "results"
        }
    }
}

/// One experiment's outcome. See the module docs.
#[derive(Debug, Clone)]
pub struct Record {
    /// Name of the experiment in the harness's table.
    pub experiment: String,
    /// The scale it ran at.
    pub scale: Scale,
    /// Heading of the printed table.
    pub title: String,
    /// What the grid was run with (sizes, seeds, derived policy knobs).
    pub params: Vec<(String, JsonValue)>,
    /// Column names; a column's type is the JSON kind of its values.
    pub columns: Vec<String>,
    /// One value per column.
    pub rows: Vec<Vec<JsonValue>>,
    /// Numbers over the whole table (acceptance ratios and the like).
    pub summary: Vec<(String, JsonValue)>,
}

/// "int" | "float" | "str" | "bool": the type names a record declares.
fn kind(v: &JsonValue) -> &'static str {
    match v {
        JsonValue::Int(_) | JsonValue::Uint(_) => "int",
        JsonValue::Num(_) => "float",
        JsonValue::Str(_) => "str",
        JsonValue::Bool(_) => "bool",
        JsonValue::Null | JsonValue::Arr(_) | JsonValue::Obj(_) => "other",
    }
}

fn display(v: &JsonValue) -> String {
    match v {
        JsonValue::Num(x) => format!("{x:.3}"),
        JsonValue::Str(s) => s.clone(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Int(n) => n.to_string(),
        JsonValue::Uint(n) => n.to_string(),
        JsonValue::Null | JsonValue::Arr(_) | JsonValue::Obj(_) => "?".to_string(),
    }
}

impl Record {
    /// An empty record for `experiment` with the given table heading and
    /// whitespace-separated column names.
    pub fn new(experiment: &str, scale: Scale, title: &str, columns: &str) -> Self {
        Record {
            experiment: experiment.to_string(),
            scale,
            title: title.to_string(),
            params: Vec::new(),
            columns: columns.split_whitespace().map(str::to_string).collect(),
            rows: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Record a parameter of the run.
    pub fn param(&mut self, name: &str, value: impl Into<JsonValue>) {
        self.params.push((name.to_string(), value.into()));
    }

    /// Record a whole-table summary value.
    pub fn summarize(&mut self, name: &str, value: impl Into<JsonValue>) {
        self.summary.push((name.to_string(), value.into()));
    }

    /// Append a row. Panics if it does not have one scalar per column of
    /// the same type as the rows before it — a bug in the experiment.
    pub fn push(&mut self, row: Vec<JsonValue>) {
        assert_eq!(row.len(), self.columns.len(), "{}: row width", self.experiment);
        for (i, v) in row.iter().enumerate() {
            let want = self.rows.first().map_or_else(|| kind(v), |first| kind(&first[i]));
            assert!(
                want != "other" && kind(v) == want,
                "{}: column {} holds {want}, got {v:?}",
                self.experiment,
                self.columns[i]
            );
        }
        self.rows.push(row);
    }

    /// Print the parameters, the aligned table and the summary to stdout.
    pub fn print(&self) {
        println!("\n== {} [{} / {}] ==", self.title, self.experiment, self.scale.name());
        for (k, v) in &self.params {
            println!("{k} = {}", display(v));
        }
        let cells: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(display).collect()).collect();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| cells.iter().map(|r| r[i].len()).max().unwrap_or(0).max(self.columns[i].len()))
            .collect();
        let line = |row: &[String]| {
            let padded: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            println!("{}", padded.join("  "));
        };
        line(&self.columns);
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        cells.iter().for_each(|r| line(r));
        for (k, v) in &self.summary {
            println!("{k} = {}", display(v));
        }
    }

    /// Path of the record file for `experiment` at `scale`.
    fn path(experiment: &str, scale: Scale) -> PathBuf {
        PathBuf::from(scale.dir()).join(format!("{experiment}.json"))
    }

    /// Write the record as JSON under `results/` (see [`Scale::dir`]).
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = Record::path(&self.experiment, self.scale);
        std::fs::create_dir_all(self.scale.dir())?;
        std::fs::write(&path, self.to_json().to_pretty() + "\n")?;
        Ok(path)
    }

    /// Read back the record `experiment` wrote at `scale`, rejecting a
    /// file with another schema tag, experiment name or scale class.
    pub fn load(experiment: &str, scale: Scale) -> Result<Record, String> {
        let path = Record::path(experiment, scale);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e} (run the experiment first)", path.display()))?;
        let rec = Record::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        ensure!(rec.experiment == experiment, "{} holds {}", path.display(), rec.experiment);
        ensure!(
            (rec.scale == Scale::Smoke) == (scale == Scale::Smoke),
            "{} holds a {} record",
            path.display(),
            rec.scale.name()
        );
        Ok(rec)
    }

    /// Parse a serialized record, checking the envelope: schema tag, the
    /// declared columns (name → type), and every row holding one value of
    /// the declared type per column. Numbers come back as floats (integers
    /// above 2⁵³, i.e. digests, round); checks compare magnitudes, never
    /// digests.
    pub fn parse(text: &str) -> Result<Record, String> {
        let doc = parse_json(text)?;
        let field = |name: &str| doc.get(name).ok_or_else(|| format!("missing \"{name}\""));
        let text_of = |name: &str| {
            field(name)?.as_str().map(str::to_string).ok_or(format!("\"{name}\" is not a string"))
        };
        let pairs = |name: &str| match field(name)? {
            JsonValue::Obj(fields) => Ok(fields.clone()),
            _ => Err(format!("\"{name}\" is not an object")),
        };
        let schema = text_of("schema")?;
        ensure!(schema == SCHEMA, "schema is {schema}, not {SCHEMA}");
        let scale = match text_of("scale")?.as_str() {
            "smoke" => Scale::Smoke,
            "default" => Scale::Default,
            "full" => Scale::Full,
            other => return Err(format!("unknown scale {other}")),
        };
        let columns = pairs("columns")?;
        let JsonValue::Arr(rows) = field("rows")? else {
            return Err("\"rows\" is not an array".to_string());
        };
        let mut table = Vec::new();
        for (n, row) in rows.iter().enumerate() {
            let mut values = Vec::new();
            for (name, ty) in &columns {
                let v = row.get(name).cloned().ok_or(format!("row {n} lacks {name}"))?;
                let ty = match ty {
                    JsonValue::Str(ty) if ty == "int" => "float",
                    JsonValue::Str(ty) => ty,
                    _ => return Err(format!("column {name} declares no type")),
                };
                ensure!(kind(&v) == ty, "row {n}: {name} is not {ty}");
                values.push(v);
            }
            table.push(values);
        }
        Ok(Record {
            experiment: text_of("experiment")?,
            scale,
            title: text_of("title")?,
            params: pairs("params")?,
            columns: columns.into_iter().map(|(name, _)| name).collect(),
            rows: table,
            summary: pairs("summary")?,
        })
    }

    /// Fail unless the table is non-empty and has every one of the
    /// whitespace-separated `names` as a column.
    pub fn require_columns(&self, names: &str) -> Result<(), String> {
        let missing: Vec<_> =
            names.split_whitespace().filter(|n| !self.columns.iter().any(|c| c == n)).collect();
        ensure!(missing.is_empty(), "{}: missing columns {missing:?}", self.experiment);
        ensure!(!self.rows.is_empty(), "{}: empty table", self.experiment);
        Ok(())
    }

    /// The rows, addressable by column name.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.rows.iter().map(move |values| Row { rec: self, values })
    }

    fn scalar(&self, name: &str) -> Option<&JsonValue> {
        self.params.iter().chain(&self.summary).find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// A numeric parameter or summary value.
    pub fn num(&self, name: &str) -> Result<f64, String> {
        as_num(name, self.scalar(name))
    }

    /// A boolean parameter or summary value.
    pub fn flag(&self, name: &str) -> Result<bool, String> {
        as_flag(name, self.scalar(name))
    }
}

/// One row of a [`Record`], read by column name.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    rec: &'a Record,
    values: &'a [JsonValue],
}

impl<'a> Row<'a> {
    fn get(&self, col: &str) -> Option<&'a JsonValue> {
        self.rec.columns.iter().position(|c| c == col).map(|i| &self.values[i])
    }

    /// A numeric cell (integer or float).
    pub fn num(&self, col: &str) -> Result<f64, String> {
        as_num(col, self.get(col))
    }

    /// A boolean cell.
    pub fn flag(&self, col: &str) -> Result<bool, String> {
        as_flag(col, self.get(col))
    }

    /// A string cell.
    pub fn text(&self, col: &str) -> Result<&'a str, String> {
        match self.get(col) {
            Some(JsonValue::Str(s)) => Ok(s),
            _ => Err(format!("{col} is missing or not a string")),
        }
    }
}

fn as_num(name: &str, v: Option<&JsonValue>) -> Result<f64, String> {
    v.and_then(JsonValue::as_f64).ok_or_else(|| format!("{name} is missing or not a number"))
}

fn as_flag(name: &str, v: Option<&JsonValue>) -> Result<bool, String> {
    match v {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("{name} is missing or not a boolean")),
    }
}

impl Record {
    /// The record as the JSON document [`Record::parse`] reads.
    fn to_json(&self) -> JsonValue {
        let text = |s: &str| JsonValue::from(s);
        let columns = self.columns.iter().enumerate().map(|(i, name)| {
            (name.clone(), text(self.rows.first().map_or("other", |r| kind(&r[i]))))
        });
        let rows = self.rows.iter().map(|r| {
            JsonValue::Obj(self.columns.iter().cloned().zip(r.iter().cloned()).collect())
        });
        JsonValue::Obj(vec![
            ("schema".to_string(), text(SCHEMA)),
            ("experiment".to_string(), text(&self.experiment)),
            ("scale".to_string(), text(self.scale.name())),
            ("title".to_string(), text(&self.title)),
            ("params".to_string(), JsonValue::Obj(self.params.clone())),
            ("columns".to_string(), JsonValue::Obj(columns.collect())),
            ("rows".to_string(), JsonValue::Arr(rows.collect())),
            ("summary".to_string(), JsonValue::Obj(self.summary.clone())),
        ])
    }
}

/// Ways for a test to break one fact of a good record.
#[cfg(test)]
impl Record {
    pub(crate) fn with(&self, col: &str, row: usize, value: impl Into<JsonValue>) -> Record {
        let mut rec = self.clone();
        let i = rec.columns.iter().position(|c| c == col).expect("column to overwrite");
        rec.rows[row][i] = value.into();
        rec
    }

    pub(crate) fn with_summary(&self, name: &str, value: impl Into<JsonValue>) -> Record {
        let mut rec = self.clone();
        rec.summary.iter_mut().find(|(k, _)| k == name).expect("summary to overwrite").1 =
            value.into();
        rec
    }

    pub(crate) fn without_column(&self, col: &str) -> Record {
        let mut rec = self.clone();
        let i = rec.columns.iter().position(|c| c == col).expect("column to drop");
        rec.columns.remove(i);
        rec.rows.iter_mut().for_each(|r| drop(r.remove(i)));
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let mut rec = Record::new("sample", Scale::Smoke, "a sample", "name n x ok");
        rec.param("batch", 64usize);
        rec.push(row!["a", 3u64, 0.5, true]);
        rec.push(row!["b", u64::MAX, 2.0, false]);
        rec.summarize("min_x", 0.5);
        rec
    }

    #[test]
    fn a_record_reads_back_what_it_wrote() {
        let rec = sample();
        let back = Record::parse(&rec.to_json().to_pretty()).unwrap();
        assert_eq!((back.experiment.as_str(), back.scale), ("sample", Scale::Smoke));
        assert_eq!(back.columns, rec.columns);
        let rows: Vec<_> = back.rows().collect();
        assert_eq!(rows[0].text("name"), Ok("a"));
        assert_eq!(rows[0].num("n"), Ok(3.0));
        assert_eq!(rows[1].num("x"), Ok(2.0));
        assert_eq!(rows[1].flag("ok"), Ok(false));
        assert_eq!((back.num("min_x"), back.num("batch")), (Ok(0.5), Ok(64.0)));
        assert!(rows[0].num("absent").is_err() && rows[0].flag("n").is_err());
    }

    #[test]
    fn parse_rejects_a_foreign_or_malformed_document() {
        let good = sample().to_json().to_pretty();
        assert!(Record::parse(&good.replace(SCHEMA, "ltpg-front-v1")).is_err());
        assert!(Record::parse(&good.replace("\"ok\": true", "\"ok\": 1")).is_err());
        assert!(Record::parse(&good.replace("\"n\": 3,", "")).is_err());
        assert!(Record::parse("[]").is_err());
    }

    #[test]
    #[should_panic(expected = "column n holds int")]
    fn a_row_of_another_type_is_a_bug() {
        let mut rec = sample();
        rec.push(row!["c", 1.5, 1.0, true]);
    }

    /// `results/trajectory.jsonl` holds one row per (PR, side, workload,
    /// metric) of a measured set of alternating ledger pairs: q1 / median /
    /// q3 over the side's runs, its commit, the seeds, the set id and the
    /// side's median `host.speed_factor_p50`. A ratio is read only within
    /// a set, so every line must parse with its fields, its quartiles in
    /// order, and every (set, workload, metric) must have both sides.
    #[test]
    fn the_trajectory_parses_and_every_set_has_both_sides() {
        use std::collections::{BTreeMap, BTreeSet};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/trajectory.jsonl");
        let text = std::fs::read_to_string(path).expect("results/trajectory.jsonl");
        let rows: Vec<JsonValue> = text
            .lines()
            .enumerate()
            .map(|(i, line)| parse_json(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1)))
            .collect();
        assert!(!rows.is_empty(), "an empty trajectory");
        let mut sides: BTreeMap<(String, String, String), BTreeSet<String>> = BTreeMap::new();
        for (i, row) in rows.iter().enumerate() {
            let line = i + 1;
            let text = |k: &str| {
                row.get(k).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("line {line}: no {k}")).to_string()
            };
            let num = |k: &str| row.get(k).and_then(JsonValue::as_f64).unwrap_or_else(|| panic!("line {line}: no {k}"));
            let (q1, median, q3) = (num("q1"), num("median"), num("q3"));
            assert!(q1 <= median && median <= q3, "line {line}: quartiles out of order");
            assert!(num("pr") >= 1.0 && num("host_speed_factor_p50") > 0.0, "line {line}");
            assert!(!text("commit").is_empty(), "line {line}: no commit");
            let seeds = match row.get("seeds") {
                Some(JsonValue::Arr(seeds)) => seeds.len(),
                _ => 0,
            };
            assert!(seeds > 0, "line {line}: no seeds");
            let side = text("side");
            assert!(side == "parent" || side == "change", "line {line}: side {side}");
            sides.entry((text("set"), text("workload"), text("metric"))).or_default().insert(side);
        }
        for (key, got) in sides {
            assert_eq!(got.len(), 2, "{key:?} has only {got:?}");
        }
    }
}
