//! `ledger compare <a.json> <b.json>`: apply the bounds declared in
//! `BENCHMARK.json` to two ledgers written by `ledger run`.
//!
//! `a` is the base (the parent commit, or the first set of runs), `b` the
//! candidate. One row per workload × end-to-end metric; every ratio is
//! printed with its base. Exit code 1 on any `worse` row or on a digest
//! mismatch between ledgers of the same seed and size.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::stats::iqr_spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    /// A simulated-clock metric that differs between two ledgers of the same
    /// seed and size, but by less than its bound. Never noise: the simulated
    /// clock is deterministic, so the change under test moved it.
    Moved,
    /// The ten `host_ktps` slices of either side spread wider than the
    /// bound: this pair of runs cannot tell a change of that size apart
    /// from noise.
    Unresolved,
    Worse,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Moved => "moved",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// Relative worsening of `b` against base `a` (positive = worse).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// `slice_spread` is given for host-clock metrics only.
pub fn judge(worsening: f64, bound: f64, slice_spread: Option<f64>) -> Verdict {
    if slice_spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let schema = json.get("schema").and_then(Json::as_str);
    let kind = json.get("kind").and_then(Json::as_str);
    if schema != Some(crate::SCHEMA) || kind != Some("ledger") {
        return Err(format!(
            "{}: not a {} ledger (schema {schema:?}, kind {kind:?})",
            path.display(),
            crate::SCHEMA
        ));
    }
    Ok(json)
}

fn slice_spread(workload: &Json) -> f64 {
    let slices: Vec<f64> = workload
        .get("host_ktps_slices")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    iqr_spread(&slices)
}

pub fn main(a_path: &Path, b_path: &Path) -> ExitCode {
    let decl_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json");
    let (a, b, decl) = match (load(a_path), load(b_path), read_declaration(&decl_path)) {
        (Ok(a), Ok(b), Ok(d)) => (a, b, d),
        (a, b, d) => {
            for e in [
                a.err(),
                b.err(),
                d.err().map(|e| format!("{}: {e}", decl_path.display())),
            ]
            .into_iter()
            .flatten()
            {
                eprintln!("ledger compare: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let same_inputs = ["seed", "seconds", "smoke"]
        .iter()
        .all(|k| a.get(k) == b.get(k));
    if !same_inputs {
        println!("note: seed/size differ between the ledgers — digests are not compared");
    }
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    let mut failed = false;
    for (name, wa) in a.get("workloads").map(Json::members).unwrap_or_default() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<22} missing from b");
            failed = true;
            continue;
        };
        if same_inputs && wa.get("digests") != wb.get("digests") {
            println!("{name:<22} DIGEST MISMATCH: the two ledgers committed different histories");
            failed = true;
        }
        let spread = slice_spread(wa).max(slice_spread(wb));
        for d in &decl {
            let value = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|m| m.get(&d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                println!("{name:<22} {:<18} missing", d.name);
                failed = true;
                continue;
            };
            let w = worsening(va, vb, d.lower_is_better);
            let mut verdict = judge(w, d.bound, d.name.starts_with("host_").then_some(spread));
            let deterministic = d.name.starts_with("sim_") || d.name == "commit_rate";
            if verdict == Verdict::Same && deterministic && same_inputs && va != vb {
                verdict = Verdict::Moved;
            }
            failed |= verdict == Verdict::Worse;
            println!(
                "{name:<22} {:<18} {va:>14.6} {vb:>14.6} {:>9.4} {:>7.3}  {}  [{}]",
                d.name,
                if va == 0.0 { f64::NAN } else { vb / va },
                d.bound,
                verdict.label(),
                d.unit,
            );
        }
        if spread > 0.0 {
            println!("{name:<22} (host_ktps slice spread, wider side: {spread:.4})");
        }
    }
    if failed {
        println!("RESULT: worse (or mismatched) rows present");
        ExitCode::FAILURE
    } else {
        println!("RESULT: no row worse than its bound");
        ExitCode::SUCCESS
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn read_declaration(path: &Path) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let json = Json::parse(&text)?;
    json.get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("end_to_end entry without {k}"))
            };
            Ok(Declared {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better: field("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_declared_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(20.0, 18.0, false) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, true), 0.0);
    }

    #[test]
    fn verdicts() {
        assert_eq!(judge(0.20, 0.10, None), Verdict::Worse);
        assert_eq!(judge(0.05, 0.10, None), Verdict::Same);
        assert_eq!(judge(-0.20, 0.10, None), Verdict::Better);
        // A noisy pair of runs cannot resolve anything, in either direction.
        assert_eq!(judge(0.20, 0.10, Some(0.15)), Verdict::Unresolved);
        assert_eq!(judge(-0.20, 0.10, Some(0.15)), Verdict::Unresolved);
        assert_eq!(judge(0.20, 0.10, Some(0.05)), Verdict::Worse);
    }
}
