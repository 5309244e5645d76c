//! `ledger` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the contract in BENCHMARK.json)
//! ledger run [--seed <n>] [--seconds <s>] [--smoke]                 every workload, untraced + traced, one child process each
//! ledger compare <a.json> <b.json>                                  apply the declared bounds to two ledgers
//! ```

pub mod compare;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use metrics::Metric;
use workloads::{Pass, Scale, Workload, RUN_SECONDS};

pub const SCHEMA: &str = "ledger/v1";

/// FNV-1a, folded one `u64` at a time: the digest of a commit history.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// `benchmark/out/`, next to this package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `<workload>-seed<n>[-smoke]`: what tells one run's output files from
/// another's.
fn stem(args: &RunArgs, w: Workload) -> String {
    let smoke = if args.smoke { "-smoke" } else { "" };
    format!("{}-seed{}{smoke}", w.name(), args.seed)
}

/// Where one run leaves its full record; `run` reads its children's back.
fn record_path(args: &RunArgs, w: Workload, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "run-{}-trace{}.json",
        stem(args, w),
        u8::from(trace)
    ))
}

/// The fields every `ledger/v1` record starts with.
fn header(kind: &str, args: &RunArgs) -> Json {
    Json::obj()
        .with("schema", SCHEMA)
        .with("kind", kind)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("smoke", args.smoke)
        .with("git_commit", git_commit())
        .with("build_profile", "release")
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("driver_threads", 1u64)
        .with("warmup_frac", workloads::WARMUP_FRAC)
}

/// Commit of the checkout this binary was built from, read from `.git`
/// without running git; "unknown" when the checkout is not a repository.
fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let read = |p: &str| std::fs::read_to_string(root.join(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(reference) {
        return sha.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[derive(Debug, Clone)]
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n  \
         ledger run [--seed <n>] [--seconds <s>] [--smoke]\n  ledger compare <a.json> <b.json>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

pub fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("ledger: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => usage(),
        },
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(a) if a.workload.is_none() => run_all(&a),
            Ok(_) => {
                eprintln!("ledger run: runs every workload; use --workload without `run` for one");
                ExitCode::from(2)
            }
            Err(e) => {
                eprintln!("ledger run: {e}");
                usage()
            }
        },
        Some(_) => match parse_run_args(&args) {
            Ok(a) if a.workload.is_some() => run_one(&a),
            Ok(_) => usage(),
            Err(e) => {
                eprintln!("ledger: {e}");
                usage()
            }
        },
        None => usage(),
    }
}

// ---------------------------------------------------------------------
// One workload, one process.
// ---------------------------------------------------------------------

fn run_pass(w: Workload, seed: u64, scale: &Scale, traced: bool, standbys: Option<usize>) -> Pass {
    if w.is_fleet() {
        let mut spec = workloads::fleet_spec(w);
        if let Some(n) = standbys {
            spec.standbys = n;
        }
        workloads::fleet_pass(&spec, seed, scale, traced)
    } else {
        workloads::engine_pass(w, seed, scale, traced)
    }
}

fn setup_only(w: Workload, seed: u64, scale: &Scale, gen_txns: u64) -> u64 {
    if w.is_fleet() {
        workloads::fleet_setup_only(&workloads::fleet_spec(w), seed, scale, gen_txns)
    } else {
        workloads::engine_setup_only(w, seed, scale, gen_txns)
    }
}

/// Extra set-ups per untraced run, beyond the one the measured pass needs:
/// `setup_s` is the median of all of them.
const EXTRA_SETUPS: usize = 2;

/// Whether two passes over the same inputs made the same decisions and
/// charged the same simulated time. Span recording must not change either.
fn same_outcome(a: &Pass, b: &Pass) -> Result<(), String> {
    let pairs: [(&str, bool); 8] = [
        ("history_digest", a.history_digest == b.history_digest),
        ("state_digests", a.state_digests == b.state_digests),
        ("seal_digest", a.seal_digest == b.seal_digest),
        ("committed", a.committed == b.committed),
        ("attempts", a.attempts == b.attempts),
        ("per-unit sim_ns", a.unit_sim_ns == b.unit_sim_ns),
        ("sim e2e sum", a.sim_e2e_sum_ns == b.sim_e2e_sum_ns),
        ("phase sums", a.phases == b.phases),
    ];
    match pairs.iter().find(|(_, same)| !same) {
        None => Ok(()),
        Some((what, _)) => Err(format!(
            "{what} differs between the untraced and traced pass"
        )),
    }
}

fn run_one(args: &RunArgs) -> ExitCode {
    let w = args.workload.expect("run_one needs a workload");
    let scale = Scale::new(args.seconds, args.smoke);

    let mut checks: Vec<Json> = Vec::new();
    let mut correct = true;
    let mut note = |pass_name: &str, c: &workloads::Check| {
        correct &= c.ok;
        if !c.ok {
            eprintln!(
                "ledger: check {} failed on {pass_name}: {}",
                c.name, c.detail
            );
        }
        checks.push(
            Json::obj()
                .with("pass", pass_name)
                .with("name", c.name)
                .with("ok", c.ok)
                .with("detail", c.detail.as_str()),
        );
    };

    let pass = run_pass(w, args.seed, &scale, false, None);
    pass.checks.iter().for_each(|c| note("untraced", c));
    let mut extra = Json::obj();

    let metrics: Vec<Metric> = if !args.trace {
        let mut setups = vec![pass.setup_ns];
        for _ in 0..EXTRA_SETUPS {
            setups.push(setup_only(w, args.seed, &scale, pass.gen_txns));
        }
        metrics::end_to_end(&pass, &setups)
    } else {
        let traced = run_pass(w, args.seed, &scale, true, None);
        traced.checks.iter().for_each(|c| note("traced", c));
        let same = same_outcome(&pass, &traced);
        note(
            "traced",
            &workloads::Check {
                name: "tracing_changes_nothing",
                ok: same.is_ok(),
                detail: same.err().unwrap_or_default(),
            },
        );
        let no_standby = (w == Workload::FleetShardedYcsb).then(|| {
            let p = run_pass(w, args.seed, &scale, true, Some(0));
            p.checks.iter().for_each(|c| note("no_standby", c));
            p
        });
        let probes = workloads::run_probes(w, args.seed, &scale);
        let layer = metrics::per_layer(&traced, &pass, no_standby.as_ref(), &probes);
        for (name, gap, limit) in [
            ("host_closure", metrics::host_closure_gap(&traced), 0.02),
            ("sim_closure", metrics::sim_closure_gap(&traced), 0.001),
        ] {
            note(
                "traced",
                &workloads::Check {
                    name,
                    ok: gap <= limit,
                    detail: format!("unaccounted share {gap:.6} (limit {limit})"),
                },
            );
        }
        let trace_path = out_dir().join(format!("trace-{}.jsonl", stem(args, w)));
        if let Err(e) = spans::write_jsonl(&trace_path, &traced.spans) {
            eprintln!("ledger: cannot write {}: {e}", trace_path.display());
        }
        let mut self_times = Json::obj();
        for (name, t) in spans::self_times(&traced.spans) {
            self_times.set(
                name,
                Json::obj()
                    .with("calls", t.calls)
                    .with("total_ms", t.total_ns as f64 / 1e6)
                    .with("self_ms", t.self_ns as f64 / 1e6),
            );
        }
        extra.set("self_times", self_times);
        extra.set("spans", traced.spans.len());
        layer
    };

    let slices = stats::slice_rates(&pass.slice_commits, &pass.slice_wall_ns);
    let raw_slices = stats::slice_rates(&pass.slice_commits, &pass.slice_raw_wall_ns);
    let ktps = |rates: &[f64]| Json::array(rates.iter().map(|r| r / 1e3));
    let mut metric_obj = Json::obj();
    for m in &metrics {
        metric_obj.set(m.name, m.to_json());
    }
    let record = header("run", args)
        .with("workload", w.name())
        .with("trace", u64::from(args.trace))
        .with("warmup_units", pass.warmup_units)
        .with("units", pass.units)
        .with("attempted", pass.submitted)
        .with("failed", pass.failed)
        .with("correct", correct)
        .with(
            "digests",
            Json::obj()
                .with("history", hex(pass.history_digest))
                .with(
                    "state",
                    Json::array(pass.state_digests.iter().map(|d| hex(*d))),
                )
                .with(
                    "seal",
                    pass.seal_digest.map_or(Json::Null, |d| Json::from(hex(d))),
                ),
        )
        .with("host_ktps_slices", ktps(&slices))
        .with("host_ktps_slices_raw", ktps(&raw_slices))
        .with(
            "speed_factor",
            Json::obj()
                .with("samples", pass.speed_factors.len())
                .with(
                    "min",
                    pass.speed_factors
                        .iter()
                        .copied()
                        .fold(f64::INFINITY, f64::min),
                )
                .with("p50", stats::percentile(&pass.speed_factors, 50.0))
                .with("max", stats::percentile(&pass.speed_factors, 100.0))
                .with("parts_p50", {
                    let mut parts = Json::obj();
                    for (p, name) in speed::PARTS.iter().enumerate() {
                        let series: Vec<f64> = pass.speed_parts.iter().map(|s| s[p]).collect();
                        parts.set(name, stats::percentile(&series, 50.0));
                    }
                    parts
                })
                .with("reference_ns", Json::array(speed::REFERENCE_NS)),
        )
        .with(
            "unit_raw_wall_ns",
            Json::array(pass.unit_raw_wall_ns.iter().copied()),
        )
        .with("unit_speed", Json::array(pass.unit_speed.iter().copied()))
        .with("metrics", metric_obj)
        .with("trace_detail", extra)
        .with("checks", checks);
    let record_path = record_path(args, w, args.trace);
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&record_path, record.to_pretty()))
    {
        eprintln!("ledger: cannot write {}: {e}", record_path.display());
    }

    for m in &metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    // The contract's result line: unit and value only.
    let mut contract_metrics = Json::obj();
    for m in &metrics {
        contract_metrics.set(
            m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    let summary = Json::obj()
        .with("correct", correct)
        .with("attempted", pass.submitted.max(1))
        .with("failed", pass.failed)
        .with("metrics", contract_metrics);
    println!("{}", summary.to_line());
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// `run`: every workload in a child process of its own.
// ---------------------------------------------------------------------

fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ledger run: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut workloads_obj = Json::obj();
    for w in Workload::ALL {
        let mut records: Vec<Json> = Vec::new();
        for trace in [false, true] {
            eprintln!("[ledger] {} trace={}", w.name(), u8::from(trace));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // One child per workload and mode, so peak_rss_mb is the
            // workload's own; `output` waits for it to end.
            let child_ok = match cmd.output() {
                Ok(out) => {
                    std::io::Write::write_all(&mut std::io::stderr(), &out.stderr).ok();
                    out.status.success()
                }
                Err(e) => {
                    eprintln!("ledger run: cannot start child: {e}");
                    false
                }
            };
            let path = record_path(args, w, trace);
            let record = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text));
            match record {
                Ok(r) if child_ok => records.push(r),
                Ok(_) => ok = false,
                Err(e) => {
                    eprintln!("ledger run: {}: {e}", path.display());
                    ok = false;
                }
            }
        }
        let [untraced, traced] = records.as_slice() else {
            ok = false;
            continue;
        };
        let digests_agree = untraced.get("digests") == traced.get("digests");
        if !digests_agree {
            eprintln!(
                "ledger run: {}: digests differ between the untraced and traced run",
                w.name()
            );
        }
        let both_correct = [untraced, traced]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        ok &= digests_agree && both_correct;
        let pick = |r: &Json, key: &str| r.get(key).cloned().unwrap_or(Json::Null);
        workloads_obj.set(
            w.name(),
            Json::obj()
                .with("correct", both_correct && digests_agree)
                .with("attempted", pick(untraced, "attempted"))
                .with("failed", pick(untraced, "failed"))
                .with("units", pick(untraced, "units"))
                .with("warmup_units", pick(untraced, "warmup_units"))
                .with("digests", pick(untraced, "digests"))
                .with("host_ktps_slices", pick(untraced, "host_ktps_slices"))
                .with("end_to_end", pick(untraced, "metrics"))
                .with("per_layer", pick(traced, "metrics"))
                .with(
                    "self_times",
                    traced
                        .get("trace_detail")
                        .map_or(Json::Null, |d| pick(d, "self_times")),
                )
                .with("checks", {
                    let mut all = untraced
                        .get("checks")
                        .map(|c| c.items().to_vec())
                        .unwrap_or_default();
                    all.extend(
                        traced
                            .get("checks")
                            .map(|c| c.items().to_vec())
                            .unwrap_or_default(),
                    );
                    Json::Arr(all)
                }),
        );
    }
    let ledger = header("ledger", args)
        .with("correct", ok)
        .with("workloads", workloads_obj);
    let name = if args.smoke { "ledger-smoke" } else { "ledger" };
    let path = out_dir().join(format!("{name}-seed{}.json", args.seed));
    if let Err(e) = std::fs::write(&path, ledger.to_pretty()) {
        eprintln!("ledger run: cannot write {}: {e}", path.display());
        ok = false;
    }
    print_ledger(&ledger);
    println!("[ledger written to {}]", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger run: FAILED (a correctness check or a child process failed)");
        ExitCode::FAILURE
    }
}

/// Every metric of every workload, by name, with its unit.
fn print_ledger(ledger: &Json) {
    let Some(workloads) = ledger.get("workloads") else {
        return;
    };
    for (w, body) in workloads.members() {
        println!("== {w} ==");
        for section in ["end_to_end", "per_layer"] {
            for (name, m) in body.get(section).map(Json::members).unwrap_or_default() {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let samples = m
                    .get("samples")
                    .and_then(Json::as_f64)
                    .map_or(String::new(), |n| format!("  (n={n})"));
                println!("{w:<22} {name:<44} {value:>16.6} {unit}{samples}");
            }
        }
    }
}
