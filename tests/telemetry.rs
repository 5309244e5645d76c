//! End-to-end telemetry acceptance: one server run must produce a valid
//! JSONL export covering all three LTPG phases on both clocks, transfer
//! bytes, the abort taxonomy and the fault counters — with batch-latency
//! percentiles derivable from the histogram — and a fault-free run must
//! report all-zero fault counters through the registry view.

use ltpg::{FaultStats, LtpgConfig, LtpgServer, ServerConfig};
use ltpg_storage::{ColId, Database, TableBuilder, TableId};
use ltpg_telemetry::export::{find_metric, validate_jsonl, JsonValue};
use ltpg_telemetry::names;
use ltpg_txn::{IrOp, ProcId, Src, Txn};

fn contended_server(txns: usize, keys: i64, batch: usize) -> LtpgServer {
    let mut db = Database::new();
    let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(256).build());
    for k in 0..keys {
        db.table_mut(t).insert(k, &[0, 0]).unwrap();
    }
    let mut server = LtpgServer::new(
        db,
        LtpgConfig::default(),
        ServerConfig { batch_size: batch, ..ServerConfig::default() },
    );
    for i in 0..txns as i64 {
        server.submit(Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Update {
                table: TableId(0),
                key: Src::Const(i % keys),
                col: ColId(0),
                val: Src::Const(i + 1),
            }],
        ));
    }
    server
}

fn num(value: &JsonValue, key: &str) -> f64 {
    value.get(key).and_then(JsonValue::as_f64).unwrap_or_else(|| panic!("missing {key}"))
}

#[test]
fn server_run_exports_complete_valid_jsonl() {
    let mut server = contended_server(200, 5, 32);
    let stats = server.drain(500).clone();
    assert_eq!(stats.committed, 200);
    assert!(stats.abort_events > 0, "hot keys must conflict");

    let jsonl = server.export_telemetry_jsonl();
    let lines = validate_jsonl(&jsonl).expect("export must parse");

    // The first line is the schema marker.
    let meta = &lines[0];
    assert_eq!(meta.get("type").and_then(JsonValue::as_str), Some("meta"));
    assert_eq!(
        meta.get("schema").and_then(JsonValue::as_str),
        Some(ltpg_telemetry::export::SCHEMA)
    );

    // All three LTPG phases appear as histograms with one sample per batch.
    for phase in [
        names::LTPG_PHASE_EXECUTE_NS,
        names::LTPG_PHASE_DETECT_NS,
        names::LTPG_PHASE_WRITEBACK_NS,
    ] {
        let h = find_metric(&lines, phase).unwrap_or_else(|| panic!("missing {phase}"));
        assert_eq!(h.get("type").and_then(JsonValue::as_str), Some("histogram"));
        assert_eq!(num(h, "count") as u64, stats.batches, "{phase} samples != batches");
        assert!(num(h, "sum") > 0.0, "{phase} accounted no time");
    }

    // The launching thread's host split of the same three launches: one
    // sample per batch each.
    for launch in [
        names::LTPG_HOST_EXECUTE_NS,
        names::LTPG_HOST_DETECT_NS,
        names::LTPG_HOST_WRITEBACK_NS,
    ] {
        let h = find_metric(&lines, launch).unwrap_or_else(|| panic!("missing {launch}"));
        assert_eq!(h.get("type").and_then(JsonValue::as_str), Some("histogram"));
        assert_eq!(num(h, "count") as u64, stats.batches, "{launch} samples != batches");
    }

    // Transfer bytes in both directions.
    assert!(num(find_metric(&lines, names::LTPG_BYTES_H2D).unwrap(), "value") > 0.0);
    assert!(num(find_metric(&lines, names::LTPG_BYTES_D2H).unwrap(), "value") > 0.0);

    // Abort taxonomy: every reason is present; the WAW losers carry the
    // run's abort events, and the exotic reasons stay zero.
    let reason = |name: &str| num(find_metric(&lines, name).unwrap(), "value") as u64;
    let total: u64 = names::ABORT_REASONS.iter().map(|n| reason(n)).sum();
    assert_eq!(total, stats.abort_events, "taxonomy must partition the abort events");
    assert_eq!(reason(names::ABORT_CONFLICT_LOSER), stats.abort_events);
    assert_eq!(reason(names::ABORT_LOG_EXHAUSTED), 0);
    assert_eq!(reason(names::ABORT_DELAYED_READ), 0);
    assert_eq!(reason(names::ABORT_USER), 0);

    // Fault counters: present, and all zero on a fault-free run — both in
    // the export and through the struct view.
    for name in names::FAULT_COUNTERS {
        let c = find_metric(&lines, name).unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(num(c, "value"), 0.0, "{name} must be zero without a fault plan");
    }
    assert_eq!(stats.faults, FaultStats::default());
    assert_eq!(FaultStats::from_registry(server.telemetry()), FaultStats::default());

    // Batch-latency percentiles are derivable and ordered.
    let h = find_metric(&lines, names::SERVER_BATCH_NS).expect("missing server.batch_ns");
    assert_eq!(num(h, "count") as u64, stats.batches);
    let (p50, p95, p99) = (num(h, "p50"), num(h, "p95"), num(h, "p99"));
    assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99, "p50 {p50} p95 {p95} p99 {p99}");
    assert!(num(h, "min") <= p50 && p99 <= num(h, "max"));

    // Device-level coverage rode along: kernel launches and transfers.
    assert!(num(find_metric(&lines, names::GPU_KERNEL_LAUNCHES).unwrap(), "value") > 0.0);
    assert!(num(find_metric(&lines, names::GPU_BYTES_H2D).unwrap(), "value") > 0.0);

    // Trace spans for the phases are in the export too.
    let span_names: Vec<&str> = lines
        .iter()
        .filter(|l| l.get("type").and_then(JsonValue::as_str) == Some("span"))
        .filter_map(|l| l.get("name").and_then(JsonValue::as_str))
        .collect();
    for want in ["ltpg.h2d", "ltpg.execute", "ltpg.detect", "ltpg.writeback", "ltpg.d2h"] {
        assert!(span_names.contains(&want), "missing trace span {want}");
    }
}

#[test]
fn pipelined_critical_path_stays_below_the_serial_sum() {
    // The honest-latency fix: a batch's critical path (bottleneck stage
    // under transfer/compute overlap) must be strictly below the serial
    // six-phase sum whenever more than one stage does work.
    let mut server = contended_server(64, 8, 64);
    server.drain(10);
    let reg = server.telemetry();
    let serial = reg.histogram(names::LTPG_BATCH_TOTAL_NS).snapshot();
    let critical = reg.histogram(names::LTPG_BATCH_CRITICAL_NS).snapshot();
    assert_eq!(serial.count, critical.count);
    assert!(critical.sum > 0);
    assert!(
        critical.sum < serial.sum,
        "critical {} must undercut serial {}",
        critical.sum,
        serial.sum
    );
}

#[test]
fn two_servers_do_not_share_telemetry() {
    let mut a = contended_server(50, 5, 16);
    let b = contended_server(50, 5, 16);
    a.drain(100);
    // Server `b` never ticked: its registry must not have absorbed `a`'s.
    assert_eq!(b.telemetry().counter_value(names::SERVER_BATCHES), 0);
    assert!(a.telemetry().counter_value(names::SERVER_BATCHES) > 0);
}
