//! Helpers shared by the release memory guards (`setup_peak`,
//! `engine_peak`, `fleet_peak`, `server_peak`). Each guard is alone in its
//! target, so the peak it reads is its own process's.

/// The process's peak resident set in MB of 1 024 kB (`VmHWM`), the
/// ledger's unit.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("a VmHWM line");
    kb / 1_024.0
}
