//! Lightweight observability substrate for the LTPG reproduction.
//!
//! The crate provides three building blocks, all `std`-only and lock-light so
//! they can sit on simulated-GPU hot paths without perturbing the costs the
//! simulator charges:
//!
//! * a [`Registry`] of named metrics — atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket log-scale [`Histogram`]s with p50/p95/p99 readout;
//! * span-style phase tracing over a bounded ring buffer ([`TraceLog`]),
//!   fed either from simulated-time spans ([`TraceLog::record`]) or from
//!   wall-clock drop guards ([`Span`]);
//! * a JSONL exporter ([`Registry::export_jsonl`]) plus the workspace's one
//!   JSON tree, pretty writer and parser ([`export::JsonValue`],
//!   [`export::validate_jsonl`]) used by the experiment records, tests and
//!   CI smoke jobs.
//!
//! Metric naming is centralised in [`names`] so every crate that reports a
//! given quantity agrees on the key that lands in the JSONL stream.
//!
//! # Ownership model
//!
//! Components that live inside one server instance share that server's
//! `Arc<Registry>` so two servers in one process (e.g. a test harness running
//! a reference and a subject side by side) never cross-contaminate. Free
//! standing components (bench binaries, examples, the storage layer) default
//! to the process-wide [`global()`] registry.

#![warn(missing_docs)]

pub mod export;
pub mod histogram;
pub mod names;
pub mod registry;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry};
pub use trace::{Span, TraceEvent, TraceLog};

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide default registry.
///
/// Components that are not owned by a server instance (bench drivers,
/// examples, the WAL) report here. The registry is created on first use and
/// lives for the remainder of the process.
pub fn global() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        let a = Arc::clone(global());
        a.counter("test.global").add(3);
        assert_eq!(global().counter_value("test.global"), 3);
    }
}
