//! Criterion micro-bench: what one `FrontEnd::offer` costs in the
//! front-end itself, against the number of *registered* clients.
//!
//! Every client registers (one arrival each, drained), then a single
//! client keeps offering: one active channel, everything else idle. The
//! sink commits each sealed batch at once at a fixed simulated cost, so
//! the figure is streamer + admission + batcher + dispatcher bookkeeping
//! and no engine. The policy is the ledger's `fleet_server_ycsb` one
//! (batch 256, queue timeout on, so the expiry sweep runs on every pump).
//!
//! The per-offer cost must not depend on the population: CI runs this
//! with `--quick` and holds the 200 000-client median to at most 3x the
//! 200-client one (a same-process ratio, so the speed of the box cancels).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ltpg_front::{FrontConfig, FrontEnd, TickOutcome, TickSink};
use ltpg_telemetry::Registry;
use ltpg_txn::{ProcId, Tid, Txn};

/// Commits everything submitted on the next tick, in TID order.
struct InstantSink {
    next_tid: u64,
    queued: Vec<Tid>,
    registry: Arc<Registry>,
}

impl TickSink for InstantSink {
    fn submit_batch(&mut self, txns: Vec<Txn>) {
        for _ in txns {
            self.queued.push(Tid(self.next_tid));
            self.next_tid += 1;
        }
    }

    fn tick_outcome(&mut self) -> Option<TickOutcome> {
        if self.queued.is_empty() {
            return None;
        }
        let committed = std::mem::take(&mut self.queued);
        Some(TickOutcome { committed, aborted: Vec::new(), sim_ns: 1_000.0 })
    }

    fn queued(&self) -> usize {
        self.queued.len()
    }

    fn next_tid(&self) -> u64 {
        self.next_tid
    }

    fn fault_delay_ns(&self) -> f64 {
        0.0
    }

    fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }
}

fn txn() -> Txn {
    Txn::new(ProcId(0), vec![], vec![])
}

fn bench_offer(c: &mut Criterion) {
    let mut group = c.benchmark_group("front_offer");
    for clients in [200u32, 20_000, 200_000] {
        let sink =
            InstantSink { next_tid: 1, queued: Vec::new(), registry: Registry::new_shared() };
        let mut cfg = FrontConfig::new(256, 100_000);
        cfg.client_queue_cap = 64;
        cfg.max_queued = 4_096;
        cfg.max_backlog_ns = 800_000;
        cfg.queue_timeout_ns = Some(1_600_000);
        let mut fe = FrontEnd::new(sink, cfg);
        let mut now = 0u64;
        for client in 0..clients {
            now += 200;
            assert!(fe.offer(client, now, txn()));
        }
        assert_eq!(fe.clients(), clients as usize);
        group.bench_function(BenchmarkId::new("registered_clients", clients), |b| {
            b.iter(|| {
                now += 200;
                black_box(fe.offer(clients / 2, now, txn()))
            })
        });
        fe.finish(16);
        assert!(fe.conserves() && fe.pending() == 0 && fe.stats().shed() == 0);
    }
    group.finish();
}

criterion_group!(benches, bench_offer);
criterion_main!(benches);
