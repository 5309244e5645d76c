//! Machine-speed normalisation of host times.
//!
//! The boxes this benchmark runs on are small VMs on shared hosts. What the
//! neighbours do changes, over seconds and over minutes, how fast *identical*
//! code runs here: the core clock steps between four levels (a register-only
//! chain takes 458/505/586/642 µs), and code that uses the caches slows
//! further while a neighbour shares them (one `ycsb_contended_engine` batch:
//! 22 ms → 56 ms and back inside one four-minute run, the chain only
//! 1.3× slower meanwhile). A 16-second run samples that at random, so raw
//! wall-time medians of identical runs differ by 10–40 %, which no usable
//! bound survives.
//!
//! So every timed section is bracketed by a short fixed calibration kernel
//! of three parts, each a different way the core gets slower:
//!
//! * **chain** — a dependent multiply chain in registers: the core clock;
//! * **reads** — four independent streams of random reads over a 2 MiB
//!   table: load ports and the private caches, which a busy sibling thread
//!   takes a share of;
//! * **writes** — random read-modify-writes over a 1 MiB table: the same
//!   for stores.
//!
//! Every probe does exactly the same work on the same addresses, and an
//! untimed pass over both tables comes first, so the timed parts measure how
//! fast the caches answer *now*, not how much of the tables the workload
//! happened to leave in them. Probes that do depend on that (a 64 MiB
//! pointer chase, cold 1 MiB and 8 MiB streams) were measured and left out:
//! they follow the workload's own footprint as much as the neighbours', and
//! scaling by the 8 MiB stream made `tpcc_engine`'s spread 2.7 times wider
//! than no scaling at all.
//!
//! The mean of the three parts' times, each over its quiet-state time on the
//! reference box ([`REFERENCE_NS`]), is the *speed factor* of that moment,
//! and host times are reported divided by it: "reference-speed"
//! milliseconds. On a quiet reference box the factor is near 1 and the
//! figures are plain wall time. Raw wall time is kept next to every
//! normalised figure in the run record, the span trace and the closure check
//! are raw, and the factor and its three parts are reported
//! (`host.speed_factor_p50`, `speed_factor` in the record), so nothing is
//! hidden by the scaling.

use std::time::Instant;

/// The calibration kernel's parts, in the order they run.
pub const PARTS: [&str; 3] = ["chain", "reads", "writes"];

/// Quiet-state time of each part of one [`probe`](SpeedMeter::probe) on the
/// reference box (2-core Xeon @ 2.1 GHz VM), ns.
/// Changing one rescales every `host_*` metric, so they change only together
/// with a re-baselined ledger.
pub const REFERENCE_NS: [f64; 3] = [450_000.0, 100_000.0, 100_000.0];

const CHAIN_ITERATIONS: u64 = 300_000;
/// `u32` entries of the read table (2 MiB) and reads per probe, in four
/// independent streams so that misses overlap as they do in real code.
const READ_TABLE: usize = 1 << 19;
const READ_ROUNDS: usize = 20_000;
/// `u64` entries of the write table (1 MiB) and updates per probe.
const WRITE_TABLE: usize = 1 << 17;
const WRITE_ROUNDS: usize = 40_000;

const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Brackets timed sections with calibration probes.
pub struct SpeedMeter {
    read_table: Vec<u32>,
    write_table: Vec<u64>,
    prev: [f64; 3],
    /// Every factor handed out, for the record.
    pub factors: Vec<f64>,
    /// The three parts of each of those factors, each over its reference.
    pub parts: Vec<[f64; 3]>,
}

impl SpeedMeter {
    /// Start metering: the first probe opens the first interval.
    pub fn start() -> SpeedMeter {
        let mut seed = SEED;
        let mut m = SpeedMeter {
            read_table: (0..READ_TABLE)
                .map(|_| xorshift(&mut seed) as u32)
                .collect(),
            write_table: (0..WRITE_TABLE).map(|_| xorshift(&mut seed)).collect(),
            prev: [0.0; 3],
            factors: Vec::new(),
            parts: Vec::new(),
        };
        m.probe(); // warm the code path
        m.prev = m.probe();
        m
    }

    /// One run of the calibration kernel; returns each part's wall time over
    /// its reference.
    fn probe(&mut self) -> [f64; 3] {
        // black_box keeps each loop a real loop: without it the optimizer
        // hoists most of the work out. Every part starts from the same
        // constants on every probe.
        let t = Instant::now();
        let mut x = SEED;
        let mut acc = x;
        for i in 0..CHAIN_ITERATIONS {
            xorshift(&mut x);
            acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(x ^ i));
        }
        let chain = t.elapsed().as_nanos() as f64;

        // The untimed pass over both tables.
        let warm = self.read_table.iter().fold(0u32, |s, v| s.wrapping_add(*v));
        let warm = self
            .write_table
            .iter()
            .fold(u64::from(warm), |s, v| s.wrapping_add(*v));
        std::hint::black_box(warm);

        let t = Instant::now();
        let mask = (READ_TABLE - 1) as u32;
        let mut at = [1u32, 0x4000_0001, 0x8000_0001, 0xc000_0001];
        for _ in 0..READ_ROUNDS {
            for a in &mut at {
                let v = self.read_table[(*a & mask) as usize];
                *a = a.wrapping_mul(2654435761).wrapping_add(v);
            }
        }
        std::hint::black_box(at);
        let reads = t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        let mut r = SEED;
        for _ in 0..WRITE_ROUNDS {
            let i = xorshift(&mut r) as usize & (WRITE_TABLE - 1);
            self.write_table[i] = self.write_table[i].wrapping_add(r).rotate_left(5);
        }
        let writes = t.elapsed().as_nanos() as f64;

        [
            chain / REFERENCE_NS[0],
            reads / REFERENCE_NS[1],
            writes / REFERENCE_NS[2],
        ]
    }

    /// Close the interval opened by the previous probe: probe again and
    /// return the interval's speed factor (each part averaged over the two
    /// bracketing probes, then the mean of the parts; > 1 means the machine
    /// was slower than reference). Call with the stopwatch stopped.
    pub fn lap(&mut self) -> f64 {
        let now = self.probe();
        let parts: [f64; 3] = std::array::from_fn(|p| (self.prev[p] + now[p]) / 2.0);
        let factor = parts.iter().sum::<f64>() / parts.len() as f64;
        self.prev = now;
        self.factors.push(factor);
        self.parts.push(parts);
        factor
    }
}

/// Wall time at reference speed.
pub fn normalised(raw_ns: u64, factor: f64) -> u64 {
    (raw_ns as f64 / factor).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_interval_is_scaled_back_to_reference_speed() {
        // A section that took 130 ms while the probe ran 30 % slow would
        // have taken 100 ms at reference speed.
        assert_eq!(normalised(130_000_000, 1.3), 100_000_000);
        assert_eq!(normalised(100, 1.0), 100);
    }

    #[test]
    fn lap_averages_the_bracketing_probes_and_then_the_parts() {
        let mut m = SpeedMeter::start();
        // The opening probe read exactly reference on every part; the factor
        // is pulled toward whatever this machine measures now, and recorded.
        m.prev = [1.0; 3];
        let f = m.lap();
        let expect = m.prev.iter().map(|now| (1.0 + now) / 2.0).sum::<f64>() / 3.0;
        assert!((f - expect).abs() < 1e-12);
        assert_eq!(m.factors, vec![f]);
        assert_eq!(m.parts.len(), 1);
        assert!(m.parts[0].iter().all(|p| *p > 0.5));
    }
}
