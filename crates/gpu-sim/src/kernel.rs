//! Kernel execution: warps, lanes, divergence accounting, and the
//! `Device::launch` entry points.
//!
//! A kernel is a Rust closure executed once per lane. Lanes are grouped into
//! warps of `warp_size`; the simulated duration of a warp is the **sum over
//! distinct branch tags of the maximum lane time within each tag** — the
//! SIMT lockstep/re-convergence model: lanes on the same path run together,
//! lanes on different paths serialize. Kernel time is
//! `max(critical_warp, total_warp_cycles / warp_parallelism)` — bounded both
//! by the slowest warp and by how many warps the device can keep in flight.
//!
//! Every launch runs its lanes in warp order on the launching thread, so
//! the atomics' contention meters, the order of the `f64` sums and whatever
//! a lane writes see one interleaving at any host thread count. What the
//! host's other threads may do is a launch's *pre-pass*
//! ([`Device::launch_with_pre`]): a pure function of the lane index, run
//! ahead by helper threads into per-lane slots the caller keeps, and
//! borrowed by the lanes in lane order.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::atomic::{SimAtomicU32, SimAtomicU64};
use crate::cost::CostModel;
use crate::device::Device;

/// Per-lane counter block folded into [`crate::DeviceStats`] at kernel end.
#[derive(Debug, Default, Clone, Copy)]
struct LaneCounters {
    atomic_ops: u64,
    serial_depth: u64,
    words_read: u64,
    words_written: u64,
    /// Uncoalesced (random-key) words — under unified memory each one is
    /// a potential page fault.
    random_words: u64,
}

/// Execution context handed to the kernel closure, one per lane.
///
/// All methods that touch simulated memory charge the cost model; the
/// closure is free to do arbitrary host work in addition, but only charged
/// work advances the simulated clock.
pub struct Lane<'k> {
    /// Index of this lane's warp within the launch.
    pub warp_id: usize,
    /// This lane's index within its warp (`0..warp_size`).
    pub lane_id: u32,
    /// Global lane index within the launch (= item index).
    pub global_id: usize,
    cycles: f64,
    /// Cycles of light work (ALU, atomic issue, cached probes) that run at
    /// the device's full parallelism rather than the memory-bound rate.
    light_cycles: f64,
    /// Cycles spent *waiting* on serialized atomics. Wait time stretches
    /// the warp's critical path but does not occupy device throughput —
    /// the memory subsystem services other warps meanwhile. This split is
    /// what lets one hot `atomicMin` address cost 167 µs of latency
    /// (paper Table VII) without implying seconds of device busy time.
    wait_cycles: f64,
    tag: u32,
    epoch: u32,
    cost: &'k CostModel,
    /// Extra cycles charged per global word in zero-copy mode.
    access_surcharge: f64,
    counters: LaneCounters,
}

impl<'k> Lane<'k> {
    /// Declare which branch path this lane is on. Lanes of one warp with
    /// different tags serialize (divergence). The default tag is 0.
    #[inline]
    pub fn branch(&mut self, tag: u32) {
        self.tag = tag;
    }

    /// Current simulated cycles charged to this lane.
    #[inline]
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Charge `n` plain ALU operations (light work).
    #[inline]
    pub fn charge_alu(&mut self, n: u32) {
        self.light_cycles += f64::from(n) * self.cost.alu_op_cycles;
    }

    /// Charge an explicit amount of memory-bound cycles (escape hatch for
    /// composite ops).
    #[inline]
    pub fn charge_cycles(&mut self, cycles: f64) {
        self.cycles += cycles;
    }

    /// Charge an explicit amount of *light* cycles (cache-resident probes,
    /// scans of hot structures): these scale with the device's full
    /// parallelism.
    #[inline]
    pub fn charge_light(&mut self, cycles: f64) {
        self.light_cycles += cycles;
    }

    /// Charge a coalesced read of `words` 8-byte words from global memory.
    #[inline]
    pub fn read_global(&mut self, words: u32) {
        let w = f64::from(words);
        self.cycles += w * (self.cost.global_read_cycles + self.access_surcharge);
        self.counters.words_read += u64::from(words);
    }

    /// Charge an uncoalesced (random-key) read of `words` words.
    #[inline]
    pub fn read_global_random(&mut self, words: u32) {
        let w = f64::from(words);
        self.cycles +=
            w * (self.cost.global_read_cycles * self.cost.uncoalesced_factor + self.access_surcharge);
        self.counters.words_read += u64::from(words);
        self.counters.random_words += u64::from(words);
    }

    /// Charge a coalesced write of `words` words to global memory.
    #[inline]
    pub fn write_global(&mut self, words: u32) {
        let w = f64::from(words);
        self.cycles += w * (self.cost.global_write_cycles + self.access_surcharge);
        self.counters.words_written += u64::from(words);
    }

    /// Charge an uncoalesced write of `words` words.
    #[inline]
    pub fn write_global_random(&mut self, words: u32) {
        let w = f64::from(words);
        self.cycles += w
            * (self.cost.global_write_cycles * self.cost.uncoalesced_factor + self.access_surcharge);
        self.counters.words_written += u64::from(words);
        self.counters.random_words += u64::from(words);
    }

    /// Charge `n` shared-memory accesses (light work).
    #[inline]
    pub fn shared_access(&mut self, n: u32) {
        self.light_cycles += f64::from(n) * self.cost.shared_access_cycles;
    }

    /// Charge `steps` warp-shuffle / intra-warp broadcast steps (used by the
    /// delayed-update warp merge, paper Example 3).
    #[inline]
    pub fn warp_shuffle(&mut self, steps: u32) {
        self.light_cycles += f64::from(steps) * self.cost.warp_shuffle_cycles;
    }

    /// Cycles spent waiting on serialized atomics so far.
    #[inline]
    pub fn wait_cycles(&self) -> f64 {
        self.wait_cycles
    }

    #[inline]
    fn charge_atomic(&mut self, prior: u32) {
        self.light_cycles += self.cost.atomic_base_cycles;
        // Serialization is wait, not work: it lengthens this warp's
        // critical path while the device services others.
        self.wait_cycles += f64::from(prior) * self.cost.atomic_serial_cycles;
        self.counters.atomic_ops += 1;
        self.counters.serial_depth += u64::from(prior);
    }

    /// `atomicMin` on a 64-bit cell; returns the previous value.
    #[inline]
    pub fn atomic_min_u64(&mut self, cell: &mut SimAtomicU64, v: u64) -> u64 {
        let (prev, prior) = cell.fetch_min_metered(v, self.epoch);
        self.charge_atomic(prior);
        prev
    }

    /// `atomicCAS` on a 64-bit cell; `Ok(previous)` on success.
    #[inline]
    pub fn atomic_cas_u64(&mut self, cell: &mut SimAtomicU64, expect: u64, new: u64) -> Result<u64, u64> {
        let (r, prior) = cell.cas_metered(expect, new, self.epoch);
        self.charge_atomic(prior);
        r
    }

    /// `atomicOr` on a 32-bit cell; returns the previous value.
    #[inline]
    pub fn atomic_or_u32(&mut self, cell: &mut SimAtomicU32, v: u32) -> u32 {
        let (prev, prior) = cell.fetch_or_metered(v, self.epoch);
        self.charge_atomic(prior);
        prev
    }
}

/// Summary of one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// The launch label (for phase attribution in the harness).
    pub name: &'static str,
    /// Lanes (= items) executed.
    pub lanes: usize,
    /// Warps executed.
    pub warps: usize,
    /// Simulated duration of the kernel, nanoseconds (including launch
    /// overhead and page-fault charges).
    pub sim_ns: f64,
    /// Cycles of the slowest warp (critical path).
    pub critical_warp_cycles: f64,
    /// Sum of all warp cycles (throughput bound before dividing by the
    /// device's warp parallelism).
    pub total_warp_cycles: f64,
    /// Warps that diverged (more than one branch tag).
    pub divergent_warps: u64,
    /// Atomics issued in this kernel.
    pub atomic_ops: u64,
    /// Summed serialization depth of those atomics.
    pub atomic_serial_depth: u64,
    /// Unified-memory page faults charged to this kernel.
    pub page_faults: u64,
}

/// Running totals of one launch's warps, folded in warp order.
#[derive(Debug, Default, Clone, Copy)]
struct WarpTotals {
    total_cycles: f64,
    total_light_cycles: f64,
    critical_cycles: f64,
    lanes: u64,
    divergent: u64,
    counters: LaneCounters,
}

/// Slot states of [`PreSlots`]: nobody has the lane yet, a helper is
/// computing it, a helper's value waits in the slot, the launching thread
/// has the lane.
const FREE: u8 = 0;
const CLAIMED: u8 = 1;
const READY: u8 = 2;
const TAKEN: u8 = 3;

/// Per-lane values of a launch's pre-pass (see [`Device::launch_with_pre`]).
/// The caller keeps them from launch to launch: the pre-pass fills each
/// lane's value in place, so whatever buffers a value owns are reused by
/// the next launch's lane in its slot, and a launch no larger than an
/// earlier one allocates nothing for the slots themselves. After a launch,
/// slot *k* holds lane *k*'s value until the next launch
/// ([`get_mut`](Self::get_mut), [`values_mut`](Self::values_mut)).
pub struct PreSlots<P> {
    slots: Vec<PreSlot<P>>,
    /// Values the launching thread filled for lanes a helper was still
    /// filling. They are swapped into those lanes' slots once the helpers
    /// are joined, and the helpers' values they get in exchange serve the
    /// next such lane.
    spare: Vec<P>,
    /// The lane of each spare value in use in this launch.
    spare_lanes: Vec<usize>,
}

struct PreSlot<P> {
    state: AtomicU8,
    value: Mutex<P>,
}

impl<P> PreSlot<P> {
    /// The value cell. A panic inside the pre-pass poisons it, and the
    /// next pre-pass of the lane overwrites whatever it left.
    fn value(&self) -> MutexGuard<'_, P> {
        self.value.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn value_mut(&mut self) -> &mut P {
        self.value.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper's turn at lane `k`, this slot's: fill it unless another
    /// thread has it. Returns whether the launching thread filled the lane
    /// too, having reached it while the helper was at it.
    fn offer(&self, k: usize, pre: &impl Fn(usize, &mut P)) -> bool {
        if self.state.compare_exchange(FREE, CLAIMED, Ordering::Acquire, Ordering::Relaxed).is_err() {
            return false;
        }
        pre(k, &mut *self.value());
        // Fails when the launching thread reached the lane first and
        // filled a spare value for it.
        self.state.compare_exchange(CLAIMED, READY, Ordering::Release, Ordering::Relaxed).is_err()
    }
}

impl<P> Default for PreSlots<P> {
    fn default() -> Self {
        PreSlots { slots: Vec::new(), spare: Vec::new(), spare_lanes: Vec::new() }
    }
}

impl<P> PreSlots<P> {
    /// Lane `k`'s value, as the last launch over at least `k + 1` lanes
    /// left it.
    pub fn get_mut(&mut self, k: usize) -> &mut P {
        self.slots[k].value_mut()
    }

    /// The values of lanes `0..lanes`, in lane order.
    pub fn values_mut(&mut self, lanes: usize) -> impl Iterator<Item = &mut P> {
        self.slots[..lanes].iter_mut().map(PreSlot::value_mut)
    }
}

impl<P: Default> PreSlots<P> {
    /// At least `lanes` free slots, each value as its last lane left it.
    fn reset(&mut self, lanes: usize) {
        if self.slots.len() < lanes {
            self.slots.resize_with(lanes, || PreSlot { state: AtomicU8::new(FREE), value: Mutex::default() });
        }
        for slot in &mut self.slots[..lanes] {
            *slot.state.get_mut() = FREE;
        }
        // A launch that unwound left its spare lanes unswapped.
        self.spare_lanes.clear();
    }
}

/// Tells the helpers to stop once the launching thread is past the last
/// lane, or unwinds out of one.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

impl Device {
    /// Launch a kernel over `items`, one lane per item. Returns the kernel
    /// report; device clock and statistics are updated.
    pub fn launch<I, F>(&mut self, name: &'static str, items: &[I], mut f: F) -> KernelReport
    where
        F: FnMut(&mut Lane<'_>, &I),
    {
        self.launch_indexed(name, items.len(), |lane| f(lane, &items[lane.global_id]))
    }

    /// Launch a kernel whose lanes each start from a value `pre` fills in
    /// place: `pre(global_id, value)` is a pure function of the lane index,
    /// given no [`Lane`] and so unable to charge the simulated clock. It
    /// writes into lane *k*'s slot of `slots`, whose value the caller keeps
    /// from launch to launch, so a value that owns buffers fills the ones
    /// the slot's last lane left. Up to `parallel_host_threads − 1` helper
    /// threads, less those a [`crate::HostThreadLease`] holds (one scoped
    /// spawn per launch of more than one warp), fill slots ahead of the
    /// launching thread; the launching thread runs `f` over the lanes in
    /// warp order, as every launch does, each lane borrowing its slot's
    /// value, filled by a helper or inline when no helper has it — it never
    /// waits for a lane. A lane a helper is still filling when the
    /// launching thread reaches it is filled again inline, into a spare
    /// value that takes the slot's place once the helpers are joined; only
    /// such a lane can need a value the slots have not held before.
    /// Everything the report and the device's counters hold is therefore
    /// independent of the thread count; only
    /// [`crate::DeviceStats::helper_lanes`] says how the work was shared. A
    /// panic in `pre` on a helper surfaces here once the lanes have run.
    /// After the launch, slot *k* holds lane *k*'s value
    /// ([`PreSlots::get_mut`]).
    ///
    /// The lanes' atomics take their words by `&mut`, so `pre` can share
    /// only what no lane of the launch writes:
    ///
    /// ```
    /// use ltpg_gpu_sim::{Device, DeviceConfig, PreSlots, SimAtomicU64};
    ///
    /// let mut device = Device::new(DeviceConfig::default());
    /// let (base, mut hot) = (7u64, SimAtomicU64::new(u64::MAX));
    /// let mut slots = PreSlots::default();
    /// device.launch_with_pre("min", 64, &mut slots, |k, v: &mut u64| *v = base + k as u64, |lane, v| {
    ///     lane.atomic_min_u64(&mut hot, *v);
    /// });
    /// assert_eq!((hot.load(), *slots.get_mut(63)), (7, 70));
    /// ```
    ///
    /// A pre-pass that reads a word the lanes update does not compile:
    ///
    /// ```compile_fail,E0502
    /// use ltpg_gpu_sim::{Device, DeviceConfig, PreSlots, SimAtomicU64};
    ///
    /// let mut device = Device::new(DeviceConfig::default());
    /// let mut hot = SimAtomicU64::new(u64::MAX);
    /// let mut slots = PreSlots::default();
    /// device.launch_with_pre("min", 64, &mut slots, |k, v: &mut u64| *v = hot.load() + k as u64, |lane, v| {
    ///     lane.atomic_min_u64(&mut hot, *v);
    /// });
    /// ```
    pub fn launch_with_pre<P, G, F>(
        &mut self,
        name: &'static str,
        lanes: usize,
        slots: &mut PreSlots<P>,
        pre: G,
        mut f: F,
    ) -> KernelReport
    where
        P: Default + Send,
        G: Fn(usize, &mut P) + Sync,
        F: FnMut(&mut Lane<'_>, &mut P),
    {
        let warp_size = self.cfg.warp_size.max(1) as usize;
        let n_warps = lanes.div_ceil(warp_size);
        let spare = self.cfg.parallel_host_threads.saturating_sub(1 + crate::device::leased_host_threads());
        let helpers = spare.min(n_warps.saturating_sub(1));
        slots.reset(lanes);
        let PreSlots { slots: cells, spare, spare_lanes } = slots;
        if helpers == 0 {
            return self.launch_indexed(name, lanes, |lane| {
                let value = cells[lane.global_id].value_mut();
                pre(lane.global_id, value);
                f(lane, value);
            });
        }
        let shared = &**cells;
        // The warp the launching thread is in, and the next warp a helper
        // may start (the launching thread moves it past each warp it
        // reaches).
        let (at, next, twice) = (AtomicUsize::new(0), AtomicUsize::new(1), AtomicU64::new(0));
        let (started, stop) = (AtomicBool::new(false), AtomicBool::new(false));
        let launcher = std::thread::current();
        let helper = || {
            started.store(true, Ordering::Release);
            launcher.unpark();
            // Sharing the launching thread's CPU, let it run on.
            std::thread::yield_now();
            while !stop.load(Ordering::Relaxed) {
                let w = next.fetch_add(1, Ordering::Relaxed);
                if w >= n_warps {
                    break;
                }
                let lo = w * warp_size;
                for (k, slot) in (lo..).zip(&shared[lo..((w + 1) * warp_size).min(lanes)]) {
                    // Claim only lanes at least half a warp past the
                    // launching thread's warp: it then cannot reach a lane
                    // a helper is still filling (and fill it twice)
                    // unless that one lane's pre-pass outlasts half a warp
                    // of lanes. Passed-over lanes run inline.
                    if k >= (at.load(Ordering::Relaxed) + 1) * warp_size + warp_size / 2
                        && slot.offer(k, &pre)
                    {
                        twice.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        };
        let mut helper_lanes = 0u64;
        let outcome = std::thread::scope(|s| {
            let handles: Vec<_> = (0..helpers).map(|_| s.spawn(helper)).collect();
            // Linux queues a new thread on the spawning thread's CPU and may
            // move it to an idle one only at its next balancing tick:
            // milliseconds, longer than a small launch. Blocking until a
            // helper runs lets the launching thread be woken on the idle CPU
            // instead. This is the one wait of a launch.
            while !started.load(Ordering::Acquire) {
                std::thread::park();
            }
            let stopping = StopOnDrop(&stop);
            let report = self.launch_indexed(name, lanes, |lane| {
                if lane.lane_id == 0 {
                    at.store(lane.warp_id, Ordering::Relaxed);
                    next.fetch_max(lane.warp_id + 1, Ordering::Relaxed);
                }
                let k = lane.global_id;
                let slot = &shared[k];
                match slot.state.swap(TAKEN, Ordering::AcqRel) {
                    READY => {
                        helper_lanes += 1;
                        f(lane, &mut *slot.value());
                    }
                    // No helper claimed the lane, and none will now.
                    FREE => {
                        let mut value = slot.value();
                        pre(k, &mut *value);
                        f(lane, &mut *value);
                    }
                    // A helper is filling the slot.
                    _ => {
                        if spare_lanes.len() == spare.len() {
                            spare.push(P::default());
                        }
                        let value = &mut spare[spare_lanes.len()];
                        spare_lanes.push(k);
                        pre(k, value);
                        f(lane, value);
                    }
                }
            });
            drop(stopping);
            // Join every helper, keeping the first panic: a helper left
            // unjoined that panicked makes the scope panic with a payload of
            // its own, and the helper's would be lost.
            let joined: Result<(), _> = handles.into_iter().map(|h| h.join()).fold(Ok(()), Result::and);
            joined.map(|()| report)
        });
        self.stats.helper_lanes += helper_lanes;
        self.stats.lanes_computed_twice += twice.into_inner();
        let report = outcome.unwrap_or_else(|payload| resume_unwind(payload));
        for (j, k) in spare_lanes.drain(..).enumerate() {
            std::mem::swap(cells[k].value_mut(), &mut spare[j]);
        }
        report
    }

    /// Launch a kernel of `lanes` lanes identified only by `Lane::global_id`:
    /// the one lane loop, every lane warp by warp on the calling thread.
    pub fn launch_indexed<F>(&mut self, name: &'static str, lanes: usize, mut f: F) -> KernelReport
    where
        F: FnMut(&mut Lane<'_>),
    {
        let warp_size = self.cfg.warp_size.max(1) as usize;
        self.epoch = self.epoch.wrapping_add(1);
        let epoch = self.epoch;
        let n_warps = lanes.div_ceil(warp_size);
        let surcharge = match self.cfg.memory_mode {
            crate::device::MemoryMode::ZeroCopy => self.cfg.cost.zero_copy_access_cycles,
            _ => 0.0,
        };

        let mut agg = WarpTotals::default();
        // Per branch tag: (tag, max heavy work, max light work, max total
        // latency).
        let mut tag_max: Vec<(u32, f64, f64, f64)> = Vec::with_capacity(4);
        for w in 0..n_warps {
            tag_max.clear();
            let lo = w * warp_size;
            let hi = ((w + 1) * warp_size).min(lanes);
            for g in lo..hi {
                let mut lane = Lane {
                    warp_id: w,
                    lane_id: (g - lo) as u32,
                    global_id: g,
                    cycles: 0.0,
                    light_cycles: 0.0,
                    wait_cycles: 0.0,
                    tag: 0,
                    epoch,
                    cost: &self.cfg.cost,
                    access_surcharge: surcharge,
                    counters: LaneCounters::default(),
                };
                f(&mut lane);
                let lat = lane.cycles + lane.light_cycles + lane.wait_cycles;
                match tag_max.iter_mut().find(|(t, ..)| *t == lane.tag) {
                    Some((_, work, light, l)) => {
                        *work = work.max(lane.cycles);
                        *light = light.max(lane.light_cycles);
                        *l = l.max(lat);
                    }
                    None => tag_max.push((lane.tag, lane.cycles, lane.light_cycles, lat)),
                }
                agg.counters.atomic_ops += lane.counters.atomic_ops;
                agg.counters.serial_depth += lane.counters.serial_depth;
                agg.counters.words_read += lane.counters.words_read;
                agg.counters.words_written += lane.counters.words_written;
                agg.counters.random_words += lane.counters.random_words;
                agg.lanes += 1;
            }
            // SIMT lockstep: same-tag lanes run together (max), distinct
            // tags serialize (sum). Heavy/light work feed the two
            // throughput bounds; work + wait feeds the critical path.
            let warp_work: f64 = tag_max.iter().map(|(_, w, _, _)| w).sum();
            let warp_light: f64 = tag_max.iter().map(|(_, _, l, _)| l).sum();
            let warp_lat: f64 = tag_max.iter().map(|(_, _, _, l)| l).sum();
            if tag_max.len() > 1 {
                agg.divergent += 1;
            }
            agg.total_cycles += warp_work;
            agg.total_light_cycles += warp_light;
            agg.critical_cycles = agg.critical_cycles.max(warp_lat);
        }

        // Kernel duration: critical warp latency vs. the memory-bound and
        // light-work throughput limits.
        let par = self.cfg.cost.warp_parallelism.max(1.0);
        let light_par = self.cfg.cost.light_parallelism.max(1.0);
        let kernel_cycles = agg
            .critical_cycles
            .max(agg.total_cycles / par)
            .max(agg.total_light_cycles / light_par);
        let mut sim_ns = self.cfg.cost.kernel_launch_ns + self.cfg.cost.cycles_to_ns(kernel_cycles);

        // Unified-memory fault model: charge faults proportional to the
        // bytes this kernel touched and the fraction of the footprint that
        // cannot fit on the device.
        let fault_frac = self.fault_fraction();
        let mut faults = 0u64;
        if fault_frac > 0.0 {
            // Every uncoalesced access potentially lands on a distinct
            // page; sequential traffic faults once per page.
            let seq_words =
                (agg.counters.words_read + agg.counters.words_written) - agg.counters.random_words;
            let seq_faults = seq_words as f64 * 8.0 / self.cfg.cost.page_bytes as f64;
            let random_faults = agg.counters.random_words as f64;
            faults = ((seq_faults + random_faults) * fault_frac).ceil() as u64;
            sim_ns += faults as f64 * self.cfg.cost.page_fault_ns / self.cfg.fault_overlap.max(1.0);
        }

        {
            let s = &mut self.stats;
            s.busy_ns += sim_ns;
            s.kernels += 1;
            s.lanes_run += agg.lanes;
            s.divergent_warps += agg.divergent;
            s.atomic_ops += agg.counters.atomic_ops;
            s.atomic_serial_depth += agg.counters.serial_depth;
            s.global_words_read += agg.counters.words_read;
            s.global_words_written += agg.counters.words_written;
            s.page_faults += faults;
        }
        {
            let t = &self.telemetry;
            t.kernel_launches.inc();
            t.kernel_ns.record_ns(sim_ns);
            t.atomic_ops.add(agg.counters.atomic_ops);
            t.atomic_serial_depth.add(agg.counters.serial_depth);
            t.divergent_warps.add(agg.divergent);
            t.page_faults.add(faults);
        }

        KernelReport {
            name,
            lanes,
            warps: n_warps,
            sim_ns,
            critical_warp_cycles: agg.critical_cycles,
            total_warp_cycles: agg.total_cycles,
            divergent_warps: agg.divergent,
            atomic_ops: agg.counters.atomic_ops,
            atomic_serial_depth: agg.counters.serial_depth,
            page_faults: faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceConfig, MemoryMode};
    use crate::DeviceStats;

    fn device() -> Device {
        Device::new(DeviceConfig::default())
    }

    #[test]
    fn every_lane_runs_exactly_once() {
        let mut d = device();
        let items: Vec<usize> = (0..1000).collect();
        let (mut order, mut min) = (Vec::new(), SimAtomicU64::new(u64::MAX));
        let r = d.launch("count", &items, |lane, &i| {
            assert_eq!(lane.global_id, i);
            order.push(i);
            lane.atomic_min_u64(&mut min, i as u64 + 1);
        });
        assert_eq!(order, items, "every lane once, in lane order");
        assert_eq!((min.load(), r.atomic_ops), (1, 1000));
        assert_eq!(r.lanes, 1000);
        assert_eq!(r.warps, 1000usize.div_ceil(32));
    }

    #[test]
    fn uniform_warp_is_not_divergent() {
        let mut d = device();
        let items = vec![0u8; 64];
        let r = d.launch("uniform", &items, |lane, _| {
            lane.branch(3);
            lane.charge_alu(10);
        });
        assert_eq!(r.divergent_warps, 0);
        // Warp time = max lane time = 10 ALU cycles.
        assert!((r.critical_warp_cycles - 10.0).abs() < 1e-9);
    }

    #[test]
    fn divergent_warp_serializes_branch_paths() {
        let mut d = device();
        let items: Vec<usize> = (0..32).collect();
        let r = d.launch("diverge", &items, |lane, &i| {
            if i % 2 == 0 {
                lane.branch(0);
                lane.charge_alu(10);
            } else {
                lane.branch(1);
                lane.charge_alu(25);
            }
        });
        assert_eq!(r.divergent_warps, 1);
        // Paths serialize: 10 + 25 cycles.
        assert!((r.critical_warp_cycles - 35.0).abs() < 1e-9);
    }

    #[test]
    fn hot_address_atomics_cost_more_than_spread_atomics() {
        let mut d = device();
        let n = 4096usize;
        let mut hot = SimAtomicU64::new(u64::MAX);
        let r_hot = d.launch_indexed("hot", n, |lane| {
            lane.atomic_min_u64(&mut hot, lane.global_id as u64);
        });
        let mut spread: Vec<SimAtomicU64> = (0..n).map(|_| SimAtomicU64::new(u64::MAX)).collect();
        let r_spread = d.launch_indexed("spread", n, |lane| {
            lane.atomic_min_u64(&mut spread[lane.global_id], lane.global_id as u64);
        });
        assert!(r_hot.atomic_serial_depth > r_spread.atomic_serial_depth);
        assert_eq!(r_spread.atomic_serial_depth, 0);
        assert!(r_hot.sim_ns > r_spread.sim_ns);
        // Total serialization depth on one address is exactly 0+1+...+(n-1).
        assert_eq!(r_hot.atomic_serial_depth, (n as u64) * (n as u64 - 1) / 2);
    }

    /// Everything a launch reports, bit for bit.
    fn simulated(r: &KernelReport) -> (u64, u64, u64, u64, u64, u64) {
        let bits = |x: f64| x.to_bits();
        (
            bits(r.sim_ns),
            bits(r.critical_warp_cycles),
            bits(r.total_warp_cycles),
            r.divergent_warps,
            r.atomic_ops,
            r.atomic_serial_depth,
        )
    }

    /// A pre-pass launch over 10 000 lanes at `threads`: each lane's value
    /// (a pure function of its index) drives its branch, its charges and
    /// two hot atomics. Returns the report, the atomics' final values and
    /// the device's stats.
    fn pre_pass_run(
        threads: usize,
        pre: impl Fn(usize) -> u64 + Sync,
    ) -> (KernelReport, u32, u64, DeviceStats) {
        let mut d = Device::new(DeviceConfig::parallel(threads));
        let (mut bits, mut min) = (SimAtomicU32::new(0), SimAtomicU64::new(u64::MAX));
        let mut slots = PreSlots::default();
        let r = d.launch_with_pre("pre", 10_000, &mut slots, fill(pre), |lane, &mut v| {
            lane.branch((v % 3) as u32);
            lane.charge_cycles((v % 17) as f64 * 0.1);
            lane.atomic_or_u32(&mut bits, 1 << (v % 32));
            lane.atomic_min_u64(&mut min, v);
            lane.read_global(2);
        });
        (r, bits.load(), min.load(), d.stats())
    }

    fn mix(k: usize) -> u64 {
        (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40
    }

    /// The in-place pre-pass that stores `value(k)` in lane k's slot.
    fn fill<P>(value: impl Fn(usize) -> P + Sync) -> impl Fn(usize, &mut P) + Sync {
        move |k, slot| *slot = value(k)
    }

    #[test]
    fn parallel_execution_matches_sequential_results() {
        let (one, acc, min, stats) = pre_pass_run(1, mix);
        assert_eq!(stats.helper_lanes, 0);
        for threads in [2, 4] {
            let (r, a, m, s) = pre_pass_run(threads, mix);
            assert_eq!(simulated(&r), simulated(&one), "{threads} threads");
            assert_eq!((a, m), (acc, min));
            assert_eq!(s.busy_ns.to_bits(), stats.busy_ns.to_bits());
            assert_eq!(DeviceStats { helper_lanes: 0, lanes_computed_twice: 0, ..s }, stats);
        }
    }

    #[test]
    fn a_pre_pass_stalled_on_its_helpers_is_taken_over_inline() {
        let launcher = std::thread::current().id();
        let (stalled, released) = (AtomicBool::new(false), AtomicBool::new(false));
        // Off the launching thread the pre-pass does not return until the
        // launching thread has run every lane: only inline values can land.
        let stalling = |k: usize| {
            if std::thread::current().id() != launcher {
                stalled.store(true, Ordering::Release);
                while !released.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            mix(k)
        };
        // Three threads: the lease a concurrent test holds may take one.
        let mut d = Device::new(DeviceConfig::parallel(3));
        let mut slots = PreSlots::default();
        let r = d.launch_with_pre("stall", 10_000, &mut slots, fill(stalling), |lane, &mut v| {
            // The test waits (a launch never does) until a helper is stuck
            // inside a lane of its own.
            while lane.global_id == 0 && !stalled.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            lane.charge_cycles((v % 17) as f64 * 0.1);
            if lane.global_id == 9_999 {
                released.store(true, Ordering::Release);
            }
        });
        assert_eq!(d.stats().helper_lanes, 0);
        // The lanes the stuck helpers held were filled into spare values,
        // which then took their slots.
        assert!(d.stats().lanes_computed_twice > 0);
        assert!(slots.values_mut(10_000).enumerate().all(|(k, v)| *v == mix(k)));
        let reference = Device::new(DeviceConfig::parallel(1))
            .launch_with_pre("stall", 10_000, &mut PreSlots::default(), fill(mix), |lane, &mut v| {
                lane.charge_cycles((v % 17) as f64 * 0.1);
            });
        assert_eq!(simulated(&r), simulated(&reference));
    }

    #[test]
    fn a_panic_in_a_helpers_pre_pass_surfaces_on_the_launching_thread() {
        let launcher = std::thread::current().id();
        let entered = AtomicBool::new(false);
        let run = std::panic::catch_unwind(|| {
            let mut d = Device::new(DeviceConfig::parallel(3));
            d.launch_with_pre(
                "boom",
                10_000,
                &mut PreSlots::default(),
                fill(|k| {
                    if std::thread::current().id() != launcher {
                        entered.store(true, Ordering::Release);
                        panic!("pre-pass failed on a helper");
                    }
                    k
                }),
                |lane, _| {
                    // Hold the first lane until a helper has run a lane.
                    while lane.global_id == 0 && !entered.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    lane.charge_alu(1);
                },
            )
        });
        let payload = run.expect_err("the helper's panic must reach the launching thread");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"pre-pass failed on a helper"));
    }

    #[test]
    fn a_leased_thread_is_no_helper() {
        let launcher = std::thread::current().id();
        let lease = crate::HostThreadLease::take();
        let mut d = Device::new(DeviceConfig::parallel(2));
        let r = d.launch_with_pre(
            "leased",
            10_000,
            &mut PreSlots::default(),
            fill(|k| {
                assert_eq!(std::thread::current().id(), launcher);
                k
            }),
            |lane, &mut k| assert_eq!(lane.global_id, k),
        );
        drop(lease);
        assert_eq!((r.lanes, d.stats().helper_lanes), (10_000, 0));
    }

    /// A slot's value outlives its launch: the caller reads lane k's value
    /// afterwards, and the next launch's lane k fills the buffers it left,
    /// so only a lane computed twice can come back with another one.
    #[test]
    fn slots_keep_each_lanes_value_and_its_buffers() {
        const LANES: usize = 4_096;
        let pre = |k: usize, v: &mut Vec<usize>| {
            v.clear();
            v.extend(0..k % 7 + 1);
        };
        for threads in [1, 2] {
            let mut d = Device::new(DeviceConfig::parallel(threads));
            let mut slots = PreSlots::default();
            let buffers = |slots: &mut PreSlots<Vec<usize>>| {
                slots.values_mut(LANES).map(|v| v.as_ptr()).collect::<Vec<_>>()
            };
            d.launch_with_pre("first", LANES, &mut slots, pre, |lane, v| {
                assert_eq!(v.len(), lane.global_id % 7 + 1);
            });
            let first = buffers(&mut slots);
            let twice = d.stats().lanes_computed_twice;
            d.launch_with_pre("again", LANES, &mut slots, pre, |lane, v| {
                assert_eq!(v.len(), lane.global_id % 7 + 1);
            });
            for k in [0, 31, 32, LANES - 1] {
                assert_eq!(slots.get_mut(k).len(), k % 7 + 1, "{threads} threads: lane {k}");
            }
            let moved = buffers(&mut slots).iter().zip(&first).filter(|(a, b)| a != b).count();
            let twice = d.stats().lanes_computed_twice - twice;
            assert!(moved as u64 <= twice, "{threads} threads: {moved} buffers moved, {twice} lanes twice");
        }
    }

    #[test]
    fn a_one_warp_launch_spawns_nothing() {
        let launcher = std::thread::current().id();
        let mut d = Device::new(DeviceConfig::parallel(4));
        let mut slots: PreSlots<usize> = PreSlots::default();
        let r = d.launch_with_pre(
            "one-warp",
            32,
            &mut slots,
            fill(|k| {
                assert_eq!(std::thread::current().id(), launcher);
                k
            }),
            |lane, &mut k| assert_eq!(lane.global_id, k),
        );
        assert_eq!((r.warps, d.stats().helper_lanes), (1, 0));
        assert_eq!(slots.values_mut(32).map(|v| *v).collect::<Vec<_>>(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn occupancy_limits_kernel_time_for_many_warps() {
        let mut d = device();
        // Memory-bound (heavy) work is throughput-limited.
        let small = d.launch_indexed("small", 32, |lane| lane.charge_cycles(100.0));
        let big = d.launch_indexed("big", 32 * 10_000, |lane| lane.charge_cycles(100.0));
        // Same critical warp, but the big launch saturates the device: its
        // duration is throughput-bound (total/parallelism), not latency-bound.
        assert!((small.critical_warp_cycles - big.critical_warp_cycles).abs() < 1e-9);
        let launch = d.cost().kernel_launch_ns;
        assert!(big.sim_ns - launch > (small.sim_ns - launch) * 10.0);
        assert!(big.total_warp_cycles / d.cost().warp_parallelism > big.critical_warp_cycles);
    }

    #[test]
    fn zero_copy_mode_surcharges_global_accesses() {
        let run = |mode: MemoryMode| {
            let cfg = DeviceConfig { memory_mode: mode, ..DeviceConfig::default() };
            let mut d = Device::new(cfg);
            d.launch_indexed("t", 1024, |lane| lane.read_global(4)).sim_ns
        };
        assert!(run(MemoryMode::ZeroCopy) > run(MemoryMode::DeviceResident));
    }

    #[test]
    fn unified_memory_charges_page_faults_when_over_capacity() {
        let cfg = DeviceConfig {
            memory_mode: MemoryMode::Unified,
            device_mem_bytes: 1 << 20,
            ..DeviceConfig::default()
        };
        let mut d = Device::new(cfg);
        d.register_allocation(4 << 20); // 4x over capacity
        let r = d.launch_indexed("faulty", 65_536, |lane| {
            lane.read_global(8);
            lane.write_global(2);
        });
        assert!(r.page_faults > 0);
        assert_eq!(d.stats().page_faults, r.page_faults);
    }

    #[test]
    fn empty_launch_is_wellformed() {
        let mut d = device();
        let r = d.launch_indexed("empty", 0, |_| {});
        assert_eq!(r.lanes, 0);
        assert_eq!(r.warps, 0);
        assert!(r.sim_ns >= d.cost().kernel_launch_ns);
    }

    #[test]
    fn partial_last_warp_runs_remaining_lanes() {
        let mut d = device();
        let mut last = SimAtomicU32::new(0);
        let r = d.launch_indexed("partial", 33, |lane| {
            lane.atomic_or_u32(&mut last, u32::from(lane.global_id == 32));
        });
        assert_eq!((last.load(), r.atomic_ops), (1, 33));
        assert_eq!(r.warps, 2);
    }
}
