#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # ltpg-gpu-sim — a functional SIMT GPU simulator
//!
//! This crate is the substrate that stands in for a physical CUDA device in
//! the LTPG reproduction. It is a *functional* simulator: kernels are Rust
//! closures that really execute, one invocation per lane, over warps of
//! (by default) 32 lanes. Everything an engine computes on this "device" is
//! real — reads return real data, atomics really read-modify-write — while a
//! calibrated [`cost::CostModel`] charges simulated cycles for the hardware
//! effects that the LTPG paper's evaluation depends on:
//!
//! * **Branch divergence** — lanes of one warp that take different branch
//!   paths execute serially. A warp's simulated time is the *sum over
//!   distinct branch tags of the maximum lane time within each tag*, which is
//!   exactly the SIMT lockstep re-convergence model. LTPG's adaptive warp
//!   division (paper §V-B) exists to keep one tag per warp.
//! * **Atomic serialization** — atomic operations that land on the same
//!   address within one kernel serialize. Each [`atomic::SimAtomicU64`]
//!   tracks a per-kernel access count (epoch-tagged so no global reset pass
//!   is needed) and later arrivals are charged proportionally more. LTPG's
//!   dynamic hash buckets (paper §V-C, Table VII) exist to spread these.
//! * **PCIe transfers** — `latency + bytes / bandwidth` per explicit copy
//!   (paper Tables IV and V), with a [`transfer::Pipeline`] helper that
//!   computes overlapped H2D / compute / D2H timing (paper §V-E, Fig. 6b).
//! * **Memory modes** — zero-copy vs. unified memory; unified-memory
//!   accesses beyond the simulated device capacity are charged page-fault
//!   costs (paper Table IX).
//!
//! Simulated time is the primary clock for the paper-shaped experiments; the
//! harness also records host wall-clock as a sanity metric. Every launch
//! runs its lanes in warp order on the launching thread, so every
//! simulated-time figure is reproducible bit-for-bit at any host thread
//! count. The other `parallel_host_threads − 1` threads only run a launch's
//! *pre-pass* ahead of it: a pure function of the lane index that cannot
//! reach the simulated clock ([`Device::launch_with_pre`]), posted to
//! helper threads the device keeps parked from launch to launch. Simulated
//! atomics are plain words that a lane updates through `&mut`, so the
//! compiler rejects a pre-pass that reads one the lanes write. The
//! [`Device`] is plain data too, with one owner: every launch, transfer
//! and fault check takes it by `&mut`.
//!
//! ## Quick example
//!
//! ```
//! use ltpg_gpu_sim::{Device, DeviceConfig};
//! use ltpg_gpu_sim::atomic::SimAtomicU64;
//!
//! let mut device = Device::new(DeviceConfig::default());
//! let mut hot = SimAtomicU64::new(u64::MAX);
//! let items: Vec<u64> = (0..1024).collect();
//! device.launch("min-reduce", &items, |lane, &tid| {
//!     lane.atomic_min_u64(&mut hot, tid);
//! });
//! device.synchronize();
//! assert_eq!(hot.load(), 0);
//! assert!(device.elapsed_ns() > 0.0);
//! ```

pub mod atomic;
pub mod cost;
pub mod device;
pub mod faults;
mod helpers;
pub mod kernel;
pub mod stats;
pub mod transfer;

pub use atomic::{SimAtomicU32, SimAtomicU64};
pub use cost::CostModel;
pub use device::{Device, DeviceConfig, HostThreadLease, MemoryMode};
pub use faults::{DeviceError, DeviceFaultPlan};
pub use kernel::{KernelReport, Lane, PreSlots};
pub use stats::DeviceStats;
pub use transfer::{Pipeline, TransferDirection};
