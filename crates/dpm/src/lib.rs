//! A software **data-parallel machine** (DPM) simulator.
//!
//! The DCGN paper targets NVIDIA G92 GPUs programmed through CUDA.  This crate
//! provides the architectural stand-in used by the reproduction.  It enforces
//! the properties that shape the paper's entire design:
//!
//! * **Separate device memory.**  The host can only reach device memory
//!   through explicit [`Device::memcpy_htod`] / [`Device::memcpy_dtoh`]
//!   transfers which pay a PCI-e latency/bandwidth cost and serialise on a
//!   shared PCI-e bus.
//! * **Kernels are launched by the host** and execute as a grid of blocks.
//! * **Blocks run to completion.**  Once a block is scheduled onto one of the
//!   device's multiprocessors it occupies that multiprocessor until it
//!   returns — there is no preemption, which is why DCGN kernels that wait on
//!   communication can deadlock if they oversubscribe the device
//!   (reproduced and tested here).
//! * **The device cannot signal the host.**  There is no callback or
//!   interrupt path from a running kernel to host code; the only way for the
//!   host to learn anything is to poll device memory, exactly as DCGN's
//!   GPU-kernel thread does.
//!
//! Kernels are ordinary Rust closures receiving a [`BlockCtx`], which exposes
//! block/thread geometry and device-memory accessors.  Device-side code
//! paths used by DCGN (mailbox spinning, atomics) are all available through
//! `BlockCtx`.

#![warn(missing_docs)]

pub mod device;
pub mod kernel;
pub mod memory;

pub use device::{Device, DeviceConfig, DmaMetrics, KernelHandle};
pub use kernel::{BlockCtx, Dim};
pub use memory::{DevicePtr, MemoryError};
