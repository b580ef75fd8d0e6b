//! A from-scratch Rust port of the RAJA Performance Suite's 64 kernels.
//!
//! The paper benchmarks the Sophon SG2042 with RAJAPerf (Section 2.2): 64
//! loop kernels in six classes — Algorithm, Apps, Basic, Lcals, Polybench
//! and Stream. This crate provides:
//!
//! * **Native implementations** ([`exec`], [`runner`]) that really execute,
//!   generic over `f32`/`f64` ([`real::Real`]), each with a serial reference
//!   loop and a parallel loop on the `rvhpc-threads` OpenMP-substitute
//!   runtime. These back the Criterion benches and the correctness tests.
//! * **Descriptors** ([`descriptor`]) that state each kernel's work and
//!   memory streams as data. The performance model in `rvhpc-perfmodel`
//!   simulates the paper's machines from these, and the compiler model in
//!   `rvhpc-compiler` decides vectorisability from them.
//!
//! The two views are written side by side so the mapping from loop body to
//! model input is auditable kernel by kernel.

#![warn(missing_docs)]

pub mod atomicf;
pub mod data;
pub mod descriptor;
pub mod exec;
pub mod ids;
pub mod real;
pub mod runner;

#[cfg(test)]
mod proptests;

pub use descriptor::{vec_profile, workload, Access, StreamSpec, VecProfile, Workload};
pub use ids::{KernelClass, KernelName};
pub use real::Real;
pub use runner::{make_kernel, KernelExec};
