//! The Tyche isolation monitor (§4 of the paper).
//!
//! This crate assembles the system: the platform-independent capability
//! engine (`tyche-core`) runs on top of simulated commodity hardware
//! (`tyche-hw`), connected by platform *backends* that translate engine
//! [`tyche_core::Effect`]s into hardware state:
//!
//! - [`backend::x86`]: per-domain EPTs (identity-mapped, since domains name
//!   physical memory), an EPTP list for VMFUNC fast transitions, and
//!   I/O-MMU contexts for device capabilities;
//! - [`backend::riscv`]: per-domain PMP layouts with the paper's layout
//!   validation — a domain whose memory fragments need more than the 16
//!   available entries is rejected (§4: "PMP only supports a fixed number
//!   of segments, which requires a careful memory layout of trust domains
//!   and validation by the monitor");
//! - [`abi`]: the VMCALL / ecall calling convention — how a running domain
//!   names engine operations through registers;
//! - [`monitor`]: the runtime — per-core current domain, mediated
//!   transitions with flush policies, the VMFUNC fast path, memory access
//!   on behalf of the running domain;
//! - [`attest`]: the two-tier attestation protocol (§3.4) — TPM quote over
//!   the measured monitor, monitor-signed domain reports, and the remote
//!   verifier that checks the chain;
//! - [`boot`]: measured boot — loading the monitor image, extending PCRs,
//!   endowing the initial domain with the whole machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Tests assert on engine state freely; the panic-path lints govern
// production code only (accounting: crates/verify/allowlist.toml).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod abi;
pub mod attest;
pub mod backend;
pub mod boot;
pub mod concurrent;
pub mod monitor;

pub use abi::{MonitorCall, Status};
pub use attest::{AttestedDomain, MachineRoots, Verifier};
pub use boot::{boot_riscv, boot_x86, BootConfig};
pub use concurrent::{ConcurrentMonitor, RingOutcome, SmpStats};
pub use monitor::{Arch, Fault, Monitor};
