//! libtyche: higher-level isolation abstractions over the monitor API.
//!
//! §4.2 of the paper: "With Tyche, higher-level abstractions, including
//! but not limited to sandboxes, enclaves, and confidential VMs, are
//! implemented on top of the monitor's isolation API by libraries running
//! within the trust domains." This crate is that library:
//!
//! - [`client`]: a typed wrapper over the raw VMCALL ABI for the domain
//!   currently running on a core;
//! - [`loader`]: loads an ELF binary + manifest as a new trust domain —
//!   splitting, granting, sharing, and measuring segments per policy;
//! - [`sandbox`]: fault-contained compartments for untrusted libraries
//!   (user) and drivers (kernel);
//! - [`enclave`]: attestable enclaves with the paper's three improvements
//!   over SGX — explicit sharing, address reuse, and nesting with
//!   enclave-to-enclave channels;
//! - [`cvm`]: confidential virtual machines (whole-OS domains on several
//!   cores, invisible to the hypervisor-role domain);
//! - [`rdma`]: attested RDMA between TEEs on separate machines, with its
//!   wire crypto: [`aead`] / [`poly1305`], ChaCha20-Poly1305 (RFC 8439)
//!   with detached 16-byte tags, which seals every RDMA frame and
//!   authenticates every `tyche-fleet` channel frame. Wire keys and the
//!   cipher stay with the TEEs and the transport; the monitor never
//!   holds or runs them.
//!
//! Every abstraction here uses *only* the public monitor call interface —
//! nothing reaches into engine internals — demonstrating the paper's
//! claim that one narrow API supports all of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod client;
pub mod cvm;
pub mod enclave;
pub mod loader;
pub mod poly1305;
pub mod rdma;
pub mod sandbox;

pub use client::TycheClient;
pub use cvm::ConfidentialVm;
pub use enclave::{Channel, Enclave};
pub use loader::{LoadError, LoadedDomain, Loader};
pub use rdma::{RdmaConnection, RdmaNic, Wire};
pub use sandbox::Sandbox;
