//! The Tyche capability engine — the paper's primary contribution.
//!
//! *Creating Trust by Abolishing Hierarchies* (HotOS '23) proposes an
//! **isolation monitor**: a minimal security monitor that separates the
//! three powers of isolation so that any software, at any privilege level,
//! can define isolation policies (legislative), have them enforced by
//! hardware the monitor programs (executive), and prove the result to
//! remote parties (judiciary).
//!
//! This crate is the platform-independent half of that monitor (§4.1 of
//! the paper): a capability model over *physical names* — memory regions,
//! CPU cores, PCI devices — in which
//!
//! - every access right a domain holds is a [`capability::Capability`]
//!   node in a lineage tree,
//! - `share` / `grant` create child capabilities (grant suspends the
//!   parent's access, share keeps it),
//! - `revoke` cascades down the lineage and is guaranteed to terminate
//!   even when domains share in cycles,
//! - per-resource **reference counts** ([`refcount`]) expose exactly how
//!   many domains can reach each byte — the paper's Figure 4,
//! - domains can be **sealed**, freezing their resource configuration and
//!   producing a measurement for attestation ([`attest`]),
//! - every state change is also emitted as an [`effect::Effect`] so a
//!   platform backend (EPT on x86, PMP on RISC-V — see `tyche-monitor`)
//!   can mirror the model into hardware,
//! - a global invariant [`audit`] checks the properties a formal
//!   verification of the real Tyche would prove.
//!
//! The engine is written entirely in safe Rust with no platform
//! dependencies, mirroring the paper's claim that the capability model is
//! "written in safe Rust and meant to be formally verified".
//!
//! # Examples
//!
//! ```
//! use tyche_core::prelude::*;
//!
//! let mut engine = CapEngine::new();
//! let os = engine.create_root_domain();
//! let ram = engine.endow(os, Resource::mem(0x0, 0x100_0000), Rights::RWX).unwrap();
//!
//! // The OS carves out an enclave with an exclusive, zero-on-revoke page.
//! let (enclave, _mgmt) = engine.create_domain(os).unwrap();
//! let (_low, rest) = engine.split(os, ram, 0x4000).unwrap();
//! let (page_cap, _high) = engine.split(os, rest, 0x5000).unwrap();
//! let page = engine
//!     .grant(os, page_cap, enclave, None, Rights::RW, RevocationPolicy::ZERO)
//!     .unwrap();
//! engine.set_entry(os, enclave, 0x4000).unwrap();
//! engine.seal(os, enclave, SealPolicy::strict()).unwrap();
//!
//! // The page is exclusively reachable by the enclave: refcount 1.
//! assert_eq!(engine.refcount_mem(MemRegion::new(0x4000, 0x5000)), 1);
//! // Revocation cascades and schedules the zeroing clean-up.
//! engine.revoke(os, page).unwrap();
//! let effects = engine.drain_effects();
//! assert!(effects.iter().any(|e| matches!(e, Effect::ZeroMem { .. })));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Tests assert on engine state freely; the panic-path lints govern
// production code only (accounting: crates/verify/allowlist.toml).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod attest;
pub mod audit;
pub mod capability;
pub mod domain;
pub mod effect;
pub mod engine;
pub mod error;
pub mod holders;
pub mod ids;
pub mod interval;
pub mod metrics;
pub mod refcount;
pub mod resource;
pub mod shared;
pub mod store;
pub mod trace;

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::capability::{CapKind, Capability};
    pub use crate::domain::{DomainState, SealPolicy};
    pub use crate::effect::Effect;
    pub use crate::engine::CapEngine;
    pub use crate::error::CapError;
    pub use crate::ids::{CapId, DomainId};
    pub use crate::resource::{MemRegion, Resource, Rights};
    pub use crate::RevocationPolicy;
}

pub use capability::{CapKind, Capability};
pub use domain::{DomainState, SealPolicy};
pub use effect::Effect;
pub use engine::CapEngine;
pub use error::CapError;
pub use ids::{CapId, DomainId};
pub use metrics::{Counter, Metrics};
pub use resource::{MemRegion, Resource, Rights};
pub use trace::{EventKind, TraceEvent, TraceLog, TraceSink};

/// The clean-up contract attached to a capability (§3.2 of the paper):
/// operations "guaranteed to execute upon revocation".
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct RevocationPolicy {
    /// Zero the memory region when the capability is revoked.
    pub zero_memory: bool,
    /// Flush the data cache of the affected domain on revocation (and on
    /// transitions out of the domain while the capability is live).
    pub flush_cache: bool,
    /// Flush the affected domain's TLB entries on revocation.
    pub flush_tlb: bool,
}

impl RevocationPolicy {
    /// No clean-up.
    pub const NONE: RevocationPolicy = RevocationPolicy {
        zero_memory: false,
        flush_cache: false,
        flush_tlb: false,
    };
    /// Zero memory on revocation.
    pub const ZERO: RevocationPolicy = RevocationPolicy {
        zero_memory: true,
        flush_cache: false,
        flush_tlb: true,
    };
    /// The "obfuscating" policy from §3.4: zero memory and scrub
    /// micro-architectural state, giving confidentiality + integrity for
    /// exclusively-held resources.
    pub const OBFUSCATE: RevocationPolicy = RevocationPolicy {
        zero_memory: true,
        flush_cache: true,
        flush_tlb: true,
    };
}
