//! tyche-verify: the judiciary toolchain.
//!
//! The paper's trust argument ("Creating Trust by Abolishing
//! Hierarchies") rests on a small, memory-safe, formally-verifiable
//! monitor. This crate is the repo's enforcement of that argument,
//! split across two engines:
//!
//! - [`static_audit`] — the static TCB auditor: no `unsafe`, no
//!   unapproved panic path, the Claim-1 LOC budget, and a closed
//!   dependency set for the trust-path crates;
//! - [`bmc`] — a bounded model checker that exhaustively explores
//!   small-scope operation interleavings of the capability engine,
//!   checking the runtime invariant auditor, refcount conservation,
//!   revocation soundness, and a differential oracle against the naive
//!   ownership model in [`model`];
//! - [`rv`] — offline runtime verification: temporal invariants
//!   replayed over drained execution traces from the observability
//!   layer (`tyche_core::trace`), whose encoding, hash chain and event
//!   names live in [`trace`];
//! - [`static_lints`] — the deep static certifier: a whole-workspace
//!   call-graph model ([`parse`]) feeding four cross-cutting lints —
//!   lock-order/deadlock, panic-reachability from hypercall entry,
//!   atomics-ordering discipline, and trace completeness.
//!
//! Support modules: [`lex`] (comment/literal stripping), [`loc`] (the
//! single LOC counter every tool shares), [`allowlist`] (the panic
//! budget file format), [`parse`] (the item-level workspace model).
//!
//! The crate depends on nothing outside the workspace and std (the
//! engine's trace types from `tyche-core`, SHA-256 from `tyche-crypto`)
//! — a verifier you cannot audit is not a verifier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod bmc;
pub mod lex;
pub mod loc;
pub mod model;
pub mod parse;
pub mod rv;
pub mod static_audit;
pub mod trace;
// `static` is a keyword, so the directory-named module gets an
// explicit path and a usable identifier.
#[path = "static/mod.rs"]
pub mod static_lints;

use std::path::{Path, PathBuf};

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]` — the anchor every path in the audit is relative to.
pub fn locate_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = locate_workspace_root(here).expect("workspace root above crates/verify");
        assert!(root.join("crates/verify").is_dir());
        assert!(root.join("crates/core").is_dir());
    }
}
