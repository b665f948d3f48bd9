//! Platform backends: mirroring engine state into hardware.
//!
//! A backend consumes the engine's [`tyche_core::Effect`] stream and
//! programs the corresponding hardware structures from the engine's
//! active capabilities. Two backends exist, matching the paper's two
//! ports:
//!
//! - [`x86`]: EPT + EPTP-list (VMFUNC) + I/O-MMU contexts,
//! - [`riscv`]: PMP layouts with entry-count validation.
//!
//! The contract both uphold: *after a memory effect is applied, hardware
//! grants exactly the access the engine's active capabilities describe
//! within the effect's region*, and the work grows with that region (x86)
//! or with the domain's capability count (RISC-V), never with the memory
//! the domain holds elsewhere. The engine emits a memory effect over
//! every region whose access it changes, so applying a call's effects
//! leaves each domain's whole view exact. Both backends also keep a
//! whole-domain resync for the compensation heal path, where what the
//! hardware holds is unknown. In debug builds the monitor checks every
//! applied batch against the page view (`matches_view`), and
//! `audit_hardware` walks the real tables. The integration test
//! `tests/backend_equivalence.rs` checks the two backends agree on every
//! accept/deny decision the hardware can express.

pub mod riscv;
pub mod x86;

use std::collections::BTreeMap;
use tyche_core::prelude::*;

/// The translation granule both backends program.
pub(crate) const PAGE: u64 = 4096;

/// A domain's desired memory view: page base → rights, derived from the
/// engine's active capabilities (union of rights where caps overlap).
pub type PageView = BTreeMap<u64, Rights>;

/// Computes `domain`'s page-level view from the engine: one entry per
/// page it holds. The reference the audit and the debug oracle compare
/// hardware against; no apply path builds it.
///
/// Capability regions are page-truncated inward: partial pages at region
/// edges are *not* mapped (hardware cannot protect sub-page granules), so
/// the hardware view never exceeds the policy view.
pub fn page_view(engine: &CapEngine, domain: DomainId) -> PageView {
    let mut view = PageView::new();
    for cap in engine.caps_of(domain) {
        if !cap.active {
            continue;
        }
        if let Some(region) = cap.resource.as_mem() {
            let start = region.start.div_ceil(PAGE) * PAGE;
            let end = (region.end / PAGE) * PAGE;
            let mut page = start;
            while page < end {
                let entry = view.entry(page).or_insert(Rights::NONE);
                *entry = Rights(entry.0 | cap.rights.0);
                page += PAGE;
            }
        }
    }
    view
}

/// Debug oracle: whether a backend's programmed state for `domain` —
/// `programmed` lists its pages with their rights, `lookup` answers one
/// page — is exactly [`page_view`]. Computed page by page from a scan of
/// the engine's capabilities, independent of the owner index and of the
/// backends' own recomputation, allocating only the scan.
#[cfg(debug_assertions)]
pub(crate) fn matches_view(
    engine: &CapEngine,
    domain: DomainId,
    mut programmed: impl Iterator<Item = (u64, Rights)>,
    lookup: impl Fn(u64) -> Option<Rights>,
) -> bool {
    let scan = engine.caps_of_scan(domain);
    let covers = || {
        scan.iter().filter(|c| c.active).filter_map(|c| {
            let r = c.resource.as_mem()?;
            Some((r.start.div_ceil(PAGE) * PAGE, r.end / PAGE * PAGE, c.rights))
        })
    };
    let want = |page: u64| {
        covers()
            .filter(|&(start, end, _)| start <= page && page < end)
            .map(|(.., rights)| rights)
            .reduce(|a, b| Rights(a.0 | b.0))
    };
    programmed.all(|(page, rights)| want(page) == Some(rights))
        && covers().all(|(start, end, _)| {
            (start..end)
                .step_by(PAGE as usize)
                .all(|page| lookup(page).is_some())
        })
}

/// Sorts `(domain, region)` pairs by domain, then start, and merges in
/// place the regions of one domain that overlap or touch, leaving each
/// domain's union as disjoint ascending regions.
pub(crate) fn merge_regions(items: &mut Vec<(DomainId, MemRegion)>) {
    items.sort_unstable_by_key(|&(k, r)| (k, r.start, r.end));
    items.dedup_by(|next, kept| {
        let joins = next.0 == kept.0 && next.1.start <= kept.1.end;
        if joins {
            kept.1.end = kept.1.end.max(next.1.end);
        }
        joins
    });
}

/// Errors a backend can raise while realizing engine state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// Hardware resource exhaustion or programming failure.
    Hardware(String),
    /// The domain's memory layout cannot be expressed by this platform's
    /// protection mechanism (the RISC-V PMP entry limit, §4).
    LayoutUnrepresentable {
        /// The domain whose layout failed validation.
        domain: DomainId,
        /// Entries needed.
        needed: usize,
        /// Entries available.
        available: usize,
    },
}

impl core::fmt::Display for BackendError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BackendError::Hardware(s) => write!(f, "hardware backend failure: {s}"),
            BackendError::LayoutUnrepresentable {
                domain,
                needed,
                available,
            } => write!(
                f,
                "domain {domain} needs {needed} PMP entries but only {available} are available"
            ),
        }
    }
}

impl std::error::Error for BackendError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_view_unions_rights_and_truncates() {
        let mut e = CapEngine::new();
        let os = e.create_root_domain();
        // Two overlapping caps with different rights; one has a ragged end.
        e.endow(os, Resource::mem(0x1000, 0x3000), Rights::RO)
            .unwrap();
        e.endow(os, Resource::mem(0x2000, 0x4800), Rights::RW)
            .unwrap();
        let view = page_view(&e, os);
        assert_eq!(view.get(&0x1000), Some(&Rights::RO));
        assert_eq!(view.get(&0x2000), Some(&Rights::RW), "union at overlap");
        assert_eq!(view.get(&0x3000), Some(&Rights::RW));
        assert_eq!(view.get(&0x4000), None, "partial page truncated inward");
    }

    #[test]
    fn merge_regions_unions_per_domain() {
        let d = |n| DomainId(n);
        let r = MemRegion::new;
        let mut items = vec![
            (d(2), r(0x5000, 0x6000)),
            (d(1), r(0x3000, 0x4000)),
            (d(1), r(0x1000, 0x2000)),
            (d(1), r(0x1800, 0x3000)),
            (d(2), r(0x1000, 0x2000)),
        ];
        merge_regions(&mut items);
        assert_eq!(
            items,
            vec![
                (d(1), r(0x1000, 0x4000)),
                (d(2), r(0x1000, 0x2000)),
                (d(2), r(0x5000, 0x6000)),
            ],
            "overlapping and touching regions merge; domains stay apart"
        );
    }

    #[test]
    fn page_view_ignores_inactive() {
        let mut e = CapEngine::new();
        let os = e.create_root_domain();
        let ram = e.endow(os, Resource::mem(0, 0x4000), Rights::RW).unwrap();
        let (a, _) = e.create_domain(os).unwrap();
        e.grant(os, ram, a, None, Rights::RW, RevocationPolicy::NONE)
            .unwrap();
        assert!(page_view(&e, os).is_empty(), "granted away");
        assert_eq!(page_view(&e, a).len(), 4);
    }
}
