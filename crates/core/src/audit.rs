//! The invariant auditor: a runtime stand-in for formal verification.
//!
//! The paper positions Tyche's capability model as "designed to be
//! formally verifiable". Until the proofs exist, this auditor checks the
//! global invariants such a proof would establish, over any engine state.
//! Tests and the monitor's debug builds run it after every operation
//! batch; property-based tests drive random operation sequences through it.

use crate::capability::CapKind;
use crate::domain::DomainState;
use crate::engine::CapEngine;
use crate::ids::CapId;
use crate::resource::Resource;

/// A violated invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A capability's parent is missing from the tree.
    DanglingParent(CapId),
    /// A parent does not list a child that points at it.
    BrokenChildLink {
        /// The parent capability.
        parent: CapId,
        /// The child missing from the parent's list.
        child: CapId,
    },
    /// A lineage walk exceeded the number of capabilities — a cycle.
    LineageCycle(CapId),
    /// A derived capability's rights exceed its parent's.
    RightsEscalation(CapId),
    /// A derived memory capability escapes its parent's region.
    RegionEscape(CapId),
    /// A capability with an outstanding grant is still active.
    ActiveWhileGranted(CapId),
    /// An active capability is owned by a dead domain.
    OwnedByDead(CapId),
    /// A capability was added to a domain after it was sealed, violating
    /// the incoming freeze (unless self-derived).
    SealedExtended(CapId),
    /// A strictly sealed domain shared/granted a capability after sealing.
    StrictSealShared(CapId),
    /// An active transition capability targets a quarantined domain —
    /// quarantined domains are killable and enumerable but never
    /// enterable.
    TransitionIntoQuarantined(CapId),
}

/// Audits every engine invariant; returns all violations found.
pub fn audit(engine: &CapEngine) -> Vec<Violation> {
    let mut out = Vec::new();
    let cap_count = engine.caps().count();

    for cap in engine.caps() {
        // I1: lineage soundness.
        if let Some(pid) = cap.parent {
            match engine.cap(pid) {
                None => out.push(Violation::DanglingParent(cap.id)),
                Some(parent) => {
                    if !parent.children.contains(&cap.id) {
                        out.push(Violation::BrokenChildLink {
                            parent: pid,
                            child: cap.id,
                        });
                    }
                    // I2: attenuation.
                    if !cap.rights.subset_of(&parent.rights) {
                        out.push(Violation::RightsEscalation(cap.id));
                    }
                    if let (Resource::Memory(c), Resource::Memory(p)) =
                        (cap.resource, parent.resource)
                    {
                        if !p.contains(&c) {
                            out.push(Violation::RegionEscape(cap.id));
                        }
                    }
                }
            }
            // I3: acyclicity — walk up at most `cap_count` steps.
            let mut cur = cap.parent;
            let mut steps = 0usize;
            while let Some(p) = cur {
                steps += 1;
                if steps > cap_count {
                    out.push(Violation::LineageCycle(cap.id));
                    break;
                }
                cur = engine.cap(p).and_then(|c| c.parent);
            }
        }

        // I4: grant exclusivity — a cap with a Granted child is suspended.
        let has_granted_child = cap
            .children
            .iter()
            .filter_map(|c| engine.cap(*c))
            .any(|c| c.kind == CapKind::Granted);
        if has_granted_child && cap.active {
            out.push(Violation::ActiveWhileGranted(cap.id));
        }

        // I5: live ownership.
        let owner_alive = engine
            .domain(cap.owner)
            .map(|d| d.state != DomainState::Dead)
            .unwrap_or(false);
        if cap.active && !owner_alive {
            out.push(Violation::OwnedByDead(cap.id));
        }

        // I6: seal freezes. A capability created after its owner sealed
        // must be self-derived (granter == owner); one *granted by* a
        // strictly sealed domain after sealing is a strict-seal breach.
        if let (Some(created), Some(owner_dom)) =
            (engine.cap_created_at(cap.id), engine.domain(cap.owner))
        {
            if let Some(sealed) = engine.domain_sealed_at(owner_dom.id) {
                if created > sealed && cap.granter != cap.owner {
                    out.push(Violation::SealedExtended(cap.id));
                }
            }
        }
        // I7: quarantine isolation — no active transition capability may
        // point into a quarantined domain.
        if cap.active {
            if let Resource::Transition(t) = cap.resource {
                if engine
                    .domain(t)
                    .map(|d| d.is_quarantined())
                    .unwrap_or(false)
                {
                    out.push(Violation::TransitionIntoQuarantined(cap.id));
                }
            }
        }

        if let Some(granter_dom) = engine.domain(cap.granter) {
            if cap.granter != cap.owner {
                if let (Some(created), Some(sealed)) = (
                    engine.cap_created_at(cap.id),
                    engine.domain_sealed_at(granter_dom.id),
                ) {
                    if created > sealed && !granter_dom.seal_policy.allow_outward_sharing {
                        out.push(Violation::StrictSealShared(cap.id));
                    }
                }
            }
        }
    }
    out
}

/// Panics with a readable message when any invariant is violated — used
/// by tests after each operation batch.
///
/// # Panics
///
/// Panics if the audit finds violations.
pub fn assert_sound(engine: &CapEngine) {
    let violations = audit(engine);
    assert!(
        violations.is_empty(),
        "capability invariants violated: {violations:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn fresh_engine_is_sound() {
        let e = CapEngine::new();
        assert!(audit(&e).is_empty());
    }

    #[test]
    fn typical_session_is_sound() {
        let mut e = CapEngine::new();
        let os = e.create_root_domain();
        let ram = e
            .endow(os, Resource::mem(0, 0x100_0000), Rights::RWX)
            .unwrap();
        assert_sound(&e);
        let (a, _) = e.create_domain(os).unwrap();
        let (b, _) = e.create_domain(os).unwrap();
        let (lo, hi) = e.split(os, ram, 0x80_0000).unwrap();
        e.grant(os, lo, a, None, Rights::RW, RevocationPolicy::ZERO)
            .unwrap();
        let shared = e
            .share(
                os,
                hi,
                b,
                Some(MemRegion::new(0x80_0000, 0x81_0000)),
                Rights::RO,
                RevocationPolicy::NONE,
            )
            .unwrap();
        assert_sound(&e);
        e.revoke(os, shared).unwrap();
        assert_sound(&e);
        e.kill(os, a).unwrap();
        assert_sound(&e);
    }

    #[test]
    fn circular_sharing_is_sound_and_revocable() {
        let mut e = CapEngine::new();
        let os = e.create_root_domain();
        let ram = e.endow(os, Resource::mem(0, 0x1000), Rights::RW).unwrap();
        let (a, _) = e.create_domain(os).unwrap();
        let (b, _) = e.create_domain(os).unwrap();
        // os -> a -> b -> a -> b ... a circular domain-sharing chain.
        let c1 = e
            .share(os, ram, a, None, Rights::RW, RevocationPolicy::NONE)
            .unwrap();
        let c2 = e
            .share(a, c1, b, None, Rights::RW, RevocationPolicy::NONE)
            .unwrap();
        let c3 = e
            .share(b, c2, a, None, Rights::RO, RevocationPolicy::NONE)
            .unwrap();
        let _c4 = e
            .share(a, c3, b, None, Rights::RO, RevocationPolicy::NONE)
            .unwrap();
        assert_sound(&e);
        assert_eq!(e.refcount_mem(MemRegion::new(0, 0x1000)), 3, "os, a, b");
        // Revoking the first share takes the whole cycle down.
        e.revoke(os, c1).unwrap();
        assert_sound(&e);
        assert_eq!(
            e.refcount_mem(MemRegion::new(0, 0x1000)),
            1,
            "only os remains"
        );
    }
}
