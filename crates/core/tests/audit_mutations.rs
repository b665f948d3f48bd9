//! Mutation tests for the runtime auditor: corrupt a sound engine one
//! invariant at a time (via the engine's corruption hooks, in debug and
//! `paranoid-checks` builds) and assert `audit()` reports exactly the
//! targeted `Violation` variant.
//!
//! The engine's public operations refuse to create any of these states,
//! so each test is also evidence that the auditor is not vacuous: it
//! detects corruption the operational layer can no longer introduce.
//! Every variant in `audit.rs` has a test here.
#![cfg(any(debug_assertions, feature = "paranoid-checks"))]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use tyche_core::audit::{audit, Violation};
use tyche_core::prelude::*;

const RAM: MemRegion = MemRegion {
    start: 0x1000,
    end: 0x9000,
};
const PAGE: MemRegion = MemRegion {
    start: 0x1000,
    end: 0x2000,
};

/// Boots root with a RAM endowment and one (unsealed) child domain.
fn booted() -> (CapEngine, DomainId, CapId, DomainId) {
    let mut e = CapEngine::new();
    let root = e.create_root_domain();
    let ram = e
        .endow(root, Resource::Memory(RAM), Rights::RWX)
        .expect("endow RAM");
    let (child, _transition) = e.create_domain(root).expect("create child");
    (e, root, ram, child)
}

fn share(
    e: &mut CapEngine,
    root: DomainId,
    ram: CapId,
    child: DomainId,
    sub: Option<MemRegion>,
    rights: Rights,
) -> CapId {
    e.share(root, ram, child, sub, rights, RevocationPolicy::NONE)
        .expect("share")
}

#[test]
fn dangling_parent_is_reported() {
    let (mut e, root, ram, child) = booted();
    let shared = share(&mut e, root, ram, child, Some(PAGE), Rights::RW);
    assert!(audit(&e).is_empty(), "sound before corruption");

    assert!(e.corrupt_cap(shared, |c| c.parent = Some(CapId(0xDEAD))));
    assert_eq!(audit(&e), vec![Violation::DanglingParent(shared)]);
}

#[test]
fn broken_child_link_is_reported() {
    let (mut e, root, ram, child) = booted();
    let shared = share(&mut e, root, ram, child, Some(PAGE), Rights::RW);
    assert!(audit(&e).is_empty());

    assert!(e.corrupt_cap(ram, |c| c.children.clear()));
    assert_eq!(
        audit(&e),
        vec![Violation::BrokenChildLink {
            parent: ram,
            child: shared,
        }]
    );
}

#[test]
fn lineage_cycle_is_reported() {
    let (mut e, root, ram, child) = booted();
    // Full-region, full-rights share so the forged back-edge cannot also
    // trip attenuation or containment — the cycle must stand alone.
    let shared = share(&mut e, root, ram, child, None, Rights::RWX);
    assert!(audit(&e).is_empty());

    assert!(e.corrupt_cap(ram, |c| c.parent = Some(shared)));
    assert!(e.corrupt_cap(shared, |c| {
        c.children.insert(ram);
    }));
    let violations = audit(&e);
    assert!(
        violations
            .iter()
            .all(|v| matches!(v, Violation::LineageCycle(_))),
        "only cycle reports expected, got {violations:?}"
    );
    assert!(violations.contains(&Violation::LineageCycle(ram)));
    assert!(violations.contains(&Violation::LineageCycle(shared)));
}

#[test]
fn rights_escalation_is_reported() {
    let (mut e, root, ram, child) = booted();
    let shared = share(&mut e, root, ram, child, Some(PAGE), Rights::RO);
    assert!(audit(&e).is_empty());

    // Attenuation is checked against the parent, so the escalation must
    // exceed the parent's RWX — add the USE bit the endowment never had.
    assert!(e.corrupt_cap(shared, |c| c.rights = Rights(Rights::RWX.0 | Rights::U)));
    assert_eq!(audit(&e), vec![Violation::RightsEscalation(shared)]);
}

#[test]
fn region_escape_is_reported() {
    let (mut e, root, ram, child) = booted();
    let shared = share(&mut e, root, ram, child, Some(PAGE), Rights::RW);
    assert!(audit(&e).is_empty());

    // Grow the child one page past its parent's endowment.
    assert!(e.corrupt_cap(shared, |c| c.resource =
        Resource::mem(RAM.start, RAM.end + 0x1000)));
    assert_eq!(audit(&e), vec![Violation::RegionEscape(shared)]);
}

#[test]
fn active_while_granted_is_reported() {
    let (mut e, root, ram, child) = booted();
    e.grant(root, ram, child, None, Rights::RWX, RevocationPolicy::NONE)
        .expect("grant");
    assert!(audit(&e).is_empty(), "grant suspends the parent: sound");

    // Reactivate the suspended parent while its grant is outstanding —
    // exclusivity is broken.
    assert!(e.corrupt_cap(ram, |c| c.active = true));
    assert_eq!(audit(&e), vec![Violation::ActiveWhileGranted(ram)]);
}

#[test]
fn owned_by_dead_is_reported() {
    let (mut e, root, ram, child) = booted();
    let shared = share(&mut e, root, ram, child, Some(PAGE), Rights::RW);
    assert!(audit(&e).is_empty());

    // `kill()` would revoke the child's capabilities first; flipping the
    // state directly models a lost revocation.
    e.corrupt_domain(child).unwrap().state = DomainState::Dead;
    assert_eq!(audit(&e), vec![Violation::OwnedByDead(shared)]);
}

#[test]
fn sealed_extended_is_reported() {
    let (mut e, root, ram, child) = booted();
    let shared = share(&mut e, root, ram, child, Some(PAGE), Rights::RW);
    e.set_entry(root, child, 0x1000).expect("set entry");
    e.seal(root, child, SealPolicy::nestable()).expect("seal");
    assert!(audit(&e).is_empty(), "share-then-seal is sound");

    // The engine refuses to share into a sealed domain, so the unsound
    // state needs a forged stamp: pretend the capability appeared after
    // the owner's seal.
    let sealed = e.domain_sealed_at(child).expect("sealed stamp");
    assert!(e.corrupt_cap(shared, |c| c.created_at = sealed + 1));
    assert_eq!(audit(&e), vec![Violation::SealedExtended(shared)]);
}

#[test]
fn strict_seal_shared_is_reported() {
    let (mut e, root, ram, child) = booted();
    let shared = share(&mut e, root, ram, child, Some(PAGE), Rights::RW);
    assert!(audit(&e).is_empty());

    // A strictly sealed granter cannot share outward after sealing — and
    // the engine enforces exactly that, so forge the granter's seal to a
    // stamp before the share instead.
    let granter = e.corrupt_domain(root).unwrap();
    granter.seal_policy = SealPolicy::strict();
    granter.sealed_at = Some(0);
    assert_eq!(audit(&e), vec![Violation::StrictSealShared(shared)]);
}

#[test]
fn transition_into_quarantined_is_reported() {
    let (mut e, root, _ram, child) = booted();
    let tcap = e
        .make_transition(root, child, RevocationPolicy::NONE)
        .expect("transition");
    assert!(audit(&e).is_empty());

    // `quarantine()` deactivates every transition into the domain, so the
    // unsound state needs a forged reactivation afterwards.
    e.quarantine(child).expect("quarantine");
    assert!(audit(&e).is_empty(), "quarantine itself is sound");
    assert!(e.corrupt_cap(tcap, |c| c.active = true));
    assert_eq!(audit(&e), vec![Violation::TransitionIntoQuarantined(tcap)]);
}
