//! Regression tests for the checked revoke-authorization walk and the
//! corruption hook's re-indexing.
//!
//! The revoke lineage walk used to `.expect("lineage parents exist")`:
//! a dangling parent id — reachable only through memory corruption or an
//! engine bug, i.e. exactly the states `audit()` exists to catch — would
//! panic the TCB instead of returning a typed refusal. These tests pin
//! the new contract: corruption yields `CapError`, never a panic, and
//! every indexed query still agrees with its linear-scan twin after a
//! corruption hook has fired (debug and `paranoid-checks` builds).
#![cfg(any(debug_assertions, feature = "paranoid-checks"))]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use tyche_core::prelude::*;

const RAM: MemRegion = MemRegion {
    start: 0x0,
    end: 0x10_000,
};
const PAGE: MemRegion = MemRegion {
    start: 0x1000,
    end: 0x2000,
};

/// Boots root with a RAM endowment and a two-hop share chain:
/// `root --(ca: PAGE)--> a --(cb: PAGE)--> b`.
fn engine_with_chain() -> (CapEngine, DomainId, DomainId, DomainId, CapId, CapId) {
    let mut e = CapEngine::new();
    let root = e.create_root_domain();
    let ram = e
        .endow(root, Resource::Memory(RAM), Rights::RWX)
        .expect("endow RAM");
    let (a, _) = e.create_domain(root).expect("create a");
    let (b, _) = e.create_domain(root).expect("create b");
    let ca = e
        .share(root, ram, a, Some(PAGE), Rights::RW, RevocationPolicy::NONE)
        .expect("share root->a");
    let cb = e
        .share(a, ca, b, Some(PAGE), Rights::RW, RevocationPolicy::NONE)
        .expect("share a->b");
    (e, root, a, b, ca, cb)
}

#[test]
fn revoke_with_dangling_parent_errors_instead_of_panicking() {
    let (mut e, root, _a, _b, _ca, cb) = engine_with_chain();
    let bogus = CapId(0xDEAD);
    assert!(e.corrupt_cap(cb, |c| c.parent = Some(bogus)));
    // Root is not the granter of cb, so authorization needs the lineage
    // walk — which must now report the dangling link, not unwrap it.
    assert_eq!(e.revoke(root, cb), Err(CapError::NoSuchCap(bogus)));
}

#[test]
fn revoke_with_parent_cycle_terminates_with_error() {
    let (mut e, root, _a, _b, _ca, cb) = engine_with_chain();
    // Self-cycle: the walk would previously spin forever looking for an
    // authorizing ancestor. The hop bound turns it into a refusal. Root
    // neither granted nor owns any link of the cycle, so the walk must
    // run until the bound trips.
    assert!(e.corrupt_cap(cb, |c| c.parent = Some(cb)));
    assert!(matches!(e.revoke(root, cb), Err(CapError::NoSuchCap(_))));
}

#[test]
fn revoke_by_granter_survives_corrupt_lineage() {
    let (mut e, _root, a, _b, _ca, cb) = engine_with_chain();
    assert!(e.corrupt_cap(cb, |c| c.parent = Some(CapId(0xDEAD))));
    // The granter check short-circuits before the lineage walk, so the
    // direct granter can still clean up a corrupted capability.
    assert_eq!(e.revoke(a, cb), Ok(()));
    assert!(matches!(e.revoke(a, cb), Err(CapError::NoSuchCap(_))));
}

#[test]
fn corruption_keeps_the_indexes_exact() {
    let (mut e, root, a, b, ca, _cb) = engine_with_chain();
    // Redirect ownership, shrink a region and suspend a capability
    // through the hook: each rewrite re-indexes the record, so every
    // indexed query answers for the corrupted state, exactly as its
    // scan twin does.
    let moved = e
        .caps_of(b)
        .iter()
        .find(|c| c.is_memory())
        .map(|c| c.id)
        .unwrap();
    assert!(e.corrupt_cap(moved, |c| c.owner = a));
    assert!(e.corrupt_cap(ca, |c| c.resource = Resource::mem(0x1000, 0x1800)));
    let ids = |v: Vec<&Capability>| {
        let mut ids: Vec<CapId> = v.into_iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids
    };
    assert!(
        e.caps_of(a).iter().any(|c| c.id == moved),
        "owner index followed"
    );
    assert!(!e.caps_of(b).iter().any(|c| c.id == moved));
    let half = MemRegion::new(0x1800, 0x2000);
    assert_eq!(e.refcount_mem_full(half).max, 2, "root + moved, not ca");
    assert!(e.corrupt_cap(moved, |c| c.active = false));
    assert_eq!(
        e.refcount_mem_full(half).max,
        1,
        "suspension left the index"
    );
    for d in [root, a, b] {
        assert_eq!(ids(e.caps_of(d)), ids(e.caps_of_scan(d)));
        assert_eq!(e.enumerate(d), e.enumerate_scan(d));
    }
    for region in [PAGE, half, RAM] {
        assert_eq!(
            e.refcount_mem_full(region),
            e.refcount_mem_full_scan(region)
        );
    }
    let key = |v: &(DomainId, MemRegion)| (v.0, v.1.start, v.1.end);
    let mut coverage = e.active_mem_coverage();
    let mut scan = e.active_mem_coverage_scan();
    coverage.sort_by_key(key);
    scan.sort_by_key(key);
    assert_eq!(coverage, scan);
}
