//! Exhaustive behavioural tests for the capability engine: every operation,
//! its success path, and each typed refusal.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use tyche_core::audit::assert_sound;
use tyche_core::prelude::*;

fn boot() -> (CapEngine, DomainId, CapId) {
    let mut e = CapEngine::new();
    let os = e.create_root_domain();
    let ram = e
        .endow(os, Resource::mem(0, 0x100_0000), Rights::RWX)
        .unwrap();
    for core in 0..4 {
        e.endow(os, Resource::CpuCore(core), Rights::USE).unwrap();
    }
    e.drain_effects();
    (e, os, ram)
}

/// Creates a sealed child with one granted page and a core, returning
/// (child, transition cap, granted page cap).
fn sealed_child(e: &mut CapEngine, os: DomainId, ram: CapId) -> (DomainId, CapId, CapId) {
    let (child, tcap) = e.create_domain(os).unwrap();
    let (page, _rest) = e.split(os, ram, 0x1000).unwrap();
    let granted = e
        .grant(os, page, child, None, Rights::RWX, RevocationPolicy::ZERO)
        .unwrap();
    let core0 = e
        .caps_of(os)
        .iter()
        .find(|c| matches!(c.resource, Resource::CpuCore(0)) && c.active)
        .map(|c| c.id)
        .unwrap();
    e.share(os, core0, child, None, Rights::USE, RevocationPolicy::NONE)
        .unwrap();
    e.set_entry(os, child, 0x0).unwrap();
    e.seal(os, child, SealPolicy::strict()).unwrap();
    (child, tcap, granted)
}

// ---------------------------------------------------------------------
// Domain lifecycle
// ---------------------------------------------------------------------

#[test]
fn root_domain_exists_once() {
    let (e, os, _) = boot();
    assert_eq!(e.root(), Some(os));
    assert!(e.domain(os).unwrap().manager.is_none());
}

#[test]
#[should_panic(expected = "root domain already exists")]
fn second_root_panics() {
    let (mut e, _, _) = boot();
    e.create_root_domain();
}

#[test]
fn endow_only_root() {
    let (mut e, os, _) = boot();
    let (child, _) = e.create_domain(os).unwrap();
    assert_eq!(
        e.endow(child, Resource::mem(0x200_0000, 0x300_0000), Rights::RW),
        Err(CapError::RootDomain)
    );
}

#[test]
fn create_domain_returns_transition_cap() {
    let (mut e, os, _) = boot();
    let (child, tcap) = e.create_domain(os).unwrap();
    let cap = e.cap(tcap).unwrap();
    assert_eq!(cap.owner, os);
    assert!(matches!(cap.resource, Resource::Transition(t) if t == child));
    assert_eq!(e.domain(child).unwrap().manager, Some(os));
}

#[test]
fn any_domain_can_create_domains() {
    // The democratization claim: an unprivileged child domain creates its
    // own children without the root's involvement.
    let (mut e, os, _) = boot();
    let (child, _) = e.create_domain(os).unwrap();
    let (grandchild, _) = e.create_domain(child).unwrap();
    assert_eq!(e.domain(grandchild).unwrap().manager, Some(child));
    assert_sound(&e);
}

#[test]
fn seal_requires_entry_point() {
    let (mut e, os, _) = boot();
    let (child, _) = e.create_domain(os).unwrap();
    assert_eq!(
        e.seal(os, child, SealPolicy::strict()),
        Err(CapError::NoEntryPoint(child))
    );
    e.set_entry(os, child, 0x1000).unwrap();
    assert!(e.seal(os, child, SealPolicy::strict()).is_ok());
}

#[test]
fn seal_is_idempotent_error() {
    let (mut e, os, _) = boot();
    let (child, _) = e.create_domain(os).unwrap();
    e.set_entry(os, child, 0).unwrap();
    e.seal(os, child, SealPolicy::strict()).unwrap();
    assert_eq!(
        e.seal(os, child, SealPolicy::strict()),
        Err(CapError::SealedImmutable(child))
    );
    assert_eq!(
        e.set_entry(os, child, 4),
        Err(CapError::SealedImmutable(child))
    );
}

#[test]
fn only_manager_configures() {
    let (mut e, os, _) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let (b, _) = e.create_domain(os).unwrap();
    assert_eq!(
        e.set_entry(b, a, 0),
        Err(CapError::NotManager {
            target: a,
            actor: b
        })
    );
    // A domain may configure itself pre-seal.
    assert!(e.set_entry(a, a, 0x10).is_ok());
}

#[test]
fn measurement_depends_on_config() {
    let (mut e1, os1, ram1) = boot();
    let (mut e2, os2, ram2) = boot();
    let (c1, _) = e1.create_domain(os1).unwrap();
    let (c2, _) = e2.create_domain(os2).unwrap();
    let (p1, _) = e1.split(os1, ram1, 0x1000).unwrap();
    let (p2, _) = e2.split(os2, ram2, 0x1000).unwrap();
    e1.grant(os1, p1, c1, None, Rights::RW, RevocationPolicy::NONE)
        .unwrap();
    e2.grant(os2, p2, c2, None, Rights::RW, RevocationPolicy::NONE)
        .unwrap();
    e1.set_entry(os1, c1, 0).unwrap();
    e2.set_entry(os2, c2, 0).unwrap();
    let m1 = e1.seal(os1, c1, SealPolicy::strict()).unwrap();
    let m2 = e2.seal(os2, c2, SealPolicy::strict()).unwrap();
    assert_eq!(m1, m2, "identical configs measure identically");

    // Different entry point -> different measurement.
    let (mut e3, os3, ram3) = boot();
    let (c3, _) = e3.create_domain(os3).unwrap();
    let (p3, _) = e3.split(os3, ram3, 0x1000).unwrap();
    e3.grant(os3, p3, c3, None, Rights::RW, RevocationPolicy::NONE)
        .unwrap();
    e3.set_entry(os3, c3, 0x40).unwrap();
    let m3 = e3.seal(os3, c3, SealPolicy::strict()).unwrap();
    assert_ne!(m1, m3);
}

#[test]
fn kill_revokes_everything_cascading() {
    let (mut e, os, ram) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let (b, _) = e.create_domain(os).unwrap();
    // os shares a window with a; a shares it onward to b.
    let w = e
        .share(
            os,
            ram,
            a,
            Some(MemRegion::new(0, 0x2000)),
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .unwrap();
    e.share(a, w, b, None, Rights::RO, RevocationPolicy::NONE)
        .unwrap();
    assert_eq!(e.refcount_mem(MemRegion::new(0, 0x2000)), 3);
    e.kill(os, a).unwrap();
    assert_sound(&e);
    // b's derived share died with a's capability.
    assert_eq!(e.refcount_mem(MemRegion::new(0, 0x2000)), 1);
    // The killed domain's record is reclaimed, and every operation aimed
    // at its id is refused as if the id had never been issued.
    assert!(e.domain(a).is_none());
    assert!(e.domains().all(|d| d.id != a));
    let window = Some(MemRegion::new(0x4000, 0x5000));
    let gone = Err(CapError::NoSuchDomain(a));
    assert_eq!(e.kill(os, a), gone);
    assert_eq!(e.seal(os, a, SealPolicy::strict()).map(|_| ()), gone);
    assert_eq!(e.set_entry(os, a, 0x4000), gone);
    assert_eq!(
        tyche_core::attest::DomainReport::build(&e, a).map(|_| ()),
        gone
    );
    assert_eq!(
        e.share(os, ram, a, window, Rights::RW, RevocationPolicy::NONE)
            .map(|_| ()),
        gone
    );
    assert_eq!(
        e.make_transition(os, a, RevocationPolicy::NONE).map(|_| ()),
        gone
    );
    assert_eq!(e.create_domain(a).map(|_| ()), gone);
    assert_eq!(e.enumerate(a).map(|_| ()), gone);
    // The same calls aimed at the live sibling still go through.
    assert!(e.domain(b).is_some_and(|d| d.is_alive()));
    e.share(os, ram, b, window, Rights::RW, RevocationPolicy::NONE)
        .unwrap();
    e.make_transition(os, b, RevocationPolicy::NONE).unwrap();
    e.set_entry(os, b, 0x4000).unwrap();
    e.seal(os, b, SealPolicy::strict()).unwrap();
    tyche_core::attest::DomainReport::build(&e, b).unwrap();
    e.kill(os, b).unwrap();
    // Retired ids are never re-issued.
    let (c, _) = e.create_domain(os).unwrap();
    assert!(c.0 > a.0 && c.0 > b.0);
    assert_sound(&e);
}

/// Retired ids never answer through a recycled slot. Equal waves of
/// tenants are created, sealed and killed, so each wave refills exactly
/// the arena slots the previous one freed; the last wave stays live in
/// them. Every retired domain and capability id must then be absent
/// from every lookup, and every live record must keep the stamps it got
/// when it was created or sealed.
#[test]
fn retired_ids_stay_absent_after_slot_reuse() {
    const WAVE: u64 = 256;
    const WAVES: usize = 6;
    let (mut e, os, ram) = boot();
    // Live records and the stamps they were given.
    let mut live_domains: Vec<(DomainId, Option<u64>)> = vec![(os, None)];
    let mut live_caps: Vec<(CapId, u64)> = e
        .caps()
        .map(|c| (c.id, e.cap_created_at(c.id).unwrap()))
        .collect();
    let mut retired_domains = Vec::new();
    let mut retired_caps = Vec::new();
    let mut first_wave_bytes = 0;
    for wave in 0..WAVES {
        let mut tenants = Vec::new();
        for i in 0..WAVE {
            let (child, tcap) = e.create_domain(os).unwrap();
            let page = MemRegion::new(i * 0x1000, (i + 1) * 0x1000);
            let shared = e
                .share(
                    os,
                    ram,
                    child,
                    Some(page),
                    Rights::RW,
                    RevocationPolicy::NONE,
                )
                .unwrap();
            e.set_entry(os, child, page.start).unwrap();
            e.seal(os, child, SealPolicy::strict()).unwrap();
            let sealed = e.domain_sealed_at(child).unwrap();
            let caps = [tcap, shared].map(|c| (c, e.cap_created_at(c).unwrap()));
            assert!(caps.iter().all(|&(_, t)| t < sealed));
            tenants.push((child, sealed, caps));
        }
        e.drain_effects();
        if wave == 0 {
            first_wave_bytes = e.store_bytes();
        }
        if wave + 1 == WAVES {
            for (child, sealed, caps) in tenants {
                live_domains.push((child, Some(sealed)));
                live_caps.extend(caps);
            }
        } else {
            for (child, _, caps) in tenants {
                e.kill(os, child).unwrap();
                retired_domains.push(child);
                retired_caps.extend(caps.map(|(c, _)| c));
            }
        }
    }
    e.drain_effects();
    assert_sound(&e);
    // Without slot reuse the arenas would hold six waves' records.
    assert!(
        e.store_bytes() < first_wave_bytes * 3 / 2,
        "arena grew: {} B after the last wave, {first_wave_bytes} B after the first",
        e.store_bytes()
    );
    for d in retired_domains {
        assert!(e.domain(d).is_none(), "retired {d} answered");
        assert_eq!(e.domain_sealed_at(d), None, "retired {d} has a seal stamp");
    }
    for c in retired_caps {
        assert!(e.cap(c).is_none(), "retired {c} answered");
        assert_eq!(
            e.cap_created_at(c),
            None,
            "retired {c} has a creation stamp"
        );
    }
    for (d, sealed) in live_domains {
        assert_eq!(e.domain(d).map(|x| x.id), Some(d));
        assert_eq!(e.domain_sealed_at(d), sealed, "{d} seal stamp moved");
    }
    for (c, created) in live_caps {
        assert_eq!(e.cap(c).map(|x| x.id), Some(c));
        assert_eq!(
            e.cap_created_at(c),
            Some(created),
            "{c} creation stamp moved"
        );
    }
}

#[test]
fn kill_requires_manager() {
    let (mut e, os, _) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let (b, _) = e.create_domain(os).unwrap();
    assert_eq!(
        e.kill(b, a),
        Err(CapError::NotManager {
            target: a,
            actor: b
        })
    );
    assert_eq!(
        e.kill(a, os),
        Err(CapError::NotManager {
            target: os,
            actor: a
        })
    );
}

// ---------------------------------------------------------------------
// Share / grant / split
// ---------------------------------------------------------------------

#[test]
fn share_keeps_both_active() {
    let (mut e, os, ram) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let child = e
        .share(
            os,
            ram,
            a,
            Some(MemRegion::new(0, 0x1000)),
            Rights::RO,
            RevocationPolicy::NONE,
        )
        .unwrap();
    assert!(e.cap(ram).unwrap().active);
    assert!(e.cap(child).unwrap().active);
    assert_eq!(e.refcount_mem(MemRegion::new(0, 0x1000)), 2);
    let fx = e.drain_effects();
    assert!(
        fx.iter().any(|f| matches!(f,
        Effect::MapMem { domain, region, rights }
            if *domain == a && region.start == 0 && region.end == 0x1000 && *rights == Rights::RO))
    );
}

#[test]
fn grant_suspends_granter() {
    let (mut e, os, ram) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let (page, _rest) = e.split(os, ram, 0x1000).unwrap();
    e.drain_effects();
    let granted = e
        .grant(os, page, a, None, Rights::RW, RevocationPolicy::ZERO)
        .unwrap();
    assert!(!e.cap(page).unwrap().active, "granter suspended");
    assert!(e.cap(granted).unwrap().active);
    assert!(e
        .refcount_mem_full(MemRegion::new(0, 0x1000))
        .is_exclusive());
    let fx = e.drain_effects();
    assert!(fx
        .iter()
        .any(|f| matches!(f, Effect::UnmapMem { domain, .. } if *domain == os)));
    assert!(fx
        .iter()
        .any(|f| matches!(f, Effect::MapMem { domain, .. } if *domain == a)));
    // The suspended capability cannot be used for anything.
    assert_eq!(
        e.share(os, page, a, None, Rights::RO, RevocationPolicy::NONE),
        Err(CapError::Inactive(page))
    );
}

#[test]
fn grant_rejects_partial_region() {
    let (mut e, os, ram) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    assert_eq!(
        e.grant(
            os,
            ram,
            a,
            Some(MemRegion::new(0, 0x1000)),
            Rights::RW,
            RevocationPolicy::NONE
        ),
        Err(CapError::OutOfRange),
        "grants are whole-capability; split first"
    );
}

#[test]
fn rights_attenuation_enforced() {
    let (mut e, os, ram) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let ro = e
        .share(
            os,
            ram,
            a,
            Some(MemRegion::new(0, 0x1000)),
            Rights::RO,
            RevocationPolicy::NONE,
        )
        .unwrap();
    let (b, _) = e.create_domain(os).unwrap();
    // a cannot escalate its read-only share to read-write for b.
    assert_eq!(
        e.share(a, ro, b, None, Rights::RW, RevocationPolicy::NONE),
        Err(CapError::RightsEscalation)
    );
    assert!(e
        .share(a, ro, b, None, Rights::RO, RevocationPolicy::NONE)
        .is_ok());
    assert_sound(&e);
}

#[test]
fn subrange_must_be_contained() {
    let (mut e, os, ram) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    assert_eq!(
        e.share(
            os,
            ram,
            a,
            Some(MemRegion::new(0, 0x200_0000)),
            Rights::RO,
            RevocationPolicy::NONE
        ),
        Err(CapError::OutOfRange)
    );
}

#[test]
fn subrange_on_cpu_cap_rejected() {
    let (mut e, os, _) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let core = e
        .caps_of(os)
        .iter()
        .find(|c| matches!(c.resource, Resource::CpuCore(1)))
        .map(|c| c.id)
        .unwrap();
    assert_eq!(
        e.share(
            os,
            core,
            a,
            Some(MemRegion::new(0, 1)),
            Rights::USE,
            RevocationPolicy::NONE
        ),
        Err(CapError::SubrangeOnNonMemory)
    );
}

#[test]
fn share_requires_ownership() {
    let (mut e, os, ram) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let (b, _) = e.create_domain(os).unwrap();
    assert_eq!(
        e.share(a, ram, b, None, Rights::RO, RevocationPolicy::NONE),
        Err(CapError::NotOwner { cap: ram, actor: a })
    );
}

#[test]
fn split_and_reunify_via_revoke() {
    let (mut e, os, ram) = boot();
    e.drain_effects();
    let (lo, hi) = e.split(os, ram, 0x80_0000).unwrap();
    assert!(!e.cap(ram).unwrap().active);
    assert!(e.cap(lo).unwrap().active && e.cap(hi).unwrap().active);
    assert_eq!(e.pending_effects(), 0, "split changes no hardware state");
    // Coverage is preserved across the split.
    assert_eq!(e.refcount_mem(MemRegion::new(0, 0x100_0000)), 1);
    // Revoking both pieces reactivates the original.
    e.revoke(os, lo).unwrap();
    assert!(!e.cap(ram).unwrap().active, "one piece still out");
    e.revoke(os, hi).unwrap();
    assert!(e.cap(ram).unwrap().active, "parent reactivated");
    assert_sound(&e);
}

#[test]
fn split_validates() {
    let (mut e, os, ram) = boot();
    assert_eq!(e.split(os, ram, 0), Err(CapError::OutOfRange));
    assert_eq!(e.split(os, ram, 0x100_0000), Err(CapError::OutOfRange));
    let (a, _) = e.create_domain(os).unwrap();
    assert_eq!(
        e.split(a, ram, 0x1000),
        Err(CapError::NotOwner { cap: ram, actor: a })
    );
    let core = e
        .caps_of(os)
        .iter()
        .find(|c| matches!(c.resource, Resource::CpuCore(0)))
        .map(|c| c.id)
        .unwrap();
    assert_eq!(e.split(os, core, 1), Err(CapError::WrongResourceType));
}

// ---------------------------------------------------------------------
// Sealing semantics
// ---------------------------------------------------------------------

#[test]
fn sealed_domain_cannot_be_extended() {
    let (mut e, os, ram) = boot();
    let (child, _, _) = sealed_child(&mut e, os, ram);
    let leftover = e
        .caps_of(os)
        .iter()
        .find(|c| c.active && c.is_memory())
        .map(|c| c.id)
        .unwrap();
    assert_eq!(
        e.share(
            os,
            leftover,
            child,
            Some(MemRegion::new(0x2000, 0x3000)),
            Rights::RO,
            RevocationPolicy::NONE
        ),
        Err(CapError::TargetSealed(child))
    );
}

#[test]
fn strictly_sealed_domain_cannot_share_outward() {
    let (mut e, os, ram) = boot();
    let (child, _, granted) = sealed_child(&mut e, os, ram);
    let (other, _) = e.create_domain(os).unwrap();
    assert_eq!(
        e.share(
            child,
            granted,
            other,
            None,
            Rights::RO,
            RevocationPolicy::NONE
        ),
        Err(CapError::ActorSealed(child))
    );
    assert_eq!(
        e.create_domain(child),
        Err(CapError::SealedImmutable(child))
    );
}

#[test]
fn nestable_seal_allows_nested_enclaves() {
    // §4.2: "Our enclaves can map libtyche in their domains to spawn
    // nested enclaves, and share exclusively owned pages with them."
    let (mut e, os, ram) = boot();
    let (enc, _t) = e.create_domain(os).unwrap();
    let (page, _rest) = e.split(os, ram, 0x4000).unwrap();
    let granted = e
        .grant(os, page, enc, None, Rights::RWX, RevocationPolicy::ZERO)
        .unwrap();
    e.set_entry(os, enc, 0).unwrap();
    e.seal(os, enc, SealPolicy::nestable()).unwrap();

    // The sealed enclave spawns a nested enclave and endows it from its
    // own exclusively-owned memory.
    let (nested, _t2) = e.create_domain(enc).unwrap();
    let (inner, _keep) = e.split(enc, granted, 0x2000).unwrap();
    let moved = e
        .grant(enc, inner, nested, None, Rights::RW, RevocationPolicy::ZERO)
        .unwrap();
    e.set_entry(enc, nested, 0).unwrap();
    e.seal(enc, nested, SealPolicy::strict()).unwrap();
    assert_sound(&e);
    assert!(e
        .refcount_mem_full(MemRegion::new(0, 0x2000))
        .is_exclusive());
    assert_eq!(e.cap(moved).unwrap().owner, nested);
    // The OS can still reclaim the whole subtree from the top.
    e.revoke(os, granted).unwrap();
    assert_sound(&e);
    assert!(e.cap(moved).is_none(), "nested grant revoked transitively");
}

// ---------------------------------------------------------------------
// Revocation
// ---------------------------------------------------------------------

#[test]
fn revoke_emits_cleanup_per_policy() {
    let (mut e, os, ram) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let (page, _) = e.split(os, ram, 0x1000).unwrap();
    let granted = e
        .grant(os, page, a, None, Rights::RW, RevocationPolicy::OBFUSCATE)
        .unwrap();
    e.drain_effects();
    e.revoke(os, granted).unwrap();
    let fx = e.drain_effects();
    assert!(fx
        .iter()
        .any(|f| matches!(f, Effect::UnmapMem { domain, .. } if *domain == a)));
    assert!(fx
        .iter()
        .any(|f| matches!(f, Effect::ZeroMem { region } if region.start == 0)));
    assert!(fx
        .iter()
        .any(|f| matches!(f, Effect::FlushCache { domain } if *domain == a)));
    assert!(fx
        .iter()
        .any(|f| matches!(f, Effect::FlushTlb { domain } if *domain == a)));
    // Granter reactivated.
    assert!(fx
        .iter()
        .any(|f| matches!(f, Effect::MapMem { domain, .. } if *domain == os)));
    assert!(e.cap(page).unwrap().active);
}

#[test]
fn share_revocation_does_not_zero() {
    let (mut e, os, ram) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let s = e
        .share(
            os,
            ram,
            a,
            Some(MemRegion::new(0, 0x1000)),
            Rights::RW,
            RevocationPolicy::ZERO,
        )
        .unwrap();
    e.drain_effects();
    e.revoke(os, s).unwrap();
    let fx = e.drain_effects();
    assert!(
        !fx.iter().any(|f| matches!(f, Effect::ZeroMem { .. })),
        "zeroing a shared window would destroy the surviving owner's data"
    );
    assert!(fx
        .iter()
        .any(|f| matches!(f, Effect::UnmapMem { domain, .. } if *domain == a)));
}

#[test]
fn revoke_authorization() {
    let (mut e, os, ram) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let (b, _) = e.create_domain(os).unwrap();
    let s1 = e
        .share(
            os,
            ram,
            a,
            Some(MemRegion::new(0, 0x1000)),
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .unwrap();
    let s2 = e
        .share(a, s1, b, None, Rights::RO, RevocationPolicy::NONE)
        .unwrap();
    // b (the holder) cannot revoke its own incoming share.
    assert_eq!(
        e.revoke(b, s2),
        Err(CapError::NotGranter { cap: s2, actor: b })
    );
    // A stranger cannot revoke.
    let (c, _) = e.create_domain(os).unwrap();
    assert_eq!(
        e.revoke(c, s2),
        Err(CapError::NotGranter { cap: s2, actor: c })
    );
    // The lineage ancestor (os) can revoke a's onward share.
    e.revoke(os, s2).unwrap();
    assert!(e.cap(s2).is_none());
    assert!(e.cap(s1).is_some());
}

#[test]
fn deep_chain_revocation_terminates_and_cleans() {
    let (mut e, os, ram) = boot();
    // Build a 100-domain share chain.
    let mut domains = vec![os];
    let mut cap = ram;
    for _ in 0..100 {
        let parent = *domains.last().unwrap();
        let (d, _) = e.create_domain(parent).unwrap();
        cap = e
            .share(parent, cap, d, None, Rights::RW, RevocationPolicy::NONE)
            .unwrap();
        domains.push(d);
    }
    assert_eq!(e.refcount_mem(MemRegion::new(0, 0x1000)), 101);
    // Revoke at the root: everything below goes.
    let top_child = e
        .caps_of(domains[1])
        .iter()
        .find(|c| c.is_memory())
        .map(|c| c.id)
        .unwrap();
    e.revoke(os, top_child).unwrap();
    assert_eq!(e.refcount_mem(MemRegion::new(0, 0x1000)), 1);
    assert_sound(&e);
}

// ---------------------------------------------------------------------
// Transitions
// ---------------------------------------------------------------------

#[test]
fn enter_happy_path() {
    let (mut e, os, ram) = boot();
    let (child, tcap, _) = sealed_child(&mut e, os, ram);
    let (target, entry, _policy) = e.can_enter(os, tcap, 0).unwrap();
    assert_eq!(target, child);
    assert_eq!(entry, 0x0);
}

#[test]
fn enter_rejections() {
    let (mut e, os, ram) = boot();
    let (child, tcap) = e.create_domain(os).unwrap();
    // Unsealed target.
    assert_eq!(e.can_enter(os, tcap, 0), Err(CapError::NotSealed(child)));
    let (page, _) = e.split(os, ram, 0x1000).unwrap();
    e.grant(os, page, child, None, Rights::RWX, RevocationPolicy::NONE)
        .unwrap();
    e.set_entry(os, child, 0).unwrap();
    e.seal(os, child, SealPolicy::strict()).unwrap();
    // Target owns no core.
    assert_eq!(
        e.can_enter(os, tcap, 0),
        Err(CapError::CoreNotOwned {
            domain: child,
            core: 0
        })
    );
    // Stranger without the transition capability.
    let (other, _) = e.create_domain(os).unwrap();
    assert_eq!(
        e.can_enter(other, tcap, 0),
        Err(CapError::NotOwner {
            cap: tcap,
            actor: other
        })
    );
}

#[test]
fn transition_cap_transferable() {
    // The OS hands the right to call an enclave to another domain —
    // transition rights are ordinary capabilities.
    let (mut e, os, ram) = boot();
    let (child, tcap, _) = sealed_child(&mut e, os, ram);
    let (caller, _) = e.create_domain(os).unwrap();
    let handed = e
        .share(os, tcap, caller, None, Rights::USE, RevocationPolicy::NONE)
        .unwrap();
    assert_eq!(e.can_enter(caller, handed, 0).unwrap().0, child);
    // And it is revocable like any capability.
    e.revoke(os, handed).unwrap();
    assert_eq!(
        e.can_enter(caller, handed, 0),
        Err(CapError::NoSuchCap(handed))
    );
}

#[test]
fn kill_cleans_dangling_transitions() {
    let (mut e, os, ram) = boot();
    let (child, tcap, _) = sealed_child(&mut e, os, ram);
    e.kill(os, child).unwrap();
    assert!(e.cap(tcap).is_none(), "transition into dead domain revoked");
    assert_sound(&e);
}

#[test]
fn core_ownership_via_grant_moves_access() {
    let (mut e, os, _) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let core2 = e
        .caps_of(os)
        .iter()
        .find(|c| matches!(c.resource, Resource::CpuCore(2)))
        .map(|c| c.id)
        .unwrap();
    e.drain_effects();
    assert!(e.owns_core(os, 2));
    e.grant(os, core2, a, None, Rights::USE, RevocationPolicy::NONE)
        .unwrap();
    assert!(!e.owns_core(os, 2), "granter lost the core");
    assert!(e.owns_core(a, 2));
    let fx = e.drain_effects();
    assert!(fx
        .iter()
        .any(|f| matches!(f, Effect::RemoveCore { domain, core: 2 } if *domain == os)));
    assert!(fx
        .iter()
        .any(|f| matches!(f, Effect::AddCore { domain, core: 2 } if *domain == a)));
}

#[test]
fn device_caps_attach_and_detach() {
    let (mut e, os, _) = boot();
    let dev = e.endow(os, Resource::Device(0x42), Rights::USE).unwrap();
    let (a, _) = e.create_domain(os).unwrap();
    e.drain_effects();
    let granted = e
        .grant(os, dev, a, None, Rights::USE, RevocationPolicy::NONE)
        .unwrap();
    assert!(e.owns_device(a, 0x42));
    assert!(!e.owns_device(os, 0x42));
    let fx = e.drain_effects();
    assert!(fx
        .iter()
        .any(|f| matches!(f, Effect::AttachDevice { device: 0x42, domain } if *domain == a)));
    e.revoke(os, granted).unwrap();
    assert!(e.owns_device(os, 0x42));
}

// ---------------------------------------------------------------------
// Enumeration / Figure 4
// ---------------------------------------------------------------------

#[test]
fn enumerate_reports_refcounts() {
    let (mut e, os, ram) = boot();
    let (a, _) = e.create_domain(os).unwrap();
    let (b, _) = e.create_domain(os).unwrap();
    // Shared window between a and b (plus os): build Figure 4.
    let w = e
        .share(
            os,
            ram,
            a,
            Some(MemRegion::new(0x2000, 0x3000)),
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .unwrap();
    e.share(a, w, b, None, Rights::RW, RevocationPolicy::NONE)
        .unwrap();
    let resources = e.enumerate(a).unwrap();
    let window = resources
        .iter()
        .find(|r| matches!(r.resource, Resource::Memory(m) if m.start == 0x2000))
        .unwrap();
    assert_eq!(window.refcount.max, 3, "os + a + b");
    let eb = e.enumerate(b).unwrap();
    assert_eq!(eb.len(), 1);
}

// ---------------------------------------------------------------------
// Poisoned-domain quarantine
// ---------------------------------------------------------------------

#[cfg(any(debug_assertions, feature = "paranoid-checks"))] // forges through `corrupt_cap`
#[test]
fn quarantined_domain_is_killable_and_enumerable_but_not_enterable() {
    let (mut e, os, ram) = boot();
    let (child, tcap, _) = sealed_child(&mut e, os, ram);
    assert!(e.can_enter(os, tcap, 0).is_ok());
    e.quarantine(child).unwrap();
    assert_sound(&e);
    // Not enterable: the transition capability was deactivated, and even
    // a forged-active one is refused on the target's quarantine flag.
    assert_eq!(e.can_enter(os, tcap, 0), Err(CapError::Inactive(tcap)));
    assert!(e.corrupt_cap(tcap, |c| c.active = true));
    assert_eq!(e.can_enter(os, tcap, 0), Err(CapError::Quarantined(child)));
    assert!(e.corrupt_cap(tcap, |c| c.active = false));
    // No new routes in: fresh transition capabilities are refused.
    assert_eq!(
        e.make_transition(os, child, RevocationPolicy::NONE),
        Err(CapError::Quarantined(child))
    );
    // Still enumerable (auditors can inspect) and killable (managers can
    // tear it down).
    assert!(e.enumerate(child).is_ok());
    assert!(e.domain(child).unwrap().is_quarantined());
    e.kill(os, child).unwrap();
    assert_sound(&e);
    assert_eq!(e.quarantine(child), Err(CapError::NoSuchDomain(child)));
}

#[test]
fn quarantine_is_sticky_across_revocation() {
    // A suspended transition capability into a quarantined domain must
    // not reactivate when the suspending grant is revoked.
    let (mut e, os, ram) = boot();
    let (child, tcap, _) = sealed_child(&mut e, os, ram);
    let (caller, _) = e.create_domain(os).unwrap();
    let handed = e
        .grant(os, tcap, caller, None, Rights::USE, RevocationPolicy::NONE)
        .unwrap();
    e.quarantine(child).unwrap();
    assert_sound(&e);
    assert!(!e.cap(handed).unwrap().active, "quarantine deactivates");
    e.revoke(os, handed).unwrap();
    assert!(
        !e.cap(tcap).unwrap().active,
        "granter's transition must stay suspended after quarantine"
    );
    assert_sound(&e);
    // Idempotent on an already-quarantined domain.
    e.quarantine(child).unwrap();
    assert_sound(&e);
}
