//! C10 — the monitor mediates all control transfers and refuses every
//! violation class (§3.1): fixed entry points, core ownership, stack
//! discipline, authorization by running context.

use tyche_bench::{boot, spawn_sealed};
use tyche_core::prelude::*;
use tyche_monitor::abi::MonitorCall;
use tyche_monitor::Status;

#[test]
fn transitions_only_through_capabilities() {
    let mut m = boot();
    let (_d, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    // A second domain that never received the gate cannot enter, even
    // knowing the capability id (ids are not authority — possession is).
    let (_other, other_gate) =
        spawn_sealed(&mut m, 0, 0x20_0000, 0x1000, &[0], SealPolicy::strict());
    m.call(0, MonitorCall::Enter { cap: other_gate }).unwrap();
    assert_eq!(
        m.call(0, MonitorCall::Enter { cap: gate }),
        Err(Status::Denied),
        "gate owned by the OS, not by this domain"
    );
    m.call(0, MonitorCall::Return).unwrap();
}

#[test]
fn entry_point_is_fixed() {
    // There is no API to enter anywhere but the sealed entry point, and
    // the entry point cannot change after sealing.
    let mut m = boot();
    let (d, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    assert_eq!(
        m.call(
            0,
            MonitorCall::SetEntry {
                domain: d,
                entry: 0x10_0800
            }
        ),
        Err(Status::Denied)
    );
    match m.call(0, MonitorCall::Enter { cap: gate }).unwrap() {
        tyche_monitor::monitor::CallResult::Entered { entry, .. } => {
            assert_eq!(entry, 0x10_0000, "always the sealed entry");
        }
        other => panic!("{other:?}"),
    }
    m.call(0, MonitorCall::Return).unwrap();
}

#[test]
fn cores_are_resources() {
    let mut m = boot();
    // Sealed with core 1 only.
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    let (d, gate) = client.create_domain().unwrap();
    let page = client.carve(0x10_0000, 0x10_1000).unwrap();
    client
        .grant(page, d, Rights::RWX, RevocationPolicy::NONE)
        .unwrap();
    let core1 = {
        let me = client.whoami();
        client
            .monitor
            .engine
            .caps_of(me)
            .iter()
            .find(|c| c.active && matches!(c.resource, Resource::CpuCore(1)))
            .map(|c| c.id)
            .unwrap()
    };
    client
        .share(core1, d, None, Rights::USE, RevocationPolicy::NONE)
        .unwrap();
    client.set_entry(d, 0x10_0000).unwrap();
    client.seal(d, SealPolicy::strict()).unwrap();
    // Core 0: refused. Core 1: allowed.
    assert_eq!(
        m.call(0, MonitorCall::Enter { cap: gate }),
        Err(Status::Denied)
    );
    assert!(m.call(1, MonitorCall::Enter { cap: gate }).is_ok());
    m.call(1, MonitorCall::Return).unwrap();
}

#[test]
fn revoking_a_core_strands_the_domain() {
    let mut m = boot();
    let (d, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    // Find the core share child owned by d and revoke it (the OS is the
    // granter).
    let core_cap = m
        .engine
        .caps_of(d)
        .iter()
        .find(|c| matches!(c.resource, Resource::CpuCore(_)))
        .map(|c| c.id)
        .unwrap();
    let os = m.engine.root().unwrap();
    m.engine.revoke(os, core_cap).unwrap();
    m.sync_effects().unwrap();
    assert_eq!(
        m.call(0, MonitorCall::Enter { cap: gate }),
        Err(Status::Denied),
        "no core, no execution — scheduling is a revocable resource"
    );
}

#[test]
fn call_stack_depth_and_discipline() {
    let mut m = boot();
    let (_a, ga) = spawn_sealed(&mut m, 0, 0x10_0000, 0x4_0000, &[0], SealPolicy::nestable());
    // Build a 3-deep call chain: OS -> a -> b (created by a) and check
    // returns unwind in order.
    m.call(0, MonitorCall::Enter { cap: ga }).unwrap();
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    let (b, gb) = client.create_domain().unwrap();
    let page = client.carve(0x10_4000, 0x10_5000).unwrap();
    client
        .grant(page, b, Rights::RW, RevocationPolicy::NONE)
        .unwrap();
    let core = {
        let me = client.whoami();
        client
            .monitor
            .engine
            .caps_of(me)
            .iter()
            .find(|c| c.active && matches!(c.resource, Resource::CpuCore(0)))
            .map(|c| c.id)
            .unwrap()
    };
    client
        .share(core, b, None, Rights::USE, RevocationPolicy::NONE)
        .unwrap();
    client.set_entry(b, 0x12_0000).unwrap();
    client.seal(b, SealPolicy::strict()).unwrap();
    client.enter(gb).unwrap();
    let b_now = m.current_domain(0);
    assert_eq!(b_now, b);
    // Unwind: b -> a -> OS, then one more return is refused.
    m.call(0, MonitorCall::Return).unwrap();
    m.call(0, MonitorCall::Return).unwrap();
    assert_eq!(m.current_domain(0), m.engine.root().unwrap());
    assert_eq!(m.call(0, MonitorCall::Return), Err(Status::Denied));
}

#[test]
fn per_core_contexts_are_independent() {
    let mut m = boot();
    let (a, ga) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0, 1], SealPolicy::strict());
    // Enter a on core 0; core 1 still runs the OS.
    m.call(0, MonitorCall::Enter { cap: ga }).unwrap();
    assert_eq!(m.current_domain(0), a);
    assert_eq!(m.current_domain(1), m.engine.root().unwrap());
    // Core 1's memory view is the OS's; core 0's is the enclave's.
    assert!(
        m.dom_read(1, 0x10_0000, &mut [0u8; 1]).is_err(),
        "core1=OS: no enclave access"
    );
    assert!(
        m.dom_read(0, 0x10_0000, &mut [0u8; 1]).is_ok(),
        "core0=enclave: access"
    );
    m.call(0, MonitorCall::Return).unwrap();
}

#[test]
fn cannot_kill_a_running_domain() {
    // Killing a domain that currently occupies a core would leave that
    // core's hardware context pointing at freed translation frames; the
    // monitor must refuse until the domain is off-CPU.
    let mut m = boot();
    let (victim, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    m.call(0, MonitorCall::Enter { cap: gate }).unwrap();
    // The OS on core 1 tries to kill the domain running on core 0.
    assert_eq!(
        m.call(1, MonitorCall::Kill { domain: victim }),
        Err(Status::Denied)
    );
    assert!(m.engine.domain(victim).unwrap().is_alive());
    // Once it returns, the kill goes through and the core is safe.
    m.call(0, MonitorCall::Return).unwrap();
    m.call(1, MonitorCall::Kill { domain: victim }).unwrap();
    assert_refused_everywhere(&mut m, victim);
    assert!(m.audit_hardware().is_empty());
}

/// A killed domain is reclaimed: the engine holds no record of it, and
/// every call aimed at its id fails as for an id that was never issued
/// (`NoSuchDomain`, reported as `NotFound`). A live domain created
/// afterwards gets a fresh id and accepts the same calls, so the
/// refusals come from the dead id, not from the calls themselves.
fn assert_refused_everywhere(m: &mut tyche_monitor::Monitor, dead: DomainId) {
    assert!(m.engine.domain(dead).is_none());
    let ram = m
        .engine
        .caps_of(m.engine.root().unwrap())
        .iter()
        .find(|c| {
            c.active
                && matches!(c.resource, Resource::Memory(r)
                    if r.start <= 0x30_0000 && 0x30_1000 <= r.end)
        })
        .map(|c| c.id)
        .unwrap();
    let calls = |d: DomainId| {
        [
            MonitorCall::SetEntry {
                domain: d,
                entry: 0x30_0000,
            },
            MonitorCall::Share {
                cap: ram,
                target: d,
                sub: Some((0x30_0000, 0x30_1000)),
                rights: Rights::RW,
                policy: RevocationPolicy::NONE,
            },
            MonitorCall::MakeTransition {
                target: d,
                policy: RevocationPolicy::NONE,
            },
            MonitorCall::Seal {
                domain: d,
                allow_outward: false,
                allow_children: false,
            },
            MonitorCall::Attest {
                domain: d,
                nonce: 7,
            },
            MonitorCall::Kill { domain: d },
        ]
    };
    for call in calls(dead) {
        assert_eq!(m.call(1, call), Err(Status::NotFound), "{call:?}");
    }
    let fresh = match m.call(1, MonitorCall::CreateDomain) {
        Ok(tyche_monitor::monitor::CallResult::NewDomain { domain, .. }) => domain,
        other => panic!("create failed: {other:?}"),
    };
    assert!(fresh.0 > dead.0, "retired ids are never re-issued");
    for call in calls(fresh) {
        assert!(m.call(1, call).is_ok(), "{call:?}");
    }
    assert!(
        m.engine.domain(fresh).is_none(),
        "the fresh domain was killed last"
    );
}

#[test]
fn revoking_memory_of_a_running_domain_takes_effect_immediately() {
    // Revocation does not wait for the victim to stop running: its
    // hardware access is torn down while it is current on another core,
    // with the TLB shootdown applied in the same sync.
    let mut m = boot();
    let (victim, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    m.call(0, MonitorCall::Enter { cap: gate }).unwrap();
    assert!(m.dom_read(0, 0x10_0000, &mut [0u8; 1]).is_ok());
    // The OS (running on core 1) revokes the victim's memory grant.
    let mem_cap = m
        .engine
        .caps_of(victim)
        .iter()
        .find(|c| c.is_memory())
        .map(|c| c.id)
        .unwrap();
    m.call(1, MonitorCall::Revoke { cap: mem_cap }).unwrap();
    // The running domain lost the page at once — no stale-TLB window.
    assert!(
        m.dom_read(0, 0x10_0000, &mut [0u8; 1]).is_err(),
        "revocation strips a running domain immediately"
    );
    // The victim stays alive and still returns cleanly.
    assert!(m.engine.domain(victim).unwrap().is_alive());
    m.call(0, MonitorCall::Return).unwrap();
    assert!(m.audit_hardware().is_empty());
}

#[test]
fn revoking_the_gate_of_a_running_domain_does_not_strand_the_stack() {
    // Revoking the transition capability used to enter a running domain
    // closes the door for future entries but does not invalidate the
    // in-flight frame: the return path unwinds normally.
    let mut m = boot();
    let (_victim, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    m.call(0, MonitorCall::Enter { cap: gate }).unwrap();
    m.call(1, MonitorCall::Revoke { cap: gate }).unwrap();
    m.call(0, MonitorCall::Return).unwrap();
    assert_eq!(m.current_domain(0), m.engine.root().unwrap());
    // Re-entry through the revoked gate is refused.
    assert_eq!(
        m.call(0, MonitorCall::Enter { cap: gate }),
        Err(Status::NotFound)
    );
}

#[test]
fn cannot_kill_a_fast_path_caller() {
    // The kill refusal covers fast-path frames too. This matters because
    // a fast frame caches the caller's VMFUNC slot for the return; if the
    // caller could be killed mid-call, the slot could be recycled by a
    // new domain and the return would switch into the wrong EPT.
    let mut m = boot();
    let (mid, gate_mid) = spawn_sealed(&mut m, 0, 0x10_0000, 0x8000, &[0], SealPolicy::nestable());
    m.enter_fast(0, gate_mid).unwrap();
    // mid creates + fast-enters a child, putting itself on the stack.
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    let (child, gate_child) = client.create_domain().unwrap();
    let page = client.carve(0x10_4000, 0x10_5000).unwrap();
    client
        .grant(page, child, Rights::RW, RevocationPolicy::NONE)
        .unwrap();
    let core = {
        let me = client.whoami();
        client
            .monitor
            .engine
            .caps_of(me)
            .iter()
            .find(|c| c.active && matches!(c.resource, Resource::CpuCore(0)))
            .map(|c| c.id)
            .unwrap()
    };
    client
        .share(core, child, None, Rights::USE, RevocationPolicy::NONE)
        .unwrap();
    client.set_entry(child, 0x10_4000).unwrap();
    client.seal(child, SealPolicy::strict()).unwrap();
    m.enter_fast(0, gate_child).unwrap();
    // The OS on core 1 cannot kill `mid` while its fast frame is live.
    assert_eq!(
        m.call(1, MonitorCall::Kill { domain: mid }),
        Err(Status::Denied)
    );
    assert!(m.engine.domain(mid).unwrap().is_alive());
    // Unwind the fast frames; now the kill goes through.
    m.ret_fast(0).unwrap();
    m.ret_fast(0).unwrap();
    m.call(1, MonitorCall::Kill { domain: mid }).unwrap();
    assert_refused_everywhere(&mut m, mid);
}

#[test]
fn cannot_kill_a_stacked_caller() {
    // A domain that is a *caller* in an active transition stack is also
    // unkillable: the return path would switch into freed state.
    let mut m = boot();
    let (mid, gate_mid) = spawn_sealed(&mut m, 0, 0x10_0000, 0x8000, &[0], SealPolicy::nestable());
    m.call(0, MonitorCall::Enter { cap: gate_mid }).unwrap();
    // mid creates + enters a child, putting itself on the stack.
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    let (_child, gate_child) = client.create_domain().unwrap();
    let page = client.carve(0x10_4000, 0x10_5000).unwrap();
    client
        .grant(page, _child, Rights::RW, RevocationPolicy::NONE)
        .unwrap();
    let core = {
        let me = client.whoami();
        client
            .monitor
            .engine
            .caps_of(me)
            .iter()
            .find(|c| c.active && matches!(c.resource, Resource::CpuCore(0)))
            .map(|c| c.id)
            .unwrap()
    };
    client
        .share(core, _child, None, Rights::USE, RevocationPolicy::NONE)
        .unwrap();
    client.set_entry(_child, 0x10_4000).unwrap();
    client.seal(_child, SealPolicy::strict()).unwrap();
    client.enter(gate_child).unwrap();
    // The OS on core 1 cannot kill `mid` while it sits on core 0's stack.
    assert_eq!(
        m.call(1, MonitorCall::Kill { domain: mid }),
        Err(Status::Denied)
    );
    // Unwind fully; now it can.
    m.call(0, MonitorCall::Return).unwrap();
    m.call(0, MonitorCall::Return).unwrap();
    m.call(1, MonitorCall::Kill { domain: mid }).unwrap();
}
