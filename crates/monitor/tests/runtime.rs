//! End-to-end monitor runtime tests: the full VMCALL path, mediated and
//! fast transitions, hardware-enforced isolation, and clean-up policies.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use tyche_core::prelude::*;
use tyche_hw::machine::{Machine, MachineConfig};
use tyche_monitor::abi::MonitorCall;
use tyche_monitor::backend::riscv::RiscvBackend;
use tyche_monitor::backend::x86::X86Backend;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{boot_riscv, boot_x86, BootConfig, Monitor, Status};

fn x86() -> Monitor {
    boot_x86(BootConfig::default())
}

/// Drives the full create→load→seal flow for a child domain with one
/// exclusive RWX page at `base` and core 0 shared; returns (domain,
/// transition cap).
fn spawn_sealed(m: &mut Monitor, base: u64) -> (DomainId, CapId) {
    let core = 0usize;
    let (child, tcap) = match m.call(core, MonitorCall::CreateDomain).unwrap() {
        CallResult::NewDomain { domain, transition } => (domain, transition),
        other => panic!("unexpected {other:?}"),
    };
    let os = m.engine.root().unwrap();
    let ram = m
        .engine
        .caps_of(os)
        .iter()
        .find(|c| {
            c.active
                && c.resource
                    .as_mem()
                    .map(|r| r.contains(&MemRegion::new(base, base + 0x1000)))
                    .unwrap_or(false)
        })
        .map(|c| c.id)
        .unwrap();
    // Carve [base, base+0x1000).
    let region = m.engine.cap(ram).unwrap().resource.as_mem().unwrap();
    let page = if region.start == base {
        let (lo, _hi) = match m
            .call(
                core,
                MonitorCall::Split {
                    cap: ram,
                    at: base + 0x1000,
                },
            )
            .unwrap()
        {
            CallResult::Caps(a, b) => (a, b),
            other => panic!("unexpected {other:?}"),
        };
        lo
    } else {
        let (_lo, hi) = match m
            .call(core, MonitorCall::Split { cap: ram, at: base })
            .unwrap()
        {
            CallResult::Caps(a, b) => (a, b),
            other => panic!("unexpected {other:?}"),
        };
        let (mid, _rest) = match m
            .call(
                core,
                MonitorCall::Split {
                    cap: hi,
                    at: base + 0x1000,
                },
            )
            .unwrap()
        {
            CallResult::Caps(a, b) => (a, b),
            other => panic!("unexpected {other:?}"),
        };
        mid
    };
    m.call(
        core,
        MonitorCall::Grant {
            cap: page,
            target: child,
            rights: Rights::RWX,
            policy: RevocationPolicy::ZERO,
        },
    )
    .unwrap();
    // Share core 0.
    let core_cap = m
        .engine
        .caps_of(os)
        .iter()
        .find(|c| c.active && matches!(c.resource, Resource::CpuCore(0)))
        .map(|c| c.id)
        .unwrap();
    m.call(
        core,
        MonitorCall::Share {
            cap: core_cap,
            target: child,
            sub: None,
            rights: Rights::USE,
            policy: RevocationPolicy::NONE,
        },
    )
    .unwrap();
    m.call(
        core,
        MonitorCall::SetEntry {
            domain: child,
            entry: base,
        },
    )
    .unwrap();
    m.call(
        core,
        MonitorCall::Seal {
            domain: child,
            allow_outward: false,
            allow_children: false,
        },
    )
    .unwrap();
    (child, tcap)
}

#[test]
fn os_reads_and_writes_through_ept() {
    let mut m = x86();
    m.dom_write(0, 0x5000, b"hello tyche").unwrap();
    let mut buf = [0u8; 11];
    m.dom_read(0, 0x5000, &mut buf).unwrap();
    assert_eq!(&buf, b"hello tyche");
}

#[test]
fn os_cannot_touch_monitor_memory() {
    let mut m = x86();
    let monitor_base = m.machine.domain_ram.end.as_u64();
    assert!(
        m.dom_write(0, monitor_base, &[0xff]).is_err(),
        "monitor region unmapped for OS"
    );
    assert!(m.dom_read(0, monitor_base + 0x100, &mut [0u8; 1]).is_err());
}

#[test]
fn full_enclave_lifecycle_with_isolation() {
    let mut m = x86();
    let base = 0x10_0000u64;
    m.dom_write(0, base, b"enclave-secret").unwrap();
    let (child, tcap) = spawn_sealed(&mut m, base);

    // After the grant the OS can no longer read the page.
    assert!(
        m.dom_read(0, base, &mut [0u8; 4]).is_err(),
        "OS lost the granted page"
    );

    // Enter the enclave; it can read its memory.
    let entered = m.call(0, MonitorCall::Enter { cap: tcap }).unwrap();
    assert!(matches!(entered, CallResult::Entered { target, .. } if target == child));
    assert_eq!(m.current_domain(0), child);
    let mut buf = [0u8; 14];
    m.dom_read(0, base, &mut buf).unwrap();
    assert_eq!(&buf, b"enclave-secret");
    // ...but not the OS's memory.
    assert!(m.dom_read(0, 0x5000, &mut [0u8; 1]).is_err());

    // Return to the OS.
    let ret = m.call(0, MonitorCall::Return).unwrap();
    assert!(matches!(ret, CallResult::Returned { to } if to == m.engine.root().unwrap()));
    assert_eq!(m.current_domain(0), m.engine.root().unwrap());
}

#[test]
fn revocation_zeroes_enclave_memory() {
    let mut m = x86();
    let base = 0x20_0000u64;
    m.dom_write(0, base, b"key-material").unwrap();
    let (child, tcap) = spawn_sealed(&mut m, base);
    let granted = m
        .engine
        .caps_of(child)
        .iter()
        .find(|c| c.is_memory())
        .map(|c| c.id)
        .unwrap();
    let _ = tcap;
    m.call(0, MonitorCall::Revoke { cap: granted }).unwrap();
    // The OS regained the page — and it is zeroed.
    let mut buf = [0u8; 12];
    m.dom_read(0, base, &mut buf).unwrap();
    assert_eq!(
        &buf, &[0u8; 12],
        "ZERO policy scrubbed the page before return"
    );
}

#[test]
fn enter_requires_transition_cap_and_core() {
    let mut m = x86();
    let (child, tcap) = spawn_sealed(&mut m, 0x30_0000);
    // Enter on a core the child does not own (core 1 was never shared).
    assert_eq!(
        m.call(1, MonitorCall::Enter { cap: tcap }),
        Err(Status::Denied)
    );
    // A bogus capability id.
    assert_eq!(
        m.call(0, MonitorCall::Enter { cap: CapId(9999) }),
        Err(Status::NotFound)
    );
    let _ = child;
}

#[test]
fn return_without_call_denied() {
    let mut m = x86();
    assert_eq!(m.call(0, MonitorCall::Return), Err(Status::Denied));
}

#[test]
fn fast_path_is_cheaper_than_mediated() {
    let mut m = x86();
    let (_child, tcap) = spawn_sealed(&mut m, 0x40_0000);

    // Mediated round trip cost.
    let before = m.machine.cycles.now();
    m.call(0, MonitorCall::Enter { cap: tcap }).unwrap();
    m.call(0, MonitorCall::Return).unwrap();
    let mediated = m.machine.cycles.since(before);

    // Fast round trip cost.
    let before = m.machine.cycles.now();
    m.enter_fast(0, tcap).unwrap();
    m.ret_fast(0).unwrap();
    let fast = m.machine.cycles.since(before);

    assert!(
        fast * 5 < mediated,
        "VMFUNC path ({fast} cycles) should be >5x cheaper than mediated ({mediated} cycles)"
    );
    assert_eq!(m.stats().transitions_fast, 2);
    // The paper's number: ~100 cycles per one-way fast transition.
    assert!(
        (50..500).contains(&(fast / 2)),
        "one-way fast transition = {} cycles",
        fast / 2
    );
}

#[test]
fn fast_path_with_flush_policy_falls_back_to_mediated() {
    let mut m = x86();
    let (child, _tcap) = spawn_sealed(&mut m, 0x50_0000);
    let os = m.engine.root().unwrap();
    let flushing = m
        .engine
        .make_transition(os, child, RevocationPolicy::OBFUSCATE)
        .unwrap();
    // A flush policy needs the monitor in the loop: the fast path falls
    // back to the mediated path (the doc comment's contract) instead of
    // refusing outright. The entry succeeds, is counted as mediated, and
    // pays at least the vm-exit trap cost.
    let calls = m.stats().calls;
    m.trace().enable(m.machine.cores);
    let before = m.machine.cycles.now();
    assert_eq!(m.enter_fast(0, flushing), Ok(child));
    assert!(m.machine.cycles.since(before) >= m.machine.cost.vmexit_roundtrip);
    assert_eq!(m.stats().transitions_fast, 0);
    assert_eq!(m.stats().transitions_mediated, 1);
    assert_eq!(m.stats().calls, calls + 1, "fallback is a monitor call");
    // It is the `Enter` hypercall in the trace too: exactly one
    // hyper-enter/hyper-exit bracket, around the mediated entry.
    let log = m.trace().drain();
    let shape: Vec<&str> = log
        .events()
        .iter()
        .map(|e| e.kind.name())
        .filter(|n| matches!(*n, "hyper-enter" | "hyper-exit" | "enter"))
        .collect();
    assert_eq!(shape, ["hyper-enter", "enter", "hyper-exit"]);
    let enter_leaf = MonitorCall::Enter { cap: flushing }.encode().0;
    assert!(log.events().iter().any(|e| matches!(
        e.kind,
        tyche_core::trace::EventKind::HyperEnter { leaf, .. } if leaf == enter_leaf
    )));
    // The frame is a normal mediated frame: Return works and re-applies
    // the flush policy on the way back.
    assert_eq!(
        m.call(0, MonitorCall::Return),
        Ok(CallResult::Returned { to: os })
    );
    assert_eq!(m.stats().transitions_mediated, 2);
}

#[test]
fn flush_policy_fallback_is_exactly_a_direct_enter_call() {
    // Two identical machines; one enters through the fast path's
    // flush-policy fallback, the other with the `Enter` hypercall. The
    // fallback reuses its own validation, so nothing may tell them apart:
    // same result, same trace events, same model cycles.
    let run = |fast: bool| {
        let mut m = x86();
        let (child, _tcap) = spawn_sealed(&mut m, 0x50_0000);
        let os = m.engine.root().unwrap();
        let gate = m
            .engine
            .make_transition(os, child, RevocationPolicy::OBFUSCATE)
            .unwrap();
        m.sync_effects().unwrap();
        m.trace().enable(m.machine.cores);
        let before = m.machine.cycles.now();
        let entered = if fast {
            m.enter_fast(0, gate)
        } else {
            match m.call(0, MonitorCall::Enter { cap: gate }) {
                Ok(CallResult::Entered { target, .. }) => Ok(target),
                other => panic!("unexpected {other:?}"),
            }
        };
        let cycles = m.machine.cycles.since(before);
        let stats = m.stats();
        let counts = (
            stats.calls,
            stats.transitions_mediated,
            stats.transitions_fast,
        );
        (entered, cycles, m.trace().drain().events().to_vec(), counts)
    };
    let (fast, direct) = (run(true), run(false));
    assert!(fast.0.is_ok());
    assert_eq!(fast.0, direct.0);
    assert_eq!(fast.1, direct.1, "model cycles");
    assert!(!fast.2.is_empty());
    assert_eq!(fast.2, direct.2, "trace events");
    assert_eq!(fast.3, direct.3, "counters");
}

#[test]
fn fast_path_cache_invalidated_by_revoke() {
    let mut m = x86();
    let (child, tcap) = spawn_sealed(&mut m, 0x70_0000);
    // Two round trips: the second enter rides the warm validation cache.
    assert_eq!(m.enter_fast(0, tcap), Ok(child));
    m.ret_fast(0).unwrap();
    assert_eq!(m.enter_fast(0, tcap), Ok(child));
    m.ret_fast(0).unwrap();
    // Revoke the transition capability (engine generation bumps): the
    // cached validation must not let the dead capability enter.
    let os = m.engine.root().unwrap();
    m.engine.revoke(os, tcap).unwrap();
    m.sync_effects().unwrap();
    assert_eq!(m.enter_fast(0, tcap), Err(Status::NotFound));
}

#[test]
fn fast_path_cache_invalidated_by_core_revoke() {
    let mut m = x86();
    let (child, tcap) = spawn_sealed(&mut m, 0x72_0000);
    assert_eq!(m.enter_fast(0, tcap), Ok(child));
    m.ret_fast(0).unwrap();
    // Revoke the child's core share: it can no longer be scheduled, even
    // though the transition capability itself is untouched.
    let os = m.engine.root().unwrap();
    let core_cap = m
        .engine
        .caps_of(child)
        .iter()
        .find(|c| matches!(c.resource, Resource::CpuCore(0)))
        .map(|c| c.id)
        .unwrap();
    m.engine.revoke(os, core_cap).unwrap();
    m.sync_effects().unwrap();
    assert_eq!(m.enter_fast(0, tcap), Err(Status::Denied));
}

#[test]
fn fast_path_cache_invalidated_by_kill() {
    let mut m = x86();
    let (child, tcap) = spawn_sealed(&mut m, 0x74_0000);
    assert_eq!(m.enter_fast(0, tcap), Ok(child));
    m.ret_fast(0).unwrap();
    m.call(0, MonitorCall::Kill { domain: child }).unwrap();
    assert_eq!(m.enter_fast(0, tcap), Err(Status::NotFound));
}

#[test]
fn fast_path_hit_miss_and_mediated_agree() {
    // A cache miss (which validates through the engine), a cache hit and
    // the mediated `Enter` all switch the same caller into the same
    // domain; only the mechanism and its counters differ.
    let mut m = x86();
    let (child, tcap) = spawn_sealed(&mut m, 0x76_0000);
    let os = m.engine.root().unwrap();
    let entry = m.engine.domain(child).unwrap().entry.unwrap();
    m.trace().enable(m.machine.cores);
    for _ in 0..2 {
        assert_eq!(m.enter_fast(0, tcap), Ok(child));
        assert_eq!(m.ret_fast(0), Ok(os));
    }
    assert_eq!(
        m.call(0, MonitorCall::Enter { cap: tcap }),
        Ok(CallResult::Entered {
            target: child,
            entry
        })
    );
    m.call(0, MonitorCall::Return).unwrap();
    let log = m.trace().drain();
    let names: Vec<&str> = log.events().iter().map(|e| e.kind.name()).collect();
    let fills = names.iter().filter(|n| **n == "cache-fill").count();
    let hits = names.iter().filter(|n| **n == "cache-hit").count();
    assert_eq!((fills, hits), (1, 1), "one miss, then one hit");
    let enters: Vec<(u64, u64, bool)> = log
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            tyche_core::trace::EventKind::Enter { from, to, fast } => Some((from, to, fast)),
            _ => None,
        })
        .collect();
    assert_eq!(
        enters,
        [
            (os.0, child.0, true),
            (os.0, child.0, true),
            (os.0, child.0, false)
        ]
    );
    assert_eq!(m.stats().transitions_fast, 4);
    assert_eq!(m.stats().transitions_mediated, 2);
}

#[test]
fn unsealed_domain_cannot_run() {
    let mut m = x86();
    let (child, tcap) = match m.call(0, MonitorCall::CreateDomain).unwrap() {
        CallResult::NewDomain { domain, transition } => (domain, transition),
        other => panic!("unexpected {other:?}"),
    };
    let _ = child;
    assert_eq!(
        m.call(0, MonitorCall::Enter { cap: tcap }),
        Err(Status::Denied)
    );
}

#[test]
fn actor_is_implicit_current_domain() {
    // A domain cannot act with another domain's authority: the enclave
    // tries to revoke the OS's capabilities and fails, because the actor
    // is derived from the running context.
    let mut m = x86();
    let (child, tcap) = spawn_sealed(&mut m, 0x60_0000);
    let os = m.engine.root().unwrap();
    let os_ram = m
        .engine
        .caps_of(os)
        .iter()
        .find(|c| c.active && c.is_memory())
        .map(|c| c.id)
        .unwrap();
    m.call(0, MonitorCall::Enter { cap: tcap }).unwrap();
    assert_eq!(m.current_domain(0), child);
    // Enclave attempts to revoke an OS capability subtree.
    assert!(matches!(
        m.call(0, MonitorCall::Revoke { cap: os_ram }),
        Err(Status::Denied) | Err(Status::NotFound)
    ));
    // And cannot kill the OS.
    assert_eq!(
        m.call(0, MonitorCall::Kill { domain: os }),
        Err(Status::Denied)
    );
}

#[test]
fn enumerate_counts_own_resources() {
    let mut m = x86();
    let (_child, tcap) = spawn_sealed(&mut m, 0x70_0000);
    m.call(0, MonitorCall::Enter { cap: tcap }).unwrap();
    match m.call(0, MonitorCall::Enumerate).unwrap() {
        CallResult::Count(n) => assert_eq!(n, 2, "one memory page + one core"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn riscv_end_to_end() {
    let mut m = boot_riscv(BootConfig::default());
    let base = 0x10_0000u64;
    m.dom_write(0, base, b"riscv-secret").unwrap();
    let (child, tcap) = spawn_sealed(&mut m, base);
    assert!(
        m.dom_read(0, base, &mut [0u8; 4]).is_err(),
        "OS lost the page (PMP)"
    );
    m.call(0, MonitorCall::Enter { cap: tcap }).unwrap();
    assert_eq!(m.current_domain(0), child);
    let mut buf = [0u8; 12];
    m.dom_read(0, base, &mut buf).unwrap();
    assert_eq!(&buf, b"riscv-secret");
    assert!(
        m.dom_read(0, 0x5000, &mut [0u8; 1]).is_err(),
        "enclave confined by PMP"
    );
    m.call(0, MonitorCall::Return).unwrap();
    let mut buf2 = [0u8; 1];
    m.dom_read(0, 0x5000, &mut buf2).unwrap();
}

#[test]
fn riscv_fragmented_share_compensated() {
    // Sharing a 15th discontiguous fragment into one domain exceeds PMP
    // capacity: the monitor must report BackendFailure and roll back, so
    // the engine and hardware stay consistent.
    let mut m = boot_riscv(BootConfig::default());
    let os = m.engine.root().unwrap();
    let (child, _t) = match m.call(0, MonitorCall::CreateDomain).unwrap() {
        CallResult::NewDomain { domain, transition } => (domain, transition),
        other => panic!("unexpected {other:?}"),
    };
    let ram = m
        .engine
        .caps_of(os)
        .iter()
        .find(|c| c.active && c.is_memory())
        .map(|c| c.id)
        .unwrap();
    let mut failures = 0;
    for i in 0..20u64 {
        let start = 0x10_0000 + i * 0x4000;
        let r = m.call(
            0,
            MonitorCall::Share {
                cap: ram,
                target: child,
                sub: Some((start, start + 0x1000)),
                rights: Rights::RO,
                policy: RevocationPolicy::NONE,
            },
        );
        if r == Err(Status::BackendFailure) {
            failures += 1;
        }
    }
    assert_eq!(failures, 6, "fragments 15..20 rejected");
    assert!(m.stats().compensations >= 6);
    // The engine view matches what the backend accepted: 14 fragments.
    let mems = m
        .engine
        .caps_of(child)
        .iter()
        .filter(|c| c.is_memory())
        .count();
    assert_eq!(mems, 14);
    assert!(tyche_core::audit::audit(&m.engine).is_empty());
}

#[test]
fn vmfunc_unavailable_on_riscv() {
    let mut m = boot_riscv(BootConfig::default());
    let (_child, tcap) = spawn_sealed(&mut m, 0x10_0000);
    assert_eq!(m.enter_fast(0, tcap), Err(Status::BackendFailure));
}

#[test]
fn invalid_args_rejected_before_engine() {
    let mut m = x86();
    let os_ram = {
        let os = m.engine.root().unwrap();
        m.engine
            .caps_of(os)
            .iter()
            .find(|c| c.is_memory())
            .map(|c| c.id)
            .unwrap()
    };
    // Unaligned split.
    assert_eq!(
        m.call(
            0,
            MonitorCall::Split {
                cap: os_ram,
                at: 0x1234
            }
        ),
        Err(Status::InvalidArg)
    );
    // Unaligned share window.
    assert_eq!(
        m.call(
            0,
            MonitorCall::Share {
                cap: os_ram,
                target: DomainId(0),
                sub: Some((0x100, 0x200)),
                rights: Rights::RO,
                policy: RevocationPolicy::NONE
            }
        ),
        Err(Status::InvalidArg)
    );
}

#[test]
fn domain_churn_beyond_eptp_list_capacity() {
    // The EPTP list has 512 slots; dead domains must return theirs, or a
    // long-lived machine stops being able to create domains (found by the
    // domain_create_kill benchmark panicking at iteration 513).
    let mut m = x86();
    for i in 0..1500u32 {
        let CallResult::NewDomain { domain, .. } = m
            .call(0, MonitorCall::CreateDomain)
            .unwrap_or_else(|e| panic!("creation {i} refused: {e:?}"))
        else {
            panic!("unexpected result");
        };
        m.call(0, MonitorCall::Kill { domain }).unwrap();
    }
    assert!(tyche_core::audit::audit(&m.engine).is_empty());
}

// ---------------------------------------------------------------------------
// Backend resync cost rules: these pin down the charging discipline the SMP
// shootdown model relies on — redundant resyncs must be free (riscv) and TLB
// shootdowns must only be charged when a live translation actually changed
// (x86). A regression here silently inflates every BENCH_smp number.
// ---------------------------------------------------------------------------

#[test]
fn riscv_resync_of_unchanged_layout_is_free() {
    let mut machine = Machine::new(MachineConfig::default());
    let mut engine = CapEngine::new();
    let mut backend = RiscvBackend::new(&machine);
    let os = engine.create_root_domain();
    engine
        .endow(os, Resource::mem(0, 0x10_0000), Rights::RWX)
        .unwrap();
    for fx in engine.drain_effects() {
        backend.apply(&mut machine, &engine, &fx).unwrap();
    }

    // Re-delivering a map effect whose page view coalesces to the layout
    // already programmed must early-exit before any PMP write is charged.
    let c0 = machine.cycles.now();
    backend
        .apply(
            &mut machine,
            &engine,
            &Effect::MapMem {
                domain: os,
                region: MemRegion::new(0, 0x1000),
                rights: Rights::RWX,
            },
        )
        .unwrap();
    assert_eq!(
        machine.cycles.now(),
        c0,
        "unchanged layout resync must not charge PMP writes"
    );

    // A real layout change pays for its segment writes.
    let ram = engine.caps_of(os)[0].id;
    let (child, _gate) = engine.create_domain(os).unwrap();
    engine
        .share(
            os,
            ram,
            child,
            Some(MemRegion::new(0x4000, 0x8000)),
            Rights::RO,
            RevocationPolicy::NONE,
        )
        .unwrap();
    for fx in engine.drain_effects() {
        backend.apply(&mut machine, &engine, &fx).unwrap();
    }
    assert!(
        machine.cycles.now() > c0,
        "changed layout resync must charge PMP writes"
    );
}

#[test]
fn x86_shootdown_charged_only_on_translation_change() {
    let mut machine = Machine::new(MachineConfig::default());
    let mut engine = CapEngine::new();
    let mut backend = X86Backend::new(&mut machine).unwrap();
    let os = engine.create_root_domain();
    engine
        .endow(os, Resource::mem(0, 0x10_0000), Rights::RWX)
        .unwrap();
    for fx in engine.drain_effects() {
        backend.apply(&mut machine, &engine, &fx).unwrap();
    }

    // Map-only resync: the child only *gains* pages. No stale translation
    // can exist for a page that was never mapped, so no shootdown charge.
    let ram = engine.caps_of(os)[0].id;
    let (child, _gate) = engine.create_domain(os).unwrap();
    let share = engine
        .share(
            os,
            ram,
            child,
            Some(MemRegion::new(0x4000, 0x6000)),
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .unwrap();
    let c0 = machine.cycles.now();
    for fx in engine.drain_effects() {
        backend.apply(&mut machine, &engine, &fx).unwrap();
    }
    assert_eq!(
        machine.cycles.now(),
        c0,
        "map-only resync must not charge a TLB shootdown"
    );

    // Revoking the window unmaps live child translations: exactly one
    // coalesced shootdown for the whole resync, nothing more.
    engine.revoke(os, share).unwrap();
    let c1 = machine.cycles.now();
    for fx in engine.drain_effects() {
        backend.apply(&mut machine, &engine, &fx).unwrap();
    }
    assert_eq!(
        machine.cycles.now() - c1,
        machine.cost.tlb_flush,
        "unmap resync must charge exactly one TLB shootdown"
    );
}
