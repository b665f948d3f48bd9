//! Injected hardware faults through the monitor's runtime paths: every
//! fault must resolve to a checked `Status` or the documented quarantine
//! state — never a panic — and the engine auditor must stay clean
//! throughout. These pin the failure modes the adversarial fuzzer
//! (`repro fuzz`) explores at scale, each with a fixed, replayable plan.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use tyche_core::audit;
use tyche_core::metrics::Counter;
use tyche_core::prelude::*;
use tyche_hw::faults::{FaultPlan, FaultSite};
use tyche_monitor::abi::MonitorCall;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{boot_x86, BootConfig, Monitor, Status};

fn x86() -> Monitor {
    boot_x86(BootConfig::default())
}

/// Creates a child with one RWX page granted at `base` (zero-on-revoke)
/// and returns (child, grant cap held by the child).
fn child_with_page(m: &mut Monitor, base: u64) -> (DomainId, CapId) {
    let (child, _tcap) = match m.call(0, MonitorCall::CreateDomain).unwrap() {
        CallResult::NewDomain { domain, transition } => (domain, transition),
        other => panic!("unexpected {other:?}"),
    };
    let os = m.engine.root().unwrap();
    let ram = m
        .engine
        .caps_of(os)
        .iter()
        .find(|c| c.active && c.is_memory())
        .map(|c| c.id)
        .unwrap();
    let (_lo, hi) = match m
        .call(0, MonitorCall::Split { cap: ram, at: base })
        .unwrap()
    {
        CallResult::Caps(a, b) => (a, b),
        other => panic!("unexpected {other:?}"),
    };
    let (page, _rest) = match m
        .call(
            0,
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
    let granted = match m
        .call(
            0,
            MonitorCall::Grant {
                cap: page,
                target: child,
                rights: Rights::RWX,
                policy: RevocationPolicy::ZERO,
            },
        )
        .unwrap()
    {
        CallResult::Cap(c) => c,
        other => panic!("unexpected {other:?}"),
    };
    (child, granted)
}

#[test]
fn record_content_on_bad_range_is_refused_not_panicked() {
    let mut m = x86();
    let (child, _) = match m.call(0, MonitorCall::CreateDomain).unwrap() {
        CallResult::NewDomain { domain, transition } => (domain, transition),
        other => panic!("unexpected {other:?}"),
    };
    // A range far beyond installed RAM used to hit the infallible
    // `measure_range` and abort the monitor.
    let res = m.call(
        0,
        MonitorCall::RecordContent {
            domain: child,
            start: u64::MAX - 4095,
            end: u64::MAX,
        },
    );
    assert_eq!(res.unwrap_err(), Status::InvalidArg);
    assert!(audit::audit(&m.engine).is_empty());
}

#[test]
fn record_content_under_injected_read_fault_degrades_checked() {
    let mut m = x86();
    let (child, _) = match m.call(0, MonitorCall::CreateDomain).unwrap() {
        CallResult::NewDomain { domain, transition } => (domain, transition),
        other => panic!("unexpected {other:?}"),
    };
    m.machine.faults.arm(FaultPlan::once(FaultSite::MemRead));
    let res = m.call(
        0,
        MonitorCall::RecordContent {
            domain: child,
            start: 0x10_0000,
            end: 0x10_1000,
        },
    );
    assert_eq!(res.unwrap_err(), Status::BackendFailure);
    assert_eq!(m.machine.faults.fired(), 1);
    // With the fault spent, the same call goes through.
    assert!(m
        .call(
            0,
            MonitorCall::RecordContent {
                domain: child,
                start: 0x10_0000,
                end: 0x10_1000,
            },
        )
        .is_ok());
    assert!(audit::audit(&m.engine).is_empty());
}

#[test]
fn transient_write_fault_during_revoke_heals_without_quarantine() {
    let mut m = x86();
    let (_child, granted) = child_with_page(&mut m, 0x10_0000);
    // One write fails mid-apply (an EPT table write); the compensation
    // path must resync the implicated domain once the fault is spent,
    // so hardware rejoins the engine with nobody quarantined.
    m.machine.faults.arm(FaultPlan::once(FaultSite::MemWrite));
    let res = m.call(0, MonitorCall::Revoke { cap: granted });
    assert_eq!(res.unwrap_err(), Status::BackendFailure);
    assert_eq!(m.stats().quarantines, 0, "transient fault must self-heal");
    assert!(audit::audit(&m.engine).is_empty());
    m.machine.faults.clear();
    let hw = m.audit_hardware();
    assert!(hw.is_empty(), "hardware must match the engine: {hw:?}");
}

#[test]
fn persistent_write_faults_quarantine_instead_of_diverging() {
    let mut m = x86();
    let (child, granted) = child_with_page(&mut m, 0x10_0000);
    // Every write fails: the resyncs fail, the heal fails, and every
    // implicated domain must end up quarantined — the documented
    // degraded state — rather than silently keeping stale mappings.
    m.machine
        .faults
        .arm(FaultPlan::after(FaultSite::MemWrite, 0, 1 << 32));
    let res = m.call(0, MonitorCall::Revoke { cap: granted });
    assert_eq!(res.unwrap_err(), Status::BackendFailure);
    assert!(m.stats().quarantines >= 1, "divergence must be quarantined");
    assert!(
        m.engine.domain(child).unwrap().is_quarantined(),
        "the domain whose unmap was lost is quarantined"
    );
    assert!(audit::audit(&m.engine).is_empty());
    m.machine.faults.clear();
    // Quarantined domains are the *documented* divergence: the hardware
    // audit skips them, and everything else must still match.
    let hw = m.audit_hardware();
    assert!(hw.is_empty(), "non-quarantined state must match: {hw:?}");
    // Quarantined: still killable and enumerable...
    assert!(m.engine.enumerate(child).is_ok());
    assert!(m.call(0, MonitorCall::Kill { domain: child }).is_ok());
}

#[test]
fn quarantined_domain_is_not_enterable() {
    let mut m = x86();
    let (child, _granted) = child_with_page(&mut m, 0x10_0000);
    let tcap = match m
        .call(
            0,
            MonitorCall::MakeTransition {
                target: child,
                policy: RevocationPolicy::NONE,
            },
        )
        .unwrap()
    {
        CallResult::Cap(c) => c,
        other => panic!("unexpected {other:?}"),
    };
    m.engine.quarantine(child).unwrap();
    let _ = m.sync_effects();
    let res = m.call(0, MonitorCall::Enter { cap: tcap });
    assert_eq!(res.unwrap_err(), Status::Denied);
    assert!(audit::audit(&m.engine).is_empty());
}

#[test]
fn injected_quote_and_entropy_faults_are_checked_errors() {
    let mut m = x86();
    m.machine.faults.arm(FaultPlan::once(FaultSite::TpmQuote));
    assert!(m.machine_quote([3u8; 32]).is_err());
    assert!(m.machine_quote([3u8; 32]).is_ok(), "fault spent");
    m.machine
        .faults
        .arm(FaultPlan::once(FaultSite::DrbgEntropy));
    assert!(m.machine.tpm.fresh_nonce().is_err());
    assert!(m.machine.tpm.fresh_nonce().is_ok(), "fault spent");
}

#[test]
fn injected_ept_walk_fault_fails_domain_access_not_monitor() {
    let mut m = x86();
    m.machine.faults.arm(FaultPlan::once(FaultSite::EptWalk));
    let mut buf = [0u8; 8];
    assert!(m.dom_read(0, 0x10_0000, &mut buf).is_err());
    assert!(m.dom_read(0, 0x10_0000, &mut buf).is_ok(), "fault spent");
    assert!(audit::audit(&m.engine).is_empty());
    let hw = m.audit_hardware();
    assert!(hw.is_empty(), "{hw:?}");
}

#[test]
fn dropped_and_duplicated_ipis_are_counted_not_fatal() {
    let mut m = x86();
    m.machine.irq.route(32, 7);
    m.machine.faults.arm(FaultPlan::once(FaultSite::IpiDrop));
    m.machine.faults.arm(FaultPlan::once(FaultSite::IpiDup));
    let dropped = m.machine.irq.raise(32);
    assert!(dropped.is_none(), "dropped IPI delivers nowhere");
    let duplicated = m.machine.irq.raise(32);
    assert_eq!(duplicated, Some(7));
    assert_eq!(m.machine.metrics.get(Counter::IrqInjectedDrops), 1);
    assert_eq!(m.machine.metrics.get(Counter::IrqInjectedDups), 1);
    assert_eq!(m.machine.irq.drain(7), vec![32, 32], "delivered twice");
    // Injectors spent: delivery is back to normal.
    assert_eq!(m.machine.irq.raise(32), Some(7));
    assert_eq!(m.machine.irq.drain(7), vec![32]);
}
