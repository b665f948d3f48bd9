//! Engine memory under tenant churn: a killed domain is reclaimed, so
//! the engine's storage follows the live population, not the number of
//! domains ever created.
//!
//! A 1k-tenant resident population stays up while 50k short-lived
//! tenants each run `CreateDomain → Share → SetEntry → Seal → Kill`
//! through `Monitor::call`. Each killed domain's record is gone at once,
//! the domain count stays at the resident count, and the bytes held by
//! the engine's slab stores stay within 10% of their level after the
//! first 1k lifecycles.
//! The bound has teeth: keeping each killed domain's record alone would
//! overshoot it many times over (checked below), and so would an index
//! that grows with every id ever issued.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use tyche_core::domain::Domain;
use tyche_core::prelude::*;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{boot_riscv, BootConfig, Monitor, MonitorCall};

const RESIDENTS: u64 = 1_000;
const LIFECYCLES: u64 = 50_000;
/// Lifecycles run before the storage baseline is taken.
const WARMUP: u64 = 1_000;
const PAGE: u64 = 0x1000;
/// Resident tenant `i` owns the page at `RESIDENT_BASE + i * PAGE`.
const RESIDENT_BASE: u64 = 0x100_0000;
/// Every short-lived tenant gets this page.
const CHURN_PAGE: u64 = 0x80_0000;

fn call(m: &mut Monitor, c: MonitorCall) -> CallResult {
    m.call(0, c)
        .unwrap_or_else(|s| panic!("{c:?} refused: {s:?}"))
}

fn create(m: &mut Monitor) -> DomainId {
    match call(m, MonitorCall::CreateDomain) {
        CallResult::NewDomain { domain, .. } => domain,
        other => panic!("create: {other:?}"),
    }
}

/// Shares `[page, page + PAGE)` of root's RAM with `d`, sets its entry
/// there, and seals it.
fn provision(m: &mut Monitor, ram: CapId, d: DomainId, page: u64) {
    call(
        m,
        MonitorCall::Share {
            cap: ram,
            target: d,
            sub: Some((page, page + PAGE)),
            rights: Rights::RW,
            policy: RevocationPolicy::NONE,
        },
    );
    call(
        m,
        MonitorCall::SetEntry {
            domain: d,
            entry: page,
        },
    );
    call(
        m,
        MonitorCall::Seal {
            domain: d,
            allow_outward: false,
            allow_children: false,
        },
    );
}

#[test]
fn churn_keeps_engine_storage_flat() {
    let mut cfg = BootConfig::default();
    cfg.machine.ram_bytes = 64 << 20;
    let mut m = boot_riscv(cfg);
    let root = m.engine.root().unwrap();
    let top = RESIDENT_BASE + RESIDENTS * PAGE;
    let ram = m
        .engine
        .caps_of(root)
        .iter()
        .find(|c| {
            c.active
                && matches!(c.resource, Resource::Memory(r)
                    if r.start <= CHURN_PAGE && top <= r.end)
        })
        .map(|c| c.id)
        .unwrap();
    for i in 0..RESIDENTS {
        let d = create(&mut m);
        provision(&mut m, ram, d, RESIDENT_BASE + i * PAGE);
    }
    let resident = m.engine.domains().count();
    assert_eq!(resident as u64, RESIDENTS + 1, "residents plus root");

    let mut baseline = 0;
    let mut last = root;
    for n in 1..=LIFECYCLES {
        let d = create(&mut m);
        assert!(d.0 > last.0, "ids are never re-issued");
        last = d;
        provision(&mut m, ram, d, CHURN_PAGE);
        call(&mut m, MonitorCall::Kill { domain: d });
        assert!(m.engine.domain(d).is_none(), "killed domain is reclaimed");
        if n == WARMUP {
            baseline = m.engine.store_bytes();
        }
        if n % 5_000 == 0 {
            assert_eq!(m.engine.domains().count(), resident);
            let bytes = m.engine.store_bytes();
            assert!(
                bytes * 10 <= baseline * 11,
                "store bytes grew from {baseline} to {bytes} after {n} lifecycles"
            );
        }
    }
    assert_eq!(m.engine.domains().count(), resident);
    assert!(tyche_core::audit::audit(&m.engine).is_empty());
    assert!(m.audit_hardware().is_empty());

    // The bound would catch a leak: an engine that kept only the record
    // of each domain killed after the baseline would outgrow it.
    let kept = (LIFECYCLES - WARMUP) as usize * std::mem::size_of::<Domain>();
    assert!(
        kept * 10 > baseline,
        "a {kept}-byte leak must exceed 10% of the {baseline}-byte baseline"
    );
}
