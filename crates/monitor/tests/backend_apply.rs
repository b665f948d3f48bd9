//! Backends apply each memory effect's own region.
//!
//! A one-page `Grant` or `Revoke` must cost backend work that grows with
//! the page, not with the memory the granter holds elsewhere: the
//! `backend.work_units` counter (pages visited on x86, capabilities
//! visited on RISC-V) must read the same at 64 MiB and at 1 GiB of RAM.
//! And applying only the changed regions must still leave every domain's
//! hardware exactly where the engine says: a property test drives random
//! capability operations on both backends and audits the hardware after
//! every call. Splits and share windows lean towards 2 MiB boundaries,
//! where the x86 mirror moves from one last-level table to the next, and
//! the x86 run opens with scripted calls that straddle those boundaries
//! and empty a whole table.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tyche_core::metrics::Counter;
use tyche_core::prelude::*;
use tyche_hw::machine::MachineConfig;
use tyche_monitor::abi::MonitorCall;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{boot_riscv, boot_x86, BootConfig, Monitor};

const MIB: u64 = 1024 * 1024;
const PAGE: u64 = 4096;
/// Bytes one last-level EPT table maps.
const TABLE: u64 = 2 * MIB;

fn boot(riscv: bool, ram_bytes: u64) -> Monitor {
    let config = BootConfig {
        machine: MachineConfig {
            ram_bytes,
            ..MachineConfig::default()
        },
        ..BootConfig::default()
    };
    if riscv {
        boot_riscv(config)
    } else {
        boot_x86(config)
    }
}

/// The root's active memory capabilities, in id order.
fn root_mem_caps(m: &Monitor) -> Vec<(CapId, MemRegion)> {
    let os = m.engine.root().unwrap();
    m.engine
        .caps_of(os)
        .iter()
        .filter(|c| c.active)
        .filter_map(|c| c.resource.as_mem().map(|r| (c.id, r)))
        .collect()
}

/// Backend work units of a one-page `Split`/`Split`/`Grant` from the root
/// to a fresh domain, and of the `Revoke` that takes the page back.
fn one_page_grant_revoke_work(riscv: bool, ram_bytes: u64) -> (u64, u64) {
    let mut m = boot(riscv, ram_bytes);
    let child = match m.call(0, MonitorCall::CreateDomain).unwrap() {
        CallResult::NewDomain { domain, .. } => domain,
        other => panic!("unexpected {other:?}"),
    };
    let (ram, region) = root_mem_caps(&m)[0];
    let at = region.start + 0x10_0000;
    let work = |m: &Monitor| m.machine.metrics.get(Counter::BackendWork);
    let before = work(&m);
    let rest = match m.call(0, MonitorCall::Split { cap: ram, at }).unwrap() {
        CallResult::Caps(_, hi) => hi,
        other => panic!("unexpected {other:?}"),
    };
    let page = match m
        .call(
            0,
            MonitorCall::Split {
                cap: rest,
                at: at + PAGE,
            },
        )
        .unwrap()
    {
        CallResult::Caps(lo, _) => lo,
        other => panic!("unexpected {other:?}"),
    };
    let granted = match m
        .call(
            0,
            MonitorCall::Grant {
                cap: page,
                target: child,
                rights: Rights::RW,
                policy: RevocationPolicy::ZERO,
            },
        )
        .unwrap()
    {
        CallResult::Cap(c) => c,
        other => panic!("unexpected {other:?}"),
    };
    let grant = work(&m) - before;
    let before = work(&m);
    m.call(0, MonitorCall::Revoke { cap: granted }).unwrap();
    let revoke = work(&m) - before;
    assert!(m.audit_hardware().is_empty(), "{:?}", m.audit_hardware());
    (grant, revoke)
}

#[test]
fn x86_one_page_grant_and_revoke_work_is_flat_in_ram() {
    let small = one_page_grant_revoke_work(false, 64 * MIB);
    let large = one_page_grant_revoke_work(false, 1024 * MIB);
    assert_eq!(small, large, "work grew with the root's RAM");
    // The granter loses one page and the grantee gains it, and back.
    assert_eq!(small, (2, 2));
}

#[test]
fn riscv_one_page_grant_and_revoke_work_is_flat_in_ram() {
    let small = one_page_grant_revoke_work(true, 64 * MIB);
    let large = one_page_grant_revoke_work(true, 1024 * MIB);
    assert_eq!(small, large, "work grew with the root's RAM");
    // Grant: the root's two remaining pieces plus the grantee's page;
    // revoke: the root's three pieces, the grantee holds none.
    assert_eq!(small, (3, 3));
}

/// Interprets one random operation against the current state, issued by
/// the root on core 0. Picks wrap around whatever exists.
fn step(m: &mut Monitor, children: &mut Vec<DomainId>, (op, a, b): (u8, u64, u64)) {
    let caps = root_mem_caps(m);
    let target = (!children.is_empty()).then(|| children[(b as usize) % children.len()]);
    let pick = (!caps.is_empty()).then(|| caps[(a as usize) % caps.len()]);
    let policy = RevocationPolicy {
        zero_memory: b & 1 != 0,
        flush_cache: b & 2 != 0,
        flush_tlb: b & 4 != 0,
    };
    let rights = [Rights::RO, Rights::RW, Rights::RWX][(b as usize >> 3) % 3];
    let call = match (op % 6, pick, target) {
        (0, ..) => MonitorCall::CreateDomain,
        (1, Some((cap, r)), Some(target)) => {
            let pages = (r.end - r.start) / PAGE;
            if pages == 0 {
                return;
            }
            // Windows cluster in a cap's first pages, so shares overlap
            // and revocations change the rights of pages still mapped, or
            // around its first table boundary, so they straddle it.
            let first = match edge_near(r, a) {
                Some(edge) if a & 1 != 0 => edge,
                _ => r.start + (a >> 8) % pages.min(8) * PAGE,
            };
            let len = (1 + (b >> 8) % 4).min((r.end - first) / PAGE) * PAGE;
            MonitorCall::Share {
                cap,
                target,
                sub: Some((first, first + len)),
                rights,
                policy,
            }
        }
        (2, Some((cap, _)), Some(target)) => MonitorCall::Grant {
            cap,
            target,
            rights,
            policy,
        },
        (3, Some((cap, r)), _) => {
            let pages = (r.end - r.start) / PAGE;
            if pages < 2 {
                return;
            }
            let at = match edge_near(r, a) {
                Some(edge) if a & 1 != 0 && edge > r.start => edge,
                _ => r.start + (1 + (a >> 8) % (pages - 1)) * PAGE,
            };
            MonitorCall::Split { cap, at }
        }
        (4, ..) => {
            // Any capability the root granted or carved, held by anyone.
            let ids: Vec<CapId> = m
                .engine
                .caps()
                .filter(|c| c.granter == m.engine.root().unwrap() && c.parent.is_some())
                .map(|c| c.id)
                .collect();
            if ids.is_empty() {
                return;
            }
            MonitorCall::Revoke {
                cap: ids[(a as usize) % ids.len()],
            }
        }
        (5, _, Some(domain)) => {
            children.retain(|d| *d != domain);
            MonitorCall::Kill { domain }
        }
        _ => return,
    };
    if let Ok(CallResult::NewDomain { domain, .. }) = m.call(0, call) {
        children.push(domain);
    }
}

/// A page within two pages of the first table boundary inside `r`, if
/// `r` crosses one, picked by `a`.
fn edge_near(r: MemRegion, a: u64) -> Option<u64> {
    let boundary = (r.start / TABLE + 1) * TABLE;
    let at = boundary + ((a >> 8) % 5) * PAGE - 2 * PAGE;
    (boundary < r.end).then(|| at.clamp(r.start, r.end - PAGE))
}

fn ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..24)
}

/// The hardware audit, and in debug builds the backends' page-view
/// oracle over every live domain (which panics on a mismatch).
fn audit(m: &Monitor, after: &dyn std::fmt::Debug) -> Result<(), TestCaseError> {
    let audit = m.audit_hardware();
    prop_assert!(audit.is_empty(), "after {after:?}: {audit:?}");
    #[cfg(debug_assertions)]
    for domain in m.engine.domains() {
        m.check_view(domain.id);
    }
    Ok(())
}

/// Issues `call` from the root on core 0 and audits the result.
fn audited_call(m: &mut Monitor, call: MonitorCall) -> Result<CallResult, TestCaseError> {
    let result = m.call(0, call);
    audit(m, &call)?;
    result.map_err(|e| TestCaseError::fail(format!("{call:?}: {e:?}")))
}

/// Scripted calls at x86 table edges: the root splits off one whole
/// table and a two-page piece across the next boundary and grants both
/// to a child (emptying the root's table), shares a window across the
/// boundary after that, then revokes the whole-table grant (emptying the
/// child's table). Every call is audited.
fn table_edges(m: &mut Monitor, children: &mut Vec<DomainId>) -> Result<(), TestCaseError> {
    let child = match audited_call(m, MonitorCall::CreateDomain)? {
        CallResult::NewDomain { domain, .. } => domain,
        other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
    };
    children.push(child);
    let (mut rest, region) = root_mem_caps(m)[0];
    let base = (region.start / TABLE + 1) * TABLE;
    let mut pieces = Vec::new();
    for at in [
        base,
        base + TABLE,
        base + 2 * TABLE - PAGE,
        base + 2 * TABLE + PAGE,
    ] {
        match audited_call(m, MonitorCall::Split { cap: rest, at })? {
            CallResult::Caps(lo, hi) => {
                pieces.push(lo);
                rest = hi;
            }
            other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
        }
    }
    let grant = |cap| MonitorCall::Grant {
        cap,
        target: child,
        rights: Rights::RW,
        policy: RevocationPolicy::ZERO,
    };
    let whole_table = match audited_call(m, grant(pieces[1]))? {
        CallResult::Cap(cap) => cap,
        other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
    };
    audited_call(m, grant(pieces[3]))?;
    let edge = base + 3 * TABLE;
    audited_call(
        m,
        MonitorCall::Share {
            cap: rest,
            target: child,
            sub: Some((edge - 2 * PAGE, edge + 2 * PAGE)),
            rights: Rights::RO,
            policy: RevocationPolicy::NONE,
        },
    )?;
    audited_call(m, MonitorCall::Revoke { cap: whole_table })?;
    Ok(())
}

fn audited_run(riscv: bool, ops: Vec<(u8, u64, u64)>) -> Result<(), TestCaseError> {
    // 32 MiB of RAM leaves the root 16 MiB: small enough to audit after
    // every call.
    let mut m = boot(riscv, 32 * MIB);
    let mut children = Vec::new();
    if !riscv {
        table_edges(&mut m, &mut children)?;
    }
    for op in ops {
        step(&mut m, &mut children, op);
        audit(&m, &op)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn x86_region_applies_keep_hardware_exact(ops in ops()) {
        audited_run(false, ops)?;
    }

    #[test]
    fn riscv_region_applies_keep_hardware_exact(ops in ops()) {
        audited_run(true, ops)?;
    }
}
