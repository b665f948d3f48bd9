//! Heap allocations per tenant lifecycle through `ConcurrentMonitor`.
//!
//! The tenant lifecycle — `CreateDomain → Share → SetEntry → Seal →
//! Attest → Kill`, then the `sync_shootdowns` that closes it — is the
//! monitor's headline operation, and its fixed host cost is dominated by
//! per-call bookkeeping rather than by work that grows with the
//! population. This binary installs a counting global allocator, builds
//! a 2k-tenant RISC-V population shaped like the `smp_churn_10k`
//! benchmark (two nestable managers, one per core, each over its own RAM
//! slice, one page per tenant), and asserts a mean of at most
//! [`BUDGET`] heap allocations per lifecycle.
//!
//! It is its own test binary because the allocator is process-wide:
//! counting is switched on only around the measured loop, and nothing
//! else runs in this process meanwhile.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tyche_core::prelude::*;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{boot_riscv, BootConfig, ConcurrentMonitor, Monitor, MonitorCall};

/// Counts every allocation and reallocation while `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Mean heap allocations allowed per lifecycle: 10.01 are reached in
/// release and 17.01 in debug builds, whose differential checks
/// allocate their scan twins.
#[cfg(not(debug_assertions))]
const BUDGET: f64 = 10.5;
#[cfg(debug_assertions)]
const BUDGET: f64 = 17.5;
const TENANTS: u64 = 2_000;
const MANAGERS: usize = 2;
const LIFECYCLES: u64 = 1_000;
/// Lifecycles run before counting starts, so one-off growth of reused
/// buffers (arena, freelists, per-core scratch) is not charged.
const WARMUP: u64 = 64;
const PAGE: u64 = 0x1000;
const SLICE0: u64 = 0x100_0000;
const SLICE_STRIDE: u64 = 0x200_0000;

struct Lane {
    core: usize,
    slice: CapId,
    pages: Vec<u64>,
}

fn call(m: &mut Monitor, core: usize, c: MonitorCall) -> CallResult {
    m.call(core, c)
        .unwrap_or_else(|s| panic!("{c:?} refused: {s:?}"))
}

fn cap(r: CallResult) -> CapId {
    match r {
        CallResult::Cap(c) => c,
        other => panic!("expected a capability, got {other:?}"),
    }
}

fn root_cap(m: &Monitor, pick: impl Fn(&Resource) -> bool) -> CapId {
    let root = m.engine.root().unwrap();
    m.engine
        .caps_of(root)
        .iter()
        .find(|c| c.active && pick(&c.resource))
        .map(|c| c.id)
        .unwrap()
}

/// Per manager: a sealed nestable manager owning its core and a RAM
/// slice, entered on that core, which creates its tenants with one page
/// each — all through `Monitor::call`.
fn setup() -> (Monitor, Vec<Lane>) {
    let mut cfg = BootConfig::default();
    cfg.machine.cores = MANAGERS + 1;
    cfg.machine.ram_bytes = 128 << 20;
    let mut m = boot_riscv(cfg);
    let per = TENANTS / MANAGERS as u64;
    let top = SLICE0 + MANAGERS as u64 * SLICE_STRIDE;
    let ram = root_cap(
        &m,
        |r| matches!(r, Resource::Memory(mr) if mr.start <= SLICE0 && top <= mr.end),
    );
    let mut lanes = Vec::new();
    for core in 0..MANAGERS {
        let base = SLICE0 + core as u64 * SLICE_STRIDE;
        let (manager, gate) = match call(&mut m, core, MonitorCall::CreateDomain) {
            CallResult::NewDomain { domain, transition } => (domain, transition),
            other => panic!("create manager: {other:?}"),
        };
        let slice = cap(call(
            &mut m,
            core,
            MonitorCall::Share {
                cap: ram,
                target: manager,
                sub: Some((base, base + per * PAGE)),
                rights: Rights::RWX,
                policy: RevocationPolicy::NONE,
            },
        ));
        let core_cap = root_cap(&m, |r| matches!(r, Resource::CpuCore(n) if *n == core));
        call(
            &mut m,
            core,
            MonitorCall::Share {
                cap: core_cap,
                target: manager,
                sub: None,
                rights: Rights::USE,
                policy: RevocationPolicy::NONE,
            },
        );
        call(
            &mut m,
            core,
            MonitorCall::SetEntry {
                domain: manager,
                entry: base,
            },
        );
        call(
            &mut m,
            core,
            MonitorCall::Seal {
                domain: manager,
                allow_outward: true,
                allow_children: true,
            },
        );
        call(&mut m, core, MonitorCall::Enter { cap: gate });
        let pages: Vec<u64> = (0..per).map(|j| base + j * PAGE).collect();
        for &page in &pages {
            let tenant = match call(&mut m, core, MonitorCall::CreateDomain) {
                CallResult::NewDomain { domain, .. } => domain,
                other => panic!("create tenant: {other:?}"),
            };
            call(
                &mut m,
                core,
                MonitorCall::Share {
                    cap: slice,
                    target: tenant,
                    sub: Some((page, page + PAGE)),
                    rights: Rights::RW,
                    policy: RevocationPolicy::NONE,
                },
            );
        }
        lanes.push(Lane { core, slice, pages });
    }
    (m, lanes)
}

/// One full lifecycle on `lane`'s core over `page`.
fn lifecycle(cm: &ConcurrentMonitor, lane: &Lane, page: u64, nonce: u64) {
    let core = lane.core;
    let child = match cm.serve(core, MonitorCall::CreateDomain) {
        Ok(CallResult::NewDomain { domain, .. }) => domain,
        other => panic!("create: {other:?}"),
    };
    let steps = [
        MonitorCall::Share {
            cap: lane.slice,
            target: child,
            sub: Some((page, page + PAGE)),
            rights: Rights::RW,
            policy: RevocationPolicy::NONE,
        },
        MonitorCall::SetEntry {
            domain: child,
            entry: page,
        },
        MonitorCall::Seal {
            domain: child,
            allow_outward: false,
            allow_children: false,
        },
        MonitorCall::Attest {
            domain: child,
            nonce,
        },
        MonitorCall::Kill { domain: child },
    ];
    for c in steps {
        match cm.serve(core, c) {
            Ok(CallResult::Report(rep)) => drop(rep),
            Ok(_) => {}
            Err(s) => panic!("{c:?} refused: {s:?}"),
        }
    }
    cm.sync_shootdowns(core);
}

#[test]
fn lifecycle_stays_within_allocation_budget() {
    let (monitor, lanes) = setup();
    let domains = monitor.engine.domains().count();
    let cm = ConcurrentMonitor::new(monitor);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut run = |n: u64| {
        for i in 0..n {
            let lane = &lanes[(i % MANAGERS as u64) as usize];
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = lane.pages[(x % lane.pages.len() as u64) as usize];
            lifecycle(&cm, lane, page, x);
        }
    };
    run(WARMUP);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    run(LIFECYCLES);
    COUNTING.store(false, Ordering::Relaxed);
    let mean = ALLOCS.load(Ordering::Relaxed) as f64 / LIFECYCLES as f64;
    assert_eq!(
        cm.with_inner(|m| m.engine.domains().count()),
        domains,
        "every lifecycle's tenant was reclaimed"
    );
    assert!(
        mean <= BUDGET,
        "{mean:.2} heap allocations per lifecycle (budget {BUDGET})"
    );
}
