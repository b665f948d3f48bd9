//! W1 `smp_churn_10k`: confidential-function churn at a 10k-tenant
//! population, served by `ConcurrentMonitor` on a RISC-V (PMP) machine.
//!
//! Why: every lifecycle mutates the capability engine five times, and at
//! this population each committed mutation publishes a whole-engine
//! snapshot, so this workload loads the mutation path (engine,
//! publication, PMP resync). 10k rather than 100k tenants keeps a run
//! above a thousand latency samples; the x86 backend cannot hold this
//! population (its EPTP list caps live domains at 512).

use std::collections::BTreeMap;
use std::time::Instant;

use tyche_core::audit;
use tyche_core::prelude::*;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{
    boot_riscv, BootConfig, ConcurrentMonitor, MachineRoots, Monitor, MonitorCall,
};

use crate::common::{input_rng, ns_since, Limit};
use crate::layers::{replay_ns, Tally};
use crate::report::{self, insert_replayed, RunReport, Workload};
use crate::smp::{self, Ctx, WorkerOut};

/// Resident tenants, one page each.
pub const TENANTS: usize = 10_000;
/// Nestable managers, one per core, each churning its own tenants.
pub const MANAGERS: usize = 2;
/// Modelled cores (the third runs root and hosts no manager).
pub const CORES: usize = 3;
const PAGE: u64 = 0x1000;
/// Manager `w`'s RAM slice starts here; slices are 32 MiB apart.
const SLICE0: u64 = 0x100_0000;
const SLICE_STRIDE: u64 = 0x200_0000;

/// Hypercalls per lifecycle (`sync_shootdowns` is folded into `Kill`).
const CALLS_PER_LIFECYCLE: u64 = 6;

/// One manager domain and the pages of its resident tenants.
#[derive(Clone, Debug)]
pub struct Lane {
    /// The core the manager runs on.
    pub core: usize,
    /// The nestable manager domain running on that core.
    pub manager: DomainId,
    /// The manager's capability over its RAM slice.
    pub slice: CapId,
    /// Base address of each resident tenant's page.
    pub pages: Vec<u64>,
}

/// A booted machine with the resident population, managers entered.
pub struct Fixture {
    /// The monitor, ready to wrap in `ConcurrentMonitor`.
    pub monitor: Monitor,
    /// One lane per manager.
    pub lanes: Vec<Lane>,
}

fn call(m: &mut Monitor, core: usize, c: MonitorCall) -> CallResult {
    m.call(core, c)
        .unwrap_or_else(|s| panic!("fixture call {c:?} refused: {s:?}"))
}

fn cap_of(r: CallResult) -> CapId {
    match r {
        CallResult::Cap(c) => c,
        other => panic!("expected a capability, got {other:?}"),
    }
}

/// Root's active capability over `res`-matching resource.
fn root_cap(m: &Monitor, pick: impl Fn(&Resource) -> bool) -> CapId {
    let root = m.engine.root().expect("booted monitor has a root");
    m.engine
        .caps_of(root)
        .iter()
        .find(|c| c.active && pick(&c.resource))
        .map(|c| c.id)
        .expect("root holds the resource")
}

/// Builds the population through `Monitor::call`: per manager, a sealed
/// nestable manager with its core and a RAM slice, entered on its core,
/// which then creates `tenants / MANAGERS` tenants with one page each.
pub fn setup(tenants: usize) -> Fixture {
    let mut cfg = BootConfig::default();
    cfg.machine.cores = CORES;
    cfg.machine.ram_bytes = 128 << 20;
    let mut m = boot_riscv(cfg);
    let per = tenants.div_ceil(MANAGERS);
    let top = SLICE0 + MANAGERS as u64 * SLICE_STRIDE;
    let ram = root_cap(
        &m,
        |r| matches!(r, Resource::Memory(mr) if mr.start <= SLICE0 && top <= mr.end),
    );
    let lanes = (0..MANAGERS)
        .map(|w| {
            let core = w;
            let base = SLICE0 + w as u64 * SLICE_STRIDE;
            let (manager, gate) = match call(&mut m, core, MonitorCall::CreateDomain) {
                CallResult::NewDomain { domain, transition } => (domain, transition),
                other => panic!("create manager: {other:?}"),
            };
            let slice = cap_of(call(
                &mut m,
                core,
                MonitorCall::Share {
                    cap: ram,
                    target: manager,
                    sub: Some((base, base + per as u64 * PAGE)),
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
            let pages: Vec<u64> = (0..per as u64).map(|j| base + j * PAGE).collect();
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
            Lane {
                core,
                manager,
                slice,
                pages,
            }
        })
        .collect();
    Fixture { monitor: m, lanes }
}

/// One lifecycle's calls against a fresh child `child` over `page`.
fn lifecycle_call(step: usize, lane: &Lane, child: DomainId, page: u64, nonce: u64) -> MonitorCall {
    match step {
        1 => MonitorCall::Share {
            cap: lane.slice,
            target: child,
            sub: Some((page, page + PAGE)),
            rights: Rights::RW,
            policy: RevocationPolicy::NONE,
        },
        2 => MonitorCall::SetEntry {
            domain: child,
            entry: page,
        },
        3 => MonitorCall::Seal {
            domain: child,
            allow_outward: false,
            allow_children: false,
        },
        4 => MonitorCall::Attest {
            domain: child,
            nonce,
        },
        _ => MonitorCall::Kill { domain: child },
    }
}

const STEP_SPANS: [&str; 6] = [
    "mut.create_domain",
    "mut.share",
    "mut.set_entry",
    "mut.seal",
    "mut.attest",
    "mut.kill",
];

/// One lifecycle on `lane`'s core, each call timed from call to
/// completion (the `Kill` sample includes the `sync_shootdowns` drain
/// that closes the lifecycle).
fn lifecycle(
    cm: &ConcurrentMonitor,
    lane: &Lane,
    rng: &mut tyche_crypto::ChaChaRng,
    ctx: &Ctx<'_>,
    out: &mut WorkerOut,
) {
    let core = lane.core;
    let page = lane.pages[rng.below(lane.pages.len() as u64) as usize];
    let nonce = rng.next_u64();
    let mut child = None;
    for (step, &span) in STEP_SPANS.iter().enumerate() {
        let c = match child {
            None => MonitorCall::CreateDomain,
            Some(d) => lifecycle_call(step, lane, d, page, nonce),
        };
        let t0 = Instant::now();
        out.load.attempted += 1;
        let r = cm.serve(core, c);
        if step == 5 {
            cm.sync_shootdowns(core);
        }
        let ns = ns_since(t0);
        match r {
            Ok(CallResult::NewDomain { domain, .. }) => child = Some(domain),
            Ok(CallResult::Report(rep)) => {
                out.reports.0 += 1;
                if !child.is_some_and(|d| ctx.checker.ok(nonce, d, &rep)) {
                    out.reports.1 += 1;
                }
            }
            Ok(_) => {}
            Err(s) => {
                out.load.fail(|| format!("{c:?}: {s:?}"));
                if child.is_none() {
                    return;
                }
                continue;
            }
        }
        out.meter.record(ns);
        if ctx.traced {
            out.spans.add(span, ns);
        }
    }
}

/// The closed loop: one lifecycle per manager in turn until the limit.
fn worker(cm: &ConcurrentMonitor, lanes: &[Lane], seed: u64, ctx: &mut Ctx<'_>) -> WorkerOut {
    let mut rngs: Vec<_> = lanes
        .iter()
        .map(|l| input_rng(seed, &format!("smp_churn_10k/core{}", l.core)))
        .collect();
    let mut out = WorkerOut::default();
    loop {
        for (lane, rng) in lanes.iter().zip(&mut rngs) {
            lifecycle(cm, lane, rng, ctx, &mut out);
        }
        out.meter.tick(&mut out.load);
        if ctx.epoch_done(out.load.attempted) {
            break;
        }
    }
    out.meter.finish(&mut out.load);
    out
}

/// Runs the workload: set-up repetitions, the untraced load phase, the
/// output checks, and with `traced` the per-layer run.
pub fn run(seed: u64, limit: Limit, traced: bool) -> RunReport {
    run_sized(seed, limit, traced, TENANTS)
}

/// [`run`] at an explicit population (self-tests run it small).
pub fn run_sized(seed: u64, limit: Limit, traced: bool, tenants: usize) -> RunReport {
    let (Fixture { monitor, lanes }, setup_times) = report::timed_setups(|| setup(tenants));
    let params = vec![
        ("arch", "riscv-pmp".to_string()),
        ("cores", CORES.to_string()),
        ("managers", MANAGERS.to_string()),
        ("host_threads", "1".to_string()),
        ("population", tenants.to_string()),
        ("pages_per_tenant", "1".to_string()),
        (
            "lifecycle",
            "CreateDomain,Share,SetEntry,Seal,Attest,Kill+sync_shootdowns".to_string(),
        ),
        ("shards", tyche_core::shared::SHARDS.to_string()),
        (
            "ring_depth",
            ConcurrentMonitor::DEFAULT_RING_DEPTH.to_string(),
        ),
    ];
    let cm = ConcurrentMonitor::new(monitor);
    let run = |limit: Limit, tally: Option<&mut Tally>| {
        smp::phase(&cm, &lanes[..], limit, tally, |lanes, ctx| {
            worker(&cm, lanes, seed, ctx)
        })
    };
    let (limit, traced_limit) = report::split_limit(limit, traced);
    let mut load = run(limit, None).load;
    let trace = traced.then(|| smp::trace_phase(&cm, traced_limit, run));
    let mut monitor = cm.finish();
    report::check_audits("monitor", &monitor, &mut load.problems);
    let mut extra = Vec::new();
    let per_layer = trace.map(|t| {
        let mut values = BTreeMap::new();
        replay(&mut monitor, &lanes[0], seed, &mut values);
        smp::derive(&mut values, &load, &t);
        report::insert_monitor_stats(&mut values, &[&monitor]);
        extra.push(t.all.load);
        values
    });
    RunReport::new(
        Workload::SmpChurn,
        seed,
        params,
        setup_times,
        load,
        extra,
        per_layer,
    )
}

/// Replays the lifecycle single-threaded, with no front end, on the
/// fixture the load left behind: each leaf through `Monitor::call`, then
/// each engine operation on a bare `CapEngine` clone.
fn replay(m: &mut Monitor, lane: &Lane, seed: u64, values: &mut BTreeMap<String, f64>) {
    const REPS: usize = 96;
    let mut rng = input_rng(seed, "smp_churn_10k/replay");
    let core = lane.core;
    let mut leaf_ns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut report_ns = Vec::new();
    let mut verify_ns = Vec::new();
    let qn = [9u8; 32];
    let quote = m.machine_quote(qn).expect("quote");
    let verifier = MachineRoots::of(m).verifier(tyche_monitor::boot::MONITOR_VERSION);
    for _ in 0..REPS {
        let page = lane.pages[rng.below(lane.pages.len() as u64) as usize];
        let nonce = rng.next_u64();
        let t0 = Instant::now();
        let child = match m.call(core, MonitorCall::CreateDomain) {
            Ok(CallResult::NewDomain { domain, .. }) => domain,
            other => panic!("replay create_domain: {other:?}"),
        };
        leaf_ns
            .entry("create_domain")
            .or_default()
            .push(ns_since(t0) as f64);
        for step in 1..CALLS_PER_LIFECYCLE as usize {
            if step == 5 {
                let mut nb = [0u8; 32];
                nb[..8].copy_from_slice(&nonce.to_le_bytes());
                let t0 = Instant::now();
                let signed = m.attest_domain(child, nb).expect("replay attest");
                report_ns.push(ns_since(t0) as f64);
                let t0 = Instant::now();
                let ok = verifier.verify(&quote, &qn, &signed, &nb, None).is_ok();
                verify_ns.push(ns_since(t0) as f64);
                assert!(ok, "replayed report must verify");
            }
            let c = lifecycle_call(step, lane, child, page, nonce);
            let t0 = Instant::now();
            m.call(core, c)
                .unwrap_or_else(|s| panic!("replay {c:?}: {s:?}"));
            leaf_ns
                .entry(crate::layers::leaf_name(c.encode().0))
                .or_default()
                .push(ns_since(t0) as f64);
        }
    }
    for (leaf, v) in leaf_ns {
        insert_replayed(values, format!("monitor.{leaf}.call_ns"), v);
    }
    insert_replayed(values, "attest.report_ns".into(), report_ns);
    insert_replayed(values, "attest.verify_ns".into(), verify_ns);

    // Bare engine: the same operations with the manager as actor.
    // The engine operations run on the monitor's own engine, bypassing
    // the monitor (their effects are dropped; the fixture is not used
    // after the replay).
    let e = &mut m.engine;
    let domains = e.domains().count().max(1);
    values.insert(
        "engine.bytes_per_domain".into(),
        (e.storage_bytes() / domains) as f64,
    );
    let mut ops: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut time = |name: &'static str, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        ops.entry(name).or_default().push(ns_since(t0) as f64);
    };
    for _ in 0..REPS {
        let page = lane.pages[rng.below(lane.pages.len() as u64) as usize];
        let mut child = None;
        time("create_domain", &mut || {
            child = Some(e.create_domain(lane.manager).expect("engine create").0);
        });
        let child = child.expect("created");
        time("share", &mut || {
            e.share(
                lane.manager,
                lane.slice,
                child,
                Some(MemRegion::new(page, page + PAGE)),
                Rights::RW,
                RevocationPolicy::NONE,
            )
            .expect("engine share");
        });
        time("set_entry", &mut || {
            e.set_entry(lane.manager, child, page)
                .expect("engine entry")
        });
        time("seal", &mut || {
            e.seal(lane.manager, child, SealPolicy::strict())
                .expect("engine seal");
        });
        time("kill", &mut || {
            e.kill(lane.manager, child).expect("engine kill")
        });
        let _ = e.drain_effects();
    }
    for (op, v) in ops {
        insert_replayed(values, format!("engine.{op}.op_ns"), v);
    }
    assert!(
        audit::audit(e).is_empty(),
        "engine replay left the engine unauditable"
    );
    // Clones last: dropping them leaves the allocator in a state that
    // slows the small allocations of the operations above.
    values.insert("engine.clone_ns".into(), replay_ns(9, || m.engine.clone()));
    crate::layers::crypto_rates(values);
}
