//! W2 `enclave_calls_x86`: bursts of enclave round trips over 480 sealed
//! tenants on a 2-core x86 machine, with a small write mix.
//!
//! Why: this loads the fast-transition tier, the per-core validation
//! cache, the snapshot read side and the submission ring, with writes
//! (`MakeTransition` through `serve`, `Revoke` through `submit`) mixed in
//! among the reads. A read-side change that helps writes but taxes reads
//! shows up here. 480 tenants is the 512-entry EPTP list with headroom.
//!
//! One host thread drives both cores, one visit each in turn (see
//! [`crate::smp`] for why).

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use tyche_core::audit;
use tyche_core::prelude::*;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{
    boot_x86, BootConfig, ConcurrentMonitor, MachineRoots, Monitor, MonitorCall, RingOutcome,
};

use crate::common::{input_rng, ns_since, shuffle, Limit};
use crate::layers::{replay_ns, Tally};
use crate::report::{self, insert_replayed, RunReport, Workload};
use crate::smp::{self, Ctx, WorkerOut};

/// Sealed tenants (the EPTP list holds 512 live domains).
pub const TENANTS: usize = 480;
/// Modelled cores; each owns half the tenants.
pub const CORES: usize = 2;
/// Enter → Enumerate → Return round trips per visit to one tenant.
pub const BURST: u64 = 8;
/// One `Attest` every this many round trips.
pub const ATTEST_EVERY: u64 = 64;
/// One `MakeTransition` (serve) + `Revoke` (submit) every this many
/// round trips.
pub const WRITE_EVERY: u64 = 32;
/// Visits per core between checks of the phase limit.
const EPOCH_VISITS: usize = 16;
const PAGE: u64 = 0x1000;
const TENANT_BASE: u64 = 0x40_0000;

/// A sealed tenant and root's gate into it.
#[derive(Clone, Copy, Debug)]
pub struct Tenant {
    /// The tenant domain.
    pub domain: DomainId,
    /// Root's transition capability into it.
    pub gate: CapId,
}

/// A booted machine with the tenants sealed, root running on every core.
pub struct Fixture {
    /// The monitor, ready to wrap in `ConcurrentMonitor`.
    pub monitor: Monitor,
    /// Per core, the tenants that own that core.
    pub lanes: Vec<Vec<Tenant>>,
}

fn call(m: &mut Monitor, c: MonitorCall) -> CallResult {
    m.call(0, c)
        .unwrap_or_else(|s| panic!("fixture call {c:?} refused: {s:?}"))
}

/// Builds the tenants through `Monitor::call` as root: tenant `k` gets
/// one page, a share of core `k % CORES`, an entry point, and a strict
/// seal; root keeps the gates.
pub fn setup(tenants: usize) -> Fixture {
    let mut cfg = BootConfig::default();
    cfg.machine.cores = CORES;
    let mut m = boot_x86(cfg);
    let root = m.engine.root().expect("booted monitor has a root");
    let find = |m: &Monitor, pick: &dyn Fn(&Resource) -> bool| {
        m.engine
            .caps_of(root)
            .iter()
            .find(|c| c.active && pick(&c.resource))
            .map(|c| c.id)
            .expect("root holds the resource")
    };
    let top = TENANT_BASE + tenants as u64 * PAGE;
    let ram = find(
        &m,
        &|r| matches!(r, Resource::Memory(mr) if mr.start <= TENANT_BASE && top <= mr.end),
    );
    let core_caps: Vec<CapId> = (0..CORES)
        .map(|c| find(&m, &|r| matches!(r, Resource::CpuCore(n) if *n == c)))
        .collect();
    let mut lanes = vec![Vec::new(); CORES];
    for k in 0..tenants {
        let page = TENANT_BASE + k as u64 * PAGE;
        let (domain, gate) = match call(&mut m, MonitorCall::CreateDomain) {
            CallResult::NewDomain { domain, transition } => (domain, transition),
            other => panic!("create tenant: {other:?}"),
        };
        call(
            &mut m,
            MonitorCall::Share {
                cap: ram,
                target: domain,
                sub: Some((page, page + PAGE)),
                rights: Rights::RW,
                policy: RevocationPolicy::NONE,
            },
        );
        call(
            &mut m,
            MonitorCall::Share {
                cap: core_caps[k % CORES],
                target: domain,
                sub: None,
                rights: Rights::USE,
                policy: RevocationPolicy::NONE,
            },
        );
        call(
            &mut m,
            MonitorCall::SetEntry {
                domain,
                entry: page,
            },
        );
        call(
            &mut m,
            MonitorCall::Seal {
                domain,
                allow_outward: false,
                allow_children: false,
            },
        );
        lanes[k % CORES].push(Tenant { domain, gate });
    }
    Fixture { monitor: m, lanes }
}

/// Records the results of one ring drain. A ring `Revoke`'s latency is
/// the time its own `submit` call held the worker (`pending`, in submit
/// order): a queued submit returns at once, and the submit that fills
/// the ring carries the drain. Time spent queued behind later calls is
/// the workload's cadence, not the monitor's cost, so it is left out.
fn drained(
    out: &mut WorkerOut,
    pending: &mut VecDeque<u64>,
    results: Vec<Result<CallResult, tyche_monitor::Status>>,
) {
    for r in results {
        let ns = pending.pop_front().unwrap_or(0);
        out.revokes += 1;
        match r {
            Ok(_) => out.meter.record(ns),
            Err(s) => out.load.fail(|| format!("ring revoke: {s:?}")),
        }
    }
}

/// One modelled core's closed loop over its tenants in a seeded visit
/// order.
struct CoreLoop<'a> {
    core: usize,
    root: DomainId,
    order: Vec<Tenant>,
    rng: tyche_crypto::ChaChaRng,
    visit: usize,
    round_trips: u64,
    /// Submit-call times of the `Revoke`s still in the core's ring.
    pending: VecDeque<u64>,
    cm: &'a ConcurrentMonitor,
}

impl<'a> CoreLoop<'a> {
    fn new(cm: &'a ConcurrentMonitor, core: usize, tenants: &[Tenant], seed: u64) -> Self {
        let mut rng = input_rng(seed, &format!("enclave_calls_x86/core{core}"));
        let mut order = tenants.to_vec();
        shuffle(&mut rng, &mut order);
        CoreLoop {
            core,
            root: cm.with_inner(|m| m.engine.root().expect("root")),
            order,
            rng,
            visit: 0,
            round_trips: 0,
            pending: VecDeque::new(),
            cm,
        }
    }

    /// Serves one synchronous call, timing it and checking its result.
    fn serve(
        &self,
        out: &mut WorkerOut,
        traced: bool,
        span: &'static str,
        c: MonitorCall,
        ok: &dyn Fn(&CallResult) -> bool,
    ) -> Option<CallResult> {
        out.load.attempted += 1;
        let t0 = Instant::now();
        let r = self.cm.serve(self.core, c);
        let ns = ns_since(t0);
        if traced {
            out.spans.add(span, ns);
        }
        match r {
            Ok(res) if ok(&res) => {
                out.meter.record(ns);
                Some(res)
            }
            other => {
                out.load.fail(|| format!("{c:?}: {other:?}"));
                None
            }
        }
    }

    /// One visit: [`BURST`] round trips into the next tenant, with the
    /// attests and writes that fall due.
    fn visit(&mut self, out: &mut WorkerOut, ctx: &Ctx<'_>) {
        let t = self.order[self.visit % self.order.len()];
        self.visit += 1;
        let (root, traced) = (self.root, ctx.traced);
        for _ in 0..BURST {
            self.serve(
                out,
                traced,
                "fast",
                MonitorCall::Enter { cap: t.gate },
                &|r| matches!(r, CallResult::Entered { target: d, .. } if *d == t.domain),
            );
            self.serve(
                out,
                traced,
                "read",
                MonitorCall::Enumerate,
                &|r| matches!(r, CallResult::Count(n) if *n > 0),
            );
            self.serve(
                out,
                traced,
                "fast",
                MonitorCall::Return,
                &|r| matches!(r, CallResult::Returned { to } if *to == root),
            );
            self.round_trips += 1;
            if self.round_trips.is_multiple_of(ATTEST_EVERY) {
                let nonce = self.rng.next_u64();
                if let Some(CallResult::Report(rep)) = self.serve(
                    out,
                    traced,
                    "mut.attest",
                    MonitorCall::Attest {
                        domain: t.domain,
                        nonce,
                    },
                    &|r| matches!(r, CallResult::Report(_)),
                ) {
                    out.reports.0 += 1;
                    if !ctx.checker.ok(nonce, t.domain, &rep) {
                        out.reports.1 += 1;
                    }
                }
            }
            if self.round_trips.is_multiple_of(WRITE_EVERY) {
                let made = self.serve(
                    out,
                    traced,
                    "mut.make_transition",
                    MonitorCall::MakeTransition {
                        target: t.domain,
                        policy: RevocationPolicy::NONE,
                    },
                    &|r| matches!(r, CallResult::Cap(_)),
                );
                if let Some(CallResult::Cap(cap)) = made {
                    self.submit_revoke(out, traced, cap);
                }
            }
        }
    }

    fn submit_revoke(&mut self, out: &mut WorkerOut, traced: bool, cap: CapId) {
        out.load.attempted += 1;
        let t0 = Instant::now();
        let outcome = self.cm.submit(self.core, MonitorCall::Revoke { cap });
        let ns = ns_since(t0);
        self.pending.push_back(ns);
        match outcome {
            RingOutcome::Queued(_) => {
                if traced {
                    out.spans.add("ring.submit", ns);
                }
            }
            RingOutcome::Drained(results) => {
                if traced {
                    out.spans.add("ring.drain", ns);
                }
                drained(out, &mut self.pending, results);
            }
            RingOutcome::Completed(r) => drained(out, &mut self.pending, vec![r]),
        }
    }

    /// Flushes the ring tail so every submitted revoke completes in the
    /// phase.
    fn flush(&mut self, out: &mut WorkerOut, traced: bool) {
        let t0 = Instant::now();
        let tail = self.cm.ring_doorbell(self.core);
        let ns = ns_since(t0);
        if !tail.is_empty() {
            if traced {
                out.spans.add("ring.drain", ns);
            }
            if let Some(last) = self.pending.back_mut() {
                *last += ns;
            }
        }
        drained(out, &mut self.pending, tail);
    }
}

/// The closed loop: one visit per core in turn until the limit.
fn worker(
    cm: &ConcurrentMonitor,
    lanes: &[Vec<Tenant>],
    seed: u64,
    ctx: &mut Ctx<'_>,
) -> WorkerOut {
    let mut cores: Vec<CoreLoop<'_>> = lanes
        .iter()
        .enumerate()
        .map(|(core, tenants)| CoreLoop::new(cm, core, tenants, seed))
        .collect();
    let mut out = WorkerOut::default();
    loop {
        for _ in 0..EPOCH_VISITS {
            for c in &mut cores {
                c.visit(&mut out, ctx);
            }
            out.meter.tick(&mut out.load);
        }
        if ctx.epoch_done(out.load.attempted) {
            break;
        }
    }
    for c in &mut cores {
        c.flush(&mut out, ctx.traced);
    }
    out.meter.finish(&mut out.load);
    out
}

/// Runs the workload (see [`crate::smp_churn::run`] for the phases).
pub fn run(seed: u64, limit: Limit, traced: bool) -> RunReport {
    let (Fixture { monitor, lanes }, setup_times) = report::timed_setups(|| setup(TENANTS));
    let params = vec![
        ("arch", "x86-ept".to_string()),
        ("cores", CORES.to_string()),
        ("host_threads", "1".to_string()),
        ("population", TENANTS.to_string()),
        ("burst_round_trips", BURST.to_string()),
        ("attest_every_round_trips", ATTEST_EVERY.to_string()),
        ("write_every_round_trips", WRITE_EVERY.to_string()),
        (
            "write_fraction",
            format!(
                "{:.4}",
                2.0 / (3.0 * WRITE_EVERY as f64 + 2.0 + WRITE_EVERY as f64 / ATTEST_EVERY as f64)
            ),
        ),
        (
            "ring_depth",
            ConcurrentMonitor::DEFAULT_RING_DEPTH.to_string(),
        ),
        ("shards", tyche_core::shared::SHARDS.to_string()),
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
        replay(&mut monitor, &lanes[0], &mut values);
        smp::derive(&mut values, &load, &t);
        report::insert_monitor_stats(&mut values, &[&monitor]);
        extra.push(t.all.load);
        values
    });
    RunReport::new(
        Workload::EnclaveCalls,
        seed,
        params,
        setup_times,
        load,
        extra,
        per_layer,
    )
}

/// Replays the call mix single-threaded through `Monitor::call` (where a
/// transition is always mediated), then the engine operations behind it
/// on a bare `CapEngine` clone.
fn replay(m: &mut Monitor, tenants: &[Tenant], values: &mut BTreeMap<String, f64>) {
    const REPS: usize = 256;
    let root = m.engine.root().expect("root");
    let mut leaf_ns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut timed = |m: &mut Monitor, leaf: &'static str, c: MonitorCall| {
        let t0 = Instant::now();
        let r = m
            .call(0, c)
            .unwrap_or_else(|s| panic!("replay {c:?}: {s:?}"));
        leaf_ns.entry(leaf).or_default().push(ns_since(t0) as f64);
        r
    };
    let qn = [9u8; 32];
    let quote = m.machine_quote(qn).expect("quote");
    let verifier = MachineRoots::of(m).verifier(tyche_monitor::boot::MONITOR_VERSION);
    let (mut report_ns, mut verify_ns) = (Vec::new(), Vec::new());
    for i in 0..REPS {
        let t = tenants[i % tenants.len()];
        timed(m, "enter", MonitorCall::Enter { cap: t.gate });
        timed(m, "enumerate", MonitorCall::Enumerate);
        timed(m, "return", MonitorCall::Return);
        timed(
            m,
            "attest",
            MonitorCall::Attest {
                domain: t.domain,
                nonce: i as u64,
            },
        );
        let cap = match timed(
            m,
            "make_transition",
            MonitorCall::MakeTransition {
                target: t.domain,
                policy: RevocationPolicy::NONE,
            },
        ) {
            CallResult::Cap(c) => c,
            other => panic!("replay make_transition: {other:?}"),
        };
        timed(m, "revoke", MonitorCall::Revoke { cap });
        let nb = [i as u8; 32];
        let t0 = Instant::now();
        let signed = m.attest_domain(t.domain, nb).expect("replay attest");
        report_ns.push(ns_since(t0) as f64);
        let t0 = Instant::now();
        let ok = verifier.verify(&quote, &qn, &signed, &nb, None).is_ok();
        verify_ns.push(ns_since(t0) as f64);
        assert!(ok, "replayed report must verify");
    }
    for (leaf, v) in leaf_ns {
        insert_replayed(values, format!("monitor.{leaf}.call_ns"), v);
    }
    insert_replayed(values, "attest.report_ns".into(), report_ns);
    insert_replayed(values, "attest.verify_ns".into(), verify_ns);

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
    for i in 0..REPS {
        let t = tenants[i % tenants.len()];
        let t0 = Instant::now();
        std::hint::black_box(e.can_enter(root, t.gate, 0).expect("engine can_enter"));
        ops.entry("can_enter")
            .or_default()
            .push(ns_since(t0) as f64);
        let t0 = Instant::now();
        std::hint::black_box(e.enumerate(t.domain).expect("engine enumerate"));
        ops.entry("enumerate")
            .or_default()
            .push(ns_since(t0) as f64);
        let t0 = Instant::now();
        let cap = e
            .make_transition(root, t.domain, RevocationPolicy::NONE)
            .expect("engine make_transition");
        ops.entry("make_transition")
            .or_default()
            .push(ns_since(t0) as f64);
        let t0 = Instant::now();
        e.revoke(root, cap).expect("engine revoke");
        ops.entry("revoke").or_default().push(ns_since(t0) as f64);
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
    values.insert("engine.clone_ns".into(), replay_ns(15, || m.engine.clone()));
    crate::layers::crypto_rates(values);
}
