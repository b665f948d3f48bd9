//! Seeded concurrent stress test for [`ConcurrentMonitor`].
//!
//! One worker thread per core races capability mutations (create/
//! share/grant/revoke/seal/set-entry/make-transition) as real
//! hypercalls through `serve`, each as the tenant entered on its core,
//! while also auditing point-in-time snapshots. Every call is recorded
//! with its concrete arguments and result.
//!
//! The linearization order comes from the trace: a mutating call's
//! `HyperEnter` is emitted inside the inner monitor's write lock and
//! draws its global sequence number there, so sequence order is lock
//! order, and the k-th `HyperEnter` on core c is thread c's k-th call.
//! Afterwards the calls are replayed single-threadedly in that order on
//! a freshly booted, identically set-up [`Monitor`] through
//! `Monitor::call`: the replay must produce the *same result for every
//! call* and an engine that is `==` to the concurrent one — ids, stamps,
//! and pending effects included. Any lost update, torn snapshot, or
//! non-linearizable interleaving shows up as a replay divergence; any
//! invariant break shows up in `audit()`. The log must hold exactly one
//! `HyperEnter` per issued call, so a build with tracing compiled out
//! fails here instead of replaying nothing.
//!
//! The seed comes from `TYCHE_STRESS_SEED` (default 1) and the shard
//! count from `TYCHE_STRESS_SHARDS` (default [`SHARDS`]) so CI can
//! sweep a fixed set of seeds crossed with shard counts. Run with
//! `--features tyche-core/paranoid-checks` to keep the index-vs-scan
//! differential checks hot in release builds.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::sync::Arc;

use common::{boot_tenants, seed_from_env, window_base, Rng};
use tyche_core::audit::audit;
use tyche_core::prelude::*;
use tyche_core::shared::SHARDS;
use tyche_core::trace::EventKind;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{ConcurrentMonitor, Monitor, MonitorCall, SmpStats, Status};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 100;
/// Each tenant's private 1 MiB window of root RAM.
const WINDOW: u64 = 0x10_0000;

type Outcome = Result<CallResult, Status>;

fn shards_from_env() -> usize {
    std::env::var("TYCHE_STRESS_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SHARDS)
}

fn setup() -> (Monitor, Vec<(DomainId, CapId)>) {
    boot_tenants(THREADS, THREADS, WINDOW)
}

/// Picks thread `tid`'s next call from a point-in-time snapshot. The
/// live state may move before the call commits, which is exactly the
/// raciness the replay check has to absorb. Sealed tenants accept no
/// incoming resources, so cross-tenant traffic targets the peer's
/// (unsealed) children.
fn next_call(
    snap: &CapEngine,
    rng: &mut Rng,
    tid: usize,
    me: DomainId,
    my_window: CapId,
    peer: DomainId,
) -> MonitorCall {
    let create = MonitorCall::CreateDomain;
    match rng.below(10) {
        0 | 1 => create,
        2 | 3 => {
            // Share one page of my window with a peer's child, one of my
            // own children, or myself (a self-share to grant later).
            let page = window_base(tid, WINDOW) + rng.below(WINDOW / 0x1000) * 0x1000;
            let target = match rng.below(3) {
                0 => pick_child(snap, peer, rng),
                1 => pick_child(snap, me, rng),
                _ => None,
            };
            MonitorCall::Share {
                cap: my_window,
                target: target.unwrap_or(me),
                sub: Some((page, page + 0x1000)),
                rights: Rights::RW,
                policy: RevocationPolicy::NONE,
            }
        }
        4 => {
            // Grant a self-shared page onward to a child.
            let owner = if rng.below(2) == 0 { peer } else { me };
            match (
                pick_self_share(snap, me, my_window, rng),
                pick_child(snap, owner, rng),
            ) {
                (Some(cap), Some(target)) => MonitorCall::Grant {
                    cap,
                    target,
                    rights: Rights::RW,
                    policy: RevocationPolicy::ZERO,
                },
                _ => create,
            }
        }
        5 | 6 => match pick_granted(snap, me, rng) {
            Some(cap) => MonitorCall::Revoke { cap },
            None => create,
        },
        7 => match pick_child(snap, me, rng) {
            Some(domain) => MonitorCall::SetEntry {
                domain,
                entry: window_base(tid, WINDOW),
            },
            None => create,
        },
        8 => match pick_child(snap, me, rng) {
            Some(domain) => MonitorCall::Seal {
                domain,
                allow_outward: true,
                allow_children: true,
            },
            None => create,
        },
        _ => MonitorCall::MakeTransition {
            target: me,
            policy: RevocationPolicy::NONE,
        },
    }
}

#[test]
fn concurrent_mutations_linearize_and_audit_clean() {
    let seed = seed_from_env();
    let shards = shards_from_env();
    let (m, tenants) = setup();
    let trace = m.trace().clone();
    trace.enable(THREADS);
    let cm = Arc::new(ConcurrentMonitor::with_config(
        m,
        shards,
        ConcurrentMonitor::DEFAULT_RING_DEPTH,
    ));

    let workers: Vec<_> = (0..THREADS)
        .map(|tid| {
            let cm = Arc::clone(&cm);
            let tenants = tenants.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let (me, my_window) = tenants[tid];
                let (peer, _) = tenants[(tid + 1) % THREADS];
                let mut log: Vec<(MonitorCall, Outcome)> = Vec::with_capacity(OPS_PER_THREAD);
                for i in 0..OPS_PER_THREAD {
                    let snap = cm.snapshot();
                    let call = next_call(&snap, &mut rng, tid, me, my_window, peer);
                    log.push((call, cm.serve(tid, call)));
                    // Periodically flush this core's shootdowns and audit
                    // a fresh snapshot: every committed prefix of the
                    // linearization must be invariant-clean.
                    if i % 16 == 0 {
                        cm.sync_shootdowns(tid);
                        assert!(
                            audit(&cm.snapshot()).is_empty(),
                            "snapshot audit failed (seed {seed}, thread {tid}, iter {i})"
                        );
                    }
                }
                log
            })
        })
        .collect();
    let logs: Vec<Vec<(MonitorCall, Outcome)>> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();

    let cm = Arc::try_unwrap(cm).ok().expect("workers joined");
    assert_eq!(
        SmpStats::get(&cm.stats.mutations),
        (THREADS * OPS_PER_THREAD) as u64
    );
    let final_monitor = cm.finish();
    assert!(
        audit(&final_monitor.engine).is_empty(),
        "final audit failed (seed {seed}, shards {shards})"
    );
    assert!(final_monitor.audit_hardware().is_empty());

    // Linearization order: every HyperEnter, in sequence order, names
    // the core whose next logged call it opened.
    let order: Vec<(usize, DomainId)> = trace
        .drain()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::HyperEnter { actor, .. } => Some((e.core as usize, DomainId(actor))),
            _ => None,
        })
        .collect();
    assert_eq!(
        order.len(),
        THREADS * OPS_PER_THREAD,
        "the trace must hold exactly one HyperEnter per issued call"
    );

    // Linearized replay: same setup, calls in lock order, must agree
    // call-for-call and end in an identical engine.
    let (mut replay, _) = setup();
    let mut next = [0usize; THREADS];
    for (pos, &(core, actor)) in order.iter().enumerate() {
        assert_eq!(actor, tenants[core].0, "core {core} ran as the wrong actor");
        let k = next[core];
        next[core] += 1;
        let (call, recorded) = &logs[core][k];
        let got = replay.call(core, *call);
        assert_eq!(
            &got, recorded,
            "replay diverged at position {pos} (core {core}, call {k}: {call:?}; seed {seed})"
        );
    }
    assert_eq!(next, [OPS_PER_THREAD; THREADS]);
    assert!(audit(&replay.engine).is_empty());
    assert!(
        replay.engine == final_monitor.engine,
        "linearized replay does not reproduce the concurrent engine (seed {seed}, shards {shards})"
    );
}

/// A random live child domain of `mgr` from the snapshot.
fn pick_child(snap: &CapEngine, mgr: DomainId, rng: &mut Rng) -> Option<DomainId> {
    let kids: Vec<DomainId> = snap
        .domains()
        .filter(|d| d.manager == Some(mgr) && d.is_alive())
        .map(|d| d.id)
        .collect();
    pick(&kids, rng)
}

/// A random active memory capability `who` owns, other than its window.
fn pick_self_share(snap: &CapEngine, who: DomainId, window: CapId, rng: &mut Rng) -> Option<CapId> {
    let caps: Vec<CapId> = snap
        .caps_of(who)
        .iter()
        .filter(|c| c.active && c.id != window && matches!(c.resource, Resource::Memory(_)))
        .map(|c| c.id)
        .collect();
    pick(&caps, rng)
}

/// A random capability granted by `who` (so `who` may revoke it).
fn pick_granted(snap: &CapEngine, who: DomainId, rng: &mut Rng) -> Option<CapId> {
    let caps: Vec<CapId> = snap
        .caps()
        .filter(|c| c.granter == who && c.owner != who)
        .map(|c| c.id)
        .collect();
    pick(&caps, rng)
}

fn pick<T: Copy>(items: &[T], rng: &mut Rng) -> Option<T> {
    if items.is_empty() {
        None
    } else {
        Some(items[rng.below(items.len() as u64) as usize])
    }
}
