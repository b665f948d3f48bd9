//! Seeded concurrent stress test for [`ConcurrentMonitor`].
//!
//! One worker thread per core races capability mutations (create/
//! share/grant/revoke/seal/set-entry/make-transition) as real
//! hypercalls through `serve`, each as the tenant entered on its core,
//! while also auditing the live engine. Every call is recorded with its
//! concrete arguments and result.
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
//! fails here instead of replaying nothing. A ring variant runs the
//! same race with half the threads submitting through their core's
//! ring, each drain's results matched to its calls in submission order.
//!
//! A second test races read-only observers against a share/revoke
//! storm from three writers: every state a reader observes through
//! `with_inner` must audit clean, and the engine generations one reader
//! sees must never run backwards.
//!
//! A third test races `Enumerate` against revocations of the reading
//! domain's own pages issued on other cores. Every count a reader gets,
//! whether served from its core's slot or from the engine, must equal
//! what a sequential replay of the mutations reports for that domain at
//! the generation the call's `SnapRead` names.
//!
//! The seed comes from `TYCHE_STRESS_SEED` (default 1) and the shard
//! count from `TYCHE_STRESS_SHARDS` (default [`SHARDS`]) so CI can
//! sweep a fixed set of seeds crossed with shard counts. Run with
//! `--features tyche-core/paranoid-checks` to keep the index-vs-scan
//! differential checks hot in release builds.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{boot_tenants, seed_from_env, window_base, Rng};
use tyche_core::audit::audit;
use tyche_core::prelude::*;
use tyche_core::shared::SHARDS;
use tyche_core::trace::EventKind;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{ConcurrentMonitor, Monitor, MonitorCall, RingOutcome, SmpStats, Status};

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

/// Picks thread `tid`'s next call from the engine state read just
/// before it. The live state may move before the call commits, which is exactly the
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
    linearize_and_replay(|_| false);
}

/// The same race with every odd thread submitting through its core's
/// ring: a drain serves its batch in submission order under one write
/// lock, so the k-th `HyperEnter` on a ring core is still its k-th call.
#[test]
fn ring_submissions_linearize_and_audit_clean() {
    linearize_and_replay(|tid| tid % 2 == 1);
}

/// Fills the oldest unanswered log entries, in order, with a drain's
/// results; a drain answers exactly the calls still queued.
fn settle(log: &mut [(MonitorCall, Option<Outcome>)], results: Vec<Outcome>) {
    let waiting = log.iter().filter(|(_, r)| r.is_none()).count();
    assert_eq!(results.len(), waiting, "a drain answers every queued call");
    let first = log.len() - waiting;
    for ((_, slot), result) in log[first..].iter_mut().zip(results) {
        *slot = Some(result);
    }
}

/// Races `THREADS` workers (those `ring` picks submit through their ring,
/// the rest `serve`), then replays the trace's linearization.
fn linearize_and_replay(ring: impl Fn(usize) -> bool) {
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
            let ring = ring(tid);
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let (me, my_window) = tenants[tid];
                let (peer, _) = tenants[(tid + 1) % THREADS];
                let mut log: Vec<(MonitorCall, Option<Outcome>)> =
                    Vec::with_capacity(OPS_PER_THREAD);
                for i in 0..OPS_PER_THREAD {
                    let call =
                        cm.with_inner(|m| next_call(&m.engine, &mut rng, tid, me, my_window, peer));
                    if ring {
                        log.push((call, None));
                        match cm.submit(tid, call) {
                            RingOutcome::Queued(_) => {}
                            RingOutcome::Drained(results) => settle(&mut log, results),
                            RingOutcome::Completed(result) => settle(&mut log, vec![result]),
                        }
                    } else {
                        log.push((call, Some(cm.serve(tid, call))));
                    }
                    // Periodically drain the ring, flush this core's
                    // shootdowns and audit the live engine: every
                    // committed prefix of the linearization must be
                    // invariant-clean.
                    if i % 16 == 0 {
                        if ring {
                            settle(&mut log, cm.ring_doorbell(tid));
                        }
                        cm.sync_shootdowns(tid);
                        assert!(
                            cm.with_inner(|m| audit(&m.engine).is_empty()),
                            "live audit failed (seed {seed}, thread {tid}, iter {i})"
                        );
                    }
                }
                settle(&mut log, cm.ring_doorbell(tid));
                log.into_iter()
                    .map(|(call, result)| (call, result.expect("every submitted call drained")))
                    .collect::<Vec<_>>()
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
    let ring_threads = (0..THREADS).filter(|&tid| ring(tid)).count();
    assert_eq!(
        SmpStats::get(&cm.stats.ring_submitted),
        (ring_threads * OPS_PER_THREAD) as u64,
        "every ring thread's call went through its ring"
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

const WRITERS: usize = 3;
const READERS: usize = 3;
const STORM_OPS: usize = 100;

/// Boots one tenant per writer and gives each an unsealed child to
/// receive shares (sealed tenants accept none). Returns, per writer,
/// its window cap and the next writer's child as its share target.
fn storm_setup() -> (ConcurrentMonitor, Vec<(CapId, DomainId)>) {
    let (mut m, tenants) = boot_tenants(WRITERS, WRITERS, WINDOW);
    let children: Vec<DomainId> = (0..WRITERS)
        .map(|core| match m.call(core, MonitorCall::CreateDomain) {
            Ok(CallResult::NewDomain { domain, .. }) => domain,
            other => panic!("create share target: {other:?}"),
        })
        .collect();
    let lanes = (0..WRITERS)
        .map(|i| (tenants[i].1, children[(i + 1) % WRITERS]))
        .collect();
    let cm =
        ConcurrentMonitor::with_config(m, shards_from_env(), ConcurrentMonitor::DEFAULT_RING_DEPTH);
    (cm, lanes)
}

#[test]
fn readers_see_monotone_audited_states_across_revoke_storm() {
    let seed = seed_from_env();
    let (cm, lanes) = storm_setup();
    let cm = Arc::new(cm);
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|rid| {
            let cm = Arc::clone(&cm);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_gen = 0u64;
                let mut reads = 0u64;
                loop {
                    // Read `stop` first: the pass that sees it set still
                    // observes, so it sees the final generation.
                    let done = stop.load(Ordering::Acquire);
                    let (gen, clean) =
                        cm.with_inner(|m| (m.engine.generation(), audit(&m.engine).is_empty()));
                    assert!(
                        clean,
                        "reader {rid} observed an unauditable state at gen {gen} (seed {seed})"
                    );
                    assert!(
                        gen >= last_gen,
                        "reader {rid} saw generation run backwards: {gen} < {last_gen} (seed {seed})"
                    );
                    last_gen = gen;
                    reads += 1;
                    if done {
                        return (reads, last_gen);
                    }
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|tid| {
            let cm = Arc::clone(&cm);
            let (my_window, peer) = lanes[tid];
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                for _ in 0..STORM_OPS {
                    // One page shared with the peer, revoked at once.
                    let page = window_base(tid, WINDOW) + rng.below(WINDOW / 0x1000) * 0x1000;
                    let share = MonitorCall::Share {
                        cap: my_window,
                        target: peer,
                        sub: Some((page, page + 0x1000)),
                        rights: Rights::RW,
                        policy: RevocationPolicy::NONE,
                    };
                    let cap = match cm.serve(tid, share) {
                        Ok(CallResult::Cap(cap)) => cap,
                        other => panic!("share: {other:?}"),
                    };
                    cm.serve(tid, MonitorCall::Revoke { cap }).expect("revoke");
                }
                cm.sync_shootdowns(tid);
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let final_gen = cm.with_inner(|m| m.engine.generation());
    for r in readers {
        let (reads, last_gen) = r.join().unwrap();
        assert!(reads > 0, "reader made no progress");
        assert_eq!(
            last_gen, final_gen,
            "a reader's last pass missed the final state"
        );
    }
    assert_eq!(
        SmpStats::get(&cm.stats.mutations),
        (WRITERS * STORM_OPS * 2) as u64
    );
    let monitor = Arc::try_unwrap(cm).ok().expect("threads joined").finish();
    assert!(
        audit(&monitor.engine).is_empty(),
        "final audit failed (seed {seed})"
    );
    assert!(monitor.audit_hardware().is_empty());
}

const PAIRS: usize = 2;
const READER_PAGES: u64 = 32;
const READER_SAMPLES: usize = 50_000;

/// `PAIRS` writer cores running root, then `PAIRS` reader cores, each
/// running a sealed domain that root gave [`READER_PAGES`] one-page
/// shares and the reader core. Returns each reader with its page caps.
/// Deterministic: two calls build `==` engines.
fn enumerate_race_setup() -> (Monitor, Vec<(DomainId, Vec<CapId>)>) {
    let mut cfg = tyche_monitor::BootConfig::default();
    cfg.machine.cores = 2 * PAIRS;
    let mut m = tyche_monitor::boot_x86(cfg);
    let root = m.engine.root().unwrap();
    let root_cap = |m: &Monitor, want: &dyn Fn(&Resource) -> bool| {
        m.engine
            .caps_of(root)
            .iter()
            .find(|c| c.active && want(&c.resource))
            .map(|c| c.id)
            .unwrap()
    };
    let mut readers = Vec::new();
    for k in 0..PAIRS {
        let core = PAIRS + k;
        let base = window_base(k, WINDOW);
        let ram = root_cap(
            &m,
            &|r| matches!(r, Resource::Memory(mr) if mr.start <= base && base + WINDOW <= mr.end),
        );
        let (reader, gate) = m.engine.create_domain(root).unwrap();
        let pages = (0..READER_PAGES)
            .map(|i| {
                let page = base + i * 0x1000;
                m.engine
                    .share(
                        root,
                        ram,
                        reader,
                        Some(MemRegion::new(page, page + 0x1000)),
                        Rights::RW,
                        RevocationPolicy::NONE,
                    )
                    .unwrap()
            })
            .collect();
        let core_cap = root_cap(&m, &|r| *r == Resource::CpuCore(core));
        m.engine
            .share(
                root,
                core_cap,
                reader,
                None,
                Rights::USE,
                RevocationPolicy::NONE,
            )
            .unwrap();
        m.engine.set_entry(root, reader, base).unwrap();
        m.engine.seal(root, reader, SealPolicy::strict()).unwrap();
        m.sync_effects().unwrap();
        m.call(core, MonitorCall::Enter { cap: gate }).unwrap();
        readers.push((reader, pages));
    }
    (m, readers)
}

#[test]
fn enumerate_counts_match_replay_at_their_generation() {
    let seed = seed_from_env();
    let (m, readers) = enumerate_race_setup();
    let trace = m.trace().clone();
    trace.enable(2 * PAIRS);
    let cm = Arc::new(ConcurrentMonitor::with_config(
        m,
        shards_from_env(),
        ConcurrentMonitor::DEFAULT_RING_DEPTH,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(std::sync::Barrier::new(2 * PAIRS));
    let reader_threads: Vec<_> = (0..PAIRS)
        .map(|k| {
            let (cm, stop, start) = (Arc::clone(&cm), Arc::clone(&stop), Arc::clone(&start));
            std::thread::spawn(move || {
                let core = PAIRS + k;
                let mut got = Vec::new();
                start.wait();
                loop {
                    let done = stop.load(Ordering::Acquire);
                    if got.len() < READER_SAMPLES || done {
                        got.push(cm.serve(core, MonitorCall::Enumerate));
                    }
                    if done {
                        // Nothing mutates any more: this repeat hits.
                        got.push(cm.serve(core, MonitorCall::Enumerate));
                        return got;
                    }
                }
            })
        })
        .collect();
    let writer_threads: Vec<_> = readers
        .iter()
        .enumerate()
        .map(|(core, (_, pages))| {
            let (cm, start) = (Arc::clone(&cm), Arc::clone(&start));
            let mut pages = pages.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut log: Vec<(MonitorCall, Outcome)> = Vec::new();
                let mut serve = |call: MonitorCall| {
                    let out = cm.serve(core, call);
                    log.push((call, out.clone()));
                    out
                };
                start.wait();
                while !pages.is_empty() {
                    let cap = pages.swap_remove(rng.below(pages.len() as u64) as usize);
                    if rng.below(2) == 0 {
                        // Unrelated churn: every mutation bumps the
                        // generation, whoever it touches.
                        match serve(MonitorCall::CreateDomain) {
                            Ok(CallResult::NewDomain { domain, .. }) => {
                                serve(MonitorCall::Kill { domain }).expect("kill");
                            }
                            other => panic!("create: {other:?}"),
                        }
                    }
                    serve(MonitorCall::Revoke { cap }).expect("revoke the reader's page");
                    cm.sync_shootdowns(core);
                }
                log
            })
        })
        .collect();
    let logs: Vec<Vec<(MonitorCall, Outcome)>> = writer_threads
        .into_iter()
        .map(|w| w.join().unwrap())
        .collect();
    stop.store(true, Ordering::Release);
    let counts: Vec<Vec<Outcome>> = reader_threads
        .into_iter()
        .map(|r| r.join().unwrap())
        .collect();
    let cm = Arc::try_unwrap(cm).ok().expect("threads joined");
    assert!(
        SmpStats::get(&cm.stats.enumerate_hits) >= PAIRS as u64,
        "every reader's last repeat is served from its slot"
    );
    let final_monitor = cm.finish();

    // Writers' calls in lock order; each reader's `SnapRead`s in call order.
    let events = trace.drain();
    let mut order = Vec::new();
    let mut snaps: Vec<Vec<u64>> = vec![Vec::new(); PAIRS];
    for e in events.events() {
        let core = e.core as usize;
        match e.kind {
            EventKind::HyperEnter { .. } if core < PAIRS => order.push(core),
            EventKind::SnapRead { gen } if core >= PAIRS => snaps[core - PAIRS].push(gen),
            _ => {}
        }
    }
    assert_eq!(order.len(), logs.iter().map(Vec::len).sum::<usize>());

    // Sequential replay: every reader's count at every generation a
    // committed call leaves behind.
    let (mut replay, _) = enumerate_race_setup();
    let mut at_gen: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut record = |m: &Monitor| {
        let n = readers
            .iter()
            .map(|(r, _)| m.engine.enumerate(*r).map(|v| v.len() as u64).unwrap())
            .collect();
        at_gen.insert(m.engine.generation(), n);
    };
    record(&replay);
    let mut next = [0usize; PAIRS];
    for &core in &order {
        let (call, recorded) = &logs[core][next[core]];
        next[core] += 1;
        assert_eq!(
            &replay.call(core, *call),
            recorded,
            "replay diverged (seed {seed})"
        );
        record(&replay);
    }
    assert!(
        replay.engine == final_monitor.engine,
        "replay does not reproduce the engine"
    );

    for (k, (gens, got)) in snaps.iter().zip(&counts).enumerate() {
        assert_eq!(
            gens.len(),
            got.len(),
            "one SnapRead per Enumerate on reader {k}"
        );
        for (gen, result) in gens.iter().zip(got) {
            let want = at_gen
                .get(gen)
                .unwrap_or_else(|| panic!("reader {k} saw gen {gen}, which no call left behind"))
                [k];
            assert_eq!(
                result,
                &Ok(CallResult::Count(want)),
                "reader {k} at gen {gen} (seed {seed})"
            );
        }
        assert_eq!(
            got.last(),
            Some(&Ok(CallResult::Count(1))),
            "every page revoked: only the core is left"
        );
    }
}

/// A random live child domain of `mgr`.
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
