//! Trace-oracle suite: every runtime-verification checker is locked
//! down from both sides.
//!
//! For each of the six temporal invariants in `tyche_verify::rv`, this
//! suite runs (a) a *conforming* scenario on the real monitor whose
//! drained trace must pass every checker, and (b) a *seeded violation*
//! — a corruption hook mid-run (debug builds only), or a tampered event
//! in the drained log — that the checker must catch **at the exact event
//! index** where the contradiction becomes observable. The index
//! assertions are what make the checkers an oracle rather than a smoke
//! test: a checker that fires late, early, or on the wrong event fails
//! here even if it still "detects" the corruption.
//!
//! Log tampering (for the SMP shootdown/IPI invariants, whose events
//! the monitor itself can only emit correctly) doubles as the
//! attestation story: a forged or rewritten event changes the SHA-256
//! chain, so the same edit that trips a checker also breaks the
//! attested digest.

use tyche_bench::{boot, spawn_sealed};
use tyche_core::prelude::*;
use tyche_core::trace::{EventKind, TraceEvent, TraceLog};
use tyche_monitor::abi::MonitorCall;
use tyche_monitor::{boot_x86, BootConfig, ConcurrentMonitor, Monitor};
use tyche_verify::rv;

/// Boots the default x86 machine with the trace sink recording.
fn traced_boot() -> Monitor {
    let m = boot();
    m.machine.trace.enable(m.machine.cores);
    m
}

/// Asserts `log` violates exactly one invariant and returns the finding.
fn only_finding(log: &TraceLog, checker: &str) -> rv::Finding {
    let findings = rv::check_all(log);
    assert_eq!(findings.len(), 1, "expected one finding, got {findings:?}");
    let f = findings.into_iter().next().unwrap();
    assert_eq!(f.checker, checker, "wrong checker fired: {f}");
    f
}

/// Index of the last event in `log` matching `pred`.
#[cfg(debug_assertions)]
fn last_index(log: &TraceLog, pred: impl Fn(&EventKind) -> bool) -> usize {
    log.events()
        .iter()
        .rposition(|e| pred(&e.kind))
        .expect("event present in trace")
}

// ---------------------------------------------------------------------
// transition-stack
// ---------------------------------------------------------------------

#[test]
fn conforming_transitions_pass_all_checkers() {
    let mut m = traced_boot();
    let (_d, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    // Mediated roundtrip, then two fast roundtrips (fill, then hit).
    m.call(0, MonitorCall::Enter { cap: gate }).unwrap();
    m.call(0, MonitorCall::Return).unwrap();
    m.enter_fast(0, gate).unwrap();
    m.ret_fast(0).unwrap();
    m.enter_fast(0, gate).unwrap();
    m.ret_fast(0).unwrap();
    let log = m.trace().drain();
    assert!(
        log.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::CacheHit { .. })),
        "second fast enter must hit the cache"
    );
    let findings = rv::check_all(&log);
    assert!(findings.is_empty(), "conforming run flagged: {findings:?}");
}

#[cfg(debug_assertions)]
#[test]
fn forged_return_frame_is_caught_at_the_return() {
    let mut m = traced_boot();
    let (_d1, g1) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    let (d2, _g2) = spawn_sealed(&mut m, 0, 0x20_0000, 0x1000, &[0], SealPolicy::strict());
    m.call(0, MonitorCall::Enter { cap: g1 }).unwrap();
    // Stack corruption: the open frame now claims d2 was the caller, so
    // the return transfers somewhere no transition capability authorized.
    m.corrupt_frame(0, d2);
    m.call(0, MonitorCall::Return).unwrap();
    let log = m.trace().drain();
    let f = only_finding(&log, "transition-stack");
    assert_eq!(
        f.index,
        last_index(&log, |k| matches!(k, EventKind::Return { .. })),
        "caught at the forged return, not before or after: {f}"
    );
    assert_eq!(
        m.current_domain(0),
        d2,
        "the corruption really redirected control"
    );
}

#[test]
fn forged_hypercall_exit_is_caught_at_the_exit() {
    // An exit bracket with no matching enter cannot be produced by the
    // monitor (every `call` brackets itself), so this is a log tamper:
    // the checker catches it, and the chain digest changes too.
    let mut m = traced_boot();
    m.call(0, MonitorCall::CreateDomain).unwrap();
    let log = m.trace().drain();
    let untampered_chain = log.chain();
    let mut events = log.events().to_vec();
    let seq = events.last().map(|e| e.seq + 1).unwrap_or(0);
    events.push(TraceEvent {
        seq,
        core: 0,
        kind: EventKind::HyperExit {
            leaf: 99,
            code: 0,
            cycles: 0,
        },
    });
    let tampered = TraceLog::from_events(events);
    let f = only_finding(&tampered, "transition-stack");
    assert_eq!(f.index, tampered.len() - 1, "caught at the forged exit");
    assert_ne!(tampered.chain(), untampered_chain, "attested chain broke");
}

// ---------------------------------------------------------------------
// fast-cache
// ---------------------------------------------------------------------

#[test]
fn conforming_cache_refill_after_mutation_passes() {
    let mut m = traced_boot();
    let (_d, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    m.enter_fast(0, gate).unwrap();
    m.ret_fast(0).unwrap();
    // A mutation bumps the generation; the honest monitor drops its
    // cache and re-validates, emitting a fresh fill before any hit.
    m.call(0, MonitorCall::CreateDomain).unwrap();
    m.enter_fast(0, gate).unwrap();
    m.ret_fast(0).unwrap();
    m.enter_fast(0, gate).unwrap();
    m.ret_fast(0).unwrap();
    let log = m.trace().drain();
    let fills = log
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CacheFill { .. }))
        .count();
    assert_eq!(fills, 2, "one fill per validity window");
    let findings = rv::check_all(&log);
    assert!(
        findings.is_empty(),
        "conforming refill flagged: {findings:?}"
    );
}

#[cfg(debug_assertions)]
#[test]
fn stale_cache_service_is_caught_at_the_hit() {
    let mut m = traced_boot();
    let (_d, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    m.enter_fast(0, gate).unwrap();
    m.ret_fast(0).unwrap();
    // A real mutation invalidates every cached validation...
    m.call(0, MonitorCall::CreateDomain).unwrap();
    // ...but a buggy monitor believes its cache is still current and
    // serves the pre-mutation entry without re-validating.
    m.corrupt_fast_cache_gen(m.engine.generation());
    m.enter_fast(0, gate).unwrap();
    m.ret_fast(0).unwrap();
    let log = m.trace().drain();
    let f = only_finding(&log, "fast-cache");
    assert_eq!(
        f.index,
        last_index(&log, |k| matches!(k, EventKind::CacheHit { .. })),
        "caught at the stale hit: {f}"
    );
}

// ---------------------------------------------------------------------
// gen-monotonic
// ---------------------------------------------------------------------

#[test]
fn conforming_mutations_bump_generation_monotonically() {
    let mut m = traced_boot();
    m.call(0, MonitorCall::CreateDomain).unwrap();
    m.call(0, MonitorCall::CreateDomain).unwrap();
    let _ = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    let log = m.trace().drain();
    let bumps: Vec<u64> = log
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::GenBump { gen } => Some(gen),
            _ => None,
        })
        .collect();
    assert!(bumps.len() >= 3, "mutations recorded: {bumps:?}");
    assert!(bumps.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
    let findings = rv::check_all(&log);
    assert!(
        findings.is_empty(),
        "conforming bumps flagged: {findings:?}"
    );
}

#[cfg(debug_assertions)]
#[test]
fn generation_replay_is_caught_at_the_repeated_bump() {
    let mut m = traced_boot();
    m.call(0, MonitorCall::CreateDomain).unwrap();
    // Replay the current generation: a "mutation" that does not advance
    // the counter, i.e. an invalidation that snapshot readers will miss.
    let gen = m.engine.generation();
    m.engine.corrupt_generation(gen);
    let log = m.trace().drain();
    let f = only_finding(&log, "gen-monotonic");
    assert_eq!(f.index, log.len() - 1, "caught at the replayed bump: {f}");
}

// ---------------------------------------------------------------------
// quarantine-sticky
// ---------------------------------------------------------------------

#[test]
fn conforming_quarantine_stays_sealed_off() {
    let mut m = traced_boot();
    let (d, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    m.call(0, MonitorCall::Enter { cap: gate }).unwrap();
    m.call(0, MonitorCall::Return).unwrap();
    m.engine.quarantine(d).unwrap();
    // The honest monitor refuses every later entry attempt.
    assert!(m.call(0, MonitorCall::Enter { cap: gate }).is_err());
    assert!(m.enter_fast(0, gate).is_err());
    let log = m.trace().drain();
    assert!(
        log.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Quarantine { domain } if domain == d.0)),
        "quarantine recorded"
    );
    let findings = rv::check_all(&log);
    assert!(findings.is_empty(), "refused entries flagged: {findings:?}");
}

#[cfg(debug_assertions)]
#[test]
fn quarantine_bypass_is_caught_at_the_entry() {
    let mut m = traced_boot();
    let (d, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    m.engine.quarantine(d).unwrap();
    // Corruption: the quarantine flag is cleared and the deactivated
    // transition capability resurrected behind the monitor's back — the
    // engine-level containment evaporates, so the (honest) monitor now
    // lets the entry through. Only the trace still knows.
    m.engine.corrupt_domain(d).unwrap().quarantined = false;
    assert!(m.engine.corrupt_cap(gate, |c| c.active = true));
    m.call(0, MonitorCall::Enter { cap: gate }).unwrap();
    m.call(0, MonitorCall::Return).unwrap();
    let log = m.trace().drain();
    let f = only_finding(&log, "quarantine-sticky");
    assert_eq!(
        f.index,
        last_index(&log, |k| matches!(k, EventKind::Enter { .. })),
        "caught at the forbidden entry: {f}"
    );
}

// ---------------------------------------------------------------------
// revoke-shootdown + ipi-accounting (SMP)
// ---------------------------------------------------------------------

/// Boots a traced SMP setup: one sealed child per core (private memory
/// window + its core), served through [`ConcurrentMonitor`]. Returns
/// the wrapper, a drain handle onto the shared sink, and per-core
/// `(domain, transition cap, memory share cap)` triples.
fn traced_smp() -> (
    ConcurrentMonitor,
    tyche_core::trace::TraceSink,
    Vec<(DomainId, CapId, CapId)>,
) {
    let mut m = boot_x86(BootConfig::default());
    m.machine.trace.enable(m.machine.cores);
    let sink = m.machine.trace.clone();
    let root = m.engine.root().unwrap();
    let cores = m.machine.cores;
    let mut out = Vec::new();
    for core in 0..cores {
        let base = 0x40_0000 + (core as u64) * 0x10_000;
        let (child, gate) = m.engine.create_domain(root).unwrap();
        let ram_cap = m
            .engine
            .caps_of(root)
            .iter()
            .find(|c| {
                c.active
                    && matches!(c.resource, Resource::Memory(r)
                        if r.start <= base && base + 0x10_000 <= r.end)
            })
            .map(|c| c.id)
            .unwrap();
        let share = m
            .engine
            .share(
                root,
                ram_cap,
                child,
                Some(MemRegion::new(base, base + 0x10_000)),
                Rights::RWX,
                RevocationPolicy::NONE,
            )
            .unwrap();
        let core_cap = m
            .engine
            .caps_of(root)
            .iter()
            .find(|c| c.active && matches!(c.resource, Resource::CpuCore(n) if n == core))
            .map(|c| c.id)
            .unwrap();
        m.engine
            .share(
                root,
                core_cap,
                child,
                None,
                Rights::USE,
                RevocationPolicy::NONE,
            )
            .unwrap();
        m.engine.set_entry(root, child, base).unwrap();
        m.engine.seal(root, child, SealPolicy::strict()).unwrap();
        m.sync_effects().unwrap();
        out.push((child, gate, share));
    }
    (ConcurrentMonitor::new(m), sink, out)
}

#[test]
fn smp_shootdown_cycle_passes_all_checkers() {
    let (cm, sink, doms) = traced_smp();
    let (_d1, gate1, share1) = doms[1];
    // Core 1 fast-enters its child; core 0 then revokes that child's
    // memory window, queues the invalidation, and delivers the batch —
    // core 1 is running the affected domain, so exactly one IPI goes out.
    cm.serve(1, MonitorCall::Enter { cap: gate1 }).unwrap();
    cm.serve(0, MonitorCall::Revoke { cap: share1 }).unwrap();
    let sent = cm.sync_shootdowns(0);
    assert_eq!(sent, 1, "core 1 was running the affected domain");
    cm.serve(1, MonitorCall::Return).unwrap();
    let log = sink.drain();
    for kind in ["shoot-queue", "ipi", "shoot-batch"] {
        assert!(
            log.events().iter().any(|e| e.kind.name() == kind),
            "{kind} recorded in {}-event trace",
            log.len()
        );
    }
    let findings = rv::check_all(&log);
    assert!(
        findings.is_empty(),
        "conforming shootdown flagged: {findings:?}"
    );
}

#[test]
fn lost_shootdown_is_caught_at_end_of_trace() {
    let (cm, sink, doms) = traced_smp();
    let (_d1, gate1, share1) = doms[1];
    cm.serve(1, MonitorCall::Enter { cap: gate1 }).unwrap();
    cm.serve(0, MonitorCall::Revoke { cap: share1 }).unwrap();
    cm.sync_shootdowns(0);
    cm.serve(1, MonitorCall::Return).unwrap();
    let log = sink.drain();
    let untampered_chain = log.chain();
    // Tamper: a queued invalidation whose delivering batch was scrubbed
    // from the log — the signature of a revocation whose remote flush
    // never happened.
    let mut events = log.events().to_vec();
    let seq = events.last().map(|e| e.seq + 1).unwrap_or(0);
    events.push(TraceEvent {
        seq,
        core: 0,
        kind: EventKind::ShootQueue { domain: 7 },
    });
    let tampered = TraceLog::from_events(events);
    let f = only_finding(&tampered, "revoke-shootdown");
    assert_eq!(
        f.index,
        tampered.len() - 1,
        "leak pinned to end of trace: {f}"
    );
    assert_ne!(tampered.chain(), untampered_chain, "attested chain broke");
}

#[test]
fn understated_ipi_count_is_caught_at_the_batch() {
    let (cm, sink, doms) = traced_smp();
    let (_d1, gate1, share1) = doms[1];
    cm.serve(1, MonitorCall::Enter { cap: gate1 }).unwrap();
    cm.serve(0, MonitorCall::Revoke { cap: share1 }).unwrap();
    assert_eq!(cm.sync_shootdowns(0), 1);
    cm.serve(1, MonitorCall::Return).unwrap();
    let log = sink.drain();
    // Tamper: the batch under-reports its IPI count — a shootdown
    // claiming fewer remote flushes than the trace shows were charged.
    let mut events = log.events().to_vec();
    let at = events
        .iter()
        .rposition(|e| matches!(e.kind, EventKind::ShootBatch { .. }))
        .expect("batch recorded");
    if let EventKind::ShootBatch { drained, .. } = events[at].kind {
        events[at].kind = EventKind::ShootBatch { drained, ipis: 0 };
    }
    let tampered = TraceLog::from_events(events);
    let f = only_finding(&tampered, "ipi-accounting");
    assert_eq!(f.index, at, "caught at the lying batch: {f}");
}
