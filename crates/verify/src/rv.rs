//! Offline runtime verification: temporal invariants over drained traces.
//!
//! The trace layer ([`tyche_core::trace`]) records what the monitor and
//! the simulated hardware *did*; this module replays a drained
//! [`TraceLog`] against the temporal invariants the design documents
//! *promise*. Each checker is a small deterministic automaton over the
//! event stream — no access to live state, so a trace captured from a
//! fuzz campaign (or shipped as an artifact) can be re-verified on any
//! machine. A violated invariant produces a [`Finding`] pinpointing the
//! exact event index where the automaton saw the contradiction, which is
//! what the trace-oracle test suite locks down: every checker has both a
//! conforming run and a seeded corruption it must catch at a known
//! index.
//!
//! The seven invariants:
//!
//! 1. **revoke-shootdown** — every domain queued for invalidation on a
//!    core (`shoot-queue`) is delivered by that core's next
//!    `shoot-batch` (whose `drained` count must match), and no queue is
//!    left pending at a phase boundary: revoked translations are flushed
//!    before the trace ends.
//! 2. **quarantine-sticky** — after `quarantine(d)`, no transition ever
//!    enters `d` again.
//! 3. **fast-cache** — after a generation bump, the fast-path cache may
//!    only serve a `(core, actor, cap)` key that was re-filled after
//!    that bump: a `cache-hit` without an intervening `cache-fill` is a
//!    stale validation.
//! 4. **ipi-accounting** — the IPIs a core charged since its previous
//!    `shoot-batch` must equal the `ipis` count that batch reports, and
//!    no IPIs may be left unaccounted at a phase boundary.
//! 5. **gen-monotonic** — the engine generation only moves forward:
//!    `gen-bump` is strictly increasing, seqlock snapshots
//!    (`snap-read`) are non-decreasing and never ahead of the last
//!    bump.
//! 6. **transition-stack** — enters and returns nest: every `return`
//!    pops the matching `enter` (same pair, reversed), per core; and
//!    hypercall enter/exit brackets stay balanced per core.
//! 7. **channel-seq** — per attested peer, channel epochs only advance,
//!    send and receive sequence numbers are strictly sequential from 0
//!    within an epoch, no traffic moves on a torn-down channel, a
//!    violation on an open channel is followed immediately by its
//!    teardown, and a violated peer is never re-established (sticky
//!    quarantine, observed at the trace level).

use std::collections::{BTreeMap, BTreeSet};

use tyche_core::trace::{EventKind, TraceEvent, TraceLog};

/// One invariant violation, anchored to the event that exposed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable checker name (`revoke-shootdown`, `quarantine-sticky`,
    /// `fast-cache`, `ipi-accounting`, `gen-monotonic`,
    /// `transition-stack`, `channel-seq`).
    pub checker: &'static str,
    /// Index into the drained trace (the event where the automaton saw
    /// the contradiction; the end-of-trace index for leaked state).
    pub index: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl core::fmt::Display for Finding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[{}] event {}: {}",
            self.checker, self.index, self.message
        )
    }
}

/// Names of all checkers, in the order [`check_all`] runs them.
pub const CHECKERS: [&str; 7] = [
    "revoke-shootdown",
    "quarantine-sticky",
    "fast-cache",
    "ipi-accounting",
    "gen-monotonic",
    "transition-stack",
    "channel-seq",
];

/// Runs every checker over `log` and collects all findings, ordered by
/// checker then by event index. Empty = the trace satisfies all seven
/// temporal invariants.
pub fn check_all(log: &TraceLog) -> Vec<Finding> {
    let events = log.events();
    let mut findings = Vec::new();
    findings.extend(check_revoke_shootdown(events));
    findings.extend(check_quarantine_sticky(events));
    findings.extend(check_fast_cache(events));
    findings.extend(check_ipi_accounting(events));
    findings.extend(check_gen_monotonic(events));
    findings.extend(check_transition_stack(events));
    findings.extend(check_channel_seq(events));
    findings
}

/// Checker 1: revoke → shootdown before the phase ends.
///
/// Models each core's pending invalidation set. `shoot-queue` inserts;
/// the same core's `shoot-batch` must drain exactly the modeled set
/// (its `drained` count is cross-checked). A non-empty set at
/// `phase-end` (or at end of trace) is a leaked invalidation: some
/// domain lost translations that were never flushed remotely.
pub fn check_revoke_shootdown(events: &[TraceEvent]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut pending: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::ShootQueue { domain } => {
                pending.entry(ev.core).or_default().insert(domain);
            }
            EventKind::ShootBatch { drained, .. } => {
                let modeled = pending.remove(&ev.core).unwrap_or_default();
                if modeled.len() as u64 != drained {
                    findings.push(Finding {
                        checker: "revoke-shootdown",
                        index: i,
                        message: format!(
                            "core {} batch drained {} but {} invalidations were queued",
                            ev.core,
                            drained,
                            modeled.len()
                        ),
                    });
                }
            }
            EventKind::PhaseEnd { phase } => {
                for (core, set) in &pending {
                    if !set.is_empty() {
                        findings.push(Finding {
                            checker: "revoke-shootdown",
                            index: i,
                            message: format!(
                                "phase {phase} ended with {} undelivered invalidation(s) on core {core}",
                                set.len()
                            ),
                        });
                    }
                }
                pending.clear();
            }
            _ => {}
        }
    }
    let end = events.len().saturating_sub(1);
    for (core, set) in &pending {
        if !set.is_empty() {
            findings.push(Finding {
                checker: "revoke-shootdown",
                index: end,
                message: format!(
                    "trace ended with {} undelivered invalidation(s) on core {core}",
                    set.len()
                ),
            });
        }
    }
    findings
}

/// Checker 2: quarantine is sticky.
///
/// Once `quarantine(d)` appears, any later transition *into* `d` —
/// mediated or fast — violates the containment the quarantine state
/// promises.
pub fn check_quarantine_sticky(events: &[TraceEvent]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut quarantined: BTreeSet<u64> = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::Quarantine { domain } => {
                quarantined.insert(domain);
            }
            EventKind::Enter { to, fast, .. } if quarantined.contains(&to) => {
                findings.push(Finding {
                    checker: "quarantine-sticky",
                    index: i,
                    message: format!(
                        "{} transition entered quarantined domain {to}",
                        if fast { "fast" } else { "mediated" }
                    ),
                });
            }
            _ => {}
        }
    }
    findings
}

/// Checker 3: fast-path cache validity windows.
///
/// A `cache-hit` for `(core, actor, cap)` is only sound if that key was
/// `cache-fill`ed after the most recent generation bump — otherwise the
/// monitor served a validation the engine has since invalidated.
pub fn check_fast_cache(events: &[TraceEvent]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Keys filled since the last gen-bump (validity window).
    let mut valid: BTreeSet<(u32, u64, u64)> = BTreeSet::new();
    let mut any_bump = false;
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::GenBump { .. } => {
                valid.clear();
                any_bump = true;
            }
            EventKind::CacheFill { actor, cap, .. } => {
                valid.insert((ev.core, actor, cap));
            }
            // Before the first bump every fill since trace start counts;
            // afterwards only post-bump fills are live.
            EventKind::CacheHit { actor, cap, gen }
                if any_bump && !valid.contains(&(ev.core, actor, cap)) =>
            {
                findings.push(Finding {
                    checker: "fast-cache",
                    index: i,
                    message: format!(
                        "core {} served stale cache entry (actor {actor}, cap {cap}, believed gen {gen}) with no re-fill after the last generation bump",
                        ev.core
                    ),
                });
            }
            _ => {}
        }
    }
    findings
}

/// Checker 4: IPI delivery accounting.
///
/// Each `ipi` event charges one remote flush from its core; the core's
/// next `shoot-batch` must report exactly that many in `ipis`. IPIs
/// still unaccounted at a phase boundary were charged but never
/// attributed to a batch.
pub fn check_ipi_accounting(events: &[TraceEvent]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut outstanding: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::Ipi { .. } => {
                *outstanding.entry(ev.core).or_default() += 1;
            }
            EventKind::ShootBatch { ipis, .. } => {
                let charged = outstanding.remove(&ev.core).unwrap_or(0);
                if charged != ipis {
                    findings.push(Finding {
                        checker: "ipi-accounting",
                        index: i,
                        message: format!(
                            "core {} batch reports {ipis} IPI(s) but {charged} were charged since its previous batch",
                            ev.core
                        ),
                    });
                }
            }
            EventKind::PhaseEnd { phase } => {
                for (core, n) in &outstanding {
                    if *n > 0 {
                        findings.push(Finding {
                            checker: "ipi-accounting",
                            index: i,
                            message: format!(
                                "phase {phase} ended with {n} unattributed IPI(s) from core {core}"
                            ),
                        });
                    }
                }
                outstanding.clear();
            }
            _ => {}
        }
    }
    let end = events.len().saturating_sub(1);
    for (core, n) in &outstanding {
        if *n > 0 {
            findings.push(Finding {
                checker: "ipi-accounting",
                index: end,
                message: format!("trace ended with {n} unattributed IPI(s) from core {core}"),
            });
        }
    }
    findings
}

/// Checker 5: generation monotonicity.
///
/// `gen-bump` must be strictly increasing (every mutation advances the
/// counter exactly once — a repeat or regression means lost
/// invalidation); `snap-read` generations are non-decreasing and never
/// exceed the latest bump (a snapshot cannot observe the future).
pub fn check_gen_monotonic(events: &[TraceEvent]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut last_bump: Option<u64> = None;
    let mut last_snap: Option<u64> = None;
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::GenBump { gen } => {
                if let Some(prev) = last_bump {
                    if gen <= prev {
                        findings.push(Finding {
                            checker: "gen-monotonic",
                            index: i,
                            message: format!(
                                "generation bumped to {gen}, not after previous {prev}"
                            ),
                        });
                    }
                }
                last_bump = Some(gen);
            }
            EventKind::SnapRead { gen } => {
                if let Some(prev) = last_snap {
                    if gen < prev {
                        findings.push(Finding {
                            checker: "gen-monotonic",
                            index: i,
                            message: format!("snapshot generation regressed {prev} -> {gen}"),
                        });
                    }
                }
                if let Some(bump) = last_bump {
                    if gen > bump {
                        findings.push(Finding {
                            checker: "gen-monotonic",
                            index: i,
                            message: format!(
                                "snapshot observed generation {gen} ahead of last bump {bump}"
                            ),
                        });
                    }
                }
                last_snap = Some(gen);
            }
            _ => {}
        }
    }
    findings
}

/// Checker 6: symmetric transition accounting.
///
/// Per core, `enter(from, to)` pushes a frame and `return(from, to)`
/// must pop the matching one reversed (`from == top.to`, `to ==
/// top.from`) — a mismatch means control returned somewhere a
/// transition capability never authorized. Frames still open at the end
/// of the trace are fine (domains may legitimately stay entered), but
/// hypercall enter/exit brackets must stay balanced per core: an exit
/// without an enter (or a mismatched leaf) is a dispatch bug.
pub fn check_transition_stack(events: &[TraceEvent]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut stacks: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let mut hyper: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::Enter { from, to, .. } => {
                stacks.entry(ev.core).or_default().push((from, to));
            }
            EventKind::Return { from, to, .. } => match stacks.entry(ev.core).or_default().pop() {
                None => findings.push(Finding {
                    checker: "transition-stack",
                    index: i,
                    message: format!(
                        "core {} returned {from} -> {to} with no open transition frame",
                        ev.core
                    ),
                }),
                Some((f_from, f_to)) => {
                    if from != f_to || to != f_from {
                        findings.push(Finding {
                                checker: "transition-stack",
                                index: i,
                                message: format!(
                                    "core {} returned {from} -> {to} but the open frame was {f_from} -> {f_to}",
                                    ev.core
                                ),
                            });
                    }
                }
            },
            EventKind::HyperEnter { leaf, .. } => {
                hyper.entry(ev.core).or_default().push(leaf);
            }
            EventKind::HyperExit { leaf, .. } => match hyper.entry(ev.core).or_default().pop() {
                None => findings.push(Finding {
                    checker: "transition-stack",
                    index: i,
                    message: format!(
                        "core {} exited hypercall leaf {leaf} with no matching enter",
                        ev.core
                    ),
                }),
                Some(open) if open != leaf => findings.push(Finding {
                    checker: "transition-stack",
                    index: i,
                    message: format!(
                        "core {} exited hypercall leaf {leaf} but leaf {open} was open",
                        ev.core
                    ),
                }),
                Some(_) => {}
            },
            _ => {}
        }
    }
    for (core, open) in &hyper {
        if !open.is_empty() {
            findings.push(Finding {
                checker: "transition-stack",
                index: events.len().saturating_sub(1),
                message: format!(
                    "core {core} ended the trace inside {} open hypercall(s)",
                    open.len()
                ),
            });
        }
    }
    findings
}

/// Checker 7: channel sequence discipline.
///
/// Per attested peer (the channel events are engine-lane, so peer id is
/// the key): `chan-establish` must strictly advance the epoch and reset
/// both sequence windows; `chan-send` / `chan-recv` must carry the
/// current epoch and exactly the next sequence number of their
/// direction; neither may appear on a closed channel; a
/// `chan-violation` while the channel is open must be followed
/// immediately (next event for that peer) by `chan-teardown`; and a
/// violated peer is quarantined for the rest of the trace — any later
/// establish/send/recv is a containment breach.
pub fn check_channel_seq(events: &[TraceEvent]) -> Vec<Finding> {
    #[derive(Default)]
    struct Chan {
        epoch: u64,
        open: bool,
        send_next: u64,
        recv_next: u64,
        violated: bool,
        expect_teardown: bool,
    }
    let mut findings = Vec::new();
    let mut chans: BTreeMap<u64, Chan> = BTreeMap::new();
    let mut flag = |index: usize, message: String| {
        findings.push(Finding {
            checker: "channel-seq",
            index,
            message,
        });
    };
    for (i, ev) in events.iter().enumerate() {
        let peer = match ev.kind {
            EventKind::ChanEstablish { peer, .. }
            | EventKind::ChanSend { peer, .. }
            | EventKind::ChanRecv { peer, .. }
            | EventKind::ChanViolation { peer, .. }
            | EventKind::ChanTeardown { peer, .. } => peer,
            _ => continue,
        };
        let c = chans.entry(peer).or_default();
        if c.expect_teardown && !matches!(ev.kind, EventKind::ChanTeardown { .. }) {
            flag(
                i,
                format!("peer {peer}: violation on an open channel was not followed by teardown"),
            );
            c.expect_teardown = false;
        }
        match ev.kind {
            EventKind::ChanEstablish { epoch, .. } => {
                if c.violated {
                    flag(
                        i,
                        format!(
                            "peer {peer}: re-established after a violation (quarantine not sticky)"
                        ),
                    );
                }
                if epoch <= c.epoch {
                    flag(
                        i,
                        format!(
                            "peer {peer}: establish at epoch {epoch} does not advance past {}",
                            c.epoch
                        ),
                    );
                }
                c.epoch = epoch;
                c.open = true;
                c.send_next = 0;
                c.recv_next = 0;
            }
            EventKind::ChanSend { seq, epoch, .. } => {
                if c.violated || !c.open {
                    flag(i, format!("peer {peer}: send on a closed channel"));
                }
                if epoch != c.epoch {
                    flag(
                        i,
                        format!(
                            "peer {peer}: send under epoch {epoch}, channel is at {}",
                            c.epoch
                        ),
                    );
                }
                if seq != c.send_next {
                    flag(
                        i,
                        format!("peer {peer}: send sequence {seq}, expected {}", c.send_next),
                    );
                }
                c.send_next = seq + 1;
            }
            EventKind::ChanRecv { seq, epoch, .. } => {
                if c.violated || !c.open {
                    flag(i, format!("peer {peer}: receive on a closed channel"));
                }
                if epoch != c.epoch {
                    flag(
                        i,
                        format!(
                            "peer {peer}: receive under epoch {epoch}, channel is at {}",
                            c.epoch
                        ),
                    );
                }
                if seq != c.recv_next {
                    flag(
                        i,
                        format!(
                            "peer {peer}: receive sequence {seq}, expected {}",
                            c.recv_next
                        ),
                    );
                }
                c.recv_next = seq + 1;
            }
            EventKind::ChanViolation { .. } => {
                c.violated = true;
                if c.open {
                    c.expect_teardown = true;
                }
            }
            EventKind::ChanTeardown { .. } => {
                if !c.open {
                    flag(
                        i,
                        format!("peer {peer}: teardown of a channel that was not open"),
                    );
                }
                c.open = false;
                c.expect_teardown = false;
            }
            _ => {}
        }
    }
    let end = events.len().saturating_sub(1);
    for (peer, c) in &chans {
        if c.expect_teardown {
            flag(
                end,
                format!("peer {peer}: trace ended with a violated channel still open"),
            );
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyche_core::trace::{EventKind, TraceEvent, TraceLog};

    fn ev(seq: u64, core: u32, kind: EventKind) -> TraceEvent {
        TraceEvent { seq, core, kind }
    }

    #[test]
    fn clean_shootdown_cycle_passes() {
        let log = TraceLog::from_events(vec![
            ev(0, 0, EventKind::ShootQueue { domain: 3 }),
            ev(1, 0, EventKind::ShootQueue { domain: 4 }),
            ev(2, 0, EventKind::Ipi { to: 1 }),
            ev(
                3,
                0,
                EventKind::ShootBatch {
                    drained: 2,
                    ipis: 1,
                },
            ),
            ev(4, 0, EventKind::PhaseEnd { phase: 0 }),
        ]);
        assert!(check_all(&log).is_empty());
    }

    #[test]
    fn leaked_invalidation_is_flagged_at_phase_end() {
        let log = TraceLog::from_events(vec![
            ev(0, 2, EventKind::ShootQueue { domain: 3 }),
            ev(1, 2, EventKind::PhaseEnd { phase: 0 }),
        ]);
        let f = check_revoke_shootdown(log.events());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].index, 1);
    }

    #[test]
    fn quarantined_domain_reentry_is_flagged() {
        let log = TraceLog::from_events(vec![
            ev(0, 0, EventKind::Quarantine { domain: 9 }),
            ev(
                1,
                0,
                EventKind::Enter {
                    from: 1,
                    to: 9,
                    fast: false,
                },
            ),
        ]);
        let f = check_quarantine_sticky(log.events());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].index, 1);
    }

    #[test]
    fn stale_cache_hit_is_flagged() {
        let log = TraceLog::from_events(vec![
            ev(
                0,
                0,
                EventKind::CacheFill {
                    actor: 1,
                    cap: 5,
                    gen: 7,
                },
            ),
            ev(
                1,
                0,
                EventKind::CacheHit {
                    actor: 1,
                    cap: 5,
                    gen: 7,
                },
            ),
            ev(2, 0, EventKind::GenBump { gen: 8 }),
            ev(
                3,
                0,
                EventKind::CacheHit {
                    actor: 1,
                    cap: 5,
                    gen: 7,
                },
            ),
        ]);
        let f = check_fast_cache(log.events());
        assert_eq!(f.len(), 1, "only the post-bump hit is stale: {f:?}");
        assert_eq!(f[0].index, 3);
    }

    #[test]
    fn ipi_mismatch_is_flagged() {
        let log = TraceLog::from_events(vec![
            ev(0, 1, EventKind::Ipi { to: 0 }),
            ev(1, 1, EventKind::Ipi { to: 2 }),
            ev(
                2,
                1,
                EventKind::ShootBatch {
                    drained: 0,
                    ipis: 1,
                },
            ),
        ]);
        let f = check_ipi_accounting(log.events());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].index, 2);
    }

    #[test]
    fn generation_regression_is_flagged() {
        let log = TraceLog::from_events(vec![
            ev(0, 0, EventKind::GenBump { gen: 5 }),
            ev(1, 0, EventKind::GenBump { gen: 5 }),
            ev(2, 0, EventKind::SnapRead { gen: 9 }),
        ]);
        let f = check_gen_monotonic(log.events());
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].index, 1, "repeated bump");
        assert_eq!(f[1].index, 2, "snapshot ahead of last bump");
    }

    #[test]
    fn mismatched_return_is_flagged() {
        let log = TraceLog::from_events(vec![
            ev(
                0,
                0,
                EventKind::Enter {
                    from: 1,
                    to: 2,
                    fast: true,
                },
            ),
            ev(
                1,
                0,
                EventKind::Return {
                    from: 2,
                    to: 7,
                    fast: true,
                },
            ),
        ]);
        let f = check_transition_stack(log.events());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].index, 1);
    }

    #[test]
    fn per_core_stacks_are_independent() {
        let log = TraceLog::from_events(vec![
            ev(
                0,
                0,
                EventKind::Enter {
                    from: 1,
                    to: 2,
                    fast: false,
                },
            ),
            ev(
                1,
                1,
                EventKind::Enter {
                    from: 1,
                    to: 3,
                    fast: false,
                },
            ),
            ev(
                2,
                1,
                EventKind::Return {
                    from: 3,
                    to: 1,
                    fast: false,
                },
            ),
            ev(
                3,
                0,
                EventKind::Return {
                    from: 2,
                    to: 1,
                    fast: false,
                },
            ),
        ]);
        assert!(check_transition_stack(log.events()).is_empty());
    }

    #[test]
    fn clean_channel_lifecycle_passes() {
        let log = TraceLog::from_events(vec![
            ev(0, 0, EventKind::ChanEstablish { peer: 1, epoch: 1 }),
            ev(
                1,
                0,
                EventKind::ChanSend {
                    peer: 1,
                    seq: 0,
                    epoch: 1,
                },
            ),
            ev(
                2,
                0,
                EventKind::ChanRecv {
                    peer: 1,
                    seq: 0,
                    epoch: 1,
                },
            ),
            ev(
                3,
                0,
                EventKind::ChanSend {
                    peer: 1,
                    seq: 1,
                    epoch: 1,
                },
            ),
            // Re-key: epoch advances, sequence windows reset.
            ev(4, 0, EventKind::ChanEstablish { peer: 1, epoch: 2 }),
            ev(
                5,
                0,
                EventKind::ChanRecv {
                    peer: 1,
                    seq: 0,
                    epoch: 2,
                },
            ),
            // A different peer violates and is promptly torn down.
            ev(6, 0, EventKind::ChanEstablish { peer: 2, epoch: 1 }),
            ev(
                7,
                0,
                EventKind::ChanViolation {
                    peer: 2,
                    reason: 1,
                    seq: 0,
                },
            ),
            ev(8, 0, EventKind::ChanTeardown { peer: 2, epoch: 1 }),
        ]);
        assert!(check_channel_seq(log.events()).is_empty());
        assert!(check_all(&log).is_empty());
    }

    #[test]
    fn channel_sequence_gap_is_flagged() {
        let log = TraceLog::from_events(vec![
            ev(0, 0, EventKind::ChanEstablish { peer: 3, epoch: 1 }),
            ev(
                1,
                0,
                EventKind::ChanRecv {
                    peer: 3,
                    seq: 0,
                    epoch: 1,
                },
            ),
            ev(
                2,
                0,
                EventKind::ChanRecv {
                    peer: 3,
                    seq: 2,
                    epoch: 1,
                },
            ),
        ]);
        let f = check_channel_seq(log.events());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].index, 2);
    }

    #[test]
    fn traffic_after_teardown_is_flagged() {
        let log = TraceLog::from_events(vec![
            ev(0, 0, EventKind::ChanEstablish { peer: 4, epoch: 1 }),
            ev(
                1,
                0,
                EventKind::ChanViolation {
                    peer: 4,
                    reason: 2,
                    seq: 1,
                },
            ),
            ev(2, 0, EventKind::ChanTeardown { peer: 4, epoch: 1 }),
            ev(
                3,
                0,
                EventKind::ChanSend {
                    peer: 4,
                    seq: 0,
                    epoch: 1,
                },
            ),
        ]);
        let f = check_channel_seq(log.events());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].index, 3);
    }

    #[test]
    fn reestablish_after_violation_is_flagged() {
        let log = TraceLog::from_events(vec![
            ev(0, 0, EventKind::ChanEstablish { peer: 6, epoch: 1 }),
            ev(
                1,
                0,
                EventKind::ChanViolation {
                    peer: 6,
                    reason: 1,
                    seq: 0,
                },
            ),
            ev(2, 0, EventKind::ChanTeardown { peer: 6, epoch: 1 }),
            ev(3, 0, EventKind::ChanEstablish { peer: 6, epoch: 2 }),
        ]);
        let f = check_channel_seq(log.events());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].index, 3);
    }

    #[test]
    fn violation_without_teardown_is_flagged() {
        let log = TraceLog::from_events(vec![
            ev(0, 0, EventKind::ChanEstablish { peer: 7, epoch: 1 }),
            ev(
                1,
                0,
                EventKind::ChanViolation {
                    peer: 7,
                    reason: 3,
                    seq: 2,
                },
            ),
            ev(
                2,
                0,
                EventKind::ChanSend {
                    peer: 7,
                    seq: 0,
                    epoch: 1,
                },
            ),
        ]);
        let f = check_channel_seq(log.events());
        // The missing teardown and the post-violation send both flag.
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].index, 2);
    }

    #[test]
    fn epoch_regression_on_establish_is_flagged() {
        let log = TraceLog::from_events(vec![
            ev(0, 0, EventKind::ChanEstablish { peer: 8, epoch: 2 }),
            ev(1, 0, EventKind::ChanEstablish { peer: 8, epoch: 2 }),
        ]);
        let f = check_channel_seq(log.events());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].index, 1);
    }

    #[test]
    fn hypercall_brackets_must_balance() {
        let log = TraceLog::from_events(vec![
            ev(0, 0, EventKind::HyperEnter { leaf: 3, actor: 1 }),
            ev(
                1,
                0,
                EventKind::HyperExit {
                    leaf: 4,
                    code: 0,
                    cycles: 10,
                },
            ),
        ]);
        let f = check_transition_stack(log.events());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].index, 1);
    }
}
