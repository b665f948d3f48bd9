//! Lint 1: the lock-hierarchy / deadlock lint.
//!
//! DESIGN.md fixes one global acquisition order for every sleeping lock
//! in the monitor:
//!
//! > submission ring → per-core state → domain shards (ascending
//! > index) → inner engine → pending-shootdown set
//!
//! plus the cross-machine channel table and NIC queue, and the
//! trace-sink locks that sit after everything (channel code emits trace
//! events while holding its guard). This module is that sentence made
//! machine-checked: every guard acquisition parsed out of the TCB is
//! classified into one of the ten ranked classes of [`HIERARCHY`]
//! (`static_oracle` requires every real acquisition to classify), and
//! an acquisition of a lower-ranked (or same-ranked) class while a
//! guard is held is a finding — directly in a body, or transitively
//! through a call while guards are held, reported with the call chain.
//!
//! Shard locks are special twice over: the only legal way to take more
//! than one is the batch idiom (`sort_unstable` + `dedup`, then one
//! iterator-chain acquisition in ascending index order), so (a) two
//! separate shard acquisitions in one body are always a finding, and
//! (b) a batch acquisition without sort+dedup evidence earlier in the
//! same body is a finding.

use super::{Lint, StaticFinding};
use crate::parse::{Function, LockSite, WorkspaceModel};
use std::collections::BTreeMap;

/// The ranked lock classes, lowest-first. The rank order *is* the legal
/// acquisition order.
pub const HIERARCHY: &[(&str, u8)] = &[
    ("submission-ring", 0),
    ("core-state", 1),
    ("domain-shard", 2),
    ("engine-inner", 3),
    ("pending-shootdown", 4),
    ("channel-table", 5),
    ("nic-queue", 6),
    ("trace-lanes", 7),
    ("trace-lane", 8),
    ("trace-spill-log", 9),
];

/// Substring → class rules, checked in order against the argument text
/// and then the statement context. First match wins — `ring` comes
/// first so ring cells are never swallowed by the broader patterns
/// below.
const PATTERNS: &[(&str, &str)] = &[
    ("ring", "submission-ring"),
    // `nic_queue`, not bare `nic`: the latter is a substring of `panic`,
    // which shows up in plenty of statement contexts.
    ("nic_queue", "nic-queue"),
    ("channel", "channel-table"),
    ("shard", "domain-shard"),
    ("core", "core-state"),
    ("slot", "core-state"),
    ("engine", "engine-inner"),
    ("inner", "engine-inner"),
    ("pending", "pending-shootdown"),
    ("batch", "pending-shootdown"),
    ("lanes", "trace-lanes"),
    ("lane", "trace-lane"),
    ("log", "trace-spill-log"),
];

fn rank_of(class: &str) -> u8 {
    HIERARCHY
        .iter()
        .find(|(name, _)| *name == class)
        .map(|(_, r)| *r)
        .unwrap_or(u8::MAX)
}

/// Classifies one acquisition site. `None` for guards outside the
/// hierarchy (e.g. the lock helpers' own internals).
pub fn classify(site: &LockSite) -> Option<(&'static str, u8)> {
    if site.helper == "read_lanes" || site.helper == "write_lanes" {
        return Some(("trace-lanes", rank_of("trace-lanes")));
    }
    for text in [site.arg.as_str(), site.context.as_str()] {
        for (pat, class) in PATTERNS {
            if text.contains(pat) {
                return Some((class, rank_of(class)));
            }
        }
    }
    None
}

/// Guards live (let-bound, in scope, not yet dropped) at `offset`.
fn held_at(func: &Function, offset: usize) -> Vec<&LockSite> {
    func.locks
        .iter()
        .filter(|l| l.bound && l.offset < offset && l.scope_end > offset)
        .filter(|l| {
            !func.releases.iter().any(|r| {
                Some(r.var.as_str()) == l.binding.as_deref()
                    && r.offset > l.offset
                    && r.offset < offset
            })
        })
        .collect()
}

/// Runs the lint over the whole model.
pub fn check(model: &WorkspaceModel) -> Vec<StaticFinding> {
    let mut findings = Vec::new();

    // Intra-procedural: each acquisition against the guards held at it.
    for func in &model.functions {
        for site in &func.locks {
            let Some((class, rank)) = classify(site) else {
                continue;
            };
            for held in held_at(func, site.offset) {
                if std::ptr::eq(held, site) {
                    continue;
                }
                let Some((held_class, held_rank)) = classify(held) else {
                    continue;
                };
                if rank < held_rank {
                    findings.push(StaticFinding {
                        lint: Lint::LockOrder,
                        file: func.file.clone(),
                        line: site.line,
                        message: format!(
                            "{} acquires `{class}` (rank {rank}) while holding `{held_class}` (rank {held_rank}, taken line {}) — violates the global order {}",
                            func.qname, held.line, order_string()
                        ),
                        path: vec![func.qname.clone()],
                    });
                } else if rank == held_rank {
                    findings.push(StaticFinding {
                        lint: Lint::LockOrder,
                        file: func.file.clone(),
                        line: site.line,
                        message: format!(
                            "{} acquires `{class}` twice (first at line {}); only the sorted batch idiom may hold multiple guards of one class",
                            func.qname, held.line
                        ),
                        path: vec![func.qname.clone()],
                    });
                }
            }
            // Shard batches must carry ascending-order evidence.
            if class == "domain-shard" && site.multi {
                let rel = site
                    .offset
                    .saturating_sub(func.body_start)
                    .min(func.body_text.len());
                let before = &func.body_text[..rel];
                if !(before.contains("sort_unstable") && before.contains("dedup")) {
                    findings.push(StaticFinding {
                        lint: Lint::LockOrder,
                        file: func.file.clone(),
                        line: site.line,
                        message: format!(
                            "{} takes a batch of `domain-shard` guards without sort_unstable+dedup evidence earlier in the body — ascending shard order is unproven",
                            func.qname
                        ),
                        path: vec![func.qname.clone()],
                    });
                }
            }
        }
    }

    // Inter-procedural: classes transitively acquired by each function,
    // with a witness chain, then each call site checked against the
    // caller's held set.
    let acquired = transitive_acquisitions(model);
    for (fi, func) in model.functions.iter().enumerate() {
        for call in &func.calls {
            let held = held_at(func, call.offset);
            if held.is_empty() {
                continue;
            }
            for &callee in model.functions_named(&call.name) {
                if callee == fi {
                    continue;
                }
                for (rank, wit) in &acquired[callee] {
                    for h in &held {
                        let Some((held_class, held_rank)) = classify(h) else {
                            continue;
                        };
                        if *rank <= held_rank {
                            let mut path = vec![func.qname.clone()];
                            path.extend(wit.chain.iter().cloned());
                            findings.push(StaticFinding {
                                lint: Lint::LockOrder,
                                file: func.file.clone(),
                                line: call.line,
                                message: format!(
                                    "{} calls {} while holding `{held_class}` (rank {held_rank}, taken line {}); the callee transitively acquires `{}` (rank {rank}) at {}:{}",
                                    func.qname, call.name, h.line, wit.class, wit.file, wit.line
                                ),
                                path,
                            });
                        }
                    }
                }
            }
        }
    }
    findings
}

fn order_string() -> String {
    HIERARCHY
        .iter()
        .map(|(n, _)| *n)
        .collect::<Vec<_>>()
        .join(" -> ")
}

struct Witness {
    class: &'static str,
    file: String,
    line: usize,
    chain: Vec<String>,
}

/// For every function: rank → witness for each lock class it (or any
/// transitive callee) acquires. Fixpoint over the call graph.
fn transitive_acquisitions(model: &WorkspaceModel) -> Vec<BTreeMap<u8, Witness>> {
    let n = model.functions.len();
    let mut acq: Vec<BTreeMap<u8, Witness>> = Vec::with_capacity(n);
    for func in &model.functions {
        let mut own = BTreeMap::new();
        for site in &func.locks {
            if let Some((class, rank)) = classify(site) {
                own.entry(rank).or_insert(Witness {
                    class,
                    file: func.file.clone(),
                    line: site.line,
                    chain: vec![func.qname.clone()],
                });
            }
        }
        acq.push(own);
    }
    // Propagate callee acquisitions to callers until stable. Bounded by
    // (#ranks × #functions) insertions.
    loop {
        let mut changed = false;
        for fi in 0..n {
            let mut add: Vec<(u8, Witness)> = Vec::new();
            for call in &model.functions[fi].calls {
                for &callee in model.functions_named(&call.name) {
                    if callee == fi {
                        continue;
                    }
                    for (rank, wit) in &acq[callee] {
                        if !acq[fi].contains_key(rank) && !add.iter().any(|(r, _)| r == rank) {
                            let mut chain = vec![model.functions[fi].qname.clone()];
                            chain.extend(wit.chain.iter().cloned());
                            add.push((
                                *rank,
                                Witness {
                                    class: wit.class,
                                    file: wit.file.clone(),
                                    line: wit.line,
                                    chain,
                                },
                            ));
                        }
                    }
                }
            }
            for (rank, wit) in add {
                acq[fi].insert(rank, wit);
                changed = true;
            }
        }
        if !changed {
            return acq;
        }
    }
}
