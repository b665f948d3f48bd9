//! Lint 2: panic-reachability from hypercall entry.
//!
//! The flat auditor bounds how many panic-capable constructs each file
//! may contain; this lint proves the stronger, paper-shaped claim: *no
//! unapproved panic site is reachable on the call graph from any of the
//! 14 hypercall leaves or from the SMP serving tiers*, and for the
//! approved sites it replaces flat counts with path evidence —
//! entrypoint → … → containing function → site — so every allowlist
//! entry that sits on a hypercall path is visibly load-bearing.
//!
//! Call edges over-approximate (by-name resolution), so "unreachable"
//! here really means unreachable; "reachable" may include paths the
//! borrow checker would prune, which only makes the gate stricter.

use super::{EntryEvidence, Lint, SiteEvidence, StaticFinding};
use crate::allowlist::AllowEntry;
use crate::parse::WorkspaceModel;
use std::collections::BTreeMap;

/// The 14 hypercall leaves (`MonitorCall` variants) and the functions
/// their dispatch arms call into. The shared dispatch prologue
/// (`Monitor::call`/`call_inner`) is covered by the `dispatch` serving
/// tier so per-leaf evidence stays distinguishable.
pub const HYPERCALL_LEAVES: &[(&str, &[&str])] = &[
    (
        "CreateDomain",
        &["CapEngine::create_domain", "Monitor::apply_or_compensate"],
    ),
    (
        "Share",
        &["CapEngine::share", "Monitor::apply_or_compensate"],
    ),
    (
        "Grant",
        &["CapEngine::grant", "Monitor::apply_or_compensate"],
    ),
    (
        "Split",
        &["CapEngine::split", "Monitor::apply_or_compensate"],
    ),
    (
        "Revoke",
        &["CapEngine::revoke", "Monitor::apply_or_compensate"],
    ),
    ("Seal", &["CapEngine::seal", "Monitor::apply_or_compensate"]),
    ("SetEntry", &["CapEngine::set_entry"]),
    ("RecordContent", &["CapEngine::record_content"]),
    ("MakeTransition", &["CapEngine::make_transition"]),
    ("Kill", &["CapEngine::kill", "Monitor::apply_or_compensate"]),
    ("Enumerate", &["CapEngine::enumerate"]),
    ("Enter", &["Monitor::enter_mediated"]),
    ("Return", &["Monitor::ret"]),
    ("Attest", &["Monitor::attest_domain"]),
];

/// The concurrent serving tiers (§ SMP) plus the mediated dispatcher.
pub const SERVING_TIERS: &[(&str, &[&str])] = &[
    ("dispatch", &["Monitor::call", "Monitor::call_inner"]),
    ("smp-read", &["ConcurrentMonitor::serve_enumerate"]),
    (
        "smp-fast",
        &[
            "ConcurrentMonitor::serve_enter",
            "ConcurrentMonitor::serve_return",
        ],
    ),
    (
        "smp-mutating",
        &[
            "ConcurrentMonitor::serve",
            "ConcurrentMonitor::serve_mutating",
            "ConcurrentMonitor::sync_shootdowns",
        ],
    ),
    (
        "smp-ring",
        &[
            "ConcurrentMonitor::submit",
            "ConcurrentMonitor::ring_doorbell",
        ],
    ),
];

/// Lint output: findings plus the per-entry evidence the report keeps.
pub struct ReachResult {
    /// Unallowlisted reachable sites and entrypoint-rot findings.
    pub findings: Vec<StaticFinding>,
    /// Evidence for the 14 leaves.
    pub leaves: Vec<EntryEvidence>,
    /// Evidence for the serving tiers.
    pub tiers: Vec<EntryEvidence>,
}

/// Runs the lint.
pub fn check(model: &WorkspaceModel, allow: &[AllowEntry]) -> ReachResult {
    let allowed: std::collections::BTreeSet<(String, String)> = allow
        .iter()
        .filter(|e| e.count > 0)
        .map(|e| (e.file.clone(), e.construct.clone()))
        .collect();

    let mut findings = Vec::new();
    let leaves = walk(model, HYPERCALL_LEAVES, &allowed, &mut findings);
    let tiers = walk(model, SERVING_TIERS, &allowed, &mut findings);
    ReachResult {
        findings,
        leaves,
        tiers,
    }
}

/// Reachability over an explicit entries table — the oracle-fixture
/// entry point, so fixtures can pin the analysis without defining every
/// real hypercall seed.
pub fn check_entries(
    model: &WorkspaceModel,
    entries: &[(&str, &[&str])],
    allow: &[AllowEntry],
) -> (Vec<StaticFinding>, Vec<EntryEvidence>) {
    let allowed: std::collections::BTreeSet<(String, String)> = allow
        .iter()
        .filter(|e| e.count > 0)
        .map(|e| (e.file.clone(), e.construct.clone()))
        .collect();
    let mut findings = Vec::new();
    let evidence = walk(model, entries, &allowed, &mut findings);
    (findings, evidence)
}

fn walk(
    model: &WorkspaceModel,
    entries: &[(&str, &[&str])],
    allowed: &std::collections::BTreeSet<(String, String)>,
    findings: &mut Vec<StaticFinding>,
) -> Vec<EntryEvidence> {
    let mut out = Vec::new();
    for (entry, seeds) in entries {
        let mut seed_idx = Vec::new();
        for seed in *seeds {
            match model.find_qname(seed) {
                Some(i) => seed_idx.push(i),
                None => findings.push(StaticFinding {
                    lint: Lint::PanicReach,
                    file: "(config)".into(),
                    line: 0,
                    message: format!(
                        "entrypoint table rot: seed `{seed}` for `{entry}` names no parsed function"
                    ),
                    path: Vec::new(),
                }),
            }
        }
        let parents = model.reachable(&seed_idx);

        // Group reachable panic sites by (file, construct); allowlisted
        // groups become evidence, anything else is a finding.
        let mut groups: BTreeMap<(String, String), SiteEvidence> = BTreeMap::new();
        for &fi in parents.keys() {
            let func = &model.functions[fi];
            for site in &func.panics {
                let key = (func.file.clone(), site.construct.clone());
                let path = model.path_to(&parents, fi);
                if allowed.contains(&key) {
                    groups
                        .entry(key.clone())
                        .or_insert_with(|| SiteEvidence {
                            file: key.0.clone(),
                            construct: key.1.clone(),
                            lines: Vec::new(),
                            path,
                        })
                        .lines
                        .push(site.line);
                } else {
                    let mut full = path.clone();
                    full.push(format!("{}:{}", func.file, site.line));
                    findings.push(StaticFinding {
                        lint: Lint::PanicReach,
                        file: func.file.clone(),
                        line: site.line,
                        message: format!(
                            "panic-capable `{}` in {} reachable from `{entry}` without an allowlist entry",
                            site.construct, func.qname
                        ),
                        path: full,
                    });
                }
            }
        }
        let mut sites: Vec<SiteEvidence> = groups.into_values().collect();
        for s in &mut sites {
            s.lines.sort_unstable();
            s.lines.dedup();
        }
        out.push(EntryEvidence {
            entry: entry.to_string(),
            reached: parents.len(),
            sites,
        });
    }
    out
}
