//! The deep static certifier: four whole-workspace analyses layered on
//! the item-level parser ([`crate::parse`]).
//!
//! The flat auditor ([`crate::static_audit`]) checks per-file facts —
//! no unsafe, panic budgets, LOC, dependency closure. The lints here
//! check *cross-cutting* properties the paper's concurrency and
//! observability arguments rest on:
//!
//! 1. [`lock_order`] — every nested guard acquisition respects the
//!    DESIGN.md hierarchy of ten classes (submission ring → per-core
//!    state → domain shards ascending → engine inner → pending-shootdown
//!    set → channel table → NIC queue → trace lanes → trace lane →
//!    trace spill log), intra- and inter-procedurally, with the
//!    offending call chain as evidence.
//! 2. [`panic_reach`] — no panic-capable construct is reachable on the
//!    call graph from the 14 hypercall leaves or the SMP serving tiers
//!    unless its `(file, construct)` is allowlisted; reachable
//!    allowlisted sites are reported with entrypoint → … → site paths.
//! 3. [`atomics`] — the seqlock generation (`live_gen`) and trace
//!    enable flag (`enabled`) must pair Acquire loads with Release
//!    stores; any other `Relaxed` needs a `// verify: relaxed-ok
//!    <reason>` annotation, and the annotation count is itself an exact
//!    budget.
//! 4. [`trace_complete`] — every public mutating engine op emits a
//!    trace event (the static dual of the RV checkers' assumption that
//!    the trace is complete).

pub mod atomics;
pub mod lock_order;
pub mod panic_reach;
pub mod trace_complete;

use crate::allowlist::{self, AllowEntry};
use crate::parse::WorkspaceModel;
use crate::static_audit::AuditConfig;
use std::fmt;
use std::path::{Path, PathBuf};

/// Which deep lint produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lint {
    /// Lock-hierarchy violation.
    LockOrder,
    /// Unallowlisted panic site reachable from an entrypoint.
    PanicReach,
    /// Atomic ordering too weak, or an unannotated/stale `Relaxed`.
    AtomicOrder,
    /// Mutating engine op that never emits a trace event.
    TraceComplete,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Lint::LockOrder => "lock-order",
            Lint::PanicReach => "panic-reach",
            Lint::AtomicOrder => "atomic-order",
            Lint::TraceComplete => "trace-complete",
        })
    }
}

/// One deep-lint failure.
#[derive(Clone, Debug)]
pub struct StaticFinding {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the offending site.
    pub line: usize,
    /// Human explanation.
    pub message: String,
    /// Call-chain evidence (qnames, entrypoint first), when the lint
    /// walked the graph to get here.
    pub path: Vec<String>,
}

impl fmt::Display for StaticFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}:{}: {}", self.lint, self.file, self.line, self.message)?;
        if !self.path.is_empty() {
            write!(f, " (via {})", self.path.join(" -> "))?;
        }
        Ok(())
    }
}

/// Deep-lint configuration.
#[derive(Clone, Debug)]
pub struct StaticConfig {
    /// Workspace root.
    pub workspace_root: PathBuf,
    /// Directory names under `crates/` forming the TCB.
    pub tcb_crates: Vec<String>,
    /// Allowlist file, relative to the workspace root.
    pub allowlist: PathBuf,
    /// Exact number of `// verify: relaxed-ok` annotations the TCB may
    /// carry. More is an unreviewed escape; fewer is a stale budget.
    pub relaxed_ok_budget: usize,
}

impl StaticConfig {
    /// Defaults matching [`AuditConfig::tyche_defaults`].
    pub fn tyche_defaults(workspace_root: &Path) -> StaticConfig {
        let flat = AuditConfig::tyche_defaults(workspace_root);
        StaticConfig {
            workspace_root: flat.workspace_root,
            tcb_crates: flat.tcb_crates,
            allowlist: flat.allowlist,
            relaxed_ok_budget: 6,
        }
    }
}

/// Path evidence for one reachable allowlisted panic group.
#[derive(Clone, Debug)]
pub struct SiteEvidence {
    /// Workspace-relative file of the panic sites.
    pub file: String,
    /// Construct name.
    pub construct: String,
    /// Every occurrence line inside the reached function set.
    pub lines: Vec<usize>,
    /// Entrypoint → … → containing-function chain for the first site.
    pub path: Vec<String>,
}

/// Per-entrypoint reachability evidence.
#[derive(Clone, Debug)]
pub struct EntryEvidence {
    /// Leaf or tier name (`"Share"`, `"smp-mutating"`, ...).
    pub entry: String,
    /// Functions reachable from the entry's seeds.
    pub reached: usize,
    /// Reachable allowlisted panic groups with path evidence.
    pub sites: Vec<SiteEvidence>,
}

/// The deep-lint report.
#[derive(Clone, Debug, Default)]
pub struct StaticReport {
    /// All failures across the four lints.
    pub findings: Vec<StaticFinding>,
    /// Production functions in the model.
    pub functions: usize,
    /// Resolved call edges.
    pub call_edges: usize,
    /// Guard-acquisition sites seen by the lock lint.
    pub lock_sites: usize,
    /// Atomic operations seen by the ordering lint.
    pub atomic_sites: usize,
    /// `relaxed-ok` annotations in use.
    pub relaxed_ok_used: usize,
    /// The exact annotation budget.
    pub relaxed_ok_budget: usize,
    /// Mutating engine ops proven to emit a trace event.
    pub traced_ops: usize,
    /// Per-hypercall-leaf evidence (14 entries).
    pub leaves: Vec<EntryEvidence>,
    /// Per-serving-tier evidence.
    pub tiers: Vec<EntryEvidence>,
}

impl StaticReport {
    /// True when all four lints passed.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("TCB deep static lints\n");
        out.push_str(&format!(
            "  call graph: {} functions, {} edges, {} lock sites, {} atomic ops\n",
            self.functions, self.call_edges, self.lock_sites, self.atomic_sites
        ));
        out.push_str(&format!(
            "  relaxed-ok annotations: {} used / {} budget\n",
            self.relaxed_ok_used, self.relaxed_ok_budget
        ));
        out.push_str(&format!(
            "  trace-complete: {} mutating engine ops all emit\n",
            self.traced_ops
        ));
        out.push_str("  panic-reachability evidence (allowlisted sites only):\n");
        for ev in self.leaves.iter().chain(self.tiers.iter()) {
            let total: usize = ev.sites.iter().map(|s| s.lines.len()).sum();
            out.push_str(&format!(
                "    {:<14} {:>3} fns reached, {:>3} allowlisted sites",
                ev.entry, ev.reached, total
            ));
            match ev.sites.first() {
                Some(first) => out.push_str(&format!(
                    "; e.g. `{}` {}:{} via {}\n",
                    first.construct,
                    first.file,
                    first.lines.first().copied().unwrap_or(0),
                    first.path.join(" -> ")
                )),
                None => out.push('\n'),
            }
        }
        if self.findings.is_empty() {
            out.push_str("  findings: none\n  RESULT: PASS\n");
        } else {
            out.push_str(&format!("  findings: {}\n", self.findings.len()));
            for finding in &self.findings {
                out.push_str(&format!("    {finding}\n"));
            }
            out.push_str("  RESULT: FAIL\n");
        }
        out
    }

    /// The committed `STATIC.json` document (schema `tyche-static/v1`).
    /// Deterministic: derived from source text only, so CI can
    /// regenerate and `diff` it as a freshness gate.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"tyche-static/v1\",\n");
        s.push_str(&format!("  \"pass\": {},\n", self.passed()));
        s.push_str(&format!("  \"functions\": {},\n", self.functions));
        s.push_str(&format!("  \"call_edges\": {},\n", self.call_edges));
        s.push_str(&format!("  \"lock_sites\": {},\n", self.lock_sites));
        s.push_str(&format!("  \"atomic_sites\": {},\n", self.atomic_sites));
        s.push_str(&format!(
            "  \"relaxed_ok\": {{ \"used\": {}, \"budget\": {} }},\n",
            self.relaxed_ok_used, self.relaxed_ok_budget
        ));
        s.push_str(&format!("  \"traced_ops\": {},\n", self.traced_ops));
        s.push_str(&format!("  \"findings\": [{}],\n", json_findings(&self.findings)));
        s.push_str(&format!("  \"leaves\": [{}],\n", json_entries(&self.leaves)));
        s.push_str(&format!("  \"tiers\": [{}]\n", json_entries(&self.tiers)));
        s.push_str("}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_findings(findings: &[StaticFinding]) -> String {
    let rows: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "\n    {{ \"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"path\": [{}] }}",
                f.lint,
                json_escape(&f.file),
                f.line,
                json_escape(&f.message),
                f.path
                    .iter()
                    .map(|p| format!("\"{}\"", json_escape(p)))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect();
    if rows.is_empty() {
        String::new()
    } else {
        format!("{}\n  ", rows.join(","))
    }
}

fn json_entries(entries: &[EntryEvidence]) -> String {
    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            let sites: Vec<String> = e
                .sites
                .iter()
                .map(|s| {
                    format!(
                        "\n        {{ \"file\": \"{}\", \"construct\": \"{}\", \"lines\": [{}], \"path\": [{}] }}",
                        json_escape(&s.file),
                        json_escape(&s.construct),
                        s.lines
                            .iter()
                            .map(|l| l.to_string())
                            .collect::<Vec<_>>()
                            .join(", "),
                        s.path
                            .iter()
                            .map(|p| format!("\"{}\"", json_escape(p)))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })
                .collect();
            let sites = if sites.is_empty() {
                String::new()
            } else {
                format!("{}\n      ", sites.join(","))
            };
            format!(
                "\n    {{ \"entry\": \"{}\", \"reached\": {}, \"sites\": [{}] }}",
                json_escape(&e.entry),
                e.reached,
                sites
            )
        })
        .collect();
    if rows.is_empty() {
        String::new()
    } else {
        format!("{}\n  ", rows.join(","))
    }
}

/// Runs all four lints over the workspace named by `config`.
pub fn run(config: &StaticConfig) -> Result<StaticReport, String> {
    let model = WorkspaceModel::build(&config.workspace_root, &config.tcb_crates)?;
    let allow = allowlist::load(&config.workspace_root.join(&config.allowlist))?;
    Ok(run_on_model(&model, &allow, config.relaxed_ok_budget))
}

/// Runs all four lints over a prebuilt model (the oracle-fixture entry
/// point: no filesystem access).
pub fn run_on_model(
    model: &WorkspaceModel,
    allow: &[AllowEntry],
    relaxed_ok_budget: usize,
) -> StaticReport {
    let mut report = StaticReport {
        functions: model.functions.len(),
        call_edges: model.call_edge_count(),
        lock_sites: model.functions.iter().map(|f| f.locks.len()).sum(),
        atomic_sites: model.functions.iter().map(|f| f.atomics.len()).sum(),
        relaxed_ok_budget,
        ..StaticReport::default()
    };

    report.findings.extend(lock_order::check(model));

    let reach = panic_reach::check(model, allow);
    report.findings.extend(reach.findings);
    report.leaves = reach.leaves;
    report.tiers = reach.tiers;

    let atom = atomics::check(model, relaxed_ok_budget);
    report.findings.extend(atom.findings);
    report.relaxed_ok_used = atom.used;

    let trace = trace_complete::check(model);
    report.findings.extend(trace.findings);
    report.traced_ops = trace.traced_ops;

    report
}
