//! Lint 3: atomics-ordering discipline.
//!
//! Two fields carry publication semantics and must pair Acquire loads
//! with Release stores, exactly as DESIGN.md's seqlock argument
//! requires:
//!
//! - `live_gen` — the seqlock generation on `ConcurrentMonitor`: a
//!   reader that observes generation `g` with Acquire must see every
//!   write the `g`-committing mutation made before its Release store.
//! - `enabled` — the trace-sink gate: a thread that observes the sink
//!   enabled must see the reset sequence counter and lane setup.
//!
//! Everything else may be `Relaxed` only with an explicit, reviewed
//! `// verify: relaxed-ok <reason>` annotation on (or directly above)
//! the operation. The annotation count is an exact budget: a new
//! unreviewed `Relaxed` fails, and so does a leftover annotation whose
//! operation went away.

use super::{Lint, StaticFinding};
use crate::parse::WorkspaceModel;

/// Fields with required Acquire/Release pairing, with the argument the
/// finding cites.
pub const REQUIRED_PAIRING: &[(&str, &str)] = &[
    (
        "live_gen",
        "seqlock generation: snapshot validation needs Acquire/Release pairing",
    ),
    (
        "enabled",
        "trace-sink gate: publication of sink state needs Acquire/Release pairing",
    ),
];

/// Lint output.
pub struct AtomicsResult {
    /// Ordering violations, unannotated Relaxed ops, stale annotations,
    /// and budget mismatches.
    pub findings: Vec<StaticFinding>,
    /// Annotations attached to a live `Relaxed` operation.
    pub used: usize,
}

fn strong_enough(method: &str, ordering: &str) -> bool {
    match method {
        "load" => matches!(ordering, "Acquire" | "SeqCst"),
        "store" => matches!(ordering, "Release" | "SeqCst"),
        // RMW ops on published fields need both halves.
        _ => matches!(ordering, "AcqRel" | "SeqCst"),
    }
}

/// Runs the lint.
pub fn check(model: &WorkspaceModel, budget: usize) -> AtomicsResult {
    let mut findings = Vec::new();
    // (file, line) of annotations consumed by a Relaxed operation.
    let mut used_at: Vec<(String, usize)> = Vec::new();

    for func in &model.functions {
        for op in &func.atomics {
            let required = REQUIRED_PAIRING.iter().find(|(f, _)| *f == op.field);
            let relaxed = op.orderings.iter().any(|o| o == "Relaxed");
            if let Some((field, why)) = required {
                for ordering in &op.orderings {
                    if !strong_enough(&op.method, ordering) {
                        findings.push(StaticFinding {
                            lint: Lint::AtomicOrder,
                            file: func.file.clone(),
                            line: op.line,
                            message: format!(
                                "{} uses `{}` with Ordering::{ordering} on `{field}` — {why}",
                                func.qname, op.method
                            ),
                            path: vec![func.qname.clone()],
                        });
                    }
                }
                if op.annotation.is_some() {
                    findings.push(StaticFinding {
                        lint: Lint::AtomicOrder,
                        file: func.file.clone(),
                        line: op.line,
                        message: format!("`{field}` may not be excused by relaxed-ok: {why}"),
                        path: vec![func.qname.clone()],
                    });
                }
                continue;
            }
            if relaxed {
                match &op.annotation {
                    Some(reason) if !reason.trim().is_empty() => {
                        // The annotation may sit on the op's line or the
                        // line above; record whichever exists.
                        let line = model
                            .annotations
                            .iter()
                            .find(|a| {
                                a.file == func.file
                                    && (a.line == op.line || a.line + 1 == op.line)
                            })
                            .map(|a| a.line)
                            .unwrap_or(op.line);
                        used_at.push((func.file.clone(), line));
                    }
                    Some(_) => findings.push(StaticFinding {
                        lint: Lint::AtomicOrder,
                        file: func.file.clone(),
                        line: op.line,
                        message: format!(
                            "{} has a relaxed-ok annotation with no reason on `{}.{}`",
                            func.qname, op.field, op.method
                        ),
                        path: vec![func.qname.clone()],
                    }),
                    None => findings.push(StaticFinding {
                        lint: Lint::AtomicOrder,
                        file: func.file.clone(),
                        line: op.line,
                        message: format!(
                            "{} uses Ordering::Relaxed on `{}.{}` without a `// verify: relaxed-ok <reason>` annotation",
                            func.qname, op.field, op.method
                        ),
                        path: vec![func.qname.clone()],
                    }),
                }
            }
        }
    }

    // Stale annotations: markers no Relaxed operation consumed.
    for ann in &model.annotations {
        if !used_at
            .iter()
            .any(|(f, l)| *f == ann.file && *l == ann.line)
        {
            findings.push(StaticFinding {
                lint: Lint::AtomicOrder,
                file: ann.file.clone(),
                line: ann.line,
                message: "stale `verify: relaxed-ok` annotation: no Relaxed atomic operation on this or the next line".into(),
                path: Vec::new(),
            });
        }
    }

    let used = used_at.len();
    if used != budget {
        findings.push(StaticFinding {
            lint: Lint::AtomicOrder,
            file: "(workspace)".into(),
            line: 0,
            message: format!(
                "relaxed-ok annotations in use: {used}, budget is exactly {budget}; re-derive the budget with the change that adds or removes one"
            ),
            path: Vec::new(),
        });
    }
    AtomicsResult { findings, used }
}
