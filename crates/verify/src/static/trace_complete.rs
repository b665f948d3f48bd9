//! Lint 4: trace completeness.
//!
//! The runtime-verification checkers replay the trace assuming every
//! capability mutation left a footprint. This lint is the static dual:
//! every public `&mut self` method on `CapEngine` must transitively
//! reach a `TraceSink::emit`/`emit_engine` call, except for the
//! explicitly exempted non-mutating plumbing.
//!
//! The model is of the release build, so the engine's corruption hooks
//! (debug and `paranoid-checks` builds only, invisible tampering by
//! design) are not in it: no hypercall can reach them, and they need no
//! exemption.

use super::{Lint, StaticFinding};
use crate::parse::WorkspaceModel;

/// Engine methods excused from emitting, with the reason.
pub const EXEMPT: &[(&str, &str)] = &[
    (
        "set_trace",
        "installs the sink itself; nothing to record yet",
    ),
    (
        "drain_effects",
        "hardware-effect queue handoff, not a capability mutation",
    ),
    (
        "drain_effects_into",
        "hardware-effect queue handoff, not a capability mutation",
    ),
];

/// Lint output.
pub struct TraceResult {
    /// Ops that never emit, plus exemption-table rot.
    pub findings: Vec<StaticFinding>,
    /// Ops checked and proven to emit.
    pub traced_ops: usize,
}

/// Runs the lint.
pub fn check(model: &WorkspaceModel) -> TraceResult {
    let mut findings = Vec::new();
    let mut traced_ops = 0usize;

    // Exemption-table rot: every exempt name must still be a parsed
    // CapEngine method, or the table is hiding nothing.
    for (name, _) in EXEMPT {
        if model.find_qname(&format!("CapEngine::{name}")).is_none() {
            findings.push(StaticFinding {
                lint: Lint::TraceComplete,
                file: "(config)".into(),
                line: 0,
                message: format!(
                    "exemption table rot: `CapEngine::{name}` is exempt but no longer exists"
                ),
                path: Vec::new(),
            });
        }
    }

    for (fi, func) in model.functions.iter().enumerate() {
        let is_engine_op = func.qname.starts_with("CapEngine::")
            && func.file.ends_with("core/src/engine.rs")
            && func.is_pub
            && func.has_mut_self;
        if !is_engine_op || EXEMPT.iter().any(|(n, _)| *n == func.name) {
            continue;
        }
        let parents = model.reachable(&[fi]);
        let emits = parents.keys().any(|&ri| {
            model.functions[ri]
                .calls
                .iter()
                .any(|c| c.name == "emit" || c.name == "emit_engine")
        });
        if emits {
            traced_ops += 1;
        } else {
            findings.push(StaticFinding {
                lint: Lint::TraceComplete,
                file: func.file.clone(),
                line: func.line,
                message: format!(
                    "mutating engine op {} never reaches TraceSink::emit — the RV trace would miss this mutation",
                    func.qname
                ),
                path: vec![func.qname.clone()],
            });
        }
    }
    TraceResult {
        findings,
        traced_ops,
    }
}
