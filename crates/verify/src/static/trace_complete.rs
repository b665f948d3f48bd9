//! Lint 4: trace completeness.
//!
//! The runtime-verification checkers replay the trace assuming every
//! capability mutation left a footprint. This lint is the static dual:
//! every public `&mut self` method on `CapEngine` must transitively
//! reach a `TraceSink::emit`/`emit_engine` call, except for the
//! explicitly exempted non-mutating plumbing and the adversarial
//! corruption hooks (which are *defined* as invisible tampering — the
//! RV suite exists to catch their effects, not their calls).
//!
//! The hooks' exemption holds only while they stay off every hypercall
//! path, so the lint also proves that no hypercall leaf or serving tier
//! reaches a `corrupt_*` engine method.

use super::panic_reach::{HYPERCALL_LEAVES, SERVING_TIERS};
use super::{Lint, StaticFinding};
use crate::parse::WorkspaceModel;

/// Engine methods excused from emitting, with the reason. The
/// `corrupt_*` entries are the tampering-hook list.
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
    (
        "corrupt_cap",
        "adversarial tampering hook: invisible by design, RV must catch it",
    ),
    (
        "corrupt_domain",
        "adversarial tampering hook: invisible by design, RV must catch it",
    ),
    (
        "corrupt_generation",
        "adversarial tampering hook: invisible by design, RV must catch it",
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
    // Tampering hooks on a hypercall path would be invisible mutations
    // the RV suite cannot see coming. Seeds the model lacks are skipped
    // here; the panic-reachability lint reports them as table rot.
    for (entry, seeds) in HYPERCALL_LEAVES.iter().chain(SERVING_TIERS) {
        let seeds: Vec<usize> = seeds.iter().filter_map(|s| model.find_qname(s)).collect();
        let parents = model.reachable(&seeds);
        for &fi in parents.keys() {
            let func = &model.functions[fi];
            let hook = func.qname.starts_with("CapEngine::")
                && func.name.starts_with("corrupt_")
                && EXEMPT.iter().any(|(n, _)| *n == func.name);
            if hook {
                findings.push(StaticFinding {
                    lint: Lint::TraceComplete,
                    file: func.file.clone(),
                    line: func.line,
                    message: format!(
                        "`{entry}` reaches tampering hook {}: an invisible mutation on a hypercall path",
                        func.qname
                    ),
                    path: model.path_to(&parents, fi),
                });
            }
        }
    }
    TraceResult {
        findings,
        traced_ops,
    }
}
