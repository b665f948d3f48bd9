//! Zero-perturbation property: recording the trace must not change
//! what the system does — only what it remembers.
//!
//! The trace layer's contract is that `emit` charges no model cycles
//! and takes no lock the hot path can observe, so a traced run and an
//! untraced run of the same fuzz seed must be *the same execution*:
//! identical call-by-call outcomes, identical fault and quarantine
//! counts, identical final engine states, and identical attested
//! digests. Seed 13 is the campaign's quarantine witness (it exercises
//! fault plans, shootdowns, and at least one quarantine), which makes
//! it the strongest single-seed probe of the property.

use tyche_bench::fuzz::{self, FuzzConfig};

const CONFIG: FuzzConfig = FuzzConfig {
    seed: 13,
    calls: 1_200,
    faults: true,
};

#[test]
fn traced_and_untraced_runs_are_the_same_execution() {
    let traced = fuzz::run_traced(CONFIG);
    let untraced = fuzz::run_untraced(CONFIG);

    // Same behaviour, call by call.
    let (t, u) = (&traced.report, &untraced.report);
    assert_eq!(t.ok, u.ok, "ok counts diverged");
    assert_eq!(t.refused, u.refused, "refusal counts diverged");
    assert_eq!(t.malformed, u.malformed, "malformed counts diverged");
    assert_eq!(t.accesses, u.accesses, "access counts diverged");
    assert_eq!(t.faults_fired, u.faults_fired, "fault firings diverged");
    assert_eq!(t.quarantines, u.quarantines, "quarantine counts diverged");
    assert_eq!(
        t.audit_failures, u.audit_failures,
        "audit verdicts diverged"
    );

    // Same attested digest — the report digest covers the engine's
    // final capability state, so matching digests mean the observer
    // did not perturb the observed.
    assert_eq!(t.trace, u.trace, "state digests diverged");
    assert_eq!(
        traced.x86_engine, untraced.x86_engine,
        "x86 engines diverged"
    );
    assert_eq!(
        traced.riscv_engine, untraced.riscv_engine,
        "riscv engines diverged"
    );

    // The traced run actually recorded something (and it was clean);
    // the untraced run recorded nothing. Observability is additive.
    assert_eq!(traced.phases.len(), 2, "x86 and riscv phases drained");
    for phase in &traced.phases {
        assert!(
            !phase.log.is_empty(),
            "{} phase recorded events",
            phase.name
        );
        assert!(
            phase.findings.is_empty(),
            "{} phase RV findings: {:?}",
            phase.name,
            phase.findings
        );
    }
    for phase in &untraced.phases {
        assert!(
            phase.log.is_empty(),
            "untraced {} phase recorded {} events",
            phase.name,
            phase.log.len()
        );
    }
}

#[test]
fn traced_replay_reproduces_event_streams_and_chains() {
    let a = fuzz::run_traced(CONFIG);
    let b = fuzz::run_traced(CONFIG);
    assert_eq!(a.phases.len(), b.phases.len());
    for (pa, pb) in a.phases.iter().zip(&b.phases) {
        assert_eq!(pa.name, pb.name);
        assert_eq!(
            pa.log.len(),
            pb.log.len(),
            "{} event counts diverged across replays",
            pa.name
        );
        assert_eq!(
            pa.chain, pb.chain,
            "{} chain diverged across replays",
            pa.name
        );
    }
}
