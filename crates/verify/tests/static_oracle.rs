//! Lint-oracle suite for the deep static certifier.
//!
//! Each of the four analyses is pinned from both sides: a conforming
//! fixture must pass clean, and a fixture with a seeded violation must
//! be caught — with the expected site and, where the lint walks the
//! call graph, the expected path evidence. A lint that silently stops
//! firing fails these tests before it can rot the real gate.

use std::path::Path;

use tyche_verify::allowlist::AllowEntry;
use tyche_verify::parse::WorkspaceModel;
use tyche_verify::static_audit::AuditConfig;
use tyche_verify::static_lints::{atomics, lock_order, panic_reach, trace_complete, Lint};

fn allow(file: &str, construct: &str, count: usize) -> AllowEntry {
    AllowEntry {
        file: file.to_string(),
        construct: construct.to_string(),
        count,
        reason: "oracle fixture".to_string(),
    }
}

// ---------------------------------------------------------------- lock order

/// Ascending acquisitions, an explicit drop before re-descending, and a
/// sorted shard batch: everything the hierarchy allows.
const LOCKS_OK: &str = r#"
impl Serving {
    pub fn ascending(&self) {
        let state = mutex_lock(&self.core_slot);
        let shard = mutex_lock(&self.shards[0].lock);
        let eng = write_lock(&self.engine);
        consume(&state, &shard, &eng);
    }
    pub fn drop_then_redescend(&self) {
        let eng = write_lock(&self.engine);
        drop(eng);
        let state = mutex_lock(&self.core_slot);
        consume(&state);
    }
    pub fn sorted_batch(&self, mut idx: Vec<usize>) {
        idx.sort_unstable();
        idx.dedup();
        let _guards: Vec<MutexGuard<'_, ()>> = idx
            .iter()
            .filter_map(|&i| self.shards.get(i))
            .map(|s| mutex_lock(&s.lock))
            .collect();
        let eng = write_lock(&self.engine);
        consume(&eng);
    }
}
"#;

#[test]
fn conforming_lock_usage_passes() {
    let model = WorkspaceModel::from_sources(&[("monitor", "crates/monitor/src/ok.rs", LOCKS_OK)]);
    let findings = lock_order::check(&model);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
}

#[test]
fn descending_acquisition_is_caught() {
    let src = r#"
impl Serving {
    pub fn backwards(&self) {
        let eng = write_lock(&self.engine);
        let shard = mutex_lock(&self.shards[0].lock);
        consume(&eng, &shard);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("monitor", "crates/monitor/src/bad.rs", src)]);
    let findings = lock_order::check(&model);
    assert_eq!(findings.len(), 1, "exactly the seeded violation: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.lint, Lint::LockOrder);
    assert_eq!(f.line, 5, "site is the shard acquisition");
    assert!(f.message.contains("domain-shard"), "{}", f.message);
    assert!(f.message.contains("engine-inner"), "{}", f.message);
    assert_eq!(f.path, vec!["Serving::backwards".to_string()]);
}

#[test]
fn transitive_descending_acquisition_reports_the_chain() {
    let src = r#"
impl Serving {
    pub fn outer(&self) {
        let eng = write_lock(&self.engine);
        self.helper();
        consume(&eng);
    }
    fn helper(&self) {
        let shard = mutex_lock(&self.shards[0].lock);
        consume(&shard);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("monitor", "crates/monitor/src/bad.rs", src)]);
    let findings = lock_order::check(&model);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.lint, Lint::LockOrder);
    assert!(
        f.message.contains("calls helper while holding `engine-inner`"),
        "{}",
        f.message
    );
    assert_eq!(
        f.path,
        vec!["Serving::outer".to_string(), "Serving::helper".to_string()],
        "chain names caller then acquiring callee"
    );
}

#[test]
fn unsorted_shard_batch_is_caught() {
    let src = r#"
impl Serving {
    pub fn unsorted(&self, idx: Vec<usize>) {
        let _guards: Vec<MutexGuard<'_, ()>> = idx
            .iter()
            .filter_map(|&i| self.shards.get(i))
            .map(|s| mutex_lock(&s.lock))
            .collect();
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("monitor", "crates/monitor/src/bad.rs", src)]);
    let findings = lock_order::check(&model);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("sort_unstable+dedup"),
        "{}",
        findings[0].message
    );
}

#[test]
fn double_single_shard_acquisition_is_caught() {
    let src = r#"
impl Serving {
    pub fn two_shards(&self) {
        let a = mutex_lock(&self.shards[0].lock);
        let b = mutex_lock(&self.shards[1].lock);
        consume(&a, &b);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("monitor", "crates/monitor/src/bad.rs", src)]);
    let findings = lock_order::check(&model);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("twice"), "{}", findings[0].message);
}

/// A ring drain's lock shape: the submission ring first (and dropped),
/// then core state, the engine, the pending-shootdown batch, and the
/// channel table last. Everything the hierarchy allows.
const RING_LOCKS_OK: &str = r#"
impl Drain {
    pub fn drain_and_gather(&self, gen: u64) {
        let queued = mutex_lock(&self.ring_cell);
        drop(queued);
        let state = mutex_lock(&self.core_slot);
        let eng = write_lock(&self.engine);
        let batch = mutex_lock(&self.pending);
        drop(batch);
        let channels = mutex_lock(&self.channels);
        consume(&state, &eng, &channels);
    }
}
"#;

#[test]
fn conforming_ring_to_channel_locks_pass() {
    let model =
        WorkspaceModel::from_sources(&[("core", "crates/core/src/ring_ok.rs", RING_LOCKS_OK)]);
    let findings = lock_order::check(&model);
    assert!(findings.is_empty(), "clean ring fixture flagged: {findings:?}");
}

/// Both inversions a ring drain must avoid: taking the ring while core
/// state is held, and taking another core's state while still holding a
/// shard (why a drain releases its shard guards before the shootdown
/// round).
#[test]
fn ring_and_core_state_inversions_are_caught() {
    let src = r#"
impl Drain {
    pub fn ring_after_core(&self) {
        let state = mutex_lock(&self.core_slot);
        let queued = mutex_lock(&self.ring_cell);
        consume(&state, &queued);
    }
    pub fn core_after_shard(&self, shard: &Shard) {
        let held = mutex_lock(&shard.lock);
        let remote = mutex_lock(&self.core_slot);
        consume(&held, &remote);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/ring_bad.rs", src)]);
    let findings = lock_order::check(&model);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(
        findings.iter().any(|f| f.message.contains("acquires `submission-ring`")
            && f.message.contains("`core-state`")),
        "ring-after-core inversion missed: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("acquires `core-state`")
            && f.message.contains("`domain-shard`")),
        "core-after-shard inversion missed: {findings:?}"
    );
}

/// The lint only ranks what it classifies: a pattern dropped from the
/// class table would silently take a real lock out of the order. Every
/// guard the actual TCB takes must fall into a class.
#[test]
fn every_real_tcb_acquisition_is_classified() {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let tcb = AuditConfig::tyche_defaults(ws).tcb_crates;
    let model = WorkspaceModel::build(ws, &tcb).expect("parse the TCB");
    let sites: Vec<_> = model
        .functions
        .iter()
        .flat_map(|f| f.locks.iter().map(move |l| (f, l)))
        .collect();
    assert!(sites.len() >= 30, "only {} acquisitions parsed", sites.len());
    let unclassified: Vec<String> = sites
        .iter()
        .filter(|(_, l)| lock_order::classify(l).is_none())
        .map(|(f, l)| format!("{}:{} in {} ({}({}))", f.file, l.line, f.qname, l.helper, l.arg))
        .collect();
    assert!(unclassified.is_empty(), "unranked acquisitions: {unclassified:#?}");
}

/// The fleet layer's lock shape: the channel table (which emits trace
/// events while held — trace lanes rank above it), and the NIC inbox
/// queue after the table. Everything the extended hierarchy allows.
const CHANNEL_LOCKS_OK: &str = r#"
impl Channels {
    pub fn judge_and_emit(&self, peer: u64) {
        let channels = mutex_lock(&self.channels);
        let lanes = read_lanes(&self.sink);
        consume(&channels, &lanes);
    }
    pub fn route_inbound(&self, peer: u64) {
        let channels = mutex_lock(&self.channels);
        let inbox = mutex_lock(&self.nic_queue);
        consume(&channels, &inbox);
    }
}
"#;

#[test]
fn conforming_channel_and_nic_locks_pass() {
    let model = WorkspaceModel::from_sources(&[(
        "core",
        "crates/core/src/channel_ok.rs",
        CHANNEL_LOCKS_OK,
    )]);
    let findings = lock_order::check(&model);
    assert!(findings.is_empty(), "clean channel fixture flagged: {findings:?}");
}

#[test]
fn channel_and_nic_inversions_are_caught() {
    let src = r#"
impl Channels {
    pub fn channel_after_nic(&self) {
        let inbox = mutex_lock(&self.nic_queue);
        let channels = mutex_lock(&self.channels);
        consume(&inbox, &channels);
    }
    pub fn engine_after_channel(&self) {
        let channels = mutex_lock(&self.channels);
        let eng = write_lock(&self.engine);
        consume(&channels, &eng);
    }
}
"#;
    let model =
        WorkspaceModel::from_sources(&[("core", "crates/core/src/channel_bad.rs", src)]);
    let findings = lock_order::check(&model);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(
        findings.iter().any(|f| f.message.contains("acquires `channel-table`")
            && f.message.contains("`nic-queue`")),
        "channel-after-nic inversion missed: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("acquires `engine-inner`")
            && f.message.contains("`channel-table`")),
        "engine-after-channel inversion missed: {findings:?}"
    );
}

// ------------------------------------------------------------- panic reach

const ENTRIES: &[(&str, &[&str])] = &[("TestEntry", &["Gate::entry"])];

#[test]
fn allowlisted_reachable_panic_becomes_path_evidence() {
    let src = r#"
impl Gate {
    pub fn entry(&self) { middle(); }
}
fn middle() { leaf(); }
fn leaf() { table.expect("checked"); }
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/gate.rs", src)]);
    let (findings, evidence) = panic_reach::check_entries(
        &model,
        ENTRIES,
        &[allow("crates/core/src/gate.rs", "expect(", 1)],
    );
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(evidence.len(), 1);
    let ev = &evidence[0];
    assert_eq!(ev.entry, "TestEntry");
    assert_eq!(ev.sites.len(), 1);
    let site = &ev.sites[0];
    assert_eq!(site.construct, "expect(");
    assert_eq!(site.lines, vec![6]);
    assert_eq!(
        site.path,
        vec!["Gate::entry".to_string(), "middle".to_string(), "leaf".to_string()],
        "evidence is the entrypoint-to-site chain, not a count"
    );
}

#[test]
fn unallowlisted_reachable_panic_is_caught_with_path() {
    let src = r#"
impl Gate {
    pub fn entry(&self) { middle(); }
}
fn middle() { leaf(); }
fn leaf() { boom.unwrap(); }
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/gate.rs", src)]);
    let (findings, _) = panic_reach::check_entries(&model, ENTRIES, &[]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.lint, Lint::PanicReach);
    assert_eq!(f.line, 6);
    assert!(f.message.contains("unwrap()"), "{}", f.message);
    assert!(f.message.contains("TestEntry"), "{}", f.message);
    assert_eq!(
        f.path,
        vec![
            "Gate::entry".to_string(),
            "middle".to_string(),
            "leaf".to_string(),
            "crates/core/src/gate.rs:6".to_string(),
        ],
        "path ends at the concrete site"
    );
}

#[test]
fn unreachable_panic_is_not_flagged() {
    let src = r#"
impl Gate {
    pub fn entry(&self) { safe(); }
}
fn safe() {}
fn dead_code() { boom.unwrap(); }
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/gate.rs", src)]);
    let (findings, evidence) = panic_reach::check_entries(&model, ENTRIES, &[]);
    assert!(findings.is_empty(), "unreachable site flagged: {findings:?}");
    assert!(evidence[0].sites.is_empty());
}

#[test]
fn entrypoint_rot_is_caught() {
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/gate.rs", "fn x() {}")]);
    let (findings, _) = panic_reach::check_entries(&model, ENTRIES, &[]);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("entrypoint table rot"), "{}", findings[0].message);
}

// ----------------------------------------------------------------- atomics

#[test]
fn conforming_atomics_pass() {
    let src = r#"
impl Shared {
    pub fn publish(&self, g: u64) {
        self.live_gen.store(g, Ordering::Release);
    }
    pub fn observe(&self) -> u64 {
        self.live_gen.load(Ordering::Acquire)
    }
    pub fn count(&self) {
        // verify: relaxed-ok statistics only
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/shared.rs", src)]);
    let result = atomics::check(&model, 1);
    assert!(result.findings.is_empty(), "{:?}", result.findings);
    assert_eq!(result.used, 1);
}

#[test]
fn relaxed_on_seqlock_generation_is_caught() {
    let src = r#"
impl Shared {
    pub fn publish(&self, g: u64) {
        self.live_gen.store(g, Ordering::Relaxed);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/shared.rs", src)]);
    let result = atomics::check(&model, 0);
    assert_eq!(result.findings.len(), 1, "{:?}", result.findings);
    let f = &result.findings[0];
    assert_eq!(f.lint, Lint::AtomicOrder);
    assert_eq!(f.line, 4);
    assert!(f.message.contains("live_gen"), "{}", f.message);
    assert!(f.message.contains("Relaxed"), "{}", f.message);
}

#[test]
fn required_field_cannot_be_excused_by_annotation() {
    let src = r#"
impl Sink {
    pub fn gate(&self) -> bool {
        // verify: relaxed-ok trying to sneak past
        self.enabled.load(Ordering::Relaxed)
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/trace.rs", src)]);
    let result = atomics::check(&model, 0);
    // Too-weak ordering AND an illegal excuse: two findings, plus the
    // stale-annotation sweep (the marker is not consumable on `enabled`).
    assert!(
        result
            .findings
            .iter()
            .any(|f| f.message.contains("Ordering::Relaxed on `enabled`")),
        "{:?}",
        result.findings
    );
    assert!(
        result
            .findings
            .iter()
            .any(|f| f.message.contains("may not be excused")),
        "{:?}",
        result.findings
    );
}

#[test]
fn unannotated_relaxed_and_stale_annotation_are_caught() {
    let src = r#"
impl Stats {
    pub fn bump(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    pub fn strong(&self) -> u64 {
        // verify: relaxed-ok nothing relaxed here any more
        self.hits.load(Ordering::SeqCst)
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/stats.rs", src)]);
    let result = atomics::check(&model, 0);
    assert!(
        result
            .findings
            .iter()
            .any(|f| f.line == 4 && f.message.contains("without a `// verify: relaxed-ok")),
        "unannotated Relaxed missed: {:?}",
        result.findings
    );
    assert!(
        result
            .findings
            .iter()
            .any(|f| f.line == 7 && f.message.contains("stale")),
        "stale annotation missed: {:?}",
        result.findings
    );
}

#[test]
fn annotation_budget_is_exact_in_both_directions() {
    let src = r#"
impl Stats {
    pub fn bump(&self) {
        // verify: relaxed-ok statistics only
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/stats.rs", src)]);
    let over = atomics::check(&model, 0);
    assert!(
        over.findings.iter().any(|f| f.message.contains("budget is exactly 0")),
        "{:?}",
        over.findings
    );
    let under = atomics::check(&model, 2);
    assert!(
        under.findings.iter().any(|f| f.message.contains("budget is exactly 2")),
        "{:?}",
        under.findings
    );
    assert!(atomics::check(&model, 1).findings.is_empty());
}

/// An epoch-reclamation atomics shape: SeqCst epoch bumps and
/// reader-pin traffic, Acquire/Release on the head pointer, and no
/// Relaxed anywhere — so it must pass with a zero relaxed budget.
const EPOCH_ATOMICS_OK: &str = r#"
impl Reclaimer {
    pub fn publish(&self, next: usize) {
        let epoch_now = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let old_head = self.head.load(Ordering::Acquire);
        self.head.store(next, Ordering::Release);
        self.displaced.store(epoch_now, Ordering::SeqCst);
    }
    pub fn grace_elapsed(&self, displaced_at: u64) -> bool {
        self.readers.load(Ordering::SeqCst) > displaced_at
    }
}
"#;

#[test]
fn conforming_reclamation_atomics_pass_with_zero_budget() {
    let model =
        WorkspaceModel::from_sources(&[("core", "crates/core/src/epoch.rs", EPOCH_ATOMICS_OK)]);
    let result = atomics::check(&model, 0);
    assert!(result.findings.is_empty(), "{:?}", result.findings);
}

#[test]
fn relaxed_reclamation_without_annotation_is_caught() {
    let src = r#"
impl Reclaimer {
    pub fn reclaim(&self) {
        let horizon = self.readers.load(Ordering::Relaxed);
        self.reclaimed.fetch_add(1, Ordering::Relaxed);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/epoch.rs", src)]);
    let result = atomics::check(&model, 0);
    let unexcused: Vec<_> = result
        .findings
        .iter()
        .filter(|f| f.message.contains("without a `// verify: relaxed-ok"))
        .collect();
    assert_eq!(
        unexcused.len(),
        2,
        "both Relaxed reclamation ops must be caught: {:?}",
        result.findings
    );
}

// --------------------------------------------------------- trace complete

/// The exempt plumbing every fixture must carry so the exemption-table
/// rot check stays quiet.
const EXEMPT_STUBS: &str = r#"
    pub fn set_trace(&mut self, t: TraceSink) { self.trace = t; }
    pub fn drain_effects(&mut self) -> Vec<Effect> { take(&mut self.effects) }
    pub fn corrupt_cap(&mut self, id: CapId) { self.tamper(id); }
    pub fn corrupt_domain(&mut self, id: DomainId) { self.tamper_domain(id); }
    pub fn corrupt_generation(&mut self) { self.generation += 1; }
    pub fn corrupt_created_at(&mut self, id: CapId) { self.tamper(id); }
    pub fn corrupt_sealed_at(&mut self, id: DomainId) { self.tamper_domain(id); }
"#;

fn engine_fixture(ops: &str) -> WorkspaceModel {
    let src = format!(
        "impl CapEngine {{\n{EXEMPT_STUBS}\n{ops}\n}}\n\
         impl TraceSink {{ pub fn emit(&self, core: u32, kind: EventKind) {{ record(kind); }} }}\n"
    );
    WorkspaceModel::from_sources(&[("core", "crates/core/src/engine.rs", &src)])
}

#[test]
fn emitting_mutators_pass() {
    let model = engine_fixture(
        r#"
    pub fn share(&mut self, a: DomainId) -> Result<CapId, CapError> {
        let id = self.insert(a);
        self.note(EventKind::Share { id });
        Ok(id)
    }
    fn note(&self, kind: EventKind) { self.trace.emit(0, kind); }
"#,
    );
    let result = trace_complete::check(&model);
    assert!(result.findings.is_empty(), "{:?}", result.findings);
    assert_eq!(result.traced_ops, 1, "share counted as proven");
}

#[test]
fn silent_mutator_is_caught() {
    let model = engine_fixture(
        r#"
    pub fn stealth_edit(&mut self, a: DomainId) { self.insert(a); }
"#,
    );
    let result = trace_complete::check(&model);
    assert_eq!(result.findings.len(), 1, "{:?}", result.findings);
    let f = &result.findings[0];
    assert_eq!(f.lint, Lint::TraceComplete);
    assert!(f.message.contains("stealth_edit"), "{}", f.message);
    assert!(f.message.contains("never reaches TraceSink::emit"), "{}", f.message);
}

#[test]
fn non_mutating_and_private_methods_are_not_required_to_emit() {
    let model = engine_fixture(
        r#"
    pub fn lookup(&self, id: CapId) -> Option<Cap> { self.caps.get(&id).cloned() }
    fn internal(&mut self) { self.rebalance(); }
"#,
    );
    let result = trace_complete::check(&model);
    assert!(result.findings.is_empty(), "{:?}", result.findings);
}

#[test]
fn exemption_table_rot_is_caught() {
    // A model without the exempt stubs: every exempt name is rot.
    let model = WorkspaceModel::from_sources(&[(
        "core",
        "crates/core/src/engine.rs",
        "impl CapEngine { pub fn nop(&self) {} }",
    )]);
    let result = trace_complete::check(&model);
    assert!(
        result.findings.iter().all(|f| f.message.contains("exemption table rot")),
        "{:?}",
        result.findings
    );
    assert_eq!(result.findings.len(), trace_complete::EXEMPT.len());
}
