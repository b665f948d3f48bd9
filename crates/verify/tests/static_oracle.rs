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
/// guard taken as a temporary (released at its own statement) before a
/// lower class: everything the hierarchy allows.
const LOCKS_OK: &str = r#"
impl Serving {
    pub fn ascending(&self) {
        let state = mutex_lock(&self.core_slot);
        let eng = write_lock(&self.engine);
        let log = lock_mutex(&self.log);
        consume(&state, &eng, &log);
    }
    pub fn drop_then_redescend(&self) {
        let eng = write_lock(&self.engine);
        drop(eng);
        let state = mutex_lock(&self.core_slot);
        consume(&state);
    }
    pub fn temporary_then_lower(&self) {
        let gen = read_lock(&self.engine).generation();
        let state = mutex_lock(&self.core_slot);
        consume(gen, &state);
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
        let state = mutex_lock(&self.core_slot);
        consume(&eng, &state);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("monitor", "crates/monitor/src/bad.rs", src)]);
    let findings = lock_order::check(&model);
    assert_eq!(
        findings.len(),
        1,
        "exactly the seeded violation: {findings:?}"
    );
    let f = &findings[0];
    assert_eq!(f.lint, Lint::LockOrder);
    assert_eq!(f.line, 5, "site is the core-state acquisition");
    assert!(f.message.contains("acquires `core-state`"), "{}", f.message);
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
        let state = mutex_lock(&self.core_slot);
        consume(&state);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("monitor", "crates/monitor/src/bad.rs", src)]);
    let findings = lock_order::check(&model);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.lint, Lint::LockOrder);
    assert!(
        f.message
            .contains("calls helper while holding `engine-inner`"),
        "{}",
        f.message
    );
    assert!(f.message.contains("acquires `core-state`"), "{}", f.message);
    assert_eq!(
        f.path,
        vec!["Serving::outer".to_string(), "Serving::helper".to_string()],
        "chain names caller then acquiring callee"
    );
}

/// Two guards of one class held at once: a sync that locks a remote
/// core's state while still holding its own would deadlock against a
/// remote core doing the same.
#[test]
fn double_core_state_acquisition_is_caught() {
    let src = r#"
impl Serving {
    pub fn two_cores(&self) {
        let a = mutex_lock(&self.core_slot);
        let b = mutex_lock(&self.remote_core);
        consume(&a, &b);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("monitor", "crates/monitor/src/bad.rs", src)]);
    let findings = lock_order::check(&model);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("acquires `core-state` twice"),
        "{}",
        findings[0].message
    );
}

/// A ring drain's lock shape. The ring and the pending-shootdown batch
/// live in the core's state, so the drain takes that one lock, then
/// the engine, then the trace log it emits into, and drops its state
/// before a sync takes its own batch out (a temporary) and visits the
/// other cores one at a time. Everything the hierarchy allows.
const RING_LOCKS_OK: &str = r#"
impl Drain {
    pub fn drain_and_gather(&self, gen: u64) {
        let state = mutex_lock(&self.core_slot);
        let eng = write_lock(&self.engine);
        let log = lock_mutex(&self.log);
        consume(&state, &eng, &log);
        drop(log);
        drop(eng);
        drop(state);
        let affected = std::mem::take(&mut mutex_lock(&self.core_slot).pending);
        for other_core in &self.cores {
            let remote = mutex_lock(other_core);
            consume(&affected, &remote);
        }
    }
}
"#;

#[test]
fn conforming_ring_to_channel_locks_pass() {
    let model =
        WorkspaceModel::from_sources(&[("core", "crates/core/src/ring_ok.rs", RING_LOCKS_OK)]);
    let findings = lock_order::check(&model);
    assert!(
        findings.is_empty(),
        "clean ring fixture flagged: {findings:?}"
    );
}

/// Both inversions a ring drain must avoid, on the classes that hold
/// the ring and the batch: taking the ring's core state while the
/// engine is held, and a sync taking a remote core's state while still
/// holding its own batch (why it takes the batch out as a temporary
/// before it looks at the other cores).
#[test]
fn ring_and_core_state_inversions_are_caught() {
    let src = r#"
impl Drain {
    pub fn ring_after_engine(&self) {
        let eng = write_lock(&self.engine);
        let queued = mutex_lock(&self.core_slot);
        consume(&eng, &queued);
    }
    pub fn remote_core_while_pending(&self) {
        let pending = mutex_lock(&self.core_slot);
        let remote = mutex_lock(&self.other_core);
        consume(&pending, &remote);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/ring_bad.rs", src)]);
    let findings = lock_order::check(&model);
    assert_eq!(findings.len(), 2, "{findings:?}");
    let ring = findings
        .iter()
        .find(|f| f.path == ["Drain::ring_after_engine"])
        .expect("ring-after-engine inversion missed");
    assert_eq!(ring.line, 5, "site is the ring's core-state acquisition");
    assert!(
        ring.message.contains("acquires `core-state`") && ring.message.contains("`engine-inner`"),
        "{}",
        ring.message
    );
    let sync = findings
        .iter()
        .find(|f| f.path == ["Drain::remote_core_while_pending"])
        .expect("remote-core-while-pending inversion missed");
    assert_eq!(sync.line, 10, "site is the remote core's acquisition");
    assert!(
        sync.message.contains("acquires `core-state` twice"),
        "{}",
        sync.message
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
    assert!(
        sites.len() >= 16,
        "only {} acquisitions parsed",
        sites.len()
    );
    let unclassified: Vec<String> = sites
        .iter()
        .filter(|(_, l)| lock_order::classify(l).is_none())
        .map(|(f, l)| {
            format!(
                "{}:{} in {} ({}({}))",
                f.file, l.line, f.qname, l.helper, l.arg
            )
        })
        .collect();
    assert!(
        unclassified.is_empty(),
        "unranked acquisitions: {unclassified:#?}"
    );
}

/// The trace log's lock shape: every layer emits while holding its own
/// guard (the fleet's channel path under the engine, the serving tiers
/// under a core's state), so the log ranks after both. Everything the
/// hierarchy allows.
const CHANNEL_LOCKS_OK: &str = r#"
impl Channels {
    pub fn judge_and_emit(&self, peer: u64) {
        let eng = write_lock(&self.engine);
        let log = lock_mutex(&self.log);
        consume(&eng, &log);
    }
    pub fn emit_under_core_state(&self, peer: u64) {
        let state = mutex_lock(&self.core_slot);
        let log = lock_mutex(&self.log);
        consume(&state, &log);
    }
}
"#;

#[test]
fn conforming_channel_locks_pass() {
    let model = WorkspaceModel::from_sources(&[(
        "core",
        "crates/core/src/channel_ok.rs",
        CHANNEL_LOCKS_OK,
    )]);
    let findings = lock_order::check(&model);
    assert!(
        findings.is_empty(),
        "clean channel fixture flagged: {findings:?}"
    );
}

/// Both inversions the last rank forbids: taking the engine while the
/// trace log is held, and taking the log twice (an emission from inside
/// a drain).
#[test]
fn channel_inversions_are_caught() {
    let src = r#"
impl Channels {
    pub fn engine_after_log(&self) {
        let log = lock_mutex(&self.log);
        let eng = write_lock(&self.engine);
        consume(&log, &eng);
    }
    pub fn log_twice(&self) {
        let log = lock_mutex(&self.log);
        let again = lock_mutex(&self.spill_log);
        consume(&log, &again);
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/channel_bad.rs", src)]);
    let findings = lock_order::check(&model);
    assert_eq!(findings.len(), 2, "{findings:?}");
    let inverted = findings
        .iter()
        .find(|f| f.path == ["Channels::engine_after_log"])
        .expect("engine-after-log inversion missed");
    assert_eq!(inverted.line, 5, "site is the engine acquisition");
    assert!(
        inverted.message.contains("acquires `engine-inner`")
            && inverted.message.contains("`trace-log`"),
        "{}",
        inverted.message
    );
    let twice = findings
        .iter()
        .find(|f| f.path == ["Channels::log_twice"])
        .expect("double trace-log acquisition missed");
    assert_eq!(twice.line, 10, "site is the second log acquisition");
    assert!(
        twice.message.contains("acquires `trace-log` twice"),
        "{}",
        twice.message
    );
}

/// No hierarchy class is dead weight: each one ranks a lock the real
/// TCB takes somewhere.
#[test]
fn every_tcb_lock_class_is_taken() {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let tcb = AuditConfig::tyche_defaults(ws).tcb_crates;
    let model = WorkspaceModel::build(ws, &tcb).expect("parse the TCB");
    let taken: std::collections::BTreeSet<&str> = model
        .functions
        .iter()
        .flat_map(|f| f.locks.iter())
        .filter_map(|l| lock_order::classify(l).map(|(class, _)| class))
        .collect();
    let unused: Vec<&str> = lock_order::HIERARCHY
        .iter()
        .map(|(class, _)| *class)
        .filter(|class| !taken.contains(class))
        .collect();
    assert!(
        unused.is_empty(),
        "ranked classes no TCB lock takes: {unused:?}"
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
        vec![
            "Gate::entry".to_string(),
            "middle".to_string(),
            "leaf".to_string()
        ],
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
    assert!(
        findings.is_empty(),
        "unreachable site flagged: {findings:?}"
    );
    assert!(evidence[0].sites.is_empty());
}

#[test]
fn entrypoint_rot_is_caught() {
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/gate.rs", "fn x() {}")]);
    let (findings, _) = panic_reach::check_entries(&model, ENTRIES, &[]);
    assert_eq!(findings.len(), 1);
    assert!(
        findings[0].message.contains("entrypoint table rot"),
        "{}",
        findings[0].message
    );
}

// ------------------------------------------------------ call resolution

/// A crypto module with a free `tag` that panics through `block`, a
/// backend method also named `tag`, and two impls that each define
/// `pure`: what a by-name call graph conflates.
const AEAD: &str = r#"
pub fn tag(key: &[u8], data: &[u8]) -> usize { block(key).len() + data.len() }
pub fn block(key: &[u8]) -> [u8; 4] { [key[0]; 4] }
"#;
const CALLERS: &str = r#"
impl Backend {
    pub fn tag(&self, domain: u64) -> u64 { domain }
}
impl Monitor {
    pub fn domain_tag(&self, domain: u64) -> u64 { self.backend.tag(domain) }
    pub fn seal_frame(&self, key: &[u8]) -> usize { aead::tag(key, key) }
    pub fn own_helper(&self) -> u64 { Self::pure(1) }
    fn pure(x: u64) -> u64 { x }
}
impl Other {
    fn pure(x: &[u64]) -> u64 { x[0] }
}
"#;

fn resolution_model() -> WorkspaceModel {
    WorkspaceModel::from_sources(&[
        ("crypto", "crates/crypto/src/aead.rs", AEAD),
        ("monitor", "crates/monitor/src/monitor.rs", CALLERS),
    ])
}

fn reached_from(model: &WorkspaceModel, seed: &str) -> Vec<String> {
    let parents = model.reachable(&[model.find_qname(seed).unwrap()]);
    parents
        .keys()
        .map(|&i| model.functions[i].qname.clone())
        .collect()
}

#[test]
fn method_call_reaches_only_self_receivers() {
    let model = resolution_model();
    assert_eq!(
        reached_from(&model, "Monitor::domain_tag"),
        vec![
            "Backend::tag".to_string(),
            "Monitor::domain_tag".to_string()
        ],
        "`.tag(` cannot call the free `aead::tag`"
    );
    let entries: &[(&str, &[&str])] = &[("DomainTag", &["Monitor::domain_tag"])];
    let (findings, _) = panic_reach::check_entries(&model, entries, &[]);
    assert!(
        findings.is_empty(),
        "spurious `tag -> block` chain: {findings:?}"
    );
}

#[test]
fn qualified_free_call_keeps_its_real_edge() {
    let model = resolution_model();
    let entries: &[(&str, &[&str])] = &[("SealFrame", &["Monitor::seal_frame"])];
    let (findings, _) = panic_reach::check_entries(&model, entries, &[]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(
        findings[0].path,
        [
            "Monitor::seal_frame",
            "tag",
            "block",
            "crates/crypto/src/aead.rs:3"
        ],
        "`aead::tag(` names no impl, so it still reaches the free `tag`"
    );
}

#[test]
fn self_path_call_resolves_to_its_own_impl() {
    let model = resolution_model();
    assert_eq!(
        reached_from(&model, "Monitor::own_helper"),
        vec![
            "Monitor::own_helper".to_string(),
            "Monitor::pure".to_string()
        ],
        "`Self::pure` stays inside `impl Monitor`"
    );
    let entries: &[(&str, &[&str])] = &[("OwnHelper", &["Monitor::own_helper"])];
    let (findings, _) = panic_reach::check_entries(&model, entries, &[]);
    assert!(
        findings.is_empty(),
        "`Other`'s panics reached: {findings:?}"
    );
}

/// Path calls on std types (one behind an alias) next to a model type
/// (one behind an alias), a model `impl Default`, and a free `new` that
/// panics: the by-name fallback would let `Vec::new(` and
/// `OnceLock::new(` reach that `new`.
const FOREIGN: &str = r#"
pub fn new(n: usize) -> u8 { slots[n] }
pub type View = BTreeMap<u64, u8>;
pub type Grid = Table;
impl Verifier {
    pub fn fresh() -> Verifier { Verifier { seen: Vec::new(), slot: OnceLock::new(), v: View::new() } }
    pub fn with_table() -> Table { Grid::new(0) }
    pub fn defaulted() -> Config { Default::default() }
}
impl Table {
    pub fn new(n: usize) -> Table { Table { row: rows[n] } }
}
impl Default for Config {
    fn default() -> Config { loaded.expect("config") }
}
"#;

fn foreign_model() -> WorkspaceModel {
    WorkspaceModel::from_sources(&[("monitor", "crates/monitor/src/attest.rs", FOREIGN)])
}

#[test]
fn foreign_type_path_call_has_no_edge() {
    let model = foreign_model();
    assert_eq!(
        reached_from(&model, "Verifier::fresh"),
        vec!["Verifier::fresh".to_string()],
        "`Vec::new(`, `OnceLock::new(` and `View::new(` name no function of the model"
    );
    let entries: &[(&str, &[&str])] = &[("Fresh", &["Verifier::fresh"])];
    let (findings, _) = panic_reach::check_entries(&model, entries, &[]);
    assert!(
        findings.is_empty(),
        "std constructor reached a TCB `new`: {findings:?}"
    );
}

#[test]
fn model_type_and_trait_impl_are_still_reached() {
    let model = foreign_model();
    assert_eq!(
        reached_from(&model, "Verifier::with_table"),
        vec!["Verifier::with_table".to_string(), "Table::new".to_string()],
        "a model type's `T::new(`, also through an alias, keeps its edge and only that one"
    );
    assert_eq!(
        reached_from(&model, "Verifier::defaulted"),
        vec![
            "Verifier::defaulted".to_string(),
            "Config::default".to_string()
        ],
        "`Default` is implemented in the model, so `Default::default(` reaches it"
    );
    let entries: &[(&str, &[&str])] = &[("Defaulted", &["Verifier::defaulted"])];
    let (findings, _) = panic_reach::check_entries(&model, entries, &[]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(
        findings[0].path,
        [
            "Verifier::defaulted",
            "Config::default",
            "crates/monitor/src/attest.rs:14"
        ]
    );
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
        over.findings
            .iter()
            .any(|f| f.message.contains("budget is exactly 0")),
        "{:?}",
        over.findings
    );
    let under = atomics::check(&model, 2);
    assert!(
        under
            .findings
            .iter()
            .any(|f| f.message.contains("budget is exactly 2")),
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
    pub fn drain_effects_into(&mut self, out: &mut Vec<Effect>) { swap(&mut self.effects, out) }
"#;

fn engine_source(ops: &str) -> String {
    format!(
        "impl CapEngine {{\n{EXEMPT_STUBS}\n{ops}\n}}\n\
         impl TraceSink {{ pub fn emit(&self, core: u32, kind: EventKind) {{ record(kind); }} }}\n"
    )
}

fn engine_fixture(ops: &str) -> WorkspaceModel {
    WorkspaceModel::from_sources(&[("core", "crates/core/src/engine.rs", &engine_source(ops))])
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
    assert!(
        f.message.contains("never reaches TraceSink::emit"),
        "{}",
        f.message
    );
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
        result
            .findings
            .iter()
            .all(|f| f.message.contains("exemption table rot")),
        "{:?}",
        result.findings
    );
    assert_eq!(result.findings.len(), trace_complete::EXEMPT.len());
}

/// The model is of the release build: a debug-only function vanishes
/// with its calls, as does a gated statement's call, while the ungated
/// sibling and its own calls stay.
#[test]
fn debug_only_code_is_not_in_the_model() {
    let src = r#"
impl CapEngine {
    pub fn caps_of(&self, d: DomainId) -> Vec<CapId> {
        let out = self.indexed(d);
        #[cfg(any(debug_assertions, feature = "paranoid-checks"))]
        assert_eq!(out, self.caps_of_scan(d));
        out
    }
    fn indexed(&self, d: DomainId) -> Vec<CapId> { lookup(d) }
}
#[cfg(any(debug_assertions, feature = "paranoid-checks"))]
impl CapEngine {
    pub fn caps_of_scan(&self, d: DomainId) -> Vec<CapId> { scan_all(d) }
}
"#;
    let model = WorkspaceModel::from_sources(&[("core", "crates/core/src/engine.rs", src)]);
    let qnames: Vec<&str> = model.functions.iter().map(|f| f.qname.as_str()).collect();
    assert_eq!(qnames, ["CapEngine::caps_of", "CapEngine::indexed"]);
    let calls: Vec<&str> = model
        .functions
        .iter()
        .flat_map(|f| &f.calls)
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(
        calls,
        ["indexed", "lookup"],
        "caps_of calls indexed, indexed calls lookup"
    );
}

/// The real TCB as the release build compiles it holds no corruption
/// hook and no scan twin, so no hypercall can reach one; every engine
/// mutator left in it emits, and the exempt engine methods exist (so
/// the model is not vacuous).
#[test]
fn real_workspace_reaches_no_tampering_hook() {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let tcb = AuditConfig::tyche_defaults(ws).tcb_crates;
    let model = WorkspaceModel::build(ws, &tcb).expect("parse the TCB");
    let test_surface: Vec<&str> = model
        .functions
        .iter()
        .filter(|f| f.name.starts_with("corrupt_") || f.name.ends_with("_scan"))
        .map(|f| f.qname.as_str())
        .collect();
    assert!(test_surface.is_empty(), "{test_surface:?}");
    let result = trace_complete::check(&model);
    assert!(result.findings.is_empty(), "{:#?}", result.findings);
}
