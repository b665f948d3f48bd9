//! Engine 1: the static TCB auditor.
//!
//! The paper's trust argument leans on four statically checkable
//! properties of the trust-path crates (core, monitor, crypto):
//!
//! 1. **No unsafe.** Every TCB crate root carries
//!    `#![forbid(unsafe_code)]` and no `unsafe` token appears anywhere
//!    in TCB sources — the compiler's memory-safety argument applies to
//!    the whole monitor.
//! 2. **No unapproved panic paths.** Panic-capable constructs
//!    (`panic!`, `unwrap()`, `expect(`, `todo!`, `unimplemented!`, and
//!    indexing `x[i]`) in production TCB code must appear in the
//!    checked-in allowlist with a budget and a reason. Budgets are
//!    exact: more occurrences than granted fails, and so does a stale
//!    entry granting more than the code contains — the list cannot rot
//!    in either direction.
//! 3. **LOC budget.** Claim 1 bounds the TCB below
//!    [`AuditConfig::loc_budget`] lines (default 10 000), counted by
//!    [`crate::loc`] — the same counter `repro c1` reports.
//! 4. **Dependency closure.** TCB crates may depend only on workspace
//!    members reached by `path`. No registry or git dependency can
//!    enter the trust path unnoticed.

use crate::allowlist::{self, AllowEntry};
use crate::lex;
use crate::loc::{self, FileLoc, LineClass};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// What the auditor checks; one variant per gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// Crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// An `unsafe` token in TCB source.
    UnsafeToken,
    /// Panic-capable construct above its allowlisted budget.
    PanicConstruct,
    /// Allowlist entry approving more than the code contains.
    StaleAllowlist,
    /// Dependency outside the workspace.
    Dependency,
    /// TCB line count at or above the budget.
    LocBudget,
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Check::ForbidUnsafe => "forbid-unsafe",
            Check::UnsafeToken => "unsafe-token",
            Check::PanicConstruct => "panic-construct",
            Check::StaleAllowlist => "stale-allowlist",
            Check::Dependency => "dependency",
            Check::LocBudget => "loc-budget",
        };
        f.write_str(s)
    }
}

/// One audit failure.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which gate fired.
    pub check: Check,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line, when the finding points at one.
    pub line: Option<usize>,
    /// Human explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(
                f,
                "[{}] {}:{}: {}",
                self.check, self.file, line, self.message
            ),
            None => write!(f, "[{}] {}: {}", self.check, self.file, self.message),
        }
    }
}

/// What to audit.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Workspace root (the directory holding the top-level Cargo.toml).
    pub workspace_root: PathBuf,
    /// Directory names under `crates/` forming the TCB.
    pub tcb_crates: Vec<String>,
    /// Claim-1 budget: audit fails when TCB code LOC >= this.
    pub loc_budget: usize,
    /// Allowlist file, relative to the workspace root.
    pub allowlist: PathBuf,
}

impl AuditConfig {
    /// The Tyche trust path: capability engine, monitor, crypto.
    pub fn tyche_defaults(workspace_root: &Path) -> AuditConfig {
        AuditConfig {
            workspace_root: workspace_root.to_path_buf(),
            tcb_crates: vec!["core".into(), "monitor".into(), "crypto".into()],
            loc_budget: 10_000,
            allowlist: PathBuf::from("crates/verify/allowlist.toml"),
        }
    }
}

/// The audit result: findings plus the numbers the report prints.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All failures, in scan order.
    pub findings: Vec<Finding>,
    /// Per-crate LOC breakdown, in config order.
    pub crate_loc: Vec<(String, FileLoc)>,
    /// Total TCB code lines (the C1 number).
    pub tcb_loc: usize,
    /// The budget the total was gated against.
    pub loc_budget: usize,
    /// How many source files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when every gate passed.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable summary table + findings.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("TCB static audit\n");
        out.push_str("  crate            code excluded  blank/comment\n");
        for (name, loc) in &self.crate_loc {
            out.push_str(&format!(
                "  {name:<14} {:>6}   {:>6}         {:>6}\n",
                loc.code, loc.excluded, loc.blank_or_comment
            ));
        }
        out.push_str(&format!(
            "  TCB total: {} code lines (budget {}) across {} files\n",
            self.tcb_loc, self.loc_budget, self.files_scanned
        ));
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
}

/// The panic-capable constructs the auditor knows. `index[` is the
/// slice-indexing heuristic: a `[` immediately preceded by an
/// identifier, `)`, or `]` (so `#[attr]`, array types, and literals do
/// not match).
pub const PANIC_CONSTRUCTS: &[&str] = &[
    "panic!",
    "todo!",
    "unimplemented!",
    "unreachable!",
    "unwrap()",
    "expect(",
    "index[",
];

/// Runs the audit.
pub fn run(config: &AuditConfig) -> Result<Report, String> {
    let mut report = Report {
        loc_budget: config.loc_budget,
        ..Report::default()
    };
    let allow_path = config.workspace_root.join(&config.allowlist);
    let allow = allowlist::load(&allow_path)?;

    // (file, construct) -> occurrence count, for allowlist reconciliation.
    let mut seen: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();

    for crate_name in &config.tcb_crates {
        let crate_root = config.workspace_root.join("crates").join(crate_name);
        let mut crate_loc = FileLoc::default();

        check_crate_root_forbids_unsafe(&crate_root, &config.workspace_root, &mut report);
        check_dependencies(&crate_root, &config.workspace_root, &mut report)?;

        for file in loc::rust_sources(&crate_root.join("src"))? {
            report.files_scanned += 1;
            let rel = relative(&file, &config.workspace_root);
            let src = std::fs::read_to_string(&file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            let floc = loc::count_source(&src);
            crate_loc.add(&floc);

            scan_file(&src, &rel, &mut report, &mut seen);
        }
        report.crate_loc.push((crate_name.clone(), crate_loc));
    }

    reconcile_allowlist(&allow, &mut seen, &mut report);

    report.tcb_loc = report.crate_loc.iter().map(|(_, l)| l.code).sum();
    if report.tcb_loc >= config.loc_budget {
        report.findings.push(Finding {
            check: Check::LocBudget,
            file: "(workspace)".into(),
            line: None,
            message: format!(
                "TCB is {} code lines; Claim 1 requires < {}",
                report.tcb_loc, config.loc_budget
            ),
        });
    }
    Ok(report)
}

fn relative(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Gate 1a: `#![forbid(unsafe_code)]` in the crate root.
fn check_crate_root_forbids_unsafe(crate_root: &Path, ws_root: &Path, report: &mut Report) {
    let lib = crate_root.join("src/lib.rs");
    let rel = relative(&lib, ws_root);
    match std::fs::read_to_string(&lib) {
        Ok(src) => {
            let code = lex::strip_noncode(&src).replace(' ', "");
            if !code.contains("#![forbid(unsafe_code)]") {
                report.findings.push(Finding {
                    check: Check::ForbidUnsafe,
                    file: rel,
                    line: None,
                    message: "crate root does not carry #![forbid(unsafe_code)]".into(),
                });
            }
        }
        Err(e) => report.findings.push(Finding {
            check: Check::ForbidUnsafe,
            file: rel,
            line: None,
            message: format!("cannot read crate root: {e}"),
        }),
    }
}

/// Gates 1b and 2: unsafe tokens and panic constructs in one file.
fn scan_file(
    src: &str,
    rel: &str,
    report: &mut Report,
    seen: &mut BTreeMap<(String, String), Vec<usize>>,
) {
    let stripped = lex::strip_noncode(src);
    let classes = loc::classify_lines(src);

    // `unsafe` is forbidden everywhere in TCB sources, tests included:
    // forbid(unsafe_code) covers unit tests, and the gate should match.
    for pos in lex::word_offsets(&stripped, "unsafe") {
        report.findings.push(Finding {
            check: Check::UnsafeToken,
            file: rel.to_string(),
            line: Some(lex::line_of(&stripped, pos)),
            message: "`unsafe` token in TCB source".into(),
        });
    }

    // Panic constructs only count in production code; tests unwrap at
    // will. Occurrences are recorded here and reconciled against the
    // allowlist once all files are scanned.
    for (construct, line) in panic_occurrences(&stripped, &classes) {
        seen.entry((rel.to_string(), construct))
            .or_default()
            .push(line);
    }
}

/// Every panic-capable construct on a production line of `stripped`
/// (comment/literal-stripped source), as `(construct, 1-based line)`.
/// Shared between the flat per-file audit and the call-graph
/// reachability lint so the two can never disagree on what counts.
pub(crate) fn panic_occurrences(stripped: &str, classes: &[LineClass]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let is_code_line = |line: usize| classes.get(line - 1).is_some_and(|c| *c == LineClass::Code);
    for word in ["panic", "todo", "unimplemented", "unreachable"] {
        for pos in lex::word_offsets(stripped, word) {
            let after = stripped.as_bytes().get(pos + word.len());
            let line = lex::line_of(stripped, pos);
            if after == Some(&b'!') && is_code_line(line) {
                out.push((format!("{word}!"), line));
            }
        }
    }
    for word in ["unwrap", "expect"] {
        for pos in lex::word_offsets(stripped, word) {
            let line = lex::line_of(stripped, pos);
            let rest = stripped[pos + word.len()..].trim_start();
            if rest.starts_with('(') && is_code_line(line) {
                let construct = if word == "unwrap" {
                    "unwrap()"
                } else {
                    "expect("
                };
                out.push((construct.to_string(), line));
            }
        }
    }
    // Indexing heuristic: `[` directly after an identifier byte, `)`,
    // or `]` is a panic-capable index expression.
    let bytes = stripped.as_bytes();
    for (pos, &b) in bytes.iter().enumerate() {
        if b == b'[' && pos > 0 {
            let prev = bytes[pos - 1];
            if lex::is_ident_byte(prev) || prev == b')' || prev == b']' {
                let line = lex::line_of(stripped, pos);
                if is_code_line(line) {
                    out.push(("index[".to_string(), line));
                }
            }
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    out
}

/// Gate 2's second half: every seen construct must be within budget and
/// every allowlist entry must still be earned.
fn reconcile_allowlist(
    allow: &[AllowEntry],
    seen: &mut BTreeMap<(String, String), Vec<usize>>,
    report: &mut Report,
) {
    let mut budgets: BTreeMap<(String, String), (usize, &str)> = BTreeMap::new();
    for entry in allow {
        budgets.insert(
            (entry.file.clone(), entry.construct.clone()),
            (entry.count, entry.reason.as_str()),
        );
    }

    for ((file, construct), lines) in seen.iter() {
        let budget = budgets
            .remove(&(file.clone(), construct.clone()))
            .map(|(count, _)| count)
            .unwrap_or(0);
        if lines.len() > budget {
            report.findings.push(Finding {
                check: Check::PanicConstruct,
                file: file.clone(),
                line: lines.first().copied(),
                message: format!(
                    "{} occurrence(s) of `{construct}` in production code, allowlist budget {budget} (lines {:?})",
                    lines.len(),
                    lines
                ),
            });
        } else if lines.len() < budget {
            // Budgets are exact: code that shrank leaves headroom a
            // later change could silently spend. Re-derive the entry.
            report.findings.push(Finding {
                check: Check::StaleAllowlist,
                file: file.clone(),
                line: lines.first().copied(),
                message: format!(
                    "allowlist grants {budget} `{construct}` but the code contains {}; budgets are exact — re-derive the entry",
                    lines.len()
                ),
            });
        }
    }

    // Entries left in `budgets` matched nothing — over-approving.
    for ((file, construct), (count, _reason)) in budgets {
        if count > 0 {
            report.findings.push(Finding {
                check: Check::StaleAllowlist,
                file,
                line: None,
                message: format!(
                    "allowlist grants {count} `{construct}` but the code contains none; remove the stale entry"
                ),
            });
        }
    }
}

/// Gate 3: TCB crates may only depend on workspace members by path.
fn check_dependencies(
    crate_root: &Path,
    ws_root: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let manifest = crate_root.join("Cargo.toml");
    let rel = relative(&manifest, ws_root);
    let text = std::fs::read_to_string(&manifest)
        .map_err(|e| format!("read {}: {e}", manifest.display()))?;
    let ws_deps = workspace_path_deps(ws_root)?;

    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let dep_section = matches!(
            section.as_str(),
            "dependencies" | "dev-dependencies" | "build-dependencies"
        );
        if !dep_section {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim();
        let value = value.trim();
        let (dep_name, via_workspace) = match name.strip_suffix(".workspace") {
            Some(base) => (base.trim(), true),
            None => (name, value.contains("workspace = true")),
        };
        let inline_path = value.contains("path =") || value.contains("path=");
        let ok = if via_workspace {
            // Resolved through [workspace.dependencies]: the root table
            // must map this name to a path dependency.
            ws_deps.get(dep_name).copied().unwrap_or(false)
        } else {
            inline_path
        };
        if !ok {
            report.findings.push(Finding {
                check: Check::Dependency,
                file: rel.clone(),
                line: Some(idx + 1),
                message: format!(
                    "dependency `{dep_name}` does not resolve to a workspace path dependency; TCB crates may only depend on in-workspace crates"
                ),
            });
        }
    }
    Ok(())
}

/// Parses the root manifest's `[workspace.dependencies]`:
/// name -> "is a path dependency".
fn workspace_path_deps(ws_root: &Path) -> Result<BTreeMap<String, bool>, String> {
    let manifest = ws_root.join("Cargo.toml");
    let text = std::fs::read_to_string(&manifest)
        .map_err(|e| format!("read {}: {e}", manifest.display()))?;
    let mut out = BTreeMap::new();
    let mut in_table = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_table = line == "[workspace.dependencies]";
            continue;
        }
        if !in_table || line.starts_with('#') || line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once('=') {
            out.insert(
                name.trim().to_string(),
                value.contains("path =") || value.contains("path="),
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    type SeenMap = BTreeMap<(String, String), Vec<usize>>;

    fn scan_str(src: &str) -> (Vec<Finding>, SeenMap) {
        let mut report = Report::default();
        let mut seen = BTreeMap::new();
        scan_file(src, "x.rs", &mut report, &mut seen);
        (report.findings, seen)
    }

    #[test]
    fn finds_unsafe_tokens_but_not_in_comments_or_strings() {
        let (findings, _) = scan_str("// unsafe\nlet s = \"unsafe\";\nunsafe { }\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].check, Check::UnsafeToken);
        assert_eq!(findings[0].line, Some(3));
    }

    #[test]
    fn records_panic_constructs_on_production_lines_only() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(x: Option<u8>) { x.unwrap(); panic!(); }\n\
                   }\n";
        let (_, seen) = scan_str(src);
        assert_eq!(seen[&("x.rs".into(), "unwrap()".into())], vec![1]);
        assert!(!seen.contains_key(&("x.rs".into(), "panic!".into())));
    }

    #[test]
    fn indexing_heuristic_skips_attributes_and_types() {
        let src =
            "#[derive(Debug)]\nstruct S { a: [u8; 4] }\nfn f(v: &[u8], i: usize) -> u8 { v[i] }\n";
        let (_, seen) = scan_str(src);
        assert_eq!(seen[&("x.rs".into(), "index[".into())], vec![3]);
    }

    #[test]
    fn expect_and_macros_recorded() {
        let src =
            "fn f(x: Option<u8>) { x.expect(\"m\"); todo!(); unimplemented!(); panic!(\"b\"); }\n";
        let (_, seen) = scan_str(src);
        for construct in ["expect(", "todo!", "unimplemented!", "panic!"] {
            assert!(
                seen.contains_key(&("x.rs".into(), construct.into())),
                "missing {construct}"
            );
        }
    }

    #[test]
    fn reconcile_flags_over_budget_and_stale() {
        let allow = vec![
            AllowEntry {
                file: "a.rs".into(),
                construct: "unwrap()".into(),
                count: 1,
                reason: "ok".into(),
            },
            AllowEntry {
                file: "gone.rs".into(),
                construct: "panic!".into(),
                count: 2,
                reason: "stale".into(),
            },
        ];
        let mut seen = BTreeMap::new();
        seen.insert(("a.rs".to_string(), "unwrap()".to_string()), vec![3, 9]);
        seen.insert(("b.rs".to_string(), "expect(".to_string()), vec![4]);
        let mut report = Report::default();
        reconcile_allowlist(&allow, &mut seen, &mut report);
        let checks: Vec<Check> = report.findings.iter().map(|f| f.check).collect();
        assert!(checks.contains(&Check::PanicConstruct), "{checks:?}");
        assert!(checks.contains(&Check::StaleAllowlist), "{checks:?}");
        // a.rs over budget (2 > 1), b.rs unapproved (1 > 0), gone.rs stale.
        assert_eq!(report.findings.len(), 3);
    }

    #[test]
    fn reconcile_flags_under_budget_as_stale() {
        let allow = vec![AllowEntry {
            file: "a.rs".into(),
            construct: "index[".into(),
            count: 5,
            reason: "bounds pre-validated".into(),
        }];
        let mut seen = BTreeMap::new();
        seen.insert(("a.rs".to_string(), "index[".to_string()), vec![2, 7]);
        let mut report = Report::default();
        reconcile_allowlist(&allow, &mut seen, &mut report);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].check, Check::StaleAllowlist);
        assert!(
            report.findings[0].message.contains("grants 5"),
            "{}",
            report.findings[0].message
        );
        assert!(
            report.findings[0].message.contains("contains 2"),
            "{}",
            report.findings[0].message
        );
    }

    #[test]
    fn unreachable_macro_is_a_tracked_construct() {
        let (_, seen) = scan_str("fn f(x: u8) { match x { 0 => (), _ => unreachable!() } }\n");
        assert!(seen.contains_key(&("x.rs".into(), "unreachable!".into())));
    }
}
