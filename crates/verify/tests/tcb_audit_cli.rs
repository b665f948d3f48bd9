//! End-to-end tests of the `tcb-audit` binary: a deliberately violating
//! fixture workspace must fail (non-zero exit), the real tree must pass.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_tcb-audit");

/// A scratch workspace with the three TCB crates, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    /// Builds a fully compliant minimal tree; tests then break it.
    fn compliant(tag: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("tcb-audit-fixture-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let f = Fixture { root };
        f.write(
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n\n\
             [workspace.dependencies]\n\
             tyche-core = { path = \"crates/core\" }\n\
             tyche-crypto = { path = \"crates/crypto\" }\n",
        );
        for krate in ["core", "monitor", "crypto"] {
            f.write(
                &format!("crates/{krate}/Cargo.toml"),
                &format!(
                    "[package]\nname = \"tyche-{krate}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
                     [dependencies]\n"
                ),
            );
            f.write(
                &format!("crates/{krate}/src/lib.rs"),
                "#![forbid(unsafe_code)]\n//! Fixture crate.\n\npub fn ok() -> u32 {\n    41 + 1\n}\n",
            );
        }
        f.write(
            "crates/verify/allowlist.toml",
            "# fixture allowlist: nothing approved\n",
        );
        f
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir fixture");
        fs::write(path, content).expect("write fixture file");
    }

    fn audit(&self, extra: &[&str]) -> (bool, String) {
        let out = Command::new(BIN)
            .arg("--root")
            .arg(&self.root)
            .args(extra)
            .output()
            .expect("run tcb-audit");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        (out.status.success(), text)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn compliant_fixture_passes() {
    let f = Fixture::compliant("pass");
    let (ok, text) = f.audit(&[]);
    assert!(ok, "compliant fixture should pass:\n{text}");
    assert!(text.contains("RESULT: PASS"), "{text}");
}

#[test]
fn unsafe_token_fails() {
    let f = Fixture::compliant("unsafe");
    f.write(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    );
    let (ok, text) = f.audit(&[]);
    assert!(!ok, "unsafe token must fail the audit");
    assert!(text.contains("unsafe-token"), "{text}");
}

#[test]
fn missing_forbid_attribute_fails() {
    let f = Fixture::compliant("forbid");
    f.write(
        "crates/monitor/src/lib.rs",
        "pub fn ok() -> u32 {\n    7\n}\n",
    );
    let (ok, text) = f.audit(&[]);
    assert!(!ok);
    assert!(text.contains("forbid-unsafe"), "{text}");
}

#[test]
fn unapproved_panic_construct_fails() {
    let f = Fixture::compliant("panic");
    f.write(
        "crates/monitor/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
    );
    let (ok, text) = f.audit(&[]);
    assert!(!ok);
    assert!(
        text.contains("panic-construct") && text.contains("unwrap()"),
        "{text}"
    );
}

#[test]
fn allowlisted_panic_construct_passes_and_stale_entry_fails() {
    let f = Fixture::compliant("allow");
    f.write(
        "crates/monitor/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
    );
    f.write(
        "crates/verify/allowlist.toml",
        "[[allow]]\nfile = \"crates/monitor/src/lib.rs\"\nconstruct = \"unwrap()\"\ncount = 1\nreason = \"fixture\"\n",
    );
    let (ok, text) = f.audit(&[]);
    assert!(ok, "allowlisted construct should pass:\n{text}");

    // Now remove the unwrap but keep the entry: the list is stale.
    f.write(
        "crates/monitor/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f(x: Option<u8>) -> u8 {\n    x.unwrap_or(0)\n}\n",
    );
    let (ok, text) = f.audit(&[]);
    assert!(!ok, "stale allowlist entry must fail");
    assert!(text.contains("stale-allowlist"), "{text}");
}

#[test]
fn registry_dependency_fails() {
    let f = Fixture::compliant("dep");
    f.write(
        "crates/core/Cargo.toml",
        "[package]\nname = \"tyche-core\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
         [dependencies]\nrand = \"0.8\"\n",
    );
    let (ok, text) = f.audit(&[]);
    assert!(!ok);
    assert!(
        text.contains("dependency") && text.contains("rand"),
        "{text}"
    );
}

#[test]
fn workspace_path_dependency_passes() {
    let f = Fixture::compliant("pathdep");
    f.write(
        "crates/core/Cargo.toml",
        "[package]\nname = \"tyche-core\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
         [dependencies]\ntyche-crypto.workspace = true\n\
         tyche-local = { path = \"../local\" }\n",
    );
    let (ok, text) = f.audit(&[]);
    assert!(ok, "path/workspace deps are allowed:\n{text}");
}

#[test]
fn loc_budget_gate_fails_when_exceeded() {
    let f = Fixture::compliant("loc");
    let (ok, text) = f.audit(&["--loc-budget", "5"]);
    assert!(!ok, "tiny budget must fail:\n{text}");
    assert!(text.contains("loc-budget"), "{text}");
}

#[test]
fn static_flag_gates_the_exit_code() {
    // The minimal fixture has none of the hypercall entrypoints, so the
    // deep lints must report entrypoint-table rot and fail the run even
    // though the flat audit passes.
    let f = Fixture::compliant("static");
    let (ok, text) = f.audit(&[]);
    assert!(ok, "flat audit alone passes:\n{text}");
    let (ok, text) = f.audit(&["--static"]);
    assert!(!ok, "--static must gate the exit code:\n{text}");
    assert!(text.contains("entrypoint table rot"), "{text}");
}

#[test]
fn real_tree_passes_deep_lints_and_writes_static_json() {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let json_path = std::env::temp_dir().join(format!("static-{}.json", std::process::id()));
    let out = Command::new(BIN)
        .arg("--root")
        .arg(ws)
        .arg("--static")
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("run tcb-audit --static");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "the real tree must pass its own deep lints:\n{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Path evidence, not counts: every hypercall leaf row is present.
    for leaf in [
        "CreateDomain",
        "Share",
        "Grant",
        "Split",
        "Revoke",
        "Seal",
        "SetEntry",
        "RecordContent",
        "MakeTransition",
        "Kill",
        "Enumerate",
        "Enter",
        "Return",
        "Attest",
    ] {
        assert!(
            text.contains(leaf),
            "missing leaf evidence for {leaf}:\n{text}"
        );
    }
    let json = fs::read_to_string(&json_path).expect("STATIC.json written");
    let _ = fs::remove_file(&json_path);
    assert!(json.contains("\"schema\": \"tyche-static/v1\""), "{json}");
    assert!(json.contains("\"pass\": true"), "{json}");
}

#[test]
fn real_tree_passes() {
    // The actual repository must satisfy its own gates.
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let out = Command::new(BIN)
        .arg("--root")
        .arg(ws)
        .output()
        .expect("run tcb-audit");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "the real tree must pass its own audit:\n{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("RESULT: PASS"), "{text}");
}
