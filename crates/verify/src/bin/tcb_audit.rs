//! `tcb-audit`: the command-line front end of the judiciary toolchain.
//!
//! ```text
//! cargo run -p tyche-verify --bin tcb-audit            # audit the real tree
//! cargo run -p tyche-verify --bin tcb-audit -- --bmc   # audit + model check
//! tcb-audit --root <dir>                               # audit another tree
//! ```
//!
//! Exits non-zero when any gate fails, so CI can use it directly.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tyche_verify::{bmc, locate_workspace_root, static_audit, static_lints};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut run_bmc = false;
    let mut run_static = false;
    let mut json_out: Option<PathBuf> = None;
    let mut budget: Option<usize> = None;
    let mut bmc_config = bmc::BmcConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--static" => run_static = true,
            "--json" => match args.next() {
                Some(path) => json_out = Some(PathBuf::from(path)),
                None => return usage("--json needs a file path"),
            },
            "--loc-budget" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => budget = Some(n),
                None => return usage("--loc-budget needs a number"),
            },
            "--bmc" => run_bmc = true,
            "--bmc-depth" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => bmc_config.max_depth = n,
                None => return usage("--bmc-depth needs a number"),
            },
            "--bmc-caps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => bmc_config.max_caps = n,
                None => return usage("--bmc-caps needs a number"),
            },
            "--help" | "-h" => {
                println!(
                    "tcb-audit [--root <workspace>] [--loc-budget <n>]\n\
                     \x20         [--static] [--json <path>]\n\
                     \x20         [--bmc] [--bmc-depth <n>] [--bmc-caps <n>]\n\
                     Static TCB audit (and optionally the deep static lints\n\
                     and/or the bounded model check) of the Tyche trust path.\n\
                     --static adds the call-graph lints (lock order, panic\n\
                     reachability, atomics ordering, trace completeness);\n\
                     --json writes their STATIC.json report to <path>.\n\
                     Exits non-zero on any violation."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let root = match root.or_else(|| locate_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))) {
        Some(r) => r,
        None => {
            eprintln!("tcb-audit: cannot locate a workspace root; pass --root");
            return ExitCode::FAILURE;
        }
    };

    let mut config = static_audit::AuditConfig::tyche_defaults(&root);
    if let Some(b) = budget {
        config.loc_budget = b;
    }
    let report = match static_audit::run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tcb-audit: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    let mut failed = !report.passed();

    if run_static {
        let static_config = static_lints::StaticConfig::tyche_defaults(&root);
        match static_lints::run(&static_config) {
            Ok(deep) => {
                println!();
                print!("{}", deep.render());
                if let Some(path) = &json_out {
                    if let Err(e) = std::fs::write(path, deep.to_json()) {
                        eprintln!("tcb-audit: cannot write {}: {e}", path.display());
                        failed = true;
                    }
                }
                failed |= !deep.passed();
            }
            Err(e) => {
                eprintln!("tcb-audit: deep lints: {e}");
                failed = true;
            }
        }
    }

    if run_bmc {
        let result = bmc::run(&bmc_config);
        println!(
            "\nBounded model check ({} pages, {} child domains, depth {}, cap bound {})",
            bmc_config.pages, bmc_config.child_domains, bmc_config.max_depth, bmc_config.max_caps
        );
        println!(
            "  states: {} deduped ({} transitions, {} refused, depth reached {}, exhaustive: {})",
            result.states,
            result.transitions,
            result.refused,
            result.max_depth_reached,
            result.exhaustive
        );
        if result.violations.is_empty() {
            println!("  violations: none\n  RESULT: PASS");
        } else {
            println!("  violations: {}", result.violations.len());
            for v in result.violations.iter().take(10) {
                println!("    {}", v.message);
                for step in &v.trace {
                    println!("      after: {step}");
                }
            }
            println!("  RESULT: FAIL");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("tcb-audit: {msg} (try --help)");
    ExitCode::FAILURE
}
