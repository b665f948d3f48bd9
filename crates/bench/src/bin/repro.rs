//! The reproduction harness: regenerates every figure and claim table.
//!
//! Usage: `cargo run -p tyche-bench --bin repro [-- <ids...>]`
//!
//! With no arguments, runs every experiment (F1–F4, C1–C12, E1–E5) plus
//! the verification suite (`verify`) and prints one table each;
//! `EXPERIMENTS.md` records these outputs next to the paper's claims.
//! `repro verify` runs the judiciary toolchain alone: the static TCB
//! audit and the bounded model check, exiting non-zero on any failure.
//!
//! `repro harness [--suite hotpath|smp|scale|fleet|all] [--smoke]
//! [--out P]` is the one producer of the `BENCH_*.json` artifacts: it
//! runs every scenario of `harness::suite_specs` in `repro
//! harness-child` processes and merges their lines. `repro report`
//! diffs two artifacts or `--check`s committed ones.
//!
//! `repro trace [--json] [--smoke]` runs traced fuzz campaigns over the
//! trace seed corpus, drains each machine's event log, replays it
//! through every `tyche-verify::rv` temporal checker, re-runs each seed
//! to confirm the attested hash chain reproduces, and finishes with the
//! tracing-overhead gate (deterministic cycle metrics with the sink
//! recording must stay within 5% of the committed `BENCH_hotpath.json`
//! numbers). `--json` writes `TRACE.json` at the workspace root.

use std::path::PathBuf;
use std::time::Instant;
use tyche_bench::harness::{self, Family};
use tyche_bench::histogram::Histogram;
use tyche_bench::json::{self, Json};
use tyche_bench::scenarios::{self, layout};
use tyche_bench::timing;
use tyche_bench::{boot, fuzz, spawn_sealed, Table};
use tyche_core::audit;
use tyche_core::metrics::Counter;
use tyche_core::prelude::*;
use tyche_core::trace::EventKind;
use tyche_fleet::{Fleet, FleetConfig};
use tyche_hw::faults::{FaultPlan, FaultSite};
use tyche_verify::rv;
use tyche_monitor::abi::MonitorCall;
use tyche_monitor::attest::Verifier;
use tyche_monitor::boot::{expected_monitor_pcr, MONITOR_VERSION};
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{
    boot_riscv, boot_x86, BootConfig, ConcurrentMonitor, RingOutcome, SmpStats, Status,
};

fn main() {
    // Paths (after `--out`, or the operands of `report`) must survive
    // verbatim, so the raw argv is kept next to the lowercased view the
    // experiment ids match against.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("harness-child") {
        // Child mode prints exactly one JSON line on stdout for the
        // orchestrating parent — no banner, no tables.
        harness_child(&raw[1..]);
        return;
    }
    let args: Vec<String> = raw.iter().map(|s| s.to_lowercase()).collect();
    let all = args.is_empty();
    let want = |id: &str| all || args.iter().any(|a| a == id);

    println!("Tyche reproduction harness — {MONITOR_VERSION}");
    if args.first().map(String::as_str) == Some("harness") {
        harness_main(&args, &raw);
        return;
    }
    if args.first().map(String::as_str) == Some("report") {
        report_main(&raw[1..]);
        return;
    }
    if args.iter().any(|a| a == "fuzz") {
        // Explicit-only: the adversarial hypercall fuzzer over fixed
        // seeds. Exits non-zero on any audit finding or replay
        // divergence; a panic anywhere in the TCB kills the
        // process, which the CI gate treats as failure.
        let json = args.iter().any(|a| a == "--json");
        let smoke = args.iter().any(|a| a == "--smoke");
        if !fuzz_campaign(json, smoke) {
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "trace") {
        // Explicit-only: traced fuzz campaigns replayed through the
        // runtime verifiers, plus the tracing-overhead gate. Exits
        // non-zero on any RV finding, chain divergence, or overhead
        // breach; `--json` writes `TRACE.json` at the workspace root.
        let json = args.iter().any(|a| a == "--json");
        let smoke = args.iter().any(|a| a == "--smoke");
        if !trace_campaign(json, smoke) {
            std::process::exit(1);
        }
        return;
    }
    if want("f1") {
        f1();
    }
    if want("f2") {
        f2();
    }
    if want("f3") {
        f3();
    }
    if want("f4") {
        f4();
    }
    if want("c1") {
        c1();
    }
    if want("c2") {
        c2();
    }
    if want("c3") {
        c3();
    }
    if want("c4") {
        c4();
    }
    if want("c5") {
        c5();
    }
    if want("c6") {
        c6();
    }
    if want("c7") {
        c7();
    }
    if want("c8") {
        c8();
    }
    if want("c9") {
        c9();
    }
    if want("c10") {
        c10();
    }
    if want("c11") {
        c11();
    }
    if want("c12") {
        c12();
    }
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("verify") && !verify() {
        std::process::exit(1);
    }
}

/// The workspace root, anchored at compile time so every LOC/audit path
/// works from any working directory.
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/bench has a workspace root")
        .to_path_buf()
}

// ----------------------------------------------------------------------
// `repro harness` / `repro harness-child` / `repro report`
// ----------------------------------------------------------------------

/// The value following `flag` in `args`, if any (flag matched
/// case-insensitively, value returned verbatim).
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a.eq_ignore_ascii_case(flag))
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Where a bench artifact lands: `--out` verbatim when given, the
/// committed workspace-root artifact for full runs, and a target/
/// scratch path for smoke runs — smoke output never lands on a
/// committed artifact path by default.
fn resolve_bench_out(family: Family, smoke: bool, out: Option<&str>) -> PathBuf {
    match out {
        Some(p) => PathBuf::from(p),
        None if smoke => workspace_root()
            .join("target")
            .join(family.artifact_name().replace(".json", ".smoke.json")),
        None => workspace_root().join(family.artifact_name()),
    }
}

/// `repro harness [--suite hotpath|smp|scale|fleet|all] [--smoke] [--out P]`:
/// orchestrates the selected suites through child processes of this
/// same binary and writes one artifact per suite.
fn harness_main(args: &[String], raw: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let suite = flag_value(raw, "--suite").unwrap_or_else(|| "all".into()).to_lowercase();
    let out = flag_value(raw, "--out");
    let families: Vec<Family> = if suite == "all" {
        vec![Family::Hotpath, Family::Smp, Family::Scale, Family::Fleet]
    } else {
        match Family::parse(&suite) {
            Some(f) => vec![f],
            None => {
                eprintln!("harness: unknown suite {suite:?} (hotpath|smp|scale|fleet|all)");
                std::process::exit(2);
            }
        }
    };
    if out.is_some() && families.len() != 1 {
        eprintln!("harness: --out needs a single --suite");
        std::process::exit(2);
    }
    let exe = std::env::current_exe().expect("current exe");
    for family in families {
        let path = resolve_bench_out(family, smoke, out.as_deref());
        if smoke {
            // Preflight before any child spawns: a smoke run pointed at
            // a committed full artifact must die instantly, not after
            // the benches ran.
            if let Err(e) = harness::refuse_smoke_clobber(&path) {
                eprintln!("harness: {e}");
                std::process::exit(1);
            }
        }
        let run = harness::orchestrate(&exe, family, smoke).unwrap_or_else(|e| {
            eprintln!("harness: {e}");
            std::process::exit(1);
        });
        let doc = harness::assemble_artifact(&run, MONITOR_VERSION, &workspace_root());
        if let Err(e) = harness::write_artifact(&path, &doc, smoke) {
            eprintln!("harness: {e}");
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }
}

/// `repro report old.json new.json [--threshold PCT]` diffs two bench
/// artifacts and exits non-zero on any regression beyond the threshold;
/// `repro report --check <artifact>...` validates committed artifacts
/// (schema, mode, manifest, row invariants) and exits non-zero on any
/// failure.
fn report_main(args: &[String]) {
    if args.first().map(String::as_str) == Some("--check") {
        let files = &args[1..];
        if files.is_empty() {
            eprintln!("usage: repro report --check <artifact.json>...");
            std::process::exit(2);
        }
        let mut pass = true;
        for file in files {
            let doc = match std::fs::read_to_string(file).map_err(|e| e.to_string()).and_then(|s| json::parse(&s)) {
                Ok(d) => d,
                Err(e) => {
                    println!("CHECK {file}: unreadable ({e})");
                    pass = false;
                    continue;
                }
            };
            let failures = harness::check_artifact(&doc);
            if failures.is_empty() {
                let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("?");
                println!("CHECK {file}: ok ({schema})");
            } else {
                pass = false;
                for f in &failures {
                    println!("CHECK {file}: FAIL — {f}");
                }
            }
        }
        if !pass {
            std::process::exit(1);
        }
        return;
    }
    let threshold = flag_value(args, "--threshold")
        .map(|t| t.parse::<f64>().unwrap_or_else(|_| {
            eprintln!("report: bad --threshold {t:?}");
            std::process::exit(2);
        }))
        .unwrap_or(10.0);
    let positional: Vec<&String> = {
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if a.eq_ignore_ascii_case("--threshold") {
                    skip_next = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .collect()
    };
    let [old_path, new_path] = positional.as_slice() else {
        eprintln!("usage: repro report <old.json> <new.json> [--threshold PCT]");
        std::process::exit(2);
    };
    let load = |p: &str| -> Json {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|s| json::parse(&s))
            .unwrap_or_else(|e| {
                eprintln!("report: cannot load {p}: {e}");
                std::process::exit(2);
            })
    };
    let outcome = harness::report_diff(&load(old_path), &load(new_path), threshold)
        .unwrap_or_else(|e| {
            eprintln!("report: {e}");
            std::process::exit(2);
        });
    if !outcome.regressions.is_empty() {
        println!("report: REGRESSIONS beyond {threshold}%:");
        for r in &outcome.regressions {
            println!("  {r}");
        }
        std::process::exit(1);
    }
}

/// `repro harness-child <scenario> --id <id> key=value...` — runs one
/// scenario in this process and prints the single child line the
/// orchestrator consumes. Any panic or failed timing conversion kills
/// the process, which the parent reports as a failed child.
fn harness_child(args: &[String]) {
    let scenario = args.first().map(String::as_str).unwrap_or_else(|| {
        eprintln!("harness-child: missing scenario");
        std::process::exit(2);
    });
    let id = flag_value(args, "--id").unwrap_or_else(|| scenario.to_string());
    let params: Vec<(String, String)> = {
        let mut out = Vec::new();
        let mut rest = args.iter().skip(1); // first token is the scenario
        while let Some(a) = rest.next() {
            if a == "--id" {
                rest.next(); // the id value may itself contain '='
                continue;
            }
            if let Some((k, v)) = a.split_once('=') {
                out.push((k.to_string(), v.to_string()));
            }
        }
        out
    };
    let p = |key: &str, default: usize| -> usize {
        harness::param(&params, key)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {key}={v}")))
            .unwrap_or(default)
    };
    let seed = harness::param(&params, "seed")
        .map(|v| v.parse::<u64>().unwrap_or_else(|_| panic!("bad seed={v}")))
        .unwrap_or(1);

    let (row, det, hists) = match scenario {
        "revocation" => {
            let (e, hist) = measure_revocation(p("fanout", 16), p("storms", 5));
            let det = vec![
                ("before_cycles".to_string(), e.before),
                ("after_cycles".to_string(), e.after),
            ];
            (hotpath_row(&e), det, vec![("op".to_string(), hist)])
        }
        "capability_ops" => {
            let (e, hist) = bench_capability_ops(p("fanout", 16), p("iters", 2000));
            (hotpath_row(&e), Vec::new(), vec![("op".to_string(), hist)])
        }
        "transitions" => {
            let (e, hist) = bench_transitions(p("iters", 2000), false);
            let det = vec![
                ("mediated_cycles".to_string(), e.detail[1].1),
                ("fast_cycles".to_string(), e.detail[2].1),
            ];
            (hotpath_row(&e), det, vec![("op".to_string(), hist)])
        }
        "flush_policy" => {
            let (e, hist) = bench_flush_policy(p("iters", 2000), false);
            let det = vec![
                ("obfuscate_cycles".to_string(), e.before),
                ("none_cycles".to_string(), e.after),
                ("zero_cycles".to_string(), e.detail[0].1),
            ];
            (hotpath_row(&e), det, vec![("op".to_string(), hist)])
        }
        "mutations" => {
            let workload = harness::param(&params, "workload").expect("workload param");
            let Some(&(name, mode)) = SMP_WORKLOADS.iter().find(|(n, _)| *n == workload) else {
                eprintln!("harness-child: unknown workload {workload:?}");
                std::process::exit(2);
            };
            let (e, hist) = smp_run_mutations(
                name,
                p("threads", 2),
                p("pairs", 64),
                mode,
                p("shards", tyche_core::shared::SHARDS),
                p("ring_depth", ConcurrentMonitor::DEFAULT_RING_DEPTH),
            );
            let det = smp_det(&e);
            (smp_row(&e), det, vec![("call".to_string(), hist)])
        }
        "smp_transitions" => {
            let (e, hist) = smp_run_transitions(p("threads", 2), p("roundtrips", 256));
            let det = smp_det(&e);
            (smp_row(&e), det, vec![("call".to_string(), hist)])
        }
        "population" => {
            let (e, hists) = scale_population(p("population", 1_000), p("neighbors", 64), p("depth", 1024));
            (scale_row(&e), Vec::new(), hists)
        }
        "fleet" => fleet_bench(
            p("machines", 2),
            p("requests", 512),
            p("byzantine", 0) != 0,
            p("faulted", 0) != 0,
            seed,
        ),
        other => {
            eprintln!("harness-child: unknown scenario {other:?}");
            std::process::exit(2);
        }
    };
    let line = harness::ChildLine { id, seed, det, row, hists };
    println!("{}", line.emit());
}

/// Deterministic fields of an SMP entry: exact op counts and the
/// submission totals that do not depend on thread interleaving. Timing
/// counters (shard waits, IPI batches, makespans) stay out — they are
/// measurements, not invariants.
fn smp_det(e: &SmpEntry) -> Vec<(String, u64)> {
    let mut det = vec![("ops".to_string(), e.ops)];
    for (k, v) in &e.detail {
        if matches!(*k, "shootdowns_requested" | "ring_submitted" | "fast_transitions") {
            det.push((k.to_string(), *v));
        }
    }
    det
}

fn hotpath_row(e: &HotpathEntry) -> Json {
    json::parse(e.to_json().trim()).expect("hotpath row is valid JSON")
}

fn smp_row(e: &SmpEntry) -> Json {
    json::parse(e.to_json().trim()).expect("smp row is valid JSON")
}

fn scale_row(e: &ScaleEntry) -> Json {
    json::parse(e.to_json().trim()).expect("scale row is valid JSON")
}

/// `repro verify` — the judiciary toolchain: static TCB audit + bounded
/// model check, summarized in one table. Returns false on any failure.
fn verify() -> bool {
    let root = workspace_root();
    let config = tyche_verify::static_audit::AuditConfig::tyche_defaults(&root);
    let report = match tyche_verify::static_audit::run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verify: static audit failed to run: {e}");
            return false;
        }
    };
    let static_config = tyche_verify::static_lints::StaticConfig::tyche_defaults(&root);
    let deep = match tyche_verify::static_lints::run(&static_config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verify: deep static lints failed to run: {e}");
            return false;
        }
    };
    let bmc_config = tyche_verify::bmc::BmcConfig::default();
    let result = tyche_verify::bmc::run(&bmc_config);

    let mut t = Table::new(
        "VERIFY — judiciary toolchain (static TCB audit + deep lints + bounded model check)",
        &["check", "scope", "result"],
    );
    t.row(&[
        "no unsafe / forbid(unsafe_code)".into(),
        config.tcb_crates.join(", "),
        pass_fail(!report.findings.iter().any(|f| {
            matches!(
                f.check,
                tyche_verify::static_audit::Check::ForbidUnsafe
                    | tyche_verify::static_audit::Check::UnsafeToken
            )
        })),
    ]);
    t.row(&[
        "panic-construct allowlist".into(),
        format!("{} files", report.files_scanned),
        pass_fail(!report.findings.iter().any(|f| {
            matches!(
                f.check,
                tyche_verify::static_audit::Check::PanicConstruct
                    | tyche_verify::static_audit::Check::StaleAllowlist
            )
        })),
    ]);
    t.row(&[
        "C1 LOC budget".into(),
        format!("{} / {} lines", report.tcb_loc, report.loc_budget),
        pass_fail(!report
            .findings
            .iter()
            .any(|f| f.check == tyche_verify::static_audit::Check::LocBudget)),
    ]);
    t.row(&[
        "dependency closure (workspace-only)".into(),
        "TCB manifests".into(),
        pass_fail(!report
            .findings
            .iter()
            .any(|f| f.check == tyche_verify::static_audit::Check::Dependency)),
    ]);
    let lint_rows: &[(&str, tyche_verify::static_lints::Lint, String)] = &[
        (
            "lock-order hierarchy",
            tyche_verify::static_lints::Lint::LockOrder,
            format!("{} acquisition sites", deep.lock_sites),
        ),
        (
            "panic-reachability from hypercall entry",
            tyche_verify::static_lints::Lint::PanicReach,
            format!("{} leaves + {} tiers", deep.leaves.len(), deep.tiers.len()),
        ),
        (
            "atomics-ordering discipline",
            tyche_verify::static_lints::Lint::AtomicOrder,
            format!(
                "{} atomic ops, {}/{} relaxed-ok",
                deep.atomic_sites, deep.relaxed_ok_used, deep.relaxed_ok_budget
            ),
        ),
        (
            "trace completeness (mutating engine ops)",
            tyche_verify::static_lints::Lint::TraceComplete,
            format!("{} ops proven to emit", deep.traced_ops),
        ),
    ];
    for (name, lint, scope) in lint_rows {
        t.row(&[
            (*name).into(),
            scope.clone(),
            pass_fail(!deep.findings.iter().any(|f| f.lint == *lint)),
        ]);
    }
    t.row(&[
        "bounded model check".into(),
        format!(
            "{} states, depth {}, exhaustive: {}",
            result.states, result.max_depth_reached, result.exhaustive
        ),
        pass_fail(result.violations.is_empty() && result.exhaustive),
    ]);
    t.print();

    for finding in &report.findings {
        println!("  finding: {finding}");
    }
    for finding in &deep.findings {
        println!("  static-lint finding: {finding}");
    }
    for violation in result.violations.iter().take(5) {
        println!("  bmc violation: {} (trace: {:?})", violation.message, violation.trace);
    }

    let doc = deep.to_json();
    let path = workspace_root().join("STATIC.json");
    std::fs::write(&path, doc).expect("write STATIC.json");
    println!("  wrote {}", path.display());

    report.passed() && deep.passed() && result.violations.is_empty() && result.exhaustive
}

fn pass_fail(ok: bool) -> String {
    if ok { "PASS".into() } else { "FAIL".into() }
}

/// F1 — the separation of powers: legislative (domain defines policy),
/// executive (monitor enforces), judiciary (root of trust verifies).
fn f1() {
    let mut t = Table::new(
        "F1 — separation of powers (Fig. 1)",
        &["power", "actor", "artifact", "verified"],
    );
    let mut m = boot();
    // Legislative: the OS domain defines a policy (an exclusive enclave).
    let (enclave, _gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    t.row(&[
        "legislative".into(),
        "any domain (the OS here)".into(),
        format!("policy: {enclave} owns [0x100000,0x101000) exclusively"),
        "-".into(),
    ]);
    // Executive: the monitor enforced it in hardware.
    let denied = m.dom_read(0, 0x10_0000, &mut [0u8; 1]).is_err();
    t.row(&[
        "executive".into(),
        "isolation monitor".into(),
        "EPT denies the OS access to enclave memory".into(),
        format!("{denied}"),
    ]);
    // Judiciary: the TPM-rooted chain verifies monitor + domain.
    let verifier = Verifier {
        tpm_key: m.machine.tpm.attestation_key(),
        expected_monitor_pcr: expected_monitor_pcr(MONITOR_VERSION),
        monitor_key: m.report_key(),
    };
    let qn = [3u8; 32];
    let quote = m.machine_quote(qn).expect("quote");
    let rn = [4u8; 32];
    let report = m.attest_domain(enclave, rn).expect("report");
    let ok = verifier.verify(&quote, &qn, &report, &rn, None).is_ok();
    t.row(&[
        "judiciary".into(),
        "root of trust + remote verifier".into(),
        "TPM quote -> monitor key -> signed domain report".into(),
        format!("{ok}"),
    ]);
    t.print();
}

/// F2 — the confidential SaaS pipeline.
fn f2() {
    let mut t = Table::new(
        "F2 — confidential SaaS processing (Fig. 2)",
        &["step", "outcome"],
    );
    let start = Instant::now();
    let mut f = scenarios::fig2();
    let cycles0 = f.monitor.machine.cycles.now();
    let verified = scenarios::fig2_customer_verifies(&mut f);
    t.row(&[
        "customer attests app+crypto+topology".into(),
        format!("accepted={verified}"),
    ]);
    let data = *b"customer sensitive data 32 byte!";
    let key = 0x1234_5678_9abc_def0u64;
    let ct = scenarios::fig2_run_pipeline(&mut f, key, &data);
    let correct = ct == scenarios::fig2_expected(key, &data);
    t.row(&[
        "pipeline: app -> GPU -> crypto -> net".into(),
        format!("ciphertext correct={correct}"),
    ]);
    let leak = f
        .monitor
        .dom_read(0, layout::CRYPTO.0 + 0x2000, &mut [0u8; 8])
        .is_ok();
    t.row(&[
        "provider tries to read the key".into(),
        format!("leaked={leak}"),
    ]);
    t.row(&[
        "cost".into(),
        format!(
            "{} simulated cycles, {:?} host",
            f.monitor.machine.cycles.now() - cycles0,
            start.elapsed()
        ),
    ]);
    t.print();
}

/// F3 — deployment on the monitor: domains orthogonal to VMs/processes.
fn f3() {
    let mut t = Table::new(
        "F3 — trust domains cut across system abstractions (Fig. 3)",
        &["abstraction", "domain", "provider sees its memory?"],
    );
    let mut m = boot();
    // A confidential VM (the SaaS VM box of Fig. 3).
    m.dom_write(0, 0x40_0000, b"guest kernel")
        .expect("stage guest");
    let vm =
        libtyche::ConfidentialVm::launch(&mut m, 0, (0x40_0000, 0x60_0000), &[1], 0x40_0000, &[])
            .expect("launch cVM");
    let vm_hidden = m.dom_read(0, 0x40_0000, &mut [0u8; 1]).is_err();
    t.row(&[
        "SaaS VM (cVM)".into(),
        format!("{}", vm.domain),
        format!("{}", !vm_hidden),
    ]);
    // A driver compartment inside the provider's OS.
    let sb = libtyche::Sandbox::create(&mut m, 0, (0x10_0000, 0x10_4000), None).expect("sandbox");
    let drv_hidden = m.dom_read(0, 0x10_0000, &mut [0u8; 1]).is_err();
    t.row(&[
        "kernel driver sandbox".into(),
        format!("{}", sb.domain),
        format!("{}", !drv_hidden),
    ]);
    // An enclave inside the VM's RAM (nested inside a traditional box).
    vm.enter(&mut m, 1).expect("enter vm");
    let mut client = libtyche::TycheClient::new(&mut m, 1);
    let (inner, _t) = client.create_domain().expect("inner");
    let page = client.carve(0x50_0000, 0x50_1000).expect("carve");
    client
        .grant(page, inner, Rights::RW, RevocationPolicy::ZERO)
        .expect("grant");
    libtyche::ConfidentialVm::exit(&mut m, 1).expect("exit vm");
    let enc_hidden = m.dom_read(0, 0x50_0000, &mut [0u8; 1]).is_err();
    t.row(&[
        "enclave nested in the VM".into(),
        format!("{inner}"),
        format!("{}", !enc_hidden),
    ]);
    t.print();
}

/// F4 — the memory view with reference counts.
fn f4() {
    let f = scenarios::fig2();
    let rows = scenarios::fig4_view(
        &f.monitor,
        &[
            layout::CRYPTO,
            layout::APP,
            layout::APP_CRYPTO,
            layout::APP_GPU,
            layout::NET,
        ],
    );
    let names = [
        "crypto confidential",
        "app confidential",
        "app<->crypto",
        "app<->gpu",
        "net (untrusted)",
    ];
    let mut t = Table::new(
        "F4 — domain-to-region mappings with reference counts (Fig. 4)",
        &["region", "range", "domains", "refcount"],
    );
    for (row, name) in rows.iter().zip(names.iter()) {
        t.row(&[
            (*name).into(),
            format!("[{:#x},{:#x})", row.region.0, row.region.1),
            format!("{:?}", row.domains),
            row.refcount.to_string(),
        ]);
    }
    t.print();
}

/// C1 — monitor TCB size (<10K LOC claim).
fn c1() {
    let mut t = Table::new(
        "C1 — TCB size (paper: monitor is 'minimal (<10K LOC)')",
        &["component", "in TCB?", "LOC"],
    );
    // The count comes from tyche-verify's shared counter — the same one
    // `tcb-audit` gates on, so this table and CI can never disagree.
    let root = workspace_root();
    let count = move |dirs: &[&str]| -> usize {
        dirs.iter()
            .map(|d| {
                tyche_verify::loc::count_crate(&root.join("crates").join(d))
                    .expect("count crate LOC")
                    .code
            })
            .sum()
    };
    let core = count(&["core"]);
    let monitor = count(&["monitor"]);
    let crypto = count(&["crypto"]);
    let hw = count(&["hw"]);
    let guest = count(&["guest", "libtyche", "elf"]);
    t.row(&[
        "capability engine (tyche-core)".into(),
        "yes".into(),
        core.to_string(),
    ]);
    t.row(&[
        "monitor + backends (tyche-monitor)".into(),
        "yes".into(),
        monitor.to_string(),
    ]);
    t.row(&[
        "crypto (tyche-crypto)".into(),
        "yes".into(),
        crypto.to_string(),
    ]);
    t.row(&[
        "monitor TCB total".into(),
        "yes".into(),
        (core + monitor + crypto).to_string(),
    ]);
    t.row(&[
        "simulated hardware (not in TCB: is the 'silicon')".into(),
        "no".into(),
        hw.to_string(),
    ]);
    t.row(&[
        "guest OS + libtyche + elf (untrusted domains)".into(),
        "no".into(),
        guest.to_string(),
    ]);
    t.row(&[
        "paper claim".into(),
        "-".into(),
        format!("<10000 -> measured {}", core + monitor + crypto),
    ]);
    t.print();
}

/// C2 — transition latency: mediated (VMCALL) vs fast (VMFUNC).
fn c2() {
    let mut t = Table::new(
        "C2 — domain transition latency (paper: 'fast (100 cycles) ... using VMFUNC')",
        &["path", "simulated cycles/one-way", "host ns/roundtrip"],
    );
    let mut m = boot();
    let (_d, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    const N: u64 = 10_000;

    let c0 = m.machine.cycles.now();
    let h0 = Instant::now();
    for _ in 0..N {
        m.call(0, MonitorCall::Enter { cap: gate }).expect("enter");
        m.call(0, MonitorCall::Return).expect("return");
    }
    let mediated_cycles = (m.machine.cycles.now() - c0) / (2 * N);
    let mediated_ns = timing::per_op_ns(h0.elapsed(), N as usize)
        .unwrap_or_else(|err| panic!("c2 mediated timing: {err}"));
    t.row(&[
        "mediated (VMCALL)".into(),
        mediated_cycles.to_string(),
        mediated_ns.to_string(),
    ]);

    let c0 = m.machine.cycles.now();
    let h0 = Instant::now();
    for _ in 0..N {
        m.enter_fast(0, gate).expect("enter fast");
        m.ret_fast(0).expect("ret fast");
    }
    let fast_cycles = (m.machine.cycles.now() - c0) / (2 * N);
    let fast_ns = timing::per_op_ns(h0.elapsed(), N as usize)
        .unwrap_or_else(|err| panic!("c2 fast timing: {err}"));
    t.row(&[
        "fast (VMFUNC)".into(),
        fast_cycles.to_string(),
        fast_ns.to_string(),
    ]);
    t.row(&[
        "speedup".into(),
        format!("{:.1}x", mediated_cycles as f64 / fast_cycles as f64),
        format!("{:.1}x", mediated_ns as f64 / fast_ns.max(1) as f64),
    ]);
    t.print();
}

/// C3 — flush-on-transition side-channel mitigation.
fn c3() {
    let mut t = Table::new(
        "C3 — cache-flush transition policy (side-channel mitigation, §4.1)",
        &[
            "policy",
            "victim lines visible after exit",
            "cycles/transition",
        ],
    );
    for flush in [false, true] {
        let mut m = boot();
        let os = m.engine.root().expect("root");
        let (victim, _) = spawn_sealed(&mut m, 0, 0x10_0000, 0x4000, &[0], SealPolicy::strict());
        let policy = if flush {
            RevocationPolicy::OBFUSCATE
        } else {
            RevocationPolicy::NONE
        };
        let gate = m.engine.make_transition(os, victim, policy).expect("gate");
        m.sync_effects().expect("sync");

        m.call(0, MonitorCall::Enter { cap: gate }).expect("enter");
        // Victim touches its secret-dependent lines.
        for i in 0..16u64 {
            m.dom_write(0, 0x10_0000 + i * 64, &[i as u8])
                .expect("touch");
        }
        let c0 = m.machine.cycles.now();
        m.call(0, MonitorCall::Return).expect("return");
        let cost = m.machine.cycles.now() - c0;
        // Attacker (the OS) probes the cache model for victim residue.
        let tag = m
            .x86_backend()
            .and_then(|b| b.ept_root(victim))
            .expect("tag")
            .as_u64();
        let resident = m.machine.cache.resident_lines_of(tag);
        t.row(&[
            if flush {
                "flush cache+TLB".into()
            } else {
                "no flush".to_string()
            },
            resident.to_string(),
            cost.to_string(),
        ]);
    }
    t.print();
}

/// C4 — cascading revocation under chains and circular sharing.
fn c4() {
    let mut t = Table::new(
        "C4 — cascading revocation (terminates under circular sharing, §4.1)",
        &[
            "topology",
            "domains",
            "revoked caps",
            "host us",
            "refcount after",
        ],
    );
    for &depth in &[4usize, 16, 64, 256] {
        let mut m = boot();
        let first = tyche_bench::fixtures::share_chain(&mut m, (0x20_0000, 0x20_1000), depth);
        let caps_before = m.engine.caps().count();
        let h0 = Instant::now();
        m.engine
            .revoke(m.engine.root().expect("root"), first)
            .expect("revoke");
        m.sync_effects().expect("sync");
        let us = h0.elapsed().as_micros();
        let revoked = caps_before - m.engine.caps().count();
        let rc = m.engine.refcount_mem(MemRegion::new(0x20_0000, 0x20_1000));
        t.row(&[
            format!("chain-{depth}"),
            depth.to_string(),
            revoked.to_string(),
            us.to_string(),
            rc.to_string(),
        ]);
    }
    // Circular sharing: A -> B -> A -> B ... over one page.
    let mut m = boot();
    let os = m.engine.root().expect("root");
    let (a, _) = m.engine.create_domain(os).expect("a");
    let (b, _) = m.engine.create_domain(os).expect("b");
    let cap = {
        let mut client = libtyche::TycheClient::new(&mut m, 0);
        client.carve(0x20_0000, 0x20_1000).expect("carve")
    };
    let first = m
        .engine
        .share(os, cap, a, None, Rights::RW, RevocationPolicy::NONE)
        .expect("s");
    let mut cur = first;
    let mut who = (b, a);
    for _ in 0..64 {
        cur = m
            .engine
            .share(who.1, cur, who.0, None, Rights::RW, RevocationPolicy::NONE)
            .expect("s");
        who = (who.1, who.0);
    }
    m.sync_effects().expect("sync");
    let caps_before = m.engine.caps().count();
    m.engine.revoke(os, first).expect("revoke cycle");
    m.sync_effects().expect("sync");
    let revoked = caps_before - m.engine.caps().count();
    let rc = m.engine.refcount_mem(MemRegion::new(0x20_0000, 0x20_1000));
    t.row(&[
        "circular A<->B x64".into(),
        "2".into(),
        revoked.to_string(),
        "-".into(),
        rc.to_string(),
    ]);
    assert!(audit::audit(&m.engine).is_empty());
    t.print();
}

/// C5 — Tyche enclaves vs the SGX model.
fn c5() {
    use tyche_baselines::sgx::{HostPid, SgxMachine};
    let mut t = Table::new(
        "C5 — Tyche-enclaves vs SGX (the three §4.2 improvements)",
        &["property", "SGX model", "Tyche"],
    );
    // (a) implicit host-memory access.
    let mut sgx = SgxMachine::new(10_000);
    let e = sgx
        .ecreate(HostPid(1), (0x10_0000, 0x20_0000), 16, false)
        .expect("ecreate");
    let sgx_reads_host = sgx.enclave_can_read_host(e, 0xdead_0000).expect("query");
    let mut m = boot();
    m.dom_write(0, 0x50_0000, b"host secret").expect("w");
    let (_enc, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    m.call(0, MonitorCall::Enter { cap: gate }).expect("enter");
    let tyche_reads_host = m.dom_read(0, 0x50_0000, &mut [0u8; 1]).is_ok();
    m.call(0, MonitorCall::Return).expect("ret");
    t.row(&[
        "enclave reads untrusted host memory".into(),
        format!("{sgx_reads_host} (implicit, leak-prone)"),
        format!("{tyche_reads_host} (explicit sharing only)"),
    ]);
    // (b) address/layout reuse.
    let mut sgx = SgxMachine::new(10_000);
    sgx.ecreate(HostPid(1), (0x10_0000, 0x20_0000), 16, false)
        .expect("e1");
    let sgx_overlap = sgx
        .ecreate(HostPid(1), (0x10_0000, 0x20_0000), 16, false)
        .is_ok();
    let mut m = boot();
    let mut tyche_count = 0;
    for i in 0..8u64 {
        let base = 0x10_0000 + i * 0x10_000;
        let _ = spawn_sealed(&mut m, 0, base, 0x1000, &[0], SealPolicy::strict());
        tyche_count += 1;
    }
    t.row(&[
        "same layout twice / many enclaves".into(),
        format!("{sgx_overlap} (ELRANGE exclusive)"),
        format!("true ({tyche_count} coexisting)"),
    ]);
    // (c) nesting.
    let mut sgx = SgxMachine::new(10_000);
    let sgx_nests = sgx
        .ecreate(HostPid(1), (0x30_0000, 0x40_0000), 16, true)
        .is_ok();
    let mut m = boot();
    let (_outer, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x40_000, &[0], SealPolicy::nestable());
    m.call(0, MonitorCall::Enter { cap: gate }).expect("enter");
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    let nested = client.create_domain().is_ok();
    t.row(&[
        "enclave spawns nested enclave".into(),
        format!("{sgx_nests} (ECREATE is host-only)"),
        format!("{nested}"),
    ]);
    t.print();
}

/// C6 — in-process compartments vs process isolation.
fn c6() {
    use tyche_baselines::process::{ProcessCosts, ProcessSim};
    let mut t = Table::new(
        "C6 — isolating an untrusted library (compartment vs process, §2.2)",
        &[
            "mechanism",
            "create (cycles)",
            "per-call (cycles)",
            "teardown (cycles)",
        ],
    );
    // Tyche compartment.
    let mut m = boot();
    let c0 = m.machine.cycles.now();
    let sb = libtyche::Sandbox::create(
        &mut m,
        0,
        (0x20_0000, 0x20_4000),
        Some((0x30_0000, 0x30_1000)),
    )
    .expect("sandbox");
    let create = m.machine.cycles.now() - c0;
    let c0 = m.machine.cycles.now();
    const CALLS: u64 = 100;
    for _ in 0..CALLS {
        sb.run(&mut m, 0, |ctx| ctx.write(0x20_0000, b"x"))
            .expect("run");
    }
    let per_call = (m.machine.cycles.now() - c0) / CALLS;
    let c0 = m.machine.cycles.now();
    sb.destroy(&mut m, 0).expect("destroy");
    let teardown = m.machine.cycles.now() - c0;
    t.row(&[
        "Tyche compartment".into(),
        create.to_string(),
        per_call.to_string(),
        teardown.to_string(),
    ]);
    // Process baseline.
    let costs = ProcessCosts::default();
    let mut p = ProcessSim::create(costs, 0x4000);
    let pc_create = p.cycles;
    let before = p.cycles;
    for _ in 0..CALLS {
        p.call(b"x", |mem| mem[0] ^= 1);
    }
    let pc_call = (p.cycles - before) / CALLS;
    let total = p.destroy();
    let pc_teardown = total - before - pc_call * CALLS;
    t.row(&[
        "separate process + IPC".into(),
        pc_create.to_string(),
        pc_call.to_string(),
        pc_teardown.to_string(),
    ]);
    t.row(&[
        "process/compartment ratio".into(),
        format!("{:.1}x", pc_create as f64 / create as f64),
        format!("{:.2}x", pc_call as f64 / per_call as f64),
        "-".into(),
    ]);
    t.print();
}

/// C7 — PMP fixed-segment pressure vs EPT.
fn c7() {
    let mut t = Table::new(
        "C7 — PMP layout validation (fixed segments, §4) vs EPT",
        &[
            "fragments",
            "PMP entries needed",
            "PMP accepts",
            "EPT accepts",
        ],
    );
    for &frags in &[1usize, 7, 14, 15, 20] {
        // RISC-V.
        let mut m = boot_riscv(BootConfig::default());
        let os = m.engine.root().expect("root");
        let (child, _) = m.engine.create_domain(os).expect("child");
        m.sync_effects().expect("sync");
        let ram = m
            .engine
            .caps_of(os)
            .iter()
            .find(|c| c.active && c.is_memory())
            .map(|c| c.id)
            .expect("ram");
        let mut pmp_ok = true;
        for i in 0..frags {
            let s = 0x10_0000 + (i as u64) * 0x4000;
            let r = m.call(
                0,
                MonitorCall::Share {
                    cap: ram,
                    target: child,
                    sub: Some((s, s + 0x1000)),
                    rights: Rights::RO,
                    policy: RevocationPolicy::NONE,
                },
            );
            if r == Err(Status::BackendFailure) {
                pmp_ok = false;
            }
        }
        // x86 with identical fragmentation.
        let mut mx = boot();
        let osx = mx.engine.root().expect("root");
        let (childx, _) = mx.engine.create_domain(osx).expect("child");
        mx.sync_effects().expect("sync");
        let ramx = mx
            .engine
            .caps_of(osx)
            .iter()
            .find(|c| c.active && c.is_memory())
            .map(|c| c.id)
            .expect("ram");
        let mut ept_ok = true;
        for i in 0..frags {
            let s = 0x10_0000 + (i as u64) * 0x4000;
            let r = mx.call(
                0,
                MonitorCall::Share {
                    cap: ramx,
                    target: childx,
                    sub: Some((s, s + 0x1000)),
                    rights: Rights::RO,
                    policy: RevocationPolicy::NONE,
                },
            );
            if r.is_err() {
                ept_ok = false;
            }
        }
        t.row(&[
            frags.to_string(),
            frags.to_string(), // each 1-page fragment is one NAPOT entry
            pmp_ok.to_string(),
            ept_ok.to_string(),
        ]);
    }
    t.print();
}

/// C8 — two-tier attestation: tamper matrix + cost.
fn c8() {
    let mut t = Table::new(
        "C8 — two-tier attestation (§3.4): tamper matrix",
        &["attack", "verifier outcome"],
    );
    let mut m = boot();
    let (enclave, _) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    let verifier = Verifier {
        tpm_key: m.machine.tpm.attestation_key(),
        expected_monitor_pcr: expected_monitor_pcr(MONITOR_VERSION),
        monitor_key: m.report_key(),
    };
    let qn = [1u8; 32];
    let rn = [2u8; 32];
    let quote = m.machine_quote(qn).expect("quote");
    let signed = m.attest_domain(enclave, rn).expect("report");
    let check = |q, qn2: &[u8; 32], s, rn2: &[u8; 32]| match verifier.verify(q, qn2, s, rn2, None) {
        Ok(_) => "ACCEPTED".to_string(),
        Err(e) => format!("rejected ({e})"),
    };
    t.row(&["honest chain".into(), check(&quote, &qn, &signed, &rn)]);
    t.row(&[
        "stale quote (replay)".into(),
        check(&quote, &[9u8; 32], &signed, &rn),
    ]);
    t.row(&[
        "stale report (replay)".into(),
        check(&quote, &qn, &signed, &[9u8; 32]),
    ]);
    let mut forged = signed.clone();
    forged.report.measurement = tyche_crypto::hash(b"evil");
    t.row(&[
        "tampered measurement".into(),
        check(&quote, &qn, &forged, &rn),
    ]);
    let mut inflated = signed.clone();
    for r in &mut inflated.report.resources {
        r.refcount = tyche_core::refcount::RefCount { max: 1, min: 1 };
    }
    inflated.report.entry ^= 1; // ensure byte difference
    t.row(&[
        "tampered refcounts".into(),
        check(&quote, &qn, &inflated, &rn),
    ]);
    // Wrong-monitor machine.
    let mut evil = tyche_monitor::boot_x86(BootConfig {
        version: "evil-monitor v6.6.6",
        ..Default::default()
    });
    let (evil_dom, _) = spawn_sealed(&mut evil, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    let evil_verifier = Verifier {
        tpm_key: evil.machine.tpm.attestation_key(),
        expected_monitor_pcr: expected_monitor_pcr(MONITOR_VERSION),
        monitor_key: evil.report_key(),
    };
    let eq = evil.machine_quote(qn).expect("quote");
    let es = evil.attest_domain(evil_dom, rn).expect("report");
    t.row(&[
        "machine running a different monitor".into(),
        match evil_verifier.verify(&eq, &qn, &es, &rn, None) {
            Ok(_) => "ACCEPTED".into(),
            Err(e) => format!("rejected ({e})"),
        },
    ]);
    // Cost vs domain size.
    let mut t2 = Table::new(
        "C8b — attestation cost vs domain resources",
        &["resources", "report bytes", "host us/attest+verify"],
    );
    for &n in &[1usize, 8, 32, 128] {
        let mut m = boot();
        let os = m.engine.root().expect("root");
        let (d, _) = m.engine.create_domain(os).expect("d");
        let mut client = libtyche::TycheClient::new(&mut m, 0);
        for i in 0..n as u64 {
            let s = 0x10_0000 + i * 0x2000;
            let cap = client.carve(s, s + 0x1000).expect("carve");
            client
                .share(cap, d, None, Rights::RO, RevocationPolicy::NONE)
                .expect("share");
        }
        m.engine.set_entry(os, d, 0x10_0000).expect("entry");
        m.engine.seal(os, d, SealPolicy::strict()).expect("seal");
        m.sync_effects().expect("sync");
        let h0 = Instant::now();
        const REPS: u32 = 50;
        let mut bytes = 0usize;
        for i in 0..REPS {
            let mut rn = [0u8; 32];
            rn[0] = i as u8;
            let signed = m.attest_domain(d, rn).expect("report");
            bytes = signed.report.canonical_bytes().len();
            let verifier = Verifier {
                tpm_key: m.machine.tpm.attestation_key(),
                expected_monitor_pcr: expected_monitor_pcr(MONITOR_VERSION),
                monitor_key: m.report_key(),
            };
            let quote = m.machine_quote(rn).expect("quote");
            verifier
                .verify(&quote, &rn, &signed, &rn, None)
                .expect("verify");
        }
        t2.row(&[
            n.to_string(),
            bytes.to_string(),
            (h0.elapsed().as_micros() as u64 / REPS as u64).to_string(),
        ]);
    }
    t.print();
    t2.print();
}

/// C9 — TCB growth: hierarchical VMs vs flat domains.
fn c9() {
    use tyche_baselines::vmstack::VmStack;
    let mut t = Table::new(
        "C9 — TCB on the trust path vs nesting depth (§2.2)",
        &[
            "depth",
            "VM-stack TCB (LOC)",
            "components",
            "monitor TCB (LOC)",
            "ratio",
        ],
    );
    for depth in 1..=6 {
        let stack = VmStack::typical(depth);
        let vm = stack.tcb_loc();
        let mon = VmStack::monitor_tcb_loc(depth);
        t.row(&[
            depth.to_string(),
            vm.to_string(),
            stack.trusted_components().to_string(),
            mon.to_string(),
            format!("{}x", vm / mon),
        ]);
    }
    t.print();
}

/// C10 — mediation: the negative-path matrix.
fn c10() {
    let mut t = Table::new(
        "C10 — the monitor mediates everything (§3.1): refusal matrix",
        &["violation attempt", "outcome"],
    );
    let mut m = boot();
    let (enclave, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    let os = m.engine.root().expect("root");
    t.row(&[
        "enter on a core the domain does not own".into(),
        format!(
            "{:?}",
            m.call(1, MonitorCall::Enter { cap: gate })
                .expect_err("denied")
        ),
    ]);
    t.row(&[
        "return with empty call stack".into(),
        format!("{:?}", m.call(0, MonitorCall::Return).expect_err("denied")),
    ]);
    t.row(&[
        "touch revoked/unshared memory".into(),
        format!(
            "fault={:?}",
            m.dom_read(0, 0x10_0000, &mut [0u8; 1]).is_err()
        ),
    ]);
    t.row(&[
        "extend a sealed domain".into(),
        format!("{:?}", {
            let mut client = libtyche::TycheClient::new(&mut m, 0);
            let cap = client.carve(0x40_0000, 0x40_1000).expect("carve");
            client
                .share(cap, enclave, None, Rights::RO, RevocationPolicy::NONE)
                .expect_err("denied")
        }),
    ]);
    t.row(&[
        "re-seal / reconfigure a sealed domain".into(),
        format!(
            "{:?}",
            m.call(
                0,
                MonitorCall::SetEntry {
                    domain: enclave,
                    entry: 0
                }
            )
            .expect_err("denied")
        ),
    ]);
    m.call(0, MonitorCall::Enter { cap: gate }).expect("enter");
    t.row(&[
        "enclave revokes the OS's capabilities".into(),
        format!("{:?}", {
            let os_cap = m
                .engine
                .caps_of(os)
                .iter()
                .find(|c| c.active && c.is_memory())
                .expect("cap")
                .id;
            m.call(0, MonitorCall::Revoke { cap: os_cap })
                .expect_err("denied")
        }),
    ]);
    t.row(&[
        "enclave kills its manager".into(),
        format!(
            "{:?}",
            m.call(0, MonitorCall::Kill { domain: os })
                .expect_err("denied")
        ),
    ]);
    t.print();
}

/// C11 — driver sandboxing in the kernel.
fn c11() {
    use tyche_guest::driver::{BuggyDriver, DriverHost, DriverRequest, XorBlockDriver};
    let mut t = Table::new(
        "C11 — kernel driver isolation (§4.2): blast radius + cost",
        &[
            "mode",
            "buggy driver outcome",
            "kernel state",
            "cycles/request",
        ],
    );
    for sandboxed in [false, true] {
        let mut m = boot();
        m.dom_write(0, 0x8_0000, b"kernel struct").expect("w");
        m.dom_write(0, 0x30_0000, b"abcd").expect("w");
        let host = if sandboxed {
            DriverHost::sandboxed(&mut m, 0, (0x31_0000, 0x31_4000), (0x30_0000, 0x30_1000))
                .expect("host")
        } else {
            DriverHost::Direct
        };
        // Cost with the well-behaved driver.
        let mut good = XorBlockDriver { key: 0x5a };
        let c0 = m.machine.cycles.now();
        const REQS: u64 = 100;
        for _ in 0..REQS {
            host.dispatch(
                &mut m,
                0,
                &mut good,
                DriverRequest {
                    op: 1,
                    addr: 0x30_0000,
                    len: 4,
                },
            )
            .expect("dispatch");
        }
        let per_req = (m.machine.cycles.now() - c0) / REQS;
        // Blast radius with the buggy driver.
        let mut buggy = BuggyDriver {
            wild_target: 0x8_0000,
        };
        let resp = host
            .dispatch(
                &mut m,
                0,
                &mut buggy,
                DriverRequest {
                    op: 666,
                    addr: 0x30_0000,
                    len: 4,
                },
            )
            .expect("dispatch");
        let mut state = [0u8; 13];
        m.dom_read(0, 0x8_0000, &mut state).expect("read");
        t.row(&[
            if sandboxed {
                "sandboxed (Tyche kernel compartment)".into()
            } else {
                "direct (in-kernel)".to_string()
            },
            format!("{resp:?}"),
            if &state == b"kernel struct" {
                "intact".into()
            } else {
                "CORRUPTED".to_string()
            },
            per_req.to_string(),
        ]);
    }
    t.print();
}

/// C12 — confidential VMs.
fn c12() {
    let mut t = Table::new(
        "C12 — confidential VMs on a Tyche backend (§4.2)",
        &["step", "outcome"],
    );
    let mut m = boot();
    m.dom_write(0, 0x40_0000, b"guest kernel image")
        .expect("stage");
    let c0 = m.machine.cycles.now();
    let vm = libtyche::ConfidentialVm::launch(
        &mut m,
        0,
        (0x40_0000, 0x80_0000),
        &[0, 1],
        0x40_0000,
        &[(0x40_0000, 0x40_1000)],
    )
    .expect("launch");
    t.row(&[
        "launch 4 MiB cVM (2 vCPUs)".into(),
        format!("{} cycles", m.machine.cycles.now() - c0),
    ]);
    t.row(&[
        "hypervisor reads guest RAM".into(),
        format!("fault={}", m.dom_read(0, 0x40_0000, &mut [0u8; 1]).is_err()),
    ]);
    let report = vm.attest(&mut m, 0, 7).expect("attest");
    t.row(&[
        "launch measurement attested".into(),
        format!(
            "exclusive={} contents={}",
            report.report.check_sharing(&[]),
            report.report.content_measurements.len()
        ),
    ]);
    // Guest boots its OS and runs processes.
    vm.enter(&mut m, 0).expect("enter");
    let mut guest = tyche_guest::GuestOs::new((0x40_0000, 0x80_0000), 0, 0x10_0000);
    let pid = guest.spawn(0x10_0000).expect("spawn");
    let addr = match guest.syscall(&mut m, pid, tyche_guest::Syscall::Alloc { len: 64 }) {
        tyche_guest::SysResult::Addr(a) => a,
        other => panic!("{other:?}"),
    };
    let wrote = guest.syscall(
        &mut m,
        pid,
        tyche_guest::Syscall::Write {
            addr,
            data: b"in-guest process".to_vec(),
        },
    );
    libtyche::ConfidentialVm::exit(&mut m, 0).expect("exit");
    t.row(&[
        "guest OS runs a process inside".into(),
        format!("{wrote:?}"),
    ]);
    let c0 = m.machine.cycles.now();
    vm.destroy(&mut m, 0).expect("destroy");
    t.row(&[
        "teardown (zero+flush 4 MiB)".into(),
        format!("{} cycles", m.machine.cycles.now() - c0),
    ]);
    let mut buf = [0u8; 18];
    m.dom_read(0, 0x40_0000, &mut buf).expect("read");
    t.row(&[
        "guest RAM after teardown".into(),
        format!("zeroed={}", buf == [0u8; 18]),
    ]);
    t.print();
}

/// E1 — SR-IOV device multiplexing among TEEs (§4.2 extension).
fn e1() {
    use tyche_hw::addr::GuestPhysAddr;
    use tyche_hw::iommu::DeviceId;
    use tyche_hw::sriov::{SriovNic, VfIndex, VfRing};
    let mut t = Table::new(
        "E1 — SR-IOV: one NIC, per-TEE virtual functions (§4.2)",
        &["check", "outcome"],
    );
    const PF: u16 = 0x100;
    let mut m = tyche_monitor::boot_x86(BootConfig {
        devices: vec![PF + 1, PF + 2],
        ..Default::default()
    });
    // Two TEEs, each granted one VF.
    let mut tees = Vec::new();
    for (i, mem) in [
        (0u16, (0x10_0000u64, 0x10_4000u64)),
        (1, (0x20_0000, 0x20_4000)),
    ] {
        let mut client = libtyche::TycheClient::new(&mut m, 0);
        let (d, _gate) = client.create_domain().expect("domain");
        let cap = client.carve(mem.0, mem.1).expect("carve");
        client
            .grant(cap, d, Rights::RW, RevocationPolicy::OBFUSCATE)
            .expect("grant");
        let dev = {
            let me = client.whoami();
            client
                .monitor
                .engine
                .caps_of(me)
                .iter()
                .find(|c| c.active && matches!(c.resource, Resource::Device(x) if x == PF + 1 + i))
                .map(|c| c.id)
        }
        .expect("vf cap");
        client
            .grant(dev, d, Rights::USE, RevocationPolicy::NONE)
            .expect("grant vf");
        client.set_entry(d, mem.0).expect("entry");
        client.seal(d, SealPolicy::strict()).expect("seal");
        tees.push((d, mem));
    }
    let mut nic = SriovNic::new(DeviceId(PF), 2);
    for (i, (_, mem)) in tees.iter().enumerate() {
        nic.configure_ring(
            VfIndex(i as u16),
            VfRing {
                rx_base: GuestPhysAddr::new(mem.0 + 0x2000),
                rx_slots: 4,
                slot_bytes: 256,
            },
        );
    }
    m.machine
        .mem
        .write(tyche_hw::PhysAddr::new(tees[0].1 .0), b"pkt")
        .expect("stage");
    let ok = nic
        .send(
            &mut m.machine.iommu,
            &mut m.machine.mem,
            VfIndex(0),
            VfIndex(1),
            GuestPhysAddr::new(tees[0].1 .0),
            3,
        )
        .is_ok();
    t.row(&[
        "TEE A sends to TEE B through its own VF".into(),
        format!("delivered={ok}"),
    ]);
    let escape = nic
        .send(
            &mut m.machine.iommu,
            &mut m.machine.mem,
            VfIndex(0),
            VfIndex(1),
            GuestPhysAddr::new(tees[1].1 .0),
            3,
        )
        .is_err();
    t.row(&[
        "TEE A transmits TEE B's memory via its VF".into(),
        format!("blocked={escape}"),
    ]);
    t.row(&[
        "VF ownership (engine)".into(),
        format!(
            "A owns VF0={} B owns VF1={} cross={}",
            m.engine.owns_device(tees[0].0, PF + 1),
            m.engine.owns_device(tees[1].0, PF + 2),
            m.engine.owns_device(tees[0].0, PF + 2)
        ),
    ]);
    t.print();
}

/// E2 — multi-domain topology attestation (§4.2 extension).
fn e2() {
    use tyche_monitor::attest::{TopologySpec, Verifier};
    let mut t = Table::new(
        "E2 — multi-domain topology attestation (§4.2): all paths attested",
        &["deployment", "verifier outcome"],
    );
    let mut f = tyche_bench::scenarios::fig2_without_net();
    let verifier = Verifier {
        tpm_key: f.monitor.machine.tpm.attestation_key(),
        expected_monitor_pcr: expected_monitor_pcr(MONITOR_VERSION),
        monitor_key: f.monitor.report_key(),
    };
    let qn = [1u8; 32];
    let rn = [2u8; 32];
    let quote = f.monitor.machine_quote(qn).expect("quote");
    let reports = vec![
        f.monitor.attest_domain(f.crypto, rn).expect("crypto"),
        f.monitor.attest_domain(f.app, rn).expect("app"),
        f.monitor.attest_domain(f.gpu_domain, rn).expect("gpu"),
    ];
    use tyche_bench::scenarios::layout;
    let spec = TopologySpec {
        member_measurements: vec![None, None, None],
        channels: vec![
            (layout::APP_CRYPTO.0, layout::APP_CRYPTO.1, vec![0, 1]),
            (layout::APP_GPU.0, layout::APP_GPU.1, vec![1, 2]),
        ],
    };
    let ok = verifier
        .verify_topology(&quote, &qn, &reports, &rn, &spec)
        .is_ok();
    t.row(&[
        "crypto+app+gpu, channels exactly declared".into(),
        format!("accepted={ok}"),
    ]);
    let sneaky_spec = TopologySpec {
        member_measurements: vec![None, None, None],
        channels: vec![(layout::APP_CRYPTO.0, layout::APP_CRYPTO.1, vec![0, 1])],
    };
    let caught = verifier
        .verify_topology(&quote, &qn, &reports, &rn, &sneaky_spec)
        .unwrap_err();
    t.row(&[
        "same deployment, GPU channel undeclared".into(),
        format!("rejected ({caught})"),
    ]);
    t.print();
}

/// E3 — multi-key memory encryption (§4.2 extension).
fn e3() {
    let mut t = Table::new(
        "E3 — MKTME physical-attack resistance (§4.2)",
        &["view", "guest image bytes visible?"],
    );
    let mut m = boot();
    m.dom_write(0, 0x40_0000, b"guest kernel image")
        .expect("stage");
    let vm = libtyche::ConfidentialVm::launch_encrypted(
        &mut m,
        0,
        (0x40_0000, 0x42_0000),
        &[0],
        0x40_0000,
        &[],
    )
    .expect("launch");
    vm.enter(&mut m, 0).expect("enter");
    let mut through = [0u8; 18];
    m.dom_read(0, 0x40_0000, &mut through).expect("guest read");
    libtyche::ConfidentialVm::exit(&mut m, 0).expect("exit");
    t.row(&[
        "guest, through the memory controller".into(),
        format!("{}", &through == b"guest kernel image"),
    ]);
    let mut raw = [0u8; 18];
    m.machine
        .mem
        .read(tyche_hw::PhysAddr::new(0x40_0000), &mut raw)
        .expect("raw");
    t.row(&[
        "physical attacker (cold-boot DRAM dump)".into(),
        format!("{}", &raw == b"guest kernel image"),
    ]);
    t.row(&[
        "protected pages".into(),
        m.machine.mktme.protected_pages().to_string(),
    ]);
    t.print();
}

/// E4 — interrupt-routing capabilities (§4.1 extension).
fn e4() {
    let mut t = Table::new(
        "E4 — cross-domain interrupt routing via remapping (§4.1)",
        &["event", "outcome"],
    );
    let mut m = boot();
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    let (driver, gate) = client.create_domain().expect("domain");
    let page = client.carve(0x10_0000, 0x10_1000).expect("carve");
    client
        .grant(page, driver, Rights::RW, RevocationPolicy::ZERO)
        .expect("grant");
    let (core0, irq) = {
        let me = client.whoami();
        let caps = client.monitor.engine.caps_of(me);
        (
            caps.iter()
                .find(|c| c.active && matches!(c.resource, Resource::CpuCore(0)))
                .map(|c| c.id)
                .expect("core"),
            caps.iter()
                .find(|c| c.active && matches!(c.resource, Resource::Interrupt(33)))
                .map(|c| c.id)
                .expect("irq"),
        )
    };
    client
        .share(core0, driver, None, Rights::USE, RevocationPolicy::NONE)
        .expect("share core");
    let granted = client
        .grant(irq, driver, Rights::USE, RevocationPolicy::NONE)
        .expect("grant irq");
    client.set_entry(driver, 0x10_0000).expect("entry");
    client.seal(driver, SealPolicy::strict()).expect("seal");

    m.machine.irq.raise(33);
    t.row(&[
        "device raises vector 33".into(),
        format!("OS pending={:?}", m.pending_interrupts(0)),
    ]);
    m.call(0, MonitorCall::Enter { cap: gate }).expect("enter");
    t.row(&[
        "driver domain entered".into(),
        format!("driver pending={:?}", m.pending_interrupts(0)),
    ]);
    m.call(0, MonitorCall::Return).expect("ret");
    m.call(0, MonitorCall::Revoke { cap: granted })
        .expect("revoke");
    m.machine.irq.raise(33);
    t.row(&[
        "vector revoked; device raises again".into(),
        format!(
            "OS pending={:?} spurious={}",
            m.pending_interrupts(0),
            m.machine.metrics.get(Counter::IrqSpurious)
        ),
    ]);
    t.print();
}

/// E5 — RDMA between TEEs on separate machines (§4.2 extension).
fn e5() {
    use libtyche::rdma::{RdmaConnection, RdmaNic, Wire};
    use tyche_monitor::attest::Verifier;
    let mut t = Table::new(
        "E5 — attested RDMA between TEEs on two machines (§4.2)",
        &["step", "outcome"],
    );
    let mk = |base: u64| -> (tyche_monitor::Monitor, DomainId, CapId) {
        let mut m = boot();
        let (d, g) = spawn_sealed(&mut m, 0, base, 0x4000, &[0], SealPolicy::strict());
        (m, d, g)
    };
    let (mut ma, da, ga) = mk(0x10_0000);
    let (mut mb, db, gb) = mk(0x10_0000);
    let qn = [1u8; 32];
    let rn = [2u8; 32];
    let quote_b = mb.machine_quote(qn).expect("quote");
    let report_b = mb.attest_domain(db, rn).expect("report b");
    let report_a = ma.attest_domain(da, rn).expect("report a");
    let verifier = Verifier {
        tpm_key: mb.machine.tpm.attestation_key(),
        expected_monitor_pcr: expected_monitor_pcr(MONITOR_VERSION),
        monitor_key: mb.report_key(),
    };
    let mut conn =
        RdmaConnection::establish(&verifier, &quote_b, &qn, &report_b, &rn, &report_a, None)
            .expect("establish");
    t.row(&[
        "mutual attestation + channel key".into(),
        "established".into(),
    ]);
    let mut nic_b = RdmaNic::new();
    let mut client = libtyche::TycheClient::new(&mut mb, 0);
    client.enter(gb).expect("enter b");
    let rkey = nic_b
        .register_mr(&mut mb, 0, 0x10_1000, 0x10_2000, true)
        .expect("register");
    libtyche::TycheClient::new(&mut mb, 0).ret().expect("ret b");
    t.row(&[
        "TEE B registers an exclusive MR".into(),
        format!("{rkey:?}"),
    ]);
    let mut wire = Wire::new();
    let mut client = libtyche::TycheClient::new(&mut ma, 0);
    client.enter(ga).expect("enter a");
    client
        .write(0x10_0100, b"cross-machine secret")
        .expect("stage");
    conn.rdma_write(
        &mut ma, 0, 0x10_0100, 20, &mut wire, &mut mb, &nic_b, rkey, 0,
    )
    .expect("rdma write");
    libtyche::TycheClient::new(&mut ma, 0).ret().expect("ret a");
    let mut got = [0u8; 20];
    m_enter_read(&mut mb, gb, 0x10_1000, &mut got);
    t.row(&[
        "one-sided write A->B".into(),
        format!("delivered={}", &got == b"cross-machine secret"),
    ]);
    t.row(&[
        "eavesdropper greps the wire".into(),
        format!("plaintext leaked={}", wire.leaks(b"cross-machine secret")),
    ]);
    t.row(&[
        "machine B's host reads the MR".into(),
        format!(
            "fault={}",
            mb.dom_read(0, 0x10_1000, &mut [0u8; 1]).is_err()
        ),
    ]);
    t.print();
}

/// Enters `gate` on core 0, reads `addr`, returns.
fn m_enter_read(m: &mut tyche_monitor::Monitor, gate: CapId, addr: u64, out: &mut [u8]) {
    let mut client = libtyche::TycheClient::new(m, 0);
    client.enter(gate).expect("enter");
    client.read(addr, out).expect("read");
    libtyche::TycheClient::new(m, 0).ret().expect("ret");
}

// ----------------------------------------------------------------------
// Hot-path scenarios: before/after pairs (BENCH_hotpath.json)
// ----------------------------------------------------------------------

/// One measured bench entry destined for `BENCH_hotpath.json`.
struct HotpathEntry {
    name: &'static str,
    fanout: usize,
    metric: &'static str,
    before: u64,
    after: u64,
    detail: Vec<(&'static str, u64)>,
}

impl HotpathEntry {
    fn improvement(&self) -> f64 {
        self.before as f64 / (self.after.max(1)) as f64
    }

    fn to_json(&self) -> String {
        let detail = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "    {{\"name\": \"{}\", \"fanout\": {}, \"metric\": \"{}\", \
             \"before\": {}, \"after\": {}, \"improvement\": {:.2}, \
             \"detail\": {{{}}}}}",
            self.name,
            self.fanout,
            self.metric,
            self.before,
            self.after,
            self.improvement(),
            detail
        )
    }
}

/// Runs `storms` before/after revocation-storm pairs at one fan-out.
/// The row's before/after cycles come from the first pair and are
/// asserted identical across all storms (the cycle model is
/// deterministic); the histogram collects per-capability wall latency
/// of every coalesced (after) storm.
fn measure_revocation(fanout: usize, storms: usize) -> (HotpathEntry, Histogram) {
    let mut hist = Histogram::new();
    let mut entry: Option<HotpathEntry> = None;
    for _ in 0..storms.max(1) {
        let (before_cycles, before_wall) = bench_revocation(fanout, false);
        let (after_cycles, after_wall) = bench_revocation(fanout, true);
        let per_cap = timing::per_op_ns(after_wall, fanout)
            .unwrap_or_else(|e| panic!("revocation storm timing: {e}"));
        hist.record_n(per_cap, fanout as u64);
        match &entry {
            None => {
                entry = Some(HotpathEntry {
                    name: "revocation",
                    fanout,
                    metric: "simulated_cycles",
                    before: before_cycles,
                    after: after_cycles,
                    detail: vec![
                        (
                            "wall_ns_before",
                            timing::total_ns(before_wall)
                                .unwrap_or_else(|e| panic!("revocation timing: {e}")),
                        ),
                        (
                            "wall_ns_after",
                            timing::total_ns(after_wall)
                                .unwrap_or_else(|e| panic!("revocation timing: {e}")),
                        ),
                    ],
                });
            }
            Some(first) => {
                assert_eq!(
                    (first.before, first.after),
                    (before_cycles, after_cycles),
                    "revocation cycle metrics drifted between storms"
                );
            }
        }
    }
    (entry.expect("at least one storm"), hist)
}

/// Shares `fanout` page windows from the root RAM cap to one child
/// (zero-on-revoke policy, the clean-up contract every fixture uses),
/// then revokes them all and syncs — uncoalesced (`before`) or coalesced
/// (`after`). Each revocation emits an `UnmapMem` plus a policy
/// `FlushTlb`; uncoalesced application resyncs and flushes per effect,
/// coalesced application folds them into one terminal sync + flush.
/// Returns (simulated cycles, wall duration) for the revoke+sync.
fn bench_revocation(fanout: usize, coalesced: bool) -> (u64, std::time::Duration) {
    let mut m = boot();
    let os = m.engine.root().expect("root");
    let ram = m
        .engine
        .caps_of(os)
        .iter()
        .find(|c| c.active && c.is_memory())
        .map(|c| c.id)
        .expect("root RAM cap");
    let (child, _t) = m.engine.create_domain(os).expect("child");
    let shares: Vec<CapId> = (0..fanout)
        .map(|i| {
            let base = 0x10_0000 + (i as u64) * 0x1000;
            m.engine
                .share(
                    os,
                    ram,
                    child,
                    Some(MemRegion::new(base, base + 0x1000)),
                    Rights::RW,
                    RevocationPolicy::ZERO,
                )
                .expect("share window")
        })
        .collect();
    m.sync_effects().expect("realize grants");
    let c0 = m.machine.cycles.now();
    let t0 = Instant::now();
    for cap in shares {
        m.engine.revoke(os, cap).expect("revoke");
    }
    if coalesced {
        m.sync_effects().expect("sync");
    } else {
        m.sync_effects_uncoalesced().expect("sync");
    }
    (m.machine.cycles.now() - c0, t0.elapsed())
}

/// Builds an engine with `fanout` domains (one shared window each) and
/// times the indexed queries against their linear-scan twins on one
/// small domain. Wall-time only: the queries charge no simulated
/// cycles. The histogram samples the indexed `caps_of` query (the row's
/// `after` op) in batches, so per-sample clock reads stay out of the
/// distribution.
fn bench_capability_ops(fanout: usize, iters: usize) -> (HotpathEntry, Histogram) {
    use std::hint::black_box;
    let mut e = CapEngine::new();
    let root = e.create_root_domain();
    let ram = e
        .endow(
            root,
            Resource::Memory(MemRegion::new(0, (fanout as u64 + 16) * 0x1000)),
            Rights::RWX,
        )
        .expect("endow");
    let mut first = None;
    for i in 0..fanout {
        let (d, _t) = e.create_domain(root).expect("create");
        let base = (i as u64) * 0x1000;
        e.share(
            root,
            ram,
            d,
            Some(MemRegion::new(base, base + 0x1000)),
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .expect("share");
        if first.is_none() {
            first = Some(d);
        }
    }
    e.drain_effects();
    let d0 = first.expect("fanout >= 1");
    let window = MemRegion::new(0, 0x1000);
    let time = |f: &mut dyn FnMut() -> usize| {
        let t0 = Instant::now();
        let mut sink = 0usize;
        for _ in 0..iters {
            sink = sink.wrapping_add(f());
        }
        black_box(sink);
        timing::per_op_ns(t0.elapsed(), iters)
            .unwrap_or_else(|err| panic!("capability_ops timing: {err}"))
    };
    let caps_scan = time(&mut || e.caps_of_scan(d0).len());
    let caps_idx = time(&mut || e.caps_of(d0).len());
    let rc_scan = time(&mut || e.refcount_mem_full_scan(window).max);
    let rc_idx = time(&mut || e.refcount_mem_full(window).max);
    let enum_scan = time(&mut || e.enumerate_scan(d0).expect("enumerate").len());
    let enum_idx = time(&mut || e.enumerate(d0).expect("enumerate").len());
    let mut hist = Histogram::new();
    let batch = iters.clamp(1, 64);
    for _ in 0..(iters / batch).max(1) {
        let t0 = Instant::now();
        let mut sink = 0usize;
        for _ in 0..batch {
            sink = sink.wrapping_add(e.caps_of(d0).len());
        }
        black_box(sink);
        let per = timing::per_op_ns(t0.elapsed(), batch)
            .unwrap_or_else(|err| panic!("capability_ops sampling: {err}"));
        hist.record_n(per, batch as u64);
    }
    (
        HotpathEntry {
            name: "capability_ops",
            fanout,
            metric: "wall_ns_per_op",
            before: caps_scan,
            after: caps_idx,
            detail: vec![
                ("refcount_scan_ns", rc_scan),
                ("refcount_indexed_ns", rc_idx),
                ("enumerate_scan_ns", enum_scan),
                ("enumerate_indexed_ns", enum_idx),
            ],
        },
        hist,
    )
}

/// Times one-way-symmetric roundtrips: mediated VMCALL, fast VMFUNC with
/// the validated cache bypassed, and fast VMFUNC with the cache warm.
/// With `traced` the sink records every event — the overhead gate runs
/// this variant and holds the cycle metrics to the untraced baseline.
/// The histogram samples cached fast roundtrips (the row's `after` op)
/// in batches of up to 16.
fn bench_transitions(iters: usize, traced: bool) -> (HotpathEntry, Histogram) {
    let mut m = boot();
    if traced {
        m.machine.trace.enable(m.machine.cores);
    }
    let (_d, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    let roundtrip = |m: &mut tyche_monitor::Monitor,
                     enter: &mut dyn FnMut(&mut tyche_monitor::Monitor)| {
        // Warm one roundtrip so cache-fill cost is not in the timing.
        enter(m);
        m.ret_fast(0).or_else(|_| {
            m.call(0, MonitorCall::Return)
                .map(|_| m.engine.root().expect("root"))
        })
        .expect("warm return");
        let c0 = m.machine.cycles.now();
        let t0 = Instant::now();
        for _ in 0..iters {
            enter(m);
            m.ret_fast(0).or_else(|_| {
                m.call(0, MonitorCall::Return)
                    .map(|_| m.engine.root().expect("root"))
            })
            .expect("return");
        }
        let ns = timing::per_op_ns(t0.elapsed(), iters)
            .unwrap_or_else(|e| panic!("transition timing: {e}"));
        let cycles = (m.machine.cycles.now() - c0) / iters as u64;
        (ns, cycles)
    };
    let (med_ns, med_cycles) = roundtrip(&mut m, &mut |m| {
        m.call(0, MonitorCall::Enter { cap: gate }).map(|_| ()).expect("enter");
    });
    let (unc_ns, fast_cycles) = roundtrip(&mut m, &mut |m| {
        m.enter_fast_uncached(0, gate).map(|_| ()).expect("enter");
    });
    let (cached_ns, _) = roundtrip(&mut m, &mut |m| {
        m.enter_fast(0, gate).map(|_| ()).expect("enter");
    });
    // Latency sampling pass over the cached fast path, batched so the
    // per-batch clock reads stay out of each sample.
    let mut hist = Histogram::new();
    let batch = iters.clamp(1, 16);
    for _ in 0..(iters / batch).max(1) {
        let t0 = Instant::now();
        for _ in 0..batch {
            m.enter_fast(0, gate).expect("enter");
            m.ret_fast(0).or_else(|_| {
                m.call(0, MonitorCall::Return)
                    .map(|_| m.engine.root().expect("root"))
            })
            .expect("return");
        }
        let per = timing::per_op_ns(t0.elapsed(), batch)
            .unwrap_or_else(|e| panic!("transition sampling: {e}"));
        hist.record_n(per, batch as u64);
    }
    (
        HotpathEntry {
            name: "transitions",
            fanout: 1,
            metric: "wall_ns_per_roundtrip",
            before: unc_ns,
            after: cached_ns,
            detail: vec![
                ("mediated_wall_ns", med_ns),
                ("mediated_cycles", med_cycles),
                ("fast_cycles", fast_cycles),
            ],
        },
        hist,
    )
}

/// Simulated cycle cost of a mediated roundtrip under each revocation
/// policy; the flush charges are deterministic, so this entry is stable
/// across machines. `traced` turns the sink on, as in
/// [`bench_transitions`]. The histogram samples NONE-policy mediated
/// roundtrip wall latency (the row's `after` op) in batches of up
/// to 16; the cycle metrics are computed over the same loop and are
/// untouched by the clock reads between batches.
fn bench_flush_policy(iters: usize, traced: bool) -> (HotpathEntry, Histogram) {
    let per_policy = |policy: RevocationPolicy, mut hist: Option<&mut Histogram>| {
        let mut m = boot();
        if traced {
            m.machine.trace.enable(m.machine.cores);
        }
        let (d, _g) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
        let os = m.engine.root().expect("root");
        let gate = m.engine.make_transition(os, d, policy).expect("gate");
        m.sync_effects().expect("sync");
        let batch = iters.clamp(1, 16);
        let rounds = (iters / batch).max(1);
        let c0 = m.machine.cycles.now();
        for _ in 0..rounds {
            let t0 = Instant::now();
            for _ in 0..batch {
                m.call(0, MonitorCall::Enter { cap: gate }).expect("enter");
                m.dom_write(0, 0x10_0000, &[1]).expect("dirty a line");
                m.call(0, MonitorCall::Return).expect("return");
            }
            if let Some(h) = hist.as_deref_mut() {
                let per = timing::per_op_ns(t0.elapsed(), batch)
                    .unwrap_or_else(|e| panic!("flush-policy sampling: {e}"));
                h.record_n(per, batch as u64);
            }
        }
        (m.machine.cycles.now() - c0) / (rounds * batch) as u64
    };
    let mut hist = Histogram::new();
    let none = per_policy(RevocationPolicy::NONE, Some(&mut hist));
    let zero = per_policy(RevocationPolicy::ZERO, None);
    let obfuscate = per_policy(RevocationPolicy::OBFUSCATE, None);
    (
        HotpathEntry {
            name: "flush_policy",
            fanout: 1,
            metric: "simulated_cycles_per_roundtrip",
            before: obfuscate,
            after: none,
            detail: vec![("zero_cycles", zero)],
        },
        hist,
    )
}

// ----------------------------------------------------------------------
// Scale scenario: one population point of the 1k → 1M sweep (BENCH_scale.json)
// ----------------------------------------------------------------------

/// Measured figures for one population size in the scale sweep. All
/// latencies are wall ns per operation; the engine-level queries charge
/// no simulated cycles.
struct ScaleEntry {
    population: usize,
    create_ns: u64,
    share_ns: u64,
    attest_ns: u64,
    enter_ns: u64,
    caps_of_ns: u64,
    enumerate_ns: u64,
    refcount_ns: u64,
    chain_depth: usize,
    chain_build_ns: u64,
    chain_revoke_ns: u64,
    revoke_storm_ns: u64,
    bytes_per_domain: u64,
    revoked_recorded: usize,
    revoked_dropped: u64,
}

impl ScaleEntry {
    fn to_json(&self) -> String {
        format!(
            "    {{\"population\": {}, \"create_ns_per_op\": {}, \
             \"share_ns_per_op\": {}, \"attest_ns_per_op\": {}, \
             \"enter_ns_per_op\": {}, \
             \"neighbor\": {{\"caps_of_ns\": {}, \"enumerate_ns\": {}, \
             \"refcount_ns\": {}}}, \
             \"deep_chain\": {{\"depth\": {}, \"build_ns_per_link\": {}, \
             \"cascade_revoke_ns_per_link\": {}}}, \
             \"revoke_storm_ns_per_op\": {}, \"bytes_per_domain\": {}, \
             \"revoked_log\": {{\"recorded\": {}, \"dropped\": {}}}}}",
            self.population,
            self.create_ns,
            self.share_ns,
            self.attest_ns,
            self.enter_ns,
            self.caps_of_ns,
            self.enumerate_ns,
            self.refcount_ns,
            self.chain_depth,
            self.chain_build_ns,
            self.chain_revoke_ns,
            self.revoke_storm_ns,
            self.bytes_per_domain,
            self.revoked_recorded,
            self.revoked_dropped,
        )
    }
}

/// Records one batched sample (a timed pass of `ops` operations) into
/// `hist` and returns the per-op figure. Zero-op windows are a hard
/// error — a storm that never ran must not report a latency.
fn scale_sample(hist: &mut Histogram, elapsed: std::time::Duration, ops: usize) -> u64 {
    let per = timing::per_op_ns(elapsed, ops)
        .unwrap_or_else(|e| panic!("scale timing over {ops} ops: {e}"));
    hist.record_n(per, ops as u64);
    per
}

/// One population point of the sweep: grows `n` tenant domains (one
/// 4 KiB window each), storms create/attest/enter, measures steady-state
/// neighbor latency on a fixed sample while the full population is
/// resident, builds and cascade-revokes a `depth`-deep derivation
/// chain, then kills the whole population (the revoke storm that has to
/// stay within a small constant of the 1k per-op cost). Effects are
/// drained every 4096 mutations inside the storms at every population,
/// so the comparison across sizes stays fair.
///
/// Every storm and steady-state sweep feeds a named latency histogram;
/// per-op means are the histogram means (pure op latency — the periodic
/// drains run but are not folded into per-op figures), and the returned
/// histograms carry the tails into the artifact's `percentiles` map.
/// Expensive ops (create/share/attest/kill) are timed individually;
/// sub-µs sweeps (enter, caps_of, enumerate, refcount) are timed one
/// whole pass per sample so clock reads stay out of the distribution.
fn scale_population(
    n: usize,
    neighbors: usize,
    depth: usize,
) -> (ScaleEntry, Vec<(String, Histogram)>) {
    use std::hint::black_box;
    use tyche_core::attest::DomainReport;
    const LANE: u64 = 0x2000;
    const DRAIN_EVERY: usize = 4096;
    let k = neighbors.min(n);
    let mut e = CapEngine::new();
    let root = e.create_root_domain();
    let chain_base = n as u64 * LANE;
    let ram = e
        .endow(root, Resource::mem(0, chain_base + 0x10_0000), Rights::RWX)
        .expect("endow ram");
    let core_caps: Vec<(usize, CapId)> = (0..k)
        .map(|core| {
            let cap = e
                .endow(root, Resource::CpuCore(core), Rights::USE)
                .expect("endow core");
            (core, cap)
        })
        .collect();

    // Create storm.
    let mut h_create = Histogram::new();
    let mut domains = Vec::with_capacity(n);
    for i in 0..n {
        let s0 = Instant::now();
        let (d, _gate) = e.create_domain(root).expect("create");
        scale_sample(&mut h_create, s0.elapsed(), 1);
        domains.push(d);
        if (i + 1) % DRAIN_EVERY == 0 {
            let _ = e.drain_effects();
        }
    }
    let create_ns = h_create.mean_ns();
    let _ = e.drain_effects();

    // Share storm: every tenant gets one page of its private lane, so
    // the interval index holds `n` disjoint active regions.
    let mut h_share = Histogram::new();
    for (i, &d) in domains.iter().enumerate() {
        let base = i as u64 * LANE;
        let s0 = Instant::now();
        e.share(
            root,
            ram,
            d,
            Some(MemRegion::new(base, base + 0x1000)),
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .expect("share lane");
        scale_sample(&mut h_share, s0.elapsed(), 1);
        if (i + 1) % DRAIN_EVERY == 0 {
            let _ = e.drain_effects();
        }
    }
    let share_ns = h_share.mean_ns();
    let _ = e.drain_effects();

    // The steady-state neighbors: an evenly-strided sample that gets a
    // core each, an entry point, and a seal — the long-lived tenants
    // whose latency must not degrade as the population around them
    // grows.
    let stride = (n / k).max(1);
    let sampled: Vec<(usize, DomainId)> =
        (0..k).map(|i| (i * stride, domains[i * stride])).collect();
    for (j, &(idx, d)) in sampled.iter().enumerate() {
        e.share(
            root,
            core_caps[j].1,
            d,
            None,
            Rights::USE,
            RevocationPolicy::NONE,
        )
        .expect("share core");
        e.set_entry(root, d, idx as u64 * LANE).expect("set entry");
        e.seal(root, d, SealPolicy::nestable()).expect("seal");
    }
    let _ = e.drain_effects();

    // Attest storm over the sealed sample.
    let iters = 8usize;
    let mut h_attest = Histogram::new();
    let mut sink = 0usize;
    for _ in 0..iters {
        for &(_, d) in &sampled {
            let s0 = Instant::now();
            sink = sink.wrapping_add(DomainReport::build(&e, d).expect("attest").resources.len());
            scale_sample(&mut h_attest, s0.elapsed(), 1);
        }
    }
    black_box(sink);
    let attest_ns = h_attest.mean_ns();

    // Enter storm: a transition gate per sampled neighbor, validated on
    // the distinct core that neighbor owns.
    let gates: Vec<(usize, CapId)> = sampled
        .iter()
        .enumerate()
        .map(|(j, &(_, d))| {
            (
                core_caps[j].0,
                e.make_transition(root, d, RevocationPolicy::NONE).expect("gate"),
            )
        })
        .collect();
    let _ = e.drain_effects();
    let iters = 32usize;
    let mut h_enter = Histogram::new();
    let mut sink = 0u64;
    for _ in 0..iters {
        let t0 = Instant::now();
        for &(core, gate) in &gates {
            let (target, entry, _) = e.can_enter(root, gate, core).expect("enter");
            sink = sink.wrapping_add(target.0 ^ entry);
        }
        scale_sample(&mut h_enter, t0.elapsed(), k);
    }
    black_box(sink);
    let enter_ns = h_enter.mean_ns();

    // Steady-state neighbor queries vs population: these curves must
    // stay flat or logarithmic as `n` grows.
    let mut h_caps_of = Histogram::new();
    let mut sink = 0usize;
    for _ in 0..iters {
        let t0 = Instant::now();
        for &(_, d) in &sampled {
            sink = sink.wrapping_add(e.caps_of(d).len());
        }
        scale_sample(&mut h_caps_of, t0.elapsed(), k);
    }
    black_box(sink);
    let caps_of_ns = h_caps_of.mean_ns();
    let mut h_enumerate = Histogram::new();
    let mut sink = 0usize;
    for _ in 0..iters {
        let t0 = Instant::now();
        for &(_, d) in &sampled {
            sink = sink.wrapping_add(e.enumerate(d).expect("enumerate").len());
        }
        scale_sample(&mut h_enumerate, t0.elapsed(), k);
    }
    black_box(sink);
    let enumerate_ns = h_enumerate.mean_ns();
    let mut h_refcount = Histogram::new();
    let mut sink = 0usize;
    for _ in 0..iters {
        let t0 = Instant::now();
        for &(idx, _) in &sampled {
            let base = idx as u64 * LANE;
            sink = sink.wrapping_add(e.refcount_mem_full(MemRegion::new(base, base + 0x1000)).max);
        }
        scale_sample(&mut h_refcount, t0.elapsed(), k);
    }
    black_box(sink);
    let refcount_ns = h_refcount.mean_ns();

    // Peak-resident footprint, before anything is torn down.
    let bytes_per_domain = (e.storage_bytes() / n.max(1)) as u64;

    // Deep derivation chain: two relay domains alternately re-share one
    // window `depth` times, then one revocation at the head cascades
    // through every link.
    let (relay_a, _) = e.create_domain(root).expect("relay a");
    let (relay_b, _) = e.create_domain(root).expect("relay b");
    let head = e
        .share(
            root,
            ram,
            relay_a,
            Some(MemRegion::new(chain_base, chain_base + 0x1000)),
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .expect("chain head");
    let t0 = Instant::now();
    let mut cur = head;
    let mut owner = relay_a;
    for i in 0..depth {
        let target = if i % 2 == 0 { relay_b } else { relay_a };
        cur = e
            .share(owner, cur, target, None, Rights::RW, RevocationPolicy::NONE)
            .expect("chain link");
        owner = target;
    }
    black_box(cur);
    let chain_build_ns = timing::per_op_ns(t0.elapsed(), depth)
        .unwrap_or_else(|err| panic!("chain build timing over {depth} links: {err}"));
    let _ = e.drain_effects();
    let t0 = Instant::now();
    e.revoke(root, head).expect("cascade revoke");
    let chain_revoke_ns = timing::per_op_ns(t0.elapsed(), depth + 1)
        .unwrap_or_else(|err| panic!("chain revoke timing over {} links: {err}", depth + 1));
    let _ = e.drain_effects();

    // Revoke storm: kill the entire population. Sealed or not, every
    // tenant goes through the same lineage teardown, and the slab
    // freelists must absorb all of it without growing the arenas.
    // Periodic drains run between samples, so the histogram holds pure
    // kill latency while the mean keeps the teardown storm honest.
    let mut h_revoke = Histogram::new();
    for (i, &d) in domains.iter().enumerate() {
        let s0 = Instant::now();
        e.kill(root, d).expect("kill");
        scale_sample(&mut h_revoke, s0.elapsed(), 1);
        if (i + 1) % DRAIN_EVERY == 0 {
            let _ = e.drain_effects();
        }
    }
    let revoke_storm_ns = h_revoke.mean_ns();
    let _ = e.drain_effects();

    let entry = ScaleEntry {
        population: n,
        create_ns,
        share_ns,
        attest_ns,
        enter_ns,
        caps_of_ns,
        enumerate_ns,
        refcount_ns,
        chain_depth: depth,
        chain_build_ns,
        chain_revoke_ns,
        revoke_storm_ns,
        bytes_per_domain,
        revoked_recorded: e.revoked_log().len(),
        revoked_dropped: e.revoked_log().dropped(),
    };
    let hists = vec![
        ("attest".to_string(), h_attest),
        ("caps_of".to_string(), h_caps_of),
        ("create".to_string(), h_create),
        ("enter".to_string(), h_enter),
        ("enumerate".to_string(), h_enumerate),
        ("refcount".to_string(), h_refcount),
        ("revoke_storm".to_string(), h_revoke),
        ("share".to_string(), h_share),
    ];
    (entry, hists)
}

// ----------------------------------------------------------------------
// Fleet scenario: multi-machine attested channels (BENCH_fleet.json)
// ----------------------------------------------------------------------

/// A fleet child row: the deterministic JSON row, the det fields the
/// merge step cross-checks across invocations, and the named
/// histograms.
type FleetRow = (Json, Vec<(String, u64)>, Vec<(String, Histogram)>);

/// One fleet scenario: boots `machines` independent machines, mutually
/// attests every pair into MAC-keyed channels, then times `requests`
/// attested request deliveries round-robin over the ordered healthy
/// pairs (both directions, so every machine both sends and receives).
///
/// `byzantine` makes the last machine boot the evil monitor build — it
/// never gets a channel and sprays unauthenticated frames at every
/// honest machine, once after establishment and again mid-run.
/// `faulted` arms one NIC fault on each of three receiving machines
/// (drop, corrupt, duplicate — the NIC model consults the destination's
/// fault plan), each surfacing as a channel violation and teardown.
///
/// The deterministic fields are all schedule-derived (counts and
/// simulated cycles), so they must agree across invocation seeds; the
/// wall-clock request latencies feed the `request` histogram.
fn fleet_bench(
    machines: usize,
    requests: usize,
    byzantine: bool,
    faulted: bool,
    seed: u64,
) -> FleetRow {
    let byz = byzantine.then(|| machines - 1);
    let mut fleet = Fleet::new(&FleetConfig {
        machines,
        seed,
        byzantine: byz,
        ..FleetConfig::default()
    })
    .expect("fleet boots");
    if faulted {
        // One countdown-armed fault per receiving machine: a dropped
        // frame surfaces as a sequence gap (reorder) on the next frame,
        // a corrupted one as a bad MAC, a duplicated one as a replay.
        for (m, site, skip) in [
            (1usize, FaultSite::NicDrop, 3),
            (2, FaultSite::NicCorrupt, 5),
            (3, FaultSite::NicDup, 7),
        ] {
            if m < machines {
                fleet
                    .machine_mut(m)
                    .expect("faulted machine exists")
                    .monitor
                    .machine
                    .faults
                    .arm(FaultPlan::after(site, skip, 1));
            }
        }
    }
    let channels = fleet.establish_all() as u64;

    let honest: Vec<usize> = (0..machines).filter(|&m| Some(m) != byz).collect();
    let pairs: Vec<(usize, usize)> = honest
        .iter()
        .flat_map(|&a| honest.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
        .collect();
    let spray = |fleet: &mut Fleet| {
        if let Some(evil) = byz {
            for &h in &honest {
                let _ = fleet.send_raw(evil, h, 0, vec![0x5a; 64]);
                let _ = fleet.pump(h, 0);
            }
        }
    };
    spray(&mut fleet);

    let payload = [0x42u8; 64];
    let mut hist = Histogram::new();
    let mut refused = 0u64;
    for r in 0..requests {
        if byzantine && r == requests / 2 {
            spray(&mut fleet);
        }
        let (a, b) = pairs[r % pairs.len()];
        let t0 = Instant::now();
        if fleet.send(a, b, 0, &payload).is_err() {
            refused += 1;
            continue;
        }
        // Drain `b` until the request lands: garbage and post-teardown
        // frames from earlier in the schedule are violations the pump
        // steps over; a fault-dropped frame leaves the queue empty.
        loop {
            match fleet.deliver(b, 0) {
                Ok(Some(d)) if d.from == a as u64 => {
                    hist.record(t0.elapsed().as_nanos() as u64);
                    break;
                }
                Ok(Some(_)) | Err(_) => continue,
                Ok(None) => break,
            }
        }
    }

    let mut accepted = 0u64;
    let mut violations = 0u64;
    let mut quarantined = 0u64;
    let mut sim_cycles = 0u64;
    for m in 0..machines {
        let machine = fleet.machine(m).expect("machine exists");
        let s = machine.stats();
        accepted += s.accepted;
        violations += s.violations;
        quarantined += s.quarantined;
        sim_cycles = sim_cycles.max(machine.monitor.machine.core_clocks.max_now());
    }

    let row = json::parse(&format!(
        "{{\"machines\": {machines}, \"requests\": {requests}, \"byzantine\": {}, \"faulted\": {}, \
         \"channels\": {channels}, \"accepted\": {accepted}, \"violations\": {violations}, \
         \"quarantined\": {quarantined}, \"refused\": {refused}}}",
        u64::from(byzantine),
        u64::from(faulted),
    ))
    .expect("fleet row is valid JSON");
    let det = vec![
        ("machines".to_string(), machines as u64),
        ("requests".to_string(), requests as u64),
        ("channels".to_string(), channels),
        ("accepted".to_string(), accepted),
        ("violations".to_string(), violations),
        ("quarantined".to_string(), quarantined),
        ("sim_cycles".to_string(), sim_cycles),
    ];
    (row, det, vec![("request".to_string(), hist)])
}

// ----------------------------------------------------------------------
// SMP scenarios: concurrent serving vs a whole-monitor mutex (BENCH_smp.json)
// ----------------------------------------------------------------------

/// One SMP bench entry: the same workload pushed through a mutex around
/// the whole monitor (one global simulated clock — `baseline`) and the
/// sharded [`ConcurrentMonitor`] (per-core clocks — `smp`). Throughput
/// is hypercalls per million simulated cycles; both sides charge the
/// identical per-operation cost, so the ratio isolates serialization.
struct SmpEntry {
    workload: &'static str,
    threads: usize,
    /// Capability shard count the concurrent front-end was built with.
    shards: usize,
    /// Submission-ring auto-drain depth (meaningful for ring workloads;
    /// recorded for every row so sweeps stay self-describing).
    ring_depth: usize,
    ops: u64,
    /// Simulated cycles to drain the workload on the single global clock.
    baseline_cycles: u64,
    /// Simulated makespan (max over per-core clocks) on the sharded path.
    smp_cycles: u64,
    detail: Vec<(&'static str, u64)>,
}

impl SmpEntry {
    fn baseline_tput(&self) -> f64 {
        self.ops as f64 * 1e6 / self.baseline_cycles.max(1) as f64
    }

    fn smp_tput(&self) -> f64 {
        self.ops as f64 * 1e6 / self.smp_cycles.max(1) as f64
    }

    fn speedup(&self) -> f64 {
        self.smp_tput() / self.baseline_tput().max(f64::MIN_POSITIVE)
    }

    fn to_json(&self) -> String {
        let detail = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \
             \"shards\": {}, \"ring_depth\": {}, \
             \"metric\": \"ops_per_mcycle\", \"ops\": {}, \
             \"baseline_cycles\": {}, \"smp_cycles\": {}, \
             \"baseline_tput\": {:.2}, \"smp_tput\": {:.2}, \
             \"speedup\": {:.2}, \"detail\": {{{}}}}}",
            self.workload,
            self.threads,
            self.shards,
            self.ring_depth,
            self.ops,
            self.baseline_cycles,
            self.smp_cycles,
            self.baseline_tput(),
            self.smp_tput(),
            self.speedup(),
            detail
        )
    }
}

/// Per-core SMP bench setup: the sealed tenant pinned to the core, the
/// transition capability into it, and its private memory window.
#[derive(Clone, Copy)]
struct SmpLane {
    tenant: DomainId,
    gate: CapId,
    window: CapId,
}

/// Base address of core `c`'s private 64 KiB window.
fn lane_base(core: usize) -> u64 {
    0x40_0000 + (core as u64) * 0x10_000
}

/// The booted SMP bench machine: one worker lane per thread plus the
/// shared victim tenant running on its own extra core, and (for the
/// contended workloads) a pre-created pool of revocable victim-owned
/// capabilities, one column per worker.
struct SmpFixture {
    m: tyche_monitor::Monitor,
    lanes: Vec<SmpLane>,
    victim: DomainId,
    victim_gate: CapId,
    victim_core: usize,
    pool: Vec<Vec<CapId>>,
}

/// Finds root's capability for CPU core `core`.
fn find_core_cap(m: &tyche_monitor::Monitor, os: DomainId, core: usize) -> CapId {
    m.engine
        .caps_of(os)
        .iter()
        .find(|c| c.active && matches!(c.resource, Resource::CpuCore(n) if n == core))
        .map(|c| c.id)
        .expect("core cap")
}

/// Boots an x86 machine with `threads + 1` cores; worker core `c` gets a
/// sealed (nestable, so it can still share outward) tenant owning that
/// core plus a private window. The extra core hosts the *victim*: a
/// sealed, enterable tenant every contended worker mutates. Running the
/// victim on a core of its own is what makes contended revocations
/// produce real cross-core IPIs — a queued shootdown only turns into an
/// IPI if some remote core is executing an affected domain.
///
/// Tenant `c` is steered onto capability shard `c % nshards`: the
/// distinct workload measures per-shard parallelism, and an *unplanned*
/// collision would re-serialize it (at `threads > nshards` the fold-over
/// is the point — that is the shard-sweep knee). Domain and capability
/// ids come from one sequential allocator, so burning filler ids (root
/// self-transition caps) until the next id lands on the wanted residue
/// places each tenant deterministically; the assert fails loudly if the
/// allocator ever stops cooperating.
///
/// `pool_depth > 0` pre-creates, per worker, that many victim-owned
/// sub-shares of the victim's window (self-shares are legal while
/// sealed). Revoking one strips the running victim, so each contended
/// iteration has a fresh capability whose revocation must shoot down
/// the victim core.
fn smp_fixture(threads: usize, nshards: usize, pool_depth: usize) -> SmpFixture {
    use tyche_core::shared::SharedEngine;

    let mut cfg = BootConfig::default();
    cfg.machine.cores = threads + 1;
    let mut m = boot_x86(cfg);
    let os = m.engine.root().expect("root");
    let hi = lane_base(threads + 1);
    let ram = m
        .engine
        .caps_of(os)
        .iter()
        .find(|c| {
            c.active
                && matches!(c.resource, Resource::Memory(r)
                    if r.start <= lane_base(0) && hi <= r.end)
        })
        .map(|c| c.id)
        .expect("root RAM cap");

    // The victim lane: window + core + entry, sealed nestable so it can
    // still self-share (the revocation pool) after sealing.
    let victim_core = threads;
    let (victim, victim_gate) = m.engine.create_domain(os).expect("victim");
    let vbase = lane_base(victim_core);
    let vwindow = m
        .engine
        .share(
            os,
            ram,
            victim,
            Some(MemRegion::new(vbase, vbase + 0x10_000)),
            Rights::RWX,
            RevocationPolicy::NONE,
        )
        .expect("victim window");
    let vcore_cap = find_core_cap(&m, os, victim_core);
    m.engine
        .share(os, vcore_cap, victim, None, Rights::USE, RevocationPolicy::NONE)
        .expect("share victim core");
    m.engine.set_entry(os, victim, vbase).expect("victim entry");
    m.engine
        .seal(os, victim, SealPolicy::nestable())
        .expect("seal victim");

    let mut next_id = m
        .engine
        .make_transition(os, os, RevocationPolicy::NONE)
        .expect("probe")
        .0
        + 1;
    let lanes: Vec<SmpLane> = (0..threads)
        .map(|core| {
            let want = (core % nshards) as u64;
            while next_id % nshards as u64 != want {
                next_id = m
                    .engine
                    .make_transition(os, os, RevocationPolicy::NONE)
                    .expect("filler")
                    .0
                    + 1;
            }
            let base = lane_base(core);
            let (tenant, gate) = m.engine.create_domain(os).expect("tenant");
            assert_eq!(
                SharedEngine::shard_of_n(tenant, nshards),
                core % nshards,
                "tenant off its shard"
            );
            let window = m
                .engine
                .share(
                    os,
                    ram,
                    tenant,
                    Some(MemRegion::new(base, base + 0x10_000)),
                    Rights::RWX,
                    RevocationPolicy::NONE,
                )
                .expect("window");
            let core_cap = find_core_cap(&m, os, core);
            let core_share = m
                .engine
                .share(os, core_cap, tenant, None, Rights::USE, RevocationPolicy::NONE)
                .expect("share core");
            m.engine.set_entry(os, tenant, base).expect("entry");
            m.engine
                .seal(os, tenant, SealPolicy::nestable())
                .expect("seal tenant");
            next_id = core_share.0 + 1;
            SmpLane { tenant, gate, window }
        })
        .collect();

    // The revocation pool comes after the lanes so its allocations
    // cannot disturb the id steering above.
    let pool: Vec<Vec<CapId>> = (0..threads)
        .map(|_| {
            (0..pool_depth)
                .map(|i| {
                    let page = vbase + ((i % 16) as u64) * 0x1000;
                    m.engine
                        .share(
                            victim,
                            vwindow,
                            victim,
                            Some(MemRegion::new(page, page + 0x1000)),
                            Rights::RW,
                            RevocationPolicy::NONE,
                        )
                        .expect("pool cap")
                })
                .collect()
        })
        .collect();
    m.sync_effects().expect("sync fixture");
    SmpFixture {
        m,
        lanes,
        victim,
        victim_gate,
        victim_core,
        pool,
    }
}

/// The self-share a distinct-mode worker issues on iteration `i`: the
/// core's tenant sub-shares a page of its own window with itself (one
/// domain, one shard — sealing permits self-shares).
fn smp_distinct_share(core: usize, i: usize, lane: SmpLane) -> MonitorCall {
    let base = lane_base(core) + ((i % 16) as u64) * 0x1000;
    MonitorCall::Share {
        cap: lane.window,
        target: lane.tenant,
        sub: Some((base, base + 0x1000)),
        rights: Rights::RW,
        policy: RevocationPolicy::NONE,
    }
}

/// How the mutation workload reaches the monitor.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SmpMode {
    /// Per-core tenants mutate their own domains (no cross-core losers).
    Distinct,
    /// Every worker mutates the shared victim through `serve`, one trap
    /// per call, draining shootdowns every iteration.
    Contended,
    /// Same contended calls, but enqueued into the per-core submission
    /// ring (`submit` + doorbell auto-drain) so trap crossings and
    /// shootdown rounds amortize over whole batches.
    ContendedRing,
}

/// Every mutation workload `harness::suite_specs` names, with its mode.
/// The entry keeps the `'static` name from here rather than leaking the
/// parameter string.
const SMP_WORKLOADS: [(&str, SmpMode); 5] = [
    ("hypercalls_distinct", SmpMode::Distinct),
    ("hypercalls_distinct_shards", SmpMode::Distinct),
    ("hypercalls_contended", SmpMode::Contended),
    ("hypercalls_contended_ring", SmpMode::ContendedRing),
    ("hypercalls_contended_ringdepth", SmpMode::ContendedRing),
];

/// Enters the actors the mode needs: distinct workers run as their
/// core's tenant; contended modes put the victim on its own core so
/// revocations have a remote core to shoot down.
fn smp_enter_actors(m: &mut tyche_monitor::Monitor, fx_lanes: &[SmpLane], mode: SmpMode, victim_core: usize, victim_gate: CapId) {
    if mode == SmpMode::Distinct {
        for (core, lane) in fx_lanes.iter().enumerate() {
            m.call(core, MonitorCall::Enter { cap: lane.gate }).expect("enter tenant");
        }
    } else {
        m.call(victim_core, MonitorCall::Enter { cap: victim_gate })
            .expect("enter victim");
    }
}

/// Runs the mutation workload (`pairs` two-call iterations per worker,
/// one worker per core) through both serving models and returns the
/// measured entry plus a wall-clock latency histogram over the SMP
/// path's call pairs (each pair contributes two per-call samples).
/// Distinct mode pairs a tenant self-share with its revocation;
/// contended modes pair a `MakeTransition` into the victim with the
/// revocation of one pre-created victim-owned pool capability, so every
/// iteration both contends on the victim's shard and strips the
/// *running* victim (a real IPI, not just a queued shootdown). For the
/// per-call modes the sample includes the shootdown drain (it is part
/// of serving that call); for the ring mode it covers the two submits
/// only — the doorbell flush amortizes over the batch and is left out.
fn smp_run_mutations(
    workload: &'static str,
    threads: usize,
    pairs: usize,
    mode: SmpMode,
    nshards: usize,
    ring_depth: usize,
) -> (SmpEntry, Histogram) {
    use std::sync::{Arc, Mutex};

    let pool_depth = if mode == SmpMode::Distinct { 0 } else { pairs };

    // Baseline: a mutex around the whole monitor; every call serializes
    // on the machine's single global cycle counter.
    let fx = smp_fixture(threads, nshards, pool_depth);
    let (mut m, lanes, victim, pool) = (fx.m, fx.lanes, fx.victim, fx.pool);
    smp_enter_actors(&mut m, &lanes, mode, fx.victim_core, fx.victim_gate);
    let c0 = m.machine.cycles.now();
    let shared = Arc::new(Mutex::new(m));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|core| {
            let shared = Arc::clone(&shared);
            let lane = lanes[core];
            let pool_caps = pool.get(core).cloned().unwrap_or_default();
            std::thread::spawn(move || {
                if mode == SmpMode::Distinct {
                    for i in 0..pairs {
                        let call = smp_distinct_share(core, i, lane);
                        let cap = match shared.lock().expect("monitor lock").call(core, call) {
                            Ok(CallResult::Cap(c)) => c,
                            other => panic!("baseline share failed: {other:?}"),
                        };
                        shared
                            .lock()
                            .expect("monitor lock")
                            .call(core, MonitorCall::Revoke { cap })
                            .expect("baseline revoke");
                    }
                } else {
                    for &cap in pool_caps.iter().take(pairs) {
                        let make = MonitorCall::MakeTransition {
                            target: victim,
                            policy: RevocationPolicy::NONE,
                        };
                        match shared.lock().expect("monitor lock").call(core, make) {
                            Ok(CallResult::Cap(_)) => {}
                            other => panic!("baseline make_transition failed: {other:?}"),
                        }
                        shared
                            .lock()
                            .expect("monitor lock")
                            .call(core, MonitorCall::Revoke { cap })
                            .expect("baseline revoke");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("baseline worker");
    }
    let wall_base = timing::total_ns(t0.elapsed())
        .unwrap_or_else(|err| panic!("smp baseline wall clock: {err}"));
    let baseline_cycles = shared.lock().expect("monitor lock").machine.cycles.now() - c0;

    // Sharded front-end: same fixture, same ops, served concurrently.
    // Each worker samples its own call pairs into a private histogram;
    // the merge after join keeps clock reads out of other threads' way.
    let fx = smp_fixture(threads, nshards, pool_depth);
    let (mut m, lanes, victim, pool) = (fx.m, fx.lanes, fx.victim, fx.pool);
    smp_enter_actors(&mut m, &lanes, mode, fx.victim_core, fx.victim_gate);
    let cm = Arc::new(ConcurrentMonitor::with_config(m, nshards, ring_depth));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|core| {
            let cm = Arc::clone(&cm);
            let lane = lanes[core];
            let pool_caps = pool.get(core).cloned().unwrap_or_default();
            std::thread::spawn(move || {
                let mut hist = Histogram::new();
                let pair_sample = |hist: &mut Histogram, d: std::time::Duration| {
                    let per = timing::per_op_ns(d, 2)
                        .unwrap_or_else(|err| panic!("smp pair timing: {err}"));
                    hist.record_n(per, 2);
                };
                match mode {
                    SmpMode::Distinct => {
                        for i in 0..pairs {
                            let call = smp_distinct_share(core, i, lane);
                            let s0 = Instant::now();
                            let cap = match cm.serve(core, call) {
                                Ok(CallResult::Cap(c)) => c,
                                other => panic!("smp share failed: {other:?}"),
                            };
                            cm.serve(core, MonitorCall::Revoke { cap }).expect("smp revoke");
                            // Per-iteration drain. Distinct losers run on the
                            // requesting core itself, so the drain finds no
                            // remote core to interrupt: shootdowns_requested
                            // counts up while ipis_sent stays 0 — by design.
                            cm.sync_shootdowns(core);
                            pair_sample(&mut hist, s0.elapsed());
                        }
                    }
                    SmpMode::Contended => {
                        for &cap in pool_caps.iter().take(pairs) {
                            let make = MonitorCall::MakeTransition {
                                target: victim,
                                policy: RevocationPolicy::NONE,
                            };
                            let s0 = Instant::now();
                            match cm.serve(core, make) {
                                Ok(CallResult::Cap(_)) => {}
                                other => panic!("smp make_transition failed: {other:?}"),
                            }
                            cm.serve(core, MonitorCall::Revoke { cap }).expect("smp revoke");
                            // Per-iteration drain: the victim runs on its own
                            // core, so every revocation's queued invalidation
                            // becomes a real IPI here.
                            cm.sync_shootdowns(core);
                            pair_sample(&mut hist, s0.elapsed());
                        }
                    }
                    SmpMode::ContendedRing => {
                        let check = |outcome: RingOutcome| match outcome {
                            RingOutcome::Queued(_) => {}
                            RingOutcome::Completed(r) => {
                                r.expect("ring inline");
                            }
                            RingOutcome::Drained(results) => {
                                for r in results {
                                    r.expect("ring drain");
                                }
                            }
                        };
                        for &cap in pool_caps.iter().take(pairs) {
                            let s0 = Instant::now();
                            check(cm.submit(
                                core,
                                MonitorCall::MakeTransition {
                                    target: victim,
                                    policy: RevocationPolicy::NONE,
                                },
                            ));
                            check(cm.submit(core, MonitorCall::Revoke { cap }));
                            pair_sample(&mut hist, s0.elapsed());
                        }
                        // Ring drains are themselves flush boundaries (one
                        // coalesced shootdown round per batch); flush the tail.
                        for r in cm.ring_doorbell(core) {
                            r.expect("ring flush");
                        }
                    }
                }
                hist
            })
        })
        .collect();
    let mut call_hist = Histogram::new();
    for w in workers {
        call_hist.merge_from(&w.join().expect("smp worker"));
    }
    let wall_smp =
        timing::total_ns(t0.elapsed()).unwrap_or_else(|err| panic!("smp wall clock: {err}"));
    let smp_cycles = cm.makespan();
    let shard_waits = SmpStats::get(&cm.stats.shard_waits);
    let shootdowns = SmpStats::get(&cm.stats.shootdowns_requested);
    let ipis = SmpStats::get(&cm.stats.ipis_sent);
    let ring_submitted = SmpStats::get(&cm.stats.ring_submitted);
    let ring_batches = SmpStats::get(&cm.stats.ring_batches);
    let monitor = Arc::try_unwrap(cm).ok().expect("workers joined").finish();
    assert!(
        audit::audit(&monitor.engine).is_empty(),
        "smp bench left the engine unauditable"
    );
    if mode != SmpMode::Distinct {
        assert!(ipis > 0, "contended workload must deliver real IPIs");
    }

    let entry = SmpEntry {
        workload,
        threads,
        shards: nshards,
        ring_depth,
        ops: (2 * pairs * threads) as u64,
        baseline_cycles,
        smp_cycles,
        detail: vec![
            ("wall_ns_baseline", wall_base),
            ("wall_ns_smp", wall_smp),
            ("shard_waits", shard_waits),
            ("shootdowns_requested", shootdowns),
            ("ipis_sent", ipis),
            ("ring_submitted", ring_submitted),
            ("ring_batches", ring_batches),
        ],
    };
    (entry, call_hist)
}

/// Runs the transition workload: each core does `roundtrips` fast
/// Enter+Return roundtrips into its own sealed tenant. The baseline
/// still takes the whole-monitor mutex per one-way switch; the SMP path
/// serves them from per-core state with no shared lock at all. The
/// returned histogram samples the SMP path per one-way switch (each
/// timed roundtrip contributes two samples).
fn smp_run_transitions(threads: usize, roundtrips: usize) -> (SmpEntry, Histogram) {
    use std::sync::{Arc, Mutex};
    use tyche_core::shared::SHARDS;

    let fx = smp_fixture(threads, SHARDS, 0);
    let (m, lanes) = (fx.m, fx.lanes);
    let c0 = m.machine.cycles.now();
    let shared = Arc::new(Mutex::new(m));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|core| {
            let shared = Arc::clone(&shared);
            let lane = lanes[core];
            std::thread::spawn(move || {
                for _ in 0..roundtrips {
                    shared
                        .lock()
                        .expect("monitor lock")
                        .enter_fast(core, lane.gate)
                        .expect("baseline enter");
                    shared
                        .lock()
                        .expect("monitor lock")
                        .ret_fast(core)
                        .expect("baseline return");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("baseline worker");
    }
    let wall_base = timing::total_ns(t0.elapsed())
        .unwrap_or_else(|err| panic!("smp baseline wall clock: {err}"));
    let baseline_cycles = shared.lock().expect("monitor lock").machine.cycles.now() - c0;

    let fx = smp_fixture(threads, SHARDS, 0);
    let (m, lanes) = (fx.m, fx.lanes);
    let cm = Arc::new(ConcurrentMonitor::new(m));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|core| {
            let cm = Arc::clone(&cm);
            let lane = lanes[core];
            std::thread::spawn(move || {
                let mut hist = Histogram::new();
                for _ in 0..roundtrips {
                    let s0 = Instant::now();
                    match cm.serve(core, MonitorCall::Enter { cap: lane.gate }) {
                        Ok(CallResult::Entered { .. }) => {}
                        other => panic!("smp enter failed: {other:?}"),
                    }
                    match cm.serve(core, MonitorCall::Return) {
                        Ok(CallResult::Returned { .. }) => {}
                        other => panic!("smp return failed: {other:?}"),
                    }
                    let per = timing::per_op_ns(s0.elapsed(), 2)
                        .unwrap_or_else(|err| panic!("smp roundtrip timing: {err}"));
                    hist.record_n(per, 2);
                }
                hist
            })
        })
        .collect();
    let mut call_hist = Histogram::new();
    for w in workers {
        call_hist.merge_from(&w.join().expect("smp worker"));
    }
    let wall_smp =
        timing::total_ns(t0.elapsed()).unwrap_or_else(|err| panic!("smp wall clock: {err}"));
    let smp_cycles = cm.makespan();
    let fast = SmpStats::get(&cm.stats.fast_transitions);
    let mutations = SmpStats::get(&cm.stats.mutations);

    let entry = SmpEntry {
        workload: "transitions_distinct",
        threads,
        shards: SHARDS,
        ring_depth: ConcurrentMonitor::DEFAULT_RING_DEPTH,
        ops: (2 * roundtrips * threads) as u64,
        baseline_cycles,
        smp_cycles,
        detail: vec![
            ("wall_ns_baseline", wall_base),
            ("wall_ns_smp", wall_smp),
            ("fast_transitions", fast),
            ("mediated_fallbacks", mutations),
        ],
    };
    (entry, call_hist)
}

// ---------------------------------------------------------------------
// `repro fuzz` — adversarial hypercall fuzzing over fixed seeds
// ---------------------------------------------------------------------

/// The fixed seed corpus (documented in EXPERIMENTS.md § Fuzz
/// methodology). Full runs take all eight; `--smoke` takes the first
/// four with a smaller call budget for CI.
const FUZZ_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Runs the adversarial fuzzer over the fixed seed corpus, replaying
/// each seed to check trace determinism. Returns false on any audit
/// finding or replay divergence.
fn fuzz_campaign(json: bool, smoke: bool) -> bool {
    let seeds: &[u64] = if smoke { &FUZZ_SEEDS[..4] } else { &FUZZ_SEEDS };
    let calls: u64 = if smoke { 1_500 } else { 10_000 };
    let mut t = Table::new(
        "FUZZ — adversarial hypercalls under deterministic fault injection",
        &[
            "seed", "calls", "ok", "refused", "malformed", "accesses", "faults", "quar",
            "replay", "trace",
        ],
    );
    let mut pass = true;
    let mut reports = Vec::new();
    let started = Instant::now();
    for &seed in seeds {
        let config = fuzz::FuzzConfig {
            seed,
            calls,
            faults: true,
        };
        let r = fuzz::run(config);
        let replayed = fuzz::run(config).trace == r.trace;
        if !r.clean() {
            pass = false;
            for f in &r.audit_failures {
                println!("AUDIT FAILURE: {f}");
            }
        }
        if !replayed {
            pass = false;
            println!("REPLAY DIVERGENCE: seed {seed} produced two different traces");
        }
        t.row(&[
            seed.to_string(),
            r.calls.to_string(),
            r.ok.to_string(),
            r.refused.to_string(),
            r.malformed.to_string(),
            r.accesses.to_string(),
            r.faults_fired.to_string(),
            r.quarantines.to_string(),
            if replayed { "=".into() } else { "DIVERGED".into() },
            r.trace.to_hex()[..16].to_string(),
        ]);
        reports.push((r, replayed));
    }
    t.print();
    println!(
        "fuzz: {} seeds x {} calls in {:.1}s — {}",
        seeds.len(),
        calls,
        started.elapsed().as_secs_f64(),
        if pass {
            "no panics, no audit findings, all traces replay"
        } else {
            "FAILURES above"
        }
    );
    if json {
        let body = reports
            .iter()
            .map(|(r, replayed)| {
                format!(
                    "    {{\"seed\": {}, \"calls\": {}, \"ok\": {}, \"refused\": {}, \
                     \"malformed\": {}, \"accesses\": {}, \"faults_fired\": {}, \
                     \"quarantines\": {}, \"audit_failures\": {}, \"replayed\": {}, \
                     \"trace\": \"{}\"}}",
                    r.seed,
                    r.calls,
                    r.ok,
                    r.refused,
                    r.malformed,
                    r.accesses,
                    r.faults_fired,
                    r.quarantines,
                    r.audit_failures.len(),
                    replayed,
                    r.trace.to_hex()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let doc = format!(
            "{{\n  \"schema\": \"tyche-fuzz/v1\",\n  \"mode\": \"{}\",\n  \
             \"monitor_version\": \"{}\",\n  \"pass\": {},\n  \"seeds\": [\n{}\n  ]\n}}\n",
            if smoke { "smoke" } else { "full" },
            MONITOR_VERSION,
            pass,
            body
        );
        let path = workspace_root().join("FUZZ.json");
        std::fs::write(&path, doc).expect("write FUZZ.json");
        println!("wrote {}", path.display());
    }
    pass
}

// ---------------------------------------------------------------------
// `repro trace` — attested trace replay + runtime verification
// ---------------------------------------------------------------------

/// The trace seed corpus (a subset of [`FUZZ_SEEDS`], documented in
/// EXPERIMENTS.md § Trace/RV methodology): seed 1 is the plain witness;
/// seed 13 quarantines a domain under fault injection, so the
/// sticky-quarantine and shootdown checkers replay a non-vacuous
/// history.
const TRACE_SEEDS: [u64; 2] = [1, 13];

/// Runs traced fuzz campaigns over [`TRACE_SEEDS`], drains each
/// machine's event log, replays it through every `tyche-verify::rv`
/// temporal checker, re-runs each seed to confirm the attested hash
/// chain reproduces bit-for-bit, and finishes with
/// [`tracing_overhead_gate`]. Returns false on any RV finding, audit
/// failure, chain divergence, or overhead breach.
fn trace_campaign(json: bool, smoke: bool) -> bool {
    let calls: u64 = if smoke { 1_500 } else { 10_000 };
    let mut t = Table::new(
        "TRACE — drained event logs replayed through the RV checkers",
        &[
            "seed", "machine", "events", "hyper", "enters", "ipis", "findings", "replay", "chain",
        ],
    );
    let mut pass = true;
    let mut per_checker = std::collections::BTreeMap::new();
    for name in rv::CHECKERS {
        per_checker.insert(name, 0usize);
    }
    let mut seeds_json = Vec::new();
    let started = Instant::now();
    for &seed in &TRACE_SEEDS {
        let config = fuzz::FuzzConfig {
            seed,
            calls,
            faults: true,
        };
        let out = fuzz::run_traced(config);
        let again = fuzz::run_traced(config);
        if !out.report.clean() {
            pass = false;
            for f in &out.report.audit_failures {
                println!("AUDIT FAILURE: {f}");
            }
        }
        let mut machines_json = Vec::new();
        for (phase, replay) in out.phases.iter().zip(again.phases.iter()) {
            let replayed = phase.chain == replay.chain;
            if !replayed {
                pass = false;
                println!(
                    "CHAIN DIVERGENCE: seed {seed} {} chained differently on replay",
                    phase.name
                );
            }
            for f in &phase.findings {
                pass = false;
                println!("RV FINDING: seed {seed} {}: {f}", phase.name);
                if let Some(n) = per_checker.get_mut(f.checker) {
                    *n += 1;
                }
            }
            let count = |pred: fn(&EventKind) -> bool| {
                phase
                    .log
                    .events()
                    .iter()
                    .filter(|e| pred(&e.kind))
                    .count()
            };
            let hyper = count(|k| matches!(k, EventKind::HyperEnter { .. }));
            let enters = count(|k| matches!(k, EventKind::Enter { .. }));
            let ipis = count(|k| matches!(k, EventKind::Ipi { .. }));
            t.row(&[
                seed.to_string(),
                phase.name.into(),
                phase.log.len().to_string(),
                hyper.to_string(),
                enters.to_string(),
                ipis.to_string(),
                phase.findings.len().to_string(),
                if replayed { "=".into() } else { "DIVERGED".into() },
                phase.chain.to_hex()[..16].to_string(),
            ]);
            machines_json.push(format!(
                "        {{\"name\": \"{}\", \"events\": {}, \"findings\": {}, \
                 \"replayed\": {}, \"chain\": \"{}\"}}",
                phase.name,
                phase.log.len(),
                phase.findings.len(),
                replayed,
                phase.chain.to_hex()
            ));
        }
        seeds_json.push(format!(
            "    {{\"seed\": {}, \"calls\": {}, \"machines\": [\n{}\n    ]}}",
            seed,
            calls,
            machines_json.join(",\n")
        ));
    }
    t.print();

    let mut t = Table::new(
        "TRACE — runtime-verification verdicts (all seeds, all machines)",
        &["checker", "findings", "verdict"],
    );
    for name in rv::CHECKERS {
        let n = per_checker.get(name).copied().unwrap_or(0);
        t.row(&[
            name.to_string(),
            n.to_string(),
            if n == 0 { "ok".into() } else { "VIOLATED".into() },
        ]);
    }
    t.print();

    let overhead_ok = tracing_overhead_gate();
    pass = pass && overhead_ok;
    println!(
        "trace: {} seeds x {} calls in {:.1}s — {}",
        TRACE_SEEDS.len(),
        calls,
        started.elapsed().as_secs_f64(),
        if pass {
            "all RV checkers clean, chains reproduce, overhead within gate"
        } else {
            "FAILURES above"
        }
    );
    if json {
        let doc = format!(
            "{{\n  \"schema\": \"tyche-trace/v1\",\n  \"mode\": \"{}\",\n  \
             \"monitor_version\": \"{}\",\n  \"pass\": {},\n  \
             \"checkers\": [{}],\n  \"overhead_gate\": {},\n  \
             \"seeds\": [\n{}\n  ]\n}}\n",
            if smoke { "smoke" } else { "full" },
            MONITOR_VERSION,
            pass,
            rv::CHECKERS
                .iter()
                .map(|c| format!("\"{c}\""))
                .collect::<Vec<_>>()
                .join(", "),
            overhead_ok,
            seeds_json.join(",\n")
        );
        let path = workspace_root().join("TRACE.json");
        std::fs::write(&path, doc).expect("write TRACE.json");
        println!("wrote {}", path.display());
    }
    pass
}

/// The tracing-overhead gate: recomputes the deterministic
/// simulated-cycle hot-path metrics with the trace sink recording and
/// holds each within 5% of the committed `BENCH_hotpath.json` value.
/// Wall-clock metrics are excluded — they gate nothing on shared CI
/// hardware; the cycle model is what the paper-facing claims rest on,
/// and tracing must not move it.
fn tracing_overhead_gate() -> bool {
    let path = workspace_root().join("BENCH_hotpath.json");
    let doc = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            println!("overhead gate: cannot read {}: {e}", path.display());
            return false;
        }
    };
    let doc = match json::parse(&doc) {
        Ok(d) => d,
        Err(e) => {
            println!("overhead gate: cannot parse {}: {e}", path.display());
            return false;
        }
    };
    let committed_row = |name: &str| -> Option<Json> {
        doc.get("benches")
            .and_then(Json::as_arr)?
            .iter()
            .find(|row| row.get("name").and_then(Json::as_str) == Some(name))
            .cloned()
    };
    let committed_field = |name: &str, field: &str| -> Option<u64> {
        committed_row(name)?.path(field).and_then(Json::as_u64)
    };
    let (trans, _) = bench_transitions(16, true);
    let (flush, _) = bench_flush_policy(16, true);
    let detail = |e: &HotpathEntry, key: &str| {
        e.detail
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    };
    let rows: [(&str, Option<u64>, Option<u64>); 5] = [
        (
            "transitions.mediated_cycles",
            committed_field("transitions", "detail.mediated_cycles"),
            detail(&trans, "mediated_cycles"),
        ),
        (
            "transitions.fast_cycles",
            committed_field("transitions", "detail.fast_cycles"),
            detail(&trans, "fast_cycles"),
        ),
        (
            "flush_policy.obfuscate_cycles",
            committed_field("flush_policy", "before"),
            Some(flush.before),
        ),
        (
            "flush_policy.none_cycles",
            committed_field("flush_policy", "after"),
            Some(flush.after),
        ),
        (
            "flush_policy.zero_cycles",
            committed_field("flush_policy", "detail.zero_cycles"),
            detail(&flush, "zero_cycles"),
        ),
    ];
    let mut t = Table::new(
        "TRACE — tracing-overhead gate: traced cycle metrics vs committed BENCH_hotpath.json",
        &["metric", "committed", "traced", "delta", "verdict"],
    );
    let mut pass = true;
    for (label, committed, traced) in rows {
        let (Some(committed), Some(traced)) = (committed, traced) else {
            pass = false;
            t.row(&[label.to_string(), "?".into(), "?".into(), "?".into(), "MISSING".into()]);
            continue;
        };
        let delta = (traced.abs_diff(committed) as f64) * 100.0 / (committed.max(1) as f64);
        let ok = delta <= 5.0;
        pass = pass && ok;
        t.row(&[
            label.to_string(),
            committed.to_string(),
            traced.to_string(),
            format!("{delta:.2}%"),
            if ok { "ok".into() } else { "OVER BUDGET".into() },
        ]);
    }
    t.print();
    pass
}
