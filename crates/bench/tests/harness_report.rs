//! End-to-end tests for the process-based bench harness and the
//! `repro report` diff/check layer: the child-line protocol survives a
//! real process boundary, corrupted payloads are caught by digest, the
//! regression flag trips in both directions, and a smoke run can never
//! clobber a committed full artifact.

use std::path::PathBuf;
use std::process::Command;

use tyche_bench::harness::{self, ChildLine, Family};
use tyche_bench::histogram::Histogram;
use tyche_bench::json::{self, Json};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tyche-harness-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

// ---------------------------------------------------------------------
// Histogram oracle: percentiles vs an exact sorted-vector reference
// ---------------------------------------------------------------------

/// Log-bucketed percentiles may only overstate, and by at most the
/// bucket's relative width (1/32), compared to the exact quantile of
/// the recorded values — including across merged histograms.
#[test]
fn percentiles_match_sorted_vector_oracle_across_merge() {
    // Deterministic LCG so the test is reproducible.
    let mut state = 0x2545f4914f6cdd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Spread samples across several orders of magnitude.
        (state >> 33) % 1_000_000 + 1
    };
    let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
    let mut exact: Vec<u64> = Vec::new();
    for (i, part) in parts.iter_mut().enumerate() {
        for _ in 0..(500 + i * 311) {
            let v = next();
            part.record(v);
            exact.push(v);
        }
    }
    let mut merged = Histogram::new();
    for part in &parts {
        merged.merge_from(part);
    }
    exact.sort_unstable();
    assert_eq!(merged.count(), exact.len() as u64);
    assert_eq!(merged.min_ns(), exact[0]);
    assert_eq!(merged.max_ns(), *exact.last().unwrap());
    for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        let truth = exact[rank - 1];
        let reported = merged.percentile(q);
        assert!(
            reported >= truth,
            "p{q}: quantisation must not understate ({reported} < {truth})"
        );
        let bound = truth + truth / 32 + 1;
        assert!(
            reported <= bound,
            "p{q}: {reported} exceeds relative-error bound {bound} (exact {truth})"
        );
    }
}

// ---------------------------------------------------------------------
// Child-line digest: seeded corruption must be caught
// ---------------------------------------------------------------------

fn sample_child_line() -> ChildLine {
    let mut h = Histogram::new();
    for v in [100u64, 250, 250, 999, 5000, 123_456] {
        h.record(v);
    }
    let mut h2 = Histogram::new();
    for _ in 0..16 {
        h2.record(42);
    }
    ChildLine {
        id: "hotpath/revocation/fanout=16".into(),
        seed: 7,
        det: vec![("before_cycles".into(), 500), ("after_cycles".into(), 250)],
        row: json::parse(r#"{"name": "revocation", "fanout": 16}"#).unwrap(),
        hists: vec![("op".into(), h), ("aux".into(), h2)],
    }
}

#[test]
fn child_line_roundtrips() {
    let line = sample_child_line();
    let back = ChildLine::parse(&line.emit()).expect("roundtrip");
    assert_eq!(back.id, line.id);
    assert_eq!(back.seed, line.seed);
    assert_eq!(back.det, line.det);
    assert_eq!(back.hists.len(), 2);
    assert_eq!(back.hists[0].1.count(), line.hists[0].1.count());
}

/// Flip digits inside the hists payload at several seeded positions;
/// every corruption that still parses as JSON must be rejected by the
/// digest, never silently accepted with different counts.
#[test]
fn child_line_digest_catches_seeded_corruption() {
    let line = sample_child_line();
    let emitted = line.emit();
    let hists_at = emitted.find("\"hists\"").expect("hists section");
    let digest_at = emitted.find("\"digest\"").expect("digest section");
    let bytes = emitted.as_bytes();
    let mut caught = 0usize;
    let mut candidates = 0usize;
    for seed in 0..64u64 {
        let pos = hists_at + (seed as usize * 2654435761 % (digest_at - hists_at));
        let b = bytes[pos];
        if !b.is_ascii_digit() {
            continue;
        }
        let flipped = if b == b'9' { b'1' } else { b + 1 };
        let mut corrupted = emitted.clone().into_bytes();
        corrupted[pos] = flipped;
        let corrupted = String::from_utf8(corrupted).unwrap();
        candidates += 1;
        match ChildLine::parse(&corrupted) {
            Err(e) => {
                if e.contains("digest") {
                    caught += 1;
                }
                // Structural parse errors are fine too: the corruption
                // did not survive to the histogram layer.
            }
            Ok(back) => {
                // A parse that still succeeds must be byte-identical in
                // payload — i.e. the flip landed outside the digested
                // region (it cannot: everything between the markers is
                // hists content). Fail loudly.
                panic!(
                    "corrupted line at byte {pos} parsed successfully (id {})",
                    back.id
                );
            }
        }
    }
    assert!(
        candidates >= 10,
        "corruption oracle needs digit positions to flip"
    );
    assert!(
        caught >= candidates / 2,
        "digest caught {caught}/{candidates} corruptions"
    );
}

// ---------------------------------------------------------------------
// `repro report`: the regression flag must trip both ways
// ---------------------------------------------------------------------

fn hotpath_artifact(p50: u64, after: u64) -> String {
    format!(
        r#"{{"schema": "tyche-bench-hotpath/v2", "mode": "full", "benches": [
  {{"name": "transitions", "fanout": 1, "after": {after},
    "latency": {{"p50": {p50}, "p99": {}, "p999": {}, "max": {}}}}}
]}}"#,
        p50 * 2,
        p50 * 3,
        p50 * 4
    )
}

#[test]
fn report_exits_nonzero_on_regression_and_zero_on_improvement() {
    let old = tmp_path("report_old.json");
    let new_bad = tmp_path("report_new_bad.json");
    let new_good = tmp_path("report_new_good.json");
    std::fs::write(&old, hotpath_artifact(1000, 500)).unwrap();
    std::fs::write(&new_bad, hotpath_artifact(1500, 500)).unwrap();
    std::fs::write(&new_good, hotpath_artifact(700, 400)).unwrap();

    // p50 regressed 50% > 10% default threshold: non-zero exit.
    let bad = repro()
        .arg("report")
        .arg(&old)
        .arg(&new_bad)
        .output()
        .expect("run report");
    assert!(
        !bad.status.success(),
        "50% latency regression must fail the report"
    );
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("REGRESSIONS"),
        "missing regression banner:\n{stdout}"
    );

    // Everything improved: clean exit.
    let good = repro()
        .arg("report")
        .arg(&old)
        .arg(&new_good)
        .output()
        .expect("run report");
    assert!(
        good.status.success(),
        "improvement must pass: {}",
        String::from_utf8_lossy(&good.stdout)
    );

    // The threshold is honored in both directions around the same diff:
    // a 50% move passes at --threshold 60 and fails at --threshold 40.
    let loose = repro()
        .args([
            "report",
            old.to_str().unwrap(),
            new_bad.to_str().unwrap(),
            "--threshold",
            "60",
        ])
        .output()
        .expect("run report");
    assert!(loose.status.success(), "50% move must pass a 60% threshold");
    let tight = repro()
        .args([
            "report",
            old.to_str().unwrap(),
            new_bad.to_str().unwrap(),
            "--threshold",
            "40",
        ])
        .output()
        .expect("run report");
    assert!(
        !tight.status.success(),
        "50% move must fail a 40% threshold"
    );
}

#[test]
fn report_diff_library_flags_directions_correctly() {
    let old = json::parse(&hotpath_artifact(1000, 500)).unwrap();
    let worse = json::parse(&hotpath_artifact(1300, 500)).unwrap();
    let better = json::parse(&hotpath_artifact(600, 500)).unwrap();
    let out = harness::report_diff(&old, &worse, 10.0).unwrap();
    // p99 is derived from p50 in the fixture, so both latency metrics
    // regress together; `after` is unchanged and must not be flagged.
    assert_eq!(out.regressions.len(), 2, "p50 and p99 both moved +30%");
    assert!(out.regressions.iter().any(|r| r.contains("latency.p50")));
    assert!(out.regressions.iter().all(|r| !r.contains("after")));
    let out = harness::report_diff(&old, &better, 10.0).unwrap();
    assert!(out.regressions.is_empty());
    assert!(out.improvements >= 1);
}

/// One SMP artifact row with the fields `repro report` reads.
fn smp_row(workload: &str, threads: u64, smp_cycles: u64, shard_waits: u64, p99: u64) -> String {
    format!(
        r#"{{"workload": "{workload}", "threads": {threads}, "shards": 16, "ring_depth": 16,
    "ops": 32, "smp_cycles": {smp_cycles}, "smp_tput": {:.2},
    "detail": {{"shard_waits": {shard_waits}, "ipis_sent": 2, "ring_batches": 2}},
    "call_latency": {{"p50": 90, "p99": {p99}, "p999": {p99}, "max": {p99}}}}}"#,
        32e6 / smp_cycles as f64
    )
}

fn smp_artifact(mode: &str, rows: &[String]) -> Json {
    json::parse(&format!(
        r#"{{"schema": "tyche-bench-smp/v3", "mode": "{mode}", "benches": [{}]}}"#,
        rows.join(",")
    ))
    .unwrap()
}

/// Deterministic SMP model fields are gated as exact matches on rows
/// that cannot race (ring rows here), whatever the threshold, and not on
/// serve-per-call contended rows whose cycles depend on interleaving.
#[test]
fn report_gates_deterministic_smp_fields_exactly() {
    let base = |ring_cycles, waits, contended_cycles| {
        smp_artifact(
            "full",
            &[
                smp_row("hypercalls_contended_ring", 2, ring_cycles, waits, 25_000),
                smp_row("hypercalls_contended", 2, contended_cycles, 3, 10_000),
            ],
        )
    };
    let old = base(6100, 1, 54_660);
    let same = harness::report_diff(&old, &base(6100, 1, 54_660), 1000.0).unwrap();
    assert!(same.regressions.is_empty(), "{:?}", same.regressions);
    // One cycle or one shard wait on the ring row is a change.
    let drift = harness::report_diff(&old, &base(6101, 1, 54_660), 1000.0).unwrap();
    assert_eq!(
        drift.regressions,
        vec!["hypercalls_contended_ring/t2/s16/r16/smp_cycles".to_string()]
    );
    let waits = harness::report_diff(&old, &base(6100, 2, 54_660), 1000.0).unwrap();
    assert_eq!(
        waits.regressions,
        vec!["hypercalls_contended_ring/t2/s16/r16/detail.shard_waits".to_string()]
    );
    // The contended serve-per-call row races: its cycles keep only the
    // threshold gate on throughput (+2% passes a 10% threshold).
    let raced = harness::report_diff(&old, &base(6100, 1, 55_700), 10.0).unwrap();
    assert!(raced.regressions.is_empty(), "{:?}", raced.regressions);
}

/// A diff involving a smoke artifact prints host wall-clock metrics as
/// information; between two full artifacts the same move still fails.
#[test]
fn smoke_diffs_do_not_gate_host_clock_metrics() {
    let rows = |p99| [smp_row("transitions_distinct", 2, 3488, 0, p99)];
    let slow = rows(2_000);
    let fast = rows(1_000);
    let out = harness::report_diff(
        &smp_artifact("smoke", &fast),
        &smp_artifact("smoke", &slow),
        10.0,
    )
    .unwrap();
    assert!(out.regressions.is_empty(), "{:?}", out.regressions);
    assert_eq!(
        out.informational, 1,
        "call_latency.p99 reported as information"
    );
    let mixed = harness::report_diff(
        &smp_artifact("full", &fast),
        &smp_artifact("smoke", &slow),
        10.0,
    )
    .unwrap();
    assert!(mixed.regressions.is_empty(), "{:?}", mixed.regressions);
    let full = harness::report_diff(
        &smp_artifact("full", &fast),
        &smp_artifact("full", &slow),
        10.0,
    )
    .unwrap();
    assert_eq!(
        full.regressions,
        vec!["transitions_distinct/t2/s16/r16/call_latency.p99".to_string()]
    );
    assert_eq!(full.informational, 0);
    // Model fields stay gated in smoke diffs.
    let drift = harness::report_diff(
        &smp_artifact("smoke", &fast),
        &smp_artifact(
            "smoke",
            &[smp_row("transitions_distinct", 2, 3489, 0, 1_000)],
        ),
        10.0,
    )
    .unwrap();
    assert_eq!(
        drift.regressions,
        vec!["transitions_distinct/t2/s16/r16/smp_cycles".to_string()]
    );
}

// ---------------------------------------------------------------------
// Smoke-clobber protection
// ---------------------------------------------------------------------

#[test]
fn harness_smoke_refuses_to_overwrite_full_artifact() {
    let path = tmp_path("committed_full.json");
    let committed = r#"{"schema": "tyche-bench-hotpath/v2", "mode": "full", "benches": []}"#;
    std::fs::write(&path, committed).unwrap();
    // The preflight fires before any child spawns, so this is instant.
    let out = repro()
        .args([
            "harness",
            "--suite",
            "hotpath",
            "--smoke",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("run harness");
    assert!(
        !out.status.success(),
        "smoke harness must refuse a full-artifact path"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("refusing to overwrite"),
        "unexpected stderr:\n{stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        committed,
        "the committed artifact must be untouched"
    );
}

/// `--help` prints usage and runs nothing; any other unknown argument
/// exits 2 before a child starts. Both runs carry a valid smoke suite
/// and `--out`, so a harness that ignored the flag would write there.
#[test]
fn harness_help_and_unknown_flags_run_nothing() {
    let path = tmp_path("help_probe.json");
    let _ = std::fs::remove_file(&path);
    let out = repro()
        .args([
            "harness",
            "--help",
            "--suite",
            "hotpath",
            "--smoke",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("run harness --help");
    assert_eq!(out.status.code(), Some(0), "--help must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("usage: repro harness"),
        "no usage printed:\n{stdout}"
    );
    assert!(!stdout.contains("wrote"), "--help ran a suite:\n{stdout}");
    assert!(!path.exists(), "--help wrote an artifact");
    for bad in [
        vec!["harness", "--bogus", "--suite", "hotpath", "--smoke"],
        vec!["harness", "--suite", "hotpath", "--smoke", "extra"],
        vec!["harness", "--suite", "hotpath", "--smoke", "--out"],
    ] {
        let mut cmd = repro();
        cmd.args(&bad);
        if bad.last() != Some(&"--out") {
            cmd.args(["--out", path.to_str().unwrap()]);
        }
        let out = cmd.output().expect("run harness");
        assert_eq!(out.status.code(), Some(2), "{bad:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: repro harness"),
            "{bad:?}: no usage:\n{stderr}"
        );
        assert!(!path.exists(), "{bad:?} wrote an artifact");
    }
}

#[test]
fn harness_smoke_without_out_leaves_committed_artifact_untouched() {
    // `repro harness --smoke` with no --out must resolve into target/,
    // never the committed workspace-root artifact.
    let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let committed = workspace.join("BENCH_hotpath.json");
    let before = std::fs::read_to_string(&committed).ok();
    let out = repro()
        .args(["harness", "--suite", "hotpath", "--smoke"])
        .output()
        .expect("run harness smoke");
    assert!(
        out.status.success(),
        "harness smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let smoke_path = workspace.join("target").join("BENCH_hotpath.smoke.json");
    assert!(
        stdout.contains(&format!("wrote {}", smoke_path.display())),
        "smoke run must write target/BENCH_hotpath.smoke.json:\n{stdout}"
    );
    assert_eq!(
        std::fs::read_to_string(&committed).ok(),
        before,
        "committed BENCH_hotpath.json changed under a smoke run"
    );
    // Family naming invariants the resolver depends on.
    assert_eq!(Family::Hotpath.artifact_name(), "BENCH_hotpath.json");
    assert_eq!(Family::Smp.artifact_name(), "BENCH_smp.json");
    assert_eq!(Family::Scale.artifact_name(), "BENCH_scale.json");
    assert_eq!(Family::Fleet.artifact_name(), "BENCH_fleet.json");
}

// ---------------------------------------------------------------------
// Process boundary: harness-child and a small orchestration
// ---------------------------------------------------------------------

#[test]
fn harness_child_emits_a_parseable_verified_line() {
    let out = repro()
        .args([
            "harness-child",
            "transitions",
            "--id",
            "hotpath/transitions",
            "seed=3",
            "iters=32",
        ])
        .output()
        .expect("spawn child");
    assert!(
        out.status.success(),
        "child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("{\"schema\": \"tyche-harness-child/"))
        .expect("child line on stdout");
    let parsed = ChildLine::parse(line).expect("digest-verified parse");
    assert_eq!(parsed.id, "hotpath/transitions");
    assert_eq!(parsed.seed, 3);
    assert!(parsed
        .hists
        .iter()
        .any(|(name, h)| name == "op" && h.count() > 0));
    assert!(parsed.det.iter().any(|(k, _)| k == "mediated_cycles"));

    // Mutation workloads are matched by exact name: a near miss fails
    // the child instead of running a guessed mode.
    let out = repro()
        .args([
            "harness-child",
            "mutations",
            "workload=hypercalls_distinct_bogus",
            "threads=1",
            "pairs=1",
        ])
        .output()
        .expect("spawn child");
    assert!(
        !out.status.success(),
        "an unknown workload must fail the child"
    );

    // Tenant steering follows the monitor's shard routing at shard
    // counts that are not powers of two, and at zero (clamped to one).
    for shards in ["shards=6", "shards=0"] {
        let out = repro()
            .args([
                "harness-child",
                "mutations",
                "workload=hypercalls_distinct",
                "threads=4",
                "pairs=4",
                shards,
                "ring_depth=16",
            ])
            .output()
            .expect("spawn child");
        assert!(
            out.status.success(),
            "{shards}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("{\"schema\": \"tyche-harness-child/"))
            .expect("child line on stdout");
        let parsed = ChildLine::parse(line).expect("digest-verified parse");
        assert!(
            parsed
                .hists
                .iter()
                .any(|(name, h)| name == "call" && h.count() > 0),
            "{shards}"
        );
    }
}

#[test]
fn end_to_end_smoke_orchestration_writes_checkable_artifact() {
    let path = tmp_path("smoke_hotpath.json");
    let _ = std::fs::remove_file(&path);
    let out = repro()
        .args([
            "harness",
            "--suite",
            "hotpath",
            "--smoke",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("run harness");
    assert!(
        out.status.success(),
        "harness failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("artifact written");
    let parsed = json::parse(&doc).expect("artifact parses");
    assert_eq!(
        parsed.path("schema").and_then(Json::as_str),
        Some("tyche-bench-hotpath/v2")
    );
    assert_eq!(parsed.path("mode").and_then(Json::as_str), Some("smoke"));
    assert_eq!(
        parsed.path("manifest.generator").and_then(Json::as_str),
        Some("harness")
    );
    let benches = parsed
        .get("benches")
        .and_then(Json::as_arr)
        .expect("benches");
    assert_eq!(benches.len(), 6);
    for row in benches {
        let p50 = row.path("latency.p50").and_then(Json::as_u64);
        let p999 = row.path("latency.p999").and_then(Json::as_u64);
        assert!(
            p50.is_some() && p999.is_some(),
            "row missing percentiles: {}",
            row.to_compact()
        );
        assert!(p999 >= p50, "p999 below p50");
    }
    let children = parsed
        .path("manifest.children")
        .and_then(Json::as_arr)
        .expect("children");
    assert_eq!(children.len(), 12, "6 scenarios x 2 invocations");

    // A smoke artifact must fail `report --check` (mode gate)...
    let check = repro()
        .args(["report", "--check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        !check.status.success(),
        "smoke artifact must not pass --check"
    );
    // ...but self-diffs clean through `repro report`.
    let diff = repro()
        .args(["report", path.to_str().unwrap(), path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        diff.status.success(),
        "self-diff regressed: {}",
        String::from_utf8_lossy(&diff.stdout)
    );
}
