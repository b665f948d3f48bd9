//! The process-based bench harness: orchestration, merging, artifact
//! assembly, and the `repro report` diff/check layer.
//!
//! Shape (after the WIND bench harness): the orchestrator (`repro
//! harness`) spawns one **child process** per scenario/invocation — the
//! same release-built `repro` binary in `harness-child` mode — so every
//! measurement runs in a fresh address space with cold allocator state,
//! and a crash or assert in one scenario cannot poison the others. Each
//! child prints exactly one JSON line: its artifact row, the
//! deterministic (simulated-cycle) fields the parent asserts equal
//! across invocations, its named latency histograms, and a SHA-256
//! digest over the histograms' canonical bytes. The parent verifies
//! each digest, merges the histograms across invocations, and assembles
//! the artifact with per-row percentiles (p50/p99/p999/max — tails, not
//! means) plus a run [`Manifest`](crate::manifest::Manifest).
//!
//! `repro report old.json new.json` diffs two runs metric-by-metric and
//! exits non-zero past a configurable regression threshold; `repro
//! report --check artifact.json` is the one freshness/consistency gate
//! CI runs against every committed artifact.
//!
//! None of this is TCB: the harness observes the monitor from outside
//! and can at worst report wrong numbers, never weaken isolation.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use crate::histogram::Histogram;
use crate::json::{self, Json};
use crate::manifest::{ChildRecord, Manifest};
use crate::table::Table;

/// Schema identifier on every child line.
pub const CHILD_SCHEMA: &str = "tyche-harness-child/v1";

/// The four orchestrated bench suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Hot-path before/after benches (`BENCH_hotpath.json`).
    Hotpath,
    /// SMP serving benches (`BENCH_smp.json`).
    Smp,
    /// Population-sweep benches (`BENCH_scale.json`).
    Scale,
    /// Multi-machine attested-channel benches (`BENCH_fleet.json`).
    Fleet,
}

impl Family {
    /// Parses a `--suite` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hotpath" => Some(Family::Hotpath),
            "smp" => Some(Family::Smp),
            "scale" => Some(Family::Scale),
            "fleet" => Some(Family::Fleet),
            _ => None,
        }
    }

    /// The committed artifact file name.
    pub fn artifact_name(self) -> &'static str {
        match self {
            Family::Hotpath => "BENCH_hotpath.json",
            Family::Smp => "BENCH_smp.json",
            Family::Scale => "BENCH_scale.json",
            Family::Fleet => "BENCH_fleet.json",
        }
    }

    /// The current artifact schema (v2 for hotpath/scale, v3 for smp —
    /// each bumped once when percentiles and manifests landed — and v1
    /// for the fleet suite, born under the harness).
    pub fn schema(self) -> &'static str {
        match self {
            Family::Hotpath => "tyche-bench-hotpath/v2",
            Family::Smp => "tyche-bench-smp/v3",
            Family::Scale => "tyche-bench-scale/v2",
            Family::Fleet => "tyche-bench-fleet/v1",
        }
    }

    /// Key of the rows array in the artifact document.
    pub fn rows_key(self) -> &'static str {
        match self {
            Family::Hotpath | Family::Smp => "benches",
            Family::Scale => "populations",
            Family::Fleet => "fleets",
        }
    }

    /// Display name (matches the `--suite` spelling).
    pub fn name(self) -> &'static str {
        match self {
            Family::Hotpath => "hotpath",
            Family::Smp => "smp",
            Family::Scale => "scale",
            Family::Fleet => "fleet",
        }
    }
}

/// One scenario the orchestrator runs: the stable row id, the
/// `harness-child` scenario selector, its `key=value` parameters, and
/// how many child invocations get merged.
#[derive(Debug, Clone)]
pub struct ChildSpec {
    /// Stable scenario id, e.g. `"hotpath/revocation/fanout=64"`.
    pub id: String,
    /// Scenario selector the child dispatches on.
    pub scenario: &'static str,
    /// `key=value` parameters passed on the child command line.
    pub params: Vec<(String, String)>,
    /// Number of invocations to merge (seeds `1..=invocations`).
    pub invocations: usize,
}

fn spec(
    id: String,
    scenario: &'static str,
    params: &[(&str, usize)],
    invocations: usize,
) -> ChildSpec {
    ChildSpec {
        id,
        scenario,
        params: params
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        invocations,
    }
}

/// Looks up a scenario parameter by key.
pub fn param<'a>(params: &'a [(String, String)], key: &str) -> Option<&'a str> {
    params
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// The scenario matrix for one suite: the only place the hotpath, smp,
/// scale and fleet matrices are spelled out. Invocation counts trade
/// repetition against suite cost (the 1M-domain sweep runs once, the
/// cheap hot-path scenarios three times).
pub fn suite_specs(family: Family, smoke: bool) -> Vec<ChildSpec> {
    match family {
        Family::Hotpath => {
            let fanouts: &[usize] = if smoke { &[8] } else { &[16, 64, 256, 1024] };
            let iters = if smoke { 2 } else { 2000 };
            let storms = if smoke { 2 } else { 5 };
            let inv = if smoke { 2 } else { 3 };
            let mut specs = Vec::new();
            for &f in fanouts {
                specs.push(spec(
                    format!("hotpath/revocation/fanout={f}"),
                    "revocation",
                    &[("fanout", f), ("storms", storms)],
                    inv,
                ));
            }
            for &f in fanouts {
                specs.push(spec(
                    format!("hotpath/capability_ops/fanout={f}"),
                    "capability_ops",
                    &[("fanout", f), ("iters", iters)],
                    inv,
                ));
            }
            specs.push(spec(
                "hotpath/transitions".into(),
                "transitions",
                &[("iters", iters)],
                inv,
            ));
            specs.push(spec(
                "hotpath/flush_policy".into(),
                "flush_policy",
                &[("iters", iters)],
                inv,
            ));
            // Item 11's RAM axis: a one-page grant must not cost more on a
            // bigger machine.
            let rams: &[usize] = if smoke { &[64] } else { &[64, 256, 1024] };
            for arch in ["x86", "riscv"] {
                for &ram in rams {
                    let mut s = spec(
                        format!("hotpath/grant_revoke/{arch}/ram_mib={ram}"),
                        "grant_revoke",
                        &[("ram_mib", ram), ("iters", iters)],
                        inv,
                    );
                    s.params.push(("arch".into(), arch.into()));
                    specs.push(s);
                }
            }
            specs
        }
        Family::Smp => {
            let threads: &[usize] = if smoke { &[2] } else { &[1, 2, 4, 8, 16, 32] };
            let pairs = if smoke { 8 } else { 64 };
            let roundtrips = if smoke { 16 } else { 256 };
            let shards = tyche_core::shared::SHARDS;
            let depth = tyche_monitor::ConcurrentMonitor::DEFAULT_RING_DEPTH;
            let inv = 2;
            let mut specs = Vec::new();
            for wl in [
                "hypercalls_distinct",
                "hypercalls_contended",
                "hypercalls_contended_ring",
            ] {
                for &t in threads {
                    specs.push(ChildSpec {
                        id: format!("smp/{wl}/threads={t}"),
                        scenario: "mutations",
                        params: vec![
                            ("workload".into(), wl.into()),
                            ("threads".into(), t.to_string()),
                            ("pairs".into(), pairs.to_string()),
                            ("shards".into(), shards.to_string()),
                            ("ring_depth".into(), depth.to_string()),
                        ],
                        invocations: inv,
                    });
                }
            }
            for &t in threads {
                specs.push(spec(
                    format!("smp/transitions_distinct/threads={t}"),
                    "smp_transitions",
                    &[("threads", t), ("roundtrips", roundtrips)],
                    inv,
                ));
            }
            if !smoke {
                let wide = *threads.last().expect("thread list");
                for &ns in &[8usize, 16, 32, 64] {
                    specs.push(ChildSpec {
                        id: format!("smp/hypercalls_distinct_shards/shards={ns}"),
                        scenario: "mutations",
                        params: vec![
                            ("workload".into(), "hypercalls_distinct_shards".into()),
                            ("threads".into(), wide.to_string()),
                            ("pairs".into(), pairs.to_string()),
                            ("shards".into(), ns.to_string()),
                            ("ring_depth".into(), depth.to_string()),
                        ],
                        invocations: inv,
                    });
                }
                for &d in &[4usize, 8, 16, 32] {
                    specs.push(ChildSpec {
                        id: format!("smp/hypercalls_contended_ringdepth/ring_depth={d}"),
                        scenario: "mutations",
                        params: vec![
                            ("workload".into(), "hypercalls_contended_ringdepth".into()),
                            ("threads".into(), 8.to_string()),
                            ("pairs".into(), pairs.to_string()),
                            ("shards".into(), shards.to_string()),
                            ("ring_depth".into(), d.to_string()),
                        ],
                        invocations: inv,
                    });
                }
            }
            specs
        }
        Family::Scale => {
            let populations: &[usize] = if smoke {
                &[1_000, 10_000]
            } else {
                &[1_000, 10_000, 100_000, 1_000_000]
            };
            let depth = if smoke { 256 } else { 1024 };
            populations
                .iter()
                .map(|&n| {
                    spec(
                        format!("scale/population={n}"),
                        "population",
                        &[("population", n), ("neighbors", 64), ("depth", depth)],
                        1,
                    )
                })
                .collect()
        }
        Family::Fleet => {
            let requests = if smoke { 32 } else { 512 };
            let inv = 2;
            let mut specs = Vec::new();
            let sizes: &[usize] = if smoke { &[2] } else { &[2, 4, 8] };
            for &m in sizes {
                specs.push(spec(
                    format!("fleet/machines={m}"),
                    "fleet",
                    &[("machines", m), ("requests", requests)],
                    inv,
                ));
            }
            // Containment rows: one byzantine machine spraying forged
            // frames, and one healthy fleet under seeded NIC faults —
            // both at the mid-size fleet so their tails diff against
            // the healthy `machines=4` row (`machines=3` in smoke).
            let adversarial_size = if smoke { 3 } else { 4 };
            specs.push(spec(
                format!("fleet/byzantine/machines={adversarial_size}"),
                "fleet",
                &[
                    ("machines", adversarial_size),
                    ("requests", requests),
                    ("byzantine", 1),
                ],
                inv,
            ));
            specs.push(spec(
                format!("fleet/faulted/machines={adversarial_size}"),
                "fleet",
                &[
                    ("machines", adversarial_size),
                    ("requests", requests),
                    ("faulted", 1),
                ],
                inv,
            ));
            specs
        }
    }
}

// ---------------------------------------------------------------------
// Child-line protocol
// ---------------------------------------------------------------------

/// Digest over a child's histograms: SHA-256 of each histogram's name
/// and canonical bytes, in name order.
pub fn hists_digest(hists: &[(String, Histogram)]) -> String {
    let mut sorted: Vec<&(String, Histogram)> = hists.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut bytes = Vec::new();
    bytes.extend_from_slice(CHILD_SCHEMA.as_bytes());
    for (name, hist) in sorted {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&hist.canonical_bytes());
    }
    tyche_crypto::hash(&bytes).to_hex()
}

/// Everything one child invocation reports: the artifact row it
/// produced, the deterministic fields the parent asserts across
/// invocations, and its latency histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildLine {
    /// Scenario id (matches the [`ChildSpec`]).
    pub id: String,
    /// Invocation seed this line came from.
    pub seed: u64,
    /// Deterministic fields (simulated-cycle metrics and exact op
    /// counts): the parent errors if any differs between invocations.
    pub det: Vec<(String, u64)>,
    /// The artifact row, pre-percentiles.
    pub row: Json,
    /// Named latency histograms (wall ns).
    pub hists: Vec<(String, Histogram)>,
}

impl ChildLine {
    /// Serialises to the single line the child prints, with the digest
    /// computed over the histograms.
    pub fn emit(&self) -> String {
        let det = Json::Obj(
            self.det
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(v.to_string())))
                .collect(),
        );
        let hists = Json::Obj(
            self.hists
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("schema".into(), Json::Str(CHILD_SCHEMA.into())),
            ("id".into(), Json::Str(self.id.clone())),
            ("seed".into(), Json::Num(self.seed.to_string())),
            ("det".into(), det),
            ("row".into(), self.row.clone()),
            ("hists".into(), hists),
            ("digest".into(), Json::Str(hists_digest(&self.hists))),
        ])
        .to_compact()
    }

    /// Parses a child line and **verifies its digest**: the digest is
    /// recomputed from the parsed histograms and compared to the
    /// claimed one, so a histogram corrupted anywhere between the
    /// child's measurement and the parent's merge is rejected here.
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = json::parse(line.trim())?;
        if doc.get("schema").and_then(Json::as_str) != Some(CHILD_SCHEMA) {
            return Err(format!("not a {CHILD_SCHEMA} line"));
        }
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .ok_or("child line missing id")?
            .to_string();
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("child line missing seed")?;
        let det = doc
            .get("det")
            .and_then(Json::as_obj)
            .ok_or("child line missing det")?
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("det field {k:?} is not a u64"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let row = doc.get("row").ok_or("child line missing row")?.clone();
        let hists = doc
            .get("hists")
            .and_then(Json::as_obj)
            .ok_or("child line missing hists")?
            .iter()
            .map(|(k, v)| Histogram::from_json(v).map(|h| (k.clone(), h)))
            .collect::<Result<Vec<_>, _>>()?;
        let claimed = doc
            .get("digest")
            .and_then(Json::as_str)
            .ok_or("child line missing digest")?;
        let actual = hists_digest(&hists);
        if claimed != actual {
            return Err(format!(
                "child {id:?} seed {seed}: histogram digest mismatch \
                 (claimed {claimed}, recomputed {actual})"
            ));
        }
        Ok(Self {
            id,
            seed,
            det,
            row,
            hists,
        })
    }
}

/// One scenario after merging its invocations: the row from the first
/// invocation, the merged histograms, and the per-child digest records
/// destined for the manifest.
#[derive(Debug, Clone)]
pub struct MergedScenario {
    /// Scenario id.
    pub id: String,
    /// The artifact row (percentiles not yet attached).
    pub row: Json,
    /// Histograms merged across all invocations, in name order.
    pub hists: Vec<(String, Histogram)>,
    /// Identity + digest of every contributing child invocation.
    pub children: Vec<ChildRecord>,
}

/// Merges the invocations of one scenario: verifies they agree on the
/// id and on every deterministic field (a simulated-cycle metric that
/// differs between two runs of the same binary is a determinism bug,
/// not noise), then folds the histograms together.
pub fn merge_invocations(lines: &[ChildLine]) -> Result<MergedScenario, String> {
    let first = lines.first().ok_or("no invocations to merge")?;
    let mut hists = first.hists.clone();
    let mut children = Vec::with_capacity(lines.len());
    children.push(ChildRecord {
        id: format!("{}#seed={}", first.id, first.seed),
        digest: hists_digest(&first.hists),
    });
    for line in &lines[1..] {
        if line.id != first.id {
            return Err(format!(
                "merging mismatched scenarios {:?} and {:?}",
                first.id, line.id
            ));
        }
        if line.det != first.det {
            return Err(format!(
                "scenario {:?}: deterministic fields differ between seed {} ({:?}) \
                 and seed {} ({:?})",
                first.id, first.seed, first.det, line.seed, line.det
            ));
        }
        let names: Vec<&String> = line.hists.iter().map(|(k, _)| k).collect();
        let first_names: Vec<&String> = first.hists.iter().map(|(k, _)| k).collect();
        if names != first_names {
            return Err(format!(
                "scenario {:?}: histogram sets differ across invocations",
                first.id
            ));
        }
        for ((_, merged), (_, h)) in hists.iter_mut().zip(&line.hists) {
            merged.merge_from(h);
        }
        children.push(ChildRecord {
            id: format!("{}#seed={}", line.id, line.seed),
            digest: hists_digest(&line.hists),
        });
    }
    hists.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(MergedScenario {
        id: first.id.clone(),
        row: first.row.clone(),
        hists,
        children,
    })
}

// ---------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------

/// Spawns one child invocation and parses its line.
pub fn run_child(exe: &Path, spec: &ChildSpec, seed: u64) -> Result<ChildLine, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("harness-child")
        .arg(spec.scenario)
        .arg("--id")
        .arg(&spec.id);
    cmd.arg(format!("seed={seed}"));
    for (k, v) in &spec.params {
        cmd.arg(format!("{k}={v}"));
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "child {} seed {seed} exited with {}: {}{}",
            spec.id,
            out.status,
            stdout.trim(),
            stderr.trim()
        ));
    }
    let line = stdout
        .lines()
        .find(|l| {
            l.trim_start()
                .starts_with("{\"schema\": \"tyche-harness-child/")
        })
        .ok_or_else(|| format!("child {} seed {seed} printed no harness line", spec.id))?;
    let parsed = ChildLine::parse(line)?;
    if parsed.id != spec.id {
        return Err(format!(
            "child answered for {:?}, expected {:?}",
            parsed.id, spec.id
        ));
    }
    Ok(parsed)
}

/// One fully-orchestrated suite: merged rows plus the provenance inputs
/// the manifest needs.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Which suite ran.
    pub family: Family,
    /// Whether this was a smoke-sized run.
    pub smoke: bool,
    /// Merged scenarios in artifact row order.
    pub rows: Vec<MergedScenario>,
    /// Seed set handed to the children.
    pub seeds: Vec<u64>,
    /// Canonical configuration string (hashed into the manifest).
    pub config: String,
    /// Nominal invocations per scenario.
    pub invocations: usize,
}

/// Runs every scenario of `family` through child processes of `exe`
/// and merges the results. Prints one progress line per scenario.
pub fn orchestrate(exe: &Path, family: Family, smoke: bool) -> Result<SuiteRun, String> {
    let specs = suite_specs(family, smoke);
    let invocations = specs.iter().map(|s| s.invocations).max().unwrap_or(1);
    let config = canonical_config(family, smoke, &specs);
    let mut rows = Vec::with_capacity(specs.len());
    let total = specs.len();
    for (i, spec) in specs.iter().enumerate() {
        let lines = (1..=spec.invocations as u64)
            .map(|seed| run_child(exe, spec, seed))
            .collect::<Result<Vec<_>, _>>()?;
        let merged = merge_invocations(&lines)?;
        let summary = merged
            .hists
            .first()
            .map(|(name, h)| {
                format!(
                    "{name}: p50={} p99={} p999={} max={} ns over {} samples",
                    h.percentile(0.50),
                    h.percentile(0.99),
                    h.percentile(0.999),
                    h.max_ns(),
                    h.count()
                )
            })
            .unwrap_or_else(|| "no histogram".into());
        println!(
            "harness [{}/{}] {} x{} — {}",
            i + 1,
            total,
            spec.id,
            spec.invocations,
            summary
        );
        rows.push(merged);
    }
    Ok(SuiteRun {
        family,
        smoke,
        rows,
        seeds: (1..=invocations as u64).collect(),
        config,
        invocations,
    })
}

/// The canonical configuration string hashed into the manifest: suite,
/// mode, and every scenario with its parameters.
pub fn canonical_config(family: Family, smoke: bool, specs: &[ChildSpec]) -> String {
    let mut s = format!("suite={} smoke={smoke}", family.name());
    for spec in specs {
        s.push_str("; ");
        s.push_str(&spec.id);
        for (k, v) in &spec.params {
            s.push_str(&format!(" {k}={v}"));
        }
        s.push_str(&format!(" x{}", spec.invocations));
    }
    s
}

// ---------------------------------------------------------------------
// Artifact assembly
// ---------------------------------------------------------------------

/// Percentile summary of one merged histogram, as embedded per row.
pub fn latency_json(h: &Histogram) -> Json {
    Json::Obj(vec![
        ("p50".into(), Json::Num(h.percentile(0.50).to_string())),
        ("p99".into(), Json::Num(h.percentile(0.99).to_string())),
        ("p999".into(), Json::Num(h.percentile(0.999).to_string())),
        ("max".into(), Json::Num(h.max_ns().to_string())),
        ("mean".into(), Json::Num(h.mean_ns().to_string())),
        ("samples".into(), Json::Num(h.count().to_string())),
    ])
}

/// Attaches the percentile field(s) to a row: hotpath rows get
/// `"latency"` (one histogram named `op`), smp rows get
/// `"call_latency"` (one histogram named `call`), scale rows get a
/// `"percentiles"` map over their storm histograms.
fn row_with_percentiles(family: Family, merged: &MergedScenario) -> Json {
    let mut members = match &merged.row {
        Json::Obj(m) => m.clone(),
        other => vec![("row".into(), other.clone())],
    };
    match family {
        Family::Hotpath | Family::Smp => {
            let key = if family == Family::Hotpath {
                "latency"
            } else {
                "call_latency"
            };
            if let Some((_, h)) = merged.hists.first() {
                members.push((key.into(), latency_json(h)));
            }
        }
        Family::Scale => {
            let map = merged
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), latency_json(h)))
                .collect();
            members.push(("percentiles".into(), Json::Obj(map)));
        }
        Family::Fleet => {
            // Attested requests/sec is derived here, from the *merged*
            // request histogram, so it reflects every invocation rather
            // than whichever child's row came first.
            if let Some((_, h)) = merged.hists.first() {
                members.push(("latency".into(), latency_json(h)));
                let mean = h.mean_ns().max(1);
                members.push((
                    "attested_rps".into(),
                    Json::Num(format!("{:.1}", 1e9 / mean as f64)),
                ));
            }
        }
    }
    Json::Obj(members)
}

fn manifest_block(m: &Manifest) -> String {
    let seeds = Json::Arr(m.seeds.iter().map(|s| Json::Num(s.to_string())).collect());
    let children = m
        .children
        .iter()
        .map(|c| {
            format!(
                "      {}",
                Json::Obj(vec![
                    ("id".into(), Json::Str(c.id.clone())),
                    ("digest".into(), Json::Str(c.digest.clone())),
                ])
                .to_compact()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "  \"manifest\": {{\n    \"generator\": \"{}\",\n    \"git_hash\": \"{}\",\n    \
         \"git_dirty\": {},\n    \"seeds\": {},\n    \"config_hash\": \"{}\",\n    \
         \"invocations\": {},\n    \"host\": {},\n    \"children\": [\n{}\n    ]\n  }}",
        m.generator,
        m.git_hash,
        m.git_dirty,
        seeds.to_compact(),
        m.config_hash,
        m.invocations,
        m.host.to_json().to_compact(),
        children
    )
}

fn f64_field(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Assembles the final artifact document for an orchestrated run,
/// stamped with generator `"harness"`; `root` anchors the git queries
/// for the manifest.
pub fn assemble_artifact(run: &SuiteRun, monitor_version: &str, root: &Path) -> String {
    let children: Vec<ChildRecord> = run
        .rows
        .iter()
        .flat_map(|r| r.children.iter().cloned())
        .collect();
    let manifest = Manifest::capture(
        root,
        "harness",
        run.seeds.clone(),
        &run.config,
        run.invocations,
        children,
    );
    let rows = run
        .rows
        .iter()
        .map(|r| format!("    {}", row_with_percentiles(run.family, r).to_compact()))
        .collect::<Vec<_>>()
        .join(",\n");
    let mode = if run.smoke { "smoke" } else { "full" };
    let mut head = format!(
        "{{\n  \"schema\": \"{}\",\n  \"mode\": \"{mode}\",\n  \
         \"monitor_version\": \"{monitor_version}\",\n",
        run.family.schema()
    );
    match run.family {
        Family::Hotpath => {}
        Family::Smp => {
            // Headline stats, computed from the merged rows.
            let distinct: Vec<&MergedScenario> = run
                .rows
                .iter()
                .filter(|r| r.id.starts_with("smp/hypercalls_distinct/"))
                .collect();
            if let (Some(first), Some(last)) = (distinct.first(), distinct.last()) {
                let scaling = f64_field(&last.row, "smp_tput")
                    / f64_field(&first.row, "smp_tput").max(f64::MIN_POSITIVE);
                head.push_str(&format!("  \"distinct_scaling\": {scaling:.2},\n"));
                head.push_str(&format!(
                    "  \"distinct_vs_baseline\": {:.2},\n",
                    f64_field(&last.row, "speedup")
                ));
            }
            if let Some(ring) = run
                .rows
                .iter()
                .rfind(|r| r.id.starts_with("smp/hypercalls_contended_ring/"))
            {
                head.push_str(&format!(
                    "  \"contended_ring_vs_baseline\": {:.2},\n",
                    f64_field(&ring.row, "speedup")
                ));
            }
        }
        Family::Scale => {
            head.push_str("  \"neighbors\": 64,\n");
        }
        Family::Fleet => {
            // Headline containment number: the byzantine row's healthy-
            // pair p99 over the same-size healthy fleet's p99. The
            // artifact check caps it at 2x.
            let p99_of = |r: &MergedScenario| {
                r.hists
                    .first()
                    .map(|(_, h)| h.percentile(0.99))
                    .unwrap_or(0)
            };
            let byz = run
                .rows
                .iter()
                .find(|r| r.id.starts_with("fleet/byzantine/"));
            if let Some(byz) = byz {
                let size = byz.id.rsplit('=').next().unwrap_or("");
                let healthy = run
                    .rows
                    .iter()
                    .find(|r| r.id == format!("fleet/machines={size}"));
                if let Some(healthy) = healthy {
                    let ratio =
                        p99_of(byz) as f64 / (p99_of(healthy) as f64).max(f64::MIN_POSITIVE);
                    head.push_str(&format!("  \"byzantine_p99_ratio\": {ratio:.2},\n"));
                }
            }
        }
    }
    format!(
        "{head}{},\n  \"{}\": [\n{rows}\n  ]\n}}\n",
        manifest_block(&manifest),
        run.family.rows_key()
    )
}

// ---------------------------------------------------------------------
// Artifact writing (smoke-clobber protection)
// ---------------------------------------------------------------------

/// Refuses to let a smoke-sized run overwrite a committed full-run
/// artifact: if `path` exists and holds a `"mode": "full"` document,
/// writing smoke output there is an error, `--out` or not.
pub fn refuse_smoke_clobber(path: &Path) -> Result<(), String> {
    if let Ok(existing) = std::fs::read_to_string(path) {
        if existing.contains("\"mode\": \"full\"") {
            return Err(format!(
                "refusing to overwrite {} — it holds a full-run artifact and this \
                 is a smoke run (pick a different --out path)",
                path.display()
            ));
        }
    }
    Ok(())
}

/// Writes an artifact document, applying [`refuse_smoke_clobber`] when
/// the run was smoke-sized.
pub fn write_artifact(path: &Path, doc: &str, smoke: bool) -> Result<(), String> {
    if smoke {
        refuse_smoke_clobber(path)?;
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, doc).map_err(|e| format!("write {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// `repro report` — run-to-run diff
// ---------------------------------------------------------------------

/// How a metric is gated: a bigger value is worse or better past the
/// threshold, or (for deterministic model output) any change at all
/// fails.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Gate {
    LowerIsBetter,
    HigherIsBetter,
    /// Simulated-model output that is a pure function of the code: any
    /// difference is a failure, whatever the threshold. Gated only on
    /// rows whose threads never interleave on a shared clock
    /// ([`deterministic_row`]).
    Exact,
}

/// Which clock a metric reads. Host wall-clock figures from smoke runs
/// (64–128 samples) swing ±20% between identical builds, so a diff
/// involving a smoke artifact prints them as information only.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Clock {
    /// Simulated cycles or counts.
    Model,
    /// Host wall-clock time.
    Host,
    /// Whatever the row's `metric` names (`wall_*` is host time).
    RowMetric,
}

struct MetricSpec {
    path: &'static str,
    gate: Gate,
    clock: Clock,
}

const fn metric(path: &'static str, gate: Gate, clock: Clock) -> MetricSpec {
    MetricSpec { path, gate, clock }
}

const HOTPATH_METRICS: &[MetricSpec] = &[
    metric("after", Gate::LowerIsBetter, Clock::RowMetric),
    metric("latency.p50", Gate::LowerIsBetter, Clock::Host),
    metric("latency.p99", Gate::LowerIsBetter, Clock::Host),
    metric("detail.grant_work", Gate::Exact, Clock::Model),
    metric("detail.revoke_work", Gate::Exact, Clock::Model),
    metric("detail.grant_cycles", Gate::Exact, Clock::Model),
    metric("detail.revoke_cycles", Gate::Exact, Clock::Model),
];
const SMP_METRICS: &[MetricSpec] = &[
    metric("ops", Gate::Exact, Clock::Model),
    metric("smp_cycles", Gate::Exact, Clock::Model),
    metric("detail.ipis_sent", Gate::Exact, Clock::Model),
    metric("detail.ring_batches", Gate::Exact, Clock::Model),
    metric("detail.shard_waits", Gate::Exact, Clock::Model),
    metric("smp_tput", Gate::HigherIsBetter, Clock::Model),
    metric("call_latency.p99", Gate::LowerIsBetter, Clock::Host),
];
const FLEET_METRICS: &[MetricSpec] = &[
    metric("channels", Gate::Exact, Clock::Model),
    metric("accepted", Gate::Exact, Clock::Model),
    metric("violations", Gate::Exact, Clock::Model),
    metric("quarantined", Gate::Exact, Clock::Model),
    metric("refused", Gate::Exact, Clock::Model),
    metric("attested_rps", Gate::HigherIsBetter, Clock::Host),
    metric("latency.p50", Gate::LowerIsBetter, Clock::Host),
    metric("latency.p99", Gate::LowerIsBetter, Clock::Host),
];
const SCALE_METRICS: &[MetricSpec] = &[
    metric("create_ns_per_op", Gate::LowerIsBetter, Clock::Host),
    metric("enter_ns_per_op", Gate::LowerIsBetter, Clock::Host),
    metric("neighbor.caps_of_ns", Gate::LowerIsBetter, Clock::Host),
    metric("neighbor.enumerate_ns", Gate::LowerIsBetter, Clock::Host),
    metric("neighbor.refcount_ns", Gate::LowerIsBetter, Clock::Host),
    metric("revoke_storm_ns_per_op", Gate::LowerIsBetter, Clock::Host),
    metric("bytes_per_domain", Gate::Exact, Clock::Model),
];

/// True for rows whose model output cannot depend on how the host
/// interleaves threads: every hot-path, scale and fleet row (each is
/// driven by one thread from a fixed seed), and SMP rows
/// with a single thread, fast transitions (no shard
/// clock), distinct-domain calls with at most one thread per shard, and
/// ring rows whose threads each drain exactly one batch (identical
/// batches commute). Serve-per-call contention on one domain, distinct
/// threads folded onto shared shards, and ring rows with several
/// batches per thread race on a shard clock — two full runs of one
/// build differ there — so those rows keep only the threshold gates.
fn deterministic_row(family: Family, row: &Json) -> bool {
    if family != Family::Smp {
        return true;
    }
    let field = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
    let workload = row.get("workload").and_then(Json::as_str).unwrap_or("");
    let (threads, shards) = (field("threads"), field("shards"));
    threads == 1
        || workload.starts_with("transitions")
        || (workload.starts_with("hypercalls_distinct") && threads <= shards)
        || (workload.contains("_ring") && field("ops") <= threads * field("ring_depth"))
}

/// A bench family as identified by an artifact's schema string,
/// version-agnostically (v1 artifacts remain diffable against v2).
fn family_of_schema(schema: &str) -> Option<Family> {
    let base = schema.split('/').next().unwrap_or(schema);
    match base {
        "tyche-bench-hotpath" => Some(Family::Hotpath),
        "tyche-bench-smp" => Some(Family::Smp),
        "tyche-bench-scale" => Some(Family::Scale),
        "tyche-bench-fleet" => Some(Family::Fleet),
        _ => None,
    }
}

fn row_key(family: Family, row: &Json) -> String {
    match family {
        Family::Hotpath => match row.get("arch").and_then(Json::as_str) {
            Some(arch) => format!(
                "{}/{arch}/ram_mib={}",
                row.get("name").and_then(Json::as_str).unwrap_or("?"),
                row.get("ram_mib").and_then(Json::as_u64).unwrap_or(0)
            ),
            None => format!(
                "{}/fanout={}",
                row.get("name").and_then(Json::as_str).unwrap_or("?"),
                row.get("fanout").and_then(Json::as_u64).unwrap_or(0)
            ),
        },
        Family::Smp => format!(
            "{}/t{}/s{}/r{}",
            row.get("workload").and_then(Json::as_str).unwrap_or("?"),
            row.get("threads").and_then(Json::as_u64).unwrap_or(0),
            row.get("shards").and_then(Json::as_u64).unwrap_or(0),
            row.get("ring_depth").and_then(Json::as_u64).unwrap_or(0)
        ),
        Family::Scale => format!(
            "population={}",
            row.get("population").and_then(Json::as_u64).unwrap_or(0)
        ),
        Family::Fleet => format!(
            "machines={}/byzantine={}/faulted={}",
            row.get("machines").and_then(Json::as_u64).unwrap_or(0),
            row.get("byzantine").and_then(Json::as_u64).unwrap_or(0),
            row.get("faulted").and_then(Json::as_u64).unwrap_or(0)
        ),
    }
}

/// Result of a `repro report` diff.
#[derive(Debug, Clone)]
pub struct ReportOutcome {
    /// Metrics compared (present on both sides).
    pub compared: usize,
    /// `row/metric` labels that regressed beyond the threshold.
    pub regressions: Vec<String>,
    /// Metrics that improved beyond the threshold.
    pub improvements: usize,
    /// Rows present on only one side (informational, not a failure —
    /// schema evolution adds and removes rows).
    pub unmatched: usize,
    /// Host wall-clock metrics printed but not gated, because one side
    /// is a smoke artifact.
    pub informational: usize,
}

/// Diffs two bench artifacts of the same family, printing a table and
/// flagging any metric that moved in the bad direction by more than
/// `threshold_pct` percent. The caller turns a non-empty
/// `regressions` list into a non-zero exit.
pub fn report_diff(old: &Json, new: &Json, threshold_pct: f64) -> Result<ReportOutcome, String> {
    let old_schema = old
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("old artifact has no schema")?;
    let new_schema = new
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("new artifact has no schema")?;
    let family = family_of_schema(old_schema)
        .ok_or_else(|| format!("unknown artifact schema {old_schema:?}"))?;
    if family_of_schema(new_schema) != Some(family) {
        return Err(format!(
            "cannot diff {old_schema:?} against {new_schema:?}: different bench families"
        ));
    }
    let metrics = match family {
        Family::Hotpath => HOTPATH_METRICS,
        Family::Smp => SMP_METRICS,
        Family::Scale => SCALE_METRICS,
        Family::Fleet => FLEET_METRICS,
    };
    let rows_of = |doc: &Json| -> Vec<Json> {
        doc.get(family.rows_key())
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let old_rows = rows_of(old);
    let new_rows = rows_of(new);
    let smoke = [old, new]
        .iter()
        .any(|d| d.get("mode").and_then(Json::as_str) == Some("smoke"));
    let host = |doc: &Json| Some(Manifest::parse(doc.get("manifest")?).ok()?.host);
    if let (Some(o), Some(n)) = (host(old), host(new)) {
        if o.differs_from(&n) {
            println!(
                "hosts differ: old ran on {o}, new on {n} — host-clock deltas mix host and code"
            );
        }
    }

    let mut t = Table::new(
        &format!(
            "REPORT — {} ({old_schema} -> {new_schema}), regression threshold {threshold_pct}%",
            family.name()
        ),
        &["row", "metric", "old", "new", "delta", "verdict"],
    );
    let mut outcome = ReportOutcome {
        compared: 0,
        regressions: Vec::new(),
        improvements: 0,
        unmatched: 0,
        informational: 0,
    };
    let mut matched_new: BTreeSet<usize> = BTreeSet::new();
    for old_row in &old_rows {
        let key = row_key(family, old_row);
        let Some((new_idx, new_row)) = new_rows
            .iter()
            .enumerate()
            .find(|(_, r)| row_key(family, r) == key)
        else {
            outcome.unmatched += 1;
            t.row(&[
                key,
                "-".into(),
                "-".into(),
                "absent".into(),
                "-".into(),
                "unmatched".into(),
            ]);
            continue;
        };
        matched_new.insert(new_idx);
        for metric in metrics {
            if metric.gate == Gate::Exact && !deterministic_row(family, old_row) {
                continue;
            }
            let (Some(o), Some(n)) = (
                old_row.path(metric.path).and_then(Json::as_f64),
                new_row.path(metric.path).and_then(Json::as_f64),
            ) else {
                continue; // metric absent on one side (e.g. v1 has no percentiles)
            };
            let host = match metric.clock {
                Clock::Model => false,
                Clock::Host => true,
                Clock::RowMetric => old_row
                    .get("metric")
                    .and_then(Json::as_str)
                    .is_some_and(|m| m.starts_with("wall")),
            };
            // Signed percentage move in the *bad* direction.
            let base = o.abs().max(f64::MIN_POSITIVE);
            let delta = match metric.gate {
                Gate::LowerIsBetter | Gate::Exact => (n - o) * 100.0 / base,
                Gate::HigherIsBetter => (o - n) * 100.0 / base,
            };
            let verdict = if host && smoke {
                outcome.informational += 1;
                "info (smoke)"
            } else {
                outcome.compared += 1;
                if metric.gate == Gate::Exact {
                    if o == n {
                        "exact"
                    } else {
                        outcome.regressions.push(format!("{key}/{}", metric.path));
                        "CHANGED"
                    }
                } else if delta > threshold_pct {
                    outcome.regressions.push(format!("{key}/{}", metric.path));
                    "REGRESSED"
                } else if delta < -threshold_pct {
                    outcome.improvements += 1;
                    "improved"
                } else {
                    "ok"
                }
            };
            t.row(&[
                key.clone(),
                metric.path.into(),
                format!("{o:.2}"),
                format!("{n:.2}"),
                format!("{delta:+.1}%"),
                verdict.into(),
            ]);
        }
    }
    outcome.unmatched += new_rows.len() - matched_new.len();
    t.print();
    println!(
        "report: {} metrics compared, {} regressed, {} improved, {} unmatched rows, \
         {} host-clock metrics informational (smoke)",
        outcome.compared,
        outcome.regressions.len(),
        outcome.improvements,
        outcome.unmatched,
        outcome.informational
    );
    Ok(outcome)
}

// ---------------------------------------------------------------------
// `repro report --check` — the one committed-artifact gate
// ---------------------------------------------------------------------

fn check_manifest(doc: &Json, failures: &mut Vec<String>) {
    let Some(m) = doc.get("manifest") else {
        failures.push("missing manifest".into());
        return;
    };
    match Manifest::parse(m) {
        Err(e) => failures.push(format!("malformed manifest: {e}")),
        Ok(m) => {
            if m.generator != "harness" {
                failures.push(format!(
                    "generator is {:?} — committed bench artifacts must come from \
                     `repro harness`, not in-process runs",
                    m.generator
                ));
            }
            if m.host.cores == 0 {
                failures.push("manifest host has zero cores".into());
            }
            if m.children.is_empty() {
                failures.push("manifest records no child invocations".into());
            }
        }
    }
}

fn check_mode_full(doc: &Json, failures: &mut Vec<String>) {
    if doc.get("mode").and_then(Json::as_str) != Some("full") {
        failures.push("mode is not \"full\" — smoke output must not be committed".into());
    }
}

fn check_rows_have(rows: &[Json], path: &str, failures: &mut Vec<String>, family: Family) {
    for row in rows {
        if row.path(path).is_none() {
            failures.push(format!("row {} missing {path}", row_key(family, row)));
        }
    }
}

/// Validates one committed artifact: schema is current, the run is a
/// full one, the manifest is present and harness-generated, and the
/// family-specific row requirements hold (the union of what the six
/// retired CI greps checked, plus the percentile fields). Returns the
/// list of failures, empty on success.
pub fn check_artifact(doc: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(schema) = doc.get("schema").and_then(Json::as_str) else {
        return vec!["artifact has no schema field".into()];
    };
    match schema {
        "tyche-bench-hotpath/v2" => {
            check_mode_full(doc, &mut failures);
            check_manifest(doc, &mut failures);
            let rows = doc.get("benches").and_then(Json::as_arr).unwrap_or(&[]);
            for name in [
                "revocation",
                "transitions",
                "flush_policy",
                "capability_ops",
                "grant_revoke",
            ] {
                if !rows
                    .iter()
                    .any(|r| r.get("name").and_then(Json::as_str) == Some(name))
                {
                    failures.push(format!("bench {name:?} missing"));
                }
            }
            check_rows_have(rows, "latency.p50", &mut failures, Family::Hotpath);
            check_rows_have(rows, "latency.p999", &mut failures, Family::Hotpath);
        }
        "tyche-bench-smp/v3" => {
            check_mode_full(doc, &mut failures);
            check_manifest(doc, &mut failures);
            let rows = doc.get("benches").and_then(Json::as_arr).unwrap_or(&[]);
            for wl in [
                "hypercalls_distinct",
                "hypercalls_contended",
                "hypercalls_contended_ring",
                "hypercalls_distinct_shards",
                "hypercalls_contended_ringdepth",
                "transitions_distinct",
            ] {
                if !rows
                    .iter()
                    .any(|r| r.get("workload").and_then(Json::as_str) == Some(wl))
                {
                    failures.push(format!("workload {wl:?} missing"));
                }
            }
            for key in [
                "distinct_scaling",
                "distinct_vs_baseline",
                "contended_ring_vs_baseline",
            ] {
                if doc.get(key).is_none() {
                    failures.push(format!("headline field {key:?} missing"));
                }
            }
            check_rows_have(rows, "call_latency.p50", &mut failures, Family::Smp);
            // The IPI tripwire the old grep gate carried: contended rows
            // with zero IPIs mean the victim-core design silently broke.
            for row in rows {
                let wl = row.get("workload").and_then(Json::as_str).unwrap_or("");
                if wl.starts_with("hypercalls_contended")
                    && row.path("detail.ipis_sent").and_then(Json::as_u64) == Some(0)
                {
                    failures.push(format!(
                        "row {} lost its IPIs (detail.ipis_sent == 0 on a contended workload)",
                        row_key(Family::Smp, row)
                    ));
                }
            }
        }
        "tyche-bench-scale/v2" => {
            check_mode_full(doc, &mut failures);
            check_manifest(doc, &mut failures);
            let rows = doc.get("populations").and_then(Json::as_arr).unwrap_or(&[]);
            if !rows
                .iter()
                .any(|r| r.get("population").and_then(Json::as_u64) == Some(1_000_000))
            {
                failures.push("sweep does not reach the 1M-domain population".into());
            }
            check_rows_have(rows, "bytes_per_domain", &mut failures, Family::Scale);
            check_rows_have(rows, "percentiles.create.p50", &mut failures, Family::Scale);
            check_rows_have(
                rows,
                "percentiles.revoke_storm.p999",
                &mut failures,
                Family::Scale,
            );
        }
        "tyche-bench-fleet/v1" => {
            check_mode_full(doc, &mut failures);
            check_manifest(doc, &mut failures);
            let rows = doc.get("fleets").and_then(Json::as_arr).unwrap_or(&[]);
            let healthy = |r: &&Json| {
                r.get("byzantine").and_then(Json::as_u64).unwrap_or(0) == 0
                    && r.get("faulted").and_then(Json::as_u64).unwrap_or(0) == 0
            };
            for m in [2u64, 4, 8] {
                if !rows
                    .iter()
                    .filter(healthy)
                    .any(|r| r.get("machines").and_then(Json::as_u64) == Some(m))
                {
                    failures.push(format!("healthy fleet row machines={m} missing"));
                }
            }
            check_rows_have(rows, "latency.p50", &mut failures, Family::Fleet);
            check_rows_have(rows, "latency.p999", &mut failures, Family::Fleet);
            check_rows_have(rows, "attested_rps", &mut failures, Family::Fleet);
            // Containment: the byzantine machine must be quarantined by
            // every honest peer, and the healthy pairs' tail latency
            // must stay within 2x of the same-size healthy fleet.
            let byz = rows
                .iter()
                .find(|r| r.get("byzantine").and_then(Json::as_u64) == Some(1));
            match byz {
                None => failures.push("byzantine containment row missing".into()),
                Some(byz) => {
                    let machines = byz.get("machines").and_then(Json::as_u64).unwrap_or(0);
                    let quarantined = byz.get("quarantined").and_then(Json::as_u64).unwrap_or(0);
                    if quarantined < machines.saturating_sub(1) {
                        failures.push(format!(
                            "byzantine row: only {quarantined} of {} honest peers \
                             quarantined the byzantine machine",
                            machines.saturating_sub(1)
                        ));
                    }
                    let peer = rows
                        .iter()
                        .filter(healthy)
                        .find(|r| r.get("machines").and_then(Json::as_u64) == Some(machines));
                    if let Some(peer) = peer {
                        let b = f64_field(byz, "latency.p99");
                        let h = f64_field(peer, "latency.p99").max(f64::MIN_POSITIVE);
                        if b / h >= 2.0 {
                            failures.push(format!(
                                "byzantine row: healthy-pair p99 degraded {:.2}x \
                                 (containment bound is < 2x)",
                                b / h
                            ));
                        }
                    }
                }
            }
            if !rows
                .iter()
                .any(|r| r.get("faulted").and_then(Json::as_u64) == Some(1))
            {
                failures.push("faulted-NIC fleet row missing".into());
            }
        }
        "tyche-static/v1" => {
            if doc.get("pass").and_then(Json::as_bool) != Some(true) {
                failures.push("static audit did not pass".into());
            }
            check_c1(doc, &mut failures);
        }
        "tyche-fuzz/v1" => {
            check_mode_full(doc, &mut failures);
            if doc.get("pass").and_then(Json::as_bool) != Some(true) {
                failures.push("fuzz campaign did not pass".into());
            }
        }
        "tyche-trace/v1" => {
            check_mode_full(doc, &mut failures);
            if doc.get("pass").and_then(Json::as_bool) != Some(true) {
                failures.push("trace campaign did not pass".into());
            }
            if doc.get("overhead_gate").and_then(Json::as_bool) != Some(true) {
                failures.push("tracing-overhead gate did not pass".into());
            }
        }
        "tyche-bench-hotpath/v1"
        | "tyche-bench-scale/v1"
        | "tyche-bench-smp/v1"
        | "tyche-bench-smp/v2" => {
            failures.push(format!(
                "schema {schema:?} is superseded — regenerate through `repro harness`"
            ));
        }
        other => failures.push(format!("unknown artifact schema {other:?}")),
    }
    failures
}

/// The paper's Claim 1 bound: the TCB is "less than 10K lines".
const C1_BOUND: u64 = 10_000;

/// `STATIC.json`'s C1 block: per-file lines that sum to the total, and
/// a total below [`C1_BOUND`].
fn check_c1(doc: &Json, failures: &mut Vec<String>) {
    let c1 = doc.get("c1");
    let total = c1.and_then(|c| c.get("total")).and_then(Json::as_u64);
    let files = c1.and_then(|c| c.get("files")).and_then(Json::as_arr);
    let (Some(total), Some(files)) = (total, files) else {
        failures.push("no c1 block with per-file lines and a total".into());
        return;
    };
    let lines: Option<Vec<u64>> = files
        .iter()
        .map(|f| f.get("lines").and_then(Json::as_u64))
        .collect();
    match lines.map(|l| l.iter().sum::<u64>()) {
        None => failures.push("a c1 file row has no lines count".into()),
        Some(sum) if sum != total => failures.push(format!(
            "c1 per-file lines sum to {sum}, but the total says {total}"
        )),
        Some(_) => {}
    }
    if total >= C1_BOUND {
        failures.push(format!(
            "C1 is {total} lines, not below the {C1_BOUND}-line claim"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_line(seed: u64) -> ChildLine {
        let mut h = Histogram::new();
        for v in [40u64, 45, 52, 300, 8_000] {
            for _ in 0..=seed {
                h.record(v); // different counts per seed
            }
        }
        ChildLine {
            id: "hotpath/transitions".into(),
            seed,
            det: vec![("fast_cycles".into(), 100), ("mediated_cycles".into(), 1340)],
            row: json::parse(
                r#"{"name": "transitions", "fanout": 1, "before": 70, "after": 44, "detail": {"mediated_cycles": 1340, "fast_cycles": 100}}"#,
            )
            .unwrap(),
            hists: vec![("op".into(), h)],
        }
    }

    #[test]
    fn child_line_roundtrips() {
        let line = sample_line(1);
        let parsed = ChildLine::parse(&line.emit()).unwrap();
        assert_eq!(line, parsed);
    }

    #[test]
    fn tampered_digest_is_rejected() {
        let emitted = sample_line(1).emit();
        let tampered = emitted.replacen("\"digest\": \"", "\"digest\": \"00", 1);
        let err = ChildLine::parse(&tampered).unwrap_err();
        assert!(err.contains("digest mismatch"), "unexpected error: {err}");
    }

    #[test]
    fn tampered_histogram_is_rejected_by_digest() {
        // Shift the histogram min by one: bucket counts still sum
        // correctly (so Histogram::from_json accepts it), but the
        // canonical bytes change and the digest no longer matches.
        let emitted = sample_line(1).emit();
        let tampered = emitted.replacen("\"min\": 40", "\"min\": 39", 1);
        assert_ne!(emitted, tampered, "tamper target not found");
        let err = ChildLine::parse(&tampered).unwrap_err();
        assert!(err.contains("digest mismatch"), "unexpected error: {err}");
    }

    #[test]
    fn merge_folds_histograms_and_records_digests() {
        let a = sample_line(1);
        let b = sample_line(2);
        let merged = merge_invocations(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.children.len(), 2);
        assert_eq!(merged.children[0].digest, hists_digest(&a.hists));
        assert_eq!(merged.children[1].digest, hists_digest(&b.hists));
        let total = merged.hists[0].1.count();
        assert_eq!(total, a.hists[0].1.count() + b.hists[0].1.count());
    }

    #[test]
    fn merge_rejects_deterministic_drift() {
        let a = sample_line(1);
        let mut b = sample_line(2);
        b.det[0].1 = 101; // a simulated-cycle metric that moved
        let err = merge_invocations(&[a, b]).unwrap_err();
        assert!(
            err.contains("deterministic fields differ"),
            "unexpected error: {err}"
        );
    }

    fn hotpath_doc(after: u64, p99: u64) -> Json {
        json::parse(&format!(
            r#"{{"schema": "tyche-bench-hotpath/v2", "mode": "full", "benches": [
                {{"name": "transitions", "fanout": 1, "before": 70, "after": {after},
                  "latency": {{"p50": 45, "p99": {p99}, "p999": 200, "max": 900, "mean": 50, "samples": 1000}}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn report_flags_regressions_beyond_threshold_only() {
        let old = hotpath_doc(44, 90);
        // +50% on `after`: regression at a 10% threshold.
        let out = report_diff(&old, &hotpath_doc(66, 90), 10.0).unwrap();
        assert_eq!(
            out.regressions,
            vec!["transitions/fanout=1/after".to_string()]
        );
        // +5% stays under a 10% threshold.
        let out = report_diff(&old, &hotpath_doc(46, 92), 10.0).unwrap();
        assert!(out.regressions.is_empty());
        // An improvement is never a regression.
        let out = report_diff(&old, &hotpath_doc(30, 60), 10.0).unwrap();
        assert!(out.regressions.is_empty());
        assert!(out.improvements >= 1);
    }

    #[test]
    fn report_gates_fleet_census_and_scale_footprint_exactly() {
        let fleet = |accepted: u64| {
            json::parse(&format!(
                r#"{{"schema": "tyche-bench-fleet/v1", "mode": "full", "fleets": [
                    {{"machines": 4, "byzantine": 0, "faulted": 1, "channels": 6,
                      "accepted": {accepted}, "violations": 123, "quarantined": 3, "refused": 120}}
                ]}}"#
            ))
            .unwrap()
        };
        let out = report_diff(&fleet(269), &fleet(269), 10.0).unwrap();
        assert_eq!((out.compared, out.regressions.len()), (5, 0));
        let out = report_diff(&fleet(269), &fleet(270), 1000.0).unwrap();
        assert_eq!(
            out.regressions,
            vec!["machines=4/byzantine=0/faulted=1/accepted".to_string()]
        );
        let scale = |bytes: u64| {
            json::parse(&format!(
                r#"{{"schema": "tyche-bench-scale/v2", "mode": "full", "populations": [
                    {{"population": 1000, "bytes_per_domain": {bytes}}}
                ]}}"#
            ))
            .unwrap()
        };
        let out = report_diff(&scale(783), &scale(782), 1000.0).unwrap();
        assert_eq!(
            out.regressions,
            vec!["population=1000/bytes_per_domain".to_string()]
        );
    }

    #[test]
    fn report_rejects_cross_family_diffs() {
        let hot = hotpath_doc(44, 90);
        let scale =
            json::parse(r#"{"schema": "tyche-bench-scale/v2", "mode": "full", "populations": []}"#)
                .unwrap();
        assert!(report_diff(&hot, &scale, 10.0).is_err());
    }

    #[test]
    fn check_rejects_smoke_missing_manifest_and_old_schemas() {
        let smoke =
            json::parse(r#"{"schema": "tyche-bench-hotpath/v2", "mode": "smoke", "benches": []}"#)
                .unwrap();
        let failures = check_artifact(&smoke);
        assert!(failures.iter().any(|f| f.contains("smoke")), "{failures:?}");
        assert!(
            failures.iter().any(|f| f.contains("manifest")),
            "{failures:?}"
        );

        let old = json::parse(r#"{"schema": "tyche-bench-hotpath/v1", "mode": "full"}"#).unwrap();
        assert!(check_artifact(&old)[0].contains("superseded"));
    }

    #[test]
    fn check_accepts_passing_campaign_artifacts() {
        let fuzz =
            json::parse(r#"{"schema": "tyche-fuzz/v1", "mode": "full", "pass": true}"#).unwrap();
        assert!(check_artifact(&fuzz).is_empty());
        let trace = json::parse(
            r#"{"schema": "tyche-trace/v1", "mode": "full", "pass": true, "overhead_gate": false}"#,
        )
        .unwrap();
        assert!(check_artifact(&trace)
            .iter()
            .any(|f| f.contains("overhead")));
    }

    #[test]
    fn static_check_gates_the_c1_ledger() {
        let doc = |total: u64, lines: [u64; 2]| {
            json::parse(&format!(
                r#"{{"schema": "tyche-static/v1", "pass": true, "c1": {{"total": {total}, "files": [
                    {{"file": "crates/core/src/a.rs", "lines": {}}},
                    {{"file": "crates/monitor/src/b.rs", "lines": {}}}]}}}}"#,
                lines[0], lines[1]
            ))
            .unwrap()
        };
        assert!(check_artifact(&doc(7_000, [4_000, 3_000])).is_empty());
        let off = check_artifact(&doc(7_001, [4_000, 3_000]));
        assert!(off.iter().any(|f| f.contains("sum to 7000")), "{off:?}");
        let over = check_artifact(&doc(10_000, [6_000, 4_000]));
        assert!(over.iter().any(|f| f.contains("10000 lines")), "{over:?}");
        let bare = json::parse(r#"{"schema": "tyche-static/v1", "pass": true}"#).unwrap();
        let missing = check_artifact(&bare);
        assert!(
            missing.iter().any(|f| f.contains("no c1 block")),
            "{missing:?}"
        );
    }

    #[test]
    fn smoke_clobber_is_refused() {
        let dir = std::env::temp_dir().join(format!("tyche-harness-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_full.json");
        std::fs::write(&path, "{\n  \"mode\": \"full\"\n}\n").unwrap();
        let err = write_artifact(&path, "{}", true).unwrap_err();
        assert!(
            err.contains("refusing to overwrite"),
            "unexpected error: {err}"
        );
        // Full runs may replace full artifacts; smoke may write fresh paths.
        write_artifact(&path, "{\n  \"mode\": \"full\"\n}\n", false).unwrap();
        write_artifact(&dir.join("fresh.smoke.json"), "{}", true).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn suite_specs_cover_the_artifact_matrices() {
        assert_eq!(suite_specs(Family::Hotpath, false).len(), 16);
        assert_eq!(suite_specs(Family::Smp, false).len(), 32);
        assert_eq!(suite_specs(Family::Scale, false).len(), 4);
        assert_eq!(suite_specs(Family::Fleet, false).len(), 5);
        // Smoke keeps every scenario kind but shrinks the matrix.
        assert_eq!(suite_specs(Family::Hotpath, true).len(), 6);
        assert_eq!(suite_specs(Family::Smp, true).len(), 4);
        assert_eq!(suite_specs(Family::Scale, true).len(), 2);
        assert_eq!(suite_specs(Family::Fleet, true).len(), 3);
    }
}
