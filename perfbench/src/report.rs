//! Run orchestration shared by the workloads — set-up repetitions, phase
//! budgets, output checks — and the report: a human-readable block, a
//! provenance file, and the one-line result.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tyche_bench::json::Json;
use tyche_bench::manifest::Manifest;
use tyche_core::audit;
use tyche_core::ids::DomainId;
use tyche_hw::tpm::Quote;
use tyche_monitor::attest::SignedReport;
use tyche_monitor::{MachineRoots, Monitor, Verifier};

use crate::common::{ref_scale, EndToEnd, Limit, Load, RefKernel, SetupTimes};
use crate::layers;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

/// Share of a traced run's budget given to each of its two load phases
/// (untraced, then traced); the replays take the rest.
pub const TRACED_PHASE_SHARE: f64 = 0.4;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// W1: lifecycle churn at a 10k-tenant population (RISC-V PMP).
    SmpChurn,
    /// W2: enclave call mix on x86 with a write fraction.
    EnclaveCalls,
    /// W3: attested requests over a 4-machine fleet mesh.
    FleetMesh,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SmpChurn,
        Workload::EnclaveCalls,
        Workload::FleetMesh,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmpChurn => "smp_churn_10k",
            Workload::EnclaveCalls => "enclave_calls_x86",
            Workload::FleetMesh => "fleet_mesh_4",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Builds the fixture [`SETUP_REPS`] times, timing each build on the
/// host and the reference clock (with a run of the [`RefKernel`] between
/// builds), and keeps the last one (earlier ones are dropped before the
/// next build starts).
pub fn timed_setups<F>(mut build: impl FnMut() -> F) -> (F, SetupTimes) {
    let mut kernel = RefKernel::default();
    let mut before = kernel.time();
    let mut times = SetupTimes::default();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(build());
        let s = t0.elapsed().as_secs_f64();
        let after = kernel.time();
        times.host.push(s);
        times.reference.push(s * ref_scale(before, after));
        before = after;
    }
    (kept.expect("at least one set-up"), times)
}

/// The untraced phase's limit and, for a traced run, the traced phase's.
pub fn split_limit(limit: Limit, traced: bool) -> (Limit, Limit) {
    if !traced {
        return (limit, limit);
    }
    match limit {
        Limit::Seconds(s) => (
            Limit::Seconds(s * TRACED_PHASE_SHARE),
            Limit::Seconds(s * TRACED_PHASE_SHARE),
        ),
        Limit::Ops(n) => (Limit::Ops(n.div_ceil(2)), Limit::Ops(n.div_ceil(2))),
    }
}

/// Engine audit and hardware audit of one monitor must both be empty.
pub fn check_audits(what: &str, m: &Monitor, problems: &mut Vec<String>) {
    let engine = audit::audit(&m.engine);
    if !engine.is_empty() {
        problems.push(format!("{what}: engine audit: {:?}", engine.first()));
    }
    let hw = m.audit_hardware();
    if !hw.is_empty() {
        problems.push(format!("{what}: hardware audit: {:?}", hw.first()));
    }
}

/// Checks `Attest` reports as they arrive: each must verify under the
/// machine's published roots for the nonce it was requested with and
/// name the requested domain.
pub struct ReportCheck {
    verifier: Verifier,
    quote: Quote,
    quote_nonce: [u8; 32],
}

impl ReportCheck {
    /// The checker for reports signed by `m`'s monitor.
    pub fn of(m: &Monitor) -> ReportCheck {
        let quote_nonce = [0x51u8; 32];
        ReportCheck {
            verifier: MachineRoots::of(m).verifier(tyche_monitor::boot::MONITOR_VERSION),
            quote: m
                .machine_quote(quote_nonce)
                .expect("an unfaulted TPM quotes"),
            quote_nonce,
        }
    }

    /// True when `signed` is a valid report on `domain` for `nonce`.
    pub fn ok(&self, nonce: u64, domain: DomainId, signed: &SignedReport) -> bool {
        let mut nb = [0u8; 32];
        nb[..8].copy_from_slice(&nonce.to_le_bytes());
        matches!(
            self.verifier.verify(&self.quote, &self.quote_nonce, signed, &nb, None),
            Ok(att) if att.domain == domain
        )
    }
}

/// `monitor.compensations` and `monitor.quarantines`, summed over
/// `monitors`.
pub fn insert_monitor_stats(values: &mut BTreeMap<String, f64>, monitors: &[&Monitor]) {
    let (mut compensations, mut quarantines) = (0, 0);
    for m in monitors {
        let s = m.stats();
        compensations += s.compensations;
        quarantines += s.quarantines;
    }
    values.insert("monitor.compensations".into(), compensations as f64);
    values.insert("monitor.quarantines".into(), quarantines as f64);
}

/// Everything one invocation measured.
pub struct RunReport {
    /// Which workload ran.
    pub workload: Workload,
    /// Its input seed.
    pub seed: u64,
    /// Every workload parameter, for provenance.
    pub params: Vec<(&'static str, String)>,
    /// The end-to-end figures of the untraced load phase.
    pub e2e: EndToEnd,
    /// Op counts and checks over every load phase of the run.
    pub load: Load,
    /// Per-layer figures (traced runs only).
    pub per_layer: Option<BTreeMap<String, f64>>,
}

impl RunReport {
    /// Assembles a report. `load` is the untraced phase (its timings feed
    /// the end-to-end figures); `extra` carries the traced phases' op
    /// counts and checks.
    pub fn new(
        workload: Workload,
        seed: u64,
        params: Vec<(&'static str, String)>,
        setup_times: SetupTimes,
        mut load: Load,
        extra: Vec<Load>,
        per_layer: Option<BTreeMap<String, f64>>,
    ) -> RunReport {
        let e2e = EndToEnd::from_load(&load, &setup_times);
        for phase in extra {
            load.add_counts(phase);
        }
        RunReport {
            workload,
            seed,
            params,
            e2e,
            load,
            per_layer,
        }
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.load.problems.is_empty()
    }

    /// `(name, value, unit)` rows the result line carries.
    pub fn metric_rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        match &self.per_layer {
            Some(values) => layers::complete(values),
            None => self.e2e.bounded_rows(),
        }
    }

    /// The human-readable block: all seven end-to-end figures (or the
    /// per-layer figures) by name with units, the sample counts behind
    /// the percentiles, and any failures.
    pub fn render(&self) -> String {
        let mut s = format!(
            "workload {}  seed {}  ({})\n",
            self.workload.name(),
            self.seed,
            if self.per_layer.is_some() {
                "traced run: per-layer metrics"
            } else {
                "end-to-end metrics"
            }
        );
        let rows = match &self.per_layer {
            Some(values) => layers::complete(values),
            None => self.e2e.rows(),
        };
        for (name, value, unit) in rows {
            s.push_str(&format!("  {name:<38} {value:>18.3} {unit}\n"));
        }
        s.push_str(&format!(
            "  latency samples {}; ref_op_p99_ns and op_p99_ns are their q={:.4} quantile ({} samples beyond it)\n",
            self.e2e.samples, self.e2e.tail_q, self.e2e.beyond
        ));
        s.push_str(&format!(
            "  attempted {}  failed {}  output checks {}\n",
            self.load.attempted,
            self.load.failed,
            if self.correct() { "passed" } else { "FAILED" }
        ));
        for p in self.load.problems.iter().chain(&self.load.fail_notes) {
            s.push_str(&format!("  ! {p}\n"));
        }
        s
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metric_rows()
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            (
                "attempted".into(),
                Json::Num(self.load.attempted.to_string()),
            ),
            ("failed".into(), Json::Num(self.load.failed.to_string())),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_compact()
    }

    /// The provenance record: run manifest (git hash and dirty flag,
    /// seed, host core count, toolchain), every workload parameter, all
    /// figures, and the checks.
    pub fn provenance(&self, root: &Path) -> Json {
        let config = std::iter::once(format!("workload={}", self.workload.name()))
            .chain(self.params.iter().map(|(k, v)| format!("{k}={v}")))
            .collect::<Vec<_>>()
            .join(";");
        let manifest =
            Manifest::capture(root, "perfbench", vec![self.seed], &config, 1, Vec::new());
        let obj = |rows: Vec<(&'static str, f64, &'static str)>| {
            Json::Obj(
                rows.into_iter()
                    .map(|(k, v, _)| (k.to_string(), num(v)))
                    .collect(),
            )
        };
        let mut doc = vec![
            (
                "workload".to_string(),
                Json::Str(self.workload.name().into()),
            ),
            ("seed".to_string(), Json::Num(self.seed.to_string())),
            ("manifest".to_string(), manifest.to_json()),
            (
                "params".to_string(),
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("end_to_end".to_string(), obj(self.e2e.rows())),
            (
                "latency_samples".to_string(),
                Json::Num(self.e2e.samples.to_string()),
            ),
            ("tail_quantile".to_string(), num(self.e2e.tail_q)),
            (
                "samples_beyond_tail".to_string(),
                Json::Num(self.e2e.beyond.to_string()),
            ),
            (
                "attempted".to_string(),
                Json::Num(self.load.attempted.to_string()),
            ),
            (
                "failed".to_string(),
                Json::Num(self.load.failed.to_string()),
            ),
            (
                "problems".to_string(),
                Json::Arr(
                    self.load
                        .problems
                        .iter()
                        .map(|p| Json::Str(p.clone()))
                        .collect(),
                ),
            ),
        ];
        if let Some(values) = &self.per_layer {
            doc.push(("per_layer".to_string(), obj(layers::complete(values))));
        }
        Json::Obj(doc)
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives; non-finite values (never expected) print as 0.
pub fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    })
}

/// The interquartile mean of the per-rep times of one replayed call
/// (see [`crate::layers::replay_ns`]), into `values`.
pub fn insert_replayed(values: &mut BTreeMap<String, f64>, key: String, mut samples: Vec<f64>) {
    values.insert(key, crate::common::interquartile_mean(&mut samples));
}
