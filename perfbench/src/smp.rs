//! What the two `ConcurrentMonitor` workloads share: the closed-loop
//! phase, trace draining while it runs, the traced phases, and the
//! per-layer derivations.
//!
//! Each phase runs on one host thread that drives every modelled core in
//! turn, as `fleet_mesh_4` drives its machines. With a thread per core on
//! a shared 2-vCPU VM, each thread's calls blocked behind the other's
//! whole-engine publication, the vCPUs sat idle a third of the time, and
//! throughput and the tail moved by a quarter from run to run with the
//! host's wake-up latency, more than any bound can absorb. Driving the
//! cores in turn also keeps their model clocks together, so the model
//! figures do not depend on host thread scheduling.

use std::collections::BTreeMap;
use std::time::Instant;

use tyche_monitor::{ConcurrentMonitor, SmpStats};

use crate::common::{ratio, Limit, Load, Meter};
use crate::layers::{self, Spans, Tally, LEAVES};
use crate::report::ReportCheck;

/// What the closed loop hands back.
#[derive(Default)]
pub struct WorkerOut {
    /// Its ops, failures and latencies.
    pub load: Load,
    /// Puts them on the reference clock.
    pub meter: Meter,
    /// Its timed calls into the concurrent layer (traced phases only).
    /// Spans named `mut.<leaf>` are calls served by the mutating tier.
    pub spans: Spans,
    /// `Attest` reports received, and how many failed to verify.
    pub reports: (u64, u64),
    /// Ring-submitted `Revoke`s that completed.
    pub revokes: u64,
}

/// What the closed loop of a phase sees.
pub struct Ctx<'a> {
    /// Verifies `Attest` reports as they arrive.
    pub checker: &'a ReportCheck,
    /// True while the program's trace sink records: the loop then times
    /// its calls into the concurrent layer.
    pub traced: bool,
    cm: &'a ConcurrentMonitor,
    limit: Limit,
    start: Instant,
    tally: Option<&'a mut Tally>,
}

impl Ctx<'_> {
    /// Ends an epoch of the loop, `attempted` ops in: drains the trace
    /// sink into the tally (bounded memory) and samples the retired
    /// snapshot list, then answers whether the phase is over.
    pub fn epoch_done(&mut self, attempted: u64) -> bool {
        if let Some(t) = self.tally.as_deref_mut() {
            t.absorb(&self.cm.with_inner(|m| m.trace().drain()));
            t.retired_peak = t.retired_peak.max(self.cm.epochs().retired_len() as u64);
        }
        self.limit.reached(self.start, attempted)
    }
}

/// One load phase.
pub struct Phase {
    /// Ops, failures, latencies and model cycles.
    pub load: Load,
    /// Timed calls into the concurrent layer.
    pub spans: Spans,
    /// Ring-submitted `Revoke`s that completed.
    pub revokes: u64,
}

/// Runs one closed-loop phase over `lanes` for `limit`. With `tally`, the
/// program's trace sink is drained into it as the loop runs.
pub fn phase<L: ?Sized>(
    cm: &ConcurrentMonitor,
    lanes: &L,
    limit: Limit,
    tally: Option<&mut Tally>,
    worker: impl FnOnce(&L, &mut Ctx<'_>) -> WorkerOut,
) -> Phase {
    let c0 = cm.makespan();
    let checker = cm.with_inner(ReportCheck::of);
    let mut ctx = Ctx {
        checker: &checker,
        traced: cm.with_inner(|m| m.trace().is_enabled()),
        cm,
        limit,
        start: Instant::now(),
        tally,
    };
    let out = worker(lanes, &mut ctx);
    if let Some(t) = ctx.tally {
        t.absorb(&cm.with_inner(|m| m.trace().drain()));
    }
    let mut load = out.load;
    load.sim_cycles = cm.makespan() - c0;
    let (reports, bad) = out.reports;
    if bad > 0 {
        load.problems.push(format!(
            "{bad} of {reports} attestation reports failed to verify"
        ));
    }
    Phase {
        load,
        spans: out.spans,
        revokes: out.revokes,
    }
}

/// What a traced run of a `ConcurrentMonitor` workload collected.
pub struct Traced {
    /// The traced phase.
    pub all: Phase,
    /// Trace-event tallies of the traced phase.
    pub tally: Tally,
    /// Counter deltas over the traced phase: mutations committed,
    /// snapshots published, shard waits, ring batches.
    pub mutations: u64,
    /// See [`Self::mutations`].
    pub published: u64,
    /// See [`Self::mutations`].
    pub shard_waits: u64,
    /// See [`Self::mutations`].
    pub ring_batches: u64,
}

/// Runs the traced phase: the sink records while `run` drives the load
/// for `limit`.
pub fn trace_phase(
    cm: &ConcurrentMonitor,
    limit: Limit,
    run: impl FnOnce(Limit, Option<&mut Tally>) -> Phase,
) -> Traced {
    let sink = cm.with_inner(|m| m.trace().clone());
    let counters = || {
        let stat = |c: &std::sync::atomic::AtomicU64| SmpStats::get(c);
        [
            stat(&cm.stats.mutations),
            cm.epochs().published(),
            stat(&cm.stats.shard_waits),
            stat(&cm.stats.ring_batches),
        ]
    };
    let mut tally = Tally::default();
    sink.enable(cm.cores());
    let before = counters();
    let all = run(limit, Some(&mut tally));
    let after = counters();
    sink.disable();
    let _ = sink.drain();
    let delta = |i: usize| after[i] - before[i];
    Traced {
        all,
        tally,
        mutations: delta(0),
        published: delta(1),
        shard_waits: delta(2),
        ring_batches: delta(3),
    }
}

/// Host ns per completed op: wall ÷ ops. This, not the mean latency, is
/// what the layers add up to, because it also charges each op its share
/// of the loop's time between calls.
fn busy_ns_per_op(load: &Load) -> f64 {
    ratio(load.wall_s * 1e9, load.completed() as f64)
}

/// The per-layer figures of a traced run, given the replayed figures
/// already in `values`. All `self.*` and `*_wait_ns` figures are host ns
/// per op of the workload mix:
///
/// - the monitor's and the publication's shares come from the replays,
///   weighted by how often the traced phase reached each leaf through
///   `Monitor::call` (the mutating tier and ring drains);
/// - the concurrent layer's own time is what is left of the traced spans;
/// - `layers.sum_ns` is their sum and `layers.residual_frac` compares it
///   with the untraced busy time per op.
pub fn derive(values: &mut BTreeMap<String, f64>, untraced: &Load, t: &Traced) {
    let ops = t.all.load.completed() as f64;
    let get = |v: &BTreeMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let tally = &t.tally;
    let spans = &t.all.spans;
    for (name, value) in [
        ("trace.ops", ops),
        ("trace.events", tally.events as f64),
        (
            "trace.overhead_frac",
            layers::overhead_frac(untraced.ref_ops_per_s(), t.all.load.ref_ops_per_s()),
        ),
        ("shared.published", t.published as f64),
        (
            "shared.publish_per_mutation",
            ratio(t.published as f64, t.mutations as f64),
        ),
        ("shared.retired_peak", tally.retired_peak as f64),
        ("concurrent.shard_waits", t.shard_waits as f64),
        ("concurrent.ring_batches", t.ring_batches as f64),
        (
            "concurrent.fast_cache_hit_ratio",
            ratio(
                tally.cache_hits as f64,
                (tally.cache_hits + tally.cache_fills) as f64,
            ),
        ),
        (
            "concurrent.ipis_per_shootdown",
            ratio(tally.shoot_ipis as f64, tally.shoot_batches as f64),
        ),
        ("concurrent.serve_read_ns", spans.mean_ns("read")),
        ("concurrent.serve_fast_ns", spans.mean_ns("fast")),
        ("concurrent.ring_drain_ns", spans.mean_ns("ring.drain")),
    ] {
        values.insert(name.into(), value);
    }
    for (_, leaf) in LEAVES {
        values.insert(
            format!("monitor.{leaf}.call_cycles"),
            tally.mean_cycles(leaf),
        );
    }
    let (mut mut_n, mut mut_ns) = (0u64, 0u64);
    let mut leaf_calls: Vec<(&str, u64)> = vec![("revoke", t.all.revokes)];
    for (name, &(n, ns)) in &spans.0 {
        if let Some(leaf) = name.strip_prefix("mut.") {
            mut_n += n;
            mut_ns += ns;
            leaf_calls.push((leaf, n));
        }
    }
    values.insert(
        "concurrent.serve_mut_ns".into(),
        ratio(mut_ns as f64, mut_n as f64),
    );
    let (mut monitor, mut below) = (0.0, 0.0);
    for (leaf, n) in leaf_calls {
        let n = n as f64;
        monitor += n * get(values, &format!("monitor.{leaf}.call_ns"));
        below += n * get(values, &format!("engine.{leaf}.op_ns"));
        if leaf == "attest" {
            below += n * get(values, "attest.report_ns");
        }
    }
    let (monitor, below) = (ratio(monitor, ops), ratio(below, ops));
    let publish = ratio(get(values, "engine.clone_ns") * t.published as f64, ops);
    let span_ns: u64 = spans.0.values().map(|&(_, ns)| ns).sum();
    let sum = ratio(span_ns as f64, ops);
    let busy = busy_ns_per_op(untraced);
    for (name, value) in [
        ("self.publish_ns", publish),
        ("self.monitor_ns", monitor - below),
        ("self.concurrent_ns", sum - monitor - publish),
        ("layers.sum_ns", sum),
        (
            "layers.residual_frac",
            if busy > 0.0 { 1.0 - sum / busy } else { 0.0 },
        ),
    ] {
        values.insert(name.into(), value);
    }
}
