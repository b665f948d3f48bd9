//! The traced run: trace-event tallies, benchmark-side spans around the
//! calls into each layer, and the per-layer metric set.
//!
//! Nothing here adds a span inside the program. The program's own
//! `TraceSink` is enabled, drained while the load runs, and folded into
//! counters ([`Tally`]) so memory stays bounded; the benchmark times its
//! own calls into each layer ([`Spans`]); and each workload replays its
//! call sequence against the inner layers' public functions on an
//! identical fixture. Self time of a layer is its time minus the time of
//! the layer it calls. A layer a workload never calls reports 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use tyche_core::trace::{EventKind, TraceLog};
use tyche_monitor::abi::leaf;

/// Every per-layer metric the traced run reports, with its unit, in
/// report order. `BENCHMARK.json` lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.clone_ns", "ns"),
    ("engine.bytes_per_domain", "B"),
    ("engine.create_domain.op_ns", "ns"),
    ("engine.share.op_ns", "ns"),
    ("engine.set_entry.op_ns", "ns"),
    ("engine.seal.op_ns", "ns"),
    ("engine.kill.op_ns", "ns"),
    ("engine.revoke.op_ns", "ns"),
    ("engine.make_transition.op_ns", "ns"),
    ("engine.can_enter.op_ns", "ns"),
    ("engine.enumerate.op_ns", "ns"),
    ("shared.published", "count"),
    ("shared.publish_per_mutation", "ratio"),
    ("shared.retired_peak", "count"),
    ("self.publish_ns", "ns"),
    ("concurrent.serve_read_ns", "ns"),
    ("concurrent.serve_fast_ns", "ns"),
    ("concurrent.serve_mut_ns", "ns"),
    ("concurrent.ring_drain_ns", "ns"),
    ("concurrent.fast_cache_hit_ratio", "ratio"),
    ("concurrent.shard_waits", "count"),
    ("concurrent.ring_batches", "count"),
    ("concurrent.ipis_per_shootdown", "ratio"),
    ("self.concurrent_ns", "ns"),
    ("monitor.create_domain.call_cycles", "cycles"),
    ("monitor.share.call_cycles", "cycles"),
    ("monitor.set_entry.call_cycles", "cycles"),
    ("monitor.seal.call_cycles", "cycles"),
    ("monitor.attest.call_cycles", "cycles"),
    ("monitor.kill.call_cycles", "cycles"),
    ("monitor.enter.call_cycles", "cycles"),
    ("monitor.enumerate.call_cycles", "cycles"),
    ("monitor.return.call_cycles", "cycles"),
    ("monitor.make_transition.call_cycles", "cycles"),
    ("monitor.revoke.call_cycles", "cycles"),
    ("monitor.create_domain.call_ns", "ns"),
    ("monitor.share.call_ns", "ns"),
    ("monitor.set_entry.call_ns", "ns"),
    ("monitor.seal.call_ns", "ns"),
    ("monitor.attest.call_ns", "ns"),
    ("monitor.kill.call_ns", "ns"),
    ("monitor.enter.call_ns", "ns"),
    ("monitor.enumerate.call_ns", "ns"),
    ("monitor.return.call_ns", "ns"),
    ("monitor.make_transition.call_ns", "ns"),
    ("monitor.revoke.call_ns", "ns"),
    ("monitor.compensations", "count"),
    ("monitor.quarantines", "count"),
    ("self.monitor_ns", "ns"),
    ("attest.report_ns", "ns"),
    ("attest.verify_ns", "ns"),
    ("crypto.hmac_ns_per_kib", "ns"),
    ("crypto.sha256_ns_per_kib", "ns"),
    ("fleet.send_ns", "ns"),
    ("fleet.deliver_ns", "ns"),
    ("fleet.send_cycles", "cycles"),
    ("fleet.deliver_cycles", "cycles"),
    ("fleet.attest_pair_ns", "ns"),
    ("fleet.tee_bracket_ns", "ns"),
    ("rdma.write_ns", "ns"),
    ("nic.overflowed", "count"),
    ("channel.violations", "count"),
    ("trace.ops", "count"),
    ("trace.events", "count"),
    ("trace.overhead_frac", "ratio"),
    ("layers.sum_ns", "ns"),
    ("layers.residual_frac", "ratio"),
];

/// The hypercall leaves the workloads call, by ABI number.
pub const LEAVES: &[(u64, &str)] = &[
    (leaf::CREATE_DOMAIN, "create_domain"),
    (leaf::SHARE, "share"),
    (leaf::SET_ENTRY, "set_entry"),
    (leaf::SEAL, "seal"),
    (leaf::ATTEST, "attest"),
    (leaf::KILL, "kill"),
    (leaf::ENTER, "enter"),
    (leaf::ENUMERATE, "enumerate"),
    (leaf::RETURN, "return"),
    (leaf::MAKE_TRANSITION, "make_transition"),
    (leaf::REVOKE, "revoke"),
];

/// The short name of an ABI leaf (`"other"` for leaves no workload uses).
pub fn leaf_name(leaf: u64) -> &'static str {
    LEAVES
        .iter()
        .find(|(l, _)| *l == leaf)
        .map_or("other", |(_, n)| n)
}

/// Counters folded from drained trace logs.
#[derive(Default, Debug, Clone)]
pub struct Tally {
    /// Events seen.
    pub events: u64,
    /// Per leaf: `(hypercall exits, model cycles between enter and exit)`.
    pub leaf_cycles: BTreeMap<&'static str, (u64, u64)>,
    /// Fast-path validation cache hits.
    pub cache_hits: u64,
    /// Fast-path validation cache fills.
    pub cache_fills: u64,
    /// Shootdown batches delivered.
    pub shoot_batches: u64,
    /// IPIs those batches charged.
    pub shoot_ipis: u64,
    /// Channel violations.
    pub chan_violations: u64,
    /// Most displaced snapshots seen waiting for reclamation at once
    /// (sampled while the load runs).
    pub retired_peak: u64,
}

impl Tally {
    /// Folds one drained log into the counters.
    pub fn absorb(&mut self, log: &TraceLog) {
        for e in log.events() {
            self.events += 1;
            match e.kind {
                EventKind::HyperExit { leaf, cycles, .. } => {
                    let slot = self.leaf_cycles.entry(leaf_name(leaf)).or_default();
                    slot.0 += 1;
                    slot.1 += cycles;
                }
                EventKind::CacheHit { .. } => self.cache_hits += 1,
                EventKind::CacheFill { .. } => self.cache_fills += 1,
                EventKind::ShootBatch { ipis, .. } => {
                    self.shoot_batches += 1;
                    self.shoot_ipis += ipis;
                }
                EventKind::ChanViolation { .. } => self.chan_violations += 1,
                _ => {}
            }
        }
    }

    /// Mean model cycles per exit of `leaf`, 0 when it never exited.
    pub fn mean_cycles(&self, leaf: &str) -> f64 {
        self.leaf_cycles.get(leaf).map_or(
            0.0,
            |&(n, c)| if n == 0 { 0.0 } else { c as f64 / n as f64 },
        )
    }
}

/// Benchmark-side spans: per named call site, how many calls and how
/// many host ns they took in total.
#[derive(Default, Debug, Clone)]
pub struct Spans(pub BTreeMap<&'static str, (u64, u64)>);

impl Spans {
    /// Adds one timed call.
    pub fn add(&mut self, name: &'static str, ns: u64) {
        let slot = self.0.entry(name).or_default();
        slot.0 += 1;
        slot.1 += ns;
    }

    /// Mean ns per call of `name`, 0 when never called.
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(&(n, ns)) if n > 0 => ns as f64 / n as f64,
            _ => 0.0,
        }
    }
}

/// Host ns of one run of `f`: the interquartile mean of `reps` timed
/// runs after one untimed warm-up run, so a host stall in a few runs does
/// not swamp it. Replayed times are interquartile means throughout.
pub fn replay_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut v: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            crate::common::ns_since(t0) as f64
        })
        .collect();
    crate::common::interquartile_mean(&mut v)
}

/// `crypto.hmac_ns_per_kib` and `crypto.sha256_ns_per_kib` over a
/// 4 KiB buffer (the RDMA payload size).
pub fn crypto_rates(values: &mut BTreeMap<String, f64>) {
    let buf = vec![0xa5u8; 4096];
    let key = [7u8; 32];
    let hmac = replay_ns(64, || tyche_crypto::HmacSha256::mac(&key, black_box(&buf)));
    let sha = replay_ns(64, || tyche_crypto::hash(black_box(&buf)));
    values.insert("crypto.hmac_ns_per_kib".into(), hmac / 4.0);
    values.insert("crypto.sha256_ns_per_kib".into(), sha / 4.0);
}

/// `trace.overhead_frac`: how much slower the traced phase served ops
/// than the untraced one (negative when it happened to run faster).
pub fn overhead_frac(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    if untraced_ops_per_s <= 0.0 {
        return 0.0;
    }
    1.0 - traced_ops_per_s / untraced_ops_per_s
}

/// The full per-layer row: every [`PER_LAYER`] name, 0 where the
/// workload's call path never reaches that layer.
pub fn complete(values: &BTreeMap<String, f64>) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
        for (_, leaf) in LEAVES {
            assert!(seen.contains(format!("monitor.{leaf}.call_ns").as_str()));
            assert!(seen.contains(format!("monitor.{leaf}.call_cycles").as_str()));
        }
    }
}
