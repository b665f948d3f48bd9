//! Benchmark self-tests: smoke-sized runs of every workload with the
//! output checks on, same-seed determinism of the fleet's model figures,
//! percentile sample counts, and agreement with `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use tyche_bench::json::{self, Json};
use tyche_perfbench::common::{samples_beyond, Limit};
use tyche_perfbench::layers::PER_LAYER;
use tyche_perfbench::report::RunReport;
use tyche_perfbench::{enclave_calls, fleet_mesh, smp_churn};

fn assert_clean(r: &RunReport, min_ops: u64) {
    assert!(r.correct(), "{}", r.render());
    assert_eq!(r.load.failed, 0, "{}", r.render());
    assert!(r.load.attempted >= min_ops, "{}", r.render());
    assert!(
        r.e2e.beyond >= 10 && samples_beyond(r.e2e.samples, r.e2e.tail_q) >= 10,
        "tail percentile needs ten samples beyond it: {}",
        r.render()
    );
    for (name, value, _) in r.e2e.rows() {
        assert!(value.is_finite(), "{name} = {value}");
        if name != "failed_frac" {
            assert!(value > 0.0, "{name} must never read 0:\n{}", r.render());
        }
    }
}

/// A per-layer figure as the result line reports it (0 where the
/// workload never reaches the layer).
fn layer(r: &RunReport, name: &str) -> f64 {
    r.metric_rows()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, v, _)| v)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

#[test]
fn smp_churn_smoke_passes_output_checks() {
    let r = smp_churn::run_sized(1, Limit::Ops(240), false, 400);
    assert_clean(&r, 240);
}

#[test]
fn smp_churn_traced_attributes_publication() {
    let r = smp_churn::run_sized(2, Limit::Ops(240), true, 400);
    assert!(r.correct(), "{}", r.render());
    assert_eq!(r.load.failed, 0);
    // Five of the six lifecycle calls bump the engine generation.
    let ratio = layer(&r, "shared.publish_per_mutation");
    assert!(
        (ratio - 5.0 / 6.0).abs() < 1e-9,
        "publish_per_mutation = {ratio}"
    );
    assert!(layer(&r, "engine.clone_ns") > 0.0);
    assert!(layer(&r, "self.publish_ns") > 0.0);
    assert!(layer(&r, "monitor.create_domain.call_cycles") > 0.0);
    assert_eq!(
        layer(&r, "fleet.send_ns"),
        0.0,
        "W1 never reaches the fleet layer"
    );
}

#[test]
fn enclave_calls_smoke_passes_output_checks() {
    let r = enclave_calls::run(3, Limit::Ops(20_000), false);
    assert_clean(&r, 20_000);
}

#[test]
fn enclave_calls_traced_sees_the_fast_cache() {
    let r = enclave_calls::run(4, Limit::Ops(20_000), true);
    assert!(r.correct(), "{}", r.render());
    let hit = layer(&r, "concurrent.fast_cache_hit_ratio");
    assert!(hit > 0.5 && hit < 1.0, "hit ratio {hit}");
    assert!(layer(&r, "concurrent.ring_batches") > 0.0);
    assert!(layer(&r, "shared.published") > 0.0);
}

#[test]
fn fleet_mesh_smoke_passes_output_checks() {
    let r = fleet_mesh::run(5, Limit::Ops(3_000), false);
    assert_clean(&r, 3_000);
}

#[test]
fn fleet_mesh_traced_never_publishes() {
    let r = fleet_mesh::run(6, Limit::Ops(3_000), true);
    assert!(r.correct(), "{}", r.render());
    assert_eq!(layer(&r, "shared.published"), 0.0);
    assert_eq!(layer(&r, "concurrent.serve_mut_ns"), 0.0);
    assert!(layer(&r, "fleet.send_ns") > 0.0 && layer(&r, "rdma.write_ns") > 0.0);
    assert!(layer(&r, "fleet.send_cycles") > 0.0);
}

#[test]
fn fleet_mesh_same_seed_repeats_model_figures_and_counts() {
    // 5000 requests cross one rekey (every 4096) and ~156 RDMA writes.
    let (a, ca) = fleet_mesh::run_with_counters(7, Limit::Ops(5_000), false);
    let (b, cb) = fleet_mesh::run_with_counters(7, Limit::Ops(5_000), false);
    assert_clean(&a, 5_000);
    assert_eq!(a.e2e.sim_ops_per_mcycle, b.e2e.sim_ops_per_mcycle);
    assert_eq!(ca, cb, "per-machine channel/NIC counts must repeat");
    assert!(ca.iter().all(|&(accepted, violations, sent, overflowed)| {
        accepted > 0 && violations == 0 && sent > 0 && overflowed == 0
    }));
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&doc, "per_layer"), per_layer);
    let e2e = names(&doc, "end_to_end");
    let rows: Vec<&str> = tyche_perfbench::common::EndToEnd::default()
        .bounded_rows()
        .into_iter()
        .map(|(n, _, _)| n)
        .collect();
    assert_eq!(e2e, rows);
    let workloads = names(&doc, "workloads");
    let ours: Vec<&str> = tyche_perfbench::report::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(workloads, ours);
}
