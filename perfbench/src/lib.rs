//! Closed-loop benchmark of the Tyche monitor reproduction: three
//! workloads driven through the monitor's public API, end-to-end metrics
//! per workload on the host, reference and model clocks, and a traced run
//! that attributes them to the layers that spend them.
//!
//! Clocks: a `_ns` or `_s` suffix is host wall time (what the simulator
//! costs to run); a `ref_` prefix is host time rescaled by how fast the
//! host ran a fixed reference kernel meanwhile ([`common::Meter`]), so
//! that a shared host's changing speed cancels out of it; a `sim_` prefix
//! or `_cycles` suffix is model cycles from `CostModel` (what the
//! modelled machine would take). The cost model is not validated against
//! hardware, so no model figure carries an error bar.

pub mod common;
pub mod enclave_calls;
pub mod fleet_mesh;
pub mod layers;
pub mod report;
pub mod smp;
pub mod smp_churn;

use common::Limit;
use report::{RunReport, Workload};

/// Runs `workload` with inputs from `seed` for `limit`; `traced` runs the
/// per-layer variant instead of the end-to-end one.
pub fn run(workload: Workload, seed: u64, limit: Limit, traced: bool) -> RunReport {
    match workload {
        Workload::SmpChurn => smp_churn::run(seed, limit, traced),
        Workload::EnclaveCalls => enclave_calls::run(seed, limit, traced),
        Workload::FleetMesh => fleet_mesh::run(seed, limit, traced),
    }
}
