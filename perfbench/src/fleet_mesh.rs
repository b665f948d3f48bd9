//! W3 `fleet_mesh_4`: attested requests over every ordered pair of a
//! 4-machine fleet, driven round-robin from one thread.
//!
//! Why: the only workload that loads the channel, NIC, RDMA, HMAC/ChaCha
//! and HKDF layers, and it never touches `ConcurrentMonitor` or the
//! shared read side, so optimisations there must show no change here.
//! Every machine runs on its own model clock; the model figure is
//! delivered requests per million cycles of fleet makespan, never an
//! inverted latency.

use std::collections::BTreeMap;
use std::time::Instant;

use tyche_fleet::{Fleet, FleetConfig, FleetMachine, RdmaSession, RDMA_MR, TEE_MEM};
use tyche_monitor::Monitor;

use crate::common::{input_rng, ns_since, Limit, Load, Meter};
use crate::layers::{replay_ns, Tally};
use crate::report::{self, insert_replayed, RunReport, Workload};

/// Machines in the mesh (all honest).
pub const MACHINES: usize = 4;
/// Payload of an ordinary request.
pub const REQUEST_BYTES: usize = 64;
/// Payload of an attested RDMA write.
pub const RDMA_BYTES: usize = 4096;
/// One request in this many is an RDMA write instead.
pub const RDMA_EVERY: u64 = 32;
/// One pair re-attests (key rotation) every this many requests.
pub const REKEY_EVERY: u64 = 4096;
/// Where a TEE stages an outgoing RDMA payload (inside [`TEE_MEM`],
/// outside the registered MR).
const RDMA_SRC: u64 = TEE_MEM.0 + 0x2000;
/// Every request is sent and received on core 0 (the TEE's core).
const CORE: usize = 0;

/// The booted fleet with every channel and RDMA session established.
pub struct Fixture {
    /// The machines.
    pub fleet: Fleet,
    /// The 12 ordered pairs in a fixed round-robin order. The order is
    /// not seeded: where a frame lands relative to the receiver's clock
    /// changes the fleet makespan, so a seeded order would make the model
    /// figure depend on the seed rather than on the monitor.
    pub pairs: Vec<(usize, usize)>,
    /// RDMA session per ordered pair.
    pub sessions: BTreeMap<(usize, usize), RdmaSession>,
}

/// Boots the fleet, attests all pairs (`establish_all`) and connects an
/// RDMA session for every ordered pair.
pub fn setup(seed: u64) -> Fixture {
    let mut fleet = Fleet::new(&FleetConfig {
        machines: MACHINES,
        seed,
        ..FleetConfig::default()
    })
    .expect("fleet boots");
    let up = fleet.establish_all();
    assert_eq!(
        up,
        MACHINES * (MACHINES - 1) / 2,
        "every honest pair attests"
    );
    let pairs: Vec<(usize, usize)> = (0..MACHINES)
        .flat_map(|a| (0..MACHINES).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    let sessions = pairs
        .iter()
        .map(|&(a, b)| ((a, b), fleet.rdma_connect(a, b).expect("rdma connect")))
        .collect();
    Fixture {
        fleet,
        pairs,
        sessions,
    }
}

/// Every machine of `fleet`.
fn machines(fleet: &Fleet) -> impl Iterator<Item = &FleetMachine> {
    (0..fleet.len()).filter_map(|i| fleet.machine(i))
}

/// Fleet makespan: the furthest any machine's model clock has run.
pub fn makespan(fleet: &Fleet) -> u64 {
    machines(fleet)
        .map(|m| m.monitor.machine.core_clocks.max_now())
        .max()
        .unwrap_or(0)
}

/// One attested RDMA request: `a`'s TEE stages the payload and writes it
/// into `b`'s MR over the channel.
fn rdma_request(fx: &mut Fixture, a: usize, b: usize, payload: &[u8]) -> Result<(), String> {
    let sess = fx.sessions.get_mut(&(a, b)).ok_or("no rdma session")?;
    fx.fleet.enter_tee(a, CORE).map_err(|e| e.to_string())?;
    let r = fx
        .fleet
        .tee_write(a, CORE, RDMA_SRC, payload)
        .and_then(|()| {
            fx.fleet
                .rdma_write(sess, a, b, CORE, RDMA_SRC, payload.len(), 0)
        });
    let exit = fx.fleet.exit_tee(a, CORE);
    r.and(exit).map_err(|e| e.to_string())
}

/// Reads back `b`'s MR as `b`'s TEE.
fn read_mr(fleet: &mut Fleet, b: usize, len: usize) -> Result<Vec<u8>, String> {
    let mut got = vec![0u8; len];
    fleet.enter_tee(b, CORE).map_err(|e| e.to_string())?;
    let r = fleet.tee_read(b, CORE, RDMA_MR.0, &mut got);
    let exit = fleet.exit_tee(b, CORE);
    r.and(exit).map_err(|e| e.to_string())?;
    Ok(got)
}

/// One ordinary request: send `payload` from `a` and deliver it at `b`.
/// Requests are synchronous, so `b`'s queue holds nothing else and the
/// next frame must be this one. Returns an error when the frame is
/// refused, rejected, never arrives, or arrives altered.
fn request(fleet: &mut Fleet, a: usize, b: usize, payload: &[u8]) -> Result<(), String> {
    fleet
        .send(a, b, CORE, payload)
        .map_err(|e| format!("send refused: {e}"))?;
    match fleet.deliver(b, CORE) {
        Ok(Some(d)) if d.from == a as u64 && d.payload == payload => Ok(()),
        Ok(Some(d)) if d.from == a as u64 => {
            Err("delivered payload differs from the sent one".into())
        }
        Ok(Some(d)) => Err(format!("unexpected frame from machine {}", d.from)),
        Ok(None) => Err("frame never delivered".into()),
        Err(e) => Err(format!("delivery rejected: {e}")),
    }
}

/// The closed loop: request `r` goes to pair `r mod 12`; every
/// [`RDMA_EVERY`]th is a 4 KiB attested RDMA write whose MR contents are
/// checked after it completes; every [`REKEY_EVERY`]th is followed by a
/// pair re-attestation (between requests, so it counts against
/// throughput but not against any one request's latency).
fn load_phase(fx: &mut Fixture, seed: u64, limit: Limit, mut tally: Option<&mut Tally>) -> Load {
    let mut rng = input_rng(seed, "fleet_mesh_4/payloads");
    let c0 = makespan(&fx.fleet);
    let mut small = [0u8; REQUEST_BYTES];
    let mut big = vec![0u8; RDMA_BYTES];
    let unordered: Vec<(usize, usize)> = fx.pairs.iter().copied().filter(|(a, b)| a < b).collect();
    let mut meter = Meter::default();
    let start = Instant::now();
    let mut load = Load::default();
    let mut r = 0u64;
    while !limit.reached(start, r) {
        let (a, b) = fx.pairs[(r % fx.pairs.len() as u64) as usize];
        load.attempted += 1;
        let rdma = r % RDMA_EVERY == RDMA_EVERY - 1;
        let result = if rdma {
            rng.fill_bytes(&mut big);
            let t0 = Instant::now();
            let res = rdma_request(fx, a, b, &big);
            let ns = ns_since(t0);
            res.and_then(|()| match read_mr(&mut fx.fleet, b, RDMA_BYTES) {
                Ok(got) if got == big => Ok(ns),
                Ok(_) => Err("RDMA MR contents differ from the written payload".into()),
                Err(e) => Err(format!("MR read-back: {e}")),
            })
        } else {
            rng.fill_bytes(&mut small);
            let t0 = Instant::now();
            request(&mut fx.fleet, a, b, &small).map(|()| ns_since(t0))
        };
        match result {
            Ok(ns) => meter.record(ns),
            Err(e) => load.fail(|| format!("request {r} {a}->{b}: {e}")),
        }
        r += 1;
        if r.is_multiple_of(REKEY_EVERY) {
            let (x, y) = unordered[((r / REKEY_EVERY) % unordered.len() as u64) as usize];
            if let Err(e) = fx.fleet.attest_pair(x, y) {
                load.problems
                    .push(format!("re-attestation {x}<->{y} failed: {e}"));
            }
        }
        meter.tick(&mut load);
        if let Some(t) = tally.as_mut() {
            if r.is_multiple_of(512) {
                drain_into(&fx.fleet, t);
            }
        }
    }
    meter.finish(&mut load);
    if let Some(t) = tally {
        drain_into(&fx.fleet, t);
    }
    load.sim_cycles = makespan(&fx.fleet) - c0;
    load
}

fn drain_into(fleet: &Fleet, t: &mut Tally) {
    for m in machines(fleet) {
        t.absorb(&m.monitor.machine.trace.drain());
    }
}

/// The output checks over the whole fleet: every engine and hardware
/// audit is empty, no channel saw a violation, no peer is quarantined,
/// and no NIC queue overflowed.
fn check(fleet: &Fleet, problems: &mut Vec<String>) {
    for (i, m) in machines(fleet).enumerate() {
        report::check_audits(&format!("machine {i}"), &m.monitor, problems);
        let s = m.stats();
        if s.violations != 0 || s.quarantined != 0 {
            problems.push(format!(
                "machine {i}: {} violations, {} quarantined",
                s.violations, s.quarantined
            ));
        }
        let overflowed = m.monitor.machine.nic.stats().overflowed;
        if overflowed != 0 {
            problems.push(format!("machine {i}: {overflowed} NIC frames overflowed"));
        }
    }
}

/// Deterministic fleet counters: per machine `(accepted, violations,
/// NIC frames sent, NIC overflows)`; the self-tests compare them across
/// same-seed runs.
pub fn counters(fleet: &Fleet) -> Vec<(u64, u64, u64, u64)> {
    machines(fleet)
        .map(|m| {
            let s = m.stats();
            let nic = m.monitor.machine.nic.stats();
            (s.accepted, s.violations, nic.sent, nic.overflowed)
        })
        .collect()
}

/// Runs the workload and also returns the fleet's deterministic counters
/// (for the self-tests).
pub fn run_with_counters(
    seed: u64,
    limit: Limit,
    traced: bool,
) -> (RunReport, Vec<(u64, u64, u64, u64)>) {
    let (mut fx, setup_times) = report::timed_setups(|| setup(seed));
    let params = vec![
        ("machines", MACHINES.to_string()),
        ("ordered_pairs", fx.pairs.len().to_string()),
        ("request_bytes", REQUEST_BYTES.to_string()),
        ("rdma_bytes", RDMA_BYTES.to_string()),
        ("rdma_every_requests", RDMA_EVERY.to_string()),
        ("rekey_every_requests", REKEY_EVERY.to_string()),
        ("core", CORE.to_string()),
    ];
    let (limit, traced_limit) = report::split_limit(limit, traced);
    let mut load = load_phase(&mut fx, seed, limit, None);
    let trace = traced.then(|| {
        let mut tally = Tally::default();
        fx.fleet.enable_tracing();
        let tload = load_phase(&mut fx, seed, traced_limit, Some(&mut tally));
        for m in machines(&fx.fleet) {
            m.monitor.machine.trace.disable();
            let _ = m.monitor.machine.trace.drain();
        }
        (tload, tally)
    });
    check(&fx.fleet, &mut load.problems);
    let counts = counters(&fx.fleet);
    let mut extra = Vec::new();
    let per_layer = trace.map(|(tload, tally)| {
        let mut values = BTreeMap::new();
        replay(&mut fx, seed, &mut values);
        let get = |k: &str| values.get(k).copied().unwrap_or(0.0);
        let r = 1.0 / RDMA_EVERY as f64;
        let sum = (1.0 - r) * (get("fleet.send_ns") + get("fleet.deliver_ns"))
            + r * (get("rdma.write_ns") + get("fleet.tee_bracket_ns"))
            + get("fleet.attest_pair_ns") / REKEY_EVERY as f64;
        // Requests never overlap here, so the untraced per-request time is
        // the mean latency; the loop's own work between requests (payload
        // generation, MR read-back checks, rekeys) stays out of it.
        let op_ns = load.wall_lat.mean_ns() as f64;
        let overflowed: u64 = machines(&fx.fleet)
            .map(|m| m.monitor.machine.nic.stats().overflowed)
            .sum();
        for (name, value) in [
            ("trace.ops", tload.completed() as f64),
            ("trace.events", tally.events as f64),
            (
                "trace.overhead_frac",
                crate::layers::overhead_frac(load.ref_ops_per_s(), tload.ref_ops_per_s()),
            ),
            ("channel.violations", tally.chan_violations as f64),
            ("nic.overflowed", overflowed as f64),
            ("layers.sum_ns", sum),
            (
                "layers.residual_frac",
                if op_ns > 0.0 { 1.0 - sum / op_ns } else { 0.0 },
            ),
        ] {
            values.insert(name.into(), value);
        }
        let monitors: Vec<&Monitor> = machines(&fx.fleet).map(|m| &m.monitor).collect();
        report::insert_monitor_stats(&mut values, &monitors);
        extra.push(tload);
        values
    });
    let report = RunReport::new(
        Workload::FleetMesh,
        seed,
        params,
        setup_times,
        load,
        extra,
        per_layer,
    );
    (report, counts)
}

/// Runs the workload (see [`crate::smp_churn::run`] for the phases).
pub fn run(seed: u64, limit: Limit, traced: bool) -> RunReport {
    run_with_counters(seed, limit, traced).0
}

/// Replays the request sequence against `Fleet`'s public functions one
/// at a time, on the fleet the load left behind: `send` and `deliver`
/// separately (host ns and the sending/receiving machine's model cycles),
/// `rdma_write` alone and the TEE bracket around it, and `attest_pair`.
fn replay(fx: &mut Fixture, seed: u64, values: &mut BTreeMap<String, f64>) {
    const REPS: usize = 1024;
    let mut rng = input_rng(seed, "fleet_mesh_4/replay");
    let mut payload = [0u8; REQUEST_BYTES];
    let (mut send_ns, mut deliver_ns) = (Vec::new(), Vec::new());
    let (mut send_cycles, mut deliver_cycles) = (0u64, 0u64);
    let clock = |f: &Fleet, m: usize| {
        f.machine(m)
            .map_or(0, |x| x.monitor.machine.core_clocks.now(CORE))
    };
    for i in 0..REPS {
        let (a, b) = fx.pairs[i % fx.pairs.len()];
        rng.fill_bytes(&mut payload);
        let ca = clock(&fx.fleet, a);
        let t0 = Instant::now();
        fx.fleet.send(a, b, CORE, &payload).expect("replay send");
        send_ns.push(ns_since(t0) as f64);
        send_cycles += clock(&fx.fleet, a) - ca;
        let cb = clock(&fx.fleet, b);
        let t0 = Instant::now();
        let d = fx
            .fleet
            .deliver(b, CORE)
            .expect("replay deliver")
            .expect("replay frame lands");
        deliver_ns.push(ns_since(t0) as f64);
        deliver_cycles += clock(&fx.fleet, b) - cb;
        assert_eq!(d.payload, payload, "replayed delivery must match");
    }
    insert_replayed(values, "fleet.send_ns".into(), send_ns);
    insert_replayed(values, "fleet.deliver_ns".into(), deliver_ns);
    values.insert("fleet.send_cycles".into(), send_cycles as f64 / REPS as f64);
    values.insert(
        "fleet.deliver_cycles".into(),
        deliver_cycles as f64 / REPS as f64,
    );

    let mut big = vec![0u8; RDMA_BYTES];
    let (mut write_ns, mut bracket_ns) = (Vec::new(), Vec::new());
    for i in 0..64 {
        let (a, b) = fx.pairs[i % fx.pairs.len()];
        rng.fill_bytes(&mut big);
        let t0 = Instant::now();
        fx.fleet.enter_tee(a, CORE).expect("enter tee");
        fx.fleet
            .tee_write(a, CORE, RDMA_SRC, &big)
            .expect("stage payload");
        let staged = ns_since(t0);
        let sess = fx.sessions.get_mut(&(a, b)).expect("session");
        let t0 = Instant::now();
        fx.fleet
            .rdma_write(sess, a, b, CORE, RDMA_SRC, RDMA_BYTES, 0)
            .expect("replay rdma");
        write_ns.push(ns_since(t0) as f64);
        let t0 = Instant::now();
        fx.fleet.exit_tee(a, CORE).expect("exit tee");
        bracket_ns.push((staged + ns_since(t0)) as f64);
    }
    insert_replayed(values, "rdma.write_ns".into(), write_ns);
    insert_replayed(values, "fleet.tee_bracket_ns".into(), bracket_ns);
    let (x, y) = fx.pairs[0];
    values.insert(
        "fleet.attest_pair_ns".into(),
        replay_ns(9, || {
            fx.fleet.attest_pair(x, y).expect("replay attest_pair")
        }),
    );
    crate::layers::crypto_rates(values);
}
