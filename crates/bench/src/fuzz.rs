//! Adversarial hypercall fuzzing under deterministic fault injection.
//!
//! Every run is a pure function of its seed: a [`ChaChaRng`] drives the
//! call schedule, the argument corpus, the core selection, *and* the
//! [`FaultPlan`]s armed against the simulated hardware — no wall-clock,
//! no OS randomness, no thread interleaving. Identical seeds therefore
//! replay identical traces (checked by hashing every step into a
//! running digest), which turns any fuzz failure into a one-line
//! reproducer: `repro fuzz` with the seed.
//!
//! Each seed runs three phases over the same budget:
//!
//! 1. **x86 direct** — raw `(leaf, args)` registers through
//!    [`MonitorCall::decode`] into [`Monitor::call`], with fault plans
//!    arming mid-stream;
//! 2. **x86 SMP** — the same schedule shape served through
//!    [`ConcurrentMonitor::serve`] (single-threaded round-robin across
//!    cores, so the shard/read/shootdown tiers are exercised
//!    without sacrificing determinism), with periodic
//!    [`ConcurrentMonitor::sync_shootdowns`];
//! 3. **RISC-V direct** — the PMP backend under the same storm;
//! 4. **fleet** (seeds in [`FLEET_SEEDS`] only) — a 3-machine attested
//!    fleet exchanging AEAD-tagged frames under seeded NIC drop/dup
//!    faults, every violation resolving to a recorded teardown and the
//!    per-machine channel traces replayed through the runtime
//!    verifiers.
//!
//! After every call the engine auditor must come back clean; at the end
//! of each phase the injector is disarmed and hardware state must match
//! the engine for every non-quarantined domain. The pass criterion is
//! the tentpole's: every fuzzed call and injected fault resolves to a
//! checked error or a documented quarantine — never a panic, never a
//! silent invariant break.

use tyche_core::audit;
use tyche_core::engine::CapEngine;
use tyche_core::trace::{EventKind, TraceLog};
use tyche_crypto::{hash_parts, ChaChaRng, Digest};
use tyche_fleet::{Fleet, FleetConfig};
use tyche_hw::faults::{FaultPlan, FaultSite};
use tyche_monitor::abi::leaf;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{
    boot_riscv, boot_x86, BootConfig, ConcurrentMonitor, Monitor, MonitorCall, Status,
};
use tyche_verify::{rv, trace};

/// Every site the injector knows; the fuzzer arms them all.
const SITES: [FaultSite; 8] = [
    FaultSite::MemRead,
    FaultSite::MemWrite,
    FaultSite::IpiDrop,
    FaultSite::IpiDup,
    FaultSite::EptWalk,
    FaultSite::PmpWalk,
    FaultSite::DrbgEntropy,
    FaultSite::TpmQuote,
];

/// Every defined leaf, so structured draws cover the whole ABI.
const LEAVES: [u64; 14] = [
    leaf::CREATE_DOMAIN,
    leaf::SHARE,
    leaf::GRANT,
    leaf::SPLIT,
    leaf::REVOKE,
    leaf::SEAL,
    leaf::SET_ENTRY,
    leaf::RECORD_CONTENT,
    leaf::MAKE_TRANSITION,
    leaf::KILL,
    leaf::ENUMERATE,
    leaf::ENTER,
    leaf::RETURN,
    leaf::ATTEST,
];

/// One seed's campaign configuration.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// RNG seed; the run is a pure function of it.
    pub seed: u64,
    /// Total hypercalls to issue, split across the three phases.
    pub calls: u64,
    /// Whether fault plans get armed during the run.
    pub faults: bool,
}

/// Outcome of one seed's campaign.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// The seed that produced this report.
    pub seed: u64,
    /// Hypercalls issued (decoded or not).
    pub calls: u64,
    /// Calls that succeeded.
    pub ok: u64,
    /// Calls the monitor refused with a checked [`Status`].
    pub refused: u64,
    /// Register loads [`MonitorCall::decode`] rejected as malformed.
    pub malformed: u64,
    /// Domain memory accesses and TPM operations interleaved with the
    /// calls (the paths most fault sites live on).
    pub accesses: u64,
    /// Hardware faults the injector fired.
    pub faults_fired: u64,
    /// Domains quarantined after unrecoverable backend faults.
    pub quarantines: u64,
    /// Engine-auditor and hardware-audit findings (must stay empty).
    pub audit_failures: Vec<String>,
    /// Running hash over every step: (phase, regs, outcome).
    pub trace: Digest,
}

impl FuzzReport {
    /// True when the campaign met the pass criterion: no audit finding
    /// (panics never get this far — the process dies).
    pub fn clean(&self) -> bool {
        self.audit_failures.is_empty()
    }
}

/// Deterministic schedule generator + step recorder shared by the phases.
struct Driver {
    rng: ChaChaRng,
    /// Harvested capability ids — live ones from the engine plus stale
    /// ones from earlier harvests, so revoked/killed ids get replayed.
    caps: Vec<u64>,
    domains: Vec<u64>,
    report: FuzzReport,
}

impl Driver {
    fn new(config: &FuzzConfig) -> Self {
        Driver {
            rng: ChaChaRng::from_seed(config.seed),
            caps: Vec::new(),
            domains: Vec::new(),
            report: FuzzReport {
                seed: config.seed,
                calls: 0,
                ok: 0,
                refused: 0,
                malformed: 0,
                accesses: 0,
                faults_fired: 0,
                quarantines: 0,
                audit_failures: Vec::new(),
                trace: Digest::ZERO,
            },
        }
    }

    /// One argument register: boundary values, plausible addresses, and
    /// harvested ids, weighted so structured calls decode often enough
    /// to reach the engine.
    fn arg(&mut self) -> u64 {
        match self.rng.below(13) {
            // A well-formed flag word: any rights nibble plus any
            // revocation-policy bits, so zero-on-revoke and TLB-flush
            // paths (and the memory writes and IPIs they cause) get hit.
            12 => self.rng.below(16) | (self.rng.below(8) << 8),
            0 => 0,
            1 => 1,
            2 => u64::MAX,
            // One page butting against the top of the address space —
            // the overflow boundary for exclusive-end arithmetic.
            3 => u64::MAX - 4095,
            4 => u64::MAX - 4096,
            5 => self.rng.below(64) << 12,
            6 => (self.rng.below(64) << 12) | (1 + self.rng.below(4095)),
            7 => self.pick_cap(),
            8 => self.pick_domain(),
            // Small integers: flag words, seal booleans, core counts.
            9 => self.rng.below(8),
            // Plausible domain-RAM addresses, page-aligned.
            10 => 0x10_0000 + (self.rng.below(256) << 12),
            _ => self.rng.next_u64(),
        }
    }

    fn pick_cap(&mut self) -> u64 {
        if self.caps.is_empty() {
            return self.rng.below(512);
        }
        let i = self.rng.below(self.caps.len() as u64) as usize;
        self.caps[i]
    }

    fn pick_domain(&mut self) -> u64 {
        if self.domains.is_empty() {
            return self.rng.below(64);
        }
        let i = self.rng.below(self.domains.len() as u64) as usize;
        self.domains[i]
    }

    /// Draws raw ABI registers: mostly defined leaves with adversarial
    /// arguments, sometimes a fully random leaf.
    fn gen_regs(&mut self) -> (u64, [u64; 6]) {
        let leaf_v = if self.rng.below(8) == 0 {
            self.rng.next_u64() & 0x3ff
        } else {
            LEAVES[self.rng.below(LEAVES.len() as u64) as usize]
        };
        let mut args = [0u64; 6];
        for a in args.iter_mut() {
            *a = self.arg();
        }
        (leaf_v, args)
    }

    fn gen_plan(&mut self) -> FaultPlan {
        let site = SITES[self.rng.below(SITES.len() as u64) as usize];
        FaultPlan::after(site, self.rng.below(6), 1 + self.rng.below(3))
    }

    /// Folds one step into the running trace digest.
    fn record(&mut self, phase: u64, leaf_v: u64, args: &[u64; 6], code: u64, aux: u64) {
        let mut buf = [0u8; 80];
        for (slot, v) in [phase, leaf_v, code, aux]
            .iter()
            .chain(args.iter())
            .enumerate()
        {
            buf[slot * 8..slot * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        self.report.trace = hash_parts(&[self.report.trace.as_bytes(), &buf]);
    }

    fn tally(&mut self, res: &Result<CallResult, Status>) {
        match res {
            Ok(r) => {
                self.report.ok += 1;
                match r {
                    CallResult::NewDomain { domain, transition } => {
                        self.domains.push(domain.0);
                        self.caps.push(transition.0);
                    }
                    CallResult::Cap(c) => self.caps.push(c.0),
                    CallResult::Caps(lo, hi) => {
                        self.caps.push(lo.0);
                        self.caps.push(hi.0);
                    }
                    _ => {}
                }
            }
            Err(_) => self.report.refused += 1,
        }
    }

    /// Refreshes the id corpus from the engine, keeping a bounded tail
    /// of stale ids so freed ids keep getting replayed.
    fn harvest(&mut self, engine: &CapEngine) {
        if self.domains.len() > 96 {
            self.domains.drain(..self.domains.len() - 32);
        }
        if self.caps.len() > 192 {
            self.caps.drain(..self.caps.len() - 64);
        }
        for d in engine.domains() {
            self.domains.push(d.id.0);
            for c in engine.caps_of(d.id) {
                self.caps.push(c.id.0);
            }
        }
    }

    fn check_audit(&mut self, engine: &CapEngine, phase: &str, step: u64) {
        if self.report.audit_failures.len() >= 8 {
            return;
        }
        let v = audit::audit(engine);
        if !v.is_empty() {
            self.report.audit_failures.push(format!(
                "seed {} {phase} step {step}: {v:?}",
                self.report.seed
            ));
        }
    }
}

/// Maps a call outcome to a stable (code, aux) pair for the trace.
fn outcome(res: &Result<CallResult, Status>) -> (u64, u64) {
    match res {
        Ok(CallResult::Unit) => (1, 0),
        Ok(CallResult::NewDomain { domain, transition }) => {
            (2, domain.0 ^ transition.0.rotate_left(32))
        }
        Ok(CallResult::Cap(c)) => (3, c.0),
        Ok(CallResult::Caps(lo, hi)) => (4, lo.0 ^ hi.0.rotate_left(32)),
        Ok(CallResult::Measurement(d)) => (5, u64::from_le_bytes(d.0[..8].try_into().unwrap())),
        Ok(CallResult::Count(n)) => (6, *n),
        Ok(CallResult::Report(r)) => (
            7,
            u64::from_le_bytes(r.signature.0 .0[..8].try_into().unwrap()),
        ),
        Ok(CallResult::Entered { target, .. }) => (8, target.0),
        Ok(CallResult::Returned { to }) => (9, to.0),
        Err(s) => (0xff, *s as u64),
    }
}

/// A domain memory access or TPM operation: the hardware events (as
/// opposed to hypercalls) that reach the memory, translation-walk, and
/// TPM fault sites. Each resolves to `Ok` or a checked error, and its
/// outcome goes into the trace like any call.
fn access_event(m: &mut Monitor, d: &mut Driver, core: usize, phase: u64) {
    d.report.accesses += 1;
    let kind = d.rng.below(6);
    // Mostly plausible domain-RAM addresses (so the walk succeeds and
    // the memory sites get visited), sometimes a raw boundary value.
    let addr = if d.rng.below(4) == 0 {
        d.arg()
    } else {
        0x10_0000 + (d.rng.below(256) << 12) + d.rng.below(4080)
    };
    let code = match kind {
        0 => m.dom_read(core, addr, &mut [0u8; 16]).is_err() as u64,
        1 => m.dom_write(core, addr, &[0xa5; 16]).is_err() as u64,
        2 => m.dom_fetch(core, addr).is_err() as u64,
        3 => {
            let mut nonce = [0u8; 32];
            d.rng.fill_bytes(&mut nonce);
            m.machine_quote(nonce).is_err() as u64
        }
        4 => m.machine.tpm.fresh_nonce().is_err() as u64,
        _ => m.machine.irq.raise(32 + (addr % 16) as u32).is_none() as u64,
    };
    d.record(phase, 0xf000 + kind, &[addr, 0, 0, 0, 0, 0], 0xac, code);
}

/// Phase 1/3: raw registers straight into [`Monitor::call`].
fn drive_monitor(m: &mut Monitor, d: &mut Driver, n: u64, faults: bool, phase: u64, name: &str) {
    let cores = m.machine.cores as u64;
    for step in 0..n {
        if faults && d.rng.below(24) == 0 {
            let plan = d.gen_plan();
            m.machine.faults.arm(plan);
        }
        let core = d.rng.below(cores) as usize;
        if d.rng.below(6) == 0 {
            access_event(m, d, core, phase);
        }
        let (leaf_v, args) = d.gen_regs();
        d.report.calls += 1;
        match MonitorCall::decode(leaf_v, args) {
            None => {
                d.report.malformed += 1;
                d.record(phase, leaf_v, &args, 0xee, 0);
            }
            Some(call) => {
                let res = m.call(core, call);
                d.tally(&res);
                let (code, aux) = outcome(&res);
                d.record(phase, leaf_v, &args, code, aux);
            }
        }
        if step % 64 == 0 {
            d.harvest(&m.engine);
        }
        d.check_audit(&m.engine, name, step);
    }
    // Phase teardown: disarm the injector, then hardware state must
    // match the engine for every non-quarantined domain.
    d.report.faults_fired += m.machine.faults.fired();
    m.machine.faults.clear();
    let hw = m.audit_hardware();
    if !hw.is_empty() && d.report.audit_failures.len() < 8 {
        d.report.audit_failures.push(format!(
            "seed {} {name} hardware audit: {hw:?}",
            d.report.seed
        ));
    }
}

/// Phase 2: the same storm through the SMP serving tiers. Calls go
/// round-robin-by-RNG across cores on one thread: the shard clocks,
/// live-engine reads, and shootdown queues are all exercised, and the
/// schedule stays a pure function of the seed.
fn drive_concurrent(m: Monitor, d: &mut Driver, n: u64, faults: bool, phase: u64) -> Monitor {
    let injector = m.machine.faults.clone();
    let cm = ConcurrentMonitor::new(m);
    let cores = cm.cores() as u64;
    for step in 0..n {
        if faults && d.rng.below(24) == 0 {
            injector.arm(d.gen_plan());
        }
        let core = d.rng.below(cores) as usize;
        let (leaf_v, args) = d.gen_regs();
        d.report.calls += 1;
        match MonitorCall::decode(leaf_v, args) {
            None => {
                d.report.malformed += 1;
                d.record(phase, leaf_v, &args, 0xee, 0);
            }
            Some(call) => {
                let res = cm.serve(core, call);
                d.tally(&res);
                let (code, aux) = outcome(&res);
                d.record(phase, leaf_v, &args, code, aux);
            }
        }
        if d.rng.below(16) == 0 {
            cm.sync_shootdowns(core);
        }
        if step % 64 == 0 {
            cm.with_inner(|inner| d.harvest(&inner.engine));
        }
        cm.with_inner(|inner| d.check_audit(&inner.engine, "x86-smp", step));
    }
    for core in 0..cores as usize {
        cm.sync_shootdowns(core);
    }
    let mut m = cm.finish();
    d.report.faults_fired += injector.fired();
    injector.clear();
    let hw = m.audit_hardware();
    if !hw.is_empty() && d.report.audit_failures.len() < 8 {
        d.report.audit_failures.push(format!(
            "seed {} x86-smp hardware audit: {hw:?}",
            d.report.seed
        ));
    }
    // Drain anything the serve tiers left pending so the engine and
    // hardware agree before the next phase reuses the budget counters.
    let _ = m.sync_effects();
    m
}

/// Seeds that run the cross-machine fleet phase. Seed 5 sits inside the
/// CI smoke subset so the phase stays exercised on every push; seed 21
/// is full-campaign only.
pub const FLEET_SEEDS: [u64; 2] = [5, 21];

/// Phase 4: a 3-machine attested fleet with NIC drop/dup faults armed
/// on the receiving side. Every send/pump outcome folds into the step
/// digest (so replay divergence covers the fleet), channel quarantines
/// add to the campaign counters, and the drained per-machine traces go
/// through the same RV replay as the x86 and RISC-V phases — an
/// injected fault must resolve to a violation-plus-teardown pair the
/// checkers accept, never a checker finding.
fn drive_fleet(d: &mut Driver, traced: bool) -> Vec<(&'static str, TraceLog)> {
    const NAMES: [&str; 3] = ["fleet-0", "fleet-1", "fleet-2"];
    let mut fleet = Fleet::new(&FleetConfig {
        machines: NAMES.len(),
        seed: d.report.seed,
        ..FleetConfig::default()
    })
    .expect("fleet boots");
    if traced {
        fleet.enable_tracing();
    }
    // The NIC model consults the destination machine's plans, so the
    // faults arm on receivers: one dropped frame (surfaces as a
    // sequence gap on the next delivery) and one duplicated frame
    // (surfaces as a replay).
    for (m, site, skip) in [(1usize, FaultSite::NicDrop, 2), (2, FaultSite::NicDup, 4)] {
        fleet
            .machine_mut(m)
            .expect("fleet machine")
            .monitor
            .machine
            .faults
            .arm(FaultPlan::after(site, skip, 1));
    }
    let up = fleet.establish_all() as u64;
    d.record(4, 0xf1e7, &[up, 0, 0, 0, 0, 0], 0, 0);

    let pairs = [(0usize, 1usize), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)];
    for step in 0..24u64 {
        let (a, b) = pairs[step as usize % pairs.len()];
        let core = (step % 2) as usize;
        let payload = [d.report.seed as u8, step as u8, a as u8, b as u8];
        let code = fleet.send(a, b, core, &payload).unwrap_or(u64::MAX);
        let (accepted, rejected) = fleet.pump(b, core);
        let reason = rejected.first().map(|v| v.reason as u64).unwrap_or(0);
        d.record(
            4,
            0xf1ee,
            &[
                a as u64,
                b as u64,
                step,
                accepted.len() as u64,
                rejected.len() as u64,
                0,
            ],
            code,
            reason,
        );
    }

    let (mut accepted, mut violations, mut quarantined) = (0u64, 0u64, 0u64);
    for i in 0..fleet.len() {
        let s = fleet.machine(i).expect("fleet machine").stats();
        accepted += s.accepted;
        violations += s.violations;
        quarantined += s.quarantined;
    }
    d.report.quarantines += quarantined;
    d.record(
        4,
        0xf1e8,
        &[accepted, violations, quarantined, 0, 0, 0],
        0,
        0,
    );

    NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let m = fleet.machine(i).expect("fleet machine");
            m.monitor
                .trace()
                .emit_engine(EventKind::PhaseEnd { phase: 4 });
            (*name, m.monitor.trace().drain())
        })
        .collect()
}

/// One machine's drained trace: the structured event log, its chained
/// digest, and the runtime-verification verdicts over it.
#[derive(Clone, Debug)]
pub struct PhaseTrace {
    /// Which machine produced it (`"x86"` covers the direct + SMP
    /// phases, which share one monitor; `"riscv"` is phase 3).
    pub name: &'static str,
    /// The drained, seq-ordered event log.
    pub log: TraceLog,
    /// SHA-256 hash chain over the canonical event encoding.
    pub chain: Digest,
    /// Temporal-invariant violations found by [`rv::check_all`].
    pub findings: Vec<rv::Finding>,
}

/// Everything one seed's campaign produced beyond the summary report:
/// the per-machine traces and the final engine states (for the
/// zero-perturbation property test).
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// The summary report (RV findings are folded into
    /// `audit_failures` with an `rv:` prefix).
    pub report: FuzzReport,
    /// Drained traces, one per machine: `x86` then `riscv`, followed by
    /// `fleet-0..2` for seeds in [`FLEET_SEEDS`].
    pub phases: Vec<PhaseTrace>,
    /// Final x86 engine state.
    pub x86_engine: CapEngine,
    /// Final RISC-V engine state.
    pub riscv_engine: CapEngine,
}

/// Runs one seed's full campaign with tracing enabled (the default:
/// emission consumes no RNG draws and no simulated cycles, so the step
/// digest is identical either way — `zero_perturbation` locks that in).
pub fn run(config: FuzzConfig) -> FuzzReport {
    run_traced(config).report
}

/// Runs one seed's campaign with the trace layer recording, drains each
/// machine's log at its last phase boundary, and replays the runtime
/// verifiers over it. Any RV finding lands in
/// `report.audit_failures` as `rv:...` — a fuzz campaign now fails when
/// the *temporal* story breaks, not just the state story.
pub fn run_traced(config: FuzzConfig) -> CampaignOutcome {
    campaign(config, true)
}

/// Runs one seed's campaign with the trace layer left disabled (its
/// emission gate stays cold). Exists for the zero-perturbation property
/// test: report and engine states must match [`run_traced`] exactly.
pub fn run_untraced(config: FuzzConfig) -> CampaignOutcome {
    campaign(config, false)
}

fn campaign(config: FuzzConfig, traced: bool) -> CampaignOutcome {
    let mut d = Driver::new(&config);
    let direct = config.calls * 2 / 5;
    let smp = config.calls * 2 / 5;
    let riscv = config.calls - direct - smp;

    let mut m = boot_x86(BootConfig::default());
    if traced {
        m.machine.trace.enable(m.machine.cores);
    }
    drive_monitor(&mut m, &mut d, direct, config.faults, 1, "x86-direct");
    m.trace().emit_engine(EventKind::PhaseEnd { phase: 1 });
    let m = drive_concurrent(m, &mut d, smp, config.faults, 2);
    d.report.quarantines += m.stats().quarantines;
    m.trace().emit_engine(EventKind::PhaseEnd { phase: 2 });
    let x86_log = m.trace().drain();

    // Fresh corpus for the RISC-V machine: its id space starts over.
    d.caps.clear();
    d.domains.clear();
    let mut rv_m = boot_riscv(BootConfig::default());
    if traced {
        rv_m.machine.trace.enable(rv_m.machine.cores);
    }
    drive_monitor(&mut rv_m, &mut d, riscv, config.faults, 3, "riscv-direct");
    d.report.quarantines += rv_m.stats().quarantines;
    rv_m.trace().emit_engine(EventKind::PhaseEnd { phase: 3 });
    let riscv_log = rv_m.trace().drain();

    let mut logs: Vec<(&'static str, TraceLog)> = vec![("x86", x86_log), ("riscv", riscv_log)];
    if FLEET_SEEDS.contains(&config.seed) {
        logs.extend(drive_fleet(&mut d, traced));
    }
    let phases: Vec<PhaseTrace> = logs
        .into_iter()
        .map(|(name, log)| {
            let findings = rv::check_all(&log);
            let chain = trace::chain(&log);
            PhaseTrace {
                name,
                log,
                chain,
                findings,
            }
        })
        .collect();
    for phase in &phases {
        for f in &phase.findings {
            if d.report.audit_failures.len() < 8 {
                d.report
                    .audit_failures
                    .push(format!("rv:seed {} {}: {f}", d.report.seed, phase.name));
            }
        }
    }

    CampaignOutcome {
        report: d.report,
        phases,
        x86_engine: m.engine,
        riscv_engine: rv_m.engine,
    }
}

/// Runs `config` twice and checks the traces match — the determinism
/// guarantee the whole layer is built on.
pub fn replays_identically(config: FuzzConfig) -> bool {
    run(config).trace == run(config).trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            calls: 300,
            faults: true,
        }
    }

    #[test]
    fn campaign_is_clean_and_counts_add_up() {
        let r = run(small(7));
        assert!(r.clean(), "audit failures: {:?}", r.audit_failures);
        assert_eq!(r.calls, 300);
        assert_eq!(r.ok + r.refused + r.malformed, r.calls);
        assert!(r.ok > 0, "some structured calls must succeed");
        assert!(r.refused > 0, "adversarial args must get refused");
        assert!(r.malformed > 0, "garbage leaves must fail decode");
    }

    #[test]
    fn identical_seeds_replay_identical_traces() {
        assert!(replays_identically(small(11)));
    }

    #[test]
    fn gated_seeds_run_the_fleet_phase_clean() {
        let outcome = run_traced(small(FLEET_SEEDS[0]));
        assert!(
            outcome.report.clean(),
            "audit failures: {:?}",
            outcome.report.audit_failures
        );
        let names: Vec<&str> = outcome.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["x86", "riscv", "fleet-0", "fleet-1", "fleet-2"]);
        // The injected NIC faults must actually bite: violations on the
        // fleet traces resolve to teardown pairs the checkers accept.
        assert!(
            outcome.report.quarantines > 0,
            "fleet faults must quarantine a peer"
        );
        // Ungated seeds keep the two-machine shape.
        assert_eq!(run_traced(small(11)).phases.len(), 2);
        // And the gated seed still replays bit-identically.
        assert!(replays_identically(small(FLEET_SEEDS[0])));
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(run(small(1)).trace, run(small(2)).trace);
    }

    #[test]
    fn faults_change_the_trace() {
        let with = run(small(13));
        let without = run(FuzzConfig {
            faults: false,
            ..small(13)
        });
        // Fault arming consumes RNG draws and changes outcomes, so the
        // traces must differ — proof the injector actually engages.
        assert_ne!(with.trace, without.trace);
        assert!(with.faults_fired > 0, "plans must fire in 300 calls");
    }
}
