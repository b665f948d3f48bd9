//! Fixture shared by the SMP stress tests: a seedable RNG and a booted
//! machine with one sealed tenant entered on each worker core.

use tyche_core::prelude::*;
use tyche_monitor::{boot_x86, BootConfig, Monitor, MonitorCall};

/// Where the first tenant window starts in physical memory.
const WINDOWS_BASE: u64 = 0x40_0000;

/// xorshift64* — tiny, seedable, good enough to diversify interleavings.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The stress seed: `TYCHE_STRESS_SEED`, default 1.
pub fn seed_from_env() -> u64 {
    std::env::var("TYCHE_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The first byte of tenant `i`'s window.
pub fn window_base(i: usize, window: u64) -> u64 {
    WINDOWS_BASE + i as u64 * window
}

/// Boots an x86 machine with `cores` cores. Tenant `i` (one per core
/// `0..tenants`) gets a private `window`-byte slice of root RAM, CPU
/// core `i` and an entry point; it is sealed nestable, so it can still
/// create children and share outward, and entered on core `i`, so every
/// hypercall that core issues runs as the tenant. Deterministic: two
/// calls build `==` engines. Returns each tenant with its window cap.
pub fn boot_tenants(
    cores: usize,
    tenants: usize,
    window: u64,
) -> (Monitor, Vec<(DomainId, CapId)>) {
    let mut cfg = BootConfig::default();
    cfg.machine.cores = cores;
    let mut m = boot_x86(cfg);
    let root = m.engine.root().unwrap();
    let end = window_base(tenants, window);
    let ram = root_cap(
        &m,
        root,
        |r| matches!(r, Resource::Memory(mr) if mr.start <= WINDOWS_BASE && end <= mr.end),
    );
    let mut out = Vec::new();
    let mut gates = Vec::new();
    for i in 0..tenants {
        let base = window_base(i, window);
        let (t, gate) = m.engine.create_domain(root).unwrap();
        let my_window = m
            .engine
            .share(
                root,
                ram,
                t,
                Some(MemRegion::new(base, base + window)),
                Rights::RWX,
                RevocationPolicy::NONE,
            )
            .unwrap();
        let core_cap = root_cap(&m, root, |r| *r == Resource::CpuCore(i));
        m.engine
            .share(root, core_cap, t, None, Rights::USE, RevocationPolicy::NONE)
            .unwrap();
        m.engine.set_entry(root, t, base).unwrap();
        m.engine.seal(root, t, SealPolicy::nestable()).unwrap();
        out.push((t, my_window));
        gates.push(gate);
    }
    m.sync_effects().unwrap();
    for (core, gate) in gates.into_iter().enumerate() {
        m.call(core, MonitorCall::Enter { cap: gate }).unwrap();
    }
    (m, out)
}

/// Root's active capability whose resource satisfies `want`.
fn root_cap(m: &Monitor, root: DomainId, want: impl Fn(&Resource) -> bool) -> CapId {
    m.engine
        .caps_of(root)
        .iter()
        .find(|c| c.active && want(&c.resource))
        .map(|c| c.id)
        .unwrap()
}
