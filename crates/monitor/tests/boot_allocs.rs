//! Heap allocations of an x86 boot, at two RAM sizes.
//!
//! Boot identity-maps all of RAM into the root domain's EPT, and the x86
//! backend mirrors what it programmed. The mirror keeps one fixed array
//! per last-level EPT table (2 MiB of RAM), so going from 64 MiB to 1 GiB
//! may cost one more allocation per added table, plus the ordered map's
//! nodes, and never one per page. This binary installs a counting global
//! allocator, counts the allocations of `boot_x86` at both sizes, and
//! bounds the difference by [`BUDGET`].
//!
//! It is its own test binary because the allocator is process-wide:
//! counting is switched on only around each boot, and nothing else runs
//! in this process meanwhile.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tyche_hw::machine::MachineConfig;
use tyche_monitor::{boot_x86, BootConfig};

/// Counts every allocation and reallocation while `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: u64 = 1024 * 1024;
/// Extra allocations allowed for booting 1 GiB instead of 64 MiB: one per
/// added 2 MiB table, plus slack for the mirror map's nodes (559 are
/// reached). A per-page mirror made about 41k more.
const BUDGET: u64 = 600;

/// Heap allocations made while booting an x86 machine of `ram_bytes`.
fn boot_allocs(ram_bytes: u64) -> u64 {
    let config = BootConfig {
        machine: MachineConfig {
            ram_bytes,
            ..MachineConfig::default()
        },
        ..BootConfig::default()
    };
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let monitor = boot_x86(config);
    COUNTING.store(false, Ordering::Relaxed);
    drop(monitor);
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn x86_boot_allocations_grow_per_table_not_per_page() {
    let small = boot_allocs(64 * MIB);
    let large = boot_allocs(1024 * MIB);
    println!("boot_x86 heap allocations: 64 MiB {small}, 1 GiB {large}");
    assert!(
        large.saturating_sub(small) <= BUDGET,
        "booting 1 GiB made {large} allocations against {small} at 64 MiB \
         (budget +{BUDGET})"
    );
}
