//! Simulated physical memory and a frame allocator.
//!
//! All bytes in the machine live here. Translation structures (EPT tables,
//! I/O-MMU tables) are allocated *inside* this memory and walked by reading
//! it, exactly as hardware walks DRAM — that keeps the monitor's programming
//! model honest.

use crate::addr::{PhysAddr, PhysRange, PAGE_SIZE};
use crate::faults::{FaultSite, Faults};

/// Errors raised by physical memory accesses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemError {
    /// The access touches bytes beyond the installed RAM.
    OutOfBounds {
        /// Address of the first offending byte.
        addr: PhysAddr,
        /// Length of the attempted access.
        len: u64,
    },
    /// No free frames remain.
    OutOfFrames,
    /// An injected hardware fault (uncorrectable memory error).
    Injected {
        /// Address of the failed access.
        addr: PhysAddr,
    },
}

impl core::fmt::Display for MemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len } => {
                write!(f, "physical access out of bounds: {addr} + {len}")
            }
            MemError::OutOfFrames => f.write_str("physical frame allocator exhausted"),
            MemError::Injected { addr } => {
                write!(f, "injected uncorrectable memory error at {addr}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Byte-addressable simulated RAM.
#[derive(Clone)]
pub struct PhysMem {
    bytes: Vec<u8>,
    /// Fault injector consulted on every access; inert by default.
    faults: Faults,
}

impl PhysMem {
    /// Creates `size` bytes of zeroed RAM; `size` must be page-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of the page size.
    pub fn new(size: u64) -> Self {
        assert!(
            size.is_multiple_of(PAGE_SIZE),
            "RAM size must be page-aligned"
        );
        PhysMem {
            bytes: vec![0u8; size as usize],
            faults: Faults::new(),
        }
    }

    /// Installed RAM size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Attaches a shared fault injector (done once by `Machine::new`).
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// The fault injector consulted by this memory (shared machine-wide;
    /// the EPT walker fires its walk-abort site through this handle).
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Bounds-checks an access.
    fn check(&self, addr: PhysAddr, len: u64) -> Result<(usize, usize), MemError> {
        let start = addr.as_u64();
        let end = start
            .checked_add(len)
            .ok_or(MemError::OutOfBounds { addr, len })?;
        if end > self.size() {
            return Err(MemError::OutOfBounds { addr, len });
        }
        Ok((start as usize, end as usize))
    }

    /// Reads `out.len()` bytes starting at `addr`.
    pub fn read(&self, addr: PhysAddr, out: &mut [u8]) -> Result<(), MemError> {
        if self.faults.fire(FaultSite::MemRead) {
            return Err(MemError::Injected { addr });
        }
        let (s, e) = self.check(addr, out.len() as u64)?;
        out.copy_from_slice(&self.bytes[s..e]);
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        if self.faults.fire(FaultSite::MemWrite) {
            return Err(MemError::Injected { addr });
        }
        let (s, e) = self.check(addr, data.len() as u64)?;
        self.bytes[s..e].copy_from_slice(data);
        Ok(())
    }

    /// Reads a little-endian `u64` (the width of a page-table entry).
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: PhysAddr, v: u64) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Reads a single byte.
    pub fn read_u8(&self, addr: PhysAddr) -> Result<u8, MemError> {
        let mut b = [0u8; 1];
        self.read(addr, &mut b)?;
        Ok(b[0])
    }

    /// Writes a single byte.
    pub fn write_u8(&mut self, addr: PhysAddr, v: u8) -> Result<(), MemError> {
        self.write(addr, &[v])
    }

    /// Zeroes a byte range — the "zero on revocation" clean-up primitive.
    pub fn zero_range(&mut self, range: PhysRange) -> Result<(), MemError> {
        if self.faults.fire(FaultSite::MemWrite) {
            return Err(MemError::Injected { addr: range.start });
        }
        let (s, e) = self.check(range.start, range.len())?;
        self.bytes[s..e].fill(0);
        Ok(())
    }

    /// Borrows a range immutably (for measurement).
    pub fn slice(&self, range: PhysRange) -> Result<&[u8], MemError> {
        if self.faults.fire(FaultSite::MemRead) {
            return Err(MemError::Injected { addr: range.start });
        }
        let (s, e) = self.check(range.start, range.len())?;
        Ok(&self.bytes[s..e])
    }
}

/// A bump-with-free-list physical frame allocator.
///
/// The monitor and the initial domain both allocate frames from here; a
/// production system would use the firmware memory map instead.
#[derive(Clone)]
pub struct FrameAllocator {
    /// Region the allocator hands out frames from.
    region: PhysRange,
    /// Next never-allocated frame.
    next: PhysAddr,
    /// Frames returned to the allocator.
    free: Vec<PhysAddr>,
    /// Number of frames currently handed out.
    outstanding: u64,
}

impl FrameAllocator {
    /// Creates an allocator over `region`, which must be page-aligned.
    ///
    /// # Panics
    ///
    /// Panics if the region bounds are not page-aligned.
    pub fn new(region: PhysRange) -> Self {
        assert!(
            region.start.is_page_aligned() && region.end.is_page_aligned(),
            "allocator region must be page-aligned"
        );
        FrameAllocator {
            region,
            next: region.start,
            free: Vec::new(),
            outstanding: 0,
        }
    }

    /// Allocates one zero-initialized-by-caller frame.
    pub fn alloc(&mut self) -> Result<PhysAddr, MemError> {
        self.outstanding += 1;
        if let Some(f) = self.free.pop() {
            return Ok(f);
        }
        if self.next >= self.region.end {
            self.outstanding -= 1;
            return Err(MemError::OutOfFrames);
        }
        let f = self.next;
        self.next = PhysAddr::new(self.next.as_u64() + PAGE_SIZE);
        Ok(f)
    }

    /// Allocates a frame and zeroes it in `mem`.
    pub fn alloc_zeroed(&mut self, mem: &mut PhysMem) -> Result<PhysAddr, MemError> {
        let f = self.alloc()?;
        mem.zero_range(PhysRange::from_len(f, PAGE_SIZE))?;
        Ok(f)
    }

    /// Returns a frame to the allocator.
    ///
    /// # Panics
    ///
    /// Panics if the frame is outside the allocator's region or unaligned —
    /// both indicate a monitor bug, not a recoverable condition.
    pub fn free(&mut self, frame: PhysAddr) {
        assert!(frame.is_page_aligned(), "freeing unaligned frame {frame}");
        assert!(self.region.contains(frame), "freeing foreign frame {frame}");
        self.outstanding = self.outstanding.saturating_sub(1);
        self.free.push(frame);
    }

    /// Frames currently handed out.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Total frames the region can ever provide.
    pub fn capacity(&self) -> u64 {
        self.region.len() / PAGE_SIZE
    }

    /// Frames still available (never-used plus freed).
    pub fn available(&self) -> u64 {
        (self.region.end.as_u64() - self.next.as_u64()) / PAGE_SIZE + self.free.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysMem {
        PhysMem::new(64 * PAGE_SIZE)
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        m.write(PhysAddr::new(100), b"hello").unwrap();
        let mut out = [0u8; 5];
        m.read(PhysAddr::new(100), &mut out).unwrap();
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn u64_roundtrip_little_endian() {
        let mut m = mem();
        m.write_u64(PhysAddr::new(8), 0x0123_4567_89ab_cdef)
            .unwrap();
        assert_eq!(m.read_u64(PhysAddr::new(8)).unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(
            m.read_u8(PhysAddr::new(8)).unwrap(),
            0xef,
            "little-endian layout"
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = mem();
        let end = m.size();
        assert!(matches!(
            m.write(PhysAddr::new(end - 2), b"abc"),
            Err(MemError::OutOfBounds { .. })
        ));
        let mut out = [0u8; 1];
        assert!(m.read(PhysAddr::new(end), &mut out).is_err());
        // Address arithmetic overflow must not panic.
        assert!(m.read_u64(PhysAddr::new(u64::MAX - 3)).is_err());
    }

    #[test]
    fn boundary_arithmetic_near_u64_max_is_checked() {
        let mut m = mem();
        // End-of-range computation at the very top of the address space:
        // start + len wraps for every len > 0, and len == 0 still lands
        // beyond installed RAM. All must be errors, never panics.
        let top = PhysAddr::new(u64::MAX);
        let mut out = [0u8; 1];
        assert!(matches!(
            m.read(top, &mut out),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.write(top, &[0u8; 8]),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(m.read_u64(top).is_err());
        assert!(m.write_u64(top, 7).is_err());
        assert!(m.read_u8(top).is_err());
        assert!(m.write_u8(top, 7).is_err());
        // Maximum-length access from address 0 overflows usize/RAM checks.
        assert!(m.read(PhysAddr::new(0), &mut out).is_ok());
        assert!(matches!(
            m.write(PhysAddr::new(1), &[0u8; 16]).and_then(|_| {
                let r =
                    PhysRange::new(PhysAddr::new(u64::MAX - PAGE_SIZE), PhysAddr::new(u64::MAX));
                m.zero_range(r)
            }),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(m
            .slice(PhysRange::new(
                PhysAddr::new(u64::MAX - 1),
                PhysAddr::new(u64::MAX)
            ))
            .is_err());
    }

    #[test]
    fn injected_faults_are_checked_and_one_shot() {
        use crate::faults::{FaultPlan, FaultSite};
        let mut m = mem();
        m.write(PhysAddr::new(0), b"ok").unwrap();
        m.faults().arm(FaultPlan::once(FaultSite::MemRead));
        let mut out = [0u8; 2];
        assert!(matches!(
            m.read(PhysAddr::new(0), &mut out),
            Err(MemError::Injected { .. })
        ));
        m.read(PhysAddr::new(0), &mut out).unwrap();
        assert_eq!(&out, b"ok", "memory intact after the injected error");
        m.faults().arm(FaultPlan::once(FaultSite::MemWrite));
        assert!(matches!(
            m.write(PhysAddr::new(0), b"x"),
            Err(MemError::Injected { .. })
        ));
        m.write(PhysAddr::new(0), b"x").unwrap();
        assert_eq!(m.faults().fired(), 2);
    }

    #[test]
    fn zero_range_clears() {
        let mut m = mem();
        m.write(PhysAddr::new(0x1000), &[0xff; 32]).unwrap();
        m.zero_range(PhysRange::from_len(PhysAddr::new(0x1000), 16))
            .unwrap();
        let mut out = [0u8; 32];
        m.read(PhysAddr::new(0x1000), &mut out).unwrap();
        assert_eq!(&out[..16], &[0u8; 16]);
        assert_eq!(&out[16..], &[0xffu8; 16]);
    }

    #[test]
    fn allocator_unique_frames() {
        let mut a = FrameAllocator::new(PhysRange::from_len(PhysAddr::new(0x10000), 8 * PAGE_SIZE));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let f = a.alloc().unwrap();
            assert!(f.is_page_aligned());
            assert!(seen.insert(f), "duplicate frame {f}");
        }
        assert!(matches!(a.alloc(), Err(MemError::OutOfFrames)));
        assert_eq!(a.outstanding(), 8);
    }

    #[test]
    fn allocator_reuses_freed() {
        let mut a = FrameAllocator::new(PhysRange::from_len(PhysAddr::new(0), 2 * PAGE_SIZE));
        let f1 = a.alloc().unwrap();
        let _f2 = a.alloc().unwrap();
        a.free(f1);
        assert_eq!(a.available(), 1);
        assert_eq!(a.alloc().unwrap(), f1);
    }

    #[test]
    #[should_panic(expected = "foreign frame")]
    fn allocator_rejects_foreign_free() {
        let mut a = FrameAllocator::new(PhysRange::from_len(PhysAddr::new(0), PAGE_SIZE));
        a.free(PhysAddr::new(0x100000));
    }

    #[test]
    fn alloc_zeroed_clears_recycled_frame() {
        let mut m = mem();
        let mut a = FrameAllocator::new(PhysRange::from_len(PhysAddr::new(0), 2 * PAGE_SIZE));
        let f = a.alloc().unwrap();
        m.write(f, &[0xaa; 64]).unwrap();
        a.free(f);
        let f2 = a.alloc_zeroed(&mut m).unwrap();
        assert_eq!(f, f2);
        assert_eq!(m.read_u8(f2).unwrap(), 0);
    }
}
