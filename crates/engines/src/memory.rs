//! Linear memory with bounds checking and peak-usage accounting.
//!
//! Each memory lives on its own anonymous private mapping, as in the
//! standalone runtimes (Wasmtime's `memory_reservation` /
//! `memory_init_cow`): the kernel hands out zeroed pages on first touch,
//! so instantiating a memory costs no memset and dropping one returns its
//! pages to the OS instead of leaving them in a malloc arena. There is no
//! guard region: every access goes through an explicit bounds check.

use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

use crate::error::Trap;
use wasm_core::types::{Limits, PAGE_SIZE};

/// Hard cap on memory growth (64K pages = 4 GiB) used when a module
/// declares no maximum.
const ABSOLUTE_MAX_PAGES: u32 = 65536;

// `mmap(2)`/`munmap(2)` are declared directly: the workspace builds
// offline and deliberately has no libc dependency.
extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

const PROT_READ: i32 = 0x1;
const PROT_WRITE: i32 = 0x2;
const MAP_PRIVATE: i32 = 0x02;
#[cfg(target_os = "linux")]
const MAP_ANONYMOUS: i32 = 0x20;
#[cfg(not(target_os = "linux"))]
const MAP_ANONYMOUS: i32 = 0x1000;

/// A zero-initialised byte buffer on its own anonymous private mapping,
/// unmapped on drop. A zero-length buffer maps nothing.
struct Pages {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: `Pages` uniquely owns its mapping, like `Vec<u8>` owns its
// buffer; shared access only reads through `&[u8]`.
unsafe impl Send for Pages {}
// SAFETY: as above; `&Pages` gives out only `&[u8]`.
unsafe impl Sync for Pages {}

impl Pages {
    /// Maps `len` zeroed bytes, or returns `None` if the kernel refuses.
    fn zeroed(len: usize) -> Option<Pages> {
        if len == 0 {
            return Some(Pages { ptr: NonNull::dangling(), len });
        }
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases no existing memory; the result is checked before use.
        let p = unsafe {
            mmap(std::ptr::null_mut(), len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
        };
        // MAP_FAILED is `(void *)-1`.
        if p as isize == -1 {
            return None;
        }
        NonNull::new(p).map(|ptr| Pages { ptr, len })
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: `ptr..ptr + len` is exactly the mapping made in
            // `zeroed`, and no borrow of it outlives `self`.
            unsafe { munmap(self.ptr.as_ptr(), self.len) };
        }
    }
}

impl Deref for Pages {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for reads of `len` initialised bytes (a
        // live mapping, or dangling and aligned with `len == 0`).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for Pages {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Clone for Pages {
    fn clone(&self) -> Pages {
        let mut copy = Pages::zeroed(self.len).expect("mmap failed cloning a linear memory");
        copy.copy_from_slice(self);
        copy
    }
}

impl std::fmt::Debug for Pages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pages({} bytes)", self.len)
    }
}

/// A WebAssembly linear memory.
///
/// All accesses are bounds-checked and return [`Trap::MemoryOutOfBounds`]
/// on violation. The memory tracks its peak committed size for the
/// MRSS-style accounting used in the memory-overhead experiments.
#[derive(Debug, Clone)]
pub struct LinearMemory {
    bytes: Pages,
    limits: Limits,
    peak_bytes: usize,
}

impl LinearMemory {
    /// Creates a memory with the given limits, zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot map `limits.min` pages.
    pub fn new(limits: Limits) -> Self {
        let size = limits.min as usize * PAGE_SIZE as usize;
        LinearMemory {
            bytes: Pages::zeroed(size).expect("mmap failed for a linear memory's initial pages"),
            limits,
            peak_bytes: size,
        }
    }

    /// Current size in pages.
    pub fn size_pages(&self) -> u32 {
        (self.bytes.len() / PAGE_SIZE as usize) as u32
    }

    /// Current size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Peak committed size in bytes over the memory's lifetime.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Resident-set estimate: bytes up to the last touched (non-zero)
    /// page. Wasm runtimes reserve large address ranges but the OS only
    /// commits pages actually written, which is what MRSS measures.
    pub fn resident_bytes(&self) -> usize {
        let page = PAGE_SIZE as usize;
        let mut end = self.bytes.len();
        while end > 0 {
            let start = end - page.min(end);
            if self.bytes[start..end].iter().any(|b| *b != 0) {
                return end;
            }
            end = start;
        }
        0
    }

    /// Grows the memory by `delta` pages, returning the old page count, or
    /// `-1` if growth is not possible (mirrors `memory.grow` semantics).
    pub fn grow(&mut self, delta: u32) -> i32 {
        let old = self.size_pages();
        let Some(new) = old.checked_add(delta) else {
            return -1;
        };
        let max = self.limits.max.unwrap_or(ABSOLUTE_MAX_PAGES);
        if new > max || new > ABSOLUTE_MAX_PAGES {
            return -1;
        }
        if delta == 0 {
            return old as i32;
        }
        // Map the new size, copy, and let the old mapping go.
        let Some(mut bytes) = Pages::zeroed(new as usize * PAGE_SIZE as usize) else {
            return -1;
        };
        bytes[..self.bytes.len()].copy_from_slice(&self.bytes);
        self.bytes = bytes;
        self.peak_bytes = self.peak_bytes.max(self.bytes.len());
        old as i32
    }

    #[inline]
    fn check(&self, addr: u32, offset: u32, len: u32) -> Result<usize, Trap> {
        let ea = addr as u64 + offset as u64;
        if ea + len as u64 > self.bytes.len() as u64 {
            return Err(Trap::MemoryOutOfBounds);
        }
        Ok(ea as usize)
    }

    /// Reads `N` bytes at `addr + offset`.
    ///
    /// # Errors
    ///
    /// Traps if the access is out of bounds.
    #[inline]
    pub fn read<const N: usize>(&self, addr: u32, offset: u32) -> Result<[u8; N], Trap> {
        let ea = self.check(addr, offset, N as u32)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[ea..ea + N]);
        Ok(out)
    }

    /// Writes `N` bytes at `addr + offset`.
    ///
    /// # Errors
    ///
    /// Traps if the access is out of bounds.
    #[inline]
    pub fn write<const N: usize>(&mut self, addr: u32, offset: u32, data: [u8; N]) -> Result<(), Trap> {
        let ea = self.check(addr, offset, N as u32)?;
        self.bytes[ea..ea + N].copy_from_slice(&data);
        Ok(())
    }

    /// Borrows a byte range.
    ///
    /// # Errors
    ///
    /// Traps if the range is out of bounds.
    pub fn slice(&self, addr: u32, len: u32) -> Result<&[u8], Trap> {
        let ea = self.check(addr, 0, len)?;
        Ok(&self.bytes[ea..ea + len as usize])
    }

    /// Mutably borrows a byte range.
    ///
    /// # Errors
    ///
    /// Traps if the range is out of bounds.
    pub fn slice_mut(&mut self, addr: u32, len: u32) -> Result<&mut [u8], Trap> {
        let ea = self.check(addr, 0, len)?;
        Ok(&mut self.bytes[ea..ea + len as usize])
    }

    /// Copies `data` into memory at `addr` (used for data segments and WASI).
    ///
    /// # Errors
    ///
    /// Traps if the range is out of bounds.
    pub fn write_slice(&mut self, addr: u32, data: &[u8]) -> Result<(), Trap> {
        self.slice_mut(addr, data.len() as u32)?.copy_from_slice(data);
        Ok(())
    }

    // Typed accessors used by every engine.

    /// Loads an `i32`.
    ///
    /// # Errors
    ///
    /// Traps on out-of-bounds access.
    #[inline]
    pub fn load_i32(&self, addr: u32, offset: u32) -> Result<i32, Trap> {
        Ok(i32::from_le_bytes(self.read::<4>(addr, offset)?))
    }

    /// Loads an `i64`.
    ///
    /// # Errors
    ///
    /// Traps on out-of-bounds access.
    #[inline]
    pub fn load_i64(&self, addr: u32, offset: u32) -> Result<i64, Trap> {
        Ok(i64::from_le_bytes(self.read::<8>(addr, offset)?))
    }

    /// Stores an `i32`.
    ///
    /// # Errors
    ///
    /// Traps on out-of-bounds access.
    #[inline]
    pub fn store_i32(&mut self, addr: u32, offset: u32, v: i32) -> Result<(), Trap> {
        self.write(addr, offset, v.to_le_bytes())
    }

    /// Stores an `i64`.
    ///
    /// # Errors
    ///
    /// Traps on out-of-bounds access.
    #[inline]
    pub fn store_i64(&mut self, addr: u32, offset: u32, v: i64) -> Result<(), Trap> {
        self.write(addr, offset, v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = LinearMemory::new(Limits::at_least(1));
        assert_eq!(m.size_pages(), 1);
        assert_eq!(m.load_i32(0, 0).unwrap(), 0);
        assert_eq!(m.load_i64(65528, 0).unwrap(), 0);
    }

    #[test]
    fn bounds_checked() {
        let mut m = LinearMemory::new(Limits::at_least(1));
        assert_eq!(m.load_i32(65533, 0), Err(Trap::MemoryOutOfBounds));
        assert_eq!(m.load_i32(65532, 4), Err(Trap::MemoryOutOfBounds));
        assert_eq!(m.store_i64(u32::MAX, u32::MAX, 0), Err(Trap::MemoryOutOfBounds));
        // Offset + addr can exceed u32 without wrapping.
        assert_eq!(m.load_i32(u32::MAX, 1), Err(Trap::MemoryOutOfBounds));
    }

    #[test]
    fn store_then_load() {
        let mut m = LinearMemory::new(Limits::at_least(1));
        m.store_i32(100, 4, -12345).unwrap();
        assert_eq!(m.load_i32(104, 0).unwrap(), -12345);
        m.store_i64(200, 0, i64::MIN).unwrap();
        assert_eq!(m.load_i64(200, 0).unwrap(), i64::MIN);
    }

    #[test]
    fn grow_respects_max() {
        let mut m = LinearMemory::new(Limits::bounded(1, 3));
        assert_eq!(m.grow(1), 1);
        assert_eq!(m.size_pages(), 2);
        assert_eq!(m.grow(2), -1);
        assert_eq!(m.grow(1), 2);
        assert_eq!(m.grow(1), -1);
        assert_eq!(m.peak_bytes(), 3 * PAGE_SIZE as usize);
    }

    #[test]
    fn grow_zero_is_size_query() {
        let mut m = LinearMemory::new(Limits::at_least(2));
        assert_eq!(m.grow(0), 2);
    }

    #[test]
    fn resident_tracks_touched_pages() {
        let mut m = LinearMemory::new(Limits::at_least(64));
        assert_eq!(m.resident_bytes(), 0);
        m.store_i32(5 * PAGE_SIZE, 0, 7).unwrap();
        assert_eq!(m.resident_bytes(), 6 * PAGE_SIZE as usize);
        assert_eq!(m.peak_bytes(), 64 * PAGE_SIZE as usize);
    }

    #[test]
    fn dropping_many_full_size_memories() {
        // 64 × 16 MiB, each touched at both ends, mapped and unmapped in turn.
        for i in 1..=64 {
            let mut m = LinearMemory::new(Limits::at_least(256));
            assert_eq!(m.load_i32(256 * PAGE_SIZE - 4, 0).unwrap(), 0);
            m.store_i32(0, 0, i).unwrap();
            m.store_i32(256 * PAGE_SIZE - 4, 0, i).unwrap();
            assert_eq!(m.resident_bytes(), 256 * PAGE_SIZE as usize);
        }
    }

    #[test]
    fn slice_round_trip() {
        let mut m = LinearMemory::new(Limits::at_least(1));
        m.write_slice(10, b"hello").unwrap();
        assert_eq!(m.slice(10, 5).unwrap(), b"hello");
        assert!(m.slice(65535, 2).is_err());
    }
}
