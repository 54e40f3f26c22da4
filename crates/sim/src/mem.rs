//! Sparse paged byte-addressable memory shared by the guest image, guest
//! data, the DBT's code cache and the host machine.
//!
//! # Fast paths
//!
//! Memory sits on the simulator's hottest path (every guest load/store and
//! every code write), so the page table is tuned accordingly:
//!
//! * pages live in an [`FxHashMap`] rather than a
//!   SipHash map,
//! * a **last-page pointer cache** remembers the most recently touched page
//!   so consecutive accesses to the same 4 KB page (the overwhelmingly
//!   common case) skip the map probe entirely — used by every `&mut self`
//!   accessor, i.e. all writes plus the [`Memory::load_int`] /
//!   [`Memory::load_u32_aligned`] / [`Memory::load_u64_aligned`] read paths
//!   the machines use, and
//! * aligned `u32`/`u64` accessors serve instruction fetch and
//!   `ldl`/`stl`/`ldq`/`stq` without the page-straddle check or the
//!   byte-copy loop (a naturally aligned access can never cross a page).
//!
//! # Safety model
//!
//! Page payloads are `Box<UnsafeCell<[u8; PAGE_SIZE]>>`, giving every page a
//! stable heap address for the pointer cache to hold across map rehashes.
//! The invariants that make this sound:
//!
//! * pages are **never deallocated** while the `Memory` lives — there is no
//!   unmap/remove operation, so a cached pointer can never dangle;
//! * page contents and the pointer cache are only mutated inside
//!   `&mut self` methods; `&self` methods are strictly read-only. `Memory`
//!   therefore has no observable interior mutability and is `Send + Sync`
//!   like an ordinary data structure;
//! * `Clone` deep-copies the pages and resets the cache, so a clone never
//!   aliases its source.

use crate::hashing::FxHashMap;
use bridge_x86::exec::GuestMem;
use bridge_x86::insn::Width;
use std::cell::UnsafeCell;
use std::fmt;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE - 1) as u64;

/// Sentinel page index for an empty pointer cache. Unreachable as a real
/// index: a real index is `addr >> 12`, at most `2^52 - 1`.
const NO_PAGE: u64 = u64::MAX;

type Page = [u8; PAGE_SIZE];

/// Sparse 64-bit-addressed memory. Unmapped bytes read as zero; writes
/// allocate pages on demand. All accesses may be unaligned — alignment
/// *policy* lives in the CPUs, not in memory.
pub struct Memory {
    pages: FxHashMap<u64, Box<UnsafeCell<Page>>>,
    /// Last-page pointer cache: `(page index, payload pointer)`. Read and
    /// written only by `&mut self` methods.
    last: (u64, *mut Page),
}

// SAFETY: `Memory` owns its pages outright and the cached raw pointer only
// ever points into those owned allocations, so moving the whole `Memory`
// to another thread moves the pointee along with the pointer.
unsafe impl Send for Memory {}
// SAFETY: `&self` methods neither write page contents nor touch the
// pointer cache (see the module docs), so shared references permit only
// concurrent reads of plain bytes.
unsafe impl Sync for Memory {}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            pages: FxHashMap::default(),
            last: (NO_PAGE, std::ptr::null_mut()),
        }
    }
}

impl Clone for Memory {
    fn clone(&self) -> Memory {
        let pages = self
            .pages
            .iter()
            // SAFETY: `&self` guarantees no writer is active, so the page
            // contents are stable while we copy them.
            .map(|(&idx, cell)| (idx, Box::new(UnsafeCell::new(unsafe { *cell.get() }))))
            .collect();
        Memory {
            pages,
            last: (NO_PAGE, std::ptr::null_mut()),
        }
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("mapped_pages", &self.pages.len())
            .finish_non_exhaustive()
    }
}

impl Memory {
    /// New empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of mapped pages (for diagnostics / footprint checks).
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Shared view of the page holding `idx`, if mapped (no cache).
    #[inline]
    fn page(&self, idx: u64) -> Option<&Page> {
        // SAFETY: `&self` methods never write, so shared access to the
        // payload is data-race free even with other `&self` readers.
        self.pages.get(&idx).map(|cell| unsafe { &*cell.get() })
    }

    /// Pointer to the page holding `idx`, if mapped, via the one-entry
    /// cache.
    #[inline]
    fn cached_page(&mut self, idx: u64) -> Option<*mut Page> {
        let (cached_idx, ptr) = self.last;
        if cached_idx == idx {
            return Some(ptr);
        }
        match self.pages.get(&idx) {
            Some(cell) => {
                let p = cell.get();
                self.last = (idx, p);
                Some(p)
            }
            None => None,
        }
    }

    /// Pointer to the page holding `idx`, mapping it zero-filled if needed.
    #[inline]
    fn cached_page_mut(&mut self, idx: u64) -> *mut Page {
        if let Some(p) = self.cached_page(idx) {
            return p;
        }
        let p = self
            .pages
            .entry(idx)
            .or_insert_with(|| Box::new(UnsafeCell::new([0; PAGE_SIZE])))
            .get();
        self.last = (idx, p);
        p
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr >> PAGE_SHIFT) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, mapping the page if needed.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let p = self.cached_page_mut(addr >> PAGE_SHIFT);
        // SAFETY: `&mut self` gives exclusive access to the page payloads,
        // and the pointer is valid for the life of `self` (pages are never
        // deallocated).
        unsafe { (*p)[(addr & PAGE_MASK) as usize] = value }
    }

    /// Reads `size` bytes little-endian, zero-extended. `size` must be
    /// 1..=8.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    pub fn read_int(&self, addr: u64, size: u32) -> u64 {
        assert!((1..=8).contains(&size), "size must be 1..=8");
        // Fast path: whole access within one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + size as usize <= PAGE_SIZE {
            return match self.page(addr >> PAGE_SHIFT) {
                Some(page) => read_le(page, off, size),
                None => 0,
            };
        }
        let mut v = 0u64;
        for i in 0..size {
            v |= u64::from(self.read_u8(addr.wrapping_add(u64::from(i)))) << (8 * i);
        }
        v
    }

    /// Reads like [`Memory::read_int`] but through the last-page pointer
    /// cache — the machines' load path.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    pub fn load_int(&mut self, addr: u64, size: u32) -> u64 {
        assert!((1..=8).contains(&size), "size must be 1..=8");
        let off = (addr & PAGE_MASK) as usize;
        if off + size as usize <= PAGE_SIZE {
            return match self.cached_page(addr >> PAGE_SHIFT) {
                // SAFETY: see `write_u8` for pointer validity; `&mut self`
                // excludes concurrent access.
                Some(p) => read_le(unsafe { &*p }, off, size),
                None => 0,
            };
        }
        let mut v = 0u64;
        for i in 0..size {
            v |= u64::from(self.read_u8(addr.wrapping_add(u64::from(i)))) << (8 * i);
        }
        v
    }

    /// [`Memory::load_int`] with a compile-time width: the byte count is a
    /// constant at every call site, so the in-page copy compiles to a
    /// single (possibly unaligned) load instead of a variable-length copy.
    /// This is the x86 interpreter's memory path — guest x86 accesses may
    /// be *misaligned* (that is the point of the paper) but still lie
    /// within one page almost always.
    #[inline]
    fn load_fixed<const N: usize>(&mut self, addr: u64) -> u64 {
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            match self.cached_page(addr >> PAGE_SHIFT) {
                // SAFETY: see `write_u8` for pointer validity; `&mut self`
                // excludes concurrent access.
                Some(p) => {
                    let page = unsafe { &*p };
                    let mut buf = [0u8; 8];
                    buf[..N].copy_from_slice(&page[off..off + N]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            }
        } else {
            self.load_int(addr, N as u32)
        }
    }

    /// [`Memory::write_int`] with a compile-time width; see
    /// [`Memory::load_fixed`].
    #[inline]
    fn store_fixed<const N: usize>(&mut self, addr: u64, value: u64) {
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            let p = self.cached_page_mut(addr >> PAGE_SHIFT);
            // SAFETY: see `write_u8`.
            let page = unsafe { &mut *p };
            page[off..off + N].copy_from_slice(&value.to_le_bytes()[..N]);
        } else {
            self.write_int(addr, N as u32, value);
        }
    }

    /// Writes the low `size` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    pub fn write_int(&mut self, addr: u64, size: u32, value: u64) {
        assert!((1..=8).contains(&size), "size must be 1..=8");
        let off = (addr & PAGE_MASK) as usize;
        if off + size as usize <= PAGE_SIZE {
            let p = self.cached_page_mut(addr >> PAGE_SHIFT);
            // SAFETY: see `write_u8`.
            let page = unsafe { &mut *p };
            page[off..off + size as usize].copy_from_slice(&value.to_le_bytes()[..size as usize]);
            return;
        }
        for i in 0..size {
            self.write_u8(addr.wrapping_add(u64::from(i)), (value >> (8 * i)) as u8);
        }
    }

    /// Reads a naturally aligned 32-bit word (instruction fetch, `ldl`).
    /// An aligned word can never straddle a page.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `addr` is not 4-aligned.
    #[inline]
    pub fn read_u32_aligned(&self, addr: u64) -> u32 {
        debug_assert_eq!(addr & 3, 0, "read_u32_aligned requires 4-alignment");
        match self.page(addr >> PAGE_SHIFT) {
            Some(page) => {
                let off = (addr & PAGE_MASK) as usize;
                u32::from_le_bytes(page[off..off + 4].try_into().expect("4 bytes"))
            }
            None => 0,
        }
    }

    /// [`Memory::read_u32_aligned`] through the pointer cache — the
    /// machines' `ldl` fast path.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `addr` is not 4-aligned.
    #[inline]
    pub fn load_u32_aligned(&mut self, addr: u64) -> u32 {
        debug_assert_eq!(addr & 3, 0, "load_u32_aligned requires 4-alignment");
        match self.cached_page(addr >> PAGE_SHIFT) {
            Some(p) => {
                let off = (addr & PAGE_MASK) as usize;
                // SAFETY: see `write_u8`.
                let page = unsafe { &*p };
                u32::from_le_bytes(page[off..off + 4].try_into().expect("4 bytes"))
            }
            None => 0,
        }
    }

    /// Writes a naturally aligned 32-bit word.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `addr` is not 4-aligned.
    #[inline]
    pub fn write_u32_aligned(&mut self, addr: u64, value: u32) {
        debug_assert_eq!(addr & 3, 0, "write_u32_aligned requires 4-alignment");
        let p = self.cached_page_mut(addr >> PAGE_SHIFT);
        let off = (addr & PAGE_MASK) as usize;
        // SAFETY: see `write_u8`.
        let page = unsafe { &mut *p };
        page[off..off + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a naturally aligned 64-bit quadword.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `addr` is not 8-aligned.
    #[inline]
    pub fn read_u64_aligned(&self, addr: u64) -> u64 {
        debug_assert_eq!(addr & 7, 0, "read_u64_aligned requires 8-alignment");
        match self.page(addr >> PAGE_SHIFT) {
            Some(page) => {
                let off = (addr & PAGE_MASK) as usize;
                u64::from_le_bytes(page[off..off + 8].try_into().expect("8 bytes"))
            }
            None => 0,
        }
    }

    /// [`Memory::read_u64_aligned`] through the pointer cache — the
    /// machines' `ldq`/`ldq_u` fast path.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `addr` is not 8-aligned.
    #[inline]
    pub fn load_u64_aligned(&mut self, addr: u64) -> u64 {
        debug_assert_eq!(addr & 7, 0, "load_u64_aligned requires 8-alignment");
        match self.cached_page(addr >> PAGE_SHIFT) {
            Some(p) => {
                let off = (addr & PAGE_MASK) as usize;
                // SAFETY: see `write_u8`.
                let page = unsafe { &*p };
                u64::from_le_bytes(page[off..off + 8].try_into().expect("8 bytes"))
            }
            None => 0,
        }
    }

    /// Writes a naturally aligned 64-bit quadword — the `stq`/`stq_u` fast
    /// path.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `addr` is not 8-aligned.
    #[inline]
    pub fn write_u64_aligned(&mut self, addr: u64, value: u64) {
        debug_assert_eq!(addr & 7, 0, "write_u64_aligned requires 8-alignment");
        let p = self.cached_page_mut(addr >> PAGE_SHIFT);
        let off = (addr & PAGE_MASK) as usize;
        // SAFETY: see `write_u8`.
        let page = unsafe { &mut *p };
        page[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a 32-bit word (any alignment).
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        if addr & 3 == 0 {
            self.read_u32_aligned(addr)
        } else {
            self.read_int(addr, 4) as u32
        }
    }

    /// Writes a 32-bit word (any alignment).
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        if addr & 3 == 0 {
            self.write_u32_aligned(addr, value);
        } else {
            self.write_int(addr, 4, u64::from(value));
        }
    }

    /// Reads a 64-bit quadword (any alignment).
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        if addr & 7 == 0 {
            self.read_u64_aligned(addr)
        } else {
            self.read_int(addr, 8)
        }
    }

    /// Writes a 64-bit quadword (any alignment).
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        if addr & 7 == 0 {
            self.write_u64_aligned(addr, value);
        } else {
            self.write_int(addr, 8, value);
        }
    }

    /// Copies bytes out of memory, one page at a time; unmapped bytes
    /// read as zero. Addresses wrap at `u64::MAX` like the byte accessors.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut rest = buf;
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let (chunk, tail) = rest.split_at_mut(rest.len().min(PAGE_SIZE - off));
            match self.page(addr >> PAGE_SHIFT) {
                Some(page) => chunk.copy_from_slice(&page[off..off + chunk.len()]),
                None => chunk.fill(0),
            }
            addr = addr.wrapping_add(chunk.len() as u64);
            rest = tail;
        }
    }

    /// Copies bytes into memory, one page at a time, mapping pages as
    /// needed.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            let p = self.cached_page_mut(addr >> PAGE_SHIFT);
            // SAFETY: see `write_u8`.
            let page = unsafe { &mut *p };
            page[off..off + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            rest = tail;
        }
    }

    /// Formats `len` bytes starting at `addr` as a classic 16-byte-per-line
    /// hexdump with an ASCII gutter (diagnostics).
    pub fn hexdump(&self, addr: u64, len: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for line in 0..len.div_ceil(16) {
            let base = addr + 16 * line as u64;
            let _ = write!(out, "{base:#012x}  ");
            let n = 16.min(len - 16 * line);
            for i in 0..16 {
                if i < n {
                    let _ = write!(out, "{:02x} ", self.read_u8(base + i as u64));
                } else {
                    out.push_str("   ");
                }
                if i == 7 {
                    out.push(' ');
                }
            }
            out.push(' ');
            for i in 0..n {
                let b = self.read_u8(base + i as u64);
                out.push(if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '.'
                });
            }
            out.push('\n');
        }
        out
    }
}

/// Little-endian read of `size` bytes at `off` (caller ensures in-bounds).
#[inline]
fn read_le(page: &Page, off: usize, size: u32) -> u64 {
    let mut buf = [0u8; 8];
    buf[..size as usize].copy_from_slice(&page[off..off + size as usize]);
    u64::from_le_bytes(buf)
}

impl GuestMem for Memory {
    #[inline]
    fn load(&mut self, addr: u32, width: Width) -> u64 {
        let addr = u64::from(addr);
        match width {
            Width::W1 => self.load_fixed::<1>(addr),
            Width::W2 => self.load_fixed::<2>(addr),
            Width::W4 => self.load_fixed::<4>(addr),
            Width::W8 => self.load_fixed::<8>(addr),
        }
    }

    #[inline]
    fn store(&mut self, addr: u32, width: Width, value: u64) {
        let addr = u64::from(addr);
        match width {
            Width::W1 => self.store_fixed::<1>(addr, value),
            Width::W2 => self.store_fixed::<2>(addr, value),
            Width::W4 => self.store_fixed::<4>(addr, value),
            Width::W8 => self.store_fixed::<8>(addr, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_by_default() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xdead_beef), 0);
        assert_eq!(m.mapped_pages(), 0);
    }

    #[test]
    fn roundtrip_various_widths() {
        let mut m = Memory::new();
        m.write_int(0x1000, 1, 0xAB);
        m.write_int(0x2000, 2, 0xCDEF);
        m.write_int(0x3000, 4, 0x1234_5678);
        m.write_int(0x4000, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read_int(0x1000, 1), 0xAB);
        assert_eq!(m.read_int(0x2000, 2), 0xCDEF);
        assert_eq!(m.read_int(0x3000, 4), 0x1234_5678);
        assert_eq!(m.read_int(0x4000, 8), 0x1122_3344_5566_7788);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 3; // 3 bytes before a page boundary
        m.write_int(addr, 8, 0x0807_0605_0403_0201);
        assert_eq!(m.read_int(addr, 8), 0x0807_0605_0403_0201);
        assert_eq!(m.load_int(addr, 8), 0x0807_0605_0403_0201);
        assert_eq!(m.read_u8(addr + 7), 0x08);
        assert_eq!(m.mapped_pages(), 2);
    }

    /// Table-driven: every size 1..=8 at every offset that straddles (and
    /// just misses) a page boundary must round-trip and agree with
    /// byte-at-a-time reads.
    #[test]
    fn page_boundary_matrix() {
        let boundary = 3u64 << PAGE_SHIFT;
        for size in 1..=8u32 {
            for back in 0..=size as u64 {
                let addr = boundary - back;
                let value = 0x1122_3344_5566_7788u64
                    .wrapping_mul(u64::from(size))
                    .wrapping_add(back);
                let mut m = Memory::new();
                m.write_int(addr, size, value);
                let expect = if size == 8 {
                    value
                } else {
                    value & ((1u64 << (8 * size)) - 1)
                };
                assert_eq!(
                    m.read_int(addr, size),
                    expect,
                    "size {size} at boundary-{back}"
                );
                assert_eq!(
                    m.load_int(addr, size),
                    expect,
                    "cached load, size {size} at boundary-{back}"
                );
                // Byte-at-a-time agreement (the slow path as oracle).
                let mut v = 0u64;
                for i in 0..size {
                    v |= u64::from(m.read_u8(addr + u64::from(i))) << (8 * i);
                }
                assert_eq!(v, expect, "byte oracle, size {size} at boundary-{back}");
                // Bytes outside the access stay zero.
                assert_eq!(m.read_u8(addr - 1), 0);
                assert_eq!(m.read_u8(addr + u64::from(size)), 0);
            }
        }
    }

    /// Table-driven: the aligned fast paths (both `&self` and cached
    /// `&mut self` flavours) must be observationally identical to the
    /// generic `read_int`/`write_int`.
    #[test]
    fn aligned_fast_paths_match_generic() {
        let cases: &[u64] = &[
            0x0,
            0x8,
            0x1000 - 8, // last aligned slot of a page
            0x1000,     // first slot of the next page
            0x7FFF_F000,
            0xFFFF_FFFF_F000,
        ];
        for &addr in cases {
            let mut a = Memory::new();
            let mut b = Memory::new();
            let v64 = 0xA1B2_C3D4_E5F6_0718u64 ^ addr;
            a.write_u64_aligned(addr, v64);
            b.write_int(addr, 8, v64);
            assert_eq!(a.read_u64_aligned(addr), b.read_int(addr, 8), "{addr:#x}");
            assert_eq!(a.load_u64_aligned(addr), v64, "{addr:#x}");
            assert_eq!(a.read_int(addr, 8), v64, "{addr:#x}");

            let v32 = (v64 >> 16) as u32;
            a.write_u32_aligned(addr + 4, v32);
            b.write_int(addr + 4, 4, u64::from(v32));
            assert_eq!(
                u64::from(a.read_u32_aligned(addr + 4)),
                b.read_int(addr + 4, 4),
                "{addr:#x}"
            );
            assert_eq!(a.load_u32_aligned(addr + 4), v32, "{addr:#x}");
        }
    }

    #[test]
    fn unmapped_aligned_reads_are_zero() {
        let mut m = Memory::new();
        assert_eq!(m.read_u32_aligned(0x4_0000), 0);
        assert_eq!(m.read_u64_aligned(0x4_0000), 0);
        assert_eq!(m.load_u32_aligned(0x4_0000), 0);
        assert_eq!(m.load_u64_aligned(0x4_0000), 0);
        assert_eq!(m.mapped_pages(), 0, "reads must not map pages");
    }

    #[test]
    fn pointer_cache_survives_interleaved_pages_and_growth() {
        // Alternate between two pages while mapping many more (forcing the
        // page map to rehash) — the cache must never serve stale data.
        let mut m = Memory::new();
        m.write_u64_aligned(0x1000, 111);
        m.write_u64_aligned(0x2000, 222);
        for i in 0..512u64 {
            m.write_u8(0x10_0000 + i * 4096, i as u8); // map 512 fresh pages
            assert_eq!(m.load_u64_aligned(0x1000), 111, "iteration {i}");
            assert_eq!(m.load_u64_aligned(0x2000), 222, "iteration {i}");
        }
        assert!(m.mapped_pages() >= 514);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = Memory::new();
        a.write_u32(0x1000, 0xAABB_CCDD);
        let mut b = a.clone();
        b.write_u32(0x1000, 0x1111_2222);
        assert_eq!(a.read_u32(0x1000), 0xAABB_CCDD, "clone must not alias");
        assert_eq!(b.read_u32(0x1000), 0x1111_2222);
    }

    #[test]
    fn memory_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Memory>();
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0xAABB_CCDD);
        assert_eq!(m.read_u8(0x100), 0xDD);
        assert_eq!(m.read_u8(0x103), 0xAA);
    }

    #[test]
    fn misaligned_accesses_allowed() {
        let mut m = Memory::new();
        m.write_int(0x1001, 4, 0xCAFE_BABE);
        assert_eq!(m.read_int(0x1001, 4), 0xCAFE_BABE);
        assert_eq!(m.read_int(0x1003, 2), 0xCAFE);
    }

    #[test]
    fn bytes_helpers() {
        let mut m = Memory::new();
        m.write_bytes(0x500, &[1, 2, 3, 4, 5]);
        let mut buf = [0u8; 5];
        m.read_bytes(0x500, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5]);
    }

    /// Page-chunked copies agree with byte-at-a-time access across page
    /// boundaries, over unmapped pages and across the top of the address
    /// space.
    #[test]
    fn bulk_copies_match_bytewise_access() {
        let data: Vec<u8> = (0..3 * PAGE_SIZE + 17).map(|i| (i * 7 + 1) as u8).collect();
        for start in [0x1_0000 - 5, 0x2_0FFF, u64::MAX - 40] {
            let mut m = Memory::new();
            m.write_bytes(start, &data);
            for (i, &b) in data.iter().enumerate() {
                assert_eq!(m.read_u8(start.wrapping_add(i as u64)), b);
            }
            let mut back = vec![0xEEu8; data.len()];
            m.read_bytes(start, &mut back);
            assert_eq!(back, data);
        }
        // A read spanning mapped and unmapped pages zero-fills the gap.
        let mut m = Memory::new();
        m.write_u8(0x4FFF, 9);
        m.write_u8(0x6000, 8);
        let mut buf = vec![0xEEu8; PAGE_SIZE + 2];
        m.read_bytes(0x4FFF, &mut buf);
        assert_eq!(buf[0], 9);
        assert!(buf[1..=PAGE_SIZE].iter().all(|&b| b == 0));
        assert_eq!(buf[PAGE_SIZE + 1], 8);
        assert_eq!(m.mapped_pages(), 2, "reads never map pages");
    }

    #[test]
    fn guest_mem_trait() {
        use bridge_x86::exec::GuestMem as _;
        let mut m = Memory::new();
        m.store(0x77, Width::W4, 0x0102_0304);
        assert_eq!(m.load(0x77, Width::W4), 0x0102_0304);
        assert_eq!(m.load(0x77, Width::W2), 0x0304);
    }

    #[test]
    #[should_panic(expected = "size must be 1..=8")]
    fn oversized_read_panics() {
        Memory::new().read_int(0, 9);
    }

    #[test]
    fn hexdump_format() {
        let mut m = Memory::new();
        m.write_bytes(0x1000, b"Hello, world!\x00\xff ABC");
        let dump = m.hexdump(0x1000, 20);
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("48 65 6c 6c 6f"), "{dump}");
        assert!(dump.contains("Hello, world!"), "{dump}");
        assert!(dump.contains('.'), "non-printables become dots: {dump}");
    }
}
