//! A genuine OS shared-memory region, attachable by name.
//!
//! The paper's MPF ran as a group of Unix processes all mapping one
//! physical shared-memory region.  [`ShmRegion`] is that region: a file
//! in `/dev/shm` (tmpfs — pages never touch a disk) created by the
//! initializing process and `mmap`ed `MAP_SHARED` by every participant.
//! Because each process maps it at a different virtual address, nothing
//! stored inside may be a pointer; the whole facility above this is
//! offset-addressed (see `mpf-core`'s `layout` module), so a base pointer
//! plus the layout is all a peer needs.
//!
//! On hosts without the syscall layer ([`crate::sys::HAVE_SYSCALLS`] is
//! false) regions are heap-backed: fully functional within one process
//! (threads), with [`ShmRegion::attach`] reporting unsupported.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use crate::sys;

/// Longest accepted region name.
pub const MAX_REGION_NAME: usize = 64;

/// One mapped (or heap-emulated) shared region.
#[derive(Debug)]
pub struct ShmRegion {
    base: *mut u8,
    len: usize,
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    /// A real `MAP_SHARED` mapping of `file`; `unlink` names the path to
    /// remove on drop (the creator cleans up, attachers do not).
    Mmap {
        #[allow(dead_code)] // held to keep the fd (and thus fstat) valid
        file: File,
        unlink: Option<PathBuf>,
    },
    /// Process-private pages with no name; every handle
    /// [`ShmRegion::attach_again`] makes of them shares the one mapping.
    Anon(#[allow(dead_code)] Arc<AnonPages>),
}

/// The zeroed bytes behind an anonymous region, released when the last
/// handle drops.
#[derive(Debug)]
enum AnonPages {
    /// `mmap`ed: page-aligned, and untouched pages are never paid for.
    Mapped { base: *mut u8, len: usize },
    /// Heap fallback for hosts without the syscall layer; the words keep
    /// the 8-byte alignment in-region structs need.
    Heap(#[allow(dead_code)] Box<[u64]>),
}

impl Drop for AnonPages {
    fn drop(&mut self) {
        if let AnonPages::Mapped { base, len } = *self {
            // SAFETY: `(base, len)` is the mapping made in `anon`, and the
            // last handle holding references into it is being dropped.
            unsafe { sys::munmap(base, len) };
        }
    }
}

// SAFETY: the region is raw shared memory; every access goes through
// unsafe accessors whose contracts delegate synchronization to the
// caller (the MPF protocol).
unsafe impl Send for ShmRegion {}
unsafe impl Sync for ShmRegion {}
// SAFETY: `AnonPages` only owns the mapping (or heap words) the handles
// above point into; it is never read or written through, only dropped.
unsafe impl Send for AnonPages {}
unsafe impl Sync for AnonPages {}

fn region_dir() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    }
}

fn validate_name(name: &str) -> io::Result<()> {
    let ok = !name.is_empty()
        && name.len() <= MAX_REGION_NAME
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'));
    if ok {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid region name {name:?} (1..={MAX_REGION_NAME} of [A-Za-z0-9._:-])"),
        ))
    }
}

/// Filesystem path backing region `name`.
pub fn region_path(name: &str) -> PathBuf {
    region_dir().join(format!("mpf-region-{name}"))
}

impl ShmRegion {
    /// Creates and maps a new named region of `len` zeroed bytes.  Fails
    /// with [`io::ErrorKind::AlreadyExists`] if the name is taken.  The
    /// creator owns the name: dropping this region unlinks it.
    pub fn create(name: &str, len: usize) -> io::Result<Self> {
        validate_name(name)?;
        if !sys::HAVE_SYSCALLS {
            return Ok(Self::anon(len));
        }
        let path = region_path(name);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.set_len(len as u64)?;
        Self::map(file, len, Some(path))
    }

    /// Maps an existing named region created by another process.
    /// Attachers never unlink the name.
    pub fn attach(name: &str) -> io::Result<Self> {
        validate_name(name)?;
        if !sys::HAVE_SYSCALLS {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no mmap syscalls on this host; multi-process attach unavailable",
            ));
        }
        let path = region_path(name);
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "region exists but has not been sized yet",
            ));
        }
        Self::map(file, len, None)
    }

    /// Maps an existing named region **read-only** — the inspector's
    /// attach: works on a live session or on the leftover region of a
    /// crashed one, and can not perturb either (the mapping has no write
    /// permission, so even a buggy reader faults instead of corrupting).
    ///
    /// All `at`/`bytes_at` accesses through the returned handle must be
    /// reads; the hook layer is not engaged (an observer is not a
    /// participant).
    pub fn attach_readonly(name: &str) -> io::Result<Self> {
        validate_name(name)?;
        if !sys::HAVE_SYSCALLS {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no mmap syscalls on this host; multi-process attach unavailable",
            ));
        }
        let path = region_path(name);
        let file = OpenOptions::new().read(true).open(&path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "region exists but has not been sized yet",
            ));
        }
        use std::os::fd::AsRawFd;
        // SAFETY: `file` is open, sized to `len`, and stored in the
        // backing so it outlives the mapping.
        let base = unsafe { sys::mmap_shared_ro(file.as_raw_fd(), len) }
            .map_err(io::Error::from_raw_os_error)?;
        Ok(Self {
            base,
            len,
            backing: Backing::Mmap { file, unlink: None },
        })
    }

    /// A second handle on the same region *within this process*.  Of a
    /// named region it is an independent mapping — it lands at a different
    /// base address, which is how the position-independence tests exercise
    /// offset addressing.  An anonymous region has no name to map twice:
    /// the handle shares the one mapping.
    pub fn attach_again(&self) -> io::Result<Self> {
        match &self.backing {
            Backing::Mmap {
                unlink: Some(p), ..
            } => {
                let file = OpenOptions::new().read(true).write(true).open(p)?;
                Self::map(file, self.len, None)
            }
            Backing::Anon(pages) => Ok(Self {
                base: self.base,
                len: self.len,
                backing: Backing::Anon(Arc::clone(pages)),
            }),
            Backing::Mmap { unlink: None, .. } => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "only a creator-owned or anonymous mapping can be re-attached",
            )),
        }
    }

    /// Anonymous single-process region of `len` zeroed bytes: nothing in
    /// the file system names it, so only this process's threads can share
    /// it.  Also the portable fallback where regions cannot be mapped.
    pub fn anon(len: usize) -> Self {
        let (base, pages) = match sys::mmap_anon(len.max(1)) {
            Ok(base) => (
                base,
                AnonPages::Mapped {
                    base,
                    len: len.max(1),
                },
            ),
            Err(_) => {
                let mut heap = vec![0u64; len.div_ceil(8).max(1)].into_boxed_slice();
                (heap.as_mut_ptr().cast(), AnonPages::Heap(heap))
            }
        };
        Self {
            base,
            len,
            backing: Backing::Anon(Arc::new(pages)),
        }
    }

    fn map(file: File, len: usize, unlink: Option<PathBuf>) -> io::Result<Self> {
        use std::os::fd::AsRawFd;
        // SAFETY: `file` is open, sized to `len`, and stored in the
        // backing so it outlives the mapping.
        let base = unsafe { sys::mmap_shared(file.as_raw_fd(), len) }
            .map_err(io::Error::from_raw_os_error)?;
        // Let the hook layer give in-region primitives a
        // mapping-independent identity: two mappings of the same backing
        // file must resolve a given lock or futex word to the same
        // resource id even though their base addresses differ.
        crate::hooks::register_region(base, len, region_key(&file)?);
        Ok(Self {
            base,
            len,
            backing: Backing::Mmap { file, unlink },
        })
    }

    /// Base address of this process's mapping.  Never store this (or any
    /// pointer derived from it) inside the region.
    pub fn base(&self) -> *mut u8 {
        self.base
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length regions (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A typed reference to the object at byte `offset`.
    ///
    /// # Safety
    /// `T` must be valid for the bytes at `offset` (in-region structs are
    /// `#[repr(C)]` with atomic fields, valid for any bit pattern), the
    /// offset must be `align_of::<T>()`-aligned, and all concurrent
    /// access must go through atomics or caller-provided exclusion.
    pub unsafe fn at<T>(&self, offset: usize) -> &T {
        assert!(
            offset + std::mem::size_of::<T>() <= self.len,
            "region access out of bounds: offset {offset}, size {}, region {}",
            std::mem::size_of::<T>(),
            self.len
        );
        let ptr = self.base.add(offset);
        assert_eq!(
            ptr as usize % std::mem::align_of::<T>(),
            0,
            "misaligned region access at offset {offset}"
        );
        &*(ptr as *const T)
    }

    /// Raw pointer to `len` bytes at `offset` (bounds-checked).
    ///
    /// # Safety
    /// Concurrent access must be coordinated by the caller.
    #[inline]
    pub unsafe fn bytes_at(&self, offset: usize, len: usize) -> *mut u8 {
        assert!(
            offset + len <= self.len,
            "region access out of bounds: offset {offset}, len {len}, region {}",
            self.len
        );
        self.base.add(offset)
    }
}

/// Identity of the file backing a mapping — the same for every mapping of
/// one region, distinct across regions.
#[cfg(unix)]
fn region_key(file: &File) -> io::Result<u64> {
    use std::os::unix::fs::MetadataExt;
    let md = file.metadata()?;
    Ok(md.dev().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ md.ino())
}

/// Without Unix file identity every mapping gets its own key; aliasing
/// detection degrades to none, matching the platform's `attach` support.
#[cfg(not(unix))]
fn region_key(_file: &File) -> io::Result<u64> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    Ok(NEXT.fetch_add(1, Ordering::Relaxed))
}

impl Drop for ShmRegion {
    fn drop(&mut self) {
        if let Backing::Mmap { unlink, .. } = &self.backing {
            crate::hooks::unregister_region(self.base);
            // SAFETY: `(base, len)` is the live mapping created in `map`;
            // dropping self invalidates all references derived from it by
            // the `at`/`bytes_at` contracts.
            unsafe { sys::munmap(self.base, self.len) };
            if let Some(path) = unlink {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn unique(tag: &str) -> String {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        format!(
            "test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )
    }

    #[test]
    fn create_attach_share_bytes() {
        if !sys::HAVE_SYSCALLS {
            return;
        }
        let name = unique("share");
        let a = ShmRegion::create(&name, 4096).unwrap();
        let b = ShmRegion::attach(&name).unwrap();
        // SAFETY: offsets in bounds; one writer, then one reader.
        unsafe {
            a.bytes_at(100, 1).write(0x5A);
            assert_eq!(b.bytes_at(100, 1).read(), 0x5A);
        }
        // Atomics are shared too.
        let wa: &AtomicU32 = unsafe { a.at(256) };
        let wb: &AtomicU32 = unsafe { b.at(256) };
        wa.store(77, Ordering::Release);
        assert_eq!(wb.load(Ordering::Acquire), 77);
    }

    #[test]
    fn creator_unlinks_on_drop() {
        if !sys::HAVE_SYSCALLS {
            return;
        }
        let name = unique("unlink");
        let path = region_path(&name);
        {
            let _r = ShmRegion::create(&name, 4096).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
        assert!(ShmRegion::attach(&name).is_err());
    }

    #[test]
    fn double_create_rejected() {
        if !sys::HAVE_SYSCALLS {
            return;
        }
        let name = unique("dup");
        let _a = ShmRegion::create(&name, 4096).unwrap();
        let err = ShmRegion::create(&name, 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn attach_again_maps_at_new_base() {
        if !sys::HAVE_SYSCALLS {
            return;
        }
        let name = unique("twice");
        let a = ShmRegion::create(&name, 8192).unwrap();
        let b = a.attach_again().unwrap();
        assert_ne!(a.base(), b.base(), "two mappings, two base addresses");
        unsafe {
            a.bytes_at(4096, 1).write(9);
            assert_eq!(b.bytes_at(4096, 1).read(), 9);
        }
    }

    #[test]
    fn readonly_attach_observes_writes() {
        if !sys::HAVE_SYSCALLS {
            return;
        }
        let name = unique("ro");
        let a = ShmRegion::create(&name, 4096).unwrap();
        let ro = ShmRegion::attach_readonly(&name).unwrap();
        let wa: &AtomicU32 = unsafe { a.at(128) };
        wa.store(41, Ordering::Release);
        let wr: &AtomicU32 = unsafe { ro.at(128) };
        assert_eq!(wr.load(Ordering::Acquire), 41);
    }

    #[test]
    fn anon_is_zeroed_aligned_and_shared_by_attach_again() {
        let r = ShmRegion::anon(1024);
        assert_eq!(r.len(), 1024);
        assert_eq!(r.base() as usize % 8, 0);
        let again = r.attach_again().unwrap();
        assert_eq!(again.base(), r.base(), "one mapping, two handles");
        unsafe {
            assert_eq!(r.bytes_at(1023, 1).read(), 0);
            r.bytes_at(0, 1).write(1);
            assert_eq!(again.bytes_at(0, 1).read(), 1);
        }
        // The pages outlive the first handle.
        drop(r);
        unsafe { assert_eq!(again.bytes_at(0, 1).read(), 1) };
    }

    #[test]
    fn bad_names_rejected() {
        assert!(ShmRegion::create("", 64).is_err());
        assert!(ShmRegion::create("../evil", 64).is_err());
        assert!(ShmRegion::create("has space", 64).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_at_panics() {
        let r = ShmRegion::anon(16);
        let _: &AtomicU32 = unsafe { r.at(16) };
    }
}
