//! NUMA-tagged chunk arenas.
//!
//! The paper allocates shared nodes "with libnuma, in chunks capable of
//! holding 2^20 objects, in order to amortize the expensive cost of
//! `numa_alloc_local()`". [`Arena`] reproduces that allocation pattern:
//!
//! * each benchmark thread owns one arena, tagged with the thread id (and
//!   therefore with the thread's NUMA node via the placement),
//! * allocation bumps inside large chunks; a new chunk is mapped only when
//!   the current one fills up — and the *first* chunk is mapped lazily at
//!   the first allocation, so the memory is *first-touched* by the owning
//!   thread (under Linux's default first-touch policy the pages are
//!   physically local to the owner — exactly the paper's definition of
//!   "local memory" — even when the arena object itself was constructed by
//!   a different thread),
//! * chunk storage is cache-line aligned (64 bytes), so the first slot of
//!   every chunk starts on a line boundary and slot offsets translate
//!   directly into line offsets for the cache model,
//! * a chunk of [`HUGE_PAGE`] bytes or more sits on 2 MiB pages (see
//!   below),
//! * chunks stay mapped until the arena is dropped, as the paper's C++
//!   implementation keeps its shared nodes. A client may recycle a slot
//!   in place (the skip graph's reclaimer does), but a stale pointer into
//!   a chunk never dangles.
//!
//! # Page size
//!
//! [`ChunkStorage`] is the one allocation primitive for large chunks: the
//! arena's chunks and the hash index's slot arrays both come from it. On
//! Linux a chunk of at least [`HUGE_PAGE`] bytes is a fresh anonymous
//! mapping, 2 MiB-aligned, whose whole 2 MiB pages are advised
//! `MADV_HUGEPAGE` before anything touches them, so a kernel whose
//! transparent huge pages run in `madvise` mode backs them with huge pages
//! at first touch. (Memory from the heap may have been touched before, on
//! base pages, and advice does not move pages already there.) A uniform
//! point read over a large map then takes its dependent misses without a
//! 4 KiB translation for each. Smaller chunks come from the global
//! allocator with 64-byte alignment, on base pages: a 2 MiB page would
//! commit far more than they hold. A kernel with transparent huge pages
//! `never` ignores the advice; under Miri and off Linux a large chunk is
//! a 2 MiB-aligned allocation from the global allocator, with no advice.
//! Two consequences: a touched large chunk commits 2 MiB at a time, and
//! first-touch placement works at 2 MiB granularity — the owner's first
//! allocation places the chunk's first 2 MiB, not its first 4 KiB.
//!
//! # Size-class support
//!
//! [`Arena::with_layout`] builds an arena whose slots carry `extra` trailing
//! bytes after each `T` — the allocation primitive behind the skip graph's
//! height-truncated node towers (one arena per tower height, each slot is a
//! node header plus exactly `height` trailing next-slots). The trailing
//! bytes are zero-initialized at allocation time; only the `T` prefix is
//! dropped when the arena is dropped.
//!
//! Its unchecked code rests on ownership: chunk storage is owned alone and
//! freed once, with the layout it was allocated with, and a typed
//! [`ChunkStorage`] lends only the values it initialized.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Default number of objects per chunk. The paper uses 2^20; we default to
/// 2^16 so that test/bench processes with hundreds of arenas stay within a
/// container's memory budget (configurable via [`Arena::with_chunk_capacity`]).
/// Memory is committed as it is touched, so what a process with many arenas
/// pays is its touched pages: one 2 MiB page for an arena whose chunk
/// reaches [`HUGE_PAGE`] (a 2^16-slot chunk of 32-byte or larger objects),
/// 4 KiB pages below that.
pub const DEFAULT_CHUNK_CAPACITY: usize = 1 << 16;

/// Cache-line size chunk storage is aligned to.
pub const CACHE_LINE: usize = 64;

/// Size and alignment of a transparent huge page on x86-64: a chunk of at
/// least this many bytes is aligned to it and advised onto huge pages.
pub const HUGE_PAGE: usize = 2 << 20;

/// Owned chunk storage: `size` bytes at (at least) `align`, freed on drop
/// with the layout it was allocated with, and a slice of the values of `T`
/// written into it ([`ChunkStorage::from_fn`]; empty from
/// [`ChunkStorage::new`], whose bytes stay uninitialized).
///
/// A chunk of [`HUGE_PAGE`] bytes or more is 2 MiB-aligned and, on Linux,
/// a fresh mapping whose whole 2 MiB pages are advised onto huge pages
/// before its first touch (see the module docs); a smaller one comes from
/// the global allocator at `align`, on base pages.
pub struct ChunkStorage<T = u8> {
    ptr: NonNull<u8>,
    layout: Layout,
    /// Initialized values of `T` at `ptr`.
    len: usize,
    _values: PhantomData<T>,
}

// SAFETY: `ptr` names memory this value owns alone and frees once, in
// `Drop`, with `layout`, which never changes; no field is shared state.
// Its values move with it and are lent as `&T`. What untyped bytes hold,
// and which threads touch them, is up to whoever writes through `as_ptr`.
unsafe impl<T: Send> Send for ChunkStorage<T> {}
// SAFETY: `&ChunkStorage` reads only immutable fields and lends `&T`.
unsafe impl<T: Sync> Sync for ChunkStorage<T> {}

impl<T> ChunkStorage<T> {
    /// Allocates `size` bytes aligned to `align` (a power of two), or to
    /// [`HUGE_PAGE`] if `size` is at least that.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or the size overflows.
    pub fn new(size: usize, align: usize) -> Self {
        let align = if size >= HUGE_PAGE {
            align.max(HUGE_PAGE)
        } else {
            align
        };
        let layout = Layout::from_size_align(size, align).expect("chunk layout");
        let ptr = if size == 0 {
            // Zero-size chunks: any aligned non-null pointer is valid for
            // zero-size reads/writes.
            NonNull::new(align as *mut u8).expect("nonzero align")
        } else if align >= HUGE_PAGE {
            huge::map(layout)
        } else {
            // SAFETY: `layout` has a nonzero size.
            NonNull::new(unsafe { alloc(layout) }).unwrap_or_else(|| handle_alloc_error(layout))
        };
        Self {
            ptr,
            layout,
            len: 0,
            _values: PhantomData,
        }
    }

    /// Storage for `len` values of `T`, value `i` being `f(i)`, written in
    /// order by the calling thread (which so first-touches the chunk).
    ///
    /// # Panics
    ///
    /// Panics if `T` needs dropping (the storage frees bytes, not values).
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        assert!(
            !std::mem::needs_drop::<T>(),
            "chunk values are never dropped"
        );
        let size = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("chunk size overflows");
        let mut storage = Self::new(size, std::mem::align_of::<T>());
        let base = storage.ptr.as_ptr().cast::<T>();
        for i in 0..len {
            // SAFETY: value `i` lies inside the fresh storage, aligned for `T`.
            unsafe { base.add(i).write(f(i)) };
        }
        storage.len = len;
        storage
    }

    /// The first byte.
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Bytes in the chunk (as asked, not rounded to a page).
    pub fn size(&self) -> usize {
        self.layout.size()
    }
}

impl<T> std::ops::Deref for ChunkStorage<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `from_fn` initialized `len` values at `ptr`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().cast::<T>(), self.len) }
    }
}

impl<T> Drop for ChunkStorage<T> {
    fn drop(&mut self) {
        if self.layout.align() >= HUGE_PAGE {
            // SAFETY: `new` mapped `ptr` with this very `layout`, and only
            // this drop unmaps it.
            unsafe { huge::unmap(self.ptr, self.layout) };
        } else if self.layout.size() != 0 {
            // SAFETY: `new` allocated `ptr` with this very `layout`, and
            // only this drop frees it.
            unsafe { dealloc(self.ptr.as_ptr(), self.layout) };
        }
    }
}

/// Chunks of [`HUGE_PAGE`] bytes or more on Linux: fresh anonymous
/// mappings, advised onto huge pages before their first touch.
#[cfg(all(target_os = "linux", not(miri)))]
mod huge {
    use super::HUGE_PAGE;
    use std::alloc::{handle_alloc_error, Layout};
    use std::ptr::NonNull;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: isize) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MADV_HUGEPAGE: i32 = 14;

    /// Bytes mapped for `layout`: whole 2 MiB units, so every boundary
    /// the mapping has is a page boundary whatever the base page size.
    /// The tail past `layout.size()` is never touched, so never committed.
    fn mapped(layout: Layout) -> usize {
        layout.size().next_multiple_of(HUGE_PAGE)
    }

    /// Maps `layout.size()` bytes at a 2 MiB boundary and advises the
    /// whole 2 MiB pages among them onto huge pages. The advice is best
    /// effort: a kernel that refuses it (no THP, or THP `never`) leaves
    /// base pages, so its result is ignored.
    pub(super) fn map(layout: Layout) -> NonNull<u8> {
        let len = mapped(layout);
        // Map one huge page more than needed, then unmap the slack on
        // either side of the first 2 MiB boundary in it.
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let raw = unsafe {
            mmap(
                std::ptr::null_mut(),
                len + HUGE_PAGE,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if raw as usize == usize::MAX {
            handle_alloc_error(layout);
        }
        let head = (HUGE_PAGE - raw as usize % HUGE_PAGE) % HUGE_PAGE;
        // SAFETY: both ranges lie inside the mapping just made, start on
        // page boundaries, and nothing has seen them; the advice changes
        // no byte, over whole 2 MiB pages inside the chunk.
        unsafe {
            if head > 0 {
                munmap(raw, head);
            }
            let start = raw.add(head);
            munmap(start.add(len), HUGE_PAGE - head);
            madvise(start, layout.size() / HUGE_PAGE * HUGE_PAGE, MADV_HUGEPAGE);
            NonNull::new_unchecked(start)
        }
    }

    /// # Safety
    ///
    /// `ptr` must come from [`map`] with this `layout`, and nothing may use
    /// the chunk afterwards.
    pub(super) unsafe fn unmap(ptr: NonNull<u8>, layout: Layout) {
        munmap(ptr.as_ptr(), mapped(layout));
    }
}

/// Chunks of [`HUGE_PAGE`] bytes or more under Miri and off Linux:
/// 2 MiB-aligned allocations from the global allocator, with no advice.
#[cfg(not(all(target_os = "linux", not(miri))))]
mod huge {
    use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
    use std::ptr::NonNull;

    pub(super) fn map(layout: Layout) -> NonNull<u8> {
        // SAFETY: a large chunk's layout has a nonzero size.
        NonNull::new(unsafe { alloc(layout) }).unwrap_or_else(|| handle_alloc_error(layout))
    }

    /// # Safety
    ///
    /// `ptr` must come from [`map`] with this `layout`, and nothing may use
    /// the chunk afterwards.
    pub(super) unsafe fn unmap(ptr: NonNull<u8>, layout: Layout) {
        dealloc(ptr.as_ptr(), layout);
    }
}

struct Chunk<T> {
    storage: ChunkStorage,
    capacity: usize,
    /// Number of initialized slots. Slots are claimed by CAS so the arena is
    /// safe even if multiple threads allocate (normally only the owner does).
    len: AtomicUsize,
    next: AtomicPtr<Chunk<T>>,
}

impl<T> Chunk<T> {
    fn new(capacity: usize, stride: usize) -> NonNull<Chunk<T>> {
        let align = std::mem::align_of::<T>().max(CACHE_LINE);
        let bytes = stride.checked_mul(capacity).expect("chunk size overflows");
        let chunk = Box::new(Chunk {
            storage: ChunkStorage::new(bytes, align),
            capacity,
            len: AtomicUsize::new(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
        });
        NonNull::from(Box::leak(chunk))
    }

    /// Tries to claim one slot; returns the slot base pointer on success.
    fn try_alloc(&self, stride: usize) -> Option<NonNull<u8>> {
        let mut len = self.len.load(Ordering::Relaxed);
        loop {
            if len >= self.capacity {
                return None;
            }
            match self
                .len
                .compare_exchange_weak(len, len + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    return Some(unsafe {
                        NonNull::new_unchecked(self.storage.as_ptr().add(len * stride))
                    })
                }
                Err(cur) => len = cur,
            }
        }
    }
}

/// A chunked bump arena tagged with an owning benchmark thread.
///
/// Objects allocated through [`Arena::alloc`] stay alive until the arena is
/// dropped; the returned pointers are stable. The arena is thread-safe, but
/// the intended discipline (matching the paper) is that only the tagged
/// owner thread allocates from it.
///
/// # Example
///
/// ```
/// let arena: numa::arena::Arena<u64> = numa::arena::Arena::new(3);
/// let p = arena.alloc(42);
/// assert_eq!(unsafe { *p.as_ref() }, 42);
/// assert_eq!(arena.owner(), 3);
/// assert_eq!(arena.len(), 1);
/// ```
pub struct Arena<T> {
    head: AtomicPtr<Chunk<T>>,
    current: AtomicPtr<Chunk<T>>,
    chunk_capacity: usize,
    /// Bytes from one slot base to the next (`size_of::<T>() + extra`,
    /// rounded up to `T`'s alignment).
    stride: usize,
    /// Trailing bytes per slot, zeroed at allocation.
    extra: usize,
    owner: u16,
}

unsafe impl<T: Send> Send for Arena<T> {}
unsafe impl<T: Send + Sync> Sync for Arena<T> {}

fn round_up(n: usize, to: usize) -> usize {
    n.div_ceil(to) * to
}

impl<T> Arena<T> {
    /// Creates an arena tagged with an owner thread id, using
    /// [`DEFAULT_CHUNK_CAPACITY`].
    pub fn new(owner: u16) -> Self {
        Self::with_chunk_capacity(owner, DEFAULT_CHUNK_CAPACITY)
    }

    /// Creates an arena with an explicit chunk capacity (objects per chunk).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_capacity` is zero.
    pub fn with_chunk_capacity(owner: u16, chunk_capacity: usize) -> Self {
        Self::with_layout(owner, chunk_capacity, 0)
    }

    /// Creates an arena whose slots are a `T` followed by `extra_bytes`
    /// trailing bytes (zero-initialized on allocation). This is the
    /// size-class primitive: the skip graph allocates height-`h` nodes from
    /// an arena with `extra_bytes = h * size_of::<next-slot>()`, so a node
    /// pays for exactly the tower it uses instead of an inline worst-case
    /// tower.
    ///
    /// The trailing bytes are *not* dropped with the `T` prefix; they must
    /// hold plain data.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_capacity` is zero.
    pub fn with_layout(owner: u16, chunk_capacity: usize, extra_bytes: usize) -> Self {
        assert!(chunk_capacity > 0, "chunk capacity must be positive");
        let align = std::mem::align_of::<T>();
        let stride = round_up(std::mem::size_of::<T>() + extra_bytes, align);
        Self {
            head: AtomicPtr::new(std::ptr::null_mut()),
            current: AtomicPtr::new(std::ptr::null_mut()),
            chunk_capacity,
            stride,
            extra: extra_bytes,
            owner,
        }
    }

    /// The benchmark thread id this arena is tagged with. Shared nodes carry
    /// this tag; the instrumentation uses it to attribute accesses.
    pub fn owner(&self) -> u16 {
        self.owner
    }

    /// Bytes from one slot base to the next.
    pub fn slot_stride(&self) -> usize {
        self.stride
    }

    /// Trailing bytes per slot (zeroed at allocation).
    pub fn extra_bytes(&self) -> usize {
        self.extra
    }

    fn new_chunk(&self) -> *mut Chunk<T> {
        Chunk::<T>::new(self.chunk_capacity, self.stride).as_ptr()
    }

    /// Allocates `value` in the arena and returns a stable pointer to it.
    /// Any trailing slot bytes are zeroed. The object is dropped when the
    /// arena is dropped.
    pub fn alloc(&self, value: T) -> NonNull<T> {
        let slot = self.reserve_slot();
        unsafe {
            let p = slot.as_ptr() as *mut T;
            p.write(value);
            if self.extra > 0 {
                std::ptr::write_bytes(slot.as_ptr().add(std::mem::size_of::<T>()), 0, self.extra);
            }
            NonNull::new_unchecked(p)
        }
    }

    /// Claims one raw slot, mapping chunks as needed.
    fn reserve_slot(&self) -> NonNull<u8> {
        loop {
            let cur_ptr = self.current.load(Ordering::Acquire);
            if cur_ptr.is_null() {
                self.install_first();
                continue;
            }
            let cur = unsafe { &*cur_ptr };
            if let Some(slot) = cur.try_alloc(self.stride) {
                return slot;
            }
            self.grow(cur);
        }
    }

    /// Maps the first chunk (first allocation = first touch by the owner;
    /// racing installers: one wins, losers free theirs).
    fn install_first(&self) {
        let fresh = self.new_chunk();
        match self.head.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                let _ = self.current.compare_exchange(
                    std::ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            Err(existing) => {
                unsafe { drop_chunk_struct(fresh) };
                let _ = self.current.compare_exchange(
                    std::ptr::null_mut(),
                    existing,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
        }
    }

    /// Appends a fresh chunk after `full` (racing growers: one wins, the
    /// loser frees its chunk) and advances `current`.
    fn grow(&self, full: &Chunk<T>) {
        let fresh = self.new_chunk();
        match full.next.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                let _ = self.current.compare_exchange(
                    full as *const _ as *mut _,
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            Err(existing) => {
                // Someone else grew; free ours and follow theirs.
                unsafe { drop_chunk_struct(fresh) };
                let _ = self.current.compare_exchange(
                    full as *const _ as *mut _,
                    existing,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
        }
    }

    /// Total number of live objects.
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut p = self.head.load(Ordering::Acquire);
        while !p.is_null() {
            let c = unsafe { &*p };
            n += c.len.load(Ordering::Acquire).min(c.capacity);
            p = c.next.load(Ordering::Acquire);
        }
        n
    }

    /// True when no object has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of chunks mapped so far (0 until the first allocation).
    pub fn chunk_count(&self) -> usize {
        let mut n = 0;
        let mut p = self.head.load(Ordering::Acquire);
        while !p.is_null() {
            n += 1;
            p = unsafe { &*p }.next.load(Ordering::Acquire);
        }
        n
    }

    /// Bytes consumed by allocated slots (`len * stride`).
    pub fn allocated_bytes(&self) -> usize {
        self.len() * self.stride
    }

    /// Bytes of chunk storage mapped so far (allocated slots plus the
    /// unused tail of the current chunk).
    pub fn mapped_bytes(&self) -> usize {
        self.chunk_count() * self.chunk_capacity * self.stride
    }
}

/// Frees an (empty-of-live-objects) chunk struct and its storage.
///
/// # Safety
///
/// `p` must be a pointer obtained from [`Chunk::new`] (a leaked `Box`)
/// that has not been freed yet, and no reference into the chunk or its
/// storage may be live: `Box::from_raw` reasserts unique ownership of the
/// leaked box.
unsafe fn drop_chunk_struct<T>(p: *mut Chunk<T>) {
    drop(Box::from_raw(p));
}

impl<T> Drop for Arena<T> {
    fn drop(&mut self) {
        // `&mut self` proves no concurrent access: read the list head
        // non-atomically and copy each chunk's fields out *before*
        // reclaiming its box, so no `&Chunk` is alive when `Box::from_raw`
        // reasserts unique ownership (Miri's aliasing model rejects the
        // borrow-across-free otherwise).
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            let (storage, next, len) = {
                let chunk = unsafe { &mut *p };
                (
                    chunk.storage.as_ptr(),
                    *chunk.next.get_mut(),
                    (*chunk.len.get_mut()).min(chunk.capacity),
                )
            };
            unsafe {
                for i in 0..len {
                    std::ptr::drop_in_place(storage.add(i * self.stride) as *mut T);
                }
                drop_chunk_struct(p);
            }
            p = next;
        }
    }
}

impl<T> std::fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("owner", &self.owner)
            .field("len", &self.len())
            .field("chunks", &self.chunk_count())
            .field("stride", &self.stride)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn alloc_and_read_back() {
        let a: Arena<String> = Arena::new(0);
        let p1 = a.alloc("hello".to_string());
        let p2 = a.alloc("world".to_string());
        unsafe {
            assert_eq!(p1.as_ref(), "hello");
            assert_eq!(p2.as_ref(), "world");
        }
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn grows_across_chunks_with_stable_pointers() {
        let a: Arena<u64> = Arena::with_chunk_capacity(1, 8);
        let ptrs: Vec<_> = (0..100u64).map(|i| a.alloc(i)).collect();
        assert!(a.chunk_count() >= 13);
        assert_eq!(a.len(), 100);
        for (i, p) in ptrs.iter().enumerate() {
            assert_eq!(unsafe { *p.as_ref() }, i as u64);
        }
    }

    #[test]
    fn drops_all_objects_exactly_once() {
        static DROPS: AtomicU32 = AtomicU32::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let a: Arena<D> = Arena::with_chunk_capacity(0, 4);
            for _ in 0..10 {
                a.alloc(D);
            }
            assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn concurrent_allocation_is_safe() {
        // Smaller bounds under Miri: the interpreter runs the same chunk
        // growth and slot-claim races, just fewer of them.
        let (threads, per_thread, cap) = if cfg!(miri) {
            (4u64, 40, 8)
        } else {
            (8, 500, 64)
        };
        let a: Arc<Arena<u64>> = Arc::new(Arena::with_chunk_capacity(0, cap));
        let mut handles = Vec::new();
        for t in 0..threads {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                (0..per_thread)
                    .map(|i| unsafe { *a.alloc(t * 1000 + i).as_ref() })
                    .collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        let expected = (threads * per_thread) as usize;
        assert_eq!(all.len(), expected, "no slot was handed out twice");
        assert_eq!(a.len(), expected);
    }

    /// Miri regression: the first-chunk install race. Both threads map a
    /// candidate chunk; the loser must free its leaked `Box` *and* its
    /// storage (Miri's leak checker catches a dropped box with live
    /// storage, and its aliasing model catches a double reclaim).
    #[test]
    fn racing_first_install_frees_the_losing_chunk() {
        for _ in 0..if cfg!(miri) { 4 } else { 64 } {
            let a: Arc<Arena<u64>> = Arc::new(Arena::with_chunk_capacity(0, 4));
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let a = Arc::clone(&a);
                    std::thread::spawn(move || unsafe { *a.alloc(t).as_ref() })
                })
                .collect();
            let mut got: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1]);
            assert_eq!(a.len(), 2);
            assert_eq!(a.chunk_count(), 1, "exactly one installed first chunk");
        }
    }

    /// Miri regression: the grow race. Single-slot chunks force every
    /// allocation through `grow`, so concurrent allocators repeatedly race
    /// to append — losing chunks must be freed, winning chunks must form
    /// one well-linked list that `Drop` later walks and reclaims fully.
    #[test]
    fn racing_growers_free_losing_chunks_and_drop_reclaims_all() {
        let per_thread = if cfg!(miri) { 12u64 } else { 200 };
        let a: Arc<Arena<Box<u64>>> = Arc::new(Arena::with_chunk_capacity(0, 1));
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    (0..per_thread)
                        .map(|i| unsafe { **a.alloc(Box::new(t * 1000 + i)).as_ref() })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), (2 * per_thread) as usize);
        assert_eq!(a.chunk_count(), (2 * per_thread) as usize);
        // Dropping the arena must drop every boxed value (leak-checked
        // under Miri) and free every chunk exactly once.
        drop(a);
    }

    #[test]
    fn owner_tag_is_preserved() {
        let a: Arena<u8> = Arena::new(17);
        assert_eq!(a.owner(), 17);
    }

    #[test]
    fn empty_arena_maps_no_chunk() {
        let a: Arena<u8> = Arena::new(0);
        assert!(a.is_empty());
        assert_eq!(a.chunk_count(), 0, "first chunk is mapped lazily");
        assert_eq!(a.mapped_bytes(), 0);
        let _ = a.alloc(1);
        assert_eq!(a.chunk_count(), 1);
    }

    /// Regression test for the chunk-storage alignment fix: storage used to
    /// be allocated at `T`'s natural alignment, so node slots straddled
    /// cache lines arbitrarily. Every chunk's first slot must now sit on a
    /// 64-byte boundary.
    #[test]
    fn chunk_storage_is_cache_line_aligned() {
        #[repr(C, align(8))]
        struct NodeLike {
            a: u64,
            b: u64,
        }
        let a: Arena<NodeLike> = Arena::with_chunk_capacity(0, 4);
        for i in 0..16u64 {
            let p = a.alloc(NodeLike { a: i, b: i }).as_ptr() as usize;
            // Slot base = chunk base + i*stride; with 4 slots per chunk the
            // first slot of each chunk (i % 4 == 0) must be line-aligned.
            if i % 4 == 0 {
                assert_eq!(p % CACHE_LINE, 0, "chunk base not 64-byte aligned");
            }
            assert_eq!(p % std::mem::align_of::<NodeLike>(), 0);
        }
        assert_eq!(a.chunk_count(), 4);
    }

    /// A chunk of 2 MiB or more starts on a 2 MiB boundary (so the kernel
    /// can back it with huge pages); a smaller one stays on a line
    /// boundary. Alignment only, no page query: this one runs under Miri.
    #[test]
    fn a_chunk_of_a_huge_page_or_more_is_huge_page_aligned() {
        let big: Arena<[u8; 64]> = Arena::with_chunk_capacity(0, HUGE_PAGE / 64);
        let p = big.alloc([1; 64]).as_ptr() as usize;
        assert_eq!(p % HUGE_PAGE, 0, "a 2 MiB chunk is not 2 MiB-aligned");
        assert_eq!(
            big.mapped_bytes(),
            HUGE_PAGE,
            "capacity and byte counts stay as asked"
        );

        let small: Arena<[u8; 64]> = Arena::with_chunk_capacity(0, HUGE_PAGE / 64 - 1);
        let p = small.alloc([1; 64]).as_ptr() as usize;
        assert_eq!(p % CACHE_LINE, 0, "a smaller chunk is not line-aligned");

        let raw: ChunkStorage = ChunkStorage::new(HUGE_PAGE + 1, 16);
        assert_eq!(raw.as_ptr() as usize % HUGE_PAGE, 0);
        assert_eq!(
            ChunkStorage::<u8>::new(0, 16).as_ptr() as usize,
            16,
            "no allocation for zero bytes"
        );
    }

    #[test]
    fn trailing_bytes_are_zeroed_and_stride_accounted() {
        let a: Arena<u64> = Arena::with_layout(0, 8, 24);
        assert_eq!(a.slot_stride(), 32);
        assert_eq!(a.extra_bytes(), 24);
        let p = a.alloc(0xdead_beef);
        unsafe {
            let tail = (p.as_ptr() as *const u8).add(8);
            for i in 0..24 {
                assert_eq!(*tail.add(i), 0, "trailing byte {i} not zeroed");
            }
        }
        assert_eq!(a.allocated_bytes(), 32);
        assert_eq!(a.mapped_bytes(), 8 * 32);
    }

    #[test]
    fn trailing_bytes_do_not_overlap_next_slot() {
        let a: Arena<u64> = Arena::with_layout(0, 4, 8);
        let p1 = a.alloc(1);
        let p2 = a.alloc(2);
        let d = (p2.as_ptr() as usize).wrapping_sub(p1.as_ptr() as usize);
        assert_eq!(d, 16, "stride must cover value + extra");
        unsafe {
            // Writing p1's trailing bytes must not corrupt p2.
            std::ptr::write_bytes((p1.as_ptr() as *mut u8).add(8), 0xff, 8);
            assert_eq!(*p2.as_ref(), 2);
        }
    }
}
