//! The process-global, per-type page store: mapped pages carved into typed slots.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::mem::{size_of, MaybeUninit};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use blockbag::{Block, SharedBlockBag, DEFAULT_BLOCK_CAPACITY};
use debra::Headed;

/// Bytes per mapped page (the carving granularity; a multiple of common OS page sizes
/// so a page's slots share a small set of TLB entries).  Each slot is a whole
/// [`Headed<T>`] — the record header, then the value — and hands out the value's
/// address.
pub const PAGE_BYTES: usize = 64 * 1024;

/// Number of record slots (a [`Headed<T>`] each: header, then value) carved out of one
/// page (at least one, so oversized records degenerate to one-slot pages instead of
/// failing).
fn slots_per_page<T>() -> usize {
    (PAGE_BYTES / size_of::<Headed<T>>()).max(1)
}

/// Bookkeeping for one mapped page (the slab itself is leaked; see [`PageStore`]).
struct PageMeta {
    base: usize,
    bytes: usize,
}

/// The global list of mapped pages for one record type, plus the shared free list of
/// carved slots.
///
/// One store exists per type per process (interned by [`store_for`]); it is never
/// dropped and its pages are never unmapped, which is what makes every slot address
/// **type-stable**: an address carved for `T` refers to `T`-shaped memory forever.
///
/// Slots move in and out of the store in whole [`Block`]s so the shared structures are
/// off the allocation hot path: per-thread caches ([`PageAllocatorThread`],
/// [`PagePoolThread`]) absorb the per-record traffic.
///
/// [`PageAllocatorThread`]: crate::PageAllocatorThread
/// [`PagePoolThread`]: crate::PagePoolThread
pub struct PageStore<T> {
    /// Mapped pages (base address + extent); the backing slabs are intentionally leaked.
    pages: std::sync::Mutex<Vec<PageMeta>>,
    /// Carved slots not currently held by any thread-local cache.
    free: SharedBlockBag<T>,
    pages_mapped: AtomicU64,
    slots_total: AtomicU64,
    /// Free-slot gauge, maintained at block granularity by [`take_block`] /
    /// [`return_block`] (thread-locally cached slots count as live).
    ///
    /// [`take_block`]: PageStore::take_block
    /// [`return_block`]: PageStore::return_block
    slots_free: AtomicU64,
}

impl<T> PageStore<T> {
    fn new() -> Self {
        PageStore {
            pages: std::sync::Mutex::new(Vec::new()),
            free: SharedBlockBag::new(),
            pages_mapped: AtomicU64::new(0),
            slots_total: AtomicU64::new(0),
            slots_free: AtomicU64::new(0),
        }
    }

    /// Takes a non-empty block of free slots, mapping a fresh page if the free list is
    /// exhausted.
    pub fn take_block(&self) -> Box<Block<T>> {
        if let Some(block) = self.free.pop_block() {
            self.slots_free.fetch_sub(block.len() as u64, Ordering::Relaxed);
            return block;
        }
        self.map_page()
    }

    /// Returns a block of free slots to the store.  Every slot must have been carved
    /// from this store and hold no live value.
    pub fn return_block(&self, block: Box<Block<T>>) {
        if block.is_empty() {
            return;
        }
        self.slots_free.fetch_add(block.len() as u64, Ordering::Relaxed);
        self.free.push_block(block);
    }

    /// Maps one page, records it in the page list, carves it into slots, parks all but
    /// the returned (non-empty) block on the free list.
    fn map_page(&self) -> Box<Block<T>> {
        let slots = slots_per_page::<T>();
        let bytes = slots * size_of::<Headed<T>>();
        let mut slab: Vec<MaybeUninit<Headed<T>>> = Vec::with_capacity(slots);
        // SAFETY: `MaybeUninit` contents require no initialization.
        unsafe { slab.set_len(slots) };
        // Leak the slab: the store owns the page for the process lifetime (type
        // stability forbids ever returning it to the system allocator), so there is no
        // owner to keep — only the bookkeeping entry below.
        let base: *mut Headed<T> = Box::into_raw(slab.into_boxed_slice()).cast();
        self.pages
            .lock()
            .expect("page list poisoned")
            .push(PageMeta { base: base as usize, bytes });
        // Tell the sanitizer's shadow table which type this page is bound to, so record
        // allocation can enforce the type-stability contract mechanically.
        #[cfg(feature = "smr_sanitize")]
        smr_check::shadow::note_typed_page(std::any::type_name::<T>(), base as usize, bytes);
        self.pages_mapped.fetch_add(1, Ordering::Relaxed);
        self.slots_total.fetch_add(slots as u64, Ordering::Relaxed);

        // Every slot gets a fresh header once, here; afterwards the header words belong
        // to the reclaimers that stamp them.
        let carve = |i: usize| {
            // SAFETY: `base + i` is in bounds of the just-mapped slab and never null.
            let slot = unsafe { NonNull::new_unchecked(base.add(i)) };
            // SAFETY: the slot is in bounds, aligned, and not yet handed out.
            unsafe { Headed::init_header(slot.as_ptr()) };
            Headed::value_ptr(slot)
        };
        let block_cap = DEFAULT_BLOCK_CAPACITY.min(slots);
        let mut keep: Box<Block<T>> = Block::with_capacity(block_cap);
        let mut i = 0usize;
        while i < slots && !keep.is_full() {
            keep.push(carve(i));
            i += 1;
        }
        while i < slots {
            let mut b: Box<Block<T>> = Block::with_capacity(block_cap.min(slots - i));
            while i < slots && !b.is_full() {
                b.push(carve(i));
                i += 1;
            }
            self.return_block(b);
        }
        keep
    }

    /// `true` if `ptr` lies inside one of this store's mapped pages (test/debug helper;
    /// takes the page-list lock).
    pub fn owns(&self, ptr: NonNull<T>) -> bool {
        let addr = ptr.as_ptr() as usize;
        self.pages
            .lock()
            .expect("page list poisoned")
            .iter()
            .any(|p| addr >= p.base && addr < p.base + p.bytes)
    }

    /// Number of pages mapped so far (never decreases).
    pub fn pages_mapped(&self) -> u64 {
        self.pages_mapped.load(Ordering::Relaxed)
    }

    /// Total slots carved so far (never decreases).
    pub fn slots_total(&self) -> u64 {
        self.slots_total.load(Ordering::Relaxed)
    }

    /// Slots currently on the store's shared free list (block-granularity gauge;
    /// thread-locally cached slots count as live).
    pub fn slots_free(&self) -> u64 {
        self.slots_free.load(Ordering::Relaxed)
    }
}

impl<T> fmt::Debug for PageStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageStore")
            .field("pages_mapped", &self.pages_mapped.load(Ordering::Relaxed))
            .field("slots_total", &self.slots_total.load(Ordering::Relaxed))
            .field("slots_free", &self.slots_free.load(Ordering::Relaxed))
            .finish()
    }
}

/// The process-global registry interning one [`PageStore`] per record type.
///
/// Entries are never removed — that, together with the store never unmapping pages, is
/// the whole type-stability argument: the store (and so every page) for a type lives as
/// long as the process once the first allocation happens.
type Registry = std::sync::Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>;

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// Returns the process-wide page store for `T`, creating it on first use.
///
/// Every [`PageAllocator<T>`](crate::PageAllocator) and
/// [`PagePool<T>`](crate::PagePool) instance shares the store returned here, so slots
/// recycle across Record Manager instances and repeated trials reuse pages instead of
/// mapping new ones.
pub fn store_for<T: Send + 'static>() -> Arc<PageStore<T>> {
    let registry = REGISTRY.get_or_init(|| Registry::new(HashMap::new()));
    let mut map = registry.lock().expect("page-store registry poisoned");
    let entry = map
        .entry(TypeId::of::<T>())
        .or_insert_with(|| Arc::new(PageStore::<T>::new()) as Arc<dyn Any + Send + Sync>);
    Arc::clone(entry).downcast::<PageStore<T>>().expect("registry entry matches its TypeId key")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Private test types so concurrently running tests elsewhere in the workspace
    // cannot share (and thereby perturb) these stores.
    struct StoreProbeA(#[allow(dead_code)] u64);
    struct StoreProbeB(#[allow(dead_code)] u64);

    #[test]
    fn store_is_interned_per_type() {
        let a1 = store_for::<StoreProbeA>();
        let a2 = store_for::<StoreProbeA>();
        let b = store_for::<StoreProbeB>();
        assert!(Arc::ptr_eq(&a1, &a2), "same type must intern to the same store");
        assert_ne!(
            Arc::as_ptr(&a1) as usize,
            Arc::as_ptr(&b) as usize,
            "distinct types must get distinct stores"
        );
    }

    #[test]
    fn take_block_carves_pages_and_accounting_balances() {
        let store = store_for::<StoreProbeA>();
        let before_pages = store.pages_mapped();
        let block = store.take_block();
        assert!(!block.is_empty());
        assert!(store.pages_mapped() >= before_pages);
        for slot in block.iter() {
            assert!(store.owns(slot), "carved slots lie inside a mapped page");
        }
        let len = block.len() as u64;
        let free_before = store.slots_free();
        store.return_block(block);
        assert_eq!(store.slots_free(), free_before + len);
        // Taking again prefers the free list over mapping a new page.
        let pages = store.pages_mapped();
        let again = store.take_block();
        assert_eq!(store.pages_mapped(), pages, "free list must be preferred");
        store.return_block(again);
    }

    #[test]
    fn oversized_records_get_at_least_one_slot_per_page() {
        struct Huge(#[allow(dead_code)] [u8; 2 * PAGE_BYTES]);
        let store = store_for::<Huge>();
        let block = store.take_block();
        assert!(!block.is_empty());
        store.return_block(block);
    }
}
