//! The record header every allocator places in front of a record: `header_of` finds it
//! from the pointer the allocator hands out, for the system, bump and page allocators,
//! for an over-aligned record type, and across a recycle through the pool.

use std::mem::align_of;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use debra_repro::debra::{header_of, Allocator, AllocatorThread, Pool, PoolThread};
use debra_repro::smr_alloc::{BumpAllocator, SystemAllocator, ThreadPool};
use debra_repro::smr_pagepool::{PageAllocator, PagePool};

trait Payload: Send + 'static {
    fn new(v: u64) -> Self;
    fn get(&self) -> u64;
}

macro_rules! payload {
    ($($(#[$attr:meta])* $name:ident;)*) => {$(
        $(#[$attr])*
        struct $name(u64);
        impl Payload for $name {
            fn new(v: u64) -> Self {
                $name(v)
            }
            fn get(&self) -> u64 {
                self.0
            }
        }
    )*};
}

// The page store is one per type per process, so each page-backed case gets types of
// its own: their slots are fresh when the case starts.
payload! {
    Narrow;
    #[repr(align(64))]
    Wide;
    PageNarrow;
    #[repr(align(64))]
    PageWide;
    #[repr(align(64))]
    PageSlab;
}

fn round_trip<T: Payload, P: Pool<T>, A: Allocator<T>>() {
    let (pool, alloc) = (Arc::new(P::new(1)), Arc::new(A::new(1)));
    let (mut p, mut a) = (P::register(&pool, 0), A::register(&alloc, 0));

    let r = p.allocate(T::new(7), &mut a);
    assert_eq!(r.as_ptr() as usize % align_of::<T>(), 0, "the value keeps its alignment");
    // SAFETY: `r` was just handed out by the allocator and is owned by this test.
    let h = unsafe { header_of(r) };
    assert_eq!(h.birth.load(Ordering::Relaxed), 0, "a fresh slot's birth word");
    assert_eq!(h.retire.load(Ordering::Relaxed), u64::MAX, "a fresh slot's retire word");
    h.birth.store(3, Ordering::Relaxed);
    h.retire.store(5, Ordering::Relaxed);
    // SAFETY: as above.
    assert_eq!(unsafe { r.as_ref() }.get(), 7, "the header does not overlap the value");

    // Recycle through the pool: the same slot comes back, header in front, and keeps its
    // previous life's words until a scheme stamps new ones.
    // SAFETY: exclusively owned and not used again before it is re-allocated.
    unsafe { p.deallocate(r, &mut a) };
    let again = p.allocate(T::new(8), &mut a);
    assert_eq!(again, r, "the pool hands the just-recycled record back");
    // SAFETY: as above.
    let h = unsafe { header_of(again) };
    assert_eq!(h.birth.load(Ordering::Relaxed), 3);
    assert_eq!(h.retire.load(Ordering::Relaxed), 5);
    assert_eq!(unsafe { again.as_ref() }.get(), 8);

    // SAFETY: as above; teardown frees every record through the allocator.
    unsafe { p.deallocate(again, &mut a) };
    p.flush_to_shared();
    for record in pool.drain_shared() {
        unsafe { a.deallocate(record) };
    }
}

#[test]
fn system_allocator_header_round_trip() {
    round_trip::<Narrow, ThreadPool<Narrow>, SystemAllocator<Narrow>>();
    round_trip::<Wide, ThreadPool<Wide>, SystemAllocator<Wide>>();
}

#[test]
fn bump_allocator_header_round_trip() {
    round_trip::<Narrow, ThreadPool<Narrow>, BumpAllocator<Narrow>>();
    round_trip::<Wide, ThreadPool<Wide>, BumpAllocator<Wide>>();
}

#[test]
fn page_allocator_header_round_trip() {
    round_trip::<PageNarrow, PagePool<PageNarrow>, PageAllocator<PageNarrow>>();
    round_trip::<PageWide, PagePool<PageWide>, PageAllocator<PageWide>>();
}

#[test]
fn page_store_slots_hold_header_and_value() {
    let alloc: Arc<PageAllocator<PageSlab>> = Arc::new(PageAllocator::new(1));
    let mut a = PageAllocator::register(&alloc, 0);
    let records: Vec<_> = (0..300).map(|i| a.allocate(PageSlab::new(i))).collect();
    for (i, r) in records.iter().enumerate() {
        assert!(alloc.store().owns(*r), "record {i} lies inside a mapped page");
        assert_eq!(r.as_ptr() as usize % 64, 0);
        // SAFETY: live records of this allocator.
        unsafe { header_of(*r) }.birth.store(i as u64, Ordering::Relaxed);
    }
    for (i, r) in records.iter().enumerate() {
        assert_eq!(unsafe { r.as_ref() }.get(), i as u64, "no header overlaps a neighbour");
        assert_eq!(unsafe { header_of(*r) }.birth.load(Ordering::Relaxed), i as u64);
    }
    for r in records {
        unsafe { a.deallocate(r) };
    }
}
