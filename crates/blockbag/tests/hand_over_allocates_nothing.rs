//! A reclaimer hands a limbo bag over on every epoch rotation and every scan, so the
//! hand-over must not allocate: a partition plus hand-over of a bag whose blocks already
//! exist makes no allocation, whatever it keeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr::NonNull;

use blockbag::{BlockBag, Taken, DEFAULT_BLOCK_CAPACITY};

/// The system allocator, counting the allocations of the calling thread (the test
/// harness allocates on threads of its own meanwhile).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches only a
// thread-local `Cell` that has no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which `System` shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn record(v: usize) -> NonNull<u64> {
    NonNull::new((v * 8 + 8) as *mut u64).expect("non-zero address")
}

#[test]
fn partition_and_hand_over_allocate_nothing_once_the_blocks_exist() {
    const RECORDS: usize = 4 * DEFAULT_BLOCK_CAPACITY + 100;
    let mut bag: BlockBag<u64> = BlockBag::new();
    // Where the sink keeps what it is given; reserved so that the sink does not allocate.
    let mut blocks = Vec::with_capacity(RECORDS);
    let mut singles = Vec::with_capacity(RECORDS);
    // Kept sets that exercise every shape of the partition: nothing kept, kept records
    // inside the head block, in a full block, and more than a block's worth of them.
    let many: Vec<NonNull<u64>> = (0..RECORDS).step_by(3).map(record).collect();
    let kept_sets: [&[NonNull<u64>]; 4] =
        [&[], &[record(RECORDS - 1)], &[record(7), record(300), record(301)], &many];

    for kept in kept_sets {
        let before = allocations();
        for v in 0..RECORDS {
            bag.push(record(v));
        }
        assert!(allocations() > before, "filling the bag allocates its blocks");

        let mut sink = |taken| match taken {
            Taken::Block(block) => blocks.push(block),
            Taken::Record(r) => singles.push(r),
        };
        let before = allocations();
        let handed = bag.partition_and_hand_over(|r| kept.contains(&r), &mut sink);
        let left = bag.len();
        let rest = bag.hand_over(&mut sink);
        assert_eq!(allocations(), before, "partition and hand-over must not allocate");

        assert_eq!((handed, left, rest), (RECORDS - kept.len(), kept.len(), kept.len()));
        assert!(bag.is_empty());
        let moved = blocks.iter().map(|b| b.len()).sum::<usize>() + singles.len();
        assert_eq!(moved, RECORDS);
        blocks.clear();
        singles.clear();
    }
}
