//! Single-owner bags of record pointers backed by blocks.

use std::fmt;
use std::ptr::NonNull;

use crate::block::{Block, DEFAULT_BLOCK_CAPACITY};

/// Maximum number of empty spare blocks cached inside a [`BlockBag`] (mirrors the paper's
/// bounded per-process block pool of 16 blocks).
const MAX_SPARE_BLOCKS: usize = 16;

/// A single-owner bag of record pointers, stored in fixed-capacity [`Block`]s.
///
/// This is the data structure used for DEBRA's *limbo bags* and for the object pool's
/// per-thread *pool bags* (paper, Section 4, "Block bags").  It maintains the invariant
/// that every block except the most recently filled one is completely full, which makes
/// the following operations cheap:
///
/// * [`push`](BlockBag::push) / [`pop`](BlockBag::pop): O(1);
/// * [`take_full_blocks`](BlockBag::take_full_blocks): O(1) per block moved — this is the
///   paper's `pool->moveFullBlocks(bag)`;
/// * [`partition_and_take_full_blocks`](BlockBag::partition_and_take_full_blocks): a single
///   linear scan used by DEBRA+ to retain records protected by restricted hazard pointers
///   while still moving whole blocks of unprotected records to the pool.
///
/// The bag stores raw record pointers and never dereferences them; the caller retains
/// responsibility for the records' lifetimes.
pub struct BlockBag<T> {
    // Blocks are deliberately boxed: a block must keep a stable allocation so it can move
    // *whole* between bags/sinks in O(1) (the paper's `moveFullBlocks`), not be copied.
    /// Invariant: non-empty; every block except the last is full.
    #[allow(clippy::vec_box)]
    blocks: Vec<Box<Block<T>>>,
    /// Bounded cache of empty blocks, reused instead of allocating.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Block<T>>>,
    block_capacity: usize,
    len: usize,
}

impl<T> BlockBag<T> {
    /// Creates an empty bag whose blocks hold [`DEFAULT_BLOCK_CAPACITY`] records each.
    pub fn new() -> Self {
        Self::with_block_capacity(DEFAULT_BLOCK_CAPACITY)
    }

    /// Creates an empty bag with a custom block capacity.
    ///
    /// # Panics
    ///
    /// Panics if `block_capacity` is zero.
    pub fn with_block_capacity(block_capacity: usize) -> Self {
        BlockBag {
            blocks: vec![Block::with_capacity(block_capacity)],
            spare: Vec::new(),
            block_capacity,
            len: 0,
        }
    }

    /// Number of record pointers in the bag.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the bag holds no record pointers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks currently forming the bag (including the partially filled head).
    #[inline]
    pub fn size_in_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of *full* blocks currently in the bag.
    #[inline]
    pub fn full_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_full()).count()
    }

    /// The capacity of each block in this bag.
    #[inline]
    pub fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    fn fresh_block(&mut self) -> Box<Block<T>> {
        self.spare.pop().unwrap_or_else(|| Block::with_capacity(self.block_capacity))
    }

    fn recycle_block(&mut self, mut block: Box<Block<T>>) {
        if self.spare.len() < MAX_SPARE_BLOCKS {
            block.clear();
            self.spare.push(block);
        }
        // Otherwise the block is simply dropped (freed).
    }

    /// Adds a record pointer to the bag in O(1) amortized time.
    pub fn push(&mut self, record: NonNull<T>) {
        let needs_new_block = {
            let head = self.blocks.last_mut().expect("bag always has a head block");
            !head.push(record)
        };
        if needs_new_block {
            let mut block = self.fresh_block();
            let pushed = block.push(record);
            debug_assert!(pushed, "fresh block must accept a record");
            self.blocks.push(block);
        }
        self.len += 1;
    }

    /// Removes and returns a record pointer, or `None` if the bag is empty.
    pub fn pop(&mut self) -> Option<NonNull<T>> {
        loop {
            let head_empty = {
                let head = self.blocks.last_mut().expect("bag always has a head block");
                match head.pop() {
                    Some(r) => {
                        self.len -= 1;
                        return Some(r);
                    }
                    None => true,
                }
            };
            debug_assert!(head_empty);
            if self.blocks.len() == 1 {
                return None;
            }
            let empty = self.blocks.pop().expect("more than one block");
            self.recycle_block(empty);
        }
    }

    /// Moves every full block out of the bag, leaving at most `block_capacity - 1` records
    /// behind (the contents of the partially filled head block).
    ///
    /// This is the paper's `moveFullBlocks` operation: O(1) work per block moved, and the
    /// records inside the moved blocks are not touched.
    pub fn take_full_blocks(&mut self) -> Vec<Box<Block<T>>> {
        if !self.blocks.iter().any(|b| b.is_full()) {
            // Nothing to move (the common rotation of a bag that holds only a partial
            // head): leave the block list alone instead of rebuilding it.
            return Vec::new();
        }
        let mut taken = Vec::new();
        let mut kept = Vec::with_capacity(1);
        for block in self.blocks.drain(..) {
            if block.is_full() {
                taken.push(block);
            } else {
                kept.push(block);
            }
        }
        if kept.is_empty() {
            kept.push(
                self.spare.pop().unwrap_or_else(|| Block::with_capacity(self.block_capacity)),
            );
        }
        self.blocks = kept;
        self.len = self.blocks.iter().map(|b| b.len()).sum();
        taken
    }

    /// Partitions the bag so that every record for which `keep` returns `true` stays in the
    /// bag, then moves out as many *full* blocks of non-kept records as possible.
    ///
    /// This implements DEBRA+'s `rotateAndReclaim` scan (paper, Figure 6): records pointed
    /// to by restricted hazard pointers are retained, and whole blocks of unprotected
    /// records are handed to the pool.  Up to `block_capacity - 1` unprotected records may
    /// remain in the bag (exactly like the paper, which leaves the partially-filled head
    /// block behind); they will be reclaimed on a later rotation.
    ///
    /// Returns the full blocks of non-kept records.
    pub fn partition_and_take_full_blocks(
        &mut self,
        mut keep: impl FnMut(NonNull<T>) -> bool,
    ) -> Vec<Box<Block<T>>> {
        let mut kept: Vec<NonNull<T>> = Vec::new();
        let mut freeable: Vec<NonNull<T>> = Vec::new();
        let mut spare_blocks: Vec<Box<Block<T>>> = Vec::new();
        for mut block in self.blocks.drain(..) {
            for entry in block.entries_mut().drain(..) {
                if keep(entry) {
                    kept.push(entry);
                } else {
                    freeable.push(entry);
                }
            }
            spare_blocks.push(block);
        }

        // Rebuild the bag: kept records first, then the leftover freeable records that do
        // not fill a whole block.
        let leftover = freeable.len() % self.block_capacity;
        let (to_free, stay) = freeable.split_at(freeable.len() - leftover);

        let mut taken = Vec::new();
        let mut to_free_iter = to_free.iter().copied();
        'outer: loop {
            let mut block =
                spare_blocks.pop().unwrap_or_else(|| Block::with_capacity(self.block_capacity));
            loop {
                match to_free_iter.next() {
                    Some(r) => {
                        let ok = block.push(r);
                        debug_assert!(ok);
                        if block.is_full() {
                            taken.push(block);
                            break;
                        }
                    }
                    None => {
                        debug_assert!(block.is_empty());
                        spare_blocks.push(block);
                        break 'outer;
                    }
                }
            }
        }

        // Restore the bag contents.
        self.blocks.clear();
        self.blocks
            .push(spare_blocks.pop().unwrap_or_else(|| Block::with_capacity(self.block_capacity)));
        self.len = 0;
        for r in kept.into_iter().chain(stay.iter().copied()) {
            self.push(r);
        }
        // Cache a bounded number of leftover empty blocks.
        for block in spare_blocks {
            self.recycle_block(block);
        }
        taken
    }

    /// Adds a whole block of records to the bag.
    ///
    /// Full blocks are inserted below the head in O(1); partially filled blocks are drained
    /// into the bag record by record to preserve the "all non-head blocks are full"
    /// invariant.
    pub fn push_block(&mut self, mut block: Box<Block<T>>) {
        if block.is_full() {
            self.len += block.len();
            let head_index = self.blocks.len() - 1;
            self.blocks.insert(head_index, block);
        } else {
            let entries: Vec<NonNull<T>> = block.drain().collect();
            for r in entries {
                self.push(r);
            }
            self.recycle_block(block);
        }
    }

    /// Moves every record from `other` into `self`, leaving `other` empty.
    pub fn append(&mut self, other: &mut BlockBag<T>) {
        for block in other.take_full_blocks() {
            self.push_block(block);
        }
        while let Some(r) = other.pop() {
            self.push(r);
        }
    }

    /// Iterates over every record pointer in the bag.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { blocks: &self.blocks, block_idx: 0, entry_idx: 0 }
    }

    /// Removes and yields every record pointer in the bag.
    pub fn drain(&mut self) -> Drain<'_, T> {
        Drain { bag: self }
    }
}

impl<T> Default for BlockBag<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for BlockBag<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockBag")
            .field("len", &self.len)
            .field("blocks", &self.blocks.len())
            .field("block_capacity", &self.block_capacity)
            .finish()
    }
}

// SAFETY: the bag stores raw pointers without dereferencing them; it may be sent to another
// thread when the records are `Send` (reclaimer hand-off at thread exit).
unsafe impl<T: Send> Send for BlockBag<T> {}

/// Iterator over the record pointers of a [`BlockBag`]; created by [`BlockBag::iter`].
pub struct Iter<'a, T> {
    blocks: &'a [Box<Block<T>>],
    block_idx: usize,
    entry_idx: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = NonNull<T>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let block = self.blocks.get(self.block_idx)?;
            if let Some(&entry) = block.entries().get(self.entry_idx) {
                self.entry_idx += 1;
                return Some(entry);
            }
            self.block_idx += 1;
            self.entry_idx = 0;
        }
    }
}

impl<'a, T> fmt::Debug for Iter<'a, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Iter")
            .field("block_idx", &self.block_idx)
            .field("entry_idx", &self.entry_idx)
            .finish()
    }
}

/// Draining iterator for a [`BlockBag`]; created by [`BlockBag::drain`].
pub struct Drain<'a, T> {
    bag: &'a mut BlockBag<T>,
}

impl<'a, T> Iterator for Drain<'a, T> {
    type Item = NonNull<T>;

    fn next(&mut self) -> Option<Self::Item> {
        self.bag.pop()
    }
}

impl<'a, T> fmt::Debug for Drain<'a, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Drain").field("remaining", &self.bag.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn ptr(v: usize) -> NonNull<u64> {
        NonNull::new((v * 8 + 8) as *mut u64).unwrap()
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(4);
        for i in 0..10 {
            bag.push(ptr(i));
        }
        assert_eq!(bag.len(), 10);
        let mut seen = HashSet::new();
        while let Some(p) = bag.pop() {
            seen.insert(p);
        }
        assert_eq!(seen.len(), 10);
        assert!(bag.is_empty());
        assert_eq!(bag.pop(), None);
    }

    #[test]
    fn invariant_non_head_blocks_full() {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(4);
        for i in 0..22 {
            bag.push(ptr(i));
        }
        // All blocks except the last must be full.
        for block in &bag.blocks[..bag.blocks.len() - 1] {
            assert!(block.is_full());
        }
    }

    #[test]
    fn take_full_blocks_leaves_partial_head() {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(4);
        for i in 0..22 {
            bag.push(ptr(i));
        }
        let full = bag.take_full_blocks();
        let moved: usize = full.iter().map(|b| b.len()).sum();
        assert_eq!(moved + bag.len(), 22);
        assert!(bag.len() < 4, "at most B-1 records may remain");
        assert!(full.iter().all(|b| b.is_full()));
    }

    #[test]
    fn take_full_blocks_when_everything_is_full() {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(4);
        for i in 0..8 {
            bag.push(ptr(i));
        }
        let full = bag.take_full_blocks();
        assert_eq!(full.iter().map(|b| b.len()).sum::<usize>(), 8);
        assert!(bag.is_empty());
        // The bag must still be usable.
        bag.push(ptr(100));
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn take_full_blocks_without_a_full_block_leaves_the_bag_untouched() {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(4);
        assert!(bag.take_full_blocks().is_empty());
        for i in 0..3 {
            bag.push(ptr(i));
        }
        let head = &*bag.blocks[0] as *const Block<u64>;
        let blocks_buffer = bag.blocks.as_ptr();
        assert!(bag.take_full_blocks().is_empty());
        assert_eq!(bag.len(), 3);
        assert!(std::ptr::eq(&*bag.blocks[0], head), "the head block stays in place");
        assert_eq!(bag.blocks.as_ptr(), blocks_buffer, "the block list is not rebuilt");
    }

    #[test]
    fn partition_keeps_protected_records() {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(4);
        for i in 0..40 {
            bag.push(ptr(i));
        }
        let protected: HashSet<NonNull<u64>> = (0..40).step_by(7).map(ptr).collect();
        let taken = bag.partition_and_take_full_blocks(|p| protected.contains(&p));
        // No protected record may leave the bag.
        for block in &taken {
            for e in block.iter() {
                assert!(!protected.contains(&e), "protected record was reclaimed");
            }
        }
        // Every record is either still in the bag or in a taken block.
        let in_bag: HashSet<_> = bag.iter().collect();
        let in_taken: HashSet<_> = taken.iter().flat_map(|b| b.iter()).collect();
        assert_eq!(in_bag.len() + in_taken.len(), 40);
        for p in &protected {
            assert!(in_bag.contains(p));
        }
        // Taken blocks are full.
        assert!(taken.iter().all(|b| b.is_full()));
        // At most B-1 unprotected records stay behind.
        assert!(in_bag.len() < protected.len() + bag.block_capacity());
    }

    #[test]
    fn push_block_full_and_partial() {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(4);
        bag.push(ptr(0));

        let mut full = Block::with_capacity(4);
        for i in 10..14 {
            full.push(ptr(i));
        }
        bag.push_block(full);
        assert_eq!(bag.len(), 5);

        let mut partial = Block::with_capacity(4);
        partial.push(ptr(20));
        partial.push(ptr(21));
        bag.push_block(partial);
        assert_eq!(bag.len(), 7);

        let all: HashSet<_> = bag.iter().collect();
        assert_eq!(all.len(), 7);
    }

    #[test]
    fn append_moves_everything() {
        let mut a: BlockBag<u64> = BlockBag::with_block_capacity(4);
        let mut b: BlockBag<u64> = BlockBag::with_block_capacity(4);
        for i in 0..9 {
            a.push(ptr(i));
        }
        for i in 100..117 {
            b.push(ptr(i));
        }
        a.append(&mut b);
        assert_eq!(a.len(), 9 + 17);
        assert!(b.is_empty());
    }

    #[test]
    fn iter_sees_every_record() {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(3);
        let expected: HashSet<_> = (0..17).map(ptr).collect();
        for p in &expected {
            bag.push(*p);
        }
        let seen: HashSet<_> = bag.iter().collect();
        assert_eq!(seen, expected);
        // iter does not consume
        assert_eq!(bag.len(), 17);
    }

    #[test]
    fn drain_empties_bag() {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(3);
        for i in 0..17 {
            bag.push(ptr(i));
        }
        assert_eq!(bag.drain().count(), 17);
        assert!(bag.is_empty());
    }

    #[test]
    fn take_full_blocks_moves_blocks_whole_not_per_record() {
        // The paper's `pool->moveFullBlocks(bag)` contract: a full block travels as one
        // object, so the per-record reclamation cost stays O(1).  Verify structurally that
        // the *same* block allocations leave the bag (pointer identity), with their
        // entries untouched and in push order — i.e. no per-record iteration, copying or
        // re-bagging happened on the hot path.
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(4);
        for i in 0..13 {
            bag.push(ptr(i));
        }
        // Identity and contents of the full blocks while still inside the bag.
        let full_before: Vec<(*const Block<u64>, Vec<NonNull<u64>>)> = bag
            .blocks
            .iter()
            .filter(|b| b.is_full())
            .map(|b| (&**b as *const Block<u64>, b.entries().to_vec()))
            .collect();
        assert_eq!(full_before.len(), 3);

        let taken = bag.take_full_blocks();
        let taken_identity: Vec<*const Block<u64>> =
            taken.iter().map(|b| &**b as *const Block<u64>).collect();
        for (addr, entries) in &full_before {
            let pos = taken_identity
                .iter()
                .position(|t| t == addr)
                .expect("every full block must move out as the same allocation");
            assert_eq!(
                taken[pos].entries(),
                &entries[..],
                "a moved block's records must be untouched and in push order"
            );
        }

        // Re-inserting a full block is likewise a whole-block O(1) splice: the same
        // allocation ends up inside the destination bag, below its head block.
        let mut dst: BlockBag<u64> = BlockBag::with_block_capacity(4);
        dst.push(ptr(100));
        let moved = taken.into_iter().next().unwrap();
        let moved_addr = &*moved as *const Block<u64>;
        dst.push_block(moved);
        assert_eq!(dst.len(), 5);
        assert!(
            dst.blocks.iter().any(|b| std::ptr::eq(&**b, moved_addr)),
            "push_block of a full block must splice the same allocation into the bag"
        );
    }

    #[test]
    fn spare_blocks_are_reused() {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(2);
        // Fill and empty the bag repeatedly; the spare list keeps block allocations bounded.
        for _round in 0..10 {
            for i in 0..20 {
                bag.push(ptr(i));
            }
            while bag.pop().is_some() {}
        }
        assert!(bag.spare.len() <= MAX_SPARE_BLOCKS);
        assert!(bag.is_empty());
    }
}
