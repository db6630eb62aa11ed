//! Single-owner bags of record pointers backed by blocks.

use std::fmt;
use std::ptr::NonNull;

use crate::block::{Block, DEFAULT_BLOCK_CAPACITY};

/// Maximum number of empty spare blocks cached inside a [`BlockBag`] (mirrors the paper's
/// bounded per-process block pool of 16 blocks).
const MAX_SPARE_BLOCKS: usize = 16;

/// What a hand-over moves out of a [`BlockBag`]: a full block, whole, or a single record.
#[derive(Debug)]
pub enum Taken<T> {
    /// A full block; it changes owner in O(1), its records untouched.
    Block(Box<Block<T>>),
    /// One record.
    Record(NonNull<T>),
}

/// A single-owner bag of record pointers, stored in fixed-capacity [`Block`]s.
///
/// This is the data structure used for DEBRA's *limbo bags* and for the object pool's
/// per-thread *pool bags* (paper, Section 4, "Block bags").  It maintains the invariant
/// that every block except the most recently filled one is completely full, which makes
/// the following operations cheap:
///
/// * [`push`](BlockBag::push) / [`pop`](BlockBag::pop): O(1);
/// * [`hand_over`](BlockBag::hand_over): empties the bag, O(1) per full block plus at most
///   `block_capacity` single-record moves for the head block's contents — the paper's
///   `pool->moveFullBlocks(bag)`, extended so that no record proven free stays behind;
/// * [`partition_and_hand_over`](BlockBag::partition_and_hand_over): one in-place pass
///   that keeps the records a predicate protects and hands over all the others, whole
///   blocks where it can — the scan of DEBRA+'s `rotateAndReclaim` and of the
///   hazard-pointer reclaimers;
/// * [`take_full_blocks`](BlockBag::take_full_blocks): O(1) per block moved, leaving the
///   partial head behind — how the pools move blocks between their bags.
///
/// Neither hand-over allocates: blocks change owner whole, and an emptied block the bag no
/// longer needs goes to its bounded spare cache, whose capacity is reserved up front.
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
            spare: Vec::with_capacity(MAX_SPARE_BLOCKS),
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

    /// Hands every record in the bag to `take`: each full block whole, in push order, and
    /// then the head block's records one at a time.  The head block itself stays, empty.
    ///
    /// This is the paper's `moveFullBlocks` extended to the partial head: O(1) per full
    /// block plus at most `block_capacity` per-record moves, which is amortized O(1) per
    /// record handed over.  It allocates nothing.  Returns the number of records handed
    /// over.
    pub fn hand_over(&mut self, take: impl FnMut(Taken<T>)) -> usize {
        self.hand_over_from(0, take)
    }

    /// Keeps every record for which `keep` returns `true` and hands every other record to
    /// `take`: whole blocks where the bag has full blocks of them, one record at a time
    /// for the rest (fewer than `2 * block_capacity` of them).
    ///
    /// This is the scan of DEBRA+'s `rotateAndReclaim` (paper, Figure 6) and of the
    /// hazard-pointer and ThreadScan reclaimers: `keep` tests a record against the
    /// announced pointers.  One pass moves the kept records to the front of the bag in
    /// place, swapping each with the first record not kept; the records after them are
    /// handed over exactly as [`hand_over`](Self::hand_over) would hand over a bag that
    /// held only them.  With a `keep` that is never `true` nothing is swapped, so this
    /// hands over the same blocks and records, in the same order, as
    /// [`hand_over`](Self::hand_over).  It allocates nothing.  Returns the number of
    /// records handed over.
    pub fn partition_and_hand_over(
        &mut self,
        mut keep: impl FnMut(NonNull<T>) -> bool,
        take: impl FnMut(Taken<T>),
    ) -> usize {
        let cap = self.block_capacity;
        let mut kept = 0;
        for b in 0..self.blocks.len() {
            for i in 0..self.blocks[b].len() {
                let record = self.blocks[b].entries()[i];
                if !keep(record) {
                    continue;
                }
                // Every block before the head is full, so position `kept` is entry
                // `kept % cap` of block `kept / cap`; it holds a record not kept (or this
                // one), which takes this record's place.
                let (kb, ki) = (kept / cap, kept % cap);
                if (kb, ki) != (b, i) {
                    let other = self.blocks[kb].entries()[ki];
                    self.blocks[kb].entries_mut()[ki] = record;
                    self.blocks[b].entries_mut()[i] = other;
                }
                kept += 1;
            }
        }
        self.hand_over_from(kept, take)
    }

    /// Hands over every record at position `kept` or later, counting positions from the
    /// oldest block on; the `kept` records before them stay and form the new bag.
    fn hand_over_from(&mut self, kept: usize, mut take: impl FnMut(Taken<T>)) -> usize {
        let handed = self.len - kept;
        if handed == 0 {
            return 0;
        }
        let cap = self.block_capacity;
        // Blocks `..kept / cap` hold only kept records; a partly kept block follows them
        // when `kept` is not a multiple of the capacity.
        let mut first_free = kept / cap;
        let partly_kept = kept % cap;
        if partly_kept > 0 {
            let block = &mut self.blocks[first_free];
            for &record in &block.entries()[partly_kept..] {
                take(Taken::Record(record));
            }
            block.entries_mut().truncate(partly_kept);
            first_free += 1;
        }
        let head = self.blocks.len() - 1;
        if first_free <= head {
            for block in self.blocks.drain(first_free..head) {
                take(Taken::Block(block));
            }
            let head = self.blocks.last_mut().expect("bag always has a head block");
            for record in head.drain() {
                take(Taken::Record(record));
            }
            if partly_kept > 0 {
                // The partly kept block becomes the head; the emptied old head is spare.
                let empty = self.blocks.pop().expect("the partly kept block precedes it");
                self.recycle_block(empty);
            }
        }
        self.len = kept;
        handed
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

    /// Collects what a hand-over gives: the blocks whole, the single records in order.
    #[derive(Default)]
    struct Collected {
        // Boxed as handed over: the tests compare block allocations by identity.
        #[allow(clippy::vec_box)]
        blocks: Vec<Box<Block<u64>>>,
        records: Vec<NonNull<u64>>,
    }

    impl Collected {
        fn take(&mut self) -> impl FnMut(Taken<u64>) + '_ {
            |taken| match taken {
                Taken::Block(block) => self.blocks.push(block),
                Taken::Record(record) => self.records.push(record),
            }
        }

        /// Every record handed over, blocks first, in the order they were given.
        fn all(&self) -> Vec<NonNull<u64>> {
            let in_blocks = self.blocks.iter().flat_map(|b| b.iter());
            in_blocks.chain(self.records.iter().copied()).collect()
        }
    }

    #[test]
    fn partition_keeps_protected_records() {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(4);
        for i in 0..40 {
            bag.push(ptr(i));
        }
        let protected: HashSet<NonNull<u64>> = (0..40).step_by(7).map(ptr).collect();
        let mut taken = Collected::default();
        let handed = bag.partition_and_hand_over(|p| protected.contains(&p), taken.take());
        // No protected record may leave the bag.
        for e in taken.all() {
            assert!(!protected.contains(&e), "protected record was reclaimed");
        }
        // Every record is either still in the bag or handed over.
        let in_bag: HashSet<_> = bag.iter().collect();
        let in_taken: HashSet<_> = taken.all().into_iter().collect();
        assert_eq!(handed, in_taken.len());
        assert_eq!(in_bag.len() + in_taken.len(), 40);
        for p in &protected {
            assert!(in_bag.contains(p));
        }
        // Every taken block is full; what is not in one came as single records, and those
        // are fewer than two blocks' worth.
        assert!(taken.blocks.iter().all(|b| b.is_full()));
        assert!(!taken.blocks.is_empty());
        assert!(taken.records.len() < 2 * bag.block_capacity());
        // No unprotected record stays, and the bag keeps its invariant.
        assert_eq!(in_bag.len(), protected.len());
        assert_eq!(bag.len(), protected.len());
        for block in &bag.blocks[..bag.blocks.len() - 1] {
            assert!(block.is_full());
        }
    }

    #[test]
    fn partition_that_keeps_nothing_matches_hand_over() {
        // Both paths must hand over the same blocks and records in the same order (DEBRA+
        // takes the cheaper `hand_over` whenever nothing is announced).
        for len in [0, 3, 4, 9, 12, 13] {
            let mut plain: BlockBag<u64> = BlockBag::with_block_capacity(4);
            let mut parted: BlockBag<u64> = BlockBag::with_block_capacity(4);
            for i in 0..len {
                plain.push(ptr(i));
                parted.push(ptr(i));
            }
            let (mut a, mut b) = (Collected::default(), Collected::default());
            assert_eq!(plain.hand_over(a.take()), len);
            assert_eq!(parted.partition_and_hand_over(|_| false, b.take()), len);
            assert_eq!(a.all(), (0..len).map(ptr).collect::<Vec<_>>(), "push order");
            assert_eq!(a.all(), b.all());
            assert_eq!(a.blocks.len(), b.blocks.len());
            assert!(plain.is_empty() && parted.is_empty());
        }
    }

    #[test]
    fn partition_keeps_any_subset_and_the_invariant() {
        // Every keep pattern over bags of 0..=13 records with 4-record blocks: the kept
        // records stay, the rest are handed over, and the bag stays well formed and usable.
        for len in 0..=13usize {
            for pattern in [0usize, 1, 0b101, 0b1111, 0b1_0000_0001, usize::MAX, 0x2492] {
                let keep =
                    |p: NonNull<u64>| pattern >> ((p.as_ptr() as usize / 8 - 1) % 64) & 1 == 1;
                let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(4);
                for i in 0..len {
                    bag.push(ptr(i));
                }
                let mut taken = Collected::default();
                let handed = bag.partition_and_hand_over(keep, taken.take());
                let expect_kept: HashSet<_> = (0..len).map(ptr).filter(|&p| keep(p)).collect();
                let kept: HashSet<_> = bag.iter().collect();
                assert_eq!(kept, expect_kept, "len {len}, pattern {pattern:#b}");
                assert_eq!(handed + bag.len(), len);
                assert!(taken.all().iter().all(|&p| !keep(p)));
                assert!(taken.blocks.iter().all(|b| b.is_full()));
                for block in &bag.blocks[..bag.blocks.len() - 1] {
                    assert!(block.is_full(), "len {len}, pattern {pattern:#b}");
                }
                bag.push(ptr(100));
                assert_eq!(bag.drain().count(), kept.len() + 1);
            }
        }
    }

    #[test]
    fn hand_over_moves_full_blocks_whole_and_keeps_the_head_block() {
        // Like `take_full_blocks_moves_blocks_whole_not_per_record`: the full blocks leave
        // as the same allocations with their entries untouched; only the head block's
        // records travel one by one, and the head block itself stays in the bag.
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(4);
        for i in 0..14 {
            bag.push(ptr(i));
        }
        let full_before: Vec<(*const Block<u64>, Vec<NonNull<u64>>)> = bag.blocks
            [..bag.blocks.len() - 1]
            .iter()
            .map(|b| (&**b as *const Block<u64>, b.entries().to_vec()))
            .collect();
        assert_eq!(full_before.len(), 3);
        let head = &**bag.blocks.last().unwrap() as *const Block<u64>;

        let mut taken = Collected::default();
        assert_eq!(bag.hand_over(taken.take()), 14);
        let after: Vec<(*const Block<u64>, Vec<NonNull<u64>>)> = taken
            .blocks
            .iter()
            .map(|b| (&**b as *const Block<u64>, b.entries().to_vec()))
            .collect();
        assert_eq!(after, full_before, "the same allocations, in order, entries untouched");
        assert_eq!(taken.records, [ptr(12), ptr(13)]);
        assert!(bag.is_empty());
        assert_eq!(bag.blocks.len(), 1);
        assert!(std::ptr::eq(&*bag.blocks[0], head), "the head block stays in place");
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
