//! Block-based bags of record pointers.
//!
//! This crate implements the *blockbag* substrate described in Section 4 of Brown's
//! "Reclaiming Memory for Lock-Free Data Structures: There has to be a Better Way"
//! (PODC 2015).  DEBRA's limbo bags and the object pool's per-thread pool bags are both
//! block bags: singly linked lists of [`Block`]s, where the head block always contains
//! fewer than `B` records and every other block contains exactly `B` records.  With this
//! invariant, adding and removing a record, and moving all full blocks from one bag to
//! another, all take constant time per block.
//!
//! Three components are provided:
//!
//! * [`Block`] — a fixed-capacity array of record pointers plus an intrusive next link.
//! * [`BlockBag`] — a single-owner bag of blocks with O(1) push/pop and bulk block moves,
//!   used for limbo bags and pool bags.  Each bag keeps a bounded cache of empty blocks
//!   (the paper's 16-block pool), so an epoch rotation does not allocate or free blocks.
//! * [`SharedBlockBag`] — a lock-free shared bag of *blocks* (not individual records),
//!   used as the overflow pool shared by all threads.  Records are moved to and from the
//!   shared bag a whole block at a time, which greatly reduces synchronization costs.
//!
//! The bags store raw record pointers (`NonNull<T>`); they do not own the records and never
//! dereference them.  Ownership and lifetime of the records is managed by the reclaimers
//! and pools built on top (see the `debra` and `smr-alloc` crates).
//!
//! # Example
//!
//! ```
//! use blockbag::{BlockBag, DEFAULT_BLOCK_CAPACITY};
//! use std::ptr::NonNull;
//!
//! let mut bag: BlockBag<u64> = BlockBag::new();
//! let mut records: Vec<Box<u64>> = (0..1000u64).map(Box::new).collect();
//! for r in &mut records {
//!     bag.push(NonNull::from(&mut **r));
//! }
//! assert_eq!(bag.len(), 1000);
//! assert!(bag.size_in_blocks() >= 1000 / DEFAULT_BLOCK_CAPACITY);
//! let full = bag.take_full_blocks();
//! assert!(bag.len() < DEFAULT_BLOCK_CAPACITY);
//! assert_eq!(full.iter().map(|b| b.len()).sum::<usize>() + bag.len(), 1000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bag;
mod block;
mod shared;

pub use bag::{BlockBag, Drain, Iter};
pub use block::{Block, DEFAULT_BLOCK_CAPACITY};
pub use shared::SharedBlockBag;
