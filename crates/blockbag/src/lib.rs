//! Block-based bags of record pointers.
//!
//! This crate implements the *blockbag* substrate described in Section 4 of Brown's
//! "Reclaiming Memory for Lock-Free Data Structures: There has to be a Better Way"
//! (PODC 2015).  DEBRA's limbo bags and the object pool's per-thread pool bags are both
//! block bags: singly linked lists of [`Block`]s, where the head block always contains
//! fewer than `B` records and every other block contains exactly `B` records.  With this
//! invariant, adding and removing a record takes constant time, and handing a bag's
//! records to a pool takes constant time per full block.
//!
//! Three components are provided:
//!
//! * [`Block`] — a fixed-capacity array of record pointers plus an intrusive next link.
//! * [`BlockBag`] — a single-owner bag of blocks with O(1) push/pop and bulk hand-over,
//!   used for limbo bags and pool bags.  Each bag keeps a bounded cache of empty blocks
//!   (the paper's 16-block pool), so an epoch rotation does not allocate or free blocks.
//! * [`SharedBlockBag`] — a lock-free shared bag of *blocks* (not individual records),
//!   used as the overflow pool shared by all threads.  Records are moved to and from the
//!   shared bag a whole block at a time, which greatly reduces synchronization costs.
//!
//! A reclaimer empties a limbo bag with [`BlockBag::hand_over`] once every record in it is
//! safe to free, or with [`BlockBag::partition_and_hand_over`] when some records are still
//! protected.  Either hands every record it may free to the caller as a [`Taken`] item:
//! full blocks whole, and the rest — the head block's contents, fewer than two blocks'
//! worth — one record at a time.  So no record proven free waits in limbo for a later
//! rotation, and the cost stays O(1) per full block plus at most two blocks' worth of
//! single-record moves: amortized O(1) per record.
//!
//! The bags store raw record pointers (`NonNull<T>`); they do not own the records and never
//! dereference them.  Ownership and lifetime of the records is managed by the reclaimers
//! and pools built on top (see the `debra` and `smr-alloc` crates).
//!
//! # Example
//!
//! ```
//! use blockbag::{BlockBag, Taken, DEFAULT_BLOCK_CAPACITY};
//! use std::ptr::NonNull;
//!
//! let mut bag: BlockBag<u64> = BlockBag::new();
//! let mut records: Vec<Box<u64>> = (0..1000u64).map(Box::new).collect();
//! for r in &mut records {
//!     bag.push(NonNull::from(&mut **r));
//! }
//! assert_eq!(bag.len(), 1000);
//! assert_eq!(bag.size_in_blocks(), 1000 / DEFAULT_BLOCK_CAPACITY + 1);
//!
//! // Keep the first record (say it is protected) and hand over the rest.
//! let protected = NonNull::from(&mut *records[0]);
//! let (mut blocks, mut singles) = (0, 0);
//! let handed = bag.partition_and_hand_over(
//!     |r| r == protected,
//!     |taken| match taken {
//!         Taken::Block(block) => blocks += block.len(),
//!         Taken::Record(_) => singles += 1,
//!     },
//! );
//! assert_eq!((handed, bag.len()), (999, 1));
//! assert_eq!(blocks, 2 * DEFAULT_BLOCK_CAPACITY);
//! assert_eq!(singles, 999 - 2 * DEFAULT_BLOCK_CAPACITY);
//!
//! // Once nothing is protected, the whole bag goes.
//! assert_eq!(bag.hand_over(|_| {}), 1);
//! assert!(bag.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bag;
mod block;
mod shared;

pub use bag::{BlockBag, Drain, Iter, Taken};
pub use block::{Block, DEFAULT_BLOCK_CAPACITY};
pub use shared::SharedBlockBag;
