//! Lock-free data structures written against the Record Manager abstraction.
//!
//! These are the workloads of the paper's evaluation (Section 7), implemented from scratch
//! and parameterized — through the Record Manager — by the reclamation scheme, the pool and
//! the allocator.  Changing the memory management strategy of any of them is a one-line
//! change of type parameters; the data structure code itself never mentions a concrete
//! scheme.
//!
//! * [`HarrisMichaelList`] — a lock-free sorted linked list (Harris's marking scheme with
//!   Michael's one-at-a-time physical removal).  Small and easy to reason about; used
//!   heavily by the test suite.  Its algorithm is the public [`Chain`] — one head link
//!   plus `insert`/`remove`/`get` under the caller's guard — which is also the bucket of
//!   `smr-hashmap`'s hash map, so the list algorithm exists once.
//! * [`ExternalBst`] — a lock-free *external* (leaf-oriented) binary search tree with
//!   flag/mark descriptors and helping, in the style of Ellen, Fatourou, Ruppert and
//!   van Breugel.  This is the reproduction's stand-in for the paper's balanced BST (see
//!   `DESIGN.md`): searches traverse pointers from retired nodes to other retired nodes,
//!   nodes are marked before they are retired, and updates are helped through descriptors —
//!   exactly the properties that make hazard pointers problematic and that DEBRA/DEBRA+
//!   handle naturally.
//! * [`SkipList`] — a lock-free skip list (marking in every level's next pointer), the
//!   second workload shape used by the paper's evaluation.
//!
//! All three are written **entirely against the safe guard layer**
//! ([`debra::Domain`]/[`debra::Guard`]/[`debra::Shield`]/[`debra::ShieldSet`]): this crate
//! contains no `unsafe` code at all — enforced by `#![forbid(unsafe_code)]` — and every
//! structure provides the set/map interface used by the benchmark harness (`insert`,
//! `remove`, `contains`/`get`), each taking the structure's per-thread
//! [`debra::DomainHandle`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bst;
pub mod list;
pub mod skiplist;

pub use bst::{BstNode, ExternalBst};
pub use list::{Chain, HarrisMichaelList, ListNode};
pub use skiplist::{SkipList, SkipNode, MAX_HEIGHT};

/// The concurrent set/map interface shared by every structure in this crate, used by the
/// generic benchmark driver in `smr-workloads` and by the cross-structure test suite.
///
/// `Handle` is the per-thread handle type of the concrete structure (a
/// [`debra::DomainHandle`] lease for every structure in this workspace); it is obtained
/// once per worker thread with [`ConcurrentMap::register`] and then passed to every
/// operation, exactly as in the paper's usage model.
pub trait ConcurrentMap<K, V>: Send + Sync {
    /// Per-thread handle required by the operations.
    type Handle;

    /// Registers the calling thread and returns its handle.  Must be called on the thread
    /// that will use the handle.
    ///
    /// Thread slots are leased automatically through each structure's [`debra::Domain`]
    /// — there is no manual `tid` bookkeeping anywhere in the interface.
    fn register(&self) -> Result<Self::Handle, debra::RegistrationError>;

    /// Inserts `key -> value`; returns `true` if the key was not present.
    fn insert(&self, handle: &mut Self::Handle, key: K, value: V) -> bool;

    /// Removes `key`; returns `true` if it was present.
    fn remove(&self, handle: &mut Self::Handle, key: &K) -> bool;

    /// Returns `true` if `key` is present.
    fn contains(&self, handle: &mut Self::Handle, key: &K) -> bool;

    /// Returns the value associated with `key`, if any.
    fn get(&self, handle: &mut Self::Handle, key: &K) -> Option<V>;
}

/// The concurrent *bag* interface: unordered-in-the-interface containers of values —
/// queues, stacks, pools — whose operations are `push`/`pop` rather than keyed
/// insert/remove/search.
///
/// This is the abstraction the producer/consumer workload family drives, the sibling of
/// [`ConcurrentMap`] for the structures the paper's evaluation never touches (every
/// figure is map-shaped).  The interface deliberately does not promise an ordering —
/// FIFO (Michael–Scott queue) and LIFO (Treiber stack) are properties of the concrete
/// structure, asserted by its own tests — because the harness only needs transfer
/// semantics: every pushed value is popped at most once, and pops return `None` only
/// when the bag may linearizably be empty.
///
/// Bags are the worst-case *limbo pressure* workload for a reclamation scheme: every
/// successful `pop` retires a record, so garbage generation is proportional to raw
/// throughput instead of to an update ratio — there is no read-mostly regime to hide in.
///
/// `Handle` is the per-thread handle type, obtained once per worker thread with
/// [`ConcurrentBag::register`] (a [`debra::DomainHandle`] lease for the structures in
/// this workspace), exactly as for [`ConcurrentMap`].
pub trait ConcurrentBag<T>: Send + Sync {
    /// Per-thread handle required by the operations.
    type Handle;

    /// Registers the calling thread and returns its handle.  Must be called on the thread
    /// that will use the handle.
    fn register(&self) -> Result<Self::Handle, debra::RegistrationError>;

    /// Adds `value` to the bag.  Lock-free and total: a push never fails.
    fn push(&self, handle: &mut Self::Handle, value: T);

    /// Removes and returns a value, or `None` if the bag appeared empty at some point
    /// during the call (the linearization point of an empty pop).
    fn pop(&self, handle: &mut Self::Handle) -> Option<T>;
}
