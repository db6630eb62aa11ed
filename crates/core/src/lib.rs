//! DEBRA and DEBRA+ — distributed epoch based reclamation for lock-free data structures —
//! together with the **Record Manager** abstraction that separates memory reclamation from
//! data structure code.
//!
//! This crate is the primary contribution of the reproduction of Trevor Brown's
//! *"Reclaiming Memory for Lock-Free Data Structures: There has to be a Better Way"*
//! (PODC 2015):
//!
//! * [`Debra`] — a distributed variant of epoch based reclamation (EBR).  Compared to
//!   classical EBR it (i) lets reclamation continue while a slow process is *between*
//!   operations (partial fault tolerance), (ii) amortizes the cost of scanning other
//!   processes' epoch announcements over many operations, and (iii) replaces shared limbo
//!   bags with per-thread, block-based limbo bags (see the `blockbag` crate).  Each
//!   operation start/end and each retired record costs O(1) steps.
//! * [`DebraPlus`] — the first *fault tolerant* epoch based reclamation scheme.  A process
//!   that has not announced the current epoch for a long time is **neutralized** with an OS
//!   signal (see the `neutralize` crate); from that moment on other processes may treat it
//!   as quiescent, so the number of records waiting to be freed is bounded by O(mn²).
//! * [`RecordManager`] — the lock-free generalization of the C++ `Allocator` abstraction:
//!   a compile-time composition of a [`Reclaimer`], a [`Pool`] and an [`Allocator`] that a
//!   data structure uses for all allocation, retirement and reclamation, so that the
//!   reclamation scheme can be swapped by changing a single type parameter.
//! * [`Domain`] / [`Guard`] / [`Shield`] / [`ShieldSet`] / [`Recovery`] — the **safe
//!   layer** over the Record Manager (module [`guard`]): automatic per-thread slot
//!   leasing, RAII operation brackets, typed [`Restart`] instead of caller-side
//!   neutralization checks, multi-role protection windows with store-free rotation,
//!   RAII restricted-hazard-pointer scopes for DEBRA+ completion phases, and
//!   [`Atomic`]/[`Shared`]/[`Owned`] pointers (module [`atomic`]) whose lifetimes tie
//!   every dereference to a live guard — data structures written on it need no `unsafe`
//!   at all (the structure crates are `#![forbid(unsafe_code)]`).
//!
//! Baseline schemes (no reclamation, classical EBR, hazard pointers, …) implementing the
//! same traits live in the `smr-baselines` crate; allocators and pools live in `smr-alloc`;
//! lock-free data structures exercising the abstraction live in `lockfree-ds`.
//!
//! # Quick start
//!
//! ```
//! use debra::{Debra, RecordManager, Reclaimer, ReclaimerThread, ReclaimSink};
//! use std::ptr::NonNull;
//! use std::sync::Arc;
//!
//! // A trivial sink that immediately frees reclaimed records (normally the Pool does this).
//! struct FreeSink;
//! impl ReclaimSink<u64> for FreeSink {
//!     fn accept(&mut self, record: NonNull<u64>) {
//!         // SAFETY: records below are leaked boxes and reclaimed exactly once.
//!         unsafe { drop(Box::from_raw(record.as_ptr())) }
//!     }
//! }
//!
//! let debra: Arc<Debra<u64>> = Arc::new(Debra::new(2));
//! let mut t0 = Debra::register(&debra, 0).unwrap();
//! let mut sink = FreeSink;
//!
//! t0.leave_qstate(&mut sink);                 // begin a data structure operation
//! let record = NonNull::from(Box::leak(Box::new(42u64)));
//! // ... the record would be inserted into and later removed from a data structure ...
//! unsafe { t0.retire(record, &mut sink) };    // O(1): goes into the current limbo bag
//! t0.enter_qstate();                          // end of the operation
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod announce;
pub mod atomic;
pub mod config;
pub mod debra;
pub mod debra_plus;
pub mod guard;
pub mod header;
pub mod properties;
pub mod record_manager;
pub mod stats;
pub mod threads;
pub mod traits;

pub use crate::announce::AnnounceSlots;
pub use crate::atomic::{Atomic, Owned, Pinned, Shared};
pub use crate::config::{DebraConfig, DebraPlusConfig};
pub use crate::debra::{to_sink, Debra, DebraThread, LimboBags};
pub use crate::debra_plus::{DebraPlus, DebraPlusThread};
pub use crate::guard::{
    Domain, DomainHandle, Guard, Protected, Recovery, Restart, Shield, ShieldSet,
};
pub use crate::header::{header_of, Headed, RecordHeader};
pub use crate::properties::{CodeModifications, SchemeProperties, Termination, TimingAssumptions};
pub use crate::record_manager::{OpGuard, RecordManager, RecordManagerThread};
pub use crate::stats::{PoolStats, ReclaimerStats, ThreadStatsSlot};
pub use crate::threads::ThreadTable;
pub use crate::traits::{
    Allocator, AllocatorRequirement, AllocatorThread, CountingSink, Pool, PoolThread,
    ReadProtection, ReclaimSink, Reclaimer, ReclaimerThread, RegistrationError,
};

pub use neutralize::Neutralized;
