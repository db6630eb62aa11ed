//! Baseline safe-memory-reclamation schemes.
//!
//! These are the schemes the paper's evaluation (Section 7) compares DEBRA and DEBRA+
//! against, implemented from scratch against the same [`Reclaimer`](debra::Reclaimer)
//! trait so that any of them can be dropped into a data structure by changing one type
//! parameter of the Record Manager:
//!
//! * [`NoReclaim`] — performs no reclamation at all (the paper's "None" line, the upper
//!   bound on throughput and the lower bound on memory hygiene).
//! * [`ClassicEbr`] — classical epoch based reclamation in the style the paper attributes
//!   to Fraser: every operation scans *all* announcements, and a thread parked between
//!   operations still blocks reclamation.  Serves to isolate which of DEBRA's changes buy
//!   the performance and robustness.
//! * [`HazardPointers`] — Michael-style hazard pointers with per-access announcements,
//!   per-announcement memory fences, and amortized O(1) scanning on retire.  Following the
//!   paper's experimental setup, the data structures in `lockfree-ds` use it by restarting
//!   operations whenever they cannot certify that a record is still in the data structure
//!   (which, as Section 3 explains at length, sacrifices lock-freedom for many structures).
//! * [`ThreadScanLite`] — a simplified stand-in for ThreadScan: no per-access memory
//!   fences on the fast path; reclamation takes a global lock, signals every thread and
//!   waits for each of them to acknowledge (or become quiescent), then frees unprotected
//!   records.  Captures ThreadScan's performance profile and its blocking/fault-intolerant
//!   nature; see `DESIGN.md` for why the original's stack/register scanning is not
//!   reproducible in safe Rust.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ebr;
mod hazard;
mod none;
mod threadscan;

pub use ebr::{ClassicEbr, ClassicEbrThread, EbrConfig};
pub use hazard::{HazardPointers, HazardPointersThread, HpConfig};
pub use none::{NoReclaim, NoReclaimThread};
pub use threadscan::{ThreadScanConfig, ThreadScanLite, ThreadScanLiteThread};
