//! Umbrella crate for the DEBRA / DEBRA+ reproduction workspace.
//!
//! Re-exports the library crates so that examples and integration tests can use a single
//! dependency, and lists every reclamation scheme once in [`schemes`], the registry that
//! drivers, examples and per-scheme test matrices iterate.  The paper's experiment driver
//! is the separate `smr-workloads` crate.  See the workspace `README.md` and `DESIGN.md`
//! for the architecture.

pub use blockbag;
pub use debra;
pub use lockfree_ds;
pub use neutralize;
/// Used by [`for_each_scheme!`] to name its test rows; not part of the API.
#[doc(hidden)]
pub use paste;
pub use smr_alloc;
pub use smr_baselines;
/// Only present under `--features smr_sanitize`: keeps the sanitizer out of the
/// default dependency graph entirely (`cargo tree` shows no `smr-check` edge).
#[cfg(feature = "smr_sanitize")]
pub use smr_check;
pub use smr_hashmap;
pub use smr_ibr;
pub use smr_pagepool;
pub use smr_queue;
pub use smr_vbr;

pub mod schemes;
