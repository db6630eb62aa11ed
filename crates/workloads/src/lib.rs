//! Workload generation, throughput harness and experiment drivers reproducing the paper's
//! evaluation (Section 7).
//!
//! The harness mirrors the paper's methodology: a data structure is prefilled to half its
//! key range, then `n` threads perform random operations drawn from an operation mix
//! (e.g. 50% insert / 50% delete, or 25/25/50 with searches) on uniformly random keys for a
//! fixed duration; the metric is throughput in million operations per second, plus the
//! total memory allocated for records (the paper's Figure 9 right) and the reclaimer
//! statistics (records retired / reclaimed / pending, epoch advances, neutralizations).
//!
//! * [`workload`] — operation mixes, key ranges and the per-thread operation generator.
//! * [`harness`] — the generic timed-trial driver over any
//!   [`debra_repro::lockfree_ds::ConcurrentMap`].
//! * [`experiments`] — one driver per paper experiment (Experiment 1, 2, 2-oversubscribed,
//!   3, the memory-footprint figure and the headline summary), each parameterized over
//!   data structure × reclaimer × pool × allocator.
//! * [`figure2`] — regenerates the qualitative scheme-comparison table (paper, Figure 2)
//!   from the `SchemeProperties` reported by every registered reclaimer.
//!
//! Performance claims are not judged here: the repo's benchmark (`benchmark/`) measures
//! throughput, latency and limbo from outside the program.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod figure2;
pub mod harness;
#[cfg(feature = "smr_sanitize")]
pub mod sanitize;
pub mod workload;

pub use experiments::{
    allocator_from_env, AllocatorKind, ExperimentRow, ReclaimerKind, StructureKind,
};
pub use harness::{run_trial, BenchHandle, TrialResult};
pub use workload::{KeyDistribution, OperationMix, WorkloadConfig};
