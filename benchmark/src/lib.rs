//! The repo's benchmark: 4 workloads x 8 reclamation schemes, measured from outside the
//! program.  See README.md for the workloads, the metrics and how they interact.
//!
//! ```text
//! smr-benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! smr-benchmark compare A.json B.json
//! smr-benchmark describe
//! ```

pub mod cell;
pub mod cli;
pub mod clock;
pub mod compare;
pub mod hist;
pub mod json;
pub mod ops;
pub mod probe;
pub mod run;
pub mod spec;
pub mod subject;
