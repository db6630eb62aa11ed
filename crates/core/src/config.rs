//! Tuning knobs for DEBRA and DEBRA+.

/// Configuration for [`Debra`](crate::Debra).
///
/// The defaults correspond to the constants used in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DebraConfig {
    /// Number of `leave_qstate` calls between two checks of another thread's announcement
    /// (the paper's `CHECK_THRESH`, used to reduce cross-socket cache misses on NUMA
    /// systems).  1 means "check one announcement on every operation".
    pub check_threshold: usize,
    /// Minimum number of `leave_qstate` calls before this thread attempts to increment the
    /// epoch (the paper's `INCR_THRESH`, 100 in the paper's experiments).  Prevents a
    /// single-threaded execution from rotating bags on every operation.  DEBRA counts the
    /// announcement checks that found their peer ready (the paper's `checkNext`); DEBRA+
    /// counts every check of the epoch, including those a laggard blocked.
    pub increment_threshold: usize,
    /// Number of record pointers per limbo bag block (the paper's `B`, 256).
    pub block_capacity: usize,
}

impl Default for DebraConfig {
    fn default() -> Self {
        DebraConfig {
            check_threshold: 1,
            increment_threshold: 100,
            block_capacity: blockbag::DEFAULT_BLOCK_CAPACITY,
        }
    }
}

/// Configuration for [`DebraPlus`](crate::DebraPlus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DebraPlusConfig {
    /// The underlying DEBRA configuration.
    pub debra: DebraConfig,
    /// When this thread's current limbo bag holds at least this many **blocks** and another
    /// thread is blocking the epoch, the other thread is suspected of having crashed and is
    /// neutralized (the paper's `SUSPECT_THRESHOLD_IN_BLOCKS`).  A rotation hands the whole
    /// bag over, so the count starts from one empty block at the start of each epoch.
    pub suspect_threshold_blocks: usize,
    /// A limbo bag is scanned against the restricted hazard pointers (and its unprotected
    /// records reclaimed) only when it holds at least this many blocks, giving expected
    /// amortized O(1) work per reclaimed record.
    pub scan_threshold_blocks: usize,
    /// Number of restricted hazard pointer (`RProtect`) slots per thread, at most 16 (one
    /// cache line).  Must be at least the number of records accessed by the data
    /// structure's `help` routine plus one for the descriptor.
    pub rprotect_slots: usize,
}

impl Default for DebraPlusConfig {
    fn default() -> Self {
        DebraPlusConfig {
            debra: DebraConfig::default(),
            suspect_threshold_blocks: 2,
            scan_threshold_blocks: 1,
            rprotect_slots: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = DebraConfig::default();
        assert_eq!(c.increment_threshold, 100);
        assert_eq!(c.block_capacity, 256);
        let p = DebraPlusConfig::default();
        assert!(p.rprotect_slots >= 4);
        assert!(p.suspect_threshold_blocks >= 1);
    }
}
