//! `experiments -- sanitize`: the paper's workloads run under the `smr-check`
//! pointer-race sanitizer (the dynamic half of the correctness tooling; the static half
//! is `tools/smr-lint`).
//!
//! This is not a performance family — the shadow table serializes every lifecycle event
//! behind a global lock — so it runs a *short* sweep: every reclamation scheme over the
//! three keyed structures (BST, skip list, hash map), then prints the sanitizer's report
//! (per-kind violation counts and the teardown leak gauge).  CI's nightly deep-stress
//! job tees this output into an artifact; any non-zero count is a protocol violation
//! that the regular (unsanitized) stress runs could only surface as a crash or silent
//! corruption.  The queue and stack are covered on every CI run by the clean-run rows of
//! `tests/sanitizer.rs`.
//!
//! Only compiled with `--features smr_sanitize`; the subcommand reports its absence
//! otherwise.

use debra_repro::schemes;
use debra_repro::smr_check::{count, leaked_records, total_violations, ViolationKind};

use crate::experiments::{allocator_from_env, run_config, ReclaimerKind, StructureKind};
use crate::workload::{KeyDistribution, OperationMix, WorkloadConfig};
use crate::AllocatorKind;

/// Runs the sanitized sweep and prints the violation report.  Returns the total number
/// of violations observed (the binary turns a non-zero total into a failing exit code).
pub fn run_sanitized_sweep(duration_ms: u64, threads: usize) -> u64 {
    let before = total_violations();
    let structures = [StructureKind::Bst, StructureKind::SkipList, StructureKind::HashMap];
    let trials = structures.len() * schemes::IDS.len();
    println!(
        "\n### Sanitized sweep — {trials} trials ({} structures x {} schemes, \
         {threads} threads, {duration_ms} ms each)\n",
        structures.len(),
        schemes::IDS.len(),
    );
    let cfg = WorkloadConfig {
        threads,
        key_range: 256,
        mix: OperationMix::UPDATE_HEAVY,
        distribution: KeyDistribution::Uniform,
        duration_ms,
        prefill: true,
        allocator: allocator_from_env(AllocatorKind::BumpWithPool),
    };
    let mut seed = 1;
    for structure in structures {
        for reclaimer in ReclaimerKind::all() {
            let trial_before = total_violations();
            let row = run_config(structure, reclaimer, &cfg, seed);
            seed += 1;
            let trial_delta = total_violations() - trial_before;
            println!(
                "  {:<9} {:<14} {:>12} ops, {}",
                format!("{:?}", row.structure),
                row.reclaimer.name(),
                row.result.operations,
                if trial_delta == 0 {
                    "clean".to_string()
                } else {
                    format!("{trial_delta} violation(s)")
                }
            );
        }
    }
    let delta = total_violations() - before;
    println!("\n### Sanitizer report\n");
    for kind in ViolationKind::ALL {
        let n = count(kind);
        if n > 0 {
            println!("  {:<26} {n}", kind.name());
        }
    }
    println!("  {:<26} {delta}", "violations (this sweep)");
    println!("  {:<26} {}", "leaked records (teardown)", leaked_records());
    println!("  (the None scheme never frees retired records, so its trials fill the leak gauge by design)");
    if delta == 0 {
        println!("\n  clean: no protocol violations under any scheme");
    }
    delta
}
