//! Memory footprint comparison (the paper's Figure 9, right, in miniature).
//!
//! Runs the same update-heavy BST workload under several reclamation schemes with the bump
//! allocator and reports how much record memory each one had to allocate: schemes that
//! recycle records promptly (DEBRA, DEBRA+) allocate far less than performing no
//! reclamation, and hazard pointers sit in between.
//!
//! ```text
//! cargo run --release -p smr-workloads --example memory_footprint
//! ```

use smr_workloads::experiments::{run_config, AllocatorKind, ReclaimerKind, StructureKind};
use smr_workloads::workload::{KeyDistribution, OperationMix, WorkloadConfig};

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(2);
    let cfg = WorkloadConfig {
        threads,
        key_range: 4_096,
        mix: OperationMix::UPDATE_HEAVY,
        distribution: KeyDistribution::Uniform,
        duration_ms: 400,
        prefill: true,
        allocator: AllocatorKind::BumpWithPool,
    };
    println!(
        "BST, {} threads, keyrange {}, {} for {} ms (bump allocator + pool)\n",
        cfg.threads,
        cfg.key_range,
        cfg.mix.label(),
        cfg.duration_ms
    );
    println!("scheme  | throughput (Mops/s) | bytes allocated for records | records allocated");
    for reclaimer in
        ["none", "classic_ebr", "hazard_pointers", "debra", "debra_plus"].map(ReclaimerKind::named)
    {
        let row = run_config(StructureKind::Bst, reclaimer, &cfg, 99);
        println!(
            "{:7} | {:19.3} | {:27} | {:17}",
            reclaimer.name(),
            row.result.throughput_mops,
            row.result.allocated_bytes,
            row.result.allocated_records
        );
    }
    println!(
        "\nLower allocation with comparable throughput is the benefit DEBRA's pool reuse buys."
    );
}
