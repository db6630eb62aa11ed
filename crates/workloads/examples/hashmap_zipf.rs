//! The lock-free hash map under hot-key contention: uniform vs. Zipfian keys, swept
//! across every reclamation scheme.
//!
//! Under a Zipfian key distribution most operations funnel into a handful of bucket
//! chains, so removed-but-unreclaimable nodes concentrate exactly where every thread is
//! traversing — the regime in which reclamation schemes actually separate.  This example
//! runs the same update-heavy workload twice per scheme (uniform, then Zipf 0.99) and
//! prints throughput plus the retire/reclaim counters side by side.
//!
//! ```text
//! cargo run --release -p smr-workloads --example hashmap_zipf
//! ```

use smr_workloads::experiments::{run_config, AllocatorKind, ReclaimerKind, StructureKind};
use smr_workloads::workload::{KeyDistribution, OperationMix, WorkloadConfig};

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(2);
    println!(
        "Lock-free hash map, {} threads, keyrange 4096, {} for 300 ms (bump allocator + pool)\n",
        threads,
        OperationMix::UPDATE_HEAVY.label(),
    );
    println!("scheme     | dist     | Mops/s   | retired    | reclaimed  | neutralized");
    println!("-----------|----------|----------|------------|------------|------------");
    for reclaimer in ReclaimerKind::all() {
        for distribution in [KeyDistribution::Uniform, KeyDistribution::ZIPF_DEFAULT] {
            let cfg = WorkloadConfig {
                threads,
                key_range: 4_096,
                mix: OperationMix::UPDATE_HEAVY,
                distribution,
                duration_ms: 300,
                prefill: true,
                allocator: AllocatorKind::BumpWithPool,
            };
            let row = run_config(StructureKind::HashMap, reclaimer, &cfg, 0x5EED);
            println!(
                "{:10} | {:8} | {:8.3} | {:10} | {:10} | {:10}",
                reclaimer.name(),
                distribution.label(),
                row.result.throughput_mops,
                row.result.reclaimer.retired,
                row.result.reclaimer.reclaimed,
                row.result.reclaimer.neutralized,
            );
        }
    }
    println!(
        "\nThe Zipfian rows churn a few hot chains: retired counts concentrate there, and\n\
         schemes whose reclamation stalls behind slow readers show it first in these rows."
    );
}
