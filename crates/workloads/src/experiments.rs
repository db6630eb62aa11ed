//! Drivers for every experiment in the paper's evaluation section.
//!
//! Each experiment is a sweep over (data structure, reclaimer, thread count, operation mix,
//! key range) for a fixed memory configuration (allocator + pool), mirroring Section 7:
//!
//! | Experiment | Paper figure | Memory configuration |
//! |------------|--------------|----------------------|
//! | [`experiment1`] | Figure 8 (left) | bump allocator, **no pool** (reclaimers do their work but records are never reused) |
//! | [`experiment2`] | Figure 8 (right) | bump allocator + pool (records are recycled) |
//! | [`experiment2_oversubscribed`] | Figure 9 (left) | as Experiment 2, with more threads than cores |
//! | [`memory_footprint`] | Figure 9 (right) | as Experiment 2, reporting bytes allocated for records and neutralization counts |
//! | [`experiment3`] | Figure 10 | system allocator (`malloc`) + pool |
//! | [`experiment_distribution`] | (not in the paper) | as Experiment 2, uniform vs. Zipfian keys on the hash map and BST |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use debra_repro::debra::{Allocator, Pool, PoolStats, Reclaimer, SchemeProperties};
use debra_repro::for_each_scheme;
use debra_repro::lockfree_ds::{BstNode, ConcurrentMap, ExternalBst, SkipList, SkipNode};
use debra_repro::schemes::{self, MallocMemory, Manager, Memory, On, PageMemory, Scheme};
use debra_repro::smr_alloc::{BumpAllocator, NoPool, ThreadPool};
use debra_repro::smr_hashmap::{HashMapNode, LockFreeHashMap};

use crate::harness::{run_trial, TrialResult};
use crate::workload::{KeyDistribution, OperationMix, WorkloadConfig};

/// Trials narrated so far (the `i` of `trial i/N`), process-wide.
static TRIAL_SEQ: AtomicU64 = AtomicU64::new(0);
/// Trials the sweep drivers have announced (the `N`); 0 means "unknown" (a bare
/// `run_config` call outside any sweep).
static TRIAL_TOTAL: AtomicU64 = AtomicU64::new(0);
/// Wall-clock anchor for the `+elapsed` column, set when the first trial starts.
static NARRATION_START: OnceLock<Instant> = OnceLock::new();

/// Registers `n` upcoming trials with the stderr progress narrator, so multi-minute
/// sweeps print `trial i/N` instead of a bare counter.  Sweep drivers call this with
/// their row count before their first trial; `N` accumulates across drivers so `all`
/// shows one coherent denominator.
pub fn announce_trials(n: u64) {
    TRIAL_TOTAL.fetch_add(n, Ordering::Relaxed);
}

/// One line of per-trial stderr narration: `[trial i/N +elapsed] <config>`.
fn narrate_trial(desc: std::fmt::Arguments<'_>) {
    let i = TRIAL_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    let total = TRIAL_TOTAL.load(Ordering::Relaxed);
    let elapsed = NARRATION_START.get_or_init(Instant::now).elapsed().as_secs_f64();
    if total >= i {
        eprintln!("[trial {i}/{total} +{elapsed:.1}s] {desc}");
    } else {
        eprintln!("[trial {i} +{elapsed:.1}s] {desc}");
    }
}

/// Which reclamation scheme a configuration uses: an entry of the scheme registry
/// ([`debra_repro::schemes`]), named by its registry id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReclaimerKind(&'static str);

impl ReclaimerKind {
    /// Every registered scheme, in registry order: the five compared in the paper's
    /// figures plus the modern points of comparison this reproduction adds.
    pub fn all() -> impl Iterator<Item = ReclaimerKind> {
        schemes::IDS.iter().map(|&id| ReclaimerKind(id))
    }

    /// The scheme registered as `id` (`"debra"`, `"hazard_pointers"`, …).
    ///
    /// # Panics
    ///
    /// Panics if no scheme is registered under `id`.
    pub fn named(id: &str) -> ReclaimerKind {
        Self::all()
            .find(|kind| kind.0 == id)
            .unwrap_or_else(|| panic!("no reclamation scheme is registered as {id:?}"))
    }

    /// The scheme's registry id.
    pub fn id(self) -> &'static str {
        self.0
    }

    /// The scheme's display name (matches the paper's legend).
    pub fn name(self) -> &'static str {
        fn name<S: Scheme>() -> &'static str {
            S::name()
        }
        for_each_scheme!(match self.0 => name())
    }

    /// The scheme's Figure 2 row.
    pub fn properties(self) -> SchemeProperties {
        fn properties<S: Scheme>() -> SchemeProperties {
            S::properties()
        }
        for_each_scheme!(match self.0 => properties())
    }

    /// The memory configuration a trial of this scheme actually runs with: the
    /// requested one, except that a scheme whose reads need a type-stable allocator
    /// (`AllocatorRequirement::TypeStable`) is coerced to
    /// [`AllocatorKind::PagePool`] (with a stderr note), so sweeps over every scheme don't
    /// abort on the one scheme the requested allocator cannot host.
    pub fn effective_allocator(self, requested: AllocatorKind) -> AllocatorKind {
        fn type_stable<S: Scheme>() -> bool {
            S::TYPE_STABLE
        }
        if for_each_scheme!(match self.0 => type_stable()) && requested != AllocatorKind::PagePool {
            eprintln!(
                "note: {} requires ALLOCATOR=pagepool; running it on pagepool instead of {}",
                self.name(),
                requested.name()
            );
            return AllocatorKind::PagePool;
        }
        requested
    }
}

/// Which data structure a configuration exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// The external BST (stand-in for the paper's balanced BST).
    Bst,
    /// The lock-free skip list.
    SkipList,
    /// The lock-free hash map (fixed bucket array of Harris–Michael lists).
    HashMap,
}

impl StructureKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            StructureKind::Bst => "BST",
            StructureKind::SkipList => "SkipList",
            StructureKind::HashMap => "HashMap",
        }
    }
}

/// Which memory configuration (allocator + pool) a configuration uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// Bump allocator, no pool — Experiment 1.
    BumpNoPool,
    /// Bump allocator + per-thread pool — Experiment 2 / Figure 9.
    BumpWithPool,
    /// System allocator (`malloc`) + per-thread pool — Experiment 3.
    SystemWithPool,
    /// Type-stable page allocator + magazine pool (`smr-pagepool`): the retire→free hot
    /// path never touches the system allocator, and freed records return to their pages.
    PagePool,
}

impl AllocatorKind {
    /// Every memory configuration, in the order the experiments sweep them.
    pub const ALL: [AllocatorKind; 4] = [
        AllocatorKind::BumpNoPool,
        AllocatorKind::BumpWithPool,
        AllocatorKind::SystemWithPool,
        AllocatorKind::PagePool,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AllocatorKind::BumpNoPool => "bump/no-pool",
            AllocatorKind::BumpWithPool => "bump/pool",
            AllocatorKind::SystemWithPool => "malloc/pool",
            AllocatorKind::PagePool => "pagepool",
        }
    }
}

/// Resolves the memory configuration for an experiment driver: the `ALLOCATOR`
/// environment variable when set (`bump-no-pool`, `bump`, `system`/`malloc`,
/// `pagepool`), otherwise `default` (each experiment's paper configuration).
///
/// # Panics
///
/// Panics on an unrecognized `ALLOCATOR` value — a misconfigured sweep should fail
/// loudly, not silently measure the wrong memory configuration.
pub fn allocator_from_env(default: AllocatorKind) -> AllocatorKind {
    match std::env::var("ALLOCATOR").ok().as_deref() {
        None | Some("") => default,
        Some("bump-no-pool" | "no-pool") => AllocatorKind::BumpNoPool,
        Some("bump" | "bump-pool") => AllocatorKind::BumpWithPool,
        Some("system" | "malloc") => AllocatorKind::SystemWithPool,
        Some("pagepool" | "page-pool") => AllocatorKind::PagePool,
        Some(other) => panic!(
            "unrecognized ALLOCATOR={other:?} (expected bump-no-pool, bump, system, or pagepool)"
        ),
    }
}

/// One row of an experiment's output table.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRow {
    /// Data structure.
    pub structure: StructureKind,
    /// Reclamation scheme.
    pub reclaimer: ReclaimerKind,
    /// Memory configuration.
    pub allocator: AllocatorKind,
    /// Thread count.
    pub threads: usize,
    /// Key range.
    pub key_range: u64,
    /// Operation mix label (e.g. `"50i-50d"`).
    pub mix: String,
    /// Key popularity distribution.
    pub distribution: KeyDistribution,
    /// Trial measurements.
    pub result: TrialResult,
}

impl ExperimentRow {
    /// Formats the row as one line of the markdown table [`print_rows`] prints.
    pub fn to_table_line(&self) -> String {
        format!(
            "| {:9} | {:10} | {:12} | {:3} | {:8} | {:8} | {:8} | {:8.3} | {:10} | {:10} | {:6} | {:7.1} | {:5} |",
            self.structure.name(),
            self.reclaimer.name(),
            self.allocator.name(),
            self.threads,
            self.key_range,
            self.mix,
            self.distribution.label(),
            self.result.throughput_mops,
            self.result.reclaimer.retired,
            self.result.reclaimer.reclaimed,
            self.result.reclaimer.neutralized,
            self.result.pool.hit_rate_pct(),
            self.result.pool.pages_mapped,
        )
    }

    /// The table header matching [`Self::to_table_line`].
    pub fn table_header() -> String {
        let mut s = String::new();
        s.push_str("| structure | scheme     | memory       | thr | keyrange | mix      | dist     | Mops/s   | retired    | reclaimed  | neutr. | mag-hit | pages |\n");
        s.push_str("|-----------|------------|--------------|-----|----------|----------|----------|----------|------------|------------|--------|---------|-------|");
        s
    }
}

/// Runs one fully specified configuration and returns its row.  The memory configuration
/// (allocator + pool) comes from [`WorkloadConfig::allocator`], except that VBR always
/// runs over the page pool ([`ReclaimerKind::effective_allocator`]).
pub fn run_config(
    structure: StructureKind,
    reclaimer: ReclaimerKind,
    cfg: &WorkloadConfig,
    seed: u64,
) -> ExperimentRow {
    let allocator = reclaimer.effective_allocator(cfg.allocator);
    // Sweeps print their tables only when complete; on a single-core box a full sweep
    // takes minutes, so narrate per-trial progress (with `i/N` and elapsed wall-clock)
    // to stderr (tables go to stdout).
    narrate_trial(format_args!(
        "{structure:?} x {} x {allocator:?} (threads={}, keys={}, {}ms)",
        reclaimer.name(),
        cfg.threads,
        cfg.key_range,
        cfg.duration_ms
    ));
    // The registry expands one arm per scheme; below it, the composition with a memory
    // configuration and a structure is a one-line choice of type parameters, which is
    // the whole point of the Record Manager abstraction.
    let result =
        for_each_scheme!(match reclaimer.id() => run_scheme(structure, allocator, cfg, seed));
    ExperimentRow {
        structure,
        reclaimer,
        allocator,
        threads: cfg.threads,
        key_range: cfg.key_range,
        mix: cfg.mix.label(),
        distribution: cfg.distribution,
        result,
    }
}

/// The bump allocator with no pool (Experiment 1): reclaimed records are never reused.
struct BumpNoPoolMemory;

impl Memory for BumpNoPoolMemory {
    type Pool<T: Send + 'static> = NoPool<T>;
    type Allocator<T: Send + 'static> = BumpAllocator<T>;
}

/// The bump allocator behind per-thread pools (Experiment 2).
struct BumpMemory;

impl Memory for BumpMemory {
    type Pool<T: Send + 'static> = ThreadPool<T>;
    type Allocator<T: Send + 'static> = BumpAllocator<T>;
}

/// Runs scheme `S` over `allocator`.  A scheme that needs a type-stable allocator runs
/// only on its own memory, the page pool `effective_allocator` sent it to, so the other
/// three memory configurations are never instantiated for it.
fn run_scheme<S: Scheme>(
    structure: StructureKind,
    allocator: AllocatorKind,
    cfg: &WorkloadConfig,
    seed: u64,
) -> TrialResult {
    if S::TYPE_STABLE {
        return run_structure::<S>(structure, cfg, seed);
    }
    match allocator {
        AllocatorKind::BumpNoPool => run_structure::<On<S, BumpNoPoolMemory>>(structure, cfg, seed),
        AllocatorKind::BumpWithPool => run_structure::<On<S, BumpMemory>>(structure, cfg, seed),
        AllocatorKind::SystemWithPool => run_structure::<On<S, MallocMemory>>(structure, cfg, seed),
        AllocatorKind::PagePool => run_structure::<On<S, PageMemory>>(structure, cfg, seed),
    }
}

fn run_structure<S: Scheme>(
    structure: StructureKind,
    cfg: &WorkloadConfig,
    seed: u64,
) -> TrialResult {
    match structure {
        StructureKind::Bst => run_map::<S, BstNode<u64, u64>, _>(ExternalBst::new, cfg, seed),
        StructureKind::SkipList => run_map::<S, SkipNode<u64, u64>, _>(SkipList::new, cfg, seed),
        StructureKind::HashMap => {
            run_map::<S, HashMapNode<u64, u64>, _>(LockFreeHashMap::new, cfg, seed)
        }
    }
}

/// Builds the structure `make` returns over a fresh Record Manager of scheme `S` and runs
/// the shared harness on it.
fn run_map<S: Scheme, T: Send + 'static, M: ConcurrentMap<u64, u64>>(
    make: fn(Arc<Manager<S, T>>) -> M,
    cfg: &WorkloadConfig,
    seed: u64,
) -> TrialResult {
    // +1 slot for the calling thread, which runs the prefill.
    let manager = Arc::new(Manager::<S, T>::new(cfg.threads + 1));
    let map = make(Arc::clone(&manager));
    run_trial(
        &map,
        cfg,
        seed,
        || manager.reclaimer().stats(),
        || (manager.allocator().allocated_bytes(), manager.allocator().allocated_records()),
        || manager.pool().stats(),
    )
}

/// The grid of workload shapes used by the paper's figures (two operation mixes × the
/// per-structure key ranges).
pub fn paper_workloads(
    structure: StructureKind,
    small_keyranges: bool,
) -> Vec<(u64, OperationMix)> {
    let ranges: Vec<u64> = match (structure, small_keyranges) {
        (StructureKind::Bst, false) => vec![10_000, 1_000_000],
        (StructureKind::Bst, true) => vec![1_024, 16_384],
        (StructureKind::SkipList, false) => vec![200_000],
        (StructureKind::SkipList, true) => vec![4_096],
        // Not in the paper; sized so the fixed 256-bucket table sees real chains.
        (StructureKind::HashMap, false) => vec![100_000],
        (StructureKind::HashMap, true) => vec![4_096],
    };
    let mut out = Vec::new();
    for r in ranges {
        out.push((r, OperationMix::UPDATE_HEAVY));
        out.push((r, OperationMix::MIXED));
    }
    out
}

/// Runs every registered scheme over `structures` × their paper workloads × `thread_counts`.
fn sweep(
    structures: &[StructureKind],
    allocator: AllocatorKind,
    thread_counts: &[usize],
    duration_ms: u64,
    small_keyranges: bool,
) -> Vec<ExperimentRow> {
    let workloads: u64 =
        structures.iter().map(|&s| paper_workloads(s, small_keyranges).len() as u64).sum();
    announce_trials(workloads * thread_counts.len() as u64 * schemes::IDS.len() as u64);
    let mut rows = Vec::new();
    for &structure in structures {
        for (key_range, mix) in paper_workloads(structure, small_keyranges) {
            for &threads in thread_counts {
                for reclaimer in ReclaimerKind::all() {
                    let cfg = WorkloadConfig {
                        threads,
                        key_range,
                        mix,
                        distribution: KeyDistribution::Uniform,
                        duration_ms,
                        prefill: true,
                        allocator,
                    };
                    rows.push(run_config(structure, reclaimer, &cfg, 0xDEB2A));
                }
            }
        }
    }
    rows
}

/// Experiment 1 (Figure 8, left): overhead of reclamation — bump allocator, no pool.
pub fn experiment1(thread_counts: &[usize], duration_ms: u64, small: bool) -> Vec<ExperimentRow> {
    sweep(
        &[StructureKind::Bst, StructureKind::SkipList, StructureKind::HashMap],
        allocator_from_env(AllocatorKind::BumpNoPool),
        thread_counts,
        duration_ms,
        small,
    )
}

/// Experiment 2 (Figure 8, right): records are actually recycled — bump allocator + pool.
pub fn experiment2(thread_counts: &[usize], duration_ms: u64, small: bool) -> Vec<ExperimentRow> {
    sweep(
        &[StructureKind::Bst, StructureKind::SkipList, StructureKind::HashMap],
        allocator_from_env(AllocatorKind::BumpWithPool),
        thread_counts,
        duration_ms,
        small,
    )
}

/// Experiment 2 with more threads than cores (Figure 9, left — the paper's 64-thread
/// Oracle T4-1 run): exposes the oversubscription cliff that DEBRA+ fixes.
pub fn experiment2_oversubscribed(duration_ms: u64, small: bool) -> Vec<ExperimentRow> {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let counts = [cores, cores * 2, cores * 4];
    sweep(
        &[StructureKind::Bst],
        allocator_from_env(AllocatorKind::BumpWithPool),
        &counts,
        duration_ms,
        small,
    )
}

/// Experiment 3 (Figure 10): the system allocator replaces the bump allocator.
pub fn experiment3(thread_counts: &[usize], duration_ms: u64, small: bool) -> Vec<ExperimentRow> {
    sweep(
        &[StructureKind::Bst, StructureKind::SkipList, StructureKind::HashMap],
        allocator_from_env(AllocatorKind::SystemWithPool),
        thread_counts,
        duration_ms,
        small,
    )
}

/// The key-distribution experiment (not in the paper): hash map and BST, every scheme,
/// uniform vs. Zipfian keys.  Under the hot-key regime most operations funnel into a few
/// bucket chains / tree paths, so retired-but-unreclaimable records concentrate exactly
/// where every thread is traversing — the scenario where reclamation schemes separate.
pub fn experiment_distribution(
    thread_counts: &[usize],
    duration_ms: u64,
    small: bool,
) -> Vec<ExperimentRow> {
    let allocator = allocator_from_env(AllocatorKind::BumpWithPool);
    announce_trials(2 * 2 * thread_counts.len() as u64 * schemes::IDS.len() as u64);
    let mut rows = Vec::new();
    for structure in [StructureKind::HashMap, StructureKind::Bst] {
        let key_range = match (structure, small) {
            (StructureKind::HashMap, true) => 4_096,
            (StructureKind::HashMap, false) => 100_000,
            (_, true) => 1_024,
            (_, false) => 10_000,
        };
        for distribution in [KeyDistribution::Uniform, KeyDistribution::ZIPF_DEFAULT] {
            for &threads in thread_counts {
                for reclaimer in ReclaimerKind::all() {
                    let cfg = WorkloadConfig {
                        threads,
                        key_range,
                        mix: OperationMix::UPDATE_HEAVY,
                        distribution,
                        duration_ms,
                        prefill: true,
                        allocator,
                    };
                    rows.push(run_config(structure, reclaimer, &cfg, 0x21BF));
                }
            }
        }
    }
    rows
}

/// The memory-footprint experiment (Figure 9, right): BST, key range 10⁴ (paper value) or
/// smaller, 50i-50d, bump allocator + pool; the metric is total bytes allocated for
/// records, swept over thread counts including oversubscription.
pub fn memory_footprint(duration_ms: u64, small: bool) -> Vec<ExperimentRow> {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let counts = [1, cores.max(2), cores * 2, cores * 4];
    let key_range = if small { 1_024 } else { 10_000 };
    let allocator = allocator_from_env(AllocatorKind::BumpWithPool);
    announce_trials(counts.len() as u64 * 4);
    let mut rows = Vec::new();
    for &threads in &counts {
        for reclaimer in
            ["none", "debra", "debra_plus", "hazard_pointers"].map(ReclaimerKind::named)
        {
            let cfg = WorkloadConfig {
                threads,
                key_range,
                mix: OperationMix::UPDATE_HEAVY,
                distribution: KeyDistribution::Uniform,
                duration_ms,
                prefill: true,
                allocator,
            };
            rows.push(run_config(StructureKind::Bst, reclaimer, &cfg, 7));
        }
    }
    rows
}

/// Prints a set of rows as a markdown table.
pub fn print_rows(title: &str, rows: &[ExperimentRow]) {
    println!("\n### {title}\n");
    println!("{}", ExperimentRow::table_header());
    for row in rows {
        println!("{}", row.to_table_line());
    }
}

/// Computes the headline comparison of the paper's abstract: DEBRA / DEBRA+ overhead
/// relative to no reclamation, and speedup over hazard pointers, averaged over a set of
/// rows that differ only in the reclaimer.
pub fn summarize(rows: &[ExperimentRow]) -> Vec<String> {
    use std::collections::HashMap;
    /// Throughput by scheme id, per group of rows that differ only in the scheme.
    type Groups<K> = HashMap<K, HashMap<&'static str, f64>>;
    /// The mean over `groups` of `num`'s throughput relative to `den`'s, taken over the
    /// groups that hold both.
    fn mean_ratio<K>(groups: &Groups<K>, num: &str, den: &str) -> f64 {
        let ratios: Vec<f64> = groups
            .values()
            .filter_map(|by_scheme| Some(by_scheme.get(num)? / by_scheme.get(den)?))
            .collect();
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    }
    // Group by everything except the reclaimer.
    let mut groups: Groups<(StructureKind, AllocatorKind, usize, u64, String, String)> =
        HashMap::new();
    // VBR runs only on the page pool (other allocators are coerced at dispatch), so its
    // rows sit in different allocator groups than the scheme it is measured against;
    // compare it across a second grouping that ignores the memory configuration.
    let mut mix_groups: Groups<(StructureKind, usize, u64, String, String)> = HashMap::new();
    for r in rows {
        let (mix, dist) = (r.mix.clone(), r.distribution.label());
        groups
            .entry((r.structure, r.allocator, r.threads, r.key_range, mix.clone(), dist.clone()))
            .or_default()
            .insert(r.reclaimer.id(), r.result.throughput_mops);
        mix_groups
            .entry((r.structure, r.threads, r.key_range, mix, dist))
            .or_default()
            .insert(r.reclaimer.id(), r.result.throughput_mops);
    }
    let mut pool = PoolStats::default();
    for r in rows {
        pool.merge(&r.result.pool);
    }
    vec![
        format!(
            "DEBRA throughput relative to None (paper: ~0.88–0.96x): {:.2}x",
            mean_ratio(&groups, "debra", "none")
        ),
        format!(
            "DEBRA+ throughput relative to None (paper: ~0.83–0.90x): {:.2}x",
            mean_ratio(&groups, "debra_plus", "none")
        ),
        format!("DEBRA speedup over HP (paper: ~1.75–1.94x): {:.2}x", mean_ratio(&groups, "debra", "hazard_pointers")),
        format!("DEBRA+ speedup over HP (paper: ~1.70–1.83x): {:.2}x", mean_ratio(&groups, "debra_plus", "hazard_pointers")),
        format!("IBR throughput relative to None (not in the paper): {:.2}x", mean_ratio(&groups, "ibr", "none")),
        format!("IBR relative to HP (not in the paper): {:.2}x", mean_ratio(&groups, "ibr", "hazard_pointers")),
        format!("VBR throughput relative to None (not in the paper): {:.2}x", mean_ratio(&mix_groups, "vbr", "none")),
        format!("VBR relative to EBR (not in the paper): {:.2}x", mean_ratio(&mix_groups, "vbr", "classic_ebr")),
        format!(
            "Allocation pipeline: {:.1}% magazine hit rate ({} hits / {} misses), {} pages mapped, {} slots live, {} slots free",
            pool.hit_rate_pct(),
            pool.magazine_hits,
            pool.magazine_misses,
            pool.pages_mapped,
            pool.slots_live,
            pool.slots_free,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_config_smoke_every_reclaimer_on_bst() {
        for reclaimer in ReclaimerKind::all() {
            let cfg = WorkloadConfig {
                threads: 2,
                key_range: 128,
                mix: OperationMix::UPDATE_HEAVY,
                distribution: KeyDistribution::Uniform,
                duration_ms: 20,
                prefill: true,
                allocator: AllocatorKind::BumpWithPool,
            };
            let row = run_config(StructureKind::Bst, reclaimer, &cfg, 1);
            assert!(row.result.operations > 0, "{reclaimer:?} produced no operations");
            // Even None counts what it retires (and abandons).
            assert!(row.result.reclaimer.retired > 0, "{reclaimer:?} retired nothing");
        }
    }

    #[test]
    fn run_config_smoke_every_reclaimer_on_hashmap_both_distributions() {
        for distribution in [KeyDistribution::Uniform, KeyDistribution::ZIPF_DEFAULT] {
            for reclaimer in ReclaimerKind::all() {
                let cfg = WorkloadConfig {
                    threads: 2,
                    key_range: 128,
                    mix: OperationMix::UPDATE_HEAVY,
                    distribution,
                    duration_ms: 20,
                    prefill: true,
                    allocator: AllocatorKind::BumpWithPool,
                };
                let row = run_config(StructureKind::HashMap, reclaimer, &cfg, 1);
                assert!(
                    row.result.operations > 0,
                    "{reclaimer:?}/{distribution:?} produced no operations"
                );
                assert!(row.result.reclaimer.retired > 0, "{reclaimer:?}/{distribution:?}");
            }
        }
    }

    #[test]
    fn run_config_smoke_skiplist_and_memory_configs() {
        for allocator in
            [AllocatorKind::BumpNoPool, AllocatorKind::SystemWithPool, AllocatorKind::PagePool]
        {
            let cfg = WorkloadConfig {
                threads: 2,
                key_range: 128,
                mix: OperationMix::MIXED,
                distribution: KeyDistribution::Uniform,
                duration_ms: 20,
                prefill: true,
                allocator,
            };
            let row = run_config(StructureKind::SkipList, ReclaimerKind::named("debra"), &cfg, 3);
            assert!(row.result.operations > 0);
            assert!(row.result.allocated_records > 0);
            if allocator == AllocatorKind::PagePool {
                assert!(row.result.pool.pages_mapped > 0, "pagepool rows must map pages");
            }
        }
    }

    #[test]
    fn summary_produces_nine_lines() {
        let mut rows = Vec::new();
        for reclaimer in ReclaimerKind::all() {
            let cfg = WorkloadConfig {
                threads: 2,
                key_range: 64,
                mix: OperationMix::UPDATE_HEAVY,
                distribution: KeyDistribution::Uniform,
                duration_ms: 15,
                prefill: true,
                allocator: AllocatorKind::BumpWithPool,
            };
            rows.push(run_config(StructureKind::Bst, reclaimer, &cfg, 5));
        }
        let summary = summarize(&rows);
        assert_eq!(summary.len(), 9);
        assert!(summary[0].contains("DEBRA"));
        assert!(summary.iter().any(|l| l.contains("IBR")));
        assert!(summary.iter().any(|l| l.contains("VBR relative to EBR")));
        assert!(summary[8].contains("Allocation pipeline"));
    }
}
