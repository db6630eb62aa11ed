//! Command-line driver that regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p smr-workloads --bin experiments -- <subcommand>
//!
//! Subcommands:
//!   figure2      qualitative scheme comparison (paper Figure 2)
//!   e1           Experiment 1: overhead of reclamation (Figure 8 left)
//!   e2           Experiment 2: with reuse through the pool (Figure 8 right)
//!   e2-oversub   Experiment 2 with oversubscription (Figure 9 left)
//!   memory       memory allocated for records + neutralizations (Figure 9 right)
//!   e3           Experiment 3: malloc allocator (Figure 10)
//!   zipf         uniform vs. Zipfian keys on the hash map and BST (not in the paper)
//!   sanitize     every scheme + structure under the smr-check pointer-race sanitizer;
//!                prints the violation report and fails on any report (needs
//!                `--features smr_sanitize`)
//!   summary      headline ratios from the abstract (DEBRA vs None vs HP)
//!   quick        one short BST x DEBRA trial (a sanity check)
//!   all          every table above except `sanitize` and `quick`
//!
//! Environment variables:
//!   DURATION_MS   per-trial duration (default 300)
//!   THREADS       comma-separated thread counts (default "1,2,4,8")
//!   FULL_KEYRANGE set to 1 to use the paper's key ranges (10^4 / 10^6 / 2*10^5);
//!                 the default uses smaller ranges so a full sweep finishes quickly
//!   ALLOCATOR     override each experiment's memory configuration: bump-no-pool,
//!                 bump, system (malloc), or pagepool (the type-stable page allocator)
//!
//! A value that does not parse stops the run before the first trial.
//! ```

use smr_workloads::experiments::{
    self, experiment1, experiment2, experiment2_oversubscribed, experiment3,
    experiment_distribution, memory_footprint, print_rows, summarize, ReclaimerKind, StructureKind,
};
use smr_workloads::figure2;
use smr_workloads::workload::{KeyDistribution, OperationMix, WorkloadConfig};
use smr_workloads::AllocatorKind;

/// The sweep knobs the environment sets (see the module docs).
#[derive(Debug, PartialEq)]
struct Knobs {
    /// `DURATION_MS`: per-trial duration.
    duration_ms: u64,
    /// `THREADS`: the thread counts to sweep.
    threads: Vec<usize>,
    /// `FULL_KEYRANGE` unset or 0: the small key ranges.
    small_keyranges: bool,
}

/// Reads the knobs through `var` (the environment, in `main`).  An unset or empty
/// variable takes its default; a value that does not parse is an error, so a misspelled
/// knob fails the run instead of silently sweeping the default.
fn parse_knobs(var: impl Fn(&str) -> Option<String>) -> Result<Knobs, String> {
    let set = |name: &str| var(name).filter(|v| !v.trim().is_empty());
    let number = |name: &str, default: u64| match set(name) {
        None => Ok(default),
        Some(v) => {
            v.trim().parse().map_err(|_| format!("{name}={v:?} is not a non-negative integer"))
        }
    };
    let threads = match set("THREADS") {
        None => vec![1, 2, 4, 8],
        Some(v) => v
            .split(',')
            .map(|t| t.trim().parse().ok().filter(|&n: &usize| n > 0))
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(|| {
                format!("THREADS={v:?} is not a comma-separated list of positive counts")
            })?,
    };
    Ok(Knobs {
        duration_ms: number("DURATION_MS", 300)?,
        threads,
        small_keyranges: number("FULL_KEYRANGE", 0)? == 0,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let Knobs { duration_ms: duration, threads, small_keyranges: small } =
        parse_knobs(|name| std::env::var(name).ok()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });

    match cmd {
        "figure2" => {
            println!("\n### Figure 2 — properties of the implemented reclamation schemes\n");
            println!("{}", figure2::render_markdown());
        }
        "e1" => print_rows(
            "Experiment 1 (Figure 8 left): overhead of reclamation — bump allocator, no pool",
            &experiment1(&threads, duration, small),
        ),
        "e2" => print_rows(
            "Experiment 2 (Figure 8 right): bump allocator + pool",
            &experiment2(&threads, duration, small),
        ),
        "e2-oversub" => print_rows(
            "Experiment 2, oversubscribed (Figure 9 left)",
            &experiment2_oversubscribed(duration, small),
        ),
        "memory" => {
            let rows = memory_footprint(duration, small);
            print_rows("Memory footprint (Figure 9 right)", &rows);
            println!("\nbytes allocated for records (lower is better):");
            for r in &rows {
                println!(
                    "  {:7} threads={:3}: {:>12} bytes, {:>6} neutralizations",
                    r.reclaimer.name(),
                    r.threads,
                    r.result.allocated_bytes,
                    r.result.reclaimer.neutralized
                );
            }
        }
        "e3" => print_rows(
            "Experiment 3 (Figure 10): system allocator + pool",
            &experiment3(&threads, duration, small),
        ),
        "zipf" => print_rows(
            "Key-distribution experiment: uniform vs. Zipfian (hash map + BST)",
            &experiment_distribution(&threads, duration, small),
        ),
        "sanitize" => {
            // Every scheme and structure under the smr-check pointer-race sanitizer;
            // non-zero violation counts fail the run (used by the nightly CI job).
            #[cfg(feature = "smr_sanitize")]
            {
                let violations =
                    smr_workloads::sanitize::run_sanitized_sweep(duration, threads[0].max(2));
                if violations > 0 {
                    std::process::exit(1);
                }
            }
            #[cfg(not(feature = "smr_sanitize"))]
            {
                eprintln!(
                    "the sanitize family needs the sanitizer compiled in; rerun with \
                     `--features smr_sanitize`"
                );
                std::process::exit(2);
            }
        }
        "summary" => {
            let rows = experiment2(&threads, duration, small);
            print_rows("Experiment 2 rows used for the summary", &rows);
            println!("\n### Headline comparison (paper abstract)\n");
            for line in summarize(&rows) {
                println!("  {line}");
            }
        }
        "quick" => {
            // A single quick configuration, useful for sanity checks.
            let cfg = WorkloadConfig {
                threads: threads[0],
                key_range: 1024,
                mix: OperationMix::UPDATE_HEAVY,
                distribution: KeyDistribution::Uniform,
                duration_ms: duration,
                prefill: true,
                allocator: experiments::allocator_from_env(AllocatorKind::BumpWithPool),
            };
            let debra = ReclaimerKind::named("debra");
            let row = experiments::run_config(StructureKind::Bst, debra, &cfg, 1);
            print_rows("Quick check", &[row]);
        }
        "all" => {
            println!("\n### Figure 2 — properties of the implemented reclamation schemes\n");
            println!("{}", figure2::render_markdown());
            print_rows("Experiment 1 (Figure 8 left)", &experiment1(&threads, duration, small));
            let e2 = experiment2(&threads, duration, small);
            print_rows("Experiment 2 (Figure 8 right)", &e2);
            print_rows(
                "Experiment 2, oversubscribed (Figure 9 left)",
                &experiment2_oversubscribed(duration, small),
            );
            let mem = memory_footprint(duration, small);
            print_rows("Memory footprint (Figure 9 right)", &mem);
            print_rows("Experiment 3 (Figure 10)", &experiment3(&threads, duration, small));
            print_rows(
                "Key-distribution experiment: uniform vs. Zipfian (hash map + BST)",
                &experiment_distribution(&threads, duration, small),
            );
            println!("\n### Headline comparison (paper abstract)\n");
            for line in summarize(&e2) {
                println!("  {line}");
            }
        }
        other => {
            eprintln!("unknown subcommand `{other}`; see the module docs for usage");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(vars: &[(&str, &str)]) -> Result<Knobs, String> {
        parse_knobs(|name| vars.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn unset_and_empty_knobs_take_their_defaults() {
        let defaults =
            || Knobs { duration_ms: 300, threads: vec![1, 2, 4, 8], small_keyranges: true };
        assert_eq!(knobs(&[]), Ok(defaults()));
        let empty = [("DURATION_MS", ""), ("THREADS", " "), ("FULL_KEYRANGE", "")];
        assert_eq!(knobs(&empty), Ok(defaults()));
    }

    #[test]
    fn well_formed_knobs_parse() {
        let set = knobs(&[("DURATION_MS", "30"), ("THREADS", "2, 4"), ("FULL_KEYRANGE", "1")]);
        assert_eq!(set, Ok(Knobs { duration_ms: 30, threads: vec![2, 4], small_keyranges: false }));
        assert_eq!(knobs(&[("FULL_KEYRANGE", "0")]).map(|k| k.small_keyranges), Ok(true));
    }

    #[test]
    fn malformed_knobs_are_errors() {
        for vars in [
            [("DURATION_MS", "30ms")],
            [("DURATION_MS", "-1")],
            [("THREADS", "2,x")],
            [("THREADS", "2,,4")],
            [("THREADS", "0")],
            [("FULL_KEYRANGE", "yes")],
        ] {
            let err = knobs(&vars).expect_err("a malformed knob must not fall back to a default");
            assert!(err.contains(vars[0].0), "{err:?} must name {}", vars[0].0);
        }
    }
}
