//! The command line: the run itself, `compare`, `describe`, and the `cell` subcommand the
//! parent starts its children with.

use std::collections::HashMap;
use std::path::PathBuf;

use crate::spec::{self, Scheme, WORKLOADS};
use crate::{cell, compare, probe, run};

/// The seed used when none is given; the README's tables use it.
const DEFAULT_SEED: u64 = 20150721;

const USAGE: &str = "usage:
  smr-benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  smr-benchmark compare A.json B.json
  smr-benchmark describe";

fn usage() -> String {
    let workloads: Vec<String> =
        WORKLOADS.iter().map(|w| format!("  {}: {}", w.name, w.why)).collect();
    format!("{USAGE}\nworkloads:\n{}", workloads.join("\n"))
}

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = if switches.contains(&name) {
                "1".to_string()
            } else {
                it.next().ok_or_else(|| format!("--{name} needs a value"))?.clone()
            };
            values.insert(name.to_string(), value);
        }
        Ok(Flags { values })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn number<N: std::str::FromStr>(&self, name: &str, default: N) -> Result<N, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: {v:?} is not a number")),
        }
    }

    fn switch(&self, name: &str) -> Result<bool, String> {
        match self.get(name) {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("--{name}: expected 0 or 1, got {v:?}")),
        }
    }
}

fn workload_named(name: &str) -> Result<&'static spec::Workload, String> {
    spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (expected one of {names:?} or all)")
    })
}

/// `BENCH_HOOK` switches on a fault, for the tests and for the README's livelock
/// transcript: `hang:<workload>:<scheme>` makes that cell stop responding after its first
/// trial; `livelock` runs `queue_ring` the way the livelock was found (see `CellArgs`).
fn hook(workload: &str, scheme: Scheme) -> (bool, bool) {
    let hook = std::env::var("BENCH_HOOK").unwrap_or_default();
    (hook == format!("hang:{workload}:{}", scheme.name()), hook == "livelock")
}

fn cell_main(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["quick", "setup-only"])?;
    if let Some(what) = flags.get("probe") {
        probe::run(what, flags.switch("quick")?)?;
        return Ok(0);
    }
    let workload = workload_named(flags.get("workload").ok_or("cell: --workload is required")?)?;
    let scheme = flags.get("scheme").and_then(Scheme::parse).ok_or("cell: --scheme is required")?;
    let (hook_hang, hook_livelock) = hook(workload.name, scheme);
    cell::run(&cell::CellArgs {
        workload,
        scheme,
        seed: flags.number("seed", DEFAULT_SEED)?,
        trials: flags.number("trials", 1)?,
        trial_ms: flags.number("trial-ms", 500)?,
        warmup_ms: flags.number("warmup-ms", 200)?,
        setup_only: flags.switch("setup-only")?,
        trace_file: flags.get("trace-file").map(PathBuf::from),
        hook_hang,
        hook_livelock,
    });
    Ok(0)
}

fn run_main(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    let workloads = match flags.get("workload") {
        None | Some("all") => run::all_workloads(),
        Some(name) => vec![workload_named(name)?],
    };
    let seconds: u64 = flags.number("seconds", spec::RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds: {seconds} is outside 1..=60"));
    }
    Ok(run::run(&run::Plan {
        workloads,
        seed: flags.number("seed", DEFAULT_SEED)?,
        seconds,
        traced: flags.switch("trace")?,
        smoke: flags.switch("smoke")?,
        out: flags.get("out").map(PathBuf::from),
    }))
}

pub fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("cell") => cell_main(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => Ok(compare::run(a, b)),
            _ => Err("compare takes two result files".to_string()),
        },
        Some("describe") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(0)
        }
        Some("-h" | "--help" | "help") => {
            println!("{}", usage());
            Ok(0)
        }
        _ => run_main(&args),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("smr-benchmark: {message}\n{}", usage());
            std::process::exit(2);
        }
    }
}
