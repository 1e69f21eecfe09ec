//! The repository benchmark.
//!
//! Runs the shipped `.scn` sweeps through the library's public API —
//! `parse_scn_file`, `ConcurrentCache::open`,
//! `ExperimentRunner::new(nproc).with_cache(..).run_sweep(..)`,
//! `Table::render`, and for per-layer numbers `ScenarioSpec::build` /
//! `try_run` and the `hydra_wire` codec — and prints end-to-end metrics
//! from untraced passes or per-layer metrics from a traced run. See
//! README.md for the workloads and metric definitions.

#![deny(unsafe_code)]

pub mod digest;
pub mod layers;
pub mod pass;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;

mod modes;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use workload::Workload;

/// Where the shipped sweeps live, relative to the checkout root.
pub const SWEEPS_DIR: &str = "examples/sweeps";
/// Scratch space (caches, spans, records), relative to the checkout
/// root.
pub const WORK_DIR: &str = ".bench_work";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// One workload, or `None` for all three in one process.
    pub workload: Option<Workload>,
    /// Workload seed; [`workload::DEFAULT_SEED`] runs the shipped specs.
    pub seed: u64,
    /// Measurement time per workload.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of timed passes.
    pub trace: bool,
}

const USAGE: &str =
    "usage: run.py --workload grid_cold|mesh_cold|warm_all|all [--seed N] [--seconds N] [--trace 0|1]";

/// Parses `--workload W --seed N --seconds N --trace 0|1`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: workload::DEFAULT_SEED, seconds: 30, trace: false };
    let mut workload_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a whole number"));
        match flag.as_str() {
            "--workload" => {
                workload_given = true;
                args.workload = match value.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
                    ),
                };
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !workload_given {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(args)
}

/// A metric value: counts stay integers so they compare byte for byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An exact count.
    Count(u64),
    /// A measured or derived quantity.
    Real(f64),
}

impl Value {
    fn json(self) -> String {
        match self {
            Value::Count(n) => n.to_string(),
            Value::Real(x) if x.is_finite() => format!("{x:?}"),
            Value::Real(_) => "0.0".to_string(),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in BENCHMARK.json.
    pub name: &'static str,
    /// Unit as in BENCHMARK.json.
    pub unit: &'static str,
    /// The reported value (a mean for timings).
    pub value: Value,
    /// Human-readable line: mean, median, tail percentile, sample count.
    pub detail: String,
    /// Per-pass samples behind a timing (empty for single values).
    pub samples: Vec<f64>,
}

/// Everything one workload produced.
#[derive(Debug)]
pub struct WorkloadResult {
    /// Which workload.
    pub workload: Workload,
    /// Metrics in BENCHMARK.json order.
    pub metrics: Vec<Metric>,
    /// Replications attempted over the measured passes.
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// Output-check failures; empty when the outputs are correct.
    pub problems: Vec<String>,
    /// Extra report lines (digests, self-time table).
    pub notes: Vec<String>,
    /// Recorded spans as JSON lines (traced runs).
    pub spans: Option<String>,
}

/// Runs the benchmark; returns the process exit code: 0 when every
/// output check passed, 1 on a mismatch or failed replication, 2 when
/// the benchmark could not run at all (no result is printed then).
/// `traced_binary` says whether the counting allocator is installed.
pub fn main(traced_binary: bool) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if args.trace != traced_binary {
        eprintln!(
            "error: --trace {} runs in the perfbench-{} binary; start it through run.py",
            u8::from(args.trace),
            if args.trace { "traced" } else { "timed" }
        );
        return 2;
    }
    match run(&args, Path::new(".")) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn run(args: &Args, root: &Path) -> Result<bool, String> {
    let sweeps_dir = root.join(SWEEPS_DIR);
    if !sweeps_dir.is_dir() {
        return Err(format!(
            "{} not found: run from the root of a repository checkout",
            sweeps_dir.display()
        ));
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fingerprint = sys::Fingerprint::collect(root, threads);
    println!("fingerprint {}", fingerprint.to_json());
    let work = root.join(WORK_DIR);
    let scratch = work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut results = Vec::new();
    let outcome = workloads.into_iter().try_for_each(|w| {
        let files = w.files(&sweeps_dir)?;
        let ctx = modes::Ctx {
            workload: w,
            files: &files,
            seed: args.seed,
            seconds: args.seconds,
            threads,
            scratch: &scratch,
        };
        let result = if args.trace { modes::traced(&ctx) } else { modes::timed(&ctx) }?;
        print_result(&result, args);
        write_record(&work, &fingerprint, args, &result)?;
        results.push(result);
        Ok::<_, String>(())
    });
    let cleanup = std::fs::remove_dir_all(&scratch).map_err(|e| format!("remove {}: {e}", scratch.display()));
    outcome.and(cleanup)?;
    let correct = results.iter().all(|r| r.problems.is_empty() && r.failed == 0);
    println!("{}", final_line(&results, args.workload.is_none(), correct));
    Ok(correct)
}

fn print_result(r: &WorkloadResult, args: &Args) {
    println!(
        "== {} ({}, workload seed {}, {} s)",
        r.workload.name(),
        if args.trace { "traced" } else { "timed" },
        args.seed,
        args.seconds
    );
    for m in &r.metrics {
        println!("  {:<26} {}", m.name, m.detail);
    }
    println!(
        "  {:<26} {} ({} failed of {} replications attempted)",
        "failed_frac",
        if r.attempted > 0 { r.failed as f64 / r.attempted as f64 } else { 0.0 },
        r.failed,
        r.attempted
    );
    for n in &r.notes {
        println!("  {n}");
    }
    const SHOWN: usize = 20;
    for p in r.problems.iter().take(SHOWN) {
        println!("  OUTPUT CHECK FAILED: {p}");
    }
    if r.problems.len() > SHOWN {
        println!("  ... and {} more output check failures", r.problems.len() - SHOWN);
    }
}

/// The machine-readable result record, with the fingerprint, under
/// the work directory.
fn write_record(work: &Path, fp: &sys::Fingerprint, args: &Args, r: &WorkloadResult) -> Result<(), String> {
    let mode = if args.trace { "traced" } else { "timed" };
    let mut metrics = String::new();
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let samples: Vec<String> = m.samples.iter().map(|&x| Value::Real(x).json()).collect();
        let _ = write!(
            metrics,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"detail\":{},\"samples\":[{}]}}",
            m.name,
            m.value.json(),
            m.unit,
            sys::json_str(&m.detail),
            samples.join(",")
        );
    }
    let record = format!(
        "{{\"workload\":\"{}\",\"mode\":\"{mode}\",\"seed\":{},\"seconds\":{},\"fingerprint\":{},\"attempted\":{},\"failed\":{},\"correct\":{},\"metrics\":{{{metrics}}}}}\n",
        r.workload.name(),
        args.seed,
        args.seconds,
        fp.to_json(),
        r.attempted,
        r.failed,
        r.problems.is_empty() && r.failed == 0
    );
    let path: PathBuf = work.join(format!("record-{}-{mode}.json", r.workload.name()));
    std::fs::write(&path, record).map_err(|e| format!("write {}: {e}", path.display()))?;
    if let Some(spans) = &r.spans {
        let path = work.join(format!("spans-{}.jsonl", r.workload.name()));
        std::fs::write(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
/// With several workloads in one process, names carry a
/// `<workload>.` prefix.
fn final_line(results: &[WorkloadResult], prefixed: bool, correct: bool) -> String {
    let mut metrics = String::new();
    for r in results {
        for m in &r.metrics {
            let sep = if metrics.is_empty() { "" } else { ", " };
            let name =
                if prefixed { format!("{}.{}", r.workload.name(), m.name) } else { m.name.to_string() };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value.json(),
                m.unit
            );
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        results.iter().map(|r| r.attempted).sum::<u64>().max(1),
        results.iter().map(|r| r.failed).sum::<u64>()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload mesh_cold --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: Some(Workload::MeshCold), seed: 7, seconds: 12, trace: true });
        let a = parse_args(&argv("--workload all")).unwrap();
        assert_eq!(a.workload, None);
        assert_eq!(a.seed, workload::DEFAULT_SEED);
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seed")).is_err());
    }

    #[test]
    fn counts_print_as_integers_and_non_finite_reals_never_leak() {
        assert_eq!(Value::Count(42).json(), "42");
        assert_eq!(Value::Real(0.5).json(), "0.5");
        assert_eq!(Value::Real(f64::NAN).json(), "0.0");
    }
}
