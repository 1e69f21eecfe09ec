//! The timed run (end-to-end metrics) and the traced run (per-layer
//! metrics), with the output checks both apply to every pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hydra_bench::{ConcurrentCache, SharedCache};

use crate::layers;
use crate::pass::{self, Pass};
use crate::stats::{median, Summary};
use crate::trace::{self, Tracer};
use crate::workload::{self, Sweep, Workload, DEFAULT_SEED};
use crate::{Metric, Value, WorkloadResult};

/// Timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Set-ups timed before each cold pass (the pass uses the last), so
/// `setup_s` — about a millisecond there — has enough samples. The warm
/// set-up decodes the whole cache and gets one per pass.
const COLD_SETUPS_PER_PASS: usize = 3;
/// Timed passes per warm set-up: a warm pass takes about 10 ms
/// against a set-up of about 0.1 s, so each set-up serves several.
const WARM_ROUNDS: usize = 8;
/// Timed cache lookups and appends after a traced run's passes.
const CACHE_PROBES: usize = 5;
/// Untraced + traced pass pairs per traced run.
const MIN_TRACED_ROUNDS: usize = 2;

/// Output digests of a cold pass at the default workload seed, per
/// workload: `name outputs-digest fresh-events`.
const REFERENCE: &str = include_str!("../reference.txt");

/// What one workload run needs.
pub struct Ctx<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its `.scn` files.
    pub files: &'a [PathBuf],
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: u64,
    /// Runner threads (nproc).
    pub threads: usize,
    /// Scratch directory for caches.
    pub scratch: &'a Path,
}

impl Ctx<'_> {
    /// Cache directory of pass `i`: fresh for cold workloads, the
    /// set-up-filled one for the warm workload.
    fn cache_dir(&self, i: usize) -> PathBuf {
        if self.workload.warm() {
            self.scratch.join(format!("{}-filled", self.workload.name()))
        } else {
            self.scratch.join(format!("{}-pass{i}", self.workload.name()))
        }
    }

    /// Removes a cold pass's cache directory; the warm one stays.
    fn discard(&self, dir: &Path) -> Result<(), String> {
        if self.workload.warm() {
            return Ok(());
        }
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))
    }
}

/// Checks every pass's output: cold passes against the reference (at
/// the default seed) or against the first cold pass (other seeds);
/// warm passes against the digest of their set-up cold pass, with
/// nothing simulated.
struct Checks {
    reference: Option<(u64, u64)>,
    /// `(outputs digest, fresh events)` of the first cold pass.
    cold: Option<(u64, u64)>,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Checks {
    fn new(ctx: &Ctx<'_>) -> Checks {
        let mut checks = Checks { reference: None, cold: None, problems: Vec::new(), notes: Vec::new() };
        if ctx.seed == DEFAULT_SEED {
            checks.reference = reference(ctx.workload.name());
            if checks.reference.is_none() {
                checks.problem(format!("reference.txt has no entry for {}", ctx.workload.name()));
            }
        }
        checks
    }

    /// Records a problem once, however many passes hit it.
    fn problem(&mut self, msg: String) {
        if !self.problems.contains(&msg) {
            self.problems.push(msg);
        }
    }

    fn pass(&mut self, ctx: &Ctx<'_>, pass: &Pass, cold: bool) {
        let got = (pass.digest(), pass.fresh_events());
        if cold {
            if let Some(want) = self.reference.or(self.cold).filter(|&want| want != got) {
                self.problem(format!(
                    "cold pass: outputs {:016x} with {} events, expected {:016x} with {}",
                    got.0, got.1, want.0, want.1
                ));
            }
            self.cold.get_or_insert(got);
        } else {
            if pass.fresh_jobs() > 0 {
                self.problem(format!("warm pass simulated {} runs", pass.fresh_jobs()));
            }
            if let Some((want, _)) = self.cold.filter(|&(want, _)| want != got.0) {
                self.problem(format!(
                    "warm pass: outputs {:016x}, its cold set-up pass gave {want:016x}",
                    got.0
                ));
            }
        }
        if self.notes.is_empty() {
            let against = if ctx.seed == DEFAULT_SEED { "reference.txt" } else { "the first cold pass" };
            self.notes.push(format!(
                "outputs {:016x}, {} fresh events per cold pass (checked against {against})",
                got.0, got.1
            ));
        }
    }
}

fn reference(name: &str) -> Option<(u64, u64)> {
    REFERENCE.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut it = l.split_whitespace();
        if it.next()? != name {
            return None;
        }
        Some((u64::from_str_radix(it.next()?, 16).ok()?, it.next()?.parse().ok()?))
    })
}

/// Set-up: parse the workload's files and open its cache.
fn setup(ctx: &Ctx<'_>, dir: &Path, tr: &mut Tracer) -> Result<(Vec<Sweep>, SharedCache, f64), String> {
    let t = Instant::now();
    let sweeps = tr.span("netsim.scn.parse", |_| workload::load(ctx.files, ctx.seed))?;
    let cache = tr
        .span("bench.cache.open", |_| ConcurrentCache::open(dir))
        .map_err(|e| format!("open cache {}: {e}", dir.display()))?;
    Ok((sweeps, Arc::new(cache), t.elapsed().as_secs_f64()))
}

/// The warm workload's untimed cold pass, which fills its cache.
fn fill(ctx: &Ctx<'_>, checks: &mut Checks) -> Result<(), String> {
    let (sweeps, cache, _) = setup(ctx, &ctx.cache_dir(0), &mut Tracer::disabled())?;
    let pass = pass::run(&sweeps, &cache, ctx.threads, &mut Tracer::disabled());
    if pass.failed() > 0 {
        checks.problem(format!("set-up pass: {} replications failed", pass.failed()));
    }
    checks.pass(ctx, &pass, true);
    Ok(())
}

/// Timed passes until `--seconds` elapse: `wall_s`, `cpu_s` and
/// `setup_s`, each a mean over passes (over set-ups for `setup_s`), and
/// `peak_rss_mb`, a median over passes (over set-ups for the warm
/// workload, whose set-up serves several passes).
///
/// Timings are means, not medians: host speed switches between a fast
/// and a slow state for seconds at a time, so the median of short
/// samples jumps with the share of fast time in a run, while the mean
/// moves in proportion to it.
pub fn timed(ctx: &Ctx<'_>) -> Result<WorkloadResult, String> {
    let mut checks = Checks::new(ctx);
    if ctx.workload.warm() {
        fill(ctx, &mut checks)?;
    }
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    let (mut wall, mut cpu, mut setup_s, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    while wall.len() < MIN_PASSES || Instant::now() < deadline {
        crate::sys::reset_peak_rss()?;
        let dir = ctx.cache_dir(wall.len());
        let (mut sweeps, mut cache, s) = setup(ctx, &dir, &mut Tracer::disabled())?;
        setup_s.push(s);
        let setups = if ctx.workload.warm() { 1 } else { COLD_SETUPS_PER_PASS };
        for _ in 1..setups {
            drop(cache);
            ctx.discard(&dir)?;
            let s;
            (sweeps, cache, s) = setup(ctx, &dir, &mut Tracer::disabled())?;
            setup_s.push(s);
        }
        let rounds = if ctx.workload.warm() { WARM_ROUNDS } else { 1 };
        for _ in 0..rounds {
            let pass = pass::run(&sweeps, &cache, ctx.threads, &mut Tracer::disabled());
            wall.push(pass.wall_s);
            cpu.push(pass.cpu_s);
            attempted += pass.jobs();
            failed += pass.failed();
            checks.pass(ctx, &pass, !ctx.workload.warm());
        }
        rss.push(crate::sys::peak_rss_mb()?);
        drop(cache);
        ctx.discard(&dir)?;
    }
    let metric = |name, unit, values: &[f64], center: fn(&Summary) -> f64| {
        let s = Summary::of(values);
        Metric {
            name,
            unit,
            value: Value::Real(center(&s)),
            detail: s.describe(unit),
            samples: values.to_vec(),
        }
    };
    Ok(WorkloadResult {
        workload: ctx.workload,
        metrics: vec![
            metric("wall_s", "s", &wall, |s| s.mean),
            metric("cpu_s", "s", &cpu, |s| s.mean),
            metric("setup_s", "s", &setup_s, |s| s.mean),
            metric("peak_rss_mb", "MiB", &rss, |s| s.median),
        ],
        attempted,
        failed,
        problems: checks.problems,
        notes: checks.notes,
        spans: None,
    })
}

/// Traced run: alternating untraced and traced passes until
/// `--seconds` elapse, then two sequential replays of the last traced
/// pass's jobs and the wire unit costs.
pub fn traced(ctx: &Ctx<'_>) -> Result<WorkloadResult, String> {
    let mut checks = Checks::new(ctx);
    if ctx.workload.warm() {
        fill(ctx, &mut checks)?;
    }
    let mut tr = Tracer::new();
    let keys: Vec<(u64, u64)> = workload::load(ctx.files, ctx.seed)?
        .iter()
        .flat_map(|s| {
            let hashes: Vec<u64> = s.specs.iter().map(|x| x.stable_hash()).collect();
            s.jobs().map(move |(cell, rep)| (hashes[cell], rep)).collect::<Vec<_>>()
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    let (mut untraced_wall, mut traced_wall, mut idle) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut pass_counts: Option<[u64; 4]> = None;
    let mut last: Option<(Vec<Sweep>, SharedCache, PathBuf, Pass)> = None;
    let mut round = 0u32;
    while (round as usize) < MIN_TRACED_ROUNDS || Instant::now() < deadline {
        let dir = ctx.cache_dir(2 * round as usize);
        let (sweeps, cache, _) = setup(ctx, &dir, &mut Tracer::disabled())?;
        let pass = pass::run(&sweeps, &cache, ctx.threads, &mut Tracer::disabled());
        untraced_wall.push(pass.wall_s);
        attempted += pass.jobs();
        failed += pass.failed();
        checks.pass(ctx, &pass, !ctx.workload.warm());
        drop(cache);
        ctx.discard(&dir)?;

        round += 1;
        tr.set_pass(round);
        let dir = ctx.cache_dir(2 * round as usize + 1);
        let (sweeps, cache, pass) = tr.span("pass", |tr| {
            let (sweeps, cache, _) = setup(ctx, &dir, tr)?;
            let pass = pass::run(&sweeps, &cache, ctx.threads, tr);
            Ok::<_, String>((sweeps, cache, pass))
        })?;
        traced_wall.push(pass.wall_s);
        idle.push(pass.idle_frac(ctx.threads));
        attempted += pass.jobs();
        failed += pass.failed();
        checks.pass(ctx, &pass, !ctx.workload.warm());
        let stats = cache.stats();
        let bytes = std::fs::metadata(dir.join("runs.jsonl")).map_or(0, |m| m.len());
        let counts = [pass.jobs(), stats.hits, stats.misses, bytes];
        if pass_counts.is_some_and(|c| c != counts) {
            checks.problem(format!(
                "traced passes disagree on [jobs, hits, misses, bytes]: {pass_counts:?} vs {counts:?}"
            ));
        }
        pass_counts = Some(counts);

        // Keep the last traced pass (and its cache) for the probes and
        // the replay below.
        if let Some((_, prev_cache, prev_dir, _)) = last.replace((sweeps, cache, dir, pass)) {
            drop(prev_cache);
            ctx.discard(&prev_dir)?;
        }
    }
    let (sweeps, cache, dir, pass) = last.expect("at least one traced round ran");

    // Cache read and write costs on the last traced pass, measured after
    // the pass loop so their allocation churn precedes no timed pass.
    let index = cache.index();
    for _ in 0..CACHE_PROBES {
        let found = tr.span("bench.cache.lookup", |_| {
            keys.iter().filter(|&&(h, r)| black_box(index.get(h, r)).is_some()).count()
        });
        if found != keys.len() {
            checks.problem(format!("cache lookup found {found} of {} keys after a pass", keys.len()));
        }
    }
    let records: Vec<_> = sweeps
        .iter()
        .zip(&pass.cells)
        .flat_map(|(sweep, cells)| sweep.specs.iter().zip(cells))
        .flat_map(|(spec, cell)| {
            let hash = spec.stable_hash();
            (1..).zip(&cell.runs).filter_map(move |(rep, r)| r.as_ref().ok().map(|o| (hash, rep, spec, o)))
        })
        .collect();
    let sink_dir = ctx.scratch.join("append");
    for _ in 0..CACHE_PROBES {
        let sink =
            ConcurrentCache::open(&sink_dir).map_err(|e| format!("open {}: {e}", sink_dir.display()))?;
        tr.span("bench.cache.append", |_| sink.append_batch(&records))
            .map_err(|e| format!("append to {}: {e}", sink_dir.display()))?;
        drop(sink);
        std::fs::remove_dir_all(&sink_dir).map_err(|e| format!("remove {}: {e}", sink_dir.display()))?;
    }
    drop((records, index, cache));
    ctx.discard(&dir)?;
    tr.set_pass(round + 1);
    let replay = layers::replay(&sweeps, &pass, &mut tr);
    let again = layers::replay(&sweeps, &pass, &mut Tracer::disabled());
    checks.problems.extend(replay.mismatches.iter().cloned());
    if again.counts != replay.counts {
        checks.problem("two replays of the same jobs gave different counts".to_string());
    }
    let wire = layers::wire_costs(&replay.counts);

    let [jobs, hits, misses, bytes] = pass_counts.expect("at least one traced round ran");
    let c = &replay.counts;
    let run_ms = (replay.try_run_ms - replay.build_ms).max(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let spans = tr.spans();
    let med = |name: &str| median(&tr.durations_ms(name));
    let mut render_by_pass: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "bench.report.render") {
        *render_by_pass.entry(s.pass).or_default() += s.dur_ns() as f64 / 1e6;
    }
    let render: Vec<f64> = render_by_pass.into_values().collect();
    let values: Vec<(&'static str, &'static str, Value)> = vec![
        ("bench.runner.idle_frac", "ratio", Value::Real(median(&idle))),
        ("bench.runner.jobs", "count", Value::Count(jobs)),
        ("bench.cache.open_s", "s", Value::Real(med("bench.cache.open") / 1e3)),
        ("bench.cache.bytes", "B", Value::Count(bytes)),
        ("bench.cache.hits", "count", Value::Count(hits)),
        ("bench.cache.misses", "count", Value::Count(misses)),
        ("bench.cache.lookup_us", "us", Value::Real(med("bench.cache.lookup") * 1e3)),
        ("bench.cache.append_ms", "ms", Value::Real(med("bench.cache.append"))),
        ("bench.report.render_ms", "ms", Value::Real(median(&render))),
        ("netsim.scn.parse_ms", "ms", Value::Real(med("netsim.scn.parse"))),
        ("netsim.build_ms", "ms", Value::Real(replay.build_ms)),
        ("netsim.run_ms", "ms", Value::Real(run_ms)),
        ("netsim.events", "count", Value::Count(c.events)),
        ("netsim.events_per_cpu_s", "1/s", Value::Real(ratio(c.events as f64, replay.cpu_s))),
        ("sim.stale_frac", "ratio", Value::Real(ratio(c.stale as f64, c.events as f64))),
        ("sim.timer_rearms", "count", Value::Count(c.rearms)),
        ("sim.queue_scheduled", "count", Value::Count(c.scheduled)),
        (
            "sim.queue_overflow_frac",
            "ratio",
            Value::Real(ratio(c.overflow_scheduled as f64, c.scheduled as f64)),
        ),
        (
            "sim.allocs_per_kevent",
            "allocs/kevent",
            Value::Real(ratio(replay.allocations as f64, c.events as f64 / 1e3)),
        ),
        ("phy.receptions", "count", Value::Count(c.receptions())),
        ("phy.rx_per_tx", "ratio", Value::Real(ratio(c.receptions() as f64, c.data_txs as f64))),
        ("phy.collisions", "count", Value::Count(c.collisions)),
        ("phy.crc_fail_frac", "ratio", Value::Real(ratio(c.rx_crc_fail as f64, c.rx_verdicts as f64))),
        ("core.data_txs", "count", Value::Count(c.data_txs)),
        ("core.control_txs", "count", Value::Count(c.control_txs)),
        ("core.retries_per_tx", "ratio", Value::Real(ratio(c.retries as f64, c.data_txs as f64))),
        ("core.subframes_per_tx", "ratio", Value::Real(ratio(c.subframes as f64, c.data_txs as f64))),
        ("core.acks_bcast", "count", Value::Count(c.acks_bcast)),
        ("core.queue_overflow", "count", Value::Count(c.queue_overflow)),
        ("wire.subframes", "count", Value::Count(c.subframes)),
        ("wire.psdu_bytes", "B", Value::Count(c.psdu_bytes)),
        ("wire.crc_ns_per_kb", "ns/KiB", Value::Real(wire.crc_ns_per_kb)),
        ("wire.agg_build_ns", "ns", Value::Real(wire.agg_build_ns)),
        ("wire.agg_parse_ns", "ns", Value::Real(wire.agg_parse_ns)),
        (
            "wire.est_share",
            "ratio",
            Value::Real(ratio(c.data_txs as f64 * (wire.agg_build_ns + wire.agg_parse_ns) / 1e6, run_ms)),
        ),
        ("net.forwarded", "count", Value::Count(c.forwarded)),
        ("app.delivered_bytes", "B", Value::Count(c.delivered_bytes)),
        (
            "trace_overhead_frac",
            "ratio",
            Value::Real(ratio(median(&traced_wall), median(&untraced_wall)) - 1.0),
        ),
    ];
    let mut notes = checks.notes;
    notes.push(format!(
        "passes: {} untraced, {} traced; replay of {} distinct runs on one thread, twice",
        untraced_wall.len(),
        traced_wall.len(),
        c.runs
    ));
    notes.push(format!("counts {}", counts_line(&values)));
    notes.push("self time by span (count, total ms, self ms):".to_string());
    for (name, (n, total, own)) in trace::self_time_table(spans) {
        notes.push(format!("  {name:<24} {n:>6} {total:>12.3} {own:>12.3}"));
    }
    let metrics = values
        .into_iter()
        .map(|(name, unit, value)| {
            let detail = match value {
                Value::Count(n) => format!("{n} {unit}"),
                Value::Real(x) => format!("{x:.6} {unit}"),
            };
            Metric { name, unit, value, detail, samples: Vec::new() }
        })
        .collect();
    Ok(WorkloadResult {
        workload: ctx.workload,
        metrics,
        attempted,
        failed,
        problems: checks.problems,
        notes,
        spans: Some(tr.to_jsonl()),
    })
}

/// Every count-type metric as `name=value`, in metric order: diff this
/// line between two traced runs to confirm the counts repeat exactly.
fn counts_line(values: &[(&'static str, &'static str, Value)]) -> String {
    values
        .iter()
        .filter_map(|(name, _, v)| match v {
            Value::Count(n) => Some(format!("{name}={n}")),
            Value::Real(_) => None,
        })
        .collect::<Vec<_>>()
        .join(" ")
}
