//! The parallel experiment engine.
//!
//! Every table and figure in this harness is a *sweep*: a list of
//! [`ScenarioSpec`]s, each replicated over some number of seeds, with
//! the per-run results folded into a table. [`ExperimentRunner`] expands
//! a sweep into a flat job list, runs it on a few OS threads, and hands
//! the outcomes back in sweep order.
//!
//! ## Dispatch
//!
//! Jobs run longest-predicted-first (LPT): the fresh jobs are sorted by
//! descending predicted cost (ties by job index) and worker threads
//! claim them through one shared atomic cursor over that order, so a
//! sweep's long pole — e.g. one 1000-node mesh among dozens of 20-node
//! paper cells — starts immediately instead of landing last on a busy
//! worker. Each result lands in its job's slot, so the output is in job
//! order whatever the placement. Costs come from
//! [`ExperimentRunner::predicted_cost`], a spec-feature model
//! (nodes × flows × span × rate), *calibrated* by recorded event counts
//! when the attached cache has seen the spec before. Cost predictions
//! only ever reorder work; results are byte-identical in any order. A
//! one-thread runner skips the sort and runs jobs in job order on the
//! caller's thread.
//!
//! ## Faults
//!
//! A runner may carry a fault plan ([`ExperimentRunner::with_faults`]):
//! chosen `(cell, replication)` jobs panic at a given event. The plan
//! travels with the job into its own world
//! ([`ScenarioSpec::try_run_faulted`]), so no other run — in this
//! runner or any other, on any thread — can see it.
//!
//! Determinism: each run's world seed is derived from the spec's
//! [`ScenarioSpec::stable_hash`] (which covers every field, including
//! the spec's own `seed`) and the replication index via
//! [`hydra_sim::stream_seed`]. A run therefore draws exactly the same
//! random sequence no matter which thread picks it up or in which
//! order the work list drains — parallel output is byte-identical to
//! sequential output — while specs differing only in `seed` replicate
//! as independent cells. Note the derived world seed intentionally
//! differs from calling [`ScenarioSpec::run`] directly, which uses the
//! `seed` field verbatim for compatibility with the paper-era
//! `TcpScenario`/`UdpScenario` front-ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use hydra_netsim::{FlowTraffic, RunError, RunOutcome, ScenarioSpec, TopologyKind};
use hydra_sim::stream_seed;

use crate::sweeps::SharedCache;

/// All replications of one sweep cell — failure-aware: a replication
/// that panicked or tripped its [`hydra_netsim::RunBudget`] is an `Err`
/// entry, and every accessor below stays
/// total over such cells (no NaN means, no index panics).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's spec (seed field as submitted; per-run seeds derived).
    pub spec: ScenarioSpec,
    /// One result per replication, in replication order (1..=seeds).
    pub runs: Vec<Result<RunOutcome, RunError>>,
}

impl CellResult {
    /// The successful replications, in replication order.
    pub fn ok_runs(&self) -> impl Iterator<Item = &RunOutcome> {
        self.runs.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Mean headline throughput across *successful* replications,
    /// bit/s; 0.0 when every replication failed (never NaN).
    pub fn mean_throughput_bps(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u32);
        for r in self.ok_runs() {
            sum += r.throughput_bps;
            n += 1;
        }
        if n > 0 {
            sum / f64::from(n)
        } else {
            0.0
        }
    }

    /// The first successful replication (for single-run detail tables);
    /// `None` when the whole cell failed.
    pub fn first(&self) -> Option<&RunOutcome> {
        self.ok_runs().next()
    }

    /// True when at least one replication failed.
    pub fn failed(&self) -> bool {
        self.runs.iter().any(|r| r.is_err())
    }

    /// The first failure, if any.
    pub fn failure(&self) -> Option<&RunError> {
        self.runs.iter().find_map(|r| r.as_ref().err())
    }

    /// The `FAILED(reason)` table cell for a cell with no usable run.
    pub fn failed_label(&self) -> String {
        match self.failure() {
            Some(e) => format!("FAILED({})", e.reason()),
            None => "FAILED(?)".to_string(),
        }
    }

    /// Renders this cell via `f` over the first successful run, or the
    /// explicit `FAILED(reason)` label when none survived — the
    /// one-liner detail tables use instead of indexing into `runs`.
    pub fn cell_with(&self, f: impl FnOnce(&RunOutcome) -> String) -> String {
        match self.first() {
            Some(run) => f(run),
            None => self.failed_label(),
        }
    }

    /// The standard mean-throughput cell: Mbps to three decimals over
    /// the successful runs, or `FAILED(reason)` when none survived.
    pub fn mean_cell(&self) -> String {
        if self.first().is_some() {
            crate::report::mbps(self.mean_throughput_bps())
        } else {
            self.failed_label()
        }
    }
}

/// Executes sweeps of [`ScenarioSpec`]s across OS threads, optionally
/// consulting a persistent [`crate::sweeps::ResultCache`] before
/// dispatching any run and appending every fresh outcome to it.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    /// Worker threads; 0 = one per available CPU.
    pub threads: usize,
    /// Persistent result store; `None` = always simulate.
    cache: Option<SharedCache>,
    /// Injected panics: `(cell, replication)` → the event index at
    /// which that run panics. Empty outside fault-isolation proofs.
    faults: HashMap<(usize, u64), u64>,
    /// Failed replications seen by this runner (shared across clones,
    /// so a whole session of sweeps can gate its exit code on it).
    failures: Arc<AtomicU64>,
}

impl ExperimentRunner {
    /// A runner with an explicit thread count (0 = auto).
    pub fn new(threads: usize) -> Self {
        ExperimentRunner {
            threads,
            cache: None,
            faults: HashMap::new(),
            failures: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A sequential runner (also the reference for determinism tests).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Attaches a persistent result cache: cells whose
    /// `(stable_hash, replication)` key is already stored skip
    /// simulation entirely, and fresh runs are appended for next time.
    pub fn with_cache(mut self, cache: SharedCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a fault plan: each `((cell, rep), k)` entry makes
    /// replication `rep` (1-based) of cell `cell` (the spec's index in
    /// the sweep) panic right after dispatching event `k`, in every
    /// sweep this runner executes. The fault is scoped to that one run
    /// (see [`ScenarioSpec::try_run_faulted`]); a job answered from the
    /// cache is not simulated, so its fault cannot fire.
    pub fn with_faults(mut self, faults: impl IntoIterator<Item = ((usize, u64), u64)>) -> Self {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Shares an external failure counter (so several runners — e.g.
    /// one per experiment in `--bin all` — feed one exit-code gate).
    pub fn with_failure_counter(mut self, failures: Arc<AtomicU64>) -> Self {
        self.failures = failures;
        self
    }

    /// Failed replications recorded so far (by this runner and every
    /// runner sharing its counter).
    pub fn failure_count(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    fn thread_count(&self, jobs: usize) -> usize {
        let want = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        };
        want.min(jobs).max(1)
    }

    /// The world seed used for replication `rep` (1-based) of `spec`.
    pub fn run_seed(spec: &ScenarioSpec, rep: u64) -> u64 {
        stream_seed(spec.stable_hash(), rep)
    }

    /// Predicted work for one run of `spec`, in (approximate) events —
    /// the dispatch order's cost model. A deliberately crude feature
    /// model: per-flow packet counts over the active span, an
    /// events-per-frame constant, and a per-node build charge. It only
    /// has to *rank* jobs (a 1000-node mesh must predict far above a
    /// 6-node chain); recorded event counts from the cache override it
    /// for specs seen before. Pure function of the spec: no machine
    /// state, no RNG.
    pub fn predicted_cost(spec: &ScenarioSpec) -> f64 {
        let n = spec.topology.node_count() as f64;
        let span = (spec.warmup + spec.duration).as_secs_f64();
        let rate_bps = spec.rate.bits_per_sec() as f64;
        let mut frames = 0.0;
        for flow in spec.effective_flows() {
            frames += match flow.traffic {
                FlowTraffic::Cbr { interval, .. } => span / interval.as_secs_f64().max(1e-9),
                FlowTraffic::OnOff { burst, idle, interval, .. } => {
                    let period =
                        interval.as_secs_f64() * (burst.saturating_sub(1)) as f64 + idle.as_secs_f64();
                    span / period.max(1e-9) * f64::from(burst)
                }
                FlowTraffic::FileTransfer { bytes } => {
                    // Frames to move the file, capped by what the air
                    // can carry in the span.
                    let by_size = bytes as f64 / 1140.0;
                    let by_air = rate_bps * span / (8.0 * 1140.0);
                    by_size.min(by_air)
                }
            };
        }
        // Mesh media re-evaluate neighbourhoods per transmission, so a
        // frame costs more there than on a fixed chain/star.
        let events_per_frame = match spec.topology {
            TopologyKind::RandomMesh { .. } => 40.0,
            _ => 30.0,
        };
        frames * events_per_frame + n * 50.0
    }

    /// Expands `specs × (1..=seeds)` into a work list, satisfies what it
    /// can from the attached cache's snapshot index, executes the rest
    /// on the worker threads, and returns one [`CellResult`] per spec, in
    /// order. Fresh outcomes are appended to the cache as one batch, in
    /// job order, so the store stays deterministic for a given cold
    /// sweep.
    pub fn run_sweep(&self, specs: &[ScenarioSpec], seeds: u64) -> Vec<CellResult> {
        assert!(seeds >= 1, "a sweep needs at least one seed");
        // (cell index, replication, cache key) per job, in job order.
        let mut jobs = Vec::with_capacity(specs.len() * seeds as usize);
        for (cell, spec) in specs.iter().enumerate() {
            let hash = spec.stable_hash();
            for rep in 1..=seeds {
                jobs.push((cell, rep, hash));
            }
        }
        let mut results: Vec<Option<Result<RunOutcome, RunError>>> = (0..jobs.len()).map(|_| None).collect();
        let index = self.cache.as_ref().map(|c| c.index());
        if let Some(index) = &index {
            let (mut hits, mut misses) = (0u64, 0u64);
            for (slot, &(_, rep, hash)) in results.iter_mut().zip(&jobs) {
                match index.get(hash, rep) {
                    Some(outcome) => {
                        hits += 1;
                        *slot = Some(Ok((**outcome).clone()));
                    }
                    None => misses += 1,
                }
            }
            if let Some(cache) = &self.cache {
                cache.note(hits, misses);
            }
        }
        let todo: Vec<usize> = (0..jobs.len()).filter(|&i| results[i].is_none()).collect();
        let work: Vec<Job> = todo
            .iter()
            .map(|&i| {
                let (cell, rep, hash) = jobs[i];
                let spec = &specs[cell];
                // LPT ordering cost: the recorded event count when the
                // cache has seen this spec, the feature model otherwise.
                // Ordering never affects results, so the hint is safe.
                let cost = index
                    .as_ref()
                    .and_then(|ix| ix.events_hint(hash))
                    .map_or_else(|| Self::predicted_cost(spec), |n| n as f64);
                Job {
                    spec: spec.clone().with_seed(stream_seed(hash, rep)),
                    panic_at: self.faults.get(&(cell, rep)).copied(),
                    cost,
                }
            })
            .collect();
        let fresh = self.execute(&work);
        self.failures.fetch_add(fresh.iter().filter(|r| r.is_err()).count() as u64, Ordering::Relaxed);
        if let Some(cache) = &self.cache {
            // Only successful runs are cached: a failed replication
            // stays cold so a fixed spec (or a chaos-free rerun)
            // simulates it again instead of replaying the failure.
            let records: Vec<_> = todo
                .iter()
                .zip(&fresh)
                .filter_map(|(&i, result)| {
                    let (cell, rep, hash) = jobs[i];
                    result.as_ref().ok().map(|outcome| (hash, rep, &specs[cell], outcome))
                })
                .collect();
            if let Err(e) = cache.append_batch(&records) {
                eprintln!("warning: result cache append failed: {e}");
            }
        }
        for (i, outcome) in todo.into_iter().zip(fresh) {
            results[i] = Some(outcome);
        }
        let mut outcomes = results.into_iter().map(|r| r.expect("every job resolved"));
        specs
            .iter()
            .map(|spec| CellResult {
                spec: spec.clone(),
                runs: (0..seeds).map(|_| outcomes.next().expect("one outcome per job")).collect(),
            })
            .collect()
    }

    /// Runs a grid of cells (rows of specs), preserving shape. All cells
    /// across all rows execute in one shared work list, so a slow row
    /// does not serialise the rest.
    pub fn run_grid(&self, grid: Vec<Vec<ScenarioSpec>>, seeds: u64) -> Vec<Vec<CellResult>> {
        let widths: Vec<usize> = grid.iter().map(|row| row.len()).collect();
        let flat: Vec<ScenarioSpec> = grid.into_iter().flatten().collect();
        let mut cells = self.run_sweep(&flat, seeds).into_iter();
        widths
            .into_iter()
            .map(|w| (0..w).map(|_| cells.next().expect("one cell per spec")).collect())
            .collect()
    }

    /// Runs a single spec once with the derived replication-1 seed,
    /// surfacing any failure as the [`RunError`] it was.
    pub fn try_run_one(&self, spec: ScenarioSpec) -> Result<RunOutcome, RunError> {
        self.run_sweep(std::slice::from_ref(&spec), 1).remove(0).runs.remove(0)
    }

    /// Runs a single spec once with the derived replication-1 seed.
    /// Panics on a failed run — callers that must survive failures use
    /// [`ExperimentRunner::try_run_one`].
    pub fn run_one(&self, spec: ScenarioSpec) -> RunOutcome {
        self.try_run_one(spec).unwrap_or_else(|e| panic!("run failed: {e}"))
    }

    /// Executes the prepared jobs; results come back in job order. A
    /// job that fails — panic or budget — yields its `Err` entry
    /// without disturbing any other job: every run's panics are caught
    /// inside [`ScenarioSpec::try_run_faulted`], so worker threads never
    /// unwind.
    fn execute(&self, work: &[Job]) -> Vec<Result<RunOutcome, RunError>> {
        let run = |job: &Job| job.spec.try_run_faulted(job.panic_at);
        let n = work.len();
        let threads = self.thread_count(n);
        if threads <= 1 {
            return work.iter().map(run).collect();
        }
        // Longest predicted first; the stable sort breaks ties by job
        // index.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| work[b].cost.total_cmp(&work[a].cost));
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<Result<RunOutcome, RunError>>> = (0..n).map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let _ = slots[i].set(run(&work[i]));
                    }
                });
            }
        });
        slots.into_iter().map(|slot| slot.into_inner().expect("every job ran")).collect()
    }
}

/// One fresh job: the spec with its derived world seed, the injected
/// panic (if the fault plan names it), and its predicted cost.
struct Job {
    spec: ScenarioSpec,
    panic_at: Option<u64>,
    cost: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_netsim::Policy;
    use hydra_phy::Rate;
    use hydra_sim::Duration;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn tiny_udp_spec() -> ScenarioSpec {
        let mut spec =
            ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30, Duration::from_millis(20));
        spec.warmup = Duration::from_millis(200);
        spec.duration = Duration::from_secs(1);
        spec
    }

    #[test]
    fn run_seed_depends_on_spec_and_replication() {
        let a = tiny_udp_spec();
        let mut b = tiny_udp_spec();
        b.policy = Policy::Na;
        assert_ne!(ExperimentRunner::run_seed(&a, 1), ExperimentRunner::run_seed(&a, 2));
        assert_ne!(ExperimentRunner::run_seed(&a, 1), ExperimentRunner::run_seed(&b, 1));
        // ...and on the seed field, so seed-only sweep cells replicate
        // independently instead of silently duplicating each other.
        let c = tiny_udp_spec().with_seed(777);
        assert_ne!(ExperimentRunner::run_seed(&a, 1), ExperimentRunner::run_seed(&c, 1));
    }

    #[test]
    fn sweep_shape_is_preserved() {
        let specs = vec![tiny_udp_spec(), tiny_udp_spec().with_seed(2)];
        let cells = ExperimentRunner::sequential().run_sweep(&specs, 2);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].runs.len(), 2);
        let grid = ExperimentRunner::sequential().run_grid(vec![vec![tiny_udp_spec()], specs], 1);
        assert_eq!(grid.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn the_cost_model_ranks_big_worlds_far_above_paper_cells() {
        let small = tiny_udp_spec();
        let mut big = ScenarioSpec::udp(
            TopologyKind::RandomMesh { nodes: 1000, area_m: 2000, seed: 7 },
            Policy::Ba,
            Rate::R1_30,
            Duration::from_millis(20),
        );
        big.warmup = Duration::from_millis(200);
        big.duration = Duration::from_secs(1);
        let (cs, cb) = (ExperimentRunner::predicted_cost(&small), ExperimentRunner::predicted_cost(&big));
        assert!(cb > 10.0 * cs, "1000-node mesh ({cb:.0}) must rank far above a 2-node chain ({cs:.0})");
        // Pure function of the spec: the seed field does not move it.
        assert_eq!(cs, ExperimentRunner::predicted_cost(&small.clone().with_seed(99)));
    }

    #[test]
    fn parallel_sweeps_equal_sequential_at_any_thread_count() {
        let specs = vec![tiny_udp_spec(), tiny_udp_spec().with_seed(2), tiny_udp_spec().with_seed(3)];
        let reference = ExperimentRunner::sequential().run_sweep(&specs, 2);
        for threads in [1, 2, 4, 8] {
            let cells = ExperimentRunner::new(threads).run_sweep(&specs, 2);
            for (cell, expect) in cells.iter().zip(&reference) {
                assert_eq!(cell.runs, expect.runs, "{threads} threads diverged");
            }
        }
    }

    #[test]
    fn a_panicking_job_is_isolated_and_the_cell_stays_total() {
        let specs = vec![tiny_udp_spec(), tiny_udp_spec().with_seed(2)];
        let clean = ExperimentRunner::sequential().run_sweep(&specs, 1);

        let runner = ExperimentRunner::sequential().with_faults([((0, 1), 100)]);
        let cells = runner.run_sweep(&specs, 1);

        assert_eq!(cells[0].runs[0], Err(RunError::Panicked("injected panic at event 100".into())));
        assert!(cells[0].failed());
        assert_eq!(cells[0].failed_label(), "FAILED(panic)");
        assert!(cells[0].first().is_none(), "no usable run in the failed cell");
        assert_eq!(cells[0].mean_throughput_bps(), 0.0, "total, not NaN");
        assert_eq!(runner.failure_count(), 1);
        // The surviving cell is byte-identical to the fault-free sweep.
        assert_eq!(cells[1].runs, clean[1].runs);
    }

    #[test]
    fn every_job_can_fail_without_poisoning_the_parallel_workers() {
        let specs = vec![tiny_udp_spec(), tiny_udp_spec().with_seed(2)];
        let plan = (0..2).flat_map(|cell| (1..=2).map(move |rep| ((cell, rep), 0)));
        let runner = ExperimentRunner::new(2).with_faults(plan);
        let cells = runner.run_sweep(&specs, 2);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.runs.len() == 2 && c.runs.iter().all(Result::is_err)));
        assert_eq!(runner.failure_count(), 4);
    }

    #[test]
    fn a_fault_plan_never_leaks_into_a_concurrent_sweep() {
        // One thread keeps running a sweep whose every job panics while
        // another runs the same specs clean: the clean sweep must equal
        // its sequential reference, run for run. The barrier holds the
        // clean sweep back until the faulted one has run once, and the
        // faulted loop runs until the clean sweep is done, so the two
        // overlap. (A process-global fault registry fails this: the
        // clean runs catch the panics.)
        let specs = vec![tiny_udp_spec(), tiny_udp_spec().with_seed(2), tiny_udp_spec().with_seed(3)];
        let reference = ExperimentRunner::sequential().run_sweep(&specs, 2);
        let plan = (0..specs.len()).flat_map(|cell| (1..=2).map(move |rep| ((cell, rep), 500)));
        let chaos = ExperimentRunner::sequential().with_faults(plan);
        let all_failed = |cells: &[CellResult]| cells.iter().all(|c| c.runs.iter().all(Result::is_err));
        let started = Barrier::new(2);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let first = chaos.run_sweep(&specs, 2);
                started.wait();
                assert!(all_failed(&first), "every faulted job fails");
                while !done.load(Ordering::Acquire) {
                    assert!(all_failed(&chaos.run_sweep(&specs, 2)), "every faulted job fails");
                }
            });
            started.wait();
            let clean = ExperimentRunner::new(2).run_sweep(&specs, 2);
            done.store(true, Ordering::Release);
            for (cell, expect) in clean.iter().zip(&reference) {
                assert_eq!(cell.runs, expect.runs, "a concurrent fault plan leaked into a clean sweep");
            }
        });
    }
}
