//! One pass: every sweep of a workload through the runner, one after
//! another, each folded into its table.

use std::sync::Arc;
use std::time::Instant;

use hydra_bench::{CellResult, ExperimentRunner, SharedCache, Table};

use crate::digest::{self, Fnv};
use crate::sys;
use crate::trace::Tracer;
use crate::workload::Sweep;

/// What one pass did and how long it took.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds for every `run_sweep` plus table render.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Per sweep, the runner's cells.
    pub cells: Vec<Vec<CellResult>>,
    /// Per sweep, the rendered table.
    pub tables: Vec<String>,
    /// Per sweep and job (job order), whether the job was simulated in
    /// this pass rather than served from the cache.
    pub fresh: Vec<Vec<bool>>,
}

/// Runs every sweep on `threads` runner threads against `cache`. Spans
/// go to `tr` (pass a disabled tracer for timed passes).
pub fn run(sweeps: &[Sweep], cache: &SharedCache, threads: usize, tr: &mut Tracer) -> Pass {
    let runner = ExperimentRunner::new(threads).with_cache(Arc::clone(cache));
    let mut before = Vec::with_capacity(sweeps.len());
    let mut cells = Vec::with_capacity(sweeps.len());
    let mut tables = Vec::with_capacity(sweeps.len());
    let cpu0 = sys::cpu_s();
    let t0 = Instant::now();
    for sweep in sweeps {
        before.push(cache.index());
        let swept = tr.span("bench.runner.run_sweep", |_| runner.run_sweep(&sweep.specs, sweep.seeds));
        tables.push(tr.span("bench.report.render", |_| render(sweep, &swept)));
        cells.push(swept);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_s() - cpu0;
    let fresh = sweeps
        .iter()
        .zip(&before)
        .map(|(sweep, index)| {
            let hashes: Vec<u64> = sweep.specs.iter().map(|s| s.stable_hash()).collect();
            sweep.jobs().map(|(cell, rep)| index.get(hashes[cell], rep).is_none()).collect()
        })
        .collect();
    Pass { wall_s, cpu_s, cells, tables, fresh }
}

/// The table the `sweep` binary prints for one file.
fn render(sweep: &Sweep, cells: &[CellResult]) -> String {
    let n = sweep.specs.len();
    let seeds = sweep.seeds;
    let title = match &sweep.caption {
        Some(caption) => format!("{caption} [{} — {n} scenarios × {seeds} seed(s)]", sweep.path),
        None => format!("{} — {n} scenarios × {seeds} seed(s)", sweep.path),
    };
    let mut t = Table::new(title, &["#", "scenario", "mean Mbps", "per-seed Mbps"]);
    for (i, cell) in cells.iter().enumerate() {
        let per_seed: Vec<String> = cell
            .runs
            .iter()
            .map(|r| match r {
                Ok(run) => format!("{:.3}", run.throughput_bps / 1e6),
                Err(e) => format!("FAILED({})", e.reason()),
            })
            .collect();
        let stuck = cell.ok_runs().any(|r| !r.completed);
        let mean = if cell.first().is_some() {
            format!("{:.3}{}", cell.mean_throughput_bps() / 1e6, if stuck { " (STUCK)" } else { "" })
        } else {
            cell.failed_label()
        };
        t.row(vec![format!("{i}"), cell.spec.to_scn(), mean, per_seed.join(" ")]);
    }
    for note in &sweep.notes {
        t.note(note.clone());
    }
    t.render()
}

impl Pass {
    /// Replications attempted.
    pub fn jobs(&self) -> u64 {
        self.fresh.iter().map(|f| f.len() as u64).sum()
    }

    /// Jobs simulated in this pass (cache misses).
    pub fn fresh_jobs(&self) -> u64 {
        self.fresh.iter().flatten().filter(|&&f| f).count() as u64
    }

    /// Replications that failed.
    pub fn failed(&self) -> u64 {
        self.runs().filter(|(_, r)| r.is_err()).count() as u64
    }

    /// Digest over every outcome's simulated fields and every table.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (cells, table) in self.cells.iter().zip(&self.tables) {
            for cell in cells {
                for run in &cell.runs {
                    digest::outcome(&mut h, run);
                }
            }
            h.write_str(table);
        }
        h.finish()
    }

    /// Events dispatched by the runs simulated in this pass.
    pub fn fresh_events(&self) -> u64 {
        self.fresh_runs().map(|o| o.perf.events_processed).sum()
    }

    /// Σ `RunPerf::wall_ms` over the runs simulated in this pass.
    fn fresh_busy_ms(&self) -> f64 {
        self.fresh_runs().map(|o| o.perf.wall_ms).sum()
    }

    /// Runner idle share: `1 − Σ busy / (threads × wall)`.
    pub fn idle_frac(&self, threads: usize) -> f64 {
        idle_frac(self.fresh_busy_ms(), threads, self.wall_s)
    }

    /// `(fresh, run)` for every job, in sweep and job order.
    fn runs(
        &self,
    ) -> impl Iterator<Item = (bool, &Result<hydra_netsim::RunOutcome, hydra_netsim::RunError>)> {
        self.cells
            .iter()
            .zip(&self.fresh)
            .flat_map(|(cells, fresh)| cells.iter().flat_map(|c| &c.runs).zip(fresh).map(|(r, &f)| (f, r)))
    }

    fn fresh_runs(&self) -> impl Iterator<Item = &hydra_netsim::RunOutcome> {
        self.runs().filter(|(f, _)| *f).filter_map(|(_, r)| r.as_ref().ok())
    }
}

/// `1 − busy_ms / (threads × wall_s × 1000)`, clamped to `[0, 1]`.
pub fn idle_frac(busy_ms: f64, threads: usize, wall_s: f64) -> f64 {
    let capacity_ms = threads as f64 * wall_s * 1e3;
    if capacity_ms <= 0.0 {
        return 0.0;
    }
    (1.0 - busy_ms / capacity_ms).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::idle_frac;

    #[test]
    fn idle_frac_is_the_unused_share_of_thread_time() {
        // 2 threads × 1 s = 2000 ms of capacity, 1500 ms busy.
        assert!((idle_frac(1500.0, 2, 1.0) - 0.25).abs() < 1e-12);
        assert_eq!(idle_frac(0.0, 2, 1.0), 1.0);
        assert_eq!(idle_frac(2000.0, 2, 1.0), 0.0);
        // Timer skew can make busy exceed capacity slightly: clamp.
        assert_eq!(idle_frac(2010.0, 2, 1.0), 0.0);
        assert_eq!(idle_frac(5.0, 2, 0.0), 0.0);
    }
}
