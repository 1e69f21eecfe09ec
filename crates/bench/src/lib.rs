//! # hydra-bench — the experiment harness
//!
//! One function per table/figure of the paper, each expressed as a grid
//! of [`hydra_netsim::ScenarioSpec`]s driven through the parallel
//! [`runner::ExperimentRunner`] and folded into a [`report::Table`]
//! comparing the paper's reported numbers against this reproduction.
//! Thin binaries in `src/bin/` print individual experiments;
//! `src/bin/all.rs` regenerates everything and writes the results file
//! that EXPERIMENTS.md quotes.
//!
//! Sweeps are also *data*: every shipped grid is exported as a `.scn`
//! file under `examples/sweeps/` (run them with `--bin sweep`), and
//! [`sweeps::ConcurrentCache`] persists every outcome keyed by
//! `(stable_hash, replication)` so warm reruns of `--bin all` /
//! `--bin sweep` simulate nothing and rebuild byte-identical tables.
//!
//! **Layer**: the top of the library stack — above `hydra-netsim`;
//! nothing builds on it except its own binaries (and the `hydra-agg`
//! facade, which re-exports the layers below for external use).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod microbench;
pub mod paper;
pub mod report;
pub mod runner;
pub mod sweeps;

pub use report::Table;
pub use runner::{CellResult, ExperimentRunner};
pub use sweeps::{CacheIndex, CacheStats, ConcurrentCache, SharedCache, CACHE_SCHEMA};
