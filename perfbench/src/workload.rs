//! The three workloads and the sweeps they run.
//!
//! Every workload is a closed-loop batch built from the shipped
//! `examples/sweeps/*.scn` files: one caller submits a sweep, waits for
//! its table, then submits the next.

use std::path::{Path, PathBuf};

use hydra_netsim::{parse_scn_file, ScenarioSpec};

/// The workload seed that leaves the shipped specs byte-identical.
pub const DEFAULT_SEED: u64 = 0;

/// Replications for a file without a `#! seeds=` directive (the same
/// default the `sweep` binary uses).
const DEFAULT_REPLICATIONS: u64 = 3;

/// The mesh-scale sweep; every other shipped file except the smoke
/// test is a paper-grid sweep.
const MESH_FILE: &str = "ext_scale.scn";
const SMOKE_FILE: &str = "smoke.scn";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper grids, cold: short TCP/UDP cells on small chains,
    /// stars and spatial chains.
    GridCold,
    /// The 100/300/1000-node random meshes, cold.
    MeshCold,
    /// Both file sets replayed against a cache filled in set-up.
    WarmAll,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::GridCold, Workload::MeshCold, Workload::WarmAll];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid_cold",
            Workload::MeshCold => "mesh_cold",
            Workload::WarmAll => "warm_all",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed passes replay a cache filled in set-up.
    pub fn warm(self) -> bool {
        self == Workload::WarmAll
    }

    /// The workload's `.scn` files under `sweeps_dir`, sorted by name.
    pub fn files(self, sweeps_dir: &Path) -> Result<Vec<PathBuf>, String> {
        let entries =
            std::fs::read_dir(sweeps_dir).map_err(|e| format!("read {}: {e}", sweeps_dir.display()))?;
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "scn"))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
                name != SMOKE_FILE
                    && match self {
                        Workload::GridCold => name != MESH_FILE,
                        Workload::MeshCold => name == MESH_FILE,
                        Workload::WarmAll => true,
                    }
            })
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no {} sweeps under {}", self.name(), sweeps_dir.display()));
        }
        Ok(files)
    }
}

/// One `.scn` file, parsed, with the workload seed applied.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The file, as given.
    pub path: String,
    /// `#! caption=`, if any.
    pub caption: Option<String>,
    /// `#! note=` lines.
    pub notes: Vec<String>,
    /// Replications per spec.
    pub seeds: u64,
    /// The specs, in file order.
    pub specs: Vec<ScenarioSpec>,
}

impl Sweep {
    /// Parses one file's text and applies the workload seed.
    pub fn parse(path: &str, text: &str, workload_seed: u64) -> Result<Sweep, String> {
        let file = parse_scn_file(text).map_err(|e| format!("{path}:{e}"))?;
        Ok(Sweep {
            path: path.to_string(),
            caption: file.meta.caption,
            notes: file.meta.notes,
            seeds: file.meta.seeds.unwrap_or(DEFAULT_REPLICATIONS),
            specs: file.specs.into_iter().map(|s| with_workload_seed(s, workload_seed)).collect(),
        })
    }

    /// `(cell, replication)` for every job of the sweep, in job order.
    pub fn jobs(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (0..self.specs.len()).flat_map(move |cell| (1..=self.seeds).map(move |rep| (cell, rep)))
    }
}

/// Offsets a spec's `seed` by the workload seed ([`DEFAULT_SEED`] is 0,
/// so the default changes nothing). The mesh placement seed inside
/// `topo=` is part of the topology and stays as shipped.
pub fn with_workload_seed(spec: ScenarioSpec, workload_seed: u64) -> ScenarioSpec {
    let seed = spec.seed.wrapping_add(workload_seed);
    spec.with_seed(seed)
}

/// Reads and parses every file: the parse half of a workload's set-up.
pub fn load(files: &[PathBuf], workload_seed: u64) -> Result<Vec<Sweep>, String> {
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("read {}: {e}", f.display()))?;
            Sweep::parse(&f.display().to_string(), &text, workload_seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_netsim::render_scn;

    fn shipped() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/sweeps")
    }

    #[test]
    fn default_seed_reproduces_the_shipped_specs_exactly() {
        for file in Workload::WarmAll.files(&shipped()).unwrap() {
            let text = std::fs::read_to_string(&file).unwrap();
            let shipped = parse_scn_file(&text).unwrap().specs;
            let sweep = Sweep::parse("f", &text, DEFAULT_SEED).unwrap();
            assert_eq!(render_scn(&sweep.specs), render_scn(&shipped), "{}", file.display());
            for (a, b) in sweep.specs.iter().zip(&shipped) {
                assert_eq!(a.stable_hash(), b.stable_hash());
            }
        }
    }

    #[test]
    fn other_seeds_offset_the_spec_seed_but_not_the_mesh_placement() {
        let text = std::fs::read_to_string(shipped().join(MESH_FILE)).unwrap();
        let base = Sweep::parse("f", &text, DEFAULT_SEED).unwrap();
        let moved = Sweep::parse("f", &text, DEFAULT_SEED + 5).unwrap();
        for (a, b) in base.specs.iter().zip(&moved.specs) {
            assert_eq!(b.seed, a.seed.wrapping_add(5));
            assert_eq!(a.topology, b.topology);
            assert_ne!(a.stable_hash(), b.stable_hash());
        }
    }

    #[test]
    fn file_sets_split_grid_and_mesh_and_skip_smoke() {
        let grid = Workload::GridCold.files(&shipped()).unwrap();
        let mesh = Workload::MeshCold.files(&shipped()).unwrap();
        let all = Workload::WarmAll.files(&shipped()).unwrap();
        assert_eq!(mesh.len(), 1);
        assert_eq!(grid.len() + 1, all.len());
        assert!(all.iter().all(|f| !f.ends_with(SMOKE_FILE)));
        assert!(grid.iter().all(|f| !f.ends_with(MESH_FILE)));
    }
}
