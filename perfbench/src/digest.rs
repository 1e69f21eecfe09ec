//! Output digests: what a pass computed, independent of how fast.
//!
//! The digest covers each outcome's simulated fields (`completed`,
//! `throughput_bps`, `per_flow`, `report`) and the rendered tables. It
//! excludes [`hydra_netsim::RunPerf`], which is wall-clock telemetry:
//! a cached outcome and a fresh one of the same spec must digest alike.

use hydra_netsim::{RunError, RunOutcome};

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a length-prefixed string in, so concatenations differ.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Folds a little-endian `u64` in.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Folds one replication's simulated result in; `perf` is left out.
/// `Debug` prints floats in shortest round-trip form, so the text is
/// exact.
pub fn outcome(h: &mut Fnv, run: &Result<RunOutcome, RunError>) {
    match run {
        Ok(o) => {
            h.write_u64(u64::from(o.completed));
            h.write_u64(o.throughput_bps.to_bits());
            h.write_str(&format!("{:?}", o.per_flow));
            h.write_str(&format!("{:?}", o.report));
        }
        Err(e) => h.write_str(&format!("FAILED({e})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_netsim::{RunPerf, RunReport};

    fn sample() -> RunOutcome {
        RunOutcome {
            completed: true,
            throughput_bps: 912_345.5,
            per_flow: Vec::new(),
            report: RunReport { nodes: Vec::new(), at: hydra_sim::Instant::ZERO, collisions: 3 },
            perf: RunPerf::default(),
        }
    }

    fn digest(o: &RunOutcome) -> u64 {
        let mut h = Fnv::new();
        outcome(&mut h, &Ok(o.clone()));
        h.finish()
    }

    #[test]
    fn digest_ignores_run_perf() {
        let a = sample();
        let mut b = sample();
        b.perf.wall_ms = 12.5;
        b.perf.events_processed = 99;
        b.perf.allocations = 7;
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn digest_sees_every_simulated_field() {
        let base = digest(&sample());
        let mut o = sample();
        o.completed = false;
        assert_ne!(digest(&o), base);
        let mut o = sample();
        o.throughput_bps += 1e-9;
        assert_ne!(digest(&o), base);
        let mut o = sample();
        o.report.collisions += 1;
        assert_ne!(digest(&o), base);
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut a = Fnv::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
