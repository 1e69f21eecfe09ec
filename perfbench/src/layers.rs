//! Per-layer work: a sequential replay of every job through
//! `ScenarioSpec::build`/`try_run`, the counts its outcomes carry, and
//! unit costs of the wire codec on aggregates of the workload's shape.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use hydra_bench::ExperimentRunner;
use hydra_netsim::{RunError, RunOutcome, ScenarioSpec};
use hydra_wire::aggregate::AggregateBuilder;
use hydra_wire::crc::crc32;
use hydra_wire::phy_hdr::RateCode;
use hydra_wire::subframe::{FrameType, SubframeRepr};
use hydra_wire::{parse_aggregate, MacAddr};

use crate::pass::Pass;
use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;
use crate::workload::Sweep;

/// Work counts summed over the replayed runs. Every field is exact and
/// repeats bit-for-bit for the same specs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Runs replayed (distinct `(spec, replication)` keys).
    pub runs: u64,
    /// Events dispatched.
    pub events: u64,
    /// Of which stale MAC timers.
    pub stale: u64,
    /// Live MAC timer re-arms.
    pub rearms: u64,
    /// Events scheduled on the queue.
    pub scheduled: u64,
    /// Of which sent to the far-future overflow level.
    pub overflow_scheduled: u64,
    /// Data-frame (aggregate) transmissions, retries included.
    pub data_txs: u64,
    /// RTS/CTS/ACK transmissions.
    pub control_txs: u64,
    /// Burst retransmissions.
    pub retries: u64,
    /// Subframes transmitted (unicast + broadcast).
    pub subframes: u64,
    /// Of which broadcast (classified TCP ACKs, flooding).
    pub bcast_subframes: u64,
    /// PSDU bytes transmitted (per node: mean frame size × frames,
    /// rounded).
    pub psdu_bytes: u64,
    /// Pure TCP ACKs classified into the broadcast portion.
    pub acks_bcast: u64,
    /// MAC queue overflow drops.
    pub queue_overflow: u64,
    /// Receptions lost to collisions.
    pub collisions: u64,
    /// Clean receptions the MACs judged: unicast portions accepted or
    /// CRC-dropped, broadcast subframes accepted, filtered or CRC-failed.
    pub rx_verdicts: u64,
    /// Of which CRC failures.
    pub rx_crc_fail: u64,
    /// Packets forwarded by the network layer.
    pub forwarded: u64,
    /// Application bytes delivered across every flow.
    pub delivered_bytes: u64,
}

impl Counts {
    /// Adds one run's outcome.
    pub fn add(&mut self, o: &RunOutcome) {
        self.runs += 1;
        self.events += o.perf.events_processed;
        self.stale += o.perf.events_stale;
        self.rearms += o.perf.timer_rearms;
        self.scheduled += o.perf.queue.scheduled;
        self.overflow_scheduled += o.perf.queue.overflow_scheduled;
        self.collisions += o.report.collisions;
        for n in &o.report.nodes {
            self.data_txs += n.tx_data_frames;
            self.control_txs += n.tx_control;
            self.retries += n.retries;
            self.subframes += n.subframes_sent.0 + n.subframes_sent.1;
            self.bcast_subframes += n.subframes_sent.1;
            self.psdu_bytes += (n.avg_frame_size * n.tx_data_frames as f64).round() as u64;
            self.acks_bcast += n.acks_classified;
            self.queue_overflow += n.queue_overflow;
            self.rx_verdicts +=
                n.unicast_ok + n.unicast_crc_drops + n.bcast_ok + n.bcast_filtered + n.bcast_crc_fail;
            self.rx_crc_fail += n.unicast_crc_drops + n.bcast_crc_fail;
            self.forwarded += n.forwarded;
        }
        self.delivered_bytes += o.per_flow.iter().map(|f| f.bytes).sum::<u64>();
    }

    /// Receiver-side outcomes: collided plus judged receptions.
    pub fn receptions(&self) -> u64 {
        self.collisions + self.rx_verdicts
    }
}

/// One sequential replay of a pass's jobs.
#[derive(Debug, Default)]
pub struct Replay {
    /// Work counts over the replayed runs.
    pub counts: Counts,
    /// Σ allocation calls during the runs (0 without the counting
    /// allocator).
    pub allocations: u64,
    /// Σ `build` time, ms.
    pub build_ms: f64,
    /// Σ `try_run` time (which builds again), ms.
    pub try_run_ms: f64,
    /// Process CPU seconds over the replay.
    pub cpu_s: f64,
    /// Runner outcomes that differ from their replay, described.
    pub mismatches: Vec<String>,
}

/// Replays every distinct `(spec, replication)` of `pass` once,
/// sequentially, with the runner's derived seed, and compares the
/// outcome with every runner outcome of that key.
pub fn replay(sweeps: &[Sweep], pass: &Pass, tr: &mut Tracer) -> Replay {
    // Distinct keys in first-seen order, each with every runner
    // outcome of that key.
    type Job<'a> = (&'a ScenarioSpec, u64, Vec<(&'a str, &'a Result<RunOutcome, RunError>)>);
    let mut jobs: Vec<Job<'_>> = Vec::new();
    let mut index: HashMap<(u64, u64), usize> = HashMap::new();
    for (sweep, cells) in sweeps.iter().zip(&pass.cells) {
        for (spec, cell) in sweep.specs.iter().zip(cells) {
            let hash = spec.stable_hash();
            for (rep, run) in (1..).zip(&cell.runs) {
                let i = *index.entry((hash, rep)).or_insert_with(|| {
                    jobs.push((spec, rep, Vec::new()));
                    jobs.len() - 1
                });
                jobs[i].2.push((sweep.path.as_str(), run));
            }
        }
    }
    let mut out = Replay::default();
    let cpu0 = sys::cpu_s();
    for (spec, rep, runs) in &jobs {
        let run_spec = (*spec).clone().with_seed(ExperimentRunner::run_seed(spec, *rep));
        let (world, replayed) = tr.span("replay.job", |tr| {
            let t = Instant::now();
            let world = tr.span("netsim.build", |_| run_spec.build());
            out.build_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let replayed = tr.span("netsim.try_run", |_| run_spec.try_run());
            out.try_run_ms += t.elapsed().as_secs_f64() * 1e3;
            (world, replayed)
        });
        drop(black_box(world));
        match &replayed {
            Ok(o) => {
                out.counts.add(o);
                out.allocations += o.perf.allocations;
            }
            Err(e) => out.mismatches.push(format!("replay of {} rep {rep} failed: {e}", spec.to_scn())),
        }
        for (path, run) in runs {
            let same = match (run, &replayed) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            };
            if !same {
                out.mismatches.push(format!(
                    "{path}: runner outcome differs from replay for rep {rep} of {}",
                    spec.to_scn()
                ));
            }
        }
    }
    out.cpu_s = sys::cpu_s() - cpu0;
    out
}

/// Unit costs of the wire codec, measured on aggregates shaped like the
/// workload's mean data frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCosts {
    /// CRC-32 cost per KiB, ns.
    pub crc_ns_per_kb: f64,
    /// `AggregateBuilder` build of one mean-shaped aggregate, ns.
    pub agg_build_ns: f64,
    /// `parse_aggregate` (CRC-checking) of one such aggregate, ns.
    pub agg_parse_ns: f64,
}

fn repr() -> SubframeRepr {
    SubframeRepr {
        frame_type: FrameType::Data,
        retry: false,
        no_ack: false,
        duration_us: 500,
        addr1: MacAddr::from_node_id(1),
        addr2: MacAddr::from_node_id(0),
        addr3: MacAddr::from_node_id(0),
    }
}

/// Times the codec on the mean frame of `c`: `k` subframes per
/// aggregate, the broadcast share of them, and payloads sized so the
/// PSDU matches the mean PSDU bytes.
pub fn wire_costs(c: &Counts) -> WireCosts {
    let txs = c.data_txs.max(1);
    let k = ((c.subframes as f64 / txs as f64).round() as usize).clamp(1, 64);
    let bcast = ((k as f64 * c.bcast_subframes as f64 / c.subframes.max(1) as f64).round() as usize).min(k);
    let mean_bytes = ((c.psdu_bytes / txs) as usize).max(64);
    let build = |payload: &[u8]| {
        let mut b = AggregateBuilder::new();
        for i in 0..k {
            if i < bcast {
                b.push_broadcast(&repr(), payload);
            } else {
                b.push_unicast(&repr(), payload);
            }
        }
        b.finish(RateCode(0), RateCode(3))
    };
    let overhead = build(&[]).1.len() / k;
    let payload = vec![0x5Au8; (mean_bytes / k).saturating_sub(overhead).max(1)];
    let (hdr, psdu, _) = build(&payload);
    let crc_ns = ns_per_op(|| {
        black_box(crc32(black_box(&psdu)));
    });
    WireCosts {
        crc_ns_per_kb: crc_ns / (psdu.len() as f64 / 1024.0),
        agg_build_ns: ns_per_op(|| {
            black_box(build(black_box(&payload)));
        }),
        agg_parse_ns: ns_per_op(|| {
            black_box(parse_aggregate(black_box(&hdr), black_box(&psdu)));
        }),
    }
}

/// Median ns per call of `f` over seven batches of at least 10 ms each.
fn ns_per_op(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_millis() >= 10 {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}
