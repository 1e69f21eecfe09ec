//! One function per table/figure of the paper's evaluation (§6).
//!
//! Each experiment is expressed as *data*: a grid of [`ScenarioSpec`]s
//! expanded over seeds and executed by the parallel
//! [`ExperimentRunner`], then folded into a [`Table`] with the paper's
//! numbers (where published) side by side with this reproduction's
//! measurements. Absolute values depend on testbed quirks we cannot
//! recover; the *shapes* — who wins, by roughly what factor, where
//! crossovers fall — are the claims being reproduced (see
//! EXPERIMENTS.md for per-experiment commentary).

use std::sync::Arc;

use hydra_core::{AckPolicy, AggSizing};
use hydra_netsim::{
    Flooding, FlowSpec, FlowTraffic, MediumKind, Policy, ScenarioSpec, SweepMeta, TopologyKind,
};
use hydra_phy::Rate;
use hydra_sim::Duration;

use crate::paper;
use crate::report::{bytes, mbps, pct, Table};
use crate::runner::{CellResult, ExperimentRunner};

/// Harness options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seeds averaged per TCP data point.
    pub seeds: u64,
    /// Runner worker threads (0 = one per available CPU).
    pub threads: usize,
    /// Persistent result cache shared by every experiment; `None` =
    /// always simulate (hermetic, e.g. under test).
    pub cache: Option<crate::sweeps::SharedCache>,
    /// Failed-replication tally shared by every runner these options
    /// build; the driving binary reads it to pick its exit code after
    /// the whole grid — failures degrade cells, they never abort runs.
    pub failures: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts { seeds: 3, threads: 0, cache: None, failures: Default::default() }
    }
}

impl Opts {
    /// Options for the CLI binaries: the defaults plus the persistent
    /// result cache at `results/cache/`, so single-figure bins reuse
    /// (and extend) runs that `--bin all` / `--bin sweep` already
    /// simulated. Falls back to cache-less on I/O errors. Tests use
    /// [`Opts::default`], which never touches the disk.
    pub fn cli() -> Self {
        let mut opts = Opts::default();
        match crate::sweeps::ConcurrentCache::open_default() {
            Ok(cache) => opts.cache = Some(Arc::new(cache)),
            Err(e) => eprintln!("warning: result cache unavailable ({e}); simulating everything"),
        }
        opts
    }

    fn runner(&self) -> ExperimentRunner {
        let runner = ExperimentRunner::new(self.threads).with_failure_counter(self.failures.clone());
        match &self.cache {
            Some(cache) => runner.with_cache(cache.clone()),
            None => runner,
        }
    }

    /// Failed replications across every runner built from these
    /// options so far.
    pub fn failure_count(&self) -> u64 {
        self.failures.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// The four experiment rates.
pub const RATES: [Rate; 4] = Rate::EXPERIMENT;

/// A TCP file-transfer spec with an optional fixed broadcast rate.
fn tcp(topo: TopologyKind, policy: Policy, rate: Rate, bcast: Option<Rate>) -> ScenarioSpec {
    let mut spec = ScenarioSpec::tcp(topo, policy, rate);
    spec.broadcast_rate = bcast;
    spec
}

/// A linear-chain UDP CBR spec with the source interval in microseconds.
fn udp(hops: usize, policy: Policy, rate: Rate, interval_us: u64) -> ScenarioSpec {
    ScenarioSpec::udp(TopologyKind::Linear(hops), policy, rate, Duration::from_micros(interval_us))
}

fn means(row: &[CellResult]) -> Vec<f64> {
    row.iter().map(CellResult::mean_throughput_bps).collect()
}

/// Every shipped experiment grid, flattened to the spec list its
/// checked-in `.scn` file under `examples/sweeps/` carries. The file
/// name is `<name>.scn`; `--bin sweep --export examples/sweeps`
/// regenerates them and `tests/scn_files.rs` proves file == code.
pub fn shipped_sweeps() -> Vec<(&'static str, Vec<ScenarioSpec>)> {
    let flat = |grid: Vec<Vec<ScenarioSpec>>| grid.into_iter().flatten().collect::<Vec<_>>();
    vec![
        ("fig07_agg_size", flat(fig07_agg_size_specs())),
        ("table2_udp", flat(table2_udp_specs())),
        ("fig08_unicast_tcp", flat(fig08_unicast_tcp_specs())),
        ("fig09_flooding", flat(fig09_flooding_specs())),
        ("fig10_fixed_bcast", flat(fig10_fixed_bcast_specs())),
        ("fig11_2hop", flat(fig11_2hop_specs())),
        ("fig12_topologies", flat(fig12_topologies_specs())),
        ("fig13_delayed", flat(fig13_delayed_specs())),
        ("fig14_no_forward", flat(fig14_no_forward_specs())),
        ("table3_relay", table3_relay_specs()),
        ("table4_time_overhead", flat(table4_time_overhead_specs())),
        ("table5_6_7_star", table5_6_7_star_specs()),
        ("table8_frame_sizes", flat(table8_frame_sizes_specs())),
        ("ext_topologies", flat(ext_topologies_specs())),
        ("ext_spatial_reuse", flat(ext_spatial_reuse_specs())),
        ("ext_spatial_rts", flat(ext_spatial_rts_specs())),
        ("ext_mixed", flat(ext_mixed_specs())),
        ("ext_scale", flat(ext_scale_specs())),
        ("ext_burst", flat(ext_burst_specs())),
        ("ablation_block_ack", flat(ablation_block_ack_specs())),
        ("ablation_rate_adaptive_sizing", flat(ablation_rate_adaptive_sizing_specs())),
        ("ablation_dba_flush", flat(ablation_dba_flush_specs())),
        ("ablation_rts_cts", flat(ablation_rts_cts_specs())),
        ("ablation_delayed_ack", flat(ablation_delayed_ack_specs())),
        ("ablation_broadcast_position", ablation_broadcast_position_specs()),
    ]
}

/// The sweep-level metadata exported into each shipped `.scn` file's
/// `#!` directives: the caption its experiment fn gives the table, and
/// the replication count `run_all` uses for it — so
/// `--bin sweep examples/sweeps/<name>.scn` reproduces the experiment's
/// data with its caption, by default, with no flags.
pub fn shipped_sweep_meta(name: &str) -> SweepMeta {
    let (caption, seeds): (&str, u64) = match name {
        "fig07_agg_size" => ("Figure 7 — UDP throughput (Mbps) vs max aggregation size, 1-hop", 1),
        "table2_udp" => ("Table 2 — 2-hop UDP throughput (Mbps)", 1),
        "fig08_unicast_tcp" => ("Figure 8 — TCP throughput (Mbps): unicast aggregation", 3),
        "fig09_flooding" => ("Figure 9 — 2-hop UDP goodput (Mbps) under per-node flooding", 1),
        "fig10_fixed_bcast" => ("Figure 10 — TCP throughput (Mbps), BA with fixed broadcast rate", 3),
        "fig11_2hop" => ("Figure 11 — 2-hop TCP throughput (Mbps): NA / UA / BA", 3),
        "fig12_topologies" => ("Figure 12 — TCP throughput (Mbps): 3-hop linear & star", 3),
        "fig13_delayed" => ("Figure 13 — TCP throughput (Mbps): BA vs delayed BA", 3),
        "fig14_no_forward" => ("Figure 14 — 3-hop TCP throughput (Mbps): backward-only aggregation", 3),
        "table3_relay" => ("Table 3 — 2-hop relay detail (TCP)", 1),
        "table4_time_overhead" => ("Table 4 — 2-hop relay time overhead (paper / here, %)", 1),
        "table5_6_7_star" => ("Tables 5–7 — relay detail, 2-hop vs star", 1),
        "table8_frame_sizes" => ("Table 8 — average frame size per node (paper / here, B)", 1),
        "ext_topologies" => ("Extension — TCP throughput (Mbps) on grid & cross topologies", 3),
        "ext_spatial_reuse" => {
            ("Extension — spatial reuse: chain UDP goodput (Mbps), shared domain vs 5 m spacing", 1)
        }
        "ext_spatial_rts" => ("Extension — RTS/CTS crossover: 3-hop UDP goodput (Mbps) vs spacing", 1),
        "ext_mixed" => {
            ("Extension — mixed traffic: 2-hop TCP foreground vs CBR background (per-flow Mbps)", 3)
        }
        "ext_scale" => {
            ("Extension — mesh scale: 100/300/1000-node random meshes, mixed TCP+CBR (per-flow kb/s)", 3)
        }
        "ext_burst" => {
            ("Extension — bursty channels: 2-hop TCP (Mbps), independent vs Gilbert–Elliott loss", 3)
        }
        "ablation_block_ack" => ("Ablation — block ACK vs all-or-nothing under coherence stress", 1),
        "ablation_rate_adaptive_sizing" => ("Ablation — fixed 5 KB cap vs coherence-budget sizing", 3),
        "ablation_dba_flush" => ("Ablation — DBA flush timeout sensitivity (2.6 Mbps)", 3),
        "ablation_rts_cts" => ("Ablation — RTS/CTS handshake on vs off (2-hop TCP)", 3),
        "ablation_delayed_ack" => ("Ablation — TCP delayed ACKs (2-hop, BA)", 3),
        "ablation_broadcast_position" => {
            ("Ablation — positional protection of the broadcast portion (oversized aggregates, 0.65 Mbps)", 1)
        }
        other => panic!("unknown shipped sweep `{other}`"),
    };
    SweepMeta { seeds: Some(seeds), caption: Some(caption.to_string()), notes: Vec::new() }
}

/// The caption [`shipped_sweep_meta`] exports for `name` — also used as
/// the experiment fn's own table title wherever the sweep maps to one
/// table, so the two can never drift (the multi-table experiments,
/// `table5_6_7_star` and nothing else, keep their own titles).
fn caption(name: &str) -> String {
    shipped_sweep_meta(name).caption.expect("every shipped sweep has a caption")
}

// ----------------------------------------------------------------------
// Figure 7 — throughput vs maximum aggregation size (1-hop UDP)
// ----------------------------------------------------------------------

const FIG07_SIZES_KB: [usize; 18] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20];

/// Figure 7's grid: aggregation cap × rate, 1-hop UDP.
pub fn fig07_agg_size_specs() -> Vec<Vec<ScenarioSpec>> {
    let rates = [Rate::R0_65, Rate::R1_30, Rate::R1_95];
    FIG07_SIZES_KB
        .iter()
        .map(|kb| {
            rates
                .iter()
                .map(|&rate| {
                    let mut spec = ScenarioSpec::udp(
                        TopologyKind::Linear(1),
                        Policy::Ua,
                        rate,
                        Duration::from_millis(4),
                    );
                    spec.max_aggregate = kb * 1024;
                    spec.duration = Duration::from_secs(10);
                    spec
                })
                .collect()
        })
        .collect()
}

/// Figure 7: throughput climbs with the aggregation cap, then collapses
/// once aggregates outgrow the ~120 Ksample channel-coherence budget
/// (5 / 11 / 15 KB at 0.65 / 1.3 / 1.95 Mbps).
pub fn fig07_agg_size(opts: &Opts) -> Table {
    let sizes_kb = FIG07_SIZES_KB;
    let results = opts.runner().run_grid(fig07_agg_size_specs(), 1);

    let mut t =
        Table::new(caption("fig07_agg_size"), &["max agg (KB)", "0.65 Mbps", "1.30 Mbps", "1.95 Mbps"]);
    for (kb, row) in sizes_kb.iter().zip(results) {
        let mut cells = vec![format!("{kb}")];
        cells.extend(row.iter().map(|c| c.cell_with(|r| mbps(r.throughput_bps))));
        t.row(cells);
    }
    for (rate, thr) in paper::FIG7_THRESHOLDS {
        t.note(format!("paper: cliff at ~{thr} KB for {rate} Mbps (~120 Ksamples)"));
    }
    t
}

// ----------------------------------------------------------------------
// Table 2 — 2-hop UDP, NA vs UA
// ----------------------------------------------------------------------

const TABLE2_INTERVALS: [(Rate, u64); 2] = [(Rate::R0_65, 30_600), (Rate::R1_30, 17_400)];

/// Table 2's cells: (NA, UA) per rate at the paper's operating points.
pub fn table2_udp_specs() -> Vec<Vec<ScenarioSpec>> {
    TABLE2_INTERVALS
        .iter()
        .map(|&(rate, us)| vec![udp(2, Policy::Na, rate, us), udp(2, Policy::Ua, rate, us)])
        .collect()
}

/// Table 2: UDP over 2 hops, no aggregation vs unicast aggregation.
///
/// The paper's UDP app semantics ("data interval 3 s") are unrecoverable;
/// we reproduce its *operating point* by offering the load the paper's UA
/// sustained (~1.1× NA capacity), as documented in DESIGN.md §5.
pub fn table2_udp(opts: &Opts) -> Table {
    let intervals = TABLE2_INTERVALS;
    let results = opts.runner().run_grid(table2_udp_specs(), 1);

    let mut t = Table::new(
        caption("table2_udp"),
        &["rate", "NA paper", "NA here", "UA paper", "UA here", "gain paper", "gain here"],
    );
    for ((&(rate, _), row), (p_rate, p_na, p_ua, p_gain)) in intervals.iter().zip(&results).zip(paper::TABLE2)
    {
        assert_eq!(rate.mbps(), p_rate);
        let (na, ua) = (row[0].mean_throughput_bps(), row[1].mean_throughput_bps());
        let gain = if row[0].failed() || row[1].failed() || na == 0.0 {
            "-".to_string()
        } else {
            format!("{:.1}%", (ua / na - 1.0) * 100.0)
        };
        t.row(vec![
            format!("{rate}"),
            format!("{p_na:.3}"),
            row[0].mean_cell(),
            format!("{p_ua:.3}"),
            row[1].mean_cell(),
            format!("{p_gain:.1}%"),
            gain,
        ]);
    }
    t.note("offered load set to the paper's UA operating point (~1.1x NA capacity)");
    t
}

// ----------------------------------------------------------------------
// Figure 8 — TCP with unicast aggregation (2- and 3-hop)
// ----------------------------------------------------------------------

/// Figure 8's grid: rate × (2/3-hop × NA/UA).
pub fn fig08_unicast_tcp_specs() -> Vec<Vec<ScenarioSpec>> {
    RATES
        .iter()
        .map(|&rate| {
            [(2, Policy::Na), (2, Policy::Ua), (3, Policy::Na), (3, Policy::Ua)]
                .into_iter()
                .map(|(hops, pol)| tcp(TopologyKind::Linear(hops), pol, rate, None))
                .collect()
        })
        .collect()
}

/// Figure 8: one-way TCP transfer, NA vs UA, 2- and 3-hop chains.
pub fn fig08_unicast_tcp(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(fig08_unicast_tcp_specs(), opts.seeds);

    let mut t =
        Table::new(caption("fig08_unicast_tcp"), &["rate", "2-hop NA", "2-hop UA", "3-hop NA", "3-hop UA"]);
    for (rate, row) in RATES.iter().zip(&results) {
        let mut cells = vec![format!("{rate}")];
        cells.extend(means(row).iter().map(|&m| mbps(m)));
        t.row(cells);
    }
    t.note("paper: UA > NA everywhere; improvement grows with rate; 2-hop > 3-hop");
    t
}

// ----------------------------------------------------------------------
// Figure 9 — UDP under flooding
// ----------------------------------------------------------------------

const FIG09_FLOOD_MS: [u64; 7] = [50, 100, 250, 500, 1000, 2000, 5000];

/// Figure 9's grid: flood interval × (rate × NA/BA).
pub fn fig09_flooding_specs() -> Vec<Vec<ScenarioSpec>> {
    FIG09_FLOOD_MS
        .iter()
        .map(|&f| {
            let mut row = Vec::new();
            for (rate, us) in [(Rate::R0_65, 30_600u64), (Rate::R1_30, 17_400)] {
                for pol in [Policy::Na, Policy::Ba] {
                    let mut spec = udp(2, pol, rate, us);
                    spec.flooding = Some(Flooding { interval: Duration::from_millis(f), payload: 120 });
                    row.push(spec);
                }
            }
            row
        })
        .collect()
}

/// Figure 9: 2-hop UDP goodput vs flooding interval, aggregation on/off.
pub fn fig09_flooding(opts: &Opts) -> Table {
    let floods = FIG09_FLOOD_MS;
    let results = opts.runner().run_grid(fig09_flooding_specs(), 1);

    let mut t = Table::new(
        caption("fig09_flooding"),
        &["flood interval", "0.65 NA", "0.65 BA", "1.30 NA", "1.30 BA"],
    );
    for (f, row) in floods.iter().zip(&results) {
        let mut cells = vec![format!("{:.2}s", *f as f64 / 1000.0)];
        cells.extend(row.iter().map(|c| c.cell_with(|r| mbps(r.throughput_bps))));
        t.row(cells);
    }
    t.note("paper: gap between aggregation and NA widens as the flooding interval shrinks");
    t.note("paper anchors at 5 s interval: 0.26 (0.65 Mbps) and 0.47 (1.3 Mbps) with aggregation");
    t
}

// ----------------------------------------------------------------------
// Figure 10 — BA with a fixed broadcast rate
// ----------------------------------------------------------------------

/// Figure 10's grid: unicast rate × (BA at three fixed broadcast rates,
/// plus the UA baseline).
pub fn fig10_fixed_bcast_specs() -> Vec<Vec<ScenarioSpec>> {
    let two = TopologyKind::Linear(2);
    RATES
        .iter()
        .map(|&rate| {
            vec![
                tcp(two, Policy::Ba, rate, Some(Rate::R0_65)),
                tcp(two, Policy::Ba, rate, Some(Rate::R1_30)),
                tcp(two, Policy::Ba, rate, Some(Rate::R2_60)),
                tcp(two, Policy::Ua, rate, None),
            ]
        })
        .collect()
}

/// Figure 10: 2-hop TCP; the broadcast (ACK) portion rides at a fixed
/// rate while the unicast rate sweeps.
pub fn fig10_fixed_bcast(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(fig10_fixed_bcast_specs(), opts.seeds);

    let mut t =
        Table::new(caption("fig10_fixed_bcast"), &["unicast rate", "BA(0.65)", "BA(1.3)", "BA(2.6)", "UA"]);
    for (rate, row) in RATES.iter().zip(&results) {
        let mut cells = vec![format!("{rate}")];
        cells.extend(means(row).iter().map(|&m| mbps(m)));
        t.row(cells);
    }
    t.note("paper: BA(0.65) beats UA only at 0.65 then falls below; BA(1.3) wins up to 1.3; BA(2.6) wins everywhere");
    t
}

// ----------------------------------------------------------------------
// Figure 11 — 2-hop TCP ACK aggregation
// ----------------------------------------------------------------------

/// Figure 11's grid: rate × NA/UA/BA on the 2-hop chain.
pub fn fig11_2hop_specs() -> Vec<Vec<ScenarioSpec>> {
    let two = TopologyKind::Linear(2);
    RATES
        .iter()
        .map(|&rate| [Policy::Na, Policy::Ua, Policy::Ba].iter().map(|&p| tcp(two, p, rate, None)).collect())
        .collect()
}

/// Figure 11: 2-hop TCP, broadcast rate = unicast rate; NA / UA / BA.
pub fn fig11_2hop(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(fig11_2hop_specs(), opts.seeds);

    let mut t = Table::new(caption("fig11_2hop"), &["rate", "NA", "UA", "BA", "BA/UA gap"]);
    let mut max_gap: f64 = 0.0;
    for (rate, row) in RATES.iter().zip(&results) {
        let m = means(row);
        let (na, ua, ba) = (m[0], m[1], m[2]);
        let gap = (ba / ua - 1.0) * 100.0;
        max_gap = max_gap.max(gap);
        t.row(vec![format!("{rate}"), mbps(na), mbps(ua), mbps(ba), format!("{gap:+.1}%")]);
    }
    t.note(format!(
        "paper: BA always >= UA, max gap ~{:.0}%; measured max gap {max_gap:.1}%",
        paper::FIG11_MAX_GAP_PCT
    ));
    t
}

// ----------------------------------------------------------------------
// Figure 12 — more complex topologies
// ----------------------------------------------------------------------

/// Figure 12's grid: rate × (3-hop NA/UA/BA, star UA/BA).
pub fn fig12_topologies_specs() -> Vec<Vec<ScenarioSpec>> {
    let three = TopologyKind::Linear(3);
    RATES
        .iter()
        .map(|&rate| {
            vec![
                tcp(three, Policy::Na, rate, None),
                tcp(three, Policy::Ua, rate, None),
                tcp(three, Policy::Ba, rate, None),
                tcp(TopologyKind::Star, Policy::Ua, rate, None),
                tcp(TopologyKind::Star, Policy::Ba, rate, None),
            ]
        })
        .collect()
}

/// Figure 12: 3-hop linear and the 2-session star (worst-case session).
pub fn fig12_topologies(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(fig12_topologies_specs(), opts.seeds);

    let mut t = Table::new(
        caption("fig12_topologies"),
        &["rate", "3-hop NA", "3-hop UA", "3-hop BA", "star UA", "star BA"],
    );
    let mut g3: f64 = 0.0;
    let mut gs: f64 = 0.0;
    for (rate, row) in RATES.iter().zip(&results) {
        let m = means(row);
        g3 = g3.max((m[2] / m[1] - 1.0) * 100.0);
        gs = gs.max((m[4] / m[3] - 1.0) * 100.0);
        let mut cells = vec![format!("{rate}")];
        cells.extend(m.iter().map(|&x| mbps(x)));
        t.row(cells);
    }
    t.note(format!(
        "paper: max BA-UA gap {:.1}% (3-hop), {:.1}% (star); measured {g3:.1}% / {gs:.1}%",
        paper::FIG12_3HOP_GAP_PCT,
        paper::FIG12_STAR_GAP_PCT
    ));
    t
}

// ----------------------------------------------------------------------
// Figure 13 — delayed aggregation
// ----------------------------------------------------------------------

/// Figure 13's grid: rate × (2/3-hop × BA/DBA).
pub fn fig13_delayed_specs() -> Vec<Vec<ScenarioSpec>> {
    RATES
        .iter()
        .map(|&rate| {
            [(2, Policy::Ba), (2, Policy::Dba), (3, Policy::Ba), (3, Policy::Dba)]
                .into_iter()
                .map(|(hops, pol)| tcp(TopologyKind::Linear(hops), pol, rate, None))
                .collect()
        })
        .collect()
}

/// Figure 13: BA vs DBA (relays hold for 3 frames), 2- and 3-hop.
pub fn fig13_delayed(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(fig13_delayed_specs(), opts.seeds);

    let mut t =
        Table::new(caption("fig13_delayed"), &["rate", "2-hop BA", "2-hop DBA", "3-hop BA", "3-hop DBA"]);
    for (rate, row) in RATES.iter().zip(&results) {
        let mut cells = vec![format!("{rate}")];
        cells.extend(means(row).iter().map(|&m| mbps(m)));
        t.row(cells);
    }
    t.note(format!(
        "paper: DBA ~= BA at low rates; DBA ahead by ~{:.0}% (2-hop) / ~{:.0}% (3-hop) at high rates (smaller than the authors expected)",
        paper::FIG13_GAPS_PCT.0,
        paper::FIG13_GAPS_PCT.1
    ));
    t
}

// ----------------------------------------------------------------------
// Figure 14 — forward vs backward aggregation
// ----------------------------------------------------------------------

/// Figure 14's grid: rate × NA/BA-nofwd/BA on the 3-hop chain.
pub fn fig14_no_forward_specs() -> Vec<Vec<ScenarioSpec>> {
    let three = TopologyKind::Linear(3);
    RATES
        .iter()
        .map(|&rate| {
            [Policy::Na, Policy::BaNoForward, Policy::Ba].iter().map(|&p| tcp(three, p, rate, None)).collect()
        })
        .collect()
}

/// Figure 14: 3-hop TCP with forward aggregation disabled, isolating the
/// benefit of combining opposite-direction traffic.
pub fn fig14_no_forward(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(fig14_no_forward_specs(), opts.seeds);

    let mut t =
        Table::new(caption("fig14_no_forward"), &["rate", "NA", "BA no-forward", "BA", "fwd contribution"]);
    for (rate, row) in RATES.iter().zip(&results) {
        let m = means(row);
        t.row(vec![
            format!("{rate}"),
            mbps(m[0]),
            mbps(m[1]),
            mbps(m[2]),
            format!("{:+.1}%", (m[2] / m[1] - 1.0) * 100.0),
        ]);
    }
    t.note(
        "paper: the BA vs no-forward gap widens with rate (forward aggregation matters more at high rates)",
    );
    t
}

// ----------------------------------------------------------------------
// Tables 3 & 4 — relay detail and time overhead
// ----------------------------------------------------------------------

const DETAIL_RATE: Rate = Rate::R1_30;

/// Table 3's sweep: NA/UA/BA/DBA on the 2-hop chain at the detail rate.
pub fn table3_relay_specs() -> Vec<ScenarioSpec> {
    [Policy::Na, Policy::Ua, Policy::Ba, Policy::Dba]
        .iter()
        .map(|&pol| tcp(TopologyKind::Linear(2), pol, DETAIL_RATE, None))
        .collect()
}

/// Table 3: 2-hop relay averages — frame size, transmissions relative to
/// NA, size overhead.
pub fn table3_relay(opts: &Opts) -> Table {
    let policies = [(Policy::Na, "NA"), (Policy::Ua, "UA"), (Policy::Ba, "BA"), (Policy::Dba, "DBA")];
    let results = opts.runner().run_sweep(&table3_relay_specs(), 1);
    let na_base = results[0].first().map(|r| r.report.relay().tx_data_frames as f64);

    let mut t = Table::new(
        caption("table3_relay"),
        &["policy", "size paper", "size here", "TXs paper", "TXs here", "ovh paper", "ovh here"],
    );
    for ((&(_, name), cell), (p_name, p_size, p_tx, p_ovh)) in
        policies.iter().zip(&results).zip(paper::TABLE3)
    {
        assert_eq!(name, p_name);
        let Some(run) = cell.first() else {
            let failed = cell.failed_label();
            t.row(vec![
                name.into(),
                bytes(p_size),
                failed.clone(),
                format!("{p_tx:.1}%"),
                failed.clone(),
                format!("{p_ovh:.2}%"),
                failed,
            ]);
            continue;
        };
        let rel = run.report.relay();
        let txs = match na_base {
            Some(base) => format!("{:.1}%", rel.tx_data_frames as f64 / base * 100.0),
            // The NA baseline cell failed: the ratio is uncomputable.
            None => results[0].failed_label(),
        };
        t.row(vec![
            name.into(),
            bytes(p_size),
            bytes(rel.avg_frame_size),
            format!("{p_tx:.1}%"),
            txs,
            format!("{p_ovh:.2}%"),
            pct(rel.size_overhead),
        ]);
    }
    t.note("single 0.2 MB transfer at 1.3 Mbps, one seed (the paper does not state its rate)");
    t
}

/// Table 4's grid: the paper's rates × NA/UA/BA/DBA on the 2-hop chain.
pub fn table4_time_overhead_specs() -> Vec<Vec<ScenarioSpec>> {
    let policies = [Policy::Na, Policy::Ua, Policy::Ba, Policy::Dba];
    paper::TABLE4
        .iter()
        .map(|&(p_rate, ..)| {
            let rate = RATES.iter().find(|r| r.mbps() == p_rate).copied().unwrap();
            policies.iter().map(|&pol| tcp(TopologyKind::Linear(2), pol, rate, None)).collect()
        })
        .collect()
}

/// Table 4: 2-hop relay time overhead by rate and policy.
pub fn table4_time_overhead(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(table4_time_overhead_specs(), 1);

    let mut t = Table::new(caption("table4_time_overhead"), &["rate", "NA", "UA", "BA", "DBA"]);
    for ((p_rate, p_na, p_ua, p_ba, p_dba), row) in paper::TABLE4.iter().zip(&results) {
        let rate = RATES.iter().find(|r| r.mbps() == *p_rate).copied().unwrap();
        let mut cells = vec![format!("{rate}")];
        for (p, cell) in [p_na, p_ua, p_ba, p_dba].into_iter().zip(row) {
            cells.push(cell.cell_with(|r| format!("{p:.1} / {:.1}", r.report.time_overhead_pct(1))));
        }
        t.row(cells);
    }
    t.note(
        "overhead = (headers + control + DIFS + SIFS + backoff) / total attributable airtime at the relay",
    );
    t.note("the paper's exact ledger is unspecified; orderings and trends are the reproduced claims");
    t
}

// ----------------------------------------------------------------------
// Tables 5–7 — star vs 2-hop relay comparison
// ----------------------------------------------------------------------

/// Tables 5–7's sweep: one NA baseline + (2-hop, star) per policy.
pub fn table5_6_7_star_specs() -> Vec<ScenarioSpec> {
    let mut specs = vec![tcp(TopologyKind::Linear(2), Policy::Na, DETAIL_RATE, None)];
    for pol in [Policy::Ua, Policy::Ba] {
        specs.push(tcp(TopologyKind::Linear(2), pol, DETAIL_RATE, None));
        specs.push(tcp(TopologyKind::Star, pol, DETAIL_RATE, None));
    }
    specs
}

/// Tables 5, 6, 7: relay frame size / size overhead / TX percentage,
/// 2-hop vs star.
pub fn table5_6_7_star(opts: &Opts) -> Vec<Table> {
    let policies = [(Policy::Ua, "UA"), (Policy::Ba, "BA")];
    let results = opts.runner().run_sweep(&table5_6_7_star_specs(), 1);

    let mut size_t = Table::new("Table 5 — relay frame size (paper / here, B)", &["policy", "2-hop", "star"]);
    let mut ovh_t =
        Table::new("Table 6 — relay size overhead (paper / here, %)", &["policy", "2-hop", "star"]);
    let mut tx_t =
        Table::new("Table 7 — relay TXs relative to NA (paper / here, %)", &["policy", "2-hop", "star"]);
    // Every column is a ratio against the shared NA baseline, so a
    // single failed cell makes the whole comparison uncomputable:
    // degrade all three tables explicitly rather than abort the grid.
    if let Some(bad) = results.iter().find(|c| c.first().is_none()) {
        let label = bad.failed_label();
        for t in [&mut size_t, &mut ovh_t, &mut tx_t] {
            t.note(format!("unavailable: a replication {label}; rerun after the failure is fixed"));
        }
        return vec![size_t, ovh_t, tx_t];
    }
    let first = |i: usize| results[i].first().expect("no failures past the guard");
    let na2 = first(0).report.relay().tx_data_frames as f64;
    // Paper convention: star NA baseline = 2x the 2-hop NA count.
    let na_star = na2 * 2.0;
    for (i, (_, name)) in policies.into_iter().enumerate() {
        let r2 = first(1 + 2 * i).report.relay();
        let rs = first(2 + 2 * i).report.relay();
        size_t.row(vec![
            name.into(),
            format!("{:.0} / {:.0}", paper::TABLE5[i].1, r2.avg_frame_size),
            format!("{:.0} / {:.0}", paper::TABLE5[i].2, rs.avg_frame_size),
        ]);
        ovh_t.row(vec![
            name.into(),
            format!("{:.2} / {:.2}", paper::TABLE6[i].1, r2.size_overhead * 100.0),
            format!("{:.2} / {:.2}", paper::TABLE6[i].2, rs.size_overhead * 100.0),
        ]);
        tx_t.row(vec![
            name.into(),
            format!("{:.1} / {:.1}", paper::TABLE7[i].1, r2.tx_data_frames as f64 / na2 * 100.0),
            format!("{:.1} / {:.1}", paper::TABLE7[i].2, rs.tx_data_frames as f64 / na_star * 100.0),
        ]);
    }
    size_t.note("paper: UA size barely changes 2-hop->star; BA grows (cross-session ACK aggregation)");
    tx_t.note("star NA baseline follows the paper's 2x-2-hop convention (they had no star NA run; we do — see EXPERIMENTS.md)");
    vec![size_t, ovh_t, tx_t]
}

// ----------------------------------------------------------------------
// Table 8 — frame sizes at every node
// ----------------------------------------------------------------------

/// Table 8's grid: UA/BA × 2-hop/3-hop at the detail rate.
pub fn table8_frame_sizes_specs() -> Vec<Vec<ScenarioSpec>> {
    [Policy::Ua, Policy::Ba]
        .iter()
        .map(|&pol| {
            vec![
                tcp(TopologyKind::Linear(2), pol, DETAIL_RATE, None),
                tcp(TopologyKind::Linear(3), pol, DETAIL_RATE, None),
            ]
        })
        .collect()
}

/// Table 8: average frame size at server / relay(s) / client for 2-hop
/// and 3-hop chains under UA and BA.
pub fn table8_frame_sizes(opts: &Opts) -> Table {
    let policies = [(Policy::Ua, "UA"), (Policy::Ba, "BA")];
    let results = opts.runner().run_grid(table8_frame_sizes_specs(), 1);

    let mut t = Table::new(
        caption("table8_frame_sizes"),
        &["policy", "server(2)", "relay(2)", "client(2)", "server(3)", "relay1(3)", "relay2(3)", "client(3)"],
    );
    for ((i, (_, name)), row) in policies.into_iter().enumerate().zip(&results) {
        let (Some(two), Some(three)) = (row[0].first(), row[1].first()) else {
            let mark = |c: &CellResult| {
                if c.first().is_none() {
                    c.failed_label()
                } else {
                    "-".to_string()
                }
            };
            let (m2, m3) = (mark(&row[0]), mark(&row[1]));
            t.row(vec![name.into(), m2.clone(), m2.clone(), m2, m3.clone(), m3.clone(), m3.clone(), m3]);
            continue;
        };
        let (two, three) = (&two.report, &three.report);
        let p = paper::TABLE8[i].1;
        let g = |r: &hydra_netsim::RunReport, n: usize| r.nodes[n].avg_frame_size;
        t.row(vec![
            name.into(),
            format!("{:.0} / {:.0}", p[0], g(two, 0)),
            format!("{:.0} / {:.0}", p[1], g(two, 1)),
            format!("{:.0} / {:.0}", p[2], g(two, 2)),
            format!("{:.0} / {:.0}", p[3], g(three, 0)),
            format!("{:.0} / {:.0}", p[4], g(three, 1)),
            format!("{:.0} / {:.0}", p[5], g(three, 2)),
            format!("{:.0} / {:.0}", p[6], g(three, 3)),
        ]);
    }
    t.note("paper: servers ~2-3 subframe aggregates; clients 2-3 ACK clumps; relay aggregation deepens with hops");
    t
}

// ----------------------------------------------------------------------
// Extension — topologies beyond the paper (grid & cross)
// ----------------------------------------------------------------------

/// The topology extension's grid: rate × (grid/cross × UA/BA).
pub fn ext_topologies_specs() -> Vec<Vec<ScenarioSpec>> {
    let kinds = [TopologyKind::Grid { w: 3, h: 2 }, TopologyKind::Cross];
    [Rate::R1_30, Rate::R2_60]
        .iter()
        .map(|&rate| {
            kinds.iter().flat_map(|&k| [Policy::Ua, Policy::Ba].map(|p| tcp(k, p, rate, None))).collect()
        })
        .collect()
}

/// Extension: the paper stops at 3-hop chains and the star; the
/// declarative topology layer makes larger shapes one variant away.
/// A 3×2 grid (corner-to-corner session, 3 hops under x-first routing)
/// and a cross (two sessions sharing one relay) under UA vs BA.
pub fn ext_topologies(opts: &Opts) -> Table {
    let rates = [Rate::R1_30, Rate::R2_60];
    let results = opts.runner().run_grid(ext_topologies_specs(), opts.seeds);

    let mut t =
        Table::new(caption("ext_topologies"), &["rate", "grid UA", "grid BA", "cross UA", "cross BA"]);
    for (rate, row) in rates.iter().zip(&results) {
        let mut cells = vec![format!("{rate}")];
        cells.extend(means(row).iter().map(|&m| mbps(m)));
        t.row(cells);
    }
    t.note(
        "grid: 3x2, corner-to-corner (3 hops x-first); cross: west->east and north->south sharing one relay",
    );
    t.note("worst session reported for the cross, matching the paper's star convention");
    t.note("grid caveat: x-first routing makes the data (0->1->2->5) and ACK (5->4->3->0) paths");
    t.note("relay-disjoint, so grid BA gains come from ACK broadcast classification alone — the cross");
    t.note("isolates the cross-direction relay aggregation the grid cannot show");
    t
}

// ----------------------------------------------------------------------
// Extension — spatial medium: reuse on long chains, hidden terminals
// ----------------------------------------------------------------------

const EXT_SPATIAL_LENGTHS: [usize; 4] = [4, 6, 8, 12];
const EXT_SPATIAL_SPACINGS: [f64; 3] = [2.5, 5.0, 7.0];

/// The spatial-reuse grid: chain length × medium × NA/BA (UDP
/// saturation, 1.3 Mbps, 5 m spacing).
pub fn ext_spatial_reuse_specs() -> Vec<Vec<ScenarioSpec>> {
    let cell = |hops: usize, policy: Policy, medium: MediumKind| {
        let mut spec = udp(hops, policy, Rate::R1_30, 10_000);
        spec.medium = medium;
        spec
    };
    EXT_SPATIAL_LENGTHS
        .iter()
        .map(|&hops| {
            let spatial = MediumKind::Spatial { spacing_m: 5.0 };
            vec![
                cell(hops, Policy::Na, MediumKind::SharedDomain),
                cell(hops, Policy::Ba, MediumKind::SharedDomain),
                cell(hops, Policy::Na, spatial),
                cell(hops, Policy::Ba, spatial),
            ]
        })
        .collect()
}

/// The RTS/CTS-crossover grid: spacing × handshake on/off (3-hop UDP,
/// 0.65 Mbps so marginal links still decode).
pub fn ext_spatial_rts_specs() -> Vec<Vec<ScenarioSpec>> {
    EXT_SPATIAL_SPACINGS
        .iter()
        .map(|&spacing_m| {
            [true, false]
                .into_iter()
                .map(|rts| {
                    let mut spec = udp(3, Policy::Ba, Rate::R0_65, 16_000);
                    spec.medium = MediumKind::Spatial { spacing_m };
                    spec.rts_cts = rts;
                    spec
                })
                .collect()
        })
        .collect()
}

/// Extension: the paper's testbed packs every node into one
/// carrier-sense domain, so multi-hop behaviour is pure scheduling. The
/// spatial medium scales the chain's geometry instead; two effects the
/// bench could never show appear:
///
/// * **Spatial reuse** — once the chain outgrows the interference
///   footprint (≈4 hops at 5 m spacing under the hydra link budget),
///   far-apart links transmit concurrently and aggregate goodput beats
///   the single-domain equivalent, with the gap widening per hop.
/// * **Hidden terminals & the RTS/CTS crossover** — at 2.5 m everything
///   senses everything and the handshake is pure overhead (the paper's
///   regime); at 7 m two-hop neighbours leave carrier-sense range while
///   still delivering to the node between them, and RTS/CTS flips from
///   cost to large win.
pub fn ext_spatial(opts: &Opts) -> Vec<Table> {
    let runner = opts.runner();

    // Table A — chain length × medium × policy (UDP saturation, 1.3 Mbps,
    // 5 m spacing: adjacent links are clean, interference spans ~2 hops).
    let lengths = EXT_SPATIAL_LENGTHS;
    let results = runner.run_grid(ext_spatial_reuse_specs(), 1);

    let mut reuse = Table::new(
        caption("ext_spatial_reuse"),
        &["hops", "shared NA", "shared BA", "spatial NA", "spatial BA", "BA spatial gain"],
    );
    for (hops, row) in lengths.iter().zip(&results) {
        let mut cells = vec![format!("{hops}")];
        cells.extend(row.iter().map(|c| c.cell_with(|r| mbps(r.throughput_bps))));
        cells.push(match (row[1].first(), row[3].first()) {
            (Some(shared), Some(spatial)) => {
                format!("{:+.1}%", (spatial.throughput_bps / shared.throughput_bps - 1.0) * 100.0)
            }
            _ => "-".to_string(),
        });
        reuse.row(cells);
    }
    reuse.note(
        "5 m spacing: delivery 1 hop, carrier sense ~2 hops; beyond ~4 hops far links transmit concurrently",
    );
    reuse.note("short chains lose to interference CS cannot see; long chains win on pipelining — the gain grows per hop");

    // Table B — spacing × RTS/CTS (3-hop chain, 0.65 Mbps so marginal
    // links still decode). 7 m: adjacent nodes deliver but two-hop
    // neighbours cannot sense each other — classic hidden terminals.
    let spacings = EXT_SPATIAL_SPACINGS;
    let results = runner.run_grid(ext_spatial_rts_specs(), 1);

    let mut rts = Table::new(
        caption("ext_spatial_rts"),
        &["spacing (m)", "RTS/CTS on", "RTS/CTS off", "handshake effect"],
    );
    for (spacing, row) in spacings.iter().zip(&results) {
        let effect = match (row[0].first(), row[1].first()) {
            (Some(on), Some(off)) => {
                format!("{:+.1}%", (on.throughput_bps / off.throughput_bps - 1.0) * 100.0)
            }
            _ => "-".to_string(),
        };
        rts.row(vec![
            format!("{spacing}"),
            row[0].cell_with(|r| mbps(r.throughput_bps)),
            row[1].cell_with(|r| mbps(r.throughput_bps)),
            effect,
        ]);
    }
    rts.note("2.5 m: one carrier-sense domain, the handshake is pure overhead (paper regime)");
    rts.note(
        "7 m: hidden terminals — senders two hops apart cannot sense each other, RTS/CTS recovers the relay",
    );
    vec![reuse, rts]
}

// ----------------------------------------------------------------------
// Extension — heterogeneous traffic: TCP foreground vs CBR background
// ----------------------------------------------------------------------

/// Background CBR inter-packet intervals swept by `ext_mixed`
/// (`None` = no background). 160 B payloads: VoIP-sized datagrams, the
/// many-small-frames regime aggregation targets.
const EXT_MIXED_BG_MS: [Option<u64>; 4] = [None, Some(20), Some(10), Some(5)];
const EXT_MIXED_BG_PAYLOAD: usize = 160;

/// One mixed cell: the paper's 0.2 MB transfer over the 2-hop chain at
/// 1.3 Mbps, plus (optionally) a same-path CBR background flow. The
/// mixed horizon is 1 s warmup + 20 s window.
fn ext_mixed_cell(policy: Policy, bg_interval_ms: Option<u64>) -> ScenarioSpec {
    let mut spec = tcp(TopologyKind::Linear(2), policy, Rate::R1_30, None);
    spec.warmup = Duration::from_secs(1);
    spec.duration = Duration::from_secs(20);
    if let Some(ms) = bg_interval_ms {
        spec = spec.add_flow(FlowSpec {
            src: 0,
            dst: 2,
            port: 9000,
            traffic: FlowTraffic::Cbr { interval: Duration::from_millis(ms), payload: EXT_MIXED_BG_PAYLOAD },
        });
    }
    spec
}

/// The mixed-traffic grid: background intensity × NA/UA/BA.
pub fn ext_mixed_specs() -> Vec<Vec<ScenarioSpec>> {
    EXT_MIXED_BG_MS
        .iter()
        .map(|&bg| [Policy::Na, Policy::Ua, Policy::Ba].iter().map(|&p| ext_mixed_cell(p, bg)).collect())
        .collect()
}

/// Mean throughput of flow `idx` across a cell's *successful*
/// replications, bit/s; 0.0 when none survived.
fn mean_flow_bps(cell: &CellResult, idx: usize) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for r in cell.ok_runs() {
        sum += r.per_flow[idx].bps;
        n += 1;
    }
    if n > 0 {
        sum / f64::from(n)
    } else {
        0.0
    }
}

/// Extension: the per-flow traffic engine runs a TCP file transfer and
/// a small-frame CBR background flow in *one* world — the heterogeneous
/// mix the paper's premise is about (many small frames contending with
/// bulk data) but its run-global harness could not express. As the
/// background intensifies, the channel fills with tiny frames whose
/// per-frame overhead aggregation amortises: the BA-over-NA foreground
/// gain should *grow* with background load, and BA should also deliver
/// more of the background itself.
pub fn ext_mixed(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(ext_mixed_specs(), opts.seeds);

    let mut t = Table::new(
        caption("ext_mixed"),
        &["background", "NA tcp", "NA cbr", "UA tcp", "UA cbr", "BA tcp", "BA cbr", "BA/NA tcp"],
    );
    for (bg, row) in EXT_MIXED_BG_MS.iter().zip(&results) {
        let label = match bg {
            None => "none".to_string(),
            Some(ms) => {
                let offered = EXT_MIXED_BG_PAYLOAD as f64 * 8.0 / (*ms as f64 / 1e3);
                format!("{EXT_MIXED_BG_PAYLOAD}B/{ms}ms ({:.0} kb/s)", offered / 1e3)
            }
        };
        let mut cells = vec![label];
        // Flow 0 is the transfer, flow 1 (when present) the background.
        for cell in row {
            if cell.first().is_none() {
                cells.push(cell.failed_label());
                cells.push(cell.failed_label());
                continue;
            }
            let starved = cell.ok_runs().any(|r| !r.completed);
            cells.push(format!("{}{}", mbps(mean_flow_bps(cell, 0)), if starved { "*" } else { "" }));
            cells.push(if cell.spec.effective_flows().len() > 1 {
                mbps(mean_flow_bps(cell, 1))
            } else {
                "-".into()
            });
        }
        let (na, ba) = (mean_flow_bps(&row[0], 0), mean_flow_bps(&row[2], 0));
        cells.push(if row[0].first().is_none() || row[2].first().is_none() {
            "-".into()
        } else if na > 0.0 {
            format!("{:+.1}%", (ba / na - 1.0) * 100.0)
        } else {
            "NA starved".into()
        });
        t.row(cells);
    }
    t.note("one world per cell: 0.2 MB transfer 0->2:5001 + CBR background 0->2:9000 (160 B datagrams)");
    t.note("mixed semantics: CBR measures over [1s, 21s]; the transfer must finish by the horizon");
    t.note("expectation: the BA/NA foreground gain grows with background intensity (small frames");
    t.note("are where aggregation pays); BA also sustains more of the background itself");
    t.note("* = some replication's transfer missed the horizon (the policy starved the foreground)");
    t
}

// ----------------------------------------------------------------------
// Extension — thousand-node worlds: mesh scale under NA / UA / BA
// ----------------------------------------------------------------------

/// The `ext_scale` meshes: `(nodes, side_m)` at roughly constant node
/// density (`side ≈ 5.73·√nodes`, ~6 delivery-range neighbours each),
/// so growing the node count grows the *extent* of the network, not
/// its local contention. All three stay one collision domain — the
/// carrier-sense graph is connected — which is exactly the regime the
/// sparse medium (not sharding) accelerates.
const EXT_SCALE_MESHES: [(usize, u32); 3] = [(100, 58), (300, 100), (1000, 182)];
const EXT_SCALE_SEED: u64 = 7;
/// Per-flow CBR load: 160 B datagrams every 250 ms (~5 kb/s offered).
/// Anything heavier collapses large meshes into hidden-terminal losses
/// that flatten every policy to zero.
const EXT_SCALE_CBR_MS: u64 = 250;
const EXT_SCALE_CBR_PAYLOAD: usize = 160;
/// Every 4th default flow becomes a TCP file transfer of this size —
/// the foreground the ACK policies actually differentiate on (UA/BA
/// only diverge where TCP ACKs exist to aggregate or broadcast).
const EXT_SCALE_TCP_BYTES: usize = 6 * 1024;

/// One scale cell: a constant-density random mesh with its default
/// routable flows (`nodes/4` of them), light CBR background, and every
/// 4th flow upgraded to a TCP transfer.
fn ext_scale_cell(nodes: usize, side_m: u32, policy: Policy) -> ScenarioSpec {
    let kind = TopologyKind::RandomMesh { nodes, area_m: side_m, seed: EXT_SCALE_SEED };
    let interval = Duration::from_millis(EXT_SCALE_CBR_MS);
    let mut spec = ScenarioSpec::udp(kind, policy, Rate::R1_30, interval).spatial(1.0);
    spec.traffic = hydra_netsim::Traffic::Cbr { interval, payload: EXT_SCALE_CBR_PAYLOAD };
    spec.warmup = Duration::from_millis(500);
    spec.duration = Duration::from_millis(2500);
    let mut flows = spec.effective_flows();
    for f in flows.iter_mut().step_by(4) {
        f.traffic = FlowTraffic::FileTransfer { bytes: EXT_SCALE_TCP_BYTES };
    }
    spec.with_flow_specs(flows)
}

/// The scale grid: mesh size × NA/UA/BA.
pub fn ext_scale_specs() -> Vec<Vec<ScenarioSpec>> {
    EXT_SCALE_MESHES
        .iter()
        .map(|&(n, side)| {
            [Policy::Na, Policy::Ua, Policy::Ba].iter().map(|&p| ext_scale_cell(n, side, p)).collect()
        })
        .collect()
}

/// Mean per-flow goodput (bit/s) over a cell's replications of one
/// flow class (`file` selects transfers vs CBR) — plus how many of
/// that class completed (file flows) or delivered anything (window
/// flows) in the first replication.
fn flow_class_stats(cell: &CellResult, file: bool) -> (f64, usize, usize) {
    let mut sum = 0.0;
    let mut count = 0;
    for run in cell.ok_runs() {
        for f in run.per_flow.iter().filter(|f| f.flow.traffic.is_file() == file) {
            sum += f.bps;
            count += 1;
        }
    }
    let Some(first_run) = cell.first() else {
        return (0.0, 0, 0);
    };
    let first = &first_run.per_flow;
    let total = first.iter().filter(|f| f.flow.traffic.is_file() == file).count();
    let good = first
        .iter()
        .filter(|f| f.flow.traffic.is_file() == file)
        .filter(|f| if file { f.completed_at.is_some() } else { f.bps > 0.0 })
        .count();
    (if count == 0 { 0.0 } else { sum / count as f64 }, good, total)
}

/// Extension: the paper's policies at mesh scale — 100/300/1000-node
/// random meshes, hundreds of concurrent flows, greedy-geographic
/// multi-hop routes. Feasible at all because the sparse spatial medium
/// keeps per-transmission work proportional to the neighbourhood, not
/// the world (see `--bin profile --scale` for the engine-level
/// numbers). BA keeps the best mean TCP goodput at every scale, but
/// far more weakly than on the paper's 2-hop chain: hidden-terminal
/// collisions dominate, and the pure-UDP background is policy-blind —
/// there are no TCP ACKs on those flows to aggregate or broadcast.
pub fn ext_scale(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(ext_scale_specs(), opts.seeds);

    let mut t = Table::new(
        caption("ext_scale"),
        &["mesh", "flows", "NA tcp", "UA tcp", "BA tcp", "NA cbr", "UA cbr", "BA cbr"],
    );
    let kbps = |bps: f64| format!("{:.1}", bps / 1e3);
    for ((nodes, side), row) in EXT_SCALE_MESHES.iter().zip(&results) {
        let (_, _, tcp_n) = flow_class_stats(&row[0], true);
        let (_, _, cbr_n) = flow_class_stats(&row[0], false);
        let mut cells = vec![format!("{nodes} nodes / {side} m"), format!("{tcp_n} tcp + {cbr_n} cbr")];
        for cell in row {
            cells.push(cell.cell_with(|_| {
                let (bps, done, n) = flow_class_stats(cell, true);
                format!("{} ({done}/{n})", kbps(bps))
            }));
        }
        for cell in row {
            cells.push(cell.cell_with(|_| {
                let (bps, alive, n) = flow_class_stats(cell, false);
                format!("{} ({alive}/{n})", kbps(bps))
            }));
        }
        t.row(cells);
    }
    t.note("constant-density meshes (~6 delivery neighbours), greedy-geographic routes, seed 7");
    t.note("tcp = mean per-flow kb/s over 6 KB transfers (completed/total, first seed);");
    t.note("cbr = mean per-flow kb/s of 160 B / 250 ms background (delivering/total)");
    t.note("BA keeps the best mean TCP goodput at every scale, but gains are noisy next to the");
    t.note("2-hop chain's: hidden-terminal collisions dominate, and the UDP background is");
    t.note("policy-blind — no TCP ACKs ride those flows, so NA/UA/BA tie on cbr columns");
    t
}

/// The `--bin profile --scale` workload: one pure-CBR cell per node
/// count, constant density, default mesh flows (`nodes/4` concurrent
/// CBR flows at 160 B / 120 ms). Pure window-measured traffic so the
/// dense-reference replay is horizon-bounded and event counts stay
/// deterministic. Returns `(nodes, spec)` rows in ascending size.
///
/// Node counts are chosen to bracket the dense backend's collapse: on
/// one core the sparse medium alone crosses 4× at ≈350 nodes and
/// reaches >10× at 1000 (sharding adds nothing here — these meshes are
/// one collision domain, and the profiling hosts are small); the
/// 100-node row documents the near-crossover regime.
pub fn scale_profile_specs() -> Vec<(usize, ScenarioSpec)> {
    [(100usize, 58u32), (400, 115), (700, 152), (1000, 182)]
        .iter()
        .map(|&(nodes, side)| {
            let kind = TopologyKind::RandomMesh { nodes, area_m: side, seed: EXT_SCALE_SEED };
            let interval = Duration::from_millis(120);
            let mut spec = ScenarioSpec::udp(kind, Policy::Ba, Rate::R1_30, interval).spatial(1.0);
            spec.traffic = hydra_netsim::Traffic::Cbr { interval, payload: EXT_SCALE_CBR_PAYLOAD };
            spec.warmup = Duration::from_millis(500);
            spec.duration = Duration::from_secs(2);
            (nodes, spec)
        })
        .collect()
}

// ----------------------------------------------------------------------
// Extension — bursty channels: Gilbert–Elliott vs independent loss
// ----------------------------------------------------------------------

/// Mean residual per-subframe loss probabilities swept by `ext_burst`.
const EXT_BURST_MEANS: [f64; 3] = [0.02, 0.05, 0.1];
/// Burst shape shared by every bursty cell: stationary bad-state
/// probability `π_b = p_gb/(p_gb+p_bg) = 0.1`, mean burst length
/// `1/p_bg ≈ 2.2` transmissions — loss clustered ~10× above its mean
/// rate while inside a burst.
const EXT_BURST_P_GB: f64 = 0.05;
const EXT_BURST_P_BG: f64 = 0.45;

/// One cell: the paper's canonical 2-hop TCP chain under a given
/// residual link-error model (None = the clean baseline row).
fn ext_burst_cell(policy: Policy, model: Option<hydra_phy::LinkErrorModel>) -> ScenarioSpec {
    let mut spec = tcp(TopologyKind::Linear(2), policy, Rate::R1_30, None);
    spec.link_error = model.map(hydra_netsim::LinkErrorSpec::model);
    spec
}

/// The burst grid: one clean row, then per mean loss rate an
/// independent row and a matched-mean Gilbert–Elliott row, each
/// × NA/UA/BA.
pub fn ext_burst_specs() -> Vec<Vec<ScenarioSpec>> {
    let mut rows: Vec<Option<hydra_phy::LinkErrorModel>> = vec![None];
    for &mean in &EXT_BURST_MEANS {
        rows.push(Some(hydra_phy::LinkErrorModel::Independent { ber: mean }));
        rows.push(Some(hydra_phy::LinkErrorModel::bursty_with_mean(mean, EXT_BURST_P_GB, EXT_BURST_P_BG)));
    }
    rows.into_iter()
        .map(|m| [Policy::Na, Policy::Ua, Policy::Ba].iter().map(|&p| ext_burst_cell(p, m)).collect())
        .collect()
}

/// Extension (beyond the paper): aggregation under *bursty* residual
/// loss. The paper's testbed loss is well modelled as independent;
/// real multi-hop channels cluster errors. The sweep's shape (and the
/// genuinely-new result): independent per-subframe loss taxes
/// aggregation specifically — a k-subframe aggregate takes a hit with
/// probability `1-(1-p)^k`, so UA's lead over NA erodes and even
/// inverts as p grows — while the *same mean loss* clustered into
/// short bursts leaves most aggregates untouched and preserves the
/// clean-channel ordering. The extreme corner (bad-state loss 1.0,
/// i.e. blackout bursts) instead exposes BA's one-shot broadcast
/// ACKs, which are never retransmitted.
pub fn ext_burst(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(ext_burst_specs(), opts.seeds);

    let mut t = Table::new(caption("ext_burst"), &["loss model", "mean", "NA", "UA", "BA", "UA/NA"]);
    let mut labels = vec![("clean".to_string(), 0.0)];
    for &mean in &EXT_BURST_MEANS {
        labels.push(("independent".to_string(), mean));
        labels.push(("bursty".to_string(), mean));
    }
    for ((label, mean), row) in labels.iter().zip(&results) {
        let m = means(row);
        let (na, ua, ba) = (m[0], m[1], m[2]);
        t.row(vec![
            label.clone(),
            if *mean == 0.0 { "-".into() } else { format!("{:.0}%", mean * 100.0) },
            mbps(na),
            mbps(ua),
            mbps(ba),
            format!("{:.2}x", ua / na),
        ]);
    }
    t.note(format!(
        "bursty = Gilbert–Elliott p_gb={EXT_BURST_P_GB}, p_bg={EXT_BURST_P_BG} (10% bad-state \
         occupancy, mean burst ~2.2 frames), bad-state loss scaled to match the row's mean"
    ));
    t.note("beyond the paper: independent loss taxes aggregation specifically (a k-subframe aggregate");
    t.note("is hit with probability 1-(1-p)^k), eroding UA's lead over NA as p grows; the same mean");
    t.note("loss clustered into bursts leaves most aggregates clean and preserves the lead. The 10%");
    t.note("bursty corner is blackout bursts (bad-state loss 1.0): they punish BA's one-shot broadcast ACKs");
    t
}

// ----------------------------------------------------------------------
// Ablations (design choices + the paper's future work, DESIGN.md §7/§8)
// ----------------------------------------------------------------------

const ABLATION_BLOCK_SIZES_KB: [usize; 4] = [5, 8, 11, 14];

/// The block-ACK ablation's grid: oversized cap × normal/block ACK.
pub fn ablation_block_ack_specs() -> Vec<Vec<ScenarioSpec>> {
    ABLATION_BLOCK_SIZES_KB
        .iter()
        .map(|&kb| {
            [AckPolicy::Normal, AckPolicy::Block]
                .into_iter()
                .map(|ack| {
                    let mut spec = tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30, None);
                    spec.max_aggregate = kb * 1024;
                    spec.ack_policy = ack;
                    spec
                })
                .collect()
        })
        .collect()
}

/// Ablation: block ACK (paper §7 future work) vs all-or-nothing, under an
/// oversized aggregation cap that crosses the coherence cliff.
pub fn ablation_block_ack(opts: &Opts) -> Table {
    let sizes_kb = ABLATION_BLOCK_SIZES_KB;
    let results = opts.runner().run_grid(ablation_block_ack_specs(), 1);

    let mut t = Table::new(caption("ablation_block_ack"), &["max agg (KB)", "normal ACK", "block ACK"]);
    for (kb, row) in sizes_kb.iter().zip(&results) {
        let mut cells = vec![format!("{kb}")];
        cells.extend(row.iter().map(|c| c.cell_with(|r| mbps(r.throughput_bps))));
        t.row(cells);
    }
    t.note("block ACK retries only failed subframes, so it degrades gracefully past the cliff");
    t
}

/// The sizing ablation's grid: rate × (fixed 5 KB, coherence budget).
pub fn ablation_rate_adaptive_sizing_specs() -> Vec<Vec<ScenarioSpec>> {
    RATES
        .iter()
        .map(|&rate| {
            let fixed = tcp(TopologyKind::Linear(2), Policy::Ba, rate, None);
            let mut budget = fixed.clone();
            budget.sizing = Some(AggSizing::CoherenceBudget(110_000));
            vec![fixed, budget]
        })
        .collect()
}

/// Ablation: rate-adaptive aggregate sizing (paper §7) — spend a fixed
/// sample budget instead of a fixed byte cap.
pub fn ablation_rate_adaptive_sizing(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(ablation_rate_adaptive_sizing_specs(), opts.seeds);

    let mut t =
        Table::new(caption("ablation_rate_adaptive_sizing"), &["rate", "fixed 5 KB", "110 Ksample budget"]);
    for (rate, row) in RATES.iter().zip(&results) {
        let m = means(row);
        t.row(vec![format!("{rate}"), mbps(m[0]), mbps(m[1])]);
    }
    t.note("at high rates the sample budget admits larger aggregates than 5 KB, recovering headroom the fixed cap leaves");
    t
}

const ABLATION_FLUSHES_MS: [u64; 5] = [2, 5, 10, 20, 40];

/// The DBA-flush ablation's grid: row 0 holds the BA baselines, the
/// remaining rows DBA at each flush timeout (2- and 3-hop columns).
pub fn ablation_dba_flush_specs() -> Vec<Vec<ScenarioSpec>> {
    let mut grid: Vec<Vec<ScenarioSpec>> = vec![[2usize, 3]
        .iter()
        .map(|&h| tcp(TopologyKind::Linear(h), Policy::Ba, Rate::R2_60, None))
        .collect()];
    for &flush_ms in &ABLATION_FLUSHES_MS {
        grid.push(
            [2usize, 3]
                .iter()
                .map(|&h| {
                    let mut spec = tcp(TopologyKind::Linear(h), Policy::Dba, Rate::R2_60, None);
                    spec.flush_timeout = Some(Duration::from_millis(flush_ms));
                    spec
                })
                .collect(),
        );
    }
    grid
}

/// Ablation: DBA flush-timeout sensitivity (DESIGN.md §7 — the paper
/// leaves the deadlock guard unspecified).
pub fn ablation_dba_flush(opts: &Opts) -> Table {
    let flushes_ms = ABLATION_FLUSHES_MS;
    let mut results = opts.runner().run_grid(ablation_dba_flush_specs(), opts.seeds);
    let ba = means(&results.remove(0));

    let mut t = Table::new(caption("ablation_dba_flush"), &["flush (ms)", "2-hop DBA", "3-hop DBA"]);
    for (flush_ms, row) in flushes_ms.iter().zip(&results) {
        let m = means(row);
        t.row(vec![format!("{flush_ms}"), mbps(m[0]), mbps(m[1])]);
    }
    t.note(format!("BA baselines: 2-hop {}, 3-hop {} Mbps", mbps(ba[0]), mbps(ba[1])));
    t.note("longer flushes trade aggregation depth against head-of-line delay");
    t
}

/// The RTS/CTS ablation's grid: rate × handshake on/off.
pub fn ablation_rts_cts_specs() -> Vec<Vec<ScenarioSpec>> {
    RATES
        .iter()
        .map(|&rate| {
            let with = tcp(TopologyKind::Linear(2), Policy::Ba, rate, None);
            let mut without = with.clone();
            without.rts_cts = false;
            vec![with, without]
        })
        .collect()
}

/// Ablation: RTS/CTS on vs off (the paper always uses RTS/CTS; all nodes
/// are in carrier-sense range, so the handshake is pure overhead here).
pub fn ablation_rts_cts(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(ablation_rts_cts_specs(), opts.seeds);

    let mut t = Table::new(caption("ablation_rts_cts"), &["rate", "with RTS/CTS", "without"]);
    for (rate, row) in RATES.iter().zip(&results) {
        let m = means(row);
        t.row(vec![format!("{rate}"), mbps(m[0]), mbps(m[1])]);
    }
    t.note("without hidden terminals the handshake costs two control frames + two SIFS per exchange");
    t
}

/// The delayed-ACK ablation's grid: rate × (per-segment, delayed).
pub fn ablation_delayed_ack_specs() -> Vec<Vec<ScenarioSpec>> {
    RATES
        .iter()
        .map(|&rate| {
            let per_seg = tcp(TopologyKind::Linear(2), Policy::Ba, rate, None);
            let mut delayed = per_seg.clone();
            delayed.tcp.delayed_ack = true;
            vec![per_seg, delayed]
        })
        .collect()
}

/// Ablation: delayed ACKs at the TCP receiver (off in the paper — its
/// client ACKs every segment; delayed ACKs halve the ACK stream and so
/// shrink the backward-aggregation benefit).
pub fn ablation_delayed_ack(opts: &Opts) -> Table {
    let results = opts.runner().run_grid(ablation_delayed_ack_specs(), opts.seeds);

    let mut t =
        Table::new(caption("ablation_delayed_ack"), &["rate", "ACK per segment (paper)", "delayed ACKs"]);
    for (rate, row) in RATES.iter().zip(&results) {
        let m = means(row);
        t.row(vec![format!("{rate}"), mbps(m[0]), mbps(m[1])]);
    }
    t
}

const ABLATION_POSITION_SIZES_KB: [usize; 3] = [5, 7, 9];

/// The positional-protection ablation's sweep: oversized caps at
/// 0.65 Mbps.
pub fn ablation_broadcast_position_specs() -> Vec<ScenarioSpec> {
    ABLATION_POSITION_SIZES_KB
        .iter()
        .map(|&kb| {
            let mut spec = tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R0_65, None);
            spec.max_aggregate = kb * 1024;
            spec
        })
        .collect()
}

/// Ablation: broadcast subframes ride at the front of the frame (paper
/// §4.2.3: close to the training sequences, where the channel estimate is
/// freshest). Measured as per-portion CRC failure rates under aggregates
/// that overrun the coherence budget.
pub fn ablation_broadcast_position(opts: &Opts) -> Table {
    let sizes_kb = ABLATION_POSITION_SIZES_KB;
    let results = opts.runner().run_sweep(&ablation_broadcast_position_specs(), 1);

    let mut t = Table::new(
        caption("ablation_broadcast_position"),
        &["max agg (KB)", "bcast CRC loss rate", "unicast portion drop rate"],
    );
    for (kb, cell) in sizes_kb.iter().zip(&results) {
        let Some(run) = cell.first() else {
            t.row(vec![format!("{kb}"), cell.failed_label(), cell.failed_label()]);
            continue;
        };
        let (mut b_ok, mut b_fail, mut u_ok, mut u_fail) = (0u64, 0u64, 0u64, 0u64);
        for n in &run.report.nodes {
            b_ok += n.bcast_ok + n.bcast_filtered;
            b_fail += n.bcast_crc_fail;
            u_ok += n.unicast_ok;
            u_fail += n.unicast_crc_drops;
        }
        let rate = |fail: u64, ok: u64| {
            if fail + ok == 0 {
                "n/a".to_string()
            } else {
                format!("{:.1}%", fail as f64 / (fail + ok) as f64 * 100.0)
            }
        };
        t.row(vec![format!("{kb}"), rate(b_fail, b_ok), rate(u_fail, u_ok)]);
    }
    t.note("broadcast subframes sit early in the frame (paper §4.2.3): they survive oversizing that destroys the unicast tail");
    t
}

/// Runs every experiment, printing each table; returns the rendered text.
pub fn run_all(opts: &Opts) -> String {
    let mut out = String::new();
    let mut emit = |t: Table| {
        let s = t.render();
        println!("{s}");
        out.push_str(&s);
        out.push('\n');
    };
    emit(fig07_agg_size(opts));
    emit(table2_udp(opts));
    emit(fig08_unicast_tcp(opts));
    emit(fig09_flooding(opts));
    emit(fig10_fixed_bcast(opts));
    emit(fig11_2hop(opts));
    emit(fig12_topologies(opts));
    emit(fig13_delayed(opts));
    emit(fig14_no_forward(opts));
    emit(table3_relay(opts));
    emit(table4_time_overhead(opts));
    for t in table5_6_7_star(opts) {
        emit(t);
    }
    emit(table8_frame_sizes(opts));
    emit(ext_topologies(opts));
    for t in ext_spatial(opts) {
        emit(t);
    }
    emit(ext_mixed(opts));
    emit(ext_scale(opts));
    emit(ext_burst(opts));
    emit(ablation_block_ack(opts));
    emit(ablation_rate_adaptive_sizing(opts));
    emit(ablation_dba_flush(opts));
    emit(ablation_rts_cts(opts));
    emit(ablation_delayed_ack(opts));
    emit(ablation_broadcast_position(opts));
    out
}
