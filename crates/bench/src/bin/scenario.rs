//! A flexible scenario runner: explore configurations the paper never
//! measured without writing code. Builds one declarative
//! [`ScenarioSpec`] from flags and drives it through the parallel
//! [`ExperimentRunner`].
//!
//! ```text
//! cargo run --release -p hydra-bench --bin scenario -- \
//!     [tcp|udp] [--hops N | --star | --grid WxH | --cross | --mesh N]
//!     [--area M] [--mesh-seed S]
//!     [--policy na|ua|ba|dba|ba-nofwd]
//!     [--rate 0.65|1.3|1.95|2.6] [--bcast-rate R] [--seeds N] [--threads N]
//!     [--file-kb N] [--interval-ms N] [--flood-ms N] [--mix T ...]
//!     [--max-agg-kb N] [--block-ack] [--no-rts] [--drop P] [--corrupt P]
//!     [--ber P] [--burst GB:BG] [--dup P] [--reorder P]
//!     [--spatial] [--spacing M] [--dump-links]
//! ```
//!
//! `--mix T` (repeatable) adds a background flow with its own traffic
//! (`tcp:BYTES` | `cbr:INTERVAL:PAYLOAD` |
//! `onoff:BURST:IDLE:INTERVAL:PAYLOAD`) on the primary flow's path, so
//! any topology can run heterogeneous foreground/background mixes; the
//! result prints as a labeled per-flow table.
//!
//! `--spatial` switches from the paper's single carrier-sense domain to
//! the range-limited medium built from the topology's geometry
//! (default 2.5 m between adjacent nodes, the testbed packing);
//! `--spacing M` sets that distance (implies `--spatial`).
//! `--dump-links` prints the medium's connectivity/SNR matrix before
//! running, so a spatial layout can be inspected without reading code.
//!
//! The built spec is echoed in its canonical `.scn` one-line form
//! (`docs/SCENARIO_FORMAT.md`); collect such lines in a file and run
//! them as a batch — with result caching — via `--bin sweep`.
//! `--help` prints the full flag reference.

use hydra_bench::{ExperimentRunner, Table};
use hydra_core::AckPolicy;
use hydra_netsim::scn::{policy_from_text, prob_from_text, rate_from_text, topo_from_text};
use hydra_netsim::{
    Flooding, FlowSpec, FlowTraffic, LinkErrorSpec, MediumKind, Policy, ScenarioSpec, TopologyKind, Traffic,
};
use hydra_phy::{LinkErrorModel, PhyProfile, Rate};
use hydra_sim::Duration;

#[derive(Debug)]
struct Args {
    tcp: bool,
    topo: TopologyKind,
    /// `--mesh N`: random-mesh node count (overrides `topo`).
    mesh: Option<usize>,
    /// `--area M`: mesh square side, metres (default: sized for ≈6
    /// delivery neighbours per node).
    area: Option<u32>,
    /// `--mesh-seed S`: mesh placement seed.
    mesh_seed: u64,
    policy: Policy,
    rate: Rate,
    bcast_rate: Option<Rate>,
    seeds: u64,
    threads: usize,
    file_kb: usize,
    interval_ms: f64,
    flood_ms: Option<u64>,
    max_agg_kb: usize,
    block_ack: bool,
    rts: bool,
    drop: f64,
    corrupt: f64,
    /// `--ber P`: mean residual per-subframe loss on every link.
    ber: Option<f64>,
    /// `--burst P_GB:P_BG`: Gilbert–Elliott burst shape (with `--ber`).
    burst: Option<(f64, f64)>,
    /// `--dup P`: per-transmission duplication probability.
    dup: f64,
    /// `--reorder P`: intra-aggregate reorder probability.
    reorder: f64,
    spacing: Option<f64>,
    dump_links: bool,
    /// Background flow traffic tokens (`--mix`, repeatable).
    mix: Vec<String>,
}

const HELP: &str = "\
usage: scenario [tcp|udp] [options]

Builds one declarative ScenarioSpec from flags and runs it through the
parallel ExperimentRunner. The spec's canonical one-line `.scn` form is
printed before the run; paste it into a file and feed it to `--bin
sweep` to sweep it alongside others (format: docs/SCENARIO_FORMAT.md).

topology:
  --hops N         linear chain with N hops (default 2)
  --star           the paper's 4-node star (two sessions into one client)
  --grid WxH       W x H grid, corner-to-corner session
  --cross          four arms around one relay, two crossing sessions
  --mesh N         N-node uniform-random mesh, greedy geographic routes,
                   ~N/4 default flows; implies --spacing 1 (the mesh is
                   authored in metres)
  --area M         mesh square side in metres (default: sized so nodes
                   average ~6 delivery-range neighbours)
  --mesh-seed S    mesh placement/flow seed (default 1)

traffic & policy:
  tcp | udp        file transfer (default) or CBR goodput
  --policy P       na|ua|ba|dba|ba-nofwd (default ba)
  --rate R         0.65|1.3|1.95|2.6|3.9|5.2|5.85|6.5 Mbps (default 1.3)
  --bcast-rate R   fixed broadcast-portion rate (default: same as --rate)
  --file-kb N      TCP transfer size (default 200)
  --interval-ms N  CBR inter-packet interval (default 17)
  --flood-ms N     per-node broadcast flooding at this interval
  --mix T          add a background flow on the primary path; T is a
                   flow-traffic token: tcp:BYTES | cbr:INTERVAL:PAYLOAD |
                   onoff:BURST:IDLE:INTERVAL:PAYLOAD (e.g. cbr:10ms:1140).
                   Repeatable; ports 9900, 9901, ... A tcp run mixed
                   with window traffic gets a 1 s warmup + 20 s horizon.

MAC & channel:
  --max-agg-kb N   aggregation cap (default 5)
  --block-ack      per-subframe block ACKs instead of all-or-nothing
  --no-rts         disable the RTS/CTS handshake
  --drop P         frame drop probability (fault injection)
  --corrupt P      subframe corruption probability
  --ber P          mean residual per-subframe loss on every link
                   (independent unless --burst reshapes it)
  --burst GB:BG    make --ber bursty: Gilbert–Elliott good→bad and
                   bad→good transition probabilities (e.g. 0.05:0.45 =
                   10% bad-state occupancy, mean burst ~2.2 frames),
                   bad-state loss scaled to keep the --ber mean
  --dup P          per-transmission frame duplication probability
  --reorder P      intra-aggregate subframe reorder probability

medium (PR 2 spatial extension):
  --spatial        range-limited medium from topology geometry (2.5 m)
  --spacing M      adjacent-node distance in metres (implies --spatial)
  --dump-links     print the connectivity/SNR matrix before running

harness:
  --seeds N        replications (default 3)
  --threads N      worker threads (0 = one per CPU)
  --help           this text
";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{HELP}");
    std::process::exit(2);
}

/// Parses a plain numeric flag value.
fn num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag}"))
}

/// Parses the command line (without the program name). Topology, rate,
/// policy and probability values go through the `.scn` grammar's own
/// token parsers, so the bin accepts exactly what `--bin sweep` does.
fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        tcp: true,
        topo: TopologyKind::Linear(2),
        mesh: None,
        area: None,
        mesh_seed: 1,
        policy: Policy::Ba,
        rate: Rate::R1_30,
        bcast_rate: None,
        seeds: 3,
        threads: 0,
        file_kb: 200,
        interval_ms: 17.0,
        flood_ms: None,
        max_agg_kb: 5,
        block_ack: false,
        rts: true,
        drop: 0.0,
        corrupt: 0.0,
        ber: None,
        burst: None,
        dup: 0.0,
        reorder: 0.0,
        spacing: None,
        dump_links: false,
        mix: Vec::new(),
    };
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let mut val = || args.next().map(String::as_str).ok_or("missing value");
        // Prefixes a `.scn` token error with the flag that carried it.
        let scn = |e: String| format!("{flag}: {e}");
        match flag.as_str() {
            "tcp" => a.tcp = true,
            "udp" => a.tcp = false,
            "--hops" => a.topo = topo_from_text(&format!("linear:{}", val()?)).map_err(scn)?,
            "--star" => a.topo = TopologyKind::Star,
            "--grid" => a.topo = topo_from_text(&format!("grid:{}", val()?)).map_err(scn)?,
            "--cross" => a.topo = TopologyKind::Cross,
            "--mesh" => {
                let n = num(val()?, flag)?;
                if n < 2 {
                    return Err("--mesh needs at least 2 nodes".into());
                }
                a.mesh = Some(n);
            }
            "--area" => {
                let m = num(val()?, flag)?;
                if m == 0 {
                    return Err("--area must be at least 1 m".into());
                }
                a.area = Some(m);
            }
            "--mesh-seed" => a.mesh_seed = num(val()?, flag)?,
            "--policy" => a.policy = policy_from_text(val()?).map_err(scn)?,
            "--rate" => a.rate = rate_from_text(val()?).map_err(scn)?,
            "--bcast-rate" => a.bcast_rate = Some(rate_from_text(val()?).map_err(scn)?),
            "--seeds" => a.seeds = num(val()?, flag)?,
            "--threads" => a.threads = num(val()?, flag)?,
            "--file-kb" => a.file_kb = num(val()?, flag)?,
            "--interval-ms" => a.interval_ms = num(val()?, flag)?,
            "--flood-ms" => a.flood_ms = Some(num(val()?, flag)?),
            "--mix" => a.mix.push(val()?.to_string()),
            "--max-agg-kb" => a.max_agg_kb = num(val()?, flag)?,
            "--block-ack" => a.block_ack = true,
            "--no-rts" => a.rts = false,
            "--drop" => a.drop = prob_from_text(val()?).map_err(scn)?,
            "--corrupt" => a.corrupt = prob_from_text(val()?).map_err(scn)?,
            "--ber" => a.ber = Some(prob_from_text(val()?).map_err(scn)?),
            "--burst" => {
                let (gb, bg) = val()?.split_once(':').ok_or("expected --burst P_GB:P_BG")?;
                let p_gb = prob_from_text(gb).map_err(scn)?;
                let p_bg = prob_from_text(bg).map_err(scn)?;
                if p_gb <= 0.0 || p_bg <= 0.0 {
                    return Err("--burst transition probabilities must be positive".into());
                }
                a.burst = Some((p_gb, p_bg));
            }
            "--dup" => a.dup = prob_from_text(val()?).map_err(scn)?,
            "--reorder" => a.reorder = prob_from_text(val()?).map_err(scn)?,
            "--spatial" => {
                a.spacing.get_or_insert(2.5);
            }
            "--spacing" => {
                let s: f64 = num(val()?, flag)?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--spacing must be a positive finite number of metres".into());
                }
                a.spacing = Some(s);
            }
            "--dump-links" => a.dump_links = true,
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(nodes) = a.mesh {
        // Default area: side ∝ √N keeps node density constant — a 7.9 m
        // delivery disc then averages ~6 neighbours at any scale.
        let area_m = a.area.unwrap_or_else(|| ((nodes as f64).sqrt() * 5.73).ceil().max(10.0) as u32);
        a.topo = TopologyKind::RandomMesh { nodes, area_m, seed: a.mesh_seed };
        // The mesh is authored in metres: unit spacing unless overridden.
        a.spacing.get_or_insert(1.0);
    } else if a.area.is_some() {
        return Err("--area requires --mesh".into());
    }
    Ok(a)
}

fn spec_from(a: &Args) -> Result<ScenarioSpec, String> {
    let mut spec = if a.tcp {
        let mut s = ScenarioSpec::tcp(a.topo, a.policy, a.rate);
        s.traffic = Traffic::FileTransfer { bytes: a.file_kb * 1024 };
        s
    } else {
        ScenarioSpec::udp(a.topo, a.policy, a.rate, Duration::from_secs_f64(a.interval_ms / 1e3))
    };
    spec.broadcast_rate = a.bcast_rate;
    spec.max_aggregate = a.max_agg_kb * 1024;
    if a.block_ack {
        spec.ack_policy = AckPolicy::Block;
    }
    if a.drop > 0.0 || a.corrupt > 0.0 {
        spec.fault = Some((a.drop, a.corrupt));
    }
    let model = match (a.ber, a.burst) {
        (None, None) => None,
        (Some(ber), None) => Some(LinkErrorModel::Independent { ber }),
        (Some(mean), Some((p_gb, p_bg))) => Some(LinkErrorModel::bursty_with_mean(mean, p_gb, p_bg)),
        (None, Some(_)) => return Err("--burst needs --ber (the mean loss the burst shape preserves)".into()),
    };
    if model.is_some() || a.dup > 0.0 || a.reorder > 0.0 {
        spec.link_error = Some(LinkErrorSpec { model, dup: a.dup, reorder: a.reorder });
    }
    if let Some(f) = a.flood_ms {
        spec.flooding = Some(Flooding { interval: Duration::from_millis(f), payload: 120 });
    }
    spec.rts_cts = a.rts;
    if let Some(spacing_m) = a.spacing {
        spec.medium = MediumKind::Spatial { spacing_m };
    }
    if !a.mix.is_empty() {
        let mixes = a
            .mix
            .iter()
            .map(|tok| FlowTraffic::from_token(tok).map_err(|e| format!("--mix: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        // A mixed run executes to the horizon `warmup + duration`; give
        // a file-transfer foreground a sane window instead of the pure
        // TCP 300 s deadline.
        if a.tcp && mixes.iter().any(|t| !t.is_file()) {
            spec.warmup = Duration::from_secs(1);
            spec.duration = Duration::from_secs(20);
        }
        // Background flows ride the primary flow's path on their own
        // ports.
        let primary = spec.effective_flows()[0];
        for (k, traffic) in mixes.into_iter().enumerate() {
            spec = spec.add_flow(FlowSpec {
                src: primary.src,
                dst: primary.dst,
                port: 9900 + k as u16,
                traffic,
            });
        }
    }
    Ok(spec)
}

/// Prints the medium's per-pair connectivity classes and SNR matrix:
/// `D` = delivers (decodable), `s` = sensed only (energy, no frames),
/// `.` = out of range, `=` = self.
fn dump_links(spec: &ScenarioSpec) {
    let topo = spec.topology.build();
    let medium = spec.medium.build_medium(&topo, &PhyProfile::hydra());
    let n = medium.node_count();
    println!("medium: {:?} over {} ({} nodes)", spec.medium, topo.name, n);
    if let MediumKind::Spatial { spacing_m } = spec.medium {
        let budget = MediumKind::budget(&PhyProfile::hydra());
        println!(
            "link budget: delivery range {:.1} m, carrier-sense range {:.1} m, adjacent spacing {:.1} m",
            budget.delivery_range_m(),
            budget.cs_range_m(),
            spacing_m
        );
    }
    print!("\nclass    ");
    for to in 0..n {
        print!("{to:>3}");
    }
    println!();
    for from in 0..n {
        print!("from {from:>3} ");
        for to in 0..n {
            let c = if from == to {
                '='
            } else {
                let l = medium.link(from, to);
                if l.delivers {
                    'D'
                } else if l.senses {
                    's'
                } else {
                    '.'
                }
            };
            print!("{c:>3}");
        }
        println!();
    }
    println!("\neffective SNR (dB; '   -' where nothing is decodable)");
    print!("         ");
    for to in 0..n {
        print!("{to:>7}");
    }
    println!();
    for from in 0..n {
        print!("from {from:>3} ");
        for to in 0..n {
            let l = medium.link(from, to);
            if from != to && l.delivers {
                print!("{:>7.1}", l.snr_db);
            } else {
                print!("{:>7}", "-");
            }
        }
        println!();
    }
    println!();
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = parse(&argv).unwrap_or_else(|e| die(&e));
    let spec = spec_from(&a).unwrap_or_else(|e| die(&e));
    // The canonical .scn line: paste into a file and run it (with
    // others) via `--bin sweep`. Format: docs/SCENARIO_FORMAT.md.
    println!("scn: {}\n", spec.to_scn());
    if a.dump_links {
        dump_links(&spec);
    }
    let runner = ExperimentRunner::new(a.threads);
    let cell = runner.run_sweep(std::slice::from_ref(&spec), a.seeds).remove(0);
    let metric = if a.tcp { "throughput" } else { "goodput" };
    for (i, r) in cell.runs.iter().enumerate() {
        // Print the derived world seed so any run can be replayed
        // exactly via ScenarioSpec::with_seed(world_seed).run().
        let seed = ExperimentRunner::run_seed(&spec, i as u64 + 1);
        match r {
            Ok(run) => println!(
                "run {} (world seed {seed:#018x}): {} {:.3} Mbps (flows: {:?})",
                i + 1,
                if run.completed { "ok  " } else { "STUCK" },
                run.throughput_bps / 1e6,
                run.per_flow_bps().iter().map(|x| (x / 1e3).round() / 1e3).collect::<Vec<_>>()
            ),
            Err(e) => println!("run {} (world seed {seed:#018x}): FAILED({}) — {e}", i + 1, e.reason()),
        }
    }
    // The labeled per-flow breakdown: one row per flow, means across
    // the surviving seeds, plus the first surviving run's delivered
    // bytes and completion time.
    let flows = spec.effective_flows();
    let mut t = Table::new(
        format!("per-flow results ({} seed(s))", a.seeds),
        &["flow", "kind", "mean Mbps", "bytes (run 1)", "done at (run 1)"],
    );
    for (j, f) in flows.iter().enumerate() {
        let (mut sum, mut n) = (0.0, 0u32);
        for r in cell.ok_runs() {
            sum += r.per_flow[j].bps;
            n += 1;
        }
        let (mean_cell, bytes_cell, done_cell) = match cell.first() {
            Some(first) => {
                let flow = &first.per_flow[j];
                (
                    format!("{:.3}", sum / f64::from(n.max(1)) / 1e6),
                    flow.bytes.to_string(),
                    flow.completed_at.map_or("-".into(), |at| format!("{:.3}s", at.as_nanos() as f64 / 1e9)),
                )
            }
            None => (cell.failed_label(), "-".into(), "-".into()),
        };
        t.row(vec![
            format!("{}>{}:{}", f.src, f.dst, f.port),
            f.traffic.kind().label().into(),
            mean_cell,
            bytes_cell,
            done_cell,
        ]);
    }
    println!();
    t.print();
    if let (Some(&relay), Some(first)) = (spec.relays().first(), cell.first()) {
        let rel = &first.report.nodes[relay];
        println!(
            "\nrelay (node {relay}, run 1): {} TXs, avg {:.0} B, {:.2} subframes, time-ovh {:.1}%, {} retries",
            rel.tx_data_frames,
            rel.avg_frame_size,
            rel.avg_subframes,
            rel.time_overhead * 100.0,
            rel.retries
        );
    }
    println!("\nmean {metric}: {:.3} Mbps over {} seeds", cell.mean_throughput_bps() / 1e6, a.seeds);
    if cell.failed() {
        eprintln!("{} replication(s) FAILED", cell.runs.iter().filter(|r| r.is_err()).count());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_netsim::parse_scn;

    fn spec_of(line: &str) -> Result<ScenarioSpec, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        spec_from(&parse(&argv)?)
    }

    #[test]
    fn values_the_scn_grammar_rejects_are_rejected() {
        for (line, needle) in [
            ("--hops 0", "--hops: linear topology needs at least 1 hop"),
            ("--drop 2", "--drop: probability `2` is outside 0..=1"),
            ("--corrupt -0.1", "--corrupt: probability"),
            ("--grid 1x1", "--grid: grid 1x1 has fewer than 2 nodes"),
            ("--rate 3", "--rate: unknown rate `3`"),
            ("--policy xa", "--policy: unknown policy `xa`"),
            ("--ber 0.1 --burst 0.1:nan", "--burst: `nan` is not finite"),
            ("--dup", "missing value"),
            ("--burst 0.1:0.2", "--burst needs --ber"),
        ] {
            let err = spec_of(line).expect_err(line);
            assert!(err.contains(needle), "`{line}`: {err}");
        }
    }

    #[test]
    fn valid_flag_sets_echo_a_line_that_parses_back_to_the_same_spec() {
        for (line, scn) in [
            (
                "udp --hops 3 --spatial --spacing 7 --rate 0.65 --seeds 1 --dump-links",
                "topo=linear:3 policy=ba rate=0.65 traffic=cbr:17ms:1045 medium=spatial:7.0",
            ),
            (
                "tcp --hops 2 --policy ba --mix cbr:20ms:160 --seeds 1",
                "topo=linear:2 policy=ba rate=1.3 traffic=file:204800 flow=0>2:5001:tcp:204800 \
                 flow=0>2:9900:cbr:20ms:160 warmup=1s duration=20s",
            ),
            (
                "tcp --file-kb 20 --seeds 1 --ber 0.05 --burst 0.05:0.45 --dup 0.02 --reorder 0.02",
                "topo=linear:2 policy=ba rate=1.3 traffic=file:20480 \
                 link_error=ge:0.05:0.45:0.0:0.5,dup:0.02,reorder:0.02",
            ),
            ("tcp --grid 3x2 --policy ba --rate 2.6 --seeds 1", "topo=grid:3x2 policy=ba rate=2.6 traffic=file:204800"),
            (
                "udp --cross --drop 0.05 --corrupt 0.01 --block-ack --no-rts --bcast-rate 0.65 --flood-ms 100",
                "topo=cross policy=ba rate=1.3 traffic=cbr:17ms:1045 bcast=0.65 ack=block rts=off \
                 fault=0.05:0.01 flood=100ms:120",
            ),
            (
                "tcp --mesh 30 --seeds 1 --policy dba --max-agg-kb 8",
                "topo=mesh:30:32:1 policy=dba rate=1.3 traffic=file:204800 medium=spatial:1.0 max_agg=8192",
            ),
        ] {
            let spec = spec_of(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(spec.to_scn(), scn, "`{line}`");
            assert_eq!(parse_scn(&spec.to_scn()).unwrap(), vec![spec], "`{line}`");
        }
    }
}
