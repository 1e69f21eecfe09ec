//! Broadcast aggregation under route-discovery flooding (paper §6.3).
//!
//! Every node in a 2-hop chain broadcasts AODV/DSR-style beacons at an
//! increasing rate while a saturating UDP flow crosses the chain. Without
//! aggregation each beacon costs a full floor acquisition; with broadcast
//! aggregation the beacons ride inside data frames nearly for free.
//!
//! Run with: `cargo run --release --example flooding_mesh`

use hydra_agg::netsim::{Flooding, Policy, ScenarioSpec, TopologyKind};
use hydra_agg::phy::Rate;
use hydra_agg::sim::Duration;

fn main() {
    let rate = Rate::R1_30;
    println!("2-hop UDP at {rate}, flooding beacons from every node\n");
    println!("{:>16} | {:>10} | {:>10} | {:>6}", "flood interval", "NA (Mbps)", "BA (Mbps)", "gap");
    println!("{:-<16}-+-{:-<10}-+-{:-<10}-+-{:-<6}", "", "", "", "");
    for flood_ms in [0u64, 50, 100, 250, 500, 1000] {
        let run = |policy| {
            let mut s = ScenarioSpec::udp(TopologyKind::Linear(2), policy, rate, Duration::from_millis(12));
            if flood_ms > 0 {
                s.flooding = Some(Flooding { interval: Duration::from_millis(flood_ms), payload: 120 });
            }
            s.run().throughput_bps
        };
        let (na, ba) = (run(Policy::Na), run(Policy::Ba));
        let label =
            if flood_ms == 0 { "none".to_string() } else { format!("{:.2}s", flood_ms as f64 / 1000.0) };
        println!(
            "{:>16} | {:>10.3} | {:>10.3} | {:>5.1}%",
            label,
            na / 1e6,
            ba / 1e6,
            (ba / na - 1.0) * 100.0
        );
    }
    println!("\nThe faster the flooding, the more NA pays per beacon (a whole DCF");
    println!("exchange each) while BA absorbs them into frames it was sending anyway.");
}
