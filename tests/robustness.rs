//! Fault injection: the system must survive a hostile channel
//! (smoltcp-style drop/corrupt testing, applied through the whole stack).

use hydra_agg::netsim::{Policy, ScenarioSpec, TopologyKind, Traffic};
use hydra_agg::phy::Rate;

#[test]
fn transfer_survives_frame_drops() {
    for policy in [Policy::Na, Policy::Ua, Policy::Ba] {
        let mut s = ScenarioSpec::tcp(TopologyKind::Linear(2), policy, Rate::R1_30);
        s.traffic = Traffic::FileTransfer { bytes: 60 * 1024 };
        s.fault = Some((0.05, 0.0)); // 5% of frames vanish
        let r = s.run();
        assert!(r.completed, "{}: transfer must survive 5% frame drops", policy.name());
        // Intact delivery is asserted inside FileReceiver (content check).
        assert!(r.throughput_bps > 10_000.0);
    }
}

#[test]
fn transfer_survives_subframe_corruption() {
    for policy in [Policy::Ua, Policy::Ba] {
        let mut s = ScenarioSpec::tcp(TopologyKind::Linear(2), policy, Rate::R1_30);
        s.traffic = Traffic::FileTransfer { bytes: 60 * 1024 };
        s.fault = Some((0.0, 0.03)); // 3% of subframes corrupted
        let r = s.run();
        assert!(r.completed, "{}: transfer must survive corruption", policy.name());
        // Corruption must actually have been exercised.
        let drops: u64 = r.report.nodes.iter().map(|n| n.unicast_crc_drops).sum();
        let retries: u64 = r.report.nodes.iter().map(|n| n.retries).sum();
        assert!(drops + retries > 0, "{}: fault injection had no effect", policy.name());
    }
}

#[test]
fn corruption_costs_throughput() {
    let clean = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30).run();
    let mut s = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
    s.fault = Some((0.0, 0.10));
    let dirty = s.run();
    assert!(dirty.completed);
    assert!(
        dirty.throughput_bps < clean.throughput_bps,
        "10% corruption must cost throughput: {} vs {}",
        dirty.throughput_bps,
        clean.throughput_bps
    );
}

#[test]
fn block_ack_outperforms_normal_ack_under_corruption() {
    // The paper's §7 motivation for block ACKs: with per-subframe
    // recovery only the damaged subframe is retransmitted.
    use hydra_agg::mac::AckPolicy;
    let run = |ack: AckPolicy| {
        let mut sum = 0.0;
        for seed in 1..=3 {
            let mut s = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R2_60).with_seed(seed);
            s.fault = Some((0.0, 0.08));
            s.ack_policy = ack;
            let r = s.run();
            assert!(r.completed);
            sum += r.throughput_bps;
        }
        sum / 3.0
    };
    let normal = run(AckPolicy::Normal);
    let block = run(AckPolicy::Block);
    assert!(block > normal, "block ACK should win under corruption: {block:.0} vs {normal:.0}");
}

#[test]
fn heavy_loss_fails_gracefully_not_catastrophically() {
    // 40% drop: the run may or may not finish inside the deadline, but it
    // must neither panic nor corrupt delivered data.
    let mut s = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
    s.traffic = Traffic::FileTransfer { bytes: 20 * 1024 };
    s.fault = Some((0.4, 0.1));
    let _ = s.run();
}
