//! Cross-layer behaviour of the ACK classifier and the broadcast path,
//! observed end-to-end.

use hydra_agg::netsim::{Policy, ScenarioSpec, TopologyKind};
use hydra_agg::phy::Rate;
use hydra_agg::sim::Duration;

#[test]
fn ack_classification_only_under_ba() {
    for (policy, expect_classified) in [
        (Policy::Na, false),
        (Policy::Ua, false),
        (Policy::Ba, true),
        (Policy::Dba, true),
        (Policy::BaNoForward, true),
    ] {
        let r = ScenarioSpec::tcp(TopologyKind::Linear(2), policy, Rate::R1_30).run();
        let classified: u64 = r.report.nodes.iter().map(|n| n.acks_classified).sum();
        assert_eq!(classified > 0, expect_classified, "{}: classified={classified}", policy.name());
    }
}

#[test]
fn every_data_segment_yields_a_pure_ack() {
    // The paper's client ACKs every segment (Table 8: 2-3 ACK clumps).
    let r = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30).run();
    let client = &r.report.nodes[2];
    // ~151 data segments -> the client must classify roughly that many ACKs.
    assert!(client.acks_classified >= 140, "client classified only {} ACKs", client.acks_classified);
}

#[test]
fn classified_acks_keep_unicast_addressing() {
    // Decode-and-drop must happen: the server overhears ACKs addressed to
    // the relay (from the client) and drops them; the client overhears
    // ACKs addressed to the server (from the relay) and drops them.
    let r = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30).run();
    let server = &r.report.nodes[0];
    let client = &r.report.nodes[2];
    assert!(server.bcast_filtered > 0, "server should decode-and-drop relay-bound ACKs");
    assert!(client.bcast_filtered > 0, "client should decode-and-drop server-bound ACKs");
    // And the server must have *accepted* the ACKs addressed to it.
    assert!(server.bcast_ok > 100, "server accepted {}", server.bcast_ok);
}

#[test]
fn relay_mixes_directions_in_one_frame_under_ba() {
    let r = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R2_60).run();
    let relay = r.report.relay();
    let (ucast, bcast) = relay.subframes_sent;
    assert!(ucast > 100, "relay forwarded data: {ucast}");
    assert!(bcast > 100, "relay forwarded ACKs as broadcast: {bcast}");
    // Under UA the same relay sends zero broadcast subframes.
    let r = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ua, Rate::R2_60).run();
    assert_eq!(r.report.relay().subframes_sent.1, 0);
}

#[test]
fn udp_traffic_is_never_classified() {
    let r =
        ScenarioSpec::udp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30, Duration::from_millis(15)).run();
    let classified: u64 = r.report.nodes.iter().map(|n| n.acks_classified).sum();
    assert_eq!(classified, 0, "UDP must never look like a TCP ACK");
}

#[test]
fn no_duplicate_file_bytes_despite_mac_retries() {
    // Force some retries with corruption; the file must arrive intact
    // exactly once (MAC dedup + TCP sequence space both guard this).
    let mut s = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
    s.fault = Some((0.02, 0.02));
    let r = s.run();
    assert!(r.completed, "transfer must complete");
    // FileReceiver::is_complete() checks content against the generator;
    // completion implies no reordering/duplication corrupted the stream.
}

#[test]
fn star_center_aggregates_across_sessions_under_ba() {
    // Paper Table 5: the star's BA relay frames grow because ACKs of
    // *different* sessions (and data toward the shared client) share
    // frames — impossible under UA.
    let ua = ScenarioSpec::tcp(TopologyKind::Star, Policy::Ua, Rate::R1_30).run();
    let ba = ScenarioSpec::tcp(TopologyKind::Star, Policy::Ba, Rate::R1_30).run();
    let ua_bcast = ua.report.relay().subframes_sent.1;
    let ba_bcast = ba.report.relay().subframes_sent.1;
    assert_eq!(ua_bcast, 0);
    assert!(ba_bcast > 200, "center should carry both sessions' ACKs: {ba_bcast}");
}
