//! On-air frame representation and airtime accounting.

use std::sync::Arc;

use hydra_sim::Duration;
use hydra_wire::aggregate::SubframeSlot;
use hydra_wire::control::ControlBytes;
use hydra_wire::phy_hdr::PhyHeader;
use hydra_wire::Payload;

use crate::profile::PhyProfile;
use crate::rates::Rate;

/// Shared per-subframe slot metadata: built once at assembly, then
/// reference-counted through every receiver's copy of the frame (the
/// channel model reads slots but never rewrites them).
pub type SharedSlots = Arc<[SubframeSlot]>;

/// A frame as it exists on the air.
///
/// Cloning is cheap: control frames are inline ([`ControlBytes`], no
/// heap), and an aggregate's PSDU bytes and slot metadata are
/// reference-counted ([`Payload`] / [`SharedSlots`]), so fanning one
/// transmission out to N receivers bumps two counters per receiver
/// instead of copying the whole frame N times. The channel model only
/// materialises a private copy when it actually corrupts bytes
/// (copy-on-corrupt, see [`crate::channel::apply_channel`]).
#[derive(Debug, Clone)]
pub enum OnAirFrame {
    /// A standalone control frame (RTS/CTS/ACK) at the base rate.
    Control(ControlBytes),
    /// An aggregated data frame: dual-rate PHY header + PSDU.
    Aggregate {
        /// The dual-rate PHY header (paper Figure 2).
        phy_hdr: PhyHeader,
        /// The PSDU: broadcast subframes followed by unicast subframes.
        psdu: Payload,
        /// Byte-range metadata for each subframe (for the channel model
        /// and MAC accounting).
        slots: SharedSlots,
    },
}

impl OnAirFrame {
    /// An aggregate from freshly assembled parts.
    pub fn aggregate(phy_hdr: PhyHeader, psdu: impl Into<Payload>, slots: Vec<SubframeSlot>) -> Self {
        OnAirFrame::Aggregate { phy_hdr, psdu: psdu.into(), slots: slots.into() }
    }

    /// The broadcast-portion rate (base rate for control frames).
    pub fn bcast_rate(&self, profile: &PhyProfile) -> Rate {
        match self {
            OnAirFrame::Control(_) => profile.base_rate,
            OnAirFrame::Aggregate { phy_hdr, .. } => {
                Rate::from_code(phy_hdr.bcast_rate).unwrap_or(profile.base_rate)
            }
        }
    }

    /// The unicast-portion rate (base rate for control frames).
    pub fn ucast_rate(&self, profile: &PhyProfile) -> Rate {
        match self {
            OnAirFrame::Control(_) => profile.base_rate,
            OnAirFrame::Aggregate { phy_hdr, .. } => {
                Rate::from_code(phy_hdr.ucast_rate).unwrap_or(profile.base_rate)
            }
        }
    }

    /// Total PSDU/body bytes on the air (excluding preamble & PHY header).
    pub fn body_bytes(&self) -> usize {
        match self {
            OnAirFrame::Control(b) => b.len(),
            OnAirFrame::Aggregate { psdu, .. } => psdu.len(),
        }
    }

    /// Full airtime breakdown.
    pub fn airtime(&self, profile: &PhyProfile) -> Airtime {
        match self {
            OnAirFrame::Control(bytes) => Airtime {
                preamble: profile.preamble,
                phy_header: Duration::ZERO,
                bcast: Duration::ZERO,
                ucast: profile.time_for(bytes.len(), profile.base_rate),
            },
            OnAirFrame::Aggregate { phy_hdr, .. } => {
                let br = Rate::from_code(phy_hdr.bcast_rate).unwrap_or(profile.base_rate);
                let ur = Rate::from_code(phy_hdr.ucast_rate).unwrap_or(profile.base_rate);
                Airtime {
                    preamble: profile.preamble,
                    phy_header: profile.phy_header_time(),
                    bcast: profile.time_for(phy_hdr.bcast_len as usize, br),
                    ucast: profile.time_for(phy_hdr.ucast_len as usize, ur),
                }
            }
        }
    }

    /// Total on-air samples of the PSDU (excluding preamble), the unit of
    /// the coherence budget.
    pub fn psdu_samples(&self, profile: &PhyProfile) -> u64 {
        match self {
            OnAirFrame::Control(b) => profile.samples_for(b.len(), profile.base_rate),
            OnAirFrame::Aggregate { phy_hdr, .. } => {
                let br = Rate::from_code(phy_hdr.bcast_rate).unwrap_or(profile.base_rate);
                let ur = Rate::from_code(phy_hdr.ucast_rate).unwrap_or(profile.base_rate);
                profile.samples_for(profile.phy_header_bytes, profile.base_rate)
                    + profile.samples_for(phy_hdr.bcast_len as usize, br)
                    + profile.samples_for(phy_hdr.ucast_len as usize, ur)
            }
        }
    }
}

/// Airtime of one frame, broken down for overhead accounting (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Airtime {
    /// Training sequences.
    pub preamble: Duration,
    /// The (dual-rate) PHY header at base rate.
    pub phy_header: Duration,
    /// Broadcast portion payload time.
    pub bcast: Duration,
    /// Unicast portion payload time.
    pub ucast: Duration,
}

impl Airtime {
    /// Total frame airtime.
    pub fn total(&self) -> Duration {
        self.preamble + self.phy_header + self.bcast + self.ucast
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_wire::phy_hdr::RateCode;

    fn profile() -> PhyProfile {
        PhyProfile::hydra()
    }

    #[test]
    fn control_airtime() {
        let rts = hydra_wire::ControlFrame::Rts {
            duration_us: 0,
            ra: hydra_wire::MacAddr::from_node_id(1),
            ta: hydra_wire::MacAddr::from_node_id(2),
        };
        let f = OnAirFrame::Control(rts.encode()); // 20 B
        let a = f.airtime(&profile());
        assert_eq!(a.preamble, Duration::from_micros(170));
        assert_eq!(a.phy_header, Duration::ZERO);
        // 160 bits at 0.65 Mbps ≈ 246 µs.
        assert!((a.ucast.as_micros() as i64 - 246).abs() <= 1);
    }

    #[test]
    fn aggregate_airtime_uses_both_rates() {
        // 480 B broadcast at 0.65, 4392 B unicast at 2.6.
        let phy_hdr = PhyHeader {
            bcast_rate: Rate::R0_65.code(),
            ucast_rate: Rate::R2_60.code(),
            bcast_len: 480,
            ucast_len: 4392,
        };
        let f = OnAirFrame::aggregate(phy_hdr, vec![0; 4872], vec![]);
        let a = f.airtime(&profile());
        // 480*8/0.65e6 ≈ 5908 µs; 4392*8/2.6e6 ≈ 13514 µs.
        assert!((a.bcast.as_micros() as i64 - 5907).abs() <= 2, "{:?}", a.bcast);
        assert!((a.ucast.as_micros() as i64 - 13513).abs() <= 2, "{:?}", a.ucast);
        assert!(a.total() > a.bcast + a.ucast);
    }

    #[test]
    fn unknown_rate_code_falls_back_to_base() {
        let phy_hdr =
            PhyHeader { bcast_rate: RateCode(99), ucast_rate: RateCode(99), bcast_len: 0, ucast_len: 650 };
        let f = OnAirFrame::aggregate(phy_hdr, vec![0; 650], vec![]);
        assert_eq!(f.ucast_rate(&profile()), Rate::R0_65);
        // 650 B = 5200 bits at 0.65 = 8 ms.
        assert_eq!(f.airtime(&profile()).ucast, Duration::from_millis(8));
    }

    #[test]
    fn psdu_samples_includes_header_and_portions() {
        let p = profile();
        let phy_hdr = PhyHeader {
            bcast_rate: Rate::R1_30.code(),
            ucast_rate: Rate::R1_30.code(),
            bcast_len: 160,
            ucast_len: 1464,
        };
        let f = OnAirFrame::aggregate(phy_hdr, vec![0; 1624], vec![]);
        let expect = p.samples_for(8, Rate::R0_65)
            + p.samples_for(160, Rate::R1_30)
            + p.samples_for(1464, Rate::R1_30);
        assert_eq!(f.psdu_samples(&p), expect);
    }
}
