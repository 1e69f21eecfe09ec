//! # hydra-agg — frame aggregation & broadcast TCP ACKs for multi-hop 802.11
//!
//! A full reproduction of *"Improving the Performance of Multi-hop
//! Wireless Networks using Frame Aggregation and Broadcast for TCP ACKs"*
//! (Kim, Wright & Nettles, ACM CoNEXT 2008), built as a deterministic
//! discrete-event simulation of the paper's Hydra software-radio testbed.
//!
//! This facade crate re-exports every workspace layer:
//!
//! * [`sim`] — discrete-event engine (virtual time, events, RNG);
//! * [`wire`] — byte-exact frame formats (MAC subframes, dual-rate PHY
//!   header, aggregates, control frames, IPv4/TCP/UDP);
//! * [`phy`] — the Hydra PHY model (rates, airtime, channel/coherence
//!   models, shared medium);
//! * [`mac`] — **the paper's contribution**: an 802.11 DCF MAC with
//!   unicast aggregation, broadcast aggregation, and pure-TCP-ACK
//!   classification;
//! * [`net`] — IPv4 with static routing and forwarding;
//! * [`tcp`] — a deterministic NewReno TCP;
//! * [`app`] — the paper's workloads (UDP CBR, flooding, file transfer);
//! * [`netsim`] — node assembly, topologies, scenario specs, metrics.
//!
//! The experiment harness itself (grids, the parallel runner, the
//! persistent result cache, and the `all`/`sweep`/`scenario` binaries)
//! lives one layer higher in `hydra-bench`, which is a CLI surface
//! rather than a library and is deliberately *not* re-exported here.
//! Whole sweeps can be described as data: one `ScenarioSpec` per line
//! in a `.scn` file (see `docs/SCENARIO_FORMAT.md` and
//! `examples/sweeps/`).
//!
//! ## Quickstart
//!
//! ```
//! use hydra_agg::netsim::{Policy, ScenarioSpec, TopologyKind, Traffic};
//! use hydra_agg::phy::Rate;
//!
//! // The paper's headline experiment: a 0.2 MB transfer over two hops
//! // with TCP ACKs riding as broadcast subframes (Figure 11, "BA").
//! let mut spec = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R2_60);
//! spec.traffic = Traffic::FileTransfer { bytes: 20 * 1024 }; // trimmed for the doctest
//! let result = spec.run();
//! assert!(result.completed);
//! println!("end-to-end throughput: {:.3} Mbps", result.throughput_bps / 1e6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hydra_app as app;
pub use hydra_core as mac;
pub use hydra_net as net;
pub use hydra_netsim as netsim;
pub use hydra_phy as phy;
pub use hydra_sim as sim;
pub use hydra_tcp as tcp;
pub use hydra_wire as wire;

/// Commonly used items in one import.
pub mod prelude {
    pub use hydra_core::{AckPolicy, AggPolicy, AggSizing, Mac, MacConfig};
    pub use hydra_netsim::{MediumKind, Policy, ScenarioSpec, Topology, TopologyKind, Traffic, World};
    pub use hydra_phy::{PhyProfile, Rate};
    pub use hydra_sim::{Duration, Instant};
    pub use hydra_wire::{Ipv4Addr, MacAddr};
}
