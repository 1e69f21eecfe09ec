//! The 802.11 DCF MAC with the paper's aggregation extensions.
//!
//! Sans-IO: [`Mac::handle`] consumes typed inputs (enqueues from the
//! network layer, carrier-sense edges, received frames, timer fires, own
//! transmission completions) and returns typed outputs (frames to put on
//! the air, timers to arm, MPDUs to deliver upward). The event loop in
//! `hydra-netsim` owns the clock and the medium.
//!
//! Protocol summary (paper §3/§4 + IEEE 802.11 DCF):
//!
//! * every transmission contends with DIFS + slotted backoff (CW doubles
//!   per retry, resets on success);
//! * frames with a unicast portion run RTS → CTS → DATA → ACK with SIFS
//!   gaps (Hydra always uses RTS/CTS); the unicast portion is
//!   acknowledged as a whole and retried as a whole on failure;
//! * broadcast-only frames are transmitted after backoff with no
//!   handshake and no acknowledgement;
//! * receivers process the broadcast portion per-subframe (CRC, then
//!   address filter: deliver if mine or true broadcast, else drop —
//!   paper §3.3), and the unicast portion all-or-nothing (§4.2.2);
//! * virtual carrier sense (NAV) is honoured from RTS/CTS/data duration
//!   fields.

use hydra_phy::{OnAirFrame, PhyProfile, Rate};
use hydra_sim::{Duration, Instant, Rng, TimerSet, TimerToken};
use hydra_wire::aggregate::Portion;
use hydra_wire::control::{ControlFrame, ACK_LEN, BLOCK_ACK_LEN, CTS_LEN, RTS_LEN};
use hydra_wire::subframe::HEADER_LEN;
use hydra_wire::{parse_aggregate, MacAddr, Payload};

use crate::assembler::{assemble, AssembledFrame};
use crate::classifier::Classifier;
use crate::config::{AckPolicy, MacConfig};
use crate::counters::{cat, MacCounters};
use crate::queues::{QueuedMpdu, TxQueues};

/// Inputs to the MAC state machine.
#[derive(Debug)]
pub enum MacInput {
    /// The network layer hands down an MPDU payload for `next_hop`.
    Enqueue {
        /// Receiver (next hop) address; `MacAddr::BROADCAST` for floods.
        next_hop: MacAddr,
        /// Original source address (addr3).
        src: MacAddr,
        /// MPDU payload bytes (shared, cheap to clone).
        payload: Payload,
    },
    /// Physical carrier sense went busy (another node transmits).
    ChannelBusy,
    /// Physical carrier sense went idle.
    ChannelIdle,
    /// A frame arrived off the channel (already channel-model-processed;
    /// collided frames are never delivered).
    Rx(OnAirFrame),
    /// Our own transmission's airtime elapsed.
    TxDone,
    /// A timer armed via [`MacOutput::SetTimer`] fired.
    Timer(TimerToken),
}

/// Outputs from the MAC state machine.
#[derive(Debug)]
pub enum MacOutput {
    /// Put this frame on the air now.
    StartTx(OnAirFrame),
    /// Arm a timer: feed back `Timer(token)` at `at`.
    SetTimer {
        /// Token to return.
        token: TimerToken,
        /// Absolute fire time.
        at: Instant,
    },
    /// Deliver a received MPDU payload to the network layer.
    Deliver {
        /// Original source (addr3).
        src: MacAddr,
        /// Transmitter of the delivering hop (addr2).
        transmitter: MacAddr,
        /// MPDU payload bytes — a zero-copy sub-view of the received
        /// frame's shared PSDU buffer.
        payload: Payload,
    },
    /// A unicast burst was dropped after exhausting retries.
    UnicastDropped {
        /// Number of MPDUs lost.
        count: usize,
    },
}

/// Where [`Mac::handle`] writes its outputs.
///
/// The MAC is sans-IO: it never allocates its own output buffer. The
/// event loop hands in a reusable sink (in practice a pooled
/// `Vec<MacOutput>` it drains right after the call), so steady-state
/// dispatch performs **zero** per-event output allocations. Tests and
/// one-shot callers can use [`Mac::handle_collect`], which allocates a
/// fresh `Vec` for convenience.
pub trait MacSink {
    /// Accepts one output.
    fn push(&mut self, out: MacOutput);
}

impl MacSink for Vec<MacOutput> {
    fn push(&mut self, out: MacOutput) {
        Vec::push(self, out);
    }
}

/// Timer slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
enum Slot {
    /// DIFS + remaining backoff countdown.
    Backoff = 0,
    /// CTS not received in time.
    CtsTimeout = 1,
    /// ACK not received in time.
    AckTimeout = 2,
    /// SIFS gap before a response/data transmission.
    Sifs = 3,
    /// NAV expiry re-check.
    Nav = 4,
    /// DBA flush deadline.
    Flush = 5,
}
const SLOT_COUNT: usize = 6;

/// What to transmit when the SIFS timer fires.
#[derive(Debug)]
enum AfterSifs {
    Cts(ControlFrame),
    Ack(ControlFrame),
    Data,
}

/// DCF state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// No pending transmission of our own.
    Idle,
    /// Contending (DIFS + backoff, possibly frozen).
    Contend,
    /// Our RTS is on the air.
    TxRts,
    /// Waiting for CTS.
    AwaitCts,
    /// Our data aggregate is on the air.
    TxData,
    /// Waiting for the link ACK.
    AwaitAck,
    /// A broadcast-only aggregate is on the air (no ACK expected).
    TxBcast,
    /// A CTS or ACK response of ours is on the air.
    TxResponse,
}

/// The MAC entity for one node.
#[derive(Debug)]
pub struct Mac {
    addr: MacAddr,
    cfg: MacConfig,
    profile: PhyProfile,
    queues: TxQueues,
    classifier: Classifier,
    /// Counters for metrics (public: netsim reads them).
    pub counters: MacCounters,
    timers: TimerSet,
    rng: Rng,

    state: State,
    phys_busy: bool,
    nav_until: Instant,
    cw: u32,
    retry_count: u32,
    backoff_slots: u32,
    /// True while a drawn backoff countdown is pending (possibly frozen).
    /// 802.11 persists the residual counter across interruptions —
    /// including interruptions where we act as a CTS/ACK responder.
    backoff_pending: bool,
    /// When the live Backoff timer was armed (None = frozen/not armed).
    countdown_from: Option<Instant>,
    current: Option<AssembledFrame>,
    after_sifs: Option<AfterSifs>,
    flush_due: bool,
    /// Recently delivered unicast MPDUs (transmitter, packet id) for
    /// duplicate filtering when a link ACK is lost and the burst retried.
    dedup: std::collections::VecDeque<(MacAddr, u32)>,
}

const DEDUP_WINDOW: usize = 64;

impl Mac {
    /// Creates a MAC for `addr`.
    pub fn new(addr: MacAddr, cfg: MacConfig, profile: PhyProfile, rng: Rng) -> Self {
        cfg.validate().expect("invalid MacConfig");
        let cw = cfg.cw_min;
        let capacity = cfg.queue_capacity;
        Mac {
            addr,
            cfg,
            profile,
            queues: TxQueues::new(capacity),
            classifier: Classifier::new(),
            counters: MacCounters::new(),
            timers: TimerSet::new(SLOT_COUNT),
            rng,
            state: State::Idle,
            phys_busy: false,
            nav_until: Instant::ZERO,
            cw,
            retry_count: 0,
            backoff_slots: 0,
            backoff_pending: false,
            countdown_from: None,
            current: None,
            after_sifs: None,
            flush_due: false,
            dedup: std::collections::VecDeque::new(),
        }
    }

    /// This MAC's address.
    pub fn addr(&self) -> MacAddr {
        self.addr
    }

    /// True if `token` is still the live occurrence of its timer slot.
    ///
    /// The event loop's stale-timer fast path: a superseded token would be
    /// dropped by [`Mac::handle`] anyway (`TimerSet::fire` refuses it with
    /// no side effects), so the caller can skip the dispatch entirely and
    /// count it instead.
    pub fn timer_is_current(&self, token: TimerToken) -> bool {
        self.timers.is_current(token)
    }

    /// How many times a live timer slot was re-armed (each re-arm strands
    /// one stale event in the queue; see `RunPerf::timer_rearms`).
    pub fn timer_rearms(&self) -> u64 {
        self.timers.rearms()
    }

    /// The active configuration.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// Queue state (for metrics).
    pub fn queues(&self) -> &TxQueues {
        &self.queues
    }

    /// Classifier statistics.
    pub fn classifier_stats(&self) -> &crate::classifier::ClassifierStats {
        &self.classifier.stats
    }

    /// Main entry point: feed one input, emit outputs into `out`.
    ///
    /// The sink is supplied by the caller so the hot path never
    /// allocates; the event loop reuses one scratch buffer across every
    /// event it dispatches.
    pub fn handle<S: MacSink>(&mut self, now: Instant, input: MacInput, out: &mut S) {
        match input {
            MacInput::Enqueue { next_hop, src, payload } => self.on_enqueue(now, next_hop, src, payload, out),
            MacInput::ChannelBusy => self.on_busy(now),
            MacInput::ChannelIdle => self.on_idle(now, out),
            MacInput::Rx(frame) => self.on_rx(now, &frame, out),
            MacInput::TxDone => self.on_tx_done(now, out),
            MacInput::Timer(token) => self.on_timer(now, token, out),
        }
    }

    /// [`Mac::handle`] into a fresh `Vec` — the allocating convenience
    /// wrapper for tests and one-shot callers.
    pub fn handle_collect(&mut self, now: Instant, input: MacInput) -> Vec<MacOutput> {
        let mut out = Vec::new();
        self.handle(now, input, &mut out);
        out
    }

    /// Carrier-sense fast path: [`Mac::handle`] specialised for
    /// `ChannelBusy` / `ChannelIdle`.
    ///
    /// A busy edge never produces output, and an idle edge can produce
    /// at most one `SetTimer` (resuming a frozen backoff or waking at
    /// NAV expiry) — so the event loop's edge fan-out, by far the
    /// hottest MAC entry point (several sensed edges per transmission
    /// boundary), can skip the scratch-buffer sink entirely and get the
    /// one possible timer back by value.
    pub fn on_channel_edge(&mut self, now: Instant, busy: bool) -> Option<(TimerToken, Instant)> {
        if busy {
            self.on_busy(now);
            return None;
        }
        // Single-`SetTimer` sink: anything else coming out of `on_idle`
        // would be a logic error, caught here rather than dropped.
        struct OneTimer(Option<(TimerToken, Instant)>);
        impl MacSink for OneTimer {
            fn push(&mut self, out: MacOutput) {
                match out {
                    MacOutput::SetTimer { token, at } => {
                        debug_assert!(self.0.is_none(), "idle edge armed two timers");
                        self.0 = Some((token, at));
                    }
                    _ => panic!("idle edge produced a non-timer output"),
                }
            }
        }
        let mut sink = OneTimer(None);
        self.on_idle(now, &mut sink);
        sink.0
    }

    // ------------------------------------------------------------------
    // Airtime helpers
    // ------------------------------------------------------------------

    fn control_airtime(&self, len: usize) -> Duration {
        self.profile.preamble + self.profile.time_for(len, self.profile.base_rate)
    }

    fn expected_ack_len(&self) -> usize {
        match self.cfg.ack_policy {
            AckPolicy::Normal => ACK_LEN,
            AckPolicy::Block => BLOCK_ACK_LEN,
        }
    }

    fn us16(d: Duration) -> u16 {
        d.as_micros().min(u16::MAX as u64) as u16
    }

    // ------------------------------------------------------------------
    // Carrier sense and contention
    // ------------------------------------------------------------------

    fn on_enqueue(
        &mut self,
        now: Instant,
        next_hop: MacAddr,
        src: MacAddr,
        payload: Payload,
        out: &mut dyn MacSink,
    ) {
        let class = self.classifier.classify(next_hop, &payload, self.cfg.agg.tcp_ack_as_broadcast);
        let mpdu = QueuedMpdu { next_hop, src, payload, no_ack: class.no_ack, enqueued_at: now };
        self.queues.push(mpdu, class.queue);
        self.try_contend(now, out);
    }

    /// Starts contention if idle, traffic is pending, and the DBA gate
    /// passes. Draws a fresh backoff.
    fn try_contend(&mut self, now: Instant, out: &mut dyn MacSink) {
        if self.state != State::Idle || self.after_sifs.is_some() {
            return;
        }
        if self.current.is_none() && self.queues.is_empty() {
            return;
        }
        // DBA gate: hold until enough frames are queued (retries bypass).
        if self.current.is_none()
            && !self.flush_due
            && self.queues.total_len() < self.cfg.agg.min_frames_before_tx
        {
            if !self.timers.is_armed(Slot::Flush as usize) {
                let token = self.timers.arm(Slot::Flush as usize);
                out.push(MacOutput::SetTimer { token, at: now + self.cfg.agg.flush_timeout });
            }
            return;
        }
        self.state = State::Contend;
        if !self.backoff_pending {
            self.backoff_slots = self.rng.below(self.cw as u64) as u32;
            self.backoff_pending = true;
        }
        self.arm_backoff(now, out);
    }

    /// Arms the DIFS+backoff timer if the channel is idle; otherwise the
    /// countdown stays frozen until `ChannelIdle` / NAV expiry.
    fn arm_backoff(&mut self, now: Instant, out: &mut dyn MacSink) {
        debug_assert_eq!(self.state, State::Contend);
        if self.phys_busy {
            return; // will resume on ChannelIdle
        }
        if now < self.nav_until {
            // Blocked on virtual carrier sense: wake at NAV expiry.
            let token = self.timers.arm(Slot::Nav as usize);
            out.push(MacOutput::SetTimer { token, at: self.nav_until });
            return;
        }
        let wait = self.cfg.difs + self.cfg.slot * self.backoff_slots as u64;
        self.countdown_from = Some(now);
        let token = self.timers.arm(Slot::Backoff as usize);
        out.push(MacOutput::SetTimer { token, at: now + wait });
    }

    /// Freezes a running countdown, accounting consumed DIFS/backoff.
    fn freeze_backoff(&mut self, now: Instant) {
        let Some(started) = self.countdown_from.take() else { return };
        self.timers.cancel(Slot::Backoff as usize);
        let elapsed = now.saturating_duration_since(started);
        let difs_part = elapsed.min(self.cfg.difs);
        self.counters.time.add(cat::DIFS, difs_part);
        let after_difs = elapsed.saturating_sub(self.cfg.difs);
        let consumed = (after_difs.as_nanos() / self.cfg.slot.as_nanos().max(1)) as u32;
        let consumed = consumed.min(self.backoff_slots);
        self.backoff_slots -= consumed;
        self.counters.time.add(cat::BACKOFF, self.cfg.slot * consumed as u64);
    }

    fn on_busy(&mut self, now: Instant) {
        self.phys_busy = true;
        if self.state == State::Contend {
            self.freeze_backoff(now);
        }
    }

    fn on_idle(&mut self, now: Instant, out: &mut dyn MacSink) {
        self.phys_busy = false;
        if self.state == State::Contend && self.after_sifs.is_none() {
            self.arm_backoff(now, out);
        }
    }

    fn set_nav(&mut self, now: Instant, duration_us: u16, out: &mut dyn MacSink) {
        let until = now + Duration::from_micros(duration_us as u64);
        if until > self.nav_until {
            self.nav_until = until;
            if self.state == State::Contend && self.countdown_from.is_some() {
                // Countdown was running on physical idle; re-check at NAV end.
                self.freeze_backoff(now);
                let token = self.timers.arm(Slot::Nav as usize);
                out.push(MacOutput::SetTimer { token, at: until });
            }
        }
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// Backoff complete: assemble and launch the exchange.
    fn tx_opportunity(&mut self, now: Instant, out: &mut dyn MacSink) {
        // Account the fully elapsed DIFS + backoff.
        self.counters.time.add(cat::DIFS, self.cfg.difs);
        self.counters.time.add(cat::BACKOFF, self.cfg.slot * self.backoff_slots as u64);
        self.backoff_slots = 0;
        self.backoff_pending = false;
        self.countdown_from = None;

        // The duration (NAV) field of data subframes covers SIFS + ACK.
        let nav = Self::us16(self.cfg.sifs + self.control_airtime(self.expected_ack_len()));
        let retry_burst = self.current.take().map(|prev| prev.ucast_burst);
        let frame = assemble(&mut self.queues, &self.cfg, &self.profile, self.addr, nav, retry_burst);

        let Some(frame) = frame else {
            self.state = State::Idle;
            return;
        };
        self.flush_due = false;

        if frame.expects_ack() && self.cfg.rts_cts {
            let data_air = frame.on_air.airtime(&self.profile).total();
            let tail = self.cfg.sifs
                + self.control_airtime(CTS_LEN)
                + self.cfg.sifs
                + data_air
                + self.cfg.sifs
                + self.control_airtime(self.expected_ack_len());
            let rts = ControlFrame::Rts {
                duration_us: Self::us16(tail),
                ra: frame.ucast_dest.expect("expects_ack implies dest"),
                ta: self.addr,
            };
            self.counters.tx_rts += 1;
            self.counters.time.add(cat::CONTROL, self.control_airtime(RTS_LEN));
            self.current = Some(frame);
            self.state = State::TxRts;
            out.push(MacOutput::StartTx(OnAirFrame::Control(rts.encode())));
        } else if frame.expects_ack() {
            self.current = Some(frame);
            self.start_data_tx(now, out);
        } else {
            // Broadcast-only: no handshake, no ACK, never retried.
            self.account_data_tx(&frame);
            self.state = State::TxBcast;
            out.push(MacOutput::StartTx(frame.on_air));
        }
    }

    /// Accounting common to every data-aggregate launch.
    fn account_data_tx(&mut self, frame: &AssembledFrame) {
        let OnAirFrame::Aggregate { phy_hdr, psdu, slots } = &frame.on_air else {
            unreachable!("data tx is always an aggregate")
        };
        self.counters.tx_data_frames += 1;
        self.counters.frame_sizes.push(psdu.len() as f64);
        self.counters.subframes_per_frame.push(slots.len() as f64);
        self.counters.tx_unicast_subframes += frame.ucast_burst.len() as u64;
        self.counters.tx_broadcast_subframes += frame.bcast_count as u64;
        self.counters.tx_psdu_bytes += psdu.len() as u64;
        self.counters.tx_phy_header_bytes += self.profile.phy_header_bytes as u64;
        if frame.is_retry {
            self.counters.retries += 1;
        }

        let bcast_rate = Rate::from_code(phy_hdr.bcast_rate).unwrap_or(self.profile.base_rate);
        let ucast_rate = Rate::from_code(phy_hdr.ucast_rate).unwrap_or(self.profile.base_rate);
        let mut payload = Duration::ZERO;
        let mut header = Duration::ZERO;
        let mut overhead_bytes = 0u64;
        for slot in slots.iter() {
            let rate = match slot.portion {
                Portion::Broadcast => bcast_rate,
                Portion::Unicast => ucast_rate,
            };
            let ovh = slot.range.len() - slot.payload_len;
            overhead_bytes += ovh as u64;
            payload += self.profile.time_for(slot.payload_len, rate);
            header += self.profile.time_for(ovh, rate);
        }
        self.counters.tx_overhead_bytes += overhead_bytes;
        self.counters.time.add(cat::PAYLOAD, payload);
        self.counters.time.add(cat::MAC_HEADER, header);
        self.counters.time.add(cat::PHY, self.profile.preamble + self.profile.phy_header_time());
    }

    /// Launches the data aggregate (after CTS, or directly without RTS).
    fn start_data_tx(&mut self, _now: Instant, out: &mut dyn MacSink) {
        let frame = self.current.take().expect("data tx without frame");
        self.account_data_tx(&frame);
        let on_air = frame.on_air.clone();
        self.current = Some(frame);
        self.state = State::TxData;
        out.push(MacOutput::StartTx(on_air));
    }

    fn on_tx_done(&mut self, now: Instant, out: &mut dyn MacSink) {
        match self.state {
            State::TxRts => {
                self.state = State::AwaitCts;
                let deadline = now + self.cfg.sifs + self.control_airtime(CTS_LEN) + self.cfg.timeout_margin;
                let token = self.timers.arm(Slot::CtsTimeout as usize);
                out.push(MacOutput::SetTimer { token, at: deadline });
            }
            State::TxData => {
                self.state = State::AwaitAck;
                let deadline = now
                    + self.cfg.sifs
                    + self.control_airtime(self.expected_ack_len())
                    + self.cfg.timeout_margin;
                let token = self.timers.arm(Slot::AckTimeout as usize);
                out.push(MacOutput::SetTimer { token, at: deadline });
            }
            State::TxBcast => {
                // Broadcast-only frames complete unconditionally.
                self.current = None;
                self.state = State::Idle;
                self.try_contend(now, out);
            }
            State::TxResponse => {
                self.state = State::Idle;
                self.try_contend(now, out);
            }
            other => {
                debug_assert!(false, "TxDone in unexpected state {other:?}");
            }
        }
    }

    /// Successful exchange: burst delivered and acknowledged.
    fn finish_success(&mut self, now: Instant, out: &mut dyn MacSink) {
        self.timers.cancel(Slot::AckTimeout as usize);
        self.counters.time.add(cat::CONTROL, self.control_airtime(self.expected_ack_len()));
        self.counters.time.add(cat::SIFS, self.cfg.sifs);
        self.current = None;
        self.retry_count = 0;
        self.cw = self.cfg.cw_min;
        self.state = State::Idle;
        self.try_contend(now, out);
    }

    /// Failed attempt (CTS or ACK timeout): retry with doubled CW or drop.
    fn fail_attempt(&mut self, now: Instant, out: &mut dyn MacSink) {
        self.retry_count += 1;
        self.cw = (self.cw * 2).min(self.cfg.cw_max);
        if self.retry_count > self.cfg.retry_limit {
            let dropped = self.current.take().map(|f| f.ucast_burst.len()).unwrap_or(0);
            self.counters.retry_drops += 1;
            out.push(MacOutput::UnicastDropped { count: dropped });
            self.retry_count = 0;
            self.cw = self.cfg.cw_min;
        }
        // `current` still holds the burst (unless dropped): contend again.
        self.state = State::Idle;
        self.try_contend_for_retry(now, out);
    }

    /// Post-failure contention: allowed even if queues are empty, because
    /// the stored burst must be retried. A failed attempt always draws a
    /// fresh backoff from the (doubled) contention window.
    fn try_contend_for_retry(&mut self, now: Instant, out: &mut dyn MacSink) {
        if self.current.is_some() {
            self.state = State::Contend;
            self.backoff_slots = self.rng.below(self.cw as u64) as u32;
            self.backoff_pending = true;
            self.arm_backoff(now, out);
        } else {
            self.backoff_pending = false;
            self.try_contend(now, out);
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn on_timer(&mut self, now: Instant, token: TimerToken, out: &mut dyn MacSink) {
        if !self.timers.fire(token) {
            return; // stale
        }
        match token.slot() {
            s if s == Slot::Backoff as usize => {
                if self.state == State::Contend {
                    self.tx_opportunity(now, out);
                }
            }
            s if s == Slot::CtsTimeout as usize => {
                if self.state == State::AwaitCts {
                    // The wait was real airtime lost to the failed handshake.
                    self.counters.time.add(
                        cat::CONTROL,
                        self.cfg.sifs + self.control_airtime(CTS_LEN) + self.cfg.timeout_margin,
                    );
                    self.fail_attempt(now, out);
                }
            }
            s if s == Slot::AckTimeout as usize => {
                if self.state == State::AwaitAck {
                    self.counters.time.add(
                        cat::CONTROL,
                        self.cfg.sifs
                            + self.control_airtime(self.expected_ack_len())
                            + self.cfg.timeout_margin,
                    );
                    self.fail_attempt(now, out);
                }
            }
            s if s == Slot::Sifs as usize => match self.after_sifs.take() {
                Some(AfterSifs::Cts(cts)) => {
                    self.counters.tx_cts += 1;
                    self.state = State::TxResponse;
                    out.push(MacOutput::StartTx(OnAirFrame::Control(cts.encode())));
                }
                Some(AfterSifs::Ack(ack)) => {
                    self.counters.tx_acks += 1;
                    self.state = State::TxResponse;
                    out.push(MacOutput::StartTx(OnAirFrame::Control(ack.encode())));
                }
                Some(AfterSifs::Data) => {
                    self.counters.time.add(cat::SIFS, self.cfg.sifs);
                    self.start_data_tx(now, out);
                }
                None => {}
            },
            s if s == Slot::Nav as usize => {
                if self.state == State::Contend {
                    self.arm_backoff(now, out);
                }
            }
            s if s == Slot::Flush as usize => {
                self.flush_due = true;
                self.try_contend(now, out);
            }
            _ => unreachable!("unknown timer slot"),
        }
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    fn on_rx(&mut self, now: Instant, frame: &OnAirFrame, out: &mut dyn MacSink) {
        match frame {
            OnAirFrame::Control(bytes) => self.on_rx_control(now, bytes, out),
            OnAirFrame::Aggregate { phy_hdr, psdu, .. } => self.on_rx_aggregate(now, phy_hdr, psdu, out),
        }
    }

    fn respond_after_sifs(&mut self, now: Instant, action: AfterSifs, out: &mut dyn MacSink) {
        if self.after_sifs.is_some() {
            self.counters.rx_control_ignored += 1;
            return;
        }
        // Pause any running countdown (channel is busy anyway, but the
        // edge may race with this event at the same instant).
        if self.state == State::Contend {
            self.freeze_backoff(now);
        }
        self.after_sifs = Some(action);
        let token = self.timers.arm(Slot::Sifs as usize);
        out.push(MacOutput::SetTimer { token, at: now + self.cfg.sifs });
    }

    fn on_rx_control(&mut self, now: Instant, bytes: &[u8], out: &mut dyn MacSink) {
        let Ok(ctrl) = ControlFrame::parse(bytes) else {
            self.counters.rx_control_ignored += 1;
            return;
        };
        match ctrl {
            ControlFrame::Rts { duration_us, ra, ta } => {
                if ra == self.addr {
                    if matches!(self.state, State::Idle | State::Contend) && now >= self.nav_until {
                        let cts_dur = Duration::from_micros(duration_us as u64)
                            .saturating_sub(self.cfg.sifs + self.control_airtime(CTS_LEN));
                        let cts = ControlFrame::Cts { duration_us: Self::us16(cts_dur), ra: ta };
                        self.respond_after_sifs(now, AfterSifs::Cts(cts), out);
                    } else {
                        self.counters.rx_control_ignored += 1;
                    }
                } else {
                    self.set_nav(now, duration_us, out);
                }
            }
            ControlFrame::Cts { duration_us, ra } => {
                if ra == self.addr && self.state == State::AwaitCts {
                    self.timers.cancel(Slot::CtsTimeout as usize);
                    self.counters.time.add(cat::SIFS, self.cfg.sifs);
                    self.counters.time.add(cat::CONTROL, self.control_airtime(CTS_LEN));
                    self.respond_after_sifs(now, AfterSifs::Data, out);
                } else if ra != self.addr {
                    self.set_nav(now, duration_us, out);
                } else {
                    self.counters.rx_control_ignored += 1;
                }
            }
            ControlFrame::Ack { ra, .. } => {
                if ra == self.addr && self.state == State::AwaitAck {
                    self.finish_success(now, out);
                } else {
                    self.counters.rx_control_ignored += 1;
                }
            }
            ControlFrame::BlockAck { ra, bitmap, .. } => {
                if ra == self.addr && self.state == State::AwaitAck {
                    self.on_block_ack(now, bitmap, out);
                } else {
                    self.counters.rx_control_ignored += 1;
                }
            }
        }
    }

    /// Block-ACK (extension): keep only unACKed subframes for retry.
    fn on_block_ack(&mut self, now: Instant, bitmap: u64, out: &mut dyn MacSink) {
        let Some(mut frame) = self.current.take() else {
            return self.finish_success(now, out);
        };
        let mut idx = 0;
        frame.ucast_burst.retain(|_| {
            let acked = bitmap & (1 << idx) != 0;
            idx += 1;
            !acked
        });
        if frame.ucast_burst.is_empty() {
            self.finish_success(now, out);
        } else {
            self.current = Some(frame);
            self.timers.cancel(Slot::AckTimeout as usize);
            self.counters.time.add(cat::CONTROL, self.control_airtime(BLOCK_ACK_LEN));
            self.counters.time.add(cat::SIFS, self.cfg.sifs);
            self.fail_attempt(now, out);
        }
    }

    /// A zero-copy sub-view of `psdu` holding one subframe's payload.
    fn subframe_payload(psdu: &Payload, sub: &hydra_wire::ParsedSubframe<'_>) -> Payload {
        let at = sub.range.start + HEADER_LEN;
        psdu.slice(at..at + sub.view().payload_len() as usize)
    }

    fn on_rx_aggregate(
        &mut self,
        now: Instant,
        phy_hdr: &hydra_wire::PhyHeader,
        psdu: &Payload,
        out: &mut dyn MacSink,
    ) {
        let parsed = parse_aggregate(phy_hdr, psdu);
        self.process_aggregate(now, phy_hdr, psdu, &parsed, out);
    }

    /// Receive path for an aggregate that was already parsed —
    /// behaviorally identical to feeding [`MacInput::Rx`] with the same
    /// frame. A broadcast reaches every node in range with the *same*
    /// bytes unless the channel corrupted that receiver's copy, so the
    /// event loop parses the PSDU once and fans the parse out to all
    /// clean receivers (`parsed` must be `parse_aggregate(phy_hdr, psdu)`).
    pub fn handle_rx_parsed<S: MacSink>(
        &mut self,
        now: Instant,
        phy_hdr: &hydra_wire::PhyHeader,
        psdu: &Payload,
        parsed: &[hydra_wire::ParsedSubframe<'_>],
        out: &mut S,
    ) {
        self.process_aggregate(now, phy_hdr, psdu, parsed, out);
    }

    fn process_aggregate(
        &mut self,
        now: Instant,
        phy_hdr: &hydra_wire::PhyHeader,
        psdu: &Payload,
        parsed: &[hydra_wire::ParsedSubframe<'_>],
        out: &mut dyn MacSink,
    ) {
        // Broadcast portion: per-subframe CRC, deliver-or-drop by address
        // (paper §3.3 / §4.2.2).
        for sub in parsed.iter().filter(|s| s.portion == Portion::Broadcast) {
            if !sub.fcs_ok {
                self.counters.rx_broadcast_crc_fail += 1;
                continue;
            }
            let view = sub.view();
            if view.addr1() == self.addr || view.addr1().is_broadcast() {
                self.counters.rx_broadcast_ok += 1;
                out.push(MacOutput::Deliver {
                    src: view.addr3(),
                    transmitter: view.addr2(),
                    payload: Self::subframe_payload(psdu, sub),
                });
            } else {
                // Decode-and-drop: a classified TCP ACK meant for another
                // node along the path.
                self.counters.rx_broadcast_filtered += 1;
            }
        }

        // Unicast portion: all-or-nothing + link ACK (paper §4.2.2).
        // Iterated as filters over the (small, cache-hot) parse slice —
        // collecting into a `Vec` here allocated once per receiver per
        // aggregate on the rx fan-out path.
        let ucast = || parsed.iter().filter(|s| s.portion == Portion::Unicast);
        let Some(first) = ucast().next() else {
            return;
        };
        if !first.fcs_ok {
            // Can't even trust the addressing; the sender will retry.
            self.counters.rx_unicast_crc_drop += 1;
            return;
        }
        let first_view = first.view();
        if first_view.addr1() != self.addr {
            let dur = first_view.duration_us();
            self.set_nav(now, dur, out);
            return;
        }

        let covered: usize = ucast().map(|s| s.range.len()).sum();
        let complete = covered == phy_hdr.ucast_len as usize;
        let transmitter = first_view.addr2();

        match self.cfg.ack_policy {
            AckPolicy::Normal => {
                let all_ok = complete && ucast().all(|s| s.fcs_ok);
                if all_ok {
                    self.counters.rx_unicast_ok += 1;
                    for sub in ucast() {
                        self.deliver_unicast(psdu, sub, out);
                    }
                    let ack = ControlFrame::Ack { duration_us: 0, ra: transmitter };
                    self.respond_after_sifs(now, AfterSifs::Ack(ack), out);
                } else {
                    self.counters.rx_unicast_crc_drop += 1;
                }
            }
            AckPolicy::Block => {
                let mut bitmap = 0u64;
                for (i, sub) in ucast().enumerate() {
                    if sub.fcs_ok && i < 64 {
                        bitmap |= 1 << i;
                        self.counters.rx_block_subframes_ok += 1;
                        self.deliver_unicast(psdu, sub, out);
                    }
                }
                let ba = ControlFrame::BlockAck { duration_us: 0, ra: transmitter, bitmap };
                self.respond_after_sifs(now, AfterSifs::Ack(ba), out);
            }
        }
    }

    /// Delivers one unicast subframe upward, filtering duplicates from
    /// retransmitted bursts whose original ACK was lost.
    fn deliver_unicast(
        &mut self,
        psdu: &Payload,
        sub: &hydra_wire::ParsedSubframe<'_>,
        out: &mut dyn MacSink,
    ) {
        let view = sub.view();
        let payload = view.payload();
        // The encap shim carries (src_node via addr2, packet_id) — enough
        // to recognize a re-delivered MPDU.
        let key = hydra_wire::EncapRepr::parse(payload).ok().map(|(e, _)| (view.addr2(), e.packet_id));
        if view.is_retry() {
            if let Some(key) = key {
                if self.dedup.contains(&key) {
                    return;
                }
            }
        }
        if let Some(key) = key {
            if self.dedup.len() == DEDUP_WINDOW {
                self.dedup.pop_front();
            }
            self.dedup.push_back(key);
        }
        out.push(MacOutput::Deliver {
            src: view.addr3(),
            transmitter: view.addr2(),
            payload: Self::subframe_payload(psdu, sub),
        });
    }
}
