//! Control frames: RTS, CTS, ACK (standard 802.11 sizes).
//!
//! ```text
//! RTS: | FC(2) | Duration(2) | RA(6) | TA(6) | FCS(4) |   = 20 B
//! CTS: | FC(2) | Duration(2) | RA(6) | FCS(4) |          = 14 B
//! ACK: | FC(2) | Duration(2) | RA(6) | FCS(4) |          = 14 B
//! ```
//!
//! Control frames travel at the base rate and are *not* padded to the
//! minimum subframe size (they are standalone PHY frames, not subframes).

use core::ops::{Deref, DerefMut};

use crate::addr::MacAddr;
use crate::crc::crc32;
use crate::error::{Result, WireError};
use crate::subframe::FrameType;

/// On-air size of an RTS frame.
pub const RTS_LEN: usize = 20;
/// On-air size of a CTS frame.
pub const CTS_LEN: usize = 14;
/// On-air size of an ACK frame.
pub const ACK_LEN: usize = 14;
/// On-air size of a Block ACK frame (ACK + 64-bit subframe bitmap).
pub const BLOCK_ACK_LEN: usize = 22;

/// A parsed control frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFrame {
    /// Request to send: receiver + transmitter addresses, NAV duration.
    Rts {
        /// NAV duration in µs covering the rest of the exchange.
        duration_us: u16,
        /// Receiver address.
        ra: MacAddr,
        /// Transmitter address.
        ta: MacAddr,
    },
    /// Clear to send.
    Cts {
        /// Remaining NAV duration in µs.
        duration_us: u16,
        /// Receiver address (the original RTS sender).
        ra: MacAddr,
    },
    /// Link-level acknowledgement.
    Ack {
        /// Duration (0 unless more fragments follow; always 0 here).
        duration_us: u16,
        /// Receiver address (the data sender).
        ra: MacAddr,
    },
    /// Block acknowledgement: per-subframe receipt bitmap (bit `i` set =
    /// unicast subframe `i` passed its CRC). The paper lists this as
    /// future work (§7); implemented here as an optional MAC mode.
    BlockAck {
        /// Duration field.
        duration_us: u16,
        /// Receiver address (the data sender).
        ra: MacAddr,
        /// Receipt bitmap for up to 64 unicast subframes.
        bitmap: u64,
    },
}

impl ControlFrame {
    /// The on-air length of this frame.
    pub fn on_air_len(&self) -> usize {
        match self {
            ControlFrame::Rts { .. } => RTS_LEN,
            ControlFrame::Cts { .. } => CTS_LEN,
            ControlFrame::Ack { .. } => ACK_LEN,
            ControlFrame::BlockAck { .. } => BLOCK_ACK_LEN,
        }
    }

    /// The receiver address the frame is directed at.
    pub fn ra(&self) -> MacAddr {
        match self {
            ControlFrame::Rts { ra, .. }
            | ControlFrame::Cts { ra, .. }
            | ControlFrame::Ack { ra, .. }
            | ControlFrame::BlockAck { ra, .. } => *ra,
        }
    }

    /// The NAV duration field.
    pub fn duration_us(&self) -> u16 {
        match self {
            ControlFrame::Rts { duration_us, .. }
            | ControlFrame::Cts { duration_us, .. }
            | ControlFrame::Ack { duration_us, .. }
            | ControlFrame::BlockAck { duration_us, .. } => *duration_us,
        }
    }

    /// Serializes to on-air bytes (including FCS), inline: no heap.
    pub fn encode(&self) -> ControlBytes {
        let len = self.on_air_len();
        let mut buf = [0; BLOCK_ACK_LEN];
        let fc = match self {
            ControlFrame::Rts { .. } => FrameType::Rts,
            ControlFrame::Cts { .. } => FrameType::Cts,
            ControlFrame::Ack { .. } => FrameType::Ack,
            ControlFrame::BlockAck { .. } => FrameType::BlockAck,
        };
        buf[0..2].copy_from_slice(&fc.to_bits().to_le_bytes());
        buf[2..4].copy_from_slice(&self.duration_us().to_le_bytes());
        buf[4..10].copy_from_slice(&self.ra().octets());
        match self {
            ControlFrame::Rts { ta, .. } => buf[10..16].copy_from_slice(&ta.octets()),
            ControlFrame::BlockAck { bitmap, .. } => buf[10..18].copy_from_slice(&bitmap.to_le_bytes()),
            ControlFrame::Cts { .. } | ControlFrame::Ack { .. } => {}
        }
        let fcs = crc32(&buf[..len - FCS_TRAILER]);
        buf[len - FCS_TRAILER..len].copy_from_slice(&fcs.to_le_bytes());
        ControlBytes { buf, len: len as u8 }
    }

    /// Parses a control frame, verifying length and FCS.
    pub fn parse(data: &[u8]) -> Result<ControlFrame> {
        if data.len() < 4 + FCS_TRAILER {
            return Err(WireError::Truncated);
        }
        let fc = u16::from_le_bytes([data[0], data[1]]);
        let ty = FrameType::from_bits(fc & 0x000F)?;
        let expected_len = match ty {
            FrameType::Rts => RTS_LEN,
            FrameType::Cts => CTS_LEN,
            FrameType::Ack => ACK_LEN,
            FrameType::BlockAck => BLOCK_ACK_LEN,
            _ => return Err(WireError::Malformed),
        };
        if data.len() != expected_len {
            return Err(WireError::BadLength);
        }
        let body = &data[..expected_len - FCS_TRAILER];
        let stored = u32::from_le_bytes([
            data[expected_len - 4],
            data[expected_len - 3],
            data[expected_len - 2],
            data[expected_len - 1],
        ]);
        if crc32(body) != stored {
            return Err(WireError::Checksum);
        }
        let duration_us = u16::from_le_bytes([data[2], data[3]]);
        let mut ra = [0u8; 6];
        ra.copy_from_slice(&data[4..10]);
        let ra = MacAddr(ra);
        Ok(match ty {
            FrameType::Rts => {
                let mut ta = [0u8; 6];
                ta.copy_from_slice(&data[10..16]);
                ControlFrame::Rts { duration_us, ra, ta: MacAddr(ta) }
            }
            FrameType::Cts => ControlFrame::Cts { duration_us, ra },
            FrameType::Ack => ControlFrame::Ack { duration_us, ra },
            FrameType::BlockAck => {
                let mut bm = [0u8; 8];
                bm.copy_from_slice(&data[10..18]);
                ControlFrame::BlockAck { duration_us, ra, bitmap: u64::from_le_bytes(bm) }
            }
            _ => unreachable!(),
        })
    }
}

const FCS_TRAILER: usize = 4;

/// An encoded control frame held inline: the on-air bytes of the
/// longest control frame (Block ACK) plus the used length. `Copy`, so
/// RTS/CTS/ACK exchanges never touch the heap; it derefs to the bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ControlBytes {
    buf: [u8; BLOCK_ACK_LEN],
    len: u8,
}

impl Deref for ControlBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl DerefMut for ControlBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[..self.len as usize]
    }
}

impl core::fmt::Debug for ControlBytes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:?}", &**self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_80211() {
        let rts = ControlFrame::Rts {
            duration_us: 100,
            ra: MacAddr::from_node_id(1),
            ta: MacAddr::from_node_id(2),
        };
        let cts = ControlFrame::Cts { duration_us: 80, ra: MacAddr::from_node_id(2) };
        let ack = ControlFrame::Ack { duration_us: 0, ra: MacAddr::from_node_id(1) };
        assert_eq!(rts.encode().len(), 20);
        assert_eq!(cts.encode().len(), 14);
        assert_eq!(ack.encode().len(), 14);
    }

    #[test]
    fn block_ack_roundtrip() {
        let ba = ControlFrame::BlockAck { duration_us: 0, ra: MacAddr::from_node_id(2), bitmap: 0b1011 };
        let bytes = ba.encode();
        assert_eq!(bytes.len(), BLOCK_ACK_LEN);
        assert_eq!(ControlFrame::parse(&bytes).unwrap(), ba);
    }

    #[test]
    fn roundtrip_all_kinds() {
        let frames = [
            ControlFrame::Rts {
                duration_us: 4321,
                ra: MacAddr::from_node_id(7),
                ta: MacAddr::from_node_id(8),
            },
            ControlFrame::Cts { duration_us: 999, ra: MacAddr::from_node_id(7) },
            ControlFrame::Ack { duration_us: 0, ra: MacAddr::from_node_id(9) },
            ControlFrame::BlockAck { duration_us: 0, ra: MacAddr::from_node_id(9), bitmap: u64::MAX },
        ];
        for f in frames {
            let bytes = f.encode();
            assert_eq!(ControlFrame::parse(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn corrupt_fcs_rejected() {
        let mut bytes = ControlFrame::Cts { duration_us: 1, ra: MacAddr::from_node_id(1) }.encode();
        bytes[5] ^= 0x10;
        assert_eq!(ControlFrame::parse(&bytes).err(), Some(WireError::Checksum));
    }

    #[test]
    fn wrong_length_rejected() {
        let bytes = ControlFrame::Ack { duration_us: 0, ra: MacAddr::from_node_id(1) }.encode();
        assert_eq!(ControlFrame::parse(&bytes[..10]).err(), Some(WireError::BadLength));
    }

    #[test]
    fn data_type_not_a_control_frame() {
        // FrameType::Data in the FC field is not a valid control frame.
        let mut bytes = vec![0u8; 14];
        bytes[0] = 0; // Data
        let fcs = crate::crc::crc32(&bytes[..10]);
        bytes[10..].copy_from_slice(&fcs.to_le_bytes());
        assert_eq!(ControlFrame::parse(&bytes).err(), Some(WireError::Malformed));
    }

    #[test]
    fn accessors() {
        let rts =
            ControlFrame::Rts { duration_us: 55, ra: MacAddr::from_node_id(3), ta: MacAddr::from_node_id(4) };
        assert_eq!(rts.ra(), MacAddr::from_node_id(3));
        assert_eq!(rts.duration_us(), 55);
        assert_eq!(rts.on_air_len(), RTS_LEN);
    }
}
