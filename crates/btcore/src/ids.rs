//! L2CAP channel, port and link identifiers.
//!
//! These are exactly the values the paper's *core field mutating* technique
//! (§III-D) manipulates: the Protocol/Service Multiplexer ([`Psm`], the "port"
//! of a Bluetooth service) and the channel identifiers ([`Cid`]) carried in
//! signalling payloads (SCID, DCID, ICID, controller ID — collectively "CIDP"
//! in the paper).  [`ConnectionHandle`] and [`Identifier`] are the
//! HCI-level link handle and the L2CAP signalling packet ID, both of which the
//! paper classifies as *dependent* fields that must not be mutated.

use std::fmt;

use serde::{Deserialize, Serialize};

/// An L2CAP Channel Identifier.
///
/// CIDs name the local endpoint of a logical channel.  CID `0x0001` is the
/// fixed signalling channel on ACL-U links and is the only *fixed* field of
/// the L2CAP frame (paper Fig. 6); dynamically allocated channels live in
/// `0x0040..=0xFFFF`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cid(pub u16);

impl Cid {
    /// The null CID; never valid on the air.
    pub const NULL: Cid = Cid(0x0000);
    /// The fixed ACL-U signalling channel (`0x0001`).
    pub const SIGNALING: Cid = Cid(0x0001);
    /// The connectionless data channel (`0x0002`).
    pub const CONNECTIONLESS: Cid = Cid(0x0002);
    /// The AMP manager protocol channel (`0x0003`).
    pub const AMP_MANAGER: Cid = Cid(0x0003);
    /// The LE attribute protocol channel (`0x0004`).
    pub const ATTRIBUTE: Cid = Cid(0x0004);
    /// The LE signalling channel (`0x0005`).
    pub const LE_SIGNALING: Cid = Cid(0x0005);
    /// The security manager channel (`0x0006`).
    pub const SECURITY_MANAGER: Cid = Cid(0x0006);
    /// First dynamically allocatable CID on ACL-U links.
    pub const DYNAMIC_START: Cid = Cid(0x0040);
    /// Last dynamically allocatable CID.
    pub const DYNAMIC_END: Cid = Cid(0xFFFF);

    /// Returns the raw 16-bit value.
    pub const fn value(&self) -> u16 {
        self.0
    }

    /// Returns `true` if this is the fixed signalling channel.
    pub const fn is_signaling(&self) -> bool {
        self.0 == 0x0001
    }

    /// Returns `true` if the CID lies in the dynamically allocatable range
    /// `0x0040..=0xFFFF` — the range the paper's Table IV uses when mutating
    /// CIDP values.
    pub const fn is_dynamic(&self) -> bool {
        self.0 >= 0x0040
    }

    /// Returns `true` if the CID is one of the reserved fixed channels
    /// (`0x0001..=0x003F`, excluding the dynamic range).
    pub const fn is_fixed_channel(&self) -> bool {
        self.0 >= 0x0001 && self.0 <= 0x003F
    }
}

impl fmt::Display for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:04X}", self.0)
    }
}

impl fmt::LowerHex for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u16> for Cid {
    fn from(v: u16) -> Self {
        Cid(v)
    }
}

impl From<Cid> for u16 {
    fn from(c: Cid) -> Self {
        c.0
    }
}

/// A Protocol/Service Multiplexer value — the "port number" of a Bluetooth
/// service reachable over L2CAP.
///
/// The Bluetooth specification requires valid PSMs to have an odd least
/// significant octet and an even most significant octet.  The paper's
/// Table IV mutates PSMs *outside* the assigned/valid space to probe how the
/// target parses abnormal port values.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Psm(pub u16);

impl Psm {
    /// Service Discovery Protocol (`0x0001`) — never requires pairing and is
    /// supported by every Bluetooth device; the fallback port of the paper's
    /// target-scanning phase.
    pub const SDP: Psm = Psm(0x0001);
    /// RFCOMM (`0x0003`).
    pub const RFCOMM: Psm = Psm(0x0003);
    /// Telephony Control Protocol (`0x0005`).
    pub const TCS_BIN: Psm = Psm(0x0005);
    /// TCS cordless (`0x0007`).
    pub const TCS_BIN_CORDLESS: Psm = Psm(0x0007);
    /// BNEP (`0x000F`).
    pub const BNEP: Psm = Psm(0x000F);
    /// HID control (`0x0011`).
    pub const HID_CONTROL: Psm = Psm(0x0011);
    /// HID interrupt (`0x0013`).
    pub const HID_INTERRUPT: Psm = Psm(0x0013);
    /// UPnP (`0x0015`).
    pub const UPNP: Psm = Psm(0x0015);
    /// AVCTP (`0x0017`).
    pub const AVCTP: Psm = Psm(0x0017);
    /// AVDTP (`0x0019`).
    pub const AVDTP: Psm = Psm(0x0019);
    /// AVCTP browsing (`0x001B`).
    pub const AVCTP_BROWSING: Psm = Psm(0x001B);
    /// ATT over BR/EDR (`0x001F`).
    pub const ATT: Psm = Psm(0x001F);
    /// 3DSP (`0x0021`).
    pub const THREE_DSP: Psm = Psm(0x0021);
    /// Internet Protocol Support Profile (`0x0023`).
    pub const IPSP: Psm = Psm(0x0023);
    /// Object Transfer Service (`0x0025`).
    pub const OTS: Psm = Psm(0x0025);
    /// Start of the dynamically assignable PSM range.
    pub const DYNAMIC_START: Psm = Psm(0x1001);

    /// Enhanced ATT over an LE credit-based channel (SPSM `0x0027`).
    pub const EATT: Psm = Psm(0x0027);
    /// Object Transfer Service over LE (SPSM `0x0025`; same value as
    /// [`Psm::OTS`], listed separately for the LE scan catalogue).
    pub const OTS_LE: Psm = Psm(0x0025);
    /// First dynamically assignable LE SPSM (`0x0080`).
    pub const LE_DYNAMIC_START: Psm = Psm(0x0080);
    /// Last defined LE SPSM value (`0x00FF`).
    pub const LE_DYNAMIC_END: Psm = Psm(0x00FF);

    /// Returns the raw 16-bit value.
    pub const fn value(&self) -> u16 {
        self.0
    }

    /// Returns `true` if the PSM satisfies the specification's structural
    /// validity rule: the least significant octet must be odd and the most
    /// significant octet must be even.
    pub const fn is_valid(&self) -> bool {
        let lsb = (self.0 & 0x00FF) as u8;
        let msb = (self.0 >> 8) as u8;
        lsb % 2 == 1 && msb.is_multiple_of(2)
    }

    /// Returns `true` if the PSM is in the dynamically assignable range
    /// (`0x1001..`), as opposed to the SIG-assigned fixed range.
    pub const fn is_dynamic(&self) -> bool {
        self.0 >= 0x1001
    }

    /// Returns the list of SIG-assigned PSMs this crate knows about.  Used by
    /// the simulated SDP service table and by port scanning.
    pub fn well_known() -> &'static [Psm] {
        &[
            Psm::SDP,
            Psm::RFCOMM,
            Psm::TCS_BIN,
            Psm::TCS_BIN_CORDLESS,
            Psm::BNEP,
            Psm::HID_CONTROL,
            Psm::HID_INTERRUPT,
            Psm::UPNP,
            Psm::AVCTP,
            Psm::AVDTP,
            Psm::AVCTP_BROWSING,
            Psm::ATT,
            Psm::THREE_DSP,
            Psm::IPSP,
            Psm::OTS,
        ]
    }

    /// Returns `true` if the value is a defined LE SPSM: SIG-assigned
    /// (`0x0001..=0x007F`) or dynamically assignable (`0x0080..=0x00FF`).
    pub const fn is_valid_spsm(&self) -> bool {
        self.0 >= 0x0001 && self.0 <= 0x00FF
    }

    /// Returns the list of LE SPSMs the target scanner probes on an LE-U
    /// link (the LE counterpart of [`Psm::well_known`]).
    pub fn well_known_le() -> &'static [Psm] {
        &[
            Psm::OTS_LE,
            Psm::EATT,
            Psm(0x0029), // 3D synchronization
            Psm::LE_DYNAMIC_START,
            Psm(0x0081),
            Psm(0x0082),
        ]
    }
}

impl fmt::Display for Psm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:04X}", self.0)
    }
}

impl From<u16> for Psm {
    fn from(v: u16) -> Self {
        Psm(v)
    }
}

impl From<Psm> for u16 {
    fn from(p: Psm) -> Self {
        p.0
    }
}

/// An HCI ACL connection handle (12 significant bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ConnectionHandle(pub u16);

impl ConnectionHandle {
    /// Maximum valid connection handle value (`0x0EFF`).
    pub const MAX: ConnectionHandle = ConnectionHandle(0x0EFF);

    /// Returns the raw handle value.
    pub const fn value(&self) -> u16 {
        self.0
    }

    /// Returns `true` if the handle is within the controller's valid range.
    pub const fn is_valid(&self) -> bool {
        self.0 <= 0x0EFF
    }
}

impl fmt::Display for ConnectionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:03X}", self.0)
    }
}

impl From<u16> for ConnectionHandle {
    fn from(v: u16) -> Self {
        ConnectionHandle(v)
    }
}

/// The L2CAP signalling packet identifier — matches responses to requests.
///
/// The identifier is classified as a *dependent* field by the paper: it is
/// dynamically assigned by the sender and never mutated.  `0x00` is invalid
/// per the specification, so [`Identifier::next`] wraps from `0xFF` to
/// `0x01`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Identifier(pub u8);

impl Identifier {
    /// The first valid identifier.
    pub const FIRST: Identifier = Identifier(0x01);

    /// Returns the raw identifier value.
    pub const fn value(&self) -> u8 {
        self.0
    }

    /// Returns `true` if the identifier is valid (non-zero).
    pub const fn is_valid(&self) -> bool {
        self.0 != 0
    }

    /// Returns the next identifier in sequence, skipping the invalid `0x00`.
    pub const fn next(&self) -> Identifier {
        if self.0 == 0xFF {
            Identifier(0x01)
        } else {
            Identifier(self.0 + 1)
        }
    }
}

impl Default for Identifier {
    fn default() -> Self {
        Identifier::FIRST
    }
}

impl fmt::Display for Identifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:02X}", self.0)
    }
}

impl From<u8> for Identifier {
    fn from(v: u8) -> Self {
        Identifier(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signaling_cid_is_fixed() {
        assert!(Cid::SIGNALING.is_signaling());
        assert!(Cid::SIGNALING.is_fixed_channel());
        assert!(!Cid::SIGNALING.is_dynamic());
    }

    #[test]
    fn dynamic_cid_range_matches_table4() {
        assert!(Cid(0x0040).is_dynamic());
        assert!(Cid(0xFFFF).is_dynamic());
        assert!(!Cid(0x003F).is_dynamic());
        assert!(!Cid::NULL.is_dynamic());
    }

    #[test]
    fn cid_display_is_hex() {
        assert_eq!(Cid(0x0040).to_string(), "0x0040");
        assert_eq!(format!("{:04x}", Cid(0xABCD)), "abcd");
        assert_eq!(format!("{:04X}", Cid(0xABCD)), "ABCD");
    }

    #[test]
    fn well_known_psms_are_structurally_valid() {
        for psm in Psm::well_known() {
            assert!(psm.is_valid(), "{psm} should be valid");
            assert!(!psm.is_dynamic());
        }
    }

    #[test]
    fn psm_validity_rule() {
        // Odd LSB, even MSB => valid.
        assert!(Psm(0x0001).is_valid());
        assert!(Psm(0x1001).is_valid());
        // Even LSB => invalid.
        assert!(!Psm(0x0100).is_valid());
        assert!(!Psm(0x0002).is_valid());
        // Odd MSB => invalid.
        assert!(!Psm(0x0101).is_valid());
    }

    #[test]
    fn sdp_is_the_fallback_port() {
        assert_eq!(Psm::SDP.value(), 0x0001);
    }

    #[test]
    fn connection_handle_range() {
        assert!(ConnectionHandle(0x0000).is_valid());
        assert!(ConnectionHandle(0x0EFF).is_valid());
        assert!(!ConnectionHandle(0x0F00).is_valid());
    }

    #[test]
    fn identifier_never_becomes_zero() {
        let mut id = Identifier::FIRST;
        for _ in 0..1000 {
            assert!(id.is_valid());
            id = id.next();
        }
    }

    #[test]
    fn identifier_wraps_to_one() {
        assert_eq!(Identifier(0xFF).next(), Identifier(0x01));
        assert_eq!(Identifier(0x01).next(), Identifier(0x02));
    }

    #[test]
    fn conversions() {
        assert_eq!(u16::from(Cid::from(0x40u16)), 0x40);
        assert_eq!(u16::from(Psm::from(0x1001u16)), 0x1001);
        assert_eq!(Identifier::from(7u8).value(), 7);
    }
}
