//! Bluetooth 5.2 L2CAP protocol substrate.
//!
//! This crate implements the protocol knowledge the paper's fuzzer and its
//! simulated targets share:
//!
//! * [`code`] — the 26 signalling command codes of Bluetooth 5.2 (§II-A).
//! * [`packet`] — the L2CAP basic header and signalling (C-frame) framing of
//!   Fig. 3, including encode/decode to raw bytes.
//! * [`command`] — typed payloads for every signalling command, plus a
//!   loss-less [`command::Command`] enum that survives malformed inputs.
//! * [`options`] — configuration options (MTU, QoS, retransmission mode, …)
//!   carried by Configure Request/Response.
//! * [`consts`] — result, status, reject-reason and information-type codes.
//! * [`fields`] — the paper's field classification (Fig. 6): fixed,
//!   dependent, mutable-core and mutable-application fields for every
//!   command, with byte-accurate layouts.
//! * [`ranges`] — Table IV: the abnormal PSM ranges and the CIDP range used
//!   by core-field mutation.
//! * [`state`] — the 19-state channel state machine of Fig. 2, with the
//!   event/action tables the acceptor follows (Table II).
//! * [`jobs`] — the paper's clustering of states into seven jobs and the
//!   valid-command map (Tables I and III).
//!
//! # Quick example
//!
//! ```
//! use l2cap::command::{Command, ConnectionRequest};
//! use l2cap::packet::SignalingPacket;
//! use btcore::{Cid, Identifier, Psm};
//!
//! let cmd = Command::ConnectionRequest(ConnectionRequest {
//!     psm: Psm::SDP,
//!     scid: Cid(0x0040),
//! });
//! let pkt = SignalingPacket::new(Identifier(1), cmd);
//! let bytes = pkt.to_bytes();
//! let back = SignalingPacket::parse(&bytes).unwrap();
//! assert_eq!(pkt, back);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod code;
pub mod command;
pub mod consts;
pub mod fields;
pub mod jobs;
mod json;
pub mod options;
pub mod packet;
pub mod ranges;
pub mod state;

pub use code::CommandCode;
pub use command::Command;
pub use fields::{FieldClass, FieldName, FieldSpec};
pub use jobs::Job;
pub use packet::{L2capFrame, SignalingPacket, DEFAULT_SIGNALING_MTU};
pub use state::{ChannelState, StateEvent, StateMachine};
