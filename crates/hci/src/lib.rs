//! Virtual HCI/ACL transport — the "air" substrate of the reproduction.
//!
//! The original L2Fuzz drives a physical Bluetooth dongle; this crate
//! replaces the radio with a deterministic in-process medium while keeping
//! the same shape of interface the fuzzer sees:
//!
//! * [`acl`] — HCI ACL data packets (the outermost layer of the paper's
//!   Fig. 3 frame) with fragmentation and reassembly of L2CAP frames.
//! * [`medium`] — the event-driven [`medium::Medium`]:
//!   [`medium::EventMedium`] is a registry of virtual devices that can be
//!   discovered by inquiry and connected to, producing a
//!   [`medium::LinkHandle`] per link.  Several links to one device fire
//!   their exchanges through one deterministic event scheduler, so
//!   concurrent initiators interleave reproducibly.
//! * [`device`] — the [`device::VirtualDevice`] trait a simulated target
//!   implements (the `btstack` crate provides vendor-flavoured
//!   implementations).
//! * [`link`] — link configuration (latency, overhead, faults) and packet
//!   taps used by the sniffer.
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`]): loss,
//!   duplication, corruption, jitter, reordering and stalls, all derived
//!   from the per-event seeded RNG so faulty schedules replay bit for bit.
//!
//! # Example
//!
//! ```
//! use hci::medium::{EventMedium, Medium};
//! use hci::device::EchoDevice;
//! use hci::link::LinkConfig;
//! use btcore::{BdAddr, FuzzRng, SimClock};
//!
//! let addr = BdAddr::new([1, 2, 3, 4, 5, 6]);
//! let mut air = EventMedium::new(SimClock::new());
//! air.register(Box::new(EchoDevice::new(addr)));
//!
//! let found = air.inquiry();
//! assert_eq!(found.len(), 1);
//! let link = air.connect(addr, LinkConfig::default(), FuzzRng::seed_from(1));
//! assert!(link.is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod device;
pub mod fault;
pub mod link;
pub mod medium;

pub use acl::{AclPacket, BoundaryFlag, ACL_FRAGMENT_SIZE};
pub use device::{SharedDevice, VirtualDevice};
pub use fault::{FaultPlan, WatchdogExpired};
pub use link::{Direction, LinkConfig, PacketRecord, SharedTap};
pub use medium::{EventMedium, LinkHandle, LinkSpec, Medium};
