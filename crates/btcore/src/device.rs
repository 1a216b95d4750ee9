//! Device metadata discovered during the target-scanning phase.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::addr::{BdAddr, Oui};

/// Major class of a Bluetooth device, as advertised in the Class-of-Device
/// field during inquiry.
///
/// The paper's test set (Table V) spans tablets, smartphones, earphones and
/// laptops; the class is recorded by the target-scanning phase along with the
/// address and OUI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Smartphone.
    Smartphone,
    /// Tablet computer.
    Tablet,
    /// Laptop or desktop computer.
    Computer,
    /// Audio device such as an earphone or headset.
    Audio,
    /// Wearable device.
    Wearable,
    /// Peripheral (keyboard, mouse, ...).
    Peripheral,
    /// Anything else.
    Other,
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceClass::Smartphone => "smartphone",
            DeviceClass::Tablet => "tablet",
            DeviceClass::Computer => "computer",
            DeviceClass::Audio => "audio",
            DeviceClass::Wearable => "wearable",
            DeviceClass::Peripheral => "peripheral",
            DeviceClass::Other => "other",
        };
        f.write_str(s)
    }
}

/// The transport a target is reached over.
///
/// Bluetooth runs L2CAP over two very different links: the classic ACL-U
/// link of BR/EDR and the LE-U link of Bluetooth Low Energy.  The two share
/// the signalling code space but partition it — connection/configuration/
/// echo/AMP commands (`0x02–0x05`, `0x08–0x11`) are classic-only, the
/// connection-parameter-update and LE-credit-based commands (`0x12–0x15`)
/// are LE-only, and the enhanced credit-based commands (`0x17–0x1A`) plus
/// reject/disconnect/credit-indication work on both.  Every layer of the
/// pipeline (state table, endpoints, mutator, sniffer) consults this type to
/// pick the right side of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LinkType {
    /// Classic BR/EDR ACL-U link (the paper's Table V targets).
    BrEdr,
    /// Bluetooth Low Energy LE-U link.
    Le,
}

impl LinkType {
    /// Both link types.
    pub const ALL: [LinkType; 2] = [LinkType::BrEdr, LinkType::Le];

    /// Returns `true` for an LE-U link.
    pub const fn is_le(&self) -> bool {
        matches!(self, LinkType::Le)
    }
}

impl fmt::Display for LinkType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkType::BrEdr => "BR/EDR",
            LinkType::Le => "LE",
        };
        f.write_str(s)
    }
}

/// Index of one established link on a target device.
///
/// The event-driven medium lets several initiators hold independent links to
/// one device at the same time; the device keeps one isolated L2CAP acceptor
/// (own CID space, own channel state) per slot.  Slot numbers are assigned
/// per device in connection order, starting at [`LinkSlot::PRIMARY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkSlot(pub u16);

impl LinkSlot {
    /// The first link established to a device — the only one that exists in
    /// single-initiator campaigns.
    pub const PRIMARY: LinkSlot = LinkSlot(0);
}

impl fmt::Display for LinkSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}

/// Metadata about a discovered device, as gathered by target scanning
/// (§III-B): MAC address, friendly name, device class, vendor OUI and link
/// type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceMeta {
    /// The device's Bluetooth MAC address.
    pub addr: BdAddr,
    /// Friendly device name as reported during inquiry.
    pub name: String,
    /// Major device class.
    pub class: DeviceClass,
    /// Vendor OUI (derived from the address).
    pub oui: Oui,
    /// The transport the device is reached over.
    pub link_type: LinkType,
}

impl DeviceMeta {
    /// Creates metadata for a classic BR/EDR device; the OUI is derived from
    /// `addr`.
    pub fn new(addr: BdAddr, name: impl Into<String>, class: DeviceClass) -> Self {
        DeviceMeta {
            addr,
            name: name.into(),
            class,
            oui: addr.oui(),
            link_type: LinkType::BrEdr,
        }
    }

    /// Returns the same metadata with the link type replaced.
    pub fn with_link_type(mut self, link_type: LinkType) -> Self {
        self.link_type = link_type;
        self
    }
}

impl fmt::Display for DeviceMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] ({}, OUI {})",
            self.name, self.addr, self.class, self.oui
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_derives_oui_from_addr() {
        let addr = BdAddr::new([0xF8, 0x0F, 0xF9, 0x01, 0x02, 0x03]);
        let meta = DeviceMeta::new(addr, "Pixel 3", DeviceClass::Smartphone);
        assert_eq!(meta.oui, addr.oui());
        assert_eq!(meta.name, "Pixel 3");
    }

    #[test]
    fn display_contains_name_and_addr() {
        let addr = BdAddr::new([1, 2, 3, 4, 5, 6]);
        let meta = DeviceMeta::new(addr, "Buds+", DeviceClass::Audio);
        let s = meta.to_string();
        assert!(s.contains("Buds+"));
        assert!(s.contains("01:02:03:04:05:06"));
        assert!(s.contains("audio"));
    }

    #[test]
    fn class_display_all_variants() {
        let classes = [
            DeviceClass::Smartphone,
            DeviceClass::Tablet,
            DeviceClass::Computer,
            DeviceClass::Audio,
            DeviceClass::Wearable,
            DeviceClass::Peripheral,
            DeviceClass::Other,
        ];
        let names: Vec<String> = classes.iter().map(|c| c.to_string()).collect();
        assert_eq!(names.len(), 7);
        // All names distinct.
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 7);
    }
}
