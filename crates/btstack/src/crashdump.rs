//! Synthetic crash dumps.
//!
//! The paper's detection phase checks whether a crash dump appeared on the
//! target — an Android *tombstone* on the BlueDroid devices, a core dump with
//! a general-protection fault on the BlueZ laptop.  The simulated devices
//! generate format-compatible artifacts when a seeded vulnerability fires, so
//! the detector exercises the same oracle logic as the original tool.

use std::fmt;

/// The kind of crash artifact a device produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Android tombstone caused by a null-pointer dereference (SIGSEGV with a
    /// near-zero fault address), as in the paper's Fig. 12.
    NullPointerDereference,
    /// General protection fault recorded in a kernel/daemon crash dump (the
    /// D8 finding).
    GeneralProtectionFault,
    /// Uncontrolled termination without a dump (the D5 finding).
    UncontrolledTermination,
}

impl fmt::Display for CrashKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CrashKind::NullPointerDereference => "null pointer dereference",
            CrashKind::GeneralProtectionFault => "general protection fault",
            CrashKind::UncontrolledTermination => "uncontrolled termination",
        };
        f.write_str(s)
    }
}

/// A synthetic crash dump record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashDump {
    /// What kind of crash produced the dump.
    pub kind: CrashKind,
    /// Process/thread name that crashed (e.g. `bt_main_thread`).
    pub process: String,
    /// Signal number (11 = SIGSEGV) when applicable.
    pub signal: Option<u8>,
    /// Faulting address when applicable.
    pub fault_address: Option<u64>,
    /// The innermost backtrace frame (e.g. `l2c_csm_execute`).
    pub top_frame: String,
    /// Virtual-clock timestamp (microseconds) when the crash happened.
    pub timestamp_micros: u64,
    /// Identifier of the vulnerability that fired.
    pub vuln_id: String,
}

impl CrashDump {
    /// Builds an Android-tombstone-style dump for a BlueDroid null-pointer
    /// dereference in the channel state machine, mirroring the paper's
    /// Fig. 12.
    pub fn bluedroid_tombstone(vuln_id: &str, timestamp_micros: u64) -> Self {
        CrashDump {
            kind: CrashKind::NullPointerDereference,
            process: "bt_main_thread".to_owned(),
            signal: Some(11),
            fault_address: Some(0x20),
            top_frame: "l2c_csm_execute(t_l2c_ccb*, unsigned short, void*)".to_owned(),
            timestamp_micros,
            vuln_id: vuln_id.to_owned(),
        }
    }

    /// Builds a general-protection-fault dump as produced by the BlueZ
    /// laptop (D8).
    pub fn bluez_general_protection(vuln_id: &str, timestamp_micros: u64) -> Self {
        CrashDump {
            kind: CrashKind::GeneralProtectionFault,
            process: "bluetoothd".to_owned(),
            signal: Some(11),
            fault_address: None,
            top_frame: "l2cap_recv_frame".to_owned(),
            timestamp_micros,
            vuln_id: vuln_id.to_owned(),
        }
    }

    /// Builds the "no dump, device just died" record used for firmware
    /// targets such as the AirPods (D5).
    pub fn uncontrolled_termination(vuln_id: &str, timestamp_micros: u64) -> Self {
        CrashDump {
            kind: CrashKind::UncontrolledTermination,
            process: "rtkit-bt".to_owned(),
            signal: None,
            fault_address: None,
            top_frame: "<unknown>".to_owned(),
            timestamp_micros,
            vuln_id: vuln_id.to_owned(),
        }
    }

    /// Renders the dump in a tombstone-like textual form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("*** *** *** *** *** *** *** *** *** *** *** ***\n");
        out.push_str(&format!(
            "pid: 1948, tid: 2946, name: {} >>> com.simulated.bluetooth <<<\n",
            self.process
        ));
        if let Some(sig) = self.signal {
            out.push_str(&format!("signal {sig} (SIGSEGV), code 1 (SEGV_MAPERR)"));
            if let Some(addr) = self.fault_address {
                out.push_str(&format!(", fault addr 0x{addr:x}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("Cause: {}\n", self.kind));
        out.push_str("backtrace:\n");
        out.push_str(&format!(
            "  #00 pc 0000000000378da0  /system/lib64/libbluetooth.so ({})\n",
            self.top_frame
        ));
        out.push_str(&format!("vulnerability: {}\n", self.vuln_id));
        out
    }
}

/// Stores the crash dumps a device produced; the oracle drains it.
#[derive(Debug, Default)]
pub struct CrashDumpStore {
    dumps: Vec<CrashDump>,
    taken: usize,
}

impl CrashDumpStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        CrashDumpStore::default()
    }

    /// Records a new dump.
    pub fn record(&mut self, dump: CrashDump) {
        self.dumps.push(dump);
    }

    /// Returns `true` if there is a dump the oracle has not consumed yet, and
    /// marks it consumed (mirrors "pull and clear tombstones").
    pub fn take_new(&mut self) -> bool {
        if self.taken < self.dumps.len() {
            self.taken = self.dumps.len();
            true
        } else {
            false
        }
    }

    /// All dumps ever recorded (consumed or not).
    pub fn all(&self) -> &[CrashDump] {
        &self.dumps
    }

    /// Total number of dumps recorded.
    pub fn len(&self) -> usize {
        self.dumps.len()
    }

    /// Returns `true` if no dump was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.dumps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tombstone_matches_paper_case_study_shape() {
        let dump = CrashDump::bluedroid_tombstone("cve-sim-android-dos", 123);
        assert_eq!(dump.kind, CrashKind::NullPointerDereference);
        assert_eq!(dump.signal, Some(11));
        assert_eq!(dump.fault_address, Some(0x20));
        let text = dump.render();
        assert!(text.contains("l2c_csm_execute"));
        assert!(text.contains("SIGSEGV"));
        assert!(text.contains("null pointer dereference"));
    }

    #[test]
    fn bluez_dump_records_general_protection() {
        let dump = CrashDump::bluez_general_protection("cve-sim-bluez-gp", 5);
        assert_eq!(dump.kind, CrashKind::GeneralProtectionFault);
        assert!(dump.render().contains("general protection fault"));
    }

    #[test]
    fn uncontrolled_termination_has_no_signal() {
        let dump = CrashDump::uncontrolled_termination("cve-sim-airpods", 7);
        assert_eq!(dump.signal, None);
        assert_eq!(dump.kind, CrashKind::UncontrolledTermination);
    }

    #[test]
    fn store_take_new_is_consuming() {
        let mut store = CrashDumpStore::new();
        assert!(!store.take_new());
        store.record(CrashDump::bluedroid_tombstone("v1", 1));
        assert!(store.take_new());
        assert!(!store.take_new());
        store.record(CrashDump::bluedroid_tombstone("v2", 2));
        assert!(store.take_new());
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        assert_eq!(store.all().len(), 2);
    }
}
