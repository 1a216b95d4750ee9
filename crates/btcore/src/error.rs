//! Error taxonomy shared across the workspace.
//!
//! [`ConnectionError`] mirrors the five connection-level error messages the
//! paper's vulnerability-detection phase (§III-E) distinguishes when a test
//! packet disturbs the target: *Connection Failed*, *Aborted*, *Reset*,
//! *Refused* and *Timeout*.  The paper interprets *Connection Failed* as the
//! target's Bluetooth service having shut down (a denial of service) and the
//! remaining errors as symptoms of a crash.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::codec::CodecError;

/// Connection-level error observed while talking to a target device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConnectionError {
    /// The target's Bluetooth service is no longer reachable — the paper
    /// treats this as evidence of a denial of service.
    Failed,
    /// The connection was aborted by the target mid-exchange.
    Aborted,
    /// The connection was reset by the target.
    Reset,
    /// The target refused the connection attempt.
    Refused,
    /// The target stopped answering within the response window.
    Timeout,
}

impl ConnectionError {
    /// Returns `true` if the paper's detection logic classifies this error as
    /// a denial-of-service indicator (only *Connection Failed*).
    pub const fn indicates_dos(&self) -> bool {
        matches!(self, ConnectionError::Failed)
    }

    /// Returns `true` if the error indicates a probable crash of the target
    /// device (every error other than *Connection Failed*).
    pub const fn indicates_crash(&self) -> bool {
        !self.indicates_dos()
    }

    /// All five error kinds, in the order the paper lists them.
    pub const ALL: [ConnectionError; 5] = [
        ConnectionError::Failed,
        ConnectionError::Aborted,
        ConnectionError::Reset,
        ConnectionError::Refused,
        ConnectionError::Timeout,
    ];
}

impl fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConnectionError::Failed => "connection failed",
            ConnectionError::Aborted => "connection aborted",
            ConnectionError::Reset => "connection reset",
            ConnectionError::Refused => "connection refused",
            ConnectionError::Timeout => "timeout",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ConnectionError {}

/// Top-level error type for operations against a (virtual) Bluetooth device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BtError {
    /// A connection-level failure.
    Connection(ConnectionError),
    /// A packet could not be encoded or decoded.
    Codec(CodecError),
    /// The requested device is unknown to the air medium.
    UnknownDevice {
        /// Textual form of the address that was looked up.
        addr: String,
    },
    /// The target rejected the operation; carries the human-readable reason.
    Rejected {
        /// Reason string reported by the target (e.g. "command not understood").
        reason: String,
    },
    /// The local side is not connected to the target.
    NotConnected,
    /// The operation is not supported in the current state.
    InvalidState {
        /// Description of what was attempted.
        what: String,
    },
}

impl fmt::Display for BtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BtError::Connection(e) => write!(f, "connection error: {e}"),
            BtError::Codec(e) => write!(f, "codec error: {e}"),
            BtError::UnknownDevice { addr } => write!(f, "unknown device {addr}"),
            BtError::Rejected { reason } => write!(f, "rejected by target: {reason}"),
            BtError::NotConnected => write!(f, "not connected to target"),
            BtError::InvalidState { what } => write!(f, "invalid state for operation: {what}"),
        }
    }
}

impl std::error::Error for BtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BtError::Connection(e) => Some(e),
            BtError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConnectionError> for BtError {
    fn from(e: ConnectionError) -> Self {
        BtError::Connection(e)
    }
}

impl From<CodecError> for BtError {
    fn from(e: CodecError) -> Self {
        BtError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_failed_indicates_dos() {
        assert!(ConnectionError::Failed.indicates_dos());
        for e in [
            ConnectionError::Aborted,
            ConnectionError::Reset,
            ConnectionError::Refused,
            ConnectionError::Timeout,
        ] {
            assert!(!e.indicates_dos(), "{e} must not indicate DoS");
            assert!(e.indicates_crash(), "{e} must indicate crash");
        }
    }

    #[test]
    fn all_lists_five_errors() {
        assert_eq!(ConnectionError::ALL.len(), 5);
    }

    #[test]
    fn display_is_lowercase_without_punctuation() {
        for e in ConnectionError::ALL {
            let s = e.to_string();
            assert_eq!(s, s.to_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn bterror_conversions_and_source() {
        use std::error::Error;
        let e: BtError = ConnectionError::Timeout.into();
        assert!(e.source().is_some());
        let e: BtError = CodecError::UnexpectedEnd {
            wanted: 2,
            available: 0,
        }
        .into();
        assert!(e.to_string().contains("codec"));
        let e = BtError::Rejected {
            reason: "invalid CID in request".into(),
        };
        assert!(e.to_string().contains("invalid CID"));
    }
}
