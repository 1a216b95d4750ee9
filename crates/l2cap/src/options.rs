//! Configuration options carried by Configure Request / Response.
//!
//! These are the `OPT` / `QoS` / `MTU` values the paper classifies as
//! *mutable application* fields (Fig. 6): L2Fuzz leaves them at their default
//! values, but the protocol substrate still needs to encode and decode them
//! so that normal state-transition packets and the simulated target's own
//! configuration requests are spec-conformant.

use btcore::{ByteReader, ByteWriter, CodecError};

/// Default signalling MTU advertised in configuration requests (bytes).
pub const DEFAULT_MTU: u16 = 672;

/// A single configuration option TLV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigOption {
    /// Maximum Transmission Unit (type `0x01`).
    Mtu(
        /// MTU in bytes.
        u16,
    ),
    /// Flush timeout (type `0x02`).
    FlushTimeout(
        /// Timeout in milliseconds (0xFFFF = infinite).
        u16,
    ),
    /// Quality of Service (type `0x03`).
    QoS(QoSFlowSpec),
    /// Retransmission and flow control (type `0x04`).
    RetransmissionAndFlowControl(RetransmissionConfig),
    /// Frame check sequence option (type `0x05`).
    Fcs(
        /// 0 = no FCS, 1 = 16-bit FCS.
        u8,
    ),
    /// Extended flow specification (type `0x06`); body kept opaque.
    ExtendedFlowSpec(
        /// Raw option body.
        Vec<u8>,
    ),
    /// Extended window size (type `0x07`).
    ExtendedWindowSize(
        /// Window size.
        u16,
    ),
    /// Any option type this implementation does not model structurally.
    Unknown {
        /// Raw option type byte.
        option_type: u8,
        /// Raw option body.
        body: Vec<u8>,
    },
}

/// Quality of Service flow specification (option type `0x03`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QoSFlowSpec {
    /// Flags (reserved, normally zero).
    pub flags: u8,
    /// Service type: 0 = no traffic, 1 = best effort (default), 2 = guaranteed.
    pub service_type: u8,
    /// Token rate in octets per second.
    pub token_rate: u32,
    /// Token bucket size in octets.
    pub token_bucket_size: u32,
    /// Peak bandwidth in octets per second.
    pub peak_bandwidth: u32,
    /// Latency in microseconds.
    pub latency: u32,
    /// Delay variation in microseconds.
    pub delay_variation: u32,
}

impl Default for QoSFlowSpec {
    fn default() -> Self {
        QoSFlowSpec {
            flags: 0,
            service_type: 1,
            token_rate: 0,
            token_bucket_size: 0,
            peak_bandwidth: 0,
            latency: 0xFFFF_FFFF,
            delay_variation: 0xFFFF_FFFF,
        }
    }
}

/// Retransmission and flow control option (option type `0x04`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetransmissionConfig {
    /// Mode: 0 = basic, 1 = retransmission, 2 = flow control, 3 = enhanced
    /// retransmission, 4 = streaming.
    pub mode: u8,
    /// Transmit window size.
    pub tx_window: u8,
    /// Maximum transmit attempts.
    pub max_transmit: u8,
    /// Retransmission timeout in milliseconds.
    pub retransmission_timeout: u16,
    /// Monitor timeout in milliseconds.
    pub monitor_timeout: u16,
    /// Maximum PDU payload size.
    pub mps: u16,
}

impl ConfigOption {
    /// Returns the option's type byte.
    pub fn option_type(&self) -> u8 {
        match self {
            ConfigOption::Mtu(_) => 0x01,
            ConfigOption::FlushTimeout(_) => 0x02,
            ConfigOption::QoS(_) => 0x03,
            ConfigOption::RetransmissionAndFlowControl(_) => 0x04,
            ConfigOption::Fcs(_) => 0x05,
            ConfigOption::ExtendedFlowSpec(_) => 0x06,
            ConfigOption::ExtendedWindowSize(_) => 0x07,
            ConfigOption::Unknown { option_type, .. } => *option_type,
        }
    }

    /// Encodes the option as a type/length/value triple.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.write_u8(self.option_type());
        match self {
            ConfigOption::Mtu(mtu) => {
                w.write_u8(2);
                w.write_u16(*mtu);
            }
            ConfigOption::FlushTimeout(t) => {
                w.write_u8(2);
                w.write_u16(*t);
            }
            ConfigOption::QoS(q) => {
                w.write_u8(22);
                w.write_u8(q.flags);
                w.write_u8(q.service_type);
                w.write_u32(q.token_rate);
                w.write_u32(q.token_bucket_size);
                w.write_u32(q.peak_bandwidth);
                w.write_u32(q.latency);
                w.write_u32(q.delay_variation);
            }
            ConfigOption::RetransmissionAndFlowControl(r) => {
                w.write_u8(9);
                w.write_u8(r.mode);
                w.write_u8(r.tx_window);
                w.write_u8(r.max_transmit);
                w.write_u16(r.retransmission_timeout);
                w.write_u16(r.monitor_timeout);
                w.write_u16(r.mps);
            }
            ConfigOption::Fcs(f) => {
                w.write_u8(1);
                w.write_u8(*f);
            }
            ConfigOption::ExtendedFlowSpec(body) => {
                w.write_u8(body.len() as u8);
                w.write_bytes(body);
            }
            ConfigOption::ExtendedWindowSize(ws) => {
                w.write_u8(2);
                w.write_u16(*ws);
            }
            ConfigOption::Unknown { body, .. } => {
                w.write_u8(body.len() as u8);
                w.write_bytes(body);
            }
        }
    }

    /// Decodes a single option from the reader.
    ///
    /// # Errors
    /// Returns a [`CodecError`] if the option is truncated.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<ConfigOption, CodecError> {
        let option_type = r.read_u8()?;
        let len = r.read_u8()? as usize;
        let body = r.read_bytes(len)?;
        let mut br = ByteReader::new(body);
        let opt = match (option_type & 0x7F, len) {
            (0x01, 2) => ConfigOption::Mtu(br.read_u16()?),
            (0x02, 2) => ConfigOption::FlushTimeout(br.read_u16()?),
            (0x03, 22) => ConfigOption::QoS(QoSFlowSpec {
                flags: br.read_u8()?,
                service_type: br.read_u8()?,
                token_rate: br.read_u32()?,
                token_bucket_size: br.read_u32()?,
                peak_bandwidth: br.read_u32()?,
                latency: br.read_u32()?,
                delay_variation: br.read_u32()?,
            }),
            (0x04, 9) => ConfigOption::RetransmissionAndFlowControl(RetransmissionConfig {
                mode: br.read_u8()?,
                tx_window: br.read_u8()?,
                max_transmit: br.read_u8()?,
                retransmission_timeout: br.read_u16()?,
                monitor_timeout: br.read_u16()?,
                mps: br.read_u16()?,
            }),
            (0x05, 1) => ConfigOption::Fcs(br.read_u8()?),
            (0x06, _) => ConfigOption::ExtendedFlowSpec(body.to_vec()),
            (0x07, 2) => ConfigOption::ExtendedWindowSize(br.read_u16()?),
            _ => ConfigOption::Unknown {
                option_type,
                body: body.to_vec(),
            },
        };
        Ok(opt)
    }

    /// Decodes a sequence of options until the reader is exhausted.
    ///
    /// # Errors
    /// Returns a [`CodecError`] if any option is truncated.
    pub fn decode_all(r: &mut ByteReader<'_>) -> Result<Vec<ConfigOption>, CodecError> {
        let mut opts = Vec::new();
        while !r.is_empty() {
            opts.push(ConfigOption::decode(r)?);
        }
        Ok(opts)
    }

    /// Returns `true` exactly when [`ConfigOption::decode_all`] would succeed
    /// on `bytes` — option decoding only ever fails on truncation, so a
    /// type/length walk suffices and nothing is allocated.
    pub fn all_structurally_valid(bytes: &[u8]) -> bool {
        let mut pos = 0usize;
        while pos < bytes.len() {
            // One type byte, one length byte, `len` body bytes.
            let Some(len) = bytes.get(pos + 1) else {
                return false;
            };
            pos += 2 + usize::from(*len);
            if pos > bytes.len() {
                return false;
            }
        }
        true
    }

    /// Scans an encoded option sequence for the first retransmission-and-
    /// flow-control option (type `0x04`, length 9) and returns its parsed
    /// body.  Tolerates malformed tails: the walk stops at the first
    /// truncated TLV, keeping whatever was found before it.  This is the
    /// allocation-free probe the endpoint's vulnerability evaluation and the
    /// sniffer use to spot ERTM/streaming-mode configuration attempts without
    /// decoding the whole option list.
    pub fn scan_rfc_option(bytes: &[u8]) -> Option<RetransmissionConfig> {
        let mut pos = 0usize;
        while pos + 2 <= bytes.len() {
            let option_type = bytes[pos] & 0x7F;
            let len = usize::from(bytes[pos + 1]);
            let body_end = pos + 2 + len;
            if body_end > bytes.len() {
                return None;
            }
            if option_type == 0x04 && len == 9 {
                let b = &bytes[pos + 2..body_end];
                return Some(RetransmissionConfig {
                    mode: b[0],
                    tx_window: b[1],
                    max_transmit: b[2],
                    retransmission_timeout: u16::from_le_bytes([b[3], b[4]]),
                    monitor_timeout: u16::from_le_bytes([b[5], b[6]]),
                    mps: u16::from_le_bytes([b[7], b[8]]),
                });
            }
            pos = body_end;
        }
        None
    }

    /// Encodes a sequence of options into raw bytes.
    pub fn encode_all(options: &[ConfigOption]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for opt in options {
            opt.encode(&mut w);
        }
        w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(opt: ConfigOption) {
        let bytes = ConfigOption::encode_all(std::slice::from_ref(&opt));
        let mut r = ByteReader::new(&bytes);
        let back = ConfigOption::decode(&mut r).unwrap();
        assert_eq!(opt, back);
        assert!(r.is_empty());
    }

    #[test]
    fn mtu_option_roundtrip_and_wire_format() {
        let bytes = ConfigOption::encode_all(&[ConfigOption::Mtu(0x2000)]);
        // Matches the paper's Fig. 7 example option bytes: 01 02 00 20.
        assert_eq!(bytes, vec![0x01, 0x02, 0x00, 0x20]);
        roundtrip(ConfigOption::Mtu(672));
    }

    #[test]
    fn all_structured_options_roundtrip() {
        roundtrip(ConfigOption::FlushTimeout(0xFFFF));
        roundtrip(ConfigOption::QoS(QoSFlowSpec::default()));
        roundtrip(ConfigOption::RetransmissionAndFlowControl(
            RetransmissionConfig {
                mode: 3,
                tx_window: 8,
                max_transmit: 3,
                retransmission_timeout: 2000,
                monitor_timeout: 12000,
                mps: 1010,
            },
        ));
        roundtrip(ConfigOption::Fcs(1));
        roundtrip(ConfigOption::ExtendedWindowSize(64));
        roundtrip(ConfigOption::ExtendedFlowSpec(vec![1, 2, 3, 4]));
        roundtrip(ConfigOption::Unknown {
            option_type: 0x55,
            body: vec![0xAA, 0xBB],
        });
    }

    #[test]
    fn decode_all_handles_multiple_options() {
        let opts = vec![
            ConfigOption::Mtu(672),
            ConfigOption::FlushTimeout(0xFFFF),
            ConfigOption::Fcs(0),
        ];
        let bytes = ConfigOption::encode_all(&opts);
        let mut r = ByteReader::new(&bytes);
        let back = ConfigOption::decode_all(&mut r).unwrap();
        assert_eq!(back, opts);
    }

    #[test]
    fn truncated_option_is_an_error_not_a_panic() {
        // MTU option claims 2 body bytes but provides none.
        let bytes = [0x01, 0x02];
        let mut r = ByteReader::new(&bytes);
        assert!(ConfigOption::decode(&mut r).is_err());
    }

    #[test]
    fn wrong_length_falls_back_to_unknown() {
        // MTU option with a 3-byte body is not structurally valid; keep it raw.
        let bytes = [0x01, 0x03, 0x01, 0x02, 0x03];
        let mut r = ByteReader::new(&bytes);
        match ConfigOption::decode(&mut r).unwrap() {
            ConfigOption::Unknown { option_type, body } => {
                assert_eq!(option_type, 0x01);
                assert_eq!(body, vec![1, 2, 3]);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn scan_rfc_option_finds_the_option_among_others_and_tolerates_garbage() {
        let rfc = RetransmissionConfig {
            mode: 3,
            tx_window: 0,
            max_transmit: 1,
            retransmission_timeout: 2000,
            monitor_timeout: 12000,
            mps: 0,
        };
        let mut bytes = ConfigOption::encode_all(&[
            ConfigOption::Mtu(672),
            ConfigOption::RetransmissionAndFlowControl(rfc),
            ConfigOption::Fcs(1),
        ]);
        assert_eq!(ConfigOption::scan_rfc_option(&bytes), Some(rfc));
        // A truncated garbage tail after the option does not hide it.
        bytes.extend_from_slice(&[0xD2, 0x3A, 0x91]);
        assert_eq!(ConfigOption::scan_rfc_option(&bytes), Some(rfc));
        // No RFC option present.
        let bytes = ConfigOption::encode_all(&[ConfigOption::Mtu(672)]);
        assert_eq!(ConfigOption::scan_rfc_option(&bytes), None);
        assert_eq!(ConfigOption::scan_rfc_option(&[]), None);
    }

    #[test]
    fn qos_default_is_best_effort() {
        let q = QoSFlowSpec::default();
        assert_eq!(q.service_type, 1);
        assert_eq!(q.latency, 0xFFFF_FFFF);
    }
}
