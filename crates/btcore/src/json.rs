//! JSON encodings of the vocabulary types.
//!
//! Every vocabulary type that appears in a report, trace or checkpoint
//! derives `serde::Serialize`/`serde::Deserialize`, which implement the
//! streaming traits of `serde_json`.  [`FrameBuf`] is the one exception:
//! its bytes sit behind a shared buffer, so it is written by hand, as the
//! JSON array of numbers a `Vec<u8>` would produce.  The tests pin the
//! encodings of the vocabulary types.

use serde_json::{Error, JsonStreamReader, JsonStreamWriter, StreamDeserialize, StreamSerialize};

use crate::framebuf::FrameBuf;

/// Streams exactly like `Vec<u8>` (a JSON array of numbers), so swapping a
/// `Vec<u8>` field for a `FrameBuf` changes no serialized artifact.
impl StreamSerialize for FrameBuf {
    fn stream(&self, w: &mut JsonStreamWriter) {
        self.as_slice().stream(w);
    }
}

impl StreamDeserialize for FrameBuf {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        Ok(FrameBuf::from_vec(Vec::<u8>::stream_from(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BdAddr;
    use crate::device::{DeviceClass, DeviceMeta, LinkType};
    use crate::error::ConnectionError;
    use crate::ids::{Cid, Psm};
    use serde_json::{from_str, to_string};

    fn pixel3() -> DeviceMeta {
        DeviceMeta::new(
            BdAddr::new([0xF8, 0x0F, 0xF9, 1, 2, 3]),
            "Pixel 3",
            DeviceClass::Smartphone,
        )
        .with_link_type(LinkType::Le)
    }

    #[test]
    fn vocabulary_types_stream_like_their_derived_encodings() {
        assert_eq!(
            to_string(&pixel3()),
            r#"{"addr":[248,15,249,1,2,3],"name":"Pixel 3","class":"Smartphone","oui":[248,15,249],"link_type":"Le"}"#
        );
        let buf: FrameBuf = vec![1u8, 2, 250].into();
        assert_eq!(to_string(&buf), "[1,2,250]");
        for (err, json) in [
            (ConnectionError::Failed, "\"Failed\""),
            (ConnectionError::Aborted, "\"Aborted\""),
            (ConnectionError::Timeout, "\"Timeout\""),
        ] {
            assert_eq!(to_string(&err), json);
        }
        assert_eq!(to_string(&Psm::SDP), "1");
        assert_eq!(to_string(&Cid(0x40)), "64");
    }

    #[test]
    fn vocabulary_types_round_trip_through_the_streaming_reader() {
        let meta = pixel3();
        let json = to_string(&meta);
        let back: DeviceMeta = from_str(&json).unwrap();
        assert_eq!(back, meta);
        assert_eq!(to_string(&back), json);

        let buf: FrameBuf = vec![1u8, 2, 250].into();
        let back: FrameBuf = from_str(&to_string(&buf)).unwrap();
        assert_eq!(back.as_slice(), buf.as_slice());

        let err: ConnectionError = from_str("\"Timeout\"").unwrap();
        assert_eq!(err, ConnectionError::Timeout);
        assert!(from_str::<ConnectionError>("\"Bogus\"").is_err());
    }
}
