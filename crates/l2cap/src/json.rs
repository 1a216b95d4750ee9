//! JSON encodings of the L2CAP report-path types.
//!
//! [`L2capFrame`](crate::L2capFrame), [`ChannelState`](crate::ChannelState),
//! [`CommandCode`](crate::CommandCode) and [`Job`](crate::Job) derive
//! `serde::Serialize`/`serde::Deserialize`; these tests pin the documents
//! the derives produce and read back.

#[cfg(test)]
mod tests {
    use btcore::Cid;
    use serde_json::{from_str, to_string};

    use crate::code::CommandCode;
    use crate::jobs::Job;
    use crate::packet::L2capFrame;
    use crate::state::ChannelState;

    #[test]
    fn frame_and_enums_stream_like_their_derived_encodings() {
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        assert_eq!(
            to_string(&frame),
            r#"{"declared_payload_len":4,"cid":1,"payload":[8,1,0,0]}"#
        );
        for state in ChannelState::ALL {
            assert_eq!(to_string(&state), format!("\"{state:?}\""));
        }
        for (code, json) in [
            (CommandCode::ConnectionRequest, "\"ConnectionRequest\""),
            (
                CommandCode::LeCreditBasedConnectionRequest,
                "\"LeCreditBasedConnectionRequest\"",
            ),
            (
                CommandCode::FlowControlCreditInd,
                "\"FlowControlCreditInd\"",
            ),
        ] {
            assert_eq!(to_string(&code), json);
        }
        assert_eq!(to_string(&Job::Configuration), "\"Configuration\"");
    }

    #[test]
    fn frame_and_enums_round_trip_through_the_streaming_reader() {
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        let json = to_string(&frame);
        let back: L2capFrame = from_str(&json).unwrap();
        assert_eq!(back, frame);
        assert_eq!(to_string(&back), json);
        for state in ChannelState::ALL {
            let back: ChannelState = from_str(&to_string(&state)).unwrap();
            assert_eq!(back, state);
        }
        let back: Job = from_str("\"Configuration\"").unwrap();
        assert_eq!(back, Job::Configuration);
        assert!(from_str::<Job>("\"Bogus\"").is_err());
    }
}
