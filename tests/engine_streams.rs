//! Packet-stream pins for both fuzzing engines.
//!
//! Each row runs one campaign and pins the FNV digest of its captured trace
//! (direction, virtual timestamp and wire bytes of every record) together
//! with the report's packet count.  The rows cover the paths of the session
//! driver that the single-initiator pins in `tests/le_scenarios.rs` leave
//! open: the coverage-guided feedback plan on both transports (with and
//! without a packet budget clamping its energy pool), the dictionary plan
//! without state guiding, with configuration-option mutation, and under a
//! budget-driven multi-round run.  Any change to RNG fork order, identifier
//! allocation, budget stops or round merging moves a digest here.

use btstack::profiles::{DeviceProfile, ProfileId};
use feedback::{FeedbackCampaignExt, FeedbackConfig};
use l2fuzz::campaign::{Campaign, CampaignBuilder, OraclePolicy};
use l2fuzz::config::FuzzConfig;
use l2fuzz::fuzzer::TxBudget;
use l2fuzz::session::L2FuzzTool;
use service::digest::trace_digest;

/// One pinned campaign: its description, the builder that runs it, and the
/// expected `(trace digest, packets sent)`.
struct Pin {
    name: &'static str,
    campaign: fn() -> CampaignBuilder,
    digest: u64,
    packets: u64,
}

fn dictionary(id: ProfileId, config: FuzzConfig, rounds: usize) -> CampaignBuilder {
    Campaign::builder()
        .target(DeviceProfile::table5(id))
        .fuzzer(move || Box::new(L2FuzzTool::detection(config.clone(), rounds)))
}

const PINS: &[Pin] = &[
    Pin {
        name: "feedback default on D11 (BR/EDR)",
        campaign: || {
            Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D11))
                .feedback(FeedbackConfig::default())
                .seed(54)
        },
        digest: 0xD5A7_306D_E9C7_8567,
        packets: 1467,
    },
    Pin {
        name: "feedback default on D9 (LE)",
        campaign: || {
            Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D9))
                .feedback(FeedbackConfig::default())
                .seed(52)
        },
        digest: 0xE9FB_7B65_52F3_C9D2,
        packets: 1101,
    },
    Pin {
        name: "feedback under a 700-packet budget on D4",
        campaign: || {
            Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D4))
                .feedback(FeedbackConfig::default())
                .budget(TxBudget::packets(700))
                .seed(53)
        },
        digest: 0xE78E_F3CA_4C9F_445B,
        packets: 681,
    },
    Pin {
        name: "dictionary without state guiding on D4",
        campaign: || {
            dictionary(
                ProfileId::D4,
                FuzzConfig::default().without_state_guiding(),
                2,
            )
            .seed(54)
        },
        digest: 0x1A88_3B86_B0C1_FDCA,
        packets: 1248,
    },
    Pin {
        name: "dictionary with config-option mutation on D11",
        campaign: || {
            dictionary(
                ProfileId::D11,
                FuzzConfig::default().with_config_option_mutation(),
                3,
            )
            .seed(55)
        },
        digest: 0x2DE3_BAEC_15E4_8896,
        packets: 690,
    },
    Pin {
        name: "budget-driven dictionary, 2000 packets on D2",
        campaign: || {
            Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D2))
                .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())))
                .budget(TxBudget::packets(2000))
                .oracle(OraclePolicy::None)
                .auto_restart(true)
                .seed(56)
        },
        digest: 0x9442_F762_2948_E95B,
        packets: 2001,
    },
];

#[test]
fn engine_packet_streams_stay_pinned() {
    let mut diverged = Vec::new();
    for pin in PINS {
        let outcome = (pin.campaign)()
            .run()
            .expect("pinned campaign runs")
            .into_single();
        let got = (trace_digest(&outcome.trace), outcome.report.packets_sent);
        if got != (pin.digest, pin.packets) {
            diverged.push(format!(
                "{}: digest {:#018X}, {} packets (pinned {:#018X}, {})",
                pin.name, got.0, got.1, pin.digest, pin.packets
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "packet streams diverged:\n{}",
        diverged.join("\n")
    );
}
