//! JSON byte pins: the exact bytes of every persisted document kind.
//!
//! Reports, traces, checkpoints, corpora and the analyzer report are the
//! artifacts a campaign is judged by, and resumed sweeps compare them byte
//! for byte.  Each row pins the FNV-1a digest and the length of one real
//! document, so any change to field order, number formatting, escaping or
//! whitespace in the JSON layer fails here.

use std::collections::BTreeMap;

use analysis::{Allowlist, AnalysisReport};
use btcore::LinkType;
use btstack::profiles::{DeviceProfile, ProfileId};
use feedback::{CorpusHub, EnergySchedule, FeedbackCampaignExt, FeedbackConfig};
use l2cap::ChannelState;
use l2fuzz::campaign::{Campaign, TargetOutcome};
use service::digest::digest_bytes;
use service::{SweepService, SweepSpec};
use sniffer::Trace;

/// `(document, FNV-1a digest of its bytes, byte length)`, in the order
/// [`persisted_documents_keep_their_exact_bytes`] builds them.
const PINS: [(&str, u64, usize); 9] = [
    ("D2 seed 11 report", 0x1b5c_597a_3174_7c14, 2241),
    ("D4 seed 3 report", 0xbcee_1eff_4ee4_b891, 2005),
    ("D2 seed 11 trace", 0xd6df_f232_5e7b_2356, 509_113),
    ("empty trace", 0xe6a2_e2d4_b5c7_cbe1, 19),
    ("sweep checkpoint", 0x425f_92e7_d0ca_5c89, 1_696_656),
    ("sweep service report", 0x00c7_3148_898a_0d0e, 1_696_168),
    ("feedback corpus", 0x453e_a422_e5bb_b2b6, 298),
    ("energy schedule", 0x4d56_8774_622e_800f, 499),
    ("analysis report", 0xd42d_afa9_8128_58d3, 20_343),
];

fn campaign(id: ProfileId, seed: u64) -> TargetOutcome {
    Campaign::builder()
        .target(DeviceProfile::table5(id))
        .seed(seed)
        .run()
        .expect("campaign runs")
        .into_single()
}

/// `(checkpoint, service report)` of a small sweep with a crash cluster.
fn sweep_documents() -> (String, String) {
    let spec = SweepSpec::new(
        "stream-replay",
        [ProfileId::D2, ProfileId::D4],
        SweepSpec::derived_seeds(0x5EED, 2),
    )
    .with_budget(2000)
    .with_shard_size(3);
    let outcome = SweepService::new(spec)
        .workers(2)
        .run()
        .expect("sweep runs");
    assert!(
        !outcome.checkpoint.corpus.is_empty(),
        "need a crash cluster"
    );
    let report = outcome.report.expect("sweep completed");
    (outcome.checkpoint.to_json(), report.to_json())
}

fn feedback_corpus() -> String {
    let hub = CorpusHub::new();
    Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .feedback(FeedbackConfig::default().with_hub(hub.clone()))
        .seed(0xC0FFEE)
        .run()
        .expect("feedback campaign runs");
    let corpus = hub.merged();
    assert!(!corpus.is_empty(), "need retained entries");
    corpus.to_json()
}

fn energy_schedule() -> String {
    let visits = BTreeMap::from([(ChannelState::Open, 3), (ChannelState::WaitConfig, 1)]);
    serde_json::to_string(&EnergySchedule::plan(LinkType::BrEdr, &visits, 321))
}

fn analysis_report() -> String {
    serde_json::to_string(&AnalysisReport::run(&Allowlist::default(), None))
}

#[test]
fn persisted_documents_keep_their_exact_bytes() {
    let d2 = campaign(ProfileId::D2, 11);
    assert!(d2.report.vulnerable());
    let d4 = campaign(ProfileId::D4, 3);
    assert!(!d4.report.vulnerable());
    let (checkpoint, service_report) = sweep_documents();

    let documents = [
        d2.report.to_json(),
        d4.report.to_json(),
        d2.trace.to_json(),
        Trace::new().to_json(),
        checkpoint,
        service_report,
        feedback_corpus(),
        energy_schedule(),
        analysis_report(),
    ];
    assert_eq!(documents.len(), PINS.len());

    let mismatches: Vec<String> = documents
        .iter()
        .zip(PINS)
        .filter_map(|(json, (name, digest, len))| {
            let got = (digest_bytes(json.as_bytes()), json.len());
            (got != (digest, len)).then(|| {
                format!(
                    "{name}: digest {:#018x} len {}, pinned {digest:#018x} len {len}",
                    got.0, got.1
                )
            })
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
