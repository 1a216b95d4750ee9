//! Coverage-guided fuzzing end-to-end: the feedback engine must keep every
//! guarantee the dictionary engine gives — bit-for-bit replay at any
//! thread count, schedule-independent sweep artifacts — while
//! actually closing the loop: corpus retention, energy scheduling, and
//! detection of the seeded extended-profile vulnerabilities through
//! `Campaign::builder().feedback(...)`.

use btstack::profiles::{DeviceProfile, ProfileId};
use feedback::{CorpusHub, FeedbackCampaignExt, FeedbackConfig, FeedbackCorpus};
use l2fuzz::campaign::{Campaign, TargetOutcome};

/// Serializes every initiator of every target: reports as JSON, traces as
/// raw timestamped bytes — the full observable output of a campaign.
fn fingerprint(targets: &[TargetOutcome]) -> Vec<(Vec<String>, Vec<Vec<u8>>)> {
    targets
        .iter()
        .map(|t| {
            let reports = t.reports().map(|r| r.to_json()).collect();
            let trace = t
                .trace
                .records()
                .iter()
                .map(|r| {
                    let mut bytes = r.timestamp_micros.to_le_bytes().to_vec();
                    bytes.extend(r.frame.to_bytes());
                    bytes
                })
                .collect();
            (reports, trace)
        })
        .collect()
}

#[test]
fn feedback_campaigns_replay_bit_for_bit_across_executors() {
    let survey = |threads: Option<usize>| {
        let builder = Campaign::builder()
            .targets([ProfileId::D2, ProfileId::D4, ProfileId::D9].map(DeviceProfile::table5))
            .feedback(FeedbackConfig::default())
            .seed(0xFEED_5EED);
        let outcome = match threads {
            None => builder,
            Some(n) => builder.threads(n),
        }
        .run()
        .expect("feedback survey runs");
        fingerprint(&outcome.targets)
    };
    let serial = survey(None);
    for threads in [1, 2, 4] {
        assert_eq!(
            serial,
            survey(Some(threads)),
            "feedback campaign diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn feedback_detects_the_seeded_extended_vulnerabilities() {
    // The coverage-guided mode must find all three extended-profile seeds
    // end-to-end: the LE credit underflow (D9), the SPSM confusion (D10) and
    // the ERTM zero-window DoS (D11) — the last *without* explicitly turning
    // on configuration-option mutation, because feedback mode always mutates
    // options on classic links.
    for (id, vuln_id) in [
        (ProfileId::D9, "SIM-ZEPHYR-LE-CREDIT-UNDERFLOW"),
        (ProfileId::D10, "SIM-BLUEDROID-SPSM-OOB"),
        (ProfileId::D11, "SIM-BLUEZ-ERTM-ZERO-WINDOW"),
    ] {
        let outcome = Campaign::builder()
            .target(DeviceProfile::table5(id))
            .feedback(FeedbackConfig::default())
            .seed(51)
            .run()
            .expect("feedback campaign runs")
            .into_single();
        assert!(
            outcome.report.vulnerable(),
            "{id}: the seeded vulnerability must be found"
        );
        assert_eq!(outcome.report.fuzzer, "L2Fuzz+feedback");
        let fired = outcome.device.lock().fired_vulnerabilities().to_vec();
        assert_eq!(fired[0].vuln.id, vuln_id, "{id}: wrong vulnerability fired");
    }
}

#[test]
fn feedback_retains_a_corpus_and_reseeds_from_it() {
    // A hardened target never crashes, so the whole budget goes into
    // exploration: the run must retain novelty, and a second campaign seeded
    // from the first's published corpus must replay deterministically.
    let hub = CorpusHub::new();
    let config = FeedbackConfig::default().with_hub(hub.clone());
    Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .feedback(config)
        .seed(0xC0FFEE)
        .run()
        .expect("campaign runs");
    let merged = hub.merged();
    assert!(
        !merged.is_empty(),
        "a full hardened-target run must retain corpus entries"
    );
    // The corpus serializes byte-identically — it is a durable artifact.
    let json = merged.to_json();
    assert_eq!(FeedbackCorpus::from_json(&json).unwrap().to_json(), json);

    let reseeded = |seed_corpus: FeedbackCorpus| {
        Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D4))
            .feedback(FeedbackConfig::default().with_seed_corpus(seed_corpus))
            .seed(0xC0FFEE + 1)
            .run()
            .expect("reseeded campaign runs")
            .into_single()
            .report
            .to_json()
    };
    assert_eq!(reseeded(merged.clone()), reseeded(merged));
}

#[test]
fn sweep_corpus_merge_is_schedule_independent() {
    // Eight seeds, pooled through the hub, at 1/2/4 worker threads: the
    // per-target outputs AND the merged corpus must be identical regardless
    // of which worker finished which unit first — publish-only sharing plus
    // the canonical seed-order fold.
    let sweep = |threads: usize| {
        let hub = CorpusHub::new();
        let outcome = Campaign::builder()
            .targets([ProfileId::D4, ProfileId::D9].map(DeviceProfile::table5))
            .feedback(FeedbackConfig::default().with_hub(hub.clone()))
            .sweep(btcore::sweep_seeds(0xFEED_CAFE, 4))
            .threads(threads)
            .run()
            .expect("feedback sweep runs");
        assert_eq!(outcome.targets.len(), 8, "2 targets x 4 seeds");
        (fingerprint(&outcome.targets), hub.merged().to_json())
    };
    let (serial_targets, serial_corpus) = sweep(1);
    for threads in [2, 4] {
        let (targets, corpus) = sweep(threads);
        assert_eq!(
            serial_targets, targets,
            "sweep outputs diverged at {threads} threads"
        );
        assert_eq!(
            serial_corpus, corpus,
            "merged corpus diverged at {threads} threads"
        );
    }
}
