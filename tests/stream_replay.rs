//! Streaming replay guarantee: every artifact the fleet service persists —
//! fuzz reports, packet traces, checkpoints, corpus entries — must survive
//! `JsonStreamWriter` → `JsonStreamReader` → `JsonStreamWriter` with
//! **byte-identical** re-serialization, without ever building a
//! `serde_json::Value` tree.  The inputs are real campaign and sweep
//! outputs, not synthetic fixtures, so the round trip covers every field a
//! production run actually populates.

use l2fuzz_repro::btstack::profiles::{DeviceProfile, ProfileId};
use l2fuzz_repro::l2fuzz::campaign::Campaign;
use l2fuzz_repro::l2fuzz::report::FuzzReport;
use l2fuzz_repro::service::{Checkpoint, CorpusStore, ServiceReport, SweepService, SweepSpec};
use l2fuzz_repro::sniffer::Trace;
use serde_json::{from_str, to_string, to_string_pretty};

/// A finished sweep with at least one crash cluster, for realistic
/// checkpoint and corpus payloads.
fn finished_sweep() -> (Checkpoint, ServiceReport) {
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
    let report = outcome.report.expect("sweep completed");
    (outcome.checkpoint, report)
}

#[test]
fn fuzz_report_replays_byte_identically_through_the_reader() {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D2))
        .seed(0xD5EED)
        .run()
        .expect("campaign runs")
        .into_single();

    let compact = to_string(&outcome.report);
    let back: FuzzReport = from_str(&compact).expect("report parses");
    assert_eq!(back, outcome.report);
    assert_eq!(to_string(&back), compact);

    // Pretty output parses back to the same value and re-serializes to the
    // same pretty bytes — whitespace handling is total.
    let pretty = to_string_pretty(&outcome.report);
    let from_pretty: FuzzReport = from_str(&pretty).expect("pretty parses");
    assert_eq!(from_pretty, outcome.report);
    assert_eq!(to_string_pretty(&from_pretty), pretty);
}

#[test]
fn trace_replays_byte_identically_through_the_reader() {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .seed(7)
        .run()
        .expect("campaign runs")
        .into_single();
    assert!(
        !outcome.trace.records().is_empty(),
        "need real traffic for a meaningful round trip"
    );

    let json = outcome.trace.to_json();
    let back = Trace::from_json(&json).expect("trace parses");
    assert_eq!(back, outcome.trace);
    assert_eq!(back.to_json(), json);
}

#[test]
fn checkpoint_replays_byte_identically_through_the_reader() {
    let (checkpoint, _) = finished_sweep();
    assert!(
        !checkpoint.corpus.is_empty(),
        "the D2 jobs must have produced a crash cluster"
    );

    let json = checkpoint.to_json();
    let back = Checkpoint::from_json(&json).expect("checkpoint parses");
    assert_eq!(back, checkpoint);
    assert_eq!(back.to_json(), json);
}

#[test]
fn corpus_and_report_replay_byte_identically_through_the_reader() {
    let (_, report) = finished_sweep();

    // The corpus store alone (the artifact an operator ships around).
    let corpus_json = to_string(&report.corpus);
    let corpus: CorpusStore = from_str(&corpus_json).expect("corpus parses");
    assert_eq!(corpus, report.corpus);
    assert_eq!(to_string(&corpus), corpus_json);

    // Every cluster's exemplar trace survived intact inside the store.
    for (ours, theirs) in corpus.clusters().iter().zip(report.corpus.clusters()) {
        assert_eq!(
            ours.exemplar_trace.records(),
            theirs.exemplar_trace.records()
        );
    }

    // And the full service report.
    let json = report.to_json();
    let back = ServiceReport::from_json(&json).expect("report parses");
    assert_eq!(back, report);
    assert_eq!(back.to_json(), json);
    assert_eq!(back.digest(), report.digest());
}
