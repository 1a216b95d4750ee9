//! Report-path round trips: a campaign's report and trace serialize through
//! `serde_json::JsonStreamWriter` (no owned `Value` tree), parse back to
//! the original structures, and re-serialize to the same bytes.  The bytes
//! themselves are pinned in `tests/json_pins.rs`.

use btstack::profiles::{DeviceProfile, ProfileId};
use l2fuzz::campaign::Campaign;
use l2fuzz::report::FuzzReport;
use sniffer::Trace;

/// A real campaign outcome (vulnerable target → findings, scan, states —
/// every branch of the document).
fn outcome() -> (FuzzReport, Trace) {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D2))
        .seed(11)
        .run()
        .expect("campaign runs")
        .into_single();
    (outcome.report, outcome.trace)
}

#[test]
fn streamed_report_round_trips() {
    let (report, _) = outcome();
    assert!(report.vulnerable(), "need findings to cover every branch");
    let json = report.to_json();
    let back = FuzzReport::from_json(&json).unwrap();
    assert_eq!(back, report);
    // And serializing the parsed copy reproduces the exact document.
    assert_eq!(back.to_json(), json);
}

#[test]
fn streamed_trace_is_byte_identical_and_round_trips() {
    let (_, trace) = outcome();
    assert!(!trace.is_empty());
    let pretty = trace.to_json();
    let back = Trace::from_json(&pretty).unwrap();
    assert_eq!(back, trace);
    assert_eq!(back.to_json(), pretty);
    // The compact form carries the same document.
    let compact = serde_json::to_string(&trace);
    assert!(compact.len() < pretty.len());
    assert_eq!(Trace::from_json(&compact).unwrap(), trace);
}

#[test]
fn empty_and_skeleton_documents_stream_identically() {
    // An empty trace exercises the lazy `[]`/`{}` collapsing.
    let empty = Trace::new();
    assert_eq!(empty.to_json(), "{\n  \"records\": []\n}");
    assert_eq!(Trace::from_json(&empty.to_json()).unwrap(), empty);

    // A hardened target gives a findings-free report (empty array branch).
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .seed(3)
        .run()
        .expect("campaign runs")
        .into_single();
    assert!(!outcome.report.vulnerable());
    let json = outcome.report.to_json();
    assert!(json.contains("\"findings\": []"));
    let back = FuzzReport::from_json(&json).unwrap();
    assert_eq!(back, outcome.report);
    assert_eq!(back.to_json(), json);
}
