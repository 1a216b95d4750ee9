//! End-to-end integration tests: the full pipeline (campaign harness, air
//! medium, simulated vendor stacks, L2Fuzz session, detection, reporting)
//! across the Table V device profiles — all driven through
//! `Campaign::builder()`.

use btstack::device::HostStatus;
use btstack::profiles::{DeviceProfile, ProfileId};
use l2fuzz::campaign::Campaign;
use l2fuzz::report::FuzzReport;
use sniffer::{MetricsSummary, StateCoverage, Trace};

fn fuzz_device(id: ProfileId, seed: u64) -> (FuzzReport, Trace, HostStatus) {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(id))
        .seed(seed)
        .run()
        .expect("campaign runs")
        .into_single();
    let status = outcome.device.lock().status();
    (outcome.report, outcome.trace, status)
}

#[test]
fn pixel3_denial_of_service_is_found_and_logged() {
    let (report, trace, status) = fuzz_device(ProfileId::D2, 11);
    assert!(report.vulnerable());
    assert_eq!(status, HostStatus::DosTerminated);
    let finding = &report.findings[0];
    assert_eq!(finding.evidence.description, "DoS");
    assert!(finding.evidence.crash_dump);
    assert!(finding.evidence.error.indicates_dos());
    // The report serializes and parses back.
    let json = report.to_json();
    assert_eq!(FuzzReport::from_json(&json).unwrap(), report);
    // The captured trace is dominated by malformed packets but not rejected
    // en masse (the point of core-field mutation).
    let metrics = MetricsSummary::from_trace(&trace);
    assert!(metrics.mp_ratio > 0.3);
    assert!(metrics.pr_ratio < 0.6);
}

#[test]
fn airpods_crash_is_found_quickly() {
    let (report, _trace, status) = fuzz_device(ProfileId::D5, 21);
    assert!(report.vulnerable());
    assert_eq!(status, HostStatus::Crashed);
    assert_eq!(report.findings[0].evidence.description, "Crash");
}

#[test]
fn hardened_devices_survive_a_full_campaign() {
    for (id, seed) in [
        (ProfileId::D4, 31),
        (ProfileId::D6, 32),
        (ProfileId::D7, 33),
    ] {
        let (report, trace, status) = fuzz_device(id, seed);
        assert!(!report.vulnerable(), "{id} must survive");
        assert_eq!(status, HostStatus::Running);
        assert!(
            trace.transmitted_count() > 300,
            "{id} must have been exercised"
        );
    }
}

#[test]
fn l2fuzz_state_coverage_is_thirteen_of_nineteen() {
    // A hardened target lets the campaign run to completion, which is when
    // the full coverage is visible in the trace.
    let (report, trace, _) = fuzz_device(ProfileId::D4, 41);
    assert_eq!(report.states_tested.len(), 13);
    let coverage = StateCoverage::from_trace(&trace);
    assert_eq!(coverage.count(), 13, "covered: {:?}", coverage.states());
}
