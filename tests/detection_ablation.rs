//! The pinned D9/D10/D11 detection ablation, as a gating test.
//!
//! `perf_report` writes these medians into `BENCH_PR10.json`; this test runs
//! the same [`bench::detection_ablation`] and asserts them exactly: median
//! packets to detection per engine over the eight sweep seeds, and every
//! seed detected by both engines.  A refactor of either engine that changes
//! what it sends, or how soon it finds a seeded vulnerability, fails here.

use bench::{detection_ablation, ABLATION_SEEDS};
use btstack::profiles::ProfileId;

#[test]
fn detection_ablation_matches_the_committed_medians() {
    let expected = [
        (ProfileId::D9, 105, 103),
        (ProfileId::D10, 165, 87),
        (ProfileId::D11, 579, 439),
    ];
    let rows = detection_ablation();
    assert_eq!(rows.len(), expected.len());
    let seeds = ABLATION_SEEDS.len();
    for (row, (profile, dictionary, feedback)) in rows.iter().zip(expected) {
        assert_eq!(row.profile, profile);
        assert_eq!(
            (row.dictionary_median(), row.feedback_median()),
            (dictionary, feedback),
            "{profile}: median packets to detection (dictionary, feedback)"
        );
        assert_eq!(
            (row.dictionary_detected, row.feedback_detected),
            (seeds, seeds),
            "{profile}: seeds detected (dictionary, feedback)"
        );
    }
}
