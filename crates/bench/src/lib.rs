//! Shared experiment harness for the benchmark binaries and Criterion
//! benches.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! binary in `src/bin/`; the functions here do the actual work so the
//! binaries stay thin and the Criterion benches can reuse the same code
//! paths.  All of them drive fuzzing through the unified
//! [`l2fuzz::campaign::Campaign`] API — no experiment wires a medium by
//! hand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use btstack::profiles::{DeviceProfile, ProfileId};
use feedback::{FeedbackCampaignExt, FeedbackConfig};
use l2fuzz::campaign::{Campaign, CampaignOutcome, OraclePolicy};
use l2fuzz::config::FuzzConfig;
use l2fuzz::fuzzer::{Fuzzer, TxBudget};
use l2fuzz::report::FuzzReport;
use l2fuzz::session::L2FuzzTool;
use sniffer::{MetricsSummary, StateCoverage, Trace, TraceAnalysis};

use baselines::{BFuzzFuzzer, BssFuzzer, DefensicsFuzzer};

/// Runs the full L2Fuzz vulnerability-detection experiment against a device
/// (Table VI methodology): campaigns repeat until a vulnerability is found or
/// `max_campaigns` is reached.
pub fn run_table6_campaign(id: ProfileId, seed: u64, max_campaigns: usize) -> FuzzReport {
    Campaign::builder()
        .target(DeviceProfile::table5(id))
        .fuzzer(move || Box::new(L2FuzzTool::detection(FuzzConfig::default(), max_campaigns)))
        .oracle(OraclePolicy::OutOfBand)
        .seed(seed)
        .run()
        .expect("table 6 campaign runs")
        .into_single()
        .report
}

/// Runs the Table VI detection experiment against every Table V device at
/// once, sharded across worker threads.  Per-target outcomes come back in
/// Table V order and are bit-for-bit identical to a serial run of the same
/// seed; the outcome's `elapsed` is the campaign wall-clock (longest
/// per-device time).
pub fn table6_survey(seed: u64, max_campaigns: usize, threads: usize) -> CampaignOutcome {
    Campaign::builder()
        .targets(DeviceProfile::all())
        .fuzzer(move || Box::new(L2FuzzTool::detection(FuzzConfig::default(), max_campaigns)))
        .oracle(OraclePolicy::OutOfBand)
        .seed(seed)
        .threads(threads)
        .run()
        .expect("table 6 survey runs")
}

/// Result of running one fuzzer for the comparison experiments.
pub struct ComparisonRun {
    /// Tool name.
    pub name: &'static str,
    /// Captured trace.
    pub trace: Trace,
    /// Metrics summary (Table VII row).
    pub metrics: MetricsSummary,
    /// State coverage (Fig. 10/11 row).
    pub coverage: StateCoverage,
}

/// The four tools of the §IV-C/D comparison, in the paper's order.
pub const COMPARISON_TOOLS: [&str; 4] = ["L2Fuzz", "Defensics", "BFuzz", "BSS"];

/// Spawns a fresh instance of a comparison tool by name.
///
/// # Panics
/// Panics on a name outside [`COMPARISON_TOOLS`].
pub fn spawn_tool(name: &str) -> Box<dyn Fuzzer> {
    match name {
        "L2Fuzz" => Box::new(L2FuzzTool::comparison()),
        "Defensics" => Box::new(DefensicsFuzzer::new()),
        "BFuzz" => Box::new(BFuzzFuzzer::new()),
        "BSS" => Box::new(BssFuzzer::new()),
        other => panic!("unknown comparison tool {other:?}"),
    }
}

fn run_comparison_tool(
    budget: usize,
    seed: u64,
    index: usize,
    name: &'static str,
) -> ComparisonRun {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D2))
        .fuzzer(move || spawn_tool(name))
        .budget(TxBudget::packets(budget as u64))
        .oracle(OraclePolicy::None)
        .auto_restart(true)
        .seed(seed.wrapping_add(index as u64))
        .run()
        .expect("comparison campaign runs")
        .into_single();
    let analysis = TraceAnalysis::from_trace(&outcome.trace);
    ComparisonRun {
        name,
        metrics: analysis.metrics,
        coverage: analysis.coverage,
        trace: outcome.trace,
    }
}

/// Serial variant of [`run_comparison`]: the four campaigns run back to back
/// on the calling thread.  This is what the `packet_throughput` Criterion
/// bench and the `perf_report` baseline measure, so the tracked numbers
/// reflect per-packet pipeline cost alone — never thread-level parallelism.
pub fn run_comparison_serial(budget: usize, seed: u64) -> Vec<ComparisonRun> {
    COMPARISON_TOOLS
        .into_iter()
        .enumerate()
        .map(|(i, name)| run_comparison_tool(budget, seed, i, name))
        .collect()
}

/// Runs all four fuzzers against a fresh Pixel 3 (D2) bench with the given
/// per-fuzzer packet budget, reproducing the §IV-C/D comparison.  Each tool
/// gets its own isolated campaign environment (auto-restarting target, no
/// oracle — metrics come from the sniffed trace, as in the paper).
///
/// The four campaigns are fully isolated — own clock, own air medium, own
/// RNG streams — so on a multi-core host they run concurrently, one worker
/// thread per tool, and the per-tool traces and metrics are bit-for-bit what
/// [`run_comparison_serial`] produces.  Results come back in
/// [`COMPARISON_TOOLS`] order.
pub fn run_comparison(budget: usize, seed: u64) -> Vec<ComparisonRun> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if workers <= 1 {
        // Single-core host: spawning threads only adds overhead.
        return run_comparison_serial(budget, seed);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = COMPARISON_TOOLS
            .into_iter()
            .enumerate()
            .map(|(i, name)| scope.spawn(move || run_comparison_tool(budget, seed, i, name)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("comparison worker panicked"))
            .collect()
    })
}

/// The sweep seeds the detection ablation runs under — the extended-profile
/// scenario seeds, eight of them so the median is stable.
pub const ABLATION_SEEDS: [u64; 8] = [51, 52, 53, 54, 55, 56, 57, 58];

/// One target's row of the pinned D9/D10/D11 ablation: packets to detection
/// per sweep seed for each engine (the full spend, transitions and liveness
/// pings included; an undetected run is censored at its total spend).
pub struct AblationRow {
    /// The target profile.
    pub profile: ProfileId,
    /// Packets spent by the dictionary engine, one entry per sweep seed.
    pub dictionary: Vec<u64>,
    /// Packets spent by the feedback engine, one entry per sweep seed.
    pub feedback: Vec<u64>,
    /// Sweep seeds on which the dictionary engine detected the seeded bug.
    pub dictionary_detected: usize,
    /// Sweep seeds on which the feedback engine detected the seeded bug.
    pub feedback_detected: usize,
}

fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    (sorted[sorted.len().div_ceil(2) - 1] + sorted[sorted.len() / 2]) / 2
}

impl AblationRow {
    /// Median packets to detection of the dictionary engine.
    pub fn dictionary_median(&self) -> u64 {
        median(&self.dictionary)
    }

    /// Median packets to detection of the feedback engine.
    pub fn feedback_median(&self) -> u64 {
        median(&self.feedback)
    }
}

/// Runs the pinned ablation: for each seeded extended-profile vulnerability,
/// a dictionary detection campaign and a coverage-guided feedback campaign
/// per sweep seed.  The dictionary baseline gets configuration-option
/// mutation on D11 — without it the ERTM zero-window seed is unreachable
/// and the comparison would be a strawman.
pub fn detection_ablation() -> Vec<AblationRow> {
    [ProfileId::D9, ProfileId::D10, ProfileId::D11]
        .into_iter()
        .map(|id| {
            let mut row = AblationRow {
                profile: id,
                dictionary: Vec::new(),
                feedback: Vec::new(),
                dictionary_detected: 0,
                feedback_detected: 0,
            };
            for seed in ABLATION_SEEDS {
                let dict = Campaign::builder()
                    .target(DeviceProfile::table5(id))
                    .fuzzer(move || {
                        let cfg = if id == ProfileId::D11 {
                            FuzzConfig::default().with_config_option_mutation()
                        } else {
                            FuzzConfig::default()
                        };
                        Box::new(L2FuzzTool::detection(cfg, 3))
                    })
                    .seed(seed)
                    .run()
                    .expect("ablation dictionary campaign runs")
                    .into_single();
                row.dictionary.push(dict.report.packets_sent);
                row.dictionary_detected += usize::from(dict.report.vulnerable());

                let fb = Campaign::builder()
                    .target(DeviceProfile::table5(id))
                    .feedback(FeedbackConfig::default())
                    .seed(seed)
                    .run()
                    .expect("ablation feedback campaign runs")
                    .into_single();
                row.feedback.push(fb.report.packets_sent);
                row.feedback_detected += usize::from(fb.report.vulnerable());
            }
            row
        })
        .collect()
}

/// Packet budget used by the experiment binaries.  The paper uses 100,000
/// packets per fuzzer; the default here is smaller so the binaries finish in
/// seconds, and can be overridden with the `L2FUZZ_BUDGET` environment
/// variable.
pub fn default_budget() -> usize {
    std::env::var("L2FUZZ_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_preserves_the_papers_ordering() {
        let runs = run_comparison(2_500, 42);
        assert_eq!(runs.len(), 4);
        let me: Vec<f64> = runs.iter().map(|r| r.metrics.mutation_efficiency).collect();
        // L2Fuzz dominates everything else.
        assert!(
            me[0] > 3.0 * me[1],
            "L2Fuzz {:.3} vs Defensics {:.3}",
            me[0],
            me[1]
        );
        assert!(
            me[0] > 3.0 * me[2],
            "L2Fuzz {:.3} vs BFuzz {:.3}",
            me[0],
            me[2]
        );
        assert!(
            me[3] <= f64::EPSILON,
            "BSS must have zero mutation efficiency"
        );
        // BFuzz has the worst rejection ratio.
        let pr: Vec<f64> = runs.iter().map(|r| r.metrics.pr_ratio).collect();
        assert!(pr[2] > pr[0] && pr[2] > pr[1] && pr[2] > pr[3]);
        // Coverage ordering: L2Fuzz > Defensics >= BFuzz > BSS.
        let cov: Vec<usize> = runs.iter().map(|r| r.coverage.count()).collect();
        assert!(
            cov[0] > cov[1] && cov[1] >= cov[2] && cov[2] > cov[3],
            "coverage {cov:?}"
        );
        assert_eq!(cov[0], 13);
    }

    #[test]
    fn table6_campaign_finds_the_pixel3_bug() {
        let report = run_table6_campaign(ProfileId::D2, 7, 5);
        assert!(report.vulnerable());
    }
}
