//! The campaign workloads: `brd_budget`, `detect_faulty` and `shared_link`.
//!
//! Operation `i` is one campaign whose spec derives from the workload seed
//! and `i`.  The untraced path runs a spec through
//! `Campaign::builder()…run()`; the traced path runs the same spec through
//! the traced driver on a hand-wired environment, and both must produce the
//! same output digest.

use std::time::Instant;

use btstack::profiles::{DeviceProfile, ProfileId};
use feedback::{FeedbackCampaignExt, FeedbackConfig, FeedbackFuzzer};
use hci::link::LinkConfig;
use l2fuzz::campaign::{Campaign, OraclePolicy};
use l2fuzz::{FaultPlan, FuzzConfig, FuzzReport, Fuzzer, L2FuzzTool, RetryPolicy, TxBudget};
use service::digest::{trace_digest, Fnv64};
use sniffer::{Trace, TraceAnalysis};

use crate::traced::{self, GatedOracle, TracedTool};
use crate::{Op, Tally, Workload};

/// Packets per budget-driven `brd_budget` campaign.
const BRD_PACKETS: u64 = 2000;
/// Packets per initiator of a `shared_link` campaign.
const SHARED_PACKETS: u64 = 1000;
/// Rounds a dictionary detection campaign gets before it counts as a miss.
const DETECT_ROUNDS: usize = 3;
/// Campaigns a `detect_faulty` operation runs, each after the previous one
/// ended without a confirmed finding, before the operation counts as failed.
const DETECT_ATTEMPTS: u64 = 16;

/// The degraded link every `detect_faulty` campaign runs over.
fn faults() -> FaultPlan {
    FaultPlan::degraded(0.10, 0.05)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BrdBudget,
    DetectFaulty,
    SharedLink,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Budget,
    Dictionary,
    Feedback,
}

#[derive(Debug, Clone, Copy)]
struct Spec {
    profile: ProfileId,
    engine: Engine,
    seed: u64,
}

pub struct Campaigns {
    kind: Kind,
    base: u64,
}

const DETECT_TARGETS: [ProfileId; 4] =
    [ProfileId::D2, ProfileId::D9, ProfileId::D10, ProfileId::D11];

impl Campaigns {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let tag = match kind {
            Kind::BrdBudget => 0xB7D,
            Kind::DetectFaulty => 0xDE7,
            Kind::SharedLink => 0x5A7,
        };
        Campaigns {
            kind,
            base: btcore::splitmix64(seed ^ tag),
        }
    }

    /// The `i`th campaign spec of the workload's seed.
    fn spec(&self, i: usize) -> Spec {
        let seed = btcore::splitmix64(self.base.wrapping_add(i as u64));
        match self.kind {
            Kind::BrdBudget => Spec {
                profile: ProfileId::D2,
                engine: Engine::Budget,
                seed,
            },
            Kind::SharedLink => Spec {
                profile: ProfileId::D4,
                engine: Engine::Budget,
                seed,
            },
            // Every target meets both engines.
            Kind::DetectFaulty => Spec {
                profile: DETECT_TARGETS[i % 4],
                engine: if (i / 4).is_multiple_of(2) {
                    Engine::Dictionary
                } else {
                    Engine::Feedback
                },
                seed,
            },
        }
    }

    fn untraced(&self, spec: Spec) -> Result<Op, String> {
        let profile = DeviceProfile::table5(spec.profile);
        let builder = Campaign::builder().target(profile.clone()).seed(spec.seed);
        let builder = match (self.kind, spec.engine) {
            (Kind::BrdBudget, _) => builder
                .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())))
                .budget(TxBudget::packets(BRD_PACKETS))
                .oracle(OraclePolicy::None)
                .auto_restart(true)
                .link_config(LinkConfig::ideal()),
            (Kind::SharedLink, _) => builder
                .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())))
                .budget(TxBudget::packets(SHARED_PACKETS))
                .oracle(OraclePolicy::None)
                .link_config(LinkConfig::ideal())
                .initiators_per_target(2),
            (_, Engine::Feedback) => builder.faults(faults()).feedback(FeedbackConfig::default()),
            (_, _) => {
                let config = dictionary_config(spec.profile);
                builder
                    .faults(faults())
                    .fuzzer(move || Box::new(L2FuzzTool::detection(config.clone(), DETECT_ROUNDS)))
            }
        };
        let outcome = builder.run().map_err(|e| e.to_string())?.into_single();
        let traces: Vec<&Trace> = std::iter::once(&outcome.trace)
            .chain(outcome.secondary.iter().map(|s| &s.trace))
            .collect();
        let reports: Vec<&FuzzReport> = outcome.reports().collect();
        let device = outcome.device.lock();
        Ok(self.summarize(&profile, &traces, &reports, &device, None))
    }

    fn traced(&self, spec: Spec, tally: &mut Tally) -> Result<(Op, Vec<Trace>), String> {
        let t0 = Instant::now();
        let profile = DeviceProfile::table5(spec.profile);
        let (link_config, auto_restart, initiators) = match self.kind {
            Kind::BrdBudget => (LinkConfig::ideal(), true, 1),
            Kind::SharedLink => (LinkConfig::ideal(), false, 2),
            Kind::DetectFaulty => (LinkConfig::default().with_faults(faults()), false, 1),
        };
        let mut env = tally
            .spans
            .env
            .time(|| traced::wire(&profile, spec.seed, link_config, auto_restart, initiators));
        let mut reports = Vec::new();
        let mut rows_ns = 0;
        tally.endpoint_timed = true;
        tally.concurrent = initiators > 1;
        if initiators == 1 {
            let init = &mut env.initiators[0];
            let mark = traced::endpoint_mark();
            let report = match spec.engine {
                Engine::Budget => {
                    let mut tool = TracedTool::new(FuzzConfig::budget_driven());
                    let report = traced::drive(
                        &mut tool,
                        init,
                        TxBudget::packets(BRD_PACKETS),
                        RetryPolicy::none(),
                        None,
                    );
                    tally.spans.add(&tool.spans);
                    report
                }
                Engine::Dictionary => {
                    let mut tool =
                        TracedTool::detection(dictionary_config(spec.profile), DETECT_ROUNDS);
                    let mut oracle = GatedOracle::new(
                        env.device.clone(),
                        &init.link,
                        init.seed,
                        faults().dump_read_failure,
                    );
                    let report = traced::drive(
                        &mut tool,
                        init,
                        TxBudget::unlimited(),
                        RetryPolicy::lossy_link(),
                        Some(&mut oracle),
                    );
                    tally.spans.add(&tool.spans);
                    report
                }
                Engine::Feedback => {
                    let mut fuzzer = FeedbackFuzzer::new(FeedbackConfig::default());
                    let mut oracle = GatedOracle::new(
                        env.device.clone(),
                        &init.link,
                        init.seed,
                        faults().dump_read_failure,
                    );
                    let report = tally.spans.feedback.time(|| {
                        traced::drive(
                            &mut fuzzer as &mut dyn Fuzzer,
                            init,
                            TxBudget::unlimited(),
                            RetryPolicy::lossy_link(),
                            Some(&mut oracle),
                        )
                    });
                    tally.spans.feedback_campaigns += 1;
                    tally.spans.corpus_entries += fuzzer.corpus().len() as u64;
                    report
                }
            };
            tally.spans.take_endpoint_since(mark);
            reports.push(report.ok_or("the traced tool ran no round")?);
        } else {
            // One thread per initiator, as the campaign harness runs them.
            let scope_start = Instant::now();
            let results: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = env
                    .initiators
                    .iter_mut()
                    .map(|init| {
                        scope.spawn(move || {
                            let t = Instant::now();
                            let switches = voluntary_ctx_switches();
                            let mark = traced::endpoint_mark();
                            let mut tool = TracedTool::new(FuzzConfig::budget_driven());
                            let report = traced::drive(
                                &mut tool,
                                init,
                                TxBudget::packets(SHARED_PACKETS),
                                RetryPolicy::none(),
                                None,
                            );
                            let mut spans = tool.spans;
                            spans.take_endpoint_since(mark);
                            let switches = voluntary_ctx_switches() - switches;
                            (report, spans, switches, crate::ns(t))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("initiator thread panicked"))
                    .collect()
            });
            // Rows count each initiator thread's time once.
            let scope_ns = crate::ns(scope_start);
            rows_ns = results
                .iter()
                .map(|r| r.3)
                .sum::<u64>()
                .saturating_sub(scope_ns);
            for (report, spans, switches, _) in results {
                tally.spans.add(&spans);
                tally.ctx_switches += switches;
                reports.push(report.ok_or("the traced tool ran no round")?);
            }
        }
        let traces: Vec<Trace> = env
            .initiators
            .iter()
            .map(|i| Trace::from_tap(&i.tap))
            .collect();
        let device = env.device.lock();
        let trace_refs: Vec<&Trace> = traces.iter().collect();
        let report_refs: Vec<&FuzzReport> = reports.iter().collect();
        let op = self.summarize(
            &profile,
            &trace_refs,
            &report_refs,
            &device,
            Some(&mut tally.spans.sniffer),
        );
        drop(device);
        tally.ops += 1;
        tally.events += env.medium.events_fired();
        tally.restarts += env.device.lock().fired_vulnerabilities().len() as u64;
        if self.kind != Kind::DetectFaulty {
            tally.analysis_frames += traces.iter().map(|t| t.len() as u64).sum::<u64>();
        }
        tally.rows_ns += crate::ns(t0) + rows_ns;
        Ok((op, traces))
    }

    /// The operation's output: digest, packet count, Table VII counts and
    /// the detection checks.  With `sniffer`, the trace analysis is timed
    /// in that span.
    fn summarize(
        &self,
        profile: &DeviceProfile,
        traces: &[&Trace],
        reports: &[&FuzzReport],
        device: &btstack::device::SimulatedDevice,
        mut sniffer: Option<&mut crate::traced::Span>,
    ) -> Op {
        let mut op = Op {
            units: 1,
            ..Op::default()
        };
        let mut h = Fnv64::new();
        for (trace, report) in traces.iter().zip(reports) {
            h.write_u64(trace_digest(trace));
            h.write_u64(report.packets_sent);
            h.write_u64(report.findings.len() as u64);
            op.pkts += trace.transmitted_count() as u64;
            if self.kind != Kind::DetectFaulty {
                let analyze = || TraceAnalysis::from_trace_on(trace, profile.link_type);
                let analysis = match sniffer.as_deref_mut() {
                    Some(span) => span.time(analyze),
                    None => analyze(),
                };
                op.table.add(&analysis.metrics);
            }
        }
        op.digest = h.finish();
        if self.kind == Kind::DetectFaulty {
            // A detection counts only once the device confirms it: a finding
            // with no fired vulnerability behind it (the detector mistaking
            // a lossy link for a dead target) is an unconfirmed finding,
            // and the campaign a miss.  `pkts_to_detect` holds the packets
            // the campaign sent, hit or miss; see `until_confirmed`.
            let report = reports[0];
            op.pkts_to_detect.push(report.packets_sent);
            let confirmed = report.vulnerable() && !device.fired_vulnerabilities().is_empty();
            op.missed = !confirmed;
            op.unconfirmed = u64::from(op.missed && report.vulnerable());
        }
        op
    }

    /// One `detect_faulty` operation: detection campaigns on the spec's
    /// target, each with a fresh seed after the previous one ended without a
    /// confirmed finding, as an operator re-runs a campaign whose finding did
    /// not reproduce, until one confirms a vulnerability.  Time and packets
    /// to detection cover every campaign run; the re-runs are counted.  The
    /// operation fails only when [`DETECT_ATTEMPTS`] campaigns all missed.
    fn until_confirmed(
        spec: Spec,
        mut campaign: impl FnMut(Spec) -> Result<Op, String>,
    ) -> Result<Op, String> {
        let mut op = Op {
            units: 1,
            ..Op::default()
        };
        let mut h = Fnv64::new();
        let mut sent = 0;
        for attempt in 0..DETECT_ATTEMPTS {
            let seed = if attempt == 0 {
                spec.seed
            } else {
                btcore::splitmix64(spec.seed ^ attempt.rotate_right(8))
            };
            let c = campaign(Spec { seed, ..spec })?;
            h.write_u64(c.digest);
            op.pkts += c.pkts;
            op.unconfirmed += c.unconfirmed;
            op.problems.extend(c.problems);
            sent += c.pkts_to_detect.iter().sum::<u64>();
            if !c.missed {
                op.digest = h.finish();
                op.pkts_to_detect.push(sent);
                return Ok(op);
            }
            op.reruns += 1;
        }
        op.digest = h.finish();
        op.reruns -= 1;
        op.missed = true;
        op.failed = 1;
        Ok(op)
    }

    fn contained(&self, run: impl FnOnce() -> Result<Op, String>) -> Op {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(Ok(op)) => op,
            Ok(Err(e)) => failed_op(format!("campaign error: {e}")),
            Err(_) => failed_op("campaign panicked".into()),
        }
    }
}

fn failed_op(problem: String) -> Op {
    Op {
        units: 1,
        failed: 1,
        problems: vec![problem],
        ..Op::default()
    }
}

/// The dictionary engine's configuration: D11 gets configuration-option
/// mutation, without which its ERTM zero-window seed is unreachable.
fn dictionary_config(profile: ProfileId) -> FuzzConfig {
    if profile == ProfileId::D11 {
        FuzzConfig::default().with_config_option_mutation()
    } else {
        FuzzConfig::default()
    }
}

/// This thread's voluntary context switches, from the OS.
fn voluntary_ctx_switches() -> u64 {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

impl Workload for Campaigns {
    fn warm_ups(&self) -> usize {
        match self.kind {
            Kind::BrdBudget => 64,
            Kind::DetectFaulty => 512,
            Kind::SharedLink => 16,
        }
    }

    fn run(&self, i: usize) -> Op {
        let spec = self.spec(i);
        self.contained(|| match self.kind {
            Kind::DetectFaulty => Self::until_confirmed(spec, |s| self.untraced(s)),
            _ => self.untraced(spec),
        })
    }

    fn run_traced(&self, i: usize, tally: &mut Tally, keep_traces: bool) -> (Op, Vec<Trace>) {
        let spec = self.spec(i);
        let mut traces = Vec::new();
        let mut traced = |s: Spec| {
            let (op, t) = self.traced(s, tally)?;
            if keep_traces {
                traces.extend(t);
            }
            Ok(op)
        };
        let op = self.contained(|| match self.kind {
            Kind::DetectFaulty => Self::until_confirmed(spec, &mut traced),
            _ => traced(spec),
        });
        (op, traces)
    }

    fn shape(&self) -> String {
        match self.kind {
            Kind::BrdBudget => "threads 1; closed loop: one initiator sends each frame after the previous exchange returns, the next campaign starts after the previous one and its trace analysis; op = campaign (op_ms_* is campaign_ms_*)",
            Kind::DetectFaulty => "threads 1; closed loop: one initiator sends each frame after the previous exchange returns, the next detection campaign starts when the previous one ends; op = detection campaigns on one target until one confirms a finding (op_ms_* is detect_ms_*; an operation that exhausts its campaigns is a miss ranked above every hit)",
            Kind::SharedLink => "threads 2 on one CPU; closed loop: two initiators on one target, each sending after its previous exchange returns, the next campaign starts when both finished; op = campaign (op_ms_* is campaign_ms_*)",
        }
        .to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign(sent: u64, missed: bool) -> Op {
        Op {
            units: 1,
            pkts: sent + 10,
            missed,
            pkts_to_detect: vec![sent],
            ..Op::default()
        }
    }

    fn spec() -> Spec {
        Spec {
            profile: ProfileId::D2,
            engine: Engine::Dictionary,
            seed: 7,
        }
    }

    #[test]
    fn detection_reruns_until_a_confirmed_finding() {
        let mut seeds = Vec::new();
        let op = Campaigns::until_confirmed(spec(), |s| {
            seeds.push(s.seed);
            Ok(campaign(100, seeds.len() < 3))
        })
        .unwrap();
        assert_eq!(seeds[0], 7);
        assert_eq!(seeds.len(), 3);
        assert!(seeds[1] != seeds[0] && seeds[2] != seeds[1]);
        // Packets to detection cover every campaign run, misses included.
        assert_eq!(op.pkts_to_detect, vec![300]);
        assert_eq!((op.pkts, op.units, op.reruns), (330, 1, 2));
        assert!(!op.missed);
        assert_eq!(op.failed, 0);
    }

    #[test]
    fn detection_fails_once_every_attempt_missed() {
        let mut runs = 0;
        let op = Campaigns::until_confirmed(spec(), |_| {
            runs += 1;
            Ok(campaign(5, true))
        })
        .unwrap();
        assert_eq!(runs, DETECT_ATTEMPTS);
        assert!(op.missed);
        assert_eq!((op.failed, op.units), (1, 1));
        assert_eq!(op.reruns, DETECT_ATTEMPTS - 1);
        assert!(op.pkts_to_detect.is_empty());
    }
}
