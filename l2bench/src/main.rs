//! Closed-loop benchmark of the L2Fuzz reproduction.
//!
//! ```text
//! cargo run --release --manifest-path l2bench/Cargo.toml -- \
//!     --workload <brd_budget|detect_faulty|shared_link|sweep_resume|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is closed loop and driven from this process: an initiator
//! sends its next frame only after the previous exchange returns, and the
//! next campaign (or sweep) starts only after the previous one finished.
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` alternates untraced and traced runs of the same campaigns and
//! reports the per-layer breakdown, the tracing overhead and the exact
//! counts.  The last line of standard output is the JSON result; any failed
//! correctness check makes it `"correct": false` and the exit code 1.
//! See `README.md` next to this file for the metrics and their units.

mod affinity;
mod calib;
mod campaigns;
mod report;
mod stats;
mod sweep;
mod traced;

use std::process::ExitCode;
use std::time::Instant;

use report::{per, TableVii, END_TO_END, PER_LAYER};
use stats::{Metric, Sample};
use traced::Spans;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `mallopt` parameter for the most malloc arenas.
const M_ARENA_MAX: i32 = -8;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest latency samples a run takes, so ten lie beyond the p90.
const MIN_SAMPLES: usize = 100;
/// Every how many traced iterations the captured frames are replayed
/// through the L2CAP codec.
const REPLAY_EVERY: usize = 8;
/// Timed operations after which `rss_peak_mb` is read: enough sweeps that
/// the peak does not hinge on one sweep spec, and early enough that the
/// loop's own bookkeeping, which grows with throughput, stays out of it.
const RSS_OPS: usize = 16;
/// Windows the timed loop is cut into: throughput and latency
/// percentiles are the median over windows of consecutive operations.
const WINDOWS: usize = 10;

/// What one operation of a workload produced: a campaign, or a whole
/// chunked sweep.
#[derive(Debug, Default)]
pub struct Op {
    /// Digest of everything the operation output.
    pub digest: u64,
    /// Frames transmitted, preludes, probes and pings included.
    pub pkts: u64,
    /// Operations completed: one campaign, or the sweep's jobs.
    pub units: u64,
    /// Operations failed: campaign errors, undetected detection campaigns,
    /// quarantined sweep jobs.
    pub failed: u64,
    /// An undetected detection campaign: its latency ranks as a miss.
    pub missed: bool,
    /// Findings the device did not confirm (no fired vulnerability).
    pub unconfirmed: u64,
    /// Detection campaigns re-run after one ended without a confirmed
    /// finding.
    pub reruns: u64,
    /// Latency samples the operation timed itself (sweep commit
    /// intervals); empty when the operation's own wall time is the sample.
    pub intervals_ms: Vec<f64>,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// Packets to the first confirmed finding, per detected campaign/job.
    pub pkts_to_detect: Vec<u64>,
    /// Table VII counts over the operation's traces.
    pub table: TableVii,
}

/// Per-layer counters of a traced pass.
#[derive(Debug, Default)]
pub struct Tally {
    pub spans: Spans,
    /// Initiators or service threads ran concurrently, so the process-wide
    /// allocation counter cannot be split by span.
    pub concurrent: bool,
    /// The endpoint was timed through the `TimedDevice` shim.
    pub endpoint_timed: bool,
    pub ops: u64,
    pub pkts: u64,
    pub events: u64,
    pub ctx_switches: u64,
    pub restarts: u64,
    pub allocs: u64,
    /// Wall time of the traced operations.
    pub wall_ns: u64,
    /// Time the layer rows are measured against: the traced wall, with the
    /// concurrent initiators' threads counted once each.
    pub rows_ns: u64,
    /// Wall time of the untraced runs of the same operations.
    pub untraced_ns: u64,
    pub analysis_frames: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub replayed_frames: u64,
    pub commits: u64,
    pub commit_bytes: u64,
    pub checkpoint_bytes: u64,
    pub save_ns: u64,
    pub load_ns: u64,
    pub verify_ns: u64,
    pub probes: u64,
    pub uncheckpointed_ns: u64,
}

/// A benchmark workload.
pub trait Workload {
    /// Operations the set-up runs to warm up: `0..warm_ups()`.  Their
    /// digests are the reference later runs of the same operations must
    /// match, and their exact counts are reported.
    fn warm_ups(&self) -> usize;
    /// The set-up's warm-up.
    fn warm_up(&self) -> Vec<Op> {
        (0..self.warm_ups()).map(|i| self.run(i)).collect()
    }
    /// Untimed preparation of operation `i`.
    fn prepare(&self, _i: usize) {}
    /// Runs operation `i` untraced.
    fn run(&self, i: usize) -> Op;
    /// Runs operation `i` through the traced driver, accumulating into
    /// `tally`; returns the captured traces when `keep_traces` is set.
    fn run_traced(
        &self,
        i: usize,
        tally: &mut Tally,
        keep_traces: bool,
    ) -> (Op, Vec<sniffer::Trace>);
    /// Extra measurements taken after a traced iteration, outside its wall.
    fn probe(&self, _tally: &mut Tally) -> Result<(), String> {
        Ok(())
    }
    /// Threads, loop shape and what one operation is.
    fn shape(&self) -> String;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["brd_budget", "detect_faulty", "shared_link", "sweep_resume"];

fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "brd_budget" => Box::new(campaigns::Campaigns::new(campaigns::Kind::BrdBudget, seed)),
        "detect_faulty" => Box::new(campaigns::Campaigns::new(
            campaigns::Kind::DetectFaulty,
            seed,
        )),
        "shared_link" => Box::new(campaigns::Campaigns::new(campaigns::Kind::SharedLink, seed)),
        "sweep_resume" => Box::new(sweep::SweepResume::new(seed)?),
        _ => return Err(format!("unknown workload {name}")),
    })
}

/// The result of one workload run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn fold(digests: &[u64]) -> u64 {
    let mut h = service::digest::Fnv64::new();
    for d in digests {
        h.write_u64(*d);
    }
    h.finish()
}

fn ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let mut problems: Vec<String> = Vec::new();
    // The multi-threaded workloads run on one CPU; see `affinity`.
    let pinned = match name {
        "shared_link" | "sweep_resume" => Some(affinity::OneCpu::pin()?),
        _ => None,
    };

    // Set-up: build the workload from the seed and warm it up (see
    // `Workload::warm_up`).  Repeated; every repetition must output the same
    // digests.  Every time is scaled to reference seconds by the host
    // clock; see `calib`.
    let mut clock = calib::HostClock::new();
    let mut setup_times = Vec::new();
    let mut reference: Vec<u64> = Vec::new();
    let mut exact = Op::default();
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let w = build(name, args.seed)?;
        let ops = w.warm_up();
        let wall = t0.elapsed().as_secs_f64();
        // The scale is the median over the kernel timings on either side.
        for _ in 0..3 {
            clock.sample();
        }
        setup_times.push(wall * clock.scale());
        let digests: Vec<u64> = ops.iter().map(|o| o.digest).collect();
        if rep == 0 {
            reference = digests;
            for op in ops {
                problems.extend(op.problems);
                exact.units += op.units;
                exact.failed += op.failed;
                exact.reruns += op.reruns;
                exact.pkts_to_detect.extend(op.pkts_to_detect);
                exact.table.add_counts(&op.table);
            }
        } else if digests != reference {
            problems.push(format!("set-up {rep} output digests differ from set-up 0"));
        }
        workload = Some(w);
    }
    let w = workload.expect("at least one set-up");
    let setup_s = stats::median(&setup_times);
    println!("workload {name}  seed {}\n  {}", args.seed, w.shape());
    if let Some(pin) = &pinned {
        println!("  pinned to CPU {}", pin.cpu);
    }
    println!("  output digest {:016x}", fold(&reference));

    // Every operation's own checks, plus its digest against the set-up's
    // (operations the set-up ran) or the untraced run's (traced runs).
    let check = |op: &Op, expected: Option<u64>, problems: &mut Vec<String>, what: String| {
        problems.extend(op.problems.iter().map(|p| format!("{what}: {p}")));
        if expected.is_some_and(|d| d != op.digest) {
            problems.push(format!("{what}: output digest differs"));
        }
    };

    let mut samples: Vec<Sample> = Vec::new();
    let mut op_ends: Vec<usize> = Vec::new();
    let (mut pkts, mut units, mut failed, mut attempted) = (0u64, 0u64, 0u64, 0u64);
    let (mut unconfirmed, mut reruns) = (0u64, 0u64);
    let deadline = args.seconds;
    let mut tally = Tally::default();
    let mut exact_tally = Tally::default();
    if args.trace {
        // Exact counts: one traced pass over the set-up's operations,
        // before any timing.
        for (i, &expected) in reference.iter().enumerate() {
            let a0 = alloc_counter::allocations();
            let (op, _) = w.run_traced(i, &mut exact_tally, false);
            exact_tally.allocs += alloc_counter::allocations() - a0;
            exact_tally.pkts += op.pkts;
            check(
                &op,
                Some(expected),
                &mut problems,
                format!("traced set-up operation {i}"),
            );
        }
    }
    let loop_start = Instant::now();
    // (time spent in timed operations, cumulative pkts, cumulative ops)
    let mut timeline: Vec<(f64, u64, u64)> = Vec::new();
    let (mut timed_s, mut wall_s) = (0.0, 0.0);
    let mut rss_mb = 0.0;
    let mut i = 0usize;
    while loop_start.elapsed().as_secs_f64() < deadline || samples.len() < MIN_SAMPLES {
        if loop_start.elapsed().as_secs_f64() > deadline * 4.0 + 30.0 {
            problems.push(format!("only {} latency samples", samples.len()));
            break;
        }
        w.prepare(i);
        let t0 = Instant::now();
        let op = w.run(i);
        let wall = ns(t0);
        clock.tick();
        let scale = clock.scale();
        check(
            &op,
            reference.get(i).copied(),
            &mut problems,
            format!("operation {i}"),
        );
        if op.intervals_ms.is_empty() {
            let ms = wall as f64 / 1e6 * scale;
            samples.push(if op.missed {
                Sample::Miss(ms)
            } else {
                Sample::Hit(ms)
            });
        } else {
            samples.extend(op.intervals_ms.iter().map(|&ms| Sample::Hit(ms * scale)));
        }
        op_ends.push(samples.len());
        pkts += op.pkts;
        units += op.units;
        failed += op.failed;
        unconfirmed += op.unconfirmed;
        reruns += op.reruns;
        attempted += op.units;
        timed_s += wall as f64 / 1e9 * scale;
        wall_s += wall as f64 / 1e9;
        timeline.push((timed_s, pkts, units));
        if i + 1 == RSS_OPS {
            rss_mb = rss_peak_mb();
        }
        if args.trace {
            tally.untraced_ns += wall;
            let t1 = Instant::now();
            let (traced, traces) = w.run_traced(i, &mut tally, i.is_multiple_of(REPLAY_EVERY));
            tally.wall_ns += ns(t1);
            tally.pkts += traced.pkts;
            check(
                &traced,
                Some(op.digest),
                &mut problems,
                format!("traced operation {i}"),
            );
            replay(&traces, &mut tally);
            if let Err(e) = w.probe(&mut tally) {
                problems.push(e);
            }
        }
        i += 1;
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    if i < RSS_OPS {
        rss_mb = rss_peak_mb();
    }
    let rates = stats::window_rates(&timeline, WINDOWS);

    let p50 = stats::windowed_percentile(&samples, &op_ends, 50, WINDOWS).unwrap_or(0.0);
    let p90 = stats::windowed_percentile(&samples, &op_ends, 90, WINDOWS).unwrap_or(0.0);
    let exact_ptd = if exact.pkts_to_detect.is_empty() {
        0.0
    } else {
        stats::median(
            &exact
                .pkts_to_detect
                .iter()
                .map(|&p| p as f64)
                .collect::<Vec<_>>(),
        )
    };
    let (efficiency, rejection) = exact.table.ratios();
    println!(
        "  {} operations in {:.2} s; {} latency samples; {} failed of {} attempted (failed_share {:.4}); {} campaign(s) re-run, {} after an unconfirmed finding",
        i,
        loop_s,
        samples.len(),
        failed,
        attempted,
        stats::failed_share(failed, attempted.max(1)),
        reruns,
        unconfirmed
    );
    println!(
        "  exact over the {} set-up operations: pkts_to_detect_p50 {exact_ptd}, mutation_efficiency {efficiency:.6}, rejection_ratio {rejection:.6}, failed {} of {}",
        reference.len(),
        exact.failed,
        exact.units
    );

    let metrics = if args.trace {
        let overhead = per(
            tally.wall_ns as f64 - tally.untraced_ns as f64,
            tally.untraced_ns as f64,
        );
        let unattributed = report::print_rows(&report::rows(&tally.spans), tally.rows_ns, overhead);
        let mut values = layer_values(&tally, &exact_tally);
        values.extend([
            ("mutation_efficiency", efficiency),
            ("rejection_ratio", rejection),
            ("pkts_to_detect_p50", exact_ptd),
            (
                "detect_reruns_per_op",
                per(exact.reruns as f64, exact.units as f64),
            ),
            (
                "failed_share",
                stats::failed_share(exact.failed, exact.units.max(1)),
            ),
            ("trace.overhead_share", overhead),
            ("host.calib_us", clock.median_us()),
            ("trace.unattributed_share", unattributed),
        ]);
        let metrics = report::metrics(&PER_LAYER, &values);
        report::print_metrics("per-layer metrics (traced run)", &metrics);
        metrics
    } else {
        println!(
            "  host: calibration kernel median {:.1} us (reference {:.1} us); wall clock over the run: {:.0} pkts/s, {:.3} ops/s",
            clock.median_us(),
            calib::REFERENCE_NS / 1e3,
            per(pkts as f64, wall_s),
            per(units as f64, wall_s)
        );
        println!(
            "  pkts/s per window of consecutive operations (reference seconds): {}",
            rates
                .iter()
                .map(|r| format!("{:.0}", r.0))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let metrics = report::metrics(
            &END_TO_END,
            &[
                ("setup_s", setup_s),
                (
                    "pkts_per_s",
                    stats::median(&rates.iter().map(|r| r.0).collect::<Vec<_>>()),
                ),
                (
                    "ops_per_s",
                    stats::median(&rates.iter().map(|r| r.1).collect::<Vec<_>>()),
                ),
                ("op_ms_p50", p50),
                ("op_ms_p90", p90),
                ("rss_peak_mb", rss_mb),
            ],
        );
        report::print_metrics("end-to-end metrics (untraced run)", &metrics);
        metrics
    };
    for p in problems.iter().take(10) {
        println!("  CHECK FAILED: {p}");
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
    })
}

/// Replays captured frames through the L2CAP codec: encode every frame,
/// then decode the encoded bytes.
fn replay(traces: &[sniffer::Trace], tally: &mut Tally) {
    let frames: Vec<&l2cap::packet::L2capFrame> = traces
        .iter()
        .flat_map(|t| t.records().iter().map(|r| &r.frame))
        .collect();
    if frames.is_empty() {
        return;
    }
    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(|f| f.to_bytes()).collect();
    tally.encode_ns += ns(t0);
    let t1 = Instant::now();
    for bytes in &encoded {
        let frame = l2cap::packet::L2capFrame::parse(bytes).expect("captured frames re-parse");
        std::hint::black_box(frame);
    }
    tally.decode_ns += ns(t1);
    tally.replayed_frames += frames.len() as u64;
}

/// Per-layer values: times from the timed traced runs, counts from the
/// exact pass.
fn layer_values(t: &Tally, x: &Tally) -> Vec<(&'static str, f64)> {
    let s = &t.spans;
    let e = &x.spans;
    let f = |v: u64| v as f64;
    let split_allocs = |allocs: u64, per_what: u64| {
        if x.concurrent {
            0.0
        } else {
            per(f(allocs), f(per_what))
        }
    };
    vec![
        (
            "core.mutator.ns_per_pkt",
            per(f(s.mutator.ns), f(s.mutated_pkts)),
        ),
        (
            "core.mutator.allocs_per_pkt",
            split_allocs(e.mutator.allocs, e.mutated_pkts),
        ),
        (
            "core.queue.ns_per_pkt",
            per(f(s.queue.ns), f(s.queue.calls)),
        ),
        (
            "core.queue.allocs_per_pkt",
            split_allocs(e.queue.allocs, e.queue.calls),
        ),
        (
            "hci.medium.self_ns_per_frame",
            if t.endpoint_timed {
                per(f(s.queue.self_ns()), f(s.queue.calls))
            } else {
                0.0
            },
        ),
        ("hci.medium.events_per_pkt", per(f(x.events), f(x.pkts))),
        (
            "btcore.event.ctx_switches_per_pkt",
            per(f(t.ctx_switches), f(t.pkts)),
        ),
        (
            "btstack.endpoint.ns_per_frame",
            per(f(s.endpoint_ns), f(s.endpoint_frames)),
        ),
        (
            "btstack.endpoint.allocs_per_frame",
            split_allocs(e.endpoint_allocs, e.endpoint_frames),
        ),
        ("btstack.endpoint.restarts", per(f(x.restarts), f(x.ops))),
        (
            "l2cap.decode_ns_per_frame",
            per(f(t.decode_ns), f(t.replayed_frames)),
        ),
        (
            "l2cap.encode_ns_per_frame",
            per(f(t.encode_ns), f(t.replayed_frames)),
        ),
        (
            "sniffer.analysis_ns_per_frame",
            per(f(s.sniffer.ns), f(t.analysis_frames)),
        ),
        (
            "core.scanner.us_per_campaign",
            per(f(s.scanner.self_ns()), f(s.scanner.calls)) / 1e3,
        ),
        (
            "core.guide.us_per_state",
            per(f(s.guide.self_ns()), f(s.states)) / 1e3,
        ),
        (
            "core.guide.prelude_pkts_per_state",
            per(f(e.prelude_pkts), f(e.states)),
        ),
        (
            "core.detector.ns_per_check",
            per(f(s.detector.self_ns()), f(s.detector.calls)),
        ),
        (
            "core.detector.pings_per_pkt",
            per(f(e.pings), f(e.queue.calls)),
        ),
        (
            "feedback.us_per_campaign",
            per(f(s.feedback.self_ns()), f(s.feedback_campaigns)) / 1e3,
        ),
        (
            "feedback.corpus_entries",
            per(f(e.corpus_entries), f(e.feedback_campaigns)),
        ),
        (
            "core.campaign.env_us",
            per(f(s.env.ns), f(s.env.calls)) / 1e3,
        ),
        ("core.campaign.allocs_per_pkt", per(f(x.allocs), f(x.pkts))),
        ("service.save_ms", per(f(t.save_ns), f(t.probes)) / 1e6),
        (
            "service.bytes_per_commit",
            per(f(x.commit_bytes), f(x.commits)),
        ),
        (
            "service.checkpoint_bytes",
            per(f(x.checkpoint_bytes), f(x.ops)),
        ),
        ("service.load_ms", per(f(t.load_ns), f(t.probes)) / 1e6),
        ("service.verify_ms", per(f(t.verify_ns), f(t.probes)) / 1e6),
        (
            "service.persist_share",
            if t.uncheckpointed_ns == 0 {
                0.0
            } else {
                per(f(t.untraced_ns) - f(t.uncheckpointed_ns), f(t.untraced_ns))
            },
        ),
    ]
}

fn main() -> ExitCode {
    // One malloc arena for every thread.  With glibc's default of an arena
    // per thread, `sweep_resume`'s worker and committer draw arenas in an
    // order that varies from run to run, and the multi-megabyte checkpoint
    // buffers left its resident peak at 24 or at 33-36 MB depending on the
    // draw; one arena makes the peak repeat.  The other workloads allocate
    // from the main arena either way.
    // SAFETY: `mallopt` only sets an allocator parameter; no thread other
    // than this one exists yet.
    unsafe { mallopt(M_ARENA_MAX, 1) };
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("l2bench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for name in &names {
        match run_workload(name, &args) {
            Ok(outcome) => results.push((*name, outcome)),
            Err(e) => {
                sweep::remove_checkpoints();
                eprintln!("l2bench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    sweep::remove_checkpoints();
    let correct = results.iter().all(|(_, o)| o.correct);
    let line = if let [(_, o)] = results.as_slice() {
        stats::result_json(o.correct, o.attempted, o.failed, &o.metrics)
    } else {
        let metrics: Vec<Metric> = results
            .iter()
            .flat_map(|(name, o)| {
                o.metrics.iter().map(move |m| Metric {
                    name: format!("{name}.{}", m.name),
                    ..m.clone()
                })
            })
            .collect();
        stats::result_json(
            correct,
            results.iter().map(|(_, o)| o.attempted).sum(),
            results.iter().map(|(_, o)| o.failed).sum(),
            &metrics,
        )
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
