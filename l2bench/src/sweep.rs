//! The `sweep_resume` workload: a checkpointed `SweepService` sweep over all
//! eleven profiles, detection stopping rule, run in chunks through
//! `max_shards` with every chunk resuming under `ResumeVerify::LastShard` —
//! what an operator does with `l2fuzz-service --max-shards`.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use btstack::profiles::ProfileId;
use l2fuzz::FuzzConfig;
use parking_lot::Mutex;
use service::{Checkpoint, ResumeVerify, ServiceReport, SweepService, SweepSpec};
use sniffer::Trace;

use crate::traced::{Spans, TracedTool};
use crate::{ns, Op, Tally, Workload};

/// Derived seeds per profile: 11 × 8 = 88 jobs.
const SEEDS: usize = 8;
/// Jobs per shard.
const SHARD_SIZE: usize = 4;
/// Shards committed per chunk before the sweep stops and resumes.
const CHUNK_SHARDS: usize = 11;
/// Where checkpoints are written, relative to the working directory.
const CHECKPOINT_DIR: &str = ".l2bench_tmp";

pub struct SweepResume {
    base: u64,
    workers: usize,
    path: PathBuf,
    /// The prepared operation: its index, its spec, and the uninterrupted,
    /// uncheckpointed sweep every chunked run of it must reproduce.
    prepared: RefCell<(usize, SweepSpec, ServiceReport)>,
}

/// A finished chunked sweep.
struct Chunked {
    report: ServiceReport,
    /// Commit instants and the checkpoint's size at each commit.
    commits: Vec<(Instant, u64)>,
    start: Instant,
}

fn uncheckpointed(spec: &SweepSpec, workers: usize) -> Result<ServiceReport, String> {
    SweepService::new(spec.clone())
        .workers(workers)
        .run()
        .map_err(|e| e.to_string())?
        .report
        .ok_or_else(|| "uninterrupted sweep did not complete".to_owned())
}

impl SweepResume {
    pub fn new(seed: u64) -> Result<Self, String> {
        // The workers plus the committing thread fit the cores.
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .saturating_sub(1)
            .max(1);
        std::fs::create_dir_all(CHECKPOINT_DIR).map_err(|e| format!("{CHECKPOINT_DIR}: {e}"))?;
        let path = PathBuf::from(CHECKPOINT_DIR).join(format!("sweep-{}.json", std::process::id()));
        let base = btcore::splitmix64(seed ^ 0x5EE);
        let spec = sweep_spec(base, 0);
        let reference = uncheckpointed(&spec, workers)?;
        Ok(SweepResume {
            base,
            workers,
            path,
            prepared: RefCell::new((0, spec, reference)),
        })
    }

    /// Runs the prepared sweep from scratch in chunks of [`CHUNK_SHARDS`],
    /// each a fresh service resuming from the checkpoint.
    fn chunked(&self, sink: Option<&Arc<Mutex<Spans>>>, sizes: bool) -> Result<Chunked, String> {
        let spec = self.prepared.borrow().1.clone();
        let _ = std::fs::remove_file(&self.path);
        let commits = Rc::new(RefCell::new(Vec::new()));
        let start = Instant::now();
        let report = loop {
            let seen = commits.clone();
            let path = self.path.clone();
            let mut service = SweepService::new(spec.clone())
                .workers(self.workers)
                .checkpoint(&self.path)
                .verify(ResumeVerify::LastShard)
                .max_shards(CHUNK_SHARDS)
                .on_commit(move |_| {
                    let size = if sizes {
                        std::fs::metadata(&path).map_or(0, |m| m.len())
                    } else {
                        0
                    };
                    seen.borrow_mut().push((Instant::now(), size));
                });
            if let Some(sink) = sink {
                let sink = sink.clone();
                service = service.customize(move |builder| {
                    let sink = sink.clone();
                    builder.fuzzer(move || {
                        Box::new(
                            TracedTool::detection(FuzzConfig::default(), 1)
                                .flushing_into(sink.clone()),
                        )
                    })
                });
            }
            let outcome = service.run().map_err(|e| e.to_string())?;
            if let Some(report) = outcome.report {
                break report;
            }
            if outcome.committed_this_run == 0 {
                return Err("a sweep chunk committed nothing".into());
            }
        };
        let commits = commits.borrow().clone();
        Ok(Chunked {
            report,
            commits,
            start,
        })
    }

    fn op(&self, done: &Chunked) -> Op {
        let mut prev = done.start;
        let intervals_ms = done
            .commits
            .iter()
            .map(|&(t, _)| {
                let ms = t.duration_since(prev).as_secs_f64() * 1e3;
                prev = t;
                ms
            })
            .collect();
        let mut op = report_op(&done.report);
        let reference = self.prepared.borrow().2.digest();
        if op.digest != reference {
            op.problems.push(format!(
                "chunked sweep digest {:016x} differs from the uninterrupted sweep's {reference:016x}",
                op.digest
            ));
        }
        Op { intervals_ms, ..op }
    }

    fn failed(&self, problem: String) -> Op {
        let jobs = self.prepared.borrow().1.job_count() as u64;
        Op {
            units: jobs,
            failed: jobs,
            problems: vec![problem],
            ..Op::default()
        }
    }
}

/// The `i`th sweep of the workload: all eleven profiles × [`SEEDS`] derived
/// seeds, detection stopping rule.
fn sweep_spec(base: u64, i: usize) -> SweepSpec {
    let targets = ProfileId::ALL.into_iter().chain(ProfileId::EXTENDED);
    let seeds = SweepSpec::derived_seeds(btcore::splitmix64(base.wrapping_add(i as u64)), SEEDS);
    SweepSpec::new(format!("l2bench-{i}"), targets, seeds).with_shard_size(SHARD_SIZE)
}

/// The operation output of a finished sweep.
fn report_op(report: &ServiceReport) -> Op {
    Op {
        digest: report.digest(),
        pkts: report.jobs.iter().map(|j| j.packets_sent).sum(),
        units: report.jobs.len() as u64,
        failed: report.failed_jobs() as u64,
        pkts_to_detect: report
            .jobs
            .iter()
            .filter(|j| j.vulnerable)
            .map(|j| j.packets_sent)
            .collect(),
        ..Op::default()
    }
}

impl Workload for SweepResume {
    /// The uninterrupted reference sweep of operation 0 ran while building
    /// the workload; it is the warm-up.
    fn warm_ups(&self) -> usize {
        1
    }

    fn warm_up(&self) -> Vec<Op> {
        vec![report_op(&self.prepared.borrow().2)]
    }

    /// Runs the uninterrupted, uncheckpointed reference of sweep `i`.
    fn prepare(&self, i: usize) {
        if self.prepared.borrow().0 != i {
            let spec = sweep_spec(self.base, i);
            let reference = uncheckpointed(&spec, self.workers).unwrap_or_else(|e| {
                panic!("reference sweep {i} failed: {e}");
            });
            *self.prepared.borrow_mut() = (i, spec, reference);
        }
    }

    fn run(&self, i: usize) -> Op {
        self.prepare(i);
        match self.chunked(None, false) {
            Ok(done) => self.op(&done),
            Err(e) => self.failed(e),
        }
    }

    fn run_traced(&self, i: usize, tally: &mut Tally, keep_traces: bool) -> (Op, Vec<Trace>) {
        self.prepare(i);
        let t0 = Instant::now();
        let sink = Arc::new(Mutex::new(Spans::default()));
        let done = match self.chunked(Some(&sink), true) {
            Ok(done) => done,
            Err(e) => return (self.failed(e), Vec::new()),
        };
        tally.rows_ns += ns(t0);
        tally.concurrent = true;
        tally.spans.add(&sink.lock());
        tally.ops += 1;
        tally.commits += done.commits.len() as u64;
        tally.commit_bytes += done.commits.iter().map(|c| c.1).sum::<u64>();
        tally.checkpoint_bytes += std::fs::metadata(&self.path).map_or(0, |m| m.len());
        let traces = if keep_traces {
            done.report
                .corpus
                .clusters()
                .iter()
                .map(|c| c.exemplar_trace.clone())
                .collect()
        } else {
            Vec::new()
        };
        (self.op(&done), traces)
    }

    /// Service-layer probes on the checkpoint the traced sweep left behind:
    /// load (`max_shards(0)`, no verification), load plus last-shard
    /// verification, a direct `Checkpoint::save`, and an uncheckpointed
    /// sweep for the persistence share.
    fn probe(&self, tally: &mut Tally) -> Result<(), String> {
        let (_, spec, reference) = &*self.prepared.borrow();
        let resume = |verify| -> Result<u64, String> {
            let t = Instant::now();
            SweepService::new(spec.clone())
                .checkpoint(&self.path)
                .verify(verify)
                .max_shards(0)
                .run()
                .map_err(|e| format!("resuming the finished checkpoint: {e}"))?;
            Ok(ns(t))
        };
        let load = resume(ResumeVerify::None)?;
        let load_and_verify = resume(ResumeVerify::LastShard)?;
        let checkpoint = Checkpoint::load(&self.path).map_err(|e| e.to_string())?;
        let copy = self.path.with_extension("copy.json");
        let t = Instant::now();
        checkpoint.save(&copy).map_err(|e| e.to_string())?;
        tally.save_ns += ns(t);
        let _ = std::fs::remove_file(&copy);
        let _ = std::fs::remove_file(&self.path);
        tally.load_ns += load;
        tally.verify_ns += load_and_verify.saturating_sub(load);
        tally.probes += 1;
        let t = Instant::now();
        let report = uncheckpointed(spec, self.workers)?;
        tally.uncheckpointed_ns += ns(t);
        if &report != reference {
            return Err("an uncheckpointed sweep did not replay its reference".into());
        }
        Ok(())
    }

    fn shape(&self) -> String {
        let (_, spec, _) = &*self.prepared.borrow();
        format!(
            "threads {}; closed loop: {} jobs ({} profiles x {SEEDS} seeds) in {SHARD_SIZE}-job shards, {} worker(s) plus the committer, stopped every {CHUNK_SHARDS} shards and resumed with last-shard verification, the next sweep starts when the previous one completed; op = sweep job (ops_per_s is jobs_per_s), op_ms_* is commit_ms_*, the interval between durable commits",
            self.workers + 1,
            spec.job_count(),
            spec.targets.len(),
            self.workers
        )
    }
}

/// Removes this process's checkpoint files, and their directory if no
/// other run is using it.
pub fn remove_checkpoints() {
    let prefix = format!("sweep-{}.", std::process::id());
    if let Ok(entries) = std::fs::read_dir(CHECKPOINT_DIR) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    let _ = std::fs::remove_dir(CHECKPOINT_DIR);
}
