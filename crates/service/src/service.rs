//! The sweep service: a worker pool draining the shard queue, with
//! in-order checkpoint commits and verifiable resume.
//!
//! Shards run on [`run_in_order`], the campaign API's worker pool: workers
//! claim shards from an atomic cursor and run them out of order, and the
//! committer (the calling thread) commits results strictly in shard order —
//! corpus insertion, one fsynced shard-log append, observer callback — so
//! the durable state after shard *k* is identical no matter how the pool
//! interleaved.  The snapshot is rewritten (compacted) only when a sweep
//! starts fresh and when it completes.  That in-order commit rule is what
//! makes "resume from the last completed shard" well-defined, and campaign
//! determinism is what makes it *verifiable*: re-running a committed shard
//! must reproduce its recorded job summaries bit for bit.

use std::path::PathBuf;
use std::time::Duration;

use btstack::DeviceProfile;
use l2fuzz::campaign::{run_in_order, Campaign, CampaignBuilder, CampaignPlan, TargetOutcome};
use l2fuzz::fuzzer::Fuzzer;
use l2fuzz::session::L2FuzzTool;
use l2fuzz::{FuzzConfig, TxBudget, WatchdogExpired};
use sniffer::StateCoverage;

use crate::checkpoint::{Checkpoint, JobOutcome, JobSummary, ShardRecord};
use crate::corpus::{ClusterKey, CorpusInsert, CorpusStore};
use crate::report::ServiceReport;
use crate::shard_log::{self, LogEntry, ShardLog};
use crate::spec::{JobSpec, SweepSpec};
use crate::ServiceError;

/// How much of a loaded checkpoint to re-prove before continuing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResumeVerify {
    /// Trust the checkpoint as written.
    None,
    /// Re-run the last committed shard and compare its job summaries (the
    /// default: catches a stale checkpoint at the cost of one shard).
    #[default]
    LastShard,
    /// Re-run every committed shard and compare its job summaries, then
    /// compare the corpus they rebuild with the loaded one (full proof;
    /// linear in committed work).
    All,
}

/// One finished job: the durable summary plus, for a crashing job, its
/// corpus insert (trace included).
struct JobResult {
    summary: JobSummary,
    crash: Option<CorpusInsert>,
}

/// A per-commit callback, invoked on the committing thread in shard order.
type CommitObserver = Box<dyn Fn(&ShardRecord)>;

/// A campaign-plan customization hook, applied while building the sweep's
/// plan — how chaos sweeps inject a [`l2fuzz::FaultPlan`] (and how the
/// resilience tests inject pathological fuzzers).  Must be deterministic:
/// the same builder in must yield the same plan out, or resume verification
/// will rightly reject the checkpoint.
type PlanHook = Box<dyn Fn(CampaignBuilder) -> CampaignBuilder + Send + Sync>;

/// What a finished (or deliberately stopped) run produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The final report — `Some` only when every shard has committed.
    pub report: Option<ServiceReport>,
    /// The checkpoint state at exit.
    pub checkpoint: Checkpoint,
    /// The first shard this run executed (0 for a fresh sweep).
    pub resumed_from: usize,
    /// Shards re-run and digest-matched during resume verification.
    pub verified_shards: Vec<usize>,
    /// Shards committed by this run.
    pub committed_this_run: usize,
}

impl SweepOutcome {
    /// `true` when the sweep ran to completion.
    pub fn is_complete(&self) -> bool {
        self.report.is_some()
    }
}

/// The long-running campaign service.
///
/// ```no_run
/// use btstack::ProfileId;
/// use service::{SweepService, SweepSpec};
///
/// let spec = SweepSpec::new("nightly", [ProfileId::D2], SweepSpec::derived_seeds(7, 16))
///     .with_budget(300)
///     .with_shard_size(4);
/// let outcome = SweepService::new(spec)
///     .workers(4)
///     .checkpoint("nightly.ckpt.json")
///     .run()
///     .unwrap();
/// println!("{}", outcome.report.unwrap().summary_line());
/// ```
pub struct SweepService {
    spec: SweepSpec,
    workers: usize,
    checkpoint_path: Option<PathBuf>,
    verify: ResumeVerify,
    max_shards: Option<usize>,
    max_job_failures: Option<usize>,
    on_commit: Option<CommitObserver>,
    customize: Option<PlanHook>,
}

impl SweepService {
    /// Creates a single-worker service with no checkpointing.
    pub fn new(spec: SweepSpec) -> Self {
        SweepService {
            spec,
            workers: 1,
            checkpoint_path: None,
            verify: ResumeVerify::default(),
            max_shards: None,
            max_job_failures: None,
            on_commit: None,
            customize: None,
        }
    }

    /// Sets the worker-pool size (clamped to at least one).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables checkpointing to `path`: a fresh sweep writes the snapshot
    /// there, every committed shard is appended (and fsynced) to the shard
    /// log beside it ([`Checkpoint::log_path`]), and a completed sweep
    /// compacts the log into the snapshot.  An existing snapshot is resumed
    /// from.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Sets the resume-verification policy (default:
    /// [`ResumeVerify::LastShard`]).
    pub fn verify(mut self, verify: ResumeVerify) -> Self {
        self.verify = verify;
        self
    }

    /// Commits at most `shards` shards in this run, then returns — the
    /// controlled stand-in for a kill, used by the resume tests and the
    /// CLI's `--max-shards`.
    pub fn max_shards(mut self, shards: usize) -> Self {
        self.max_shards = Some(shards);
        self
    }

    /// Installs a per-commit observer, called on the committing thread in
    /// shard order (progress reporting, metrics export).
    pub fn on_commit(mut self, f: impl Fn(&ShardRecord) + 'static) -> Self {
        self.on_commit = Some(Box::new(f));
        self
    }

    /// Stops the sweep (after committing the crossing shard) once more than
    /// `limit` jobs have been quarantined as failed or timed out.  The
    /// count is cumulative across resumes — it meters the checkpoint, not
    /// this run.  Default: unlimited (quarantine never aborts).
    pub fn max_job_failures(mut self, limit: usize) -> Self {
        self.max_job_failures = Some(limit);
        self
    }

    /// Installs a deterministic hook over the sweep's campaign builder —
    /// the seam for chaos sweeps ([`CampaignBuilder::faults`]) and custom
    /// fuzzers.  Applied after the spec's own settings, so it can override
    /// them.
    pub fn customize(
        mut self,
        f: impl Fn(CampaignBuilder) -> CampaignBuilder + Send + Sync + 'static,
    ) -> Self {
        self.customize = Some(Box::new(f));
        self
    }

    /// Runs (or resumes) the sweep.
    ///
    /// # Errors
    /// - [`ServiceError::Campaign`] when a job's campaign cannot run;
    /// - [`ServiceError::Io`]/[`ServiceError::Json`] on checkpoint
    ///   filesystem or parse failures, and the errors of
    ///   [`Checkpoint::load`] on a damaged checkpoint;
    /// - [`ServiceError::SpecMismatch`] when the checkpoint on disk belongs
    ///   to a different sweep definition;
    /// - [`ServiceError::VerifyFailed`] when a committed shard does not
    ///   reproduce what the checkpoint holds.
    pub fn run(&self) -> Result<SweepOutcome, ServiceError> {
        let plan = build_plan(&self.spec, self.customize.as_deref())?;
        let (mut checkpoint, log_len) = self.load_or_create()?;
        let resumed_from = checkpoint.completed_shards();
        let verified_shards = self.verify_resume(&plan, &checkpoint)?;

        let total = self.spec.shard_count();
        let end = match self.max_shards {
            Some(cap) => total.min(resumed_from + cap),
            None => total,
        };
        let pending: Vec<usize> = (resumed_from..end).collect();
        let mut log = match &self.checkpoint_path {
            Some(path) if !pending.is_empty() => Some(ShardLog::open(path, log_len)?),
            _ => None,
        };
        let committed_this_run = self.drain(&plan, &mut checkpoint, log.as_mut(), &pending)?;
        drop(log); // closed before a compaction removes it

        let complete = checkpoint.completed_shards() == total;
        if let Some(path) = self.checkpoint_path.as_ref().filter(|_| complete) {
            if Checkpoint::log_path(path).exists() {
                checkpoint.save(path)?;
            }
        }
        let report = complete.then(|| ServiceReport::from_checkpoint(&checkpoint));
        Ok(SweepOutcome {
            report,
            checkpoint,
            resumed_from,
            verified_shards,
            committed_this_run,
        })
    }

    /// Loads the checkpoint when its snapshot exists (validating its spec
    /// identity), returning it with the byte length of the shard log's
    /// whole records.  Otherwise starts fresh: removes any leftover log
    /// first, then writes a snapshot with nothing committed — so a log is
    /// never the only durable state.
    fn load_or_create(&self) -> Result<(Checkpoint, u64), ServiceError> {
        let fresh = Checkpoint::new(self.spec.clone());
        let Some(path) = &self.checkpoint_path else {
            return Ok((fresh, 0));
        };
        if !path.exists() {
            shard_log::remove_log(path)?;
            fresh.save(path)?;
            return Ok((fresh, 0));
        }
        let (checkpoint, log_len) = Checkpoint::recover(path)?;
        let expected = self.spec.digest();
        if checkpoint.spec_digest != expected || checkpoint.spec != self.spec {
            return Err(ServiceError::SpecMismatch {
                expected,
                found: checkpoint.spec_digest,
            });
        }
        Ok((checkpoint, log_len))
    }

    /// Re-runs committed shards per the verification policy and compares
    /// their job summaries, field by field, with the recorded ones; under
    /// [`ResumeVerify::All`] also compares the corpus the re-runs rebuild
    /// with the loaded corpus.
    fn verify_resume(
        &self,
        plan: &CampaignPlan,
        checkpoint: &Checkpoint,
    ) -> Result<Vec<usize>, ServiceError> {
        let committed = checkpoint.completed_shards();
        let shards: Vec<usize> = match self.verify {
            ResumeVerify::None => Vec::new(),
            ResumeVerify::LastShard => committed.checked_sub(1).into_iter().collect(),
            ResumeVerify::All => (0..committed).collect(),
        };
        let mut corpus = CorpusStore::new();
        for &shard in &shards {
            let results = run_shard(plan, &self.spec, shard);
            for (stored, rerun) in checkpoint.shards[shard].jobs.iter().zip(&results) {
                if *stored != rerun.summary {
                    let reason = format!(
                        "job {} re-ran to {}, the checkpoint holds {}",
                        stored.index,
                        serde_json::to_string(&rerun.summary),
                        serde_json::to_string(stored)
                    );
                    return Err(ServiceError::VerifyFailed { shard, reason });
                }
            }
            for insert in results.iter().filter_map(|r| r.crash.as_ref()) {
                insert.apply(&mut corpus);
            }
        }
        if self.verify == ResumeVerify::All && corpus != checkpoint.corpus {
            let (rebuilt, loaded) = (corpus.clusters(), checkpoint.corpus.clusters());
            let first = (0..rebuilt.len().max(loaded.len()))
                .find(|&i| rebuilt.get(i) != loaded.get(i))
                .unwrap_or(0);
            let job = rebuilt
                .get(first)
                .or(loaded.get(first))
                .map_or(0, |c| c.exemplar_job);
            return Err(ServiceError::VerifyFailed {
                shard: job / self.spec.shard_size,
                reason: format!("corpus cluster {first} differs from the one the re-runs rebuild"),
            });
        }
        Ok(shards)
    }

    /// Runs `pending` shards through the worker pool, committing in shard
    /// order; returns the number committed.  A commit error stops the
    /// drain; a `TooManyFailures` stop still leaves its crossing shard
    /// durable, because [`SweepService::commit`] appends before it meters.
    fn drain(
        &self,
        plan: &CampaignPlan,
        checkpoint: &mut Checkpoint,
        mut log: Option<&mut ShardLog>,
        pending: &[usize],
    ) -> Result<usize, ServiceError> {
        let spec = &self.spec;
        run_in_order(
            pending.len(),
            self.workers,
            // Infallible: job-level failures are quarantined into their
            // summaries, so a unit always carries the shard's full job list.
            |i| Ok(run_shard(plan, spec, pending[i])),
            |i, results| self.commit(checkpoint, log.as_deref_mut(), pending[i], results),
        )?;
        Ok(pending.len())
    }

    /// Commits one shard: corpus insertion in job order, the shard record,
    /// the fsynced shard-log append, and the observer — then meters the
    /// quarantine threshold, so the crossing shard is durable before the
    /// sweep stops.
    fn commit(
        &self,
        checkpoint: &mut Checkpoint,
        log: Option<&mut ShardLog>,
        shard: usize,
        results: Vec<JobResult>,
    ) -> Result<(), ServiceError> {
        let mut jobs = Vec::with_capacity(results.len());
        let mut corpus = Vec::new();
        for result in results {
            if let Some(mut insert) = result.crash {
                // Only the insert that opens a cluster keeps its trace.
                if !insert.apply(&mut checkpoint.corpus) {
                    insert.trace = None;
                }
                corpus.push(insert);
            }
            jobs.push(result.summary);
        }
        let record = ShardRecord {
            shard,
            digest: ShardRecord::digest_jobs(&jobs),
            jobs,
        };
        let entry = LogEntry { record, corpus };
        if let Some(log) = log {
            log.append(&entry)?;
        }
        checkpoint.shards.push(entry.record);
        if let (Some(observer), Some(record)) = (&self.on_commit, checkpoint.shards.last()) {
            observer(record);
        }
        if let Some(limit) = self.max_job_failures {
            let failed = checkpoint.failed_jobs();
            if failed > limit {
                return Err(ServiceError::TooManyFailures { limit, failed });
            }
        }
        Ok(())
    }
}

/// Builds the campaign plan a sweep runs its jobs against.  Detection mode
/// (no budget) keeps the campaign defaults: the fuzzer stops at the first
/// vulnerability and the out-of-band oracle turns the crash into a report
/// finding.  Budget mode switches to the comparison experiments' setup —
/// budget-driven fuzzer, auto-restarting devices so the whole budget burns
/// even across crashes (which also means crashes surface as crash dumps,
/// not findings).
fn build_plan(
    spec: &SweepSpec,
    customize: Option<&(dyn Fn(CampaignBuilder) -> CampaignBuilder + Send + Sync)>,
) -> Result<CampaignPlan, ServiceError> {
    let mut builder =
        Campaign::builder().targets(spec.targets.iter().map(|id| DeviceProfile::table5(*id)));
    if let Some(budget) = spec.budget_packets {
        builder = builder
            .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())) as Box<dyn Fuzzer>)
            .budget(TxBudget::packets(budget))
            .auto_restart(true);
    }
    if let Some(secs) = spec.watchdog_secs {
        builder = builder.watchdog(Duration::from_secs(secs));
    }
    if let Some(customize) = customize {
        builder = customize(builder);
    }
    builder.plan().map_err(ServiceError::Campaign)
}

/// Runs one shard's jobs serially, in job order.  Infallible: a job that
/// panics, times out or fails to connect is quarantined into its summary,
/// not bubbled up — one bad job never costs the shard.
fn run_shard(plan: &CampaignPlan, spec: &SweepSpec, shard: usize) -> Vec<JobResult> {
    spec.shard_jobs(shard)
        .map(|index| run_job(plan, spec.job(index)))
        .collect()
}

/// Runs one `(target, seed)` job and reduces its outcome to the durable
/// summary plus corpus data.  Worker panics are contained here: a watchdog
/// expiry becomes [`JobOutcome::TimedOut`], anything else
/// [`JobOutcome::Failed`] — in both cases with the reason recorded, and
/// reproducibly so (panics derive from the virtual clock and seeded
/// streams, which is what lets resume verification re-prove failed shards).
fn run_job(plan: &CampaignPlan, job: JobSpec) -> JobResult {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        plan.run_target(job.target_index, job.seed)
    }));
    match run {
        Ok(Ok(outcome)) => summarize(job, &outcome),
        Ok(Err(err)) => quarantined(job, JobOutcome::Failed, format!("campaign failed: {err}")),
        Err(payload) => {
            if let Some(expired) = payload.downcast_ref::<WatchdogExpired>() {
                quarantined(job, JobOutcome::TimedOut, expired.to_string())
            } else if let Some(msg) = payload.downcast_ref::<&'static str>() {
                quarantined(job, JobOutcome::Failed, format!("worker panicked: {msg}"))
            } else if let Some(msg) = payload.downcast_ref::<String>() {
                quarantined(job, JobOutcome::Failed, format!("worker panicked: {msg}"))
            } else {
                quarantined(job, JobOutcome::Failed, "worker panicked".to_owned())
            }
        }
    }
}

/// The summary of a job that did not complete: no report, no trace, the
/// failure reason pinned into the digests via [`ShardRecord::digest_jobs`].
fn quarantined(job: JobSpec, outcome: JobOutcome, failure: String) -> JobResult {
    JobResult {
        summary: JobSummary {
            index: job.index,
            target: job.target,
            seed: job.seed,
            vulnerable: false,
            findings: 0,
            packets_sent: 0,
            elapsed_secs: 0,
            report_digest: 0,
            trace_digest: 0,
            coverage_signature: 0,
            cluster: None,
            outcome,
            failure: Some(failure),
        },
        crash: None,
    }
}

/// Reduces a campaign outcome to a [`JobResult`].  Only virtual-clock and
/// seed-derived data lands in the summary, so it is reproducible.
fn summarize(job: JobSpec, outcome: &TargetOutcome) -> JobResult {
    let trace = outcome.merged_trace();
    let report_digest =
        crate::digest::digest_bytes(serde_json::to_string(&outcome.report).as_bytes());
    let trace_digest = crate::digest::trace_digest(&trace);
    // Computed for every job, not just crashing ones: the summary carries it
    // so the corpus store can rank clusters by novelty across the sweep.
    let coverage = StateCoverage::from_trace_on(&trace, outcome.report.target.link_type);

    let dumps = outcome.device.lock().crash_dumps().to_vec();
    let crash = if dumps.is_empty() {
        None
    } else {
        let key = ClusterKey {
            crash_digest: crate::digest::crash_dumps_digest(&dumps),
            coverage_signature: coverage.signature(),
        };
        let description = outcome
            .reports()
            .flat_map(|r| r.findings.first())
            .map(|f| f.evidence.description.clone())
            .next()
            .or_else(|| {
                dumps
                    .first()
                    .map(|dump| format!("{} in {}", dump.kind, dump.process))
            })
            .unwrap_or_else(|| "crash without findings or dumps".to_owned());
        Some(CorpusInsert {
            job: job.index,
            trace_digest,
            key,
            vuln_ids: dumps.iter().map(|d| d.vuln_id.clone()).collect(),
            description,
            trace: Some(trace.clone()),
        })
    };

    JobResult {
        summary: JobSummary {
            index: job.index,
            target: job.target,
            seed: job.seed,
            vulnerable: outcome.any_vulnerable() || crash.is_some(),
            findings: outcome.reports().map(|r| r.findings.len()).sum(),
            packets_sent: outcome.reports().map(|r| r.packets_sent).sum(),
            elapsed_secs: outcome.reports().map(|r| r.elapsed_secs).max().unwrap_or(0),
            report_digest,
            trace_digest,
            coverage_signature: coverage.signature(),
            cluster: crash.as_ref().map(|c| c.key),
            outcome: JobOutcome::Completed,
            failure: None,
        },
        crash,
    }
}
