//! Checkpoints: the sweep's durable state, streamed as JSON.
//!
//! After every committed shard the service rewrites the checkpoint file —
//! spec, per-shard records (with digests), and the corpus so far — through
//! [`serde_json::JsonStreamWriter`], atomically (write to a sibling temp
//! file, then rename).  A killed sweep reloads the file through
//! [`serde_json::JsonStreamReader`] and continues from the first
//! uncommitted shard; because campaigns are deterministic, re-running any
//! committed shard must reproduce its recorded digest, which is how a
//! resume is *verified* rather than trusted.

use std::path::Path;

use serde::{Deserialize, Serialize};
use serde_json::Error;

use crate::corpus::{ClusterKey, CorpusStore};
use crate::digest::Fnv64;
use crate::spec::SweepSpec;
use crate::ServiceError;
use btstack::ProfileId;

/// How one job ended.
///
/// A failed or timed-out job is *quarantined*, not fatal: its summary (with
/// the failure reason) lands in the checkpoint like any other job's, the
/// shard commits, and the sweep moves on.  Because panics and watchdog
/// expiries derive from the virtual clock and the seeded streams, a
/// quarantined job reproduces its outcome on re-run — which is what keeps
/// resume verification meaningful for shards containing failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// The campaign ran to its normal end (vulnerable or not).
    Completed,
    /// The job's worker panicked or its campaign failed; see
    /// [`JobSummary::failure`].
    Failed,
    /// The job's per-link virtual-time watchdog expired.
    TimedOut,
}

impl JobOutcome {
    /// Stable tag for digesting (the enum's wire identity).
    fn digest_tag(self) -> u64 {
        match self {
            JobOutcome::Completed => 0,
            JobOutcome::Failed => 1,
            JobOutcome::TimedOut => 2,
        }
    }
}

/// What one finished job boiled down to.  Everything here derives from the
/// virtual clock and the seeded RNG streams — no wall-clock anywhere — so
/// two runs of the same job produce identical summaries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSummary {
    /// Sweep-wide job index (target-major).
    pub index: usize,
    /// The target profile.
    pub target: ProfileId,
    /// The campaign seed the job ran under.
    pub seed: u64,
    /// Whether the job surfaced a vulnerability — a detection finding in
    /// some initiator's report, or a crash dump on the target.
    pub vulnerable: bool,
    /// Number of findings in the job's report.
    pub findings: usize,
    /// Packets the job transmitted.
    pub packets_sent: u64,
    /// Virtual elapsed seconds.
    pub elapsed_secs: u64,
    /// FNV-1a digest of the job's compact streamed report.
    pub report_digest: u64,
    /// FNV-1a digest of the job's merged trace.
    pub trace_digest: u64,
    /// State-coverage bitmask of the job's merged trace
    /// ([`sniffer::StateCoverage::signature`]); zero for quarantined jobs.
    /// Feeds the corpus store's novelty ranking, and deliberately stays out
    /// of the shard digest so pre-existing checkpoints keep verifying.
    pub coverage_signature: u32,
    /// The corpus cluster this job joined, when it crashed the target.
    pub cluster: Option<ClusterKey>,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Why the job failed or timed out (`None` for completed jobs).
    pub failure: Option<String>,
}

/// One committed shard: its jobs plus the digest that pins them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRecord {
    /// Shard index (commits are contiguous from zero).
    pub shard: usize,
    /// Digest over the member jobs' report and trace digests, in job order.
    pub digest: u64,
    /// The member job summaries, ascending by index.
    pub jobs: Vec<JobSummary>,
}

impl ShardRecord {
    /// Computes the shard digest for a job list.  Quarantined jobs pin
    /// their outcome and failure reason instead of report/trace content, so
    /// a resume re-running the shard must reproduce the same failure.
    pub fn digest_jobs(jobs: &[JobSummary]) -> u64 {
        let mut h = Fnv64::new();
        for job in jobs {
            h.write_u64(job.report_digest);
            h.write_u64(job.trace_digest);
            h.write_u64(job.outcome.digest_tag());
            if let Some(failure) = &job.failure {
                h.write_str(failure);
            }
        }
        h.finish()
    }
}

/// The sweep's durable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The sweep definition this checkpoint belongs to.
    pub spec: SweepSpec,
    /// [`SweepSpec::digest`] at creation — resume validates it.
    pub spec_digest: u64,
    /// Committed shards, contiguous from zero.
    pub shards: Vec<ShardRecord>,
    /// The corpus accumulated over the committed shards.
    pub corpus: CorpusStore,
}

impl Checkpoint {
    /// A fresh checkpoint with nothing committed.
    pub fn new(spec: SweepSpec) -> Self {
        let spec_digest = spec.digest();
        Checkpoint {
            spec,
            spec_digest,
            shards: Vec::new(),
            corpus: CorpusStore::new(),
        }
    }

    /// Number of committed shards (commits are contiguous, so this is also
    /// the first shard a resume runs).
    pub fn completed_shards(&self) -> usize {
        self.shards.len()
    }

    /// All committed job summaries, in job order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobSummary> {
        self.shards.iter().flat_map(|s| s.jobs.iter())
    }

    /// Number of committed jobs that did not complete (quarantined panics
    /// and watchdog timeouts) — what `--max-job-failures` meters.
    pub fn failed_jobs(&self) -> usize {
        self.jobs()
            .filter(|j| j.outcome != JobOutcome::Completed)
            .count()
    }

    /// Serializes the checkpoint (pretty, streamed).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
    }

    /// Parses a checkpoint back through the streaming reader.
    ///
    /// # Errors
    /// Returns a `serde_json::Error` on malformed input.
    pub fn from_json(json: &str) -> Result<Checkpoint, Error> {
        serde_json::from_str(json)
    }

    /// Atomically writes the checkpoint to `path`: the JSON lands in a
    /// sibling `*.tmp` file first and is renamed into place, so a kill
    /// mid-write leaves the previous checkpoint intact.
    ///
    /// # Errors
    /// Returns [`ServiceError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), ServiceError> {
        let tmp = path.with_extension("tmp");
        let io_err = |source| ServiceError::Io {
            path: path.display().to_string(),
            source,
        };
        std::fs::write(&tmp, self.to_json() + "\n").map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)
    }

    /// Loads a checkpoint from `path`.
    ///
    /// # Errors
    /// Returns [`ServiceError::Io`] on filesystem failures and
    /// [`ServiceError::Json`] on malformed content.
    pub fn load(path: &Path) -> Result<Checkpoint, ServiceError> {
        let json = std::fs::read_to_string(path).map_err(|source| ServiceError::Io {
            path: path.display().to_string(),
            source,
        })?;
        Checkpoint::from_json(&json).map_err(|source| ServiceError::Json {
            path: path.display().to_string(),
            source,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let spec = SweepSpec::new("unit", [ProfileId::D2], [1, 2]).with_shard_size(2);
        let mut cp = Checkpoint::new(spec);
        let job = JobSummary {
            index: 0,
            target: ProfileId::D2,
            seed: 1,
            vulnerable: true,
            findings: 1,
            packets_sent: 42,
            elapsed_secs: 7,
            report_digest: 0xDEAD,
            trace_digest: 0xBEEF,
            coverage_signature: 3,
            cluster: Some(ClusterKey {
                crash_digest: 9,
                coverage_signature: 3,
            }),
            outcome: JobOutcome::Completed,
            failure: None,
        };
        let quarantined = JobSummary {
            index: 1,
            target: ProfileId::D2,
            seed: 2,
            vulnerable: false,
            findings: 0,
            packets_sent: 0,
            elapsed_secs: 0,
            report_digest: 0,
            trace_digest: 0,
            coverage_signature: 0,
            cluster: None,
            outcome: JobOutcome::TimedOut,
            failure: Some("watchdog expired".to_owned()),
        };
        cp.shards.push(ShardRecord {
            shard: 0,
            digest: ShardRecord::digest_jobs(&[job.clone(), quarantined.clone()]),
            jobs: vec![job, quarantined],
        });
        cp
    }

    #[test]
    fn checkpoint_round_trips_byte_identically() {
        let cp = sample();
        let json = cp.to_json();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn quarantined_jobs_pin_their_outcome_in_the_shard_digest() {
        let cp = sample();
        assert_eq!(cp.failed_jobs(), 1);
        let mut jobs = cp.shards[0].jobs.clone();
        let recorded = ShardRecord::digest_jobs(&jobs);
        jobs[1].outcome = JobOutcome::Failed;
        assert_ne!(recorded, ShardRecord::digest_jobs(&jobs));
        jobs[1].outcome = JobOutcome::TimedOut;
        jobs[1].failure = Some("different reason".to_owned());
        assert_ne!(recorded, ShardRecord::digest_jobs(&jobs));
    }

    #[test]
    fn save_is_atomic_and_reloadable() {
        let dir = std::env::temp_dir().join("l2fuzz-service-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.json");
        let cp = sample();
        cp.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
