//! Fleet-scale campaign service: checkpointable, resumable fuzzing sweeps.
//!
//! [`SweepService`] turns a [`SweepSpec`] — the cross product of device
//! profiles and campaign seeds, cut into shards — into a worker pool that
//! drains the job queue and commits results **in shard order**.  With a
//! [`Checkpoint`] file, each commit appends one checksummed record to a
//! shard log beside the streamed-JSON snapshot and fsyncs it; the snapshot
//! itself is rewritten only when the log is compacted, at the sweep's start
//! and end.  Because campaigns are bit-for-bit deterministic, a killed sweep
//! does not merely *resume* from the last committed shard: the resume is
//! *verified* by re-running committed shards and comparing their job
//! summaries with the recorded ones ([`ResumeVerify`]).  Finished
//! crashing jobs are clustered in a [`CorpusStore`] keyed by crash-dump
//! identity × state-coverage signature, so a thousand jobs tripping the
//! same seeded vulnerability collapse into one cluster with an exemplar
//! trace.
//!
//! The `l2fuzz-service` binary wraps all of this for operators; see the
//! repository README's "Operating a sweep" section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod corpus;
pub mod digest;
pub mod report;
pub mod service;
mod shard_log;
pub mod spec;

use std::fmt;

use l2fuzz::campaign::CampaignError;

pub use checkpoint::{Checkpoint, JobOutcome, JobSummary, ShardRecord};
pub use corpus::{ClusterKey, CorpusStore, CrashCluster};
pub use report::ServiceReport;
pub use service::{ResumeVerify, SweepOutcome, SweepService};
pub use spec::{JobSpec, SweepSpec};

/// Everything that can go wrong while running a sweep.
#[derive(Debug)]
pub enum ServiceError {
    /// A job's campaign failed to build or run.
    Campaign(CampaignError),
    /// A checkpoint file could not be read or written.
    Io {
        /// The checkpoint path involved.
        path: String,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
    /// A checkpoint file exists but does not parse.
    Json {
        /// The checkpoint path involved.
        path: String,
        /// The underlying parse error.
        source: serde_json::Error,
    },
    /// The checkpoint on disk belongs to a different sweep definition.
    SpecMismatch {
        /// Digest of the spec this service was configured with.
        expected: u64,
        /// Digest recorded in the checkpoint.
        found: u64,
    },
    /// A checkpoint snapshot parses, but one of its shards is out of
    /// order, holds jobs its spec does not put there, or does not match its
    /// own digest.
    InvalidShard {
        /// The snapshot path involved.
        path: String,
        /// Position of the offending shard.
        shard: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// A shard-log record before the log's torn tail (if any) is damaged,
    /// fails the checks of [`ServiceError::InvalidShard`], or contradicts
    /// the snapshot.
    BadLogRecord {
        /// The log path involved.
        path: String,
        /// Position of the offending record (0-based).
        record: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// Resume verification re-ran committed shards and they did not
    /// reproduce what the checkpoint holds — it cannot be trusted.
    VerifyFailed {
        /// The shard that failed to reproduce.
        shard: usize,
        /// The first difference found.
        reason: String,
    },
    /// The quarantine threshold tripped: more jobs failed or timed out than
    /// the service's `max_job_failures` allows.  Everything committed so
    /// far (including the shard that crossed the threshold) is durable in
    /// the checkpoint; re-run with a higher threshold to continue.
    TooManyFailures {
        /// The configured threshold.
        limit: usize,
        /// Quarantined jobs committed so far.
        failed: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Campaign(err) => write!(f, "campaign failed: {err}"),
            ServiceError::Io { path, source } => {
                write!(f, "checkpoint I/O failed for `{path}`: {source}")
            }
            ServiceError::Json { path, source } => {
                write!(f, "checkpoint `{path}` is malformed: {source}")
            }
            ServiceError::SpecMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different sweep \
                 (spec digest {found:016x}, expected {expected:016x})"
            ),
            ServiceError::InvalidShard {
                path,
                shard,
                reason,
            } => write!(f, "checkpoint `{path}` is invalid: shard {shard} {reason}"),
            ServiceError::BadLogRecord {
                path,
                record,
                reason,
            } => write!(
                f,
                "shard log `{path}` is damaged at record {record}: {reason}"
            ),
            ServiceError::VerifyFailed { shard, reason } => {
                write!(f, "resume verification failed: shard {shard}: {reason}")
            }
            ServiceError::TooManyFailures { limit, failed } => write!(
                f,
                "sweep stopped: {failed} job(s) quarantined, exceeding the \
                 --max-job-failures threshold of {limit}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Campaign(err) => Some(err),
            ServiceError::Io { source, .. } => Some(source),
            ServiceError::Json { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CampaignError> for ServiceError {
    fn from(err: CampaignError) -> Self {
        ServiceError::Campaign(err)
    }
}
