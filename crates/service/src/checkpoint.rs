//! Checkpoints: the sweep's durable state.
//!
//! On disk a checkpoint is two files.  The *snapshot* is the whole
//! [`Checkpoint`] — spec, per-shard records (with digests) and the corpus —
//! streamed as pretty JSON through [`serde_json::JsonStreamWriter`].  The
//! *shard log* beside it ([`Checkpoint::log_path`]) gets one appended,
//! checksummed, fsynced record per committed shard: the shard record plus
//! the corpus inserts it made.  [`Checkpoint::save`] *compacts*: it writes
//! the snapshot to a sibling temp file, syncs it, renames it into place,
//! syncs the directory and only then removes the log.  A sweep compacts
//! when it starts fresh (with nothing committed) and when it completes.
//!
//! [`Checkpoint::load`] reads the snapshot through
//! [`serde_json::JsonStreamReader`], replays the log on top and checks
//! everything it can without re-running a job: shard order, each job's
//! identity against the spec and each shard's digest.  A killed sweep
//! continues from the first uncommitted shard; because campaigns are
//! deterministic, re-running any committed shard must reproduce its
//! recorded jobs, which is how a resume is *verified* rather than trusted.
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use serde_json::Error;

use crate::corpus::{ClusterKey, CorpusStore};
use crate::digest::Fnv64;
use crate::shard_log::{self, io_error, LogEntry};
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

    /// The shard log beside the snapshot at `path`: its file name with
    /// `.log` appended.
    pub fn log_path(path: &Path) -> PathBuf {
        let mut log = path.as_os_str().to_owned();
        log.push(".log");
        log.into()
    }

    /// Compacts the checkpoint into a snapshot at `path`: the JSON lands in
    /// a sibling `*.tmp` file, is synced and renamed into place, the
    /// directory is synced, and only then is the shard log removed — so a
    /// kill or power loss at any point leaves a loadable checkpoint.
    ///
    /// # Errors
    /// Returns [`ServiceError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), ServiceError> {
        let tmp = path.with_extension("tmp");
        std::fs::File::create(&tmp)
            .and_then(|mut file| {
                file.write_all(self.to_json().as_bytes())?;
                file.write_all(b"\n")?;
                file.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(io_error(path))?;
        shard_log::sync_dir(path)?;
        shard_log::remove_log(path)
    }

    /// Loads the checkpoint at `path`: the snapshot, with the shard log
    /// replayed on top.
    ///
    /// # Errors
    /// - [`ServiceError::Io`] on filesystem failures;
    /// - [`ServiceError::Json`] on a malformed snapshot;
    /// - [`ServiceError::InvalidShard`] when a snapshot shard is out of
    ///   order, holds jobs its spec does not put there, or does not match
    ///   its own digest;
    /// - [`ServiceError::BadLogRecord`] when a log record before the tail
    ///   is damaged, fails those same checks, or contradicts the snapshot.
    pub fn load(path: &Path) -> Result<Checkpoint, ServiceError> {
        Checkpoint::recover(path).map(|(checkpoint, _)| checkpoint)
    }

    /// [`Checkpoint::load`], also returning the byte length of the log's
    /// whole records — where the next append goes, past any torn tail.
    pub(crate) fn recover(path: &Path) -> Result<(Checkpoint, u64), ServiceError> {
        let json = std::fs::read_to_string(path).map_err(io_error(path))?;
        let mut checkpoint = Checkpoint::from_json(&json).map_err(|source| ServiceError::Json {
            path: path.display().to_string(),
            source,
        })?;
        for (shard, record) in checkpoint.shards.iter().enumerate() {
            check_shard(&checkpoint.spec, shard, record).map_err(|reason| {
                ServiceError::InvalidShard {
                    path: path.display().to_string(),
                    shard,
                    reason,
                }
            })?;
        }

        let log = Checkpoint::log_path(path);
        let bytes = match std::fs::read(&log) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok((checkpoint, 0)),
            Err(err) => return Err(io_error(&log)(err)),
        };
        let bad = |record, reason| ServiceError::BadLogRecord {
            path: log.display().to_string(),
            record,
            reason,
        };
        let (entries, len) = shard_log::read_log(&bytes).map_err(|(i, why)| bad(i, why))?;
        for (i, entry) in entries.into_iter().enumerate() {
            checkpoint.replay(entry).map_err(|why| bad(i, why))?;
        }
        Ok((checkpoint, len as u64))
    }

    /// Applies one log record.  A record for a shard the checkpoint already
    /// holds — a kill between a compaction's rename and its log removal —
    /// must equal the held one and is skipped.
    fn replay(&mut self, entry: LogEntry) -> Result<(), String> {
        let LogEntry { record, corpus } = entry;
        let shard = record.shard;
        if let Some(held) = self.shards.get(shard) {
            return if *held == record {
                Ok(())
            } else {
                Err(format!("shard {shard} differs from the snapshot's"))
            };
        }
        check_shard(&self.spec, self.shards.len(), &record)
            .map_err(|why| format!("shard {} {why}", self.shards.len()))?;
        let crashed = record
            .jobs
            .iter()
            .filter_map(|j| Some((j.index, j.trace_digest, j.cluster?)));
        if !crashed.eq(corpus.iter().map(|c| (c.job, c.trace_digest, c.key))) {
            return Err(format!(
                "shard {shard}'s corpus inserts do not match its crashed jobs"
            ));
        }
        for insert in &corpus {
            if insert.apply(&mut self.corpus) != insert.trace.is_some() {
                return Err(format!(
                    "job {}: a trace must come with exactly the insert that opens its cluster",
                    insert.job
                ));
            }
        }
        self.shards.push(record);
        Ok(())
    }
}

/// Checks what a committed shard must satisfy without re-running it: it
/// sits at position `shard`, holds exactly the jobs `spec` puts there (index,
/// target and seed), and its stored digest is its jobs' digest.
fn check_shard(spec: &SweepSpec, shard: usize, record: &ShardRecord) -> Result<(), String> {
    if record.shard != shard {
        return Err(format!("holds the record of shard {}", record.shard));
    }
    let job_count = spec.job_count();
    let start = shard.saturating_mul(spec.shard_size);
    let expected = start..start.saturating_add(spec.shard_size).min(job_count);
    if expected.is_empty() {
        return Err(format!("lies beyond the spec's {job_count} jobs"));
    }
    if record.jobs.len() != expected.len() {
        return Err(format!(
            "holds {} jobs, the spec puts {} in it",
            record.jobs.len(),
            expected.len()
        ));
    }
    for (job, index) in record.jobs.iter().zip(expected) {
        let want = spec.job(index);
        if (job.index, job.target, job.seed) != (index, want.target, want.seed) {
            return Err(format!(
                "holds job {} ({}, seed {:#x}) where the spec has job {index} ({}, seed {:#x})",
                job.index, job.target, job.seed, want.target, want.seed
            ));
        }
    }
    let digest = ShardRecord::digest_jobs(&record.jobs);
    if digest != record.digest {
        return Err(format!(
            "stores digest {:016x}, its jobs digest to {digest:016x}",
            record.digest
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusInsert;
    use crate::shard_log::ShardLog;

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

    /// A fresh scratch directory for one test, removed when dropped.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(test: &str) -> Self {
            let dir = std::env::temp_dir()
                .join("l2fuzz-service-ckpt-test")
                .join(format!("{test}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn checkpoint(&self) -> PathBuf {
            self.0.join("checkpoint.json")
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// The sample's two jobs as two one-job shards, committed through the
    /// log: the expected checkpoint and the log entries that build it.
    fn logged() -> (Checkpoint, Vec<LogEntry>) {
        let mut jobs = sample().shards.remove(0).jobs;
        let spec = SweepSpec::new("unit", [ProfileId::D2], [1, 2]).with_shard_size(1);
        let quarantined = jobs.pop().unwrap();
        let crashed = jobs.pop().unwrap();
        let insert = CorpusInsert {
            job: crashed.index,
            trace_digest: crashed.trace_digest,
            key: crashed.cluster.unwrap(),
            vuln_ids: vec!["V1".to_owned()],
            description: "DoS".to_owned(),
            trace: Some(sniffer::Trace::new()),
        };
        let entries: Vec<LogEntry> = [(vec![crashed], vec![insert]), (vec![quarantined], vec![])]
            .into_iter()
            .enumerate()
            .map(|(shard, (jobs, corpus))| LogEntry {
                record: ShardRecord {
                    shard,
                    digest: ShardRecord::digest_jobs(&jobs),
                    jobs,
                },
                corpus,
            })
            .collect();
        let mut expected = Checkpoint::new(spec);
        for entry in &entries {
            for insert in &entry.corpus {
                insert.apply(&mut expected.corpus);
            }
            expected.shards.push(entry.record.clone());
        }
        (expected, entries)
    }

    /// Writes an empty snapshot at `path` and `entries` to its log;
    /// returns the byte offset at which each record starts.
    fn write_logged(path: &Path, spec: &SweepSpec, entries: &[LogEntry]) -> Vec<u64> {
        Checkpoint::new(spec.clone()).save(path).unwrap();
        let mut log = ShardLog::open(path, 0).unwrap();
        let log_path = Checkpoint::log_path(path);
        let mut starts = Vec::new();
        for entry in entries {
            starts.push(std::fs::metadata(&log_path).unwrap().len());
            log.append(entry).unwrap();
        }
        starts
    }

    #[test]
    fn save_is_atomic_and_reloadable() {
        let dir = Scratch::new("save");
        let path = dir.checkpoint();
        let cp = sample();
        cp.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
    }

    #[test]
    fn load_replays_the_log_over_the_snapshot() {
        let dir = Scratch::new("replay");
        let path = dir.checkpoint();
        let (expected, entries) = logged();
        write_logged(&path, &expected.spec, &entries);
        let log_len = std::fs::metadata(Checkpoint::log_path(&path))
            .unwrap()
            .len();
        let (loaded, len) = Checkpoint::recover(&path).unwrap();
        assert_eq!(loaded, expected);
        assert_eq!(len, log_len);

        // Compaction folds the log into the snapshot and removes it.
        loaded.save(&path).unwrap();
        assert!(!Checkpoint::log_path(&path).exists());
        assert_eq!(Checkpoint::recover(&path).unwrap(), (expected, 0));
    }

    #[test]
    fn a_torn_tail_record_is_dropped_at_every_byte_offset() {
        let dir = Scratch::new("torn");
        let path = dir.checkpoint();
        let (expected, entries) = logged();
        let starts = write_logged(&path, &expected.spec, &entries);
        let log_path = Checkpoint::log_path(&path);
        let whole = std::fs::read(&log_path).unwrap();
        let mut one_shard = expected.clone();
        one_shard.shards.pop();
        for cut in starts[1]..whole.len() as u64 {
            std::fs::write(&log_path, &whole[..cut as usize]).unwrap();
            let (loaded, len) = Checkpoint::recover(&path).unwrap();
            assert_eq!(loaded, one_shard, "cut at byte {cut}");
            assert_eq!(len, starts[1], "cut at byte {cut}");
        }
        // A power loss may leave the tail zero-filled instead.
        let mut zeroed = whole.clone();
        zeroed[starts[1] as usize..].fill(0);
        std::fs::write(&log_path, &zeroed).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), one_shard);
        // So may a last record whose payload never reached the disk.
        let mut unsynced = whole.clone();
        *unsynced.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&log_path, &unsynced).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), one_shard);
    }

    #[test]
    fn a_damaged_earlier_record_is_an_error_naming_it() {
        let dir = Scratch::new("damaged");
        let path = dir.checkpoint();
        let (expected, entries) = logged();
        let starts = write_logged(&path, &expected.spec, &entries);
        let log_path = Checkpoint::log_path(&path);
        let whole = std::fs::read(&log_path).unwrap();
        for byte in 0..starts[1] as usize {
            let mut damaged = whole.clone();
            damaged[byte] ^= 0x01;
            std::fs::write(&log_path, &damaged).unwrap();
            match Checkpoint::load(&path) {
                Err(ServiceError::BadLogRecord { record: 0, .. }) => {}
                other => panic!("byte {byte}: expected a bad record 0, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_kill_mid_compaction_loads_the_same_checkpoint() {
        let dir = Scratch::new("compaction");
        let path = dir.checkpoint();
        let (expected, entries) = logged();
        write_logged(&path, &expected.spec, &entries);
        let log_path = Checkpoint::log_path(&path);
        let old_log = std::fs::read(&log_path).unwrap();
        // The new snapshot landed, the old log was not yet removed.
        expected.save(&path).unwrap();
        std::fs::write(&log_path, &old_log).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), expected);

        // A held record that differs from the snapshot's is an error.
        let mut stale = expected.clone();
        stale.shards[1].jobs[0].failure = Some("other reason".to_owned());
        stale.shards[1].digest = ShardRecord::digest_jobs(&stale.shards[1].jobs);
        stale.save(&path).unwrap();
        std::fs::write(&log_path, &old_log).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(ServiceError::BadLogRecord { record: 1, .. })
        ));
    }

    #[test]
    fn load_rejects_shards_that_contradict_their_digest_order_or_spec() {
        let dir = Scratch::new("invalid");
        let path = dir.checkpoint();
        let (expected, _) = logged();
        let rejects = |cp: &Checkpoint, at: usize| {
            cp.save(&path).unwrap();
            match Checkpoint::load(&path) {
                Err(ServiceError::InvalidShard { shard, .. }) if shard == at => {}
                other => panic!("expected shard {at} to be invalid, got {other:?}"),
            }
        };
        let rehash = |cp: &mut Checkpoint| {
            for shard in &mut cp.shards {
                shard.digest = ShardRecord::digest_jobs(&shard.jobs);
            }
        };

        let mut digest = expected.clone();
        digest.shards[1].digest ^= 1;
        rejects(&digest, 1);

        let mut gap = expected.clone();
        gap.shards.remove(0);
        rejects(&gap, 0);

        let mut seed = expected.clone();
        seed.shards[1].jobs[0].seed = 7;
        rehash(&mut seed);
        rejects(&seed, 1);

        let mut target = expected.clone();
        target.shards[0].jobs[0].target = ProfileId::D4;
        rehash(&mut target);
        rejects(&target, 0);

        let mut index = expected.clone();
        index.shards[1].jobs[0].index = 0;
        rehash(&mut index);
        rejects(&index, 1);

        let mut beyond = expected;
        let mut extra = beyond.shards[1].clone();
        extra.shard = 2;
        beyond.shards.push(extra);
        rejects(&beyond, 2);
    }
}
