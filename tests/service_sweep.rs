//! Fleet-service guarantees: a sweep killed mid-flight resumes from its
//! checkpoint to the **byte-identical** final report an uninterrupted run
//! produces; the resume is *verified* (re-running a committed shard must
//! reproduce its recorded jobs); a torn or stale shard log costs nothing
//! but re-run shards; and same-vulnerability jobs collapse into one corpus
//! cluster with an exemplar trace.

use std::path::PathBuf;

use l2fuzz_repro::btcore::Identifier;
use l2fuzz_repro::btstack::profiles::ProfileId;
use l2fuzz_repro::l2cap::command::{Command, EchoRequest};
use l2fuzz_repro::l2cap::packet::signaling_frame_in;
use l2fuzz_repro::l2fuzz::{FuzzConfig, FuzzCtx, FuzzReport, Fuzzer, L2FuzzTool};
use l2fuzz_repro::service::{
    Checkpoint, JobOutcome, ResumeVerify, ServiceError, SweepService, SweepSpec,
};
use l2fuzz_repro::sniffer::TraceAnalysis;

/// A fresh scratch path under the target-adjacent temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("l2fuzz-service-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.json", std::process::id()))
}

/// The reference sweep: two vulnerable-device targets' worth of jobs in
/// five shards, budget-driven so every job burns the same packet count.
fn spec(name: &str) -> SweepSpec {
    SweepSpec::new(
        name,
        [ProfileId::D2, ProfileId::D4],
        SweepSpec::derived_seeds(0xF1EE7, 5),
    )
    .with_budget(2000)
    .with_shard_size(2)
}

#[test]
fn interrupted_sweep_resumes_to_the_byte_identical_report() {
    // The uninterrupted reference run (no checkpoint file at all).
    let reference = SweepService::new(spec("pin"))
        .workers(3)
        .run()
        .expect("reference sweep runs")
        .report
        .expect("reference sweep completes");

    // The same sweep, killed after every single shard commit: run with
    // `max_shards(1)` until done, a fresh service instance per invocation —
    // exactly what repeated crash-and-restart looks like to the checkpoint.
    let path = scratch("resume");
    let _ = std::fs::remove_file(&path);
    let mut resumed = None;
    for invocation in 0.. {
        assert!(
            invocation <= spec("pin").shard_count(),
            "sweep never finished"
        );
        let outcome = SweepService::new(spec("pin"))
            .workers(3)
            .checkpoint(&path)
            .verify(ResumeVerify::LastShard)
            .max_shards(1)
            .run()
            .expect("partial sweep runs");
        assert_eq!(outcome.resumed_from, invocation);
        if invocation > 0 {
            assert_eq!(
                outcome.verified_shards,
                vec![invocation - 1],
                "resume must re-prove the last committed shard"
            );
        }
        if let Some(report) = outcome.report {
            resumed = Some(report);
            break;
        }
        assert_eq!(outcome.committed_this_run, 1);
    }
    let resumed = resumed.expect("sweep completed");

    // The acceptance pin: byte-identical report JSON, equal digests.
    assert_eq!(resumed.to_json(), reference.to_json());
    assert_eq!(resumed.digest(), reference.digest());

    std::fs::remove_file(&path).ok();
}

#[test]
fn full_verification_accepts_a_clean_checkpoint_and_spec_mismatch_is_rejected() {
    let path = scratch("verify");
    let _ = std::fs::remove_file(&path);

    // Commit three shards, stop.
    SweepService::new(spec("verify"))
        .workers(2)
        .checkpoint(&path)
        .max_shards(3)
        .run()
        .expect("partial sweep runs");

    // Resuming under `All` re-runs all three committed shards and accepts.
    let outcome = SweepService::new(spec("verify"))
        .workers(2)
        .checkpoint(&path)
        .verify(ResumeVerify::All)
        .run()
        .expect("verified resume runs");
    assert_eq!(outcome.resumed_from, 3);
    assert_eq!(outcome.verified_shards, vec![0, 1, 2]);
    assert!(outcome.is_complete());

    // A different sweep definition must refuse the checkpoint outright.
    let err = SweepService::new(spec("verify").with_budget(999))
        .checkpoint(&path)
        .run()
        .expect_err("mismatched spec must be rejected");
    assert!(
        matches!(err, ServiceError::SpecMismatch { .. }),
        "got {err}"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn tampered_checkpoint_fails_resume_verification() {
    let path = scratch("tamper");
    let _ = std::fs::remove_file(&path);

    SweepService::new(spec("tamper"))
        .workers(2)
        .checkpoint(&path)
        .max_shards(2)
        .run()
        .expect("partial sweep runs");

    // Corrupt the last committed shard's pinned digests (keeping the JSON
    // well-formed): the resume must notice the re-run diverges.
    let mut checkpoint = Checkpoint::load(&path).expect("checkpoint loads");
    let last = checkpoint.shards.last_mut().expect("two shards committed");
    last.jobs[0].trace_digest ^= 1;
    last.digest = l2fuzz_repro::service::ShardRecord::digest_jobs(&last.jobs);
    checkpoint.save(&path).expect("tampered checkpoint saves");

    let err = SweepService::new(spec("tamper"))
        .workers(2)
        .checkpoint(&path)
        .verify(ResumeVerify::LastShard)
        .run()
        .expect_err("tampered checkpoint must fail verification");
    assert!(
        matches!(err, ServiceError::VerifyFailed { shard: 1, .. }),
        "got {err}"
    );

    std::fs::remove_file(&path).ok();
}

/// The operator repro of a tampered summary: `l2fuzz-service --targets
/// D2,D4 --seeds 3 --budget 500 --shard-size 1`.
fn cli_spec() -> SweepSpec {
    SweepSpec::new(
        "sweep",
        [ProfileId::D2, ProfileId::D4],
        SweepSpec::derived_seeds(1337, 3),
    )
    .with_budget(500)
    .with_shard_size(1)
}

#[test]
fn a_tampered_summary_fails_full_verification() {
    let path = scratch("summary");
    let _ = std::fs::remove_file(&path);
    SweepService::new(cli_spec())
        .checkpoint(&path)
        .run()
        .expect("sweep runs");

    // The shard digest does not cover these fields, so load accepts the
    // edit; re-running the shard must not.
    let mut checkpoint = Checkpoint::load(&path).expect("checkpoint loads");
    let job = &mut checkpoint.shards[0].jobs[0];
    assert!(!job.vulnerable, "the repro's job 0 finds nothing");
    job.vulnerable = true;
    job.findings = 9;
    checkpoint.save(&path).expect("tampered checkpoint saves");
    Checkpoint::load(&path).expect("the digest does not cover the edit");

    let err = SweepService::new(cli_spec())
        .checkpoint(&path)
        .verify(ResumeVerify::All)
        .run()
        .expect_err("a tampered summary must fail verification");
    assert!(
        matches!(err, ServiceError::VerifyFailed { shard: 0, .. }),
        "got {err}"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn a_tampered_corpus_fails_full_verification() {
    let path = scratch("corpus");
    let _ = std::fs::remove_file(&path);
    let outcome = SweepService::new(spec("corpus"))
        .workers(2)
        .checkpoint(&path)
        .run()
        .expect("sweep runs");
    let description = &outcome.checkpoint.corpus.clusters()[0].description;

    let json = std::fs::read_to_string(&path).expect("snapshot reads");
    let quoted = format!("\"description\": \"{description}\"");
    assert_eq!(json.matches(&quoted).count(), 1);
    let tampered = json.replace(&quoted, "\"description\": \"tampered\"");
    std::fs::write(&path, tampered).expect("tampered snapshot writes");

    // Last-shard verification re-runs no corpus; full verification does.
    SweepService::new(spec("corpus"))
        .checkpoint(&path)
        .run()
        .expect("last-shard verification does not rebuild the corpus");
    let err = SweepService::new(spec("corpus"))
        .workers(2)
        .checkpoint(&path)
        .verify(ResumeVerify::All)
        .run()
        .expect_err("a tampered corpus must fail full verification");
    assert!(
        matches!(err, ServiceError::VerifyFailed { shard: 0, .. }),
        "got {err}"
    );

    std::fs::remove_file(&path).ok();
}

/// The byte offset at which each record of a shard log starts, read from
/// the framing: `len: u32 LE`, `!len: u32 LE`, checksum `u64 LE`, payload.
fn record_starts(log: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at < log.len() {
        starts.push(at);
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap());
        at += 16 + len as usize;
    }
    assert_eq!(at, log.len(), "the log holds whole records");
    starts
}

/// A sweep whose first shards are small: hardened D4 jobs record no trace,
/// so the torn-tail loop below reloads a few kilobytes per byte offset.
fn torn_spec() -> SweepSpec {
    SweepSpec::new(
        "torn",
        [ProfileId::D4, ProfileId::D2],
        SweepSpec::derived_seeds(0xF1EE7, 3),
    )
    .with_budget(2000)
    .with_shard_size(1)
}

#[test]
fn a_torn_log_tail_costs_one_shard_and_resumes_byte_identically() {
    let reference = SweepService::new(torn_spec())
        .workers(2)
        .run()
        .expect("reference sweep runs")
        .report
        .expect("reference sweep completes");
    assert!(!reference.corpus.is_empty(), "the D2 jobs crash");

    let path = scratch("torn");
    let log = Checkpoint::log_path(&path);
    let _ = std::fs::remove_file(&path);
    SweepService::new(torn_spec())
        .workers(2)
        .checkpoint(&path)
        .max_shards(3)
        .run()
        .expect("partial sweep runs");
    let whole = std::fs::read(&log).expect("three commits are logged");
    let last = *record_starts(&whole).last().unwrap();
    assert_eq!(record_starts(&whole).len(), 3);

    // Cut the last record at every byte: one shard fewer, never an error.
    for cut in last..whole.len() {
        std::fs::write(&log, &whole[..cut]).unwrap();
        let checkpoint = Checkpoint::load(&path).expect("a torn tail loads");
        assert_eq!(checkpoint.completed_shards(), 2, "cut at byte {cut}");
    }

    // Resuming over a torn tail appends after the whole records, and the
    // sweep finishes with the reference report.
    for cut in [last + 3, (last + whole.len()) / 2, whole.len() - 3] {
        std::fs::write(&log, &whole[..cut]).unwrap();
        let outcome = SweepService::new(torn_spec())
            .workers(2)
            .checkpoint(&path)
            .max_shards(1)
            .run()
            .expect("resume over a torn tail runs");
        assert_eq!(outcome.resumed_from, 2);
        assert_eq!(std::fs::read(&log).unwrap(), whole, "cut at byte {cut}");
        assert_eq!(Checkpoint::load(&path).unwrap().completed_shards(), 3);
    }
    let resumed = SweepService::new(torn_spec())
        .workers(2)
        .checkpoint(&path)
        .verify(ResumeVerify::All)
        .run()
        .expect("resume runs")
        .report
        .expect("resume completes");
    assert_eq!(resumed.to_json(), reference.to_json());
    assert!(!log.exists(), "a completed sweep compacts its log");

    // A kill between the compaction's rename and its log removal leaves
    // records the snapshot already holds; the next run skips them and
    // removes the log.
    std::fs::write(&log, &whole).unwrap();
    let again = SweepService::new(torn_spec())
        .checkpoint(&path)
        .run()
        .expect("a leftover log beside a complete snapshot loads")
        .report
        .expect("still complete");
    assert_eq!(again.to_json(), reference.to_json());
    assert!(!log.exists());

    std::fs::remove_file(&path).ok();
}

#[test]
fn a_fresh_sweep_ignores_a_stale_log() {
    // Another sweep's log, left behind without its snapshot.
    let path = scratch("stale");
    let log = Checkpoint::log_path(&path);
    let _ = std::fs::remove_file(&path);
    SweepService::new(spec("stale-other"))
        .checkpoint(&path)
        .max_shards(2)
        .run()
        .expect("the other sweep runs");
    std::fs::remove_file(&path).expect("snapshot removed");
    assert!(log.exists());

    let outcome = SweepService::new(spec("stale"))
        .checkpoint(&path)
        .max_shards(1)
        .run()
        .expect("a fresh sweep starts over the stale log");
    assert_eq!(outcome.resumed_from, 0);
    let checkpoint = Checkpoint::load(&path).expect("checkpoint loads");
    assert_eq!(checkpoint.spec, spec("stale"));
    assert_eq!(checkpoint, outcome.checkpoint);

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&log).ok();
}

#[test]
fn same_vulnerability_jobs_collapse_into_one_cluster() {
    // Five D2 seeds big enough to crash every job, plus hardened D4 jobs
    // that must stay clusterless.
    let report = SweepService::new(spec("dedup"))
        .workers(4)
        .run()
        .expect("sweep runs")
        .report
        .expect("sweep completes");

    let d2: Vec<_> = report
        .jobs
        .iter()
        .filter(|j| j.target == ProfileId::D2)
        .collect();
    let d4: Vec<_> = report
        .jobs
        .iter()
        .filter(|j| j.target == ProfileId::D4)
        .collect();
    assert!(d2.iter().all(|j| j.vulnerable && j.cluster.is_some()));
    assert!(d4.iter().all(|j| !j.vulnerable && j.cluster.is_none()));

    // The acceptance criterion: N same-vuln jobs, ONE cluster.
    assert_eq!(report.corpus.len(), 1, "{:#?}", report.corpus.clusters());
    let cluster = &report.corpus.clusters()[0];
    assert_eq!(cluster.count(), d2.len());
    assert_eq!(
        cluster.members,
        d2.iter().map(|j| j.index).collect::<Vec<_>>(),
        "members are committed in job order"
    );
    assert_eq!(cluster.vuln_ids, vec!["SIM-BLUEDROID-L2C-NULLPTR"]);
    assert_eq!(cluster.exemplar_job, d2[0].index);

    // The exemplar trace is a real, replayable artifact: its state coverage
    // reproduces the signature the cluster is keyed on.
    let analysis = TraceAnalysis::from_trace(&cluster.exemplar_trace);
    assert_eq!(
        analysis.coverage.signature(),
        cluster.key.coverage_signature
    );
}

// ---------------------------------------------------------------------------
// PR 8 resilience: panicking and hung jobs are quarantined into the
// checkpoint, the `max_job_failures` threshold stops a degenerating sweep
// durably, and a quarantined sweep still resumes byte-identically.

/// A deterministically misbehaving worker: depending on the job's derived
/// seed it panics outright, hangs in an infinite send loop (so only the
/// per-job watchdog ends it), or behaves like the real budget-driven tool.
struct ChaosFuzzer {
    inner: L2FuzzTool,
}

impl Fuzzer for ChaosFuzzer {
    fn name(&self) -> &'static str {
        "chaos"
    }
    fn fuzz(&mut self, ctx: &mut FuzzCtx<'_>) -> Option<FuzzReport> {
        match ctx.seed % 4 {
            0 => panic!("injected worker fault"),
            1 => {
                // Hang: keep the link busy forever.  Virtual time advances
                // with every frame, so the spec's watchdog — not wall-clock
                // luck — is what terminates this job.
                let probe = Command::EchoRequest(EchoRequest {
                    data: vec![0x4C, 0x32],
                });
                loop {
                    let frame = signaling_frame_in(ctx.link.arena(), Identifier(0x42), &probe);
                    ctx.link.send_frame(&frame);
                }
            }
            _ => self.inner.fuzz(ctx),
        }
    }
}

/// The reference sweep under a chaos fuzzer: healthy jobs finish in ~3
/// virtual seconds, so an 8-second watchdog only ever fires on the hung
/// ones.
fn chaos_service(name: &str) -> SweepService {
    SweepService::new(spec(name).with_watchdog_secs(8)).customize(|builder| {
        builder.fuzzer(|| {
            Box::new(ChaosFuzzer {
                inner: L2FuzzTool::new(FuzzConfig::budget_driven()),
            })
        })
    })
}

#[test]
fn panicking_and_hung_jobs_are_quarantined_not_fatal() {
    let path = scratch("quarantine");
    let _ = std::fs::remove_file(&path);

    let report = chaos_service("quarantine")
        .workers(3)
        .checkpoint(&path)
        .run()
        .expect("chaos sweep still completes")
        .report
        .expect("sweep completes");

    // All three outcomes occur, and every job is accounted for.
    assert_eq!(report.jobs.len(), 10);
    let count = |outcome: JobOutcome| report.jobs.iter().filter(|j| j.outcome == outcome).count();
    assert!(count(JobOutcome::Completed) > 0, "no job survived chaos");
    assert!(count(JobOutcome::Failed) > 0, "no injected panic landed");
    assert!(count(JobOutcome::TimedOut) > 0, "no watchdog fired");

    // Quarantined jobs carry their reason and zeroed stats; completed jobs
    // are untouched by their neighbours' failures.
    for job in &report.jobs {
        if job.outcome == JobOutcome::Completed {
            assert!(job.failure.is_none());
            assert!(job.packets_sent > 0);
        } else {
            assert!(job.failure.is_some(), "quarantine without a reason");
            assert_eq!(job.packets_sent, 0);
            assert!(!job.vulnerable);
            assert!(job.cluster.is_none());
        }
    }
    for job in report
        .jobs
        .iter()
        .filter(|j| j.outcome == JobOutcome::TimedOut)
    {
        assert!(
            job.failure.as_deref().unwrap().contains("watchdog expired"),
            "timeout must name the watchdog"
        );
    }

    // The quarantine is durable (checkpointed) and surfaced in the summary.
    let quarantined = report.failed_jobs();
    let checkpoint = Checkpoint::load(&path).expect("checkpoint loads");
    assert_eq!(checkpoint.failed_jobs(), quarantined);
    assert!(report
        .summary_line()
        .contains(&format!("({quarantined} quarantined)")));

    std::fs::remove_file(&path).ok();
}

#[test]
fn the_failure_threshold_stops_the_sweep_durably_and_resume_finishes_it() {
    // The uninterrupted chaos reference (no checkpoint, no threshold).
    let reference = chaos_service("threshold-ref")
        .workers(3)
        .run()
        .expect("reference chaos sweep runs")
        .report
        .expect("reference completes");
    let quarantined = reference.failed_jobs();
    assert!(quarantined >= 4, "need enough chaos to cross the threshold");

    // With `max_job_failures(3)` the sweep must stop once a committed shard
    // pushes the cumulative quarantine count past three — after durably
    // committing that shard.
    let path = scratch("threshold");
    let _ = std::fs::remove_file(&path);
    let err = chaos_service("threshold-ref")
        .workers(3)
        .checkpoint(&path)
        .max_job_failures(3)
        .run()
        .expect_err("threshold must stop the sweep");
    let crossed = match err {
        ServiceError::TooManyFailures { limit, failed } => {
            assert_eq!(limit, 3);
            assert!(failed > limit);
            failed
        }
        other => panic!("expected TooManyFailures, got {other}"),
    };
    let checkpoint = Checkpoint::load(&path).expect("crossing shard was committed");
    assert_eq!(checkpoint.failed_jobs(), crossed);
    assert!(!checkpoint.shards.is_empty());
    assert!(checkpoint.shards.len() < spec("threshold-ref").shard_count());

    // Lifting the threshold resumes the quarantined sweep — with the last
    // committed shard (which contains quarantined jobs) re-proven against
    // its digest — to the byte-identical final report.
    let outcome = chaos_service("threshold-ref")
        .workers(3)
        .checkpoint(&path)
        .verify(ResumeVerify::LastShard)
        .run()
        .expect("resume without a threshold completes");
    assert_eq!(outcome.resumed_from, checkpoint.shards.len());
    assert_eq!(outcome.verified_shards, vec![checkpoint.shards.len() - 1]);
    let resumed = outcome.report.expect("resume completes");
    assert_eq!(resumed.to_json(), reference.to_json());
    assert_eq!(resumed.digest(), reference.digest());

    std::fs::remove_file(&path).ok();
}

#[test]
fn detection_mode_surfaces_findings_without_a_budget() {
    // No budget: the campaign default (detection fuzzer + out-of-band
    // oracle) stops at the first vulnerability and reports a finding.
    let report = SweepService::new(
        SweepSpec::new("detect", [ProfileId::D2], SweepSpec::derived_seeds(3, 2))
            .with_shard_size(1),
    )
    .run()
    .expect("sweep runs")
    .report
    .expect("sweep completes");

    assert!(report.jobs.iter().all(|j| j.vulnerable && j.findings > 0));
    assert_eq!(report.vulnerable_jobs(), 2);
    assert!(!report.corpus.is_empty());
}
