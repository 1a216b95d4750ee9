//! The L2Fuzz session: orchestration of the four phases (Fig. 5).
//!
//! [`L2FuzzSession::run_plan`] is the one driver of the phases: it scans the
//! target, guides it into each state a [`PacketPlan`] picks, sends the
//! plan's test packets, checks the target after every one of them and
//! assembles the [`FuzzReport`].  The plan decides only which states to
//! visit and which packet to send next.  Two plans exist: the paper's
//! [`DictionaryPlan`] (reachable states × [`CoreFieldMutator::generate`]) and
//! the coverage-guided plan of the `feedback` crate.  [`run_rounds`] repeats
//! sessions inside a [`FuzzCtx`] and merges their reports; [`L2FuzzTool`]
//! and the feedback fuzzer are both thin shells over it.

use btcore::{DeviceMeta, FuzzRng, LinkType, SimClock, TargetOracle};
use hci::medium::LinkHandle;
use l2cap::code::CommandCode;
use l2cap::jobs::job_of;
use l2cap::packet::SignalingPacket;
use l2cap::state::ChannelState;

use crate::config::FuzzConfig;
use crate::detector::{DetectionVerdict, VulnerabilityDetector};
use crate::fuzzer::{FuzzCtx, Fuzzer};
use crate::guide::{ChannelContext, StateGuide};
use crate::mutator::CoreFieldMutator;
use crate::queue::{PacketKind, PacketQueue, SendOutcome};
use crate::report::{FuzzReport, VulnerabilityFinding};
use crate::scanner::TargetScanner;

/// Which states a session visits and which test packet it sends next.
///
/// The driver ([`L2FuzzSession::run_plan`]) calls the hooks in a fixed
/// order: [`PacketPlan::arm`] once per session, then for every state
/// [`PacketPlan::next_state`], the guide's transition, [`PacketPlan::park`]
/// and [`PacketPlan::next_packet`] until it returns `None`, with
/// [`PacketPlan::observe`] after each packet is sent.  A plan is reused
/// across the sessions of [`run_rounds`], so it may carry what it learned
/// from one round into the next.
pub trait PacketPlan {
    /// The tool name written into the report.
    fn name(&self) -> &'static str;

    /// Prepares one session on a `link` target.  `mutator` is the session
    /// RNG's first fork (label 1), configured from `config`; a plan that
    /// needs randomness of its own forks it from `rng` here.
    fn arm(
        &mut self,
        config: &FuzzConfig,
        link: LinkType,
        rng: &mut FuzzRng,
        mutator: &mut CoreFieldMutator,
    );

    /// The next state to visit, or `None` when the session is done.
    fn next_state(&mut self) -> Option<ChannelState>;

    /// Whether the guide drives the target into each state.  When `false`
    /// the packets are sent on a closed channel without any transition.
    fn guided(&self) -> bool {
        true
    }

    /// The target sits in `state` on channel `ctx`: prepare its packets.
    fn park(
        &mut self,
        state: ChannelState,
        ctx: &ChannelContext,
        mutator: &mut CoreFieldMutator,
        guide: &mut StateGuide,
    );

    /// The next test packet for the parked state, or `None` to leave it.
    /// Identifiers come from `guide`, which numbers the transitions too.
    fn next_packet(
        &mut self,
        ctx: &ChannelContext,
        mutator: &mut CoreFieldMutator,
        guide: &mut StateGuide,
    ) -> Option<SignalingPacket>;

    /// Sees what a sent test packet got back, before the detector runs.
    fn observe(&mut self, _outcome: &SendOutcome) {}
}

/// The paper's plan: every state reachable on the link, each with
/// `packets_per_command` mutations of every valid command, generated in one
/// [`CoreFieldMutator::generate`] call from one identifier.  Without state
/// guiding it visits only the closed state, with every command.
pub struct DictionaryPlan {
    config: FuzzConfig,
    link: LinkType,
    states: std::slice::Iter<'static, ChannelState>,
    packets: std::vec::IntoIter<SignalingPacket>,
}

impl Default for DictionaryPlan {
    /// An unarmed plan; [`PacketPlan::arm`] sets the configuration and link.
    fn default() -> Self {
        DictionaryPlan {
            config: FuzzConfig::default(),
            link: LinkType::BrEdr,
            states: [].iter(),
            packets: Vec::new().into_iter(),
        }
    }
}

impl PacketPlan for DictionaryPlan {
    fn name(&self) -> &'static str {
        "L2Fuzz"
    }

    fn arm(
        &mut self,
        config: &FuzzConfig,
        link: LinkType,
        _rng: &mut FuzzRng,
        _mutator: &mut CoreFieldMutator,
    ) {
        self.config = config.clone();
        self.link = link;
        // An LE target exposes the credit-based subset of the states.
        let states: &'static [ChannelState] = match (config.state_guiding, link) {
            (false, _) => &[ChannelState::Closed],
            (true, LinkType::BrEdr) => &ChannelState::REACHABLE_FROM_INITIATOR,
            (true, LinkType::Le) => &ChannelState::REACHABLE_FROM_INITIATOR_LE,
        };
        self.states = states.iter();
    }

    fn next_state(&mut self) -> Option<ChannelState> {
        self.states.next().copied()
    }

    fn guided(&self) -> bool {
        self.config.state_guiding
    }

    fn park(
        &mut self,
        state: ChannelState,
        ctx: &ChannelContext,
        mutator: &mut CoreFieldMutator,
        guide: &mut StateGuide,
    ) {
        let job = job_of(state);
        let commands = if !self.config.state_guiding {
            // Without state guiding, commands are picked at random per
            // packet (dumb strategy used by the ablation).
            CommandCode::ALL.to_vec()
        } else if self.config.generous_boundaries {
            job.generous_valid_commands_on(self.link)
        } else {
            job.valid_commands_on(self.link)
        };
        self.packets = mutator
            .generate(
                &commands,
                self.config.packets_per_command,
                ctx,
                guide.next_identifier(),
            )
            .into_iter();
    }

    fn next_packet(
        &mut self,
        _ctx: &ChannelContext,
        _mutator: &mut CoreFieldMutator,
        _guide: &mut StateGuide,
    ) -> Option<SignalingPacket> {
        self.packets.next()
    }
}

/// A full L2Fuzz campaign against one target device.
pub struct L2FuzzSession {
    config: FuzzConfig,
    clock: SimClock,
    retry: crate::retry::RetryPolicy,
}

impl L2FuzzSession {
    /// Creates a session with the given configuration; `clock` is the shared
    /// virtual clock used for elapsed-time reporting.
    pub fn new(config: FuzzConfig, clock: SimClock) -> Self {
        L2FuzzSession {
            config,
            clock,
            retry: crate::retry::RetryPolicy::none(),
        }
    }

    /// Attaches a retry policy to the session's drivers (state guide and
    /// detector) for fault-tolerant campaigns over degraded links.
    pub fn with_retry(mut self, retry: crate::retry::RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The session configuration.
    pub fn config(&self) -> &FuzzConfig {
        &self.config
    }

    /// Runs the paper's campaign ([`DictionaryPlan`]) over an established
    /// link.
    ///
    /// `oracle` is the optional out-of-band view of the target (crash dumps
    /// and service status); without it the detector still works from the
    /// target's on-air behaviour alone.
    pub fn run(
        &mut self,
        link: &mut LinkHandle,
        meta: DeviceMeta,
        oracle: Option<&mut dyn TargetOracle>,
    ) -> FuzzReport {
        self.run_plan(link, meta, oracle, &mut DictionaryPlan::default())
    }

    /// Runs the four phases over an established link, visiting the states
    /// and sending the packets `plan` chooses.
    pub fn run_plan(
        &mut self,
        link: &mut LinkHandle,
        meta: DeviceMeta,
        mut oracle: Option<&mut dyn TargetOracle>,
        plan: &mut dyn PacketPlan,
    ) -> FuzzReport {
        let started = self.clock.now().as_secs();
        let link_type = meta.link_type;
        let mut rng = FuzzRng::seed_from(self.config.seed);
        let mut scanner = TargetScanner::new();
        let mut guide = StateGuide::new().with_retry(self.retry);
        let mut mutator = CoreFieldMutator::with_options(
            rng.fork(1),
            self.config.core_fields_only,
            self.config.append_garbage,
            self.config.max_garbage_len,
        );
        mutator.set_link(link_type);
        mutator.set_config_option_mutation(self.config.mutate_config_options);
        plan.arm(&self.config, link_type, &mut rng, &mut mutator);
        let mut detector = VulnerabilityDetector::new_on(link_type).with_retry(self.retry);
        let mut queue = PacketQueue::new();

        // Phase 1: target scanning.
        let scan = scanner.scan(meta.clone(), link);
        let psm = scan.chosen_port.unwrap_or(btcore::Psm::SDP);

        let mut report = FuzzReport {
            fuzzer: plan.name().to_owned(),
            target: meta,
            scan,
            states_tested: Vec::new(),
            packets_sent: 0,
            malformed_sent: 0,
            findings: Vec::new(),
            elapsed_secs: 0,
        };

        // Phases 2-4, repeated per state the plan picks.
        'states: while let Some(state) = plan.next_state() {
            // Phase 2: state guiding.
            let ctx = if plan.guided() {
                let driven = match link_type {
                    LinkType::BrEdr => guide.drive_to(link, psm, state),
                    LinkType::Le => guide.drive_to_le(link, psm, state),
                };
                match driven {
                    Some(ctx) => ctx,
                    None => continue,
                }
            } else {
                ChannelContext::closed(psm)
            };
            report.states_tested.push(state);

            // Phase 3: core field mutating.
            let job = job_of(state);
            plan.park(state, &ctx, &mut mutator, &mut guide);

            // Phase 4: transmit and detect.
            while let Some(packet) = plan.next_packet(&ctx, &mut mutator, &mut guide) {
                if self.config.max_packets > 0
                    && queue.sent() + guide.transition_packets_sent() + detector.pings_sent()
                        >= self.config.max_packets as u64
                {
                    break 'states;
                }
                let outcome = queue.send_now(link, &packet, PacketKind::Malformed);
                report.malformed_sent += 1;
                plan.observe(&outcome);
                let verdict = match oracle {
                    Some(ref mut o) => detector.check(link, Some(&mut **o), outcome.silent),
                    None => detector.check(link, None, outcome.silent),
                };
                if let DetectionVerdict::Vulnerable(evidence) = verdict {
                    let finding = VulnerabilityFinding {
                        state,
                        job,
                        command: CommandCode::from_u8(packet.code)
                            .unwrap_or(CommandCode::CommandReject),
                        packet_hex: btcore::codec::hex_dump(&packet.to_bytes()),
                        evidence,
                        elapsed_secs: self.clock.now().as_secs().saturating_sub(started),
                    };
                    report.findings.push(finding);
                    if self.config.stop_at_first_vulnerability {
                        break 'states;
                    }
                }
            }

            // Tear the channel down so the next state starts clean.
            guide.disconnect(link, ctx);
        }

        report.packets_sent =
            queue.sent() + guide.transition_packets_sent() + detector.pings_sent();
        report.elapsed_secs = self.clock.now().as_secs().saturating_sub(started);
        report
    }
}

/// Runs sessions of `plan` back to back inside `ctx`, at most `max_rounds`
/// of them, and merges their reports into one.
///
/// Round `k` runs `config` with seed `ctx.stream_seed(config.seed ^ domain)
/// + k`.  The per-target stream is domain-separated under `domain` (each
/// tool has its own label), so round seeds never replay the raw per-target
/// seed that drives the simulated device's own RNG.  The configured seed stays a real input —
/// two tools with different config seeds diverge under the same campaign
/// seed.  Each round's packet cap is clamped to the budget left.  The loop
/// ends when the budget is spent, after a round with a finding (if
/// `config.stop_at_first_vulnerability`), or after a round that sent
/// nothing (target down).  Returns `None` if no round ran.
pub fn run_rounds(
    ctx: &mut FuzzCtx<'_>,
    config: &FuzzConfig,
    domain: u64,
    max_rounds: usize,
    plan: &mut dyn PacketPlan,
) -> Option<FuzzReport> {
    let mut merged: Option<FuzzReport> = None;
    for k in 0..max_rounds as u64 {
        let remaining = ctx.remaining();
        if remaining == Some(0) {
            break;
        }
        let mut round_config = config.clone();
        round_config.seed = ctx.stream_seed(config.seed ^ domain).wrapping_add(k);
        if let Some(remaining) = remaining {
            round_config.max_packets = if round_config.max_packets == 0 {
                remaining as usize
            } else {
                round_config.max_packets.min(remaining as usize)
            };
        }
        let before = ctx.link.frames_sent();
        let round_start_secs = ctx.clock.now().as_secs();
        let meta = ctx.meta.clone();
        let mut session = L2FuzzSession::new(round_config, ctx.clock.clone()).with_retry(ctx.retry);
        let (link, oracle) = ctx.link_and_oracle();
        let mut report = session.run_plan(link, meta, oracle, plan);
        // Report elapsed times relative to the whole experiment (the
        // environment's clock), not just this round: the session stamped
        // each finding with its round-relative detection time.
        report.elapsed_secs = ctx.clock.now().as_secs();
        for finding in &mut report.findings {
            finding.elapsed_secs += round_start_secs;
        }
        let vulnerable = report.vulnerable();
        let stalled = ctx.link.frames_sent() == before;
        // Merge rounds instead of keeping only the last one: in comparison
        // mode a finding from an early round must survive the
        // budget-burning rounds that follow it.
        match merged {
            None => merged = Some(report),
            Some(ref mut total) => {
                total.packets_sent += report.packets_sent;
                total.malformed_sent += report.malformed_sent;
                for state in report.states_tested {
                    if !total.states_tested.contains(&state) {
                        total.states_tested.push(state);
                    }
                }
                total.findings.extend(report.findings);
                total.elapsed_secs = report.elapsed_secs;
            }
        }
        if (vulnerable && config.stop_at_first_vulnerability) || stalled {
            break;
        }
    }
    merged
}

/// Domain label of the dictionary tool's round-seed stream (0x4C32 = "L2").
const DICTIONARY_DOMAIN: u64 = 0x4C32;

/// [`Fuzzer`]-trait adapter over [`L2FuzzSession`], used by every campaign.
///
/// The tool runs [`DictionaryPlan`] sessions back to back through
/// [`run_rounds`].  Two standing configurations cover the paper's
/// experiments:
///
/// * [`L2FuzzTool::detection`] — Table VI methodology: repeat campaigns
///   (with the out-of-band oracle from the context) until a vulnerability is
///   found or the round cap is reached.
/// * [`L2FuzzTool::comparison`] — §IV-C/D methodology: never stop early,
///   keep fuzzing until the context's packet budget is spent.
pub struct L2FuzzTool {
    config: FuzzConfig,
    max_rounds: usize,
}

impl L2FuzzTool {
    /// Creates a tool that runs sessions with `config` until the context's
    /// budget is spent (no round cap).
    pub fn new(config: FuzzConfig) -> Self {
        L2FuzzTool {
            config,
            max_rounds: usize::MAX,
        }
    }

    /// Detection mode (Table VI): stop at the first vulnerability, give up
    /// after `max_rounds` campaigns.
    pub fn detection(config: FuzzConfig, max_rounds: usize) -> Self {
        L2FuzzTool { config, max_rounds }
    }

    /// Comparison mode (§IV-C/D): never stop early, burn the whole budget.
    pub fn comparison() -> Self {
        L2FuzzTool::new(FuzzConfig::budget_driven())
    }
}

impl Fuzzer for L2FuzzTool {
    fn name(&self) -> &'static str {
        "L2Fuzz"
    }

    fn fuzz(&mut self, ctx: &mut FuzzCtx<'_>) -> Option<FuzzReport> {
        run_rounds(
            ctx,
            &self.config,
            DICTIONARY_DOMAIN,
            self.max_rounds,
            &mut DictionaryPlan::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::SimClock;
    use btstack::device::{share, DeviceOracle, SharedSimulatedDevice};
    use btstack::profiles::{DeviceProfile, ProfileId};
    use hci::link::LinkConfig;
    use hci::medium::{EventMedium, Medium};

    fn setup(
        id: ProfileId,
        seed: u64,
    ) -> (SharedSimulatedDevice, LinkHandle, DeviceMeta, SimClock) {
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        let profile = DeviceProfile::table5(id);
        let (shared, adapter) = share(profile.build(clock.clone(), FuzzRng::seed_from(seed)));
        air.register_shared(adapter);
        let meta = air.inquiry().pop().unwrap();
        let link = air
            .connect(
                profile.addr,
                LinkConfig::default(),
                FuzzRng::seed_from(seed + 1),
            )
            .unwrap();
        (shared, link, meta, clock)
    }

    #[test]
    fn l2fuzz_finds_the_pixel3_dos_and_stops() {
        let (shared, mut link, meta, clock) = setup(ProfileId::D2, 100);
        let mut oracle = DeviceOracle::new(shared);
        let mut session = L2FuzzSession::new(FuzzConfig::default(), clock);
        let report = session.run(&mut link, meta, Some(&mut oracle));
        assert!(report.vulnerable(), "the seeded Pixel 3 DoS must be found");
        let finding = &report.findings[0];
        assert_eq!(finding.evidence.description, "DoS");
        assert!(finding.evidence.crash_dump);
        assert!(report.packets_sent > 0);
        assert!(report.malformed_sent > 0);
    }

    #[test]
    fn l2fuzz_reports_no_findings_on_hardened_devices() {
        for id in [ProfileId::D4, ProfileId::D6, ProfileId::D7] {
            let (shared, mut link, meta, clock) = setup(id, 200);
            let mut oracle = DeviceOracle::new(shared);
            let mut session = L2FuzzSession::new(FuzzConfig::default(), clock);
            let report = session.run(&mut link, meta, Some(&mut oracle));
            assert!(!report.vulnerable(), "{id} must have no findings");
            assert!(report.states_tested.len() >= 10);
        }
    }

    #[test]
    fn max_packets_budget_is_respected() {
        let (_shared, mut link, meta, clock) = setup(ProfileId::D4, 300);
        let mut config = FuzzConfig::comparison(200, 300);
        config.stop_at_first_vulnerability = false;
        let mut session = L2FuzzSession::new(config, clock);
        let report = session.run(&mut link, meta, None);
        // Budget counts malformed + transition + ping packets; allow a small
        // overshoot for the final in-flight exchange.
        assert!(report.packets_sent <= 230, "sent {}", report.packets_sent);
    }

    #[test]
    fn disabling_state_guiding_tests_only_the_closed_state() {
        let (_shared, mut link, meta, clock) = setup(ProfileId::D4, 400);
        let config = FuzzConfig {
            max_packets: 300,
            ..FuzzConfig::default()
        }
        .without_state_guiding();
        let mut session = L2FuzzSession::new(config, clock);
        let report = session.run(&mut link, meta, None);
        assert_eq!(report.states_tested, vec![ChannelState::Closed]);
    }

    #[test]
    fn report_elapsed_time_is_positive_and_grows_with_port_count() {
        let (shared_a, mut link_a, meta_a, clock_a) = setup(ProfileId::D5, 500);
        let mut oracle_a = DeviceOracle::new(shared_a);
        let report_a = L2FuzzSession::new(FuzzConfig::default(), clock_a).run(
            &mut link_a,
            meta_a,
            Some(&mut oracle_a),
        );
        assert!(report_a.vulnerable());
        assert!(report_a.findings[0].elapsed_secs < 24 * 3600);
    }
}
