//! The traced driver: the L2Fuzz engine re-assembled from its layers' public
//! functions, with a span around every call into a layer.
//!
//! [`TracedTool`] follows `L2FuzzTool` + `L2FuzzSession::run` step for step
//! (same seeds, same call order), so its packet stream is the untraced
//! campaign's; the workloads check that by digest on every traced campaign.
//! [`TimedDevice`] is the endpoint shim: registered on a hand-wired
//! `EventMedium` in place of the bare device, it times
//! `VirtualDevice::receive`, so the exchange spans above it can subtract the
//! endpoint's share and report their own self time.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use btcore::{DeviceMeta, FuzzRng, LinkSlot, LinkType, SimClock, TargetOracle};
use btstack::device::{share, DeviceOracle, SharedSimulatedDevice};
use btstack::profiles::DeviceProfile;
use hci::device::VirtualDevice;
use hci::link::{new_tap, LinkConfig, SharedTap};
use hci::medium::{EventGate, EventMedium, LinkHandle, LinkSpec, Medium};
use l2cap::jobs::job_of;
use l2cap::packet::L2capFrame;
use l2cap::state::ChannelState;
use l2fuzz::detector::{DetectionVerdict, VulnerabilityDetector};
use l2fuzz::guide::{ChannelContext, StateGuide};
use l2fuzz::mutator::CoreFieldMutator;
use l2fuzz::queue::{PacketKind, PacketQueue};
use l2fuzz::report::{FuzzReport, VulnerabilityFinding};
use l2fuzz::scanner::TargetScanner;
use l2fuzz::{FuzzConfig, FuzzCtx, Fuzzer, RetryPolicy, TxBudget};
use parking_lot::Mutex;

thread_local! {
    /// Endpoint time (ns), frames and allocations accrued on this thread by
    /// [`TimedDevice`].  The medium runs the device on the sending thread, so
    /// an initiator's spans read only their own endpoint share.
    static ENDPOINT: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// This thread's endpoint counters: (ns, frames, allocations).
pub fn endpoint_mark() -> (u64, u64, u64) {
    ENDPOINT.with(Cell::get)
}

/// One layer's accumulated span: inclusive wall time, the endpoint time that
/// ran inside it, allocations made inside it, and how often it was entered.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub ns: u64,
    pub endpoint_ns: u64,
    pub allocs: u64,
    pub calls: u64,
}

impl Span {
    /// Runs `f` inside this span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let e0 = endpoint_mark().0;
        let a0 = alloc_counter::allocations();
        let t0 = Instant::now();
        let out = f();
        self.ns += crate::ns(t0);
        self.allocs += alloc_counter::allocations() - a0;
        self.endpoint_ns += endpoint_mark().0 - e0;
        self.calls += 1;
        out
    }

    /// Wall time spent in this layer itself, endpoint excluded.
    pub fn self_ns(&self) -> u64 {
        self.ns.saturating_sub(self.endpoint_ns)
    }

    fn add(&mut self, other: &Span) {
        self.ns += other.ns;
        self.endpoint_ns += other.endpoint_ns;
        self.allocs += other.allocs;
        self.calls += other.calls;
    }
}

/// Everything one or more traced campaigns accumulated, per layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    pub scanner: Span,
    pub guide: Span,
    pub mutator: Span,
    pub queue: Span,
    pub detector: Span,
    /// Whole `FeedbackFuzzer::fuzz` calls (the engine is not split further).
    pub feedback: Span,
    /// Hand-wired environment construction.
    pub env: Span,
    /// `TraceAnalysis::from_trace_on` over each campaign's capture.
    pub sniffer: Span,
    pub endpoint_ns: u64,
    pub endpoint_frames: u64,
    pub endpoint_allocs: u64,
    pub states: u64,
    pub prelude_pkts: u64,
    pub mutated_pkts: u64,
    pub pings: u64,
    pub feedback_campaigns: u64,
    pub corpus_entries: u64,
}

impl Spans {
    pub fn add(&mut self, other: &Spans) {
        for (mine, theirs) in self.layers_mut().into_iter().zip(other.layers()) {
            mine.add(&theirs);
        }
        self.endpoint_ns += other.endpoint_ns;
        self.endpoint_frames += other.endpoint_frames;
        self.endpoint_allocs += other.endpoint_allocs;
        self.states += other.states;
        self.prelude_pkts += other.prelude_pkts;
        self.mutated_pkts += other.mutated_pkts;
        self.pings += other.pings;
        self.feedback_campaigns += other.feedback_campaigns;
        self.corpus_entries += other.corpus_entries;
    }

    fn layers(&self) -> [Span; 8] {
        [
            self.scanner,
            self.guide,
            self.mutator,
            self.queue,
            self.detector,
            self.feedback,
            self.env,
            self.sniffer,
        ]
    }

    fn layers_mut(&mut self) -> [&mut Span; 8] {
        [
            &mut self.scanner,
            &mut self.guide,
            &mut self.mutator,
            &mut self.queue,
            &mut self.detector,
            &mut self.feedback,
            &mut self.env,
            &mut self.sniffer,
        ]
    }

    /// Folds the endpoint time this thread accrued since `mark` into the
    /// totals.
    pub fn take_endpoint_since(&mut self, mark: (u64, u64, u64)) {
        let now = endpoint_mark();
        self.endpoint_ns += now.0 - mark.0;
        self.endpoint_frames += now.1 - mark.1;
        self.endpoint_allocs += now.2 - mark.2;
    }
}

/// The endpoint shim: forwards every call to the simulated device and times
/// `receive`.
pub struct TimedDevice {
    inner: SharedSimulatedDevice,
}

impl VirtualDevice for TimedDevice {
    fn meta(&self) -> DeviceMeta {
        self.inner.lock().meta()
    }
    fn supports_link(&self, link_type: LinkType) -> bool {
        self.inner.lock().supports_link(link_type)
    }
    fn attach_link(&mut self, slot: LinkSlot, link_type: LinkType) {
        self.inner.lock().attach_link(slot, link_type);
    }
    fn receive(&mut self, slot: LinkSlot, frame: &L2capFrame) -> Vec<L2capFrame> {
        let a0 = alloc_counter::allocations();
        let t0 = Instant::now();
        let out = self.inner.lock().receive(slot, frame);
        let ns = crate::ns(t0);
        let allocs = alloc_counter::allocations() - a0;
        ENDPOINT.with(|c| {
            let (n, f, a) = c.get();
            c.set((n + ns, f + 1, a + allocs));
        });
        out
    }
    fn bluetooth_alive(&self) -> bool {
        self.inner.lock().bluetooth_alive()
    }
    fn processing_cost_micros(&self) -> u64 {
        self.inner.lock().processing_cost_micros()
    }
}

/// One initiator of a hand-wired environment.
pub struct Initiator {
    pub link: LinkHandle,
    pub tap: SharedTap,
    pub clock: SimClock,
    pub meta: DeviceMeta,
    pub seed: u64,
}

/// A hand-wired campaign environment: the wiring `CampaignPlan` builds for
/// one target, with the device behind a [`TimedDevice`].
pub struct Env {
    pub medium: EventMedium,
    pub device: SharedSimulatedDevice,
    pub initiators: Vec<Initiator>,
}

/// The per-target seed `CampaignPlan` derives for target 0 of a campaign.
fn target_seed(campaign_seed: u64) -> u64 {
    btcore::splitmix64(campaign_seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

fn initiator_seed(target_seed: u64, k: usize) -> u64 {
    if k == 0 {
        target_seed
    } else {
        btcore::splitmix64(target_seed ^ (k as u64).wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

/// Wires `initiators` links to a fresh `profile` device the way a campaign
/// with `campaign_seed` does.
pub fn wire(
    profile: &DeviceProfile,
    campaign_seed: u64,
    link_config: LinkConfig,
    auto_restart: bool,
    initiators: usize,
) -> Env {
    let seed = target_seed(campaign_seed);
    let clock = SimClock::new();
    let mut medium = EventMedium::with_seed(clock.clone(), seed);
    let mut device = profile.build(clock.clone(), FuzzRng::seed_from(seed));
    device.set_auto_restart(auto_restart);
    let (device, _) = share(device);
    let shim: hci::device::SharedDevice = Arc::new(Mutex::new(TimedDevice {
        inner: device.clone(),
    }));
    medium.register_shared(shim);
    let meta = device.lock().meta();
    let single = initiators == 1;
    let wired = (0..initiators)
        .map(|k| {
            let seed = initiator_seed(seed, k);
            let link_clock = if single {
                clock.clone()
            } else {
                SimClock::new()
            };
            let spec = LinkSpec::new(profile.addr, link_config, FuzzRng::seed_from(seed ^ 0xA5A5))
                .on(profile.link_type)
                .with_clock(link_clock.clone());
            let mut link = medium.connect_spec(spec).expect("profile accepts its link");
            let tap = new_tap();
            link.attach_tap(tap.clone());
            Initiator {
                link,
                tap,
                clock: link_clock,
                meta: meta.clone().with_link_type(profile.link_type),
                seed,
            }
        })
        .collect();
    Env {
        medium,
        device,
        initiators: wired,
    }
}

/// The campaign's out-of-band oracle, observed through the link's event
/// gate with the fault plan's crash-dump read failures — the same events and
/// draws the campaign's own oracle makes.
pub struct GatedOracle {
    inner: DeviceOracle,
    gate: EventGate,
    dump_failure: Option<(f64, FuzzRng)>,
}

impl GatedOracle {
    pub fn new(device: SharedSimulatedDevice, link: &LinkHandle, seed: u64, p: f64) -> Self {
        GatedOracle {
            inner: DeviceOracle::new(device),
            gate: link.event_gate(),
            dump_failure: (p > 0.0).then(|| {
                (
                    p,
                    FuzzRng::seed_from(btcore::splitmix64(seed ^ 0x0D0C_FA17)),
                )
            }),
        }
    }
}

impl TargetOracle for GatedOracle {
    fn ping(&mut self) -> btcore::PingOutcome {
        let inner = &mut self.inner;
        self.gate.serialized(|| inner.ping())
    }
    fn take_crash_dump(&mut self) -> bool {
        let inner = &mut self.inner;
        let failure = &mut self.dump_failure;
        self.gate.serialized(|| {
            if let Some((p, rng)) = failure {
                if rng.chance(*p) {
                    return false;
                }
            }
            inner.take_crash_dump()
        })
    }
    fn bluetooth_alive(&self) -> bool {
        let inner = &self.inner;
        self.gate.serialized(|| inner.bluetooth_alive())
    }
}

/// Runs `fuzzer` on one initiator of a hand-wired environment, as the
/// campaign harness does.
pub fn drive(
    fuzzer: &mut dyn Fuzzer,
    init: &mut Initiator,
    budget: TxBudget,
    retry: RetryPolicy,
    mut oracle: Option<&mut dyn TargetOracle>,
) -> Option<FuzzReport> {
    let _retire_on_unwind = init.link.retire_guard();
    let report = {
        let oracle = match oracle {
            Some(ref mut o) => {
                let o: &mut dyn TargetOracle = &mut **o;
                Some(o)
            }
            None => None,
        };
        let mut ctx = FuzzCtx::new(
            &mut init.link,
            init.clock.clone(),
            init.tap.clone(),
            init.meta.clone(),
            init.seed,
            budget,
            oracle,
        );
        ctx.retry = retry;
        fuzzer.fuzz(&mut ctx)
    };
    init.link.retire();
    report
}

/// The L2Fuzz engine with a span around every layer call.
pub struct TracedTool {
    config: FuzzConfig,
    max_rounds: usize,
    pub spans: Spans,
    sink: Option<Arc<Mutex<Spans>>>,
}

impl TracedTool {
    /// `L2FuzzTool::new`: sessions until the budget is spent.
    pub fn new(config: FuzzConfig) -> Self {
        TracedTool {
            config,
            max_rounds: usize::MAX,
            spans: Spans::default(),
            sink: None,
        }
    }

    /// `L2FuzzTool::detection`: stop at a finding or after `max_rounds`.
    pub fn detection(config: FuzzConfig, max_rounds: usize) -> Self {
        TracedTool {
            max_rounds,
            ..TracedTool::new(config)
        }
    }

    /// Adds this tool's spans to `sink` when each campaign ends (for tools
    /// built inside a service that owns them).
    pub fn flushing_into(mut self, sink: Arc<Mutex<Spans>>) -> Self {
        self.sink = Some(sink);
        self
    }

    fn session(
        &mut self,
        config: &FuzzConfig,
        clock: &SimClock,
        retry: RetryPolicy,
        link: &mut LinkHandle,
        meta: DeviceMeta,
        mut oracle: Option<&mut dyn TargetOracle>,
    ) -> FuzzReport {
        let s = &mut self.spans;
        let started = clock.now().as_secs();
        let link_type = meta.link_type;
        let mut rng = FuzzRng::seed_from(config.seed);
        let mut scanner = TargetScanner::new();
        let mut guide = StateGuide::new().with_retry(retry);
        let mut mutator = CoreFieldMutator::with_options(
            rng.fork(1),
            config.core_fields_only,
            config.append_garbage,
            config.max_garbage_len,
        );
        mutator.set_link(link_type);
        mutator.set_config_option_mutation(config.mutate_config_options);
        let mut detector = VulnerabilityDetector::new_on(link_type).with_retry(retry);
        let mut queue = PacketQueue::new();

        let scan = s.scanner.time(|| scanner.scan(meta.clone(), link));
        let psm = scan.chosen_port.unwrap_or(btcore::Psm::SDP);
        let mut report = FuzzReport {
            fuzzer: "L2Fuzz".to_owned(),
            target: meta,
            scan,
            states_tested: Vec::new(),
            packets_sent: 0,
            malformed_sent: 0,
            findings: Vec::new(),
            elapsed_secs: 0,
        };
        let states: Vec<ChannelState> = if config.state_guiding {
            match link_type {
                LinkType::BrEdr => ChannelState::REACHABLE_FROM_INITIATOR.to_vec(),
                LinkType::Le => ChannelState::REACHABLE_FROM_INITIATOR_LE.to_vec(),
            }
        } else {
            vec![ChannelState::Closed]
        };
        let prelude_before = guide.transition_packets_sent();
        'states: for state in states {
            let ctx = if config.state_guiding {
                let driven = s.guide.time(|| match link_type {
                    LinkType::BrEdr => guide.drive_to(link, psm, state),
                    LinkType::Le => guide.drive_to_le(link, psm, state),
                });
                match driven {
                    Some(ctx) => ctx,
                    None => continue,
                }
            } else {
                ChannelContext::closed(psm)
            };
            report.states_tested.push(state);
            s.states += 1;
            let job = job_of(state);
            let commands = if config.state_guiding {
                if config.generous_boundaries {
                    job.generous_valid_commands_on(link_type)
                } else {
                    job.valid_commands_on(link_type)
                }
            } else {
                l2cap::code::CommandCode::ALL.to_vec()
            };
            let identifier = guide.next_identifier();
            let packets = s
                .mutator
                .time(|| mutator.generate(&commands, config.packets_per_command, &ctx, identifier));
            s.mutated_pkts += packets.len() as u64;
            for packet in packets {
                if config.max_packets > 0
                    && queue.sent() + guide.transition_packets_sent() + detector.pings_sent()
                        >= config.max_packets as u64
                {
                    break 'states;
                }
                let outcome = s
                    .queue
                    .time(|| queue.send_now(link, &packet, PacketKind::Malformed));
                report.malformed_sent += 1;
                let verdict = s.detector.time(|| match oracle {
                    Some(ref mut o) => detector.check(link, Some(&mut **o), outcome.silent),
                    None => detector.check(link, None, outcome.silent),
                });
                if let DetectionVerdict::Vulnerable(evidence) = verdict {
                    report.findings.push(VulnerabilityFinding {
                        state,
                        job,
                        command: l2cap::code::CommandCode::from_u8(packet.code)
                            .unwrap_or(l2cap::code::CommandCode::CommandReject),
                        packet_hex: btcore::codec::hex_dump(&packet.to_bytes()),
                        evidence,
                        elapsed_secs: clock.now().as_secs().saturating_sub(started),
                    });
                    if config.stop_at_first_vulnerability {
                        break 'states;
                    }
                }
            }
            s.guide.time(|| guide.disconnect(link, ctx));
        }
        s.prelude_pkts += guide.transition_packets_sent() - prelude_before;
        s.pings += detector.pings_sent();
        report.packets_sent =
            queue.sent() + guide.transition_packets_sent() + detector.pings_sent();
        report.elapsed_secs = clock.now().as_secs().saturating_sub(started);
        report
    }
}

impl Fuzzer for TracedTool {
    fn name(&self) -> &'static str {
        "L2Fuzz"
    }

    fn fuzz(&mut self, ctx: &mut FuzzCtx<'_>) -> Option<FuzzReport> {
        let mut merged: Option<FuzzReport> = None;
        let mut round = 0u64;
        while (round as usize) < self.max_rounds {
            let remaining = ctx.remaining();
            if remaining == Some(0) {
                break;
            }
            let mut config = self.config.clone();
            config.seed = ctx
                .stream_seed(self.config.seed ^ 0x4C32)
                .wrapping_add(round);
            if let Some(remaining) = remaining {
                config.max_packets = if config.max_packets == 0 {
                    remaining as usize
                } else {
                    config.max_packets.min(remaining as usize)
                };
            }
            let before = ctx.link.frames_sent();
            let round_start_secs = ctx.clock.now().as_secs();
            let meta = ctx.meta.clone();
            let clock = ctx.clock.clone();
            let retry = ctx.retry;
            let (link, oracle) = ctx.link_and_oracle();
            let mut report = self.session(&config, &clock, retry, link, meta, oracle);
            report.elapsed_secs = ctx.clock.now().as_secs();
            for finding in &mut report.findings {
                finding.elapsed_secs += round_start_secs;
            }
            let vulnerable = report.vulnerable();
            let stalled = ctx.link.frames_sent() == before;
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
            round += 1;
            if (vulnerable && self.config.stop_at_first_vulnerability) || stalled {
                break;
            }
        }
        if let Some(sink) = &self.sink {
            sink.lock().add(&self.spans);
            self.spans = Spans::default();
        }
        merged
    }
}
