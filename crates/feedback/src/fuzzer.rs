//! The coverage-guided fuzzer: the session driver under a feedback plan.
//!
//! [`FeedbackFuzzer`] runs the same four-phase driver as the dictionary
//! tool ([`L2FuzzSession::run_plan`](l2fuzz::session::L2FuzzSession::run_plan),
//! through [`run_rounds`]) with a different packet plan.  Instead of a
//! fixed packet count per state, an [`EnergySchedule`] divides each round's
//! pool across the states, and each test packet is either a fresh
//! dictionary mutation or one of the splice / havoc /
//! resend-with-field-mutation operators applied to a retained
//! [`CorpusEntry`] of the current state.  Every packet's outcome feeds the
//! coverage signature that decides what the corpus retains.  Every random
//! decision derives from the campaign's per-target seed stream (domain
//! label `0xFEED`), so feedback campaigns replay bit-for-bit at any
//! worker thread count.

use std::collections::BTreeMap;

use btcore::{FuzzRng, Identifier, LinkType};
use hci::link::Direction;
use l2cap::code::CommandCode;
use l2cap::jobs::job_of;
use l2cap::packet::SignalingPacket;
use l2cap::state::ChannelState;
use l2fuzz::config::FuzzConfig;
use l2fuzz::fuzzer::{FuzzCtx, Fuzzer};
use l2fuzz::guide::{ChannelContext, StateGuide};
use l2fuzz::mutator::CoreFieldMutator;
use l2fuzz::queue::SendOutcome;
use l2fuzz::report::FuzzReport;
use l2fuzz::session::{run_rounds, PacketPlan};
use sniffer::coverage::CoverageBuilder;

use crate::corpus::{CorpusEntry, FeedbackCorpus, NoveltyKey, ResponseClass};
use crate::hub::CorpusHub;
use crate::schedule::{EnergyAllocation, EnergySchedule};

/// Domain-separation label for the feedback round-seed stream (disjoint from
/// the session engine's `0x4C32` stream, so a feedback campaign and a
/// dictionary campaign under the same campaign seed draw independent bytes).
const FEEDBACK_DOMAIN: u64 = 0xFEED;

/// Configuration of a feedback campaign.
#[derive(Clone)]
pub struct FeedbackConfig {
    /// The underlying session configuration (mutation switches, budgets,
    /// seed).  `max_packets` caps each unit exactly as in dictionary mode.
    pub base: FuzzConfig,
    /// Rounds to run per unit before giving up on a hardened target.
    pub max_rounds: usize,
    /// Malformed-packet pool the energy scheduler divides per round.
    pub round_budget: u64,
    /// Probability that a test packet replays a corpus entry (when the
    /// current state has any) instead of drawing from the dictionary.
    pub corpus_ratio: f64,
    /// Entries every unit starts from (e.g. a previous sweep's merged
    /// corpus).
    pub seed_corpus: FeedbackCorpus,
    /// When attached, each unit publishes its finished corpus here under its
    /// per-target seed (see [`CorpusHub`] for the determinism contract).
    pub hub: Option<CorpusHub>,
}

impl Default for FeedbackConfig {
    /// Defaults tuned on the seeded extended-profile targets: short rounds
    /// re-plan the schedule often enough for visit feedback to bite, eight
    /// rounds give hardened targets a fair total budget, and a 30% replay
    /// ratio keeps the dictionary exploring while the corpus exploits.
    fn default() -> Self {
        FeedbackConfig {
            base: FuzzConfig::default(),
            max_rounds: 8,
            round_budget: 300,
            corpus_ratio: 0.3,
            seed_corpus: FeedbackCorpus::new(),
            hub: None,
        }
    }
}

impl FeedbackConfig {
    /// Replaces the underlying session configuration.
    pub fn with_base(mut self, base: FuzzConfig) -> Self {
        self.base = base;
        self
    }

    /// Sets the per-unit round cap.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds.max(1);
        self
    }

    /// Sets the per-round energy pool.
    pub fn with_round_budget(mut self, packets: u64) -> Self {
        self.round_budget = packets.max(1);
        self
    }

    /// Attaches a cross-seed corpus hub.
    pub fn with_hub(mut self, hub: CorpusHub) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Seeds every unit's corpus (second-generation runs replaying a merged
    /// sweep corpus).
    pub fn with_seed_corpus(mut self, corpus: FeedbackCorpus) -> Self {
        self.seed_corpus = corpus;
        self
    }
}

/// The coverage-guided [`Fuzzer`].  Construct via [`FeedbackFuzzer::new`] or
/// select on a campaign with
/// [`crate::FeedbackCampaignExt::feedback`].
pub struct FeedbackFuzzer {
    config: FeedbackConfig,
    plan: FeedbackPlan,
}

impl FeedbackFuzzer {
    /// Creates a fuzzer starting from the configuration's seed corpus.
    pub fn new(config: FeedbackConfig) -> FeedbackFuzzer {
        FeedbackFuzzer {
            plan: FeedbackPlan {
                corpus: config.seed_corpus.clone(),
                visits: BTreeMap::new(),
                corpus_ratio: config.corpus_ratio,
                round_budget: config.round_budget,
                round: None,
            },
            config,
        }
    }

    /// The corpus accumulated so far (the seed corpus plus everything this
    /// fuzzer retained).
    pub fn corpus(&self) -> &FeedbackCorpus {
        &self.plan.corpus
    }
}

impl Fuzzer for FeedbackFuzzer {
    fn name(&self) -> &'static str {
        "L2Fuzz+feedback"
    }

    fn fuzz(&mut self, ctx: &mut FuzzCtx<'_>) -> Option<FuzzReport> {
        let merged = run_rounds(
            ctx,
            &self.config.base,
            FEEDBACK_DOMAIN,
            self.config.max_rounds,
            &mut self.plan,
        );
        if let Some(hub) = &self.config.hub {
            hub.publish(ctx.seed, &self.plan.corpus);
        }
        merged
    }
}

/// The feedback packet plan: energy-scheduled states, corpus-mixed packets,
/// and corpus admission from each packet's observed outcome.  The corpus
/// and the visit counts persist across rounds; everything else lives in
/// the per-session [`Round`].
struct FeedbackPlan {
    corpus: FeedbackCorpus,
    visits: BTreeMap<ChannelState, u64>,
    corpus_ratio: f64,
    round_budget: u64,
    round: Option<Round>,
}

/// One session of the feedback plan.
struct Round {
    link: LinkType,
    /// Corpus-operator and command picks (the session RNG's second fork).
    pick_rng: FuzzRng,
    coverage: CoverageBuilder,
    allocations: std::vec::IntoIter<EnergyAllocation>,
    /// The state being fuzzed and the packets it has left.
    parked: EnergyAllocation,
    commands: Vec<CommandCode>,
}

/// Every hook but [`PacketPlan::arm`] runs inside an armed session.
const ARMED: &str = "the driver arms the plan before a session";

impl Round {
    /// Draws the parked state's next test packet: a corpus replay (resend /
    /// havoc / splice) with probability `corpus_ratio` when the state has
    /// retained entries, a dictionary mutation otherwise.
    fn draw_packet(
        &mut self,
        corpus: &FeedbackCorpus,
        corpus_ratio: f64,
        mutator: &mut CoreFieldMutator,
        ctx: &ChannelContext,
        identifier: Identifier,
    ) -> SignalingPacket {
        let rng = &mut self.pick_rng;
        let here: Vec<&CorpusEntry> = corpus.entries_for(self.parked.state, self.link).collect();
        if !here.is_empty() && rng.chance(corpus_ratio) {
            let base = *rng.pick(&here);
            match rng.range_usize(0, 2) {
                0 => mutator.resend_with_field_mutation(&base.wire, ctx, identifier),
                1 => mutator.havoc(&base.wire, identifier),
                _ => {
                    // Splice against any retained packet of this link, not
                    // just this state — crossing parks is where splice earns
                    // its keep.
                    let partners: Vec<&CorpusEntry> = corpus
                        .entries()
                        .iter()
                        .filter(|e| e.link == self.link)
                        .collect();
                    let partner = *rng.pick(&partners);
                    mutator.splice(&base.wire, &partner.wire, identifier)
                }
            }
        } else {
            let code = *rng.pick(&self.commands);
            mutator.mutate(code, ctx, identifier)
        }
    }
}

impl PacketPlan for FeedbackPlan {
    fn name(&self) -> &'static str {
        "L2Fuzz+feedback"
    }

    fn arm(
        &mut self,
        config: &FuzzConfig,
        link: LinkType,
        rng: &mut FuzzRng,
        mutator: &mut CoreFieldMutator,
    ) {
        // Feedback mode always mutates configuration options on classic
        // links: the retransmission-mode surface lives behind the deep
        // CONFIG/OPEN parks the scheduler favours, exactly where corpus
        // replay pays off.
        mutator.set_config_option_mutation(config.mutate_config_options || !link.is_le());
        let budget = if config.max_packets > 0 {
            self.round_budget.min(config.max_packets as u64)
        } else {
            self.round_budget
        };
        let schedule = EnergySchedule::plan(link, &self.visits, budget);
        self.round = Some(Round {
            link,
            pick_rng: rng.fork(2),
            coverage: CoverageBuilder::for_link(link),
            allocations: schedule.allocations().to_vec().into_iter(),
            parked: EnergyAllocation {
                state: ChannelState::Closed,
                packets: 0,
            },
            commands: Vec::new(),
        });
    }

    fn next_state(&mut self) -> Option<ChannelState> {
        let round = self.round.as_mut().expect(ARMED);
        let alloc = round.allocations.next()?;
        round.parked = alloc;
        // Count the attempt (not the success): a state whose prelude keeps
        // failing must not hoard energy forever.
        *self.visits.entry(alloc.state).or_insert(0) += 1;
        Some(alloc.state)
    }

    fn park(
        &mut self,
        state: ChannelState,
        _ctx: &ChannelContext,
        _mutator: &mut CoreFieldMutator,
        _guide: &mut StateGuide,
    ) {
        let round = self.round.as_mut().expect(ARMED);
        round.commands = job_of(state).generous_valid_commands_on(round.link);
    }

    fn next_packet(
        &mut self,
        ctx: &ChannelContext,
        mutator: &mut CoreFieldMutator,
        guide: &mut StateGuide,
    ) -> Option<SignalingPacket> {
        let round = self.round.as_mut().expect(ARMED);
        if round.parked.packets == 0 {
            return None;
        }
        round.parked.packets -= 1;
        Some(round.draw_packet(
            &self.corpus,
            self.corpus_ratio,
            mutator,
            ctx,
            guide.next_identifier(),
        ))
    }

    fn observe(&mut self, outcome: &SendOutcome) {
        let round = self.round.as_mut().expect(ARMED);
        let packet = &outcome.packet;
        round.coverage.saw_tx_signaling();
        round.coverage.observe(Direction::Tx, packet);
        for response in &outcome.responses {
            round.coverage.observe(
                Direction::Rx,
                &SignalingPacket::new(packet.identifier, response.clone()),
            );
        }
        let key = NoveltyKey {
            signature: round.coverage.signature_snapshot(),
            class: ResponseClass::of(outcome),
        };
        if !self.corpus.contains(key) {
            self.corpus.consider(CorpusEntry {
                state: round.parked.state,
                link: round.link,
                wire: packet.to_bytes(),
                key,
            });
        }
    }
}
