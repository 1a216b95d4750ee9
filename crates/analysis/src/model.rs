//! Exhaustive exploration of the protocol model — no packets on the air.
//!
//! The state space is tiny (19 states × 26 commands × 2 link types), so the
//! model checker can afford to be exact: a breadth-first search over the
//! *resting* states of [`StateMachine`], where one edge is "park a machine
//! in state `r`, feed it one input, record every state the machine visits
//! while handling it and the state it comes to rest in".  Stepping goes
//! through [`StateMachine::advance`] itself — the same code the simulated
//! devices and the coverage replay execute — so the exploration certifies
//! the implementation, not a re-derived copy of its semantics.
//!
//! Because edges are explored in breadth-first order and inputs in numeric
//! command order, the first witness recorded for a state is a *minimal*
//! command sequence (and the lexicographically least among the minimal
//! ones), which makes witnesses stable across runs and usable as the state
//! guide's driving sequences.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use btcore::LinkType;
use l2cap::code::CommandCode;
use l2cap::state::{ChannelState, StateMachine};
use serde::Serialize;

/// One input fed to the machine: a received signalling command plus the
/// upper layer's accept/refuse decision for connection-establishing
/// requests (`accept` is ignored by every other command).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct Input {
    /// The signalling command the target receives.
    pub code: CommandCode,
    /// Whether the upper layer accepts a connection/creation request.
    pub accept: bool,
}

impl Input {
    /// An accepted command (the common case; minimal witnesses never need a
    /// refusal, since a refused connect only revisits states the accepting
    /// path reaches anyway).
    pub fn accepted(code: CommandCode) -> Input {
        Input { code, accept: true }
    }
}

/// A replayable command sequence proving a `(state, link)` pair reachable:
/// feeding `inputs` into a fresh [`StateMachine::for_link`] machine visits
/// `state`.  [`Witness::replay`] re-executes exactly that check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Witness {
    /// The state this witness reaches.
    pub state: ChannelState,
    /// The transport the witness drives.
    pub link: LinkType,
    /// The minimal input sequence; empty for the initial `CLOSED` state.
    pub inputs: Vec<Input>,
}

impl Witness {
    /// Replays the witness through a fresh production machine and returns
    /// the machine, so callers can inspect both the visited set and the
    /// resting state.
    pub fn replay_machine(&self) -> StateMachine {
        let mut machine = StateMachine::for_link(self.link);
        for input in &self.inputs {
            machine.advance(input.code, input.accept);
        }
        machine
    }

    /// Returns `true` if replaying the witness through
    /// [`StateMachine::advance`] visits [`Witness::state`] — the
    /// reachability certificate.
    pub fn replay(&self) -> bool {
        self.replay_machine().visited().contains(&self.state)
    }

    /// The state the machine rests in after the full witness.
    pub fn resting_state(&self) -> ChannelState {
        self.replay_machine().state()
    }

    /// The command codes of the witness, in order.
    pub fn codes(&self) -> Vec<CommandCode> {
        self.inputs.iter().map(|i| i.code).collect()
    }
}

/// The connection-establishing requests whose `accept = false` path exists
/// on the given link (the refusable connects of
/// `StateMachine::on_command`).
fn refusable_connects(link: LinkType) -> &'static [CommandCode] {
    match link {
        LinkType::BrEdr => &[
            CommandCode::ConnectionRequest,
            CommandCode::CreateChannelRequest,
        ],
        LinkType::Le => &[
            CommandCode::LeCreditBasedConnectionRequest,
            CommandCode::CreditBasedConnectionRequest,
        ],
    }
}

/// Every input the exploration feeds the machine, in deterministic order:
/// all 26 commands accepted (numeric order), then the link's refusable
/// connects refused.
pub fn all_inputs(link: LinkType) -> Vec<Input> {
    let mut inputs: Vec<Input> = CommandCode::ALL
        .iter()
        .copied()
        .map(Input::accepted)
        .collect();
    inputs.extend(refusable_connects(link).iter().map(|&code| Input {
        code,
        accept: false,
    }));
    inputs
}

/// One explored edge: parking a machine in `from` and feeding it `input`
/// visits `visited` (in order, excluding `from` itself) and rests in `rest`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// The resting state the input was fed in.
    pub from: ChannelState,
    /// The input fed.
    pub input: Input,
    /// States newly visited while handling the input, in visit order.
    pub visited: Vec<ChannelState>,
    /// The state the machine comes to rest in.
    pub rest: ChannelState,
}

/// Parks a production machine in `state` and feeds it one input.
pub fn step(link: LinkType, eager: bool, state: ChannelState, input: Input) -> Edge {
    let mut machine = StateMachine::at(state, link).with_eager(eager);
    machine.advance(input.code, input.accept);
    Edge {
        from: state,
        input,
        visited: machine.visited()[1..].to_vec(),
        rest: machine.state(),
    }
}

/// The result of exhaustively exploring one machine variant: the true
/// reachable set with a minimal witness per state, the set of resting
/// states, and every explored edge.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The transport explored.
    pub link: LinkType,
    /// Whether the machine initiates its own Configuration Request.
    pub eager: bool,
    /// Minimal witness per reachable state (visited at least once over any
    /// input word), in state order.
    pub witnesses: BTreeMap<ChannelState, Witness>,
    /// States the machine can come to *rest* in (a strict subset of the
    /// reachable set: pass-through states are visited but never rested in).
    pub resting: BTreeSet<ChannelState>,
    /// Every edge explored from a resting state.
    pub edges: Vec<Edge>,
}

impl Exploration {
    /// Breadth-first exploration of one machine variant from `CLOSED`.
    pub fn run(link: LinkType, eager: bool) -> Exploration {
        let inputs = all_inputs(link);
        let mut witnesses = BTreeMap::new();
        witnesses.insert(
            ChannelState::Closed,
            Witness {
                state: ChannelState::Closed,
                link,
                inputs: Vec::new(),
            },
        );
        let mut resting = BTreeSet::new();
        resting.insert(ChannelState::Closed);
        let mut words: BTreeMap<ChannelState, Vec<Input>> = BTreeMap::new();
        words.insert(ChannelState::Closed, Vec::new());
        let mut queue = VecDeque::new();
        queue.push_back(ChannelState::Closed);
        let mut edges = Vec::new();

        while let Some(from) = queue.pop_front() {
            let word = words.get(&from).cloned().unwrap_or_default();
            for &input in &inputs {
                let edge = step(link, eager, from, input);
                for &visited in &edge.visited {
                    witnesses.entry(visited).or_insert_with(|| {
                        let mut inputs = word.clone();
                        inputs.push(input);
                        Witness {
                            state: visited,
                            link,
                            inputs,
                        }
                    });
                }
                if resting.insert(edge.rest) {
                    let mut inputs = word.clone();
                    inputs.push(input);
                    words.insert(edge.rest, inputs);
                    queue.push_back(edge.rest);
                }
                edges.push(edge);
            }
        }

        Exploration {
            link,
            eager,
            witnesses,
            resting,
            edges,
        }
    }

    /// The reachable set, in `ChannelState::ALL` order.
    pub fn reachable(&self) -> Vec<ChannelState> {
        ChannelState::ALL
            .iter()
            .copied()
            .filter(|s| self.witnesses.contains_key(s))
            .collect()
    }
}

/// The certified model of one transport: the deployed machine variant
/// (eager configuration on BR/EDR, plain on LE) that witnesses and guide
/// plans are derived from, plus — on BR/EDR — the non-eager variant, whose
/// resting states keep the `WAIT_SEND_CONFIG` rows live.
#[derive(Debug, Clone)]
pub struct LinkModel {
    /// The transport modelled.
    pub link: LinkType,
    /// The deployed variant (eager on BR/EDR).
    pub deployed: Exploration,
    /// The non-eager variant ([`StateMachine::without_eager_config`]);
    /// `None` on LE, where eager configuration does not exist.
    pub non_eager: Option<Exploration>,
}

impl LinkModel {
    /// Explores the given transport.
    pub fn compute(link: LinkType) -> LinkModel {
        let deployed = Exploration::run(link, link == LinkType::BrEdr);
        let non_eager = match link {
            LinkType::BrEdr => Some(Exploration::run(link, false)),
            LinkType::Le => None,
        };
        LinkModel {
            link,
            deployed,
            non_eager,
        }
    }

    /// Minimal witness for `state` on this transport, if reachable (from
    /// the deployed variant).
    pub fn witness(&self, state: ChannelState) -> Option<&Witness> {
        self.deployed.witnesses.get(&state)
    }

    /// States the machine can rest in, in *either* variant.
    pub fn resting_union(&self) -> BTreeSet<ChannelState> {
        let mut resting = self.deployed.resting.clone();
        if let Some(non_eager) = &self.non_eager {
            resting.extend(non_eager.resting.iter().copied());
        }
        resting
    }
}

/// The two-transport model, computed once per process.
pub fn link_model(link: LinkType) -> &'static LinkModel {
    use std::sync::OnceLock;
    static BREDR: OnceLock<LinkModel> = OnceLock::new();
    static LE: OnceLock<LinkModel> = OnceLock::new();
    match link {
        LinkType::BrEdr => BREDR.get_or_init(|| LinkModel::compute(LinkType::BrEdr)),
        LinkType::Le => LE.get_or_init(|| LinkModel::compute(LinkType::Le)),
    }
}

/// Minimal witness for `(state, link)`, if the state is reachable by an
/// initiator — the public entry point the fuzzer-side consumers use.
pub fn witness(state: ChannelState, link: LinkType) -> Option<&'static Witness> {
    link_model(link).witness(state)
}

/// Every computed witness for the given transport, in state order.
pub fn witnesses(link: LinkType) -> &'static BTreeMap<ChannelState, Witness> {
    &link_model(link).deployed.witnesses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bredr_reachable_set_matches_the_paper() {
        let model = link_model(LinkType::BrEdr);
        let reachable = model.deployed.reachable();
        assert_eq!(reachable.len(), 13);
        assert_eq!(
            reachable,
            ChannelState::REACHABLE_FROM_INITIATOR
                .iter()
                .copied()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn le_reachable_set_has_five_states() {
        let model = link_model(LinkType::Le);
        assert_eq!(model.deployed.reachable().len(), 5);
    }

    #[test]
    fn every_witness_replays() {
        for link in [LinkType::BrEdr, LinkType::Le] {
            for w in witnesses(link).values() {
                assert!(w.replay(), "{} witness on {:?} must replay", w.state, link);
            }
        }
    }

    #[test]
    fn witnesses_are_minimal_and_deterministic() {
        // OPEN needs the full three-step configuration handshake on BR/EDR
        // and a single connect on LE; the BFS tie-break picks the
        // lexicographically least sequence.
        let open = witness(ChannelState::Open, LinkType::BrEdr).unwrap();
        assert_eq!(
            open.codes(),
            vec![
                CommandCode::ConnectionRequest,
                CommandCode::ConfigureRequest,
                CommandCode::ConfigureResponse,
            ]
        );
        let open_le = witness(ChannelState::Open, LinkType::Le).unwrap();
        assert_eq!(
            open_le.codes(),
            vec![CommandCode::LeCreditBasedConnectionRequest]
        );
    }

    #[test]
    fn non_eager_variant_rests_in_wait_send_config() {
        let model = link_model(LinkType::BrEdr);
        let non_eager = model.non_eager.as_ref().unwrap();
        assert!(non_eager.resting.contains(&ChannelState::WaitSendConfig));
        assert!(!model
            .deployed
            .resting
            .contains(&ChannelState::WaitSendConfig));
    }

    #[test]
    fn responder_states_stay_unreachable() {
        for s in [
            ChannelState::WaitConnectRsp,
            ChannelState::WaitCreateRsp,
            ChannelState::WaitMoveRsp,
            ChannelState::WaitIndFinalRsp,
            ChannelState::WaitFinalRsp,
            ChannelState::WaitControlInd,
        ] {
            assert!(witness(s, LinkType::BrEdr).is_none());
            assert!(witness(s, LinkType::Le).is_none());
        }
    }
}
