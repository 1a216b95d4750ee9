//! The deterministic event core of the asynchronous medium.
//!
//! The medium is event-driven: every frame exchange is an *event* with a
//! virtual timestamp, and events fire in a total order that is a pure
//! function of the campaign seed — never of OS scheduling.  [`EventScheduler`] is the
//! ordered queue of pending events that makes this work: each link
//! registers as an *event source* with its own virtual-time lower bound,
//! and a source may fire only while it holds the global minimum
//! `(time, source)` stamp among the queued and still-possible events.
//! Sources that run on different OS threads therefore interleave in
//! exactly one order, and every fired event gets a deterministic sequence
//! number and a per-event RNG seed derived from it.
//!
//! The scheduler is *conservative* in the discrete-event-simulation sense: a
//! source's local clock never moves backwards, so once a source holds the
//! minimum stamp nothing can preempt it.  A source that is busy computing
//! (its fuzzer is mutating packets) simply holds the others at the
//! turnstile until it either fires or retires — wall-clock stalls never
//! reorder virtual time.
//!
//! The turnstile hands the right to fire directly to one thread.  Every
//! state change (a source queueing up, finishing an event, retiring) ends in
//! one admission step: if nobody is firing and the minimum live source is
//! waiting, that source is marked firing and *its* thread — and only its
//! thread — is unparked.  One event therefore costs at most one wake-up, and
//! a thread never wakes just to find it still may not fire.  Initiators on
//! one target never run in parallel; the handoff is the whole cost of
//! sharing a target.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, Thread};

use crate::rng::splitmix64;

/// Identifier of one event source registered on an [`EventScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u16);

/// What one admitted event carries: its global sequence number and the seed
/// every random decision made *while firing it* must derive from.
#[derive(Debug, Clone, Copy)]
pub struct EventTicket {
    /// Position of this event in the global firing order (0-based).
    pub seq: u64,
    /// Per-event RNG seed: `splitmix64` over the scheduler seed, the firing
    /// order and the source, so no two events share a stream and the stream
    /// does not depend on how many events *other* sources fired in between.
    pub seed: u64,
    /// Whether the event was admitted on the sole-source fast path (no
    /// turnstile state was touched, so [`EventScheduler::end_event`] has
    /// nothing to restore).
    fast: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SourceState {
    /// Computing: the source's next event fires no earlier than its local
    /// lower-bound time.
    Idle,
    /// Parked at the turnstile wanting to fire at its lower-bound time.
    Waiting,
    /// Admitted: currently firing an event.  At most one source at a time.
    Firing,
    /// Finished: never fires again and never holds anyone back.
    Retired,
}

#[derive(Debug)]
struct Source {
    /// Lower bound on the virtual time of this source's next event.  Never
    /// decreases.
    time_micros: u64,
    state: SourceState,
    /// The thread parked in [`EventScheduler::begin_event`] while the source
    /// is `Waiting`; taken when the source is admitted.
    waiter: Option<Thread>,
}

#[derive(Debug)]
struct SchedulerState {
    sources: Vec<Source>,
}

impl SchedulerState {
    /// The admission step.  If no source is firing and the minimum live
    /// `(time, id)` source is waiting, marks it firing and returns its
    /// parked thread.  An idle minimum admits nobody: that source may still
    /// fire earlier than everyone queued behind it.
    fn admit_next(&mut self) -> Option<Thread> {
        let mut next: Option<&mut Source> = None;
        for s in &mut self.sources {
            match s.state {
                SourceState::Firing => return None,
                SourceState::Retired => {}
                // Strict `<` keeps the lower id on a tie.
                SourceState::Idle | SourceState::Waiting => {
                    if next.as_ref().is_none_or(|n| s.time_micros < n.time_micros) {
                        next = Some(s);
                    }
                }
            }
        }
        let s = next.filter(|s| s.state == SourceState::Waiting)?;
        s.state = SourceState::Firing;
        s.waiter.take()
    }
}

/// The turnstile serializing concurrent event sources into one
/// deterministic firing order.
///
/// With a single live source the scheduler is a formality: the fast path
/// admits the event with one atomic increment — no lock, no wake-up — so
/// single-initiator campaigns pay essentially nothing per exchange.  The
/// fast path stays because the handoff, cheap as it is, still takes the
/// lock twice per event.  It is sound because sources must be registered
/// *before* concurrent driving begins (the campaign harness connects every
/// link, then spawns the initiator threads): while `active == 1`, the sole
/// live source is by construction the caller, and there is nobody to order
/// against or wake.
///
/// With several live sources each event is a handoff: the thread that
/// finishes an event (or queues up, or retires) admits the next source
/// itself and unparks exactly that source's thread.  [`wakeups`] counts
/// these unparks; it never exceeds the number of events fired plus the
/// number of retirements.
///
/// [`wakeups`]: EventScheduler::wakeups
#[derive(Debug)]
pub struct EventScheduler {
    state: Mutex<SchedulerState>,
    seed: u64,
    /// Sources that have not retired.  Kept outside the mutex so the
    /// sole-source fast path is a single atomic load.
    active: AtomicUsize,
    /// Global firing counter; shared by both admission paths so per-event
    /// seeds are identical no matter which path admitted an event.
    fired: AtomicU64,
    /// Threads unparked by the handoff.
    wakeups: AtomicU64,
}

impl EventScheduler {
    /// Creates a scheduler whose per-event seeds derive from `seed`.
    pub fn new(seed: u64) -> Self {
        EventScheduler {
            state: Mutex::new(SchedulerState {
                sources: Vec::new(),
            }),
            seed,
            active: AtomicUsize::new(0),
            fired: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
        }
    }

    /// Registers a new event source starting at the given virtual time.
    ///
    /// Registration must happen before concurrent driving begins: the
    /// sole-source fast path assumes the set of live sources only changes
    /// between events of the remaining source.
    pub fn register(&self, time_micros: u64) -> SourceId {
        // analyzer: allow(panic) — a poisoned scheduler lock means a driver
        // thread already panicked; propagating is the only sound move.  The
        // source-count cast is a structural capacity bound, not input data.
        let mut state = self.state.lock().expect("scheduler poisoned");
        let id = SourceId(u16::try_from(state.sources.len()).expect("too many event sources"));
        state.sources.push(Source {
            time_micros,
            state: SourceState::Idle,
            waiter: None,
        });
        self.active.fetch_add(1, Ordering::Release);
        id
    }

    /// Number of sources that have not retired.
    pub fn active_sources(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Total events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired.load(Ordering::Acquire)
    }

    /// Total threads the handoff has unparked so far: at most one per
    /// event fired or source retired, and zero on the fast path.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Acquire)
    }

    fn ticket(&self, seq: u64, fast: bool) -> EventTicket {
        EventTicket {
            seq,
            seed: splitmix64(self.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            fast,
        }
    }

    /// Unparks the thread an admission step picked, if any.  Called with
    /// the scheduler lock released, so the woken thread does not block on
    /// it straight away.
    fn hand_off(&self, admitted: Option<Thread>) {
        if let Some(thread) = admitted {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            thread.unpark();
        }
    }

    /// Blocks until source `id` may fire an event at virtual time
    /// `time_micros`, then admits it.  The caller *must* pair this with
    /// [`EventScheduler::end_event`].
    ///
    /// # Panics
    /// Panics if the source is retired or `time_micros` is below the
    /// source's current lower bound (virtual time cannot run backwards).
    pub fn begin_event(&self, id: SourceId, time_micros: u64) -> EventTicket {
        if self.active.load(Ordering::Acquire) == 1 {
            // Sole live source — nothing to order against, nobody to wake.
            // Its stored lower bound may go stale, which is conservative: a
            // source registered later only ever waits *longer* on it, and
            // the bound refreshes on this source's next slow-path event.
            let seq = self.fired.fetch_add(1, Ordering::Relaxed);
            return self.ticket(seq, true);
        }
        // analyzer: allow(panic) — lock poisoning propagates a driver panic.
        let mut state = self.state.lock().expect("scheduler poisoned");
        {
            let me = &mut state.sources[id.0 as usize];
            assert!(
                me.state == SourceState::Idle,
                "source {id:?} is not idle (state {:?})",
                me.state
            );
            assert!(
                time_micros >= me.time_micros,
                "source {id:?} tried to fire at {time_micros} < lower bound {}",
                me.time_micros
            );
            me.time_micros = time_micros;
            me.state = SourceState::Waiting;
            me.waiter = Some(thread::current());
        }
        let admitted = state.admit_next();
        if state.sources[id.0 as usize].state != SourceState::Firing {
            drop(state);
            // Raising this source's lower bound may be exactly what another
            // waiter was blocked on.
            self.hand_off(admitted);
            // Whoever admits this source unparks it; a wake-up that finds it
            // still waiting is spurious.
            loop {
                thread::park();
                // analyzer: allow(panic) — lock poisoning propagates a panic.
                let state = self.state.lock().expect("scheduler poisoned");
                if state.sources[id.0 as usize].state == SourceState::Firing {
                    break;
                }
            }
        }
        let seq = self.fired.fetch_add(1, Ordering::Relaxed);
        self.ticket(seq, false)
    }

    /// Completes the event `ticket` admitted for source `id`, raising the
    /// source's lower bound to `time_micros` (the virtual time the exchange
    /// ended at) and handing the turnstile to the next source.
    pub fn end_event(&self, id: SourceId, time_micros: u64, ticket: &EventTicket) {
        if ticket.fast {
            // Fast-path admission touched no turnstile state.
            return;
        }
        // analyzer: allow(panic) — lock poisoning propagates a driver panic.
        let mut state = self.state.lock().expect("scheduler poisoned");
        let me = &mut state.sources[id.0 as usize];
        debug_assert_eq!(me.state, SourceState::Firing);
        me.time_micros = me.time_micros.max(time_micros);
        me.state = SourceState::Idle;
        let next = state.admit_next();
        drop(state);
        self.hand_off(next);
    }

    /// Retires a source: it never fires again and stops holding the other
    /// sources back.  Idempotent.  A source retired while firing (its
    /// thread unwinding from a panic) releases the turnstile too.
    pub fn retire(&self, id: SourceId) {
        // analyzer: allow(panic) — lock poisoning propagates a driver panic.
        let mut state = self.state.lock().expect("scheduler poisoned");
        let me = &mut state.sources[id.0 as usize];
        if me.state == SourceState::Retired {
            return;
        }
        me.state = SourceState::Retired;
        self.active.fetch_sub(1, Ordering::Release);
        let next = state.admit_next();
        drop(state);
        self.hand_off(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_source_never_blocks() {
        let sched = EventScheduler::new(1);
        let id = sched.register(0);
        for (i, t) in [0u64, 10, 25].into_iter().enumerate() {
            let ticket = sched.begin_event(id, t);
            sched.end_event(id, t + 5, &ticket);
            assert_eq!(ticket.seq, i as u64);
        }
        assert_eq!(sched.events_fired(), 3);
    }

    #[test]
    fn per_event_seeds_are_deterministic_and_distinct() {
        let run = || {
            let sched = EventScheduler::new(42);
            let id = sched.register(0);
            (0..4)
                .map(|i| {
                    let t = sched.begin_event(id, i * 10);
                    sched.end_event(id, i * 10 + 1, &t);
                    t.seed
                })
                .collect::<Vec<u64>>()
        };
        let a = run();
        assert_eq!(a, run());
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "event seeds must be distinct");
    }

    #[test]
    fn two_threads_interleave_by_virtual_time() {
        // Source 0 fires at times 0,2,4,...; source 1 at 1,3,5,...  The
        // admitted order must be by virtual time no matter how the OS
        // schedules the two threads.
        let sched = Arc::new(EventScheduler::new(7));
        let a = sched.register(0);
        let b = sched.register(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for (id, start) in [(a, 0u64), (b, 1u64)] {
                let sched = Arc::clone(&sched);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    for k in 0..50u64 {
                        let t = start + 2 * k;
                        let ticket = sched.begin_event(id, t);
                        order.lock().unwrap().push((ticket.seq, t));
                        sched.end_event(id, t + 1, &ticket);
                    }
                    sched.retire(id);
                });
            }
        });
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 100);
        for (seq, t) in order.iter() {
            assert_eq!(*seq, *t, "event at virtual time {t} fired as #{seq}");
        }
    }

    #[test]
    fn retiring_releases_waiters() {
        let sched = Arc::new(EventScheduler::new(9));
        let early = sched.register(0);
        let late = sched.register(100);
        assert_eq!(sched.active_sources(), 2);
        std::thread::scope(|scope| {
            let s = Arc::clone(&sched);
            // The late source can only fire once the early one retires.
            let waiter = scope.spawn(move || {
                let ticket = s.begin_event(late, 100);
                s.end_event(late, 101, &ticket);
                s.retire(late);
                ticket.seq
            });
            let ticket = sched.begin_event(early, 0);
            sched.end_event(early, 1, &ticket);
            assert_eq!(ticket.seq, 0);
            sched.retire(early);
            assert_eq!(waiter.join().unwrap(), 1);
        });
        assert_eq!(sched.active_sources(), 0);
    }

    #[test]
    fn tied_sources_fire_in_time_then_id_order() {
        // Eight sources start together and every event time ties across all
        // of them: the tie-break alone orders each round, so the admitted
        // order must be sorted by (time, id) and `seq` must be the position.
        const SOURCES: u16 = 8;
        let sched = EventScheduler::new(3);
        let ids: Vec<SourceId> = (0..SOURCES).map(|_| sched.register(0)).collect();
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for &id in &ids {
                let (sched, order) = (&sched, &order);
                scope.spawn(move || {
                    for k in 0..20u64 {
                        let t = 10 * k;
                        let ticket = sched.begin_event(id, t);
                        order.lock().unwrap().push((ticket.seq, t, id));
                        sched.end_event(id, t, &ticket);
                    }
                    sched.retire(id);
                });
            }
        });
        let mut order = order.into_inner().unwrap();
        order.sort_unstable();
        assert_eq!(order.len(), 20 * usize::from(SOURCES));
        for (pos, event) in order.iter().enumerate() {
            assert_eq!(event.0, pos as u64, "seq is not the firing position");
        }
        assert!(
            order
                .windows(2)
                .all(|w| (w[0].1, w[0].2) < (w[1].1, w[1].2)),
            "admitted order is not sorted by (time, source id)"
        );
    }

    /// Retires its source when dropped, like the medium's link guard.
    struct RetireOnDrop<'a>(&'a EventScheduler, SourceId);

    impl Drop for RetireOnDrop<'_> {
        fn drop(&mut self) {
            self.0.retire(self.1);
        }
    }

    #[test]
    fn firing_source_retired_by_an_unwind_admits_the_next_waiter() {
        let sched = EventScheduler::new(5);
        let first = sched.register(0);
        let second = sched.register(0);
        std::thread::scope(|scope| {
            let sched = &sched;
            let panicking = scope.spawn(move || {
                let _guard = RetireOnDrop(sched, first);
                let _ticket = sched.begin_event(first, 0);
                // Hold the turnstile until the other source queues up on it.
                while sched.state.lock().unwrap().sources[second.0 as usize].state
                    == SourceState::Idle
                {
                    std::thread::yield_now();
                }
                panic!("initiator failed mid-event");
            });
            let waiter = scope.spawn(move || {
                let ticket = sched.begin_event(second, 0);
                sched.end_event(second, 1, &ticket);
                sched.retire(second);
                ticket.seq
            });
            assert!(panicking.join().is_err());
            assert_eq!(waiter.join().unwrap(), 1);
        });
        assert_eq!(sched.active_sources(), 0);
    }

    #[test]
    fn handoff_wakes_at_most_one_thread_per_event() {
        for threads in [2u16, 4, 8] {
            let sched = EventScheduler::new(11);
            let ids: Vec<SourceId> = (0..threads).map(|i| sched.register(u64::from(i))).collect();
            std::thread::scope(|scope| {
                for &id in &ids {
                    let sched = &sched;
                    scope.spawn(move || {
                        for k in 0..200u64 {
                            let t = u64::from(id.0) + u64::from(threads) * k;
                            let ticket = sched.begin_event(id, t);
                            sched.end_event(id, t + 1, &ticket);
                        }
                        sched.retire(id);
                    });
                }
            });
            let retirements = u64::from(threads);
            assert_eq!(sched.events_fired(), 200 * retirements);
            assert!(
                sched.wakeups() <= sched.events_fired() + retirements,
                "{threads} threads: {} wake-ups for {} events and {retirements} retirements",
                sched.wakeups(),
                sched.events_fired()
            );
        }
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn time_cannot_run_backwards() {
        let sched = EventScheduler::new(0);
        let id = sched.register(50);
        // A second source forces the slow path, where the bound is checked.
        let _other = sched.register(1_000_000);
        sched.begin_event(id, 10);
    }
}
