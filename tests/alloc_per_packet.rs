//! Allocation budget of the zero-copy injection pipeline.
//!
//! The frame pipeline's contract (PR 3) is that steady-state packet
//! injection — mutate in an arena buffer, frame it, push it across the
//! virtual air — performs O(1) heap allocations per packet, measured here
//! with a counting global allocator at **≤ 2 allocations per injected
//! packet** (in practice: one `Arc` control block when the mutation buffer
//! is frozen; everything else is recycled through the `FrameArena`).

use std::sync::{Mutex, MutexGuard, PoisonError};

use alloc_counter::{allocations, CountingAllocator};
use btcore::{BdAddr, Cid, DeviceMeta, FuzzRng, Identifier, LinkSlot, Psm, SimClock};
use hci::device::VirtualDevice;
use hci::link::{new_tap, LinkConfig};
use hci::medium::{EventMedium, LinkHandle, LinkSpec, Medium};
use l2cap::code::CommandCode;
use l2cap::packet::L2capFrame;
use l2fuzz::guide::ChannelContext;
use l2fuzz::mutator::CoreFieldMutator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocation counter is process-wide, so the tests in this file take
/// turns: one test's allocations must not land in another's window.
static COUNTER: Mutex<()> = Mutex::new(());

fn exclusive_counter() -> MutexGuard<'static, ()> {
    COUNTER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A registered device that consumes every frame silently: the injection
/// path is measured without the target's own response allocations.
struct SilentDevice {
    meta: DeviceMeta,
}

impl VirtualDevice for SilentDevice {
    fn meta(&self) -> DeviceMeta {
        self.meta.clone()
    }
    fn receive(&mut self, _slot: LinkSlot, _frame: &L2capFrame) -> Vec<L2capFrame> {
        Vec::new()
    }
    fn bluetooth_alive(&self) -> bool {
        true
    }
}

fn silent_medium() -> (EventMedium, BdAddr) {
    let mut air = EventMedium::new(SimClock::new());
    let addr = BdAddr::new([0xAA, 0xBB, 0xCC, 0x00, 0x00, 0x01]);
    air.register(Box::new(SilentDevice {
        meta: DeviceMeta::new(addr, "silent", btcore::DeviceClass::Other),
    }));
    (air, addr)
}

fn silent_link() -> LinkHandle {
    let (mut air, addr) = silent_medium();
    air.connect(addr, LinkConfig::ideal(), FuzzRng::seed_from(7))
        .unwrap()
}

fn inject(mutator: &mut CoreFieldMutator, link: &mut LinkHandle, ctx: &ChannelContext, n: u32) {
    for i in 0..n {
        let packet = mutator.mutate(
            CommandCode::ConfigureRequest,
            ctx,
            Identifier((i % 250 + 1) as u8),
        );
        let frame = packet.to_frame_in(link.arena());
        let responses = link.send_frame(&frame);
        assert!(responses.is_empty());
    }
}

#[test]
fn steady_state_injection_allocates_at_most_two_per_packet() {
    let _counter = exclusive_counter();
    let ctx = ChannelContext {
        scid: Cid(0x0040),
        dcid: Cid(0x0041),
        psm: Psm::SDP,
    };

    // Untapped link: buffers recycle through the arena each exchange.
    let mut link = silent_link();
    let mut mutator = CoreFieldMutator::new(FuzzRng::seed_from(42));
    // Warm-up: populate the arena pools and any lazily-allocated state.
    inject(&mut mutator, &mut link, &ctx, 64);

    const PACKETS: u32 = 1_000;
    let before = allocations();
    inject(&mut mutator, &mut link, &ctx, PACKETS);
    let total = allocations() - before;
    let per_packet = total as f64 / f64::from(PACKETS);
    assert!(
        per_packet <= 2.0,
        "steady-state injection allocates {per_packet:.3} times per packet \
         ({total} allocations for {PACKETS} packets); the pipeline budget is 2"
    );

    // With a tap attached every frame is retained by the capture, so its
    // buffer cannot recycle — the budget grows by the retained backing store
    // (one Vec per packet) but stays O(1).
    let mut link = silent_link();
    let tap = new_tap();
    link.attach_tap(tap.clone());
    inject(&mut mutator, &mut link, &ctx, 64);
    let before = allocations();
    inject(&mut mutator, &mut link, &ctx, PACKETS);
    let total = allocations() - before;
    let per_packet = total as f64 / f64::from(PACKETS);
    assert!(
        per_packet <= 4.0,
        "tapped injection allocates {per_packet:.3} times per packet; budget is 4"
    );
    assert!(tap.lock().len() >= PACKETS as usize);
}

/// Allocations made by a whole two-initiator session: both links connect
/// to one silent device, then two threads inject `packets` packets each
/// through the shared turnstile and retire.
fn two_link_session(ctx: &ChannelContext, packets: u32) -> u64 {
    let before = allocations();
    let (mut air, addr) = silent_medium();
    let links: Vec<LinkHandle> = (0..2u64)
        .map(|i| {
            let spec = LinkSpec::new(addr, LinkConfig::ideal(), FuzzRng::seed_from(7 + i))
                .with_clock(SimClock::new());
            air.connect_spec(spec).unwrap()
        })
        .collect();
    std::thread::scope(|scope| {
        for (i, mut link) in links.into_iter().enumerate() {
            scope.spawn(move || {
                let mut mutator = CoreFieldMutator::new(FuzzRng::seed_from(42 + i as u64));
                inject(&mut mutator, &mut link, ctx, packets);
                link.retire();
            });
        }
    });
    assert_eq!(air.events_fired(), 2 * u64::from(packets));
    allocations() - before
}

#[test]
fn contended_turnstile_allocates_at_most_two_per_packet() {
    let _counter = exclusive_counter();
    // Two initiators share one target, so every exchange takes the
    // turnstile's slow path: parking, unparking and the waiter's thread
    // handle must allocate nothing per event.  The session's fixed cost
    // (medium, links, threads, arena warm-up) cancels out between a short
    // and a long session; the rest is the steady-state cost per packet.
    let ctx = ChannelContext {
        scid: Cid(0x0040),
        dcid: Cid(0x0041),
        psm: Psm::SDP,
    };
    const WARM_UP: u32 = 64;
    const PACKETS: u32 = 1_000;
    let fixed = two_link_session(&ctx, WARM_UP);
    let total = two_link_session(&ctx, WARM_UP + PACKETS);
    let steady = total.saturating_sub(fixed);
    let per_packet = steady as f64 / f64::from(2 * PACKETS);
    assert!(
        per_packet <= 2.0,
        "contended injection allocates {per_packet:.3} times per packet \
         ({steady} allocations for {} packets); the pipeline budget is 2",
        2 * PACKETS
    );
}

#[test]
fn tap_records_share_the_injected_frames_buffers() {
    let _counter = exclusive_counter();
    // The capture pipeline is zero-copy end-to-end: the record a tap holds
    // is a view into the very buffer the mutator filled.
    let ctx = ChannelContext {
        scid: Cid(0x0040),
        dcid: Cid(0x0041),
        psm: Psm::SDP,
    };
    let mut link = silent_link();
    let tap = new_tap();
    link.attach_tap(tap.clone());
    let mut mutator = CoreFieldMutator::new(FuzzRng::seed_from(1));
    let packet = mutator.mutate(CommandCode::ConfigureRequest, &ctx, Identifier(1));
    let frame = packet.to_frame_in(link.arena());
    assert!(
        frame.payload.shares_storage_with(&packet.data),
        "framing a mutated packet must reuse the mutation buffer"
    );
    link.send_frame(&frame);
    let records = tap.lock();
    assert_eq!(records.len(), 1);
    assert!(
        records[0].frame.payload.shares_storage_with(&packet.data),
        "the tap record must borrow the mutation buffer, not copy it"
    );
}
