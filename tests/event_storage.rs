//! The executor's in-place event-closure storage, seen through the public
//! scheduling API: what it allocates (nothing for a capture of up to 72
//! bytes, one box for a larger or over-aligned one, nothing for a timer's
//! cancel flag, which is a recycled cell) and that a capture is dropped
//! exactly once however its event ends — run, cancelled, abandoned in a
//! dropped simulation, or unwound. Also what a `TimerHandle` may do to a
//! timer that is not its own: nothing; and what cancelled timers may do to
//! the size of the queue they wait in: at most double it.

#![allow(clippy::disallowed_methods, reason = "tests of the desim timer itself")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use desim::{SimDuration, Simulation};

#[path = "common/alloc_meter.rs"]
mod alloc_meter;

const N: u64 = 100_000;

/// Allocations that queue growth may cost while `N` events are outstanding:
/// six doubling buffers (heap, closure slab, slab free list, timer cells,
/// timer-cell free list, sweep scratch) of at most `log2(N) + 1` steps each,
/// and two more for slack.
const GROWTH: u64 = 8 * (N.ilog2() as u64 + 1);

/// Counts how many times it has been dropped.
struct DropCount(Arc<AtomicUsize>);

impl DropCount {
    fn new() -> (Self, Arc<AtomicUsize>) {
        let n = Arc::new(AtomicUsize::new(0));
        (DropCount(Arc::clone(&n)), n)
    }
}

impl Drop for DropCount {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn events_with_72_byte_captures_allocate_only_for_queue_growth() {
    let mut sim = Simulation::new(0u64);
    let (_, calls) = alloc_meter::measure(|| {
        sim.setup(|_, s| {
            for i in 0..N {
                let cap = [i; 9];
                s.schedule_in(SimDuration::from_ns(1 + i % 977), move |w: &mut u64, _| {
                    *w += cap[8] - cap[0] + 1
                });
            }
        });
        sim.run_to_idle();
    });
    assert_eq!(*sim.world(), N);
    assert!(
        calls <= GROWTH,
        "{N} events made {calls} allocations; queue growth explains at most {GROWTH}"
    );
}

#[test]
fn a_cancelled_timer_costs_no_allocation() {
    let mut sim = Simulation::new(0u64);
    let (_, calls) = alloc_meter::measure(|| {
        sim.setup(|_, s| {
            for i in 0..N {
                let cap = [i; 9];
                s.schedule_cancellable_in(SimDuration::from_us(1 + i), move |w: &mut u64, _| {
                    *w += cap[0]
                })
                .cancel();
            }
        });
        sim.run_to_idle();
    });
    assert_eq!(*sim.world(), 0, "no cancelled timer may fire");
    assert!(
        calls <= GROWTH,
        "{N} timers made {calls} allocations; queue growth explains at most {GROWTH}"
    );
}

/// Arm one timer, cancel it and let the queue discard it, `N` times over:
/// every round reuses the cell and the slots of the round before, so once
/// the first round has sized them nothing allocates and nothing is kept.
#[test]
fn arm_cancel_cycles_keep_the_timer_table_at_its_high_water_size() {
    let mut sim = Simulation::new(0u64);
    let cycle = |sim: &mut Simulation<u64>| {
        sim.setup(|_, s| {
            s.schedule_cancellable_in(SimDuration::from_us(1), |w: &mut u64, _| *w += 1)
                .cancel();
        });
        sim.run_to_idle();
    };
    cycle(&mut sim);
    let live = alloc_meter::live_bytes();
    let (_, calls) = alloc_meter::measure(|| {
        for _ in 0..N {
            cycle(&mut sim);
        }
    });
    assert_eq!(*sim.world(), 0, "no cancelled timer may fire");
    assert_eq!(calls, 0, "{N} arm/cancel cycles made {calls} allocations");
    assert_eq!(alloc_meter::live_bytes(), live);
}

/// What stop-and-wait channels do to the queue: every message arms a 20 ms
/// timeout and cancels it when the ack comes, 1.5 ms later, so thirteen
/// disarmed timers sit behind each live one. A message goes out every 7.5 us
/// here, which keeps 200 timers live and would keep 2,467 dead ones queued
/// until they came up. The queue must be sized by the live ones: the memory
/// it ends up holding is bounded by twice what is live, it stops allocating
/// once that is reached (the sweeps that keep it there included), and the
/// run is the one that never armed a timer.
#[test]
fn dead_timers_do_not_size_the_queue() {
    use std::collections::VecDeque;

    use desim::{Scheduler, SimTime, TimerHandle};

    const TICK_NS: u64 = 7_500;
    /// Messages whose ack is outstanding: 1.5 ms of them.
    const UNACKED: usize = 200;
    /// Bytes a queued entry may hold in all buffers together: 32 in the
    /// heap, a closure slot of under 100, a free-list word, and for a timer
    /// its cell, a spare-cell word and a sweep word.
    const ENTRY_BYTES: i64 = 160;

    struct Acks {
        armed: bool,
        unacked: VecDeque<TimerHandle>,
        sent: u64,
        timeouts: u64,
    }

    /// Send one message, take the ack of the one sent 1.5 ms ago.
    fn tick(w: &mut Acks, s: &mut Scheduler<Acks>) {
        if w.armed {
            if w.unacked.len() == UNACKED {
                w.unacked.pop_front().expect("full").cancel();
            }
            w.unacked.push_back(
                s.schedule_cancellable_in(SimDuration::from_us(20_000), |w: &mut Acks, _| {
                    w.timeouts += 1
                }),
            );
        }
        w.sent += 1;
        if w.sent < N {
            s.schedule_in(SimDuration::from_ns(TICK_NS), tick);
        } else {
            w.unacked.drain(..).for_each(|timeout| timeout.cancel());
        }
    }

    // (bytes held at the end, allocations in steady state, end state).
    let run = |armed: bool| {
        let before = alloc_meter::live_bytes();
        let mut sim = Simulation::new(Acks {
            armed,
            unacked: VecDeque::with_capacity(UNACKED),
            sent: 0,
            timeouts: 0,
        });
        sim.setup(tick);
        // Three timeouts in, a queue that kept its dead timers until they
        // came up has long held all it ever will.
        sim.run_until(SimTime::from_ns(60_000_000));
        // Steady state lasts until the last message, 750 ms in; there the
        // free lists grow to take every slot and cell back.
        let (_, calls) = alloc_meter::measure(|| sim.run_until(SimTime::from_ns(700_000_000)));
        let report = sim.run_to_idle();
        let held = alloc_meter::live_bytes() - before;
        let dispatched = sim.events_dispatched();
        let w = sim.world();
        let end = (report.now, dispatched, w.sent, w.timeouts);
        (held, calls, end)
    };
    let (held, calls, end) = run(true);
    let (_, plain_calls, plain_end) = run(false);

    assert_eq!((end.2, end.3), (N, 0), "no cancelled timer may fire");
    assert_eq!(end, plain_end, "the timers left a trace in the run");
    assert_eq!((calls, plain_calls), (0, 0), "allocations in steady state");
    // The outstanding timers and the next tick are live; the queue may hold
    // as many dead again plus the sweep's floor, and a doubling buffer twice
    // that.
    let live = UNACKED as i64 + 1;
    let bound = 2 * (2 * live + 64) * ENTRY_BYTES;
    assert!(
        held <= bound,
        "{held} bytes held for {live} live entries; twice-live sizing explains {bound}"
    );
}

/// ABA: a handle kept past its event names a cell that the next timer has
/// claimed. Cancelling through it must not disarm that timer — whether the
/// old event fired or was cancelled and purged.
#[test]
fn a_stale_handles_cancel_does_not_disarm_the_timer_that_reuses_its_cell() {
    let mut sim = Simulation::new(Vec::<&str>::new());
    let arm = |sim: &Simulation<Vec<&'static str>>, what: &'static str| {
        let mut handle = None;
        sim.setup(|_, s| {
            handle = Some(
                s.schedule_cancellable_in(SimDuration::from_us(1), move |w: &mut Vec<_>, _| {
                    w.push(what)
                }),
            );
        });
        handle.expect("setup ran")
    };
    let fired = arm(&sim, "first");
    sim.run_to_idle();
    // One cell has ever been claimed, and it is free again: `second` gets it.
    let second = arm(&sim, "second");
    fired.cancel();
    sim.run_to_idle();
    assert_eq!(*sim.world(), ["first", "second"]);

    second.cancel(); // already ran: a no-op
    let purged = arm(&sim, "purged");
    purged.cancel();
    sim.run_to_idle();
    let third = arm(&sim, "third");
    purged.cancel();
    second.cancel();
    fired.cancel();
    sim.run_to_idle();
    assert_eq!(*sim.world(), ["first", "second", "third"]);
    drop(third);
}

#[test]
fn a_clone_cancels_and_so_does_a_handle_moved_into_an_event() {
    let mut sim = Simulation::new(Vec::<&str>::new());
    sim.setup(|_, s| {
        let by_clone = s.schedule_cancellable_in(SimDuration::from_us(9), |w: &mut Vec<_>, _| {
            w.push("cancelled through a clone")
        });
        let clone = by_clone.clone();
        drop(by_clone);
        clone.cancel();
        let by_event = s.schedule_cancellable_in(SimDuration::from_us(9), |w: &mut Vec<_>, _| {
            w.push("cancelled from an event")
        });
        s.schedule_in(SimDuration::from_us(1), move |_, _| by_event.cancel());
        s.schedule_cancellable_in(SimDuration::from_us(5), |w: &mut Vec<_>, _| w.push("kept"));
    });
    let report = sim.run_to_idle();
    assert_eq!(*sim.world(), ["kept"]);
    assert_eq!(report.now, desim::SimTime::from_ns(5_000));
}

/// Allocations made by scheduling one event with capture `cap` and running
/// it, on a simulation whose queues are already warm; and what the event
/// read from its capture. `read` must capture nothing, so that `cap` is the
/// whole capture.
fn allocs_for_one_event<C, R>(cap: C, read: R) -> (u64, u64)
where
    C: Send + 'static,
    R: Fn(&C) -> u64 + Send + 'static,
{
    assert_eq!(std::mem::size_of::<R>(), 0);
    let mut sim = Simulation::new(0u64);
    sim.schedule_in(SimDuration::from_ns(1), |w: &mut u64, _| *w += 1);
    sim.run_to_idle();
    let (_, calls) = alloc_meter::measure(|| {
        sim.schedule_in(SimDuration::from_ns(1), move |w: &mut u64, _| {
            *w += read(&cap)
        });
        sim.run_to_idle();
    });
    let got = *sim.world() - 1;
    (calls, got)
}

#[test]
fn oversize_and_over_aligned_captures_fall_back_to_one_box_and_still_run() {
    #[repr(align(16))]
    struct Aligned16(u64);

    let fits = allocs_for_one_event([7u64; 9], |c| c.iter().sum());
    assert_eq!(fits, (0, 63), "a 72-byte capture is stored in place");

    let oversize = allocs_for_one_event([3u64; 16], |c| c.iter().sum());
    assert_eq!(oversize, (1, 48), "a 128-byte capture takes one box");

    let aligned = allocs_for_one_event(Aligned16(41), |c| c.0);
    assert_eq!(aligned, (1, 41), "a 16-aligned capture takes one box");
}

#[test]
fn zero_sized_closures_run() {
    let mut sim = Simulation::new(0u64);
    let (_, calls) = alloc_meter::measure(|| {
        for d in [0, 1, 1, 5] {
            sim.schedule_in(SimDuration::from_ns(d), |w: &mut u64, _| *w += 1);
        }
    });
    sim.run_to_idle();
    assert_eq!(*sim.world(), 4);
    // The first `schedule_in` sizes the scheduler batch and both queues.
    assert!(
        calls <= 8,
        "four captureless events made {calls} allocations"
    );
}

#[test]
fn a_cancelled_timers_capture_is_dropped_once_without_running() {
    let (guard, drops) = DropCount::new();
    let mut sim = Simulation::new(false);
    sim.setup(|_, s| {
        let timer = s.schedule_cancellable_in(SimDuration::from_us(9), move |ran: &mut bool, _| {
            let _held = &guard;
            *ran = true;
        });
        s.schedule_in(SimDuration::from_us(1), move |_, _| timer.cancel());
    });
    assert_eq!(drops.load(Ordering::Relaxed), 0);
    sim.run_to_idle();
    assert!(!*sim.world());
    assert_eq!(drops.load(Ordering::Relaxed), 1);
    drop(sim);
    assert_eq!(drops.load(Ordering::Relaxed), 1);
}

#[test]
fn dropping_a_simulation_drops_each_queued_capture_once() {
    let sim = Simulation::new(0u64);
    // One on the same-instant lane, two on the heap (one of them a timer),
    // one oversize (boxed) capture.
    let counters: Vec<_> = [0u64, 5, 5, 9]
        .into_iter()
        .enumerate()
        .map(|(i, delay)| {
            let (guard, drops) = DropCount::new();
            let pad = [i as u64; 12];
            sim.setup(|_, s| {
                let d = SimDuration::from_ns(delay);
                match i {
                    2 => drop(s.schedule_cancellable_in(d, move |_: &mut u64, _| drop(guard))),
                    3 => s.schedule_in(d, move |w: &mut u64, _| {
                        *w += pad[0];
                        drop(guard)
                    }),
                    _ => s.schedule_in(d, move |_: &mut u64, _| drop(guard)),
                }
            });
            drops
        })
        .collect();
    assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 0));
    drop(sim);
    for (i, c) in counters.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "capture {i}");
    }
}

#[test]
fn a_panicking_event_drops_its_capture_once() {
    let (guard, drops) = DropCount::new();
    let mut sim = Simulation::new(0u64);
    sim.schedule_in(SimDuration::from_ns(3), move |_: &mut u64, _| {
        let _held = &guard;
        panic!("event failed");
    });
    let unwound = catch_unwind(AssertUnwindSafe(|| sim.run_to_idle()));
    assert!(unwound.is_err());
    assert_eq!(drops.load(Ordering::Relaxed), 1);
    drop(sim);
    assert_eq!(drops.load(Ordering::Relaxed), 1);
}
