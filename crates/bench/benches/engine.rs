//! Criterion benchmarks of the simulation engine itself (host wall time):
//! how fast `desim` dispatches events and switches cooperative processes.
//! These guard the usability of the reproduction — every experiment in
//! `src/bin/` runs on top of this engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use desim::{spsc, Ctx, ProcId, Scheduler, SimDuration, Simulation, Wakeup};

#[derive(Default)]
struct World {
    counter: u64,
}

/// Dispatch 10k pure events through the queue.
fn bench_event_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("desim");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("event_dispatch_10k", |b| {
        b.iter_batched(
            || {
                let sim = Simulation::new(World::default());
                for i in 0..10_000u64 {
                    sim.schedule_in(SimDuration::from_ns(i), |w: &mut World, _| {
                        w.counter += 1;
                    });
                }
                sim
            },
            |mut sim| {
                let r = sim.run_to_idle();
                assert!(r.all_finished());
                assert_eq!(sim.world().counter, 10_000);
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// 1k sleep/wake cycles of one process (two stack switches per cycle) —
/// the cost floor of simulated blocking software.
fn bench_process_switching(c: &mut Criterion) {
    let mut g = c.benchmark_group("desim");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("process_sleep_1k", |b| {
        b.iter_batched(
            || {
                let sim = Simulation::new(World::default());
                sim.spawn("sleeper", |ctx: Ctx<World>| {
                    for _ in 0..1_000 {
                        ctx.sleep(SimDuration::from_us(1));
                    }
                });
                sim
            },
            |mut sim| {
                assert!(sim.run_to_idle().all_finished());
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

#[derive(Default)]
struct ChainWorld {
    pids: Vec<ProcId>,
    turn: usize,
}

/// A 256-process wake chain: each process waits its turn, then wakes its
/// successor with a zero-delay wake. Every link is one park/resume handoff
/// plus one same-instant event — the dominant pattern of simulated kernels
/// acknowledging each other. Each iteration runs 256 fresh processes, so each
/// one's first park, which allocates its image, is part of the figure.
fn bench_wake_chain(c: &mut Criterion) {
    const LINKS: usize = 256;
    let mut g = c.benchmark_group("desim");
    g.throughput(Throughput::Elements(LINKS as u64));
    g.bench_function("wake_chain_256", |b| {
        b.iter_batched(
            || {
                let sim = Simulation::new(ChainWorld::default());
                let pids: Vec<ProcId> = (0..LINKS)
                    .map(|i| {
                        sim.spawn(format!("link{i}"), move |ctx: Ctx<ChainWorld>| {
                            ctx.wait_until(move |w, _| (w.turn == i).then_some(()));
                            ctx.with(move |w, s| {
                                w.turn += 1;
                                if let Some(&next) = w.pids.get(i + 1) {
                                    s.wake(next, Wakeup::START);
                                }
                            });
                        })
                    })
                    .collect();
                sim.setup(move |w, _| w.pids = pids);
                sim
            },
            |mut sim| {
                assert!(sim.run_to_idle().all_finished());
                assert_eq!(sim.world().turn, LINKS);
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

#[derive(Default)]
struct PingWorld {
    pids: Vec<ProcId>,
    /// Whose turn it is, and how many hand-overs are left.
    turn: usize,
    left: u32,
}

/// Two processes hand a token back and forth 10k times: each checks for its
/// turn in a `Ctx::with`, passes it on with a same-instant `wake` in another,
/// checks again and parks. One round trip is six `with` blocks, two wakes and
/// two park/resume pairs — the path under every channel read and write, with
/// no world to speak of.
fn bench_ctx_with_wake(c: &mut Criterion) {
    const ROUND_TRIPS: u32 = 10_000;
    let mut g = c.benchmark_group("desim");
    g.throughput(Throughput::Elements(u64::from(ROUND_TRIPS)));
    g.bench_function("ctx_with_wake_10k", |b| {
        b.iter_batched(
            || {
                let sim = Simulation::new(PingWorld::default());
                let pids = [0, 1].map(|me| {
                    sim.spawn(format!("p{me}"), move |ctx: Ctx<PingWorld>| loop {
                        ctx.wait_until(move |w, _| (w.turn == me).then_some(()));
                        let more = ctx.with(|w, s| {
                            w.turn = 1 - me;
                            w.left = w.left.saturating_sub(1);
                            s.wake(w.pids[1 - me], Wakeup::START);
                            w.left > 0
                        });
                        if !more {
                            break;
                        }
                    })
                });
                sim.setup(move |w, _| {
                    w.pids = pids.to_vec();
                    w.left = 2 * ROUND_TRIPS;
                });
                sim
            },
            |mut sim| {
                assert!(sim.run_to_idle().all_finished());
                assert_eq!(sim.world().left, 0);
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

#[derive(Default)]
struct GateWorld {
    open: bool,
}

/// Density: spawn `n` processes, park them all on a gate, open it, wake them
/// all and run them out, then drop the simulation — everything timed. What a
/// process costs to create, hold parked and retire when there are very many.
fn spawn_park(n: u32) {
    let mut sim = Simulation::new(GateWorld::default());
    let pids: Vec<ProcId> = (0..n)
        .map(|_| {
            sim.spawn("p", |ctx: Ctx<GateWorld>| {
                ctx.wait_until(|w, _| w.open.then_some(()));
            })
        })
        .collect();
    assert_eq!(sim.run_to_idle().parked.len(), n as usize);
    sim.setup(move |w, s| {
        w.open = true;
        for pid in pids {
            s.wake(pid, Wakeup::START);
        }
    });
    assert!(sim.run_to_idle().all_finished());
}

/// 30,000 is the most a stack per process could hold (two mappings each
/// against `vm.max_map_count`), kept for the ratio; 100,000 is the figure.
fn bench_spawn_park(c: &mut Criterion) {
    let mut g = c.benchmark_group("desim");
    g.sample_size(20);
    for (id, n) in [("spawn_park_30k", 30_000), ("spawn_park_100k", 100_000)] {
        g.throughput(Throughput::Elements(u64::from(n)));
        g.bench_function(id, |b| b.iter(|| spawn_park(n)));
    }
    g.finish();
}

/// Arm 10k protocol timeouts, cancel each as its "ack" arrives, and let the
/// queue discard them: the timer path of every channel message. The
/// simulation is reused, as a world's is, so its queues and timer cells are
/// warm from the second iteration on.
fn bench_timer_arm_cancel(c: &mut Criterion) {
    let mut g = c.benchmark_group("desim");
    g.throughput(Throughput::Elements(10_000));
    let mut sim = Simulation::new(World::default());
    g.bench_function("timer_arm_cancel_10k", |b| {
        b.iter(|| {
            sim.setup(|_, s| {
                for i in 0..10_000u64 {
                    s.schedule_cancellable_in(SimDuration::from_us(20), |w: &mut World, _| {
                        w.counter += 1;
                    })
                    .cancel();
                    s.schedule_in(SimDuration::from_ns(i), |_, _| {});
                }
            });
            sim.run_to_idle();
            assert_eq!(sim.world().counter, 0);
        });
    });
    g.finish();
}

#[derive(Default)]
struct AckWorld {
    acked: u32,
    hops: u32,
    timeouts: u32,
}

/// One stop-and-wait message of `stream`: arm the 20 ms ack timeout, let the
/// frame and its ack make three hops, and at 1.5 ms take the ack — cancel the
/// timeout and send the next message.
fn send_acked(s: &mut Scheduler<AckWorld>, stream: u64, left: u32) {
    let timeout = s.schedule_cancellable_in(SimDuration::from_us(20_000), |w: &mut AckWorld, _| {
        w.timeouts += 1;
    });
    for hop in 1..=3 {
        s.schedule_in(
            SimDuration::from_ns(hop * 400_000 + stream),
            |w: &mut AckWorld, _| w.hops += 1,
        );
    }
    s.schedule_in(SimDuration::from_us(1_500), move |w: &mut AckWorld, s| {
        timeout.cancel();
        w.acked += 1;
        if left > 1 {
            send_acked(s, stream, left - 1);
        }
    });
}

/// The `paper70_sw` shape: 210 stop-and-wait streams of 48 messages, each
/// message acknowledged 1.5 ms into a 20 ms timeout, so every stream trails
/// thirteen disarmed timers behind its one live one while four plain events
/// per message go through the same queue. What a pop costs when most of what
/// is queued will never fire. The simulation is reused, so its buffers are at
/// their high-water size from the second iteration on.
fn bench_ack_timer_backlog(c: &mut Criterion) {
    const STREAMS: u64 = 210;
    const MSGS: u32 = 48;
    let total = STREAMS as u32 * MSGS;
    let mut g = c.benchmark_group("desim");
    g.throughput(Throughput::Elements(u64::from(total)));
    let mut sim = Simulation::new(AckWorld::default());
    g.bench_function("ack_timer_backlog_10k", |b| {
        b.iter(|| {
            *sim.world() = AckWorld::default();
            sim.setup(|_, s| {
                for stream in 0..STREAMS {
                    s.schedule_in(SimDuration::from_us(7 * stream), move |_, s| {
                        send_acked(s, stream, MSGS)
                    });
                }
            });
            sim.run_to_idle();
            let w = sim.world();
            assert_eq!((w.acked, w.hops, w.timeouts), (total, 3 * total, 0));
        });
    });
    g.finish();
}

/// A shard mailbox carrying bursts of 64 messages, drained between bursts:
/// 100k pushes and pops on one thread.
fn bench_spsc_bursts(c: &mut Criterion) {
    let mut g = c.benchmark_group("desim");
    g.throughput(Throughput::Elements(100_000));
    let (tx, rx) = spsc::pair::<[u64; 8]>();
    g.bench_function("spsc_burst64_100k", |b| {
        b.iter(|| {
            let mut sum = 0;
            for burst in 0..100_000u64 / 64 {
                for i in 0..64 {
                    tx.push([burst + i; 8]);
                }
                while let Some(m) = rx.pop() {
                    sum += m[0];
                }
            }
            std::hint::black_box(sum)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_dispatch,
    bench_timer_arm_cancel,
    bench_ack_timer_backlog,
    bench_spsc_bursts,
    bench_process_switching,
    bench_wake_chain,
    bench_ctx_with_wake,
    bench_spawn_park
);
criterion_main!(benches);
