//! Engine campaign: the host speed of what every other campaign runs on —
//! `desim`'s queue and process switch, the `hpcnet` fabric driven alone,
//! the S/NET simulator, and the Table 1/2 cells of full VORX stacks.
//!
//! Sixteen kernels, two rows each, split the way `pdes` splits its cells:
//!
//! * the `simulation` row runs the kernel once and records, in `sim`, what
//!   the kernel asserts on every call — activities dispatched and the idle
//!   instant, frames delivered, acks/hops/timeouts, Table 1/2 µs/msg — so
//!   `campaign --smoke` runs every kernel and compares those on each CI run;
//! * the heavy `wall-clock` row takes one warm-up call and then 100 samples
//!   (20 for `spawn_park_*`, 10 for the `vorx` cells) into `host` as
//!   min / upper median / mean ns (`campaign::{sample, summary}`).
//!
//! A kernel is an untimed setup (a fresh simulation, a loaded fabric) and a
//! timed routine that consumes it, dropping it included; a kernel that
//! reuses one warm simulation across calls, as a world does, builds it once
//! per row. One run on a shared host wanders by 20 % and more: pin it
//! (`taskset -c 1`) and compare parent and change by alternating runs.

use desim::{spsc, Ctx, IdleReport, ProcId, Scheduler, SimDuration, Simulation, Wakeup};
use hpcnet::driver::StandaloneNet;
use hpcnet::{Dest, Fabric, Frame, NetConfig, NodeAddr, Payload, Topology};
use snet::{SnetConfig, SnetSim, Strategy};

use super::paper::{table1_cell, table2_cell};
use crate::campaign::{sample, summary, Campaign, Cell, Record, Run};

/// Wall-clock samples per kernel, unless the table says otherwise.
const SAMPLES: usize = 100;
/// Samples of the two `spawn_park` kernels.
const SPAWN_SAMPLES: usize = 20;
/// Samples of the three `vorx` cells.
const VORX_SAMPLES: usize = 10;

/// The campaign.
pub const CAMPAIGN: Campaign = Campaign {
    name: "engine",
    note: "host speed of the engine layers: sixteen kernels of desim, hpcnet, snet and full \
           VORX stacks; a simulation row per kernel records what it simulates, a heavy \
           wall-clock row one warm-up call then the samples as min / upper median / mean ns \
           (host.seq); pin both sides of a comparison to one CPU (taskset) and alternate runs, \
           one run of one binary on a shared host wanders by 20% or more",
    watchdog_s: (60, 300),
    on_expiry: None,
    workload: &[
        ("samples", SAMPLES as u64),
        ("spawn_park_samples", SPAWN_SAMPLES as u64),
        ("vorx_samples", VORX_SAMPLES as u64),
    ],
    cells,
    gates: &[],
};

/// One kernel, run for one row: `None` is the `simulation` row.
type Kernel = fn(Option<usize>) -> Run;

/// The kernels: layer, name, wall-clock samples, the run.
const KERNELS: [(&str, &str, usize, Kernel); 16] = [
    ("desim", "event_dispatch_10k", SAMPLES, event_dispatch),
    ("desim", "timer_arm_cancel_10k", SAMPLES, timer_arm_cancel),
    ("desim", "ack_timer_backlog_10k", SAMPLES, ack_timer_backlog),
    ("desim", "spsc_burst64_100k", SAMPLES, spsc_bursts),
    ("desim", "process_sleep_1k", SAMPLES, process_sleep),
    ("desim", "wake_chain_256", SAMPLES, wake_chain),
    ("desim", "ctx_with_wake_10k", SAMPLES, ctx_with_wake),
    ("desim", "spawn_park_30k", SPAWN_SAMPLES, |m| {
        spawn_park(m, 30_000)
    }),
    ("desim", "spawn_park_100k", SPAWN_SAMPLES, |m| {
        spawn_park(m, 100_000)
    }),
    ("hpcnet", "unicast_1k_frames_hypercube", SAMPLES, unicast),
    ("hpcnet", "multicast_100_frames_to_31", SAMPLES, multicast),
    ("hpcnet", "saturated_2k_frames_64ep", SAMPLES, saturated),
    ("snet", "reservation_burst_11x10", SAMPLES, snet_reservation),
    ("vorx", "table2_cell_4B_x100", VORX_SAMPLES, |m| {
        table_cell(m, || table2_cell(4, 100), 250.0, 360.0)
    }),
    ("vorx", "table2_cell_1024B_x100", VORX_SAMPLES, |m| {
        table_cell(m, || table2_cell(1024, 100), 900.0, 1150.0)
    }),
    ("vorx", "table1_cell_8bufs_4B_x100", VORX_SAMPLES, |m| {
        table_cell(m, || table1_cell(8, 4, 100), 120.0, 260.0)
    }),
];

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for timed in [false, true] {
        for (layer, kernel, n, run) in KERNELS {
            let key = Record::new()
                .with("layer", layer)
                .with("kernel", kernel)
                .with("measure", if timed { "wall-clock" } else { "simulation" });
            let row = move |_| run(timed.then_some(n));
            out.push(Cell::new(key, timed, &[0], row));
        }
    }
    out
}

/// One call of `routine` on an input from `setup`, whose record is the
/// row's `sim` (`samples` is `None`); or `n` timed calls after a warm-up,
/// summarised into `host`.
fn measure<I>(
    samples: Option<usize>,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> Record,
) -> Run {
    match samples {
        None => Run::new(routine(setup()), Vec::new()),
        Some(n) => Run::default().host(summary(&sample(n, setup, routine))),
    }
}

/// [`measure`] for a kernel whose every call starts from nothing.
fn repeat(samples: Option<usize>, mut routine: impl FnMut() -> Record) -> Run {
    measure(samples, || (), |()| routine())
}

/// What a `desim` kernel's run reports: the activities its simulation has
/// dispatched and the instant it went idle.
fn idle<W: Send + 'static>(sim: &Simulation<W>, r: &IdleReport) -> Record {
    Record::new()
        .with("events", sim.events_dispatched())
        .with("end_ns", r.now.as_ns())
}

// ------------------------------------------------------------------ desim

#[derive(Default)]
struct World {
    counter: u64,
}

/// Dispatch 10k pure events through the queue.
fn event_dispatch(samples: Option<usize>) -> Run {
    let setup = || {
        let sim = Simulation::new(World::default());
        for i in 0..10_000u64 {
            sim.schedule_in(SimDuration::from_ns(i), |w: &mut World, _| {
                w.counter += 1;
            });
        }
        sim
    };
    measure(samples, setup, |mut sim| {
        let r = sim.run_to_idle();
        assert!(r.all_finished());
        assert_eq!(sim.world().counter, 10_000);
        idle(&sim, &r).with("counter", sim.world().counter)
    })
}

/// 1k sleep/wake cycles of one process (two stack switches per cycle) —
/// the cost floor of simulated blocking software.
fn process_sleep(samples: Option<usize>) -> Run {
    let setup = || {
        let sim = Simulation::new(World::default());
        sim.spawn("sleeper", |ctx: Ctx<World>| {
            for _ in 0..1_000 {
                ctx.sleep(SimDuration::from_us(1));
            }
        });
        sim
    };
    measure(samples, setup, |mut sim| {
        let r = sim.run_to_idle();
        assert!(r.all_finished());
        idle(&sim, &r)
    })
}

#[derive(Default)]
struct ChainWorld {
    pids: Vec<ProcId>,
    turn: usize,
}

/// A 256-process wake chain: each process waits its turn, then wakes its
/// successor with a zero-delay wake. Every link is one park/resume handoff
/// plus one same-instant event — the dominant pattern of simulated kernels
/// acknowledging each other. Each call runs 256 fresh processes, so each
/// one's first park, which allocates its image, is part of the figure.
fn wake_chain(samples: Option<usize>) -> Run {
    const LINKS: usize = 256;
    let setup = || {
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
    };
    measure(samples, setup, |mut sim| {
        let r = sim.run_to_idle();
        assert!(r.all_finished());
        assert_eq!(sim.world().turn, LINKS);
        idle(&sim, &r).with("turn", sim.world().turn)
    })
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
fn ctx_with_wake(samples: Option<usize>) -> Run {
    const ROUND_TRIPS: u32 = 10_000;
    let setup = || {
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
    };
    measure(samples, setup, |mut sim| {
        let r = sim.run_to_idle();
        assert!(r.all_finished());
        assert_eq!(sim.world().left, 0);
        idle(&sim, &r).with("left", sim.world().left)
    })
}

#[derive(Default)]
struct GateWorld {
    open: bool,
}

/// Density: spawn `n` processes, park them all on a gate, open it, wake them
/// all and run them out, then drop the simulation — everything timed. What a
/// process costs to create, hold parked and retire when there are very many.
/// 30,000 is the most a stack per process could hold (two mappings each
/// against `vm.max_map_count`), kept for the ratio; 100,000 is the figure.
fn spawn_park(samples: Option<usize>, n: u32) -> Run {
    repeat(samples, || {
        let mut sim = Simulation::new(GateWorld::default());
        let pids: Vec<ProcId> = (0..n)
            .map(|_| {
                sim.spawn("p", |ctx: Ctx<GateWorld>| {
                    ctx.wait_until(|w, _| w.open.then_some(()));
                })
            })
            .collect();
        let parked = sim.run_to_idle().parked.len();
        assert_eq!(parked, n as usize);
        sim.setup(move |w, s| {
            w.open = true;
            for pid in pids {
                s.wake(pid, Wakeup::START);
            }
        });
        let r = sim.run_to_idle();
        assert!(r.all_finished());
        idle(&sim, &r).with("parked", parked)
    })
}

/// Arm 10k protocol timeouts, cancel each as its "ack" arrives, and let the
/// queue discard them: the timer path of every channel message. The
/// simulation is reused, as a world's is, so its queues and timer cells are
/// warm from the second call on.
#[allow(clippy::disallowed_methods, reason = "times desim's own timer")]
fn timer_arm_cancel(samples: Option<usize>) -> Run {
    let mut sim = Simulation::new(World::default());
    repeat(samples, || {
        sim.setup(|_, s| {
            for i in 0..10_000u64 {
                s.schedule_cancellable_in(SimDuration::from_us(20), |w: &mut World, _| {
                    w.counter += 1;
                })
                .cancel();
                s.schedule_in(SimDuration::from_ns(i), |_, _| {});
            }
        });
        let r = sim.run_to_idle();
        assert_eq!(sim.world().counter, 0);
        idle(&sim, &r).with("timeouts", sim.world().counter)
    })
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
#[allow(clippy::disallowed_methods, reason = "times desim's own timer")]
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
/// their high-water size from the second call on.
fn ack_timer_backlog(samples: Option<usize>) -> Run {
    const STREAMS: u64 = 210;
    const MSGS: u32 = 48;
    let total = STREAMS as u32 * MSGS;
    let mut sim = Simulation::new(AckWorld::default());
    repeat(samples, || {
        *sim.world() = AckWorld::default();
        sim.setup(|_, s| {
            for stream in 0..STREAMS {
                s.schedule_in(SimDuration::from_us(7 * stream), move |_, s| {
                    send_acked(s, stream, MSGS)
                });
            }
        });
        let r = sim.run_to_idle();
        let (acked, hops, timeouts) = {
            let w = sim.world();
            (w.acked, w.hops, w.timeouts)
        };
        assert_eq!((acked, hops, timeouts), (total, 3 * total, 0));
        let seen = idle(&sim, &r).with("acked", acked).with("hops", hops);
        seen.with("timeouts", timeouts)
    })
}

/// A shard mailbox carrying bursts of 64 messages, drained between bursts:
/// 100k pushes and pops on one thread.
fn spsc_bursts(samples: Option<usize>) -> Run {
    let (tx, rx) = spsc::pair::<[u64; 8]>();
    repeat(samples, || {
        let mut sum = 0;
        for burst in 0..100_000u64 / 64 {
            for i in 0..64 {
                tx.push([burst + i; 8]);
            }
            while let Some(m) = rx.pop() {
                sum += m[0];
            }
        }
        Record::new().with("sum", sum)
    })
}

// --------------------------------------------------------- hpcnet, snet

/// What a fabric kernel's run reports: frames delivered, and when the last
/// one was.
fn delivered(net: &StandaloneNet) -> Record {
    let last = net.delivered.last().map(|d| d.0);
    Record::new()
        .with("delivered", net.delivered.len())
        .with("last_delivery_ns", last)
}

/// 1,000 unicast frames over a 32-endpoint hypercube, one every 10 ns.
fn unicast(samples: Option<usize>) -> Run {
    let setup = || {
        let topo = Topology::incomplete_hypercube(8, 4).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        for i in 0..1_000u64 {
            let src = (i % 32) as u32;
            let dst = ((i + 17) % 32) as u32;
            net.send_at(
                i * 10,
                Frame::unicast(NodeAddr(src), NodeAddr(dst), 0, i, Payload::Synthetic(256)),
            );
        }
        net
    };
    measure(samples, setup, |mut net| {
        net.run();
        assert_eq!(net.delivered.len(), 1_000);
        delivered(&net)
    })
}

/// 100 hardware multicasts from endpoint 0 to the other 31.
fn multicast(samples: Option<usize>) -> Run {
    let setup = || {
        let topo = Topology::incomplete_hypercube(8, 4).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        let everyone: std::sync::Arc<[NodeAddr]> = (1..32).map(NodeAddr).collect::<Vec<_>>().into();
        for i in 0..100u64 {
            net.send_at(
                i * 100_000,
                Frame {
                    src: NodeAddr(0),
                    dst: Dest::Multicast(everyone.clone()),
                    kind: 0,
                    seq: i,
                    payload: Payload::Synthetic(512),
                    corrupted: false,
                },
            );
        }
        net
    };
    measure(samples, setup, |mut net| {
        net.run();
        assert_eq!(net.delivered.len(), 3_100);
        delivered(&net)
    })
}

/// `fabric_sat` in miniature: 2,000 injections one every 2 µs over 64
/// round-robin sources — several times what the fabric drains — every 65th a
/// 512-byte multicast to the other 63 endpoints. Port arbitration under
/// backed-up queues is the whole cost.
fn saturated(samples: Option<usize>) -> Run {
    let setup = || {
        let topo = Topology::incomplete_hypercube(16, 4).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        for i in 0..2_000u64 {
            let src = (i % 64) as u32;
            let (dst, len) = if i % 65 == 64 {
                let others = (0..64).filter(|&a| a != src).map(NodeAddr);
                (Dest::Multicast(others.collect::<Vec<_>>().into()), 512)
            } else {
                let d = (i.wrapping_mul(0x9E37_79B9) >> 7) % 63;
                let d = (src + 1 + d as u32) % 64;
                (Dest::Unicast(NodeAddr(d)), 64 + (i * 37 % 900) as u32)
            };
            net.send_at(
                i * 2_000,
                Frame {
                    src: NodeAddr(src),
                    dst,
                    kind: 0,
                    seq: i,
                    payload: Payload::Synthetic(len),
                    corrupted: false,
                },
            );
        }
        net
    };
    measure(samples, setup, |mut net| {
        net.run();
        assert_eq!(net.delivered.len(), 2_000 + 30 * 62);
        delivered(&net)
    })
}

/// Eleven S/NET senders, ten 1 KB messages each, to one receiver under the
/// reservation protocol.
fn snet_reservation(samples: Option<usize>) -> Run {
    repeat(samples, || {
        let mut sim = SnetSim::new(SnetConfig::paper_1985(), 12, Strategy::Reservation, 42);
        for s in 1..12 {
            sim.enqueue(s, 0, 1024, 10, 0);
        }
        let r = sim.run(60_000_000_000);
        assert!(r.completed);
        Record::new()
            .with("completed", r.completed)
            .with("delivered", r.delivered_total)
            .with("rejects", r.rejects)
            .with("last_delivery_ns", r.last_delivery_ns)
    })
}

// ------------------------------------------------------------------- vorx

/// A Table 1/2 cell runner over 100 messages, which must land in
/// `lo..hi` µs/msg.
fn table_cell(samples: Option<usize>, cell: fn() -> f64, lo: f64, hi: f64) -> Run {
    repeat(samples, || {
        let us = cell();
        assert!((lo..hi).contains(&us), "calibration drifted: {us}");
        Record::new().with("us_per_msg", us)
    })
}
