//! An M/M/1 queue on the bare simulation kernel — `desim` without any of
//! the HPC/VORX layers. Shows the two activity styles working together:
//! the arrival generator is an event chain, the server is a process that
//! waits on a `WaitSet` while the queue is empty.
//!
//! Run with: `cargo run -p desim --example mm1`

use std::collections::VecDeque;

use desim::rng::SmallRng;
use desim::sync::WaitSet;
use desim::{Ctx, SimDuration, Simulation, Wakeup};

struct World {
    queue: VecDeque<u64>, // arrival times, ns
    server: WaitSet,
    served: u64,
    total_wait_ns: u64,
    rng: SmallRng,
}

fn exp_sample(rng: &mut SmallRng, mean_ns: f64) -> u64 {
    (-mean_ns * (1.0 - rng.f64()).ln()) as u64
}

fn schedule_arrival(w: &mut World, s: &mut desim::Scheduler<World>, remaining: u32) {
    if remaining == 0 {
        return;
    }
    let gap = exp_sample(&mut w.rng, 120_000.0); // lambda = 1/120us
    s.schedule_in(SimDuration::from_ns(gap), move |w: &mut World, s| {
        let now = s.now().as_ns();
        w.queue.push_back(now);
        w.server.wake_one(s, Wakeup::START);
        schedule_arrival(w, s, remaining - 1);
    });
}

fn main() {
    let mut sim = Simulation::new(World {
        queue: VecDeque::new(),
        server: WaitSet::new(),
        served: 0,
        total_wait_ns: 0,
        rng: SmallRng::seed_from_u64(1),
    });
    const JOBS: u32 = 10_000;
    sim.setup(|w, s| schedule_arrival(w, s, JOBS));
    sim.spawn("server", |ctx: Ctx<World>| {
        let me = ctx.pid();
        for _ in 0..JOBS {
            let arrived = ctx.wait_until(|w: &mut World, _| {
                let head = w.queue.pop_front();
                if head.is_none() {
                    w.server.register(me);
                }
                head
            });
            let service = ctx.with(|w, _| exp_sample(&mut w.rng, 100_000.0)); // mu = 1/100us
            ctx.sleep(SimDuration::from_ns(service));
            ctx.with(move |w, s| {
                w.served += 1;
                w.total_wait_ns += s.now().as_ns() - arrived;
            });
        }
    });
    let report = sim.run_to_idle();
    assert!(report.all_finished());
    let w = sim.world();
    let mean_t_us = w.total_wait_ns as f64 / w.served as f64 / 1000.0;
    // M/M/1: T = 1/(mu - lambda) = 1/(10000 - 8333) per s = 600us.
    println!("served {} jobs in {}", w.served, report.now);
    println!("mean time in system: {mean_t_us:.0}us (M/M/1 theory: ~600us)");
}
