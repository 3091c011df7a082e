//! Subprocesses (§5): VORX's priority-scheduled, preemptive threads. A
//! low-priority subprocess computes a 10 ms burst in 500 µs slices; a
//! high-priority one that becomes ready 2 ms in takes the CPU at the next
//! slice boundary instead of waiting for the burst to end.
//!
//! Run with: `cargo run --example subprocesses`

use std::sync::{Arc, Mutex};

use desim::{lock, SimDuration, SimTime};
use hpc_vorx::vorx::hpcnet::NodeAddr;
use hpc_vorx::vorx::sched::spawn_subproc;
use hpc_vorx::vorx::VorxBuilder;

fn main() {
    let mut system = VorxBuilder::single_cluster(1).build();
    let node = NodeAddr(0);
    let slice = SimDuration::from_us(500);
    let ends = Arc::new(Mutex::new(Vec::new()));
    let (lo_end, hi_end) = (Arc::clone(&ends), Arc::clone(&ends));
    system.spawn("setup", move |ctx| {
        spawn_subproc(&ctx, node, 1, "lo", move |ctx, h| {
            h.compute_sliced(&ctx, SimDuration::from_ms(10), slice);
            lock(&lo_end).push(("lo", ctx.now()));
        });
        ctx.sleep(SimDuration::from_ms(2));
        spawn_subproc(&ctx, node, 9, "hi", move |ctx, h| {
            h.compute_sliced(&ctx, SimDuration::from_ms(1), slice);
            lock(&hi_end).push(("hi", ctx.now()));
        });
    });
    system.run_all();

    let ends = lock(&ends);
    for (name, t) in ends.iter() {
        println!("{name} finished at {}", *t - SimTime::ZERO);
    }
    // Ready at 2 ms, preempting within one slice and one 80 µs switch.
    assert_eq!(
        ends[0].0, "hi",
        "the high-priority subprocess finishes first"
    );
    assert!(
        ends[0].1 < SimTime::from_ns(3_700_000),
        "hi waited for lo's burst"
    );
    let switches = system.world().nodes[0].sched().switches;
    println!("{switches} context switches, 80 µs each");
    assert_eq!(switches, 3, "lo, hi, lo again");
}
