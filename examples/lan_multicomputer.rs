//! The Figure-1 machine in miniature: host workstations and a pool of
//! processing nodes on one HPC, running a single application that spans
//! hosts and nodes — with stubs forwarding UNIX system calls back to the
//! workstation (§3.3).
//!
//! Run with: `cargo run --example lan_multicomputer`

use desim::SimDuration;
use hpc_vorx::vorx::alloc::UserId;
use hpc_vorx::vorx::channel;
use hpc_vorx::vorx::host::{create_stub, syscall, SyscallOp, SyscallRet};
use hpc_vorx::vorx::hpcnet::{NodeAddr, Payload};
use hpc_vorx::vorx::{VCtx, VorxBuilder};

fn main() {
    // Two workstations + six processing nodes on one cluster.
    let mut system = VorxBuilder::single_cluster(8).hosts(2).build();

    // The user allocates processors explicitly (§3.1, the VORX policy).
    let workers = system
        .world()
        .alloc
        .allocate(UserId(1), 4)
        .expect("pool is free");
    println!("allocated processing nodes: {workers:?}");

    system.spawn("ws0:launcher", move |ctx| {
        // One stub per worker process: the faithful-environment mode.
        for &w in &workers {
            create_stub(&ctx, 0, vec![w]).expect("workstation 0 is up");
        }
        // Start the workers and hand each a work channel.
        for (i, &w) in workers.iter().enumerate() {
            ctx.with(move |_, s| {
                s.spawn(format!("n{}:worker", w.0), move |ctx: VCtx| {
                    let ch = channel::open(&ctx, w, &format!("job-{i}"));
                    for _ in 0..3 {
                        let job = ch.read(&ctx).unwrap();
                        // Compute, then log through the UNIX environment the
                        // stub provides.
                        hpc_vorx::vorx::api::user_compute(&ctx, w, SimDuration::from_ms(1));
                        match syscall(&ctx, w, SyscallOp::WriteFile { bytes: job.len() }) {
                            Ok(SyscallRet::Ok) => {}
                            r => panic!("log write failed: {r:?}"),
                        }
                    }
                });
            });
        }
        let chans: Vec<_> = (0..workers.len())
            .map(|i| channel::open(&ctx, NodeAddr(0), &format!("job-{i}")))
            .collect();
        for round in 0..3 {
            for ch in &chans {
                ch.write(&ctx, Payload::Synthetic(300)).unwrap();
            }
            println!("ws0 dispatched round {round}");
        }
    });

    let end = system.run_all();
    println!("all rounds complete at {end}");

    let world = system.world();
    let served: u64 = world.stubs.of(NodeAddr(0)).map(|(_, s)| s.served).sum();
    println!(
        "host ws0 ran {} stubs and served {} forwarded system calls",
        world.stubs.count(NodeAddr(0)),
        served
    );
    println!(
        "freeing the allocation: {} nodes returned to the pool",
        world.alloc.owned_by(UserId(1)).len()
    );
}
