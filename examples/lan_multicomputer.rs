//! The Figure-1 machine in miniature: host workstations and a pool of
//! processing nodes on one HPC, running a single application that spans
//! hosts and nodes — with stubs forwarding UNIX system calls back to the
//! workstation (§3.3) — and then the §3.1 story of a user who forgets to
//! free their processors.
//!
//! Run with: `cargo run --example lan_multicomputer`

use desim::SimDuration;
use hpc_vorx::vorx::alloc::UserId;
use hpc_vorx::vorx::channel;
use hpc_vorx::vorx::host::{create_stub, syscall, syscall_any, SyscallOp, SyscallRet};
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
    let allocated = workers.clone();

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
                    // A closing write through any workstation's shared
                    // service stub: the decentralized scheme §3.3 names
                    // as future work.
                    let r = syscall_any(&ctx, w, 0, SyscallOp::WriteFile { bytes: 64 });
                    assert_eq!(r, Ok(SyscallRet::Ok), "decentralized write");
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

    let mut world = system.world();
    let served: u64 = world.stubs.of(NodeAddr(0)).map(|(_, s)| s.served).sum();
    println!(
        "host ws0 ran {} stubs and served {} forwarded system calls",
        world.stubs.count(NodeAddr(0)),
        served
    );

    // §3.1: user 1 last touched the machine at launch and forgot to free
    // the four nodes. Meglos-style shared placement still packs a second
    // user's processes onto the two nodes left, least loaded first.
    let pool = &mut world.alloc;
    pool.touch(UserId(1), 0);
    let shared = pool
        .allocate_shared(UserId(2), 4)
        .expect("15 processes a node");
    assert_eq!(pool.shared_on(shared[0]), [UserId(2), UserId(2)]);
    pool.release_shared(UserId(2), &shared);
    // The remedies VORX considered: idle reclamation frees user 1's nodes,
    pool.touch(UserId(2), end.as_ns());
    let reclaimed = pool.reclaim_idle(end.as_ns(), end.as_ns() / 2);
    assert_eq!(reclaimed, allocated, "the idle user's nodes come back");
    // logging off frees a user's nodes, and the use-carefully command frees
    // anyone's.
    pool.allocate(UserId(2), 3).expect("pool is free again");
    assert_eq!(pool.logout(UserId(2)), 3);
    let stuck = pool.allocate(UserId(3), 2).expect("pool is free again");
    pool.force_free(&stuck);
    assert_eq!(pool.free_count(), pool.pool_size());
    println!(
        "idle reclamation recovered {reclaimed:?}; the pool of {} is free",
        pool.pool_size()
    );
}
