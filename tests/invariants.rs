//! The quiescence oracles of `vorx::invariants` on deliberately broken
//! worlds: each oracle must fire on the defect it names — and only that one
//! — and stay silent on the same world left alone.
//!
//! One oracle has no negative test here: `link-depth-cap`. The slot cap of a
//! port link is enforced by the fabric's own flow control and nothing on the
//! public surface can push a frame past it, so the oracle can only be shown
//! silent (every test below, and every campaign cell, does that).

use hpc_vorx::desim::{FaultSchedule, RunOutcome, SimTime};
use hpc_vorx::hpcnet::{ClusterId, NetConfig, NodeAddr, Payload, Topology};
use hpc_vorx::vorx::objmgr::name_hash;
use hpc_vorx::vorx::{channel, invariants, VorxBuilder, VorxSim};

const NONE: [&str; 0] = [];

/// A name whose hash-home on an `n`-node machine is `home`.
fn name_homed_at(home: u32, n: u64) -> String {
    (0..)
        .map(|i| format!("svc{i}"))
        .find(|s| name_hash(s) % n == u64::from(home))
        .expect("some name hashes there")
}

/// Spawn a server on node 2 listening on `name` and a client on node 3 that
/// sends it one message: the registration lands on the name's hash-home and
/// is pushed to the home's successor replica.
fn spawn_rendezvous(
    spawn: impl Fn(NodeAddr, Box<dyn FnOnce(hpc_vorx::vorx::VCtx) + Send>),
    name: &str,
) {
    let (sname, cname) = (name.to_string(), name.to_string());
    spawn(
        NodeAddr(2),
        Box::new(move |ctx| {
            let ch = channel::listen(&ctx, NodeAddr(2), &sname).accept(&ctx);
            ch.read(&ctx).expect("server read");
        }),
    );
    spawn(
        NodeAddr(3),
        Box::new(move |ctx| {
            ctx.sleep(hpc_vorx::desim::SimDuration::from_ns(1_000_000));
            let ch = channel::open(&ctx, NodeAddr(3), &cname);
            ch.write(&ctx, Payload::copy_from(b"hello"))
                .expect("client write");
        }),
    );
}

/// A 2-cluster × 2-endpoint machine that ran one rendezvous to idle, with
/// the name homed on node 1 (cluster 0) and replicated on node 2 (cluster 1).
fn rendezvous_world(cfg: NetConfig, faults: FaultSchedule) -> VorxSim {
    let mut v = VorxBuilder::hypercube(2, 2)
        .net_config(cfg)
        .faults(faults)
        .build();
    spawn_rendezvous(
        |_, f| {
            v.spawn("proc", f);
        },
        &name_homed_at(1, 4),
    );
    v.run_all();
    v
}

fn clean_world() -> VorxSim {
    rendezvous_world(NetConfig::paper_1988(), FaultSchedule::new(1))
}

#[test]
fn a_healed_world_passes_every_oracle() {
    let v = clean_world();
    assert_eq!(invariants::check(&v.world(), 0), NONE);
    // Nodes 0 ran nothing and homes nothing: exactly one node is idle.
    assert_eq!(invariants::check(&v.world(), 1), NONE);
}

#[test]
fn a_left_over_partition_mark_or_a_down_node_is_a_membership_violation() {
    let v = clean_world();
    v.world().node_mut(NodeAddr(0)).mbr.partitioned.insert(3);
    assert_eq!(invariants::check(&v.world(), 0), [invariants::MEMBERSHIP]);
    v.world().node_mut(NodeAddr(0)).mbr.partitioned.clear();
    assert_eq!(invariants::check(&v.world(), 0), NONE);
    v.world().node_mut(NodeAddr(0)).mbr.probing.insert(3, 0);
    assert_eq!(invariants::check(&v.world(), 0), [invariants::MEMBERSHIP]);
    v.world().node_mut(NodeAddr(0)).mbr.probing.clear();
    v.world().node_mut(NodeAddr(0)).up = false;
    assert_eq!(invariants::check(&v.world(), 0), [invariants::MEMBERSHIP]);
}

#[test]
fn a_registration_missing_from_its_successor_is_a_replica_violation() {
    let v = clean_world();
    let mut w = v.world();
    assert!(!w.node(NodeAddr(1)).mgr.servers.is_empty(), "home holds it");
    assert!(!w.node(NodeAddr(2)).mgr.servers.is_empty(), "replica too");
    w.node_mut(NodeAddr(2)).mgr.servers.clear();
    assert_eq!(invariants::check(&w, 0), [invariants::REPLICAS]);
}

#[test]
fn a_replica_lost_on_another_shard_is_seen_across_the_parts() {
    let mut v = VorxBuilder::hypercube(2, 2).build_sharded(1);
    spawn_rendezvous(
        |node, f| {
            v.spawn_at(node, "proc", f);
        },
        &name_homed_at(1, 4),
    );
    v.run_all();
    assert_eq!(invariants::check_shards(&v, 0), NONE);
    // Node 1 (the home) lives on shard 0, node 2 (its successor) on shard 1.
    assert_ne!(v.shard_of(NodeAddr(1)), v.shard_of(NodeAddr(2)));
    v.world(1).node_mut(NodeAddr(2)).mgr.servers.clear();
    assert_eq!(invariants::check_shards(&v, 0), [invariants::REPLICAS]);
}

#[test]
fn a_switch_still_holding_data_is_undrained() {
    // Two writers converge on one reader: while one frame occupies the
    // switch's output to node 2, the other's waits in the switch.
    let mut v = VorxBuilder::single_cluster(3).build();
    for w in 0..2u32 {
        v.spawn(format!("n{w}:writer"), move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(w), &format!("in{w}"));
            for _ in 0..4 {
                ch.write(&ctx, Payload::Synthetic(1024)).expect("write");
            }
        });
        v.spawn(format!("n2:reader{w}"), move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(2), &format!("in{w}"));
            for _ in 0..4 {
                ch.read(&ctx).expect("read");
            }
        });
    }
    // Stop the run at the first instant a data frame sits in the switch.
    let mut t = 0;
    while v.world().net.cluster_data_bytes(ClusterId(0)) == 0 {
        t += 100;
        let outcome = v.sim.run_until(SimTime::from_ns(t));
        let running = matches!(outcome, RunOutcome::DeadlineReached);
        assert!(
            running,
            "ran out before any data frame waited in the switch"
        );
    }
    assert_eq!(
        invariants::check(&v.world(), 0),
        [invariants::UNDRAINED_SWITCH]
    );
    // Left to finish, the same world drains.
    v.run_all();
    assert_eq!(invariants::check(&v.world(), 0), NONE);
}

#[test]
fn buffering_past_the_configured_budget_is_a_byte_budget_violation() {
    // A budget no data frame fits under, lifted by script at time zero: the
    // switches then buffer what the configuration says they may not.
    let tight = NetConfig {
        switch_byte_budget: 8,
        ..NetConfig::paper_1988()
    };
    let lifted = (0..2).fold(FaultSchedule::new(1), |s, c| {
        s.squeeze_at(c, SimTime::ZERO, u64::MAX)
    });
    let v = rendezvous_world(tight, lifted);
    assert_eq!(invariants::check(&v.world(), 0), [invariants::BYTE_BUDGET]);
}

#[test]
fn fewer_idle_nodes_than_promised_is_an_idle_memory_violation() {
    let v = clean_world();
    assert_eq!(invariants::check(&v.world(), 2), [invariants::IDLE_MEMORY]);
    // The promise is about the accountant's baseline, not about the world's
    // size: a bigger machine with the same traffic keeps it.
    let topo = Topology::incomplete_hypercube(2, 4).expect("valid");
    let mut big = VorxBuilder::with_topology(topo).build();
    spawn_rendezvous(
        |_, f| {
            big.spawn("proc", f);
        },
        &name_homed_at(1, 8),
    );
    big.run_all();
    assert_eq!(invariants::check(&big.world(), 4), NONE);
}
