//! The oscilloscope's idle time is a pairing: every `Block` a kernel wait
//! records on a node's trace is closed by an `Unblock` for the same reason
//! when the call completes (`vorx::api::block_until`). Over traced runs in
//! which every process finishes, the running count of `Block` minus
//! `Unblock` per `(node, reason)` never goes negative and ends at 0.

use std::sync::Arc;

use hpc_vorx::desim::Trace;
use hpc_vorx::hpcnet::combine::CombOp;
use hpc_vorx::hpcnet::{NodeAddr, Payload, Topology};
use hpc_vorx::vorx::collective::{self, CollMode, GroupCfg};
use hpc_vorx::vorx::protocols::sliding_window::{self, SwParams};
use hpc_vorx::vorx::{channel, BlockReason, Calibration, TraceEvent, VorxBuilder, VorxSim};

/// Assert the pairing over `trace`, and that `reasons` were each marked at
/// least once (a run that never blocks proves nothing).
fn assert_paired(trace: &Trace<TraceEvent>, reasons: &[BlockReason]) {
    let slot = |r: BlockReason| match r {
        BlockReason::Input => 0,
        BlockReason::Output => 1,
        BlockReason::Other => 2,
    };
    let mut open: Vec<[i64; 3]> = Vec::new();
    let mut marked = [0u64; 3];
    for (t, e) in trace.iter() {
        let (node, reason, step) = match *e {
            TraceEvent::Block { node, reason } => (node, reason, 1),
            TraceEvent::Unblock { node, reason } => (node, reason, -1),
            _ => continue,
        };
        let node = node as usize;
        if open.len() <= node {
            open.resize(node + 1, [0; 3]);
        }
        let count = &mut open[node][slot(reason)];
        *count += step;
        assert!(
            *count >= 0,
            "n{node} unblocked from {reason:?} at {t} with no block open"
        );
        marked[slot(reason)] += (step > 0) as u64;
    }
    for (node, counts) in open.iter().enumerate() {
        assert_eq!(*counts, [0; 3], "n{node} ends with waits still open");
    }
    for &r in reasons {
        assert!(marked[slot(r)] > 0, "no {r:?} wait was marked");
    }
}

/// The paper's 70-node machine (10 clusters of 7): each node writes 20
/// 64-byte messages to the node one cluster on and reads the 20 written to
/// it.
fn stream_world(calib: Calibration) -> VorxSim {
    const NODES: u32 = 70;
    const MSGS: usize = 20;
    let topo = Topology::incomplete_hypercube(10, 7).unwrap();
    let v = VorxBuilder::with_topology(topo).calibration(calib).build();
    for i in 0..NODES {
        let (me, peer) = (NodeAddr(i), NodeAddr((i + 7) % NODES));
        let name: Arc<str> = format!("s{i}").into();
        let peer_name = Arc::clone(&name);
        v.spawn(format!("n{i}:w"), move |ctx| {
            let ch = channel::open(&ctx, me, &name);
            for _ in 0..MSGS {
                ch.write(&ctx, Payload::Synthetic(64)).unwrap();
            }
            ch.close(&ctx);
        });
        v.spawn(format!("n{}:r", peer.0), move |ctx| {
            let ch = channel::open(&ctx, peer, &peer_name);
            for _ in 0..MSGS {
                ch.read(&ctx).unwrap();
            }
        });
    }
    v
}

#[test]
fn stop_and_wait_streams_pair_every_wait() {
    let mut v = stream_world(Calibration::paper_1988());
    v.run_all();
    let reasons = [BlockReason::Input, BlockReason::Output];
    assert_paired(&v.world().trace, &reasons);
}

#[test]
fn windowed_streams_pair_every_wait() {
    // Two receive buffers per end against a window of eight: writers stall
    // on credit as well as readers on data.
    let calib = Calibration {
        chan_rx_frag_buffers: 2,
        ..Calibration::paper_1988_windowed(8)
    };
    let mut v = stream_world(calib);
    v.run_all();
    let reasons = [BlockReason::Input, BlockReason::Output];
    assert_paired(&v.world().trace, &reasons);
}

#[test]
fn in_network_allreduce_and_all_to_all_pair_every_wait() {
    const GROUP: u32 = 3;
    const MEMBERS: u32 = 64;
    let topo = Topology::incomplete_hypercube(16, 4).unwrap();
    let mut v = VorxBuilder::with_topology(topo).build();
    let cfg = GroupCfg {
        group: GROUP,
        members: (0..MEMBERS).map(NodeAddr).collect(),
        mode: CollMode::InNetwork,
    };
    collective::register_group(&mut v.world(), &cfg);
    for i in 0..MEMBERS {
        v.spawn(format!("n{i}:m"), move |ctx| {
            let me = NodeAddr(i);
            let c = collective::attach(&ctx, me, GROUP);
            let sum = c.allreduce(&ctx, CombOp::Sum, u64::from(i));
            assert_eq!(sum, u64::from(MEMBERS * (MEMBERS - 1) / 2));
            let all = c.all_to_all(&ctx, u64::from(i));
            assert_eq!(all, (0..u64::from(MEMBERS)).collect::<Vec<_>>());
        });
    }
    v.run_all();
    assert_paired(&v.world().trace, &[BlockReason::Input]);
}

#[test]
fn a_table_1_sliding_window_cell_pairs_every_wait() {
    // Table 1's two nodes on one cluster, one receive buffer: the sender
    // waits for every credit and the receiver for every message.
    let mut v = VorxBuilder::single_cluster(2).build();
    let p = SwParams {
        data_tag: 1,
        credit_tag: 2,
        msg_len: 64,
        n_msgs: 100,
        bufs: 1,
    };
    v.spawn("n0:sw-sender", move |ctx| {
        sliding_window::sender(&ctx, NodeAddr(0), NodeAddr(1), p);
    });
    v.spawn("n1:sw-receiver", move |ctx| {
        sliding_window::receiver(&ctx, NodeAddr(1), NodeAddr(0), p);
    });
    v.run_all();
    assert_paired(&v.world().trace, &[BlockReason::Input]);
}
