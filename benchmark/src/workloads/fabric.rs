//! `fabric_sat`: `hpcnet` alone, driven above capacity.
//!
//! No `desim`, no `vorx`, no threads: [`StandaloneNet`] over a 64-endpoint
//! incomplete hypercube takes an open-loop injection schedule — one frame
//! every [`GAP_NS`], faster than the fabric drains — so hardware flow
//! control, port arbitration and the busy-transmitter retry queues do all
//! the work. A fabric optimisation shows here first; a change to how
//! simulated processes run must leave it alone.

use hpcnet::driver::StandaloneNet;
use hpcnet::{Dest, Fabric, Frame, NetConfig, NodeAddr, Payload, Topology};

use super::{timed_run, RepOptions, RepOutcome};
use crate::inputs::{self, Injection};
use crate::spans::HostSpans;

pub const CLUSTERS: usize = 16;
pub const PER_CLUSTER: usize = 4;
pub const ENDPOINTS: u32 = (CLUSTERS * PER_CLUSTER) as u32;
/// Frames injected at full size.
const INJECTIONS: u32 = 8_000;
/// Injection interval: a 337 B mean frame occupies a link for ≈19 µs, so one
/// every 2 µs over 64 sources keeps every source's transmitter backed up.
const GAP_NS: u64 = 2_000;
/// Every this-many-th injection is a 512 B multicast to all other endpoints:
/// one more than the source count, so that the multicasts rotate over the
/// round-robin sources instead of all falling to the last one.
const MCAST_EVERY: u32 = ENDPOINTS + 1;
const KIND: u16 = 9;

pub fn topology() -> Topology {
    Topology::incomplete_hypercube(CLUSTERS, PER_CLUSTER)
        .expect("16 clusters of 4 is a valid incomplete hypercube")
}

pub fn injections(seed: u64, div: u32) -> Vec<Injection> {
    inputs::fabric_injections(
        seed,
        ENDPOINTS,
        (INJECTIONS / div).max(MCAST_EVERY),
        GAP_NS,
        MCAST_EVERY,
    )
}

/// Hand `plan` to a fresh driver. Payloads are real bytes, shared per size,
/// so a copy made while forwarding would show on `hpcnet::copymeter`.
pub fn load(net: &mut StandaloneNet, plan: &[Injection]) {
    let everyone: Vec<NodeAddr> = (0..ENDPOINTS).map(NodeAddr).collect();
    let body = Payload::copy_from(&[0x5A; 1024]);
    for (seq, inj) in plan.iter().enumerate() {
        let dst = match inj.dst {
            Some(d) => Dest::Unicast(NodeAddr(d)),
            None => Dest::Multicast(
                everyone
                    .iter()
                    .copied()
                    .filter(|a| a.0 != inj.src)
                    .collect(),
            ),
        };
        net.send_at(
            inj.at_ns,
            Frame {
                src: NodeAddr(inj.src),
                dst,
                kind: KIND,
                seq: seq as u64,
                payload: body.slice(0, inj.size as usize),
                corrupted: false,
            },
        );
    }
}

/// Copies `plan` must deliver: one per unicast, one per other endpoint per
/// multicast.
pub fn expected_copies(plan: &[Injection]) -> u64 {
    plan.iter()
        .map(|i| {
            if i.dst.is_some() {
                1
            } else {
                u64::from(ENDPOINTS) - 1
            }
        })
        .sum()
}

pub fn run(opts: &RepOptions, host: &mut HostSpans) -> RepOutcome {
    let mut out = RepOutcome::default();
    let plan = injections(opts.seed, opts.div);

    host.enter("phase.build");
    host.enter("hpcnet.topology");
    let topo = topology();
    host.exit();
    let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
    host.exit();

    host.enter("phase.spawn");
    load(&mut net, &plan);
    host.exit();

    if opts.dry {
        return out;
    }
    // `run_inner`, not `run`: a wedged fabric is a failed check, not a panic.
    timed_run(host, &mut out, |_| net.run_inner());

    host.enter("phase.verify");
    out.sim_end_ns = net.now();
    out.ops_attempted = expected_copies(&plan);
    // One slot per (injection, receiving endpoint): a copy is correct if it
    // reaches an endpoint the frame addressed, once, with its payload intact.
    let mut seen = vec![0u64; plan.len()];
    for (t, at, f) in &net.delivered {
        let Some(inj) = plan.get(f.seq as usize) else {
            out.errors
                .push(format!("delivered unknown frame seq {}", f.seq));
            continue;
        };
        let addressed = inj.dst.map_or(at.0 != inj.src, |d| d == at.0);
        let bit = 1u64 << at.0;
        let fresh = seen[f.seq as usize] & bit == 0;
        seen[f.seq as usize] |= bit;
        if addressed && fresh && f.payload.len() == inj.size && *t >= inj.at_ns {
            out.ops_done += 1;
            out.payload_bytes += u64::from(inj.size);
            out.latencies_ns.push(t - inj.at_ns);
        } else {
            out.errors.push(format!(
                "frame {} misdelivered to {at} (addressed {addressed}, first copy {fresh})",
                f.seq
            ));
        }
    }
    out.check(net.waiting_dropped == 0, || {
        format!(
            "{} frames shed from full transmitter retry queues",
            net.waiting_dropped
        )
    });
    let in_flight = net.fabric.in_flight();
    out.check(in_flight == 0, || {
        format!("{in_flight} frames inside the fabric at quiescence")
    });
    let st = &net.fabric.stats;
    out.bump("hpcnet.frames_sent", st.frames_sent);
    out.bump("hpcnet.frames_delivered", st.frames_delivered);
    out.bump("hpcnet.frames_rerouted", st.frames_rerouted);
    out.bump("hpcnet.frames_combined", st.frames_combined);
    out.bump("hpcnet.frames_dropped", st.frames_dropped);
    out.bump("hpcnet.payload_bytes", st.payload_bytes_delivered);
    host.exit();

    host.enter("phase.teardown");
    drop(net);
    host.exit();
    out
}
