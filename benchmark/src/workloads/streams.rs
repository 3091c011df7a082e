//! The four channel-stream workloads: `paper70_sw`, `paper70_win`,
//! `chaos70_sw` and `dense1k_shard`.
//!
//! One writer process and one reader process per stream, closed loop: a
//! writer issues its next blocking `write` only when the previous returned.
//! Every payload carries its index so the reader can check per-stream FIFO
//! order, and every call into `vorx` goes through its `Result` form — a typed
//! error is counted, never unwrapped.

use std::sync::{Arc, Mutex};

use desim::{FaultSchedule, LinkFaults, SimDuration, SimTime};
use hpcnet::{Attachment, ClusterId, Fabric, NetConfig, NodeAddr, Payload, PortRef, Topology};
use vorx::{channel, Calibration, VCtx, VorxBuilder, VorxError};

use super::{timed_run, RepOptions, RepOutcome, Sim, Workload};
use crate::inputs::{self, FaultPlan, Stream, StreamPlan, PAPER_SIZES};
use crate::spans::{HostSpans, SimSpans};

/// The paper's machine: "10 clusters of 7" is its 70-node incomplete
/// hypercube.
const PAPER_CLUSTERS: u32 = 10;
const PAPER_PER_CLUSTER: u32 = 7;
/// Streams per endpoint, to the next this-many clusters.
const PAPER_FANOUT: u32 = 3;

/// Messages per stream at full size. Sized on a 2-CPU host so one rep runs
/// ≈1.5 s pinned: a 10 s run then holds six, and the best of six repeats
/// within a few percent where a single rep does not (README, "noise").
const PAPER_SW_MSGS: u32 = 48;
const PAPER_WIN_MSGS: u32 = 24;
const CHAOS_MSGS: u32 = 100;
const CHAOS_MSG_BYTES: u32 = 256;
const DENSE_MSGS: u32 = 10;
const DENSE_MSG_BYTES: u32 = 256;
const DENSE_THINK_NS: u64 = 200_000;
/// The windowed workload's credit window, fragments — and its burst: a
/// writer hands the channel a full window back to back, then thinks.
const WINDOW: u32 = 8;
/// Think time between bursts. Without it 210 writers with 8 messages in
/// flight each keep every node's queue longer than the 20 ms ack timeout:
/// ≈1000 spurious retransmissions in a fault-free world, and simulated
/// latencies that move ±20 % when only a size phase changes. At 24 ms the
/// window still fills on every burst and nothing is retransmitted.
const WIN_THINK_NS: u64 = 24_000_000;
/// The chaos workload's ack timeout: the calibration's own `rto_floor_ns`
/// in place of its 20 ms `chan_ack_timeout_ns`. Timeouts double per retry,
/// so at 20 ms one message in ten thousand waits over a second and the
/// workload's end time is whatever the unluckiest message makes it.
const CHAOS_ACK_TIMEOUT_NS: u64 = 5_000_000;

/// Failover generations per stream end before it gives up.
const MAX_GENERATIONS: u32 = 16;
/// Tries, and the pause between them, for one generation's open.
const MAX_OPEN_TRIES: u32 = 8;
const OPEN_RETRY_PAUSE: SimDuration = SimDuration::from_ms(5);

/// What the two processes of one stream saw.
#[derive(Default)]
struct StreamLog {
    /// Simulated time message `i` was first handed to `write`.
    sent_ns: Vec<Option<u64>>,
    /// Simulated time message `i` came back from `read`, in commit order.
    recv_ns: Vec<u64>,
    typed_errors: u64,
    fifo_violations: u64,
    bad_payloads: u64,
    /// Why an end gave up, if it did.
    gave_up: Option<String>,
}

struct Shared {
    plan: StreamPlan,
    logs: Vec<Mutex<StreamLog>>,
    /// On a typed error, fail over to the next channel generation instead of
    /// ending the stream (the chaos workload).
    failover: bool,
    spans: Arc<SimSpans>,
}

impl Shared {
    fn log<R>(&self, stream: usize, f: impl FnOnce(&mut StreamLog) -> R) -> R {
        f(&mut self.logs[stream]
            .lock()
            .expect("stream log poisoned by a panicking process"))
    }
}

fn chan_name(stream: usize, generation: u32) -> String {
    format!("s{stream}.g{generation}")
}

/// `size` bytes carrying `idx` in the first four.
fn payload(idx: u32, size: u32) -> Payload {
    let mut buf = vec![0u8; size as usize];
    buf[..4].copy_from_slice(&idx.to_le_bytes());
    Payload::copy_from(&buf)
}

fn index_of(p: &Payload) -> Option<u32> {
    let b = p.bytes()?;
    Some(u32::from_le_bytes(b.get(..4)?.try_into().ok()?))
}

/// Open one generation of a stream's channel. A typed error is counted and
/// the same generation retried — after this node's restart if it was the one
/// that went down — because the peer is parked on that name; `None` once the
/// retry budget is spent.
fn open(
    ctx: &VCtx,
    sh: &Shared,
    stream: usize,
    node: NodeAddr,
    generation: u32,
) -> Option<channel::ChannelHandle> {
    let name = chan_name(stream, generation);
    for _ in 0..MAX_OPEN_TRIES {
        let t0 = ctx.now();
        match channel::try_open(ctx, node, &name) {
            Ok(ch) => {
                sh.spans
                    .record("sim.open_us", stream as u32, t0.as_ns(), ctx.now().as_ns());
                return Some(ch);
            }
            Err(e) => {
                sh.log(stream, |l| l.typed_errors += 1);
                if !sh.failover {
                    sh.log(stream, |l| l.gave_up = Some(format!("open {name}: {e}")));
                    return None;
                }
                if e == VorxError::NodeDown {
                    vorx::fault::wait_until_up(ctx, node);
                } else {
                    ctx.sleep(OPEN_RETRY_PAUSE);
                }
            }
        }
    }
    sh.log(stream, |l| {
        l.gave_up = Some(format!("open {name}: retry budget spent"))
    });
    None
}

fn writer(ctx: &VCtx, sh: &Shared, stream: usize, s: Stream) {
    let node = NodeAddr(s.src);
    let msgs = sh.plan.msgs_per_stream;
    let mut generation = 0;
    let Some(mut ch) = open(ctx, sh, stream, node, generation) else {
        return;
    };
    let mut idx = 0;
    while idx < msgs {
        if sh.plan.think_ns > 0 && idx % sh.plan.burst == 0 {
            ctx.sleep(SimDuration::from_ns(sh.plan.think_ns));
        }
        let t0 = ctx.now().as_ns();
        sh.log(stream, |l| {
            l.sent_ns[idx as usize].get_or_insert(t0);
        });
        match ch.write(ctx, payload(idx, sh.plan.size_of(&s, idx))) {
            Ok(()) => {
                sh.spans
                    .record("sim.write_us", stream as u32, t0, ctx.now().as_ns());
                idx += 1;
            }
            Err(e) => {
                sh.log(stream, |l| l.typed_errors += 1);
                if !sh.failover || generation >= MAX_GENERATIONS {
                    sh.log(stream, |l| l.gave_up = Some(format!("write {idx}: {e}")));
                    return;
                }
                // Abandon this generation and rendezvous on the next; the
                // reader reports how far it got, which both rewinds past
                // what the fault swallowed and skips what was committed.
                if e == VorxError::NodeDown {
                    vorx::fault::wait_until_up(ctx, node);
                }
                ch.close(ctx);
                generation += 1;
                let Some(next) = open(ctx, sh, stream, node, generation) else {
                    return;
                };
                ch = next;
                match ch.read(ctx).ok().as_ref().and_then(index_of) {
                    Some(resume) => idx = resume.min(msgs),
                    // The reader fell over again before its resume point
                    // got through: the next write fails and we come back.
                    None => sh.log(stream, |l| l.typed_errors += 1),
                }
            }
        }
    }
    ch.close(ctx);
}

fn reader(ctx: &VCtx, sh: &Shared, stream: usize, s: Stream) {
    let node = NodeAddr(s.dst);
    let msgs = sh.plan.msgs_per_stream;
    let mut generation = 0;
    let mut expect = 0u32;
    loop {
        let Some(ch) = open(ctx, sh, stream, node, generation) else {
            return;
        };
        let mut alive = generation == 0 || ch.write(ctx, payload(expect, 4)).is_ok();
        while alive && expect < msgs {
            let t0 = ctx.now().as_ns();
            match ch.read(ctx) {
                Ok(p) => {
                    let now = ctx.now().as_ns();
                    sh.spans.record("sim.read_wait_us", stream as u32, t0, now);
                    match index_of(&p) {
                        Some(i) if i == expect => {
                            let right_size = p.len() == sh.plan.size_of(&s, i);
                            sh.log(stream, |l| {
                                l.recv_ns.push(now);
                                l.bad_payloads += u64::from(!right_size);
                            });
                            expect += 1;
                        }
                        // A resend from before the writer's rewind.
                        Some(i) if i < expect && generation > 0 => {}
                        Some(_) => sh.log(stream, |l| l.fifo_violations += 1),
                        None => sh.log(stream, |l| l.bad_payloads += 1),
                    }
                }
                Err(e) => {
                    sh.log(stream, |l| l.typed_errors += 1);
                    if e == VorxError::NodeDown {
                        vorx::fault::wait_until_up(ctx, node);
                    }
                    alive = false;
                }
            }
        }
        if expect >= msgs {
            return;
        }
        if !sh.failover || generation >= MAX_GENERATIONS {
            sh.log(stream, |l| {
                l.gave_up = Some(format!("read stopped at {expect}"))
            });
            return;
        }
        generation += 1;
    }
}

/// The inter-cluster cables of `topo`, each once, lower cluster first.
fn cables(topo: &Topology) -> Vec<(ClusterId, ClusterId)> {
    let mut out = Vec::new();
    for c in 0..topo.n_clusters() as u32 {
        for port in 0..hpcnet::PORTS_PER_CLUSTER as u8 {
            let here = PortRef {
                cluster: ClusterId(c),
                port,
            };
            if let Attachment::Cluster(peer) = topo.attachment(here) {
                if c < peer.cluster.0 {
                    out.push((ClusterId(c), peer.cluster));
                }
            }
        }
    }
    out
}

/// Turn the seeded plan into the program's own fault-script type. A cable is
/// two directed links; both go down and up together.
fn fault_schedule(topo: &Topology, plan: &FaultPlan) -> FaultSchedule {
    let probe = Fabric::new(topo.clone(), NetConfig::paper_1988());
    let cables = cables(topo);
    // Loss starts once the opening rendezvous is over: an open whose reply is
    // lost leaves its two ends disagreeing about whether they are connected,
    // and no failover protocol built on `try_open` alone can tell.
    let mut sch = FaultSchedule::new(plan.loss_seed);
    for link in 0..probe.n_links() as u32 {
        sch = sch.degrade_at(
            link,
            SimTime::from_ns(plan.loss_from_ns),
            LinkFaults::loss(plan.loss),
        );
    }
    for cut in &plan.cables {
        let (a, b) = cables[cut.cable as usize];
        for (from, to) in [(a, b), (b, a)] {
            let link = probe
                .cluster_link(from, to)
                .expect("a listed cable is wired both ways")
                .0;
            sch = sch
                .link_down_at(link, SimTime::from_ns(cut.down_ns))
                .link_up_at(link, SimTime::from_ns(cut.up_ns));
        }
    }
    sch.down_at(plan.crash.node, SimTime::from_ns(plan.crash.down_ns))
        .up_at(plan.crash.node, SimTime::from_ns(plan.crash.up_ns))
}

fn paper_topology() -> Topology {
    Topology::incomplete_hypercube(PAPER_CLUSTERS as usize, PAPER_PER_CLUSTER as usize)
        .expect("the paper's 10x7 machine is a valid incomplete hypercube")
}

/// The topology a stream workload runs on.
pub fn topology_for(w: Workload) -> Topology {
    match w {
        Workload::Dense1kShard => Topology::hierarchical_hypercube(&[8, 16], 8)
            .expect("the 1024-endpoint hierarchy is valid"),
        _ => paper_topology(),
    }
}

/// The seeded inputs of a stream workload.
pub fn plan_for(w: Workload, seed: u64, div: u32) -> StreamPlan {
    let scaled = |m: u32| (m / div).max(2);
    let ring = |sizes: &[u32], msgs| {
        inputs::ring_streams(
            seed,
            PAPER_CLUSTERS,
            PAPER_PER_CLUSTER,
            PAPER_FANOUT,
            sizes,
            scaled(msgs),
        )
    };
    match w {
        Workload::Paper70Sw => ring(&PAPER_SIZES, PAPER_SW_MSGS),
        Workload::Paper70Win => StreamPlan {
            burst: WINDOW,
            think_ns: WIN_THINK_NS,
            ..ring(&PAPER_SIZES, PAPER_WIN_MSGS)
        },
        Workload::Chaos70Sw => ring(&[CHAOS_MSG_BYTES], CHAOS_MSGS),
        Workload::Dense1kShard => inputs::dense_streams(
            seed,
            1024,
            DENSE_MSG_BYTES,
            scaled(DENSE_MSGS),
            DENSE_THINK_NS,
        ),
        other => panic!("{} is not a stream workload", other.name()),
    }
}

pub fn run(
    w: Workload,
    opts: &RepOptions,
    host: &mut HostSpans,
    sim_spans: &Arc<SimSpans>,
) -> RepOutcome {
    let mut out = RepOutcome::default();
    let plan = plan_for(w, opts.seed, opts.div);

    host.enter("phase.build");
    host.enter("hpcnet.topology");
    let topo = topology_for(w);
    host.exit();
    host.enter("vorx.build");
    let builder = VorxBuilder::with_topology(topo.clone())
        .seed(opts.seed)
        .trace(opts.sim_trace);
    let mut sim = match w {
        Workload::Paper70Sw => Sim::Seq(builder.build()),
        Workload::Paper70Win => Sim::Seq(
            builder
                .calibration(Calibration::paper_1988_windowed(WINDOW))
                .build(),
        ),
        Workload::Chaos70Sw => {
            let n_cables = cables(&topo).len() as u32;
            let faults = inputs::fault_plan(opts.seed, n_cables, topo.n_endpoints() as u32);
            let calib = Calibration {
                chan_ack_timeout_ns: CHAOS_ACK_TIMEOUT_NS,
                ..Calibration::paper_1988()
            };
            Sim::Seq(
                builder
                    .calibration(calib)
                    .faults(fault_schedule(&topo, &faults))
                    .build(),
            )
        }
        _ => Sim::Sharded(builder.shards(8).build_sharded(opts.workers)),
    };
    host.exit();
    host.exit();

    host.enter("phase.spawn");
    let msgs = plan.msgs_per_stream as usize;
    let shared = Arc::new(Shared {
        logs: plan
            .streams
            .iter()
            .map(|_| {
                Mutex::new(StreamLog {
                    sent_ns: vec![None; msgs],
                    recv_ns: Vec::with_capacity(msgs),
                    ..StreamLog::default()
                })
            })
            .collect(),
        plan,
        failover: w == Workload::Chaos70Sw,
        spans: Arc::clone(sim_spans),
    });
    for (i, &s) in shared.plan.streams.iter().enumerate() {
        let sh = Arc::clone(&shared);
        sim.spawn_at(NodeAddr(s.src), format!("n{}:w{i}", s.src), move |ctx| {
            writer(&ctx, &sh, i, s)
        });
        let sh = Arc::clone(&shared);
        sim.spawn_at(NodeAddr(s.dst), format!("n{}:r{i}", s.dst), move |ctx| {
            reader(&ctx, &sh, i, s)
        });
    }
    host.exit();

    if opts.dry {
        drop(sim);
        return out;
    }
    let end = timed_run(host, &mut out, |_| sim.run());

    host.enter("phase.verify");
    out.sim_end_ns = end.end_ns;
    out.ops_attempted = shared.plan.total_msgs();
    out.check(!end.deadline_hit, || {
        "simulated-time deadline hit before quiescence".into()
    });
    out.check(end.parked.is_empty(), || {
        format!(
            "{} processes parked at quiescence, e.g. {:?}",
            end.parked.len(),
            &end.parked[..end.parked.len().min(3)]
        )
    });
    let mut typed_errors = 0;
    for (i, s) in shared.plan.streams.iter().enumerate() {
        let log = shared.log(i, std::mem::take);
        typed_errors += log.typed_errors;
        out.ops_done += log.recv_ns.len() as u64;
        for (k, &recv) in log.recv_ns.iter().enumerate() {
            out.payload_bytes += u64::from(shared.plan.size_of(s, k as u32));
            match log.sent_ns[k] {
                Some(sent) if sent <= recv => out.latencies_ns.push(recv - sent),
                _ => out
                    .errors
                    .push(format!("stream {i} message {k} read before it was written")),
            }
        }
        out.check(log.fifo_violations == 0, || {
            format!("stream {i}: {} messages out of order", log.fifo_violations)
        });
        out.check(log.bad_payloads == 0, || {
            format!("stream {i}: {} damaged payloads", log.bad_payloads)
        });
        if let Some(why) = log.gave_up {
            out.errors.push(format!("stream {i} gave up: {why}"));
        }
    }
    out.bump("vorx.typed_errors", typed_errors);
    out.check(shared.failover || typed_errors == 0, || {
        format!("{typed_errors} typed errors in a fault-free world")
    });
    let in_flight = sim.in_flight();
    out.check(in_flight == 0, || {
        format!("{in_flight} frames inside the fabric at quiescence")
    });
    sim.collect_counters(&mut out);
    host.exit();

    // Dropping the world joins every process thread; with 2048 of them that
    // is not free, so it gets a phase of its own.
    host.enter("phase.teardown");
    drop(sim);
    host.exit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_its_index() {
        for size in PAPER_SIZES {
            let p = payload(0xABCD, size);
            assert_eq!(p.len(), size);
            assert_eq!(index_of(&p), Some(0xABCD));
        }
        assert_eq!(index_of(&Payload::Synthetic(64)), None);
    }

    #[test]
    fn the_paper_machine_has_distinct_cables_wired_both_ways() {
        let topo = paper_topology();
        let cs = cables(&topo);
        let probe = Fabric::new(topo, NetConfig::paper_1988());
        assert!(cs.len() >= 9, "a connected 10-cluster graph");
        for &(a, b) in &cs {
            assert!(probe.cluster_link(a, b).is_some() && probe.cluster_link(b, a).is_some());
        }
        let mut dedup = cs.clone();
        dedup.sort_by_key(|&(a, b)| (a.0, b.0));
        dedup.dedup();
        assert_eq!(dedup.len(), cs.len());
    }

    #[test]
    fn same_seed_same_fault_script() {
        let topo = paper_topology();
        let n = cables(&topo).len() as u32;
        let script = |seed| {
            let s = fault_schedule(&topo, &inputs::fault_plan(seed, n, 70));
            s.events()
                .iter()
                .map(|e| format!("{:?}@{}", e.action, e.at.as_ns()))
                .collect::<Vec<_>>()
        };
        assert_eq!(script(4), script(4));
        assert_ne!(script(4), script(5));
        // Loss switched on once per link; two cables, two directions, down and
        // up; one node down and up.
        let (loss_on, rest): (Vec<_>, Vec<_>) = script(4)
            .into_iter()
            .partition(|e| e.starts_with("LinkDegrade"));
        let n_links = Fabric::new(topo.clone(), NetConfig::paper_1988()).n_links();
        assert_eq!((loss_on.len(), rest.len()), (n_links, 2 * 2 * 2 + 2));
    }
}
