//! Partition-tolerance campaign: drive a cross-fabric stream through link
//! cuts — reroutable cuts, short blips, and full partitions with heal — and
//! report what the partition plane costs.
//!
//! The 4-cluster incomplete hypercube (2 endpoints per cluster) runs a
//! writer in cluster 0 streaming 40 × 128 B messages to a reader in
//! cluster 3. Three churn modes, each crossed with background loss:
//!
//! * `reroute` — cut the cable the baseline route uses and never heal it:
//!   the fabric detours over the surviving path; the application never
//!   notices.
//! * `blip`    — isolate cluster 0 entirely, heal before the detection
//!   sweep fires: plain retransmission rides through.
//! * `outage`  — isolate cluster 0 past the sweep: blocked calls fail with
//!   the typed `Partitioned` error, state pauses, and the heal resumes the
//!   same channel without reopening.
//!
//! Writes `BENCH_partition.json` at the workspace root (recovery latency,
//! rerouted frames, failed writes, probe/sweep counts, per-link fault
//! stats).
//!
//! Usage:
//!   partition_campaign            # full sweep + BENCH_partition.json
//!   partition_campaign --smoke    # one outage cell under a wall-clock
//!                                 # watchdog, assert it recovers (CI)

use std::sync::Arc;

use desim::{FaultSchedule, LinkFaults, SimDuration, SimTime};
use parking_lot::Mutex;
use vorx::channel;
use vorx::hpcnet::{ClusterId, Fabric, NetConfig, NodeAddr, Topology};
use vorx::{VorxBuilder, VorxError};
use vorx_bench::campaign::{index_of, msg_payload, with_watchdog, workspace_root};
use vorx_bench::report::{render, Row};

/// Messages in the stream.
const MSGS: u32 = 40;
/// Payload bytes per message.
const MSG_LEN: usize = 128;
/// Gap between writes, so cuts land mid-stream.
const PACE_NS: u64 = 1_000_000;
/// When the scripted cut fires.
const CUT_AT_NS: u64 = 10_000_000;

/// The churn a cell injects.
#[derive(Clone, Copy, PartialEq)]
enum Churn {
    /// Cut the primary-path cable, never heal: the fabric reroutes.
    Reroute,
    /// Isolate cluster 0 for `heal_delay_ns`; heals before/after the
    /// detection sweep depending on the delay.
    Isolate { heal_delay_ns: u64 },
}

impl Churn {
    fn label(self) -> &'static str {
        match self {
            Churn::Reroute => "reroute",
            // The sweep fires `partition_detect_ns` (250 ms) after the cut:
            // a shorter outage is an undetected blip, a longer one a
            // declared partition.
            Churn::Isolate { heal_delay_ns } if heal_delay_ns < 250_000_000 => "blip",
            Churn::Isolate { .. } => "outage",
        }
    }
}

/// The campaign topology.
fn topo() -> Topology {
    Topology::incomplete_hypercube(4, 2).expect("valid hypercube")
}

/// Both directed link ids of the cluster cable `a`–`b` (link numbering is a
/// pure function of the topology).
fn cable(a: u32, b: u32) -> [u32; 2] {
    let f = Fabric::new(topo(), NetConfig::paper_1988());
    [
        f.cluster_link(ClusterId(a), ClusterId(b)).expect("wired").0,
        f.cluster_link(ClusterId(b), ClusterId(a)).expect("wired").0,
    ]
}

/// First endpoint attached to cluster `c`.
fn node_in(c: u32) -> NodeAddr {
    let t = topo();
    (0..t.n_endpoints() as u32)
        .map(NodeAddr)
        .find(|&n| t.cluster_of(n) == ClusterId(c))
        .expect("cluster populated")
}

/// What the reader observed.
#[derive(Default)]
struct Progress {
    delivered: Vec<u32>,
    /// Cut-to-first-post-cut-delivery latency.
    recovery_ns: Option<u64>,
}

/// One campaign cell's outcome.
struct CellResult {
    mode: &'static str,
    loss: f64,
    seed: u64,
    completed: bool,
    delivered: u32,
    elapsed_ns: u64,
    failed_writes: u32,
    retransmits: u64,
    frames_rerouted: u64,
    frames_dropped: u64,
    partitions: u64,
    heals: u64,
    probes_sent: u64,
    recovery_ns: Option<u64>,
    leaked_waiters: usize,
    /// Per-link fault counters for every link the timeline touched.
    link_downs: Vec<(u32, desim::LinkStats)>,
    /// Max port-link occupancy high-water mark (slots).
    depth_hwm: usize,
    /// Max per-switch sheddable-byte high-water mark.
    bytes_hwm: u64,
}

/// Run one cell: fixed seed, `loss` on every link, one scripted churn.
fn run_cell(churn: Churn, loss: f64, seed: u64) -> CellResult {
    let (src, dst) = (node_in(0), node_in(3));
    let mut schedule = FaultSchedule::new(seed);
    if loss > 0.0 {
        schedule = schedule.all_links(LinkFaults::loss(loss));
    }
    match churn {
        Churn::Reroute => {
            let first_hop = topo().cluster_path(src, dst)[1].0;
            for l in cable(0, first_hop) {
                schedule = schedule.link_down_at(l, SimTime::from_ns(CUT_AT_NS));
            }
        }
        Churn::Isolate { heal_delay_ns } => {
            for cab in [cable(0, 1), cable(0, 2)] {
                for l in cab {
                    schedule = schedule
                        .link_down_at(l, SimTime::from_ns(CUT_AT_NS))
                        .link_up_at(l, SimTime::from_ns(CUT_AT_NS + heal_delay_ns));
                }
            }
        }
    }
    let mut v = VorxBuilder::hypercube(4, 2)
        .trace(false)
        .faults(schedule)
        .build();

    // Opens can themselves land inside the outage (the request to the name's
    // home manager is lost or times out across the cut); both sides treat
    // that as transient, like the write path.
    fn open_retrying(
        ctx: &desim::Ctx<vorx::world::World>,
        node: NodeAddr,
        name: &str,
    ) -> channel::ChannelHandle {
        let mut attempts = 0u32;
        loop {
            match channel::try_open(ctx, node, name) {
                Ok(ch) => return ch,
                Err(VorxError::Unreachable | VorxError::Partitioned) => {
                    attempts += 1;
                    assert!(attempts < 200, "open retried unboundedly");
                    ctx.sleep(SimDuration::from_ns(20_000_000));
                }
                Err(e) => panic!("open: unexpected error {e:?}"),
            }
        }
    }

    let failed_writes = Arc::new(Mutex::new(0u32));
    let fw = Arc::clone(&failed_writes);
    v.spawn("writer", move |ctx| {
        let ch = open_retrying(&ctx, src, "part.stream");
        let mut idx = 0u32;
        while idx < MSGS {
            ctx.sleep(SimDuration::from_ns(PACE_NS));
            match ch.write(&ctx, msg_payload(idx, MSG_LEN)) {
                Ok(()) => idx += 1,
                Err(VorxError::Partitioned) => {
                    // Typed, bounded-time failure: count it, wait out the
                    // outage, retry the same message on the same handle.
                    *fw.lock() += 1;
                    assert!(*fw.lock() < 5_000, "writer stalled unboundedly");
                    ctx.sleep(SimDuration::from_ns(20_000_000));
                }
                Err(e) => panic!("writer: unexpected error {e:?}"),
            }
        }
    });

    let progress = Arc::new(Mutex::new(Progress::default()));
    let shared = Arc::clone(&progress);
    v.spawn("reader", move |ctx| {
        let ch = open_retrying(&ctx, dst, "part.stream");
        let mut expect = 0u32;
        let mut stalls = 0u32;
        while expect < MSGS {
            match ch.read(&ctx) {
                Ok(payload) => {
                    let i = index_of(&payload);
                    if i != expect {
                        continue; // app-level duplicate from a write retry
                    }
                    let mut g = shared.lock();
                    let now = ctx.now().as_ns();
                    if now > CUT_AT_NS && g.recovery_ns.is_none() {
                        g.recovery_ns = Some(now - CUT_AT_NS);
                    }
                    g.delivered.push(i);
                    drop(g);
                    expect += 1;
                }
                Err(VorxError::Partitioned) => {
                    stalls += 1;
                    assert!(stalls < 5_000, "reader stalled unboundedly");
                    ctx.sleep(SimDuration::from_ns(20_000_000));
                }
                Err(e) => panic!("reader: unexpected error {e:?}"),
            }
        }
    });

    let report = v.run();
    let elapsed_ns = report.now.as_ns();
    let leaked_waiters = report.parked.len();
    let (stats, frames_rerouted, frames_dropped, link_downs, depth_hwm, bytes_hwm) = {
        let w = v.world();
        let link_downs: Vec<(u32, desim::LinkStats)> = w
            .link_fault_stats()
            .iter()
            .filter(|(_, s)| s.downs > 0 || s.flaps > 0)
            .map(|(l, s)| (*l, *s))
            .collect();
        (
            w.faults.stats.clone(),
            w.net.stats.frames_rerouted,
            w.net.stats.frames_dropped,
            link_downs,
            w.net.max_port_link_depth_hwm(),
            w.net.max_cluster_data_bytes_hwm(),
        )
    };

    let g = progress.lock();
    let in_order = g
        .delivered
        .iter()
        .enumerate()
        .all(|(i, &got)| got == i as u32);
    let delivered = g.delivered.len() as u32;
    let failed_writes = *failed_writes.lock();
    CellResult {
        mode: churn.label(),
        loss,
        seed,
        completed: delivered == MSGS && in_order && leaked_waiters == 0,
        delivered,
        elapsed_ns,
        failed_writes,
        retransmits: stats.retransmits,
        frames_rerouted,
        frames_dropped,
        partitions: stats.partitions,
        heals: stats.heals,
        probes_sent: stats.probes_sent,
        recovery_ns: g.recovery_ns,
        leaked_waiters,
        link_downs,
        depth_hwm,
        bytes_hwm,
    }
}

/// Emit the campaign as hand-rolled JSON (same convention as the other
/// BENCH_*.json reports: no serde dependency on the output path).
fn to_json(cells: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"note\": \"partition campaign: cluster-0 writer -> cluster-3 reader on an \
         incomplete 4-hypercube under link churn\",\n",
    );
    out.push_str(&format!(
        "  \"workload\": {{ \"messages\": {MSGS}, \"bytes_per_message\": {MSG_LEN}, \
         \"clusters\": 4, \"endpoints_per_cluster\": 2, \"cut_at_ns\": {CUT_AT_NS} }},\n",
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let recovery = c
            .recovery_ns
            .map(|n| n.to_string())
            .unwrap_or_else(|| "null".into());
        let links = c
            .link_downs
            .iter()
            .map(|(l, s)| {
                format!(
                    "{{ \"link\": {l}, \"downs\": {}, \"down_drops\": {}, \"flaps\": {} }}",
                    s.downs, s.down_drops, s.flaps
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{ \"mode\": \"{}\", \"loss\": {:.2}, \"seed\": {}, \"completed\": {}, \
             \"delivered\": {}, \"elapsed_ns\": {}, \"failed_writes\": {}, \
             \"retransmits\": {}, \"frames_rerouted\": {}, \"frames_dropped\": {}, \
             \"partitions\": {}, \"heals\": {}, \"probes_sent\": {}, \
             \"recovery_latency_ns\": {}, \"leaked_waiters\": {}, \"links_down\": [{}] }}{}\n",
            c.mode,
            c.loss,
            c.seed,
            c.completed,
            c.delivered,
            c.elapsed_ns,
            c.failed_writes,
            c.retransmits,
            c.frames_rerouted,
            c.frames_dropped,
            c.partitions,
            c.heals,
            c.probes_sent,
            recovery,
            c.leaked_waiters,
            links,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        // CI gate: a declared partition (heal after the sweep) plus 2%
        // loss, under a wall-clock watchdog. The stream must complete
        // exactly-once in order, with the partition both declared and
        // healed, and nothing left parked.
        let c = with_watchdog("partition", 120, None, || {
            run_cell(
                Churn::Isolate {
                    heal_delay_ns: 400_000_000,
                },
                0.02,
                // Same seed as the sweep's outage/2%-loss cell.
                0x9A57 + 5,
            )
        });
        assert!(
            c.completed,
            "smoke: {}/{MSGS} delivered in order",
            c.delivered
        );
        assert!(c.partitions >= 1, "smoke: the sweep never declared");
        assert!(c.heals >= 1, "smoke: the heal never cleared");
        assert!(c.failed_writes >= 1, "smoke: no typed write failure seen");
        assert_eq!(c.leaked_waiters, 0, "smoke: leaked blocked waiters");
        println!(
            "partition-campaign smoke OK: {}/{MSGS} delivered, {} failed writes (typed), \
             {} partitions / {} heals, recovery {:.1} ms, 0 leaked waiters, \
             depth hwm {} slots / {} B",
            c.delivered,
            c.failed_writes,
            c.partitions,
            c.heals,
            c.recovery_ns.unwrap_or(0) as f64 / 1e6,
            c.depth_hwm,
            c.bytes_hwm,
        );
        for (l, s) in &c.link_downs {
            let lat = if s.lat_count > 0 {
                format!(
                    " lat(ns) min/mean/max={}/{}/{} over {}",
                    s.lat_min_ns,
                    s.lat_mean_ns(),
                    s.lat_max_ns,
                    s.lat_count
                )
            } else {
                String::new()
            };
            println!(
                "  link {l}: downs={} mid-flight drops={} flaps={}{lat}",
                s.downs, s.down_drops, s.flaps
            );
        }
        return;
    }

    let mut cells = Vec::new();
    let churns = [
        Churn::Reroute,
        Churn::Isolate {
            heal_delay_ns: 100_000_000,
        },
        Churn::Isolate {
            heal_delay_ns: 400_000_000,
        },
    ];
    for (i, &churn) in churns.iter().enumerate() {
        for (j, &loss) in [0.0, 0.02].iter().enumerate() {
            let seed = 0x9A57 + (i as u64) * 2 + j as u64;
            cells.push(run_cell(churn, loss, seed));
        }
    }

    let rows: Vec<Row> = cells
        .iter()
        .map(|c| {
            let label = format!("{:<8} loss {:>2.0}%", c.mode, c.loss * 100.0);
            Row::new(
                label,
                None,
                c.recovery_ns.unwrap_or(0) as f64 / 1e6,
                "ms to recover",
            )
        })
        .collect();
    print!(
        "{}",
        render(
            &format!(
                "partition campaign: {MSGS} x {MSG_LEN} B stream, cluster 0 -> cluster 3, \
                 cut at {} ms",
                CUT_AT_NS / 1_000_000
            ),
            &rows,
        )
    );
    for c in &cells {
        println!(
            "{:<8} loss {:>4.2}: completed={} failed_writes={} rerouted={} dropped={} \
             partitions={} heals={} probes={} recovery={} depth_hwm={} bytes_hwm={}",
            c.mode,
            c.loss,
            c.completed,
            c.failed_writes,
            c.frames_rerouted,
            c.frames_dropped,
            c.partitions,
            c.heals,
            c.probes_sent,
            c.recovery_ns
                .map(|n| format!("{:.1}ms", n as f64 / 1e6))
                .unwrap_or_else(|| "-".into()),
            c.depth_hwm,
            c.bytes_hwm,
        );
        for (l, s) in &c.link_downs {
            let lat = if s.lat_count > 0 {
                format!(
                    " lat(ns) min/mean/max={}/{}/{} over {}",
                    s.lat_min_ns,
                    s.lat_mean_ns(),
                    s.lat_max_ns,
                    s.lat_count
                )
            } else {
                String::new()
            };
            println!(
                "  link {l}: downs={} mid-flight drops={} flaps={}{lat}",
                s.downs, s.down_drops, s.flaps
            );
        }
    }

    let incomplete = cells.iter().filter(|c| !c.completed).count();
    assert_eq!(
        incomplete, 0,
        "{incomplete} campaign cells failed to recover"
    );

    let root = workspace_root();
    let path = root.join("BENCH_partition.json");
    std::fs::write(&path, to_json(&cells)).expect("write BENCH_partition.json");
    println!("wrote {}", path.display());
}
