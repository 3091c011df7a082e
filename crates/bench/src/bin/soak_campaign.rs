//! Chaos-soak campaign: layer every fault class the simulator knows — loss,
//! corruption, crash/restart churn, link flaps, and scripted overload
//! (budget squeezes + traffic-amplification bursts) — over long sim-time
//! runs on the sharded engine, and hold the result against online
//! invariant oracles.
//!
//! The 4-cluster incomplete hypercube (4 endpoints per cluster) carries
//! eight paced streams (one intra-cluster and one cross-cluster per
//! cluster) plus a listener/client rendezvous, all under:
//!
//! * 2% loss and 1% corruption on every link,
//! * two spare-node crash/restart cycles,
//! * a cluster-cable flap,
//! * byte-budget squeezes to zero on two switches (restored mid-run), and
//! * a burst window that amplifies payload sizes, derived purely from sim
//!   time so replay stays deterministic.
//!
//! Oracles (checked online by the readers and at quiescence over every
//! shard):
//!
//! 1. per-stream exactly-once FIFO delivery,
//! 2. no stuck writers — every process runs to completion,
//! 3. every port-link depth high-water mark within its hardware cap, and
//!    every switch's sheddable-byte high-water mark within the budget,
//! 4. all switch buffers drained at idle,
//! 5. membership convergence: all nodes up, no partition marks, no
//!    in-flight probes,
//! 6. replica consistency: every hash-home server registration present on
//!    its successor replica,
//! 7. the memory accountant's idle nodes still at the O(1) baseline,
//!
//! and — across the whole campaign — workers 1 and 4 must produce
//! bit-identical merged traces. (Deep cross-cluster partitions are the
//! sequential `partition_campaign`'s job: bridged frames model no link
//! churn — DESIGN.md §12.)
//!
//! Writes `BENCH_soak.json` at the workspace root.
//!
//! Usage:
//!   soak_campaign            # 3-seed sweep + BENCH_soak.json
//!   soak_campaign --smoke    # one seed under a wall-clock watchdog (CI)

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use desim::{FaultSchedule, LinkFaults, SimDuration, SimTime};
use vorx::hpcnet::{ClusterId, Fabric, LinkId, NetConfig, NodeAddr, Payload, Topology};
use vorx::{accounting, channel, objmgr, FaultStats, VCtx, VorxBuilder, VorxShardedSim, World};
use vorx_bench::campaign::{index_of, msg_payload, with_watchdog, workspace_root};

/// Clusters in the campaign machine.
const CLUSTERS: u32 = 4;
/// Endpoints per cluster.
const PER_CLUSTER: u32 = 4;
/// Baseline per-switch sheddable-byte budget: finite (so the overload
/// plane is armed and the byte oracle has a bound) but far above what the
/// workload can buffer — only the scripted squeezes ever shed.
const BYTE_BUDGET: u64 = 64 * 1024;
/// Gap between stream writes.
const PACE_NS: u64 = 2_000_000;
/// Base payload bytes (amplified by burst windows).
const BASE_LEN: u32 = 96;
/// Burst window: payloads double while it is active.
const BURST_NS: (u64, u64) = (5_000_000, 20_000_000);
/// Squeeze window: clusters 0 and 2 drop to a zero byte budget here, so
/// every sheddable frame needing switch buffering inside it is shed.
const SQUEEZE_NS: (u64, u64) = (15_000_000, 40_000_000);

fn topo() -> Topology {
    Topology::incomplete_hypercube(CLUSTERS as usize, PER_CLUSTER as usize).expect("valid machine")
}

/// Endpoints of cluster `c`, in address order.
fn nodes_of(t: &Topology, c: u32) -> Vec<NodeAddr> {
    t.endpoints()
        .filter(|&n| t.cluster_of(n) == ClusterId(c))
        .collect()
}

/// Both directed link ids of the cluster cable `a`–`b`.
fn cable(a: u32, b: u32) -> [u32; 2] {
    let f = Fabric::new(topo(), NetConfig::paper_1988());
    [
        f.cluster_link(ClusterId(a), ClusterId(b)).expect("wired").0,
        f.cluster_link(ClusterId(b), ClusterId(a)).expect("wired").0,
    ]
}

/// Everything one `(seed, workers)` run produced, oracles pre-evaluated.
struct RunOutcome {
    trace: String,
    end_ns: u64,
    delivered: u32,
    done: u32,
    expected_done: u32,
    fifo_ok: bool,
    depth_ok: bool,
    bytes_ok: bool,
    drained: bool,
    membership_ok: bool,
    replicas_ok: bool,
    accountant_ok: bool,
    max_port_depth_hwm: usize,
    max_bytes_hwm: u64,
    frames_shed: u64,
    shed_links: usize,
    stats: FaultStats,
    mem_max: u64,
    mem_total: u64,
    mem_idle: usize,
    flaps: u64,
    lat_min_ns: u64,
    lat_mean_ns: u64,
    lat_max_ns: u64,
}

/// The fault script: every class layered on one seeded schedule. All of it
/// is a pure function of `(seed, sim time)` — nothing here can diverge
/// across worker counts.
fn soak_schedule(seed: u64, t: &Topology) -> FaultSchedule {
    let spare_a = *nodes_of(t, 0).last().expect("populated");
    let spare_c = *nodes_of(t, 2).last().expect("populated");
    let mut s = FaultSchedule::new(seed)
        .all_links(LinkFaults {
            drop: 0.02,
            corrupt: 0.01,
            delay: 0.0,
            delay_ns: 0,
        })
        // Crash/restart churn on process-free spares.
        .down_at(spare_a.0, SimTime::from_ns(20_000_000))
        .up_at(spare_a.0, SimTime::from_ns(45_000_000))
        .down_at(spare_c.0, SimTime::from_ns(30_000_000))
        .up_at(spare_c.0, SimTime::from_ns(55_000_000))
        // Overload: squeeze two switches to zero budget, then restore the
        // finite baseline; amplify offered load inside the burst window.
        .squeeze_at(0, SimTime::from_ns(SQUEEZE_NS.0), 0)
        .squeeze_at(0, SimTime::from_ns(SQUEEZE_NS.1), BYTE_BUDGET)
        .squeeze_at(2, SimTime::from_ns(SQUEEZE_NS.0), 0)
        .squeeze_at(2, SimTime::from_ns(SQUEEZE_NS.1), BYTE_BUDGET)
        .burst(
            SimTime::from_ns(BURST_NS.0),
            SimTime::from_ns(BURST_NS.1),
            2,
        );
    // A cluster-cable flap rides along.
    for l in cable(0, 1) {
        s = s
            .link_down_at(l, SimTime::from_ns(10_000_000))
            .link_up_at(l, SimTime::from_ns(25_000_000));
    }
    s
}

/// Per-shard snapshot of everything the quiescence oracles need, taken
/// under one short lock so no two shard guards are ever held together.
struct ShardSnap {
    /// `(node, [(servers-map key, server node)])` for owned nodes.
    servers: Vec<(u32, Vec<(String, u32)>)>,
    membership_ok: bool,
    depth_ok: bool,
    max_port_depth: usize,
    bytes_hwm: u64,
    bytes_now: u64,
    mem_max: u64,
    mem_total: u64,
    mem_idle: usize,
    stats: FaultStats,
    frames_shed: u64,
    shed_links: usize,
    flaps: u64,
    lat_min_ns: u64,
    lat_max_ns: u64,
    lat_sum_ns: u64,
    lat_count: u64,
}

fn snapshot_shard(w: &World, t: &Topology, shard: usize) -> ShardSnap {
    let owned: Vec<NodeAddr> = nodes_of(t, shard as u32);
    let mut snap = ShardSnap {
        servers: Vec::new(),
        membership_ok: true,
        depth_ok: true,
        max_port_depth: w.net.max_port_link_depth_hwm(),
        bytes_hwm: w.net.cluster_data_bytes_hwm(ClusterId(shard as u32)),
        bytes_now: w.net.cluster_data_bytes(ClusterId(shard as u32)),
        mem_max: 0,
        mem_total: 0,
        mem_idle: 0,
        stats: w.faults.stats.clone(),
        frames_shed: w.net.stats.frames_shed,
        shed_links: w.link_fault_stats().values().filter(|s| s.shed > 0).count(),
        flaps: w.link_fault_stats().values().map(|s| s.flaps).sum(),
        lat_min_ns: u64::MAX,
        lat_max_ns: 0,
        lat_sum_ns: 0,
        lat_count: 0,
    };
    // Delivered-latency profile over every link this shard recorded.
    for ls in w.link_fault_stats().values() {
        if ls.lat_count > 0 {
            snap.lat_min_ns = snap.lat_min_ns.min(ls.lat_min_ns);
            snap.lat_max_ns = snap.lat_max_ns.max(ls.lat_max_ns);
            snap.lat_sum_ns += ls.lat_sum_ns;
            snap.lat_count += ls.lat_count;
        }
    }
    // Hardware flow control must hold on every port link; endpoint rx
    // links are exempt (the documented cross-shard bridge simplification).
    for l in 0..w.net.n_links() {
        let l = LinkId(l as u32);
        if !w.net.link_ends_at_endpoint(l) && w.net.link_depth_hwm(l) > w.net.link_cap(l) {
            snap.depth_ok = false;
        }
    }
    let baseline = accounting::idle_node_bytes();
    for &a in &owned {
        let n = &w.nodes[a.0 as usize];
        if !(n.up && n.mbr.partitioned.is_empty() && n.mbr.probing.is_empty()) {
            snap.membership_ok = false;
        }
        let entries: Vec<(String, u32)> = n
            .mgr
            .servers
            .iter()
            .map(|(k, v)| (k.clone(), v.0))
            .collect();
        if !entries.is_empty() {
            snap.servers.push((a.0, entries));
        }
        let b = accounting::node_mem_bytes(n);
        snap.mem_max = snap.mem_max.max(b);
        snap.mem_total += b;
        if b == baseline {
            snap.mem_idle += 1;
        }
    }
    snap
}

/// Replica-consistency oracle over the collected per-shard snapshots:
/// every registration held by its hash-home must also sit on the successor
/// replica. (Distributed mode: home = hash(name) mod n, successor = the
/// next address — `objmgr::successor_for` in closed form.)
fn replicas_consistent(snaps: &[ShardSnap], n_nodes: u64) -> bool {
    let lookup = |node: u32, key: &str| -> Option<u32> {
        snaps
            .iter()
            .flat_map(|s| &s.servers)
            .find(|(n, _)| *n == node)
            .and_then(|(_, es)| es.iter().find(|(k, _)| k == key))
            .map(|(_, v)| *v)
    };
    for (node, entries) in snaps.iter().flat_map(|s| &s.servers) {
        for (key, server) in entries {
            // The servers-map key is `<kind>\0<name>`; the hash home is a
            // function of the name alone.
            let Some(name) = key.split('\0').nth(1) else {
                continue;
            };
            let home = (objmgr::name_hash(name) % n_nodes) as u32;
            if home != *node {
                continue; // a replica copy, not the home's own entry
            }
            let succ = ((u64::from(home) + 1) % n_nodes) as u32;
            if succ == home {
                continue;
            }
            if lookup(succ, key) != Some(*server) {
                return false;
            }
        }
    }
    true
}

/// Run the full soak once at `workers`, oracles evaluated at quiescence.
fn run_once(seed: u64, workers: usize, msgs: u32) -> RunOutcome {
    let t = topo();
    let mut v: VorxShardedSim = VorxBuilder::with_topology(t.clone())
        .seed(seed)
        .net_config(NetConfig {
            switch_byte_budget: BYTE_BUDGET,
            ..NetConfig::paper_1988()
        })
        .faults(soak_schedule(seed, &t))
        .build_sharded(workers);

    let done = Arc::new(AtomicU32::new(0));
    let fifo_ok = Arc::new(AtomicBool::new(true));
    let delivered = Arc::new(AtomicU32::new(0));
    // One paced writer/reader pair per stream; the reader is the online
    // FIFO oracle — it checks every delivery for exactly-once order the
    // moment it lands.
    let mut streams: Vec<(NodeAddr, NodeAddr, String)> = Vec::new();
    for c in 0..CLUSTERS {
        let here = nodes_of(&t, c);
        let next = nodes_of(&t, (c + 1) % CLUSTERS);
        // Intra-cluster: rides through its own switch, so the squeezes on
        // clusters 0 and 2 shed it; recovery is retransmission.
        streams.push((here[0], here[1], format!("soak.i{c}")));
        // Cross-cluster: exercises the shard bridge under the same churn.
        streams.push((here[2], next[2], format!("soak.x{c}")));
    }
    for (wn, rn, name) in streams {
        let rname = name.clone();
        let (f_ok, del, d1, d2) = (
            Arc::clone(&fifo_ok),
            Arc::clone(&delivered),
            Arc::clone(&done),
            Arc::clone(&done),
        );
        v.spawn_at(wn, format!("n{}:w:{name}", wn.0), move |ctx: VCtx| {
            let ch = channel::open(&ctx, wn, &name);
            for i in 0..msgs {
                ctx.sleep(SimDuration::from_ns(PACE_NS));
                // Offered load amplifies inside burst windows —
                // deterministically, from sim time alone.
                let amp = ctx.with(|w, s| w.faults.schedule.amplification(s.now().as_ns()));
                ch.write(&ctx, msg_payload(i, (BASE_LEN * amp.max(1)) as usize))
                    .expect("writer failed");
            }
            d1.fetch_add(1, Ordering::Relaxed);
        });
        v.spawn_at(rn, format!("n{}:r:{rname}", rn.0), move |ctx: VCtx| {
            let ch = channel::open(&ctx, rn, &rname);
            for expect in 0..msgs {
                let i = index_of(&ch.read(&ctx).expect("reader failed"));
                if i != expect {
                    f_ok.store(false, Ordering::Relaxed);
                }
                del.fetch_add(1, Ordering::Relaxed);
            }
            d2.fetch_add(1, Ordering::Relaxed);
        });
    }
    // Listener/client rendezvous: server registrations flow through the
    // distributed manager and its successor replica (oracle 6), and the
    // connections ride the bounded listener backlog.
    let srv = nodes_of(&t, 1)[3];
    let cli = nodes_of(&t, 3)[3];
    let (del, d) = (Arc::clone(&delivered), Arc::clone(&done));
    v.spawn_at(srv, format!("n{}:server", srv.0), move |ctx: VCtx| {
        let lst = channel::listen(&ctx, srv, "soak.srv");
        for _ in 0..2 {
            let ch = lst.accept(&ctx);
            ch.read(&ctx).expect("server read");
            del.fetch_add(1, Ordering::Relaxed);
        }
        d.fetch_add(1, Ordering::Relaxed);
    });
    for k in 0..2u32 {
        let d = Arc::clone(&done);
        v.spawn_at(cli, format!("n{}:client{k}", cli.0), move |ctx: VCtx| {
            // Let the listener register before the first client open.
            ctx.sleep(SimDuration::from_ns(1_000_000 * u64::from(k + 1)));
            let ch = channel::open(&ctx, cli, "soak.srv");
            ch.write(&ctx, Payload::copy_from(b"soak"))
                .expect("client write");
            d.fetch_add(1, Ordering::Relaxed);
        });
    }
    let expected_done = 8 * 2 + 1 + 2;

    let end = v.run_all();
    let trace = v.merged_trace().to_json();

    let snaps: Vec<ShardSnap> = (0..v.n_shards())
        .map(|k| snapshot_shard(&v.world(k), &t, k))
        .collect();
    let mut stats = FaultStats::default();
    let (mut depth_ok, mut bytes_ok, mut drained, mut membership_ok) = (true, true, true, true);
    let (mut max_depth, mut max_bytes, mut shed, mut shed_links) = (0usize, 0u64, 0u64, 0usize);
    let (mut mem_max, mut mem_total, mut mem_idle) = (0u64, 0u64, 0usize);
    let mut flaps = 0u64;
    let (mut lat_min, mut lat_max, mut lat_sum, mut lat_count) = (u64::MAX, 0u64, 0u64, 0u64);
    for s in &snaps {
        flaps += s.flaps;
        if s.lat_count > 0 {
            lat_min = lat_min.min(s.lat_min_ns);
            lat_max = lat_max.max(s.lat_max_ns);
            lat_sum += s.lat_sum_ns;
            lat_count += s.lat_count;
        }
        depth_ok &= s.depth_ok;
        bytes_ok &= s.bytes_hwm <= BYTE_BUDGET;
        drained &= s.bytes_now == 0;
        membership_ok &= s.membership_ok;
        max_depth = max_depth.max(s.max_port_depth);
        max_bytes = max_bytes.max(s.bytes_hwm);
        shed += s.frames_shed;
        shed_links += s.shed_links;
        mem_max = mem_max.max(s.mem_max);
        mem_total += s.mem_total;
        mem_idle += s.mem_idle;
        stats.retransmits += s.stats.retransmits;
        stats.corrupted_rx += s.stats.corrupted_rx;
        stats.crashes += s.stats.crashes;
        stats.restarts += s.stats.restarts;
        stats.heals += s.stats.heals;
        stats.busy_sent += s.stats.busy_sent;
        stats.overload_rideouts += s.stats.overload_rideouts;
        stats.table_rejects += s.stats.table_rejects;
        stats.peer_down_events += s.stats.peer_down_events;
    }
    let n_nodes = u64::from(CLUSTERS) * u64::from(PER_CLUSTER);
    // The two crash/restart spares plus all-idle bystanders must leave at
    // least the untouched endpoints at the O(1) baseline.
    let accountant_ok = mem_idle >= 2;
    RunOutcome {
        trace,
        end_ns: end.as_ns(),
        delivered: delivered.load(Ordering::Relaxed),
        done: done.load(Ordering::Relaxed),
        expected_done,
        fifo_ok: fifo_ok.load(Ordering::Relaxed),
        depth_ok,
        bytes_ok,
        drained,
        membership_ok,
        replicas_ok: replicas_consistent(&snaps, n_nodes),
        accountant_ok,
        max_port_depth_hwm: max_depth,
        max_bytes_hwm: max_bytes,
        frames_shed: shed,
        shed_links,
        stats,
        mem_max,
        mem_total,
        mem_idle,
        flaps,
        lat_min_ns: if lat_count == 0 { 0 } else { lat_min },
        lat_mean_ns: lat_sum.checked_div(lat_count).unwrap_or(0),
        lat_max_ns: lat_max,
    }
}

/// One campaign cell: the same seed at workers 1 and 4, traces compared.
struct CellResult {
    seed: u64,
    msgs: u32,
    trace_identical: bool,
    run: RunOutcome,
}

impl CellResult {
    /// Every violated oracle, by name. Empty means the cell is clean.
    fn violations(&self) -> Vec<&'static str> {
        let r = &self.run;
        let mut v = Vec::new();
        if !r.fifo_ok {
            v.push("fifo");
        }
        if r.done != r.expected_done {
            v.push("stuck-process");
        }
        if !r.depth_ok {
            v.push("link-depth-cap");
        }
        if !r.bytes_ok {
            v.push("byte-budget");
        }
        if !r.drained {
            v.push("undrained-switch");
        }
        if !r.membership_ok {
            v.push("membership-convergence");
        }
        if !r.replicas_ok {
            v.push("replica-consistency");
        }
        if !r.accountant_ok {
            v.push("idle-memory-baseline");
        }
        if !self.trace_identical {
            v.push("worker-determinism");
        }
        if r.frames_shed == 0 {
            v.push("no-shedding-exercised");
        }
        if r.stats.retransmits == 0 {
            v.push("no-recovery-exercised");
        }
        v
    }
}

fn run_cell(seed: u64, msgs: u32) -> CellResult {
    let r1 = run_once(seed, 1, msgs);
    let r4 = run_once(seed, 4, msgs);
    let trace_identical = r1.trace == r4.trace
        && r1.end_ns == r4.end_ns
        && r1.frames_shed == r4.frames_shed
        && r1.stats.retransmits == r4.stats.retransmits;
    CellResult {
        seed,
        msgs,
        trace_identical,
        run: r1,
    }
}

/// Hand-rolled JSON, same convention as the other BENCH_*.json reports.
fn to_json(cells: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"note\": \"chaos soak: loss x corrupt x crash x flap x overload on a 4x4 \
         incomplete hypercube, sharded engine, workers {1,4}\",\n",
    );
    out.push_str(&format!(
        "  \"workload\": {{ \"clusters\": {CLUSTERS}, \"endpoints_per_cluster\": {PER_CLUSTER}, \
         \"streams\": 8, \"byte_budget\": {BYTE_BUDGET}, \"base_len\": {BASE_LEN}, \
         \"squeeze_ns\": [{}, {}], \"burst_ns\": [{}, {}] }},\n",
        SQUEEZE_NS.0, SQUEEZE_NS.1, BURST_NS.0, BURST_NS.1,
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.run;
        let viol = c
            .violations()
            .iter()
            .map(|v| format!("\"{v}\""))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{ \"seed\": {}, \"messages_per_stream\": {}, \"end_ns\": {}, \
             \"delivered\": {}, \"trace_identical_workers_1_4\": {}, \"violations\": [{}], \
             \"frames_shed\": {}, \"shed_links\": {}, \"retransmits\": {}, \
             \"corrupted_rx\": {}, \"crashes\": {}, \"restarts\": {}, \"busy_sent\": {}, \
             \"overload_rideouts\": {}, \"table_rejects\": {}, \"peer_down_events\": {}, \
             \"max_port_depth_hwm\": {}, \"max_switch_bytes_hwm\": {}, \
             \"mem_max_node_bytes\": {}, \"mem_total_bytes\": {}, \"mem_idle_nodes\": {} }}{}\n",
            c.seed,
            c.msgs,
            r.end_ns,
            r.delivered,
            c.trace_identical,
            viol,
            r.frames_shed,
            r.shed_links,
            r.stats.retransmits,
            r.stats.corrupted_rx,
            r.stats.crashes,
            r.stats.restarts,
            r.stats.busy_sent,
            r.stats.overload_rideouts,
            r.stats.table_rejects,
            r.stats.peer_down_events,
            r.max_port_depth_hwm,
            r.max_bytes_hwm,
            r.mem_max,
            r.mem_total,
            r.mem_idle,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn print_cell(c: &CellResult) {
    let r = &c.run;
    let viol = c.violations();
    println!(
        "seed {:#06x}: end {:>6.1} ms, {} delivered, shed {} on {} links, retx {}, \
         corrupt {}, crash/restart {}/{}, rideouts {}, flaps {}, \
         lat(ns) min/mean/max {}/{}/{}, depth hwm {}, bytes hwm {}, \
         mem max/idle {}/{}, workers-identical={} violations={:?}",
        c.seed,
        r.end_ns as f64 / 1e6,
        r.delivered,
        r.frames_shed,
        r.shed_links,
        r.stats.retransmits,
        r.stats.corrupted_rx,
        r.stats.crashes,
        r.stats.restarts,
        r.stats.overload_rideouts,
        r.flaps,
        r.lat_min_ns,
        r.lat_mean_ns,
        r.lat_max_ns,
        r.max_port_depth_hwm,
        r.max_bytes_hwm,
        r.mem_max,
        r.mem_idle,
        c.trace_identical,
        viol,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        let cell = with_watchdog("soak", 180, None, || run_cell(0x50AC, 20));
        print_cell(&cell);
        let viol = cell.violations();
        assert!(viol.is_empty(), "smoke: oracle violations {viol:?}");
        println!("soak-campaign smoke OK: zero oracle violations, traces bit-identical");
        return;
    }

    let cells: Vec<CellResult> = (0..3)
        .map(|i| with_watchdog("soak", 600, None, || run_cell(0x50AC + i, 48)))
        .collect();
    println!(
        "chaos soak: 8 streams x 48 msgs, loss 2% corrupt 1%, squeeze {}..{} ms, \
         workers {{1,4}}",
        SQUEEZE_NS.0 / 1_000_000,
        SQUEEZE_NS.1 / 1_000_000
    );
    for c in &cells {
        print_cell(c);
    }
    let bad: usize = cells.iter().map(|c| c.violations().len()).sum();
    assert_eq!(bad, 0, "{bad} oracle violations across the campaign");

    let root = workspace_root();
    let path = root.join("BENCH_soak.json");
    std::fs::write(&path, to_json(&cells)).expect("write BENCH_soak.json");
    println!("wrote {}", path.display());
}
