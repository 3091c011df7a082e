//! Zero-copy accounting on the fabric forwarding hot path: multicast
//! fan-out must share one refcounted payload across every branch — no
//! payload-byte copies (copymeter) and no heap churn proportional to
//! payload size × fan-out (counting allocator).

use std::sync::Mutex;

use hpc_vorx::desim::lock;
use hpc_vorx::hpcnet::combine::CombOp;
use hpc_vorx::hpcnet::driver::StandaloneNet;
use hpc_vorx::hpcnet::{
    copymeter, Dest, Fabric, Frame, NetConfig, NodeAddr, Payload, Targets, Topology,
};
use hpc_vorx::vorx::collective::{self, CollMode, GroupCfg};
use hpc_vorx::vorx::multicast::{join, mread, mwrite};
use hpc_vorx::vorx::udco::{self, UdcoMode};
use hpc_vorx::vorx::{channel, Calibration, VorxBuilder, VorxSim};

#[path = "common/alloc_meter.rs"]
mod alloc_meter;

/// The copymeter is process-global (the allocation counters are not): every
/// test that creates payload bytes serializes on this lock so the
/// exact-bytes assertions see only their own copies.
static COPYMETER_LOCK: Mutex<()> = Mutex::new(());

/// Multicast a `len`-byte frame (`len` <= the 1024-byte HPC frame limit)
/// from node 0 to three nodes on another cluster and return (bytes
/// allocated while forwarding — payload construction excluded, delivered
/// frames).
fn fan_out(len: usize) -> (u64, Vec<Frame>) {
    let topo = Topology::incomplete_hypercube(2, 4).unwrap();
    let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
    let payload = Payload::copy_from(&vec![0xA5u8; len]);
    let frame = Frame {
        src: NodeAddr(0),
        dst: Dest::Multicast(vec![NodeAddr(4), NodeAddr(5), NodeAddr(6)].into()),
        kind: 0,
        seq: 7,
        payload,
        corrupted: false,
    };
    let before = alloc_meter::bytes();
    net.send_at(0, frame);
    net.run();
    let churn = alloc_meter::bytes() - before;
    let delivered: Vec<Frame> = net.delivered.into_iter().map(|(_, _, f)| f).collect();
    (churn, delivered)
}

/// Store-and-forward hops and the fan-out split must hand every branch the
/// same backing buffer: zero payload bytes copied, and every delivered
/// payload aliases the original allocation.
#[test]
fn multicast_fan_out_shares_payload_bytes() {
    let _guard = lock(&COPYMETER_LOCK);
    copymeter::reset();
    let (_, delivered) = fan_out(1024);
    assert_eq!(delivered.len(), 3);
    assert_eq!(
        copymeter::payload_bytes_copied(),
        1024,
        "only the initial Payload::copy_from may move bytes"
    );
    let ptrs: Vec<*const u8> = delivered
        .iter()
        .map(|f| f.payload.bytes().expect("data payload").as_ptr())
        .collect();
    assert!(
        ptrs.iter().all(|&p| p == ptrs[0]),
        "all fan-out branches must alias one backing buffer"
    );
}

/// Payload bytes copied while node 0 `mwrite`s one `len`-byte message to the
/// two other members of a three-node cluster and each `mread`s it.
fn mcast_copies(len: usize) -> u64 {
    let before = copymeter::payload_bytes_copied();
    let mut v = VorxBuilder::single_cluster(3).build();
    v.spawn("n0:w", move |ctx| {
        let data = vec![7u8; len];
        let dsts = vec![NodeAddr(1), NodeAddr(2)];
        mwrite(&ctx, NodeAddr(0), 6, dsts, Payload::copy_from(&data));
    });
    for n in 1..3u32 {
        v.spawn(format!("n{n}:r"), move |ctx| {
            join(&ctx, NodeAddr(n), 6);
            let _ = mread(&ctx, NodeAddr(n), 6);
        });
    }
    v.run_all();
    copymeter::payload_bytes_copied() - before
}

/// The receive side-buffer path holds fragments as refcounted slices: a
/// single-fragment message reaches `mread` without the simulator copying any
/// payload bytes, and a multi-fragment message costs exactly one reassembly
/// gather per receiver.
#[test]
fn delivery_copies_are_one_gather_per_receiver() {
    let _guard = lock(&COPYMETER_LOCK);
    // Only the creation copy inside `Payload::copy_from`: hardware
    // replication to both receivers and both deliveries are zero-copy.
    assert_eq!(mcast_copies(600), 600);
    // Creation + one 3-fragment gather per receiver, nothing per frame.
    assert_eq!(mcast_copies(2500), 2500 + 2 * 2500);
}

/// Forwarding heap churn must not scale with payload size: the only
/// per-branch allocations are bookkeeping (queue entries, refcount clones),
/// never payload-sized buffers.
#[test]
fn forwarding_churn_is_payload_size_independent() {
    let _guard = lock(&COPYMETER_LOCK);
    // Warm up allocator pools and lazy statics so the two measured runs see
    // identical bookkeeping behavior.
    let _ = fan_out(16);
    let (small, d_small) = fan_out(16);
    let (large, d_large) = fan_out(1024);
    assert_eq!(d_small.len(), 3);
    assert_eq!(d_large.len(), 3);
    // Payload construction happens before the measurement window, so the
    // two runs may differ only by bookkeeping noise. Deep-cloning the
    // payload per branch would add >= 3 KiB to the large run.
    let excess = large.saturating_sub(small);
    assert!(
        excess < 1024,
        "forwarding allocated {excess} payload-size-dependent bytes \
         (small run: {small}, large run: {large})"
    );
}

/// The fabric step → driver event path recycles its `Output`s and queue
/// entries: once one frame has sized them, a unicast frame crossing two
/// clusters (three links, six fabric events, one rx drain) allocates nothing.
#[test]
fn standalone_unicast_allocates_nothing_after_warm_up() {
    let topo = Topology::incomplete_hypercube(2, 4).unwrap();
    let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
    let send_one = |net: &mut StandaloneNet, seq: u64| {
        let frame = Frame::unicast(NodeAddr(0), NodeAddr(4), 0, seq, Payload::Synthetic(64));
        net.send_at(net.now(), frame);
        net.run();
        assert_eq!(net.delivered.len(), 1);
        net.delivered.clear();
    };
    send_one(&mut net, 0);
    let (_, calls) = alloc_meter::measure(|| {
        for seq in 1..=100 {
            send_one(&mut net, seq);
        }
    });
    assert_eq!(
        calls, 0,
        "100 warmed-up unicast frames allocated {calls} times"
    );
}

/// A link's buffered frames sit in its fabric's one frame slab, so the
/// first frame a link ever buffers takes a free slot: once one frame has
/// sized the slab, frames over links nothing touched before allocate only
/// for the table of touched links' entries, a slab that adds a chunk where
/// a `Vec` would double (6 chunks here, as there were 6 doublings; a
/// first-touch table sizes its row of chunks when it is built). Each
/// of 63 frames, one at a time, leaves a different endpoint for the one
/// opposite it in a 16 × 4 machine; with a queue of its own per link, each
/// newly touched link allocated its first buffer (one per link, over 100).
#[test]
fn frames_over_untouched_links_allocate_only_the_link_table_growth() {
    let topo = Topology::incomplete_hypercube(16, 4).unwrap();
    let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
    let send_one = |net: &mut StandaloneNet, src: u32| {
        let (src, dst) = (NodeAddr(src), NodeAddr((src + 32) % 64));
        let frame = Frame::unicast(src, dst, 0, u64::from(src.0), Payload::Synthetic(64));
        net.send_at(net.now(), frame);
        net.run();
        assert_eq!(net.delivered.len(), 1);
        net.delivered.clear();
    };
    send_one(&mut net, 0);
    let touched = net.fabric.materialized_links();
    let (_, calls) = alloc_meter::measure(|| (1..64).for_each(|a| send_one(&mut net, a)));
    let new_links = net.fabric.materialized_links() - touched;
    // Chunks the entry slab adds from `touched + 1` entries (its idle
    // template included) to `touched + 1 + new_links`: a `Vec`'s doublings.
    let growths = (touched + 1 + new_links).next_power_of_two().ilog2()
        - (touched + 1).next_power_of_two().ilog2();
    assert!(new_links > 100, "only {new_links} links were new");
    assert!(
        calls <= u64::from(growths),
        "{calls} allocations over {new_links} untouched links; the link table grew {growths} times"
    );
}

/// Multicast `everyone` (every node but node 0 of a 16 × 4 machine) from
/// node 0 and run it to the end: the allocations that made (the list was
/// built before) and the multicast heads the fabric re-listed.
fn multicast_to_everyone(net: &mut StandaloneNet, everyone: Targets, seq: u64) -> (u64, u64) {
    let relists = net.fabric.work().relists;
    let frame = Frame {
        src: NodeAddr(0),
        dst: Dest::Multicast(everyone),
        kind: 0,
        seq,
        payload: Payload::Synthetic(512),
        corrupted: false,
    };
    let (_, calls) = alloc_meter::measure(|| {
        net.send_at(net.now(), frame);
        net.run();
    });
    assert_eq!(net.delivered.len(), 63);
    net.delivered.clear();
    (calls, net.fabric.work().relists - relists)
}

/// A 16 × 4 machine with no traffic yet.
fn sixteen_clusters() -> StandaloneNet {
    let topo = Topology::incomplete_hypercube(16, 4).unwrap();
    StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()))
}

/// A multicast head whose targets do not form one run per output port is
/// re-listed once, in its multicast tree's depth-first order; every branch
/// below then forwards a sub-run of its parent's list, and a one-target
/// branch is a `Unicast`. Where the sender still holds the list (it keeps a
/// clone here, as a retransmitting sender or a collective's root does),
/// the fabric stores the order in the last list it re-listed when that
/// holds the same order: a warmed-up 63-target multicast over 16 clusters
/// of 4 re-lists and allocates nothing. A new tree-order list per re-list
/// cost 2 (the vector and its refcount block), a list per multi-target
/// branch one per inter-cluster edge of its tree (15..=20 measured), and
/// the per-port rescan ≈ 3 at each of its 62 splits (≈ 188).
#[test]
fn standalone_multicast_of_a_held_list_relists_without_allocating() {
    let mut net = sixteen_clusters();
    let everyone: Targets = (1..64).map(NodeAddr).collect();
    multicast_to_everyone(&mut net, everyone.clone(), 0);
    let (calls, relists) = multicast_to_everyone(&mut net, everyone.clone(), 1);
    assert_eq!(relists, 1, "the ascending list is not in tree order");
    assert_eq!(
        calls, 0,
        "a warmed-up 63-target multicast of a held list allocated {calls} times"
    );
    assert!(everyone.iter().is_sorted(), "the held list was re-listed");
}

/// The same multicast with a list of its own per frame, which nothing but
/// the frame holds: the fabric rewrites that list in place, so once the
/// list is built a warmed-up frame re-lists and allocates nothing.
#[test]
fn standalone_multicast_of_an_unshared_list_relists_in_place() {
    let mut net = sixteen_clusters();
    let everyone = || (1..64).map(NodeAddr).collect::<Targets>();
    multicast_to_everyone(&mut net, everyone(), 0);
    let (calls, relists) = multicast_to_everyone(&mut net, everyone(), 1);
    assert_eq!(relists, 1, "the ascending list is not in tree order");
    assert_eq!(
        calls, 0,
        "a warmed-up 63-target multicast of its own list allocated {calls} times"
    );
}

/// Allocations while the 64 nodes of a 16 × 4 machine, one in-network
/// group, run `ops` allreduces each.
fn allreduce_allocs(ops: u64) -> u64 {
    let topo = Topology::incomplete_hypercube(16, 4).unwrap();
    let mut v = VorxBuilder::with_topology(topo).trace(false).build();
    let members: Vec<NodeAddr> = (0..64).map(NodeAddr).collect();
    let cfg = GroupCfg {
        group: 3,
        members: members.clone(),
        mode: CollMode::InNetwork,
    };
    collective::register_group(&mut v.world(), &cfg);
    for m in members {
        v.spawn(format!("n{}:coll", m.0), move |ctx| {
            let c = collective::attach(&ctx, m, 3);
            for k in 0..ops {
                assert_eq!(c.allreduce(&ctx, CombOp::Sum, k), 64 * k);
            }
        });
    }
    let (report, total) = alloc_meter::measure(|| v.run());
    assert!(report.all_finished());
    total
}

/// Each in-network allreduce ends with the root multicasting the result to
/// the group's own list of the other members, which the root holds and
/// which is not in tree order: the fabric re-lists it every operation, into
/// the list it re-listed the operation before. Measured: a warmed-up
/// allreduce of a 64-member group over 16 clusters allocates nothing, where
/// a new tree-order list per operation cost 2.
#[test]
fn an_in_network_allreduce_relists_its_result_without_allocating() {
    let per_op = per_msg(allreduce_allocs);
    assert_eq!(
        per_op, 0.0,
        "{per_op} allocations per allreduce of a 64-member group"
    );
}

/// Heap allocations per message of a two-node stop-and-wait stream, payload
/// construction excluded (every write sends a clone of one payload). One
/// window around the whole run: events and both simulated processes execute
/// on the calling thread, and the opening rendezvous is inside it.
///
/// Measured: 62 for 1,000 messages (64 unoptimised) — the open handshake
/// and the one-off growth of queues, slabs and the two images to their
/// working size, and nothing per message (the ack timer's cancel flag is
/// its closure's recycled slot, a lone waiter is held inline); the budget
/// is exactly that. With a free list of its own beside each slab it took
/// 71 (73); with a `VecDeque` per link and per channel-end queue 78 (79);
/// with an `Arc` flag per timer 1,089, with boxed event closures and a
/// fresh fabric `Output` per step over 22,000.
#[test]
fn stop_and_wait_message_stays_within_alloc_budget() {
    const MSGS: u64 = 1_000;
    const BUDGET: u64 = 64;
    let _guard = lock(&COPYMETER_LOCK);
    let mut v = VorxBuilder::single_cluster(2).build();
    let payload = Payload::copy_from(&[0x5Au8; 64]);
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "budget");
        for _ in 0..MSGS {
            ch.write(&ctx, payload.clone()).unwrap();
        }
    });
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "budget");
        for _ in 0..MSGS {
            assert_eq!(ch.read(&ctx).unwrap().len(), 64);
        }
    });
    let (report, total) = alloc_meter::measure(|| v.run());
    assert!(report.all_finished());
    assert!(
        total <= BUDGET,
        "{total} allocations for {MSGS} messages; budget is {BUDGET}"
    );
}

/// Allocations of a stop-and-wait stream of `msgs` messages between the two
/// shards of a two-cluster world (one worker: the calling thread runs both
/// shards, so all of it is counted), and the frames bridged meanwhile. A
/// shard's queue runs empty between messages here, so this also holds the
/// sharded engine to building no `IdleReport` per run segment that ends idle.
fn allocs_for_bridged_stream(msgs: u64) -> (u64, u64) {
    let topo = Topology::incomplete_hypercube(2, 4).unwrap();
    let mut v = VorxBuilder::with_topology(topo).build_sharded(1);
    assert_eq!(v.n_shards(), 2);
    let payload = Payload::copy_from(&[0x5Au8; 64]);
    v.spawn_at(NodeAddr(0), "n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "bridged");
        for _ in 0..msgs {
            ch.write(&ctx, payload.clone()).unwrap();
        }
    });
    v.spawn_at(NodeAddr(4), "n4:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(4), "bridged");
        for _ in 0..msgs {
            assert_eq!(ch.read(&ctx).unwrap().len(), 64);
        }
    });
    let (reports, total) = alloc_meter::measure(|| v.run());
    assert!(reports.iter().all(|r| r.all_finished()));
    (total, v.stats().msgs_bridged)
}

/// A frame crossing shards takes a slot in its mailbox's buffer, which keeps
/// its capacity, so a mailbox allocates while it grows to its deepest backlog
/// and then never: 1,000 more messages (2,000 more bridged frames — each data
/// frame and its ack) cost 3 more allocations (88 → 91 measured, optimised;
/// 89 → 92 unoptimised). A node per `push` and a cancel flag per ack timer
/// made it 3 per message.
#[test]
fn bridged_frames_allocate_for_the_mailbox_high_water_not_per_frame() {
    const EXTRA: u64 = 1_000;
    let _guard = lock(&COPYMETER_LOCK);
    let (short, short_bridged) = allocs_for_bridged_stream(500);
    let (long, long_bridged) = allocs_for_bridged_stream(500 + EXTRA);
    assert!(long_bridged - short_bridged >= 2 * EXTRA);
    assert!(
        long <= short + 3,
        "{EXTRA} more bridged messages made {} more allocations ({short} -> {long})",
        long.saturating_sub(short)
    );
}

/// `len` bytes that differ from one position to the next, so a delivery
/// checked against them is checked byte for byte.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + i / 251) as u8).collect()
}

/// Allocations of a two-node channel stream of `msgs` copies of `data` at
/// `window`, each read back and compared with `data`.
fn chan_allocs(window: u32, data: &[u8], msgs: u64) -> u64 {
    let calib = Calibration::paper_1988_windowed(window);
    let mut v = VorxBuilder::single_cluster(2).calibration(calib).build();
    let (sent, want) = (Payload::copy_from(data), data.to_vec());
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "gather");
        for _ in 0..msgs {
            ch.write(&ctx, sent.clone()).unwrap();
        }
        ch.close(&ctx);
    });
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "gather");
        for _ in 0..msgs {
            assert_eq!(ch.read(&ctx).unwrap().bytes().expect("data"), &want);
        }
    });
    let (report, total) = alloc_meter::measure(|| v.run());
    assert!(report.all_finished());
    total
}

/// Allocations while node 0 `mwrite`s `msgs` copies of `data` to the two
/// other members of a three-node cluster, each `mread` and compared.
fn mcast_allocs(data: &[u8], msgs: u64) -> u64 {
    let mut v = VorxBuilder::single_cluster(3).build();
    let sent = Payload::copy_from(data);
    v.spawn("n0:w", move |ctx| {
        for _ in 0..msgs {
            let dsts = vec![NodeAddr(1), NodeAddr(2)];
            mwrite(&ctx, NodeAddr(0), 6, dsts, sent.clone());
        }
    });
    for n in 1..3u32 {
        let want = data.to_vec();
        v.spawn(format!("n{n}:r"), move |ctx| {
            join(&ctx, NodeAddr(n), 6);
            for _ in 0..msgs {
                let (_, p) = mread(&ctx, NodeAddr(n), 6);
                assert_eq!(p.bytes().expect("data"), &want);
            }
        });
    }
    let (report, total) = alloc_meter::measure(|| v.run());
    assert!(report.all_finished());
    total
}

/// Allocations while node 0 sends `msgs` UDCO messages made of `parts` by
/// `send_gather`, each received whole, compared with the parts end to end and
/// answered with an empty message before the next goes out.
fn gather_allocs(parts: &[Payload], msgs: u64) -> u64 {
    let mut v = VorxBuilder::single_cluster(2).build();
    let want: Vec<u8> = parts
        .iter()
        .flat_map(|p| p.bytes().expect("data").to_vec())
        .collect();
    let parts = parts.to_vec();
    v.spawn("n0:tx", move |ctx| {
        udco::register(&ctx, NodeAddr(0), 2, UdcoMode::Interrupt);
        for seq in 0..msgs {
            udco::send_gather(&ctx, NodeAddr(0), NodeAddr(1), 1, seq, &parts);
            udco::recv(&ctx, NodeAddr(0), 2);
        }
    });
    v.spawn("n1:rx", move |ctx| {
        udco::register(&ctx, NodeAddr(1), 1, UdcoMode::Interrupt);
        for seq in 0..msgs {
            let m = udco::recv(&ctx, NodeAddr(1), 1);
            assert_eq!(m.payload.bytes().expect("data"), &want);
            udco::send(
                &ctx,
                NodeAddr(1),
                NodeAddr(0),
                2,
                seq,
                Payload::Synthetic(0),
            );
        }
    });
    let (report, total) = alloc_meter::measure(|| v.run());
    assert!(report.all_finished());
    total
}

/// Allocations per message of a run, warm-up cancelled: the runs of
/// `2 * MSGS` and of `MSGS` messages differ by `MSGS` messages' worth.
fn per_msg(run: impl Fn(u64) -> u64) -> f64 {
    const MSGS: u64 = 64;
    (run(2 * MSGS) as f64 - run(MSGS) as f64) / MSGS as f64
}

/// A message longer than one frame is gathered into a buffer of its own at
/// the receiver (a channel at either window, each multicast reader), and a
/// `send_gather` of several parts into one at the sender. Every delivery is
/// compared byte for byte, and each gather costs exactly the buffer and its
/// refcount block, measured as the allocations per message beyond those of
/// the same stream in one-frame messages or with the parts already joined.
/// The gathers meter their copies, so this holds `COPYMETER_LOCK` too.
#[test]
fn a_gathered_message_allocates_its_buffer_and_refcount_block() {
    let _guard = lock(&COPYMETER_LOCK);
    let (long, short) = (pattern(4096), pattern(1024));
    for window in [1, 8] {
        let gathered = per_msg(|n| chan_allocs(window, &long, n));
        let whole = per_msg(|n| chan_allocs(window, &short, n));
        assert_eq!(
            gathered - whole,
            2.0,
            "W={window}: {gathered} vs {whole} per message"
        );
    }
    // Three fragments, gathered once at each of the two readers.
    let gathered = per_msg(|n| mcast_allocs(&pattern(2500), n));
    let whole = per_msg(|n| mcast_allocs(&pattern(600), n));
    assert_eq!(
        gathered - whole,
        2.0 * 2.0,
        "mwrite: {gathered} vs {whole} per message"
    );
    let data = pattern(900);
    let joined = [Payload::copy_from(&data)];
    let split = [&data[..100], &data[100..600], &data[600..]].map(Payload::copy_from);
    let gathered = per_msg(|n| gather_allocs(&split, n));
    let whole = per_msg(|n| gather_allocs(&joined, n));
    assert_eq!(
        gathered - whole,
        2.0,
        "send_gather: {gathered} vs {whole} per message"
    );
}

/// Allocations a two-node world makes while each node opens `opens` channels
/// (names made beforehand), nothing written.
fn allocs_for_opens(opens: usize) -> u64 {
    let names: Vec<String> = (0..opens).map(|i| format!("open/{i:04}")).collect();
    let mut v = VorxBuilder::single_cluster(2).build();
    for node in 0..2 {
        let names = names.clone();
        v.spawn(format!("n{node}:opener"), move |ctx| {
            for name in &names {
                channel::try_open(&ctx, NodeAddr(node), name).unwrap();
            }
        });
    }
    let (report, total) = alloc_meter::measure(|| v.run());
    assert!(report.all_finished());
    total
}

/// The open handshake — request, manager match, reply, channel end — costs
/// 0.031 allocations per `try_open` (8 for 256), the channel end's own
/// buffers and its share of the growth of the table its row is in
/// included; the bound is that plus 10 %. (0.043, 11, while each opener
/// kept a resolve-cache row of name → manager; 0.074, 19, while the ends
/// sat in 64-end chunks beside a table of their slots.) Names travel as `&str` borrowed from the frames, every table
/// that keeps one keeps an inline `Name`, a paired name leaves nothing at
/// its manager, and the request and reply payloads are packed on the stack.
/// (It was twelve; 4.58 while a name was copied into a fresh `String` four
/// times per open and each paired name kept an emptied queue.)
/// Measured as the difference between two run lengths, so one-off growth
/// cancels.
#[test]
fn an_open_handshake_allocates_under_a_tenth_per_end() {
    // The open frames copy their names into payloads.
    let _guard = lock(&COPYMETER_LOCK);
    let extra = allocs_for_opens(192) - allocs_for_opens(64);
    let per_open = extra as f64 / (2.0 * 128.0);
    println!("open handshake: {per_open:.3} allocations per try_open ({extra} for 256 more)");
    assert!(
        per_open <= 0.034,
        "{per_open:.2} allocations per try_open ({extra} for 256 more)"
    );
}

/// Where the open handshake allocates: every site of 64 more opens from
/// each node of [`allocs_for_opens`]'s world, most frequent first. Slow (a
/// backtrace per allocation), so not part of the budget run:
/// `cargo test --test datapath_alloc -- --ignored --nocapture open_handshake_sites`.
#[test]
#[ignore = "prints a profile; asserts nothing"]
fn open_handshake_sites() {
    let _guard = lock(&COPYMETER_LOCK);
    let sites = |opens: usize| {
        let names: Vec<String> = (0..opens).map(|i| format!("open/{i:04}")).collect();
        let mut v = VorxBuilder::single_cluster(2).build();
        for node in 0..2 {
            let names = names.clone();
            v.spawn(format!("n{node}:opener"), move |ctx| {
                for name in &names {
                    channel::try_open(&ctx, NodeAddr(node), name).unwrap();
                }
            });
        }
        let (report, sites) = alloc_meter::measure_sites(|| v.run());
        assert!(report.all_finished());
        sites
    };
    let (short, long) = (sites(64), sites(128));
    let mut more: Vec<(String, i64)> = long
        .iter()
        .map(|(site, n)| {
            let before = short.iter().find(|(s, _)| s == site).map_or(0, |s| s.1);
            (site.clone(), *n as i64 - before as i64)
        })
        .filter(|(_, n)| *n != 0)
        .collect();
    more.sort_by_key(|m| std::cmp::Reverse(m.1));
    println!("allocations of 128 more opens, by site:");
    for (site, n) in more {
        println!("{n:6}  {site}");
    }
}

/// The paper's 70-node machine (10 clusters of 7), untraced, in which each
/// node writes 20 64-byte messages on a stop-and-wait stream to the node one
/// cluster on and reads the 20 written to it: 140 processes.
fn stream_world() -> VorxSim {
    const NODES: u32 = 70;
    const MSGS: usize = 20;
    let topo = Topology::incomplete_hypercube(10, 7).unwrap();
    let v = VorxBuilder::with_topology(topo).trace(false).build();
    for i in 0..NODES {
        let (me, peer) = (NodeAddr(i), NodeAddr((i + 7) % NODES));
        let name: std::sync::Arc<str> = format!("s{i}").into();
        let peer_name = std::sync::Arc::clone(&name);
        v.spawn(format!("n{i}:w"), move |ctx| {
            let ch = channel::open(&ctx, me, &name);
            for _ in 0..MSGS {
                ch.write(&ctx, Payload::Synthetic(64)).unwrap();
            }
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

/// Where [`stream_world`] allocates, every site, most frequent first. Slow
/// (a backtrace per allocation), so not part of the budget run:
/// `cargo test --test datapath_alloc -- --ignored --nocapture stream_world_sites`.
#[test]
#[ignore = "prints a profile; asserts nothing"]
fn stream_world_sites() {
    let mut v = stream_world();
    let (report, sites) = alloc_meter::measure_sites(|| v.run());
    assert!(report.all_finished());
    let total: u64 = sites.iter().map(|(_, n)| n).sum();
    println!("{total} allocations of a 70-node stream world, by site:");
    for (site, n) in sites {
        println!("{n:6}  {site}");
    }
}

/// The whole run of [`stream_world`] makes 190 allocations optimised, 196
/// unoptimised — the world tables', slabs' and queue's growth, the links
/// the traffic touched and the processes' image chunks, up to 32 images of
/// one depth to a chunk — and the budget is that plus 10 %. It made 457
/// (597) while each of the 140 processes kept its frames in a heap block of
/// its own: 280 of them optimised, a first park and a deeper one each.
#[test]
fn a_stream_world_allocates_under_its_budget() {
    let measured: u64 = if cfg!(debug_assertions) { 196 } else { 190 };
    let mut v = stream_world();
    let (report, total) = alloc_meter::measure(|| v.run());
    assert!(report.all_finished());
    let budget = measured * 11 / 10;
    assert!(
        total <= budget,
        "{total} allocations of a 70-node stream world; budget is {budget}"
    );
}

/// Allocations of a two-node stop-and-wait world in which `streams`
/// channels open and each carries one message of `len` bytes, read back and
/// compared byte for byte.
fn first_message_allocs(streams: u32, len: usize) -> u64 {
    let mut v = VorxBuilder::single_cluster(2).build();
    let data = pattern(len);
    for i in 0..streams {
        let name: std::sync::Arc<str> = format!("first/{i:03}").into();
        let (sent, want) = (Payload::copy_from(&data), data.clone());
        let peer_name = std::sync::Arc::clone(&name);
        v.spawn("n0:writer", move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(0), &name);
            ch.write(&ctx, sent).unwrap();
        });
        v.spawn("n1:reader", move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(1), &peer_name);
            assert_eq!(ch.read(&ctx).unwrap().bytes().expect("data"), &want);
        });
    }
    let (report, total) = alloc_meter::measure(|| v.run());
    assert!(report.all_finished());
    total
}

/// A message of one frame reaches the reader's queue without passing through
/// the reassembly buffer: a fresh stop-and-wait stream's first message costs
/// 3 allocations more when it is two frames long than when it is one — the
/// reassembly buffer, the gathered buffer and its refcount block (2 while
/// every reader end allocated the reassembly buffer for its first message,
/// whatever its length). Measured per stream as the difference between 128
/// and 64 streams, so one-off growth cancels, to the nearest whole
/// allocation (queues that grow with the frames in flight leave 1/64 over).
#[test]
fn a_one_frame_message_skips_the_reassembly_buffer() {
    let _guard = lock(&COPYMETER_LOCK);
    let per_stream = |len| {
        let run = |streams| first_message_allocs(streams, len) as f64;
        (run(128) - run(64)) / 64.0
    };
    let (one, two) = (per_stream(1024), per_stream(2048));
    assert_eq!((two - one).round(), 3.0, "{two} vs {one} per stream");
}

/// Allocations per node while every node of a 512-endpoint world (128
/// clusters of 4) opens one stop-and-wait stream to the next node, sends
/// one 64-byte message on it and reads the one from the node before: the
/// open handshake and the first message on 1,024 ends, with nothing
/// written to the trace.
fn allocs_per_node_opening_one_stream() -> f64 {
    const NODES: u32 = 512;
    let topo = Topology::incomplete_hypercube(128, 4).unwrap();
    let mut v = VorxBuilder::with_topology(topo).trace(false).build();
    for i in 0..NODES {
        let (me, peer) = (NodeAddr(i), NodeAddr((i + 1) % NODES));
        let name: std::sync::Arc<str> = format!("s{i}").into();
        let peer_name = std::sync::Arc::clone(&name);
        v.spawn(format!("n{i}:w"), move |ctx| {
            let ch = channel::open(&ctx, me, &name);
            ch.write(&ctx, Payload::Synthetic(64)).unwrap();
        });
        v.spawn(format!("n{}:r", peer.0), move |ctx| {
            let ch = channel::open(&ctx, peer, &peer_name);
            ch.read(&ctx).unwrap();
        });
    }
    let (report, total) = alloc_meter::measure(|| v.run());
    assert!(report.all_finished());
    total as f64 / f64::from(NODES)
}

/// A node's kernel state is rows of world tables, and its queued frames
/// and messages slots of slabs, not containers of its own: a 512-endpoint
/// world in which every node opens one stream makes 0.54 allocations per
/// node optimised (277), 0.60 unoptimised (309) — the links the traffic
/// touched, the world tables' and slabs' growth and the processes' image
/// chunks — and the bound is that plus 10 %. It made 0.58 (297) and 0.65
/// (332) while each opener kept a resolve-cache row, 4.47 (2,291) and 6.47
/// (3,315) while each process kept its frames in a heap block of its own,
/// 4.53 (2,317) and 6.53
/// (3,341) while each slab kept a free list or a chunk index of its own
/// beside its entries, 11.13 optimised (5,700), 12.13 unoptimised (6,212),
/// while every touched link and every first-used channel end allocated a
/// queue of its own, and 17.95 optimised
/// (9,190), 18.95 unoptimised (9,702), while every node kept its channel
/// index, resolve cache, manager tables, transmit queue and open waiters in
/// containers of its own and its `Node` in a `Box`.
#[test]
fn a_world_opening_one_stream_per_node_allocates_under_its_budget() {
    let measured = if cfg!(debug_assertions) { 0.60 } else { 0.54 };
    let per_node = allocs_per_node_opening_one_stream();
    println!("one stream per node: {per_node:.3} allocations per node");
    assert!(
        per_node <= measured * 1.1,
        "{per_node:.2} allocations per node, budget {:.2}",
        measured * 1.1
    );
}
