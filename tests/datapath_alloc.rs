//! Zero-copy accounting on the fabric forwarding hot path: multicast
//! fan-out must share one refcounted payload across every branch — no
//! payload-byte copies (copymeter) and no heap churn proportional to
//! payload size × fan-out (counting allocator).

use std::sync::Mutex;

use hpc_vorx::desim::lock;
use hpc_vorx::hpcnet::driver::StandaloneNet;
use hpc_vorx::hpcnet::{copymeter, Dest, Fabric, Frame, NetConfig, NodeAddr, Payload, Topology};
use hpc_vorx::vorx::multicast::{join, mread, mwrite};
use hpc_vorx::vorx::udco::{self, UdcoMode};
use hpc_vorx::vorx::{channel, Calibration, VorxBuilder};

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

/// A multicast head is partitioned once, when it is routed: each branch that
/// carries several targets gets one list of its exact size, a one-target
/// branch is a `Unicast`, and the head's own list is never rebuilt. A
/// 63-target multicast over 16 clusters of 4 therefore allocates once per
/// inter-cluster edge of its tree — 15 — where the per-port rescan allocated
/// ≈ 3 times at each of its 62 splits (≈ 188).
#[test]
fn standalone_multicast_allocates_one_list_per_tree_edge() {
    let topo = Topology::incomplete_hypercube(16, 4).unwrap();
    let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
    let everyone: std::sync::Arc<[NodeAddr]> = (1..64).map(NodeAddr).collect();
    let send_one = |net: &mut StandaloneNet, seq: u64| {
        let frame = Frame {
            src: NodeAddr(0),
            dst: Dest::Multicast(everyone.clone()),
            kind: 0,
            seq,
            payload: Payload::Synthetic(512),
            corrupted: false,
        };
        net.send_at(net.now(), frame);
        net.run();
        assert_eq!(net.delivered.len(), 63);
        net.delivered.clear();
    };
    send_one(&mut net, 0);
    let (_, calls) = alloc_meter::measure(|| send_one(&mut net, 1));
    assert!(
        (15..=20).contains(&calls),
        "a warmed-up 63-target multicast allocated {calls} times"
    );
}

/// Heap allocations per message of a two-node stop-and-wait stream, payload
/// construction excluded (every write sends a clone of one payload). One
/// window around the whole run: events and both simulated processes execute
/// on the calling thread, and the opening rendezvous is inside it.
///
/// Measured: 78 for 1,000 messages (79 unoptimised) — the open handshake
/// and the one-off growth of queues, free lists and the two images to their
/// working size, and nothing per message (the ack timer's cancel flag is a
/// recycled cell, a lone waiter is held inline); the budget is exactly that.
/// With an `Arc` flag per timer the same stream took 1,089, with boxed event
/// closures and a fresh fabric `Output` per step over 22,000.
#[test]
fn stop_and_wait_message_stays_within_alloc_budget() {
    const MSGS: u64 = 1_000;
    const BUDGET: u64 = 79;
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
/// 4.58 allocations per `try_open` (1,173 for 256), the channel end's own
/// buffers and its share of a 64-end slab chunk included: names travel as
/// `&str` borrowed from the frames, and the request and reply payloads are
/// packed on the stack. (It was twelve; 4.55 while each node kept its ends in
/// a hash table of its own.)
/// Measured as the difference between two run lengths, so one-off growth
/// cancels.
#[test]
fn an_open_handshake_allocates_under_five_times_per_end() {
    // The open frames copy their names into payloads.
    let _guard = lock(&COPYMETER_LOCK);
    let extra = allocs_for_opens(192) - allocs_for_opens(64);
    let per_open = extra as f64 / (2.0 * 128.0);
    assert!(
        per_open <= 4.6,
        "{per_open:.2} allocations per try_open ({extra} for 256 more)"
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
