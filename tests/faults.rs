//! Fault-injection integration tests: the recovery protocols (timeout,
//! retransmit, dedup, failover) against seeded and scripted faults.
//!
//! Everything here runs from fixed seeds, so each scenario — including the
//! probabilistic ones — replays bit-identically on every run.

use std::sync::{Arc, Mutex};

use hpc_vorx::desim::{lock, FaultAction, FaultSchedule, LinkFaults, SimDuration, SimTime};
use hpc_vorx::hpcnet::{Fabric, Frame, NetConfig, NodeAddr, Payload, Topology};
use hpc_vorx::vorx::objmgr::{self, ObjMgrMode};
use hpc_vorx::vorx::world::CallState;
use hpc_vorx::vorx::{channel, fault, invariants, proto, VCtx, VorxBuilder, VorxError, World};

use proptest::prelude::*;

/// The receive-side (cluster→endpoint) link of `node` in a 2-endpoint
/// cluster, for targeting scripted drops. Link numbering is a pure function
/// of the topology, so a throwaway fabric answers for the real one.
fn rx_link_of(node: NodeAddr) -> u32 {
    let f = Fabric::new(
        Topology::single_cluster(2).unwrap(),
        NetConfig::paper_1988(),
    );
    f.endpoint_down_link(node).0
}

/// The transmit-side (endpoint→cluster) link of `node`.
fn tx_link_of(node: NodeAddr) -> u32 {
    let f = Fabric::new(
        Topology::single_cluster(2).unwrap(),
        NetConfig::paper_1988(),
    );
    f.endpoint_up_link(node).0
}

/// Frames the fault schedule dropped, summed over its links.
fn schedule_dropped(w: &World) -> u64 {
    w.link_fault_stats().values().map(|s| s.dropped).sum()
}

/// Stream `msgs` one-byte messages from node 0 to node 1 under `schedule`;
/// return (delivery order, retransmits, dups_suppressed, dropped, leaked).
fn stream_under(schedule: FaultSchedule, msgs: u8) -> (Vec<u8>, u64, u64, u64, usize) {
    let mut v = VorxBuilder::single_cluster(2)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .trace(false)
        .faults(schedule)
        .build();
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "stream");
        for i in 0..msgs {
            ch.write(&ctx, Payload::copy_from(&[i])).unwrap();
        }
        ch.close(&ctx);
    });
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "stream");
        for _ in 0..msgs {
            let p = ch.read(&ctx).unwrap();
            lock(&sink).push(p.bytes().unwrap()[0]);
        }
    });
    let report = v.run();
    let leaked = report.parked.len();
    let w = v.world();
    assert_eq!(invariants::check(&w, 0), [] as [&str; 0]);
    let order = lock(&got).clone();
    (
        order,
        w.faults.stats.retransmits,
        w.faults.stats.dups_suppressed,
        schedule_dropped(&w),
        leaked,
    )
}

/// A scripted drop of a data frame forces a retransmission, and the
/// message still arrives exactly once, in order.
#[test]
fn dropped_data_frame_is_retransmitted_and_delivered_once() {
    // On node 1's receive link the open reply crosses first; the frame
    // after it is the first data fragment.
    let schedule = FaultSchedule::new(1).drop_nth(rx_link_of(NodeAddr(1)), 2);
    let (order, retransmits, _, dropped, leaked) = stream_under(schedule, 4);
    assert_eq!(dropped, 1, "the scripted drop must have fired");
    assert!(retransmits >= 1, "a drop must force a retransmission");
    assert_eq!(order, vec![0, 1, 2, 3]);
    assert_eq!(leaked, 0);
}

/// A scripted drop of an *ack* makes the sender retransmit a fragment the
/// receiver already has; the duplicate is suppressed, not delivered twice.
#[test]
fn dropped_ack_duplicate_is_suppressed() {
    // On node 1's transmit link: open request, control ack, then data acks.
    let schedule = FaultSchedule::new(1).drop_nth(tx_link_of(NodeAddr(1)), 3);
    let (order, retransmits, dups, dropped, leaked) = stream_under(schedule, 4);
    assert_eq!(dropped, 1, "the scripted drop must have fired");
    assert!(retransmits >= 1);
    assert!(dups >= 1, "the re-sent fragment must be deduplicated");
    assert_eq!(order, vec![0, 1, 2, 3]);
    assert_eq!(leaked, 0);
}

/// A crash wakes every blocked waiter with an error instead of leaking
/// parked processes: the reader on the dead node gets `NodeDown`, the
/// writer peering with it gets `PeerDown` once the failure detector fires.
#[test]
fn crash_wakes_blocked_waiters_with_errors() {
    let schedule = FaultSchedule::new(7).down_at(1, SimTime::from_ns(2_000_000));
    let mut v = VorxBuilder::single_cluster(2)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .trace(false)
        .faults(schedule)
        .build();
    let errs = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&errs);
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "doomed");
        // Write after the crash: the frame vanishes into the dark
        // interface and only the detection sweep can unblock us.
        ctx.sleep(SimDuration::from_ns(5_000_000));
        lock(&sink).push(("writer", ch.write(&ctx, Payload::copy_from(&[1]))));
    });
    let sink = Arc::clone(&errs);
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "doomed");
        lock(&sink).push(("reader", ch.read(&ctx).map(|_| ())));
    });
    let report = v.run();
    assert_eq!(report.parked, vec![], "no process may stay parked");
    let errs = lock(&errs);
    assert!(errs.contains(&("reader", Err(VorxError::NodeDown))));
    assert!(errs.contains(&("writer", Err(VorxError::PeerDown))));
    let w = v.world();
    assert!(w.faults.stats.peer_down_events >= 1);
}

/// The first name `{prefix}{i}` whose object manager passes `pick`.
fn name_managed(w: &World, prefix: &str, pick: impl Fn(NodeAddr) -> bool) -> String {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|n| pick(objmgr::manager_for(w, n)))
        .expect("some name hashes there")
}

/// True iff `node` has a blocking call whose state passes `pick`.
fn holds_call(w: &World, node: NodeAddr, pick: impl Fn(&CallState) -> bool) -> bool {
    w.calls.of(node).any(|(_, c)| pick(&c.state))
}

/// `node` is down and owns nothing: no world table has a row for it.
fn assert_cold(w: &World, node: NodeAddr) {
    assert!(!w.node(node).up);
    let tables = w.tables().into_iter().filter(|(_, t)| t.holds(node));
    let held: Vec<&str> = tables.map(|(name, _)| name).collect();
    assert!(
        w.owns_nothing(node),
        "the crashed node holds rows in {held:?}"
    );
    let violated = invariants::check(w, 0);
    assert!(!violated.contains(&invariants::CRASHED_OWNS_NOTHING));
    assert!(!violated.contains(&invariants::QUEUE_SLOTS));
}

/// A crash leaves nothing of the victim behind: before it the victim holds
/// a channel end with an unread message queued, an open in flight, an unacknowledged control frame, a
/// listener, a manager registration and a queued open, a resolve entry, a
/// pending syscall, a UDCO, a multicast end and collective state; just
/// after it, and still at the restart instant after processes on the down
/// node called `try_open`, `listen`, `syscall`, `udco::register`,
/// `multicast::join`, `mwrite` and every in-network collective, the victim
/// reads as a cold node and nothing it armed is left ticking.
#[test]
fn crash_leaves_nothing_behind() {
    use hpc_vorx::vorx::collective::{self, CollMode, GroupCfg};
    use hpc_vorx::vorx::host::{self, SyscallOp};
    use hpc_vorx::vorx::{multicast, udco, Calibration};

    const V: NodeAddr = NodeAddr(3); // the victim
    const A: NodeAddr = NodeAddr(4); // its channel peer, a server behind its manager
    const B: NodeAddr = NodeAddr(5); // an opener queued at its manager
    const CRASH_NS: u64 = 20_000_000;
    let calib = Calibration {
        // The detection sweep frees the survivors well before the restart
        // check 10 ms after the crash, and a chain the crash failed to
        // disarm (control frames time out after 20 ms) would still be armed.
        crash_detect_ns: 2_000_000,
        ..Calibration::paper_1988()
    };
    let mut v = VorxBuilder::single_cluster(8)
        .hosts(1)
        .calibration(calib)
        .trace(false)
        .build();
    // The victim manages `served` and `queued`; it is neither the manager
    // of `elsewhere` and `listened` nor the successor replica
    // (`objmgr::successor_for`, the next node) of `listened`.
    let (served, queued, elsewhere, listened) = {
        let w = v.world();
        let away = |m: NodeAddr| m != V && m.0 + 1 != V.0;
        (
            name_managed(&w, "srv", |m| m == V),
            name_managed(&w, "q", |m| m == V),
            name_managed(&w, "lonely", away),
            name_managed(&w, "v.server", away),
        )
    };
    collective::register_group(
        &mut v.world(),
        &GroupCfg {
            group: 1,
            members: vec![V, A],
            mode: CollMode::InNetwork,
        },
    );
    let errs = Arc::new(Mutex::new(Vec::new()));
    let log = |tag: &'static str| {
        let sink = Arc::clone(&errs);
        move |r: Result<(), VorxError>| lock(&sink).push((tag, r))
    };

    let done = log("v:read");
    v.spawn("n3:chan", move |ctx| {
        let ch = channel::open(&ctx, V, "pair");
        done(ch.read(&ctx).map(|_| ()));
    });
    let done = log("a:read");
    v.spawn("n4:chan", move |ctx| {
        let ch = channel::open(&ctx, A, "pair");
        done(ch.read(&ctx).map(|_| ()));
    });
    // A message the victim never reads: its end holds a queue slot.
    v.spawn("n3:held", move |ctx| {
        channel::open(&ctx, V, "held");
    });
    v.spawn("n4:held", move |ctx| {
        let ch = channel::open(&ctx, A, "held");
        ch.write(&ctx, Payload::Synthetic(8)).unwrap();
    });
    let done = log("v:open");
    v.spawn("n3:open", move |ctx| {
        done(channel::try_open(&ctx, V, &elsewhere).map(|_| ()));
    });
    v.spawn("n5:open", move |ctx| {
        let _ = channel::try_open(&ctx, B, &queued);
    });
    v.spawn("n4:listen", move |ctx| {
        channel::listen(&ctx, A, &served).accept(&ctx);
    });
    v.spawn("n3:listen", move |ctx| {
        // Registered 25 us before the crash: its retry chain is armed then.
        ctx.sleep(SimDuration::from_ns(CRASH_NS - 50_000));
        channel::listen(&ctx, V, &listened).accept(&ctx);
    });
    let done = log("v:syscall");
    v.spawn("n3:syscall", move |ctx| {
        ctx.sleep(SimDuration::from_ns(CRASH_NS - 100_000));
        let op = SyscallOp::Blocking { dur_ns: 1_000_000 };
        done(host::syscall_on(&ctx, V, 0, op).map(|_| ()));
    });
    v.spawn("n3:objects", move |ctx| {
        udco::register(&ctx, V, 7, udco::UdcoMode::Polled);
        multicast::join(&ctx, V, 3);
    });
    for node in [V, A] {
        v.spawn(format!("n{}:coll", node.0), move |ctx| {
            let c = collective::attach(&ctx, node, 1);
            c.allreduce(&ctx, hpc_vorx::hpcnet::combine::CombOp::Sum, 1);
        });
    }
    v.sim.run_until(SimTime::from_ns(CRASH_NS));

    // The victim holds an entry in every table a crash must empty.
    v.sim.setup(|w, s| {
        let seq = w.token();
        let f = Frame::unicast(V, A, proto::KIND_HEARTBEAT, seq, Payload::Synthetic(0));
        fault::reliable_send(w, s, f);
    });
    {
        let w = v.world();
        assert!(w.listeners.of(V).any(|(_, l)| !l.acked));
        let syscall = |c: &CallState| matches!(c, CallState::Syscall { .. });
        assert!(w.chan_ends.count(V) > 0 && holds_call(&w, V, syscall));
        assert!(w.chan_ends.of(V).any(|e| !e.rx.is_empty()));
        let mgr = &w.managers;
        assert!(mgr.servers.holds(V) && mgr.pending.holds(V) && w.resolve.holds(V));
        assert!(w.udcos.holds(V) && w.mcast.holds(V) && w.coll.holds(V));
        let open = |c: &CallState| matches!(c, CallState::Open(_));
        assert!(holds_call(&w, V, open) && w.ctl_unacked.holds(V));
    }
    let retransmits = v.world().faults.stats.retransmits;
    let survivors = |w: &World| {
        let n = w.node(V);
        (
            n.cpu.sys_cum_ns(),
            n.resolve.hits,
            n.resolve.stale_evictions,
        )
    };
    let before = survivors(&v.world());
    v.sim.setup(|w, s| fault::on_crash(w, s, V));
    assert_cold(&v.world(), V);
    assert_eq!(
        survivors(&v.world()),
        before,
        "the processor's state survives"
    );

    // Processes on the down node call into its kernel.
    let done = log("late:open");
    v.spawn("n3:late-open", move |ctx| {
        done(channel::try_open(&ctx, V, "late").map(|_| ()));
    });
    v.spawn("n3:late-listen", move |ctx| {
        channel::listen(&ctx, V, "late.server");
    });
    let done = log("late:syscall");
    v.spawn("n3:late-syscall", move |ctx| {
        done(host::syscall(&ctx, V, SyscallOp::OpenFile).map(|_| ()));
    });
    v.spawn("n3:late-objects", move |ctx| {
        udco::register(&ctx, V, 7, udco::UdcoMode::Polled);
        multicast::join(&ctx, V, 3);
        multicast::mwrite(&ctx, V, 3, vec![A], Payload::Synthetic(8));
    });
    let late = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&late);
    v.spawn("n3:late-coll", move |ctx| {
        use hpc_vorx::hpcnet::combine::CombOp;
        let c = collective::attach(&ctx, V, 1);
        c.barrier(&ctx);
        let got = [
            c.reduce(&ctx, CombOp::Max, 5),
            c.allreduce(&ctx, CombOp::Sum, 6),
            c.fetch_add(&ctx, 7),
        ];
        lock(&sink).extend(got);
        lock(&sink).extend(c.all_to_all(&ctx, 8));
    });

    let restart = SimTime::from_ns(CRASH_NS + 10_000_000);
    v.sim.run_until(restart);

    assert_eq!(
        v.sim.next_event_time(),
        None,
        "a retry chain of the victim is still armed"
    );
    assert_cold(&v.world(), V);
    assert_eq!(v.world().faults.stats.retransmits, retransmits);
    // Each collective returned its own operand; the all-to-all, V's value
    // at V's index (0 in the group [V, A]).
    assert_eq!(*lock(&late), [5, 6, 7, 8, 0]);
    let mut errs = lock(&errs).clone();
    errs.sort_by_key(|(tag, _)| *tag);
    assert_eq!(
        errs,
        [
            ("a:read", Err(VorxError::PeerDown)),
            ("late:open", Err(VorxError::NodeDown)),
            ("late:syscall", Err(VorxError::NodeDown)),
            ("v:open", Err(VorxError::NodeDown)),
            ("v:read", Err(VorxError::NodeDown)),
            ("v:syscall", Err(VorxError::NodeDown)),
        ]
    );

    // The restart re-queues B's open at the victim's manager: the node works.
    v.sim.setup(|w, s| fault::on_restart(w, s, V));
    v.run();
    assert_eq!(v.world().managers.pending.count(V), 1);
}

/// An `mwrite` whose node crashes while the writer waits for its acks
/// returns as it does on a down node: the crash takes the pending write off
/// the world's table and wakes the writer, which sends no more fragments,
/// and the victim reads cold. (The crash used to drop the write with the
/// node, leaving the writer parked for good, and any wake to panic on
/// "pending mcast vanished".)
#[test]
fn a_crash_while_mwrite_waits_wakes_the_writer() {
    use hpc_vorx::vorx::multicast;

    const V: NodeAddr = NodeAddr(1);
    const CRASH_NS: u64 = 2_000_000;
    let mut v = VorxBuilder::single_cluster(4).trace(false).build();
    let returned = Arc::new(Mutex::new(false));
    let flag = Arc::clone(&returned);
    v.spawn("n1:mwrite", move |ctx| {
        // Three fragments to nodes that never join group 5: nobody acks.
        let dsts = vec![NodeAddr(2), NodeAddr(3)];
        multicast::mwrite(&ctx, V, 5, dsts, Payload::Synthetic(3_000));
        *lock(&flag) = true;
    });
    v.sim.run_until(SimTime::from_ns(CRASH_NS));
    let mcast = |c: &CallState| matches!(c, CallState::Mcast { .. });
    assert!(holds_call(&v.world(), V, mcast), "the writer waits");
    let sent = v.world().net.stats.frames_sent;
    v.sim.setup(|w, s| fault::on_crash(w, s, V));
    let report = v.run();
    assert_eq!(report.parked, vec![], "the writer must not stay parked");
    assert!(*lock(&returned), "mwrite returned");
    let w = v.world();
    assert_eq!(w.net.stats.frames_sent, sent, "no fragment after the crash");
    assert_cold(&w, V);
}

/// A syscall outstanding when its host crashes, which never restarts, fails
/// with `HostDown` at the crash's detection sweep, and the dead host's stub
/// sends no reply when the call's service time runs out: the host owns
/// nothing.
#[test]
fn a_syscall_whose_host_crashes_fails_host_down() {
    use hpc_vorx::vorx::host::{self, SyscallOp};

    const HOST: NodeAddr = NodeAddr(0);
    const CRASH_NS: u64 = 1_000_000;
    let faults = FaultSchedule::new(1).down_at(HOST.0, SimTime::from_ns(CRASH_NS));
    let mut v = VorxBuilder::single_cluster(2)
        .hosts(1)
        .faults(faults)
        .trace(false)
        .build();
    let got = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&got);
    v.spawn("n1:syscall", move |ctx| {
        let op = SyscallOp::Blocking { dur_ns: 5_000_000 };
        let ret = host::syscall_on(&ctx, NodeAddr(1), 0, op);
        *lock(&sink) = Some((ret, ctx.now().as_ns()));
    });
    let report = v.run();
    assert_eq!(report.parked, vec![], "the caller must not stay parked");
    let (ret, at) = lock(&got).take().expect("the call returned");
    assert_eq!(ret, Err(VorxError::HostDown));
    let w = v.world();
    assert_eq!(
        at,
        CRASH_NS + w.calib.crash_detect_ns,
        "failed at the sweep"
    );
    assert!(w.owns_nothing(HOST), "the dead host queued its reply");
    assert!(w.calls.is_empty(), "the call was left behind");
}

/// A host's stubs die with it. Host 0's one shared stub serves nodes 1–3,
/// each with a blocking call queued or in service, when the host crashes;
/// it restarts before the detection sweep, and the call in service would
/// finish after the restart, once a new stub for node 1 runs under the old
/// stub's id. Every pre-crash call fails `HostDown` at the sweep, the host
/// owns nothing while down, and the new stub serves only node 1's next
/// call, from a fresh descriptor table.
#[test]
fn a_host_crash_wipes_its_stubs() {
    use hpc_vorx::vorx::host::{self, SyscallOp, SyscallRet};

    const HOST: NodeAddr = NodeAddr(0);
    // The shared stub exists at 60 ms (`stub_create_ns`) and serves node
    // 1's call from then until about 212 ms; the new stub exists at about
    // 161 ms, the sweep fires at 270 ms.
    const CRASH_NS: u64 = 70_000_000;
    const RESTART_NS: u64 = 100_000_000;
    let faults = FaultSchedule::new(1)
        .down_at(HOST.0, SimTime::from_ns(CRASH_NS))
        .up_at(HOST.0, SimTime::from_ns(RESTART_NS));
    let mut v = VorxBuilder::single_cluster(4)
        .hosts(1)
        .faults(faults)
        .trace(false)
        .build();
    let detect = v.world().calib.crash_detect_ns;
    assert!(RESTART_NS < CRASH_NS + detect, "restarts before the sweep");
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    v.spawn("h0:setup", move |ctx| {
        host::create_stub(&ctx, 0, (1..4).map(NodeAddr).collect()).unwrap();
        for node in (1..4).map(NodeAddr) {
            let sink = Arc::clone(&sink);
            ctx.with(move |_, s| {
                s.spawn(format!("n{}:syscall", node.0), move |ctx: VCtx| {
                    let op = SyscallOp::Blocking {
                        dur_ns: 150_000_000,
                    };
                    let ret = host::syscall(&ctx, node, op);
                    lock(&sink).push((node, ret, ctx.now().as_ns()));
                    if node == NodeAddr(1) {
                        let ret = host::syscall(&ctx, node, SyscallOp::OpenFile);
                        lock(&sink).push((node, ret, ctx.now().as_ns()));
                    }
                });
            });
        }
    });
    v.spawn("h0:restub", |ctx| {
        ctx.sleep(SimDuration::from_ns(RESTART_NS + 1_000_000));
        host::create_stub(&ctx, 0, vec![NodeAddr(1)]).unwrap();
    });
    v.sim.run_until(SimTime::from_ns(CRASH_NS + 1));
    assert_cold(&v.world(), HOST);
    v.sim.run_until(SimTime::from_ns(RESTART_NS - 1));
    assert_cold(&v.world(), HOST);
    let report = v.run();
    assert_eq!(report.parked, vec![], "every caller returned");

    let got = lock(&got).clone();
    let (pre, post) = got.split_at(3);
    for &(node, ret, at) in pre {
        assert_eq!(
            ret,
            Err(VorxError::HostDown),
            "node {node}'s pre-crash call"
        );
        assert_eq!(at, CRASH_NS + detect, "node {node} failed at the sweep");
    }
    let post: Vec<_> = post.iter().map(|&(node, ret, _)| (node, ret)).collect();
    assert_eq!(
        post,
        [(NodeAddr(1), Ok(SyscallRet::Fd(3)))],
        "a fresh table"
    );
    let w = v.world();
    let stubs: Vec<u64> = w.stubs.of(HOST).map(|(_, s)| s.served).collect();
    assert_eq!(stubs, [1], "the new stub served node 1's next call alone");
}

/// A `syscall` from a node whose home host crashed fails `NoStub`, while
/// the host is down and after it restarts: its stub died with the host.
#[test]
fn a_syscall_after_its_host_crashed_fails_no_stub() {
    use hpc_vorx::vorx::host::{self, SyscallOp};

    const CRASH_NS: u64 = 70_000_000;
    const RESTART_NS: u64 = 100_000_000;
    let faults = FaultSchedule::new(1)
        .down_at(0, SimTime::from_ns(CRASH_NS))
        .up_at(0, SimTime::from_ns(RESTART_NS));
    let mut v = VorxBuilder::single_cluster(2)
        .hosts(1)
        .faults(faults)
        .trace(false)
        .build();
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    v.spawn("h0:setup", move |ctx| {
        host::create_stub(&ctx, 0, vec![NodeAddr(1)]).unwrap();
        ctx.with(move |_, s| {
            s.spawn("n1:syscall", move |ctx: VCtx| {
                for at in [CRASH_NS, RESTART_NS] {
                    ctx.sleep(SimDuration::from_ns(at + 1_000_000 - ctx.now().as_ns()));
                    lock(&sink).push(host::syscall(&ctx, NodeAddr(1), SyscallOp::OpenFile));
                }
            });
        });
    });
    v.run_all();
    assert_eq!(
        *lock(&got),
        [Err(VorxError::NoStub), Err(VorxError::NoStub)]
    );
}

/// A `syscall_on` directed at a down host fails `HostDown` and makes no
/// service stub there.
#[test]
fn a_syscall_on_a_down_host_fails_host_down() {
    use hpc_vorx::vorx::host::{self, SyscallOp};

    let faults = FaultSchedule::new(1).down_at(0, SimTime::from_ns(1_000_000));
    let mut v = VorxBuilder::single_cluster(2)
        .hosts(1)
        .faults(faults)
        .trace(false)
        .build();
    let got = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&got);
    v.spawn("n1:syscall", move |ctx| {
        ctx.sleep(SimDuration::from_ms(2));
        *lock(&sink) = Some(host::syscall_on(&ctx, NodeAddr(1), 0, SyscallOp::OpenFile));
    });
    v.run_all();
    assert_eq!(lock(&got).take(), Some(Err(VorxError::HostDown)));
    assert_cold(&v.world(), NodeAddr(0));
}

/// `create_stub` on a down host fails `HostDown` and leaves the host
/// owning nothing: host 0 crashes at 1 µs (and restarts at 100 ms, so the
/// world heals), and a stub asked for at 1 ms — or asked for at 0, whose
/// 60 ms fork/exec charge ends with the host still down — is never made.
#[test]
fn a_stub_on_a_down_host_fails_host_down() {
    use hpc_vorx::vorx::host;

    let faults = FaultSchedule::new(1)
        .down_at(0, SimTime::from_ns(1_000))
        .up_at(0, SimTime::from_ns(100_000_000));
    let mut v = VorxBuilder::single_cluster(2)
        .hosts(1)
        .faults(faults)
        .trace(false)
        .build();
    let got = Arc::new(Mutex::new(Vec::new()));
    for start in [SimDuration::ZERO, SimDuration::from_ms(1)] {
        let sink = Arc::clone(&got);
        v.spawn("h0:stub", move |ctx| {
            ctx.sleep(start);
            let made = host::create_stub(&ctx, 0, vec![NodeAddr(1)]);
            lock(&sink).push(made);
        });
    }
    v.run_all();
    assert_eq!(
        *lock(&got),
        [Err(VorxError::HostDown), Err(VorxError::HostDown)]
    );
    let w = v.world();
    assert!(w.owns_nothing(NodeAddr(0)), "the down host holds a stub");
    assert_eq!(invariants::check(&w, 0), Vec::<&str>::new());
}

/// How many messages the failover workload streams.
const FAILOVER_MSGS: u32 = 12;

/// The campaign's failover protocol in miniature: reader's node crashes
/// mid-stream and restarts; the pair rendezvouses on a generation-suffixed
/// name where the reader reports its resume index. Returns the committed
/// indices and the full execution trace as JSON.
fn failover_run(seed: u64) -> (Vec<u32>, usize, String) {
    let schedule = FaultSchedule::new(seed)
        .all_links(LinkFaults::loss(0.05))
        .down_at(1, SimTime::from_ns(1_000_000))
        .up_at(1, SimTime::from_ns(8_000_000));
    let mut v = VorxBuilder::single_cluster(3)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(2)))
        .trace(true)
        .faults(schedule)
        .build();
    v.spawn("n0:writer", move |ctx| {
        let mut generation = 0u32;
        let mut idx = 0u32;
        let mut ch = channel::try_open(&ctx, NodeAddr(0), "fo.g0").unwrap();
        while idx < FAILOVER_MSGS {
            match ch.write(&ctx, Payload::copy_from(&idx.to_le_bytes())) {
                Ok(()) => idx += 1,
                Err(_) => {
                    ch.close(&ctx);
                    generation += 1;
                    ch =
                        channel::try_open(&ctx, NodeAddr(0), &format!("fo.g{generation}")).unwrap();
                    let resume = ch.read(&ctx).unwrap();
                    idx = u32::from_le_bytes(resume.bytes().unwrap()[..4].try_into().unwrap());
                }
            }
        }
        ch.close(&ctx);
    });
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    v.spawn("n1:reader", move |ctx| {
        let mut generation = 0u32;
        let mut expect = 0u32;
        'recover: loop {
            let ch = match channel::try_open(&ctx, NodeAddr(1), &format!("fo.g{generation}")) {
                Ok(ch) => ch,
                Err(_) => {
                    fault::wait_until_up(&ctx, NodeAddr(1));
                    generation += 1;
                    continue 'recover;
                }
            };
            if generation > 0
                && ch
                    .write(&ctx, Payload::copy_from(&expect.to_le_bytes()))
                    .is_err()
            {
                fault::wait_until_up(&ctx, NodeAddr(1));
                generation += 1;
                continue 'recover;
            }
            loop {
                match ch.read(&ctx) {
                    Ok(p) => {
                        let i = u32::from_le_bytes(p.bytes().unwrap()[..4].try_into().unwrap());
                        if i != expect {
                            continue; // duplicate from the rewind
                        }
                        lock(&sink).push(i);
                        expect += 1;
                        if expect == FAILOVER_MSGS {
                            return;
                        }
                    }
                    Err(_) => {
                        fault::wait_until_up(&ctx, NodeAddr(1));
                        generation += 1;
                        continue 'recover;
                    }
                }
            }
        }
    });
    let report = v.run();
    let leaked = report.parked.len();
    // The crashed node is back up and the stream healed: quiescence holds.
    assert_eq!(invariants::check(&v.world(), 0), [] as [&str; 0]);
    let trace = v.world().trace.to_json();
    let order = lock(&got).clone();
    (order, leaked, trace)
}

/// Crash + restart mid-stream: the workload completes exactly once, in
/// order, with nothing leaked, despite 5% loss on every link.
#[test]
fn crash_restart_failover_completes_exactly_once() {
    let (order, leaked, _) = failover_run(42);
    assert_eq!(order, (0..FAILOVER_MSGS).collect::<Vec<_>>());
    assert_eq!(leaked, 0);
}

/// The determinism guarantee under faults: the same (workload, fault seed)
/// pair produces a bit-identical execution trace — drops, crashes,
/// retransmissions, recovery and all.
#[test]
fn same_fault_seed_replays_bit_identically() {
    let (order_a, leaked_a, trace_a) = failover_run(42);
    let (order_b, leaked_b, trace_b) = failover_run(42);
    assert_eq!(order_a, order_b);
    assert_eq!(leaked_a, leaked_b);
    assert!(
        !trace_a.is_empty() && trace_a.len() > 2,
        "trace must record"
    );
    assert_eq!(trace_a, trace_b, "faulted runs must replay bit-identically");
}

/// A different fault seed takes a different path (sanity check that the
/// determinism test above is not comparing empty or fault-free traces).
#[test]
fn different_fault_seed_diverges() {
    let (order_a, _, trace_a) = failover_run(42);
    let (order_b, _, trace_b) = failover_run(43);
    // Both complete — recovery is seed-independent — but the executions
    // differ in where the losses landed.
    assert_eq!(order_a, order_b);
    assert_ne!(trace_a, trace_b);
}

/// A cable cut mid-stream: frames heading into the dead cable die at the
/// cut (they must never cross a down link), the per-link fault counters
/// record the outage, and the retransmit protocol recovers everything once
/// the cable heals — exactly-once, in order, nothing leaked.
#[test]
fn link_cut_drops_frames_then_retransmission_recovers() {
    use hpc_vorx::hpcnet::ClusterId;
    // Two clusters, one endpoint each, a single cable: node 0 ↔ node 1,
    // no alternate route.
    let cable: [u32; 2] = {
        let f = Fabric::new(
            Topology::incomplete_hypercube(2, 1).unwrap(),
            NetConfig::paper_1988(),
        );
        [
            f.cluster_link(ClusterId(0), ClusterId(1)).unwrap().0,
            f.cluster_link(ClusterId(1), ClusterId(0)).unwrap().0,
        ]
    };
    // Down for 15 ms: shorter than one ack timeout, so the writer rides
    // through on plain retransmission without any partition verdict.
    let mut schedule = FaultSchedule::new(5);
    for l in cable {
        schedule = schedule
            .link_down_at(l, SimTime::from_ns(3_000_000))
            .link_up_at(l, SimTime::from_ns(18_000_000));
    }
    let mut v = VorxBuilder::hypercube(2, 1)
        .trace(false)
        .faults(schedule)
        .build();
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "cut");
        for i in 0..2u8 {
            ch.write(&ctx, Payload::copy_from(&[i])).unwrap();
        }
        // Write squarely inside the outage: the frame reaches cluster 0,
        // finds no surviving route, and is dropped at the cut.
        ctx.sleep(SimDuration::from_ns(5_000_000));
        for i in 2..6u8 {
            ch.write(&ctx, Payload::copy_from(&[i])).unwrap();
        }
        ch.close(&ctx);
    });
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "cut");
        for _ in 0..6 {
            lock(&sink).push(ch.read(&ctx).unwrap().bytes().unwrap()[0]);
        }
    });
    let report = v.run();
    assert_eq!(report.parked, vec![], "no process may stay parked");
    assert_eq!(*lock(&got), (0..6).collect::<Vec<_>>());
    let w = v.world();
    assert!(
        w.net.stats.frames_dropped >= 1,
        "the mid-outage frame must die at the cut, not cross it"
    );
    assert!(
        w.faults.stats.retransmits >= 1,
        "recovery is retransmission"
    );
    let per_link = w.link_fault_stats();
    for l in cable {
        assert_eq!(per_link[&l].downs, 1, "the outage must be recorded");
    }
    assert_eq!(
        w.faults.stats.partitions, 0,
        "a sub-timeout blip must not be declared a partition"
    );
    assert_eq!(invariants::check(&w, 0), [] as [&str; 0]);
}

/// BUSY-grant exhaustion: a receiver that never drains must surface a
/// *typed* error to the writer within the `MAX_BUSY_GRANTS` cap — not
/// stall silently forever. The reader opens the channel and then sleeps:
/// the writer's first 8 one-byte messages land in the kernel side buffers
/// and are acked; the 9th is refused with BUSY grants until the grant cap
/// (64) runs dry, after which the ordinary retry budget expires and the
/// writer gets `VorxError::PeerDown` while the reader is still asleep.
#[test]
fn busy_grant_exhaustion_surfaces_typed_error() {
    use hpc_vorx::desim::SimTime;
    const READER_NAP_NS: u64 = 60_000_000_000; // 60 s: far past the cap
    let mut v = VorxBuilder::single_cluster(2)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .trace(false)
        .build();
    let failure: Arc<Mutex<Option<(u8, hpc_vorx::vorx::VorxError, SimTime)>>> =
        Arc::new(Mutex::new(None));
    let sink = Arc::clone(&failure);
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "wedge");
        for i in 0..32u8 {
            if let Err(e) = ch.write(&ctx, Payload::copy_from(&[i])) {
                *lock(&sink) = Some((i, e, ctx.now()));
                return;
            }
        }
    });
    v.spawn("n1:reader", |ctx| {
        let _ch = channel::open(&ctx, NodeAddr(1), "wedge");
        // Never drains: sleep through the writer's whole struggle.
        ctx.sleep(SimDuration::from_ns(READER_NAP_NS));
    });
    let report = v.run();
    assert_eq!(report.parked, vec![], "the writer must not wedge");
    let (at_msg, err, when) = lock(&failure)
        .take()
        .expect("a never-draining receiver must produce a typed error, not silence");
    assert_eq!(err, VorxError::PeerDown, "the failure must be typed");
    assert!(
        at_msg <= 9,
        "only the side buffers (8) plus the blocked write may succeed; \
         write {at_msg} should already have failed"
    );
    assert!(
        when.as_ns() < READER_NAP_NS,
        "the error must arrive while the reader is still asleep (bounded \
         by the grant cap), not after it wakes"
    );
    let w = v.world();
    assert!(w.faults.stats.busy_sent > 0, "BUSY grants must have flowed");
    assert!(
        w.faults.stats.peer_down_events >= 1,
        "grant exhaustion ends in a peer-down verdict"
    );
    assert_eq!(invariants::check(&w, 0), [] as [&str; 0]);
}

/// The channel table's bound at its real value: both nodes of a 2-node world
/// open [`MAX_CHANS_PER_NODE`] channels with each other, all of which pair.
/// The next `try_open` on node 0 is refused with `ResourceExhausted` before
/// anything is registered or sent: it costs the open syscall and nothing
/// more, never reaches the manager, counts one `table_rejects`, and leaves
/// no open wait, unacked control frame or waiting opener behind.
#[test]
fn channel_table_refuses_the_open_past_its_cap() {
    use hpc_vorx::vorx::calib::MAX_CHANS_PER_NODE;
    let names: Arc<Vec<String>> = Arc::new(
        (0..MAX_CHANS_PER_NODE)
            .map(|i| format!("cap/{i}"))
            .collect(),
    );
    let mut v = VorxBuilder::single_cluster(2)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .trace(false)
        .build();
    let refused: Arc<Mutex<Option<(VorxError, u64)>>> = Arc::new(Mutex::new(None));
    for node in 0..2u32 {
        let (names, sink) = (Arc::clone(&names), Arc::clone(&refused));
        v.spawn(format!("n{node}:opener"), move |ctx| {
            for name in names.iter() {
                channel::try_open(&ctx, NodeAddr(node), name)
                    .expect("under the cap, every open pairs");
            }
            if node == 0 {
                let start = ctx.now();
                let err = channel::try_open(&ctx, NodeAddr(0), "cap/one-too-many").unwrap_err();
                *lock(&sink) = Some((err, (ctx.now() - start).as_ns()));
            }
        });
    }
    let report = v.run();
    assert!(report.all_finished(), "no opener may wedge: {report:?}");
    let (err, elapsed_ns) = lock(&refused)
        .take()
        .expect("node 0 tried one open past the cap");
    assert_eq!(err, VorxError::ResourceExhausted);
    let w = v.world();
    assert_eq!(
        elapsed_ns, w.calib.chan_read_syscall_ns,
        "the refusal costs the open syscall, no round trip"
    );
    assert_eq!(w.faults.stats.table_rejects, 1);
    for node in 0..2 {
        assert_eq!(w.chan_ends.count(NodeAddr(node)), MAX_CHANS_PER_NODE);
    }
    assert!(w.calls.is_empty(), "an open wait was left behind");
    assert!(w.ctl_unacked.is_empty(), "a control frame is still unacked");
    let mgr = &w.node(NodeAddr(0)).mgr;
    assert_eq!(
        mgr.served,
        2 * MAX_CHANS_PER_NODE as u64,
        "the refused open reached the manager"
    );
    assert!(
        w.managers.pending.is_empty(),
        "an opener still waits at the manager"
    );
    assert_eq!(invariants::check(&w, 0), [] as [&str; 0]);
}

/// A lost `KIND_CHAN_BUSY`: the reader naps with its side buffers full, the
/// 9th fragment is deferred, and the BUSY that says so is dropped. The
/// writer's timer must retransmit, the retransmission must draw a *second*
/// BUSY (the receiver's `ReBusy` arm), and that BUSY must restart the retry
/// budget through the one shared retransmit timer — the nap (500 ms)
/// outlasts the whole un-restarted budget (20 + 40 + 80 ms at two retries)
/// several times over, so a writer whose budget was not restarted would
/// fail with `PeerDown`. Every message arrives exactly once, in order.
#[test]
fn lost_busy_is_resent_and_restarts_the_retry_budget() {
    const MSGS: u8 = 12;
    // On node 1's transmit link: open request, control ack, the acks of
    // fragments 1–8, then the BUSY for fragment 9.
    let schedule = FaultSchedule::new(1).drop_nth(tx_link_of(NodeAddr(1)), 11);
    let mut calib = hpc_vorx::vorx::Calibration::paper_1988();
    calib.chan_max_retries = 2;
    let mut v = VorxBuilder::single_cluster(2)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .calibration(calib)
        .trace(false)
        .faults(schedule)
        .build();
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "busy");
        for i in 0..MSGS {
            ch.write(&ctx, Payload::copy_from(&[i])).unwrap();
        }
        ch.close(&ctx);
    });
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "busy");
        ctx.sleep(SimDuration::from_ns(500_000_000));
        for _ in 0..MSGS {
            lock(&sink).push(ch.read(&ctx).unwrap().bytes().unwrap()[0]);
        }
    });

    // Step to the instant the receiver defers fragment 9 and says BUSY.
    let mut t = 0u64;
    while v.world().faults.stats.busy_sent == 0 {
        t += 1_000_000;
        assert!(t < 100_000_000, "fragment 9 was never deferred");
        v.sim.run_until(SimTime::from_ns(t));
    }
    // One more millisecond: the BUSY is on the wire, and dies there.
    v.sim.run_until(SimTime::from_ns(t + 1_000_000));
    {
        let w = v.world();
        assert_eq!(
            schedule_dropped(&w),
            1,
            "the BUSY must be the frame dropped"
        );
        assert_eq!(w.faults.stats.retransmits, 0);
        let tx = w.chan_ends.of(NodeAddr(0)).next().unwrap();
        assert_eq!(tx.win.inflight.len(), 1, "fragment 9 is outstanding");
        assert_eq!(tx.win.busy_grants, 0, "the writer never heard the BUSY");
        let rx = w.chan_ends.of(NodeAddr(1)).next().unwrap();
        assert_eq!(rx.deferred.len(), 1);
    }
    // Past the first ack timeout: one retransmission, answered by a second
    // BUSY, which grants the writer a fresh budget on a fresh timer.
    v.sim.run_until(SimTime::from_ns(t + 25_000_000));
    {
        let w = v.world();
        assert_eq!(w.faults.stats.retransmits, 1);
        assert_eq!(
            w.faults.stats.dups_suppressed, 1,
            "the duplicate drew ReBusy"
        );
        assert_eq!(
            w.faults.stats.busy_sent, 1,
            "ReBusy repeats a BUSY, it does not defer again"
        );
        let tx = w.chan_ends.of(NodeAddr(0)).next().unwrap();
        assert_eq!(tx.win.busy_grants, 1);
        assert_eq!(
            tx.win.chain.attempts, 0,
            "the second BUSY restarted the budget"
        );
        assert!(tx.win.chain.timer.is_some(), "on a freshly armed timer");
        assert_eq!(tx.win.inflight.len(), 1);
    }
    let report = v.run();
    assert_eq!(report.parked, vec![], "no process may stay parked");
    assert_eq!(*lock(&got), (0..MSGS).collect::<Vec<_>>());
    let w = v.world();
    assert!(
        w.faults.stats.retransmits > 2,
        "the nap outlasts the un-restarted budget: only grants carry the writer through"
    );
    assert_eq!(w.faults.stats.peer_down_events, 0);
    assert!(w
        .chan_ends
        .of(NodeAddr(0))
        .all(|e| e.win.inflight.is_empty()));
    assert_eq!(invariants::check(&w, 0), [] as [&str; 0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized loss and corruption probabilities with random seeds:
    /// the channel protocol delivers every message exactly once, in order,
    /// and the run leaves no parked process behind.
    #[test]
    fn lossy_corrupt_stream_delivers_exactly_once(
        seed in 0u64..1_000_000,
        drop in 0.0f64..0.06,
        corrupt in 0.0f64..0.04,
    ) {
        let schedule = FaultSchedule::new(seed).all_links(LinkFaults {
            drop,
            corrupt,
            delay: 0.0,
            delay_ns: 0,
        });
        let (order, _, _, _, leaked) = stream_under(schedule, 8);
        prop_assert_eq!(order, (0..8u8).collect::<Vec<_>>());
        prop_assert_eq!(leaked, 0);
    }
}

/// Values a fault script can name at the ends of `u64`, drawn one time in
/// two in place of an arbitrary word.
const EDGE_NS: [u64; 6] = [0, 1, 2, u64::MAX / 2, u64::MAX - 1, u64::MAX];
/// Degrade factors that are not ordinary slowdowns.
const ODD_FACTORS: [f64; 6] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, 1e300];

fn edge_or((i, word): (usize, u64)) -> u64 {
    EDGE_NS.get(i).copied().unwrap_or(word)
}

/// Every `LinkDown`/`LinkUp` instant of `link`, in timeline order.
fn flap_times(f: &FaultSchedule, link: u32) -> Vec<u64> {
    f.events()
        .iter()
        .filter(
            |e| matches!(e.action, FaultAction::LinkDown(l) | FaultAction::LinkUp(l) if l == link),
        )
        .map(|e| e.at.as_ns())
        .collect()
}

/// The two scripts that used to panic: an all-admitting jitter bound, and a
/// flap whose later edges fall past the end of time.
#[test]
fn extreme_fault_scripts_do_not_panic() {
    let gray = FaultSchedule::new(3).degrade(0, SimTime::ZERO, SimTime::MAX, 2.0, u64::MAX);
    assert!(
        gray.gray_delay_ns(0, 5, 1_000) >= 1_000,
        "the 2x inflation stays"
    );
    let flap = FaultSchedule::new(3).flap_link(7, SimTime::from_ns(5), u64::MAX / 2, 3);
    let times = flap_times(&flap, 7);
    assert_eq!(
        &times[..2],
        &[5, 5 + u64::MAX / 2],
        "in-range edges are exact"
    );
    assert_eq!(
        &times[2..],
        &[u64::MAX; 4],
        "later edges stop at the end of time"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `degrade` and `flap_link` take any parameters — 0, 1, `u64::MAX`,
    /// NaN and infinite factors included — without a panic; each link's
    /// flap instants never decrease, and where no edge overflows they are
    /// exactly `first_down + k × half_period`.
    fn scripted_fault_parameters_never_panic(
        times in (
            (0usize..12, any::<u64>()),
            (0usize..12, any::<u64>()),
            (0usize..12, any::<u64>()),
            (0usize..12, any::<u64>()),
            (0usize..12, any::<u64>()),
        ),
        factor in (0usize..12, 0.0f64..8.0),
        hop_ns in (0usize..12, any::<u64>()),
        link in 0u32..4,
        cycles in 0u32..5,
    ) {
        let (start, end, jitter, first, half) = (
            edge_or(times.0),
            edge_or(times.1),
            edge_or(times.2),
            edge_or(times.3),
            edge_or(times.4),
        );
        let factor = ODD_FACTORS.get(factor.0).copied().unwrap_or(factor.1);
        let f = FaultSchedule::new(u64::from(link))
            .degrade(link, SimTime::from_ns(start), SimTime::from_ns(end), factor, jitter)
            .flap_link(link, SimTime::from_ns(first), half, cycles);
        for now in [start, end.saturating_sub(1), first] {
            f.gray_delay_ns(link, now, edge_or(hop_ns));
        }
        let got = flap_times(&f, link);
        prop_assert_eq!(got.len(), 2 * cycles as usize);
        prop_assert!(got.windows(2).all(|w| w[0] <= w[1]), "flap times decrease: {got:?}");
        let exact: Option<Vec<u64>> = (0..2 * u64::from(cycles))
            .map(|k| k.checked_mul(half)?.checked_add(first))
            .collect();
        if let Some(exact) = exact {
            prop_assert_eq!(got, exact);
        }
    }
}
