//! Cross-crate integration tests: whole-system scenarios exercising the
//! interconnect, kernel, channels, object managers, hosts, tools, and
//! workloads together.

use desim::{SimDuration, SimTime};
use hpc_vorx::vorx::alloc::UserId;
use hpc_vorx::vorx::host::{create_stub, syscall, SyscallOp, SyscallRet};
use hpc_vorx::vorx::hpcnet::{NodeAddr, Payload};
use hpc_vorx::vorx::objmgr::ObjMgrMode;
use hpc_vorx::vorx::{channel, VCtx, VorxBuilder};
use hpc_vorx::vorx_tools::{cdb, oscillo::Oscilloscope, prof::ProfReport};

/// A full Figure-1-style application: hosts, allocation, stubs, syscalls,
/// channels across a hypercube, and the tools reading it all back.
#[test]
fn spanning_application_with_hosts_and_tools() {
    let mut v = VorxBuilder::hypercube(4, 4).hosts(2).build();
    // 2 hosts on n0..n1; allocate 4 of the 14 pool nodes.
    let workers = v.world().alloc.allocate(UserId(7), 4).expect("free pool");
    assert_eq!(workers.len(), 4);

    v.spawn("host0:app", move |ctx| {
        for &w in &workers {
            create_stub(&ctx, 0, vec![w]);
        }
        for (i, &w) in workers.iter().enumerate() {
            ctx.with(move |_, s| {
                s.spawn(format!("n{}:w", w.0), move |ctx: VCtx| {
                    hpc_vorx::vorx_tools::prof::enter(&ctx, w, "service");
                    let ch = channel::open(&ctx, w, &format!("t-{i}"));
                    for _ in 0..4 {
                        let job = ch.read(&ctx).unwrap();
                        hpc_vorx::vorx::api::user_compute(&ctx, w, SimDuration::from_us(700));
                        assert_eq!(
                            syscall(&ctx, w, SyscallOp::WriteFile { bytes: job.len() }),
                            Ok(SyscallRet::Ok)
                        );
                    }
                    hpc_vorx::vorx_tools::prof::exit(&ctx, w, "service");
                });
            });
        }
        let chans: Vec<_> = (0..4)
            .map(|i| channel::open(&ctx, NodeAddr(0), &format!("t-{i}")))
            .collect();
        for _ in 0..4 {
            for ch in &chans {
                ch.write(&ctx, Payload::Synthetic(128)).unwrap();
            }
        }
    });

    let end = v.run_all();
    let w = v.world();

    // Tools agree with the run.
    assert!(cdb::deadlock_cycles(&w).is_empty());
    let snap = cdb::snapshot(&w);
    assert_eq!(snap.len(), 4);
    for c in &snap {
        let host_end = c.ends.iter().find(|e| e.node == NodeAddr(0)).unwrap();
        assert_eq!(host_end.msgs_tx, 4);
    }
    let scope = Oscilloscope::from_trace(&w.trace, w.nodes.len());
    // Each worker computed 4 x 700us of user time.
    for &wk in &w.alloc.owned_by(UserId(7)) {
        let u = scope.utilization(wk.0 as usize, SimTime::ZERO, end);
        assert_eq!(u.user, 4 * 700_000, "node {wk} user time");
    }
    let prof = ProfReport::from_trace(&w.trace);
    assert_eq!(prof.regions.len(), 4);
    // Stubs served 4 write syscalls each.
    assert!(w.hosts[0].stubs.iter().all(|s| s.served == 4));
}

/// The entire stack is deterministic: two identical runs produce identical
/// traces, byte for byte.
#[test]
fn full_stack_determinism() {
    fn run() -> (u64, String) {
        let mut v = VorxBuilder::single_cluster(6).seed(99).build();
        for i in 0..2u32 {
            let (a, b) = (1 + i * 2, 2 + i * 2);
            v.spawn(format!("n{a}:w"), move |ctx| {
                let ch = channel::open(&ctx, NodeAddr(a), &format!("d{i}"));
                for k in 0..5u8 {
                    ch.write(&ctx, Payload::copy_from(&[k; 100])).unwrap();
                }
            });
            v.spawn(format!("n{b}:r"), move |ctx| {
                let ch = channel::open(&ctx, NodeAddr(b), &format!("d{i}"));
                for _ in 0..5 {
                    let _ = ch.read(&ctx).unwrap();
                }
            });
        }
        let end = v.run_all();
        let w = v.world();
        (end.as_ns(), w.trace.to_json())
    }
    let (t1, j1) = run();
    let (t2, j2) = run();
    assert_eq!(t1, t2);
    assert_eq!(j1, j2);
}

/// The trace export format, byte for byte: every comparison above and in the
/// campaigns is run against run, so this golden is what pins the bytes (every
/// variant, every `CpuCat`/`BlockReason` name, every escape class, `u64::MAX`).
#[test]
fn trace_json_format_is_pinned() {
    use hpc_vorx::vorx::{BlockReason, CpuCat, TraceEvent};
    let events = [
        TraceEvent::Cpu {
            node: 3,
            cat: CpuCat::User,
            start_ns: 1,
            end_ns: u64::MAX,
        },
        TraceEvent::Cpu {
            node: 0,
            cat: CpuCat::System,
            start_ns: 0,
            end_ns: 7,
        },
        TraceEvent::Block {
            node: 1,
            reason: BlockReason::Input,
        },
        TraceEvent::Unblock {
            node: 1,
            reason: BlockReason::Output,
        },
        TraceEvent::Block {
            node: 2,
            reason: BlockReason::Other,
        },
        TraceEvent::Region {
            node: 9,
            name: "he said \"hi\"\n\t\\ \u{1} é".into(),
            enter: true,
        },
        TraceEvent::Region {
            node: 9,
            name: String::new(),
            enter: false,
        },
        TraceEvent::Fault { node: 4, up: false },
        TraceEvent::LinkFault { link: 77, up: true },
    ];
    let mut t = desim::Trace::new();
    for (i, e) in events.into_iter().enumerate() {
        t.record(SimTime::from_ns(i as u64 + 1), e);
    }
    assert_eq!(
        t.to_json(),
        concat!(
            r#"[{"t_ns":1,"event":{"Cpu":{"node":3,"cat":"User","start_ns":1,"end_ns":18446744073709551615}}},"#,
            r#"{"t_ns":2,"event":{"Cpu":{"node":0,"cat":"System","start_ns":0,"end_ns":7}}},"#,
            r#"{"t_ns":3,"event":{"Block":{"node":1,"reason":"Input"}}},"#,
            r#"{"t_ns":4,"event":{"Unblock":{"node":1,"reason":"Output"}}},"#,
            r#"{"t_ns":5,"event":{"Block":{"node":2,"reason":"Other"}}},"#,
            r#"{"t_ns":6,"event":{"Region":{"node":9,"name":"he said \"hi\"\n\t\\ \u0001 é","enter":true}}},"#,
            r#"{"t_ns":7,"event":{"Region":{"node":9,"name":"","enter":false}}},"#,
            r#"{"t_ns":8,"event":{"Fault":{"node":4,"up":false}}},"#,
            r#"{"t_ns":9,"event":{"LinkFault":{"link":77,"up":true}}}]"#,
        )
    );
    assert_eq!(desim::Trace::<u64>::new().to_json(), "[]");
}

/// Centralized vs distributed object manager gives identical *connectivity*
/// (same pairs match), only different timing.
#[test]
fn objmgr_modes_agree_on_rendezvous() {
    for mode in [
        ObjMgrMode::Centralized(NodeAddr(0)),
        ObjMgrMode::Distributed,
    ] {
        let mut v = VorxBuilder::single_cluster(9).objmgr(mode).build();
        for i in 0..4u32 {
            let (a, b) = (1 + i * 2, 2 + i * 2);
            v.spawn(format!("n{a}"), move |ctx| {
                let ch = channel::open(&ctx, NodeAddr(a), &format!("pair-{i}"));
                assert_eq!(ch.peer, NodeAddr(b), "mode {mode:?}");
                ch.write(&ctx, Payload::copy_from(&[i as u8])).unwrap();
            });
            v.spawn(format!("n{b}"), move |ctx| {
                let ch = channel::open(&ctx, NodeAddr(b), &format!("pair-{i}"));
                assert_eq!(ch.peer, NodeAddr(a), "mode {mode:?}");
                let m = ch.read(&ctx).unwrap();
                assert_eq!(m.bytes().unwrap().as_ref(), &[i as u8]);
            });
        }
        v.run_all();
    }
}

/// The headline §2 contrast in one test: the same many-to-one blast that
/// locks up the S/NET is delivered completely by the HPC.
#[test]
fn hpc_survives_the_burst_that_kills_the_snet() {
    // S/NET side.
    let mut sim = snet::SnetSim::new(
        snet::SnetConfig::paper_1985(),
        9,
        snet::Strategy::BusyRetry,
        1,
    );
    for s in 1..9 {
        sim.enqueue(s, 0, 1024, 10, 0);
    }
    let r = sim.run(30_000_000_000);
    assert!(!r.completed, "S/NET busy-retry should lock out");

    // HPC side: same aggregate load.
    let hpc = hpc_vorx::vorx_apps::patterns::many_to_one(8, 10, 1024);
    assert_eq!(hpc.delivered, 80);
}

/// Large payload integrity across multiple fragments, hops, and kernels.
#[test]
fn multi_hop_fragmented_data_integrity() {
    let mut v = VorxBuilder::hypercube(4, 2).build();
    let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    let expect = data.clone();
    // n0 and n7 are maximally separated in a 4-cluster hypercube.
    v.spawn("n0:w", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "far");
        ch.write(&ctx, Payload::Data(bytes::Bytes::from(data)))
            .unwrap();
    });
    v.spawn("n7:r", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(7), "far");
        let m = ch.read(&ctx).unwrap();
        assert_eq!(m.bytes().unwrap().as_ref(), &expect[..]);
    });
    v.run_all();
}

/// The oscilloscope's categories tile the whole timeline on every node of
/// a busy system (no gaps, no double counting).
#[test]
fn oscilloscope_accounts_every_nanosecond() {
    let mut v = VorxBuilder::single_cluster(4).build();
    v.spawn("n1:w", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "x");
        for _ in 0..6 {
            hpc_vorx::vorx::api::user_compute(&ctx, NodeAddr(1), SimDuration::from_us(150));
            ch.write(&ctx, Payload::Synthetic(600)).unwrap();
        }
    });
    v.spawn("n2:r", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(2), "x");
        for _ in 0..6 {
            let _ = ch.read(&ctx).unwrap();
        }
    });
    let end = v.run_all();
    let w = v.world();
    let scope = Oscilloscope::from_trace(&w.trace, 4);
    for node in 0..4 {
        let u = scope.utilization(node, SimTime::ZERO, end);
        assert_eq!(
            u.total(),
            end.as_ns(),
            "node {node} categories must tile the run exactly"
        );
    }
}

/// The newer §3.2/§4/§6 features working together: an application launched
/// through the per-host resource manager talks to a name-reusing server,
/// closes channels when done, and is observable through vdb.
#[test]
fn appmgr_listener_close_and_vdb_together() {
    use hpc_vorx::vorx::alloc::UserId;
    use hpc_vorx::vorx::appmgr::{start_application, wait_app, AppState};
    use hpc_vorx::vorx::channel::{listen, ChanError};
    use hpc_vorx::vorx::debug::{breakpoint, publish, register_process};

    let mut v = VorxBuilder::single_cluster(8).hosts(1).build();

    // A long-lived echo service on node 7 (outside the allocatable pool use).
    v.spawn("n7:echo-server", |ctx| {
        let me = register_process(&ctx, NodeAddr(7), "echo-server");
        let listener = listen(&ctx, NodeAddr(7), "echo");
        let mut served = 0u32;
        loop {
            let ch = listener.accept(&ctx);
            loop {
                match ch.read(&ctx) {
                    Ok(msg) => ch.write(&ctx, msg).unwrap(),
                    Err(ChanError::PeerClosed) => break,
                    Err(e) => panic!("{e}"),
                }
            }
            served += 1;
            publish(&ctx, me, "served", served);
            breakpoint(&ctx, me, "client-done");
            if served == 3 {
                break;
            }
        }
    });

    // Launch a 3-process application; each process uses the echo service
    // then closes its channel.
    v.spawn("host0:shell", |ctx| {
        let app = start_application(&ctx, 0, UserId(1), "clients", 3, |ctx, node, rank| {
            let ch = channel::open(&ctx, node, "echo");
            let msg = Payload::copy_from(&[rank as u8; 32]);
            ch.write(&ctx, msg).unwrap();
            let echoed = ch.read(&ctx).unwrap();
            assert_eq!(echoed.bytes().unwrap()[0], rank as u8);
            ch.close(&ctx);
        })
        .expect("pool has room");
        wait_app(&ctx, app);
        ctx.with(move |w, _| {
            assert_eq!(w.appmgr.apps[app as usize].state, AppState::Exited);
        });
    });

    let end = v.run_all();
    assert!(end > SimTime::ZERO);
    let w = v.world();
    // vdb saw the service's counter.
    let idx = w.dbg.by_name("echo-server").unwrap();
    assert_eq!(w.dbg.procs[idx].vars["served"], "3");
    // All three per-client channels exist and are fully closed.
    let closed = w
        .nodes
        .iter()
        .flat_map(|n| w.chan_ends.of(n))
        .filter(|e| e.name == "echo" && (e.closed_local || e.closed_remote))
        .count();
    assert!(closed >= 3, "expected closed echo channels, got {closed}");
}

/// Channel traffic across a multi-cluster machine under load: 12 concurrent
/// channels spanning a 4-cluster hypercube, interleaved with a multicast
/// group, all data verified.
#[test]
fn hypercube_channel_and_multicast_stress() {
    use hpc_vorx::vorx::multicast;

    let mut v = VorxBuilder::hypercube(4, 4).seed(7).build();
    let n = 16u32;
    // 8 channel pairs crossing the machine.
    for i in 0..8u32 {
        let (a, b) = (i, (i + 8) % n);
        v.spawn(format!("n{a}:w"), move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(a), &format!("stress-{i}"));
            for k in 0..6u8 {
                ch.write(&ctx, Payload::copy_from(&[k ^ i as u8; 200]))
                    .unwrap();
            }
        });
        v.spawn(format!("n{b}:r"), move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(b), &format!("stress-{i}"));
            for k in 0..6u8 {
                let m = ch.read(&ctx).unwrap();
                assert_eq!(m.bytes().unwrap().as_ref(), &[k ^ i as u8; 200]);
            }
        });
    }
    // Plus a broadcaster multicasting to every even node.
    let members: Vec<NodeAddr> = (0..n).step_by(2).map(NodeAddr).collect();
    for &m in &members {
        v.spawn(format!("n{}:mc-rx", m.0), move |ctx| {
            multicast::join(&ctx, m, 2);
            for _ in 0..3 {
                let (_src, p) = multicast::mread(&ctx, m, 2);
                assert_eq!(p.len(), 700);
            }
        });
    }
    v.spawn("n1:mc-tx", move |ctx| {
        for _ in 0..3 {
            multicast::mwrite(
                &ctx,
                NodeAddr(1),
                2,
                members.clone(),
                Payload::Synthetic(700),
            );
        }
    });
    v.run_all();
    let w = v.world();
    assert_eq!(w.net.in_flight(), 0, "fabric must be quiescent");
}
