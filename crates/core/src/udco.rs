//! User-defined communications objects (§4.1).
//!
//! "In VORX a general interface for user-defined communications objects is
//! provided. [...] processes can access the hardware registers from their
//! applications, eliminating the overhead of supervisor calls into the
//! kernel and can specify interrupt service routines to handle incoming
//! messages."
//!
//! A UDCO is identified by a small *tag*; frames for tag `t` travel with
//! hardware kind `KIND_UDCO_BASE + t`. Two receive disciplines exist:
//!
//! * [`UdcoMode::Interrupt`] — arrivals run a user interrupt service
//!   routine (charged the kernel-trampoline cost `user_isr_ns`) which
//!   queues the message and wakes blocked receivers.
//! * [`UdcoMode::Polled`] — interrupts stay disabled; the application tests
//!   for input at convenient points (`try_recv`, charged `udco_poll_ns`).
//!   This is the §5 "single subprocess that never switches context"
//!   structuring technique, also used by parallel SPICE.

use std::collections::VecDeque;

use desim::{sync::WaitSet, SimDuration, Wakeup};
use hpcnet::{Frame, NodeAddr, Payload};

use crate::api;
use crate::cpu::{BlockReason, CpuCat};
use crate::kernel;
use crate::proto::KIND_UDCO_BASE;
use crate::world::{VCtx, VSched, World};

/// Receive discipline of a UDCO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdcoMode {
    /// Arrivals invoke a user ISR that queues the message and wakes waiters.
    Interrupt,
    /// Arrivals queue silently; the application polls.
    Polled,
    /// Raw direct-register access (parallel SPICE, §4.1): the kernel is not
    /// involved at all — no interrupt, no kernel FIFO read. The application
    /// polls the hardware itself ([`try_recv_raw`]) and pays the FIFO read
    /// at user level when a message is present.
    Raw,
}

/// A received UDCO message.
#[derive(Debug, Clone)]
pub struct UdcoMsg {
    /// Sending node.
    pub src: NodeAddr,
    /// Sender-chosen correlation tag.
    pub seq: u64,
    /// The payload.
    pub payload: Payload,
}

/// Kernel-side state of one user-defined communications object.
#[derive(Debug)]
pub struct Udco {
    /// Receive discipline.
    pub(crate) mode: UdcoMode,
    /// Received messages not yet consumed.
    pub rx: VecDeque<UdcoMsg>,
    /// Processes blocked in `recv`.
    pub rx_waiters: WaitSet,
    /// Frames received.
    pub(crate) frames_rx: u64,
    /// Frames sent.
    pub(crate) frames_tx: u64,
}

/// Register a UDCO with `tag` on `node`. Frames that arrived early (the
/// registration race) are delivered immediately. On a down node nothing is
/// registered.
pub fn register(ctx: &VCtx, node: NodeAddr, tag: u16, mode: UdcoMode) {
    ctx.with(move |w, s| register_in(w, s, node, tag, mode));
}

/// Event-context variant of [`register`].
pub(crate) fn register_in(w: &mut World, s: &mut VSched, node: NodeAddr, tag: u16, mode: UdcoMode) {
    if !w.node(node).up {
        return;
    }
    w.node_mut(node);
    let prev = w.udcos.insert(
        node,
        tag,
        Udco {
            mode,
            rx: VecDeque::new(),
            rx_waiters: WaitSet::new(),
            frames_rx: 0,
            frames_tx: 0,
        },
    );
    assert!(
        prev.is_none(),
        "UDCO tag {tag} already registered on {node}"
    );
    // Deliver any frames that raced registration.
    let kind = KIND_UDCO_BASE + tag;
    for f in w.orphans.take_if(node, |f| f.kind == kind) {
        on_frame(w, s, node, f);
    }
}

/// Send a UDCO frame from user level: the process builds the frame, copies
/// the payload to the interface, and injects it as soon as the hardware
/// output register (and the kernel's queue ahead of it) is free. Blocks on
/// hardware flow control — that is the *only* flow control unless the
/// application layers its own protocol on top.
pub fn send(ctx: &VCtx, node: NodeAddr, dst: NodeAddr, tag: u16, seq: u64, payload: Payload) {
    let len = u64::from(payload.len());
    let cost = ctx.with(move |w, _| w.calib.udco_send_ns + w.calib.udco_copy_ns_per_byte * len);
    api::compute(ctx, node, CpuCat::User, SimDuration::from_ns(cost));
    inject(
        ctx,
        node,
        Frame::unicast(node, dst, KIND_UDCO_BASE + tag, seq, payload),
    );
}

/// Inject `frame`, a UDCO frame, from user level as soon as the output
/// register (and the kernel's queue ahead of it) is free. The process spins
/// on the register, so the wait is marked `Output` on the trace but costs
/// no context switch.
fn inject(ctx: &VCtx, node: NodeAddr, frame: Frame) {
    let tag = frame.kind - KIND_UDCO_BASE;
    let mut frame = Some(frame);
    api::park_until(ctx, node, BlockReason::Output, move |w, s, pid| {
        if !kernel::can_inject(w, node) {
            w.node_mut(node).tx_waiters.register(pid);
            return None;
        }
        if let Some(u) = w.udcos.get_mut(node, &tag) {
            u.frames_tx += 1;
        }
        kernel::send_frame(w, s, frame.take().expect("frame sent twice"));
        Some(())
    });
}

/// Multicast variant of [`send`] (§4.1 over the §4.2 hardware multicast):
/// one injection, hardware replication.
pub fn send_multi(
    ctx: &VCtx,
    node: NodeAddr,
    dsts: Vec<NodeAddr>,
    tag: u16,
    seq: u64,
    payload: Payload,
) {
    let len = u64::from(payload.len());
    let cost = ctx.with(move |w, _| w.calib.udco_send_ns + w.calib.udco_copy_ns_per_byte * len);
    api::compute(ctx, node, CpuCat::User, SimDuration::from_ns(cost));
    let frame = Frame {
        src: node,
        dst: hpcnet::Dest::Multicast(dsts.into()),
        kind: KIND_UDCO_BASE + tag,
        seq,
        payload,
        corrupted: false,
    };
    inject(ctx, node, frame);
}

/// Blocking receive on an interrupt-mode UDCO. If the process actually
/// blocks, resuming it costs a full context switch — the §5 80 µs — which
/// is why deep sliding windows (which keep the sender from ever blocking)
/// beat shallow ones by more than pure pipelining would suggest.
pub fn recv(ctx: &VCtx, node: NodeAddr, tag: u16) -> UdcoMsg {
    api::block_until(ctx, node, BlockReason::Input, move |w, _, pid| {
        let u = w
            .udcos
            .get_mut(node, &tag)
            .unwrap_or_else(|| panic!("recv on unregistered UDCO {tag} at {node}"));
        let msg = u.rx.pop_front();
        if msg.is_none() {
            u.rx_waiters.register(pid);
        }
        msg
    })
}

/// Non-blocking poll of a (typically polled-mode, §4.1/§5) UDCO. Charges
/// the poll cost and returns a queued message if any.
pub fn try_recv(ctx: &VCtx, node: NodeAddr, tag: u16) -> Option<UdcoMsg> {
    let poll_ns = ctx.with(|w, _| w.calib.udco_poll_ns);
    api::compute_ns(ctx, node, CpuCat::User, poll_ns);
    ctx.with(move |w, _| {
        w.udcos
            .get_mut(node, &tag)
            .unwrap_or_else(|| panic!("poll on unregistered UDCO {tag} at {node}"))
            .rx
            .pop_front()
    })
}

/// Kernel handler: a UDCO frame arrived.
pub(crate) fn on_frame(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    let tag = f.kind - KIND_UDCO_BASE;
    let Some(u) = w.udcos.get(node, &tag) else {
        // Registration race: stash until `register` runs.
        w.orphans.push(node, f);
        return;
    };
    match u.mode {
        UdcoMode::Interrupt => {
            // Kernel trampoline into the user ISR, then commit.
            let cost = SimDuration::from_ns(w.calib.user_isr_ns);
            let now = s.now();
            let end = w.charge(now, node, CpuCat::System, cost);
            s.schedule_in(end - now, move |w: &mut World, s| {
                commit(w, s, node, f, true);
            });
        }
        UdcoMode::Polled => commit(w, s, node, f, false),
        // Raw mode: nothing is charged here (the app pays at poll time), but
        // blocked spinners are woken so `recv_raw_spin` can re-poll.
        UdcoMode::Raw => commit(w, s, node, f, true),
    }
}

/// True iff frames of this kind bypass the kernel receive path entirely on
/// `node` (raw-mode UDCOs). Consulted by the kernel's receive service.
pub(crate) fn is_raw(w: &World, node: NodeAddr, kind: u16) -> bool {
    if kind < KIND_UDCO_BASE {
        return false;
    }
    w.udcos
        .get(node, &(kind - KIND_UDCO_BASE))
        .is_some_and(|u| u.mode == UdcoMode::Raw)
}

/// Raw-mode send: the leanest possible path ("no low-level protocol").
pub fn send_raw(ctx: &VCtx, node: NodeAddr, dst: NodeAddr, tag: u16, seq: u64, payload: Payload) {
    let len = u64::from(payload.len());
    let cost = ctx.with(move |w, _| w.calib.raw_send_ns + w.calib.udco_copy_ns_per_byte * len);
    api::compute(ctx, node, CpuCat::User, SimDuration::from_ns(cost));
    inject(
        ctx,
        node,
        Frame::unicast(node, dst, KIND_UDCO_BASE + tag, seq, payload),
    );
}

/// Raw-mode poll: test the input register; if a message is present, read it
/// out of the hardware FIFO at user level (paying the per-byte read there,
/// since the kernel never touched it).
pub fn try_recv_raw(ctx: &VCtx, node: NodeAddr, tag: u16) -> Option<UdcoMsg> {
    let (poll_ns, read_ns_per_byte) =
        ctx.with(|w, _| (w.calib.raw_poll_ns, w.calib.fifo_read_ns_per_byte));
    api::compute_ns(ctx, node, CpuCat::User, poll_ns);
    let msg = ctx.with(move |w, _| {
        w.udcos
            .get_mut(node, &tag)
            .unwrap_or_else(|| panic!("raw poll on unregistered UDCO {tag} at {node}"))
            .rx
            .pop_front()
    });
    if let Some(m) = &msg {
        api::compute(
            ctx,
            node,
            CpuCat::User,
            SimDuration::from_ns(read_ns_per_byte * u64::from(m.payload.len())),
        );
    }
    msg
}

/// Raw-mode blocking receive: spin on [`try_recv_raw`]. The spin re-polls
/// immediately (a tight register-test loop), so each idle iteration costs
/// `raw_poll_ns` of user time — busy waiting, exactly like the real code.
pub fn recv_raw_spin(ctx: &VCtx, node: NodeAddr, tag: u16) -> UdcoMsg {
    loop {
        if let Some(m) = try_recv_raw(ctx, node, tag) {
            return m;
        }
        // Nothing yet: wait until *something* is queued, then poll again.
        let pid = ctx.pid();
        ctx.wait_until(move |w, _| {
            let u = w.udcos.get_mut(node, &tag).expect("raw UDCO vanished");
            if u.rx.is_empty() {
                u.rx_waiters.register(pid);
                None
            } else {
                Some(())
            }
        });
    }
}

fn commit(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame, wake: bool) {
    let tag = f.kind - KIND_UDCO_BASE;
    let Some(u) = w.udcos.get_mut(node, &tag) else {
        return; // the node crashed while the frame's charge was in flight
    };
    u.frames_rx += 1;
    u.rx.push_back(UdcoMsg {
        src: f.src,
        seq: f.seq,
        payload: f.payload,
    });
    if wake {
        u.rx_waiters.wake_all(s, Wakeup::START);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::VorxBuilder;

    #[test]
    fn raw_send_recv_round_trip() {
        let mut v = VorxBuilder::single_cluster(2).build();
        v.spawn("n0:tx", |ctx| {
            register(&ctx, NodeAddr(0), 1, UdcoMode::Interrupt);
            send(
                &ctx,
                NodeAddr(0),
                NodeAddr(1),
                1,
                99,
                Payload::copy_from(&[1, 2, 3]),
            );
        });
        v.spawn("n1:rx", |ctx| {
            register(&ctx, NodeAddr(1), 1, UdcoMode::Interrupt);
            let m = recv(&ctx, NodeAddr(1), 1);
            assert_eq!(m.src, NodeAddr(0));
            assert_eq!(m.seq, 99);
            assert_eq!(m.payload.bytes().unwrap().as_ref(), &[1, 2, 3]);
        });
        v.run_all();
    }

    #[test]
    fn early_frames_survive_registration_race() {
        let mut v = VorxBuilder::single_cluster(2).build();
        v.spawn("n0:tx", |ctx| {
            send(&ctx, NodeAddr(0), NodeAddr(1), 2, 5, Payload::Synthetic(64));
        });
        v.spawn("n1:rx", |ctx| {
            ctx.sleep(SimDuration::from_ms(10)); // register long after arrival
            register(&ctx, NodeAddr(1), 2, UdcoMode::Interrupt);
            let m = recv(&ctx, NodeAddr(1), 2);
            assert_eq!(m.seq, 5);
        });
        v.run_all();
    }

    #[test]
    fn polled_mode_queues_without_waking() {
        let mut v = VorxBuilder::single_cluster(2).build();
        v.spawn("n0:tx", |ctx| {
            register(&ctx, NodeAddr(0), 3, UdcoMode::Polled);
            for seq in 0..3 {
                send(
                    &ctx,
                    NodeAddr(0),
                    NodeAddr(1),
                    3,
                    seq,
                    Payload::Synthetic(16),
                );
            }
        });
        v.spawn("n1:rx", |ctx| {
            register(&ctx, NodeAddr(1), 3, UdcoMode::Polled);
            let mut got = Vec::new();
            // Poll at convenient points, like the SPICE solver (§4.1/§5).
            while got.len() < 3 {
                if let Some(m) = try_recv(&ctx, NodeAddr(1), 3) {
                    got.push(m.seq);
                } else {
                    ctx.sleep(SimDuration::from_us(200));
                }
            }
            assert_eq!(got, vec![0, 1, 2]);
        });
        v.run_all();
    }

    #[test]
    fn two_udcos_coexist_with_own_protocols() {
        // "permits several user-defined objects, each with its own protocol,
        // to be simultaneously used."
        let mut v = VorxBuilder::single_cluster(2).build();
        v.spawn("n0:tx", |ctx| {
            register(&ctx, NodeAddr(0), 10, UdcoMode::Interrupt);
            register(&ctx, NodeAddr(0), 11, UdcoMode::Polled);
            send(&ctx, NodeAddr(0), NodeAddr(1), 10, 1, Payload::Synthetic(8));
            send(&ctx, NodeAddr(0), NodeAddr(1), 11, 2, Payload::Synthetic(8));
        });
        v.spawn("n1:rx", |ctx| {
            register(&ctx, NodeAddr(1), 10, UdcoMode::Interrupt);
            register(&ctx, NodeAddr(1), 11, UdcoMode::Polled);
            let a = recv(&ctx, NodeAddr(1), 10);
            assert_eq!(a.seq, 1);
            // The polled object never wakes anyone: poll for it.
            let b = loop {
                if let Some(m) = try_recv(&ctx, NodeAddr(1), 11) {
                    break m;
                }
                ctx.sleep(SimDuration::from_us(100));
            };
            assert_eq!(b.seq, 2);
        });
        v.run_all();
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_panics() {
        let mut v = VorxBuilder::single_cluster(2).build();
        v.spawn("n0:dup", |ctx| {
            register(&ctx, NodeAddr(0), 1, UdcoMode::Interrupt);
            register(&ctx, NodeAddr(0), 1, UdcoMode::Polled);
        });
        v.run_all();
    }
}

#[cfg(test)]
mod raw_tests {
    use super::*;
    use crate::world::VorxBuilder;
    use desim::SimTime;

    #[test]
    fn raw_round_trip_bypasses_kernel_charges() {
        let mut v = VorxBuilder::single_cluster(2).build();
        v.spawn("n0:tx", |ctx| {
            register(&ctx, NodeAddr(0), 5, UdcoMode::Raw);
            send_raw(&ctx, NodeAddr(0), NodeAddr(1), 5, 1, Payload::Synthetic(64));
        });
        v.spawn("n1:rx", |ctx| {
            register(&ctx, NodeAddr(1), 5, UdcoMode::Raw);
            let m = recv_raw_spin(&ctx, NodeAddr(1), 5);
            assert_eq!(m.seq, 1);
            assert_eq!(m.payload.len(), 64);
        });
        v.run_all();
        let w = v.world();
        // Receiver paid only user time: no kernel (system) charges at all.
        assert_eq!(w.nodes[1].cpu.system_ns, 0);
        assert!(w.nodes[1].cpu.user_ns > 0);
    }

    #[test]
    fn spice_latency_is_near_60us_for_64_bytes() {
        // §4.1: "It was able to obtain 60 µsec software latencies for 64
        // byte messages with direct access to the communications hardware
        // and no low-level protocol."
        let mut v = VorxBuilder::single_cluster(2).build();
        v.spawn("n0:tx", |ctx| {
            register(&ctx, NodeAddr(0), 5, UdcoMode::Raw);
            send_raw(&ctx, NodeAddr(0), NodeAddr(1), 5, 0, Payload::Synthetic(64));
        });
        v.spawn("n1:rx", |ctx| {
            register(&ctx, NodeAddr(1), 5, UdcoMode::Raw);
            let _ = recv_raw_spin(&ctx, NodeAddr(1), 5);
            let t = (ctx.now() - SimTime::ZERO).as_us_f64();
            assert!(
                (45.0..=80.0).contains(&t),
                "one-way raw 64B latency {t:.1}us should be near the paper's 60us"
            );
        });
        v.run_all();
    }

    #[test]
    fn try_recv_raw_returns_none_when_empty() {
        let mut v = VorxBuilder::single_cluster(2).build();
        v.spawn("n1:poll", |ctx| {
            register(&ctx, NodeAddr(1), 6, UdcoMode::Raw);
            assert!(try_recv_raw(&ctx, NodeAddr(1), 6).is_none());
        });
        v.run_all();
    }
}

// ---------------------------------------------------------------------------
// Rendezvous (§4.1): "User-defined communications objects are integrated
// with the object manager, allowing these objects to use the same
// rendezvous mechanism as channels."
// ---------------------------------------------------------------------------

/// A rendezvoused user-defined communications object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdcoBinding {
    /// The assigned tag (shared by both parties).
    pub tag: u16,
    /// The peer node.
    pub peer: NodeAddr,
}

/// Open a UDCO by name (§4.1): rendezvous through the object manager
/// exactly like a channel open, then register the assigned tag locally
/// with `mode` (the receive discipline is each side's own choice).
pub fn open(ctx: &VCtx, node: NodeAddr, name: &str, mode: UdcoMode) -> UdcoBinding {
    let syscall_ns = ctx.with(|w, _| w.calib.chan_read_syscall_ns);
    api::compute_ns(ctx, node, CpuCat::System, syscall_ns);
    let (id, peer) = crate::objmgr::rendezvous(ctx, node, name, crate::proto::ObjKind::Udco)
        .expect("UDCO open failed under fault injection");
    // Tags share the system-wide object-id space; the hardware kind field
    // bounds them.
    let tag = u16::try_from(id).expect("object id exceeded the UDCO tag space");
    ctx.with(move |w, s| {
        // A same-node rendezvous registers once.
        if !w.udcos.contains(node, &tag) {
            register_in(w, s, node, tag, mode);
        }
    });
    UdcoBinding { tag, peer }
}

// ---------------------------------------------------------------------------
// Scatter/gather (§4.1): "Other application-specific input and output
// techniques, such as scatter/gather may also be implemented."
// ---------------------------------------------------------------------------

/// Gather several user buffers into one frame and send it. The per-part
/// fixed cost models the extra descriptor handling; the bytes are copied
/// once, directly from each buffer to the interface.
pub fn send_gather(
    ctx: &VCtx,
    node: NodeAddr,
    dst: NodeAddr,
    tag: u16,
    seq: u64,
    parts: &[Payload],
) {
    let total: u32 = parts.iter().map(Payload::len).sum();
    assert!(
        total <= hpcnet::MAX_PAYLOAD,
        "gathered message exceeds one hardware frame"
    );
    let n_parts = parts.len() as u64;
    let cost = ctx.with(move |w, _| {
        w.calib.udco_send_ns
            + w.calib.udco_poll_ns * n_parts // descriptor per part
            + w.calib.udco_copy_ns_per_byte * u64::from(total)
    });
    api::compute(ctx, node, CpuCat::User, SimDuration::from_ns(cost));
    // Assemble the gathered payload. A single data part passes through
    // zero-copy; a real gather copies every part into one new buffer (the
    // copy is charged above in simulated time and metered here).
    let payload = if parts.len() == 1 && parts[0].bytes().is_some() {
        parts[0].clone()
    } else if parts.iter().all(|p| p.bytes().is_some()) {
        let mut b = Vec::with_capacity(total as usize);
        for p in parts {
            b.extend_from_slice(p.bytes().expect("checked"));
        }
        hpcnet::copymeter::add(u64::from(total));
        Payload::Data(b.into())
    } else {
        Payload::Synthetic(total)
    };
    inject(
        ctx,
        node,
        Frame::unicast(node, dst, KIND_UDCO_BASE + tag, seq, payload),
    );
}

/// Receive one message and scatter it (§4.1) into buffers of the given
/// lengths (which must sum to the message length). Models the inverse
/// descriptor walk; returns the scattered parts.
pub fn recv_scatter(ctx: &VCtx, node: NodeAddr, tag: u16, part_lens: &[u32]) -> Vec<Payload> {
    let m = recv(ctx, node, tag);
    let total: u32 = part_lens.iter().sum();
    assert_eq!(
        m.payload.len(),
        total,
        "scatter lengths must match the received message"
    );
    let poll_ns = ctx.with(|w, _| w.calib.udco_poll_ns);
    api::compute_ns(ctx, node, CpuCat::User, poll_ns * part_lens.len() as u64);
    match m.payload {
        Payload::Data(b) => {
            let mut out = Vec::with_capacity(part_lens.len());
            let mut off = 0usize;
            for &l in part_lens {
                out.push(Payload::Data(b.slice(off..off + l as usize)));
                off += l as usize;
            }
            out
        }
        Payload::Synthetic(_) => part_lens.iter().map(|l| Payload::Synthetic(*l)).collect(),
    }
}

#[cfg(test)]
mod rendezvous_tests {
    use super::*;
    use crate::world::VorxBuilder;

    #[test]
    fn udco_open_matches_by_name() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1:a", |ctx| {
            let b = open(&ctx, NodeAddr(1), "fastpath", UdcoMode::Interrupt);
            assert_eq!(b.peer, NodeAddr(2));
            send(
                &ctx,
                NodeAddr(1),
                b.peer,
                b.tag,
                7,
                Payload::copy_from(&[1, 2]),
            );
        });
        v.spawn("n2:b", |ctx| {
            let b = open(&ctx, NodeAddr(2), "fastpath", UdcoMode::Interrupt);
            assert_eq!(b.peer, NodeAddr(1));
            let m = recv(&ctx, NodeAddr(2), b.tag);
            assert_eq!(m.seq, 7);
            assert_eq!(m.payload.bytes().unwrap().as_ref(), &[1, 2]);
        });
        v.run_all();
    }

    #[test]
    fn udco_and_channel_names_do_not_collide() {
        // The same name opened as a channel and as a UDCO are different
        // objects (kind is part of the rendezvous key).
        let mut v = VorxBuilder::single_cluster(5).build();
        v.spawn("n1:chan-a", |ctx| {
            let ch = crate::channel::open(&ctx, NodeAddr(1), "shared-name");
            assert_eq!(ch.peer, NodeAddr(2));
            ch.write(&ctx, Payload::Synthetic(4)).unwrap();
        });
        v.spawn("n2:chan-b", |ctx| {
            let ch = crate::channel::open(&ctx, NodeAddr(2), "shared-name");
            let _ = ch.read(&ctx).unwrap();
        });
        v.spawn("n3:udco-a", |ctx| {
            let b = open(&ctx, NodeAddr(3), "shared-name", UdcoMode::Interrupt);
            assert_eq!(b.peer, NodeAddr(4));
        });
        v.spawn("n4:udco-b", |ctx| {
            let b = open(&ctx, NodeAddr(4), "shared-name", UdcoMode::Interrupt);
            assert_eq!(b.peer, NodeAddr(3));
        });
        v.run_all();
    }

    #[test]
    fn gather_scatter_round_trip() {
        let mut v = VorxBuilder::single_cluster(2).build();
        v.spawn("n0:tx", |ctx| {
            register(&ctx, NodeAddr(0), 3, UdcoMode::Interrupt);
            send_gather(
                &ctx,
                NodeAddr(0),
                NodeAddr(1),
                3,
                0,
                &[
                    Payload::copy_from(b"hdr"),
                    Payload::copy_from(b"body-body"),
                    Payload::copy_from(b"ck"),
                ],
            );
        });
        v.spawn("n1:rx", |ctx| {
            register(&ctx, NodeAddr(1), 3, UdcoMode::Interrupt);
            let parts = recv_scatter(&ctx, NodeAddr(1), 3, &[3, 9, 2]);
            assert_eq!(parts[0].bytes().unwrap().as_ref(), b"hdr");
            assert_eq!(parts[1].bytes().unwrap().as_ref(), b"body-body");
            assert_eq!(parts[2].bytes().unwrap().as_ref(), b"ck");
        });
        v.run_all();
    }

    #[test]
    #[should_panic(expected = "exceeds one hardware frame")]
    fn gather_rejects_oversize() {
        let mut v = VorxBuilder::single_cluster(2).build();
        v.spawn("n0:tx", |ctx| {
            register(&ctx, NodeAddr(0), 3, UdcoMode::Interrupt);
            send_gather(
                &ctx,
                NodeAddr(0),
                NodeAddr(1),
                3,
                0,
                &[Payload::Synthetic(800), Payload::Synthetic(800)],
            );
        });
        v.run_all();
    }
}

#[cfg(test)]
mod multi_tests {
    use super::*;
    use crate::world::VorxBuilder;

    #[test]
    fn send_multi_reaches_every_destination_once() {
        let mut v = VorxBuilder::single_cluster(5).build();
        v.spawn("n0:tx", |ctx| {
            register(&ctx, NodeAddr(0), 12, UdcoMode::Interrupt);
            send_multi(
                &ctx,
                NodeAddr(0),
                vec![NodeAddr(1), NodeAddr(2), NodeAddr(3), NodeAddr(4)],
                12,
                5,
                Payload::copy_from(b"mc"),
            );
        });
        for n in 1..5u32 {
            v.spawn(format!("n{n}:rx"), move |ctx| {
                register(&ctx, NodeAddr(n), 12, UdcoMode::Interrupt);
                let m = recv(&ctx, NodeAddr(n), 12);
                assert_eq!(m.seq, 5);
                assert_eq!(m.payload.bytes().unwrap().as_ref(), b"mc");
                // Nothing else arrives.
                assert!(try_recv(&ctx, NodeAddr(n), 12).is_none());
            });
        }
        v.run_all();
        // The source injected exactly one frame (hardware replication), and
        // each destination got a copy.
        let st = &v.world().net.stats;
        assert_eq!((st.frames_sent, st.frames_delivered), (1, 4));
    }
}
