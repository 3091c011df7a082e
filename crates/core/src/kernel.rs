//! The VORX kernel: frame transmit queueing, the receive-interrupt service
//! loop, and protocol dispatch.
//!
//! "It never deadlocks because the VORX kernel reads in messages immediately
//! when they arrive." (§2) — the receive service loop below drains the
//! endpoint FIFO as fast as the CPU allows, unconditionally; received data
//! parks in kernel side buffers (channels) or user-level queues (UDCOs), so
//! the hardware buffers never stay full.

use desim::{OutMsg, SimDuration, SimTime, Wakeup};
use hpcnet::{Dest, Frame, NetEvent, NodeAddr, Notify, Output};

use crate::cpu::CpuCat;
use crate::world::{VSched, World};
use crate::{channel, host, objmgr, proto, udco};

/// Current time as raw ns (the fabric's clock unit).
pub fn now_ns(s: &VSched) -> u64 {
    s.now().as_ns()
}

/// Queue a frame for transmission from `frame.src`. If the hardware output
/// register is free (and nothing is queued ahead), injection happens
/// immediately; otherwise the kernel holds the frame and refills the
/// register from the transmit-complete interrupt.
pub fn send_frame(w: &mut World, s: &mut VSched, frame: Frame) {
    let src = frame.src;
    if can_inject(w, src) {
        inject(w, s, frame);
    } else {
        w.node_mut(src).tx_q.push_back(frame);
    }
}

/// True iff a user-level sender could inject a frame right now (hardware
/// register free — fabric or shard bridge — and no kernel frames queued
/// ahead).
pub fn can_inject(w: &World, a: NodeAddr) -> bool {
    w.net.can_send(a) && !w.shard.tx_busy(a) && w.node(a).tx_q.is_empty()
}

/// Put a frame on the wire: into the local fabric, or — in a sharded build,
/// for destinations owned by another shard — across the window bridge. The
/// caller must have checked the register free ([`can_inject`] or a
/// transmit-complete interrupt).
fn inject(w: &mut World, s: &mut VSched, frame: Frame) {
    let frame = if w.shard.enabled {
        match bridge(w, s, frame) {
            Some(local) => local,
            None => return, // consumed entirely by the bridge
        }
    } else {
        frame
    };
    let now = now_ns(s);
    fabric_step(w, s, |w, out| {
        w.net
            .try_send(now, frame, out)
            .expect("register was checked free")
    });
}

/// Route the cross-shard portion of `frame` over the bridge. Returns the
/// frame (with remote multicast targets removed) if any local delivery
/// remains, or `None` when the bridge consumed it.
///
/// A bridged frame bypasses the fabric's store-and-forward machinery; its
/// latency is the baseline path cost `links × (serialization + hop)`, which
/// is at least the engine lookahead by construction, so delivery always
/// lands strictly after the window that produced it. Contention on the
/// intermediate links is not modeled for cross-shard traffic — that is the
/// decomposition's one approximation, and the price of exact per-link flow
/// control would be zero lookahead (see DESIGN.md §12).
fn bridge(w: &mut World, s: &mut VSched, frame: Frame) -> Option<Frame> {
    let src = frame.src;
    let ser = w.net.config().serialize_ns(frame.wire_bytes());
    let now = now_ns(s);
    match &frame.dst {
        // The per-message case, kept free of destination lists.
        Dest::Unicast(d) => {
            let d = *d;
            if !w.shard.is_remote(d) {
                return Some(frame);
            }
            bridge_one(w, now, ser, d, frame);
        }
        Dest::Multicast(ts) => {
            let (local, remote): (Vec<NodeAddr>, Vec<NodeAddr>) =
                ts.iter().partition(|t| !w.shard.is_remote(**t));
            if remote.is_empty() {
                return Some(frame);
            }
            for t in remote {
                let mut copy = frame.clone();
                copy.dst = Dest::Unicast(t);
                bridge_one(w, now, ser, t, copy);
            }
            if !local.is_empty() {
                // Mixed multicast: the local copies serialize through the
                // fabric (which owns the register for the duration); the
                // remote copies ride the bridge at no extra register cost.
                let mut f = frame;
                f.dst = Dest::Multicast(local.into());
                return Some(f);
            }
        }
    }
    // The bridge models the output register itself: busy while the frame
    // serializes, then the usual transmit-complete interrupt.
    w.shard.tx_busy[src.0 as usize] = true;
    s.schedule_in(SimDuration::from_ns(ser), move |w: &mut World, s| {
        w.shard.tx_busy[src.0 as usize] = false;
        on_tx_ready(w, s, src);
    });
    None
}

/// Park `frame` — unicast to `t`, which another shard owns — in the outbox,
/// stamped with its delivery time: `ser` per link of the baseline path plus
/// the hop latency, from `now`.
fn bridge_one(w: &mut World, now: u64, ser: u64, t: NodeAddr, frame: Frame) {
    let src = frame.src;
    let hop_ns = w.net.config().hop_latency_ns;
    // Fault-free baseline link count for the pair, walked from the implicit
    // routes in O(path) — no O(clusters²) matrix. Static under churn (faults
    // only lengthen real routes), so the bridge latency never depends on
    // when a shard observed a reroute, and it never undercuts the engine's
    // per-pair lookahead bound.
    let topo = w.net.topology();
    let links = topo.baseline_cluster_links(topo.cluster_of(src), topo.cluster_of(t));
    let mut at_ns = now + links * (ser + hop_ns);
    if w.faults.gray_armed {
        // Gray degradation applies to bridged frames too: the extra latency
        // of every link on the baseline path, evaluated at the injection
        // time. A pure function of `(seed, links, now)`, the same at every
        // worker count, and strictly additive — the engine's lookahead
        // bound is never undercut.
        at_ns += bridge_gray_ns(w, src, t, now, hop_ns);
    }
    // Injection statistics, mirroring what `Fabric::try_send` records.
    w.net.stats.frames_sent += 1;
    w.shard.outbox.push(OutMsg {
        deliver_at: SimTime::from_ns(at_ns),
        dst_shard: w.shard.owner(t),
        msg: frame,
    });
}

/// Sum of the gray-degradation delays on every link of the baseline path
/// from `src` to `dst` — the source up-link, each inter-cluster cable, and
/// the destination down-link — at injection time `now`, recording the
/// delivered latency of each link when statistics are armed. Only called
/// when a gray window armed the fault plane, so clean and loss-only runs
/// never pay the walk.
fn bridge_gray_ns(w: &mut World, src: NodeAddr, dst: NodeAddr, now: u64, hop_ns: u64) -> u64 {
    let World { net, faults, .. } = w;
    let topo = net.topology();
    let mut extra = 0u64;
    let mut visit = |l: hpcnet::LinkId| {
        let g = faults.schedule.gray_delay_ns(l.0, now, hop_ns);
        extra += g;
        if faults.track_latency {
            faults.schedule.note_delivered(l.0, hop_ns + g);
        }
    };
    visit(net.endpoint_up_link(src));
    topo.baseline_cluster_pairs(topo.cluster_of(src), topo.cluster_of(dst), |a, b| {
        if let Some(l) = net.cluster_link(a, b) {
            visit(l);
        }
    });
    visit(net.endpoint_down_link(dst));
    extra
}

/// Step the fabric and act on what the step produced. `step` appends to an
/// emptied [`Output`] drawn from the world's free list; its events are then
/// scheduled and its notifications answered, in list order, and the
/// `Output` goes back on the list. Answering a notification can step the
/// fabric again (a transmit-complete refills the register); the nested step
/// draws its own `Output`, so the list grows to the deepest nesting seen
/// and from then on no step allocates.
pub(crate) fn fabric_step<R>(
    w: &mut World,
    s: &mut VSched,
    step: impl FnOnce(&mut World, &mut Output) -> R,
) -> R {
    let mut out = w.net_outputs.pop().unwrap_or_default();
    let r = step(w, &mut out);
    for (delay_ns, ev) in out.schedule.drain(..) {
        schedule_net_event(s, delay_ns, ev);
    }
    for n in out.notifies.drain(..) {
        match n {
            Notify::TxReady(a) => on_tx_ready(w, s, a),
            Notify::RxArrived(a) => on_rx_arrived(w, s, a),
        }
    }
    w.net_outputs.push(out);
    r
}

/// Hand `ev` back to the fabric after `delay_ns`, with the fault plane
/// consulted: every hop's disposition (deliver / drop / corrupt / delay) is
/// drawn from the installed schedule's seeded streams. Not generic, so that
/// [`fabric_step`] does not instantiate itself through the closure.
fn schedule_net_event(s: &mut VSched, delay_ns: u64, ev: NetEvent) {
    s.schedule_in(SimDuration::from_ns(delay_ns), move |w: &mut World, s| {
        let now = now_ns(s);
        fabric_step(w, s, |w, out| {
            // Split borrow: the fabric and the fault hook are disjoint fields.
            let World { net, faults, .. } = w;
            net.handle_with(now, ev, faults, out);
        });
    });
}

/// Transmit-complete interrupt: refill the output register from the kernel
/// queue, or wake user-level senders waiting for space.
fn on_tx_ready(w: &mut World, s: &mut VSched, a: NodeAddr) {
    if !w.node(a).up {
        return; // crashed between queueing and the interrupt
    }
    if let Some(frame) = w.node_mut(a).tx_q.pop_front() {
        // The register is free after a transmit-complete (fabric or bridge),
        // so the queued frame injects directly — through the bridge again if
        // its destination is remote.
        inject(w, s, frame);
    } else {
        w.node_mut(a).tx_waiters.wake_all(s, Wakeup::START);
    }
}

/// Receive interrupt: start the kernel receive-service loop if idle.
fn on_rx_arrived(w: &mut World, s: &mut VSched, a: NodeAddr) {
    if !w.node(a).up {
        return;
    }
    if !w.node(a).rx_in_service {
        w.node_mut(a).rx_in_service = true;
        rx_service(w, s, a, true);
    }
}

/// Service one frame: charge the CPU for interrupt entry (first frame only),
/// the FIFO read, and dispatch; then pop the frame and hand it to the
/// protocol layer; repeat while more frames are waiting.
fn rx_service(w: &mut World, s: &mut VSched, a: NodeAddr, first: bool) {
    let Some(frame) = w.net.rx_peek(a) else {
        w.node_mut(a).rx_in_service = false;
        return;
    };
    if udco::is_raw(w, a, frame.kind) {
        // Raw UDCO (§4.1, parallel SPICE): the kernel never touches these
        // frames — the application reads the hardware itself. Hand the frame
        // over at zero kernel cost and keep draining.
        let now = now_ns(s);
        if let Some(f) = fabric_step(w, s, |w, out| w.net.rx_pop(now, a, out)) {
            dispatch(w, s, a, f);
        }
        rx_service(w, s, a, first);
        return;
    }
    let wire = frame.wire_bytes();
    let c = w.calib;
    let cost = if first { c.intr_entry_ns } else { 0 }
        + c.fifo_read_ns_per_byte * u64::from(wire)
        + c.rx_dispatch_ns;
    let now = s.now();
    let end = w.charge(now, a, CpuCat::System, SimDuration::from_ns(cost));
    s.schedule_in(end - now, move |w: &mut World, s| {
        let now = now_ns(s);
        if let Some(f) = fabric_step(w, s, |w, out| w.net.rx_pop(now, a, out)) {
            dispatch(w, s, a, f);
        }
        if w.net.rx_depth(a) > 0 {
            rx_service(w, s, a, false);
        } else {
            w.node_mut(a).rx_in_service = false;
        }
    });
}

/// Demultiplex a received frame to its protocol handler.
fn dispatch(w: &mut World, s: &mut VSched, a: NodeAddr, f: Frame) {
    if f.corrupted {
        // The interface's CRC check failed at FIFO read time: the frame is
        // detectably damaged and discarded here, before any handler parses
        // it. Senders recover by retransmission.
        w.faults.stats.corrupted_rx += 1;
        return;
    }
    match f.kind {
        proto::KIND_CHAN_DATA => channel::on_data(w, s, a, f, false),
        proto::KIND_CHAN_DATA_LAST => channel::on_data(w, s, a, f, true),
        proto::KIND_CHAN_ACK => channel::on_ack(w, s, a, f),
        proto::KIND_OPEN_REQ => objmgr::on_open_req(w, s, a, f),
        proto::KIND_OPEN_REP => objmgr::on_open_rep(w, s, a, f),
        proto::KIND_SYSCALL_REQ => host::on_syscall_req(w, s, a, f),
        proto::KIND_SYSCALL_REP => host::on_syscall_rep(w, s, a, f),
        proto::KIND_DOWNLOAD => host::on_download(w, s, a, f),
        proto::KIND_CHAN_CLOSE => channel::on_close(w, s, a, f),
        proto::KIND_SERVE_REQ => objmgr::on_serve_req(w, s, a, f),
        proto::KIND_SERVE_ACK => channel::on_serve_ack(w, s, a, f),
        proto::KIND_SERVE_CONN => channel::on_serve_conn(w, s, a, f),
        proto::KIND_MCAST_DATA | proto::KIND_MCAST_DATA_LAST => {
            crate::multicast::on_data(w, s, a, f)
        }
        proto::KIND_MCAST_ACK => crate::multicast::on_ack(w, s, a, f),
        proto::KIND_OPEN_QUEUED => objmgr::on_open_queued(w, s, a, f),
        proto::KIND_CHAN_BUSY => channel::on_busy(w, s, a, f),
        proto::KIND_CHAN_WACK => channel::on_wack(w, s, a, f),
        proto::KIND_CTL_ACK => crate::fault::on_ctl_ack(w, s, a, f),
        proto::KIND_HEARTBEAT => crate::membership::on_heartbeat(w, s, a, f),
        proto::KIND_REPL_REG => objmgr::on_repl_reg(w, s, a, f),
        proto::KIND_OPEN_NACK => objmgr::on_open_nack(w, s, a, f),
        proto::KIND_COLL_UP => crate::collective::on_up(w, s, a, f),
        proto::KIND_COLL_RESULT => crate::collective::on_result(w, s, a, f),
        proto::KIND_COLL_RETRY => crate::collective::on_retry(w, s, a, f),
        proto::KIND_COLL_NUDGE => crate::collective::on_nudge(w, s, a, f),
        proto::KIND_COLL_A2A | proto::KIND_COLL_A2A_VAL => {
            crate::collective::on_a2a_val(w, s, a, f)
        }
        proto::KIND_COLL_A2A_REQ => crate::collective::on_a2a_req(w, s, a, f),
        k if k >= proto::KIND_UDCO_BASE => udco::on_frame(w, s, a, f),
        k => panic!("node {a}: frame with unknown protocol kind {k}"),
    }
}

/// Re-dispatch frames that arrived for a channel before its end existed.
pub fn drain_orphans(w: &mut World, s: &mut VSched, a: NodeAddr, chan: u32) {
    let orphans = std::mem::take(&mut w.node_mut(a).orphans);
    let (mine, rest): (Vec<Frame>, Vec<Frame>) = orphans
        .into_iter()
        .partition(|f| proto::seq_chan(f.seq) == chan);
    w.node_mut(a).orphans = rest;
    for f in mine {
        dispatch(w, s, a, f);
    }
}
