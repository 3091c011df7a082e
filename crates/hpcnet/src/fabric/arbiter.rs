//! Port arbitration: "fair round-robin over inputs, accept a message only
//! when a full-message buffer is free" (§2), doing work proportional to what
//! changed.
//!
//! One invariant carries it: *a queue head knows its ports*. A frame is
//! routed once, when it becomes the head of a cluster input; the result is
//! kept beside the link (`Link::head`; per-target ports in a reused
//! [`McHead`] for a multicast head) and raised as bits in its cluster's
//! per-port want-masks. A routed multicast head's unsent targets form one
//! run of its list per output port: where they do not, the head is re-listed
//! once in its multicast tree's depth-first order, after which every branch
//! below is a run too, so each branch forwards a sub-run of its parent's
//! list ([`Targets::sub`]) and replication builds no list. Nor, after
//! warm-up, does re-listing ([`Fabric::relist`]). Every push to and
//! pop from a `Link::buf` goes through [`Fabric::enqueue`] or
//! [`Fabric::take_head`] + [`Fabric::head_changed`], which maintain that
//! state and mark, on an ordered worklist, the (cluster, port) and endpoint
//! keys the change may have unblocked. [`Fabric::progress`] drains the
//! worklist in the order a full scan would have visited the same keys; in
//! debug builds a read-only full scan checks after every drain that nothing
//! was missed, and that the touched links' queues own every occupied slot
//! of `Fabric::frames`.

use std::ops::Range;

use super::*;

/// A routed multicast head: `ports[i]` is the output port of the head's
/// `i`-th target, [`PORT_NONE`], or [`PORT_SENT`] once that target's branch
/// left; `remaining` counts the targets still to go. Each value but
/// [`PORT_SENT`] fills one run of `ports` ([`one_run_per_port`]).
#[derive(Default)]
pub(super) struct McHead {
    ports: Vec<u8>,
    remaining: usize,
}

/// The reused buffer of [`Fabric::relist`]: per unsent target, its
/// [`tree_key`], its index in the head's list, its port and the target.
pub(super) type TreeOrder = Vec<(u128, u32, u8, NodeAddr)>;

/// Ports of a route that a [`tree_key`] holds, four bits each.
const KEY_PORTS: u32 = 32;
const _: () = assert!(
    PORTS_PER_CLUSTER <= 14,
    "four bits hold port + 1, 0 (the route ended) and 15 (no route)"
);

/// The port sequence the route to `t` takes from cluster `c`, leaving it
/// through `port`, as a number that orders as the sequence does: the
/// first port in the highest four bits, each as `port + 1` (15: no
/// route), then zeros, so a route sorts before every longer one it
/// prefixes. Routes that agree on their first [`KEY_PORTS`] ports tie; if
/// that leaves a branch that far on without one run per port, the
/// cluster there re-lists it.
fn tree_key(topo: &Topology, mut c: ClusterId, mut port: u8, t: NodeAddr) -> u128 {
    let mut key = 0;
    for k in (0..KEY_PORTS).rev() {
        key |= u128::from(port.saturating_add(1).min(15)) << (4 * k);
        if port == PORT_NONE {
            break;
        }
        let Attachment::Cluster(peer) = topo.attachment(PortRef { cluster: c, port }) else {
            break; // `port` leads to the target's endpoint.
        };
        (c, port) = (peer.cluster, topo.route(peer.cluster, t));
    }
    key
}

/// True iff every value of `ports` but [`PORT_SENT`] occupies one run: a
/// multicast head whose ports pass forwards each branch as a sub-run of its
/// list.
fn one_run_per_port(ports: &[u8]) -> bool {
    let (mut seen, mut prev) = (0u32, PORT_SENT);
    for &q in ports {
        if q != prev && q != PORT_SENT {
            // Output ports are 0..12; `PORT_NONE` takes bit 31.
            let bit = 1 << q.min(31);
            if seen & bit != 0 {
                return false;
            }
            seen |= bit;
        }
        prev = q;
    }
    true
}

/// The destination of the branch of `dst` that carries its targets `run`:
/// a sub-run of its list, a `Unicast` for one target.
fn run_dest(dst: &Dest, run: Range<usize>) -> Dest {
    match dst {
        Dest::Multicast(ts) if run.len() > 1 => Dest::Multicast(ts.sub(run)),
        _ => Dest::Unicast(dst.targets()[run.start]),
    }
}

// Worklist keys, in the order a pass visits them: purge visits, endpoints
// ascending, (cluster ascending, port 0..12).
const KEY_PURGE: u64 = 1 << 60;
const KEY_EP: u64 = 2 << 60;
const KEY_PORT: u64 = 3 << 60;

fn port_key(cluster: u32, port: u8) -> u64 {
    KEY_PORT | u64::from(cluster) << 4 | u64::from(port)
}

impl Fabric {
    /// Put `key` on the worklist: in this pass if the cursor has not reached
    /// it yet, in the next pass otherwise.
    fn mark(&mut self, key: u64) {
        let (set, from) = match key > self.cursor {
            true => (&mut self.cur, self.pos),
            false => (&mut self.next, 0),
        };
        if let Err(i) = set[from..].binary_search(&key) {
            set.insert(from + i, key);
        }
    }

    /// `l` may have become grantable — it went idle, a slot on it freed, it
    /// came back up: wake whatever transmits on it, if that has a frame.
    pub(super) fn wake_upstream(&mut self, l: LinkId) {
        let link = &self.links[l];
        if !link.grantable() {
            return;
        }
        let key = match self.wire(l).from {
            // An endpoint transmits on its up-link, which holds its register.
            Element::Endpoint(a) if link.out_reg.is_some() => KEY_EP | u64::from(a.0),
            Element::Port(p) if self.want[p.cluster.0 as usize][usize::from(p.port)] != 0 => {
                port_key(p.cluster.0, p.port)
            }
            _ => return,
        };
        self.mark(key);
    }

    /// Route the head of `l` — once, when it becomes the head; again only
    /// when the topology's generation moved. Raises its want bits, wakes the
    /// ports that can serve it now, and leaves a purge key if it (or one of
    /// its multicast targets) has no surviving route. A multicast head whose
    /// unsent targets do not form one run per port is re-listed.
    fn route_head(&mut self, l: LinkId) {
        let Element::Port(at) = self.wire(l).to else {
            return; // An endpoint FIFO: drained by software.
        };
        let link = &mut self.links[l];
        let (c, ci) = (at.cluster, at.cluster.0 as usize);
        let bit = 1u16 << at.port;
        if link.head != HEAD_NONE {
            // A re-route: lower what the stale route raised.
            self.want[ci].iter_mut().for_each(|w| *w &= !bit);
        }
        let (mut ports, mut stranded, mut relist) = (0u16, false, false);
        let mut note = |port: u8| match port {
            PORT_NONE => stranded = true,
            _ => ports |= 1 << port,
        };
        match &self.frames.front(&link.buf).expect("a head to route").dst {
            Dest::Unicast(t) => {
                link.head = self.topo.route(c, *t);
                self.work.routes += 1;
                note(link.head);
            }
            Dest::Multicast(ts) => {
                if link.head != HEAD_MCAST {
                    link.head = HEAD_MCAST;
                    link.mc = self.mcast_free.pop().unwrap_or_else(|| {
                        self.mcast.push(McHead::default());
                        self.mcast.len() as u32 - 1
                    });
                    let m = &mut self.mcast[link.mc as usize];
                    m.ports.clear();
                    m.ports.resize(ts.len(), PORT_NONE);
                    m.remaining = ts.len();
                }
                let m = &mut self.mcast[link.mc as usize];
                let unsent = m.ports.iter_mut().zip(ts.iter());
                for (q, t) in unsent.filter(|(q, _)| **q != PORT_SENT) {
                    *q = self.topo.route(c, *t);
                    self.work.routes += 1;
                    note(*q);
                }
                relist = !one_run_per_port(&m.ports);
            }
        }
        if relist {
            self.relist(l, c);
        }
        while ports != 0 {
            let port = ports.trailing_zeros() as usize;
            ports &= ports - 1;
            self.want[ci][port] |= bit;
            if self.port_out[ci][port].is_some_and(|o| self.grantable(o)) {
                self.mark(port_key(c.0, port as u8));
            }
        }
        if stranded {
            self.mark(KEY_PURGE | u64::from(l.0));
        }
    }

    /// Re-list the unsent targets of the routed multicast head of `l` at
    /// cluster `c` in its multicast tree's depth-first order: by the port
    /// sequence each target's route takes from `c` ([`tree_key`]), then by
    /// index. Targets that share a port share a prefix, so each port's
    /// targets form one run, and so do the targets of every branch below
    /// while the routes walked here stand. The new list holds the unsent
    /// targets only. It is the head's own list, rewritten in place, when
    /// nothing else holds that; else the last list re-listed here, when it
    /// holds the same targets in the same order; else a new list, which
    /// becomes that last list. Only the first time a shared list is
    /// re-listed allocates.
    fn relist(&mut self, l: LinkId, c: ClusterId) {
        self.work.relists += 1;
        let link = &self.links[l];
        let m = &mut self.mcast[link.mc as usize];
        let head = self
            .frames
            .get_mut(&link.buf, 0)
            .expect("a head to re-list");
        let Dest::Multicast(ts) = &mut head.dst else {
            unreachable!("only a multicast head is re-listed")
        };
        let order = &mut self.tree;
        order.clear();
        let unsent = m.ports.iter().zip(ts.iter()).enumerate();
        for (i, (&q, &t)) in unsent.filter(|(_, (&q, _))| q != PORT_SENT) {
            order.push((tree_key(&self.topo, c, q, t), i as u32, q, t));
        }
        order.sort_unstable_by_key(|&(key, i, ..)| (key, i));
        m.ports.clear();
        m.ports.extend(order.iter().map(|&(_, _, q, _)| q));
        debug_assert_eq!(m.ports.len(), m.remaining);
        let targets = order.iter().map(|&(.., t)| t);
        if ts.rewrite(targets.clone()) {
            return;
        }
        match &self.relisted {
            Some(last) if last.iter().copied().eq(targets.clone()) => *ts = last.clone(),
            _ => {
                *ts = targets.collect();
                self.relisted = Some(ts.clone());
            }
        }
    }

    /// Route every head again, after the topology's generation moved. Between
    /// calls every head has a want bit up (a stranded one does not outlive
    /// the call that strands it), so the want-masks name the heads: a scan of
    /// 24 bytes per cluster, not of every link.
    pub(super) fn reroute_heads(&mut self) {
        for c in 0..self.want.len() {
            let mut heads = self.want[c].iter().fold(0, |all, w| all | w);
            while heads != 0 {
                let k = heads.trailing_zeros() as usize;
                heads &= heads - 1;
                self.route_head(self.port_in[c][k].expect("a want bit has an input"));
            }
        }
    }

    /// Buffer `frame` at the far end of `l`. This, [`Fabric::take_head`] and
    /// [`Fabric::head_changed`] are the only code that touches a `Link::buf`,
    /// so head routes, want-masks and worklist cannot drift from the queues.
    pub(super) fn enqueue(&mut self, l: LinkId, frame: Frame) {
        let link = &mut self.links[l];
        self.frames.push_back(&mut link.buf, frame);
        link.note_depth();
        if link.buf.len() == 1 {
            self.route_head(l);
        }
    }

    /// Pop the head of `l` and retire its route (and its byte-budget charge:
    /// the classifier is a pure function of the frame, so it answers as it
    /// did at admission). The caller starts the frame's transmission, if it
    /// has one, *then* calls [`Fabric::head_changed`], so that the next head
    /// does not wake the port being granted.
    fn take_head(&mut self, l: LinkId) -> Frame {
        let to = self.wire(l).to;
        let link = &mut self.links[l];
        let frame = self
            .frames
            .pop_front(&mut link.buf)
            .expect("a head to take");
        if let Element::Port(at) = to {
            let c = at.cluster.0 as usize;
            self.want[c].iter_mut().for_each(|w| *w &= !(1 << at.port));
            if std::mem::replace(&mut link.head, HEAD_NONE) == HEAD_MCAST {
                self.mcast_free.push(link.mc);
            }
            if (self.sheddable)(&frame) {
                debug_assert!(self.data_buf_bytes[c] >= frame_cost(&frame));
                self.data_buf_bytes[c] = self.data_buf_bytes[c].saturating_sub(frame_cost(&frame));
            }
        }
        frame
    }

    /// The head of `l` left: a slot freed for whatever transmits on `l`, and
    /// the frame behind it, if any, is the head now.
    fn head_changed(&mut self, l: LinkId) {
        self.wake_upstream(l);
        if !self.links[l].buf.is_empty() {
            self.route_head(l);
        }
    }

    /// Pop the head of `l`, if any, for a frame that leaves the fabric.
    pub(super) fn dequeue(&mut self, l: LinkId) -> Option<Frame> {
        if self.links[l].buf.is_empty() {
            return None;
        }
        let frame = self.take_head(l);
        self.head_changed(l);
        Some(frame)
    }

    /// Start every transmission that can start, by draining the worklist.
    ///
    /// A transmission needs a frame at the head of a queue and a grantable
    /// link for it, so only three things can unblock one, and each marks the
    /// keys it may have unblocked: a frame becoming a head (`route_head`: an
    /// arrival into an empty buffer, a pop exposing the next frame, a
    /// combining flush; `try_send` loading an output register); a link going
    /// idle or a buffer slot on it freeing (`wake_upstream`: `LinkFree`,
    /// `rx_pop`, a head popped downstream, a drop in transit, a shed, a crash
    /// purge); a link or routing-generation change (`set_link_down`). No
    /// cluster, port or input is looked at unless marked.
    ///
    /// **Order contract.** The grant order fixes `out.schedule` order, hence
    /// every same-instant event's sequence number; it is the order of the
    /// full scan this replaced. A call is a sequence of passes; a pass visits
    /// purge keys, then endpoints ascending, then (cluster ascending, port
    /// 0..12); a visit that enables a key after the cursor is seen in this
    /// pass, at or before it in the next (`tests/fabric_order.rs`).
    pub(super) fn progress(&mut self, out: &mut Output) {
        const IDX: u64 = KEY_PURGE - 1;
        loop {
            while let Some(&key) = self.cur.get(self.pos) {
                (self.pos, self.cursor) = (self.pos + 1, key);
                self.work.port_visits += 1;
                match key & !IDX {
                    KEY_PURGE => self.purge_head(LinkId(key as u32)),
                    KEY_EP => {
                        let up = up_link(NodeAddr(key as u32));
                        if self.links[up].out_reg.is_some() && self.grantable(up) {
                            let frame = self.links[up].out_reg.take().expect("checked");
                            self.start_tx(up, frame, out);
                        }
                    }
                    _ => self.forward_one(key as u32 >> 4, (key & 15) as u8, out),
                }
            }
            self.cur.clear();
            (self.pos, self.cursor) = (0, 0);
            if self.next.is_empty() {
                break;
            }
            std::mem::swap(&mut self.cur, &mut self.next);
        }
        #[cfg(debug_assertions)]
        self.assert_quiescent();
    }

    /// The ports of the head of `link`, one per target.
    fn head_ports<'a>(link: &'a Link, mcast: &'a [McHead]) -> &'a [u8] {
        match link.head {
            HEAD_MCAST => &mcast[link.mc as usize].ports,
            _ => std::slice::from_ref(&link.head),
        }
    }

    /// Missed-wakeup oracle, debug builds only: with the worklist drained,
    /// the full scan it replaced must find no transmission that can start,
    /// no stranded head, and every cached head route and want-mask equal to
    /// a fresh [`Topology::route`], and the touched links' queue lengths
    /// summing to the occupied frame slots. An untouched link is idle — no
    /// register, no head — so it passes trivially. Worlds too large to scan per call
    /// are scanned every `links / 2048`-th call.
    #[cfg(debug_assertions)]
    fn assert_quiescent(&mut self) {
        self.oracle_calls += 1;
        let stride = (self.n_links() as u64 / 2048).max(1);
        if !self.oracle_calls.is_multiple_of(stride) {
            return;
        }
        let mut buffered = 0;
        for link in self.links.state.touched() {
            let stuck = link.out_reg.is_some() && self.grantable(link.id);
            assert!(!stuck, "missed wakeup: {:?} can inject", link.id);
            buffered += link.buf.len();
        }
        let slots = self.frames.occupied();
        assert_eq!(buffered, slots, "frame slots no link's queue owns");
        for (c, inputs) in self.port_in.iter().enumerate() {
            let mut want = [0u16; PORTS_PER_CLUSTER];
            for (k, input) in inputs.iter().enumerate() {
                let Some(input) = *input else { continue };
                let link = &self.links[input];
                let Some(head) = self.frames.front(&link.buf) else {
                    assert_eq!(link.head, HEAD_NONE, "{input:?}: a route and no head");
                    continue;
                };
                let cached = Self::head_ports(link, &self.mcast);
                assert_eq!(cached.len(), head.dst.targets().len(), "{input:?}");
                let runs = one_run_per_port(cached);
                assert!(runs, "{input:?}: not one run per port: {cached:?}");
                let unsent = cached.iter().zip(head.dst.targets());
                for (&q, &t) in unsent.filter(|(&q, _)| q != PORT_SENT) {
                    let fresh = self.topo.route(ClusterId(c as u32), t);
                    assert_eq!(q, fresh, "stale route to {t} at the head of {input:?}");
                    assert_ne!(q, PORT_NONE, "a stranded head survived on {input:?}");
                    want[usize::from(q)] |= 1 << k;
                }
            }
            assert_eq!(want, self.want[c], "want-masks of cluster {c}");
            for (port, &w) in want.iter().enumerate() {
                let stuck = w != 0 && self.port_out[c][port].is_some_and(|o| self.grantable(o));
                assert!(!stuck, "missed wakeup: c{c}p{port} can forward ({w:#b})");
            }
        }
    }

    /// Under a partition a head with no surviving route would block its
    /// input queue forever: drop it (strip the dead targets of a multicast
    /// head) instead of wedging. One head per input per pass, as the scan
    /// did; a head can be stranded only while a cable is down.
    fn purge_head(&mut self, l: LinkId) {
        let link = &self.links[l];
        let mut gone = link.head == PORT_NONE;
        let mut lost = usize::from(gone);
        if link.head == HEAD_MCAST {
            let m = &mut self.mcast[link.mc as usize];
            let dead = m.ports.iter_mut().filter(|q| **q == PORT_NONE);
            lost = dead.map(|q| *q = PORT_SENT).count();
            m.remaining -= lost;
            gone = m.remaining == 0;
        }
        self.stats.frames_dropped += lost as u64;
        if gone {
            self.dequeue(l);
            self.in_flight -= 1;
        }
    }

    /// Try to start one transmission on output `port` of `cluster`, taking
    /// the next input in round-robin order whose head has a target leaving
    /// through it: rotate the port's want-mask by its round-robin pointer
    /// and take the first set bit.
    fn forward_one(&mut self, cluster: u32, port: u8, out: &mut Output) {
        let (ci, pi) = (cluster as usize, usize::from(port));
        let mask = u32::from(self.want[ci][pi]);
        let Some(out_link) = self.port_out[ci][pi] else {
            return;
        };
        if mask == 0 || !self.grantable(out_link) {
            return;
        }
        // `out_link` is granted below either way: this write builds no state
        // that the grant would not.
        let rr = &mut self.links[out_link].rr;
        let start = u32::from(*rr);
        let k = match mask >> start {
            0 => mask.trailing_zeros(),
            ahead => start + ahead.trailing_zeros(),
        };
        *rr = ((k + 1) % PORTS_PER_CLUSTER as u32) as u8;
        let input = self.port_in[ci][k as usize].expect("a want bit has an input");
        let link = &self.links[input];
        let head = self
            .frames
            .front(&link.buf)
            .expect("a wanted port has a head");
        let ports = Self::head_ports(link, &self.mcast);
        // The head's targets leaving through `port`: one run (`route_head`).
        let first = ports.iter().position(|&q| q == port);
        let first = first.expect("a wanted port has a target");
        let n_via = ports[first..].iter().take_while(|&&q| q == port).count();
        let run = first..first + n_via;
        let remaining = match link.head {
            HEAD_MCAST => self.mcast[link.mc as usize].remaining,
            _ => 1,
        };
        // Count frames leaving through a port the fault-free tables would
        // not have chosen (adaptive reroute). The generation guard keeps
        // this off the fault-free hot path.
        if self.topo.generation() > 0
            && head.dst.targets()[run.clone()]
                .iter()
                .any(|&t| self.topo.base_route(ClusterId(cluster), t) != port)
        {
            self.stats.frames_rerouted += 1;
        }
        if n_via == remaining {
            // Every remaining target leaves through this port: forward the
            // buffered frame itself, addressed to its run.
            let mut done = self.take_head(input);
            done.dst = run_dest(&done.dst, run);
            self.start_tx(out_link, done, out);
            self.head_changed(input);
        } else {
            // Replicate the branch by hand, not by `head.clone()`: the
            // payload is a refcounted slice every branch shares, and so is
            // the target list.
            let copy = Frame {
                src: head.src,
                dst: run_dest(&head.dst, run.clone()),
                kind: head.kind,
                seq: head.seq,
                payload: head.payload.clone(),
                corrupted: head.corrupted,
            };
            self.want[ci][pi] &= !(1 << k);
            let m = &mut self.mcast[link.mc as usize];
            m.ports[run].fill(PORT_SENT);
            m.remaining -= n_via;
            // The split branch is a new frame inside the fabric.
            self.in_flight += 1;
            self.start_tx(out_link, copy, out);
        }
    }

    fn start_tx(&mut self, l: LinkId, frame: Frame, out: &mut Output) {
        let ser = crate::config::serialize_ns(frame.wire_bytes());
        self.work.grants += 1;
        let link = &mut self.links[l];
        debug_assert!(!link.busy && link.can_accept());
        link.busy = true;
        link.reserved += 1;
        link.busy_ns += ser;
        link.note_depth();
        out.schedule.push((ser, NetEvent::LinkFree(l)));
        out.schedule
            .push((ser + HOP_LATENCY_NS, NetEvent::Arrive(l, frame)));
    }
}
