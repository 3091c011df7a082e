//! A minimal standalone event loop for driving a [`Fabric`] without any
//! operating-system layer: the "software" at every endpoint is an idealized
//! kernel that drains the receive FIFO instantly and retries busy
//! transmitters as soon as `TxReady` fires.
//!
//! Used by the benchmark's `fabric_sat` workload, the `paper` and `engine`
//! campaigns, and tests; its loop is `desim`'s event queue. VORX puts simulated
//! kernel software here, which charges CPU time per action.

use std::collections::VecDeque;

use desim::queue::EventQueue;
use desim::FixedMap;

use crate::fabric::{Fabric, FaultHook, NetEvent, Notify, Output};
use crate::frame::{Frame, NodeAddr};

/// Cap on each endpoint's busy-transmitter retry queue. Software that keeps
/// injecting while its port is saturated loses the newest frames past this
/// depth (counted in [`StandaloneNet::waiting_dropped`]) instead of growing
/// the queue without bound.
pub const WAITING_TX_CAP: usize = 256;

enum Action {
    Net(NetEvent),
    Inject(Frame),
    Crash(NodeAddr),
}

/// Standalone fabric driver. See module docs.
pub struct StandaloneNet {
    /// The fabric under test.
    pub fabric: Fabric,
    /// Frames delivered to endpoint software: `(time_ns, endpoint, frame)`.
    pub delivered: Vec<(u64, NodeAddr, Frame)>,
    /// The clock, and the actions still to fire.
    queue: EventQueue<Action>,
    waiting_tx: FixedMap<NodeAddr, VecDeque<Frame>>,
    /// Frames discarded from `waiting_tx`: newest-first overflow past
    /// [`WAITING_TX_CAP`], plus everything purged when the queue's endpoint
    /// crashed.
    pub waiting_dropped: u64,
    faults: Option<Box<dyn FaultHook>>,
    /// `process`'s stack of outputs still to act on. A field so that its
    /// capacity survives from one event to the next.
    work: Vec<Output>,
    /// Emptied outputs awaiting reuse (see the ownership note on [`Output`]).
    spare: Vec<Output>,
}

impl StandaloneNet {
    /// Wrap a fabric.
    pub fn new(fabric: Fabric) -> Self {
        StandaloneNet {
            fabric,
            delivered: Vec::new(),
            queue: EventQueue::default(),
            waiting_tx: FixedMap::default(),
            waiting_dropped: 0,
            faults: None,
            work: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Install a fault hook consulted for every frame arrival.
    pub fn with_faults(mut self, hook: Box<dyn FaultHook>) -> Self {
        self.faults = Some(hook);
        self
    }

    /// Step the fabric from outside the loop (e.g. with
    /// [`Fabric::set_endpoint_down`]) and act on what the step produced.
    pub fn apply(&mut self, step: impl FnOnce(&mut Fabric, &mut Output)) {
        let mut out = self.spare.pop().unwrap_or_default();
        step(&mut self.fabric, &mut out);
        self.process(out);
    }

    /// Current time, ns.
    pub fn now(&self) -> u64 {
        self.queue.now()
    }

    /// Schedule a crash of `node` at time `t`: the endpoint goes down in the
    /// fabric and every frame its (now dead) transmitter still had queued
    /// for retry is purged into `waiting_dropped` — without the purge, a
    /// crashed sender's retry queue would pin its frames forever.
    pub fn crash_at(&mut self, t: u64, node: NodeAddr) {
        self.queue.push(t, Action::Crash(node));
    }

    /// Ask the endpoint software to inject `frame` at time `t` (busy
    /// transmitters are retried on `TxReady`). Panics if `t` is before
    /// [`StandaloneNet::now`].
    pub fn send_at(&mut self, t: u64, frame: Frame) {
        self.queue.push(t, Action::Inject(frame));
    }

    /// Run until quiescent. Panics if any frame remains stuck in the fabric.
    pub fn run(&mut self) {
        self.run_inner();
        assert_eq!(
            self.fabric.in_flight(),
            0,
            "frames stuck inside the fabric at quiescence"
        );
        assert!(
            self.waiting_tx.values().all(VecDeque::is_empty),
            "frames never injected"
        );
    }

    /// Run until quiescent without asserting delivery (for tests that
    /// deliberately wedge the fabric).
    pub fn run_inner(&mut self) {
        self.run_through(u64::MAX);
    }

    /// Run every action due at or before time `t`, then stand at `t`: the
    /// place to [`StandaloneNet::apply`] a mid-run step (a cable cut, a
    /// restart) while frames are still buffered inside the fabric.
    pub fn run_until(&mut self, t: u64) {
        self.run_through(t);
        self.queue.advance_to(t);
    }

    fn run_through(&mut self, limit: u64) {
        while let Some(action) = self.queue.pop(limit) {
            let now = self.queue.now();
            let mut out = self.spare.pop().unwrap_or_default();
            match action {
                Action::Net(ev) => match &mut self.faults {
                    Some(h) => self.fabric.handle_with(now, ev, h.as_mut(), &mut out),
                    None => self.fabric.handle(now, ev, &mut out),
                },
                Action::Inject(frame) => {
                    let src = frame.src;
                    if self.fabric.can_send(src) {
                        if let Err(e) = self.fabric.try_send(now, frame, &mut out) {
                            panic!("injection failed: {e}");
                        }
                    } else {
                        // Transmitter busy: queue for retry on TxReady,
                        // shedding the newest frame once the queue is full.
                        let q = self.waiting_tx.entry(src).or_default();
                        if q.len() < WAITING_TX_CAP {
                            q.push_back(frame);
                        } else {
                            self.waiting_dropped += 1;
                        }
                    }
                }
                Action::Crash(node) => {
                    if let Some(q) = self.waiting_tx.get_mut(&node) {
                        self.waiting_dropped += q.len() as u64;
                        q.clear();
                    }
                    self.fabric.set_endpoint_down(now, node, true, &mut out);
                }
            }
            self.process(out);
        }
    }

    /// Act on `out` and on every output that acting on it produces. The
    /// stack is last-in-first-out: all of one output's notifications are
    /// answered (each answer stepping the fabric at once) before the newest
    /// answer's events are scheduled. That order fixes the sequence numbers
    /// of same-time events, so it must not change.
    fn process(&mut self, out: Output) {
        let now = self.queue.now();
        self.work.push(out);
        while let Some(mut out) = self.work.pop() {
            for (delay, ev) in out.schedule.drain(..) {
                self.queue.push_in(delay, Action::Net(ev));
            }
            for n in out.notifies.drain(..) {
                let mut o = self.spare.pop().unwrap_or_default();
                match n {
                    Notify::TxReady(a) => {
                        if let Some(frame) =
                            self.waiting_tx.get_mut(&a).and_then(VecDeque::pop_front)
                        {
                            if let Err(e) = self.fabric.try_send(now, frame, &mut o) {
                                panic!("retry injection failed: {e}");
                            }
                        }
                    }
                    Notify::RxArrived(a) => {
                        // Idealized kernel: drain immediately.
                        if let Some(f) = self.fabric.rx_pop(now, a, &mut o) {
                            self.delivered.push((now, a, f));
                        }
                    }
                }
                self.work.push(o);
            }
            self.spare.push(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::frame::Payload;
    use crate::topology::Topology;

    fn net(nodes: usize) -> StandaloneNet {
        StandaloneNet::new(Fabric::new(
            Topology::single_cluster(nodes).unwrap(),
            NetConfig::paper_1988(),
        ))
    }

    #[test]
    fn waiting_tx_overflow_sheds_newest_frames() {
        let mut n = net(2);
        // One frame starts serializing; WAITING_TX_CAP queue behind it; the
        // overflow is shed instead of growing the retry queue.
        let extra = 3;
        for i in 0..(1 + WAITING_TX_CAP + extra) {
            n.send_at(
                0,
                Frame::unicast(
                    NodeAddr(0),
                    NodeAddr(1),
                    9,
                    i as u64,
                    Payload::Synthetic(64),
                ),
            );
        }
        n.run();
        assert_eq!(n.waiting_dropped, extra as u64);
        assert_eq!(n.delivered.len(), 1 + WAITING_TX_CAP);
        // The *newest* frames were shed: every survivor seq < cap + 1.
        assert!(n
            .delivered
            .iter()
            .all(|(_, _, f)| f.seq < (1 + WAITING_TX_CAP) as u64));
    }

    #[test]
    fn crash_purges_queued_frames_of_dead_sender() {
        let mut n = net(2);
        // 1000 B payloads serialize in 51.8 us each; five frames queue
        // behind the first, then the sender dies mid-serialization.
        for i in 0..6 {
            n.send_at(
                0,
                Frame::unicast(NodeAddr(0), NodeAddr(1), 9, i, Payload::Synthetic(1000)),
            );
        }
        n.crash_at(10_000, NodeAddr(0));
        n.run();
        assert_eq!(n.waiting_dropped, 5, "queued frames purged at crash");
        // The frame already on the wire still delivers; nothing leaks.
        assert_eq!(n.delivered.len(), 1);
        assert_eq!(n.fabric.in_flight(), 0);
    }
}
