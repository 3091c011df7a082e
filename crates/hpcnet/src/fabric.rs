//! The HPC fabric: an event-driven model of clusters, links, and endpoint
//! adapters with *hardware* flow control.
//!
//! "Flow-control in the HPC is implemented entirely in the interconnect
//! hardware. This makes loss of messages due to buffer overflow impossible.
//! [...] Each HPC link refuses to accept a message unless the hardware has
//! room to buffer an entire message, forcing the sender to wait until the
//! space is available. For outgoing processor links, the processor receives
//! an interrupt when room becomes available. This scheme guarantees that
//! messages are never lost by the interconnect and a fair hardware
//! scheduling mechanism ensures that every sender is eventually serviced."
//! (§2)
//!
//! **Deadlock freedom.** Store-and-forward with finite buffers is
//! deadlock-free only when routes cannot form a buffer-dependency cycle.
//! The provided topologies guarantee this: single clusters trivially,
//! incomplete hypercubes by two-phase dimension-ordered routing, and any
//! acyclic (tree) graph under BFS. Custom cyclic graphs routed by BFS can
//! wedge under saturation (see `tests/topology_traffic.rs`); that matches
//! real store-and-forward hardware, which is why the paper's machine is a
//! hypercube.
//!
//! The model is a Mealy machine: [`Fabric::try_send`], [`Fabric::handle`]
//! and [`Fabric::rx_pop`] mutate state and append to a caller-supplied
//! [`Output`] the notifications for the embedding software layer plus the
//! future [`NetEvent`]s the embedder must schedule. The fabric itself holds
//! no clock, so it can be driven by `desim`, by the standalone driver in
//! [`crate::driver`], or directly by unit tests.
//!
//! Which transmission starts next is the business of the `arbiter`
//! submodule: a frame is routed once, when it becomes the head of a queue,
//! and a worklist of (cluster, port) pairs replaces scanning for work.
//!
//! **Wiring and state.** A fabric keeps apart what never changes and what
//! frames change. The wiring — each link's two ends and buffer cap, and the
//! link on each side of every cluster port — is built once by
//! [`Fabric::new`] and held in `Arc`s, so every [`Fabric::sibling`] (one
//! per shard of a sharded world) refers to it instead of copying it. Each
//! link's state — busy, down, buffered frames, reservations, head route,
//! round-robin pointer, statistics, a copy of its cap — and each
//! endpoint's output register live in a [`FirstTouch`] table that builds an
//! entry on the first write to it; a read of an untouched link sees the idle
//! template. An untouched link costs one zeroed 4-byte key, so a fabric pays
//! for the part of the machine its traffic reaches, not for the machine.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

use desim::{Fifo, FirstTouch, FixedMap, Slots};

use crate::config::{
    NetConfig, CLUSTER_PORT_SLOTS, COMB_ALU_NS, ENDPOINT_RX_SLOTS, HOP_LATENCY_NS,
    PORTS_PER_CLUSTER,
};
use crate::frame::{Dest, Frame, FrameError, NodeAddr, Targets};
use crate::topology::{Attachment, ClusterId, PortRef, Topology};

mod arbiter;
use arbiter::{McHead, TreeOrder};

/// Identifies one directed link in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub u32);

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// One side of a directed link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Element {
    Endpoint(NodeAddr),
    Port(PortRef),
}

// `Link::head` and `McHead::ports` values beside the output ports 0..12.
/// No surviving route ([`Topology::route`]'s answer).
const PORT_NONE: u8 = u8::MAX;
/// A multicast target whose branch already left (or was stripped).
const PORT_SENT: u8 = 0xFE;
/// Nothing buffered, or an endpoint FIFO (drained by software, never routed).
const HEAD_NONE: u8 = 0xFD;
/// A multicast head: its per-target ports are `Fabric::mcast[Link::mc]`.
const HEAD_MCAST: u8 = 0xFC;

/// How one directed link is wired: the elements it joins and how many
/// frames its `to` side buffers (at least one).
#[derive(Clone, Copy)]
struct Wire {
    from: Element,
    to: Element,
    cap: u32,
}

/// Which link enters (or leaves) each port of each cluster.
type PortLinks = [[Option<LinkId>; PORTS_PER_CLUSTER]];

/// The endpoint→cluster link of `a` (its transmit side).
fn up_link(a: NodeAddr) -> LinkId {
    LinkId(2 * a.0)
}

/// The cluster→endpoint link of `a` (its receive side).
fn down_link(a: NodeAddr) -> LinkId {
    LinkId(2 * a.0 + 1)
}

/// Everything about one link that changes as frames move.
struct Link {
    /// The link this state belongs to.
    id: LinkId,
    /// Transmitting right now.
    busy: bool,
    /// Down: carries nothing — frames in flight on it when it went down are
    /// lost, and no transmission starts on it until it comes back up.
    down: bool,
    /// The route of the front frame of `buf`, computed once when it became
    /// the head: an output port, [`PORT_NONE`], [`HEAD_MCAST`] or
    /// [`HEAD_NONE`]. Stale only when the topology's generation moves.
    head: u8,
    /// As a cluster output: the input port to ask first (round-robin
    /// fairness).
    rr: u8,
    /// Slot in `Fabric::mcast` while `head == HEAD_MCAST`.
    mc: u32,
    /// Frames fully arrived at the `to` side, awaiting forwarding/drain:
    /// a queue in `Fabric::frames`.
    buf: Fifo,
    /// Slots claimed by in-flight frames (reserved at transmission start —
    /// this reservation *is* the hardware flow control).
    reserved: u32,
    /// The wire's cap, copied at the first touch so that a grant reads one
    /// place.
    cap: u32,
    /// Occupancy high-water mark (`buf.len() + reserved`), counter only —
    /// the cap itself is enforced by [`Link::can_accept`]. Endpoint receive
    /// links can exceed their cap via [`Fabric::inject_arrival`]
    /// (documented bridge simplification).
    depth_hwm: u32,
    /// Total ns this link has spent transmitting (utilization statistics).
    busy_ns: u64,
    /// An endpoint's up-link only: the frame software wrote to the output
    /// register, waiting for downstream buffer space.
    out_reg: Option<Frame>,
}

impl Link {
    /// The state every link starts in.
    fn idle(id: LinkId, cap: u32) -> Self {
        Link {
            id,
            busy: false,
            down: false,
            head: HEAD_NONE,
            rr: 0,
            mc: 0,
            buf: Fifo::default(),
            reserved: 0,
            cap,
            depth_hwm: 0,
            busy_ns: 0,
            out_reg: None,
        }
    }

    fn can_accept(&self) -> bool {
        self.buf.len() + (self.reserved as usize) < self.cap as usize
    }

    /// True iff a transmission may start on this link now: it is up, idle,
    /// and has room to buffer a whole frame at its far end.
    fn grantable(&self) -> bool {
        !self.down && !self.busy && self.can_accept()
    }

    /// Record the current occupancy into the high-water mark.
    fn note_depth(&mut self) {
        self.depth_hwm = self.depth_hwm.max(self.buf.len() as u32 + self.reserved);
    }
}

/// Every link: its wire, shared with the fabric's siblings, and its state,
/// built on first touch — the `NodeTable` pattern of DESIGN.md §14, a
/// [`FirstTouch`] table: indexing reads the idle template for a link nobody
/// has written, and mutable indexing creates the link's entry. The
/// template's cap is `u32::MAX`: an untouched link holds nothing, so it
/// accepts a frame, as every wire's cap of at least one says it should.
struct Links {
    wires: Arc<[Wire]>,
    state: FirstTouch<Link>,
}

impl Links {
    fn new(wires: Arc<[Wire]>) -> Self {
        Links {
            state: FirstTouch::new(wires.len(), Link::idle(LinkId(u32::MAX), u32::MAX)),
            wires,
        }
    }
}

impl Index<LinkId> for Links {
    type Output = Link;
    fn index(&self, l: LinkId) -> &Link {
        &self.state[l.0 as usize]
    }
}

impl IndexMut<LinkId> for Links {
    fn index_mut(&mut self, l: LinkId) -> &mut Link {
        let cap = self.wires[l.0 as usize].cap;
        self.state
            .get_or_insert_with(l.0 as usize, || Link::idle(l, cap))
    }
}

/// Internal fabric event; opaque to embedders, who only need to schedule it
/// back into [`Fabric::handle`] after the indicated delay.
#[derive(Debug)]
pub enum NetEvent {
    /// A link finished serializing a frame.
    LinkFree(LinkId),
    /// A frame fully arrived at the receiving side of a link.
    Arrive(LinkId, Frame),
    /// A fault-delayed frame completing its extra transit time. Identical to
    /// [`NetEvent::Arrive`] except that the fault hook is not consulted
    /// again (each frame gets at most one disposition per hop).
    ArriveDelayed(LinkId, Frame),
    /// A combining window (or ALU) deadline at a star coupler: flush the
    /// partial combine keyed by `(cluster, seq)` onward. No-op if the entry
    /// already flushed early (expected-count satisfied).
    CombFlush(ClusterId, u64),
}

/// What the fault plane decided for one frame in transit on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transit {
    /// Deliver normally (the only outcome on fault-free hardware).
    Deliver,
    /// The frame is lost; the buffer reservation is released, honoring
    /// store-and-forward flow control (a lost frame frees its slot).
    Drop,
    /// Deliver with [`Frame::corrupted`] set (detectable CRC failure).
    Corrupt,
    /// Deliver after this many extra nanoseconds.
    Delay(u64),
}

/// Fault-injection hook consulted once per frame arrival on a link.
/// Implementations must be deterministic given the arrival order.
pub trait FaultHook {
    /// Decide the fate of `frame` completing transit on `link` at sim time
    /// `now_ns`. `hop_ns` is the fabric's base hop latency, so hooks can
    /// derive gray (pure-delay) degradation and delivered-latency stats
    /// without reaching back into the fabric config.
    fn on_transit(&mut self, link: LinkId, frame: &Frame, now_ns: u64, hop_ns: u64) -> Transit;

    /// A frame that was in flight on `link` when the link went down has been
    /// dropped (scripted loss — no disposition was drawn for it).
    fn on_down_drop(&mut self, _link: LinkId) {}

    /// A sheddable frame completing transit on `link` was dropped because the
    /// receiving cluster's store-and-forward byte budget was exhausted
    /// (deterministic overload shedding — no disposition was drawn for it).
    fn on_overload_drop(&mut self, _link: LinkId) {}
}

/// The no-op hook: every frame is delivered (the paper's fault-free HPC).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    fn on_transit(&mut self, _link: LinkId, _frame: &Frame, _now_ns: u64, _hop_ns: u64) -> Transit {
        Transit::Deliver
    }
}

/// Notification to the embedding software layer.
#[derive(Debug)]
pub enum Notify {
    /// The endpoint's output register is free again ("the processor receives
    /// an interrupt when room becomes available").
    TxReady(NodeAddr),
    /// A frame arrived in the endpoint's receive FIFO; drain it with
    /// [`Fabric::rx_pop`].
    RxArrived(NodeAddr),
}

/// What a fabric operation produced: software notifications plus events to
/// schedule `delay_ns` in the future.
///
/// Ownership: the caller owns the `Output` and passes it to every
/// state-changing [`Fabric`] call, which only ever *appends* to the two
/// lists. The caller empties them by acting on them — first every
/// `schedule` entry in list order (that order is the embedder's event order
/// for equal fire times, so it is part of the deterministic result), then
/// every notification in list order — and keeps the emptied value for its
/// next call, so after the lists have grown to their working size no
/// fabric step allocates.
#[derive(Debug, Default)]
pub struct Output {
    /// Notifications for the software layer, in order.
    pub notifies: Vec<Notify>,
    /// `(delay_ns, event)` pairs the embedder must schedule, in order.
    pub schedule: Vec<(u64, NetEvent)>,
}

/// Why [`Fabric::try_send`] rejected a frame.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError {
    /// The output register still holds / is serializing a previous frame;
    /// wait for [`Notify::TxReady`].
    TxBusy,
    /// The frame violates hardware limits.
    Invalid(FrameError),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::TxBusy => write!(f, "endpoint output register busy"),
            SendError::Invalid(e) => write!(f, "invalid frame: {e}"),
        }
    }
}

impl std::error::Error for SendError {}

fn elem_name(e: Element) -> String {
    match e {
        Element::Endpoint(a) => a.to_string(),
        Element::Port(p) => format!("c{}p{}", p.cluster.0, p.port),
    }
}

/// Aggregate fabric statistics.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// Frames handed to endpoint software (multicast counted per copy).
    pub frames_delivered: u64,
    /// Payload bytes delivered.
    pub payload_bytes_delivered: u64,
    /// Frames injected by endpoints.
    pub frames_sent: u64,
    /// Frames lost to injected faults or dead endpoints (never nonzero on
    /// the paper's fault-free hardware model).
    pub frames_dropped: u64,
    /// Frames delivered with a detectable corruption.
    pub frames_corrupted: u64,
    /// Frames forwarded through a different port than the fault-free
    /// routing tables would have chosen (adaptive reroute around a dead
    /// link). Always zero while the baseline tables are in force.
    pub frames_rerouted: u64,
    /// Sheddable frames dropped at a cluster switch because buffering them
    /// would exceed the cluster's store-and-forward byte budget. Disjoint
    /// from [`Stats::frames_dropped`]: a shed is a deliberate degradation
    /// decision, not a fault. Always zero while budgets are unbounded.
    pub frames_shed: u64,
    /// Contributions merged into a held partial by a combining switch (each
    /// merge removed one frame from the network). Always zero until a
    /// collective group is registered.
    pub frames_combined: u64,
    /// Partial combines flushed onward by the combining switches.
    pub comb_flushes: u64,
}

impl Stats {
    /// Add another fabric's (another shard's) counters into this one. The
    /// destructuring names every field, so a counter added to the struct
    /// does not compile until it is merged here.
    pub fn merge_counters(&mut self, o: &Stats) {
        let Stats {
            frames_delivered,
            payload_bytes_delivered,
            frames_sent,
            frames_dropped,
            frames_corrupted,
            frames_rerouted,
            frames_shed,
            frames_combined,
            comb_flushes,
        } = self;
        *frames_delivered += o.frames_delivered;
        *payload_bytes_delivered += o.payload_bytes_delivered;
        *frames_sent += o.frames_sent;
        *frames_dropped += o.frames_dropped;
        *frames_corrupted += o.frames_corrupted;
        *frames_rerouted += o.frames_rerouted;
        *frames_shed += o.frames_shed;
        *frames_combined += o.frames_combined;
        *comb_flushes += o.comb_flushes;
    }
}

/// Exact counts of arbitration work (they repeat to the digit), kept apart
/// from [`Stats`]: the model's effort, not the modelled machine's traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// [`Topology::route`] calls: one per target of each frame that becomes
    /// the head of a cluster input, plus the re-routes of a cable event.
    pub routes: u64,
    /// Worklist keys visited by `progress` (port, endpoint and purge keys).
    pub port_visits: u64,
    /// Transmissions started.
    pub grants: u64,
    /// Multicast heads re-listed in their tree's order: where a source's
    /// list does not form one run per output port, and where a re-route
    /// breaks the runs.
    pub relists: u64,
}

/// The HPC interconnect model. See module docs.
pub struct Fabric {
    cfg: NetConfig,
    topo: Topology,
    links: Links,
    /// The buffered frames of every link, each link's `buf` a queue here:
    /// a touched link costs its entry, a buffered frame a slot.
    frames: Slots<Frame>,
    /// Per-cluster incoming link at each port; port order is the
    /// (deterministic) arbitration order. Shared with the siblings.
    port_in: Arc<PortLinks>,
    /// Per-cluster outgoing link for each port. Shared with the siblings.
    port_out: Arc<PortLinks>,
    /// Per cluster and output port: bit `k` is set iff the head of
    /// `port_in[c][k]` has a target leaving through that port.
    want: Vec<[u16; PORTS_PER_CLUSTER]>,
    /// Routed multicast heads (`Link::mc` indexes this slab) and its free
    /// slots. Not a [`desim::Slab`]: a freed head keeps its `ports`
    /// capacity for the next multicast, where a slab's removal would drop
    /// it and every multicast would allocate again.
    mcast: Vec<McHead>,
    mcast_free: Vec<u32>,
    /// Scratch for re-listing a multicast head in tree order.
    tree: TreeOrder,
    /// The last list a re-list built: a shared list re-listed again into
    /// the same order (every copy of one message) takes it, not a new one.
    relisted: Option<Targets>,
    /// The dirty worklist, sorted: `cur[pos..]` are this pass's keys not yet
    /// visited, `cursor` the key being visited (0 outside `progress`), `next`
    /// the next pass's keys.
    cur: Vec<u64>,
    next: Vec<u64>,
    pos: usize,
    cursor: u64,
    work: Work,
    /// Calls of the quiescence oracle, for its stride in large worlds.
    #[cfg(debug_assertions)]
    oracle_calls: u64,
    /// Per-endpoint fault state: a down endpoint's interface is electrically
    /// dead — it cannot inject, and frames arriving at it are lost.
    down: Vec<bool>,
    /// Frames currently inside the fabric (in a register, buffer or flight).
    in_flight: usize,
    /// Per-cluster store-and-forward byte budget for sheddable frames
    /// (seeded from [`NetConfig::switch_byte_budget`], squeezable at run
    /// time via [`Fabric::set_cluster_byte_budget`]).
    byte_budget: Vec<u64>,
    /// Per-cluster bytes of sheddable frames currently buffered at the
    /// cluster's input ports (admission control keeps this ≤ the budget).
    data_buf_bytes: Vec<u64>,
    /// High-water mark of `data_buf_bytes`, per cluster.
    data_bytes_hwm: Vec<u64>,
    /// Fast guard: true iff any cluster budget is finite. Keeps byte
    /// accounting and shed checks entirely off the unbounded hot path.
    budgets_active: bool,
    /// Classifies frames eligible for overload shedding (lowest-priority
    /// traffic). Defaults to "nothing" — control/ack frames must never be
    /// shed, so the embedding software opts data kinds in explicitly.
    sheddable: fn(&Frame) -> bool,
    /// Reusable cluster-path buffer for [`Fabric::comb_register_group`].
    path_scratch: Vec<ClusterId>,
    /// In-switch combining state. `None` — and never consulted beyond one
    /// pointer test on the arrival paths — until the software layer
    /// registers a collective group, so non-collective runs are untouched.
    comb: Option<Box<Comb>>,
    /// Statistics.
    pub stats: Stats,
    now_ns: u64,
}

/// In-switch combining: registered groups plus the live combining table.
/// See `combine` module docs and DESIGN.md §16.
struct Comb {
    /// Registered groups by id.
    groups: FixedMap<u32, CombGroup>,
    /// Live partial combines keyed by `(cluster, frame.seq)`.
    entries: FixedMap<(u32, u64), CombEntry>,
}

/// One registered collective group, as the switches see it.
struct CombGroup {
    /// The frame kind that combines for this group.
    kind: u16,
    /// Per-cluster expected contribution count: how many of the group's
    /// members route through each cluster on their way to the root *through
    /// this fabric*. Purely an optimization — a partial that reaches its
    /// expected count flushes early instead of waiting out the window.
    /// Correctness never depends on it: the root software accumulates
    /// partials until the group total arrives.
    expected: Vec<u32>,
}

/// One held partial combine at one star coupler.
struct CombEntry {
    op: crate::combine::CombOp,
    /// The merged operand so far.
    value: u64,
    /// Original contributions folded into `value`.
    count: u32,
    /// When the combining ALU finishes the merges so far: each merge
    /// extends this by [`COMB_ALU_NS`], and the entry never
    /// flushes earlier.
    ready_at: u64,
    /// Source of the first contribution (deterministic in arrival order) —
    /// stamped on the flushed frame.
    src: NodeAddr,
    /// The common unicast destination (the group root's endpoint).
    dst: NodeAddr,
    /// The common frame kind.
    kind: u16,
    /// Input link of the first fabric-side contribution: the flushed frame
    /// re-enters forwarding here. `None` when every contribution arrived
    /// through the cross-shard bridge (then the entry sits at the
    /// destination's own cluster and flushes straight into its FIFO).
    arrival: Option<LinkId>,
}

/// Byte cost a frame charges against a cluster's store-and-forward budget:
/// header + payload. Deliberately independent of the (mutable) multicast
/// target list, so a buffered frame's cost never changes between admission
/// and release.
fn frame_cost(f: &Frame) -> u64 {
    u64::from(crate::frame::HEADER_BYTES) + u64::from(f.payload.len())
}

impl Fabric {
    /// Build a fabric over `topo` with the run parameters `cfg`; the
    /// hardware itself is the constants of [`crate::config`].
    ///
    /// Endpoint links come first, two per endpoint in address order, so
    /// endpoint `a`'s up-link is `2a` and its down-link `2a + 1`
    /// (`up_link`, `down_link`); cluster-to-cluster links follow.
    pub fn new(topo: Topology, cfg: NetConfig) -> Self {
        let mut wires = Vec::with_capacity(2 * topo.n_endpoints());
        let mut port_in = vec![[None; PORTS_PER_CLUSTER]; topo.n_clusters()];
        let mut port_out = port_in.clone();
        // A link from `from` to `to` that buffers `cap` frames at `to`.
        let mut add = |from, to, cap: usize| {
            let cap = u32::try_from(cap).expect("a buffer cap fits in u32");
            assert!(cap > 0, "a link that buffers no frame carries none");
            wires.push(Wire { from, to, cap });
            LinkId(wires.len() as u32 - 1)
        };
        // Port `p` receives on `into` and transmits on `out`.
        let mut plug = |p: PortRef, into, out| {
            let (c, k) = (p.cluster.0 as usize, usize::from(p.port));
            port_in[c][k] = Some(into);
            port_out[c][k] = Some(out);
        };
        for addr in topo.endpoints() {
            let p = topo.endpoint_port(addr);
            let (ep, port) = (Element::Endpoint(addr), Element::Port(p));
            let up = add(ep, port, CLUSTER_PORT_SLOTS);
            let down = add(port, ep, ENDPOINT_RX_SLOTS);
            debug_assert_eq!((up, down), (up_link(addr), down_link(addr)));
            plug(p, up, down);
        }
        // Cluster-to-cluster links (each wired pair appears once per
        // direction). Scan ports; create the pair when we see the lower id.
        for c in 0..topo.n_clusters() {
            for port in 0..PORTS_PER_CLUSTER {
                let here = PortRef {
                    cluster: ClusterId(c as u32),
                    port: port as u8,
                };
                if let Attachment::Cluster(peer) = topo.attachment(here) {
                    if (peer.cluster.0 as usize, usize::from(peer.port)) > (c, port) {
                        let (a, b) = (Element::Port(here), Element::Port(peer));
                        let out = add(a, b, CLUSTER_PORT_SLOTS);
                        let back = add(b, a, CLUSTER_PORT_SLOTS);
                        plug(here, back, out);
                        plug(peer, out, back);
                    }
                }
            }
        }
        let links = Links::new(wires.into());
        Fabric::over(links, port_in.into(), port_out.into(), topo, cfg)
    }

    /// A new fabric over the same machine, with no frame in it: it shares
    /// this fabric's wiring and clones its topology (neither copies anything
    /// proportional to the machine), so each shard of a sharded world gets
    /// its own fabric for the price of the links its traffic touches. The
    /// routing in force is this fabric's; the shed classifier is the
    /// default.
    pub fn sibling(&self) -> Fabric {
        let (port_in, port_out) = (Arc::clone(&self.port_in), Arc::clone(&self.port_out));
        let links = Links::new(Arc::clone(&self.links.wires));
        Fabric::over(links, port_in, port_out, self.topo.clone(), self.cfg)
    }

    fn over(
        links: Links,
        port_in: Arc<PortLinks>,
        port_out: Arc<PortLinks>,
        topo: Topology,
        cfg: NetConfig,
    ) -> Self {
        let n_eps = topo.n_endpoints();
        let n_clusters = topo.n_clusters();
        Fabric {
            cfg,
            topo,
            links,
            frames: Slots::default(),
            port_in,
            port_out,
            want: vec![[0; PORTS_PER_CLUSTER]; n_clusters],
            mcast: Vec::new(),
            mcast_free: Vec::new(),
            tree: TreeOrder::new(),
            relisted: None,
            cur: Vec::new(),
            next: Vec::new(),
            pos: 0,
            cursor: 0,
            work: Work::default(),
            #[cfg(debug_assertions)]
            oracle_calls: 0,
            down: vec![false; n_eps],
            in_flight: 0,
            byte_budget: vec![cfg.switch_byte_budget; n_clusters],
            data_buf_bytes: vec![0; n_clusters],
            data_bytes_hwm: vec![0; n_clusters],
            budgets_active: cfg.switch_byte_budget != u64::MAX,
            sheddable: |_| false,
            path_scratch: Vec::new(),
            comb: None,
            stats: Stats::default(),
            now_ns: 0,
        }
    }

    /// The topology this fabric was built over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The hardware configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The arbitration work done since the fabric was built.
    pub fn work(&self) -> Work {
        self.work
    }

    /// True iff `src` can accept a new frame into its output register.
    /// A down endpoint's interface is dead and never accepts.
    pub fn can_send(&self, src: NodeAddr) -> bool {
        let up = &self.links[up_link(src)];
        !self.down[src.0 as usize] && !up.busy && up.out_reg.is_none()
    }

    /// How link `l` is wired.
    fn wire(&self, l: LinkId) -> Wire {
        self.links.wires[l.0 as usize]
    }

    /// True iff a transmission may start on link `l` now.
    fn grantable(&self, l: LinkId) -> bool {
        self.links[l].grantable()
    }

    /// Mark `node`'s interface down (crash) or back up (restart).
    ///
    /// Going down models pulling the board: the unsent output register and
    /// everything buffered in the receive FIFO are lost (counted in
    /// [`Stats::frames_dropped`]); frames still in flight toward the node
    /// are dropped on arrival. Frames the node put on the wire before the
    /// crash are already the fabric's responsibility and still deliver.
    /// Coming back up restores a cold, empty interface.
    pub fn set_endpoint_down(&mut self, now_ns: u64, node: NodeAddr, down: bool, out: &mut Output) {
        self.now_ns = now_ns;
        let i = node.0 as usize;
        if self.down[i] == down {
            return;
        }
        self.down[i] = down;
        if down {
            // Read before writing: a crash of an untouched endpoint builds
            // no state for it.
            if self.links[up_link(node)].out_reg.is_some() {
                self.links[up_link(node)].out_reg = None;
                self.in_flight -= 1;
                self.stats.frames_dropped += 1;
            }
            // Freed FIFO slots may unblock upstream forwarding (the frames
            // it admits will be dropped on arrival).
            while self.dequeue(down_link(node)).is_some() {
                self.in_flight -= 1;
                self.stats.frames_dropped += 1;
            }
            self.progress(out);
        } else if self.can_send(node) {
            out.notifies.push(Notify::TxReady(node));
        }
    }

    /// True iff directed link `l` is currently down.
    pub fn is_link_down(&self, l: LinkId) -> bool {
        self.links[l].down
    }

    /// Take one directed link down (cable cut) or bring it back up.
    ///
    /// Going down: frames in flight on the link are lost when their arrival
    /// fires (see [`FaultHook::on_down_drop`]); frames already buffered at
    /// the receiving side made it across and still forward. For an
    /// inter-cluster link the routing tables are recomputed over the
    /// surviving edges, so buffered and future traffic reroutes; traffic
    /// with no surviving route is dropped instead of wedging the
    /// store-and-forward buffers. Coming back up recomputes again (a fully
    /// healed fabric restores the fault-free tables verbatim). A physical
    /// cable cut is two directed links — take both ids down to model it.
    pub fn set_link_down(&mut self, now_ns: u64, l: LinkId, down: bool, out: &mut Output) {
        self.now_ns = now_ns;
        if self.links[l].down == down {
            return;
        }
        self.links[l].down = down;
        if let (Element::Port(p), Element::Port(_)) = (self.wire(l).from, self.wire(l).to) {
            self.topo.set_edge_state(p, !down);
            self.topo.recompute();
            // The generation moved: every cached head route is stale. Heads
            // with no surviving route are purged by the pass that follows.
            self.reroute_heads();
        }
        // Either direction of change can unblock forwarding: a reroute opens
        // new paths, a heal reopens the link itself.
        self.wake_upstream(l);
        self.progress(out);
    }

    /// The directed inter-cluster link out of cluster `from` toward cluster
    /// `to`, if those clusters are wired directly — the lowest link id when
    /// several cables join the pair. Lets tests and benches name a hypercube
    /// edge without reverse-engineering link-id order. Read off `from`'s own
    /// ports: the gray bridge asks once per inter-cluster hop of a frame.
    pub fn cluster_link(&self, from: ClusterId, to: ClusterId) -> Option<LinkId> {
        let joins = |l: &LinkId| match self.wire(*l).to {
            Element::Port(p) => p.cluster == to,
            Element::Endpoint(_) => false,
        };
        let outs = self.port_out[from.0 as usize].iter().flatten().copied();
        outs.filter(joins).min_by_key(|l| l.0)
    }

    /// Software writes a frame to the endpoint's output register.
    ///
    /// On success the frame is inside the hardware and will be delivered;
    /// progress (serialization start, etc.) is appended to `out`. On error
    /// `out` is untouched. `now_ns` is the current time (statistics only).
    pub fn try_send(
        &mut self,
        now_ns: u64,
        frame: Frame,
        out: &mut Output,
    ) -> Result<(), SendError> {
        self.now_ns = now_ns;
        frame.validate().map_err(SendError::Invalid)?;
        if !self.can_send(frame.src) {
            return Err(SendError::TxBusy);
        }
        self.stats.frames_sent += 1;
        let up = up_link(frame.src);
        self.links[up].out_reg = Some(frame);
        self.in_flight += 1;
        self.wake_upstream(up);
        self.progress(out);
        Ok(())
    }

    /// Process a previously scheduled fabric event on fault-free hardware.
    pub fn handle(&mut self, now_ns: u64, ev: NetEvent, out: &mut Output) {
        self.handle_with(now_ns, ev, &mut NoFaults, out)
    }

    /// Process a previously scheduled fabric event, consulting `hook` for
    /// the disposition of every frame completing a hop.
    pub fn handle_with(
        &mut self,
        now_ns: u64,
        ev: NetEvent,
        hook: &mut dyn FaultHook,
        out: &mut Output,
    ) {
        self.now_ns = now_ns;
        match ev {
            NetEvent::LinkFree(l) => {
                let link = &mut self.links[l];
                debug_assert!(link.busy);
                link.busy = false;
                let from = self.wire(l).from;
                self.wake_upstream(l);
                self.progress(out);
                // Only signal readiness if progress did not immediately
                // refill the transmitter (it cannot: software has not run),
                // but keep the check for robustness.
                if let Element::Endpoint(a) = from {
                    if self.can_send(a) {
                        out.notifies.push(Notify::TxReady(a));
                    }
                }
            }
            NetEvent::Arrive(l, frame) => {
                // A link that went down mid-flight loses the frame: it must
                // never be delivered after the down edge, and no disposition
                // is drawn for it (scripted, not probabilistic).
                if self.links[l].down {
                    hook.on_down_drop(l);
                    self.drop_in_transit(l, out);
                } else {
                    match hook.on_transit(l, &frame, now_ns, HOP_LATENCY_NS) {
                        Transit::Deliver => self.finish_arrival(l, frame, hook, out),
                        Transit::Drop => self.drop_in_transit(l, out),
                        Transit::Corrupt => {
                            let mut f = frame;
                            f.corrupted = true;
                            self.stats.frames_corrupted += 1;
                            self.finish_arrival(l, f, hook, out);
                        }
                        Transit::Delay(extra_ns) => {
                            // The buffer reservation stays held: a delayed frame
                            // still occupies its store-and-forward slot.
                            out.schedule
                                .push((extra_ns, NetEvent::ArriveDelayed(l, frame)));
                        }
                    }
                }
            }
            NetEvent::ArriveDelayed(l, frame) => {
                if self.links[l].down {
                    hook.on_down_drop(l);
                    self.drop_in_transit(l, out);
                } else {
                    self.finish_arrival(l, frame, hook, out);
                }
            }
            NetEvent::CombFlush(c, seq) => self.comb_flush(c, seq, out),
        }
    }

    /// A frame completes its hop on `l`: convert the reservation into a
    /// buffered frame, unless [`Fabric::admit`] turns it away.
    fn finish_arrival(
        &mut self,
        l: LinkId,
        frame: Frame,
        hook: &mut dyn FaultHook,
        out: &mut Output,
    ) {
        let link = &mut self.links[l];
        debug_assert!(link.reserved > 0);
        link.reserved -= 1;
        let to = self.wire(l).to;
        match self.admit(l, to, frame, hook, out) {
            Some(frame) => {
                self.enqueue(l, frame);
                if let Element::Endpoint(a) = to {
                    out.notifies.push(Notify::RxArrived(a));
                }
            }
            // The released reservation is a free slot again.
            None => self.wake_upstream(l),
        }
        self.progress(out);
    }

    /// Whether `frame`, arriving on `l` at `to`, is buffered there. `None`
    /// (accounted here): the receiving endpoint is down and the frame dies at
    /// the dead interface; it merged into a star coupler's held partial; or
    /// buffering it at a cluster port would exceed the cluster's
    /// sheddable-byte budget and it is shed — deterministic overload
    /// degradation.
    fn admit(
        &mut self,
        l: LinkId,
        to: Element,
        frame: Frame,
        hook: &mut dyn FaultHook,
        out: &mut Output,
    ) -> Option<Frame> {
        let p = match to {
            Element::Endpoint(a) if self.down[a.0 as usize] => {
                self.in_flight -= 1;
                self.stats.frames_dropped += 1;
                return None;
            }
            Element::Endpoint(_) => return Some(frame),
            Element::Port(p) => p,
        };
        // In-switch combining: a combinable frame arriving at a cluster
        // input merges into the coupler's held partial instead of buffering.
        // Entirely behind the one pointer test — non-collective runs skip it.
        let frame = match self.comb {
            Some(_) => self.try_comb_absorb(p.cluster, Some(l), frame, out)?,
            None => frame,
        };
        if (self.sheddable)(&frame) {
            let c = p.cluster.0 as usize;
            let cost = frame_cost(&frame);
            if self.budgets_active
                && self.data_buf_bytes[c].saturating_add(cost) > self.byte_budget[c]
            {
                self.in_flight -= 1;
                self.stats.frames_shed += 1;
                hook.on_overload_drop(l);
                return None;
            }
            // Accounted whether or not a budget is in force, so a budget
            // squeeze arriving mid-run sees accurate occupancy.
            self.data_buf_bytes[c] += cost;
            self.data_bytes_hwm[c] = self.data_bytes_hwm[c].max(self.data_buf_bytes[c]);
        }
        Some(frame)
    }

    /// A frame was lost in transit on `l`: release its reservation (the
    /// slot it claimed frees, which may unblock upstream senders).
    fn drop_in_transit(&mut self, l: LinkId, out: &mut Output) {
        let link = &mut self.links[l];
        debug_assert!(link.reserved > 0);
        link.reserved -= 1;
        self.in_flight -= 1;
        self.stats.frames_dropped += 1;
        self.wake_upstream(l);
        self.progress(out);
    }

    /// Number of frames waiting in an endpoint's receive FIFO.
    pub fn rx_depth(&self, node: NodeAddr) -> usize {
        self.links[down_link(node)].buf.len()
    }

    /// Peek at the head of an endpoint's receive FIFO.
    pub fn rx_peek(&self, node: NodeAddr) -> Option<&Frame> {
        self.frames.front(&self.links[down_link(node)].buf)
    }

    /// Software drains one frame from the endpoint's receive FIFO, freeing
    /// the hardware buffer slot (which may unblock upstream transmissions,
    /// appended to `out`).
    pub fn rx_pop(&mut self, now_ns: u64, node: NodeAddr, out: &mut Output) -> Option<Frame> {
        self.now_ns = now_ns;
        let frame = self.dequeue(down_link(node));
        if let Some(f) = &frame {
            self.in_flight -= 1;
            self.stats.frames_delivered += 1;
            self.stats.payload_bytes_delivered += u64::from(f.payload.len());
            self.progress(out);
        }
        frame
    }

    /// Frames currently inside the fabric (registers, buffers, in flight).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Per-link utilization snapshot: `(link, description, busy_ns,
    /// buffered frames)` for every directed link, in id order. The
    /// description names the two elements the link joins.
    pub fn link_report(&self) -> Vec<(LinkId, String, u64, usize)> {
        (0..self.n_links() as u32)
            .map(|i| {
                let (l, w) = (LinkId(i), self.wire(LinkId(i)));
                let desc = format!("{} -> {}", elem_name(w.from), elem_name(w.to));
                (l, desc, self.links[l].busy_ns, self.links[l].buf.len())
            })
            .collect()
    }

    /// The cluster that owns directed link `l` for shard-partition
    /// purposes: the `from`-side cluster for inter-cluster cables, the
    /// endpoint's own cluster for endpoint up/down links.
    pub fn link_owner_cluster(&self, l: LinkId) -> ClusterId {
        match self.wire(l).from {
            Element::Port(p) => p.cluster,
            Element::Endpoint(a) => self.topo.cluster_of(a),
        }
    }

    /// Number of directed links in the fabric.
    pub fn n_links(&self) -> usize {
        self.links.wires.len()
    }

    /// Number of links whose state this fabric has built: the links a frame,
    /// a fault or an output register has touched. Every other link reads as
    /// idle and costs one 4-byte slot.
    pub fn materialized_links(&self) -> usize {
        self.links.state.touched_len()
    }

    /// The endpoint→cluster link of `node` (its transmit side).
    pub fn endpoint_up_link(&self, node: NodeAddr) -> LinkId {
        up_link(node)
    }

    /// The cluster→endpoint link of `node` (its receive side). Useful for
    /// targeting fault injection at one receiver.
    pub fn endpoint_down_link(&self, node: NodeAddr) -> LinkId {
        down_link(node)
    }

    /// Install the classifier deciding which frames are eligible for
    /// overload shedding. Must be a pure function of the frame (the fabric
    /// consults it at both admission and release); control traffic should
    /// answer `false`. The default classifier sheds nothing.
    pub fn set_sheddable(&mut self, f: fn(&Frame) -> bool) {
        self.sheddable = f;
    }

    /// Set cluster `c`'s store-and-forward byte budget for sheddable
    /// frames. `u64::MAX` disables the budget. Frames already buffered are
    /// never retroactively dropped — only new arrivals are shed.
    pub fn set_cluster_byte_budget(&mut self, c: ClusterId, bytes: u64) {
        self.byte_budget[c.0 as usize] = bytes;
        self.budgets_active = self.byte_budget.iter().any(|&b| b != u64::MAX);
    }

    /// True iff any cluster currently has a finite byte budget (the fast
    /// guard the software layer uses to choose overload ride-out over
    /// give-up).
    pub fn overload_active(&self) -> bool {
        self.budgets_active
    }

    /// Bytes of sheddable frames currently buffered at cluster `c`.
    pub fn cluster_data_bytes(&self, c: ClusterId) -> u64 {
        self.data_buf_bytes[c.0 as usize]
    }

    /// The largest per-cluster sheddable-byte high-water mark (0 when the
    /// classifier sheds nothing or no data frame was ever buffered).
    pub fn max_cluster_data_bytes_hwm(&self) -> u64 {
        self.data_bytes_hwm.iter().copied().max().unwrap_or(0)
    }

    /// Occupancy high-water mark of link `l` (`buf + reserved` slots).
    pub fn link_depth_hwm(&self, l: LinkId) -> usize {
        self.links[l].depth_hwm as usize
    }

    /// Buffer-slot cap of link `l`.
    pub fn link_cap(&self, l: LinkId) -> usize {
        self.wire(l).cap as usize
    }

    /// True iff link `l` terminates at an endpoint's receive FIFO (such
    /// links may exceed their cap via [`Fabric::inject_arrival`] — the
    /// documented cross-shard bridge simplification — so depth oracles
    /// exempt them).
    pub fn link_ends_at_endpoint(&self, l: LinkId) -> bool {
        matches!(self.wire(l).to, Element::Endpoint(_))
    }

    /// The largest occupancy high-water mark over links that terminate at a
    /// cluster port (the links whose caps the hardware flow control
    /// enforces unconditionally). Untouched links never held a frame.
    pub fn max_port_link_depth_hwm(&self) -> usize {
        let entries = self.links.state.touched();
        let port_side = entries.filter(|l| !self.link_ends_at_endpoint(l.id));
        port_side.map(|l| l.depth_hwm as usize).max().unwrap_or(0)
    }

    /// Materialize a frame in the destination endpoint's receive FIFO, as
    /// if it had just completed its final hop. This is the receiving half of
    /// the sharded engine's cross-shard bridge: the sending shard computed
    /// the full path latency up front, so the frame bypasses this fabric's
    /// links and appears directly at the endpoint at its arrival time.
    ///
    /// Deliberate simplification: the endpoint FIFO's slot cap is not
    /// enforced (VORX drains receive FIFOs unconditionally — "the VORX
    /// kernel reads in messages immediately when they arrive" — so an
    /// over-cap burst models a momentarily deeper FIFO rather than loss).
    /// A frame arriving at a down endpoint dies at the dead interface,
    /// exactly like [`NetEvent::Arrive`] handling.
    pub fn inject_arrival(&mut self, now_ns: u64, frame: Frame, out: &mut Output) {
        self.now_ns = now_ns;
        let dst = match &frame.dst {
            Dest::Unicast(a) => *a,
            Dest::Multicast(_) => panic!("bridged frames are unicast per target"),
        };
        if self.down[dst.0 as usize] {
            self.stats.frames_dropped += 1;
            return;
        }
        // Bridged combinable frames merge at the destination's own star
        // coupler: the sharded engine delivers cross-shard frames in
        // deterministic `(arrival time, source shard, sequence)` order, so
        // the merge order — and therefore the combined trace — is a pure
        // function of that order, independent of worker count.
        let frame = if self.comb.is_some() {
            let cluster = self.topo.cluster_of(dst);
            self.in_flight += 1; // the held partial owns one in-flight unit
            match self.try_comb_absorb(cluster, None, frame, out) {
                None => return,
                Some(f) => {
                    self.in_flight -= 1; // not combinable after all
                    f
                }
            }
        } else {
            frame
        };
        self.enqueue(down_link(dst), frame);
        self.in_flight += 1;
        out.notifies.push(Notify::RxArrived(dst));
    }

    /// Register collective group `group`: frames of `kind` whose `seq`
    /// carries this group id (see [`crate::combine::enc_seq`]) merge inside
    /// the star couplers on their way to `root`. This call is what *arms*
    /// the combining machinery — before the first registration the fabric's
    /// arrival paths are bit-for-bit the non-collective ones.
    ///
    /// `path_members` are the members whose contributions reach `root`
    /// through this fabric's links (under the sharded engine: the members
    /// co-resident with the root; elsewhere: everyone). They seed the
    /// per-cluster expected counts that let a coupler flush a completed
    /// subtree early instead of waiting out the combining window. `total`
    /// is the whole group size — the root's own coupler waits for all of
    /// it, bridged contributions included.
    pub fn comb_register_group(
        &mut self,
        group: u32,
        kind: u16,
        path_members: &[NodeAddr],
        root: NodeAddr,
        total: u32,
    ) {
        let n_clusters = self.topo.n_clusters();
        let mut expected = vec![0u32; n_clusters];
        let mut path = std::mem::take(&mut self.path_scratch);
        for &m in path_members {
            if self.topo.cluster_path_into(m, root, &mut path) {
                for c in &path {
                    expected[c.0 as usize] += 1;
                }
            }
        }
        self.path_scratch = path;
        expected[self.topo.cluster_of(root).0 as usize] = total;
        let comb = self.comb.get_or_insert_with(|| {
            Box::new(Comb {
                groups: FixedMap::default(),
                entries: FixedMap::default(),
            })
        });
        comb.groups.insert(group, CombGroup { kind, expected });
    }

    /// Held partial combines currently live in the fabric's switches
    /// (quiescence oracles: 0 once all collective traffic drained).
    pub fn comb_entries_live(&self) -> usize {
        self.comb.as_ref().map_or(0, |c| c.entries.len())
    }

    /// Try to merge `frame` into the partial combine at `cluster`. Returns
    /// `None` when absorbed (the caller must not buffer the frame — the
    /// held partial now owns its in-flight unit) or `Some(frame)` when the
    /// frame is not combinable and must continue on the normal path.
    ///
    /// The caller guarantees the frame is already counted in `in_flight`.
    fn try_comb_absorb(
        &mut self,
        cluster: ClusterId,
        arrival: Option<LinkId>,
        frame: Frame,
        out: &mut Output,
    ) -> Option<Frame> {
        use std::collections::hash_map::Entry;
        if frame.corrupted {
            // A corrupted operand must never poison a merged value: let it
            // travel on and die at the receiver's CRC check, so the count
            // it carried goes missing and the attempt retries.
            return Some(frame);
        }
        let dst = match &frame.dst {
            Dest::Unicast(a) => *a,
            Dest::Multicast(_) => return Some(frame),
        };
        let Some(comb) = self.comb.as_mut() else {
            return Some(frame);
        };
        let group = crate::combine::seq_group(frame.seq);
        let expected = match comb.groups.get(&group) {
            Some(g) if g.kind == frame.kind => g.expected[cluster.0 as usize],
            _ => return Some(frame),
        };
        let Some((op, value, count)) = crate::combine::unpack(&frame.payload) else {
            return Some(frame);
        };
        let now = self.now_ns;
        match comb.entries.entry((cluster.0, frame.seq)) {
            Entry::Occupied(mut e) => {
                let ent = e.get_mut();
                if ent.op != op || ent.dst != dst {
                    return Some(frame); // malformed mix: do not merge
                }
                ent.value = ent.op.apply(ent.value, value);
                ent.count += count;
                ent.ready_at = ent.ready_at.max(now) + COMB_ALU_NS;
                if ent.arrival.is_none() {
                    ent.arrival = arrival;
                }
                self.stats.frames_combined += 1;
                self.in_flight -= 1; // two frames became one held partial
                if expected > 0 && ent.count >= expected {
                    let at = ent.ready_at - now;
                    out.schedule
                        .push((at, NetEvent::CombFlush(cluster, frame.seq)));
                }
                None
            }
            Entry::Vacant(v) => {
                let seq = frame.seq;
                v.insert(CombEntry {
                    op,
                    value,
                    count,
                    ready_at: now,
                    src: frame.src,
                    dst,
                    kind: frame.kind,
                    arrival,
                });
                // One deadline per entry: immediately when the expected
                // subtree is already complete, else the window backstop
                // (which re-arms against `ready_at` if merges are still in
                // the ALU when it fires).
                let at = if expected > 0 && count >= expected {
                    0
                } else {
                    self.cfg.comb_window_ns
                };
                out.schedule.push((at, NetEvent::CombFlush(cluster, seq)));
                None
            }
        }
    }

    /// A combining deadline fired: flush the partial at `(cluster, seq)`
    /// onward, unless it already flushed (no-op) or its ALU is still
    /// folding (re-arm for the remainder).
    fn comb_flush(&mut self, cluster: ClusterId, seq: u64, out: &mut Output) {
        let now = self.now_ns;
        let Some(comb) = self.comb.as_mut() else {
            return;
        };
        let Some(ent) = comb.entries.get(&(cluster.0, seq)) else {
            return;
        };
        if ent.ready_at > now {
            out.schedule
                .push((ent.ready_at - now, NetEvent::CombFlush(cluster, seq)));
            return;
        }
        let ent = comb
            .entries
            .remove(&(cluster.0, seq))
            .expect("checked just above");
        self.stats.comb_flushes += 1;
        let frame = Frame {
            src: ent.src,
            dst: Dest::Unicast(ent.dst),
            kind: ent.kind,
            seq,
            payload: crate::combine::pack_hw(ent.op, ent.value, ent.count),
            corrupted: false,
        };
        match ent.arrival {
            // The combined frame re-enters forwarding where its first
            // contribution arrived. It is *not* re-absorbed here (combining
            // happens only on arrival at a coupler), so it forwards toward
            // the root and merges again at the next coupler — recursive
            // combining at gateway levels falls out of this re-entry.
            Some(l) => {
                self.enqueue(l, frame);
                self.progress(out);
            }
            // Every contribution arrived through the cross-shard bridge:
            // the entry sits at the root's own cluster and the bridge
            // already charged full path latency, so the flush lands in the
            // root's receive FIFO like any bridged arrival.
            None => {
                if self.down[ent.dst.0 as usize] {
                    self.in_flight -= 1;
                    self.stats.frames_dropped += 1;
                    return;
                }
                self.enqueue(down_link(ent.dst), frame);
                out.notifies.push(Notify::RxArrived(ent.dst));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::StandaloneNet;
    use crate::frame::Payload;

    fn two_node_net() -> StandaloneNet {
        StandaloneNet::new(Fabric::new(
            Topology::single_cluster(2).unwrap(),
            NetConfig::paper_1988(),
        ))
    }

    #[test]
    fn unicast_delivery_same_cluster() {
        let mut net = two_node_net();
        net.send_at(
            0,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 7, 42, Payload::Synthetic(4)),
        );
        net.run();
        assert_eq!(net.delivered.len(), 1);
        let (t, to, f) = &net.delivered[0];
        assert_eq!(*to, NodeAddr(1));
        assert_eq!(f.kind, 7);
        assert_eq!(f.seq, 42);
        // Two hops (node->cluster, cluster->node), each 40 B * 50 ns + 500 ns.
        assert_eq!(*t, 2 * (40 * 50 + 500));
        assert_eq!(net.fabric.in_flight(), 0);
    }

    #[test]
    fn payload_data_survives_transit() {
        let mut net = two_node_net();
        net.send_at(
            0,
            Frame::unicast(
                NodeAddr(0),
                NodeAddr(1),
                0,
                0,
                Payload::copy_from(&[9, 8, 7, 6]),
            ),
        );
        net.run();
        assert_eq!(
            net.delivered[0].2.payload.bytes().unwrap().as_ref(),
            &[9, 8, 7, 6]
        );
    }

    #[test]
    fn multi_hop_crosses_clusters() {
        let topo = Topology::incomplete_hypercube(4, 2).unwrap();
        let hops = topo.hops(NodeAddr(0), NodeAddr(7));
        assert_eq!(hops, 2); // cluster 0 -> 1 -> 3 or 0 -> 2 -> 3
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        net.send_at(
            0,
            Frame::unicast(NodeAddr(0), NodeAddr(7), 0, 0, Payload::Synthetic(100)),
        );
        net.run();
        assert_eq!(net.delivered.len(), 1);
        // Store-and-forward over 4 links (node->c0->c3' path->node): time is
        // 4 * (serialize + hop latency) for (100+36) bytes.
        let per_hop = 136 * 50 + 500;
        assert_eq!(net.delivered[0].0, 4 * per_hop);
    }

    #[test]
    fn inject_arrival_lands_in_rx_fifo() {
        let mut fab = Fabric::new(
            Topology::single_cluster(2).unwrap(),
            NetConfig::paper_1988(),
        );
        let f = Frame::unicast(NodeAddr(0), NodeAddr(1), 7, 1, Payload::Synthetic(8));
        let mut out = Output::default();
        fab.inject_arrival(100, f, &mut out);
        assert!(matches!(out.notifies[..], [Notify::RxArrived(NodeAddr(1))]));
        assert_eq!(fab.rx_depth(NodeAddr(1)), 1);
        assert_eq!(fab.in_flight(), 1);
        let frame = fab.rx_pop(200, NodeAddr(1), &mut out);
        assert_eq!(frame.unwrap().kind, 7);
        assert_eq!(fab.in_flight(), 0);
        assert_eq!(fab.stats.frames_delivered, 1);
    }

    #[test]
    fn inject_arrival_at_down_endpoint_is_dropped() {
        let mut fab = Fabric::new(
            Topology::single_cluster(2).unwrap(),
            NetConfig::paper_1988(),
        );
        let mut out = Output::default();
        fab.set_endpoint_down(0, NodeAddr(1), true, &mut out);
        let f = Frame::unicast(NodeAddr(0), NodeAddr(1), 7, 1, Payload::Synthetic(8));
        fab.inject_arrival(100, f, &mut out);
        assert!(out.notifies.is_empty());
        assert_eq!(fab.rx_depth(NodeAddr(1)), 0);
        assert_eq!(fab.stats.frames_dropped, 1);
    }

    #[test]
    fn back_to_back_frames_keep_fifo_order() {
        let mut net = two_node_net();
        // Queue three sends; the driver retries TxBusy when TxReady fires.
        for seq in 0..3 {
            net.send_at(
                0,
                Frame::unicast(NodeAddr(0), NodeAddr(1), 0, seq, Payload::Synthetic(512)),
            );
        }
        net.run();
        let seqs: Vec<u64> = net.delivered.iter().map(|(_, _, f)| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn oversize_frame_rejected() {
        let mut f = Fabric::new(
            Topology::single_cluster(2).unwrap(),
            NetConfig::paper_1988(),
        );
        let err = f
            .try_send(
                0,
                Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 0, Payload::Synthetic(2000)),
                &mut Output::default(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SendError::Invalid(FrameError::TooLong { .. })
        ));
    }

    #[test]
    fn tx_busy_until_ready() {
        let mut f = Fabric::new(
            Topology::single_cluster(2).unwrap(),
            NetConfig::paper_1988(),
        );
        let mk = |seq| Frame::unicast(NodeAddr(0), NodeAddr(1), 0, seq, Payload::Synthetic(4));
        assert!(f.can_send(NodeAddr(0)));
        let mut out = Output::default();
        f.try_send(0, mk(0), &mut out).unwrap();
        assert!(!f.can_send(NodeAddr(0)));
        assert_eq!(
            f.try_send(0, mk(1), &mut out).unwrap_err(),
            SendError::TxBusy
        );
    }

    #[test]
    fn multicast_replicates_in_fabric_not_at_source() {
        // 2 clusters, 3 endpoints each; node 0 multicasts to 3..6 on the
        // other cluster: the inter-cluster link must carry the frame ONCE.
        let topo = Topology::incomplete_hypercube(2, 3).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        net.send_at(
            0,
            Frame {
                src: NodeAddr(0),
                dst: Dest::Multicast(vec![NodeAddr(3), NodeAddr(4), NodeAddr(5)].into()),
                kind: 0,
                seq: 0,
                payload: Payload::Synthetic(1024),
                corrupted: false,
            },
        );
        net.run();
        assert_eq!(net.delivered.len(), 3);
        let mut who: Vec<u32> = net.delivered.iter().map(|(_, to, _)| to.0).collect();
        who.sort_unstable();
        assert_eq!(who, vec![3, 4, 5]);
        // Source sent exactly one frame.
        assert_eq!(net.fabric.stats.frames_sent, 1);
        assert_eq!(net.fabric.stats.frames_delivered, 3);
        assert_eq!(net.fabric.in_flight(), 0);
    }

    #[test]
    fn multicast_to_local_and_remote_targets() {
        let topo = Topology::incomplete_hypercube(2, 3).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        net.send_at(
            0,
            Frame {
                src: NodeAddr(0),
                dst: Dest::Multicast(vec![NodeAddr(1), NodeAddr(2), NodeAddr(4)].into()),
                kind: 0,
                seq: 9,
                payload: Payload::Synthetic(64),
                corrupted: false,
            },
        );
        net.run();
        let mut who: Vec<u32> = net.delivered.iter().map(|(_, to, _)| to.0).collect();
        who.sort_unstable();
        assert_eq!(who, vec![1, 2, 4]);
    }

    #[test]
    fn many_to_one_never_loses_frames() {
        // The §2 scenario that broke the S/NET: many senders target one
        // receiver simultaneously. The HPC must deliver everything.
        let topo = Topology::single_cluster(12).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        for src in 1..12u32 {
            for seq in 0..5 {
                net.send_at(
                    0,
                    Frame::unicast(NodeAddr(src), NodeAddr(0), 0, seq, Payload::Synthetic(1024)),
                );
            }
        }
        net.run();
        assert_eq!(net.delivered.len(), 55);
        assert_eq!(net.fabric.in_flight(), 0);
        // Fairness: every sender's frame 0 arrives before any sender's
        // frame 4 (round-robin arbitration cannot starve anyone).
        let pos_of = |src: u32, seq: u64| {
            net.delivered
                .iter()
                .position(|(_, _, f)| f.src == NodeAddr(src) && f.seq == seq)
                .unwrap()
        };
        for src in 1..12u32 {
            for other in 1..12u32 {
                assert!(
                    pos_of(src, 0) < pos_of(other, 4),
                    "sender {src} frame 0 starved behind {other} frame 4"
                );
            }
        }
    }

    #[test]
    fn per_pair_fifo_under_contention() {
        let topo = Topology::incomplete_hypercube(4, 3).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        let n = net.fabric.topology().n_endpoints() as u32;
        for src in 0..n {
            for seq in 0..4 {
                let dst = (src + 1) % n;
                net.send_at(
                    0,
                    Frame::unicast(
                        NodeAddr(src),
                        NodeAddr(dst),
                        0,
                        seq,
                        Payload::Synthetic(256),
                    ),
                );
            }
        }
        net.run();
        assert_eq!(net.delivered.len(), n as usize * 4);
        // FIFO per (src, dst) pair.
        for src in 0..n {
            let seqs: Vec<u64> = net
                .delivered
                .iter()
                .filter(|(_, _, f)| f.src == NodeAddr(src))
                .map(|(_, _, f)| f.seq)
                .collect();
            assert_eq!(seqs, vec![0, 1, 2, 3], "src {src} reordered");
        }
    }

    #[test]
    fn stats_account_bytes() {
        let mut net = two_node_net();
        net.send_at(
            0,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 0, Payload::Synthetic(100)),
        );
        net.run();
        assert_eq!(net.fabric.stats.payload_bytes_delivered, 100);
        assert_eq!(net.fabric.stats.frames_sent, 1);
        assert_eq!(net.fabric.stats.frames_delivered, 1);
        assert!(net
            .fabric
            .link_report()
            .iter()
            .any(|&(_, _, busy_ns, _)| busy_ns > 0));
    }

    #[test]
    fn combining_merges_upward_frames() {
        use crate::combine::{self, CombOp};
        let topo = Topology::incomplete_hypercube(4, 3).unwrap(); // 12 endpoints
        let mut fab = Fabric::new(topo, NetConfig::paper_1988());
        let members: Vec<NodeAddr> = (0..12).map(NodeAddr).collect();
        let root = NodeAddr(0);
        fab.comb_register_group(5, 30, &members, root, 12);
        let mut net = StandaloneNet::new(fab);
        let seq = combine::enc_seq(5, 1, 0);
        for m in 1..12u32 {
            net.send_at(
                0,
                Frame::unicast(
                    NodeAddr(m),
                    root,
                    30,
                    seq,
                    combine::pack(CombOp::Sum, u64::from(m), 1),
                ),
            );
        }
        net.run();
        // The root receives merged partials — far fewer frames than the 11
        // contributions — whose counts and values fold to the exact totals.
        let (mut total, mut cnt) = (0u64, 0u32);
        for (_, to, f) in &net.delivered {
            assert_eq!(*to, root);
            assert_eq!(f.kind, 30);
            assert_eq!(f.seq, seq);
            let (op, v, c) = combine::unpack(&f.payload).unwrap();
            assert_eq!(op, CombOp::Sum);
            total += v;
            cnt += c;
        }
        assert_eq!(cnt, 11);
        assert_eq!(total, (1..12).sum::<u64>());
        assert!(
            net.delivered.len() <= 4,
            "expected heavy merging, got {} frames",
            net.delivered.len()
        );
        assert!(net.fabric.stats.frames_combined > 0);
        assert_eq!(net.fabric.comb_entries_live(), 0);
        assert_eq!(net.fabric.in_flight(), 0);
    }

    #[test]
    fn combining_early_flush_beats_window() {
        use crate::combine::{self, CombOp};
        // All 12 members contribute (root too): every coupler sees its full
        // expected subtree, so nothing waits out the 20 us window.
        let topo = Topology::incomplete_hypercube(4, 3).unwrap();
        let mut fab = Fabric::new(topo, NetConfig::paper_1988());
        let members: Vec<NodeAddr> = (0..12).map(NodeAddr).collect();
        let root = NodeAddr(0);
        fab.comb_register_group(5, 30, &members, root, 12);
        let mut net = StandaloneNet::new(fab);
        let seq = combine::enc_seq(5, 1, 0);
        for m in 0..12u32 {
            net.send_at(
                0,
                Frame::unicast(
                    NodeAddr(m),
                    root,
                    30,
                    seq,
                    combine::pack(CombOp::Max, u64::from(m) * 7, 1),
                ),
            );
        }
        net.run();
        let window = NetConfig::paper_1988().comb_window_ns;
        let last = net.delivered.iter().map(|(t, _, _)| *t).max().unwrap();
        assert!(
            last < window,
            "full subtree should flush early, finished at {last} ns"
        );
        let (mut best, mut cnt) = (0u64, 0u32);
        for (_, _, f) in &net.delivered {
            let (_, v, c) = combine::unpack(&f.payload).unwrap();
            best = best.max(v);
            cnt += c;
        }
        assert_eq!(cnt, 12);
        assert_eq!(best, 77);
        assert_eq!(net.fabric.in_flight(), 0);
    }

    fn budget_net(nodes: usize, budget: u64) -> StandaloneNet {
        let cfg = NetConfig {
            switch_byte_budget: budget,
            ..NetConfig::paper_1988()
        };
        let mut fab = Fabric::new(Topology::single_cluster(nodes).unwrap(), cfg);
        fab.set_sheddable(|f| f.kind == 9);
        StandaloneNet::new(fab)
    }

    #[test]
    fn zero_budget_sheds_data_but_not_control() {
        let mut net = budget_net(2, 0);
        net.send_at(
            0,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 9, 1, Payload::Synthetic(64)),
        );
        net.send_at(
            100_000,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 7, 2, Payload::Synthetic(64)),
        );
        net.run();
        // The data frame dies at the switch; the control frame sails through.
        assert_eq!(net.delivered.len(), 1);
        assert_eq!(net.delivered[0].2.kind, 7);
        assert_eq!(net.fabric.stats.frames_shed, 1);
        assert_eq!(net.fabric.in_flight(), 0);
    }

    #[test]
    fn budget_admits_until_full_then_sheds_deterministically() {
        // Three 100 B data frames (136 wire bytes each) converge on one
        // receiver under a 150 B budget. The first arrival cuts straight
        // through to the (idle) output port, the second buffers while that
        // port is busy, and the third finds the budget exhausted and is
        // shed — deterministically the same victim on every run.
        let mut net = budget_net(4, 150);
        for (src, seq) in [(0u32, 10u64), (2, 20), (3, 30)] {
            net.send_at(
                0,
                Frame::unicast(NodeAddr(src), NodeAddr(1), 9, seq, Payload::Synthetic(100)),
            );
        }
        net.run();
        let mut got: Vec<u64> = net.delivered.iter().map(|(_, _, f)| f.seq).collect();
        got.sort_unstable();
        assert_eq!(got, vec![10, 20], "third arrival is the victim");
        assert_eq!(net.fabric.stats.frames_shed, 1);
        let c = ClusterId(0);
        assert_eq!(net.fabric.max_cluster_data_bytes_hwm(), 136);
        assert_eq!(net.fabric.cluster_data_bytes(c), 0, "budget fully released");
    }

    #[test]
    fn mid_run_squeeze_sees_accurate_occupancy() {
        // Bytes are accounted even while budgets are disabled, so a squeeze
        // installed mid-run inherits a correct occupancy picture and the
        // release path never underflows.
        let mut net = budget_net(2, u64::MAX);
        assert!(!net.fabric.overload_active());
        net.send_at(
            0,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 9, 1, Payload::Synthetic(100)),
        );
        net.run();
        assert_eq!(net.delivered.len(), 1);
        assert_eq!(net.fabric.max_cluster_data_bytes_hwm(), 136);
        net.fabric.set_cluster_byte_budget(ClusterId(0), 0);
        assert!(net.fabric.overload_active());
        let t = net.now() + 1;
        net.send_at(
            t,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 9, 2, Payload::Synthetic(100)),
        );
        net.run();
        assert_eq!(net.delivered.len(), 1);
        assert_eq!(net.fabric.stats.frames_shed, 1);
    }

    #[test]
    fn depth_high_water_marks_track_occupancy() {
        let topo = Topology::single_cluster(12).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        for src in 1..12u32 {
            for seq in 0..5 {
                net.send_at(
                    0,
                    Frame::unicast(NodeAddr(src), NodeAddr(0), 0, seq, Payload::Synthetic(1024)),
                );
            }
        }
        net.run();
        // Port-side occupancy peaked somewhere but never past the hardware
        // flow-control cap — that is the invariant the soak oracle checks.
        let hwm = net.fabric.max_port_link_depth_hwm();
        assert!(hwm >= 1);
        assert!(hwm <= CLUSTER_PORT_SLOTS);
        // Per-link accessors agree with the hardware shape.
        let rx = net.fabric.endpoint_down_link(NodeAddr(0));
        assert!(net.fabric.link_ends_at_endpoint(rx));
        assert_eq!(net.fabric.link_cap(rx), ENDPOINT_RX_SLOTS);
        assert!(net.fabric.link_depth_hwm(rx) >= 1);
        let up = net.fabric.endpoint_up_link(NodeAddr(1));
        assert!(!net.fabric.link_ends_at_endpoint(up));
        assert_eq!(net.fabric.link_cap(up), CLUSTER_PORT_SLOTS);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::driver::StandaloneNet;
    use crate::frame::Payload;

    /// Scripted hook: drop/corrupt/delay chosen arrival ordinals on one link.
    struct Script {
        link: LinkId,
        seen: u64,
        drop: Vec<u64>,
        corrupt: Vec<u64>,
        delay: Vec<(u64, u64)>,
    }

    impl Script {
        fn new(link: LinkId) -> Self {
            Script {
                link,
                seen: 0,
                drop: vec![],
                corrupt: vec![],
                delay: vec![],
            }
        }
    }

    impl FaultHook for Script {
        fn on_transit(&mut self, link: LinkId, _frame: &Frame, _now: u64, _hop: u64) -> Transit {
            if link != self.link {
                return Transit::Deliver;
            }
            self.seen += 1;
            if self.drop.contains(&self.seen) {
                Transit::Drop
            } else if self.corrupt.contains(&self.seen) {
                Transit::Corrupt
            } else if let Some(&(_, d)) = self.delay.iter().find(|(n, _)| *n == self.seen) {
                Transit::Delay(d)
            } else {
                Transit::Deliver
            }
        }
    }

    #[test]
    fn dropped_frame_frees_its_buffer_slot() {
        let fabric = Fabric::new(
            Topology::single_cluster(2).unwrap(),
            NetConfig::paper_1988(),
        );
        let rx_link = fabric.endpoint_down_link(NodeAddr(1));
        let mut script = Script::new(rx_link);
        script.drop = vec![2];
        let mut net = StandaloneNet::new(fabric).with_faults(Box::new(script));
        for seq in 0..4 {
            net.send_at(
                0,
                Frame::unicast(NodeAddr(0), NodeAddr(1), 0, seq, Payload::Synthetic(64)),
            );
        }
        // run() itself asserts in_flight == 0: the dropped frame released
        // its reservation instead of wedging the store-and-forward buffers.
        net.run();
        let seqs: Vec<u64> = net.delivered.iter().map(|(_, _, f)| f.seq).collect();
        assert_eq!(seqs, vec![0, 2, 3]);
        assert_eq!(net.fabric.stats.frames_dropped, 1);
        assert_eq!(net.fabric.stats.frames_sent, 4);
        assert_eq!(net.fabric.stats.frames_delivered, 3);
    }

    #[test]
    fn corrupted_frame_arrives_flagged() {
        let fabric = Fabric::new(
            Topology::single_cluster(2).unwrap(),
            NetConfig::paper_1988(),
        );
        let rx_link = fabric.endpoint_down_link(NodeAddr(1));
        let mut script = Script::new(rx_link);
        script.corrupt = vec![1];
        let mut net = StandaloneNet::new(fabric).with_faults(Box::new(script));
        for seq in 0..2 {
            net.send_at(
                0,
                Frame::unicast(NodeAddr(0), NodeAddr(1), 0, seq, Payload::Synthetic(8)),
            );
        }
        net.run();
        assert_eq!(net.delivered.len(), 2);
        assert!(net.delivered[0].2.corrupted);
        assert!(!net.delivered[1].2.corrupted);
        assert_eq!(net.fabric.stats.frames_corrupted, 1);
    }

    #[test]
    fn delayed_frame_arrives_late_but_intact() {
        let fabric = Fabric::new(
            Topology::single_cluster(2).unwrap(),
            NetConfig::paper_1988(),
        );
        let rx_link = fabric.endpoint_down_link(NodeAddr(1));
        let mut script = Script::new(rx_link);
        script.delay = vec![(1, 1_000_000)];
        let mut net = StandaloneNet::new(fabric).with_faults(Box::new(script));
        net.send_at(
            0,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 7, Payload::Synthetic(4)),
        );
        net.run();
        assert_eq!(net.delivered.len(), 1);
        // Fault-free transit is 2 * (40*50 + 500); the delay adds 1 ms.
        assert_eq!(net.delivered[0].0, 2 * (40 * 50 + 500) + 1_000_000);
        assert!(!net.delivered[0].2.corrupted);
    }

    #[test]
    fn down_endpoint_loses_traffic_until_restart() {
        let topo = Topology::single_cluster(3).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        net.apply(|f, out| f.set_endpoint_down(0, NodeAddr(2), true, out));
        assert!(!net.fabric.can_send(NodeAddr(2)));
        for seq in 0..3 {
            net.send_at(
                0,
                Frame::unicast(NodeAddr(0), NodeAddr(2), 0, seq, Payload::Synthetic(128)),
            );
        }
        net.run();
        assert!(net.delivered.is_empty());
        assert_eq!(net.fabric.stats.frames_dropped, 3);
        // Restart: the interface is cold but alive again.
        let now = net.now();
        net.apply(|f, out| f.set_endpoint_down(now, NodeAddr(2), false, out));
        let t = net.now();
        net.send_at(
            t,
            Frame::unicast(NodeAddr(0), NodeAddr(2), 0, 99, Payload::Synthetic(128)),
        );
        net.run();
        assert_eq!(net.delivered.len(), 1);
        assert_eq!(net.delivered[0].2.seq, 99);
    }

    /// Hook that counts down-drops (frames lost to a mid-flight link cut).
    #[derive(Default)]
    struct DownCounter {
        down_drops: u64,
    }

    impl FaultHook for DownCounter {
        fn on_transit(&mut self, _link: LinkId, _frame: &Frame, _now: u64, _hop: u64) -> Transit {
            Transit::Deliver
        }
        fn on_down_drop(&mut self, _link: LinkId) {
            self.down_drops += 1;
        }
    }

    #[test]
    fn link_down_drops_mid_flight_frame() {
        // A frame already serialized onto a link when the link goes down
        // must never be delivered after the down edge.
        let mut f = Fabric::new(
            Topology::single_cluster(2).unwrap(),
            NetConfig::paper_1988(),
        );
        let up = f.endpoint_up_link(NodeAddr(0));
        let mut out = Output::default();
        f.try_send(
            0,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 5, Payload::Synthetic(64)),
            &mut out,
        )
        .unwrap();
        let mut cut = Output::default();
        f.set_link_down(1, up, true, &mut cut);
        assert!(cut.schedule.is_empty());
        let mut hook = DownCounter::default();
        for (delay, ev) in out.schedule {
            let mut more = Output::default();
            f.handle_with(1 + delay, ev, &mut hook, &mut more);
            assert!(
                !more
                    .notifies
                    .iter()
                    .any(|n| matches!(n, Notify::RxArrived(_))),
                "nothing may be delivered after the down edge"
            );
        }
        assert_eq!(hook.down_drops, 1);
        assert_eq!(f.stats.frames_dropped, 1);
        assert_eq!(f.rx_depth(NodeAddr(1)), 0);
        assert_eq!(f.in_flight(), 0);
    }

    #[test]
    fn dead_cluster_link_reroutes_traffic() {
        // 4-cluster hypercube: c0-c1-c3 and c0-c2-c3. Node 0 (c0) to node 3
        // (c3) routes via c1 by the two-phase rule; with c0->c1 cut, the
        // frame must arrive via c2 and be counted as rerouted.
        let topo = Topology::incomplete_hypercube(4, 1).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        let l = net.fabric.cluster_link(ClusterId(0), ClusterId(1)).unwrap();
        net.apply(|f, out| f.set_link_down(0, l, true, out));
        net.send_at(
            0,
            Frame::unicast(NodeAddr(0), NodeAddr(3), 0, 0, Payload::Synthetic(16)),
        );
        net.run();
        assert_eq!(net.delivered.len(), 1);
        assert_eq!(net.delivered[0].1, NodeAddr(3));
        assert!(net.fabric.stats.frames_rerouted > 0);
        assert_eq!(net.fabric.stats.frames_dropped, 0);
    }

    #[test]
    fn unroutable_traffic_drops_instead_of_wedging() {
        // Two clusters, one cable. Cut both directions: traffic between
        // them is dropped (flow-control slots freed), never stuck.
        let topo = Topology::incomplete_hypercube(2, 1).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        let a = net.fabric.cluster_link(ClusterId(0), ClusterId(1)).unwrap();
        let b = net.fabric.cluster_link(ClusterId(1), ClusterId(0)).unwrap();
        for l in [a, b] {
            net.apply(|f, out| f.set_link_down(0, l, true, out));
        }
        net.send_at(
            0,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 0, Payload::Synthetic(16)),
        );
        // run() asserts in_flight == 0: the unroutable frame freed its slot.
        net.run();
        assert!(net.delivered.is_empty());
        assert!(net.fabric.stats.frames_dropped >= 1);
        // Heal both directions: traffic flows again on baseline routes.
        for l in [a, b] {
            let now = net.now();
            net.apply(|f, out| f.set_link_down(now, l, false, out));
        }
        let t = net.now();
        net.send_at(
            t,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 1, Payload::Synthetic(16)),
        );
        net.run();
        assert_eq!(net.delivered.len(), 1);
        assert_eq!(net.delivered[0].2.seq, 1);
    }

    #[test]
    fn crash_purges_rx_fifo_without_leaking_in_flight() {
        let topo = Topology::single_cluster(2).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        // Deliver a frame into n1's FIFO by hand: send, run, but don't pop —
        // the StandaloneNet pops instantly, so instead crash mid-flight.
        net.send_at(
            0,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 0, Payload::Synthetic(1024)),
        );
        // Crash n1 at t=1 (during serialization of the first hop).
        net.run_inner();
        assert_eq!(net.delivered.len(), 1, "sanity: fault-free delivery");
        let now = net.now();
        net.apply(|f, out| f.set_endpoint_down(now, NodeAddr(1), true, out));
        let t = net.now();
        net.send_at(
            t,
            Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 1, Payload::Synthetic(1024)),
        );
        net.run();
        assert_eq!(net.delivered.len(), 1, "frame to dead node is lost");
        assert_eq!(net.fabric.stats.frames_dropped, 1);
        assert_eq!(net.fabric.in_flight(), 0);
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;
    use crate::driver::StandaloneNet;
    use crate::frame::Payload;

    #[test]
    fn link_report_names_and_accounts() {
        let topo = Topology::incomplete_hypercube(2, 2).unwrap();
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        net.send_at(
            0,
            Frame::unicast(NodeAddr(0), NodeAddr(3), 0, 0, Payload::Synthetic(100)),
        );
        net.run();
        let report = net.fabric.link_report();
        // 4 endpoints x 2 links + 2 inter-cluster links.
        assert_eq!(report.len(), net.fabric.n_links());
        assert_eq!(report.len(), 10);
        // The frame crossed clusters: some inter-cluster link was busy.
        let cross_busy = report
            .iter()
            .any(|(_, d, busy, _)| d.contains("c0p0") && d.contains("c1p0") && *busy > 0);
        assert!(cross_busy, "{report:?}");
        // Quiescent: nothing buffered anywhere.
        assert!(report.iter().all(|(_, _, _, buffered)| *buffered == 0));
    }

    /// `cluster_link` answers from the 12 ports of `from`; the scan over
    /// every link it replaced is the reference. Standby gateway cables and
    /// parallel builder cables give pairs with two candidates: lowest id wins.
    #[test]
    fn cluster_link_matches_the_full_link_scan() {
        use crate::topology::TopologyBuilder;
        let mut b = TopologyBuilder::new();
        let cs: Vec<_> = (0..3).map(|_| b.add_cluster()).collect();
        // c0 = c1 twice (the higher ports wired first), c1 - c2 once.
        for (a, pa, z, pz) in [(0, 5, 1, 2), (0, 1, 1, 7), (1, 0, 2, 0)] {
            let (a, z) = (
                PortRef {
                    cluster: cs[a],
                    port: pa,
                },
                PortRef {
                    cluster: cs[z],
                    port: pz,
                },
            );
            b.connect(a, z).unwrap();
        }
        let worlds = [
            Topology::hierarchical_hypercube_redundant(&[4, 2], 1).unwrap(),
            b.build().unwrap(),
        ];
        for topo in worlds {
            let f = Fabric::new(topo, NetConfig::paper_1988());
            let n = f.topology().n_clusters() as u32;
            let mut wired = 0;
            for (from, to) in (0..n).flat_map(|a| (0..n).map(move |z| (ClusterId(a), ClusterId(z))))
            {
                let scan = f.links.wires.iter().position(|l| {
                    matches!((l.from, l.to), (Element::Port(a), Element::Port(b))
                        if a.cluster == from && b.cluster == to)
                });
                assert_eq!(
                    f.cluster_link(from, to),
                    scan.map(|i| LinkId(i as u32)),
                    "{from:?} -> {to:?}"
                );
                wired += usize::from(scan.is_some());
            }
            assert!(wired > 0);
        }
    }
}
