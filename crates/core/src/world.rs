//! The simulated world: the fabric, every node's kernel state, the host
//! stubs, the resource managers, and the measurement trace.

use desim::{
    sync::WaitSet, Ctx, FaultEvent, FaultSchedule, FirstTouch, FixedMap, ProcId, Scheduler,
    SimDuration, SimTime, Simulation, Trace, Wakeup,
};
use hpcnet::{ClusterId, Fabric, Frame, NetConfig, NodeAddr, Topology};

use crate::alloc::Allocator;
use crate::calib::Calibration;
use crate::channel::{ChanEnd, ChanSlab};
use crate::cpu::{BlockReason, Cpu, CpuCat, TraceEvent};
use crate::fault::CtlPending;
use crate::objmgr::{Managers, MgrState, Name, ObjMgrMode};
use crate::udco::Udco;

/// Process context over the VORX world.
pub type VCtx = Ctx<World>;
/// Scheduler over the VORX world.
pub type VSched = Scheduler<World>;

/// Result slot for an in-flight channel open.
#[derive(Debug)]
pub enum OpenResult {
    /// Request sent, no reply yet. Carries everything needed to retransmit
    /// the request or re-resolve it after a manager restart.
    Pending {
        /// The object manager this request was routed to.
        mgr: NodeAddr,
        /// The rendezvous name.
        name: crate::objmgr::Name,
        /// Channel or UDCO.
        kind: crate::proto::ObjKind,
        /// The manager acknowledged receipt (`KIND_OPEN_QUEUED`); stop
        /// retransmitting and park until the reply.
        queued: bool,
        /// The request's retransmit chain, disarmed when the request
        /// resolves so it cannot drag the simulated clock out to its fire
        /// time.
        chain: crate::retry::Chain,
    },
    /// Manager matched us: `(object id, peer node)`.
    Done(u32, NodeAddr),
    /// The open cannot complete (manager unreachable, node crashed).
    Failed(crate::VorxError),
}

mod table;

pub use table::{NodeRows, Queue, Table};

/// Where a blocking kernel call stands: what the kernel updates as replies
/// come in and its caller reads at every wake.
#[derive(Debug)]
pub enum CallState {
    /// A channel or UDCO open through the object manager (§3.2).
    Open(OpenResult),
    /// A UNIX system call forwarded to the stub on host node `host` (§3.3),
    /// and its answer once one came.
    Syscall {
        /// The host node serving the call.
        host: NodeAddr,
        /// The reply, or the host's death.
        ret: Option<crate::VorxResult<crate::host::SyscallRet>>,
    },
    /// A multicast write (§4.2), and the acks it still misses.
    Mcast {
        /// Acks still missing.
        missing: usize,
    },
}

impl CallState {
    /// True once the call has its answer.
    fn answered(&self) -> bool {
        match self {
            CallState::Open(r) => !matches!(r, OpenResult::Pending { .. }),
            CallState::Syscall { ret, .. } => ret.is_some(),
            CallState::Mcast { missing } => *missing == 0,
        }
    }
}

/// One blocking kernel call: its state, and the process that issued it and
/// parks on it until the state answers.
#[derive(Debug)]
pub struct Call {
    /// Where the call stands.
    pub state: CallState,
    /// The calling process.
    pub caller: ProcId,
}

/// What a node keeps outside the world tables: its address, liveness and
/// boot count, the processor (CPU model, receive-service flag, the
/// processes waiting for the restart or for the output register), the
/// manager's counters, and the subprocess scheduler, boxed because few
/// nodes run one.
pub struct Node {
    /// This node's fabric address.
    pub addr: NodeAddr,
    /// False while the node is crashed: a crash replaces the node with a
    /// cold one and frames die at its interface.
    pub up: bool,
    /// The kernel receive-service loop is active.
    pub rx_in_service: bool,
    /// Crashes this node has taken: a call that spans a wait reads it on
    /// both sides to tell that its node went down and came back between.
    pub incarnation: u32,
    /// Processes parked in [`crate::fault::wait_until_up`] for this node.
    pub up_waiters: WaitSet,
    /// The node's CPU.
    pub cpu: Cpu,
    /// Processes blocked waiting to inject a frame (user-level senders).
    pub tx_waiters: WaitSet,
    /// Object-manager counters (every node can serve opens); the manager's
    /// tables are [`World::managers`].
    pub mgr: MgrState,
    /// Subprocess scheduler state (§5), from the first subprocess on.
    pub sched: Option<Box<crate::sched::SchedState>>,
}

// What a materialized node costs before it holds anything: 144 bytes on
// x86-64, its boot count included. It was 152 while it kept the counters
// of a per-node resolve cache, 776 while it kept its channel index, its
// queues and a dozen maps of its own, and 1,056 with a `RandomState` in
// each map.
const _: () = assert!(size_of::<Node>() <= 256);

impl Node {
    /// Everything a node owns, empty: a booted node, the idle template, and
    /// (through [`Node::reborn`]) what a crash leaves in the node's slot.
    /// What a node holds a row of — channel ends, opens, queued frames,
    /// objects, manager entries — lives in the world tables,
    /// which [`World::wipe_node`] empties of a crashed node's rows.
    fn new(addr: NodeAddr) -> Self {
        Node {
            addr,
            up: true,
            rx_in_service: false,
            incarnation: 0,
            up_waiters: WaitSet::new(),
            cpu: Cpu::new(),
            tx_waiters: WaitSet::new(),
            mgr: MgrState::default(),
            sched: None,
        }
    }

    /// The cold node that takes a crashed node's slot: [`Node::new`],
    /// marked down, one incarnation on. Only what is the processor's rather
    /// than its kernel's moves over from `crashed`: the CPU model and the
    /// processes waiting for the restart.
    fn reborn(crashed: &mut Node) -> Self {
        let mut n = Node::new(crashed.addr);
        n.up = false;
        n.incarnation = crashed.incarnation + 1;
        std::mem::swap(&mut n.cpu, &mut crashed.cpu);
        std::mem::swap(&mut n.up_waiters, &mut crashed.up_waiters);
        n
    }

    /// The node's subprocess scheduler; a node that never ran a subprocess
    /// reads as an empty one.
    pub fn sched(&self) -> &crate::sched::SchedState {
        self.sched.as_deref().unwrap_or(&crate::sched::NO_SUBPROCS)
    }

    /// Mutable [`Node::sched`], built on first use.
    pub fn sched_mut(&mut self) -> &mut crate::sched::SchedState {
        self.sched.get_or_insert_default()
    }
}

/// Kernel-state table with O(1) idle-node cost (DESIGN.md §14).
///
/// A million-endpoint world cannot afford a full [`Node`] per endpoint that
/// never does anything: one zeroed `u32` per endpoint, and a `Node`
/// materialized only on first *write* ([`World::node_mut`]: the kernel
/// charges CPU, opens a channel, or delivers a frame there). Reads of an
/// untouched node resolve to the idle template: a node that is up, with an
/// idle CPU — exactly the state a fresh `Node::new` would observe — so every
/// read path works unchanged on never-touched endpoints. `table[i]` and
/// `table.iter()` cover all `len()` addresses, idle stand-ins included;
/// `table.touched()` walks only the materialized nodes, in address order.
pub type NodeTable = FirstTouch<Node>;

/// Node `a` of `nodes`, materialized on first touch: [`World::node_mut`]
/// for a caller that holds another of the world's tables.
pub(crate) fn node_in(nodes: &mut NodeTable, a: NodeAddr) -> &mut Node {
    nodes.get_or_insert_with(a.0 as usize, || Node::new(a))
}

/// Cross-shard bridge state for the sharded engine (DESIGN.md §12).
///
/// In a sharded build every shard owns one cluster's nodes and runs them in
/// a `World` of its own, whose fabric shares the machine's wiring with every
/// other shard's (DESIGN.md §12); frames whose destination lives on another
/// shard never enter the local fabric — the kernel parks them in `outbox`
/// with a delivery time computed from the fabric's per-link physics, and the
/// engine drains the outbox after every shard step and routes each frame
/// through the destination shard's mailbox. Sequential builds carry the
/// all-defaults value — one shard — where every check short-circuits, and
/// so does a one-shard sharded build, whose every frame is local.
pub struct ShardCtx {
    /// This shard's index (== its cluster id under the cluster partition).
    pub shard_id: usize,
    /// Total number of shards: the stride of channel-id and token
    /// allocation, so that managers on different shards assign ids without
    /// coordinating.
    pub n_shards: usize,
    /// Owning shard per node address, shared (not cloned) across shards —
    /// at a million endpoints this table is the dominant per-shard cost.
    pub shard_of_node: std::sync::Arc<Vec<u32>>,
    /// Output registers currently serializing a bridged frame, per node.
    /// Only this shard's own nodes are ever set.
    pub tx_busy: Vec<bool>,
    /// Cross-shard frames produced since the engine last drained us.
    pub outbox: Vec<desim::OutMsg<Frame>>,
}

impl Default for ShardCtx {
    fn default() -> Self {
        ShardCtx {
            shard_id: 0,
            n_shards: 1,
            shard_of_node: std::sync::Arc::new(Vec::new()),
            tx_busy: Vec::new(),
            outbox: Vec::new(),
        }
    }
}

impl ShardCtx {
    /// True when frames may cross to another shard: this world is one of
    /// several shards of a [`VorxShardedSim`].
    pub fn bridged(&self) -> bool {
        self.n_shards > 1
    }

    /// Owning shard of node `a`.
    pub fn owner(&self, a: NodeAddr) -> usize {
        self.shard_of_node[a.0 as usize] as usize
    }

    /// True iff `a` lives on a different shard than this world.
    pub fn is_remote(&self, a: NodeAddr) -> bool {
        self.bridged() && self.shard_of_node[a.0 as usize] as usize != self.shard_id
    }

    /// True iff `a`'s output register is busy with a bridged serialization.
    pub fn tx_busy(&self, a: NodeAddr) -> bool {
        self.bridged() && self.tx_busy[a.0 as usize]
    }
}

/// World tables keyed by node: the length of [`World::tables`].
const TABLES: usize = 17;

/// Every world table keyed by node, named, as `&dyn NodeRows` — or, given
/// `mut`, as `&mut dyn NodeRows`. Listed once, here: [`World::tables`] and
/// [`World::wipe_node`] are its two readers.
macro_rules! node_tables {
    ($w:ident $(, $m:tt)?) => {
        [
            ("chan_ends", &$($m)? $w.chan_ends.ends as &$($m)? dyn NodeRows),
            ("calls", &$($m)? $w.calls),
            ("ctl_unacked", &$($m)? $w.ctl_unacked),
            ("tx_q", &$($m)? $w.tx_q.rows),
            ("orphans", &$($m)? $w.orphans.rows),
            ("udcos", &$($m)? $w.udcos),
            ("listeners", &$($m)? $w.listeners),
            ("mcast", &$($m)? $w.mcast),
            ("coll", &$($m)? $w.coll),
            ("managers.pending", &$($m)? $w.managers.pending),
            ("managers.servers", &$($m)? $w.managers.servers),
            ("managers.seen", &$($m)? $w.managers.seen),
            ("mbr.partitioned", &$($m)? $w.mbr.partitioned),
            ("mbr.probing", &$($m)? $w.mbr.probing),
            ("mbr.peer_rtt", &$($m)? $w.mbr.peer_rtt),
            ("stubs", &$($m)? $w.stubs),
            ("stub_of", &$($m)? $w.stub_of),
        ]
    };
}

/// What a crash takes off a node, for [`crate::fault::on_crash`] to wake.
pub(crate) struct Wiped {
    /// The crashed node: its wait sets.
    pub node: Node,
    /// Its channel ends, in id order.
    pub ends: Vec<ChanEnd>,
    /// The callers of its blocking calls, in token order.
    pub callers: Vec<ProcId>,
}

/// The complete state of a simulated HPC/VORX installation.
pub struct World {
    /// Software cost model.
    pub calib: Calibration,
    /// The HPC interconnect.
    pub net: Fabric,
    /// Kernel state per endpoint, materialized on first touch.
    pub nodes: NodeTable,
    /// Every node's channel ends, by node and channel id.
    pub chan_ends: ChanSlab,
    /// Blocking calls — opens, forwarded syscalls and multicast writes —
    /// by calling node and token, each with its one caller.
    pub calls: Table<u64, Call>,
    /// Reliably-delivered control frames awaiting their `KIND_CTL_ACK`, by
    /// sending node and the frame's `seq`.
    pub ctl_unacked: Table<u64, CtlPending>,
    /// Kernel frames waiting for a node's hardware output register.
    pub tx_q: Queue<Frame>,
    /// Data frames that arrived before their channel end, UDCO or group
    /// existed (the open-reply race); re-dispatched when it is created.
    pub orphans: Queue<Frame>,
    /// User-defined communications objects, by node and tag.
    pub udcos: Table<u16, Udco>,
    /// Listening server names (§4 name reuse), by node and name.
    pub listeners: Table<Name, crate::channel::ListenState>,
    /// Multicast group receiver ends (§4.2), by node and group.
    pub mcast: Table<u16, crate::multicast::McastEnd>,
    /// Collective protocol state (DESIGN.md §16), by node and group.
    pub coll: Table<u32, crate::collective::CollNodeState>,
    /// Object-manager tables of every node's manager role.
    pub managers: Managers,
    /// Membership state: which peers each node believes are partitioned
    /// away, and which it is probing with heartbeats.
    pub mbr: crate::membership::Membership,
    /// Object-manager configuration.
    pub objmgr_mode: ObjMgrMode,
    /// Processor allocator (§3.1).
    pub alloc: Allocator,
    /// Host workstations (§3.3): host `h` is node `h`, for `h < n_hosts`.
    pub n_hosts: usize,
    /// Stub processes (§3.3), by host node and stub id
    /// ([`crate::host::SERVICE_STUB`] for the shared service stub).
    pub stubs: Table<u32, crate::host::Stub>,
    /// The stub serving each client node, by host node and client node.
    pub stub_of: Table<u32, u32>,
    /// Per-host application resource managers' registry (§3.2).
    pub appmgr: crate::appmgr::AppRegistry,
    /// Debugger registry (`vdb`, §6).
    pub dbg: crate::debug::DbgState,
    /// Measurement trace (oscilloscope, profiler).
    pub trace: Trace<TraceEvent>,
    /// Fault-injection plane: the seeded schedule plus recovery statistics.
    pub faults: crate::fault::FaultState,
    /// Next channel id.
    pub next_chan: u32,
    /// Next open token / generic correlation id.
    pub next_token: u64,
    /// Registered collective groups, by group id (DESIGN.md §16).
    pub coll_groups: FixedMap<u32, crate::collective::Group>,
    /// Sharded-engine bridge state; inert defaults in sequential builds.
    pub shard: ShardCtx,
    /// Emptied fabric outputs awaiting reuse (see
    /// [`crate::kernel::fabric_step`]).
    pub(crate) net_outputs: Vec<hpcnet::Output>,
}

impl World {
    /// Mutable access to a node's kernel state (materializes it).
    pub fn node_mut(&mut self, a: NodeAddr) -> &mut Node {
        node_in(&mut self.nodes, a)
    }

    /// Shared access to a node's kernel state; untouched nodes read as
    /// the idle template (up, empty tables) without materializing.
    pub fn node(&self, a: NodeAddr) -> &Node {
        &self.nodes[a.0 as usize]
    }

    /// Issue node `a`'s blocking call `token` for `caller`, in `state`
    /// (materializes `a`).
    pub(crate) fn issue(&mut self, a: NodeAddr, token: u64, caller: ProcId, state: CallState) {
        self.node_mut(a);
        self.calls.insert(a, token, Call { state, caller });
    }

    /// Node `a`'s open `token`, while it is on the table.
    pub(crate) fn open_mut(&mut self, a: NodeAddr, token: u64) -> Option<&mut OpenResult> {
        match &mut self.calls.get_mut(a, &token)?.state {
            CallState::Open(r) => Some(r),
            _ => None,
        }
    }

    /// Update node `a`'s call `token` with `update`; if that answers it,
    /// wake its caller — and no one else.
    pub(crate) fn answer(
        &mut self,
        s: &mut VSched,
        a: NodeAddr,
        token: u64,
        update: impl FnOnce(&mut CallState),
    ) {
        let Some(call) = self.calls.get_mut(a, &token) else {
            return;
        };
        let was = call.state.answered();
        update(&mut call.state);
        if !was && call.state.answered() {
            s.wake(call.caller, Wakeup::START);
        }
    }

    /// The one poll of a blocking call: `None` while node `a`'s call
    /// `token` waits; once answered, its state, taken off the table, or
    /// `Some(None)` if a crash of `a` wiped it.
    pub(crate) fn poll_call(&mut self, a: NodeAddr, token: u64) -> Option<Option<CallState>> {
        match self.calls.get(a, &token) {
            Some(c) if !c.state.answered() => None,
            _ => Some(self.calls.remove(a, &token).map(|c| c.state)),
        }
    }

    /// Node `a`'s control frame `seq` is answered or abandoned: take it off
    /// the table.
    pub(crate) fn take_ctl_unacked(&mut self, a: NodeAddr, seq: u64) -> Option<CtlPending> {
        self.ctl_unacked.remove(a, &seq)
    }

    /// Every world table keyed by node, by name: the one list
    /// a crash's wipe empties of the node's rows and
    /// [`World::owns_nothing`] reads.
    pub fn tables(&self) -> [(&'static str, &dyn NodeRows); TABLES] {
        node_tables!(self)
    }

    /// True iff no world table ([`World::tables`]) holds a row of node
    /// `a`: the node is idle if up and cold if down, and costs its
    /// [`Node`] alone, or only its slot if never materialized. Every
    /// write of a row materializes its node first, so a walk over
    /// `nodes.touched()` finds every node owning something.
    pub fn owns_nothing(&self, a: NodeAddr) -> bool {
        self.tables().iter().all(|(_, t)| !t.holds(a))
    }

    /// Crash node `a`'s kernel: a [`Node::reborn`] takes its slot, and its
    /// rows leave every world table, each table's in key order. Returns
    /// what the caller wakes: the crashed node's wait sets, its channel
    /// ends in id order and the callers of its blocking calls in token
    /// order. Dropping the rows disarms every retry chain the node owned.
    pub(crate) fn wipe_node(&mut self, a: NodeAddr) -> Wiped {
        let slot = self.node_mut(a);
        let reborn = Node::reborn(slot);
        let node = std::mem::replace(slot, reborn);
        let ends = self.chan_ends.remove_all(a);
        let callers = self.calls.wipe(a).into_iter();
        let callers = callers.map(|(_, c)| c.caller).collect();
        let tables: [(&'static str, &mut dyn NodeRows); TABLES] = node_tables!(self, mut);
        for (_, t) in tables {
            t.drop_rows(a);
        }
        Wiped {
            node,
            ends,
            callers,
        }
    }

    /// Allocate a fresh correlation token. Sharded builds stride by the
    /// shard count from a per-shard offset, so tokens are globally unique
    /// without coordination; sequential builds stride by 1.
    pub fn token(&mut self) -> u64 {
        self.next_token += self.shard.n_shards as u64;
        self.next_token
    }

    /// Allocate a fresh channel id (same striping rule as [`World::token`]).
    pub fn alloc_chan(&mut self) -> u32 {
        let id = self.next_chan;
        self.next_chan += self.shard.n_shards as u32;
        id
    }

    /// Charge `d` of *system* (interrupt-priority) CPU time on node `a`
    /// starting at `now` or when earlier system work completes; records the
    /// interval in the trace and returns its end time. System work preempts
    /// user compute (see [`crate::cpu`]); user time is charged through
    /// [`crate::api::compute`], which handles the preemption extension.
    pub fn charge(&mut self, now: SimTime, a: NodeAddr, cat: CpuCat, d: SimDuration) -> SimTime {
        debug_assert_eq!(
            cat,
            CpuCat::System,
            "user compute must go through api::compute"
        );
        let (start, end) = self.node_mut(a).cpu.reserve_system(now, d);
        if self.trace.is_enabled() && !d.is_zero() {
            self.trace.record(
                now,
                TraceEvent::Cpu {
                    node: a.0,
                    cat,
                    start_ns: start.as_ns(),
                    end_ns: end.as_ns(),
                },
            );
        }
        end
    }

    /// Record that a process on `a` blocked for `reason`.
    pub fn block(&mut self, now: SimTime, a: NodeAddr, reason: BlockReason) {
        self.trace
            .record(now, TraceEvent::Block { node: a.0, reason });
    }

    /// Record that a process on `a` unblocked.
    pub fn unblock(&mut self, now: SimTime, a: NodeAddr, reason: BlockReason) {
        self.trace
            .record(now, TraceEvent::Unblock { node: a.0, reason });
    }

    /// Per-link fault counters from the installed desim schedule (drops,
    /// corruptions, delays, down-drops, downs), keyed by link id. Empty on
    /// links that never saw a fault.
    pub fn link_fault_stats(&self) -> &std::collections::BTreeMap<u32, desim::LinkStats> {
        self.faults.schedule.link_stats()
    }
}

impl desim::ShardWorld for World {
    type Msg = Frame;

    fn drain_outbox(&mut self, into: &mut Vec<desim::OutMsg<Frame>>) {
        // `append` moves the elements and keeps both buffers' capacity: the
        // engine's scratch vector and this outbox reach their high-water
        // marks once and are then allocation-free for the rest of the run.
        into.append(&mut self.shard.outbox);
    }

    fn deliver(&mut self, s: &mut Scheduler<World>, f: Frame) {
        // A bridged frame arrives exactly as hardware would deliver it: into
        // the destination endpoint's receive FIFO, raising the rx interrupt.
        let now = s.now().as_ns();
        crate::kernel::fabric_step(self, s, |w, out| w.net.inject_arrival(now, f, out));
    }
}

/// Builder for a simulated HPC/VORX installation.
pub struct VorxBuilder {
    topo: Topology,
    faults: Option<desim::FaultSchedule>,
    shards: Option<usize>,
    cfg: WorldCfg,
}

/// The builder's by-value settings: what a [`World`] is made from besides
/// its topology, fault schedule and shard context.
#[derive(Clone, Copy)]
struct WorldCfg {
    netcfg: NetConfig,
    calib: Calibration,
    objmgr_mode: ObjMgrMode,
    trace_enabled: bool,
    seed: u64,
    n_hosts: usize,
}

impl WorldCfg {
    /// The one place a `World` is assembled, for the sequential engine
    /// (`ShardCtx::default()`) and for each shard alike. Shard `k` offsets
    /// the channel-id and token counters by `k`; shard 0 — and so the
    /// sequential build — gets exactly 1 and 0, which is why a single-shard
    /// sharded run replays the sequential one byte-for-byte.
    ///
    /// The kernel's shed classifier is installed on `net`: only
    /// lowest-priority channel data fragments are eligible for overload
    /// shedding. With the default unbounded budget the classifier is never
    /// consulted on the drop path, so fault-free runs are byte-identical.
    fn world(self, mut net: Fabric, schedule: desim::FaultSchedule, shard: ShardCtx) -> World {
        net.set_sheddable(|f| crate::proto::is_sheddable_kind(f.kind));
        let n = net.topology().n_endpoints();
        let k = shard.shard_id as u64;
        World {
            calib: self.calib,
            net,
            nodes: NodeTable::new(n, Node::new(NodeAddr(u32::MAX))),
            objmgr_mode: self.objmgr_mode,
            alloc: Allocator::new(self.n_hosts, n),
            n_hosts: self.n_hosts,
            appmgr: crate::appmgr::AppRegistry::default(),
            dbg: crate::debug::DbgState::default(),
            trace: if self.trace_enabled {
                Trace::new()
            } else {
                Trace::disabled()
            },
            faults: crate::fault::FaultState::new(schedule),
            next_chan: 1 + k as u32,
            next_token: k,
            coll_groups: FixedMap::default(),
            chan_ends: ChanSlab::default(),
            calls: Table::default(),
            ctl_unacked: Table::default(),
            tx_q: Queue::default(),
            orphans: Queue::default(),
            udcos: Table::default(),
            listeners: Table::default(),
            mcast: Table::default(),
            coll: Table::default(),
            managers: Managers::default(),
            mbr: crate::membership::Membership::default(),
            stubs: Table::default(),
            stub_of: Table::default(),
            shard,
            net_outputs: Vec::new(),
        }
    }
}

impl VorxBuilder {
    /// A system whose endpoints all hang off one HPC cluster.
    pub fn single_cluster(n_endpoints: usize) -> Self {
        Self::with_topology(
            Topology::single_cluster(n_endpoints).expect("at most 12 endpoints per cluster"),
        )
    }

    /// The paper's incomplete-hypercube configuration.
    pub fn hypercube(n_clusters: usize, endpoints_per_cluster: usize) -> Self {
        Self::with_topology(
            Topology::incomplete_hypercube(n_clusters, endpoints_per_cluster)
                .expect("valid hypercube configuration"),
        )
    }

    /// Any custom topology.
    pub fn with_topology(topo: Topology) -> Self {
        VorxBuilder {
            topo,
            faults: None,
            shards: None,
            cfg: WorldCfg {
                netcfg: NetConfig::paper_1988(),
                calib: Calibration::paper_1988(),
                objmgr_mode: ObjMgrMode::Distributed,
                trace_enabled: true,
                seed: 0x5EED,
                n_hosts: 0,
            },
        }
    }

    /// Override the software cost model.
    pub fn calibration(mut self, c: Calibration) -> Self {
        self.cfg.calib = c;
        self
    }

    /// Override the hardware parameters.
    pub fn net_config(mut self, c: NetConfig) -> Self {
        self.cfg.netcfg = c;
        self
    }

    /// Select the object-manager architecture (§3.2).
    pub fn objmgr(mut self, m: ObjMgrMode) -> Self {
        self.cfg.objmgr_mode = m;
        self
    }

    /// Enable or disable trace recording (disable for long benchmarks).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.cfg.trace_enabled = enabled;
        self
    }

    /// Seed of the fault schedule built when [`VorxBuilder::faults`]
    /// installs none.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Install a deterministic fault schedule: node crash/restart instants
    /// fire as ordinary simulation events, and per-link message faults are
    /// drawn from the schedule's own seeded stream, so a given `(workload
    /// seed, fault seed)` pair replays bit-identically.
    pub fn faults(mut self, schedule: desim::FaultSchedule) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// Group clusters into exactly `n` shards for [`VorxBuilder::build_sharded`]
    /// instead of the default one-shard-per-cluster partition. Clusters map
    /// to shards in contiguous balanced blocks, so a hierarchical world's
    /// level-0 groups (where most traffic stays) land on one shard. The
    /// shard partition is part of the simulated outcome (it decides which
    /// frames ride the bridge approximation): traces are bit-identical
    /// across *worker* counts at a fixed shard count, not across different
    /// shard counts.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one shard");
        self.shards = Some(n);
        self
    }

    /// Designate the first `n` endpoints as host workstations (§3.3). Hosts
    /// get ids `0..n` and live on node addresses `0..n`; processing nodes
    /// occupy the remaining addresses.
    pub fn hosts(mut self, n: usize) -> Self {
        self.cfg.n_hosts = n;
        self
    }

    /// What both builds start from: the topology, checked against the
    /// host count, the settings, and the fault schedule — the installed
    /// one, or an empty one seeded from [`VorxBuilder::seed`] — with its
    /// events in time order.
    fn parts(self) -> (Topology, WorldCfg, FaultSchedule, Vec<FaultEvent>) {
        assert!(
            self.cfg.n_hosts <= self.topo.n_endpoints(),
            "more hosts than endpoints"
        );
        let schedule = self
            .faults
            .unwrap_or_else(|| FaultSchedule::new(self.cfg.seed));
        let mut events = schedule.events().to_vec();
        events.sort_by_key(|e| e.at);
        (self.topo, self.cfg, schedule, events)
    }

    /// Construct the simulation.
    pub fn build(self) -> VorxSim {
        let (topo, cfg, schedule, events) = self.parts();
        let net = Fabric::new(topo, cfg.netcfg);
        let world = cfg.world(net, schedule, ShardCtx::default());
        let vs = VorxSim {
            sim: Simulation::new(world),
        };
        spawn_fault_plane(&vs.sim, events);
        vs
    }

    /// Construct a sharded simulation: one shard per cluster (or as
    /// [`VorxBuilder::shards`] groups them), drained in parallel by up to
    /// `workers` threads (never more than the host's CPUs) under
    /// asynchronous conservative synchronization, with a per-shard-pair
    /// lookahead derived from the fabric's link physics (DESIGN.md §12).
    ///
    /// The shard partition — and with it every simulated outcome — is fixed
    /// by the topology; `workers` only chooses how many OS threads drain the
    /// shards, so any worker count produces the identical merged trace. With
    /// a single-cluster topology the one shard executes byte-for-byte like
    /// [`VorxBuilder::build`].
    pub fn build_sharded(self, workers: usize) -> VorxShardedSim {
        let n_clusters = self.topo.n_clusters();
        let n_shards = self.shards.unwrap_or(n_clusters).min(n_clusters);
        let (topo, cfg, schedule, events) = self.parts();
        let n = topo.n_endpoints();

        // Clusters map to shards in contiguous balanced blocks; with the
        // default one-shard-per-cluster partition this is the identity.
        let shard_of_cluster: Vec<u32> = (0..n_clusters)
            .map(|c| (c * n_shards / n_clusters) as u32)
            .collect();
        let shard_of_node: std::sync::Arc<Vec<u32>> = std::sync::Arc::new(
            topo.endpoints()
                .map(|a| shard_of_cluster[topo.cluster_of(a).0 as usize])
                .collect(),
        );

        // Engine lookahead: a bridged frame between endpoints of shards
        // `a` and `b` crosses its baseline route's links at `serialize +
        // hop` each (kernel::bridge), and no route is shorter than the
        // fewest links between the two shards' endpoints, each at least a
        // header-only frame's latency. `u64::MAX` — the diagonal, and a pair
        // no frame can join — leaves the pair out of the EIT.
        let unit_ns = hpcnet::config::header_link_latency_ns();
        let latency: Vec<Vec<u64>> = topo
            .min_shard_links(&shard_of_cluster)
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|links| links.map_or(u64::MAX, |l| l * unit_ns))
                    .collect()
            })
            .collect();

        // One wiring for the machine: every shard's fabric is a sibling of
        // this one, sharing its link table and the topology's tables, and
        // builds state only for the links its own traffic touches.
        let net = Fabric::new(topo, cfg.netcfg);
        // A fault belongs to the shard that owns what it hits; a link goes
        // with its owning cluster (endpoint links: the endpoint's,
        // inter-cluster cables: the `from` side's).
        let owner = |e: &desim::FaultEvent| match e.action {
            desim::FaultAction::Down(id) | desim::FaultAction::Up(id) => {
                shard_of_node[id as usize] as usize
            }
            desim::FaultAction::LinkDown(id)
            | desim::FaultAction::LinkUp(id)
            | desim::FaultAction::LinkDegrade(id) => {
                let c = net.link_owner_cluster(hpcnet::LinkId(id));
                shard_of_cluster[c.0 as usize] as usize
            }
            desim::FaultAction::BudgetSqueeze(c) => shard_of_cluster[c as usize] as usize,
        };

        let mut shards = Vec::with_capacity(n_shards);
        for k in 0..n_shards {
            let shard = ShardCtx {
                shard_id: k,
                n_shards,
                shard_of_node: std::sync::Arc::clone(&shard_of_node),
                tx_busy: vec![false; n],
                outbox: Vec::new(),
            };
            let world = cfg.world(net.sibling(), schedule.clone(), shard);
            let mine: Vec<desim::FaultEvent> =
                events.iter().copied().filter(|e| owner(e) == k).collect();
            let sim = Simulation::new(world);
            spawn_fault_plane(&sim, mine);
            shards.push(sim);
        }
        VorxShardedSim {
            engine: desim::ShardedSim::new(shards, latency, workers.max(1)),
            shard_of_node,
        }
    }
}

/// Spawn the fault plane: an ordinary simulated process applying the
/// schedule's crash/restart/link events. They interleave with the workload
/// through the same `(time, seq)` event order, which is what makes replay
/// exact. No-op when `events` is empty.
fn spawn_fault_plane(sim: &Simulation<World>, events: Vec<desim::FaultEvent>) {
    if events.is_empty() {
        return;
    }
    sim.spawn("fault-plane", move |ctx: VCtx| {
        for e in events {
            let now = ctx.now();
            if e.at > now {
                ctx.sleep(SimDuration::from_ns(e.at.as_ns() - now.as_ns()));
            }
            ctx.with(|w, s| match e.action {
                desim::FaultAction::Down(id) => {
                    crate::fault::on_crash(w, s, NodeAddr(id));
                }
                desim::FaultAction::Up(id) => {
                    crate::fault::on_restart(w, s, NodeAddr(id));
                }
                desim::FaultAction::LinkDown(id) => {
                    crate::fault::on_link_down(w, s, hpcnet::LinkId(id));
                }
                desim::FaultAction::LinkUp(id) => {
                    crate::fault::on_link_up(w, s, hpcnet::LinkId(id));
                }
                desim::FaultAction::LinkDegrade(id) => {
                    let _ = w.faults.schedule.apply_degrade(id);
                }
                desim::FaultAction::BudgetSqueeze(c) => {
                    let b = w.faults.schedule.apply_squeeze(c);
                    w.net.set_cluster_byte_budget(ClusterId(c), b);
                }
            });
        }
    });
}

/// A runnable HPC/VORX installation: a thin wrapper over
/// `desim::Simulation<World>` with VORX-flavoured conveniences.
pub struct VorxSim {
    /// The underlying simulation.
    pub sim: Simulation<World>,
}

impl VorxSim {
    /// Spawn a simulated process. By convention the closure's code runs "on"
    /// whatever node it charges CPU to; `name` should identify the node for
    /// diagnostics (e.g. `"n3:fft-worker"`).
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> desim::ProcId
    where
        F: FnOnce(VCtx) + Send + 'static,
    {
        self.sim.spawn(name, f)
    }

    /// Run to quiescence, returning the idle report.
    pub fn run(&mut self) -> desim::IdleReport {
        self.sim.run_to_idle()
    }

    /// Run to quiescence and assert every process finished (no deadlock).
    pub fn run_all(&mut self) -> SimTime {
        let report = self.sim.run_to_idle();
        assert!(
            report.all_finished(),
            "processes deadlocked: {:?}",
            report.parked
        );
        report.now
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Inspect or mutate the world between runs.
    pub fn world(&self) -> desim::WorldGuard<'_, World> {
        self.sim.world()
    }

    /// Number of endpoints.
    pub fn n_nodes(&self) -> usize {
        self.world().nodes.len()
    }
}

/// A sharded HPC/VORX installation: one [`World`] per cluster, run by the
/// conservative parallel engine ([`desim::ShardedSim`]).
///
/// Processes must be spawned on the shard owning the node they run on —
/// [`VorxShardedSim::spawn_at`] routes by node address. Simulated outcomes
/// are a function of the topology and seed only, never of the worker count.
pub struct VorxShardedSim {
    engine: desim::ShardedSim<World>,
    shard_of_node: std::sync::Arc<Vec<u32>>,
}

impl VorxShardedSim {
    /// Number of shards (clusters).
    pub fn n_shards(&self) -> usize {
        self.engine.n_shards()
    }

    /// Worker threads the run loop will use.
    pub fn workers(&self) -> usize {
        self.engine.workers()
    }

    /// The shard owning node `a`.
    pub fn shard_of(&self, a: NodeAddr) -> usize {
        self.shard_of_node[a.0 as usize] as usize
    }

    /// Spawn a simulated process on the shard owning `node`. The process
    /// must only touch that node's local state and communicate with other
    /// nodes through frames (channels, syscalls, multicast) — the same
    /// discipline real VORX software follows.
    pub fn spawn_at<F>(&self, node: NodeAddr, name: impl Into<String>, f: F) -> desim::ProcId
    where
        F: FnOnce(VCtx) + Send + 'static,
    {
        self.engine.shard(self.shard_of(node)).spawn(name, f)
    }

    /// Run to global quiescence, returning one idle report per shard.
    pub fn run(&mut self) -> Vec<desim::IdleReport> {
        self.engine.run_to_idle()
    }

    /// Run to quiescence and assert every process on every shard finished;
    /// returns the latest shard clock.
    pub fn run_all(&mut self) -> SimTime {
        let reports = self.run();
        for (k, r) in reports.iter().enumerate() {
            assert!(
                r.all_finished(),
                "shard {k}: processes deadlocked: {:?}",
                r.parked
            );
        }
        reports.iter().map(|r| r.now).max().unwrap_or(SimTime::ZERO)
    }

    /// Engine counters (run rounds, bridged messages, frontier bumps,
    /// per-shard event counts).
    pub fn stats(&self) -> &desim::PdesStats {
        self.engine.stats()
    }

    /// Introspection handle over the engine's frontiers and mailboxes, for
    /// deadlock watchdogs; stays valid while the engine runs elsewhere.
    pub fn monitor(&self) -> desim::PdesMonitor {
        self.engine.monitor()
    }

    /// Inspect or mutate one shard's world between runs.
    pub fn world(&self, shard: usize) -> desim::WorldGuard<'_, World> {
        self.engine.shard(shard).world()
    }

    /// Drain every shard's trace and merge them into one global trace,
    /// ordered by time with shard index breaking ties — identical for every
    /// worker count, and directly consumable by the measurement tools
    /// (oscilloscope, profiler) exactly like a sequential trace. Shards go on
    /// recording (or not) as built: a later call returns what came after.
    pub fn merged_trace(&mut self) -> Trace<TraceEvent> {
        let traces = (0..self.n_shards())
            .map(|k| self.world(k).trace.take())
            .collect();
        Trace::merge(traces)
    }

    /// Sum of a per-shard statistic over all shards.
    pub fn sum_over_shards<F: Fn(&World) -> u64>(&self, f: F) -> u64 {
        (0..self.n_shards()).map(|k| f(&self.world(k))).sum()
    }
}
