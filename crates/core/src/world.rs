//! The simulated world: the fabric, every node's kernel state, the hosts,
//! the resource managers, and the measurement trace.

use desim::{sync::WaitSet, Ctx, FixedMap, Scheduler, SimDuration, SimTime, Simulation, Trace};
use hpcnet::{ClusterId, Fabric, Frame, NetConfig, NodeAddr, Topology};

use crate::alloc::Allocator;
use crate::calib::Calibration;
use crate::channel::{ChanIndex, ChanSlab};
use crate::cpu::{BlockReason, Cpu, CpuCat, TraceEvent};
use crate::fault::CtlPending;
use crate::host::Host;
use crate::objmgr::{MgrState, ObjMgrMode};
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
        name: String,
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

/// Entries an emptied handshake table may keep room for
/// ([`World::end_handshake`]).
const HANDSHAKE_KEEP: usize = 16;

/// Per-node kernel state.
pub struct Node {
    /// This node's fabric address.
    pub addr: NodeAddr,
    /// False while the node is crashed; its kernel state is wiped at crash
    /// time and frames die at its interface.
    pub up: bool,
    /// Processes parked in [`crate::fault::wait_until_up`] for this node.
    pub up_waiters: WaitSet,
    /// The node's CPU.
    pub cpu: Cpu,
    /// Kernel frames waiting for the hardware output register.
    pub tx_q: std::collections::VecDeque<hpcnet::Frame>,
    /// Processes blocked waiting to inject a frame (user-level senders).
    pub tx_waiters: WaitSet,
    /// The kernel receive-service loop is active.
    pub rx_in_service: bool,
    /// Channel ends on this node: their slots in [`World::chan_ends`], by
    /// channel id ([`World::chan`] reads one).
    pub chans: ChanIndex,
    /// Processes blocked in `open`.
    pub open_waiters: WaitSet,
    /// User-defined communications objects on this node, by tag.
    pub udcos: FixedMap<u16, Udco>,
    /// In-flight forwarded syscalls from this node, by token.
    pub syscall_waits: FixedMap<u64, Option<crate::host::SyscallRet>>,
    /// Processes blocked in `syscall`.
    pub syscall_waiters: WaitSet,
    /// Listening server names on this node (§4 name reuse).
    pub listeners: FixedMap<String, crate::channel::ListenState>,
    /// Object-manager role state (every node can serve opens).
    pub mgr: MgrState,
    /// Epoch-guarded cache of name → serving-manager resolutions.
    pub resolve: crate::objmgr::ResolveCache,
    /// Membership state: which peers this node believes are partitioned
    /// away, and which it is currently probing with heartbeats.
    pub mbr: crate::membership::MbrState,
    /// Subprocess scheduler state (§5).
    pub sched: crate::sched::SchedState,
    /// Multicast group receiver ends (§4.2).
    pub mcast: FixedMap<u16, crate::multicast::McastEnd>,
    /// Outstanding multicast writes from this node, by sequence token.
    pub mcast_pending: FixedMap<u64, crate::multicast::McastPending>,
    /// Data frames that arrived before their channel end existed (the
    /// open-reply race); re-dispatched when the channel is created.
    pub orphans: Vec<hpcnet::Frame>,
    /// Collective protocol state per group (DESIGN.md §16).
    pub coll: FixedMap<u32, crate::collective::CollNodeState>,
}

// What a materialized node costs before its tables hold anything: 776
// bytes. It was 1,056 with a `RandomState` in each of its thirteen maps and
// its channel ends, open waits and unacknowledged control frames in maps of
// its own.
const _: () = assert!(size_of::<Node>() <= 776);

impl Node {
    fn new(addr: NodeAddr) -> Self {
        Node {
            addr,
            up: true,
            up_waiters: WaitSet::new(),
            cpu: Cpu::new(),
            tx_q: Default::default(),
            tx_waiters: WaitSet::new(),
            rx_in_service: false,
            chans: ChanIndex::default(),
            open_waiters: WaitSet::new(),
            syscall_waits: FixedMap::default(),
            syscall_waiters: WaitSet::new(),
            udcos: FixedMap::default(),
            listeners: FixedMap::default(),
            mgr: MgrState::default(),
            resolve: crate::objmgr::ResolveCache::default(),
            mbr: crate::membership::MbrState::default(),
            sched: crate::sched::SchedState::default(),
            mcast: FixedMap::default(),
            mcast_pending: FixedMap::default(),
            orphans: Vec::new(),
            coll: FixedMap::default(),
        }
    }
}

/// Kernel-state table with O(1) idle-node cost (DESIGN.md §14).
///
/// A million-endpoint world cannot afford a full [`Node`] — maps, queues,
/// wait sets, a CPU model — per endpoint that never does anything. The
/// table therefore holds one pointer-sized slot per endpoint and
/// materializes the `Node` only on first *write* (the first time the
/// kernel charges CPU, opens a channel, or delivers a frame there). Reads
/// of an untouched node resolve to the shared `idle` template: a node
/// that is up, with empty tables and an idle CPU — exactly the state a
/// fresh `Node::new` would observe — so every existing read path works
/// unchanged on never-touched endpoints.
///
/// Indexing is positional over the full address space: `table[i]` and
/// `table.iter()` cover all `len()` addresses (idle stand-ins included),
/// while [`NodeTable::materialized`] walks only the faulted-in nodes.
pub struct NodeTable {
    slots: Vec<Option<Box<Node>>>,
    idle: Box<Node>,
    materialized: usize,
}

impl NodeTable {
    /// A table for `n` endpoints, none materialized.
    pub fn new(n: usize) -> Self {
        NodeTable {
            slots: (0..n).map(|_| None).collect(),
            idle: Box::new(Node::new(NodeAddr(u32::MAX))),
            materialized: 0,
        }
    }

    /// Number of endpoint addresses (materialized or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff the address space is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Shared access; untouched nodes read as the idle template.
    pub fn get(&self, i: usize) -> &Node {
        assert!(i < self.slots.len(), "node index {i} out of range");
        self.slots[i].as_deref().unwrap_or(&self.idle)
    }

    /// Mutable access; materializes the node on first touch.
    pub fn get_mut(&mut self, i: usize) -> &mut Node {
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some(Box::new(Node::new(NodeAddr(i as u32))));
            self.materialized += 1;
        }
        slot.as_deref_mut().expect("just materialized")
    }

    /// True iff node `i` has been written to (has real kernel state).
    pub fn is_materialized(&self, i: usize) -> bool {
        self.slots[i].is_some()
    }

    /// Number of nodes holding real kernel state.
    pub fn materialized_count(&self) -> usize {
        self.materialized
    }

    /// All `len()` nodes in address order, idle stand-ins included.
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.slots
            .iter()
            .map(move |s| s.as_deref().unwrap_or(&self.idle))
    }

    /// Only the materialized nodes, in address order. Each carries its
    /// real `addr`, so callers needing the index read it from there.
    pub fn materialized(&self) -> impl Iterator<Item = &Node> {
        self.slots.iter().filter_map(|s| s.as_deref())
    }
}

impl std::ops::Index<usize> for NodeTable {
    type Output = Node;
    fn index(&self, i: usize) -> &Node {
        self.get(i)
    }
}

impl std::ops::IndexMut<usize> for NodeTable {
    fn index_mut(&mut self, i: usize) -> &mut Node {
        self.get_mut(i)
    }
}

impl<'a> IntoIterator for &'a NodeTable {
    type Item = &'a Node;
    type IntoIter = Box<dyn Iterator<Item = &'a Node> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
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
/// all-defaults value, where every check short-circuits.
pub struct ShardCtx {
    /// True when this world is one shard of a [`VorxShardedSim`].
    pub enabled: bool,
    /// This shard's index (== its cluster id under the cluster partition).
    pub shard_id: usize,
    /// Total number of shards.
    pub n_shards: usize,
    /// Owning shard per node address, shared (not cloned) across shards —
    /// at a million endpoints this table is the dominant per-shard cost.
    pub shard_of_node: std::sync::Arc<Vec<u32>>,
    /// Output registers currently serializing a bridged frame, per node.
    /// Only this shard's own nodes are ever set.
    pub tx_busy: Vec<bool>,
    /// Cross-shard frames produced since the engine last drained us.
    pub outbox: Vec<desim::OutMsg<Frame>>,
    /// Stride for channel-id allocation (`n_shards`), so managers on
    /// different shards can assign ids without coordinating.
    pub chan_stride: u32,
    /// Stride for token allocation, for the same reason.
    pub token_stride: u64,
}

impl Default for ShardCtx {
    fn default() -> Self {
        ShardCtx {
            enabled: false,
            shard_id: 0,
            n_shards: 1,
            shard_of_node: std::sync::Arc::new(Vec::new()),
            tx_busy: Vec::new(),
            outbox: Vec::new(),
            chan_stride: 1,
            token_stride: 1,
        }
    }
}

impl ShardCtx {
    /// Owning shard of node `a`.
    pub fn owner(&self, a: NodeAddr) -> usize {
        self.shard_of_node[a.0 as usize] as usize
    }

    /// True iff `a` lives on a different shard than this world.
    pub fn is_remote(&self, a: NodeAddr) -> bool {
        self.enabled && self.shard_of_node[a.0 as usize] as usize != self.shard_id
    }

    /// True iff `a`'s output register is busy with a bridged serialization.
    pub fn tx_busy(&self, a: NodeAddr) -> bool {
        self.enabled && self.tx_busy[a.0 as usize]
    }
}

/// The complete state of a simulated HPC/VORX installation.
pub struct World {
    /// Software cost model.
    pub calib: Calibration,
    /// The HPC interconnect.
    pub net: Fabric,
    /// Kernel state per endpoint, materialized on first touch.
    pub nodes: NodeTable,
    /// Every node's channel ends; a node's [`Node::chans`] names its own.
    pub chan_ends: ChanSlab,
    /// In-flight opens, by token (tokens are world-unique): the issuing
    /// node and the open's state. Freed when a burst of opens drains it.
    pub open_waits: FixedMap<u64, (NodeAddr, OpenResult)>,
    /// Reliably-delivered control frames awaiting their `KIND_CTL_ACK`, by
    /// sending node and the frame's `seq`. Freed when a burst drains it.
    pub ctl_unacked: FixedMap<(NodeAddr, u64), CtlPending>,
    /// Object-manager configuration.
    pub objmgr_mode: ObjMgrMode,
    /// Processor allocator (§3.1).
    pub alloc: Allocator,
    /// Host workstations (§3.3), by host id.
    pub hosts: Vec<Host>,
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
        self.nodes.get_mut(a.0 as usize)
    }

    /// Shared access to a node's kernel state; untouched nodes read as
    /// the idle template (up, empty tables) without materializing.
    pub fn node(&self, a: NodeAddr) -> &Node {
        self.nodes.get(a.0 as usize)
    }

    /// Node `a`'s in-flight open `token`.
    pub(crate) fn open_wait(&self, a: NodeAddr, token: u64) -> Option<&OpenResult> {
        let (n, r) = self.open_waits.get(&token)?;
        (*n == a).then_some(r)
    }

    /// Mutable [`World::open_wait`].
    pub(crate) fn open_wait_mut(&mut self, a: NodeAddr, token: u64) -> Option<&mut OpenResult> {
        let (n, r) = self.open_waits.get_mut(&token)?;
        (*n == a).then_some(r)
    }

    /// Record `r` as the state of node `a`'s open `token` (materializes
    /// `a`).
    pub(crate) fn set_open_wait(&mut self, a: NodeAddr, token: u64, r: OpenResult) {
        self.node_mut(a);
        self.open_waits.insert(token, (a, r));
    }

    /// Take node `a`'s open `token` off the table.
    pub(crate) fn take_open_wait(&mut self, a: NodeAddr, token: u64) -> Option<OpenResult> {
        self.open_wait(a, token)?;
        let (_, r) = self.open_waits.remove(&token)?;
        Self::end_handshake(&mut self.open_waits);
        Some(r)
    }

    /// Node `a`'s control frame `seq` is answered or abandoned: take it off
    /// the table.
    pub(crate) fn take_ctl_unacked(&mut self, a: NodeAddr, seq: u64) -> Option<CtlPending> {
        let p = self.ctl_unacked.remove(&(a, seq))?;
        Self::end_handshake(&mut self.ctl_unacked);
        Some(p)
    }

    /// Drop node `a`'s in-flight opens and unacknowledged control frames
    /// (a crash wipe), disarming their retry chains.
    pub(crate) fn wipe_handshakes(&mut self, a: NodeAddr) {
        self.open_waits.retain(|_, (n, _)| *n != a);
        self.ctl_unacked.retain(|(n, _), _| *n != a);
        Self::end_handshake(&mut self.open_waits);
        Self::end_handshake(&mut self.ctl_unacked);
    }

    /// Free a handshake table that has emptied. A burst of opens grows
    /// `open_waits` and `ctl_unacked` to one entry per open in flight and
    /// then leaves them empty for the rest of the run. A table with room
    /// for at most [`HANDSHAKE_KEEP`] entries stays: it is cheaper kept
    /// than built again by the next open.
    fn end_handshake<K, V>(table: &mut FixedMap<K, V>) {
        if table.is_empty() && table.capacity() > HANDSHAKE_KEEP {
            *table = FixedMap::default();
        }
    }

    /// Allocate a fresh correlation token. Sharded builds stride by the
    /// shard count from a per-shard offset, so tokens are globally unique
    /// without coordination; sequential builds stride by 1.
    pub fn token(&mut self) -> u64 {
        self.next_token += self.shard.token_stride;
        self.next_token
    }

    /// Allocate a fresh channel id (same striping rule as [`World::token`]).
    pub fn alloc_chan(&mut self) -> u32 {
        let id = self.next_chan;
        self.next_chan += self.shard.chan_stride;
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
        let (start, end) = self.nodes.get_mut(a.0 as usize).cpu.reserve_system(now, d);
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
            nodes: NodeTable::new(n),
            objmgr_mode: self.objmgr_mode,
            alloc: Allocator::new(self.n_hosts, n),
            hosts: (0..self.n_hosts)
                .map(|i| Host::new(i, NodeAddr(i as u32), &self.calib))
                .collect(),
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
            open_waits: FixedMap::default(),
            ctl_unacked: FixedMap::default(),
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
    /// level-0 groups (where most traffic stays) land on one shard. Grouped
    /// mode uses a uniform cross-shard lookahead — the minimum links any
    /// cross-cluster frame crosses × the header-frame link latency — rather
    /// than the per-cluster-pair matrix, which would be O(clusters²) at
    /// hierarchical scale. The shard partition is part of the simulated
    /// outcome (it decides which frames ride the bridge approximation):
    /// traces are bit-identical across *worker* counts at a fixed shard
    /// count, not across different shard counts.
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

    /// Construct the simulation.
    pub fn build(self) -> VorxSim {
        assert!(
            self.cfg.n_hosts <= self.topo.n_endpoints(),
            "more hosts than endpoints"
        );
        let schedule = self
            .faults
            .unwrap_or_else(|| desim::FaultSchedule::new(self.cfg.seed));
        let mut events: Vec<desim::FaultEvent> = schedule.events().to_vec();
        events.sort_by_key(|e| e.at);
        let net = Fabric::new(self.topo, self.cfg.netcfg);
        let world = self.cfg.world(net, schedule, ShardCtx::default());
        let vs = VorxSim {
            sim: Simulation::new(world),
        };
        spawn_fault_plane(&vs.sim, events);
        vs
    }

    /// Construct a sharded simulation: one shard per cluster, drained in
    /// parallel by up to `workers` threads (never more than the host's
    /// CPUs) under asynchronous conservative
    /// synchronization, with per-link lookahead derived from the fabric's
    /// link physics (DESIGN.md §12).
    ///
    /// The shard partition — and with it every simulated outcome — is fixed
    /// by the topology; `workers` only chooses how many OS threads drain the
    /// shards, so any worker count produces the identical merged trace. With
    /// a single-cluster topology the one shard executes byte-for-byte like
    /// [`VorxBuilder::build`].
    pub fn build_sharded(self, workers: usize) -> VorxShardedSim {
        let (topo, cfg) = (self.topo, self.cfg);
        let n = topo.n_endpoints();
        assert!(cfg.n_hosts <= n, "more hosts than endpoints");
        let n_clusters = topo.n_clusters();
        let n_shards = self.shards.unwrap_or(n_clusters).min(n_clusters);

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

        // Engine lookahead. Per-cluster partitions keep the tight per-pair
        // matrix: every bridged frame from cluster `a` to `b` crosses
        // `links[a][b]` links of at least a header-frame's latency each
        // (kernel::bridge charges exactly `links × (serialize + hop)`, and
        // faults can only lengthen routes, never shorten them below the
        // fault-free baseline). Grouped partitions — hierarchical scale,
        // where an O(clusters²) matrix is unaffordable — use the uniform
        // lower bound instead: the minimum links *any* cross-cluster frame
        // crosses (up-link + one inter-cluster hop + down-link = 3).
        // Diagonals carry `u64::MAX`: the bridge only ever carries frames
        // to other shards, so self-pairs never constrain the EIT.
        let unit_ns = cfg.netcfg.header_link_latency_ns();
        let latency: Vec<Vec<u64>> = if n_shards == n_clusters {
            topo.cluster_link_counts()
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&links| {
                            if links == 0 {
                                u64::MAX
                            } else {
                                links * unit_ns
                            }
                        })
                        .collect()
                })
                .collect()
        } else {
            let floor = topo
                .min_cross_cluster_links()
                .expect("grouped shards need cross-cluster traffic bounds")
                as u64
                * unit_ns;
            (0..n_shards)
                .map(|a| {
                    (0..n_shards)
                        .map(|b| if a == b { u64::MAX } else { floor })
                        .collect()
                })
                .collect()
        };

        let schedule = self
            .faults
            .unwrap_or_else(|| desim::FaultSchedule::new(cfg.seed));
        let mut events: Vec<desim::FaultEvent> = schedule.events().to_vec();
        events.sort_by_key(|e| e.at);
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
                enabled: true,
                shard_id: k,
                n_shards,
                shard_of_node: std::sync::Arc::clone(&shard_of_node),
                tx_busy: vec![false; n],
                outbox: Vec::new(),
                chan_stride: n_shards as u32,
                token_stride: n_shards as u64,
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
