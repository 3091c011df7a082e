//! Interconnect topology: clusters, ports, endpoint attachment, and routing.
//!
//! "A twelve node system can be constructed using a single cluster. Larger
//! systems are built by using some port connections for processing nodes and
//! some for connections to other clusters. While the hardware allows
//! connections with arbitrary topologies, we have chosen to connect the
//! clusters in the shape of an incomplete hypercube." (§1)
//!
//! Three generators exist here: an arbitrary-graph builder, the paper's flat
//! incomplete hypercube, and the paper's scheme *recursed* — a hierarchy of
//! incomplete hypercubes where each level-0 group of clusters is an
//! incomplete hypercube and designated gateway clusters link groups (then
//! groups-of-groups, …) in higher-level incomplete hypercubes. Hypercube
//! levels route by the deadlock-free two-phase rule (clear differing bits
//! from high to low, then set differing bits from low to high — every
//! intermediate id stays below the level size, which is Katseff's
//! incomplete-hypercube property).
//!
//! # One router: a fixed baseline plus a detour overlay
//!
//! Every topology routes the same way: a fault-free *baseline* fixed at
//! construction, and a hash-map *overlay* holding only the entries link
//! churn made differ from it. Hypercubes compute their baseline in O(levels)
//! from cluster coordinates ([`Topology::route`] stays O(1) for the flat
//! paper topology) and never hold a dense table; builder graphs have no such
//! rule, so theirs is the BFS first-hop table — small irregular worlds where
//! O(n²) is irrelevant. [`Topology::recompute`] after churn costs O(affected
//! destinations), and healing every edge is a single overlay clear — O(1),
//! allocation-free. One reverse BFS (`reverse_bfs`) builds the dense
//! baseline and every repair, so all of them break ties alike.
//!
//! # Shared wiring, private routing state
//!
//! What is wired to each cluster port and where each endpoint sits never
//! change after construction, so those two tables are held behind an `Arc`:
//! a clone — one per shard of a sharded world — refers to them and copies
//! nothing proportional to the machine. What a clone owns is what churn
//! changes: the dead-edge set, the overlay, the gateway failover state and
//! the BFS scratch, which stays empty until the first [`Topology::recompute`].

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use desim::FixedMap;

use crate::config::PORTS_PER_CLUSTER;
use crate::frame::NodeAddr;

/// Identifies one HPC cluster (a 12-port self-routing star).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

impl fmt::Debug for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One port of one cluster.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct PortRef {
    /// The cluster.
    pub cluster: ClusterId,
    /// Port index, `0..PORTS_PER_CLUSTER`.
    pub port: u8,
}

/// What a cluster port is wired to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Attachment {
    /// Nothing connected.
    #[default]
    Empty,
    /// An endpoint (processing node or workstation).
    Endpoint(NodeAddr),
    /// A port of another cluster.
    Cluster(PortRef),
}

/// Errors raised while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Port index outside `0..12`.
    PortOutOfRange(PortRef),
    /// The port already has an attachment.
    PortInUse(PortRef),
    /// A cluster id that was never added.
    UnknownCluster(ClusterId),
    /// Cluster connected to itself.
    SelfLoop(ClusterId),
    /// Some endpoint cannot reach some other endpoint.
    Unreachable {
        /// Cluster with no route.
        from: ClusterId,
        /// Unreachable destination cluster.
        to: ClusterId,
    },
    /// A hypercube was requested with more endpoints per cluster (plus
    /// dimension and gateway roles) than free ports.
    NotEnoughPorts {
        /// Ports needed.
        needed: usize,
        /// Ports available.
        available: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::PortOutOfRange(p) => write!(f, "port out of range: {p:?}"),
            TopologyError::PortInUse(p) => write!(f, "port already in use: {p:?}"),
            TopologyError::UnknownCluster(c) => write!(f, "unknown cluster {c:?}"),
            TopologyError::SelfLoop(c) => write!(f, "cluster {c:?} connected to itself"),
            TopologyError::Unreachable { from, to } => {
                write!(f, "no route from {from:?} to {to:?}")
            }
            TopologyError::NotEnoughPorts { needed, available } => {
                write!(
                    f,
                    "need {needed} ports per cluster, only {available} available"
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Incremental topology construction.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    clusters: Vec<[Attachment; PORTS_PER_CLUSTER]>,
    endpoints: Vec<PortRef>, // indexed by NodeAddr
}

impl TopologyBuilder {
    /// Start with no clusters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a cluster; returns its id.
    pub fn add_cluster(&mut self) -> ClusterId {
        let id = ClusterId(self.clusters.len() as u32);
        self.clusters.push(Default::default());
        id
    }

    fn check_port(&self, p: PortRef) -> Result<(), TopologyError> {
        if p.cluster.0 as usize >= self.clusters.len() {
            return Err(TopologyError::UnknownCluster(p.cluster));
        }
        if usize::from(p.port) >= PORTS_PER_CLUSTER {
            return Err(TopologyError::PortOutOfRange(p));
        }
        if self.clusters[p.cluster.0 as usize][usize::from(p.port)] != Attachment::Empty {
            return Err(TopologyError::PortInUse(p));
        }
        Ok(())
    }

    /// Wire two cluster ports together (full duplex).
    pub fn connect(&mut self, a: PortRef, b: PortRef) -> Result<(), TopologyError> {
        if a.cluster == b.cluster {
            return Err(TopologyError::SelfLoop(a.cluster));
        }
        self.check_port(a)?;
        self.check_port(b)?;
        self.clusters[a.cluster.0 as usize][usize::from(a.port)] = Attachment::Cluster(b);
        self.clusters[b.cluster.0 as usize][usize::from(b.port)] = Attachment::Cluster(a);
        Ok(())
    }

    /// Attach a new endpoint to a cluster port; returns its address.
    pub fn attach_endpoint(&mut self, p: PortRef) -> Result<NodeAddr, TopologyError> {
        self.check_port(p)?;
        let addr = NodeAddr(self.endpoints.len() as u32);
        self.clusters[p.cluster.0 as usize][usize::from(p.port)] = Attachment::Endpoint(addr);
        self.endpoints.push(p);
        Ok(addr)
    }

    /// Attach a new endpoint to the first free port of `cluster`.
    pub fn attach_endpoint_auto(&mut self, cluster: ClusterId) -> Result<NodeAddr, TopologyError> {
        if cluster.0 as usize >= self.clusters.len() {
            return Err(TopologyError::UnknownCluster(cluster));
        }
        let free = self.clusters[cluster.0 as usize]
            .iter()
            .position(|a| *a == Attachment::Empty)
            .ok_or(TopologyError::NotEnoughPorts {
                needed: 1,
                available: 0,
            })?;
        self.attach_endpoint(PortRef {
            cluster,
            port: free as u8,
        })
    }

    /// Finalize: the baseline is the BFS first-hop table of the graph as
    /// wired — [`Topology::dense_bfs_into`] with no edge dead yet.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let mut t = Topology::with_base(self.clusters, self.endpoints, Base::Dense(Vec::new()));
        let mut table = Vec::new();
        t.dense_bfs_into(&mut table);
        for to in 0..table.len() {
            let cut = |&from: &usize| from != to && table[from][to] == u8::MAX;
            if let Some(from) = (0..table.len()).find(cut) {
                return Err(TopologyError::Unreachable {
                    from: ClusterId(from as u32),
                    to: ClusterId(to as u32),
                });
            }
        }
        t.base = Base::Dense(table);
        Ok(t)
    }
}

/// A directed inter-cluster edge: (cluster, output port). Kept sorted so
/// membership tests are binary searches and churn never allocates once the
/// vector has warmed up.
type DeadEdge = (u32, u8);

/// How the routing overlay currently relates to the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OverlayScope {
    /// Every route is the baseline, overlay empty: no edge is dead, or only
    /// gateway cables whose role a standby class took over.
    Baseline,
    /// Hypercubes only: every dead edge that carries baseline traffic is a
    /// level-0 (intra-group) link. The overlay holds group-local detours
    /// keyed by `(cluster, local waypoint target)`; gateway hops are
    /// untouched and guaranteed alive.
    Waypoint,
    /// Anything else — a routing gateway link down, a group that lost
    /// internal connectivity, any dead edge of a builder graph. The overlay
    /// holds exact per-destination detours keyed by `(cluster, destination
    /// cluster)` for every affected destination, computed by full reverse
    /// BFS — global ground truth.
    Target,
}

/// Implicit-routing state for (possibly hierarchical) incomplete hypercubes.
#[derive(Debug, Clone)]
struct Hier {
    /// Level sizes, innermost first. `levels[0]` clusters form one group
    /// wired as an incomplete hypercube; `levels[1]` groups form a
    /// super-hypercube linked by gateways, and so on. A flat paper topology
    /// is `levels == [n_clusters]`.
    levels: Vec<u32>,
    /// `dims[l] = dims_for(levels[l])`: hypercube dimensions at each level.
    dims: Vec<u32>,
    /// `block[l]` = number of clusters per level-`l` unit = `∏ levels[..l]`.
    /// `block[0] == 1`.
    block: Vec<u32>,
    /// Endpoints per cluster; endpoint `e` of cluster `c` has address
    /// `c * eps + e` and sits on port `dims[0] + e`.
    eps: u32,
    /// `gw[l-1][d]` = the residue `r < block[l]` such that every cluster
    /// `c ≡ r (mod block[l])` is the gateway for super-dimension `d` of
    /// level `l` within its block. Chosen greedily at build time to spread
    /// gateway port load.
    gw: Vec<Vec<u32>>,
    /// Redundant worlds only ([`Topology::hierarchical_hypercube_redundant`]):
    /// `gw_standby[l-1][d]` = a second residue class, distinct from
    /// `gw[l-1][d]`, wired with its own physical copy of every level-`l`
    /// dimension-`d` gateway link. Empty when the world has no standbys.
    gw_standby: Vec<Vec<u32>>,
    /// The residue class currently *routing* each gateway role. Starts as a
    /// copy of `gw`; [`Topology::recompute`] flips a role to its standby when
    /// the primary class loses a gateway link (and back on heal). Always
    /// equals `gw` in non-redundant worlds.
    gw_active: Vec<Vec<u32>>,
}

/// Where the implicit walk from a cluster heads next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Move within the level-0 group toward this (global) waypoint cluster.
    Local(u32),
    /// We are the gateway: cross the level-`level` link along `dim`.
    Cross {
        /// Hierarchy level of the gateway link.
        level: usize,
        /// Super-dimension being corrected.
        dim: u32,
    },
}

impl Hier {
    /// Mixed-radix digit of cluster `c` at hierarchy level `l`.
    #[inline]
    fn digit(&self, c: u32, l: usize) -> u32 {
        (c / self.block[l]) % self.levels[l]
    }

    /// Number of hierarchy levels.
    fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// The waypoint decision at cluster `x` for a frame bound for cluster
    /// `dst` (`x != dst`): either the next intra-group target to walk toward
    /// or the gateway link to cross. Descends from the highest differing
    /// level: to correct level `l`, first travel (recursively) to the block's
    /// gateway for the needed super-dimension, then cross. The `Local`
    /// target depends only on digits ≥ 1 of `x`, so it is *stable* while the
    /// frame moves within its level-0 group — group-local detours stay
    /// consistent hop by hop.
    fn waypoint(&self, x: u32, dst: u32) -> Step {
        debug_assert_ne!(x, dst);
        let mut goal = dst;
        loop {
            let mut l = self.n_levels() - 1;
            while self.digit(x, l) == self.digit(goal, l) {
                l -= 1;
            }
            if l == 0 {
                return Step::Local(goal);
            }
            let d = hypercube_next_dim(self.digit(x, l), self.digit(goal, l));
            let gwc = x - x % self.block[l] + self.gw_active[l - 1][d as usize];
            if gwc == x {
                return Step::Cross { level: l, dim: d };
            }
            // Head for the gateway; its highest level differing from `x` is
            // strictly below `l`, so this terminates.
            goal = gwc;
        }
    }

    /// Fault-free output port of cluster `x` toward cluster `dst`
    /// (`x != dst`). O(levels²) worst case, O(1) for flat topologies.
    fn base_port(&self, x: u32, dst: u32) -> u8 {
        match self.waypoint(x, dst) {
            Step::Local(t) => self.local_port(x, t),
            Step::Cross { level, dim } => self.gateway_port(x, level, dim),
        }
    }

    /// The two-phase step from `x` toward `t` inside their level-0 group.
    fn local_port(&self, x: u32, t: u32) -> u8 {
        hypercube_next_dim(self.digit(x, 0), self.digit(t, 0)) as u8
    }

    /// The residue classes holding the `(l, dim)` gateway role, in port
    /// allocation order: primary first, then the standby when the world has
    /// one. Port numbering walks roles in exactly this order.
    fn role_classes(&self, l: usize, dim: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(self.gw[l - 1][dim as usize])
            .chain(self.gw_standby.get(l - 1).map(|row| row[dim as usize]))
    }

    /// Walk the gateway roles cluster `c` holds as `(port, level, dim, class
    /// residue)` and return the first answer `pick` gives. Gateway ports are
    /// allocated after the dimension and endpoint ports in `(level, dim,
    /// class)` order of the roles `c` holds; a role reserves its port even
    /// when the partner digit does not exist (keeps port numbering identical
    /// across a residue class). Within a role, `c` belongs to at most one
    /// class (primary and standby residues are distinct), so a `(level,
    /// dim)` names at most one port.
    fn find_role<T>(
        &self,
        c: u32,
        mut pick: impl FnMut(u8, usize, u32, u32) -> Option<T>,
    ) -> Option<T> {
        let mut port = (self.dims[0] + self.eps) as u8;
        for l in 1..self.n_levels() {
            for d in 0..self.dims[l] {
                for r in self.role_classes(l, d) {
                    if c % self.block[l] == r {
                        if let Some(found) = pick(port, l, d, r) {
                            return Some(found);
                        }
                        port += 1;
                    }
                }
            }
        }
        None
    }

    /// The port cluster `c` uses for its level-`level`, dimension-`dim`
    /// gateway link.
    fn gateway_port(&self, c: u32, level: usize, dim: u32) -> u8 {
        self.find_role(c, |port, l, d, _| ((l, d) == (level, dim)).then_some(port))
            .unwrap_or_else(|| unreachable!("cluster {c} holds no gateway role ({level},{dim})"))
    }

    /// The gateway role owning port `p` on cluster `c`, as
    /// `(level, dim, class residue)` — `None` for dimension and endpoint
    /// ports.
    fn port_role(&self, c: u32, p: u8) -> Option<(usize, u32, u32)> {
        self.find_role(c, |port, l, d, r| (port == p).then_some((l, d, r)))
    }

    /// Redundant-gateway failover: re-derive the active class of every role
    /// from the dead set (a pure function of it, so sharded replays agree).
    /// A role whose primary class lost a gateway link moves to its standby —
    /// unless the standby class lost one too, in which case the role stays
    /// put and the exact repair must route around both. No dead edge (a full
    /// heal) restores every primary.
    fn fail_over(&mut self, dead: &[DeadEdge]) {
        for (a, p) in self.gw_active.iter_mut().zip(self.gw.iter()) {
            a.copy_from_slice(p);
        }
        if self.gw_standby.is_empty() {
            return;
        }
        let lost = |h: &Hier, role| dead.iter().any(|&(c, p)| h.port_role(c, p) == Some(role));
        for l in 1..self.n_levels() {
            for d in 0..self.dims[l] {
                let (primary, standby) = (
                    self.gw[l - 1][d as usize],
                    self.gw_standby[l - 1][d as usize],
                );
                if lost(self, (l, d, primary)) && !lost(self, (l, d, standby)) {
                    self.gw_active[l - 1][d as usize] = standby;
                }
            }
        }
    }

    /// Which repair a dead set calls for, once [`Hier::fail_over`] has run.
    /// A dead gateway edge whose class is not routing its role carries no
    /// baseline traffic: it neither forces the exact global repair nor
    /// perturbs group-local detours.
    fn scope_for(&self, dead: &[DeadEdge]) -> OverlayScope {
        let mut scope = OverlayScope::Baseline;
        for &(c, p) in dead {
            if u32::from(p) < self.dims[0] {
                scope = OverlayScope::Waypoint;
                continue;
            }
            // Endpoint ports never appear in `dead`, so `None` is moot.
            let routing = |(l, d, r): (usize, u32, u32)| self.gw_active[l - 1][d as usize] == r;
            if self.port_role(c, p).is_none_or(routing) {
                return OverlayScope::Target;
            }
        }
        scope
    }
}

/// The fault-free routing a topology was built with. Which one is the
/// constructor's choice, never a user's: hypercubes have a rule, arbitrary
/// builder graphs do not.
#[derive(Debug, Clone)]
enum Base {
    /// Hypercube generators: computed from cluster coordinates on demand.
    Implicit(Hier),
    /// Builder graphs: `table[c][d]` = output port on cluster `c` toward
    /// cluster `d`, the first hop of one BFS shortest path (`u8::MAX` on the
    /// diagonal).
    Dense(Vec<Vec<u8>>),
}

impl Base {
    /// Fault-free output port on cluster `from` toward cluster `to`
    /// (`u8::MAX` for `from == to`).
    fn port(&self, from: u32, to: u32) -> u8 {
        if from == to {
            return u8::MAX;
        }
        match self {
            Base::Implicit(h) => h.base_port(from, to),
            Base::Dense(table) => table[from as usize][to as usize],
        }
    }
}

/// Reusable buffers for recompute/repair so link churn never allocates on
/// the hot path once warmed up. Sized by the first recompute, not at build.
#[derive(Debug, Default)]
struct Scratch {
    queue: VecDeque<u32>,
    ports: Vec<u8>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            queue: VecDeque::with_capacity(n),
            ports: vec![u8::MAX; n],
        }
    }
}

/// Buffers only: a clone starts empty, like a topology that never churned.
impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

/// A finalized interconnect topology.
///
/// Routing is *live*: [`Topology::set_edge_state`] marks inter-cluster edges
/// dead or alive and [`Topology::recompute`] repairs routing over the
/// surviving edges, bumping a generation counter so the fabric can tell
/// rerouted traffic from baseline traffic. A fault-free topology never
/// recomputes and keeps routing exactly as built.
#[derive(Debug, Clone)]
pub struct Topology {
    /// What each cluster port is wired to; shared by every clone.
    clusters: Arc<[[Attachment; PORTS_PER_CLUSTER]]>,
    /// Where each endpoint is attached, by address; shared by every clone.
    endpoints: Arc<[PortRef]>,
    base: Base,
    /// Detours installed by [`Topology::recompute`]: only entries that
    /// *differ* from the baseline are present (`u8::MAX` marks an
    /// unreachable pair). Never iterated, so hash order cannot leak into
    /// simulation behavior.
    overlay: FixedMap<(u32, u32), u8>,
    /// What the overlay keys currently mean.
    scope: OverlayScope,
    /// Sorted directed dead edges `(cluster, out port)`.
    dead: Vec<DeadEdge>,
    /// How many times routing was recomputed. 0 = fault-free baseline.
    generation: u64,
    scratch: Scratch,
}

impl Topology {
    /// A single cluster with `n` endpoints (`n <= 12`): the one-cluster
    /// hypercube, endpoints on ports `0..n`.
    pub fn single_cluster(n: usize) -> Result<Topology, TopologyError> {
        Topology::hier_impl(&[1], n, false)
    }

    /// The paper's incomplete hypercube: `n_clusters` clusters (any count
    /// ≥ 1, not necessarily a power of two), cluster `c` linked to
    /// `c ^ (1<<d)` for every dimension `d` where the partner exists, with
    /// `endpoints_per_cluster` endpoints on each cluster's remaining ports.
    ///
    /// Dimension `d` always uses port `d` on both sides, so with `D`
    /// dimensions the endpoints occupy ports `D..D+endpoints_per_cluster`.
    /// A 1024-node system is `incomplete_hypercube(256, 4)`: 8 dimension
    /// ports + 4 endpoint ports, exactly the paper's example. Equivalent to
    /// [`Topology::hierarchical_hypercube`] with a single level.
    pub fn incomplete_hypercube(
        n_clusters: usize,
        endpoints_per_cluster: usize,
    ) -> Result<Topology, TopologyError> {
        Topology::hier_impl(&[n_clusters], endpoints_per_cluster, false)
    }

    /// The paper's scheme recursed: `levels[0]` clusters form a group wired
    /// as an incomplete hypercube, `levels[1]` groups form a super-hypercube
    /// whose links run between designated *gateway* clusters (one residue
    /// class per super-dimension, chosen greedily to spread port load), and
    /// so on for higher levels. Every cluster hosts
    /// `endpoints_per_cluster` endpoints; endpoint `e` of cluster `c` is
    /// address `c * eps + e`.
    ///
    /// With a single level this is exactly [`Topology::incomplete_hypercube`]
    /// — same wiring, same port layout, same link ids. Multi-level
    /// hierarchies require every level size ≥ 2 and fully populated levels.
    pub fn hierarchical_hypercube(
        levels: &[usize],
        endpoints_per_cluster: usize,
    ) -> Result<Topology, TopologyError> {
        Topology::hier_impl(levels, endpoints_per_cluster, false)
    }

    /// [`Topology::hierarchical_hypercube`] with *redundant gateways*: every
    /// gateway role gets a second residue class (the standby), wired with
    /// its own physical copy of each gateway link. When the primary class
    /// loses a gateway link, [`Topology::recompute`] re-wires the whole role
    /// onto the standby class — an O(1) deterministic failover with no
    /// overlay entries — and restores the primary on heal. Costs one extra
    /// port per standby role held, checked against the port budget.
    pub fn hierarchical_hypercube_redundant(
        levels: &[usize],
        endpoints_per_cluster: usize,
    ) -> Result<Topology, TopologyError> {
        Topology::hier_impl(levels, endpoints_per_cluster, true)
    }

    fn hier_impl(
        levels: &[usize],
        endpoints_per_cluster: usize,
        redundant: bool,
    ) -> Result<Topology, TopologyError> {
        assert!(!levels.is_empty(), "need at least one hierarchy level");
        assert!(levels[0] >= 1, "need at least one cluster");
        if levels.len() > 1 {
            assert!(
                levels.iter().all(|&l| l >= 2),
                "multi-level hierarchies need every level size >= 2"
            );
        }
        let n_u64: u64 = levels.iter().map(|&l| l as u64).product();
        let eps = endpoints_per_cluster;
        assert!(
            n_u64.saturating_mul(eps.max(1) as u64) <= u32::MAX as u64,
            "cluster/endpoint count exceeds the u32 address space"
        );
        let n = n_u64 as usize;
        let k = levels.len();
        let levels_u: Vec<u32> = levels.iter().map(|&l| l as u32).collect();
        let dims: Vec<u32> = levels.iter().map(|&l| dims_for(l) as u32).collect();
        let mut block: Vec<u32> = Vec::with_capacity(k);
        let mut acc = 1u32;
        for &l in &levels_u {
            block.push(acc);
            acc = acc.saturating_mul(l);
        }
        let dims0 = dims[0] as usize;

        // Greedy gateway selection: for each (level, super-dim) role pick
        // the residue class (mod block[l]) whose most-loaded member holds
        // the fewest roles so far; ties break to the lowest residue.
        // Deterministic, and keeps the per-cluster gateway port count near
        // the unavoidable ceil(total roles / block) floor.
        let mut gw: Vec<Vec<u32>> = Vec::with_capacity(k.saturating_sub(1));
        let mut gw_standby: Vec<Vec<u32>> = Vec::new();
        let mut load = vec![0u32; n];
        // Pick the least-loaded residue class (mod b), excluding `exclude`.
        let pick = |load: &mut [u32], b: u32, exclude: Option<u32>| -> u32 {
            let mut best_r = 0u32;
            let mut best_load = u32::MAX;
            for r in 0..b {
                if exclude == Some(r) {
                    continue;
                }
                let mut worst = 0u32;
                let mut c = r as usize;
                while c < n {
                    worst = worst.max(load[c]);
                    c += b as usize;
                }
                if worst < best_load {
                    best_load = worst;
                    best_r = r;
                }
            }
            let mut c = best_r as usize;
            while c < n {
                load[c] += 1;
                c += b as usize;
            }
            best_r
        };
        for l in 1..k {
            let b = block[l];
            let mut row = Vec::with_capacity(dims[l] as usize);
            let mut standby_row = Vec::with_capacity(dims[l] as usize);
            for _d in 0..dims[l] {
                let r = pick(&mut load, b, None);
                row.push(r);
                if redundant {
                    // The standby must be a *different* residue class, so a
                    // primary-class fault can never take both copies down.
                    standby_row.push(pick(&mut load, b, Some(r)));
                }
            }
            gw.push(row);
            if redundant {
                gw_standby.push(standby_row);
            }
        }
        let max_load = load.iter().copied().max().unwrap_or(0) as usize;
        if dims0 + eps + max_load > PORTS_PER_CLUSTER {
            return Err(TopologyError::NotEnoughPorts {
                needed: dims0 + eps + max_load,
                available: PORTS_PER_CLUSTER,
            });
        }

        let hier = Hier {
            levels: levels_u.clone(),
            dims: dims.clone(),
            block: block.clone(),
            eps: eps as u32,
            gw: gw.clone(),
            gw_standby: gw_standby.clone(),
            gw_active: gw.clone(),
        };

        // Wire it. Level-0 links use port d ↔ port d within each group —
        // identical layout to the flat generator, so fabric link ids are
        // stable across the flat/hierarchical representations.
        let mut clusters = vec![[Attachment::Empty; PORTS_PER_CLUSTER]; n];
        let g = levels_u[0] as usize;
        for (c, ports) in clusters.iter_mut().enumerate() {
            let a = c % g;
            for (d, slot) in ports.iter_mut().enumerate().take(dims0) {
                let peer_a = a ^ (1 << d);
                if peer_a < g {
                    *slot = Attachment::Cluster(PortRef {
                        cluster: ClusterId((c - a + peer_a) as u32),
                        port: d as u8,
                    });
                }
            }
        }
        let mut endpoints = Vec::with_capacity(n * eps);
        for (c, ports) in clusters.iter_mut().enumerate() {
            for e in 0..eps {
                let addr = NodeAddr((c * eps + e) as u32);
                let port = (dims0 + e) as u8;
                ports[usize::from(port)] = Attachment::Endpoint(addr);
                endpoints.push(PortRef {
                    cluster: ClusterId(c as u32),
                    port,
                });
            }
        }
        // Gateway links, in (level, dim, class) role order — primary then
        // standby, matching `Hier::gateway_port`'s allocation walk. Every
        // member of a residue class consumes one port per role (even when
        // its partner digit is absent), which keeps port numbers identical
        // across the class — both ends of a link compute the same port.
        let mut next_gw_port = vec![(dims0 + eps) as u8; n];
        for l in 1..k {
            for d in 0..dims[l] {
                for r in hier.role_classes(l, d) {
                    let mut c = r as usize;
                    while c < n {
                        let port = next_gw_port[c];
                        next_gw_port[c] += 1;
                        let a = hier.digit(c as u32, l);
                        let bdig = a ^ (1 << d);
                        if bdig < levels_u[l] && bdig > a {
                            let partner = c + ((bdig - a) * block[l]) as usize;
                            debug_assert_eq!(clusters[c][usize::from(port)], Attachment::Empty);
                            debug_assert_eq!(
                                clusters[partner][usize::from(port)],
                                Attachment::Empty
                            );
                            clusters[c][usize::from(port)] = Attachment::Cluster(PortRef {
                                cluster: ClusterId(partner as u32),
                                port,
                            });
                            clusters[partner][usize::from(port)] = Attachment::Cluster(PortRef {
                                cluster: ClusterId(c as u32),
                                port,
                            });
                        }
                        c += block[l] as usize;
                    }
                }
            }
        }

        Ok(Topology::with_base(
            clusters,
            endpoints,
            Base::Implicit(hier),
        ))
    }

    /// A fault-free topology over `clusters` routed by `base`.
    fn with_base(
        clusters: Vec<[Attachment; PORTS_PER_CLUSTER]>,
        endpoints: Vec<PortRef>,
        base: Base,
    ) -> Topology {
        Topology {
            scratch: Scratch::default(),
            clusters: clusters.into(),
            endpoints: endpoints.into(),
            base,
            overlay: FixedMap::default(),
            scope: OverlayScope::Baseline,
            dead: Vec::new(),
            generation: 0,
        }
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Number of endpoints.
    pub fn n_endpoints(&self) -> usize {
        self.endpoints.len()
    }

    /// All endpoint addresses.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeAddr> + '_ {
        (0..self.endpoints.len()).map(|i| NodeAddr(i as u32))
    }

    /// Level sizes (innermost first) of a hypercube topology; `None` for
    /// builder graphs. Flat paper topologies report one level.
    pub fn hier_levels(&self) -> Option<&[u32]> {
        match &self.base {
            Base::Implicit(h) => Some(&h.levels),
            Base::Dense(_) => None,
        }
    }

    /// Number of detour entries currently overlaid on the routing baseline.
    /// 0 for every fault-free topology.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// The port an endpoint is attached to.
    pub fn endpoint_port(&self, addr: NodeAddr) -> PortRef {
        self.endpoints[addr.0 as usize]
    }

    /// The cluster an endpoint is attached to.
    pub fn cluster_of(&self, addr: NodeAddr) -> ClusterId {
        self.endpoints[addr.0 as usize].cluster
    }

    /// What is attached to a given cluster port.
    pub fn attachment(&self, p: PortRef) -> Attachment {
        self.clusters[p.cluster.0 as usize][usize::from(p.port)]
    }

    /// Output port on cluster `from` toward cluster `to` over the routing
    /// currently in force (`u8::MAX` for `from == to` or unreachable): the
    /// overlay entry if churn installed one, else the baseline.
    fn next_port_of(&self, from: u32, to: u32) -> u8 {
        if from == to {
            return u8::MAX;
        }
        let base = || self.base.port(from, to);
        match (self.scope, &self.base) {
            (OverlayScope::Baseline, _) => base(),
            // Group-local detours are keyed by the waypoint, not by `to`.
            (OverlayScope::Waypoint, Base::Implicit(h)) => match h.waypoint(from, to) {
                // Gateway links are alive in this scope by definition.
                Step::Cross { level, dim } => h.gateway_port(from, level, dim),
                Step::Local(t) => match self.overlay.get(&(from, t)) {
                    Some(&detour) => detour,
                    None => h.local_port(from, t),
                },
            },
            _ => self.overlay.get(&(from, to)).copied().unwrap_or_else(base),
        }
    }

    /// The output port on `cluster` for a frame addressed to `dst`.
    pub fn route(&self, cluster: ClusterId, dst: NodeAddr) -> u8 {
        let dp = self.endpoints[dst.0 as usize];
        if dp.cluster == cluster {
            dp.port
        } else {
            self.next_port_of(cluster.0, dp.cluster.0)
        }
    }

    /// The fault-free baseline output port on `cluster` toward `dst` (what
    /// [`Topology::route`] answered before any recompute). The fabric
    /// compares against this to count rerouted frames.
    pub fn base_route(&self, cluster: ClusterId, dst: NodeAddr) -> u8 {
        let dp = self.endpoints[dst.0 as usize];
        if dp.cluster == cluster {
            dp.port
        } else {
            self.base.port(cluster.0, dp.cluster.0)
        }
    }

    /// The sequence of clusters a unicast frame traverses from the cluster
    /// of `src` to the cluster of `dst` (inclusive). Diagnostic helper;
    /// panics if `dst` is unreachable over the surviving edges.
    pub fn cluster_path(&self, src: NodeAddr, dst: NodeAddr) -> Vec<ClusterId> {
        let mut path = Vec::new();
        let routed = self.cluster_path_into(src, dst, &mut path);
        assert!(routed, "no surviving route between endpoints");
        path
    }

    /// Write the cluster path from `src` to `dst` into `path` (cleared
    /// first), returning `false` when no route survives. The allocation-free
    /// variant of [`Topology::cluster_path`] for per-frame hot paths: with a
    /// reused buffer, steady state performs zero allocations.
    pub fn cluster_path_into(
        &self,
        src: NodeAddr,
        dst: NodeAddr,
        path: &mut Vec<ClusterId>,
    ) -> bool {
        path.clear();
        let (from, to) = (self.cluster_of(src), self.cluster_of(dst));
        path.push(from);
        self.walk(from.0, to.0, true, |_, next| path.push(next))
            .is_some()
    }

    /// The one route walker: follow the routing in force (`live`) or the
    /// fault-free baseline hop by hop from cluster `from` to cluster `to`,
    /// calling `visit(here, next)` for every cable crossed. Returns the hop
    /// count, `None` as soon as a cluster has no route onward.
    fn walk(
        &self,
        from: u32,
        to: u32,
        live: bool,
        mut visit: impl FnMut(ClusterId, ClusterId),
    ) -> Option<usize> {
        let mut here = from;
        let mut hops = 0;
        while here != to {
            let port = if live {
                self.next_port_of(here, to)
            } else {
                self.base.port(here, to)
            };
            if port == u8::MAX {
                return None;
            }
            match self.clusters[here as usize][usize::from(port)] {
                Attachment::Cluster(peer) => {
                    visit(ClusterId(here), peer.cluster);
                    here = peer.cluster.0;
                }
                other => panic!("route led to non-cluster attachment {other:?}"),
            }
            hops += 1;
            assert!(hops <= self.clusters.len(), "routing loop");
        }
        Some(hops)
    }

    /// Number of cluster-to-cluster hops between two endpoints.
    pub fn hops(&self, src: NodeAddr, dst: NodeAddr) -> usize {
        self.cluster_path(src, dst).len() - 1
    }

    /// Minimum number of directed links on any endpoint-to-endpoint path
    /// that crosses a cluster boundary: the source endpoint's up-link, the
    /// inter-cluster hops, and the destination endpoint's down-link — so
    /// always ≥ 3. `None` when no two endpoint-hosting clusters are
    /// connected (single-cluster topologies: nothing ever crosses). This is
    /// the lookahead extraction for the sharded engine: multiplied by the
    /// minimal per-link frame latency ([`crate::NetConfig::link_latency_ns`]
    /// of a header-only frame) it lower-bounds the fabric latency of every
    /// cross-cluster delivery — a static bound that churn can only increase,
    /// never undercut.
    pub fn min_cross_cluster_links(&self) -> Option<usize> {
        match &self.base {
            // Hypercube generators always give every cluster endpoints and
            // an adjacent in-group neighbor: the minimum is exactly 3.
            Base::Implicit(h) => {
                if self.clusters.len() >= 2 && h.eps > 0 {
                    Some(3)
                } else {
                    None
                }
            }
            Base::Dense(_) => {
                let mut hosts: Vec<usize> = self
                    .endpoints
                    .iter()
                    .map(|p| p.cluster.0 as usize)
                    .collect();
                hosts.sort_unstable();
                hosts.dedup();
                let mut best: Option<usize> = None;
                for &a in &hosts {
                    for &b in &hosts {
                        if a == b {
                            continue;
                        }
                        if let Some(h) = self.cluster_hops(a, b) {
                            let links = h + 2;
                            best = Some(best.map_or(links, |m| m.min(links)));
                        }
                    }
                }
                best
            }
        }
    }

    /// Directed link counts between cluster pairs over the routing currently
    /// in force: `counts[a][b]` is the number of links a unicast frame from
    /// an endpoint in cluster `a` crosses to reach an endpoint in cluster
    /// `b` — the source endpoint's up-link, the inter-cluster hops, and the
    /// destination endpoint's down-link (`hops + 2`). Entries are 0 on the
    /// diagonal (intra-cluster frames never cross the boundary), when
    /// either cluster hosts no endpoints, or when the pair is unreachable.
    /// O(clusters² · path): intended for small worlds where the sharded
    /// engine keeps a per-pair lookahead matrix — large hierarchical worlds
    /// use grouped shards with a uniform bound instead.
    pub fn cluster_link_counts(&self) -> Vec<Vec<u64>> {
        let nc = self.clusters.len();
        let mut hosted = vec![false; nc];
        for p in self.endpoints.iter() {
            hosted[p.cluster.0 as usize] = true;
        }
        let mut counts = vec![vec![0u64; nc]; nc];
        for a in 0..nc {
            for b in 0..nc {
                if a != b && hosted[a] && hosted[b] {
                    if let Some(h) = self.cluster_hops(a, b) {
                        counts[a][b] = h as u64 + 2;
                    }
                }
            }
        }
        counts
    }

    /// Number of directed links a unicast frame crosses between endpoints
    /// hosted on clusters `a` and `b` under *fault-free baseline* routing:
    /// up-link + baseline inter-cluster hops + down-link; 0 when `a == b`.
    /// Non-allocating walk — the sharded bridge calls this per cross-shard
    /// frame instead of carrying an O(clusters²) matrix.
    pub fn baseline_cluster_links(&self, a: ClusterId, b: ClusterId) -> u64 {
        if a == b {
            return 0;
        }
        let hops = self.walk(a.0, b.0, false, |_, _| {});
        hops.expect("baseline routing is fully connected") as u64 + 2
    }

    /// Visit every consecutive cluster pair `(from, to)` on the fault-free
    /// baseline route from `a` to `b`, in path order — the same walk
    /// [`Topology::baseline_cluster_links`] counts. No-op when `a == b`.
    /// The sharded bridge uses this to charge per-cable gray-degradation
    /// latency without materializing the path.
    pub fn baseline_cluster_pairs(
        &self,
        a: ClusterId,
        b: ClusterId,
        f: impl FnMut(ClusterId, ClusterId),
    ) {
        self.walk(a.0, b.0, false, f)
            .expect("baseline routing is fully connected");
    }

    /// Hop count of the routed path from cluster `from` to cluster `to`
    /// over the routing currently in force; `None` when unreachable.
    fn cluster_hops(&self, from: usize, to: usize) -> Option<usize> {
        self.walk(from as u32, to as u32, true, |_, _| {})
    }

    /// Mark the directed inter-cluster edge out of `p` alive (`up = true`)
    /// or dead. Takes effect at the next [`Topology::recompute`].
    pub fn set_edge_state(&mut self, p: PortRef, up: bool) {
        let key = (p.cluster.0, p.port);
        match self.dead.binary_search(&key) {
            Ok(i) => {
                if up {
                    self.dead.remove(i);
                }
            }
            Err(i) => {
                if !up {
                    self.dead.insert(i, key);
                }
            }
        }
    }

    /// How many times routing was recomputed; 0 means the fault-free
    /// baseline is in force.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True iff cluster `to` is reachable from cluster `from` over the
    /// surviving edges.
    pub fn reachable(&self, from: ClusterId, to: ClusterId) -> bool {
        // Every constructor yields a connected graph (the generators by
        // wiring, the builder by rejecting the rest).
        self.scope == OverlayScope::Baseline
            || self.cluster_hops(from.0 as usize, to.0 as usize).is_some()
    }

    /// Repair routing over the surviving edges and bump the generation
    /// counter. Unreachable cluster pairs are tolerated: their routes become
    /// `u8::MAX` and the fabric fails the affected traffic instead of
    /// delivering it. When every edge has healed, routing returns to the
    /// construction-time baseline verbatim.
    ///
    /// One scheme for every topology: clear the overlay — so a full heal is
    /// O(1) and allocation-free — then overlay only what churn made differ
    /// from the baseline. In a hypercube, intra-group link deaths rebuild
    /// group-local detours (O(group² · affected targets), independent of
    /// total cluster count); a routing gateway's death, a disconnected group
    /// or any dead edge of a builder graph takes the exact per-destination
    /// repair over the affected destinations only. Both are one repair over
    /// one BFS, so ties break alike.
    pub fn recompute(&mut self) {
        self.generation += 1;
        self.overlay.clear(); // keeps capacity: repeat churn cycles do not allocate
        if self.scratch.ports.len() < self.clusters.len() {
            self.scratch = Scratch::new(self.clusters.len());
        }
        self.scope = match &mut self.base {
            Base::Implicit(h) => {
                h.fail_over(&self.dead);
                h.scope_for(&self.dead)
            }
            Base::Dense(_) if self.dead.is_empty() => OverlayScope::Baseline,
            Base::Dense(_) => OverlayScope::Target,
        };
        if let (OverlayScope::Waypoint, Base::Implicit(h)) = (self.scope, &self.base) {
            let (size, ports, nested) = (h.levels[0], h.dims[0] as usize, h.n_levels() > 1);
            let mut done = 0; // clusters below this are repaired
            for i in 0..self.dead.len() {
                let start = self.dead[i].0 / size * size;
                // `dead` is sorted, so a group's edges are adjacent.
                if start < done {
                    continue;
                }
                done = start + size;
                // In its own group a cluster's digit 0 is its offset, and
                // the baseline toward a neighbour the bare two-phase rule.
                let local = |_: &Base, u, t| hypercube_next_dim(u - start, t - start) as u8;
                if !self.repair(start..done, ports, nested, local) {
                    // A group lost internal connectivity: group-local
                    // detours are no longer ground truth (a path may exist
                    // through neighboring groups). Fall back to the exact
                    // global repair.
                    self.overlay.clear();
                    self.scope = OverlayScope::Target;
                    break;
                }
            }
        }
        if self.scope == OverlayScope::Target {
            let all = 0..self.clusters.len() as u32;
            self.repair(all, PORTS_PER_CLUSTER, false, Base::port);
        }
    }

    /// The one repair, over the clusters of `range` and their ports below
    /// `port_limit` — a level-0 group and its own links, or everything —
    /// where `base_port(base, u, t)` is the baseline port on `u` toward
    /// `t != u`. For every destination in `range` whose baseline in-tree
    /// lost an edge, rebuild the in-tree by reverse BFS over the surviving
    /// links and overlay the ports that differ from the baseline (`u8::MAX`
    /// marks unreachable). Destinations whose baseline in-tree is intact
    /// need no entries: every baseline step toward them is alive, and on a
    /// BFS-built baseline the BFS would rediscover exactly those steps, the
    /// dead edges being ones it never used.
    ///
    /// With `nested`, an unreached cluster returns `false` instead: the
    /// range is one group among several and a detour may exist through the
    /// others. A flat topology records the sentinel, because there the group
    /// *is* the whole graph and unreached means unreachable.
    fn repair(
        &mut self,
        range: Range<u32>,
        port_limit: usize,
        nested: bool,
        base_port: impl Fn(&Base, u32, u32) -> u8,
    ) -> bool {
        let Topology {
            clusters,
            base,
            overlay,
            dead,
            scratch,
            ..
        } = self;
        for t in range.clone() {
            let affected =
                |&(u, p): &DeadEdge| range.contains(&u) && u != t && base_port(base, u, t) == p;
            if !dead.iter().any(affected) {
                continue;
            }
            reverse_bfs(clusters, dead, t, range.clone(), port_limit, scratch);
            for u in range.clone().filter(|&u| u != t) {
                let bfs = scratch.ports[(u - range.start) as usize];
                if bfs == u8::MAX && nested {
                    return false;
                }
                if bfs != base_port(base, u, t) {
                    overlay.insert((u, t), bfs);
                }
            }
        }
        true
    }

    /// The *dense* all-destinations routing table over surviving edges, into
    /// a caller-owned buffer: `table[c][d]` = output port on `c` toward `d`,
    /// `u8::MAX` for `c == d` or no surviving route. With no edge dead it is
    /// a builder graph's baseline; on a churned topology it is the ground
    /// truth `tests/routing.rs` holds [`Topology::route`] to, and the
    /// pre-overlay algorithm the scale campaign times against
    /// [`Topology::recompute`]. Not used by any routing path.
    #[doc(hidden)]
    pub fn dense_bfs_into(&self, table: &mut Vec<Vec<u8>>) {
        let n = self.clusters.len();
        table.resize_with(n, Vec::new);
        for row in table.iter_mut() {
            row.resize(n, u8::MAX);
        }
        let mut s = Scratch::new(n);
        for dst in 0..n as u32 {
            reverse_bfs(
                &self.clusters,
                &self.dead,
                dst,
                0..n as u32,
                PORTS_PER_CLUSTER,
                &mut s,
            );
            for (row, &port) in table.iter_mut().zip(&s.ports) {
                row[dst as usize] = port;
            }
        }
    }
}

/// The one BFS: from `root` over reversed surviving edges, confined to the
/// clusters of `range` and to their ports below `port_limit`. Leaves in
/// `s.ports[c - range.start]` the output port on `c` that starts a shortest
/// surviving path to `root` — `u8::MAX` where there is none, and for `root`.
///
/// The tie-break every route in this file rests on: clusters leave the queue
/// in discovery order and scan their ports in port order, and the first edge
/// to reach a cluster names its port.
fn reverse_bfs(
    clusters: &[[Attachment; PORTS_PER_CLUSTER]],
    dead: &[DeadEdge],
    root: u32,
    range: Range<u32>,
    port_limit: usize,
    s: &mut Scratch,
) {
    let ports = &mut s.ports[..range.len()];
    ports.fill(u8::MAX);
    s.queue.clear();
    s.queue.push_back(root);
    while let Some(c) = s.queue.pop_front() {
        for att in clusters[c as usize].iter().take(port_limit) {
            let Attachment::Cluster(peer) = att else {
                continue;
            };
            debug_assert!(range.contains(&peer.cluster.0), "edge leaves the range");
            let seen = &mut ports[(peer.cluster.0 - range.start) as usize];
            // A frame taking this step leaves `peer.cluster` through
            // `peer.port`; a dead directed edge carries none.
            if peer.cluster.0 == root
                || *seen != u8::MAX
                || dead.binary_search(&(peer.cluster.0, peer.port)).is_ok()
            {
                continue;
            }
            *seen = peer.port;
            s.queue.push_back(peer.cluster.0);
        }
    }
}

/// Number of hypercube dimensions needed for `n` clusters.
fn dims_for(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Next dimension to correct when routing `src -> dst` in an incomplete
/// hypercube: first clear differing 1-bits of `src` from high to low, then
/// set differing 1-bits of `dst` from low to high. Every intermediate id is
/// `<= max(src, dst)`, hence always a valid cluster — per hierarchy level.
fn hypercube_next_dim(src: u32, dst: u32) -> u32 {
    debug_assert_ne!(src, dst);
    let diff = src ^ dst;
    let clears = diff & src; // bits that are 1 in src, 0 in dst
    if clears != 0 {
        u32::BITS - 1 - clears.leading_zeros()
    } else {
        diff.trailing_zeros() // lowest bit to set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cluster_layout() {
        let t = Topology::single_cluster(12).unwrap();
        assert_eq!(t.n_clusters(), 1);
        assert_eq!(t.n_endpoints(), 12);
        assert_eq!(t.hops(NodeAddr(0), NodeAddr(11)), 0);
        assert!(Topology::single_cluster(13).is_err());
    }

    #[test]
    fn min_cross_cluster_links_reflects_topology() {
        // Single cluster: no path ever crosses a boundary.
        assert_eq!(
            Topology::single_cluster(4)
                .unwrap()
                .min_cross_cluster_links(),
            None
        );
        // Hypercube: adjacent clusters exist, so the minimum path is
        // up-link + one inter-cluster hop + down-link.
        assert_eq!(
            Topology::incomplete_hypercube(10, 7)
                .unwrap()
                .min_cross_cluster_links(),
            Some(3)
        );
    }

    #[test]
    fn route_on_same_cluster_is_direct_port() {
        let t = Topology::single_cluster(3).unwrap();
        let c = ClusterId(0);
        assert_eq!(t.route(c, NodeAddr(0)), 0);
        assert_eq!(t.route(c, NodeAddr(2)), 2);
    }

    #[test]
    fn paper_1024_node_configuration() {
        // "A hypercube-based system with 1024 nodes can be built with 256
        // clusters by using 8 of the 12 ports on each cluster for
        // connections to other clusters and the other four for connections
        // to processing nodes." (§1)
        let t = Topology::incomplete_hypercube(256, 4).unwrap();
        assert_eq!(t.n_clusters(), 256);
        assert_eq!(t.n_endpoints(), 1024);
        // Longest route: 8 dimension corrections.
        assert_eq!(t.hops(NodeAddr(0), NodeAddr(1023)), 8);
    }

    #[test]
    fn incomplete_hypercube_routes_stay_valid() {
        // 6 clusters: ids 0..6, 3 dimensions, some links missing.
        let t = Topology::incomplete_hypercube(6, 2).unwrap();
        for s in t.endpoints() {
            for d in t.endpoints() {
                if s != d {
                    let path = t.cluster_path(s, d);
                    for c in &path {
                        assert!((c.0 as usize) < 6, "intermediate {c:?} out of range");
                    }
                    // Minimality: hop count equals hamming distance when it
                    // uses only existing links; never exceeds dims * 2.
                    let sc = t.cluster_of(s).0 as usize;
                    let dc = t.cluster_of(d).0 as usize;
                    assert_eq!(path.len() - 1, (sc ^ dc).count_ones() as usize);
                }
            }
        }
    }

    #[test]
    fn bfs_routing_on_arbitrary_graph() {
        // A line of three clusters: 0 - 1 - 2.
        let mut b = TopologyBuilder::new();
        let c0 = b.add_cluster();
        let c1 = b.add_cluster();
        let c2 = b.add_cluster();
        b.connect(
            PortRef {
                cluster: c0,
                port: 0,
            },
            PortRef {
                cluster: c1,
                port: 0,
            },
        )
        .unwrap();
        b.connect(
            PortRef {
                cluster: c1,
                port: 1,
            },
            PortRef {
                cluster: c2,
                port: 0,
            },
        )
        .unwrap();
        let a = b.attach_endpoint_auto(c0).unwrap();
        let z = b.attach_endpoint_auto(c2).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.hops(a, z), 2);
        assert_eq!(
            t.cluster_path(a, z),
            vec![ClusterId(0), ClusterId(1), ClusterId(2)]
        );
    }

    #[test]
    fn disconnected_graph_rejected() {
        let mut b = TopologyBuilder::new();
        let c0 = b.add_cluster();
        let c1 = b.add_cluster();
        b.attach_endpoint_auto(c0).unwrap();
        b.attach_endpoint_auto(c1).unwrap();
        assert!(matches!(b.build(), Err(TopologyError::Unreachable { .. })));
    }

    #[test]
    fn builder_detects_misuse() {
        let mut b = TopologyBuilder::new();
        let c0 = b.add_cluster();
        let c1 = b.add_cluster();
        assert!(matches!(
            b.connect(
                PortRef {
                    cluster: c0,
                    port: 0
                },
                PortRef {
                    cluster: c0,
                    port: 1
                }
            ),
            Err(TopologyError::SelfLoop(_))
        ));
        assert!(matches!(
            b.connect(
                PortRef {
                    cluster: c0,
                    port: 12
                },
                PortRef {
                    cluster: c1,
                    port: 0
                }
            ),
            Err(TopologyError::PortOutOfRange(_))
        ));
        b.connect(
            PortRef {
                cluster: c0,
                port: 0,
            },
            PortRef {
                cluster: c1,
                port: 0,
            },
        )
        .unwrap();
        assert!(matches!(
            b.attach_endpoint(PortRef {
                cluster: c0,
                port: 0
            }),
            Err(TopologyError::PortInUse(_))
        ));
        assert!(matches!(
            b.attach_endpoint(PortRef {
                cluster: ClusterId(9),
                port: 0
            }),
            Err(TopologyError::UnknownCluster(_))
        ));
    }

    #[test]
    fn golden_routes_survive_missing_dimensions() {
        // 6 clusters = 3 dimensions with partners 6 and 7 absent: links are
        // dim0 {0-1, 2-3, 4-5}, dim1 {0-2, 1-3}, dim2 {0-4, 1-5}.
        let t = Topology::incomplete_hypercube(6, 1).unwrap();
        // Endpoint i sits on cluster i. Two-phase rule, 5(101) -> 2(010):
        // clear bit 2 (5->1), clear bit 0 (1->0), set bit 1 (0->2).
        assert_eq!(
            t.cluster_path(NodeAddr(5), NodeAddr(2)),
            vec![ClusterId(5), ClusterId(1), ClusterId(0), ClusterId(2)]
        );
        assert_eq!(t.hops(NodeAddr(5), NodeAddr(2)), 3);
        // 4(100) -> 3(011): clear bit 2, set bit 0, set bit 1.
        assert_eq!(
            t.cluster_path(NodeAddr(4), NodeAddr(3)),
            vec![ClusterId(4), ClusterId(0), ClusterId(1), ClusterId(3)]
        );
    }

    #[test]
    fn recompute_reroutes_around_dead_edges() {
        // 4 clusters, full square: 0-1-3 and 0-2-3.
        let mut t = Topology::incomplete_hypercube(4, 1).unwrap();
        assert_eq!(
            t.cluster_path(NodeAddr(0), NodeAddr(3)),
            vec![ClusterId(0), ClusterId(1), ClusterId(3)]
        );
        assert_eq!(t.generation(), 0);
        // Kill the directed edge out of c0 toward c1 (dim 0 uses port 0).
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(0),
                port: 0,
            },
            false,
        );
        t.recompute();
        assert_eq!(t.generation(), 1);
        assert!(
            t.overlay_len() > 0,
            "a dead edge on a used route installs detours"
        );
        assert_eq!(
            t.cluster_path(NodeAddr(0), NodeAddr(3)),
            vec![ClusterId(0), ClusterId(2), ClusterId(3)],
            "route must detour through the surviving diagonal"
        );
        // The reverse direction is untouched (directed edge state).
        assert_eq!(
            t.cluster_path(NodeAddr(3), NodeAddr(0)),
            vec![ClusterId(3), ClusterId(1), ClusterId(0)]
        );
        assert!(t.reachable(ClusterId(0), ClusterId(1)), "via c2-c3-c1");
    }

    #[test]
    fn recompute_tolerates_unreachable_and_heals_to_baseline() {
        // 2 clusters, a single cable.
        let mut t = Topology::incomplete_hypercube(2, 1).unwrap();
        let base_01 = t.route(ClusterId(0), NodeAddr(1));
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(0),
                port: 0,
            },
            false,
        );
        t.recompute();
        assert!(!t.reachable(ClusterId(0), ClusterId(1)));
        assert!(
            t.reachable(ClusterId(1), ClusterId(0)),
            "reverse direction alive"
        );
        assert_eq!(t.route(ClusterId(0), NodeAddr(1)), u8::MAX);
        assert!(!t.cluster_path_into(NodeAddr(0), NodeAddr(1), &mut Vec::new()));
        // Heal: the construction-time routing comes back verbatim.
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(0),
                port: 0,
            },
            true,
        );
        t.recompute();
        assert_eq!(t.generation(), 2);
        assert_eq!(t.route(ClusterId(0), NodeAddr(1)), base_01);
        assert_eq!(t.base_route(ClusterId(0), NodeAddr(1)), base_01);
        assert!(t.reachable(ClusterId(0), ClusterId(1)));
        assert_eq!(t.overlay_len(), 0, "heal clears every detour");
    }

    #[test]
    fn dims_for_counts() {
        assert_eq!(dims_for(1), 0);
        assert_eq!(dims_for(2), 1);
        assert_eq!(dims_for(3), 2);
        assert_eq!(dims_for(4), 2);
        assert_eq!(dims_for(5), 3);
        assert_eq!(dims_for(256), 8);
    }

    #[test]
    fn two_phase_rule_clears_then_sets() {
        // 2(010) -> 5(101): clear bit1 first, then set bit0, then bit2.
        assert_eq!(hypercube_next_dim(0b010, 0b101), 1);
        assert_eq!(hypercube_next_dim(0b000, 0b101), 0);
        assert_eq!(hypercube_next_dim(0b001, 0b101), 2);
    }

    #[test]
    fn hierarchical_two_level_golden_route() {
        // Two groups of four clusters (square each); one gateway role at
        // level 1 lands on residue 0, so clusters 0 and 4 carry the
        // inter-group cable on port dims0+eps = 3.
        let t = Topology::hierarchical_hypercube(&[4, 2], 1).unwrap();
        assert_eq!(t.n_clusters(), 8);
        assert_eq!(t.n_endpoints(), 8);
        assert_eq!(t.hier_levels(), Some(&[4u32, 2][..]));
        // 3 -> 5: walk the group to gateway 0 (3->1->0), cross to 4, then
        // one in-group hop to 5.
        assert_eq!(
            t.cluster_path(NodeAddr(3), NodeAddr(5)),
            vec![
                ClusterId(3),
                ClusterId(1),
                ClusterId(0),
                ClusterId(4),
                ClusterId(5)
            ]
        );
        // The gateway cable itself.
        assert_eq!(
            t.attachment(PortRef {
                cluster: ClusterId(0),
                port: 3
            }),
            Attachment::Cluster(PortRef {
                cluster: ClusterId(4),
                port: 3
            })
        );
        assert_eq!(t.baseline_cluster_links(ClusterId(3), ClusterId(5)), 6);
        assert_eq!(t.baseline_cluster_links(ClusterId(3), ClusterId(3)), 0);
    }

    #[test]
    fn hierarchical_every_pair_routes_and_is_reachable() {
        let t = Topology::hierarchical_hypercube(&[4, 4], 1).unwrap();
        assert_eq!(t.n_clusters(), 16);
        for s in t.endpoints() {
            for d in t.endpoints() {
                if s != d {
                    let path = t.cluster_path(s, d); // asserts loop-free
                    assert!(path.len() <= t.n_clusters());
                    assert!(t.reachable(t.cluster_of(s), t.cluster_of(d)));
                }
            }
        }
    }

    #[test]
    fn hierarchical_level0_churn_detours_and_heals_o1() {
        let mut t = Topology::hierarchical_hypercube(&[4, 2], 1).unwrap();
        // Kill c3 -> c1 (dim 1 of the local square is port 1): traffic from
        // cluster 3 bound for the gateway (c0) must detour via c2.
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(3),
                port: 1,
            },
            false,
        );
        t.recompute();
        assert_eq!(t.generation(), 1);
        assert!(t.overlay_len() > 0, "detours live in the overlay");
        assert_eq!(
            t.cluster_path(NodeAddr(3), NodeAddr(5)),
            vec![
                ClusterId(3),
                ClusterId(2),
                ClusterId(0),
                ClusterId(4),
                ClusterId(5)
            ]
        );
        // Other groups are untouched: no overlay entries reference them.
        assert_eq!(
            t.cluster_path(NodeAddr(5), NodeAddr(7)),
            vec![ClusterId(5), ClusterId(7)]
        );
        // Heal: O(1) overlay clear back to the baseline.
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(3),
                port: 1,
            },
            true,
        );
        t.recompute();
        assert_eq!(t.overlay_len(), 0);
        assert_eq!(
            t.cluster_path(NodeAddr(3), NodeAddr(5)),
            vec![
                ClusterId(3),
                ClusterId(1),
                ClusterId(0),
                ClusterId(4),
                ClusterId(5)
            ]
        );
    }

    #[test]
    fn hierarchical_gateway_churn_escalates_to_exact_repair() {
        let mut t = Topology::hierarchical_hypercube(&[4, 2], 1).unwrap();
        // Kill the only inter-group cable in the 0->4 direction.
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(0),
                port: 3,
            },
            false,
        );
        t.recompute();
        assert!(!t.reachable(ClusterId(1), ClusterId(5)));
        assert!(t.reachable(ClusterId(5), ClusterId(1)), "reverse alive");
        assert!(!t.cluster_path_into(NodeAddr(1), NodeAddr(5), &mut Vec::new()));
        // In-group routing still works on both sides.
        assert!(t.reachable(ClusterId(1), ClusterId(2)));
        assert!(t.reachable(ClusterId(5), ClusterId(6)));
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(0),
                port: 3,
            },
            true,
        );
        t.recompute();
        assert_eq!(t.overlay_len(), 0);
        assert!(t.reachable(ClusterId(1), ClusterId(5)));
    }

    #[test]
    fn redundant_gateway_fails_over_and_heals() {
        // [4,2] redundant: primary gateway class residue 0 (clusters 0, 4),
        // standby class residue 1 (clusters 1, 5), both on port 3.
        let mut t = Topology::hierarchical_hypercube_redundant(&[4, 2], 1).unwrap();
        assert_eq!(
            t.attachment(PortRef {
                cluster: ClusterId(1),
                port: 3
            }),
            Attachment::Cluster(PortRef {
                cluster: ClusterId(5),
                port: 3
            }),
            "standby class carries its own physical cable"
        );
        // Baseline routes via the primary gateway.
        assert_eq!(
            t.cluster_path(NodeAddr(3), NodeAddr(5)),
            vec![
                ClusterId(3),
                ClusterId(1),
                ClusterId(0),
                ClusterId(4),
                ClusterId(5)
            ]
        );
        // Kill the primary inter-group cable (0 -> 4 direction): the whole
        // role re-wires onto the standby class — no overlay entries, every
        // pair still reachable.
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(0),
                port: 3,
            },
            false,
        );
        t.recompute();
        assert_eq!(t.overlay_len(), 0, "failover is a re-wire, not a detour");
        assert_eq!(
            t.cluster_path(NodeAddr(3), NodeAddr(5)),
            vec![ClusterId(3), ClusterId(1), ClusterId(5)],
            "traffic crosses at the standby gateway"
        );
        for s in 0..8u32 {
            for d in 0..8u32 {
                assert!(t.reachable(ClusterId(s), ClusterId(d)), "{s}->{d}");
            }
        }
        // Heal restores the primary class.
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(0),
                port: 3,
            },
            true,
        );
        t.recompute();
        assert_eq!(
            t.cluster_path(NodeAddr(3), NodeAddr(5)),
            vec![
                ClusterId(3),
                ClusterId(1),
                ClusterId(0),
                ClusterId(4),
                ClusterId(5)
            ]
        );
    }

    #[test]
    fn redundant_gateway_double_fault_escalates() {
        let mut t = Topology::hierarchical_hypercube_redundant(&[4, 2], 1).unwrap();
        // Kill both classes' cables in the forward direction: no failover
        // target remains, so the exact repair must declare unreachability.
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(0),
                port: 3,
            },
            false,
        );
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(1),
                port: 3,
            },
            false,
        );
        t.recompute();
        assert!(!t.reachable(ClusterId(2), ClusterId(6)));
        assert!(t.reachable(ClusterId(6), ClusterId(2)), "reverse alive");
        // One heal brings the standby back: reachable again via failover.
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(1),
                port: 3,
            },
            true,
        );
        t.recompute();
        assert!(t.reachable(ClusterId(2), ClusterId(6)));
        assert_eq!(t.overlay_len(), 0);
    }

    #[test]
    fn redundant_world_routes_every_pair() {
        let t = Topology::hierarchical_hypercube_redundant(&[4, 4], 2).unwrap();
        assert_eq!(t.n_clusters(), 16);
        for s in t.endpoints() {
            for d in t.endpoints() {
                if s != d {
                    let path = t.cluster_path(s, d); // asserts loop-free
                    assert!(path.len() <= t.n_clusters());
                }
            }
        }
    }

    #[test]
    fn hierarchy_port_budget_is_enforced() {
        // [8,16]: 3 level-0 dims, 4 super-dims spread over 8 residues (max
        // one gateway role per cluster). 3 + 9 + 1 = 13 ports: too many.
        assert!(matches!(
            Topology::hierarchical_hypercube(&[8, 16], 9),
            Err(TopologyError::NotEnoughPorts { needed: 13, .. })
        ));
        // 3 + 8 + 1 = 12: exactly fits.
        let t = Topology::hierarchical_hypercube(&[8, 16], 8).unwrap();
        assert_eq!(t.n_clusters(), 128);
        assert_eq!(t.n_endpoints(), 1024);
    }

    #[test]
    fn scale_config_fits_port_budget() {
        // The 100k-endpoint campaign shape: 25_600 clusters, 102_400
        // endpoints, 6 + 4 + 2 = 12 ports at the busiest gateway.
        let t = Topology::hierarchical_hypercube(&[64, 20, 20], 4).unwrap();
        assert_eq!(t.n_clusters(), 25_600);
        assert_eq!(t.n_endpoints(), 102_400);
        // Spot-check a long route: valid, loop-free, bounded.
        let p = t.cluster_path(NodeAddr(0), NodeAddr(102_399));
        assert!(p.len() <= 64);
    }

    #[test]
    fn dense_bfs_matches_implicit_reachability() {
        let mut t = Topology::incomplete_hypercube(6, 1).unwrap();
        t.set_edge_state(
            PortRef {
                cluster: ClusterId(0),
                port: 0,
            },
            false,
        );
        t.recompute();
        let mut table = Vec::new();
        t.dense_bfs_into(&mut table);
        for a in 0..6u32 {
            for b in 0..6u32 {
                if a != b {
                    assert_eq!(
                        table[a as usize][b as usize] != u8::MAX,
                        t.reachable(ClusterId(a), ClusterId(b)),
                        "dense vs implicit disagree on {a}->{b}"
                    );
                }
            }
        }
    }
}
