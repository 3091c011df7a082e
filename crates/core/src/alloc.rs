//! Processor allocation (§3.1).
//!
//! The section's whole arc is here:
//!
//! * Meglos "allowed up to 15 independent processes to run on a processor"
//!   and was "designed to make it easy for users to share their
//!   processors" — [`Allocator::allocate_shared`];
//! * "programmers did not want to share their processors because they
//!   wanted to balance the computational load of their application in a
//!   repeatable fashion. Realizing our mistake, we added 'exclusive access'
//!   capabilities" — [`Allocator::allocate`];
//! * Meglos freed processors at application exit, VORX holds them until
//!   explicitly freed — the usage disciplines compared by `E-ALLOC`;
//! * "users sometimes forget to free their processors" — the considered
//!   remedies are implemented: free on logout ([`Allocator::logout`]),
//!   idle-timeout reclamation ([`Allocator::reclaim_idle`]), and the
//!   use-carefully [`Allocator::force_free`] command.

use std::collections::BTreeMap;
use std::fmt;

use desim::FixedMap;
use hpcnet::NodeAddr;

/// A user of the installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserId(pub u32);

/// Meglos's per-processor process limit ("up to 15 independent processes").
pub const MAX_PROCS_PER_NODE: usize = 15;

/// Allocation failure: the §3.1 diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessorsNotAvailable {
    /// How many were requested.
    pub requested: usize,
    /// How many were free.
    pub free: usize,
}

impl fmt::Display for ProcessorsNotAvailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "processors not available: requested {}, only {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for ProcessorsNotAvailable {}

/// Use state of one processing node.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Exclusive owner, if any.
    exclusive: Option<UserId>,
    /// Shared-mode processes (one entry per process), bounded by
    /// [`MAX_PROCS_PER_NODE`].
    shared: Vec<UserId>,
}

impl Slot {
    fn is_free(&self) -> bool {
        self.exclusive.is_none() && self.shared.is_empty()
    }
}

/// Ownership state of the processing-node pool. Only owned processors
/// hold a [`Slot`]: a pool of 100k endpoints that nobody allocates costs
/// nothing per processor.
#[derive(Debug, Clone)]
pub struct Allocator {
    /// First allocatable node (host adapters are not allocatable).
    first: usize,
    /// Processors in the pool.
    size: usize,
    /// The owned processors' slots, by pool index; a slot that frees is
    /// removed.
    owned: BTreeMap<usize, Slot>,
    /// Last-activity timestamps for idle reclamation, ns.
    activity: FixedMap<UserId, u64>,
}

impl Allocator {
    /// Pool over nodes `first_node..n_nodes`.
    pub fn new(first_node: usize, n_nodes: usize) -> Self {
        Allocator {
            first: first_node,
            size: n_nodes.saturating_sub(first_node),
            owned: BTreeMap::new(),
            activity: FixedMap::default(),
        }
    }

    fn addr(&self, idx: usize) -> NodeAddr {
        NodeAddr((self.first + idx) as u32)
    }

    fn idx(&self, a: NodeAddr) -> usize {
        let i = (a.0 as usize)
            .checked_sub(self.first)
            .expect("not an allocatable node");
        assert!(i < self.size, "{a} is not in the pool");
        i
    }

    /// Apply `f` to the slot of pool index `i`, dropping the slot if that
    /// leaves it free.
    fn update(&mut self, i: usize, f: impl FnOnce(&mut Slot)) {
        let slot = self.owned.entry(i).or_default();
        f(slot);
        if slot.is_free() {
            self.owned.remove(&i);
        }
    }

    /// Free pool indices, ascending.
    fn free_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.size).filter(|i| !self.owned.contains_key(i))
    }

    /// Number of completely unowned processors.
    pub fn free_count(&self) -> usize {
        self.size - self.owned.len()
    }

    /// Total pool size.
    pub fn pool_size(&self) -> usize {
        self.size
    }

    /// The current exclusive owner of a node.
    pub fn owner_of(&self, a: NodeAddr) -> Option<UserId> {
        self.owned.get(&self.idx(a)).and_then(|s| s.exclusive)
    }

    /// Shared-mode processes on a node.
    pub fn shared_on(&self, a: NodeAddr) -> &[UserId] {
        self.owned.get(&self.idx(a)).map_or(&[], |s| &s.shared)
    }

    /// Nodes exclusively owned by `user`.
    pub fn owned_by(&self, user: UserId) -> Vec<NodeAddr> {
        self.owned
            .iter()
            .filter(|(_, s)| s.exclusive == Some(user))
            .map(|(&i, _)| self.addr(i))
            .collect()
    }

    /// Exclusively allocate `count` processors to `user`, or fail with the
    /// §3.1 diagnostic. Exclusive access "exclude[s] other processes from a
    /// processor", so only completely free nodes qualify.
    pub fn allocate(
        &mut self,
        user: UserId,
        count: usize,
    ) -> Result<Vec<NodeAddr>, ProcessorsNotAvailable> {
        let free = self.free_count();
        if free < count {
            return Err(ProcessorsNotAvailable {
                requested: count,
                free,
            });
        }
        let taken: Vec<usize> = self.free_indices().take(count).collect();
        for &i in &taken {
            self.update(i, |s| s.exclusive = Some(user));
        }
        Ok(taken.into_iter().map(|i| self.addr(i)).collect())
    }

    /// Shared-mode placement of `count` processes (the original Meglos
    /// design): least-loaded non-exclusive nodes first, at most 15
    /// processes per node. Returns one node per process.
    pub fn allocate_shared(
        &mut self,
        user: UserId,
        count: usize,
    ) -> Result<Vec<NodeAddr>, ProcessorsNotAvailable> {
        let mut placed = Vec::with_capacity(count);
        for _ in 0..count {
            // A free processor is the least loaded there is, and the first
            // is the lowest-numbered of them.
            let best = self.free_indices().next().or_else(|| {
                self.owned
                    .iter()
                    .filter(|(_, s)| s.exclusive.is_none() && s.shared.len() < MAX_PROCS_PER_NODE)
                    .min_by_key(|(&i, s)| (s.shared.len(), i))
                    .map(|(&i, _)| i)
            });
            match best {
                Some(i) => {
                    self.update(i, |s| s.shared.push(user));
                    placed.push(self.addr(i));
                }
                None => {
                    // Roll back partial placement.
                    self.release_shared(user, &placed);
                    return Err(ProcessorsNotAvailable {
                        requested: count,
                        free: 0,
                    });
                }
            }
        }
        Ok(placed)
    }

    /// Release one shared-mode process of `user` from each listed node.
    pub fn release_shared(&mut self, user: UserId, nodes: &[NodeAddr]) {
        for &a in nodes {
            let i = self.idx(a);
            self.update(i, |s| {
                if let Some(pos) = s.shared.iter().rposition(|u| *u == user) {
                    s.shared.remove(pos);
                }
            });
        }
    }

    /// Free specific exclusively-owned nodes. Nodes owned by someone else
    /// are left untouched (returns how many were actually freed).
    pub fn free(&mut self, user: UserId, nodes: &[NodeAddr]) -> usize {
        let mut n = 0;
        for &a in nodes {
            if self.owner_of(a) == Some(user) {
                self.owned.remove(&self.idx(a));
                n += 1;
            }
        }
        n
    }

    /// Free everything `user` owns (exclusive and shared). Returns the
    /// number of exclusive nodes freed.
    pub fn free_all(&mut self, user: UserId) -> usize {
        let mut n = 0;
        self.owned.retain(|_, s| {
            if s.exclusive == Some(user) {
                s.exclusive = None;
                n += 1;
            }
            s.shared.retain(|u| *u != user);
            !s.is_free()
        });
        n
    }

    /// The VORX escape hatch: "a command that allows a user to free
    /// processors allocated to other users, and request that it be used
    /// carefully." Frees the nodes regardless of owner.
    pub fn force_free(&mut self, nodes: &[NodeAddr]) {
        for &a in nodes {
            self.owned.remove(&self.idx(a));
        }
    }

    // --- automatic-recovery options the paper considered (§3.1) ---

    /// Record user activity at `now_ns` (running an application, issuing a
    /// command). Used by idle reclamation.
    pub fn touch(&mut self, user: UserId, now_ns: u64) {
        self.activity.insert(user, now_ns);
    }

    /// "Automatically freeing them when a user logs off their workstation."
    /// Returns the number of exclusive nodes recovered.
    pub fn logout(&mut self, user: UserId) -> usize {
        self.activity.remove(&user);
        self.free_all(user)
    }

    /// "...or when there is no activity for several hours": free everything
    /// belonging to users idle longer than `max_idle_ns`. Returns the
    /// recovered nodes.
    pub fn reclaim_idle(&mut self, now_ns: u64, max_idle_ns: u64) -> Vec<NodeAddr> {
        let idle: Vec<UserId> = self
            .activity
            .iter()
            .filter(|(_, last)| now_ns.saturating_sub(**last) > max_idle_ns)
            .map(|(u, _)| *u)
            .collect();
        let mut recovered = Vec::new();
        for u in idle {
            recovered.extend(self.owned_by(u));
            self.logout(u);
        }
        recovered.sort();
        recovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_free_cycle() {
        let mut a = Allocator::new(2, 10); // nodes 2..10
        assert_eq!(a.pool_size(), 8);
        let mine = a.allocate(UserId(1), 3).unwrap();
        assert_eq!(mine.len(), 3);
        assert_eq!(a.free_count(), 5);
        assert_eq!(a.owner_of(mine[0]), Some(UserId(1)));
        assert_eq!(a.free(UserId(1), &mine), 3);
        assert_eq!(a.free_count(), 8);
    }

    #[test]
    fn exclusive_access_blocks_second_user() {
        let mut a = Allocator::new(0, 8);
        a.allocate(UserId(1), 6).unwrap();
        let err = a.allocate(UserId(2), 3).unwrap_err();
        assert_eq!(
            err,
            ProcessorsNotAvailable {
                requested: 3,
                free: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "processors not available: requested 3, only 2 free"
        );
    }

    #[test]
    fn cannot_free_someone_elses_nodes() {
        let mut a = Allocator::new(0, 4);
        let theirs = a.allocate(UserId(1), 2).unwrap();
        assert_eq!(a.free(UserId(2), &theirs), 0);
        assert_eq!(a.owner_of(theirs[0]), Some(UserId(1)));
    }

    #[test]
    fn force_free_overrides_ownership() {
        let mut a = Allocator::new(0, 4);
        let theirs = a.allocate(UserId(1), 2).unwrap();
        a.force_free(&theirs);
        assert_eq!(a.free_count(), 4);
    }

    #[test]
    fn free_all_on_exit() {
        let mut a = Allocator::new(0, 6);
        a.allocate(UserId(7), 4).unwrap();
        assert_eq!(a.free_all(UserId(7)), 4);
        assert_eq!(a.owned_by(UserId(7)), vec![]);
    }

    #[test]
    fn meglos_race_reproduced() {
        // §3.1: A runs, finishes (auto-free), recompiles; B grabs the pool
        // meanwhile; A's next run fails with "processors not available".
        let mut pool = Allocator::new(0, 8);
        let a_nodes = pool.allocate(UserId(1), 8).unwrap();
        pool.free(UserId(1), &a_nodes);
        pool.allocate(UserId(2), 8).unwrap();
        assert!(pool.allocate(UserId(1), 8).is_err());
    }

    #[test]
    fn shared_mode_packs_least_loaded_first() {
        let mut a = Allocator::new(0, 2);
        let placed = a.allocate_shared(UserId(1), 4).unwrap();
        // Round-robins across the two nodes.
        let on0 = placed.iter().filter(|n| n.0 == 0).count();
        let on1 = placed.iter().filter(|n| n.0 == 1).count();
        assert_eq!((on0, on1), (2, 2));
        assert_eq!(a.shared_on(NodeAddr(0)).len(), 2);
    }

    #[test]
    fn shared_mode_honours_the_15_process_limit() {
        let mut a = Allocator::new(0, 1);
        a.allocate_shared(UserId(1), 15).unwrap();
        assert!(a.allocate_shared(UserId(2), 1).is_err());
        a.release_shared(UserId(1), &[NodeAddr(0)]);
        assert!(a.allocate_shared(UserId(2), 1).is_ok());
    }

    #[test]
    fn exclusive_refuses_shared_nodes_and_vice_versa() {
        let mut a = Allocator::new(0, 2);
        a.allocate_shared(UserId(1), 1).unwrap(); // lands on node 0
        let got = a.allocate(UserId(2), 1).unwrap();
        assert_eq!(got, vec![NodeAddr(1)]); // skips the shared node
                                            // And shared placement refuses the exclusive node.
        let err = a.allocate_shared(UserId(3), 30);
        assert!(err.is_err(), "only node 0 is usable, 15-process cap");
    }

    #[test]
    fn shared_failure_rolls_back_partial_placement() {
        let mut a = Allocator::new(0, 1);
        a.allocate_shared(UserId(1), 10).unwrap();
        // 6 more would exceed the 15-slot node; nothing should stick.
        assert!(a.allocate_shared(UserId(2), 6).is_err());
        assert!(a.shared_on(NodeAddr(0)).iter().all(|u| *u == UserId(1)));
        assert_eq!(a.shared_on(NodeAddr(0)).len(), 10);
    }

    #[test]
    fn logout_recovers_everything() {
        let mut a = Allocator::new(0, 6);
        a.allocate(UserId(1), 2).unwrap();
        a.allocate_shared(UserId(1), 3).unwrap();
        assert_eq!(a.logout(UserId(1)), 2);
        assert_eq!(a.free_count(), 6);
    }

    #[test]
    fn idle_reclamation_frees_only_idle_users() {
        const HOUR: u64 = 3_600_000_000_000;
        let mut a = Allocator::new(0, 8);
        a.allocate(UserId(1), 3).unwrap();
        a.touch(UserId(1), 0);
        a.allocate(UserId(2), 3).unwrap();
        a.touch(UserId(2), 5 * HOUR);
        // At t=6h with a 2h threshold: user 1 idle 6h (reclaim), user 2
        // idle 1h (keep).
        let recovered = a.reclaim_idle(6 * HOUR, 2 * HOUR);
        assert_eq!(recovered.len(), 3);
        assert_eq!(a.owned_by(UserId(1)), vec![]);
        assert_eq!(a.owned_by(UserId(2)).len(), 3);
        assert_eq!(a.free_count(), 5);
    }
}
