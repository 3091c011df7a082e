//! Asynchronous conservative parallel discrete-event execution (Chandy–Misra
//! style) over sharded worlds.
//!
//! The sequential executor ([`Simulation`]) dispatches every event on one
//! thread, so host wall-time grows linearly with the size of the simulated
//! machine. This module runs N independent `Simulation`s — *shards* — in
//! parallel, each advancing **independently** to its *earliest input time*
//! (EIT): the minimum over incoming cross-shard links of `peer frontier +
//! that link's latency`. There is no global barrier and no shared window
//! clock; a shard ahead of its neighbors keeps executing as long as its EIT
//! permits.
//!
//! ## The protocol
//!
//! Each shard `i` publishes a **frontier** `F_i` — a monotone promise that it
//! will never again execute anything (and therefore never send anything)
//! before `F_i`. Because every message from `i` to `j` carries at least the
//! per-link lookahead `L[i][j]` of simulated latency, shard `j` may safely
//! execute everything *strictly below* `EIT_j = min_i (F_i + L[i][j])`.
//! Messages travel through per-directed-link locked mailboxes
//! ([`crate::spsc`]), each with a `depth` count. A producer bumps the count,
//! pushes, then `Release`-stores the frontier covering the send; a consumer
//! `Acquire`-loads that frontier, then reads the count and locks. So any
//! message below its computed EIT is counted and visible when it drains, and
//! a mailbox whose count reads 0 is skipped unlocked.
//!
//! An idle shard cannot stall its neighbors: with no events of its own, its
//! frontier becomes its own EIT, which grows as *its* inputs advance — the
//! classic null-message avalanche, propagated here as frontier bumps at
//! memory speed rather than as queued null events.
//!
//! ## Determinism
//!
//! Simulated outcomes are a function of the shard partition, never of the
//! worker count or host timing:
//!
//! * Buffered cross-shard messages are injected **only at exact time
//!   boundaries**: the shard runs strictly below the next delivery time `t`,
//!   then injects every buffered message at `t` in `(deliver_at, src_shard,
//!   seq)` order. Since `t < EIT`, the batch is complete — no later-arriving
//!   message can land at `t` — so both the batch and its order are pure
//!   functions of the simulation state.
//! * Within a run a shard's clock only ever settles on executed-event times:
//!   run segments are issued only when an event exists below the bound, so
//!   each shard's resting time (its [`IdleReport`]) is pacing-independent.
//!   After the reports are taken every clock moves up to the latest resting
//!   time, itself such a time, so a further run starts at one instant.
//! * A single-shard configuration has `EIT = ∞` and executes as one
//!   uninterrupted run — byte-for-byte the sequential engine.
//!
//! ## Termination
//!
//! One fetch-and-add counter, `busy`, counts the shards whose last step
//! boundary left them with work, plus the cross-shard messages pushed but not
//! yet settled by the step that drained them. A sender adds 1 before the
//! push; a step settles once, at its boundary, with one RMW of its net change
//! (`(busy now − busy before) − drained`). So `busy` reads 0 only when no
//! shard has work and no message is in flight, and nothing can raise it
//! again: a worker that reads 0 after a pass with no progress stops.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::queue::MinHeap;
use crate::sim::{IdleReport, Scheduler, Simulation};
use crate::spsc;
use crate::time::SimTime;

/// The CPUs this process may run on, as
/// [`std::thread::available_parallelism`] reports them (the affinity mask
/// and any cgroup quota), 1 where it cannot tell. Read once per process: the
/// call reads cgroup files (≈ 12 µs on a 2-vCPU Linux host), where building a
/// sharded world takes about half a millisecond.
pub fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// A cross-shard message drained from a shard's outbox.
#[derive(Debug)]
pub struct OutMsg<M> {
    /// Absolute simulated delivery time. Must carry at least the latency
    /// matrix entry for its link past the sender's published frontier; the
    /// engine asserts this on every routed message.
    pub deliver_at: SimTime,
    /// Index of the destination shard.
    pub dst_shard: usize,
    /// The message payload.
    pub msg: M,
}

/// World state that can participate in sharded execution.
///
/// A shard is a full [`Simulation`] over one `ShardWorld`; the world decides
/// which of its activity crosses shard boundaries and parks it in an outbox
/// instead of acting on it locally.
pub trait ShardWorld: Send + Sized + 'static {
    /// Cross-shard message type.
    type Msg: Send + 'static;

    /// Move the messages this shard produced for other shards since the
    /// last drain into `into` (e.g. via [`Vec::append`], which keeps both
    /// buffers' capacity — the engine reuses `into` for the whole run). The
    /// order appended must be a deterministic function of the shard's own
    /// execution: it feeds the global `(deliver_at, src_shard, seq)` order.
    fn drain_outbox(&mut self, into: &mut Vec<OutMsg<Self::Msg>>);

    /// Deliver a message produced by another shard. Runs as an injected
    /// event at the message's `deliver_at` instant.
    fn deliver(&mut self, s: &mut Scheduler<Self>, msg: Self::Msg);
}

/// Counters the sharded engine keeps about its own execution, for the
/// `pdes` campaign's report and CI regression visibility.
#[derive(Debug, Clone, Default)]
pub struct PdesStats {
    /// Run segments issued across all shards (each is one `run_until` over
    /// an interval the sync protocol proved safe).
    pub rounds: u64,
    /// Cross-shard messages routed through the per-link mailboxes.
    pub msgs_bridged: u64,
    /// Frontier advances published by shards that neither executed nor
    /// received anything that pass — the null-message traffic equivalent.
    pub frontier_bumps: u64,
    /// Activities dispatched by each shard over the whole run (events +
    /// process resumes), indexed by shard.
    pub events_per_shard: Vec<u64>,
}

/// A cross-shard message's place in the global injection order,
/// `(deliver_at, src_shard, seq)`: `seq` counts the sender's messages to the
/// destination, so the order never depends on when a mailbox was drained.
type Key = (u64, u32, u64);
type Envelope<M> = (Key, M);

/// A counter alone on its cache line: frontiers are the hottest cross-thread
/// state in the engine, and false sharing between neighbors would serialize
/// exactly the reads the design makes independent. `busy` is written by every
/// worker; beside the fields of `Shared` that every step reads, it would
/// make each of its writes a miss on that line for the other workers.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// State shared between workers (and with [`PdesMonitor`]).
struct Shared {
    /// Published frontier per shard (ns).
    frontier: Vec<PaddedU64>,
    /// Mailbox depth per directed link (`src * n + dst`), bumped *before*
    /// the push: a step drains no more than it reads (see the module docs).
    depth: Vec<AtomicU64>,
    /// Shards with work at their last step boundary, plus messages pushed
    /// and not yet settled (the termination rule in the module docs).
    busy: PaddedU64,
    /// Set by a worker that panics, to release its peers.
    done: AtomicBool,
}

/// Introspection handle for deadlock watchdogs: a snapshot of every shard's
/// frontier, the `busy` count, and mailbox depths. Cheap to clone and safe
/// to read while the engine runs.
#[derive(Clone)]
pub struct PdesMonitor {
    shared: Arc<Shared>,
    n: usize,
}

impl PdesMonitor {
    /// Human-readable dump of per-shard frontiers, the `busy` count and
    /// per-link mailbox depths — what a watchdog prints when a run fails to
    /// reach idle.
    pub fn dump(&self) -> String {
        let mut out = format!("busy={}\n", self.shared.busy.0.load(Ordering::SeqCst));
        for i in 0..self.n {
            let f = self.shared.frontier[i].0.load(Ordering::Acquire);
            let _ = writeln!(
                out,
                "shard {i}: frontier={}",
                if f == u64::MAX {
                    "inf".to_string()
                } else {
                    format!("{f}ns")
                },
            );
        }
        for src in 0..self.n {
            for dst in 0..self.n {
                let d = self.shared.depth[src * self.n + dst].load(Ordering::Acquire);
                if d > 0 {
                    let _ = writeln!(out, "mailbox {src}->{dst}: {d} queued");
                }
            }
        }
        out
    }
}

/// Everything one shard needs at run time; owned by exactly one worker.
struct Slot<W: ShardWorld> {
    id: usize,
    sim: Simulation<W>,
    /// Mailbox receivers, indexed by source shard (`None` at `id`).
    rx: Vec<Option<spsc::Receiver<Envelope<W::Msg>>>>,
    /// Mailbox senders, indexed by destination shard (`None` at `id`).
    tx: Vec<Option<spsc::Sender<Envelope<W::Msg>>>>,
    /// Next sequence number per destination shard (self included).
    seq: Vec<u64>,
    /// Messages received (or self-sent) but not yet injectable.
    pending: MinHeap<Key, W::Msg>,
    /// Reused outbox drain buffer (capacity persists across the run).
    scratch: Vec<OutMsg<W::Msg>>,
    /// Last published frontier value.
    last_frontier: u64,
    /// Exclusive upper bound of the last issued run segment: every executed
    /// event is strictly below it, so nothing may ever be scheduled below it.
    run_bound: u64,
    /// Whether this shard counts itself in `busy`: its last step boundary
    /// left it with local events or buffered messages.
    busy: bool,
    // Slot-local statistics, aggregated after the run.
    rounds: u64,
    bumps: u64,
    sent: u64,
}

/// An asynchronous conservative sharded simulation.
pub struct ShardedSim<W: ShardWorld> {
    slots: Vec<Slot<W>>,
    shared: Arc<Shared>,
    /// Flattened per-pair lookahead matrix, `lat[src * n + dst]` in ns.
    /// `u64::MAX` declares "no such link" (excluded from EIT; sends assert).
    lat: Vec<u64>,
    workers: usize,
    stats: PdesStats,
}

impl<W: ShardWorld> ShardedSim<W> {
    /// Build a sharded engine over `shards` with a full per-pair lookahead
    /// matrix: `link_latency_ns[src][dst]` is the minimum simulated latency
    /// any message from `src` carries to `dst`. Off-diagonal entries must be
    /// ≥ 1 ns; `u64::MAX` means "src never sends to dst" and removes the
    /// link from dst's EIT (the engine asserts if such a message appears).
    /// The diagonal bounds self-sends through the outbox the same way.
    /// Executed by `workers` threads, clamped to `[1, shards.len()]` and to
    /// the CPUs the process may run on ([`host_cpus`]); the worker count is
    /// invisible in every simulated result.
    pub fn new(shards: Vec<Simulation<W>>, link_latency_ns: Vec<Vec<u64>>, workers: usize) -> Self {
        assert!(!shards.is_empty(), "a sharded sim needs at least one shard");
        let n = shards.len();
        assert_eq!(link_latency_ns.len(), n, "latency matrix must be n x n");
        let mut lat = Vec::with_capacity(n * n);
        for row in &link_latency_ns {
            assert_eq!(row.len(), n, "latency matrix must be n x n");
            lat.extend_from_slice(row);
        }
        for (i, &l) in lat.iter().enumerate() {
            assert!(
                l >= 1,
                "lookahead {}->{} must be at least 1 ns (or u64::MAX for no link)",
                i / n,
                i % n
            );
        }
        let workers = workers.min(host_cpus()).clamp(1, n);
        let shared = Arc::new(Shared {
            frontier: (0..n).map(|_| PaddedU64(AtomicU64::new(0))).collect(),
            depth: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            busy: PaddedU64(AtomicU64::new(0)),
            done: AtomicBool::new(false),
        });
        // One mailbox per directed cross-shard pair. The worker owning the
        // source shard is the only producer and the worker owning the
        // destination the only consumer, for any (static, contiguous)
        // shard-to-worker assignment.
        type RxMat<M> = Vec<Vec<Option<spsc::Receiver<Envelope<M>>>>>;
        type TxMat<M> = Vec<Vec<Option<spsc::Sender<Envelope<M>>>>>;
        let mut rx_mat: RxMat<W::Msg> = (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut tx_mat: TxMat<W::Msg> = (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for src in 0..n {
            for dst in 0..n {
                if src != dst && lat[src * n + dst] != u64::MAX {
                    let (tx, rx) = spsc::pair();
                    tx_mat[src][dst] = Some(tx);
                    rx_mat[dst][src] = Some(rx);
                }
            }
        }
        let slots = shards
            .into_iter()
            .zip(rx_mat.into_iter().zip(tx_mat))
            .enumerate()
            .map(|(id, (sim, (rx, tx)))| Slot {
                id,
                sim,
                rx,
                tx,
                seq: vec![0; n],
                pending: MinHeap::default(),
                scratch: Vec::new(),
                last_frontier: 0,
                run_bound: 0,
                busy: true,
                rounds: 0,
                bumps: 0,
                sent: 0,
            })
            .collect();
        ShardedSim {
            slots,
            shared,
            lat,
            workers,
            stats: PdesStats::default(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.slots.len()
    }

    /// Worker threads the run loop will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Access shard `i` (for setup: spawning processes, world inspection).
    pub fn shard(&self, i: usize) -> &Simulation<W> {
        &self.slots[i].sim
    }

    /// Counters accumulated by [`ShardedSim::run_to_idle`].
    pub fn stats(&self) -> &PdesStats {
        &self.stats
    }

    /// Introspection handle for watchdogs; remains valid while the engine
    /// runs on other threads.
    pub fn monitor(&self) -> PdesMonitor {
        PdesMonitor {
            shared: Arc::clone(&self.shared),
            n: self.slots.len(),
        }
    }

    /// Consume the engine, returning the shards (for post-run analysis).
    pub fn into_shards(self) -> Vec<Simulation<W>> {
        self.slots.into_iter().map(|s| s.sim).collect()
    }

    /// Run every shard to global quiescence: no local events anywhere and no
    /// cross-shard messages in flight. Returns one [`IdleReport`] per shard.
    pub fn run_to_idle(&mut self) -> Vec<IdleReport> {
        let n = self.slots.len();
        // Reset the sync state for this run (frontiers may only ratchet
        // *within* a run; new work spawned between runs starts a new epoch).
        // Every shard counts itself busy until its first step boundary.
        self.shared.done.store(false, Ordering::SeqCst);
        self.shared.busy.0.store(n as u64, Ordering::SeqCst);
        for i in 0..n {
            self.shared.frontier[i].0.store(0, Ordering::SeqCst);
        }
        for s in &mut self.slots {
            s.last_frontier = 0;
            s.run_bound = 0;
            s.busy = true;
        }

        let shared = &self.shared;
        let lat = &self.lat;
        if self.workers <= 1 {
            worker_loop(&mut self.slots, shared, lat, n);
        } else {
            let chunk = n.div_ceil(self.workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .slots
                    .chunks_mut(chunk)
                    .map(|slots| {
                        scope.spawn(move || {
                            // A panicking worker (lookahead violation, world
                            // bug) must release its peers before unwinding,
                            // or the scope join would hang.
                            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                worker_loop(slots, shared, lat, n)
                            }));
                            if let Err(p) = r {
                                shared.done.store(true, Ordering::SeqCst);
                                std::panic::resume_unwind(p)
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                }
            });
        }

        self.stats.rounds = self.slots.iter().map(|s| s.rounds).sum();
        self.stats.msgs_bridged = self.slots.iter().map(|s| s.sent).sum();
        self.stats.frontier_bumps = self.slots.iter().map(|s| s.bumps).sum();
        self.stats.events_per_shard = self
            .slots
            .iter()
            .map(|s| s.sim.events_dispatched())
            .collect();
        let reports: Vec<IdleReport> = self
            .slots
            .iter_mut()
            .map(|s| {
                // `busy` read 0: every shard idle, no message in flight.
                let idle = s.sim.run_segment(SimTime::ZERO);
                assert!(idle, "shard {} not idle after termination", s.id);
                s.sim.idle_report()
            })
            .collect();
        // Each report carries its shard's own resting time; the clocks then
        // move up to the latest of them, so that work set up for another run
        // starts at one instant everywhere and nothing it sends can be due
        // at a shard before that shard's clock.
        let end = reports.iter().map(|r| r.now).max().expect("n >= 1");
        for s in &mut self.slots {
            s.sim.rest_until(end);
        }
        reports
    }
}

/// Drive a chunk of shards until `busy` reads 0 after a pass that made no
/// progress, or a panicking peer sets `done`. Otherwise an unproductive pass
/// yields the CPU; frontier bumps still happen every pass, so the
/// null-message ratchet keeps running underneath.
fn worker_loop<W: ShardWorld>(slots: &mut [Slot<W>], shared: &Shared, lat: &[u64], n: usize) {
    loop {
        let mut progress = false;
        for slot in slots.iter_mut() {
            progress |= step(slot, shared, lat, n);
        }
        if progress {
            continue;
        }
        if shared.busy.0.load(Ordering::SeqCst) == 0 || shared.done.load(Ordering::SeqCst) {
            return;
        }
        std::thread::yield_now();
    }
}

/// One scheduling pass over one shard: read frontiers, drain mailboxes,
/// execute everything provably safe, publish the new frontier. Returns true
/// iff the pass drained, injected, or executed anything (frontier bumps
/// alone do not count).
fn step<W: ShardWorld>(slot: &mut Slot<W>, shared: &Shared, lat: &[u64], n: usize) -> bool {
    let me = slot.id;
    // 1. Earliest input time from the peer frontiers. The Acquire load pairs
    //    with the Release publish below: a peer's sends below its published
    //    frontier are already in our mailboxes when we read that frontier.
    let mut eit = u64::MAX;
    for k in 0..n {
        if k == me {
            continue;
        }
        let l = lat[k * n + me];
        if l == u64::MAX {
            continue;
        }
        eit = eit.min(
            shared.frontier[k]
                .0
                .load(Ordering::Acquire)
                .saturating_add(l),
        );
    }
    // 2. Drain the per-link mailboxes into the pending heap (after the
    //    frontier reads — never before, or a message could slip between).
    //    A message counted but not yet pushed is above EIT: a later step's.
    let mut drained = 0u64;
    for src in 0..n {
        let Some(rx) = &slot.rx[src] else { continue };
        let depth = &shared.depth[src * n + me];
        let counted = depth.load(Ordering::Relaxed);
        let mut popped = 0;
        while popped < counted {
            let Some((key, msg)) = rx.pop() else { break };
            slot.pending.push(key, msg);
            popped += 1;
        }
        if popped > 0 {
            depth.fetch_sub(popped, Ordering::Relaxed);
            drained += popped;
        }
    }
    // 3. Execute everything strictly below EIT. Buffered deliveries are
    //    injected at their exact instants; local runs stop at the next
    //    delivery boundary, the self-send horizon, and EIT.
    let mut ran = false;
    let self_l = lat[me * n + me];
    loop {
        route_outbox(slot, shared, lat, n);
        let next_local = slot.sim.next_event_time().map(|t| t.as_ns());
        let next_msg = slot.pending.peek().map(|(k, _)| k.0);
        let start = match (next_local, next_msg) {
            (None, None) => break,
            (a, b) => a.into_iter().chain(b).min().expect("one is Some"),
        };
        if start >= eit {
            break;
        }
        if next_msg == Some(start) {
            // Everything below `start` has executed and `start < eit`, so
            // the batch at `start` is complete and injection order is the
            // heap's `(deliver_at, src_shard, seq)` order.
            let at = SimTime::from_ns(start);
            while slot.pending.peek().is_some_and(|(k, _)| k.0 == start) {
                let (_, msg) = slot.pending.pop().expect("peeked");
                slot.sim
                    .schedule_at(at, move |w: &mut W, s| w.deliver(s, msg));
            }
            ran = true;
            continue;
        }
        // Local events lead. Run them up to (exclusively) the next delivery
        // boundary, EIT, or the self-send horizon: a world that can route
        // messages to itself must not outrun its own lookahead, or a self
        // message produced mid-segment could land inside the segment.
        let bound = eit
            .min(next_msg.unwrap_or(u64::MAX))
            .min(start.saturating_add(self_l));
        debug_assert!(bound > start);
        slot.sim.run_segment(SimTime::from_ns(bound - 1));
        slot.run_bound = bound;
        slot.rounds += 1;
        ran = true;
    }
    // 4. Publish the new frontier: the earliest instant this shard could
    //    still execute anything — its next local event, its next buffered
    //    delivery, or (if those are later or absent) its EIT. Monotone by
    //    construction; `max` guards the invariant regardless.
    let next_local = slot.sim.next_event_time().map(|t| t.as_ns());
    let next_msg = slot.pending.peek().map(|(k, _)| k.0);
    let f = [next_local, next_msg, Some(eit)]
        .into_iter()
        .flatten()
        .min()
        .expect("eit is always present")
        .max(slot.last_frontier);
    if f > slot.last_frontier {
        if !ran && drained == 0 {
            slot.bumps += 1;
        }
        slot.last_frontier = f;
        shared.frontier[me].0.store(f, Ordering::Release);
    }
    // 5. Step boundary: settle with `busy` in one RMW. This shard's own
    //    count moves to whether it has work now, and the drained messages
    //    stop counting as in flight. The net change is never positive (an
    //    idle shard gains work only from what it drained); split into two
    //    RMWs, it would open a window in which `busy` reads 0 while the
    //    drained messages wait here.
    let busy = next_local.is_some() || next_msg.is_some();
    let settled = drained + u64::from(slot.busy) - u64::from(busy);
    slot.busy = busy;
    if settled > 0 {
        shared.busy.0.fetch_sub(settled, Ordering::SeqCst);
    }
    ran || drained > 0
}

/// Route this shard's outbox: self-sends into its own pending heap, remote
/// sends into the per-link mailboxes (pushed after `busy` and `depth` count
/// them — the frontier publish that covers them comes after, in `step`).
fn route_outbox<W: ShardWorld>(slot: &mut Slot<W>, shared: &Shared, lat: &[u64], n: usize) {
    slot.sim.world().drain_outbox(&mut slot.scratch);
    if slot.scratch.is_empty() {
        return;
    }
    let me = slot.id;
    for m in slot.scratch.drain(..) {
        let dst = m.dst_shard;
        assert!(dst < n, "message to unknown shard {dst}");
        let l = lat[me * n + dst];
        assert_ne!(
            l,
            u64::MAX,
            "shard {me} sent to shard {dst}, but the latency matrix declares no such link"
        );
        let at = m.deliver_at.as_ns();
        assert!(
            at >= slot.last_frontier.saturating_add(l),
            "cross-shard message {me}->{dst} at {at} ns violates the per-link \
             lookahead ({l} ns past frontier {} ns)",
            slot.last_frontier
        );
        // The frontier check alone is too weak for self-sends: mid-segment
        // the frontier lags the clock, so a world violating the self-link
        // contract (deliver_at >= produce time + self lookahead) could pass
        // it and schedule into the already-executed segment — `schedule_at`
        // refuses a time behind the clock, not one behind the bound of a
        // segment that went idle early. Every segment is bounded by
        // `start + self_l`, so an honored contract always lands at or past
        // the segment's exclusive bound; anything below it is a violation.
        assert!(
            dst != me || at >= slot.run_bound,
            "self message on shard {me} at {at} ns lands inside the executed \
             segment (bound {} ns): the world violated its self-link \
             lookahead of {l} ns",
            slot.run_bound
        );
        let env = ((at, me as u32, slot.seq[dst]), m.msg);
        slot.seq[dst] += 1;
        if dst == me {
            slot.pending.push(env.0, env.1);
        } else {
            // Both counts before the push: an in-flight message must hold
            // `busy` above 0, and be counted in `depth` once visible.
            shared.busy.0.fetch_add(1, Ordering::SeqCst);
            shared.depth[me * n + dst].fetch_add(1, Ordering::Relaxed);
            slot.tx[dst].as_ref().expect("cross-shard sender").push(env);
            slot.sent += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A toy shard world: messages bounce round-robin across shards with a
    /// fixed 10 ns latency, each shard logging what it saw.
    struct PingWorld {
        id: usize,
        n_shards: usize,
        log: Vec<(u64, u32)>,
        outbox: Vec<OutMsg<u32>>,
    }

    impl ShardWorld for PingWorld {
        type Msg = u32;
        fn drain_outbox(&mut self, into: &mut Vec<OutMsg<u32>>) {
            into.append(&mut self.outbox);
        }
        fn deliver(&mut self, s: &mut Scheduler<Self>, msg: u32) {
            self.log.push((s.now().as_ns(), msg));
            if msg < 25 {
                self.outbox.push(OutMsg {
                    deliver_at: s.now() + SimDuration::from_ns(10),
                    dst_shard: (self.id + 1) % self.n_shards,
                    msg: msg + 1,
                });
            }
        }
    }

    fn run_ping(n_shards: usize, workers: usize) -> (Vec<Vec<(u64, u32)>>, PdesStats) {
        let shards: Vec<Simulation<PingWorld>> = (0..n_shards)
            .map(|id| {
                Simulation::new(PingWorld {
                    id,
                    n_shards,
                    log: Vec::new(),
                    outbox: Vec::new(),
                })
            })
            .collect();
        // Seed: shard 0 emits the first message at t = 5.
        shards[0].schedule_in(SimDuration::from_ns(5), |w: &mut PingWorld, s| {
            w.outbox.push(OutMsg {
                deliver_at: s.now() + SimDuration::from_ns(10),
                dst_shard: 1 % w.n_shards,
                msg: 0,
            });
        });
        let mut sharded = ShardedSim::new(shards, vec![vec![10; n_shards]; n_shards], workers);
        let reports = sharded.run_to_idle();
        assert!(reports.iter().all(IdleReport::all_finished));
        let stats = sharded.stats().clone();
        let logs = sharded
            .into_shards()
            .into_iter()
            .map(|s| s.world().log.clone())
            .collect();
        (logs, stats)
    }

    #[test]
    fn messages_bounce_across_shards() {
        let (logs, stats) = run_ping(3, 1);
        // 26 deliveries (msg 0..=25), spread round-robin starting at shard 1.
        let total: usize = logs.iter().map(Vec::len).sum();
        assert_eq!(total, 26);
        assert_eq!(logs[1][0], (15, 0));
        assert_eq!(logs[2][0], (25, 1));
        assert!(stats.rounds > 0);
        assert_eq!(stats.msgs_bridged, 26);
        assert_eq!(stats.events_per_shard.len(), 3);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (one, _) = run_ping(4, 1);
        let (two, _) = run_ping(4, 2);
        let (four, _) = run_ping(4, 4);
        assert_eq!(one, two);
        assert_eq!(one, four);
    }

    #[test]
    fn single_shard_runs_without_bridging() {
        // One shard: every "cross-shard" hop is a self-send, which stays in
        // the shard's own pending heap and never touches a mailbox.
        let (logs, stats) = run_ping(1, 1);
        assert_eq!(logs[0].len(), 26);
        assert_eq!(stats.msgs_bridged, 0);
        assert_eq!(stats.frontier_bumps, 0, "no peers to bump for");
    }

    /// A world with only local timer chains: no outbox traffic at all.
    struct LocalWorld {
        fired: Vec<u64>,
    }

    impl ShardWorld for LocalWorld {
        type Msg = ();
        fn drain_outbox(&mut self, _into: &mut Vec<OutMsg<()>>) {}
        fn deliver(&mut self, _s: &mut Scheduler<Self>, _msg: ()) {
            unreachable!("no cross-shard traffic in this world");
        }
    }

    fn chain(sim: &Simulation<LocalWorld>, period_ns: u64, remaining: u32) {
        sim.schedule_in(SimDuration::from_ns(period_ns), move |w, s| {
            tick(w, s, period_ns, remaining);
        });
        fn tick(w: &mut LocalWorld, s: &mut Scheduler<LocalWorld>, period_ns: u64, left: u32) {
            w.fired.push(s.now().as_ns());
            if left > 0 {
                s.schedule_in(SimDuration::from_ns(period_ns), move |w, s| {
                    tick(w, s, period_ns, left - 1);
                });
            }
        }
    }

    #[test]
    fn zero_cross_traffic_advances_via_frontier_bumps() {
        // Shard 1 finishes at t=50 while shard 0 still has 1000 ns of work;
        // with a 10 ns lookahead, shard 0 can only advance because idle
        // shard 1 keeps bumping its frontier (the null-message role). A
        // barrier-free engine that forgot the bumps would deadlock here —
        // the test completing *is* the assertion, plus the bump counter.
        for workers in [1usize, 2] {
            let shards: Vec<Simulation<LocalWorld>> = (0..2)
                .map(|_| Simulation::new(LocalWorld { fired: Vec::new() }))
                .collect();
            chain(&shards[0], 100, 9); // fires at 100, 200, ..., 1000
            chain(&shards[1], 50, 0); // fires at 50 only
            let mut sharded = ShardedSim::new(shards, vec![vec![10; 2]; 2], workers);
            let reports = sharded.run_to_idle();
            assert_eq!(reports[0].now, SimTime::from_ns(1000));
            assert_eq!(reports[1].now, SimTime::from_ns(50));
            let stats = sharded.stats().clone();
            assert_eq!(stats.msgs_bridged, 0);
            assert!(
                stats.frontier_bumps > 0,
                "idle shard must bump its frontier ({workers} workers)"
            );
            let shards = sharded.into_shards();
            assert_eq!(shards[0].world().fired.len(), 10);
            assert_eq!(shards[1].world().fired.len(), 1);
        }
    }

    #[test]
    fn monitor_dumps_frontiers_after_the_run() {
        let shards: Vec<Simulation<LocalWorld>> = (0..2)
            .map(|_| Simulation::new(LocalWorld { fired: Vec::new() }))
            .collect();
        chain(&shards[0], 10, 3);
        let mut sharded = ShardedSim::new(shards, vec![vec![5; 2]; 2], 1);
        let monitor = sharded.monitor();
        sharded.run_to_idle();
        let dump = monitor.dump();
        assert!(dump.starts_with("busy=0\n"), "{dump}");
        assert!(dump.contains("shard 0:"));
        assert!(dump.contains("shard 1:"));
        assert!(!dump.contains("mailbox"), "no messages may be in flight");
    }
}
