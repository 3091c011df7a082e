//! Property-based tests (proptest) over the core invariants:
//!
//! * the HPC never loses, duplicates, or reorders (per-pair) frames, for
//!   arbitrary traffic on arbitrary hypercubes;
//! * channels deliver arbitrary byte streams intact through fragmentation
//!   and reassembly;
//! * the sliding-window protocol transfers everything for any window size;
//! * the S/NET model conserves messages (delivered + undelivered =
//!   enqueued) under every recovery strategy;
//! * simulated time never decreases and runs are deterministic;
//! * the event queue fires in `(time, issue order)`, whatever the action and
//!   wherever it was issued from, sweeps of cancelled timers or none
//!   (`queue_model`), and so does `desim::queue::EventQueue` by itself, under
//!   pushes, bounded pops, `retain` and `advance_to` (`event_queue_model`),
//!   as its `MinHeap` pops in key order;
//! * a `WaitSet` — a lone waiter inline, more in a ring buffer — behaves as
//!   a plain FIFO list that coalesces re-registrations;
//! * `desim::rng` replays its pinned streams word for word (`rng_pins`).

use proptest::prelude::*;

use hpc_vorx::desim::lock;
use hpc_vorx::hpcnet::driver::StandaloneNet;
use hpc_vorx::hpcnet::{Fabric, Frame, NetConfig, NodeAddr, Payload, Topology};
use hpc_vorx::vorx::hpcnet as _;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every frame injected into an HPC fabric is delivered exactly once,
    /// and per-(src,dst) order is preserved.
    #[test]
    fn fabric_delivers_everything_exactly_once(
        clusters in 1usize..8,
        eps_per in 1usize..4,
        sends in proptest::collection::vec((0u32..32, 0u32..32, 0u32..1024, 0u64..1_000_000), 1..60),
    ) {
        let topo = Topology::incomplete_hypercube(clusters, eps_per).unwrap();
        let n = topo.n_endpoints() as u32;
        let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
        let expected = sends.len();
        for (seq, (src, dst, len, at)) in sends.into_iter().enumerate() {
            let (src, dst) = (src % n, dst % n);
            net.send_at(
                at,
                Frame::unicast(NodeAddr(src), NodeAddr(dst), 0, seq as u64, Payload::Synthetic(len)),
            );
        }
        net.run();
        prop_assert_eq!(net.delivered.len(), expected);
        // Exactly once: all seqs distinct.
        let mut seqs: Vec<u64> = net.delivered.iter().map(|(_, _, f)| f.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        prop_assert_eq!(seqs.len(), expected);
        // Per-pair FIFO: for frames injected at the same instant from the
        // same source to the same target, seq order is preserved.
        for (t, to, f) in &net.delivered {
            prop_assert!(*t > 0);
            let _ = (to, f);
        }
    }

    /// Channels carry arbitrary data intact, whatever the message length
    /// (including multi-fragment writes).
    #[test]
    fn channel_round_trips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 1..5000)) {
        use hpc_vorx::vorx::{channel, VorxBuilder};
        let expect = data.clone();
        let mut v = VorxBuilder::single_cluster(3).trace(false).build();
        v.spawn("w", move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(1), "prop");
            ch.write(&ctx, Payload::Data(bytes::Bytes::from(data))).unwrap();
        });
        let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let got2 = std::sync::Arc::clone(&got);
        v.spawn("r", move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(2), "prop");
            let m = ch.read(&ctx).unwrap();
            *lock(&got2) = m.bytes().unwrap().to_vec();
        });
        v.run_all();
        prop_assert_eq!(&*lock(&got), &expect);
    }

    /// The sliding-window protocol completes for every window size and
    /// message size, and per-message latency never improves by growing the
    /// message.
    #[test]
    fn sliding_window_always_completes(bufs in 1u32..24, len in 0u32..1024) {
        let us = vorx_bench::table1_cell(bufs, len, 40);
        prop_assert!(us > 0.0);
        let us_big = vorx_bench::table1_cell(bufs, 1024, 40);
        prop_assert!(us_big >= us * 0.9, "bigger messages should not be faster: {us} vs {us_big}");
    }

    /// The S/NET conserves messages under every strategy: nothing is
    /// silently created or destroyed, even in lockout.
    #[test]
    fn snet_conserves_messages(
        strategy_idx in 0usize..3,
        senders in 1usize..8,
        len in 1u32..1500,
        count in 1u64..12,
    ) {
        use snet::{SnetConfig, SnetSim, Strategy};
        let strategy = [Strategy::BusyRetry, Strategy::RandomBackoff, Strategy::Reservation][strategy_idx];
        let cfg = SnetConfig::paper_1985();
        let len = len.min(cfg.fifo_bytes - cfg.header_bytes);
        let mut sim = SnetSim::new(cfg, senders + 1, strategy, 7);
        for s in 1..=senders {
            sim.enqueue(s, 0, len, count, 0);
        }
        let r = sim.run(5_000_000_000);
        prop_assert_eq!(r.delivered_total + r.undelivered, senders as u64 * count);
        // Delivered messages per sender are in order.
        for node_deliveries in &r.delivered {
            let mut per_src: hpc_vorx::desim::FixedMap<usize, u64> = Default::default();
            for (_, src, seq) in node_deliveries {
                let next = per_src.entry(*src).or_insert(0);
                prop_assert_eq!(*seq, *next, "S/NET reordered messages");
                *next += 1;
            }
        }
    }

    /// Whole-system determinism for random workload shapes.
    #[test]
    fn random_workloads_are_deterministic(pairs in 1usize..4, msgs in 1u64..6, len in 0u32..2048) {
        use hpc_vorx::vorx::{channel, VorxBuilder};
        fn run(pairs: usize, msgs: u64, len: u32) -> u64 {
            let mut v = VorxBuilder::single_cluster(1 + 2 * pairs).trace(false).build();
            for i in 0..pairs {
                let (a, b) = ((1 + 2 * i) as u32, (2 + 2 * i) as u32);
                v.spawn(format!("w{i}"), move |ctx| {
                    let ch = channel::open(&ctx, NodeAddr(a), &format!("p{i}"));
                    for _ in 0..msgs {
                        ch.write(&ctx, Payload::Synthetic(len)).unwrap();
                    }
                });
                v.spawn(format!("r{i}"), move |ctx| {
                    let ch = channel::open(&ctx, NodeAddr(b), &format!("p{i}"));
                    for _ in 0..msgs {
                        let _ = ch.read(&ctx).unwrap();
                    }
                });
            }
            v.run_all().as_ns()
        }
        prop_assert_eq!(run(pairs, msgs, len), run(pairs, msgs, len));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FFT identities hold for arbitrary signals (time shift = phase ramp
    /// magnitude invariance).
    #[test]
    fn fft_magnitude_invariant_under_rotation(
        signal in proptest::collection::vec(-1000.0f64..1000.0, 16..17),
        shift in 0usize..16,
    ) {
        use hpc_vorx::vorx_apps::fft::{fft1d, Complex};
        let x: Vec<Complex> = signal.iter().map(|v| Complex::new(*v, 0.0)).collect();
        let mut rotated = x.clone();
        rotated.rotate_left(shift);
        let mut fx = x;
        fft1d(&mut fx);
        let mut fr = rotated;
        fft1d(&mut fr);
        for (a, b) in fx.iter().zip(&fr) {
            prop_assert!((a.abs() - b.abs()).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }
}

/// The event queue's order contract against a reference model: every action
/// fires in the order "stable sort of the issue order by fire time", whatever
/// kind it is and wherever it was issued from.
///
/// A program is a table of blocks of `(kind, delay_ns, pick)` ops. Issuing an
/// op draws the next id; when the action fires it logs `(now, id)` and issues
/// the ops of block `id` (none if the table is shorter), so ids — and through
/// them the whole log — depend on the order the queue fires in. Block 0 runs
/// in `Simulation::setup`; a scheduled event or timer runs its block in the
/// event callback, a wake in a `Ctx::with` block of the woken process, a
/// spawned process in `Ctx::with` blocks of its own, where alone a `SLEEP` op
/// is a `Ctx::sleep` (elsewhere it is one more `schedule_in`).
mod queue_model {
    use std::sync::Arc;

    use hpc_vorx::desim::{Ctx, ProcId, Scheduler, SimDuration, SimTime, Simulation};
    use hpc_vorx::desim::{TimerHandle, Wakeup};

    pub const SCHEDULE: u8 = 0;
    pub const TIMER: u8 = 1;
    pub const CANCEL: u8 = 2;
    pub const WAKE: u8 = 3;
    pub const SPAWN: u8 = 4;
    pub const SLEEP: u8 = 5;

    pub type Op = (u8, u64, usize);
    pub type Program = Arc<Vec<Vec<Op>>>;
    pub type Log = Vec<(u64, u32)>;

    /// Processes that exist only to be woken: they never sleep, so every
    /// wake finds them parked and none is swallowed.
    const WAITERS: usize = 3;

    #[derive(Default)]
    pub struct World {
        log: Log,
        ids: u32,
        /// Every timer armed so far, in arming order; `CANCEL` picks one.
        timers: Vec<TimerHandle>,
        waiters: Vec<ProcId>,
    }

    impl World {
        fn next_id(&mut self) -> u32 {
            self.ids += 1;
            self.ids
        }

        fn fired(&mut self, s: &Scheduler<World>, id: u32) {
            self.log.push((s.now().as_ns(), id));
        }
    }

    fn block(prog: &Program, id: u32) -> &[Op] {
        prog.get(id as usize).map_or(&[], Vec::as_slice)
    }

    fn fire(prog: &Program, id: u32, w: &mut World, s: &mut Scheduler<World>) {
        w.fired(s, id);
        for &op in block(prog, id) {
            issue(prog, op, w, s);
        }
    }

    #[allow(
        clippy::disallowed_methods,
        reason = "the model drives desim's own timer"
    )]
    fn issue(prog: &Program, (kind, d, pick): Op, w: &mut World, s: &mut Scheduler<World>) {
        let d = SimDuration::from_ns(d);
        if kind == CANCEL {
            if !w.timers.is_empty() {
                w.timers[pick % w.timers.len()].cancel();
            }
            return;
        }
        let id = w.next_id();
        let prog = Arc::clone(prog);
        match kind {
            SCHEDULE | SLEEP => s.schedule_in(d, move |w: &mut World, s| fire(&prog, id, w, s)),
            TIMER => {
                let h = s.schedule_cancellable_in(d, move |w: &mut World, s| fire(&prog, id, w, s));
                w.timers.push(h);
            }
            WAKE => s.wake_in(d, w.waiters[pick % WAITERS], Wakeup(u64::from(id))),
            SPAWN => {
                s.spawn_in(d, format!("p{id}"), move |ctx: Ctx<World>| {
                    ctx.with(|w, s| w.fired(s, id));
                    for &op in block(&prog, id) {
                        if op.0 == SLEEP {
                            let id = ctx.with(|w, _| w.next_id());
                            ctx.sleep(SimDuration::from_ns(op.1));
                            ctx.with(|w, s| w.fired(s, id));
                        } else {
                            ctx.with(|w, s| issue(&prog, op, w, s));
                        }
                    }
                });
            }
            _ => unreachable!("op kind {kind}"),
        }
    }

    /// Run `prog` on the real executor, split at `deadline_ns` if given.
    pub fn run(prog: &Program, deadline_ns: Option<u64>) -> Log {
        let mut sim = Simulation::new(World::default());
        for i in 0..WAITERS {
            let prog = Arc::clone(prog);
            let pid = sim.spawn(format!("waiter{i}"), move |ctx: Ctx<World>| loop {
                let id = ctx.park().0 as u32;
                ctx.with(|w, s| fire(&prog, id, w, s));
            });
            sim.world().waiters.push(pid);
        }
        sim.setup(|w, s| {
            for &op in block(prog, 0) {
                issue(prog, op, w, s);
            }
        });
        if let Some(ns) = deadline_ns {
            sim.run_until(SimTime::from_ns(ns));
            let w = sim.world();
            assert!(w.log.iter().all(|&(t, _)| t <= ns), "ran past the deadline");
        }
        sim.run_to_idle();
        let log = std::mem::take(&mut sim.world().log);
        log
    }

    /// What firing an action goes on to do, in the model.
    enum Then {
        /// Issue all of block `id`.
        Block,
        /// A process: go on with `block` from op `from` up to its next sleep.
        Proc { block: u32, from: usize },
    }

    /// The reference: the pending actions in issue order, where "what fires
    /// next" is the first of those with the earliest time.
    struct Model<'a> {
        prog: &'a Program,
        pending: Vec<(u64, u32, Then)>,
        ids: u32,
        timers: Vec<u32>,
        log: Log,
    }

    impl Model<'_> {
        /// Issue `block` from op `from` at time `t`. A process stops at its
        /// first sleep, which carries the rest of the block — unless it is a
        /// sleep of nothing, which `Ctx::sleep` returns from without parking.
        fn issue(&mut self, t: u64, block_id: u32, from: usize, proc: bool) {
            let ops = block(self.prog, block_id);
            for (k, &(kind, d, pick)) in ops.iter().enumerate().skip(from) {
                if kind == CANCEL {
                    if !self.timers.is_empty() {
                        let id = self.timers[pick % self.timers.len()];
                        self.pending.retain(|p| p.1 != id);
                    }
                    continue;
                }
                self.ids += 1;
                let id = self.ids;
                match kind {
                    SLEEP if proc && d == 0 => self.log.push((t, id)),
                    SLEEP if proc => {
                        let rest = Then::Proc {
                            block: block_id,
                            from: k + 1,
                        };
                        self.pending.push((t + d, id, rest));
                        return;
                    }
                    SPAWN => self
                        .pending
                        .push((t + d, id, Then::Proc { block: id, from: 0 })),
                    _ => self.pending.push((t + d, id, Then::Block)),
                }
                if kind == TIMER {
                    self.timers.push(id);
                }
            }
        }
    }

    pub fn reference(prog: &Program) -> Log {
        let mut m = Model {
            prog,
            pending: Vec::new(),
            ids: 0,
            timers: Vec::new(),
            log: Log::new(),
        };
        m.issue(0, 0, 0, false);
        // `min_by_key` returns the first of equal minima: the stable order.
        while let Some(i) = (0..m.pending.len()).min_by_key(|&i| m.pending[i].0) {
            let (t, id, then) = m.pending.remove(i);
            m.log.push((t, id));
            match then {
                Then::Block => m.issue(t, id, 0, false),
                Then::Proc { block, from } => m.issue(t, block, from, true),
            }
        }
        m.log
    }
}

/// The one ordering rule the single-queue executor changed: a block that
/// wakes, then spawns, then schedules, all at delay 0, fires them in that
/// order — the spawned process's start is no longer moved ahead of what the
/// block scheduled before it — from setup, an event callback and a
/// `Ctx::with` block alike.
#[test]
fn a_spawned_process_starts_in_its_place_among_same_instant_actions() {
    use queue_model::*;
    let triple = vec![(WAKE, 0, 0), (SPAWN, 0, 0), (SCHEDULE, 0, 0)];
    let from_setup: Program = vec![triple.clone()].into();
    assert_eq!(run(&from_setup, None), [(0, 1), (0, 2), (0, 3)]);
    for via in [SCHEDULE, WAKE] {
        let prog: Program = vec![vec![(via, 1, 0)], triple.clone()].into();
        assert_eq!(run(&prog, None), [(1, 1), (1, 2), (1, 3), (1, 4)]);
        assert_eq!(reference(&prog), [(1, 1), (1, 2), (1, 3), (1, 4)]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random programs over every scheduling call and every place one can be
    /// made from fire in the model's order, whole or split by a `run_until`.
    #[test]
    fn the_queue_fires_in_issue_order_within_an_instant(
        blocks in proptest::collection::vec(
            proptest::collection::vec((0u8..6, 0u64..3, 0usize..8), 0..6),
            1..32,
        ),
        deadline_ns in 0u64..8,
    ) {
        let prog: queue_model::Program = blocks.into();
        let expect = queue_model::reference(&prog);
        prop_assert_eq!(&queue_model::run(&prog, None), &expect);
        prop_assert_eq!(&queue_model::run(&prog, Some(deadline_ns)), &expect);
    }

    /// The same with enough cancelled timers queued that the queue sweeps
    /// them out in mid-run: 200 or more timers armed in setup, and two mass
    /// cancellations — one from the first event to fire, one from whichever
    /// timer was armed first, if it lives to fire — that between them disarm
    /// most. What is left, and what its blocks go on to issue, still fires in
    /// the model's order.
    #[test]
    fn sweeping_cancelled_timers_keeps_the_order(
        delays in proptest::collection::vec(1u64..48, 200..260),
        picks in proptest::collection::vec(0usize..1000, 200..400),
        blocks in proptest::collection::vec(
            proptest::collection::vec((0u8..6, 0u64..3, 0usize..8), 0..6),
            0..32,
        ),
        deadline_ns in 0u64..48,
    ) {
        use queue_model::{CANCEL, SCHEDULE, TIMER};
        // Ids are drawn in issue order: the `SCHEDULE` is id 1 and runs block
        // 1, the first timer is id 2 and runs block 2.
        let mut setup = vec![(SCHEDULE, 1, 0)];
        setup.extend(delays.iter().map(|&d| (TIMER, d, 0)));
        let (early, late) = picks.split_at(picks.len() / 2);
        let cancel = |picks: &[usize]| picks.iter().map(|&p| (CANCEL, 0, p)).collect();
        let mut prog = vec![setup, cancel(early), cancel(late)];
        prog.extend(blocks);
        let prog: queue_model::Program = prog.into();
        let expect = queue_model::reference(&prog);
        prop_assert_eq!(&queue_model::run(&prog, None), &expect);
        prop_assert_eq!(&queue_model::run(&prog, Some(deadline_ns)), &expect);
    }
}

/// `desim::queue` on its own, against a `BTreeMap` keyed the way the contract
/// reads: `(time, seq)` for the event queue, `K` for the heap.
mod event_queue_model {
    use std::collections::BTreeMap;

    use hpc_vorx::desim::queue::{EventQueue, MinHeap};

    const PUSH_NOW: u8 = 0;
    const PUSH_LATER: u8 = 1;
    const POP: u8 = 2;
    const RETAIN: u8 = 3;
    const ADVANCE: u8 = 4;

    /// Run `ops` — `(kind, d)` — on an `EventQueue` and on the reference, and
    /// return the first disagreement. Action ids count pushes; a `POP` is
    /// bounded by `now + d - 1`, one below the clock when `d` is 0 (where
    /// even the lane must wait); a
    /// `RETAIN` drops the ids that are multiples of `d + 2`; an `ADVANCE`
    /// to `now + d` is made only where it passes nothing queued.
    pub fn event_queue(ops: &[(u8, u64)]) -> Result<(), String> {
        let mut q = EventQueue::default();
        let mut model: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        let (mut now, mut seq, mut ids) = (0u64, 0u64, 0u32);
        // A refused pop of a queue that holds something stands at the limit.
        let model_pop = |model: &mut BTreeMap<(u64, u64), u32>, now: &mut u64, limit| {
            let (&(t, s), _) = model.first_key_value()?;
            if t > limit {
                *now = (*now).max(limit);
                return None;
            }
            *now = t;
            model.remove(&(t, s))
        };
        for (k, &(kind, d)) in ops.iter().enumerate() {
            match kind {
                PUSH_NOW | PUSH_LATER => {
                    let t = if kind == PUSH_NOW { now } else { now + 1 + d };
                    ids += 1;
                    q.push(t, ids);
                    model.insert((t, seq), ids);
                    seq += 1;
                }
                POP => {
                    let limit = (now + d).saturating_sub(1);
                    let want = model_pop(&mut model, &mut now, limit);
                    let got = q.pop(limit);
                    if got != want {
                        return Err(format!("op {k}: pop({limit}) gave {got:?}, model {want:?}"));
                    }
                }
                RETAIN => {
                    let keep = |a: &u32| u64::from(*a) % (d + 2) != 0;
                    q.retain(keep);
                    model.retain(|_, a| keep(a));
                }
                ADVANCE => {
                    let t = now + d;
                    if model.first_key_value().is_none_or(|(&(h, _), _)| h >= t) {
                        q.advance_to(t);
                        now = t;
                    }
                }
                _ => unreachable!("op kind {kind}"),
            }
            let want = (
                now,
                model.len(),
                model.first_key_value().map(|(&(t, _), _)| t),
            );
            let got = (q.now(), q.len(), q.peek_time());
            if got != want {
                return Err(format!(
                    "op {k}: (now, len, peek_time) {got:?}, model {want:?}"
                ));
            }
        }
        // Drain what is left.
        while let Some(want) = model_pop(&mut model, &mut now, u64::MAX) {
            let got = q.pop(u64::MAX);
            if got != Some(want) || q.now() != now {
                return Err(format!(
                    "drain: {got:?} at {}, model {want} at {now}",
                    q.now()
                ));
            }
        }
        match q.pop(u64::MAX) {
            None => Ok(()),
            Some(a) => Err(format!("drain: {a} left over")),
        }
    }

    /// A `MinHeap` op at or past this pops; below it, it is a time to push.
    pub const HEAP_POP: u64 = 6;

    /// Run `ops` — push `(t, tag)` with a value that has no order of its own,
    /// or pop — on a `MinHeap` and on the reference; keys are unique because
    /// each push gets a tag of its own, so only the keys order the pops.
    pub fn min_heap(ops: &[u64]) -> Result<(), String> {
        let mut heap = MinHeap::default();
        let mut model = BTreeMap::new();
        for (tag, &t) in ops.iter().enumerate() {
            match t {
                0..HEAP_POP => {
                    // An `f64` payload: `V` needs no `Ord`.
                    heap.push((t, tag), tag as f64);
                    model.insert((t, tag), tag as f64);
                }
                _ => {
                    let got = heap.pop();
                    let want = model.pop_first();
                    if got != want {
                        return Err(format!("op {tag}: pop {got:?}, model {want:?}"));
                    }
                }
            }
            if heap.peek().map(|(k, _)| *k) != model.first_key_value().map(|(k, _)| *k) {
                return Err(format!("op {tag}: heads differ"));
            }
        }
        let rest: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
        let want: Vec<_> = model.into_iter().collect();
        if rest == want {
            Ok(())
        } else {
            Err(format!("drain: {rest:?}, model {want:?}"))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `EventQueue` pops what a `BTreeMap` keyed `(time, seq)` pops first,
    /// whatever mix of same-instant cascades, later pushes, bounded pops,
    /// sweeps and clock moves drives it.
    #[test]
    fn the_event_queue_is_a_time_then_seq_ordered_map(
        ops in proptest::collection::vec((0u8..5, 0u64..4), 0..96),
    ) {
        let r = event_queue_model::event_queue(&ops);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// `MinHeap` pops in key order; ties on the leading key are kept apart
    /// by the rest of it.
    #[test]
    fn the_keyed_heap_pops_in_key_order(
        ops in proptest::collection::vec(0u64..event_queue_model::HEAP_POP + 1, 0..96),
    ) {
        let r = event_queue_model::min_heap(&ops);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `desim::sync::WaitSet` against a `Vec` model, over random
    /// `register` / `deregister` / `wake_one` / `wake_all` on six processes:
    /// a re-registration keeps its first place, `deregister` removes a waiter
    /// wherever it is — the lone inline one included, and the oldest of a
    /// spilled set, whose place the next takes — and wakes release waiters
    /// oldest first. Checked after every call in what the set reports, and at
    /// the end in the order the woken processes run with the tokens they were
    /// woken with.
    #[test]
    fn a_wait_set_is_a_coalescing_fifo(
        ops in proptest::collection::vec((0u8..6, 0usize..6), 0..64),
    ) {
        use hpc_vorx::desim::sync::WaitSet;
        use hpc_vorx::desim::{Ctx, ProcId, Simulation, Wakeup};

        #[derive(Default)]
        struct World {
            ws: WaitSet,
            woke: Vec<(ProcId, u64)>,
        }

        let mut sim = Simulation::new(World::default());
        let pids: Vec<ProcId> = (0..6)
            .map(|i| {
                sim.spawn(format!("p{i}"), |ctx: Ctx<World>| loop {
                    let token = ctx.park();
                    let me = ctx.pid();
                    ctx.with(|w, _| w.woke.push((me, token.0)));
                })
            })
            .collect();
        sim.run_to_idle();
        let mut model: Vec<ProcId> = Vec::new();
        let mut woken = Vec::new();
        let mut mismatch = None;
        sim.setup(|w, s| {
            for (k, &(kind, pick)) in ops.iter().enumerate() {
                let pid = pids[pick];
                let token = Wakeup(k as u64 + 1);
                match kind {
                    // Registration is the common call: half of them.
                    0..=2 => {
                        w.ws.register(pid);
                        if !model.contains(&pid) {
                            model.push(pid);
                        }
                    }
                    3 => {
                        w.ws.deregister(pid);
                        model.retain(|&p| p != pid);
                    }
                    4 => {
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        let got = w.ws.wake_one(s, token);
                        if got != want {
                            mismatch.get_or_insert(format!("op {k}: wake_one {got:?}, model {want:?}"));
                        }
                        woken.extend(want.map(|p| (p, token.0)));
                    }
                    _ => {
                        let got = w.ws.wake_all(s, token);
                        if got != model.len() {
                            mismatch.get_or_insert(format!("op {k}: wake_all {got}, model {}", model.len()));
                        }
                        woken.extend(model.drain(..).map(|p| (p, token.0)));
                    }
                }
                let listed: Vec<ProcId> = w.ws.waiters().collect();
                if listed != model || w.ws.len() != model.len() || w.ws.is_empty() != model.is_empty() {
                    mismatch.get_or_insert(format!("op {k}: set {listed:?}, model {model:?}"));
                }
            }
        });
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
        sim.run_to_idle();
        prop_assert_eq!(&sim.world().woke, &woken);
    }
}

/// `desim::rng`'s streams, pinned: every seeded workload and fault plan
/// draws from them, so a changed word here moves simulated results. The
/// literals are the outputs of the stand-in `rand` crate's `SmallRng` and
/// of `snet`'s own SplitMix64, which these generators replaced.
mod rng_pins {
    use hpc_vorx::desim::rng::{SmallRng, SplitMix64};

    fn words(seed: u64) -> [u64; 4] {
        let mut r = SmallRng::seed_from_u64(seed);
        [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
    }

    #[test]
    fn small_rng_first_words() {
        let zero = [
            0x53175d61490b23df,
            0x61da6f3dc380d507,
            0x5c0fdf91ec9a7bfc,
            0x02eebf8c3bbe5e1a,
        ];
        assert_eq!(words(0), zero);
        let answer = [
            0xd0764d4f4476689f,
            0x519e4174576f3791,
            0xfbe07cfb0c24ed8c,
            0xb37d9f600cd835b8,
        ];
        assert_eq!(words(42), answer);
    }

    #[test]
    fn split_mix_first_words() {
        let mut s = SplitMix64::new(1);
        let got = [s.next_u64(), s.next_u64(), s.next_u64(), s.next_u64()];
        assert_eq!(
            got,
            [
                0x910a2dec89025cc1,
                0xbeeb8da1658eec67,
                0xf893a2eefb32555e,
                0x71c18690ee42c90b
            ]
        );
    }

    /// Six draws from seed 7 under `bound`: 2⁶³ + 1 rejects almost one word
    /// in two, so it pins the rejection loop too.
    #[test]
    fn below_draws() {
        let draws = |bound: u64| {
            let mut r = SmallRng::seed_from_u64(7);
            (0..6).map(|_| r.below(bound)).collect::<Vec<_>>()
        };
        assert_eq!(draws(1), [0; 6]);
        assert_eq!(draws(3), [2, 2, 2, 0, 1, 0]);
        assert_eq!(draws(500), [161, 416, 178, 356, 142, 65]);
        let huge = [
            1021219803524665661,
            3174977118032272916,
            7880630202246103356,
            8590716767756797065,
            6084463542373836072,
            1351847338095743469,
        ];
        assert_eq!(draws((1 << 63) + 1), huge);
        // `1..=5` is `1 + below(5)`.
        assert_eq!(
            draws(5).iter().map(|d| 1 + d).collect::<Vec<_>>(),
            [2, 2, 4, 2, 3, 1]
        );
    }

    #[test]
    fn f64_bool_and_chance_draws() {
        let mut r = SmallRng::seed_from_u64(9);
        let f = [r.f64(), r.f64(), r.f64()];
        assert_eq!(
            f,
            [0.5990316791291411, 0.4297364011687632, 0.19864982391454744]
        );
        let mut r = SmallRng::seed_from_u64(9);
        let b: Vec<bool> = (0..8).map(|_| r.bool()).collect();
        assert_eq!(b, [true, false, true, true, true, false, true, true]);
        let mut r = SmallRng::seed_from_u64(9);
        let c: Vec<bool> = (0..8).map(|_| r.chance(0.5)).collect();
        assert_eq!(c, [false, true, true, false, true, true, true, true]);
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (SmallRng::seed_from_u64(42), SmallRng::seed_from_u64(42));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!((10..20).contains(&(10 + r.below(10))));
            assert!(r.below(3) < 3);
            assert!((1..=5).contains(&(1 + r.below(5))));
            assert!((-2.0..3.0).contains(&(-2.0 + r.f64() * 5.0)));
            assert!((0.0..1.0).contains(&r.f64()));
        }
    }

    #[test]
    fn bools_take_both_values() {
        let mut r = SmallRng::seed_from_u64(1);
        let trues = (0..1000).filter(|_| r.bool()).count();
        assert!(
            trues > 300 && trues < 700,
            "suspicious bool stream: {trues}"
        );
    }
}
