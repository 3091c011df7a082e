//! Simulated processes are stackful coroutines on the executor's own thread,
//! sharing their simulation's one run stack (`desim`'s `coro` module): what
//! that buys — no OS thread and no mapping per process, a parked process that
//! is its frames' bytes on the heap, a ceiling set by memory — and what it
//! must not lose: stack depth, frames intact across parks of any depth,
//! destructors at teardown, panic reports, a `Ctx` that only parks its own
//! process, and processes that change OS threads between runs of the sharded
//! engine.

#[path = "common/alloc_meter.rs"]
mod alloc_meter;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;

use desim::{lock, Ctx, SimDuration, Simulation, Wakeup};
use hpc_vorx::vorx::hpcnet::{NodeAddr, Payload, Topology};
use hpc_vorx::vorx::{channel, VorxBuilder, VorxShardedSim};

/// These tests read process-wide figures (`Threads:`, the mappings) and one
/// of them holds a few hundred MB, so they run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    lock(&ONE_AT_A_TIME)
}

/// A numeric field of `/proc/self/status` (`Threads:`).
#[cfg(target_os = "linux")]
fn proc_status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    line[field.len()..]
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparsable {line:?}"))
}

/// How many mappings the process has: a stack per simulated process showed
/// here as two each.
#[cfg(target_os = "linux")]
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs")
        .lines()
        .count()
}

/// How far [`mappings`] may move with no mapping per process: a simulation's
/// run stack and guard page, and whatever a neighbouring test's thread maps
/// as libtest starts it (stack, guard page, a malloc arena's two).
#[cfg(target_os = "linux")]
const MAP_NOISE: usize = 8;

/// World of the plain-`desim` tests: a flag the parked processes wait for.
#[derive(Default)]
struct Gate {
    open: bool,
    passed: u32,
}

/// Open the gate a microsecond from now and wake `waiters`.
fn open_gate(sim: &Simulation<Gate>, waiters: Vec<desim::ProcId>) {
    sim.schedule_in(SimDuration::from_us(1), move |w: &mut Gate, s| {
        w.open = true;
        for pid in waiters {
            s.wake(pid, Wakeup::START);
        }
    });
}

/// Spawn `n` processes that wait for the gate and count themselves through.
fn spawn_gate_waiters(sim: &Simulation<Gate>, n: u32) -> Vec<desim::ProcId> {
    (0..n)
        .map(|i| {
            sim.spawn(format!("w{i}"), |ctx: Ctx<Gate>| {
                ctx.wait_until(|w, _| w.open.then_some(()));
                ctx.with(|w, _| w.passed += 1);
            })
        })
        .collect()
}

/// Counts drops per slot; a slot dropped twice fails the test at once.
struct DropTally(Arc<Vec<AtomicU32>>);

impl DropTally {
    fn new(n: usize) -> Self {
        DropTally(Arc::new((0..n).map(|_| AtomicU32::new(0)).collect()))
    }

    fn guard(&self, slot: usize) -> DropGuard {
        DropGuard(Arc::clone(&self.0), slot)
    }

    fn dropped(&self) -> usize {
        self.0
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) == 1)
            .count()
    }
}

struct DropGuard(Arc<Vec<AtomicU32>>, usize);

impl Drop for DropGuard {
    fn drop(&mut self) {
        let before = self.0[self.1].fetch_add(1, Ordering::Relaxed);
        assert_eq!(before, 0, "value {} dropped twice", self.1);
    }
}

/// (a) A thousand live processes add no OS thread, and every one of them
/// runs on the thread that called `run_to_idle`.
#[cfg(target_os = "linux")]
#[test]
fn processes_run_on_the_executors_thread() {
    let _x = exclusive();
    let me = std::thread::current().id();
    let threads_before = proc_status("Threads:");
    let mut sim = Simulation::new(Gate::default());
    let seen: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let pids: Vec<_> = (0..1_000)
        .map(|i| {
            let seen = Arc::clone(&seen);
            sim.spawn(format!("w{i}"), move |ctx: Ctx<Gate>| {
                lock(&seen).push(std::thread::current().id());
                ctx.wait_until(|w, _| w.open.then_some(()));
                lock(&seen).push(std::thread::current().id());
            })
        })
        .collect();
    assert_eq!(sim.run_to_idle().parked.len(), 1_000);
    // All thousand are alive and parked right now. libtest may be starting
    // or reaping a neighbouring test's thread; a thread per process is 1,000.
    let threads_parked = proc_status("Threads:");
    assert!(
        threads_parked.abs_diff(threads_before) <= 2,
        "Threads: {threads_before} -> {threads_parked} with 1,000 parked processes"
    );
    open_gate(&sim, pids);
    assert!(sim.run_to_idle().all_finished());
    let seen = lock(&seen);
    assert_eq!(seen.len(), 2_000);
    assert!(seen.iter().all(|&t| t == me));
}

/// (b) 250,000 processes parked at once in one `Simulation` — a thread each
/// ran out of mappings at 16,365 and a stack each at about 30,000 — and
/// every one resumes and finishes.
#[test]
fn quarter_million_parked_processes_all_finish() {
    const N: u32 = 250_000;
    let _x = exclusive();
    let mut sim = Simulation::new(Gate::default());
    let pids = spawn_gate_waiters(&sim, N);
    assert_eq!(sim.run_to_idle().parked.len(), N as usize);
    open_gate(&sim, pids);
    assert!(sim.run_to_idle().all_finished());
    assert_eq!(sim.world().passed, N);
}

/// Recurse until `want` bytes of stack lie between `top` and here, park
/// there, and return the depth reached.
#[inline(never)]
fn dive(ctx: &Ctx<Gate>, top: usize, want: usize) -> u32 {
    let pad = std::hint::black_box([0u8; 1024]);
    let here = pad.as_ptr() as usize;
    let depth = if top - here >= want {
        ctx.sleep(SimDuration::from_us(5));
        0
    } else {
        dive(ctx, top, want)
    };
    // Read `pad` after the call so the frame cannot be reused or dropped.
    depth + 1 + u32::from(std::hint::black_box(&pad)[1023])
}

/// (c) The stack budget did not shrink: a process parked more than 1 MiB
/// deep in recursion resumes there and unwinds the whole way back.
#[test]
fn process_parked_a_mebibyte_deep_resumes() {
    let _x = exclusive();
    let mut sim = Simulation::new(Gate::default());
    sim.spawn("deep", |ctx: Ctx<Gate>| {
        let anchor = 0u8;
        let depth = dive(&ctx, std::ptr::addr_of!(anchor) as usize, 1 << 20);
        ctx.with(|w, _| w.passed = depth);
    });
    assert!(sim.run_to_idle().all_finished());
    assert_eq!(sim.now().as_ns(), 5_000);
    let depth = sim.world().passed;
    // Each frame holds the 1 KiB pad and little else.
    assert!((256..=1024).contains(&depth), "depth {depth}");
}

/// (d) Dropping a `Simulation` with parked and never-started processes drops
/// what each captured and what each parked one held on its stack, once,
/// during the drop — and leaves nothing behind: no mapping, no heap.
#[cfg(target_os = "linux")]
#[test]
fn drop_unwinds_parked_and_unstarted_processes_and_leaves_nothing_behind() {
    const PARKED: usize = 192;
    const UNSTARTED: usize = 64;
    let _x = exclusive();
    let tally = DropTally::new(2 * PARKED + UNSTARTED);
    let maps_before = mappings();
    let live_before = alloc_meter::live_bytes();
    let mut sim = Simulation::new(Gate::default());
    for i in 0..PARKED {
        let captured = tally.guard(i);
        let local = tally.guard(PARKED + UNSTARTED + i);
        sim.spawn(format!("parked{i}"), move |ctx: Ctx<Gate>| {
            let _captured = captured;
            let _on_stack = local;
            ctx.wait_until(|w, _| w.open.then_some(()));
        });
    }
    assert_eq!(sim.run_to_idle().parked.len(), PARKED);
    for i in 0..UNSTARTED {
        let captured = tally.guard(PARKED + i);
        sim.spawn(format!("unstarted{i}"), move |_ctx: Ctx<Gate>| {
            let _captured = captured;
            unreachable!("never resumed");
        });
    }
    let maps_alive = mappings();
    assert!(
        maps_alive <= maps_before + MAP_NOISE,
        "{maps_before} -> {maps_alive} mappings with {} live processes",
        PARKED + UNSTARTED
    );
    assert_eq!(tally.dropped(), 0);
    drop(sim);
    assert_eq!(tally.dropped(), 2 * PARKED + UNSTARTED);
    // A run stack that outlived its simulation would show as two mappings
    // for each of these.
    for _ in 0..32 {
        drop(Simulation::new(Gate::default()));
    }
    let maps_after = mappings();
    assert!(
        maps_after <= maps_before + MAP_NOISE,
        "{maps_before} -> {maps_alive} -> {maps_after} mappings: run stacks not unmapped"
    );
    let live_after = alloc_meter::live_bytes();
    assert!(
        (live_after - live_before).abs() <= 4 << 10,
        "live heap {live_before} B -> {live_after} B across a dropped simulation"
    );
}

/// (e) A panicking process is reported by name and message on the
/// executor's thread, and the processes still parked are torn down while
/// that panic unwinds: destructors run, no second panic, no hang.
#[test]
fn panic_in_a_process_is_reported_and_the_rest_torn_down() {
    let _x = exclusive();
    let tally = DropTally::new(3);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulation::new(Gate::default());
        for i in 0..3 {
            let held = tally.guard(i);
            sim.spawn(format!("bystander{i}"), move |ctx: Ctx<Gate>| {
                let _held = held;
                ctx.wait_until(|w, _| w.open.then_some(()));
            });
        }
        sim.spawn("bad", |ctx: Ctx<Gate>| {
            ctx.sleep(SimDuration::from_us(3));
            panic!("boom at {}", ctx.now().as_ns());
        });
        sim.run_to_idle();
    }));
    let payload = result.expect_err("the process panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert_eq!(msg, "simulated process 'bad' panicked: boom at 3000");
    assert_eq!(tally.dropped(), 3);
}

/// (e') The one poisoning policy, `desim::lock`'s: a process that panics
/// inside `Ctx::with` unwinds through the simulation's lock and through a
/// collector's guard, poisoning both. The caller still gets the panic by
/// name, the world and the collector still read, and dropping the simulation
/// tears the bystander down without a second panic or a hang.
#[test]
fn panic_inside_with_leaves_world_and_collector_readable() {
    let _x = exclusive();
    let tally = DropTally::new(1);
    let log: Arc<Mutex<Vec<u32>>> = Arc::default();
    let mut sim = Simulation::new(Gate::default());
    let held = tally.guard(0);
    sim.spawn("bystander", move |ctx: Ctx<Gate>| {
        let _held = held;
        ctx.wait_until(|w, _| w.open.then_some(()));
    });
    let sink = Arc::clone(&log);
    sim.spawn("bad", move |ctx: Ctx<Gate>| {
        ctx.sleep(SimDuration::from_us(2));
        ctx.with(|w, _| {
            w.passed = 7;
            let mut log = lock(&sink);
            log.push(1);
            panic!("inside with");
        });
    });
    let result = catch_unwind(AssertUnwindSafe(|| sim.run_to_idle()));
    let payload = result.expect_err("the process panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert_eq!(msg, "simulated process 'bad' panicked: inside with");
    assert!(log.is_poisoned());
    assert_eq!(*lock(&log), [1]);
    assert_eq!(sim.world().passed, 7);
    drop(sim);
    assert_eq!(tally.dropped(), 1);
}

/// (e'') A simulation's queue and world are one lock, and only one activity
/// runs at a time: a `Ctx` call inside `Ctx::with` finds it taken and panics,
/// re-raised by the process's name, where waiting for it would deadlock.
#[test]
#[should_panic(expected = "simulated process 'nested' panicked")]
fn a_ctx_call_inside_with_panics_naming_the_process() {
    let _x = exclusive();
    let mut sim = Simulation::new(Gate::default());
    sim.spawn("nested", |ctx: Ctx<Gate>| {
        let inner = ctx.clone();
        ctx.with(|_, _| inner.with(|w, _| w.passed += 1));
    });
    sim.run_to_idle();
}

/// (e''') A process that parks inside `Ctx::with` keeps that lock: the
/// executor finds it taken when the process hands back and panics, and
/// dropping the simulation on the way out leaves every process be rather
/// than panic a second time (which would abort).
#[test]
#[should_panic(expected = "already taken")]
fn parking_inside_with_panics_and_teardown_does_not_abort() {
    let _x = exclusive();
    let mut sim = Simulation::new(Gate::default());
    sim.spawn("parks", |ctx: Ctx<Gate>| {
        let inner = ctx.clone();
        ctx.with(|_, s| {
            s.wake(inner.pid(), Wakeup::START);
            inner.park();
        });
    });
    sim.run_to_idle();
}

/// (g) A `Ctx` parks only its own process. Every process of a simulation
/// runs on the same stack, so "am I on my stack" cannot tell them apart: a
/// park through another process's `Ctx` must panic, not save the caller's
/// frames as the other's image.
#[test]
fn foreign_ctx_park_panics_instead_of_switching() {
    let _x = exclusive();
    let tally = DropTally::new(1);
    let published: Arc<Mutex<Option<Ctx<Gate>>>> = Arc::default();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulation::new(Gate::default());
        let publish = Arc::clone(&published);
        let held = tally.guard(0);
        sim.spawn("b", move |ctx: Ctx<Gate>| {
            let _held = held;
            *lock(&publish) = Some(ctx.clone());
            ctx.wait_until(|w, _| w.open.then_some(()));
        });
        let borrow = Arc::clone(&published);
        sim.spawn("a", move |ctx: Ctx<Gate>| {
            ctx.sleep(SimDuration::from_us(1));
            let foreign = lock(&borrow).clone().expect("b ran first");
            foreign.park();
        });
        sim.run_to_idle();
    }));
    let payload = result.expect_err("parking on a foreign Ctx must panic");
    let msg = payload
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert!(
        msg.starts_with("simulated process 'a' panicked: Ctx::park called outside"),
        "{msg}"
    );
    // The simulation dropped cleanly on the way out: `b`, parked all along
    // with its frames intact, was unwound.
    assert_eq!(tally.dropped(), 1);
    // Long after its simulation: still a panic, not a switch.
    let stale = lock(&published).take().expect("b published it");
    assert!(catch_unwind(AssertUnwindSafe(|| stale.park())).is_err());
}

/// (h) What a parked process costs: its frames' bytes on the heap and no
/// mapping. 10,000 processes parked in `wait_until` hold 430 B each, name
/// and slot included; the budget is that plus 10 %. Unoptimised frames are
/// more than three times as deep: 1,440 B, budget 1,584 B. (With a copy of
/// the condition's locals on every image and 50 % slack on every buffer it
/// was 984 B and 2,712 B; with the baton holding a 72-byte image inline, 623 B
/// and 1,727 B; with a reference-counted baton per process, 580 B and
/// 1,669 B.)
#[cfg(target_os = "linux")]
#[test]
fn ten_thousand_parked_processes_cost_their_frames_and_no_mapping() {
    const N: u32 = 10_000;
    let _x = exclusive();
    let mut sim = Simulation::new(Gate::default());
    let maps_before = mappings();
    let live_before = alloc_meter::live_bytes();
    let pids = spawn_gate_waiters(&sim, N);
    assert_eq!(sim.run_to_idle().parked.len(), N as usize);
    let per_proc = (alloc_meter::live_bytes() - live_before) / i64::from(N);
    eprintln!("{per_proc} B of live heap per process parked in wait_until");
    let maps_parked = mappings();
    let budget = if cfg!(debug_assertions) { 1_584 } else { 473 };
    assert!(
        (64..=budget).contains(&per_proc),
        "{per_proc} B of live heap per parked process"
    );
    assert!(
        maps_parked <= maps_before + MAP_NOISE,
        "{maps_before} -> {maps_parked} mappings with {N} parked processes"
    );
    open_gate(&sim, pids);
    assert!(sim.run_to_idle().all_finished());
    assert_eq!(sim.world().passed, N);
}

/// Wait for the gate beneath one more frame, of 256 bytes: a second depth
/// to park at.
#[inline(never)]
fn wait_deeper(ctx: &Ctx<Gate>) {
    let pad = std::hint::black_box([0u8; 256]);
    ctx.wait_until(|w, _| w.open.then_some(()));
    std::hint::black_box(&pad);
}

/// Spawn `n` gate waiters, those `deeper` picks parked beneath
/// [`wait_deeper`]'s frame, run them until every one has parked, and
/// return their ids and the allocations that run made. A timer a
/// millisecond on keeps the run short of idle, so it builds no report.
fn park_waiters(
    sim: &mut Simulation<Gate>,
    n: u32,
    deeper: impl Fn(u32) -> bool,
) -> (Vec<desim::ProcId>, u64) {
    sim.world().open = false;
    let pids = (0..n)
        .map(|i| {
            let deep = deeper(i);
            sim.spawn(format!("w{i}"), move |ctx: Ctx<Gate>| {
                if deep {
                    wait_deeper(&ctx);
                } else {
                    ctx.wait_until(|w, _| w.open.then_some(()));
                }
                ctx.with(|w, _| w.passed += 1);
            })
        })
        .collect();
    let now = sim.now();
    sim.schedule_in(SimDuration::from_ms(1), |_, _| {});
    let until = now + SimDuration::from_us(500);
    let (outcome, allocs) = alloc_meter::measure(|| sim.run_until(until));
    assert_eq!(outcome, desim::RunOutcome::DeadlineReached);
    assert_eq!(sim.parked_processes().len(), n as usize);
    (pids, allocs)
}

/// (j) Parked images are packed by exact depth, 32 to a chunk: 4,096
/// processes parked at two depths make ⌈2,048 / 32⌉ = 64 chunk allocations
/// per depth and a few more for the chunk table's growth (it was one heap
/// block per process), their image bytes are what each depth alone holds,
/// exactly, and once they have all finished the simulation holds none.
#[test]
fn parked_images_take_a_chunk_per_32_processes_of_a_depth() {
    const N: u32 = 4_096;
    const PER_DEPTH: u64 = (N as u64 / 2).div_ceil(32);
    let _x = exclusive();
    let mut bytes = Vec::new();
    for deeper in [|_| false, |_| true, |i: u32| i % 2 == 1] {
        let mut sim = Simulation::new(Gate::default());
        let (pids, allocs) = park_waiters(&mut sim, N, deeper);
        assert!(
            allocs <= 2 * PER_DEPTH + 8,
            "{allocs} allocations to park {N} processes"
        );
        bytes.push(sim.image_bytes());
        open_gate(&sim, pids);
        assert!(sim.run_to_idle().all_finished());
        assert_eq!(sim.world().passed, N);
        assert_eq!(
            sim.image_bytes(),
            0,
            "image bytes left after every process finished"
        );
    }
    let [shallow, deep, mixed] = bytes[..] else {
        unreachable!()
    };
    assert!(
        shallow < deep,
        "{shallow} B, then {deep} B beneath one more frame"
    );
    assert_eq!(mixed, (shallow + deep) / 2);
}

/// (k) Ten waves of 1,024 processes, each spawned, parked at two depths and
/// run to the end, grow nothing after the first: every wave holds the same
/// image bytes while parked and none once finished, and a later wave
/// allocates no more than the first (only the chunks it fills again).
#[test]
fn spawn_and_finish_waves_grow_nothing_after_the_first() {
    const N: u32 = 1_024;
    let _x = exclusive();
    let mut sim = Simulation::new(Gate::default());
    let mut first = None;
    for wave in 0..10 {
        let (pids, allocs) = park_waiters(&mut sim, N, |i| i % 2 == 1);
        let bytes = sim.image_bytes();
        open_gate(&sim, pids);
        assert!(sim.run_to_idle().all_finished());
        assert_eq!(sim.image_bytes(), 0, "wave {wave} left image bytes");
        let (allocs0, bytes0) = *first.get_or_insert((allocs, bytes));
        assert_eq!(bytes, bytes0, "wave {wave}");
        assert!(
            allocs <= allocs0,
            "wave {wave}: {allocs} allocations, the first {allocs0}"
        );
    }
    assert_eq!(sim.world().passed, 10 * N);
}

/// (l) What a spawn allocates: its name, its boxed body and the thin box
/// the first frame names it by — nothing for the handoff, which is the
/// simulation's one baton (a reference-counted baton per process made it 4).
/// Bodies that capture nothing, spawned into a simulation whose process
/// table and queue have room for them: 2,049 earlier spawns grew both to
/// 4,096.
#[test]
fn a_spawn_allocates_its_name_and_its_body_and_nothing_else() {
    const N: u64 = 1_024;
    let _x = exclusive();
    let mut sim = Simulation::new(Gate::default());
    for _ in 0..=2 * N {
        sim.spawn("warm", |_: Ctx<Gate>| {});
    }
    assert!(sim.run_to_idle().all_finished());
    let ((), allocs) = alloc_meter::measure(|| {
        for _ in 0..N {
            sim.spawn("spawned", |_: Ctx<Gate>| {});
        }
    });
    assert!(
        allocs <= 3 * N,
        "{allocs} allocations to spawn {N} processes"
    );
    assert!(sim.run_to_idle().all_finished());
}

/// What byte `i` of the deep frame holds in `round`.
fn pattern(i: usize, round: u8) -> u8 {
    (i as u8).wrapping_mul(31).wrapping_add(round)
}

/// Fill a 64 KiB frame, park beneath it, and return a checksum of what the
/// frame holds after the resume.
#[inline(never)]
fn park_under_a_deep_frame(ctx: &Ctx<Gate>, round: u8) -> u64 {
    let mut deep = [0u8; 64 << 10];
    for (i, b) in deep.iter_mut().enumerate() {
        *b = pattern(i, round);
    }
    let deep = std::hint::black_box(&mut deep);
    ctx.sleep(SimDuration::from_us(1));
    deep.iter().map(|&b| u64::from(b)).sum()
}

/// (i) The image follows the process's depth down and up again: parked
/// alternately 64 KiB and under 1 KiB deep, with another process's deep frame
/// written over the same addresses in between, the frame's contents come
/// back intact every time.
#[test]
fn image_shrinks_and_regrows_with_the_frames_intact() {
    const ROUNDS: u8 = 6;
    let _x = exclusive();
    let mut sim = Simulation::new(Gate::default());
    // The second starts a microsecond late, so one is parked deep whenever
    // the other is parked shallow.
    for late in [0, 1] {
        sim.spawn(format!("late{late}"), move |ctx: Ctx<Gate>| {
            ctx.sleep(SimDuration::from_us(late));
            for round in (0..ROUNDS).map(|r| 2 * r + late as u8) {
                let want: u64 = (0..64 << 10).map(|i| u64::from(pattern(i, round))).sum();
                assert_eq!(park_under_a_deep_frame(&ctx, round), want);
                ctx.sleep(SimDuration::from_us(1));
            }
            ctx.with(|w, _| w.passed += 1);
        });
    }
    assert!(sim.run_to_idle().all_finished());
    assert_eq!(sim.world().passed, 2);
}

/// Readers first, run to quiescence (they park in `open`), then writers and
/// a second run. Returns the merged trace, the end time, and for every
/// reader the OS threads it ran on in the first and in the second run.
fn two_run_world(workers: usize) -> (String, u64, Vec<(ThreadId, ThreadId)>) {
    const MSGS: usize = 3;
    let topo = Topology::incomplete_hypercube(8, 4).unwrap();
    let clusters = topo.n_clusters() as u32;
    let pairs: Vec<(NodeAddr, NodeAddr)> = (0..clusters)
        .map(|c| (NodeAddr(c * 4), NodeAddr(((c + 1) % clusters) * 4 + 1)))
        .collect();
    let mut v: VorxShardedSim = VorxBuilder::with_topology(topo).build_sharded(workers);
    assert_eq!(v.n_shards(), 8);
    let threads: Arc<Mutex<Vec<(ThreadId, ThreadId)>>> = Arc::default();
    for (i, &(_, reader)) in pairs.iter().enumerate() {
        let threads = Arc::clone(&threads);
        v.spawn_at(reader, format!("n{}:r{i}", reader.0), move |ctx| {
            let first = std::thread::current().id();
            let ch = channel::open(&ctx, reader, &format!("p{i}"));
            for _ in 0..MSGS {
                ch.read(&ctx).unwrap();
            }
            let second = std::thread::current().id();
            lock(&threads).push((first, second));
        });
    }
    let reports = v.run();
    let parked: usize = reports.iter().map(|r| r.parked.len()).sum();
    assert_eq!(parked, pairs.len(), "every reader parks in its open");
    for (i, &(writer, _)) in pairs.iter().enumerate() {
        v.spawn_at(writer, format!("n{}:w{i}", writer.0), move |ctx| {
            let ch = channel::open(&ctx, writer, &format!("p{i}"));
            for m in 0..MSGS {
                ch.write(&ctx, Payload::Synthetic(64 + 100 * m as u32))
                    .unwrap();
            }
        });
    }
    let end = v.run_all();
    let threads = std::mem::take(&mut *lock(&threads));
    (v.merged_trace().to_json(), end.as_ns(), threads)
}

/// (f) Every `run` of the sharded engine at workers 4 starts fresh scoped
/// worker threads, so a process parked across two runs is resumed by another
/// OS thread than the one it last ran on — and the simulated execution is the
/// one workers 1 produces on a single thread.
#[test]
fn processes_parked_across_runs_resume_on_other_threads_with_the_same_trace() {
    let _x = exclusive();
    let me = std::thread::current().id();
    let (trace1, end1, threads1) = two_run_world(1);
    let (trace4, end4, threads4) = two_run_world(4);
    assert_eq!(threads1.len(), 8);
    assert!(threads1.iter().all(|&pair| pair == (me, me)));
    assert_eq!(threads4.len(), 8);
    assert!(
        threads4.iter().all(|&(a, b)| a != b && a != me && b != me),
        "workers 4 must move every reader to another thread: {threads4:?}"
    );
    assert!(end1 > 0);
    assert_eq!(end1, end4);
    assert_eq!(trace1, trace4, "workers=4 diverged from workers=1");
}
