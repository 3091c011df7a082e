//! Synchronization primitives for simulated processes.
//!
//! These structures live *inside* the world state `W`; waking requires a
//! [`Scheduler`], so all operations that release waiters take one. A process
//! waits with [`Ctx::wait_until`](crate::Ctx::wait_until), registering
//! itself when its condition fails (the world cannot be borrowed across a
//! park).
//!
//! All primitives use condition-loop semantics: a woken process re-checks its
//! condition, so spurious or stolen wakeups are harmless.

use std::collections::VecDeque;

use crate::sim::{ProcId, Scheduler, Wakeup};

/// A set of parked processes waiting on some condition in the world.
///
/// Waiters form a FIFO: [`wake_one`](WaitSet::wake_one) releases the
/// longest-waiting process in O(1). A set holds its one waiter inline until a
/// second registers beside it; then it moves them to a ring buffer, which it
/// keeps. So a set that never has two waiters at once — a channel end's
/// reader, a blocked writer — never allocates, and no set allocates twice.
/// Either way it is the size of the ring buffer alone.
///
/// # Coalescing semantics
///
/// A process is registered **at most once** no matter how many times it
/// re-registers between wakeups; `register` on an already-registered pid is
/// a no-op that keeps the original FIFO position. This matters because
/// condition loops re-register on every failed re-check: without
/// coalescing, a process that loops k times would occupy k queue slots and
/// absorb k `wake_one` calls meant for k distinct waiters. Conversely, a
/// wakeup is advisory — the woken process re-checks its condition, so a
/// wake delivered to a process whose condition is already satisfied (or
/// that was concurrently deregistered) is harmless.
#[derive(Debug, Clone)]
pub struct WaitSet {
    waiters: Waiters,
}

/// A [`WaitSet`]'s waiters, oldest first.
#[derive(Debug, Clone)]
enum Waiters {
    /// Never two at once so far: at most one, inline.
    Inline(Option<ProcId>),
    /// Two or more have waited at once.
    Spilled(VecDeque<ProcId>),
}

impl Default for WaitSet {
    fn default() -> Self {
        WaitSet {
            waiters: Waiters::Inline(None),
        }
    }
}

impl WaitSet {
    /// An empty wait set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `pid` as waiting. Duplicate registrations are coalesced
    /// (see the type-level docs); the original FIFO position is kept.
    pub fn register(&mut self, pid: ProcId) {
        match &mut self.waiters {
            Waiters::Inline(one @ None) => *one = Some(pid),
            Waiters::Inline(Some(p)) if *p == pid => {}
            Waiters::Inline(Some(p)) => {
                let mut queue = VecDeque::new();
                queue.extend([*p, pid]);
                self.waiters = Waiters::Spilled(queue);
            }
            Waiters::Spilled(queue) => {
                if !queue.contains(&pid) {
                    queue.push_back(pid);
                }
            }
        }
    }

    /// Remove a registration (e.g. on timeout or cancellation).
    pub fn deregister(&mut self, pid: ProcId) {
        match &mut self.waiters {
            Waiters::Inline(one) => {
                if *one == Some(pid) {
                    *one = None;
                }
            }
            Waiters::Spilled(queue) => queue.retain(|p| *p != pid),
        }
    }

    /// Wake the longest-waiting process, if any. Returns who was woken.
    pub fn wake_one<W: Send + 'static>(
        &mut self,
        s: &mut Scheduler<W>,
        token: Wakeup,
    ) -> Option<ProcId> {
        let pid = match &mut self.waiters {
            Waiters::Inline(one) => one.take(),
            Waiters::Spilled(queue) => queue.pop_front(),
        }?;
        s.wake(pid, token);
        Some(pid)
    }

    /// Wake every waiting process. Returns how many were woken.
    pub fn wake_all<W: Send + 'static>(&mut self, s: &mut Scheduler<W>, token: Wakeup) -> usize {
        let n = self.len();
        match &mut self.waiters {
            Waiters::Inline(one) => one.take().into_iter().for_each(|pid| s.wake(pid, token)),
            Waiters::Spilled(queue) => queue.drain(..).for_each(|pid| s.wake(pid, token)),
        }
        n
    }

    /// Number of registered waiters.
    pub fn len(&self) -> usize {
        match &self.waiters {
            Waiters::Inline(one) => usize::from(one.is_some()),
            Waiters::Spilled(queue) => queue.len(),
        }
    }

    /// True iff no process is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The registered waiters, oldest first.
    pub fn waiters(&self) -> impl Iterator<Item = ProcId> + '_ {
        let (one, queue) = match &self.waiters {
            Waiters::Inline(one) => (*one, None),
            Waiters::Spilled(queue) => (None, Some(queue)),
        };
        one.into_iter().chain(queue.into_iter().flatten().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use crate::time::SimDuration;

    #[derive(Default)]
    struct World {
        posted: VecDeque<u32>,
        waiters: WaitSet,
        order: Vec<(u32, u32)>,
    }

    #[test]
    fn waitset_wake_one_is_fifo() {
        let mut sim = Simulation::new(World::default());
        // Three processes park on the wait set; each post wakes the longest
        // waiter, which takes the value just posted.
        for i in 0..3u32 {
            sim.spawn(format!("rx{i}"), move |ctx| {
                // Stagger registration so FIFO order is well-defined.
                ctx.sleep(SimDuration::from_us(u64::from(i)));
                let pid = ctx.pid();
                let v = ctx.wait_until(|w: &mut World, _| {
                    let v = w.posted.pop_front();
                    if v.is_none() {
                        w.waiters.register(pid);
                    }
                    v
                });
                ctx.with(move |w, _| w.order.push((i, v)));
            });
        }
        sim.spawn("tx", |ctx| {
            ctx.sleep(SimDuration::from_us(10));
            for v in [100u32, 200, 300] {
                ctx.with(|w, s| {
                    w.posted.push_back(v);
                    w.waiters.wake_one(s, Wakeup::START);
                });
                ctx.sleep(SimDuration::from_us(1));
            }
        });
        assert!(sim.run_to_idle().all_finished());
        assert_eq!(sim.world().order, vec![(0, 100), (1, 200), (2, 300)]);
    }

    #[test]
    fn a_waitset_is_no_bigger_than_its_ring_buffer() {
        // Kernel tables hold many: a `vorx` node keeps three.
        assert_eq!(
            std::mem::size_of::<WaitSet>(),
            std::mem::size_of::<VecDeque<ProcId>>()
        );
    }

    #[test]
    fn waitset_deregister_removes() {
        let mut ws = WaitSet::new();
        ws.register(ProcId(1));
        ws.register(ProcId(2));
        ws.deregister(ProcId(1));
        assert_eq!(ws.waiters().collect::<Vec<_>>(), vec![ProcId(2)]);
        assert_eq!(ws.len(), 1);
        assert!(!ws.is_empty());
    }
}
