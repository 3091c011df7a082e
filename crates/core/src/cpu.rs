//! Per-node CPU occupancy model and the trace events the measurement tools
//! (software oscilloscope, profiler) consume.
//!
//! Each node has one CPU. Every software action — kernel interrupt handling,
//! protocol processing, copies, context switches, application compute — is
//! *charged* to the node's CPU: it starts no earlier than the CPU is free
//! and occupies it for the calibrated duration. Concurrent demands therefore
//! serialize exactly as they would on the real 68020, which is what makes
//! the protocol pipelines (Table 1) come out right.
//!
//! Two priority levels model the real machine's interrupt structure:
//!
//! * **System** work (interrupt handlers, protocol processing, kernel
//!   copies) runs at interrupt priority: it queues only behind other system
//!   work, never behind application compute.
//! * **User** compute is preemptible: a burst's completion is pushed back by
//!   however much system work executed during it (see
//!   [`crate::api::compute`], which implements the extension loop).
//!
//! Within a level, work is FIFO. User-user concurrency on one node is
//! serialized here; finer-grained policy (priorities, quanta) is the
//! subprocess scheduler's job ([`crate::sched`]).

use std::fmt::Write as _;

use desim::trace::{json_str, JsonEvent};
use desim::{SimDuration, SimTime};

/// What a span of CPU time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuCat {
    /// Application code.
    User,
    /// Operating system code (interrupts, protocol processing, copies,
    /// context switches).
    System,
}

/// Why a process is blocked (oscilloscope idle-time categories, §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for message input.
    Input,
    /// Waiting for message output (acknowledgement / transmitter space).
    Output,
    /// Waiting for something else (semaphore, timer, device).
    Other,
}

/// Events recorded into the world trace for the tools.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// The CPU of `node` was busy on `cat` during `[start_ns, end_ns)`.
    Cpu {
        /// Node index.
        node: u32,
        /// User or system time.
        cat: CpuCat,
        /// Interval start, ns.
        start_ns: u64,
        /// Interval end, ns.
        end_ns: u64,
    },
    /// A process on `node` blocked for `reason`.
    Block {
        /// Node index.
        node: u32,
        /// Why it blocked.
        reason: BlockReason,
    },
    /// A process on `node` unblocked (pairs with the most recent
    /// un-matched `Block` for that node and reason).
    Unblock {
        /// Node index.
        node: u32,
        /// The reason that ended.
        reason: BlockReason,
    },
    /// Profiler region enter/exit (the `prof` tool).
    Region {
        /// Node index.
        node: u32,
        /// Region name.
        name: String,
        /// True on entry, false on exit.
        enter: bool,
    },
    /// A node crashed (`up == false`) or restarted (`up == true`) under the
    /// fault plane.
    Fault {
        /// Node index.
        node: u32,
        /// New liveness state.
        up: bool,
    },
    /// A directed fabric link went down (`up == false`) or came back
    /// (`up == true`) under the fault plane.
    LinkFault {
        /// Directed link id.
        link: u32,
        /// New link state.
        up: bool,
    },
}

/// `{"Variant":{"field":value,…}}`, fields in declaration order, `cat` and
/// `reason` by variant name. Root `tests/end_to_end.rs` pins every byte.
impl JsonEvent for TraceEvent {
    fn write_json(&self, out: &mut String) {
        let (variant, fields) = match self {
            TraceEvent::Cpu {
                node,
                cat,
                start_ns,
                end_ns,
            } => (
                "Cpu",
                format!(r#""node":{node},"cat":"{cat:?}","start_ns":{start_ns},"end_ns":{end_ns}"#),
            ),
            TraceEvent::Block { node, reason } => {
                ("Block", format!(r#""node":{node},"reason":"{reason:?}""#))
            }
            TraceEvent::Unblock { node, reason } => {
                ("Unblock", format!(r#""node":{node},"reason":"{reason:?}""#))
            }
            TraceEvent::Region { node, name, enter } => (
                "Region",
                format!(r#""node":{node},"name":{},"enter":{enter}"#, json_str(name)),
            ),
            TraceEvent::Fault { node, up } => ("Fault", format!(r#""node":{node},"up":{up}"#)),
            TraceEvent::LinkFault { link, up } => {
                ("LinkFault", format!(r#""link":{link},"up":{up}"#))
            }
        };
        let _ = write!(out, r#"{{"{variant}":{{{fields}}}}}"#);
    }
}

/// One node's CPU.
#[derive(Debug, Clone, Default)]
pub struct Cpu {
    /// When queued system (interrupt-priority) work completes.
    sys_free_at: SimTime,
    /// When queued user work would complete, ignoring future preemption.
    user_free_at: SimTime,
    /// Monotone counter of all system ns ever reserved; user bursts diff
    /// this to learn how much they were preempted.
    sys_cum_ns: u64,
    /// Total user time charged, ns.
    pub(crate) user_ns: u64,
    /// Total system time charged, ns.
    pub system_ns: u64,
}

impl Cpu {
    /// A CPU idle since time zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Reserve interrupt-priority work: starts no earlier than `now` nor
    /// before earlier *system* work completes (user compute is preempted,
    /// not waited for). Returns `(start, end)`.
    pub(crate) fn reserve_system(&mut self, now: SimTime, d: SimDuration) -> (SimTime, SimTime) {
        let start = self.sys_free_at.max(now);
        let end = start + d;
        self.sys_free_at = end;
        self.sys_cum_ns += d.as_ns();
        self.system_ns += d.as_ns();
        (start, end)
    }

    /// Begin a user burst of `d`: queues behind earlier user work and
    /// returns the tentative `(start, end)` — the caller extends `end` by
    /// whatever system work intrudes (see [`crate::api::compute`]).
    pub(crate) fn begin_user(&mut self, now: SimTime, d: SimDuration) -> (SimTime, SimTime) {
        let start = self.user_free_at.max(now);
        let end = start + d;
        self.user_free_at = end;
        self.user_ns += d.as_ns();
        (start, end)
    }

    /// Push the user queue tail out to at least `end` (burst extension
    /// after preemption).
    pub(crate) fn extend_user(&mut self, end: SimTime) {
        self.user_free_at = self.user_free_at.max(end);
    }

    /// Cumulative system ns ever reserved (preemption bookkeeping).
    pub fn sys_cum_ns(&self) -> u64 {
        self.sys_cum_ns
    }

    /// Total busy time charged so far.
    pub fn busy(&self) -> SimDuration {
        SimDuration::from_ns(self.user_ns + self.system_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_work_serializes_with_system_work() {
        let mut cpu = Cpu::new();
        let (s1, e1) = cpu.reserve_system(SimTime::from_ns(100), SimDuration::from_ns(50));
        assert_eq!((s1.as_ns(), e1.as_ns()), (100, 150));
        let (s2, e2) = cpu.reserve_system(SimTime::from_ns(120), SimDuration::from_ns(30));
        assert_eq!((s2.as_ns(), e2.as_ns()), (150, 180));
        // After an idle gap, work starts immediately.
        let (s3, _) = cpu.reserve_system(SimTime::from_ns(500), SimDuration::from_ns(10));
        assert_eq!(s3.as_ns(), 500);
    }

    #[test]
    fn system_work_does_not_wait_for_user_bursts() {
        let mut cpu = Cpu::new();
        let (_us, ue) = cpu.begin_user(SimTime::ZERO, SimDuration::from_ms(50));
        assert_eq!(ue.as_ns(), 50_000_000);
        // An interrupt at t=1ms runs immediately, mid-burst.
        let (s, e) = cpu.reserve_system(SimTime::from_ns(1_000_000), SimDuration::from_ns(20_000));
        assert_eq!(s.as_ns(), 1_000_000);
        assert_eq!(e.as_ns(), 1_020_000);
        assert_eq!(cpu.sys_cum_ns(), 20_000);
    }

    #[test]
    fn user_bursts_queue_behind_each_other() {
        let mut cpu = Cpu::new();
        cpu.begin_user(SimTime::ZERO, SimDuration::from_ns(100));
        let (s, e) = cpu.begin_user(SimTime::from_ns(10), SimDuration::from_ns(30));
        assert_eq!((s.as_ns(), e.as_ns()), (100, 130));
        cpu.extend_user(SimTime::from_ns(500));
        let (s2, _) = cpu.begin_user(SimTime::from_ns(0), SimDuration::from_ns(1));
        assert_eq!(s2.as_ns(), 500);
    }

    #[test]
    fn accounting_by_category() {
        let mut cpu = Cpu::new();
        cpu.reserve_system(SimTime::ZERO, SimDuration::from_ns(70));
        cpu.begin_user(SimTime::ZERO, SimDuration::from_ns(30));
        assert_eq!(cpu.system_ns, 70);
        assert_eq!(cpu.user_ns, 30);
        assert_eq!(cpu.busy(), SimDuration::from_ns(100));
    }
}
