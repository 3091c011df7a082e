//! `vdb`, the symbolic debugger (§6).
//!
//! "The only debugging tool available under Meglos was vdb, a symbolic
//! debugger derived from the sdb debugger. Vdb includes a few enhancements,
//! such as the ability to switch between subprocesses to examine their local
//! variables [...] VORX makes it possible for the programmer to attach vdb
//! to any process that is running and to switch between the processes of
//! his application."
//!
//! The debugger front-end: process listing, attach (stop at the next
//! breakpoint), per-process breakpoints, variable examination, and
//! continue. Processes cooperate through `vorx::debug` (register, publish,
//! breakpoint) — the simulation analogue of compiled-in symbol tables and
//! trap instructions.

use desim::{RunOutcome, SimDuration, SimTime};
use vorx::debug;
use vorx::{VorxSim, World};

/// A vdb session attached to one process (by registry index). Obtain with
/// [`attach`]; "switching between processes" is simply holding several.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attachment(pub(crate) usize);

/// Attach to a process by name: the process will stop at its next
/// breakpoint, wherever that is ("attach vdb to any process that is
/// running"). If the process has not registered yet (the application is
/// still starting), the simulation is stepped until it appears.
pub fn attach(sim: &mut VorxSim, name: &str) -> Attachment {
    let idx = loop {
        if let Some(i) = sim.world().dbg.by_name(name) {
            break i;
        }
        let next = sim.now() + SimDuration::from_ms(1);
        if let RunOutcome::Idle(_) = sim.sim.run_until(next) {
            if let Some(i) = sim.world().dbg.by_name(name) {
                break i;
            }
            panic!("no process registered as {name:?}");
        }
    };
    sim.sim.setup(move |w, _| {
        w.dbg.procs[idx].stop_requested = true;
    });
    Attachment(idx)
}

/// Arm a breakpoint label on the attached process.
pub fn set_break(sim: &VorxSim, at: Attachment, label: &str) {
    let label = label.to_string();
    sim.sim.setup(move |w, _| {
        w.dbg.procs[at.0].breaks.insert(label);
    });
}

/// Disarm a breakpoint label.
pub fn clear_break(sim: &VorxSim, at: Attachment, label: &str) {
    let label = label.to_string();
    sim.sim.setup(move |w, _| {
        w.dbg.procs[at.0].breaks.remove(&label);
    });
}

/// Where the process is stopped, if it is.
pub(crate) fn stopped_at(sim: &VorxSim, at: Attachment) -> Option<String> {
    sim.world().dbg.procs[at.0].stopped_at.clone()
}

/// Examine the process's published variables (name -> value), sorted.
pub fn examine(sim: &VorxSim, at: Attachment) -> Vec<(String, String)> {
    sim.world().dbg.procs[at.0]
        .vars
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Resume the stopped process. Returns false if it was not stopped.
pub fn cont(sim: &VorxSim, at: Attachment) -> bool {
    let mut resumed = false;
    sim.sim.setup(|w, s| {
        resumed = debug::cont(w, s, at.0);
    });
    resumed
}

/// Run the simulation until the attached process stops at a breakpoint (or
/// `deadline` passes). Returns the breakpoint label if it stopped.
pub fn run_until_stopped(sim: &mut VorxSim, at: Attachment, deadline: SimTime) -> Option<String> {
    loop {
        if let Some(l) = stopped_at(sim, at) {
            return Some(l);
        }
        let next = (sim.now() + SimDuration::from_us(200)).min(deadline);
        match sim.sim.run_until(next) {
            RunOutcome::Idle(_) => return stopped_at(sim, at),
            RunOutcome::DeadlineReached => {
                if sim.now() >= deadline {
                    return stopped_at(sim, at);
                }
            }
        }
    }
}

/// Render a vdb status display.
pub fn render(w: &World) -> String {
    let mut out = String::from("vdb: processes\n");
    out.push_str(&format!(
        "{:<4} {:<20} {:<6} {:<14} {:>6}  vars\n",
        "idx", "name", "node", "state", "hits"
    ));
    for p in &w.dbg.procs {
        let state = p
            .stopped_at
            .as_ref()
            .map(|l| format!("stopped@{l}"))
            .unwrap_or_else(|| "running".into());
        let vars: Vec<String> = p.vars.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&format!(
            "{:<4} {:<20} n{:<5} {:<14} {:>6}  {}\n",
            format!("#{}", p.pid.0),
            p.name,
            p.node.0,
            state,
            p.hits,
            vars.join(" ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vorx::debug::{breakpoint, publish, register_process};
    use vorx::hpcnet::NodeAddr;
    use vorx::VorxBuilder;

    fn counting_app(v: &VorxSim, node: u32, iters: u32) {
        v.spawn(format!("n{node}:counter"), move |ctx| {
            let me = register_process(&ctx, NodeAddr(node), &format!("n{node}:counter"));
            for i in 0..iters {
                publish(&ctx, me, "i", i);
                vorx::api::user_compute(&ctx, NodeAddr(node), SimDuration::from_us(500));
                breakpoint(&ctx, me, "loop");
            }
        });
    }

    #[test]
    fn attach_break_examine_continue() {
        let mut v = VorxBuilder::single_cluster(2).build();
        counting_app(&v, 0, 10);
        let at = attach(&mut v, "n0:counter");
        set_break(&v, at, "loop");
        // Attaching to a *running* process catches it wherever it is.
        let label = run_until_stopped(&mut v, at, SimTime::from_ns(u64::MAX / 2)).unwrap();
        assert_eq!(label, "loop");
        let i0: u32 = examine(&v, at)[0].1.parse().unwrap();
        // Each continue advances exactly one loop iteration.
        assert!(cont(&v, at));
        run_until_stopped(&mut v, at, SimTime::from_ns(u64::MAX / 2)).unwrap();
        assert!(cont(&v, at));
        run_until_stopped(&mut v, at, SimTime::from_ns(u64::MAX / 2)).unwrap();
        let i2: u32 = examine(&v, at)[0].1.parse().unwrap();
        assert_eq!(i2, i0 + 2);
        // Disarm and run to completion.
        clear_break(&v, at, "loop");
        assert!(cont(&v, at));
        v.run_all();
        assert_eq!(examine(&v, at)[0].1, "9");
    }

    #[test]
    fn switch_between_processes() {
        // "By switching between windows, the programmer can simultaneously
        // debug all the processes" — here: two attachments.
        let mut v = VorxBuilder::single_cluster(2).build();
        counting_app(&v, 0, 5);
        counting_app(&v, 1, 5);
        let a = attach(&mut v, "n0:counter");
        let b = attach(&mut v, "n1:counter");
        // Attach stops both at their next breakpoint.
        run_until_stopped(&mut v, a, SimTime::from_ns(u64::MAX / 2)).unwrap();
        run_until_stopped(&mut v, b, SimTime::from_ns(u64::MAX / 2)).unwrap();
        let w_render = render(&v.world());
        assert!(w_render.matches("stopped@loop").count() == 2, "{w_render}");
        assert!(cont(&v, a));
        assert!(cont(&v, b));
        v.run_all();
    }
}
