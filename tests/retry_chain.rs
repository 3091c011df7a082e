//! The retry chain (`vorx::retry`), driven through a site of its own: a
//! probe whose chain lives on one control-frame entry of node 0 and whose
//! resend and give-up only log the instant they ran. What the chain must do
//! whatever the site: fire at base, 2·base, 4·base, … with the shift capped
//! at 10; give up exactly once when the budget is spent; leave a fire
//! inert once the entry restarted, was answered or its node is down; and
//! arm without allocating.

use std::cell::RefCell;

use hpc_vorx::desim::SimTime;
use hpc_vorx::hpcnet::{Frame, NodeAddr, Payload};
use hpc_vorx::vorx::fault::CtlPending;
use hpc_vorx::vorx::retry::{self, Chain, Retry};
use hpc_vorx::vorx::{VSched, VorxBuilder, VorxSim, World};

#[path = "common/alloc_meter.rs"]
mod alloc_meter;

const NODE: NodeAddr = NodeAddr(0);
const KEY: u64 = 7;
const BASE: u64 = 1_000;

thread_local! {
    /// What the probe did, in order, with the simulated instant (ns).
    static LOG: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
}

fn log(what: &'static str, s: &VSched) {
    LOG.with(|l| l.borrow_mut().push((what, s.now().as_ns())));
}

fn take_log() -> Vec<(&'static str, u64)> {
    LOG.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

struct Probe {
    budget: Option<u32>,
}

impl Retry for Probe {
    fn chain<'w>(&self, w: &'w mut World, node: NodeAddr) -> Option<&'w mut Chain> {
        Some(&mut w.ctl_unacked.get_mut(&(node, KEY))?.chain)
    }

    fn base_ns(&self, _: &World, _: NodeAddr) -> u64 {
        BASE
    }

    fn budget(&self, _: &World) -> Option<u32> {
        self.budget
    }

    fn resend(&self, _: &mut World, s: &mut VSched, _: NodeAddr) {
        log("resend", s);
    }

    fn give_up(&self, _: &mut World, s: &mut VSched, _: NodeAddr) {
        log("give up", s);
    }
}

/// A two-node world whose node 0 holds the probe's entry, its chain armed
/// at time 0.
fn armed(budget: Option<u32>) -> VorxSim {
    take_log();
    let v = VorxBuilder::single_cluster(2).build();
    v.sim.setup(|w, s| {
        let frame = Frame::unicast(NODE, NodeAddr(1), 0, KEY, Payload::Synthetic(0));
        w.ctl_unacked.insert(
            (NODE, KEY),
            CtlPending {
                frame,
                base_timeout_ns: BASE,
                chain: Chain::default(),
            },
        );
        retry::arm(w, s, NODE, Probe { budget });
    });
    v
}

fn chain(w: &mut World) -> &mut Chain {
    &mut w.ctl_unacked.get_mut(&(NODE, KEY)).expect("entry").chain
}

#[test]
fn timeouts_double_up_to_a_shift_of_ten_and_the_budget_gives_up_once() {
    let mut v = armed(Some(13));
    v.run();
    // Attempt k waits base << min(k, 10): 1, 2, …, 1024, 1024, 1024 bases.
    let mut expected = Vec::new();
    let mut t = 0;
    for k in 0..=13 {
        t += BASE << k.min(10);
        expected.push((if k < 13 { "resend" } else { "give up" }, t));
    }
    assert_eq!(take_log(), expected);
    assert_eq!(
        v.now(),
        SimTime::from_ns(t),
        "nothing runs after the give-up"
    );
    assert_eq!(chain(&mut v.world()).attempts, 13);
}

#[test]
fn a_restart_makes_the_pending_fire_inert() {
    let mut v = armed(None);
    v.sim.run_until(SimTime::from_ns(BASE / 2));
    // Restart the way a lost handle would leave it: the pending timer is
    // not cancelled, so only the chain's (epoch, attempts) can stop it.
    v.sim.setup(|w, s| {
        let c = chain(w);
        drop(c.timer.take());
        c.restart();
        retry::arm(w, s, NODE, Probe { budget: None });
    });
    v.sim.run_until(SimTime::from_ns(3 * BASE));
    assert_eq!(
        take_log(),
        [("resend", BASE / 2 + BASE)],
        "the fire armed before the restart (due at {BASE} ns) resent"
    );
}

#[test]
fn an_answer_ends_the_chain() {
    let mut v = armed(Some(3));
    v.sim.run_until(SimTime::from_ns(BASE + BASE / 2));
    v.world().ctl_unacked.remove(&(NODE, KEY));
    v.run();
    assert_eq!(take_log(), [("resend", BASE)]);
    assert_eq!(
        v.now(),
        SimTime::from_ns(BASE + BASE / 2),
        "the answered entry's timer still ran"
    );
}

#[test]
fn a_down_node_ends_the_chain() {
    let mut v = armed(Some(3));
    v.sim.run_until(SimTime::from_ns(BASE / 2));
    v.world().node_mut(NODE).up = false;
    v.run();
    assert_eq!(take_log(), [], "a down node's chain resent");
    assert_eq!(v.now(), SimTime::from_ns(BASE), "the chain armed again");
}

/// Arm the chain, answer it and let the queue discard the timer, over and
/// over: once the first round has sized the queue, nothing allocates.
#[test]
fn arming_a_chain_allocates_nothing() {
    let mut v = armed(None);
    let cycle = |v: &mut VorxSim| {
        v.sim.setup(|w, s| {
            retry::arm(w, s, NODE, Probe { budget: None });
            chain(w).disarm();
        });
        v.run();
    };
    v.sim.setup(|w, _| chain(w).disarm());
    cycle(&mut v);
    let (_, calls) = alloc_meter::measure(|| {
        for _ in 0..10_000 {
            cycle(&mut v);
        }
    });
    assert_eq!(
        calls, 0,
        "10,000 arm/answer cycles made {calls} allocations"
    );
    assert_eq!(take_log(), []);
}
