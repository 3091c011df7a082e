//! Retry chains: the one retransmission timer of every reliable exchange in
//! VORX (DESIGN.md §9, "Cancellable timers").
//!
//! A chain guards one entry that waits for an answer: a control frame, a
//! channel end's in-flight fragments, a listen registration, an open
//! request, a collective operation. [`arm`] schedules its next timeout
//! [`backoff`] from now. When that fires on a live node and the entry's
//! [`Chain`] is still at the `(epoch, attempts)` it was armed for, the chain
//! gives up (its budget is spent) or counts the attempt, resends and arms
//! again. What a site does differently is its [`Retry`] impl.

use desim::{SimDuration, TimerHandle};
use hpcnet::NodeAddr;

use crate::world::{VSched, World};

/// Largest backoff shift: the timeout stops doubling at `base << 10`.
pub const MAX_SHIFT: u32 = 10;

/// The timeout after `attempts` silent ones: `base` doubled per attempt,
/// the shift capped at [`MAX_SHIFT`].
pub fn backoff(base: u64, attempts: u32) -> u64 {
    base << attempts.min(MAX_SHIFT)
}

/// The state of one retry chain, kept on the entry it guards. Dropping it —
/// the entry answered and removed, or wiped by a crash — disarms its timer.
#[derive(Debug, Default)]
pub struct Chain {
    /// Bumped by every restart, so that a timer armed before it is stale.
    pub epoch: u32,
    /// Timeouts since the chain last (re)started.
    pub attempts: u32,
    /// The armed timer. After a give-up it still holds the spent one, which
    /// tells a chain that ran out from one never armed.
    pub timer: Option<TimerHandle>,
}

impl Chain {
    /// Disarm the pending timer and keep the count: an answer, or a pause.
    pub fn disarm(&mut self) {
        if let Some(t) = self.timer.take() {
            t.cancel();
        }
    }

    /// Start over: zero the count, make every timer armed so far stale, and
    /// disarm the pending one.
    pub fn restart(&mut self) {
        self.attempts = 0;
        self.epoch += 1;
        self.disarm();
    }
}

impl Drop for Chain {
    fn drop(&mut self) {
        self.disarm();
    }
}

/// What one kind of chain does differently: an implementor is the key of
/// its entry on the node that owns the chain.
pub trait Retry: Send + 'static {
    /// `node`'s chain for this key, while the entry still waits.
    fn chain<'w>(&self, w: &'w mut World, node: NodeAddr) -> Option<&'w mut Chain>;

    /// The attempt-0 timeout, read at every arm.
    fn base_ns(&self, w: &World, node: NodeAddr) -> u64;

    /// Timeouts tolerated before [`Retry::give_up`]; `None` retries until
    /// the entry is answered.
    fn budget(&self, _w: &World) -> Option<u32> {
        None
    }

    /// Send again what the entry waits on, once the attempt is counted.
    fn resend(&self, w: &mut World, s: &mut VSched, node: NodeAddr);

    /// The budget is spent; the chain ends here.
    fn give_up(&self, _w: &mut World, _s: &mut VSched, _node: NodeAddr) {}
}

/// Arm `node`'s chain for `site` at its next timeout, and store the handle
/// on the entry. Does nothing if the entry no longer waits.
#[allow(
    clippy::disallowed_methods,
    reason = "the one place a vorx retry chain is armed"
)]
pub fn arm<S: Retry>(w: &mut World, s: &mut VSched, node: NodeAddr, site: S) {
    // An event keeps up to 72 bytes of capture inline: arming allocates nothing.
    const { assert!(size_of::<(NodeAddr, S, u32, u32)>() <= 72) };
    let base = site.base_ns(w, node);
    let Some(c) = site.chain(w, node) else {
        return;
    };
    let armed = (c.epoch, c.attempts);
    let delay = SimDuration::from_ns(backoff(base, c.attempts));
    c.timer = Some(s.schedule_cancellable_in(delay, move |w, s| fire(w, s, node, site, armed)));
}

/// A timer of the chain armed at `(epoch, attempts)` came up.
fn fire<S: Retry>(w: &mut World, s: &mut VSched, node: NodeAddr, site: S, armed: (u32, u32)) {
    if !w.node(node).up {
        return;
    }
    let budget = site.budget(w);
    let Some(c) = site.chain(w, node) else {
        return; // answered, or wiped
    };
    if (c.epoch, c.attempts) != armed {
        return; // restarted: a newer timer owns the chain
    }
    if budget.is_some_and(|max| c.attempts >= max) {
        return site.give_up(w, s, node);
    }
    c.attempts += 1;
    site.resend(w, s, node);
    arm(w, s, node, site);
}
