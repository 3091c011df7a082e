//! User-written protocols over user-defined communications objects (§4.1).
//!
//! "We have seen two ways in which users can write protocols with better
//! performance than channels. One is to use sliding-window protocols and the
//! other is to use no flow-control protocol at all."
//!
//! [`sliding_window`] is the exact benchmark protocol of Table 1
//! ("reader-active"): the receiver pre-issues `k` buffer-available messages
//! and sends one more for every message it consumes; the sender keeps a
//! credit count and transmits whenever it is positive. The other technique,
//! no flow control at all, is what the bitmap and parallel-SPICE apps do
//! over raw-mode UDCOs (`vorx_apps::{bitmap, spice}`).

use hpcnet::{NodeAddr, Payload};

use crate::udco::{self, UdcoMode};
use crate::world::VCtx;

/// The sliding-window ("reader-active") protocol of Table 1.
pub mod sliding_window {
    use super::*;

    /// Parameters of one sliding-window transfer.
    #[derive(Debug, Clone, Copy)]
    pub struct SwParams {
        /// UDCO tag for data frames.
        pub data_tag: u16,
        /// UDCO tag for buffer-available (credit) frames.
        pub credit_tag: u16,
        /// Fixed message length, bytes ("both the sender and receiver know
        /// the length of the messages").
        pub msg_len: u32,
        /// Messages to transfer (the paper uses 1000).
        pub n_msgs: u64,
        /// Receiver input buffers = initial credits (`k`).
        pub bufs: u32,
    }

    /// Receiver side: register the UDCOs, grant `bufs` initial credits, and
    /// send one credit per message consumed.
    pub fn receiver(ctx: &VCtx, node: NodeAddr, peer: NodeAddr, p: SwParams) {
        udco::register(ctx, node, p.data_tag, UdcoMode::Interrupt);
        for i in 0..u64::from(p.bufs) {
            udco::send(ctx, node, peer, p.credit_tag, i, Payload::Synthetic(0));
        }
        for _ in 0..p.n_msgs {
            let m = udco::recv(ctx, node, p.data_tag);
            debug_assert_eq!(m.payload.len(), p.msg_len);
            udco::send(ctx, node, peer, p.credit_tag, 0, Payload::Synthetic(0));
        }
    }

    /// Sender side: "The sender keeps its own count of the number of
    /// receiver buffers available. [...] If the count is greater than zero,
    /// the sender can send a message immediately, otherwise it blocks until
    /// the count becomes greater than zero."
    pub fn sender(ctx: &VCtx, node: NodeAddr, peer: NodeAddr, p: SwParams) {
        udco::register(ctx, node, p.credit_tag, UdcoMode::Interrupt);
        let mut credits: u64 = 0;
        for i in 0..p.n_msgs {
            if credits == 0 {
                // Block for at least one credit; absorb any others already
                // queued by the ISR (counting them is a register update, not
                // a message receive).
                let _ = udco::recv(ctx, node, p.credit_tag);
                credits += 1;
                credits += ctx.with(move |w, _| {
                    let u = w
                        .udcos
                        .get_mut(node, &p.credit_tag)
                        .expect("credit UDCO registered");
                    let extra = u.rx.len() as u64;
                    u.rx.clear();
                    extra
                });
            }
            credits -= 1;
            udco::send(
                ctx,
                node,
                peer,
                p.data_tag,
                i,
                Payload::Synthetic(p.msg_len),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sliding_window::{receiver, sender, SwParams};
    use super::*;
    use crate::world::VorxBuilder;
    use desim::SimDuration;

    fn run_sw(bufs: u32, msg_len: u32, n_msgs: u64) -> SimDuration {
        let mut v = VorxBuilder::single_cluster(2).trace(false).build();
        let p = SwParams {
            data_tag: 1,
            credit_tag: 2,
            msg_len,
            n_msgs,
            bufs,
        };
        v.spawn("n0:sender", move |ctx| {
            sender(&ctx, NodeAddr(0), NodeAddr(1), p);
        });
        v.spawn("n1:receiver", move |ctx| {
            receiver(&ctx, NodeAddr(1), NodeAddr(0), p);
        });
        let end = {
            let report = v.sim.run_to_idle();
            assert!(report.all_finished(), "deadlock: {:?}", report.parked);
            report.now
        };
        end - desim::SimTime::ZERO
    }

    #[test]
    fn sliding_window_transfers_all_messages() {
        let elapsed = run_sw(4, 64, 50);
        assert!(!elapsed.is_zero());
    }

    #[test]
    fn more_buffers_reduce_per_message_latency() {
        let t1 = run_sw(1, 4, 200);
        let t2 = run_sw(2, 4, 200);
        let t8 = run_sw(8, 4, 200);
        assert!(t2 < t1, "2 buffers ({t2}) should beat 1 ({t1})");
        assert!(t8 < t2, "8 buffers ({t8}) should beat 2 ({t2})");
    }
}
