//! Flow-controlled multicast (§4.2).
//!
//! "We therefore designed the HPC hardware to be able to implement multicast
//! efficiently and devised a flow-controlled multicast primitive that is
//! integrated with channels."
//!
//! A multicast *group* is identified by a small group id. [`mwrite`] injects
//! one frame; the fabric replicates it at branch clusters ([`hpcnet`]'s
//! hardware multicast); every receiving kernel copies it to a side buffer
//! and acknowledges, and the writer blocks until **all** destinations have
//! acknowledged — stop-and-wait generalized to a destination set.
//!
//! The paper's verdict is that this is usually the wrong tool ("the number
//! of messages received by each processor grows and each process spends more
//! and more time reading data that it is not concerned with"); the E-FFT
//! experiment quantifies that with the 2D-FFT redistribution. For the
//! "limited uses" that remain (startup broadcast, small server fan-outs),
//! [`multi_write`] provides the recommended multiple-unicast-writes
//! alternative over ordinary channels.

use std::collections::VecDeque;

use desim::{sync::WaitSet, SimDuration, Wakeup};
use hpcnet::{Dest, Frame, NodeAddr, Payload, Targets};

use crate::api;
use crate::channel::ChannelHandle;
use crate::cpu::{BlockReason, CpuCat};
use crate::kernel;
use crate::proto::{KIND_MCAST_ACK, KIND_MCAST_DATA, KIND_MCAST_DATA_LAST};
use crate::world::{CallState, VCtx, VSched, World};

/// Receiver-side state of a multicast group on one node.
#[derive(Debug, Default)]
pub struct McastEnd {
    /// Per-sender reassembly of fragmented multicast writes.
    pub(crate) asm: desim::FixedMap<u32, crate::channel::PayloadAsm>,
    /// Delivered messages awaiting [`mread`].
    pub(crate) rx: VecDeque<(NodeAddr, Payload)>,
    /// Processes blocked in [`mread`].
    pub(crate) rx_waiters: WaitSet,
    /// Messages received (statistics).
    pub(crate) msgs_rx: u64,
    /// Payload bytes received (statistics — the §4.2 "data that it is not
    /// concerned with" accounting).
    pub(crate) bytes_rx: u64,
}

/// Join multicast group `gid` on `node` (receiver side). Frames that
/// arrived before the join (the group-creation race) are delivered
/// immediately. On a down node nothing joins.
pub fn join(ctx: &VCtx, node: NodeAddr, gid: u16) {
    ctx.with(move |w, s| {
        if !w.node(node).up {
            return;
        }
        w.node_mut(node);
        w.mcast.get_or_insert_with(node, gid, Default::default);
        let mine = w.orphans.take_if(node, |f| {
            (f.kind == KIND_MCAST_DATA || f.kind == KIND_MCAST_DATA_LAST)
                && (f.seq >> 48) as u16 == gid
        });
        for f in mine {
            on_data(w, s, node, f);
        }
    });
}

/// Flow-controlled multicast write: one injection per fragment, hardware
/// replication, and the writer blocks until every destination's kernel has
/// acknowledged each fragment (stop-and-wait generalized to the group).
/// Messages larger than one hardware frame are fragmented and reassembled
/// per-sender at each receiver. On a down node nothing is sent and the call
/// returns at once with no error, which the caller cannot tell from a
/// delivery every destination acknowledged; a crash of the node while the
/// writer waits returns the same way, with no more fragments sent. A
/// destination listed twice is one destination: it receives and
/// acknowledges each fragment once.
pub fn mwrite(ctx: &VCtx, node: NodeAddr, gid: u16, mut dsts: Vec<NodeAddr>, payload: Payload) {
    assert!(!dsts.is_empty(), "multicast with no destinations");
    // The fabric delivers once per distinct target, so the writer waits for
    // one ack per distinct target: keep each first occurrence, in order.
    let mut kept = 0;
    for i in 0..dsts.len() {
        if !dsts[..kept].contains(&dsts[i]) {
            dsts[kept] = dsts[i];
            kept += 1;
        }
    }
    dsts.truncate(kept);
    let (up, syscall_ns) = ctx.with(|w, _| (w.node(node).up, w.calib.chan_write_syscall_ns));
    if !up {
        return;
    }
    let n_dst = dsts.len();
    // One refcounted target list shared by every fragment: a multi-frame
    // mwrite allocates no per-fragment destination copies.
    let dsts: Targets = dsts.into();
    let pid = ctx.pid();
    for (frag, last) in crate::channel::fragment(payload) {
        api::compute_ns(ctx, node, CpuCat::System, syscall_ns);
        let dsts = dsts.clone();
        let seq = ctx.with(move |w, s| {
            let seq = w.token();
            w.issue(node, seq, pid, CallState::Mcast { missing: n_dst });
            let f = Frame {
                src: node,
                dst: Dest::Multicast(dsts),
                kind: if last {
                    KIND_MCAST_DATA_LAST
                } else {
                    KIND_MCAST_DATA
                },
                seq: (u64::from(gid) << 48) | seq,
                payload: frag,
                corrupted: false,
            };
            kernel::send_frame(w, s, f);
            seq
        });
        // As in a stop-and-wait `write`, the first poll always parks.
        // A crash took the write off the table and woke us: not acked.
        let (acked, switch_ns) = api::park_until(ctx, node, BlockReason::Output, move |w, _, _| {
            w.poll_call(node, seq).map(|c| c.is_some())
        });
        if !acked {
            // As on a down node: no switch back in, no more fragments.
            return;
        }
        api::compute_ns(ctx, node, CpuCat::System, switch_ns);
    }
}

/// Blocking read from a multicast group.
pub fn mread(ctx: &VCtx, node: NodeAddr, gid: u16) -> (NodeAddr, Payload) {
    let (syscall_ns, copy_ns_per_byte) =
        ctx.with(|w, _| (w.calib.chan_read_syscall_ns, w.calib.copy_user_ns_per_byte));
    api::compute_ns(ctx, node, CpuCat::System, syscall_ns);
    let pid = ctx.pid();
    let (src, payload) = ctx.wait_until(move |w, _| {
        let end = w
            .mcast
            .get_mut(node, &gid)
            .unwrap_or_else(|| panic!("mread before join({gid}) on {node}"));
        match end.rx.pop_front() {
            Some(m) => Some(m),
            None => {
                end.rx_waiters.register(pid);
                None
            }
        }
    });
    // Copy out of the side buffer: the receiver pays for *all* the data in
    // the message, needed or not — the crux of §4.2.
    api::compute(
        ctx,
        node,
        CpuCat::System,
        crate::calib::Calibration::per_byte(copy_ns_per_byte, payload.len()),
    );
    (src, payload)
}

/// The recommended alternative for small fan-outs (§4.2): issue ordinary
/// channel writes to each receiver in turn.
pub fn multi_write(
    ctx: &VCtx,
    chans: &[ChannelHandle],
    payload: &Payload,
) -> crate::channel::ChanResult<()> {
    for ch in chans {
        ch.write(ctx, payload.clone())?;
    }
    Ok(())
}

/// Kernel handler: multicast data arrived at a receiver.
pub(crate) fn on_data(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    let gid = (f.seq >> 48) as u16;
    if !w.mcast.contains(node, &gid) {
        w.orphans.push(node, f);
        return;
    }
    // Side-buffer copy + ack generation, like a channel fragment.
    let c = w.calib;
    let cost = c.chan_sidebuf_ns_per_byte * u64::from(f.payload.len()) + c.chan_ack_gen_ns;
    let now = s.now();
    let end = w.charge(now, node, CpuCat::System, SimDuration::from_ns(cost));
    s.schedule_in(end - now, move |w: &mut World, s| {
        let gid = (f.seq >> 48) as u16;
        let src = f.src;
        let seq = f.seq;
        let last = f.kind == KIND_MCAST_DATA_LAST;
        let len = u64::from(f.payload.len());
        {
            let Some(e) = w.mcast.get_mut(node, &gid) else {
                return; // the node crashed while the copy charge was in flight
            };
            e.bytes_rx += len;
            let asm = e.asm.entry(src.0).or_default();
            asm.push(f.payload);
            if last {
                let msg = asm.take();
                e.msgs_rx += 1;
                e.rx.push_back((src, msg));
                e.rx_waiters.wake_all(s, Wakeup::START);
            }
        }
        let ack = Frame::unicast(node, src, KIND_MCAST_ACK, seq, Payload::Synthetic(0));
        kernel::send_frame(w, s, ack);
    });
}

/// Kernel handler: a multicast ack arrived back at the writer.
pub(crate) fn on_ack(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    let seq = f.seq & 0x0000_FFFF_FFFF_FFFF;
    // A crash may have wiped the write: a stale (or delayed) ack.
    w.answer(s, node, seq, |c| {
        if let CallState::Mcast { missing } = c {
            *missing -= 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::VorxBuilder;

    #[test]
    fn mwrite_reaches_every_member_once() {
        let mut v = VorxBuilder::single_cluster(5).build();
        v.spawn("n0:w", |ctx| {
            join(&ctx, NodeAddr(0), 1);
            mwrite(
                &ctx,
                NodeAddr(0),
                1,
                vec![NodeAddr(1), NodeAddr(2), NodeAddr(3), NodeAddr(4)],
                Payload::copy_from(b"bcast"),
            );
        });
        for n in 1..5u32 {
            v.spawn(format!("n{n}:r"), move |ctx| {
                join(&ctx, NodeAddr(n), 1);
                let (src, p) = mread(&ctx, NodeAddr(n), 1);
                assert_eq!(src, NodeAddr(0));
                assert_eq!(p.bytes().unwrap().as_ref(), b"bcast");
            });
        }
        v.run_all();
        let st = &v.world().net.stats;
        // One data frame for the mwrite (the hardware replicates it), plus one
        // ack back from each of the four receivers.
        assert_eq!((st.frames_sent, st.frames_delivered), (1 + 4, 4 + 4));
    }

    #[test]
    fn mwrite_blocks_until_all_ack() {
        // With one receiver joining late, the writer must not complete early.
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n0:w", |ctx| {
            let t0 = ctx.now();
            mwrite(
                &ctx,
                NodeAddr(0),
                2,
                vec![NodeAddr(1), NodeAddr(2)],
                Payload::Synthetic(64),
            );
            // n2 joins after 5 ms; the ack cannot arrive before that.
            assert!(ctx.now() - t0 > SimDuration::from_ms(5));
        });
        v.spawn("n1:r", |ctx| {
            join(&ctx, NodeAddr(1), 2);
            let _ = mread(&ctx, NodeAddr(1), 2);
        });
        v.spawn("n2:late", |ctx| {
            ctx.sleep(SimDuration::from_ms(5));
            join(&ctx, NodeAddr(2), 2);
            let _ = mread(&ctx, NodeAddr(2), 2);
        });
        v.run_all();
    }

    #[test]
    fn receivers_pay_for_unwanted_bytes() {
        // §4.2's complaint, in miniature: each member receives the whole
        // message even if it needs a fraction of it.
        let mut v = VorxBuilder::single_cluster(4).build();
        v.spawn("n0:w", |ctx| {
            for _ in 0..4 {
                mwrite(
                    &ctx,
                    NodeAddr(0),
                    3,
                    vec![NodeAddr(1), NodeAddr(2), NodeAddr(3)],
                    Payload::Synthetic(1024),
                );
            }
        });
        for n in 1..4u32 {
            v.spawn(format!("n{n}:r"), move |ctx| {
                join(&ctx, NodeAddr(n), 3);
                for _ in 0..4 {
                    let _ = mread(&ctx, NodeAddr(n), 3);
                }
            });
        }
        v.run_all();
        let w = v.world();
        for n in 1..4 {
            let end = w.mcast.get(NodeAddr(n as u32), &3).expect("joined");
            assert_eq!(end.bytes_rx, 4 * 1024);
        }
    }

    #[test]
    fn multi_write_emulation_delivers_to_each() {
        let mut v = VorxBuilder::single_cluster(4).build();
        v.spawn("n0:w", |ctx| {
            let chans: Vec<ChannelHandle> = (1..4)
                .map(|n| crate::channel::open(&ctx, NodeAddr(0), &format!("mw-{n}")))
                .collect();
            multi_write(&ctx, &chans, &Payload::copy_from(b"fanout")).unwrap();
        });
        for n in 1..4u32 {
            v.spawn(format!("n{n}:r"), move |ctx| {
                let ch = crate::channel::open(&ctx, NodeAddr(n), &format!("mw-{n}"));
                assert_eq!(ch.read(&ctx).unwrap().bytes().unwrap().as_ref(), b"fanout");
            });
        }
        v.run_all();
    }
}

#[cfg(test)]
mod frag_tests {
    use super::*;
    use crate::world::VorxBuilder;

    #[test]
    fn large_mwrite_fragments_and_reassembles() {
        let mut v = VorxBuilder::single_cluster(4).build();
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        v.spawn("n0:w", move |ctx| {
            join(&ctx, NodeAddr(0), 9);
            mwrite(
                &ctx,
                NodeAddr(0),
                9,
                vec![NodeAddr(1), NodeAddr(2), NodeAddr(3)],
                Payload::Data(bytes::Bytes::from(data)),
            );
        });
        for n in 1..4u32 {
            let expect = expect.clone();
            v.spawn(format!("n{n}:r"), move |ctx| {
                join(&ctx, NodeAddr(n), 9);
                let (src, p) = mread(&ctx, NodeAddr(n), 9);
                assert_eq!(src, NodeAddr(0));
                assert_eq!(p.bytes().unwrap().as_ref(), &expect[..]);
            });
        }
        v.run_all();
    }

    #[test]
    fn interleaved_senders_reassemble_independently() {
        // Two nodes mwrite multi-fragment messages to the same group
        // member; per-sender reassembly must not mix the streams.
        let mut v = VorxBuilder::single_cluster(3).build();
        for src in 0..2u32 {
            v.spawn(format!("n{src}:w"), move |ctx| {
                join(&ctx, NodeAddr(src), 4);
                let byte = 10 + src as u8;
                mwrite(
                    &ctx,
                    NodeAddr(src),
                    4,
                    vec![NodeAddr(2)],
                    Payload::Data(bytes::Bytes::from(vec![byte; 2500])),
                );
            });
        }
        v.spawn("n2:r", |ctx| {
            join(&ctx, NodeAddr(2), 4);
            for _ in 0..2 {
                let (src, p) = mread(&ctx, NodeAddr(2), 4);
                let expect = 10 + src.0 as u8;
                let b = p.bytes().unwrap();
                assert_eq!(b.len(), 2500);
                assert!(b.iter().all(|x| *x == expect), "streams mixed");
            }
        });
        v.run_all();
    }
}
