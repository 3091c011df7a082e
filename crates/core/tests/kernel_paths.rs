//! Kernel-path integration tests: side-buffer flow control under pressure,
//! transmit-register contention between kernel and user-level senders, and
//! multiplexed-read behaviour under sustained load.

use desim::SimDuration;
use hpcnet::{NodeAddr, Payload};
use vorx::channel::{self, ChannelHandle};
use vorx::udco::{self, UdcoMode};
use vorx::VorxBuilder;

/// A writer far faster than its reader: the side-buffer cap (8) plus
/// withheld acks must pace the writer without losing or reordering data.
#[test]
fn deferred_acks_pace_a_fast_writer() {
    let mut v = VorxBuilder::single_cluster(3).build();
    const N: u8 = 40;
    v.spawn("n1:w", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "paced");
        for i in 0..N {
            ch.write(&ctx, Payload::copy_from(&[i; 64])).unwrap();
        }
    });
    v.spawn("n2:r", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(2), "paced");
        for i in 0..N {
            // Reader is ~10x slower than the writer's send rate.
            ctx.sleep(SimDuration::from_ms(3));
            let m = ch.read(&ctx).unwrap();
            assert_eq!(m.bytes().unwrap().as_ref(), &[i; 64]);
            // The kernel never holds more complete messages than its
            // side-buffer allowance.
            let depth = ch.readable(&ctx);
            assert!(depth <= 8, "side buffers overfilled: {depth}");
        }
    });
    v.run_all();
}

/// Kernel channel traffic and user-level raw sends share one hardware
/// output register per node; both must make progress.
#[test]
fn kernel_and_udco_share_the_transmitter() {
    let mut v = VorxBuilder::single_cluster(3).build();
    v.spawn("n0:mixed", |ctx| {
        udco::register(&ctx, NodeAddr(0), 9, UdcoMode::Raw);
        let ch = channel::open(&ctx, NodeAddr(0), "mix");
        for i in 0..10u64 {
            // Interleave: one channel write (kernel frames + acks) and one
            // raw frame per round.
            ch.write(&ctx, Payload::Synthetic(512)).unwrap();
            udco::send_raw(
                &ctx,
                NodeAddr(0),
                NodeAddr(2),
                9,
                i,
                Payload::Synthetic(512),
            );
        }
    });
    v.spawn("n1:chan-rx", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "mix");
        for _ in 0..10 {
            assert_eq!(ch.read(&ctx).unwrap().len(), 512);
        }
    });
    v.spawn("n2:raw-rx", |ctx| {
        udco::register(&ctx, NodeAddr(2), 9, UdcoMode::Raw);
        for i in 0..10u64 {
            let m = udco::recv_raw_spin(&ctx, NodeAddr(2), 9);
            assert_eq!(m.seq, i, "raw frames reordered");
        }
    });
    v.run_all();
}

/// Multiplexed read drains multiple active producers without starving any.
#[test]
fn read_any_serves_all_producers() {
    let mut v = VorxBuilder::single_cluster(5).build();
    const PER: usize = 12;
    for p in 1..4u32 {
        v.spawn(format!("n{p}:w"), move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(p), &format!("mux{p}"));
            for _ in 0..PER {
                ch.write(&ctx, Payload::copy_from(&[p as u8])).unwrap();
            }
        });
    }
    v.spawn("n4:mux", |ctx| {
        let chans: Vec<ChannelHandle> = (1..4)
            .map(|p| channel::open(&ctx, NodeAddr(4), &format!("mux{p}")))
            .collect();
        let mut counts = [0usize; 3];
        for _ in 0..3 * PER {
            let (_, m) = channel::read_any(&ctx, NodeAddr(4), &chans).unwrap();
            counts[(m.bytes().unwrap()[0] - 1) as usize] += 1;
        }
        assert_eq!(counts, [PER; 3]);
    });
    v.run_all();
}

/// Zero-length messages are legal (pure synchronization writes).
#[test]
fn zero_length_messages_round_trip() {
    let mut v = VorxBuilder::single_cluster(3).build();
    v.spawn("n1:w", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "zero");
        for _ in 0..5 {
            ch.write(&ctx, Payload::Synthetic(0)).unwrap();
        }
    });
    v.spawn("n2:r", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(2), "zero");
        for _ in 0..5 {
            assert_eq!(ch.read(&ctx).unwrap().len(), 0);
        }
    });
    v.run_all();
}

/// Exactly-1024-byte messages use the single-fragment fast path; 1025 bytes
/// fragment into two.
#[test]
fn fragmentation_boundary_sizes() {
    let mut v = VorxBuilder::single_cluster(3).build();
    v.spawn("n1:w", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "edge");
        ch.write(&ctx, Payload::Synthetic(1024)).unwrap();
        ch.write(&ctx, Payload::Synthetic(1025)).unwrap();
        ch.write(&ctx, Payload::Synthetic(2048)).unwrap();
    });
    v.spawn("n2:r", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(2), "edge");
        assert_eq!(ch.read(&ctx).unwrap().len(), 1024);
        assert_eq!(ch.read(&ctx).unwrap().len(), 1025);
        assert_eq!(ch.read(&ctx).unwrap().len(), 2048);
    });
    v.run_all();
    // Frame accounting: 1 + 2 + 2 data frames, each acked; plus 4 open
    // messages and 2 replies.
    let w = v.world();
    let end = w.chan_ends.of(NodeAddr(1)).next().unwrap();
    assert_eq!(end.msgs_tx, 5, "fragment count");
}
