//! User-defined communications objects (§4.1) and fan-out (§4.2). Two nodes
//! open a UDCO by name through the object manager, exactly like a channel,
//! and a gathered header and body arrive as one frame the receiver scatters
//! back into two buffers. Then node 0 sends one message to two receivers
//! twice: by hardware multicast to UDCOs they poll instead of taking an
//! interrupt, and by `multi_write` over channels, §4.2's recommendation for
//! small fan-outs.
//!
//! Run with: `cargo run --example udco`

use desim::SimDuration;
use hpc_vorx::vorx::hpcnet::{NodeAddr, Payload};
use hpc_vorx::vorx::udco::{self, UdcoMode};
use hpc_vorx::vorx::{channel, multicast, VorxBuilder};

/// The fan-out receivers' polled UDCO.
const FANOUT_TAG: u16 = 40;

fn main() {
    let mut system = VorxBuilder::single_cluster(4).build();
    system.spawn("n1:tx", |ctx| {
        let me = NodeAddr(1);
        let obj = udco::open(&ctx, me, "frames", UdcoMode::Interrupt);
        let parts = [Payload::copy_from(b"HDR1"), Payload::copy_from(&[7; 60])];
        udco::send_gather(&ctx, me, obj.peer, obj.tag, 1, &parts);
    });
    system.spawn("n2:rx", |ctx| {
        let me = NodeAddr(2);
        let obj = udco::open(&ctx, me, "frames", UdcoMode::Interrupt);
        assert_eq!(obj.peer, NodeAddr(1));
        let parts = udco::recv_scatter(&ctx, me, obj.tag, &[4, 60]);
        assert_eq!(parts[0].bytes().expect("data").as_ref(), b"HDR1");
        assert_eq!(parts[1].bytes().expect("data").as_ref(), &[7; 60]);
        println!("n2 scattered one 64-byte frame into 4 + 60 bytes");
    });

    let receivers = [NodeAddr(2), NodeAddr(3)];
    system.spawn("n0:fanout", move |ctx| {
        let me = NodeAddr(0);
        udco::send_multi(
            &ctx,
            me,
            receivers.to_vec(),
            FANOUT_TAG,
            9,
            Payload::copy_from(b"all"),
        );
        let chans: Vec<_> = receivers
            .iter()
            .map(|r| channel::open(&ctx, me, &format!("fanout-{}", r.0)))
            .collect();
        multicast::multi_write(&ctx, &chans, &Payload::copy_from(b"each")).expect("peers up");
    });
    for r in receivers {
        system.spawn(format!("n{}:poll", r.0), move |ctx| {
            udco::register(&ctx, r, FANOUT_TAG, UdcoMode::Polled);
            let m = loop {
                match udco::try_recv(&ctx, r, FANOUT_TAG) {
                    Some(m) => break m,
                    None => ctx.sleep(SimDuration::from_us(100)),
                }
            };
            assert_eq!((m.src, m.seq), (NodeAddr(0), 9));
            let ch = channel::open(&ctx, r, &format!("fanout-{}", r.0));
            let msg = ch.read(&ctx).expect("writer up");
            assert_eq!(msg.bytes().expect("data").as_ref(), b"each");
            println!("{r} polled the multicast and read the channel copy");
        });
    }
    let end = system.run_all();
    println!("done at {end}");
}
