//! Elementary communication patterns used by the experiments: ping-pong
//! latency and the many-to-one burst that §2 identifies as "a natural
//! synchronization in which many processors send a message to a single
//! processor at nearly the same time".

use desim::{SimDuration, SimTime};
use vorx::channel;
use vorx::hpcnet::{NodeAddr, Payload};
use vorx::VorxBuilder;

use crate::fft2d::topology_for;

/// Result of a many-to-one burst.
#[derive(Debug, Clone, Copy)]
pub struct ManyToOneResult {
    /// Total time to deliver everything.
    pub elapsed: SimDuration,
    /// Messages delivered (always `senders * msgs` — the HPC cannot lose
    /// any, unlike the §2 S/NET).
    pub delivered: u64,
    /// Aggregate payload throughput, MB/s.
    pub mbytes_per_sec: f64,
}

/// `senders` nodes each send `msgs` messages of `msg_len` bytes to node 0
/// over channels, all starting at t=0 — the §2 overload pattern, on HPC
/// hardware that cannot drop anything.
pub fn many_to_one(senders: usize, msgs: u64, msg_len: u32) -> ManyToOneResult {
    let mut v = VorxBuilder::with_topology(topology_for(senders + 1))
        .trace(false)
        .build();
    for sx in 1..=senders {
        v.spawn(format!("n{sx}:burst"), move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(sx as u32), &format!("burst-{sx}"));
            for _ in 0..msgs {
                ch.write(&ctx, Payload::Synthetic(msg_len)).unwrap();
            }
        });
    }
    v.spawn("n0:sink", move |ctx| {
        let chans: Vec<_> = (1..=senders)
            .map(|sx| channel::open(&ctx, NodeAddr(0), &format!("burst-{sx}")))
            .collect();
        for _ in 0..senders as u64 * msgs {
            let _ = channel::read_any(&ctx, NodeAddr(0), &chans).unwrap();
        }
    });
    let end = v.run_all();
    let elapsed = end - SimTime::ZERO;
    let delivered = senders as u64 * msgs;
    let bytes = delivered * u64::from(msg_len);
    ManyToOneResult {
        elapsed,
        delivered,
        mbytes_per_sec: bytes as f64 / 1e6 / elapsed.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn many_to_one_delivers_everything() {
        // 11 senders x 20 long messages: the load that wedged the S/NET.
        let r = many_to_one(11, 20, 1024);
        assert_eq!(r.delivered, 220);
        assert!(r.mbytes_per_sec > 0.5, "throughput {}", r.mbytes_per_sec);
    }

    #[test]
    fn many_to_one_scales_with_more_senders() {
        let small = many_to_one(3, 10, 256);
        let big = many_to_one(9, 10, 256);
        // 3x the messages should take more time, but far less than 3x
        // wall-clock per message would suggest total collapse.
        assert!(big.elapsed > small.elapsed);
        assert_eq!(big.delivered, 90);
    }
}
