//! Criterion benchmarks of the HPC fabric model (host wall time): frame
//! delivery rate through the standalone driver, unicast and multicast, and
//! the S/NET baseline simulator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hpcnet::driver::StandaloneNet;
use hpcnet::{Dest, Fabric, Frame, NetConfig, NodeAddr, Payload, Topology};
use snet::{SnetConfig, SnetSim, Strategy};

fn bench_unicast(c: &mut Criterion) {
    let mut g = c.benchmark_group("hpcnet");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("unicast_1k_frames_hypercube", |b| {
        b.iter_batched(
            || {
                let topo = Topology::incomplete_hypercube(8, 4).unwrap();
                let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
                for i in 0..1_000u64 {
                    let src = (i % 32) as u32;
                    let dst = ((i + 17) % 32) as u32;
                    net.send_at(
                        i * 10,
                        Frame::unicast(NodeAddr(src), NodeAddr(dst), 0, i, Payload::Synthetic(256)),
                    );
                }
                net
            },
            |mut net| {
                net.run();
                assert_eq!(net.delivered.len(), 1_000);
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_multicast(c: &mut Criterion) {
    let mut g = c.benchmark_group("hpcnet");
    g.throughput(Throughput::Elements(100 * 31));
    g.bench_function("multicast_100_frames_to_31", |b| {
        b.iter_batched(
            || {
                let topo = Topology::incomplete_hypercube(8, 4).unwrap();
                let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
                let everyone: std::sync::Arc<[NodeAddr]> =
                    (1..32).map(NodeAddr).collect::<Vec<_>>().into();
                for i in 0..100u64 {
                    net.send_at(
                        i * 100_000,
                        Frame {
                            src: NodeAddr(0),
                            dst: Dest::Multicast(everyone.clone()),
                            kind: 0,
                            seq: i,
                            payload: Payload::Synthetic(512),
                            corrupted: false,
                        },
                    );
                }
                net
            },
            |mut net| {
                net.run();
                assert_eq!(net.delivered.len(), 3_100);
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// `fabric_sat` in miniature: 2,000 injections one every 2 µs over 64
/// round-robin sources — several times what the fabric drains — every 65th a
/// 512-byte multicast to the other 63 endpoints. Port arbitration under
/// backed-up queues is the whole cost.
fn bench_saturated(c: &mut Criterion) {
    let mut g = c.benchmark_group("hpcnet");
    g.throughput(Throughput::Elements(2_000));
    g.bench_function("saturated_2k_frames_64ep", |b| {
        b.iter_batched(
            || {
                let topo = Topology::incomplete_hypercube(16, 4).unwrap();
                let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
                for i in 0..2_000u64 {
                    let src = (i % 64) as u32;
                    let (dst, len) = if i % 65 == 64 {
                        let others = (0..64).filter(|&a| a != src).map(NodeAddr);
                        (Dest::Multicast(others.collect::<Vec<_>>().into()), 512)
                    } else {
                        let d = (i.wrapping_mul(0x9E37_79B9) >> 7) % 63;
                        let d = (src + 1 + d as u32) % 64;
                        (Dest::Unicast(NodeAddr(d)), 64 + (i * 37 % 900) as u32)
                    };
                    net.send_at(
                        i * 2_000,
                        Frame {
                            src: NodeAddr(src),
                            dst,
                            kind: 0,
                            seq: i,
                            payload: Payload::Synthetic(len),
                            corrupted: false,
                        },
                    );
                }
                net
            },
            |mut net| {
                net.run();
                assert_eq!(net.delivered.len(), 2_000 + 30 * 62);
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_snet(c: &mut Criterion) {
    let mut g = c.benchmark_group("snet");
    g.bench_function("reservation_burst_11x10", |b| {
        b.iter(|| {
            let mut sim = SnetSim::new(SnetConfig::paper_1985(), 12, Strategy::Reservation, 42);
            for s in 1..12 {
                sim.enqueue(s, 0, 1024, 10, 0);
            }
            let r = sim.run(60_000_000_000);
            assert!(r.completed);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_unicast,
    bench_multicast,
    bench_saturated,
    bench_snet
);
criterion_main!(benches);
