//! The §4.2 workload: a distributed two-dimensional complex FFT.
//!
//! "Computing the 2DFFT with multiple processors is straightforward. [...]
//! After the first step, the processors distribute the results of their
//! computation to each other so that all processors have a column of data
//! for the second step."
//!
//! Two redistribution strategies are implemented, exactly the paper's
//! comparison:
//!
//! * [`Distribution::Multicast`] — "each processor [multicasts] its entire
//!   row to all the other processors. The problem with this approach is
//!   that each processor reads 65536 numbers of which only 256 are needed."
//! * [`Distribution::PointToPoint`] — "a better approach [...] is for each
//!   processor to send a different message to every other processor"
//!   containing only the data that receiver needs.
//!
//! The workload carries real spectral data and the result is verified
//! against the serial 2D FFT, so the comparison measures correct programs.

use std::sync::{Arc, Mutex};

use bytes::{BufMut, BytesMut};
use desim::rng::SmallRng;
use desim::{lock, FixedMap, SimDuration, SimTime};
use vorx::api::user_compute;
use vorx::collective::{self, CollMode, GroupCfg};
use vorx::hpcnet::{NodeAddr, Payload, Topology};
use vorx::{channel, multicast, VorxBuilder};

use crate::fft::{fft1d, fft2d_serial, fft_cost_ns, max_err, Complex};

/// How phase-1 results are redistributed for phase 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Multicast whole rows to everyone (§4.2's anti-pattern).
    Multicast,
    /// Send each processor only the elements it needs.
    PointToPoint,
}

/// How the stage barriers around redistribution are synchronized. The
/// barriers bracket the exchange (one before, one after) so no node starts
/// pumping data at a receiver still busy in its row FFTs, and no node
/// starts its column FFTs while a peer still owes it data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageSync {
    /// No barrier — the original free-running program.
    None,
    /// The point-to-point original: every node writes a token to node 0,
    /// which reads all of them and writes a release token back to each
    /// node in turn. Linear fan-in, linear fan-out.
    PointToPoint,
    /// A VORX collective barrier (DESIGN.md §16).
    Collective(CollMode),
}

/// Parameters of one distributed 2D-FFT run.
#[derive(Debug, Clone, Copy)]
pub struct Fft2dParams {
    /// Image is `n x n` complex values (power of two).
    pub n: usize,
    /// Number of processors (divides `n`).
    pub p: usize,
    /// Redistribution strategy.
    pub strategy: Distribution,
}

/// Measurements from one run.
#[derive(Debug, Clone)]
pub struct Fft2dResult {
    /// Total wall time of the parallel transform.
    pub elapsed: SimDuration,
    /// The longest any node spent in the redistribution phase.
    pub distribute_max: SimDuration,
    /// Payload bytes received per node during redistribution.
    pub bytes_rx: Vec<u64>,
    /// Per-node redistribution times.
    pub dist_times: Vec<SimDuration>,
    /// Max |err| of the parallel spectrum vs the serial transform.
    pub max_err: f64,
    /// The longest any node spent waiting in the stage barriers
    /// ([`SimDuration::ZERO`] under [`StageSync::None`]).
    pub barrier_max: SimDuration,
}

/// Complex values per multicast chunk (8-byte header + 62 x 16 = 1000 B).
const CHUNK: usize = 62;
/// Multicast group used by the workload.
const GID: u16 = 1;
/// Collective group id used by [`StageSync::Collective`].
const BARRIER_GROUP: u32 = 9;

fn pack_chunk(row: usize, off: usize, data: &[Complex]) -> Payload {
    let mut b = BytesMut::with_capacity(8 + data.len() * 16);
    b.put_u32(row as u32);
    b.put_u32(off as u32);
    for c in data {
        b.put_slice(&c.to_bytes());
    }
    Payload::Data(b.freeze())
}

fn parse_chunk(p: &Payload) -> (usize, usize, Vec<Complex>) {
    let b = p.bytes().expect("chunk carries data");
    let row = u32::from_be_bytes(b[0..4].try_into().expect("4")) as usize;
    let off = u32::from_be_bytes(b[4..8].try_into().expect("4")) as usize;
    let data = b[8..].chunks_exact(16).map(Complex::from_bytes).collect();
    (row, off, data)
}

fn pack_block(rows: &[Vec<Complex>], col_range: std::ops::Range<usize>) -> Payload {
    let mut b = BytesMut::with_capacity(rows.len() * col_range.len() * 16);
    for r in rows {
        for c in &r[col_range.clone()] {
            b.put_slice(&c.to_bytes());
        }
    }
    Payload::Data(b.freeze())
}

fn parse_block(p: &Payload) -> Vec<Complex> {
    p.bytes()
        .expect("block carries data")
        .chunks_exact(16)
        .map(Complex::from_bytes)
        .collect()
}

#[derive(Default)]
struct Collected {
    /// col index -> transformed column.
    cols: FixedMap<usize, Vec<Complex>>,
    bytes_rx: Vec<u64>,
    dist_time: Vec<SimDuration>,
    bar_time: Vec<SimDuration>,
}

/// One node's runtime handle on the stage-barrier engine.
enum Bar {
    None,
    /// Node 0's channel to every other node.
    Root(Vec<channel::ChannelHandle>),
    /// A non-root node's channel to node 0.
    Leaf(channel::ChannelHandle),
    Coll(collective::Collective),
}

/// Block until every node has entered the barrier; see [`StageSync`].
fn stage_barrier(ctx: &vorx::VCtx, bar: &Bar) {
    match bar {
        Bar::None => {}
        Bar::Root(chans) => {
            for ch in chans {
                ch.read(ctx).expect("barrier peer closed");
            }
            for ch in chans {
                ch.write(ctx, Payload::copy_from(b"go"))
                    .expect("barrier peer closed");
            }
        }
        Bar::Leaf(ch) => {
            ch.write(ctx, Payload::copy_from(b"in"))
                .expect("barrier root closed");
            ch.read(ctx).expect("barrier root closed");
        }
        Bar::Coll(c) => c.barrier(ctx),
    }
}

/// Build a topology that fits `p` endpoints.
pub fn topology_for(p: usize) -> Topology {
    if p <= 12 {
        Topology::single_cluster(p).expect("p <= 12")
    } else {
        let clusters = p.div_ceil(4);
        Topology::incomplete_hypercube(clusters, 4).expect("valid hypercube")
    }
}

/// Run the distributed 2D FFT; see module docs.
pub fn run_fft2d(params: Fft2dParams, seed: u64) -> Fft2dResult {
    run_fft2d_sync(params, seed, StageSync::None)
}

/// Run the distributed 2D FFT with stage barriers bracketing the
/// redistribution, synchronized per `sync`. The spectrum is identical
/// across sync modes — the barriers only change *when* nodes move between
/// phases — so the modes race on synchronization cost alone.
pub fn run_fft2d_sync(params: Fft2dParams, seed: u64, sync: StageSync) -> Fft2dResult {
    let Fft2dParams { n, p, strategy } = params;
    assert!(n.is_power_of_two() && p >= 2 && n % p == 0, "n={n} p={p}");
    let rows_per = n / p;
    let cols_per = n / p;

    // The input image and its serial reference transform.
    let mut rng = SmallRng::seed_from_u64(seed);
    let img: Vec<Complex> = (0..n * n).map(|_| Complex::new(rng.f64(), 0.0)).collect();
    let mut reference = img.clone();
    fft2d_serial(&mut reference, n);

    let mut v = VorxBuilder::with_topology(topology_for(p))
        .trace(false)
        .build();
    if let StageSync::Collective(mode) = sync {
        collective::register_group(
            &mut v.world(),
            &GroupCfg {
                group: BARRIER_GROUP,
                members: (0..p).map(|q| NodeAddr(q as u32)).collect(),
                mode,
            },
        );
    }
    let collected = Arc::new(Mutex::new(Collected {
        bytes_rx: vec![0; p],
        dist_time: vec![SimDuration::ZERO; p],
        bar_time: vec![SimDuration::ZERO; p],
        ..Default::default()
    }));

    for me in 0..p {
        let my_rows: Vec<Vec<Complex>> = (0..rows_per)
            .map(|r| img[(me * rows_per + r) * n..(me * rows_per + r + 1) * n].to_vec())
            .collect();
        let coll = Arc::clone(&collected);
        v.spawn(format!("n{me}:fft"), move |ctx| {
            let node = NodeAddr(me as u32);
            let mut rows = my_rows;

            // --- Setup: establish communications before computing ---
            // (Rendezvous is application startup, not part of the
            // redistribution being measured.)
            let mut p2p_out = Vec::new();
            let mut p2p_in = Vec::new();
            match strategy {
                Distribution::Multicast => multicast::join(&ctx, node, GID),
                Distribution::PointToPoint => {
                    // Both ends of each pair must open the pair's two
                    // channels in the same order (lower name first), or the
                    // blocking opens cross-wait and deadlock.
                    for q in 0..p {
                        if q == me {
                            continue;
                        }
                        let (first, second) = if me < q {
                            (format!("fft.{me}.{q}"), format!("fft.{q}.{me}"))
                        } else {
                            (format!("fft.{q}.{me}"), format!("fft.{me}.{q}"))
                        };
                        let a = channel::open(&ctx, node, &first);
                        let b = channel::open(&ctx, node, &second);
                        let (o, i) = if me < q { (a, b) } else { (b, a) };
                        p2p_out.push((q, o));
                        p2p_in.push((q, i));
                    }
                }
            }
            // Barrier rendezvous is part of application startup too.
            let bar = match sync {
                StageSync::None => Bar::None,
                StageSync::PointToPoint => {
                    if me == 0 {
                        Bar::Root(
                            (1..p)
                                .map(|q| channel::open(&ctx, node, &format!("fftbar.e{q}")))
                                .collect(),
                        )
                    } else {
                        Bar::Leaf(channel::open(&ctx, node, &format!("fftbar.e{me}")))
                    }
                }
                StageSync::Collective(_) => {
                    Bar::Coll(collective::attach(&ctx, node, BARRIER_GROUP))
                }
            };
            let mut bar_time = SimDuration::ZERO;

            // --- Phase 1: 1D FFT of every owned row ---
            user_compute(
                &ctx,
                node,
                SimDuration::from_ns(fft_cost_ns(n) * rows_per as u64),
            );
            for r in &mut rows {
                fft1d(r);
            }

            // No node starts pumping data at a receiver still busy in its
            // row FFTs.
            let tb = ctx.now();
            stage_barrier(&ctx, &bar);
            bar_time += ctx.now() - tb;

            // --- Redistribution ---
            let t0 = ctx.now();
            let my_cols = me * cols_per..(me + 1) * cols_per;
            // cols[c][r]: column data for phase 2.
            let mut cols = vec![vec![Complex::ZERO; n]; cols_per];
            // Own rows contribute locally.
            for (ri, r) in rows.iter().enumerate() {
                for (ci, c) in my_cols.clone().enumerate() {
                    cols[ci][me * rows_per + ri] = r[c];
                }
            }
            let mut bytes_rx = 0u64;
            match strategy {
                Distribution::Multicast => {
                    let others: Vec<NodeAddr> = (0..p)
                        .filter(|q| *q != me)
                        .map(|q| NodeAddr(q as u32))
                        .collect();
                    for (ri, r) in rows.iter().enumerate() {
                        let row = me * rows_per + ri;
                        let mut off = 0;
                        while off < n {
                            let end = (off + CHUNK).min(n);
                            multicast::mwrite(
                                &ctx,
                                node,
                                GID,
                                others.clone(),
                                pack_chunk(row, off, &r[off..end]),
                            );
                            off = end;
                        }
                    }
                    // Receive everyone else's rows; keep only our columns.
                    let chunks_per_row = n.div_ceil(CHUNK);
                    let expect = (p - 1) * rows_per * chunks_per_row;
                    for _ in 0..expect {
                        let (_src, payload) = multicast::mread(&ctx, node, GID);
                        bytes_rx += u64::from(payload.len());
                        let (row, off, data) = parse_chunk(&payload);
                        for (i, val) in data.iter().enumerate() {
                            let c = off + i;
                            if my_cols.contains(&c) {
                                cols[c - my_cols.start][row] = *val;
                            }
                        }
                    }
                }
                Distribution::PointToPoint => {
                    // Staggered all-to-all: in wave k, node `me` writes to
                    // peer `me + k` — without this, every node would write
                    // to node 0 first and the exchange would convoy through
                    // one hot receiver at a time.
                    let by_q: FixedMap<usize, _> =
                        p2p_out.iter().map(|(q, ch)| (*q, *ch)).collect();
                    for k in 1..p {
                        let q = (me + k) % p;
                        let range = q * cols_per..(q + 1) * cols_per;
                        by_q[&q]
                            .write(&ctx, pack_block(&rows, range))
                            .expect("peer closed mid-exchange");
                    }
                    // Receive our columns of everyone else's rows.
                    for (q, ch) in &p2p_in {
                        let payload = ch.read(&ctx).unwrap();
                        bytes_rx += u64::from(payload.len());
                        let data = parse_block(&payload);
                        for ri in 0..rows_per {
                            for ci in 0..cols_per {
                                cols[ci][q * rows_per + ri] = data[ri * cols_per + ci];
                            }
                        }
                    }
                }
            }
            let dist = ctx.now() - t0;

            // No node starts its column FFTs while a peer still owes data.
            let tb = ctx.now();
            stage_barrier(&ctx, &bar);
            bar_time += ctx.now() - tb;

            // --- Phase 2: 1D FFT of every owned column ---
            user_compute(
                &ctx,
                node,
                SimDuration::from_ns(fft_cost_ns(n) * cols_per as u64),
            );
            for c in &mut cols {
                fft1d(c);
            }

            let mut g = lock(&coll);
            g.bytes_rx[me] = bytes_rx;
            g.dist_time[me] = dist;
            g.bar_time[me] = bar_time;
            for (ci, data) in cols.into_iter().enumerate() {
                g.cols.insert(my_cols.start + ci, data);
            }
        });
    }

    let end = v.run_all();
    let g = lock(&collected);
    // Verify against the serial transform.
    let mut err: f64 = 0.0;
    for (c, data) in &g.cols {
        for r in 0..n {
            err = err.max((data[r] - reference[r * n + c]).abs());
        }
    }
    assert_eq!(g.cols.len(), n, "missing columns in result");
    let _ = max_err; // (see fft::max_err for slice-level comparison)
    Fft2dResult {
        elapsed: end - SimTime::ZERO,
        distribute_max: g.dist_time.iter().copied().max().unwrap_or_default(),
        bytes_rx: g.bytes_rx.clone(),
        dist_times: g.dist_time.clone(),
        max_err: err,
        barrier_max: g.bar_time.iter().copied().max().unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_result_matches_serial_fft() {
        let r = run_fft2d(
            Fft2dParams {
                n: 16,
                p: 4,
                strategy: Distribution::PointToPoint,
            },
            7,
        );
        assert!(r.max_err < 1e-9, "numeric mismatch: {}", r.max_err);
    }

    #[test]
    fn multicast_result_matches_serial_fft() {
        let r = run_fft2d(
            Fft2dParams {
                n: 16,
                p: 4,
                strategy: Distribution::Multicast,
            },
            7,
        );
        assert!(r.max_err < 1e-9, "numeric mismatch: {}", r.max_err);
    }

    #[test]
    fn multicast_receives_p_times_more_data() {
        // §4.2: multicast makes every node read the whole matrix; p2p only
        // 1/p of it. (At trivial scales multicast can still win on setup
        // overheads — the paper's point is about growth with p, so test at
        // a scale where the volume effect dominates.)
        let n = 32;
        let p = 8;
        let mc = run_fft2d(
            Fft2dParams {
                n,
                p,
                strategy: Distribution::Multicast,
            },
            7,
        );
        let pp = run_fft2d(
            Fft2dParams {
                n,
                p,
                strategy: Distribution::PointToPoint,
            },
            7,
        );
        let mc_bytes = mc.bytes_rx[0];
        let pp_bytes = pp.bytes_rx[0];
        assert!(
            mc_bytes > 3 * pp_bytes,
            "multicast {mc_bytes}B should dwarf p2p {pp_bytes}B"
        );
        // And it costs time: redistribution is slower under multicast.
        assert!(
            mc.distribute_max > pp.distribute_max,
            "multicast {:?} should be slower than p2p {:?}",
            mc.distribute_max,
            pp.distribute_max
        );
    }

    #[test]
    fn collective_stage_barrier_beats_point_to_point() {
        let run = |sync| {
            run_fft2d_sync(
                Fft2dParams {
                    n: 32,
                    p: 8,
                    strategy: Distribution::PointToPoint,
                },
                7,
                sync,
            )
        };
        let pp = run(StageSync::PointToPoint);
        let innet = run(StageSync::Collective(CollMode::InNetwork));
        let tree = run(StageSync::Collective(CollMode::SoftwareTree { radix: 2 }));
        for r in [&pp, &innet, &tree] {
            assert!(r.max_err < 1e-9, "numeric mismatch: {}", r.max_err);
            assert!(r.barrier_max > SimDuration::ZERO);
        }
        assert!(
            innet.barrier_max < pp.barrier_max,
            "in-network barrier {:?} should beat the linear barrier {:?}",
            innet.barrier_max,
            pp.barrier_max
        );
        assert!(
            innet.barrier_max < tree.barrier_max,
            "in-network barrier {:?} should beat the software tree {:?}",
            innet.barrier_max,
            tree.barrier_max
        );
    }

    #[test]
    fn unsynchronized_run_is_unchanged_by_the_barrier_machinery() {
        let params = Fft2dParams {
            n: 16,
            p: 4,
            strategy: Distribution::PointToPoint,
        };
        let plain = run_fft2d(params, 7);
        let none = run_fft2d_sync(params, 7, StageSync::None);
        assert_eq!(plain.elapsed, none.elapsed);
        assert_eq!(none.barrier_max, SimDuration::ZERO);
    }
}
