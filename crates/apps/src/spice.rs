//! A parallel SPICE-like sparse solver (§4.1).
//!
//! "User-defined communications objects were successfully used in a parallel
//! implementation of SPICE that needed very low latency communications to
//! solve large sparse linear systems. It was able to obtain 60 µsec software
//! latencies for 64 byte messages with direct access to the communications
//! hardware and no low-level protocol."
//!
//! The stand-in workload is a Jacobi iteration on the 1D Poisson system
//! `tridiag(-1, 2, -1) x = b`, block-partitioned across nodes with halo
//! exchange over **raw** UDCOs (64-byte boundary messages, no protocol).
//! The parallel iterate is verified bit-exactly against the serial Jacobi
//! iterate, so the experiment measures a correct solver.

use std::sync::{Arc, Mutex};

use bytes::{BufMut, BytesMut};
use desim::rng::SmallRng;
use desim::{lock, SimDuration, SimTime};
use vorx::api::user_compute;
use vorx::collective::{self, CollMode, GroupCfg};
use vorx::hpcnet::combine::CombOp;
use vorx::hpcnet::{NodeAddr, Payload};
use vorx::udco::{self, UdcoMode};
use vorx::VorxBuilder;

use crate::fft2d::topology_for;

/// Boundary value sent toward the left neighbour.
const TAG_TO_LEFT: u16 = 40;
/// Boundary value sent toward the right neighbour.
const TAG_TO_RIGHT: u16 = 41;
/// A node's local residual contribution, gathered to node 0.
const TAG_RESID: u16 = 42;
/// The folded global residual, scattered back from node 0.
const TAG_RESID_ANS: u16 = 43;
/// Collective group id used by [`ResidCheck::Collective`].
const RESID_GROUP: u32 = 31;
/// The paper's quoted message size.
const MSG_BYTES: u32 = 64;

/// Modeled time of one Jacobi update (two fp adds + one multiply on the
/// 68882, plus indexing).
const JACOBI_NS_PER_ELEM: u64 = 20_000;

/// Parameters of one solver run.
#[derive(Debug, Clone, Copy)]
pub struct SpiceParams {
    /// Unknowns.
    pub m: usize,
    /// Processors (divides `m`).
    pub p: usize,
    /// Jacobi iterations.
    pub iters: usize,
}

/// How the periodic global residual check is synchronized (§4.1 meets
/// DESIGN.md §16: the convergence test is a global max-reduction, and it can
/// ride the combining fabric instead of convoying through node 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidCheck {
    /// No in-run residual check — the original solver.
    None,
    /// The point-to-point original: every node raw-sends its local residual
    /// to node 0, which folds the max and raw-sends the answer back to each
    /// node in turn. Linear fan-in, linear fan-out.
    PointToPoint,
    /// A VORX collective max-allreduce over the residual bits.
    Collective(CollMode),
}

/// Results of one solver run.
#[derive(Debug, Clone)]
pub struct SpiceResult {
    /// Total wall time.
    pub elapsed: SimDuration,
    /// Mean time per iteration.
    pub per_iter: SimDuration,
    /// Max |parallel - serial| after the same number of iterations.
    pub max_err: f64,
    /// Final residual infinity-norm (solver sanity).
    pub residual: f64,
    /// Global residual checks performed inside the run.
    pub checks: usize,
    /// Global residual reported by the last in-run check (NaN when none
    /// ran). Identical across check modes — the iterate is deterministic.
    pub checked_residual: f64,
}

fn pack_boundary(iter: usize, v: f64) -> Payload {
    // 64-byte message: iteration tag, the value, padding (SPICE sent small
    // vectors; we model its quoted size).
    let mut b = BytesMut::with_capacity(MSG_BYTES as usize);
    b.put_u64(iter as u64);
    b.put_f64(v);
    b.resize(MSG_BYTES as usize, 0);
    Payload::Data(b.freeze())
}

fn parse_boundary(p: &Payload) -> (usize, f64) {
    let b = p.bytes().expect("boundary carries data");
    (
        u64::from_be_bytes(b[0..8].try_into().expect("8")) as usize,
        f64::from_be_bytes(b[8..16].try_into().expect("8")),
    )
}

fn jacobi_sweep(x: &[f64], b: &[f64], left: f64, right: f64, out: &mut [f64]) {
    let k = x.len();
    for i in 0..k {
        let xl = if i == 0 { left } else { x[i - 1] };
        let xr = if i == k - 1 { right } else { x[i + 1] };
        out[i] = 0.5 * (b[i] + xl + xr);
    }
}

/// Serial reference: the same Jacobi iterate on one processor.
pub fn serial_jacobi(b: &[f64], iters: usize) -> Vec<f64> {
    let m = b.len();
    let mut x = vec![0.0; m];
    let mut nx = vec![0.0; m];
    for _ in 0..iters {
        jacobi_sweep(&x, b, 0.0, 0.0, &mut nx);
        std::mem::swap(&mut x, &mut nx);
    }
    x
}

/// Residual infinity-norm of `tridiag(-1,2,-1) x = b`.
pub fn residual(x: &[f64], b: &[f64]) -> f64 {
    let m = x.len();
    (0..m)
        .map(|i| {
            let xl = if i == 0 { 0.0 } else { x[i - 1] };
            let xr = if i == m - 1 { 0.0 } else { x[i + 1] };
            (2.0 * x[i] - xl - xr - b[i]).abs()
        })
        .fold(0.0, f64::max)
}

/// Run the distributed solver; see module docs.
pub fn run_spice(params: SpiceParams, seed: u64) -> SpiceResult {
    run_spice_checked(params, seed, 0, ResidCheck::None)
}

/// Run the distributed solver with a global residual check every
/// `check_every` iterations (0 disables it), synchronized per `check`.
/// The iterate is bit-identical across check modes — the check only reads
/// the current `x` — so the modes race on synchronization cost alone.
pub fn run_spice_checked(
    params: SpiceParams,
    seed: u64,
    check_every: usize,
    check: ResidCheck,
) -> SpiceResult {
    let SpiceParams { m, p, iters } = params;
    assert!(p >= 2 && m % p == 0);
    let k = m / p;
    let mut rng = SmallRng::seed_from_u64(seed);
    let b: Vec<f64> = (0..m).map(|_| rng.f64()).collect();
    let serial = serial_jacobi(&b, iters);

    let mut v = VorxBuilder::with_topology(topology_for(p))
        .trace(false)
        .build();
    if let ResidCheck::Collective(mode) = check {
        collective::register_group(
            &mut v.world(),
            &GroupCfg {
                group: RESID_GROUP,
                members: (0..p).map(|q| NodeAddr(q as u32)).collect(),
                mode,
            },
        );
    }
    let solution = Arc::new(Mutex::new(vec![0.0f64; m]));
    let checked = Arc::new(Mutex::new((0usize, f64::NAN)));

    for me in 0..p {
        let my_b = b[me * k..(me + 1) * k].to_vec();
        let sol = Arc::clone(&solution);
        let chk = Arc::clone(&checked);
        v.spawn(format!("n{me}:spice"), move |ctx| {
            let node = NodeAddr(me as u32);
            udco::register(&ctx, node, TAG_TO_LEFT, UdcoMode::Raw);
            udco::register(&ctx, node, TAG_TO_RIGHT, UdcoMode::Raw);
            if check == ResidCheck::PointToPoint {
                udco::register(&ctx, node, TAG_RESID, UdcoMode::Raw);
                udco::register(&ctx, node, TAG_RESID_ANS, UdcoMode::Raw);
            }
            let coll = matches!(check, ResidCheck::Collective(_))
                .then(|| collective::attach(&ctx, node, RESID_GROUP));
            let left = (me > 0).then(|| NodeAddr((me - 1) as u32));
            let right = (me + 1 < p).then(|| NodeAddr((me + 1) as u32));
            let mut x = vec![0.0f64; k];
            let mut nx = vec![0.0f64; k];
            for it in 0..iters {
                // Send both boundaries first (raw sends do not wait for the
                // receiver — no flow-control protocol at all), then receive.
                if let Some(l) = left {
                    udco::send_raw(
                        &ctx,
                        node,
                        l,
                        TAG_TO_LEFT,
                        it as u64,
                        pack_boundary(it, x[0]),
                    );
                }
                if let Some(r) = right {
                    udco::send_raw(
                        &ctx,
                        node,
                        r,
                        TAG_TO_RIGHT,
                        it as u64,
                        pack_boundary(it, x[k - 1]),
                    );
                }
                let lv = if left.is_some() {
                    let msg = udco::recv_raw_spin(&ctx, node, TAG_TO_RIGHT);
                    let (mit, v) = parse_boundary(&msg.payload);
                    assert_eq!(mit, it, "halo iteration skew");
                    v
                } else {
                    0.0
                };
                let rv = if right.is_some() {
                    let msg = udco::recv_raw_spin(&ctx, node, TAG_TO_LEFT);
                    let (mit, v) = parse_boundary(&msg.payload);
                    assert_eq!(mit, it, "halo iteration skew");
                    v
                } else {
                    0.0
                };
                if check != ResidCheck::None && check_every > 0 && (it + 1) % check_every == 0 {
                    // Local residual of the *current* iterate: the halos
                    // just received are exactly its boundary neighbours.
                    user_compute(
                        &ctx,
                        node,
                        SimDuration::from_ns(JACOBI_NS_PER_ELEM * k as u64),
                    );
                    let mut lr = 0.0f64;
                    for i in 0..k {
                        let xl = if i == 0 { lv } else { x[i - 1] };
                        let xr = if i == k - 1 { rv } else { x[i + 1] };
                        lr = lr.max((2.0 * x[i] - xl - xr - my_b[i]).abs());
                    }
                    let global = match &coll {
                        Some(c) => {
                            // Non-negative f64 bit patterns order like the
                            // values, so a u64 max *is* an f64 max.
                            f64::from_bits(c.reduce(&ctx, CombOp::Max, lr.to_bits()))
                        }
                        None => {
                            // Linear gather to node 0, linear scatter back.
                            if me == 0 {
                                let mut g = lr;
                                for _ in 1..p {
                                    let msg = udco::recv_raw_spin(&ctx, node, TAG_RESID);
                                    let (mit, v) = parse_boundary(&msg.payload);
                                    assert_eq!(mit, it, "residual iteration skew");
                                    g = g.max(v);
                                }
                                for q in 1..p {
                                    udco::send_raw(
                                        &ctx,
                                        node,
                                        NodeAddr(q as u32),
                                        TAG_RESID_ANS,
                                        it as u64,
                                        pack_boundary(it, g),
                                    );
                                }
                                g
                            } else {
                                udco::send_raw(
                                    &ctx,
                                    node,
                                    NodeAddr(0),
                                    TAG_RESID,
                                    it as u64,
                                    pack_boundary(it, lr),
                                );
                                let msg = udco::recv_raw_spin(&ctx, node, TAG_RESID_ANS);
                                let (mit, v) = parse_boundary(&msg.payload);
                                assert_eq!(mit, it, "residual iteration skew");
                                v
                            }
                        }
                    };
                    if me == 0 {
                        let mut g = lock(&chk);
                        g.0 += 1;
                        g.1 = global;
                    }
                }
                user_compute(
                    &ctx,
                    node,
                    SimDuration::from_ns(JACOBI_NS_PER_ELEM * k as u64),
                );
                jacobi_sweep(&x, &my_b, lv, rv, &mut nx);
                std::mem::swap(&mut x, &mut nx);
            }
            lock(&sol)[me * k..(me + 1) * k].copy_from_slice(&x);
        });
    }
    let end = v.run_all();
    let elapsed = end - SimTime::ZERO;
    let x = lock(&solution).clone();
    let max_err = x
        .iter()
        .zip(&serial)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let (checks, checked_residual) = *lock(&checked);
    SpiceResult {
        elapsed,
        per_iter: elapsed / iters.max(1) as u64,
        max_err,
        residual: residual(&x, &b),
        checks,
        checked_residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_bit_exactly() {
        let r = run_spice(
            SpiceParams {
                m: 64,
                p: 4,
                iters: 25,
            },
            11,
        );
        assert_eq!(r.max_err, 0.0, "Jacobi iterate must match serially");
    }

    #[test]
    fn residual_decreases_with_iterations() {
        let few = run_spice(
            SpiceParams {
                m: 32,
                p: 2,
                iters: 5,
            },
            3,
        );
        let many = run_spice(
            SpiceParams {
                m: 32,
                p: 2,
                iters: 200,
            },
            3,
        );
        assert!(
            many.residual < few.residual,
            "more iterations should reduce the residual: {} vs {}",
            many.residual,
            few.residual
        );
    }

    #[test]
    fn halo_exchange_is_cheap_relative_to_compute() {
        // With raw UDCOs the halo costs ~tens of µs; the sweep costs
        // k * 20µs. Per-iteration time should be compute-dominated.
        let k = 16usize;
        let r = run_spice(
            SpiceParams {
                m: k * 4,
                p: 4,
                iters: 50,
            },
            5,
        );
        let compute_ns = JACOBI_NS_PER_ELEM * k as u64;
        let per_iter_ns = r.per_iter.as_ns();
        assert!(
            per_iter_ns < 2 * compute_ns,
            "per-iter {per_iter_ns}ns should be < 2x compute {compute_ns}ns"
        );
    }

    #[test]
    fn collective_residual_check_beats_point_to_point() {
        let params = SpiceParams {
            m: 64,
            p: 8,
            iters: 12,
        };
        let pp = run_spice_checked(params, 11, 3, ResidCheck::PointToPoint);
        let innet = run_spice_checked(params, 11, 3, ResidCheck::Collective(CollMode::InNetwork));
        let tree = run_spice_checked(
            params,
            11,
            3,
            ResidCheck::Collective(CollMode::SoftwareTree { radix: 2 }),
        );
        for r in [&pp, &innet, &tree] {
            assert_eq!(r.max_err, 0.0, "check must not perturb the iterate");
            assert_eq!(r.checks, 4);
        }
        // Same iterate, same check points → bit-identical global residual.
        assert_eq!(
            pp.checked_residual.to_bits(),
            innet.checked_residual.to_bits()
        );
        assert_eq!(
            pp.checked_residual.to_bits(),
            tree.checked_residual.to_bits()
        );
        // The combining fabric beats convoying through node 0.
        assert!(
            innet.elapsed < pp.elapsed,
            "in-network {:?} should beat p2p {:?}",
            innet.elapsed,
            pp.elapsed
        );
    }

    #[test]
    fn unchecked_run_is_unchanged_by_the_check_machinery() {
        let params = SpiceParams {
            m: 32,
            p: 2,
            iters: 10,
        };
        let plain = run_spice(params, 3);
        let none = run_spice_checked(params, 3, 5, ResidCheck::None);
        assert_eq!(plain.elapsed, none.elapsed);
        assert_eq!(none.checks, 0);
        assert!(none.checked_residual.is_nan());
    }

    #[test]
    fn serial_jacobi_sanity() {
        // For b = A * ones, the solution is ones; Jacobi converges to it.
        let m = 16;
        let ones = vec![1.0; m];
        let mut b = vec![0.0; m];
        for i in 0..m {
            let xl = if i == 0 { 0.0 } else { ones[i - 1] };
            let xr = if i == m - 1 { 0.0 } else { ones[i + 1] };
            b[i] = 2.0 * ones[i] - xl - xr;
        }
        let x = serial_jacobi(&b, 2000);
        for v in &x {
            assert!((v - 1.0).abs() < 1e-6);
        }
        assert!(residual(&x, &b) < 1e-6);
    }
}
