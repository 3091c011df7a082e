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
use vorx::hpcnet::{NodeAddr, Payload};
use vorx::udco::{self, UdcoMode};
use vorx::VorxBuilder;

use crate::fft2d::topology_for;

/// Boundary value sent toward the left neighbour.
const TAG_TO_LEFT: u16 = 40;
/// Boundary value sent toward the right neighbour.
const TAG_TO_RIGHT: u16 = 41;
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
pub(crate) fn serial_jacobi(b: &[f64], iters: usize) -> Vec<f64> {
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
pub(crate) fn residual(x: &[f64], b: &[f64]) -> f64 {
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
    let SpiceParams { m, p, iters } = params;
    assert!(p >= 2 && m % p == 0);
    let k = m / p;
    let mut rng = SmallRng::seed_from_u64(seed);
    let b: Vec<f64> = (0..m).map(|_| rng.f64()).collect();
    let serial = serial_jacobi(&b, iters);

    let mut v = VorxBuilder::with_topology(topology_for(p))
        .trace(false)
        .build();
    let solution = Arc::new(Mutex::new(vec![0.0f64; m]));

    for me in 0..p {
        let my_b = b[me * k..(me + 1) * k].to_vec();
        let sol = Arc::clone(&solution);
        v.spawn(format!("n{me}:spice"), move |ctx| {
            let node = NodeAddr(me as u32);
            udco::register(&ctx, node, TAG_TO_LEFT, UdcoMode::Raw);
            udco::register(&ctx, node, TAG_TO_RIGHT, UdcoMode::Raw);
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
    SpiceResult {
        elapsed,
        per_iter: elapsed / iters.max(1) as u64,
        max_err,
        residual: residual(&x, &b),
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
