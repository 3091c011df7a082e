//! A CEMU-style distributed circuit timing simulator (§4.1 / §5).
//!
//! CEMU ("MOS Timing Simulation on a Message Based Multiprocessor") is the
//! application the paper credits with pioneering user-level protocols: its
//! group "wanted to experiment with various low-level communications
//! protocols for their circuit simulator" and demonstrated that
//! sliding-window protocols beat stop-and-wait; it also used *coroutines*
//! for cheap context switching (§5).
//!
//! The stand-in: a unit/multi-delay gate-level timing simulator. A seeded
//! random netlist (with feedback — delays make it well-defined) is
//! partitioned across nodes; each simulated tick the nodes evaluate their
//! gate partitions and exchange boundary signal values over UDCOs,
//! switching between "communication" and "evaluation" coroutines. The
//! distributed waveform is verified bit-exactly against the serial
//! simulator.

use std::sync::{Arc, Mutex};

use bytes::{BufMut, BytesMut};
use desim::rng::SmallRng;
use desim::{lock, SimDuration};
use vorx::api::user_compute;
use vorx::hpcnet::{NodeAddr, Payload};
use vorx::sched::coroutine_switch;
use vorx::udco::{self, UdcoMode};
use vorx::VorxBuilder;

use crate::fft2d::topology_for;

/// Gate kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Logical AND of the inputs.
    And,
    /// Logical OR.
    Or,
    /// Negation of the (single) input.
    Not,
    /// Exclusive OR.
    Xor,
}

/// One gate: output signal `out` becomes `f(inputs)` after `delay` ticks.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Gate function.
    pub(crate) kind: GateKind,
    /// Input signal ids.
    pub(crate) inputs: Vec<usize>,
    /// Output signal id (one driver per signal).
    pub(crate) out: usize,
    /// Propagation delay in ticks (1..=MAX_DELAY).
    pub(crate) delay: usize,
}

/// Maximum gate delay supported.
pub(crate) const MAX_DELAY: usize = 4;

/// A netlist: `n_signals` signals, the first `n_inputs` of which are primary
/// inputs driven by the stimulus.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Total signals.
    pub n_signals: usize,
    /// Primary inputs (signals `0..n_inputs`).
    pub n_inputs: usize,
    /// The gates (each drives one non-input signal).
    pub gates: Vec<Gate>,
}

impl Circuit {
    /// Seeded random circuit: every non-input signal is driven by one gate
    /// whose inputs come from anywhere (feedback allowed — delays make the
    /// network well-defined).
    pub fn random(n_inputs: usize, n_gates: usize, seed: u64) -> Circuit {
        let n_signals = n_inputs + n_gates;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut gates = Vec::with_capacity(n_gates);
        for g in 0..n_gates {
            let kind = match rng.below(4) {
                0 => GateKind::And,
                1 => GateKind::Or,
                2 => GateKind::Not,
                _ => GateKind::Xor,
            };
            let n_in = if kind == GateKind::Not { 1 } else { 2 };
            let inputs = (0..n_in)
                .map(|_| rng.below(n_signals as u64) as usize)
                .collect();
            gates.push(Gate {
                kind,
                inputs,
                out: n_inputs + g,
                delay: 1 + rng.below(MAX_DELAY as u64) as usize,
            });
        }
        Circuit {
            n_signals,
            n_inputs,
            gates,
        }
    }
}

fn eval(kind: GateKind, inputs: &[bool]) -> bool {
    match kind {
        GateKind::And => inputs.iter().all(|b| *b),
        GateKind::Or => inputs.iter().any(|b| *b),
        GateKind::Not => !inputs[0],
        GateKind::Xor => inputs.iter().fold(false, |a, b| a ^ b),
    }
}

/// Stimulus: primary-input values per tick (deterministic from a seed).
pub(crate) fn random_stimulus(n_inputs: usize, ticks: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC1BC);
    (0..ticks)
        .map(|_| (0..n_inputs).map(|_| rng.bool()).collect())
        .collect()
}

/// Serial reference simulation: returns the full waveform
/// `values[tick][signal]` for `ticks` ticks (everything starts at false).
pub(crate) fn simulate_serial(c: &Circuit, stim: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let ticks = stim.len();
    // History ring: values at ticks t-MAX_DELAY..=t.
    let mut hist = vec![vec![false; c.n_signals]; MAX_DELAY + 1];
    let mut wave = Vec::with_capacity(ticks);
    for t in 0..ticks {
        let mut now = vec![false; c.n_signals];
        now[..c.n_inputs].copy_from_slice(&stim[t]);
        for g in &c.gates {
            // out at tick t is f(inputs at tick t - delay).
            let past = &hist[(t + MAX_DELAY + 1 - g.delay) % (MAX_DELAY + 1)];
            let ins: Vec<bool> = g.inputs.iter().map(|i| past[*i]).collect();
            now[g.out] = eval(g.kind, &ins);
        }
        hist[t % (MAX_DELAY + 1)] = now.clone();
        wave.push(now);
    }
    wave
}

fn pack_bits(vals: &[(usize, bool)]) -> Payload {
    let mut b = BytesMut::with_capacity(vals.len() * 3);
    for (sig, v) in vals {
        b.put_u16(*sig as u16);
        b.put_u8(u8::from(*v));
    }
    Payload::Data(b.freeze())
}

fn unpack_bits(p: &Payload) -> Vec<(usize, bool)> {
    let b = p.bytes().expect("boundary values carry data");
    b.chunks_exact(3)
        .map(|c| (u16::from_be_bytes([c[0], c[1]]) as usize, c[2] != 0))
        .collect()
}

/// Modeled evaluation time per gate-tick on the 68020.
const GATE_EVAL_NS: u64 = 5_000;

/// Result of a distributed run.
#[derive(Debug)]
pub struct CemuResult {
    /// Simulated wall time.
    pub elapsed: SimDuration,
    /// Ticks per simulated second of wall time.
    pub ticks_per_sec: f64,
    /// True iff the distributed waveform matched the serial one bit-exactly.
    pub verified: bool,
}

/// Run the circuit `ticks` ticks on `p` nodes and verify against the serial
/// simulator.
pub fn run_cemu(c: &Circuit, p: usize, ticks: usize, seed: u64) -> CemuResult {
    assert!(p >= 2);
    let stim = random_stimulus(c.n_inputs, ticks, seed);
    let reference = simulate_serial(c, &stim);

    // Partition gates round-robin; every node knows the full netlist shape
    // (signals it must import per tick).
    let owner_of = |sig: usize| -> Option<usize> {
        if sig < c.n_inputs {
            None // primary inputs: known everywhere (stimulus is global)
        } else {
            Some((sig - c.n_inputs) % p)
        }
    };
    // imports[a][b] = signals owned by b that node a's gates read.
    let mut imports: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); p]; p];
    for g in &c.gates {
        let me = owner_of(g.out).expect("gate output is not an input");
        for &i in &g.inputs {
            if let Some(o) = owner_of(i) {
                if o != me && !imports[me][o].contains(&i) {
                    imports[me][o].push(i);
                }
            }
        }
    }

    let mut v = VorxBuilder::with_topology(topology_for(p))
        .trace(false)
        .build();
    let waves = Arc::new(Mutex::new(vec![Vec::<(usize, Vec<bool>)>::new(); p]));

    for me in 0..p {
        let my_gates: Vec<Gate> = c
            .gates
            .iter()
            .filter(|g| owner_of(g.out) == Some(me))
            .cloned()
            .collect();
        // exports[b] = signals I own that node b needs.
        let exports: Vec<Vec<usize>> = (0..p).map(|b| imports[b][me].clone()).collect();
        let my_imports = imports[me].clone();
        let stim = stim.clone();
        let n_signals = c.n_signals;
        let n_inputs = c.n_inputs;
        let waves = Arc::clone(&waves);
        v.spawn(format!("n{me}:cemu"), move |ctx| {
            let node = NodeAddr(me as u32);
            // One UDCO per sending peer (tag = 50 + sender).
            for q in 0..p {
                if q != me {
                    udco::register(&ctx, node, 50 + q as u16, UdcoMode::Interrupt);
                }
            }
            let mut hist = vec![vec![false; n_signals]; MAX_DELAY + 1];
            let mut out_wave: Vec<(usize, Vec<bool>)> = Vec::new();
            for t in 0..stim.len() {
                // --- communication coroutine: exchange boundary values of
                // tick t-1 (already in hist), then switch to evaluation.
                if t > 0 {
                    let prev = (t - 1) % (MAX_DELAY + 1);
                    for (q, sigs) in exports.iter().enumerate() {
                        if q != me && !sigs.is_empty() {
                            let vals: Vec<(usize, bool)> =
                                sigs.iter().map(|s| (*s, hist[prev][*s])).collect();
                            udco::send(
                                &ctx,
                                node,
                                NodeAddr(q as u32),
                                50 + me as u16,
                                t as u64,
                                pack_bits(&vals),
                            );
                        }
                    }
                    for (q, sigs) in my_imports.iter().enumerate() {
                        if q != me && !sigs.is_empty() {
                            let m = udco::recv(&ctx, node, 50 + q as u16);
                            assert_eq!(m.seq, t as u64, "tick skew from n{q}");
                            for (sig, val) in unpack_bits(&m.payload) {
                                hist[prev][sig] = val;
                            }
                        }
                    }
                }
                coroutine_switch(&ctx, node); // comm -> eval (§5, CEMU style)

                // --- evaluation coroutine ---
                user_compute(
                    &ctx,
                    node,
                    SimDuration::from_ns(GATE_EVAL_NS * my_gates.len() as u64),
                );
                let mut now = vec![false; n_signals];
                now[..n_inputs].copy_from_slice(&stim[t]);
                let mut mine = Vec::with_capacity(my_gates.len());
                for g in &my_gates {
                    let past = &hist[(t + MAX_DELAY + 1 - g.delay) % (MAX_DELAY + 1)];
                    let ins: Vec<bool> = g.inputs.iter().map(|i| past[*i]).collect();
                    let v = eval(g.kind, &ins);
                    now[g.out] = v;
                    mine.push((g.out, v));
                }
                hist[t % (MAX_DELAY + 1)] = now;
                out_wave.push((t, mine.iter().map(|(_, v)| *v).collect()));
                coroutine_switch(&ctx, node); // eval -> comm
            }
            // Record (signal ids are implicit in gate order).
            let sigs: Vec<usize> = my_gates.iter().map(|g| g.out).collect();
            let mut w = lock(&waves);
            w[me] = out_wave.into_iter().collect();
            // Stash the signal order as a final pseudo-entry.
            w[me].push((usize::MAX, sigs.iter().map(|s| *s != 0).collect()));
            drop(w);
            let _ = sigs;
        });
    }
    let end = v.run_all();

    // Verify every node's recorded outputs against the serial waveform.
    let my_sigs: Vec<Vec<usize>> = (0..p)
        .map(|me| {
            c.gates
                .iter()
                .filter(|g| owner_of(g.out) == Some(me))
                .map(|g| g.out)
                .collect()
        })
        .collect();
    let mut verified = true;
    let w = lock(&waves);
    for me in 0..p {
        for (t, vals) in &w[me] {
            if *t == usize::MAX {
                continue;
            }
            for (k, sig) in my_sigs[me].iter().enumerate() {
                if reference[*t][*sig] != vals[k] {
                    verified = false;
                }
            }
        }
    }
    let elapsed = end - desim::SimTime::ZERO;
    CemuResult {
        elapsed,
        ticks_per_sec: ticks as f64 / elapsed.as_secs_f64(),
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_simulator_basics() {
        // NOT gate with delay 1: output is the inverse of the input one
        // tick earlier.
        let c = Circuit {
            n_signals: 2,
            n_inputs: 1,
            gates: vec![Gate {
                kind: GateKind::Not,
                inputs: vec![0],
                out: 1,
                delay: 1,
            }],
        };
        let stim = vec![vec![true], vec![false], vec![true]];
        let w = simulate_serial(&c, &stim);
        assert!(w[0][1]); // NOT(initial false)
        assert!(!w[1][1]); // NOT(true @ t0)
        assert!(w[2][1]); // NOT(false @ t1)
    }

    #[test]
    fn gate_functions() {
        assert!(eval(GateKind::And, &[true, true]));
        assert!(!eval(GateKind::And, &[true, false]));
        assert!(eval(GateKind::Or, &[false, true]));
        assert!(eval(GateKind::Xor, &[true, false]));
        assert!(!eval(GateKind::Xor, &[true, true]));
        assert!(eval(GateKind::Not, &[false]));
    }

    #[test]
    fn distributed_matches_serial_bit_exactly() {
        let c = Circuit::random(6, 40, 17);
        let r = run_cemu(&c, 4, 25, 99);
        assert!(r.verified, "distributed waveform diverged from serial");
        assert!(r.ticks_per_sec > 0.0);
    }

    #[test]
    fn feedback_circuits_are_handled() {
        // Ring oscillator: NOT gate feeding itself (delay 2).
        let c = Circuit {
            n_signals: 2,
            n_inputs: 1,
            gates: vec![Gate {
                kind: GateKind::Not,
                inputs: vec![1],
                out: 1,
                delay: 2,
            }],
        };
        let stim = vec![vec![false]; 8];
        let w = simulate_serial(&c, &stim);
        // Oscillates with period 4: T T F F T T F F.
        let sig: Vec<bool> = w.iter().map(|t| t[1]).collect();
        assert_eq!(
            sig,
            vec![true, true, false, false, true, true, false, false]
        );
    }

    #[test]
    fn two_node_partition_also_verifies() {
        let c = Circuit::random(4, 21, 3);
        let r = run_cemu(&c, 2, 30, 5);
        assert!(r.verified);
    }
}
