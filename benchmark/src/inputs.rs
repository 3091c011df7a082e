//! Seeded input generation. Everything here is a pure function of the seed;
//! the program under test sees only the generated plans, never the seed.
//!
//! The seed deliberately moves only what leaves a workload's *shape* alone —
//! which endpoint of the next cluster a stream lands on, where in the size
//! cycle a stream starts, which cables and node the fault schedule hits — so
//! that two seeds measure the same amount of the same kind of work and their
//! metrics are comparable within the benchmark's bounds.

/// SplitMix64: small, seedable, and good enough to scatter endpoints.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn for_purpose(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything a
    /// workload of this size can see.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A permutation of `0..n` with no fixed point (`n >= 2`): a shuffled
    /// order read as one cycle.
    pub fn derangement(&mut self, n: u32) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n).collect();
        self.shuffle(&mut order);
        let mut to = vec![0; n as usize];
        for (k, &a) in order.iter().enumerate() {
            to[a as usize] = order[(k + 1) % order.len()];
        }
        to
    }
}

/// The paper's message sizes (Tables 1 and 2), bytes.
pub const PAPER_SIZES: [u32; 4] = [4, 64, 256, 1024];

/// One writer→reader stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    pub src: u32,
    pub dst: u32,
    /// Where in the size cycle message 0 falls.
    pub size_phase: u32,
}

/// A set of closed-loop streams: each writer issues its next blocking write
/// only when the previous one returned.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPlan {
    pub streams: Vec<Stream>,
    pub msgs_per_stream: u32,
    /// Message `i` of a stream is `sizes[(size_phase + i) % len]` bytes.
    pub sizes: Vec<u32>,
    /// Messages a writer issues back to back between think times.
    pub burst: u32,
    /// Think time before each burst, simulated ns.
    pub think_ns: u64,
}

impl StreamPlan {
    pub fn size_of(&self, s: &Stream, i: u32) -> u32 {
        self.sizes[(s.size_phase + i) as usize % self.sizes.len()]
    }

    pub fn total_msgs(&self) -> u64 {
        self.streams.len() as u64 * u64::from(self.msgs_per_stream)
    }
}

/// The paper's machine: every endpoint writes to one endpoint in each of the
/// next `fanout` clusters (`clusters` × `per_cluster` endpoints, endpoint `a`
/// is number `a % per_cluster` of cluster `a / per_cluster`). The seed picks,
/// per cluster distance, which endpoint of the target cluster each source
/// index lands on (a permutation, so every endpoint also reads `fanout`
/// streams) and each stream's size phase.
pub fn ring_streams(
    seed: u64,
    clusters: u32,
    per_cluster: u32,
    fanout: u32,
    sizes: &[u32],
    msgs_per_stream: u32,
) -> StreamPlan {
    let mut rng = Rng::for_purpose(seed, 1);
    let mut streams = Vec::new();
    for d in 1..=fanout {
        let mut landing: Vec<u32> = (0..per_cluster).collect();
        rng.shuffle(&mut landing);
        for c in 0..clusters {
            for (i, &j) in landing.iter().enumerate() {
                streams.push(Stream {
                    src: c * per_cluster + i as u32,
                    dst: (c + d) % clusters * per_cluster + j,
                    size_phase: rng.below(sizes.len() as u64) as u32,
                });
            }
        }
    }
    StreamPlan {
        streams,
        msgs_per_stream,
        sizes: sizes.to_vec(),
        burst: 1,
        think_ns: 0,
    }
}

/// The dense cell: every one of `n` endpoints writes one stream and reads
/// one, paired by a seeded derangement.
pub fn dense_streams(
    seed: u64,
    n: u32,
    size: u32,
    msgs_per_stream: u32,
    think_ns: u64,
) -> StreamPlan {
    let to = Rng::for_purpose(seed, 2).derangement(n);
    StreamPlan {
        streams: (0..n)
            .map(|a| Stream {
                src: a,
                dst: to[a as usize],
                size_phase: 0,
            })
            .collect(),
        msgs_per_stream,
        sizes: vec![size],
        burst: 1,
        think_ns,
    }
}

/// One inter-cluster cable taken down and brought back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CableCut {
    /// Index into the topology's list of inter-cluster cables.
    pub cable: u32,
    pub down_ns: u64,
    pub up_ns: u64,
}

/// One node crashed and restarted cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCrash {
    pub node: u32,
    pub down_ns: u64,
    pub up_ns: u64,
}

/// The chaos workload's fault script.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-frame loss probability on every link, from `loss_from_ns` on.
    pub loss: f64,
    pub loss_from_ns: u64,
    /// Seed of the loss stream.
    pub loss_seed: u64,
    pub cables: [CableCut; 2],
    pub crash: NodeCrash,
}

/// Two distinct cables out of `n_cables` and one node out of `n_nodes`, at
/// instants jittered inside fixed windows so the script always overlaps the
/// traffic the same way.
pub fn fault_plan(seed: u64, n_cables: u32, n_nodes: u32) -> FaultPlan {
    let mut rng = Rng::for_purpose(seed, 3);
    let first = rng.below(u64::from(n_cables)) as u32;
    let second = (first + 1 + rng.below(u64::from(n_cables) - 1) as u32) % n_cables;
    let ms = 1_000_000;
    let mut window = |base_ms: u64, jitter_ms: u64| (base_ms * ms) + rng.below(jitter_ms * ms);
    let (d1, d2, dc) = (window(20, 10), window(80, 10), window(30, 10));
    FaultPlan {
        loss: 0.01,
        loss_from_ns: 10 * ms,
        loss_seed: rng.next_u64(),
        cables: [
            CableCut {
                cable: first,
                down_ns: d1,
                up_ns: d1 + 40 * ms,
            },
            CableCut {
                cable: second,
                down_ns: d2,
                up_ns: d2 + 30 * ms,
            },
        ],
        crash: NodeCrash {
            node: rng.below(u64::from(n_nodes)) as u32,
            down_ns: dc,
            up_ns: dc + 50 * ms,
        },
    }
}

/// One frame handed to the bare fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    pub at_ns: u64,
    pub src: u32,
    /// `None`: multicast to every other endpoint.
    pub dst: Option<u32>,
    pub size: u32,
}

/// Open-loop fabric load: one injection every `gap_ns`, sources round-robin,
/// every `mcast_every`-th a 512 B multicast. Each source walks a seeded order
/// of the other endpoints and a seeded phase of the size cycle, so every
/// (source, destination) pair and every size carries the same share of the
/// load whatever the seed. Open loop is what a fabric sees: it cannot slow
/// its senders except by back-pressure, which is the thing being loaded.
pub fn fabric_injections(
    seed: u64,
    n_endpoints: u32,
    count: u32,
    gap_ns: u64,
    mcast_every: u32,
) -> Vec<Injection> {
    let mut rng = Rng::for_purpose(seed, 4);
    let walks: Vec<(Vec<u32>, u32)> = (0..n_endpoints)
        .map(|src| {
            let mut others: Vec<u32> = (0..n_endpoints).filter(|&d| d != src).collect();
            rng.shuffle(&mut others);
            (others, rng.below(PAPER_SIZES.len() as u64) as u32)
        })
        .collect();
    (0..count)
        .map(|i| {
            let src = i % n_endpoints;
            let at_ns = u64::from(i) * gap_ns;
            if i % mcast_every == mcast_every - 1 {
                return Injection {
                    at_ns,
                    src,
                    dst: None,
                    size: 512,
                };
            }
            let (others, phase) = &walks[src as usize];
            let nth = (i / n_endpoints) as usize;
            Injection {
                at_ns,
                src,
                dst: Some(others[nth % others.len()]),
                size: PAPER_SIZES[(*phase as usize + nth) % PAPER_SIZES.len()],
            }
        })
        .collect()
}

/// Member `m`'s operand for collective operation `op`: seeded, and small
/// enough that the closed-form sum cannot be confused with a wrapped one.
pub fn coll_operand(seed: u64, m: u32, op: u32) -> u64 {
    Rng::for_purpose(seed, 5 + (u64::from(op) << 32 | u64::from(m))).next_u64() >> 24
}

/// How long member `m` computes before entering operation `op`, simulated
/// ns: members of a real group never arrive together, and the skew is what
/// the combining window and the tree's convoy have to absorb.
pub fn coll_think_ns(seed: u64, m: u32, op: u32) -> u64 {
    Rng::for_purpose(seed, 6 + (u64::from(op) << 32 | u64::from(m))).below(40_000)
}

/// What every member must get back from sum-allreduce number `op`.
pub fn coll_expected_sum(seed: u64, members: u32, op: u32) -> u64 {
    (0..members).fold(0u64, |acc, m| acc.wrapping_add(coll_operand(seed, m, op)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let ring = |s| ring_streams(s, 10, 7, 3, &PAPER_SIZES, 5);
        let dense = |s| dense_streams(s, 1024, 256, 4, 200_000);
        let faults = |s| fault_plan(s, 34, 70);
        let fabric = |s| fabric_injections(s, 64, 2000, 2000, 65);
        assert_eq!(ring(7), ring(7));
        assert_ne!(ring(7), ring(8));
        assert_eq!(dense(7), dense(7));
        assert_ne!(dense(7), dense(8));
        assert_eq!(faults(7), faults(7));
        assert_ne!(faults(7), faults(8));
        assert_eq!(fabric(7), fabric(7));
        assert_ne!(fabric(7), fabric(8));
        assert_eq!(coll_operand(7, 3, 1), coll_operand(7, 3, 1));
        assert_ne!(coll_operand(7, 3, 1), coll_operand(8, 3, 1));
    }

    #[test]
    fn ring_streams_give_every_endpoint_fanout_in_and_out() {
        let plan = ring_streams(11, 10, 7, 3, &PAPER_SIZES, 200);
        assert_eq!(plan.streams.len(), 210);
        assert_eq!(plan.total_msgs(), 42_000);
        let mut out = [0u32; 70];
        let mut inn = [0u32; 70];
        for s in &plan.streams {
            assert_ne!(s.src / 7, s.dst / 7, "stream stays in its cluster");
            out[s.src as usize] += 1;
            inn[s.dst as usize] += 1;
        }
        assert!(out.iter().chain(&inn).all(|&k| k == 3));
        // Every stream carries the same size mix, whatever its phase.
        for s in &plan.streams {
            let bytes: u32 = (0..200).map(|i| plan.size_of(s, i)).sum();
            assert_eq!(bytes, 50 * (4 + 64 + 256 + 1024));
        }
    }

    #[test]
    fn dense_streams_are_a_derangement() {
        let plan = dense_streams(5, 1024, 256, 40, 200_000);
        let mut seen = vec![false; 1024];
        for s in &plan.streams {
            assert_ne!(s.src, s.dst);
            assert!(!std::mem::replace(&mut seen[s.dst as usize], true));
        }
    }

    #[test]
    fn fault_plan_is_well_formed_for_any_seed() {
        for seed in 0..200 {
            let p = fault_plan(seed, 34, 70);
            assert_ne!(p.cables[0].cable, p.cables[1].cable);
            assert!(p.cables.iter().all(|c| c.cable < 34 && c.down_ns < c.up_ns));
            assert!(p.crash.node < 70 && p.crash.down_ns < p.crash.up_ns);
        }
    }

    #[test]
    fn fabric_injections_load_every_pair_alike() {
        let inj = fabric_injections(3, 64, 65 * 64 * 4, 2_000, 65);
        assert_eq!(inj.iter().filter(|i| i.dst.is_none()).count(), 64 * 4);
        assert!(inj.iter().all(|i| i.dst != Some(i.src)));
        assert!(inj.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
        // Multicasts rotate over the sources, and no pair is favoured by more
        // than the slots multicasts displace.
        let mut mcast_sources: Vec<u32> = inj
            .iter()
            .filter(|i| i.dst.is_none())
            .map(|i| i.src)
            .collect();
        mcast_sources.sort_unstable();
        mcast_sources.dedup();
        assert_eq!(mcast_sources.len(), 64);
        let mut per_pair = std::collections::BTreeMap::new();
        for i in inj.iter().filter(|i| i.dst.is_some()) {
            *per_pair.entry((i.src, i.dst)).or_insert(0u32) += 1;
        }
        let (lo, hi) = (
            per_pair.values().min().unwrap(),
            per_pair.values().max().unwrap(),
        );
        assert!(hi - lo <= 2, "pair loads range {lo}..{hi}");
    }

    #[test]
    fn collective_closed_form_is_the_sum_of_operands() {
        let direct: u64 = (0..512).map(|m| coll_operand(9, m, 4)).sum();
        assert_eq!(coll_expected_sum(9, 512, 4), direct);
    }
}
