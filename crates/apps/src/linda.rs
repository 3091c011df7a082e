//! A Linda tuple-space kernel (§1, §4.1).
//!
//! The S/NET's Linda kernel (Carriero & Gelernter) is one of the paper's
//! marquee prior applications, and the Linda implementors are the §4.1
//! users who "needed a different type of semantics" than channels. This
//! stand-in implements the classic distributed tuple space:
//!
//! * `out(t)` deposits tuple `t`;
//! * `in(p)` blocks until a tuple matches pattern `p`, removing it;
//! * `rd(p)` blocks until a match, without removing it.
//!
//! Tuples are partitioned across the participating nodes by a hash of
//! their first field (the classic kernel strategy), so every operation is
//! one message to the owning node's kernel process. Patterns must therefore
//! have a concrete first field — the usual first-field restriction of
//! hash-partitioned Linda kernels.

use bytes::{BufMut, BytesMut};
use vorx::api::compute_ns;
use vorx::cpu::CpuCat;
use vorx::hpcnet::{NodeAddr, Payload};
use vorx::udco::{self, UdcoMode};
use vorx::{VCtx, VorxSim};

/// A tuple field value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Val {
    /// An integer.
    Int(i64),
    /// A string.
    Str(String),
}

/// A pattern field: match a concrete value or anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pat {
    /// Field must equal this value.
    Eq(Val),
    /// Wildcard ("formal" in Linda terminology).
    Any,
}

/// A tuple.
pub type Tuple = Vec<Val>;
/// A pattern.
pub type Pattern = Vec<Pat>;

/// Does `p` match `t`?
pub fn matches(p: &Pattern, t: &Tuple) -> bool {
    p.len() == t.len()
        && p.iter().zip(t).all(|(pf, tf)| match pf {
            Pat::Any => true,
            Pat::Eq(v) => v == tf,
        })
}

fn hash_val(v: &Val) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    match v {
        Val::Int(i) => eat(&i.to_be_bytes()),
        Val::Str(s) => eat(s.as_bytes()),
    }
    h
}

// --- wire encoding ---

fn put_val(b: &mut BytesMut, v: &Val) {
    match v {
        Val::Int(i) => {
            b.put_u8(0);
            b.put_i64(*i);
        }
        Val::Str(s) => {
            b.put_u8(1);
            b.put_u16(s.len() as u16);
            b.put_slice(s.as_bytes());
        }
    }
}

fn get_val(b: &[u8], off: &mut usize) -> Val {
    let tag = b[*off];
    *off += 1;
    match tag {
        0 => {
            let v = i64::from_be_bytes(b[*off..*off + 8].try_into().expect("8"));
            *off += 8;
            Val::Int(v)
        }
        1 => {
            let n = u16::from_be_bytes([b[*off], b[*off + 1]]) as usize;
            *off += 2;
            let s = String::from_utf8(b[*off..*off + n].to_vec()).expect("utf8");
            *off += n;
            Val::Str(s)
        }
        x => panic!("bad value tag {x}"),
    }
}

fn encode_tuple(t: &Tuple) -> Payload {
    let mut b = BytesMut::new();
    b.put_u8(t.len() as u8);
    for v in t {
        put_val(&mut b, v);
    }
    Payload::Data(b.freeze())
}

fn decode_tuple(p: &Payload) -> Tuple {
    let b = p.bytes().expect("tuple carries data");
    let n = b[0] as usize;
    let mut off = 1;
    (0..n).map(|_| get_val(b, &mut off)).collect()
}

/// Ops carried to the owner kernel. `reply` is the requester's node.
#[derive(Debug, Clone)]
enum Op {
    Out(Tuple),
    In(Pattern, NodeAddr),
    Rd(Pattern, NodeAddr),
}

fn encode_op(op: &Op) -> Payload {
    let mut b = BytesMut::new();
    let (tag, reply) = match op {
        Op::Out(_) => (0u8, 0u32),
        Op::In(_, r) => (1, r.0),
        Op::Rd(_, r) => (2, r.0),
    };
    b.put_u8(tag);
    b.put_u32(reply);
    match op {
        Op::Out(t) => {
            b.put_u8(t.len() as u8);
            for v in t {
                put_val(&mut b, v);
            }
        }
        Op::In(p, _) | Op::Rd(p, _) => {
            b.put_u8(p.len() as u8);
            for f in p {
                match f {
                    Pat::Any => b.put_u8(2),
                    Pat::Eq(v) => {
                        b.put_u8(3);
                        put_val(&mut b, v);
                    }
                }
            }
        }
    }
    Payload::Data(b.freeze())
}

fn decode_op(p: &Payload) -> Op {
    let b = p.bytes().expect("op carries data");
    let tag = b[0];
    let reply = NodeAddr(u32::from_be_bytes([b[1], b[2], b[3], b[4]]));
    let n = b[5] as usize;
    let mut off = 6;
    match tag {
        0 => Op::Out((0..n).map(|_| get_val(b, &mut off)).collect()),
        1 | 2 => {
            let pat: Pattern = (0..n)
                .map(|_| {
                    let ft = b[off];
                    off += 1;
                    match ft {
                        2 => Pat::Any,
                        3 => Pat::Eq(get_val(b, &mut off)),
                        x => panic!("bad pattern tag {x}"),
                    }
                })
                .collect();
            if tag == 1 {
                Op::In(pat, reply)
            } else {
                Op::Rd(pat, reply)
            }
        }
        x => panic!("bad op tag {x}"),
    }
}

/// UDCO tag for requests to the tuple-space kernel.
const REQ_TAG: u16 = 60;
/// UDCO tag for replies to clients.
const REP_TAG: u16 = 61;
/// Modeled matching cost per op at the kernel.
const MATCH_NS: u64 = 25_000;

/// A handle to the distributed tuple space.
#[derive(Debug, Clone)]
pub struct TupleSpace {
    /// Nodes running tuple-space kernels.
    pub participants: Vec<NodeAddr>,
}

impl TupleSpace {
    /// Create a space over `participants` and spawn the kernel process on
    /// each. Client nodes must also call [`TupleSpace::join`] once before
    /// using the space.
    pub fn spawn(v: &VorxSim, participants: Vec<NodeAddr>) -> TupleSpace {
        for &node in &participants {
            v.spawn(format!("n{}:linda-kernel", node.0), move |ctx| {
                kernel(&ctx, node);
            });
        }
        TupleSpace { participants }
    }

    /// Register the reply object on a client node (once per node).
    pub fn join(&self, ctx: &VCtx, me: NodeAddr) {
        udco::register(ctx, me, REP_TAG, UdcoMode::Interrupt);
    }

    fn owner(&self, first: &Val) -> NodeAddr {
        self.participants[(hash_val(first) % self.participants.len() as u64) as usize]
    }

    fn pattern_owner(&self, p: &Pattern) -> NodeAddr {
        match p.first() {
            Some(Pat::Eq(v)) => self.owner(v),
            _ => panic!("Linda patterns need a concrete first field (kernel hashing)"),
        }
    }

    /// Deposit a tuple (asynchronous, like the original `out`).
    pub fn out(&self, ctx: &VCtx, me: NodeAddr, t: Tuple) {
        assert!(!t.is_empty(), "empty tuples are not allowed");
        let owner = self.owner(&t[0]);
        udco::send(ctx, me, owner, REQ_TAG, 0, encode_op(&Op::Out(t)));
    }

    fn request(&self, ctx: &VCtx, me: NodeAddr, op: Op, token: u64) -> Tuple {
        let owner = match &op {
            Op::In(p, _) | Op::Rd(p, _) => self.pattern_owner(p),
            Op::Out(_) => unreachable!(),
        };
        udco::send(ctx, me, owner, REQ_TAG, token, encode_op(&op));
        // Wait for our reply (several client processes may share this
        // node's reply object; take only the message with our token).
        let pid = ctx.pid();
        let payload = ctx.wait_until(move |w, _| {
            let u = w
                .udcos
                .get_mut(me, &REP_TAG)
                .expect("join() the space before using it");
            match u.rx.iter().position(|m| m.seq == token) {
                Some(i) => Some(u.rx.remove(i).expect("indexed").payload),
                None => {
                    u.rx_waiters.register(pid);
                    None
                }
            }
        });
        decode_tuple(&payload)
    }

    /// Blocking `in`: wait for a match and remove it.
    pub fn in_(&self, ctx: &VCtx, me: NodeAddr, p: Pattern) -> Tuple {
        let token = ctx.with(|w, _| w.token());
        self.request(ctx, me, Op::In(p, me), token)
    }

    /// Blocking `rd`: wait for a match without removing it.
    pub fn rd(&self, ctx: &VCtx, me: NodeAddr, p: Pattern) -> Tuple {
        let token = ctx.with(|w, _| w.token());
        self.request(ctx, me, Op::Rd(p, me), token)
    }
}

/// The per-node tuple-space kernel: stores the partition, satisfies
/// blocked requests in arrival order.
fn kernel(ctx: &VCtx, node: NodeAddr) {
    udco::register(ctx, node, REQ_TAG, UdcoMode::Interrupt);
    let mut store: Vec<Tuple> = Vec::new();
    // Pending (pattern, requester, token, is_in) in arrival order.
    let mut pending: Vec<(Pattern, NodeAddr, u64, bool)> = Vec::new();
    loop {
        let m = udco::recv(ctx, node, REQ_TAG);
        compute_ns(ctx, node, CpuCat::User, MATCH_NS);
        match decode_op(&m.payload) {
            Op::Out(t) => {
                // Satisfy pending readers first (non-consuming), then the
                // first pending `in` (consuming); otherwise store.
                let mut consumed = false;
                let mut still_pending = Vec::new();
                for (p, who, token, is_in) in pending.drain(..) {
                    if !consumed && matches(&p, &t) {
                        udco::send(ctx, node, who, REP_TAG, token, encode_tuple(&t));
                        if is_in {
                            consumed = true;
                        }
                    } else {
                        still_pending.push((p, who, token, is_in));
                    }
                }
                pending = still_pending;
                if !consumed {
                    store.push(t);
                }
            }
            Op::In(p, who) => {
                if let Some(i) = store.iter().position(|t| matches(&p, t)) {
                    let t = store.remove(i);
                    udco::send(ctx, node, who, REP_TAG, m.seq, encode_tuple(&t));
                } else {
                    pending.push((p, who, m.seq, true));
                }
            }
            Op::Rd(p, who) => {
                if let Some(t) = store.iter().find(|t| matches(&p, t)) {
                    let t = t.clone();
                    udco::send(ctx, node, who, REP_TAG, m.seq, encode_tuple(&t));
                } else {
                    pending.push((p, who, m.seq, false));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;
    use vorx::VorxBuilder;

    fn i(v: i64) -> Val {
        Val::Int(v)
    }
    fn s(v: &str) -> Val {
        Val::Str(v.into())
    }

    #[test]
    fn matching_semantics() {
        let t = vec![s("job"), i(7)];
        assert!(matches(&vec![Pat::Eq(s("job")), Pat::Any], &t));
        assert!(matches(&vec![Pat::Eq(s("job")), Pat::Eq(i(7))], &t));
        assert!(!matches(&vec![Pat::Eq(s("job")), Pat::Eq(i(8))], &t));
        assert!(!matches(&vec![Pat::Eq(s("job"))], &t)); // arity
    }

    #[test]
    fn encoding_round_trips() {
        let t = vec![s("result"), i(-42), s("π")];
        assert_eq!(decode_tuple(&encode_tuple(&t)), t);
        let op = Op::In(vec![Pat::Eq(s("x")), Pat::Any], NodeAddr(3));
        match decode_op(&encode_op(&op)) {
            Op::In(p, who) => {
                assert_eq!(p, vec![Pat::Eq(s("x")), Pat::Any]);
                assert_eq!(who, NodeAddr(3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn out_then_in_across_nodes() {
        let mut v = VorxBuilder::single_cluster(4).build();
        let ts = TupleSpace::spawn(&v, vec![NodeAddr(0), NodeAddr(1)]);
        let ts2 = ts.clone();
        v.spawn("n2:producer", move |ctx| {
            ts2.join(&ctx, NodeAddr(2));
            ts2.out(&ctx, NodeAddr(2), vec![s("job"), i(1)]);
            ts2.out(&ctx, NodeAddr(2), vec![s("job"), i(2)]);
        });
        let ts3 = ts;
        v.spawn("n3:consumer", move |ctx| {
            ts3.join(&ctx, NodeAddr(3));
            let a = ts3.in_(&ctx, NodeAddr(3), vec![Pat::Eq(s("job")), Pat::Any]);
            let b = ts3.in_(&ctx, NodeAddr(3), vec![Pat::Eq(s("job")), Pat::Any]);
            let mut got: Vec<i64> = [a, b]
                .iter()
                .map(|t| match &t[1] {
                    Val::Int(x) => *x,
                    _ => panic!(),
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
        });
        // Kernels run forever; drive to quiescence and check only clients.
        let report = v.run();
        let stuck: Vec<_> = report
            .parked
            .iter()
            .filter(|(_, n)| !n.contains("linda-kernel"))
            .collect();
        assert!(stuck.is_empty(), "clients stuck: {stuck:?}");
    }

    #[test]
    fn rd_does_not_consume() {
        let mut v = VorxBuilder::single_cluster(3).build();
        let ts = TupleSpace::spawn(&v, vec![NodeAddr(0)]);
        let ts2 = ts;
        v.spawn("n1:app", move |ctx| {
            ts2.join(&ctx, NodeAddr(1));
            ts2.out(&ctx, NodeAddr(1), vec![s("cfg"), i(99)]);
            let r1 = ts2.rd(&ctx, NodeAddr(1), vec![Pat::Eq(s("cfg")), Pat::Any]);
            let r2 = ts2.rd(&ctx, NodeAddr(1), vec![Pat::Eq(s("cfg")), Pat::Any]);
            assert_eq!(r1, r2);
            // `in` then consumes it.
            let t = ts2.in_(&ctx, NodeAddr(1), vec![Pat::Eq(s("cfg")), Pat::Any]);
            assert_eq!(t[1], i(99));
        });
        let report = v.run();
        assert!(report
            .parked
            .iter()
            .all(|(_, n)| n.contains("linda-kernel")));
    }

    #[test]
    fn blocking_in_waits_for_future_out() {
        let mut v = VorxBuilder::single_cluster(4).build();
        let ts = TupleSpace::spawn(&v, vec![NodeAddr(0)]);
        let ts2 = ts.clone();
        v.spawn("n1:waiter", move |ctx| {
            ts2.join(&ctx, NodeAddr(1));
            let t0 = ctx.now();
            let t = ts2.in_(&ctx, NodeAddr(1), vec![Pat::Eq(s("late")), Pat::Any]);
            assert_eq!(t[1], i(5));
            assert!(ctx.now() - t0 > SimDuration::from_ms(4));
        });
        let ts3 = ts;
        v.spawn("n2:late-producer", move |ctx| {
            ts3.join(&ctx, NodeAddr(2));
            ctx.sleep(SimDuration::from_ms(5));
            ts3.out(&ctx, NodeAddr(2), vec![s("late"), i(5)]);
        });
        let report = v.run();
        assert!(report
            .parked
            .iter()
            .all(|(_, n)| n.contains("linda-kernel")));
    }

    #[test]
    fn pending_rds_and_in_satisfied_by_one_out() {
        let mut v = VorxBuilder::single_cluster(5).build();
        let ts = TupleSpace::spawn(&v, vec![NodeAddr(0)]);
        for n in [1u32, 2] {
            let ts = ts.clone();
            v.spawn(format!("n{n}:rd"), move |ctx| {
                ts.join(&ctx, NodeAddr(n));
                let t = ts.rd(&ctx, NodeAddr(n), vec![Pat::Eq(s("go"))]);
                assert_eq!(t, vec![s("go")]);
            });
        }
        let ts_in = ts.clone();
        v.spawn("n3:in", move |ctx| {
            ts_in.join(&ctx, NodeAddr(3));
            let t = ts_in.in_(&ctx, NodeAddr(3), vec![Pat::Eq(s("go"))]);
            assert_eq!(t, vec![s("go")]);
        });
        let ts_out = ts;
        v.spawn("n4:out", move |ctx| {
            ts_out.join(&ctx, NodeAddr(4));
            ctx.sleep(SimDuration::from_ms(10)); // let everyone block
            ts_out.out(&ctx, NodeAddr(4), vec![s("go")]);
        });
        let report = v.run();
        let stuck: Vec<_> = report
            .parked
            .iter()
            .filter(|(_, n)| !n.contains("linda-kernel"))
            .collect();
        assert!(
            stuck.is_empty(),
            "one out should satisfy 2 rds + 1 in: {stuck:?}"
        );
    }

    #[test]
    fn master_worker_pattern() {
        // The canonical Linda program: a master drops jobs, workers grab
        // them with `in` and return results.
        let mut v = VorxBuilder::single_cluster(6).build();
        let ts = TupleSpace::spawn(&v, vec![NodeAddr(0), NodeAddr(1)]);
        const JOBS: i64 = 12;
        for wk in 2..5u32 {
            let ts = ts.clone();
            v.spawn(format!("n{wk}:worker"), move |ctx| {
                ts.join(&ctx, NodeAddr(wk));
                loop {
                    let t = ts.in_(&ctx, NodeAddr(wk), vec![Pat::Eq(s("job")), Pat::Any]);
                    let Val::Int(x) = t[1] else { panic!() };
                    if x < 0 {
                        break; // poison pill
                    }
                    vorx::api::user_compute(&ctx, NodeAddr(wk), SimDuration::from_ms(1));
                    ts.out(&ctx, NodeAddr(wk), vec![s("done"), i(x * x)]);
                }
            });
        }
        let ts_m = ts;
        v.spawn("n5:master", move |ctx| {
            ts_m.join(&ctx, NodeAddr(5));
            for x in 0..JOBS {
                ts_m.out(&ctx, NodeAddr(5), vec![s("job"), i(x)]);
            }
            let mut sum = 0;
            for _ in 0..JOBS {
                let t = ts_m.in_(&ctx, NodeAddr(5), vec![Pat::Eq(s("done")), Pat::Any]);
                let Val::Int(x) = t[1] else { panic!() };
                sum += x;
            }
            assert_eq!(sum, (0..JOBS).map(|x| x * x).sum::<i64>());
            for _ in 0..3 {
                ts_m.out(&ctx, NodeAddr(5), vec![s("job"), i(-1)]); // poison
            }
        });
        let report = v.run();
        let stuck: Vec<_> = report
            .parked
            .iter()
            .filter(|(_, n)| !n.contains("linda-kernel"))
            .collect();
        assert!(stuck.is_empty(), "{stuck:?}");
    }
}
