//! Host workstations, stub processes, and program download (§3.3).
//!
//! "Each process running on a processing node has a stub process running on
//! the host. The stub is responsible for initially downloading the process
//! and for providing a UNIX operating system environment while the program
//! is running."
//!
//! Two execution-environment designs from the paper are reproduced:
//!
//! * **Per-process stubs** — perfect environment replication, but starting
//!   an application pays one stub creation + one download per process
//!   ("it takes 12 seconds to download and initialize a process on each of
//!   70 processors").
//! * **Shared stub + tree download** — one stub, one download stream fanned
//!   out two-ways by the nodes themselves ("it takes only two seconds to
//!   download and start 70 processes") — at the cost of serialized blocking
//!   system calls and a shared 32-descriptor table.
//!
//! A stub is a UNIX process on its host, so it dies with it: every stub is
//! a row of [`World::stubs`] keyed by its host's node, and which stub serves
//! a node a row of [`World::stub_of`], so a host crash wipes both. A
//! [`syscall`] from a node whose home host crashed then fails
//! [`crate::VorxError::NoStub`] until a stub is made for it again, and a
//! [`syscall_on`] to a down host fails [`crate::VorxError::HostDown`].

use std::collections::VecDeque;

use bytes::{BufMut, Bytes, BytesMut};
use desim::SimDuration;
use hpcnet::{Frame, NodeAddr, Payload};

use crate::api;
use crate::calib::{Calibration, STUB_FD_LIMIT};
use crate::channel::{self, ChannelHandle};
use crate::cpu::CpuCat;
use crate::kernel;
use crate::proto;
use crate::world::{CallState, VCtx, VSched, World};

/// A forwarded UNIX system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallOp {
    /// `open(2)` — consumes a descriptor in the stub.
    OpenFile,
    /// `close(2)` — frees a descriptor.
    CloseFile,
    /// `write(2)` of `bytes` to a file.
    WriteFile {
        /// Bytes written.
        bytes: u32,
    },
    /// A blocking call (e.g. a keyboard read) that occupies the stub for
    /// the given duration without consuming host CPU.
    Blocking {
        /// How long the call blocks, ns.
        dur_ns: u64,
    },
}

/// Result of a forwarded system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallRet {
    /// Success.
    Ok,
    /// Success, returning a file descriptor.
    Fd(u32),
    /// The stub hit the SunOS 32-descriptor limit (`EMFILE`).
    TooManyFiles,
    /// The host had no stub able to serve the request (`EIO`) — e.g. it
    /// crashed and restarted, losing its stubs, while the request was on
    /// its way.
    Eio,
}

fn pack_op(op: SyscallOp) -> Payload {
    let mut b = BytesMut::with_capacity(9);
    match op {
        SyscallOp::OpenFile => b.put_u8(0),
        SyscallOp::CloseFile => b.put_u8(1),
        SyscallOp::WriteFile { bytes } => {
            b.put_u8(2);
            b.put_u32(bytes);
        }
        SyscallOp::Blocking { dur_ns } => {
            b.put_u8(3);
            b.put_u64(dur_ns);
        }
    }
    Payload::Data(b.freeze())
}

fn parse_op(p: &Payload) -> SyscallOp {
    let b = p.bytes().expect("syscall request carries data");
    match b[0] {
        0 => SyscallOp::OpenFile,
        1 => SyscallOp::CloseFile,
        2 => SyscallOp::WriteFile {
            bytes: u32::from_be_bytes([b[1], b[2], b[3], b[4]]),
        },
        3 => SyscallOp::Blocking {
            dur_ns: u64::from_be_bytes([b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8]]),
        },
        x => panic!("unknown syscall op {x}"),
    }
}

fn pack_ret(r: SyscallRet) -> Payload {
    let mut b = BytesMut::with_capacity(5);
    match r {
        SyscallRet::Ok => b.put_u8(0),
        SyscallRet::Fd(fd) => {
            b.put_u8(1);
            b.put_u32(fd);
        }
        SyscallRet::TooManyFiles => b.put_u8(2),
        SyscallRet::Eio => b.put_u8(3),
    }
    Payload::Data(b.freeze())
}

fn parse_ret(p: &Payload) -> SyscallRet {
    let b = p.bytes().expect("syscall reply carries data");
    match b[0] {
        0 => SyscallRet::Ok,
        1 => SyscallRet::Fd(u32::from_be_bytes([b[1], b[2], b[3], b[4]])),
        2 => SyscallRet::TooManyFiles,
        3 => SyscallRet::Eio,
        x => panic!("unknown syscall ret {x}"),
    }
}

/// The key of a host's shared service stub in [`World::stubs`], which
/// serves the calls [`syscall_on`] directs there; stubs [`create_stub`]
/// makes count up from 0.
pub const SERVICE_STUB: u32 = u32::MAX;

/// One stub process on a host: a row of [`World::stubs`], keyed by its
/// host's node and its id, so it dies with the host.
#[derive(Debug)]
pub struct Stub {
    /// Open descriptors (bounded by the SunOS limit).
    pub fds_open: usize,
    /// Total descriptors ever handed out (fd numbering).
    pub next_fd: u32,
    /// Queued syscall requests `(from, token, op)`.
    pub queue: VecDeque<(NodeAddr, u64, SyscallOp)>,
    /// The token of the request being serviced (possibly blocked).
    pub serving: Option<u64>,
    /// Syscalls served (statistics).
    pub served: u64,
}

impl Stub {
    fn new() -> Self {
        Stub {
            fds_open: 0,
            next_fd: 3, // 0..2 are stdio
            queue: VecDeque::new(),
            serving: None,
            served: 0,
        }
    }
}

/// Host `host_id`'s node: host `h` is node `h` ([`crate::VorxBuilder::hosts`]).
fn host_node(w: &World, host_id: usize) -> NodeAddr {
    assert!(host_id < w.n_hosts, "no host {host_id}");
    NodeAddr(host_id as u32)
}

/// Create a stub on `host_id` serving `serves`, charging the host CPU for
/// the fork/exec. Returns the stub id. Process-context API.
///
/// Fails with [`crate::VorxError::HostDown`] when the host is down at issue
/// time, or down once the fork/exec is charged or crashed and restarted
/// while it was: a down host holds no rows, and a restarted one none its
/// previous boot asked for.
pub fn create_stub(ctx: &VCtx, host_id: usize, serves: Vec<NodeAddr>) -> crate::VorxResult<u32> {
    let (host, boot, cost) = ctx.with(move |w, _| {
        let host = host_node(w, host_id);
        let n = w.node(host);
        if !n.up {
            return Err(crate::VorxError::HostDown);
        }
        Ok((host, n.incarnation, w.calib.stub_create_ns))
    })?;
    api::compute_ns(ctx, host, CpuCat::System, cost);
    ctx.with(move |w, _| {
        let n = w.node(host);
        if !n.up || n.incarnation != boot {
            return Err(crate::VorxError::HostDown);
        }
        w.node_mut(host);
        // Rows of a host leave only all together, with a crash: the count
        // is a fresh id.
        let id = w.stubs.count(host) as u32;
        for n in serves {
            w.stub_of.insert(host, n.0, id);
        }
        w.stubs.insert(host, id, Stub::new());
        Ok(id)
    })
}

/// Which host serves `node`'s syscalls (set when its stub was created, and
/// gone when that host crashed).
pub fn host_of(w: &World, node: NodeAddr) -> Option<usize> {
    (0..w.n_hosts).find(|&h| w.stub_of.contains(NodeAddr(h as u32), &node.0))
}

/// Issue a forwarded system call from a node process and block for the
/// result (§3.3's execution environment).
///
/// Fails with [`crate::VorxError::NoStub`] when no host serves `node` —
/// also once its home host crashed, since its stub died with the host —,
/// [`crate::VorxError::HostDown`] when the serving host crashes while the
/// call is outstanding (at the crash's detection sweep, `crash_detect_ns`
/// later), and [`crate::VorxError::NodeDown`] when the caller's own node
/// is down at issue time or crashes while the call is outstanding.
pub fn syscall(ctx: &VCtx, node: NodeAddr, op: SyscallOp) -> crate::VorxResult<SyscallRet> {
    forward(ctx, node, None, op)
}

/// Forward `op` from `node` to host `directed`'s shared service stub, or
/// with `None` to the node's home stub, and block for the result.
fn forward(
    ctx: &VCtx,
    node: NodeAddr,
    directed: Option<usize>,
    op: SyscallOp,
) -> crate::VorxResult<SyscallRet> {
    let pid = ctx.pid();
    let token = ctx.with(move |w, s| {
        if !w.node(node).up {
            return Err(crate::VorxError::NodeDown);
        }
        let host_id = directed
            .or_else(|| host_of(w, node))
            .ok_or(crate::VorxError::NoStub)?;
        let host = host_node(w, host_id);
        if !w.node(host).up {
            return Err(crate::VorxError::HostDown);
        }
        if directed.is_some() {
            ensure_service_stub(w, host, node);
        }
        let token = w.token();
        let state = CallState::Syscall { host, ret: None };
        w.issue(node, token, pid, state);
        let f = Frame::unicast(node, host, proto::KIND_SYSCALL_REQ, token, pack_op(op));
        kernel::send_frame(w, s, f);
        Ok(token)
    })?;
    ctx.wait_until(move |w, _| match w.poll_call(node, token)? {
        Some(CallState::Syscall { ret: Some(r), .. }) => Some(r),
        // Our node crashed while the call was outstanding: the call was
        // wiped and the crash cleanup woke us.
        _ => Some(Err(crate::VorxError::NodeDown)),
    })
}

/// Kernel handler: a syscall request arrived at a host.
pub fn on_syscall_req(w: &mut World, s: &mut VSched, host: NodeAddr, f: Frame) {
    let Some(&stub_id) = w.stub_of.get(host, &f.src.0) else {
        // No stub serves this node here (its mapping may have died with a
        // restart): answer EIO rather than dropping the request or
        // panicking — the UNIX environment's way of saying "I/O error".
        let rep = Frame::unicast(
            host,
            f.src,
            proto::KIND_SYSCALL_REP,
            f.seq,
            pack_ret(SyscallRet::Eio),
        );
        kernel::send_frame(w, s, rep);
        return;
    };
    let op = parse_op(&f.payload);
    let stub = w.stubs.get_mut(host, &stub_id).expect("a mapped stub");
    stub.queue.push_back((f.src, f.seq, op));
    kick_stub(w, s, host, stub_id);
}

/// Start servicing the stub's queue if it is idle. Each stub serves one
/// request at a time: a blocking call from one process stalls every other
/// process sharing that stub (the §3.3 pathology).
fn kick_stub(w: &mut World, s: &mut VSched, host: NodeAddr, stub_id: u32) {
    let stub = w.stubs.get_mut(host, &stub_id).expect("a live stub");
    if stub.serving.is_some() {
        return;
    }
    let Some((from, token, op)) = stub.queue.pop_front() else {
        return;
    };
    stub.serving = Some(token);
    let c = w.calib;
    let cpu_cost = c.host_syscall_ns
        + match op {
            SyscallOp::WriteFile { bytes } => c.host_copy_ns_per_byte * u64::from(bytes),
            _ => 0,
        };
    let now = s.now();
    let cpu_done = w.charge(now, host, CpuCat::System, SimDuration::from_ns(cpu_cost));
    let extra = match op {
        SyscallOp::Blocking { dur_ns } => SimDuration::from_ns(dur_ns),
        _ => SimDuration::ZERO,
    };
    let finish_at = cpu_done + extra;
    s.schedule_in(finish_at - now, move |w: &mut World, s| {
        finish_syscall(w, s, host, stub_id, from, token, op);
    });
}

fn finish_syscall(
    w: &mut World,
    s: &mut VSched,
    host: NodeAddr,
    stub_id: u32,
    from: NodeAddr,
    token: u64,
    op: SyscallOp,
) {
    // A stub a crash wiped, or one made again under its id since, is not
    // serving this call: a dead host answers nothing, and its callers fail
    // at the crash's detection sweep.
    let serving = |stub: &&mut Stub| stub.serving == Some(token);
    let Some(stub) = w.stubs.get_mut(host, &stub_id).filter(serving) else {
        return;
    };
    stub.served += 1;
    let ret = match op {
        SyscallOp::OpenFile => {
            if stub.fds_open >= STUB_FD_LIMIT {
                SyscallRet::TooManyFiles
            } else {
                stub.fds_open += 1;
                let fd = stub.next_fd;
                stub.next_fd += 1;
                SyscallRet::Fd(fd)
            }
        }
        SyscallOp::CloseFile => {
            stub.fds_open = stub.fds_open.saturating_sub(1);
            SyscallRet::Ok
        }
        SyscallOp::WriteFile { .. } | SyscallOp::Blocking { .. } => SyscallRet::Ok,
    };
    stub.serving = None;
    let rep = Frame::unicast(host, from, proto::KIND_SYSCALL_REP, token, pack_ret(ret));
    kernel::send_frame(w, s, rep);
    kick_stub(w, s, host, stub_id);
}

/// Kernel handler: a syscall reply arrived back at the node.
pub fn on_syscall_rep(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    answer_syscall(w, s, node, f.seq, Ok(parse_ret(&f.payload)));
}

/// Answer `node`'s syscall `token` with `ret` unless it has its answer. A
/// call a crash wiped has no row and gets none.
pub(crate) fn answer_syscall(
    w: &mut World,
    s: &mut VSched,
    node: NodeAddr,
    token: u64,
    ret: crate::VorxResult<SyscallRet>,
) {
    w.answer(s, node, token, |c| {
        if let CallState::Syscall { ret: r @ None, .. } = c {
            *r = Some(ret);
        }
    });
}

// ---------------------------------------------------------------------------
// Program download (§3.3)
// ---------------------------------------------------------------------------

/// Chunk size for program-text transfer: one hardware frame.
pub const DL_CHUNK: u32 = 1024;

fn n_chunks(text_bytes: u32) -> u32 {
    text_bytes.div_ceil(DL_CHUNK)
}

/// Node-side boot loader: receive `text_bytes` of program text from
/// `parent_chan` and relay each chunk to `children` channels as it arrives
/// (store-and-forward tree download when `children` is non-empty).
pub fn boot_loader(
    ctx: &VCtx,
    node: NodeAddr,
    parent_chan: &str,
    children: Vec<String>,
    text_bytes: u32,
) {
    let parent = channel::open(ctx, node, parent_chan);
    let kids: Vec<ChannelHandle> = children
        .iter()
        .map(|name| channel::open(ctx, node, name))
        .collect();
    for _ in 0..n_chunks(text_bytes) {
        let chunk = parent.read(ctx).expect("download stream closed early");
        for k in &kids {
            // `Payload` is a refcounted slice: every child write shares the
            // received chunk's bytes, so a tree fan-out never re-copies the
            // program text at the relay node.
            k.write(ctx, chunk.clone())
                .expect("child loader closed early");
        }
    }
}

/// Download `text_bytes` of program text to every node in `targets` using
/// one stub per process (Meglos-style / the faithful-environment mode).
/// Runs in a host process; returns when every node has its text.
///
/// The caller must spawn a [`boot_loader`] on each target with channel name
/// `dl-<node>` and no children.
pub fn download_per_process(ctx: &VCtx, host_id: usize, targets: &[NodeAddr], text_bytes: u32) {
    let (host, copy_ns_per_byte) =
        ctx.with(move |w, _| (host_node(w, host_id), w.calib.host_copy_ns_per_byte));
    for &t in targets {
        // One stub per process: fork/exec plus its own copy of the text.
        create_stub(ctx, host_id, vec![t]).expect("the downloading host is up");
        api::compute(
            ctx,
            host,
            CpuCat::System,
            Calibration::per_byte(copy_ns_per_byte, text_bytes),
        );
        let chan = channel::open(ctx, host, &format!("dl-{}", t.0));
        for _ in 0..n_chunks(text_bytes) {
            chan.write(
                ctx,
                Payload::Data(Bytes::from(vec![0u8; DL_CHUNK as usize])),
            )
            .expect("boot loader closed early");
        }
    }
}

/// Tree-download channel names and children for `targets[idx]`, fanout 2:
/// node `i` feeds nodes `2i+1` and `2i+2`.
pub fn tree_children(targets: &[NodeAddr], idx: usize) -> Vec<String> {
    [2 * idx + 1, 2 * idx + 2]
        .into_iter()
        .filter(|&k| k < targets.len())
        .map(|k| format!("dl-{}", targets[k].0))
        .collect()
}

/// Download `text_bytes` to every node in `targets` through the §3.3 tree
/// scheme: one shared stub, one stream to `targets[0]`, nodes relay with
/// fanout 2. The caller must spawn [`boot_loader`]s with
/// [`tree_children`]-derived wiring.
pub fn download_tree(ctx: &VCtx, host_id: usize, targets: &[NodeAddr], text_bytes: u32) {
    assert!(!targets.is_empty());
    let (host, copy_ns_per_byte) =
        ctx.with(move |w, _| (host_node(w, host_id), w.calib.host_copy_ns_per_byte));
    // One stub serves every process of the application.
    create_stub(ctx, host_id, targets.to_vec()).expect("the downloading host is up");
    api::compute(
        ctx,
        host,
        CpuCat::System,
        Calibration::per_byte(copy_ns_per_byte, text_bytes),
    );
    let chan = channel::open(ctx, host, &format!("dl-{}", targets[0].0));
    for _ in 0..n_chunks(text_bytes) {
        chan.write(
            ctx,
            Payload::Data(Bytes::from(vec![0u8; DL_CHUNK as usize])),
        )
        .expect("tree root loader closed early");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::VorxBuilder;

    #[test]
    fn syscall_round_trip_and_fd_limit() {
        let mut v = VorxBuilder::single_cluster(3).hosts(1).build();
        v.spawn("setup", |ctx| {
            create_stub(&ctx, 0, vec![NodeAddr(1)]).unwrap();
            ctx.with(|_, s| {
                s.spawn("n1:app", |ctx: VCtx| {
                    let mut fds = Vec::new();
                    loop {
                        match syscall(&ctx, NodeAddr(1), SyscallOp::OpenFile).unwrap() {
                            SyscallRet::Fd(fd) => fds.push(fd),
                            SyscallRet::TooManyFiles => break,
                            r => panic!("unexpected {r:?}"),
                        }
                    }
                    // SunOS limit: 32 per stub.
                    assert_eq!(fds.len(), 32);
                    // Closing frees a slot.
                    assert_eq!(
                        syscall(&ctx, NodeAddr(1), SyscallOp::CloseFile),
                        Ok(SyscallRet::Ok)
                    );
                    assert!(matches!(
                        syscall(&ctx, NodeAddr(1), SyscallOp::OpenFile),
                        Ok(SyscallRet::Fd(_))
                    ));
                });
            });
        });
        v.run_all();
    }

    #[test]
    fn shared_stub_serializes_blocking_syscalls() {
        // Two processes share one stub; process A issues a long blocking
        // read, so B's instant syscall must wait behind it.
        let mut v = VorxBuilder::single_cluster(4).hosts(1).build();
        v.spawn("setup", |ctx| {
            create_stub(&ctx, 0, vec![NodeAddr(1), NodeAddr(2)]).unwrap();
            ctx.with(|_, s| {
                s.spawn("n1:blocker", |ctx: VCtx| {
                    syscall(
                        &ctx,
                        NodeAddr(1),
                        SyscallOp::Blocking {
                            dur_ns: 500_000_000,
                        },
                    )
                    .unwrap();
                });
                s.spawn("n2:victim", |ctx: VCtx| {
                    ctx.sleep(SimDuration::from_ms(10)); // arrive second
                    let t0 = ctx.now();
                    syscall(&ctx, NodeAddr(2), SyscallOp::OpenFile).unwrap();
                    let waited = ctx.now() - t0;
                    assert!(
                        waited > SimDuration::from_ms(400),
                        "victim should stall behind the blocking call, waited {waited}"
                    );
                });
            });
        });
        v.run_all();
    }

    #[test]
    fn per_process_stubs_isolate_blocking_syscalls() {
        let mut v = VorxBuilder::single_cluster(4).hosts(1).build();
        v.spawn("setup", |ctx| {
            create_stub(&ctx, 0, vec![NodeAddr(1)]).unwrap();
            create_stub(&ctx, 0, vec![NodeAddr(2)]).unwrap();
            ctx.with(|_, s| {
                s.spawn("n1:blocker", |ctx: VCtx| {
                    syscall(
                        &ctx,
                        NodeAddr(1),
                        SyscallOp::Blocking {
                            dur_ns: 500_000_000,
                        },
                    )
                    .unwrap();
                });
                s.spawn("n2:free", |ctx: VCtx| {
                    ctx.sleep(SimDuration::from_ms(10));
                    let t0 = ctx.now();
                    syscall(&ctx, NodeAddr(2), SyscallOp::OpenFile).unwrap();
                    let waited = ctx.now() - t0;
                    assert!(
                        waited < SimDuration::from_ms(50),
                        "own stub should answer quickly, waited {waited}"
                    );
                });
            });
        });
        v.run_all();
    }

    #[test]
    fn per_process_fd_tables_are_independent() {
        let mut v = VorxBuilder::single_cluster(4).hosts(1).build();
        v.spawn("setup", |ctx| {
            create_stub(&ctx, 0, vec![NodeAddr(1)]).unwrap();
            create_stub(&ctx, 0, vec![NodeAddr(2)]).unwrap();
            for node in [1u32, 2] {
                ctx.with(move |_, s| {
                    s.spawn(format!("n{node}:opener"), move |ctx: VCtx| {
                        for _ in 0..32 {
                            assert!(matches!(
                                syscall(&ctx, NodeAddr(node), SyscallOp::OpenFile),
                                Ok(SyscallRet::Fd(_))
                            ));
                        }
                    });
                });
            }
        });
        v.run_all();
    }

    #[test]
    fn tree_download_reaches_every_node() {
        let mut v = VorxBuilder::single_cluster(8).hosts(1).build();
        let targets: Vec<NodeAddr> = (1..8).map(NodeAddr).collect();
        let text = 4 * DL_CHUNK;
        for (i, &t) in targets.iter().enumerate() {
            let kids = tree_children(&targets, i);
            v.spawn(format!("n{}:loader", t.0), move |ctx| {
                boot_loader(&ctx, t, &format!("dl-{}", t.0), kids, text);
            });
        }
        let tgt = targets;
        v.spawn("host:dl", move |ctx| {
            download_tree(&ctx, 0, &tgt, text);
        });
        v.run_all();
        // Every loader finished means every node received all chunks.
    }

    #[test]
    fn op_encoding_round_trips() {
        for op in [
            SyscallOp::OpenFile,
            SyscallOp::CloseFile,
            SyscallOp::WriteFile { bytes: 4096 },
            SyscallOp::Blocking { dur_ns: 12345 },
        ] {
            assert_eq!(parse_op(&pack_op(op)), op);
        }
        for r in [SyscallRet::Ok, SyscallRet::Fd(7), SyscallRet::TooManyFiles] {
            assert_eq!(parse_ret(&pack_ret(r)), r);
        }
    }
}

// ---------------------------------------------------------------------------
// Decentralized system calls (§3.3, the paper's in-progress extension):
// "It uses a decentralized scheme that distributes the overhead of system
// calls by allowing a process to direct system calls to any of the host
// workstations."
// ---------------------------------------------------------------------------

/// Ensure `host` runs its service stub, made once per host life (no fork
/// cost charged), and maps `node` to a stub. The service stub fills in
/// only a node with no home stub here: `stub_of` keeps the node's *home*
/// stub for the classic scheme, and directed calls name the host
/// explicitly, so the reply path needs no table change.
fn ensure_service_stub(w: &mut World, host: NodeAddr, node: NodeAddr) {
    w.node_mut(host);
    w.stubs.get_or_insert_with(host, SERVICE_STUB, Stub::new);
    w.stub_of.get_or_insert_with(host, node.0, || SERVICE_STUB);
}

/// Issue a system call *directed at a specific host* (the decentralized
/// scheme). The host's shared service stub handles it; no per-process stub
/// is required on that host, and a restarted host makes its service stub
/// again. Fails with [`crate::VorxError::HostDown`] when the host is down
/// at issue time or crashes while the call is outstanding (at the crash's
/// detection sweep), and with [`crate::VorxError::NodeDown`] like
/// [`syscall`].
pub fn syscall_on(
    ctx: &VCtx,
    node: NodeAddr,
    host_id: usize,
    op: SyscallOp,
) -> crate::VorxResult<SyscallRet> {
    forward(ctx, node, Some(host_id), op)
}

/// Issue a system call load-balanced across every host workstation:
/// deterministic spread by node address and a per-call counter. Fails like
/// [`syscall`].
pub fn syscall_any(
    ctx: &VCtx,
    node: NodeAddr,
    call_no: u64,
    op: SyscallOp,
) -> crate::VorxResult<SyscallRet> {
    let n_hosts = ctx.with(|w, _| w.n_hosts);
    assert!(n_hosts > 0, "no host workstations");
    let host_id = (u64::from(node.0) + call_no) as usize % n_hosts;
    syscall_on(ctx, node, host_id, op)
}

#[cfg(test)]
mod decentral_tests {
    use super::*;
    use crate::world::VorxBuilder;
    use desim::SimTime;

    fn storm(n_hosts: usize) -> (desim::SimTime, Vec<u64>) {
        // 6 nodes each issue 8 write syscalls as fast as they can, directed
        // round-robin across the hosts (the decentralized scheme).
        let mut v = VorxBuilder::hypercube(3, 4).hosts(n_hosts).build();
        for nd in (n_hosts as u32)..(n_hosts as u32 + 6) {
            v.spawn(format!("n{nd}:storm"), move |ctx| {
                let node = NodeAddr(nd);
                for call in 0..8u64 {
                    let op = SyscallOp::WriteFile { bytes: 2048 };
                    let r = syscall_any(&ctx, node, call, op);
                    assert_eq!(r, Ok(SyscallRet::Ok));
                }
            });
        }
        let end = v.run_all();
        let served: Vec<u64> = {
            let w = v.world();
            (0..n_hosts as u32)
                .map(|h| w.stubs.of(NodeAddr(h)).map(|(_, s)| s.served).sum())
                .collect()
        };
        (end, served)
    }

    #[test]
    fn directed_calls_spread_host_load() {
        let (_, served) = storm(3);
        let busy_hosts = served.iter().filter(|s| **s > 0).count();
        assert!(busy_hosts >= 2, "load should spread: {served:?}");
        assert_eq!(served.iter().sum::<u64>(), 48);
    }

    #[test]
    fn decentralized_beats_single_host_under_load() {
        let (central, _) = storm_with_home(1);
        let (decent, _) = storm(3);
        assert!(
            decent < central,
            "3-host decentralized {decent} should beat 1-host {central}"
        );
    }

    fn storm_with_home(n_hosts: usize) -> (SimTime, Vec<u64>) {
        let mut v = VorxBuilder::hypercube(3, 4).hosts(n_hosts).build();
        v.spawn("setup", move |ctx| {
            for nd in (n_hosts as u32)..(n_hosts as u32 + 6) {
                create_stub(&ctx, 0, vec![NodeAddr(nd)]).unwrap();
            }
            for nd in (n_hosts as u32)..(n_hosts as u32 + 6) {
                ctx.with(move |_, s| {
                    s.spawn(format!("n{nd}:storm"), move |ctx: VCtx| {
                        for _ in 0..8u64 {
                            let r =
                                syscall(&ctx, NodeAddr(nd), SyscallOp::WriteFile { bytes: 2048 });
                            assert_eq!(r, Ok(SyscallRet::Ok));
                        }
                    });
                });
            }
        });
        let end = v.run_all();
        let served: Vec<u64> = {
            let w = v.world();
            (0..n_hosts as u32)
                .map(|h| w.stubs.of(NodeAddr(h)).map(|(_, s)| s.served).sum())
                .collect()
        };
        (end, served)
    }
}
