//! Wire-protocol constants and encoding helpers.
//!
//! The HPC hardware carries an opaque `kind` discriminator and a 64-bit
//! `seq` tag in every frame envelope; VORX uses them to demultiplex received
//! frames to the channel machinery, the object manager, the host syscall
//! service, or user-defined communications objects.

use bytes::{BufMut, Bytes};
use hpcnet::{NodeAddr, Payload, MAX_PAYLOAD};

/// A control payload under construction, on the stack: at most `N` bytes,
/// copied into a [`Payload`] once they are all there — one allocation, none
/// when the payload fits a `Bytes` handle.
struct StackBuf<const N: usize> {
    buf: [u8; N],
    len: usize,
}

/// Room for the longest payload a frame carries: an object name with its
/// fixed fields in front.
type NamedBuf = StackBuf<{ MAX_PAYLOAD as usize }>;

impl<const N: usize> StackBuf<N> {
    fn new() -> Self {
        StackBuf {
            buf: [0; N],
            len: 0,
        }
    }

    fn finish(&self) -> Payload {
        Payload::Data(Bytes::copy_from_slice(&self.buf[..self.len]))
    }
}

impl<const N: usize> BufMut for StackBuf<N> {
    /// # Panics
    /// Panics past `N` bytes: the payload would not fit its frame.
    fn put_slice(&mut self, src: &[u8]) {
        self.buf[self.len..][..src.len()].copy_from_slice(src);
        self.len += src.len();
    }
}

/// Channel data fragment; more fragments of the same write follow.
pub(crate) const KIND_CHAN_DATA: u16 = 1;
/// Final (or only) fragment of a channel write.
pub(crate) const KIND_CHAN_DATA_LAST: u16 = 2;
/// Kernel-level channel acknowledgement (stop-and-wait).
pub(crate) const KIND_CHAN_ACK: u16 = 3;
/// Channel-open request to an object manager.
pub(crate) const KIND_OPEN_REQ: u16 = 4;
/// Channel-open reply from an object manager.
pub(crate) const KIND_OPEN_REP: u16 = 5;
/// Forwarded UNIX system call from a node process to its host stub.
pub(crate) const KIND_SYSCALL_REQ: u16 = 6;
/// System-call result from the stub back to the node.
pub(crate) const KIND_SYSCALL_REP: u16 = 7;
/// A `KIND_SYSCALL_REQ` directed at a host's service stub (`host::syscall_on`).
pub(crate) const KIND_SYSCALL_ON_REQ: u16 = 8;
/// First user-defined communications object tag. Frame kind for UDCO tag
/// `t` is `KIND_UDCO_BASE + t`.
pub(crate) const KIND_UDCO_BASE: u16 = 0x100;

/// Pack a channel id and fragment number into a frame `seq`.
pub fn chan_seq(chan: u32, frag: u32) -> u64 {
    (u64::from(chan) << 32) | u64::from(frag)
}

/// Extract the channel id from a frame `seq`.
pub(crate) fn seq_chan(seq: u64) -> u32 {
    (seq >> 32) as u32
}

/// Extract the fragment number from a frame `seq`.
pub(crate) fn seq_frag(seq: u64) -> u32 {
    seq as u32
}

/// Kind of object being rendezvoused through the object manager. Ordered
/// `Channel` before `Udco`, as their wire bytes are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjKind {
    /// An ordinary channel.
    Channel,
    /// A user-defined communications object (§4.1: UDCOs "use the same
    /// rendezvous mechanism as channels").
    Udco,
}

impl ObjKind {
    fn to_byte(self) -> u8 {
        match self {
            ObjKind::Channel => 0,
            ObjKind::Udco => 1,
        }
    }

    fn from_byte(b: u8) -> Self {
        match b {
            0 => ObjKind::Channel,
            1 => ObjKind::Udco,
            x => panic!("unknown object kind {x}"),
        }
    }
}

/// Encode an open-request payload (object kind + name).
pub(crate) fn pack_open_req_kind(kind: ObjKind, name: &str) -> Payload {
    let mut b = NamedBuf::new();
    b.put_u8(kind.to_byte());
    b.put_slice(name.as_bytes());
    b.finish()
}

/// Encode a channel open-request payload.
pub(crate) fn pack_open_req(name: &str) -> Payload {
    pack_open_req_kind(ObjKind::Channel, name)
}

/// The object name that ends a control payload, borrowed from it.
fn name_in(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("object names are UTF-8")
}

/// Decode an open-request payload into `(kind, name)`.
pub(crate) fn parse_open_req_kind(p: &Payload) -> (ObjKind, &str) {
    let b = p.bytes().expect("open request must carry the name");
    (ObjKind::from_byte(b[0]), name_in(&b[1..]))
}

/// Decode an open-request payload, ignoring the object kind.
pub(crate) fn parse_open_req(p: &Payload) -> &str {
    parse_open_req_kind(p).1
}

/// Encode an open-reply payload: object kind + assigned id + peer address +
/// the name (kept so the receiving kernel can label the end for `cdb`).
/// Peer addresses are 32-bit on the wire (million-endpoint worlds outgrew
/// u16 node ids).
pub(crate) fn pack_open_rep_kind(kind: ObjKind, id: u32, peer: NodeAddr, name: &str) -> Payload {
    let mut b = NamedBuf::new();
    b.put_u8(kind.to_byte());
    b.put_u32(id);
    b.put_u32(peer.0);
    b.put_slice(name.as_bytes());
    b.finish()
}

/// Decode an open-reply payload into `(kind, id, peer, name)`.
pub(crate) fn parse_open_rep_kind(p: &Payload) -> (ObjKind, u32, NodeAddr, &str) {
    let b = p.bytes().expect("open reply carries data");
    assert!(b.len() >= 9, "short open reply");
    let kind = ObjKind::from_byte(b[0]);
    let id = u32::from_be_bytes([b[1], b[2], b[3], b[4]]);
    let peer = NodeAddr(u32::from_be_bytes([b[5], b[6], b[7], b[8]]));
    (kind, id, peer, name_in(&b[9..]))
}

/// Decode a channel open-reply payload.
pub(crate) fn parse_open_rep(p: &Payload) -> (u32, NodeAddr, &str) {
    let (kind, id, peer, name) = parse_open_rep_kind(p);
    assert_eq!(kind, ObjKind::Channel, "expected a channel reply");
    (id, peer, name)
}

/// Flow-controlled multicast data (§4.2).
pub(crate) const KIND_MCAST_DATA: u16 = 9;
/// Multicast per-destination acknowledgement.
pub(crate) const KIND_MCAST_ACK: u16 = 10;

/// Channel close notification (§4: channels are dynamically destroyed).
pub(crate) const KIND_CHAN_CLOSE: u16 = 11;
/// Server listen registration at the object manager (§4 name reuse).
pub(crate) const KIND_SERVE_REQ: u16 = 12;
/// Manager acknowledgement of a listen registration.
pub(crate) const KIND_SERVE_ACK: u16 = 13;
/// Manager notification to a server: a client connected (new channel).
pub(crate) const KIND_SERVE_CONN: u16 = 14;

/// Final fragment of a multicast write (non-final fragments use
/// `KIND_MCAST_DATA`).
pub(crate) const KIND_MCAST_DATA_LAST: u16 = 15;

/// Manager acknowledgement that an open request has been queued; the
/// requester stops retransmitting the request and parks until the reply.
pub(crate) const KIND_OPEN_QUEUED: u16 = 16;
/// Receiver-side "side buffers full" notification: the fragment was
/// deferred, not lost, so the sender must not count ack silence against its
/// retry budget.
pub(crate) const KIND_CHAN_BUSY: u16 = 17;
/// Acknowledgement for a reliably-delivered control frame (open replies,
/// connect notifications, closes). `seq` echoes the control frame's key.
pub(crate) const KIND_CTL_ACK: u16 = 18;

/// Windowed-mode channel acknowledgement (`chan_window > 1` only): the
/// `seq`'s fragment field carries the cumulative ack (highest fragment
/// received in order), and the payload carries a selective-ack bitmap plus a
/// credit grant. Stop-and-wait (`chan_window = 1`) never emits or consumes
/// this kind, which is what keeps W=1 traces bit-identical to the pre-window
/// protocol.
pub const KIND_CHAN_WACK: u16 = 19;

/// Encode a windowed ack payload: selective-ack bitmap (bit `i` set means
/// fragment `cum_ack + 1 + i` is already held out of order) and the credit
/// grant (receiver buffer slots available beyond `cum_ack`, in fragments).
pub fn pack_wack(sack: u32, credit: u32) -> Payload {
    let mut b = StackBuf::<8>::new();
    b.put_u32(sack);
    b.put_u32(credit);
    b.finish()
}

/// Decode a windowed ack payload into `(sack bitmap, credit)`.
pub(crate) fn parse_wack(p: &Payload) -> (u32, u32) {
    let b = p.bytes().expect("windowed ack carries data");
    assert!(b.len() >= 8, "short windowed ack");
    (
        u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
        u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
    )
}

/// Membership heartbeat beacon: sent over the reliable control plane when a
/// sender exhausts its retry budget against a peer that is still believed
/// alive. The `KIND_CTL_ACK` it provokes is the liveness evidence; beacon
/// retry exhaustion with the peer up means *partitioned*, not down.
pub const KIND_HEARTBEAT: u16 = 20;
/// Replicated server registration: the hash-home object manager mirrors each
/// registered name to its successor replica (and anti-entropy pushes mirror
/// in both directions after a partition heals).
pub(crate) const KIND_REPL_REG: u16 = 21;

/// In-network collective contribution, combinable inside the fabric: a
/// member's operand headed up to the group root. The payload is the
/// `hpcnet::combine` 13-byte operand, and the `seq` is the
/// `(group, sequence, attempt)` combining equivalence class
/// ([`hpcnet::combine::enc_seq`]). This is the one kind registered with
/// [`hpcnet::Fabric::comb_register_group`].
pub const KIND_COLL_UP: u16 = 23;
/// Collective result from the root back to the members, down the hardware
/// multicast path. Doubles as the completion acknowledgement: a member that
/// holds the result knows its contribution was counted.
pub(crate) const KIND_COLL_RESULT: u16 = 24;
/// Root-driven retry: the combining window closed without the full group
/// arriving, so the root opens a fresh *attempt* epoch. Members re-send
/// their operand under the new attempt; stale partials from the previous
/// attempt can never merge with (or double-count into) the new one.
pub const KIND_COLL_RETRY: u16 = 25;
/// Member-driven result replay request: the member contributed but never
/// saw the `KIND_COLL_RESULT` (lost on the way down). The root replays the
/// completed result unicast.
pub const KIND_COLL_NUDGE: u16 = 26;
/// All-to-all value broadcast: one member's `(index, value)` pair,
/// hardware-multicast to every other member.
pub(crate) const KIND_COLL_A2A: u16 = 27;
/// All-to-all recovery request: the requester is missing the addressee's
/// value for the current operation and asks for a unicast replay.
pub(crate) const KIND_COLL_A2A_REQ: u16 = 28;
/// All-to-all recovery replay: a unicast `(index, value)` pair answering a
/// `KIND_COLL_A2A_REQ`.
pub(crate) const KIND_COLL_A2A_VAL: u16 = 29;

/// True iff `kind` is lowest-priority, fully-retransmittable channel data —
/// the only traffic class the fabric may shed under an overload byte budget.
/// Everything else (acks, opens, control, heartbeats, UDCO) is never shed:
/// shedding is safe exactly where the stop-and-wait/window retry protocols
/// already recover from loss.
pub(crate) fn is_sheddable_kind(kind: u16) -> bool {
    kind == KIND_CHAN_DATA || kind == KIND_CHAN_DATA_LAST
}

/// Encode a replica registration (`KIND_REPL_REG`): object kind + the
/// registered server's address + the name.
pub(crate) fn pack_repl_reg(kind: ObjKind, server: NodeAddr, name: &str) -> Payload {
    let mut b = NamedBuf::new();
    b.put_u8(kind.to_byte());
    b.put_u32(server.0);
    b.put_slice(name.as_bytes());
    b.finish()
}

/// Decode a replica registration into `(kind, server, name)`.
pub(crate) fn parse_repl_reg(p: &Payload) -> (ObjKind, NodeAddr, &str) {
    let b = p.bytes().expect("replica registration carries data");
    assert!(b.len() >= 5, "short replica registration");
    (
        ObjKind::from_byte(b[0]),
        NodeAddr(u32::from_be_bytes([b[1], b[2], b[3], b[4]])),
        name_in(&b[5..]),
    )
}

/// Encode an all-to-all value payload: member index + 64-bit value.
pub(crate) fn pack_a2a(idx: u32, value: u64) -> Payload {
    let mut b = StackBuf::<12>::new();
    b.put_u32(idx);
    b.put_u64(value);
    b.finish()
}

/// Decode an all-to-all value payload into `(index, value)`.
pub(crate) fn parse_a2a(p: &Payload) -> (u32, u64) {
    let b = p.bytes().expect("a2a value carries data");
    let mut i = [0u8; 4];
    i.copy_from_slice(&b[..4]);
    let mut v = [0u8; 8];
    v.copy_from_slice(&b[4..12]);
    (u32::from_be_bytes(i), u64::from_be_bytes(v))
}

/// Encode an all-to-all recovery request: the requester's member index.
pub(crate) fn pack_a2a_req(idx: u32) -> Payload {
    let mut b = StackBuf::<4>::new();
    b.put_u32(idx);
    b.finish()
}

/// Decode an all-to-all recovery request into the requester's index.
pub(crate) fn parse_a2a_req(p: &Payload) -> u32 {
    let b = p.bytes().expect("a2a request carries the requester index");
    let mut i = [0u8; 4];
    i.copy_from_slice(&b[..4]);
    u32::from_be_bytes(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_round_trip() {
        let s = chan_seq(0xDEAD_BEEF, 42);
        assert_eq!(seq_chan(s), 0xDEAD_BEEF);
        assert_eq!(seq_frag(s), 42);
    }

    #[test]
    fn open_req_round_trip() {
        let p = pack_open_req("results/π");
        assert_eq!(parse_open_req(&p), "results/π");
    }

    #[test]
    fn open_rep_round_trip() {
        let p = pack_open_rep_kind(ObjKind::Channel, 7, NodeAddr(300), "pipe");
        assert_eq!(parse_open_rep(&p), (7, NodeAddr(300), "pipe"));
    }

    #[test]
    fn wack_round_trip() {
        let p = pack_wack(0b1010, 17);
        assert_eq!(parse_wack(&p), (0b1010, 17));
    }

    #[test]
    fn a2a_round_trip() {
        let p = pack_a2a(4095, 0xFACE_CAFE_0042_0000);
        assert_eq!(parse_a2a(&p), (4095, 0xFACE_CAFE_0042_0000));
        let r = pack_a2a_req(17);
        assert_eq!(parse_a2a_req(&r), 17);
    }

    #[test]
    fn repl_reg_round_trip() {
        let p = pack_repl_reg(ObjKind::Channel, NodeAddr(513), "svc/name");
        assert_eq!(
            parse_repl_reg(&p),
            (ObjKind::Channel, NodeAddr(513), "svc/name")
        );
    }
}
