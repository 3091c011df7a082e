//! Frames: the unit of transfer on the HPC interconnect.
//!
//! The paper (§2): "Messages sent via the HPC are limited to some length
//! (1060 bytes in the current implementation)". We model that as a 36-byte
//! hardware envelope plus up to 1024 bytes of payload.

use bytes::Bytes;
use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Accounting for real payload-byte copies made by the simulator's own data
/// structures (as opposed to *simulated* copies, which are charged as CPU
/// time but move no memory). `Payload` values are `Bytes`-backed: clones,
/// slices, fabric store-and-forward hops, and multicast replication all
/// share one refcounted allocation and never touch this meter. The only
/// legitimate copy points are payload *creation* ([`Payload::copy_from`])
/// and multi-fragment reassembly gather; tests pin the forwarding hot path
/// to zero by watching this counter.
pub mod copymeter {
    use std::sync::atomic::{AtomicU64, Ordering};

    static PAYLOAD_BYTES_COPIED: AtomicU64 = AtomicU64::new(0);

    /// Record `n` payload bytes physically copied.
    pub fn add(n: u64) {
        PAYLOAD_BYTES_COPIED.fetch_add(n, Ordering::Relaxed);
    }

    /// Total payload bytes physically copied since process start (or the
    /// last [`reset`]). Process-global: assert on *deltas* in tests that may
    /// share the process with others.
    pub fn payload_bytes_copied() -> u64 {
        PAYLOAD_BYTES_COPIED.load(Ordering::Relaxed)
    }

    /// Zero the counter (single-test binaries only).
    pub fn reset() {
        PAYLOAD_BYTES_COPIED.store(0, Ordering::Relaxed);
    }
}

/// The hardware envelope carried with every frame (routing, length, type).
pub const HEADER_BYTES: u32 = 36;
/// Maximum payload bytes per frame.
pub const MAX_PAYLOAD: u32 = 1024;
/// Maximum total frame length on the wire (`HEADER_BYTES + MAX_PAYLOAD`),
/// the paper's 1060-byte limit.
pub const MAX_FRAME: u32 = HEADER_BYTES + MAX_PAYLOAD;

/// Address of an endpoint (a processing node or a host workstation port).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeAddr(pub u32);

impl fmt::Debug for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Frame payload. Applications that verify data end-to-end carry real bytes;
/// experiments that only need timing use `Synthetic` so the simulator does
/// not copy memory.
#[derive(Clone, PartialEq, Eq)]
pub enum Payload {
    /// Real bytes, delivered intact to the receiver.
    Data(Bytes),
    /// A length-only stand-in: `Synthetic(n)` behaves like `n` bytes on the
    /// wire and in every software copy cost, but carries no data.
    Synthetic(u32),
}

impl Payload {
    /// Construct a data payload from a byte slice. This is a payload-byte
    /// copy (the one unavoidable copy, at creation); everything downstream —
    /// fragmentation, forwarding, fan-out, reassembly of single-fragment
    /// messages — shares the allocation made here.
    pub fn copy_from(data: &[u8]) -> Self {
        copymeter::add(data.len() as u64);
        Payload::Data(Bytes::copy_from_slice(data))
    }

    /// A zero-copy sub-payload sharing this payload's backing storage.
    /// Synthetic payloads yield a synthetic slice of the same length.
    ///
    /// # Panics
    /// Panics if the range exceeds the payload length.
    pub fn slice(&self, start: usize, end: usize) -> Payload {
        match self {
            Payload::Data(b) => Payload::Data(b.slice(start..end)),
            Payload::Synthetic(n) => {
                assert!(end <= *n as usize && start <= end, "slice out of bounds");
                Payload::Synthetic((end - start) as u32)
            }
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u32 {
        match self {
            Payload::Data(b) => b.len() as u32,
            Payload::Synthetic(n) => *n,
        }
    }

    /// True iff zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The carried bytes, if this is a data payload.
    pub fn bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Data(b) => Some(b),
            Payload::Synthetic(_) => None,
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Data(b) => write!(f, "Data[{}B]", b.len()),
            Payload::Synthetic(n) => write!(f, "Synth[{n}B]"),
        }
    }
}

/// A multicast target list: the run `off..off + len` of one refcounted list.
///
/// Every fragment of a multi-frame message, every sender-side
/// retransmission and every fabric branch of a copy shares the one list: a
/// branch is a sub-run of its parent's ([`Targets::sub`]), so replicating a
/// frame at a branch cluster builds no list. The fabric re-lists a copy's
/// targets in its multicast tree's order once, where they do not form one
/// run per output port (`fabric/arbiter.rs`): into the copy's own list,
/// rewritten in place, when no other run, frame or sender holds it, so a
/// list a sender keeps never changes under it. Sixteen bytes, so [`Dest`]
/// is sixteen and [`Frame`] sixty-four.
#[derive(Clone)]
pub struct Targets {
    /// `Arc<Vec<_>>`, not `Arc<[_]>`: a thin pointer, so the run fits in 16.
    list: Arc<Vec<NodeAddr>>,
    off: u32,
    len: u32,
}

impl Targets {
    /// The sub-run `range` of this run (indices relative to it), sharing its
    /// list.
    ///
    /// # Panics
    /// Panics if `range` exceeds this run.
    pub fn sub(&self, range: impl RangeBounds<usize>) -> Targets {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(start <= end && end <= self.len(), "sub-run out of bounds");
        Targets {
            list: Arc::clone(&self.list),
            off: self.off + start as u32,
            len: (end - start) as u32,
        }
    }

    /// Make this run the whole of its list and fill that with `targets`,
    /// if no other run, frame or sender holds the list: true if it did,
    /// false (and nothing changed) if another holds it. Allocates nothing
    /// when `targets` is no longer than the list's capacity.
    pub(crate) fn rewrite(&mut self, targets: impl Iterator<Item = NodeAddr>) -> bool {
        let Some(list) = Arc::get_mut(&mut self.list) else {
            return false;
        };
        list.clear();
        list.extend(targets);
        self.off = 0;
        self.len = u32::try_from(list.len()).expect("a target list fits in u32");
        true
    }
}

impl Deref for Targets {
    type Target = [NodeAddr];
    fn deref(&self) -> &[NodeAddr] {
        let off = self.off as usize;
        &self.list[off..off + self.len as usize]
    }
}

impl From<Vec<NodeAddr>> for Targets {
    fn from(list: Vec<NodeAddr>) -> Self {
        let len = u32::try_from(list.len()).expect("a target list fits in u32");
        Targets {
            list: Arc::new(list),
            off: 0,
            len,
        }
    }
}

impl FromIterator<NodeAddr> for Targets {
    fn from_iter<I: IntoIterator<Item = NodeAddr>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl PartialEq for Targets {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Targets {}

impl fmt::Debug for Targets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Destination of a frame: one endpoint, or a hardware-multicast set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Dest {
    /// Deliver to a single endpoint.
    Unicast(NodeAddr),
    /// Hardware multicast: the fabric replicates the frame at branch
    /// clusters, so the source transmits it once (§4.2 of the paper). Each
    /// branch carries a sub-run of the list the source sent. A target the
    /// list repeats receives one copy.
    Multicast(Targets),
}

impl Dest {
    /// The destination endpoints.
    pub(crate) fn targets(&self) -> &[NodeAddr] {
        match self {
            Dest::Unicast(a) => std::slice::from_ref(a),
            Dest::Multicast(v) => v,
        }
    }
}

/// One HPC frame.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Originating endpoint.
    pub src: NodeAddr,
    /// Destination endpoint(s).
    pub dst: Dest,
    /// Upper-layer protocol discriminator (channel data, channel ack,
    /// object-manager request, UDCO tag, ...). Opaque to the hardware.
    pub kind: u16,
    /// Upper-layer sequence number / correlation tag. Opaque to the hardware.
    pub seq: u64,
    /// The payload.
    pub payload: Payload,
    /// Set by the fault plane when the frame was damaged in transit: the
    /// receiving interface's CRC check fails, so software can detect (and
    /// must discard) the frame, but cannot repair it.
    pub corrupted: bool,
}

// Growing `Bytes` by 8 bytes makes `Frame` 72 bytes, pushes every net-event
// closure past `EventFn`'s 72-byte inline limit and boxes it: `paper70_sw`
// went 4.90 → 22.57 allocations/op in the prototype. So the next field added
// to `Frame`, or a wider `Dest`, fails the build here instead of quadrupling
// the heap traffic silently.
const _: () = {
    assert!(std::mem::size_of::<Bytes>() == 32);
    assert!(std::mem::size_of::<Payload>() == 32);
    assert!(std::mem::size_of::<Dest>() == 16);
    assert!(std::mem::size_of::<Frame>() == 64);
};

impl Frame {
    /// Build a unicast frame.
    pub fn unicast(src: NodeAddr, dst: NodeAddr, kind: u16, seq: u64, payload: Payload) -> Self {
        Frame {
            src,
            dst: Dest::Unicast(dst),
            kind,
            seq,
            payload,
            corrupted: false,
        }
    }

    /// Total length on the wire (envelope + payload).
    pub fn wire_bytes(&self) -> u32 {
        HEADER_BYTES + self.payload.len()
    }

    /// Check the hardware length limit.
    pub(crate) fn validate(&self) -> Result<(), FrameError> {
        if self.payload.len() > MAX_PAYLOAD {
            return Err(FrameError::TooLong {
                payload: self.payload.len(),
                max: MAX_PAYLOAD,
            });
        }
        if self.dst.targets().is_empty() {
            return Err(FrameError::NoDestination);
        }
        Ok(())
    }
}

/// Frame construction/validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Payload exceeds the 1024-byte hardware limit.
    TooLong {
        /// Attempted payload length.
        payload: u32,
        /// The hardware maximum.
        max: u32,
    },
    /// Multicast with an empty destination set.
    NoDestination,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLong { payload, max } => {
                write!(
                    f,
                    "payload {payload} bytes exceeds HPC frame limit of {max}"
                )
            }
            FrameError::NoDestination => write!(f, "frame has no destination"),
        }
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_length_includes_header() {
        let f = Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 0, Payload::Synthetic(4));
        assert_eq!(f.wire_bytes(), 40);
        assert_eq!(
            Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 0, Payload::Synthetic(1024)).wire_bytes(),
            MAX_FRAME
        );
    }

    #[test]
    fn validate_rejects_oversize() {
        let f = Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 0, Payload::Synthetic(1025));
        assert_eq!(
            f.validate(),
            Err(FrameError::TooLong {
                payload: 1025,
                max: 1024
            })
        );
        let ok = Frame::unicast(NodeAddr(0), NodeAddr(1), 0, 0, Payload::Synthetic(1024));
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_empty_multicast() {
        let f = Frame {
            src: NodeAddr(0),
            dst: Dest::Multicast(Vec::new().into()),
            kind: 0,
            seq: 0,
            payload: Payload::Synthetic(1),
            corrupted: false,
        };
        assert_eq!(f.validate(), Err(FrameError::NoDestination));
    }

    #[test]
    fn payload_data_round_trip() {
        let p = Payload::copy_from(&[1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.bytes().unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(Payload::Synthetic(7).bytes(), None);
        assert!(Payload::Synthetic(0).is_empty());
    }

    #[test]
    fn dest_targets() {
        let u = Dest::Unicast(NodeAddr(3));
        assert_eq!(u.targets(), &[NodeAddr(3)]);
        assert_eq!(u.targets().len(), 1);
        let m = Dest::Multicast(vec![NodeAddr(1), NodeAddr(2)].into());
        assert_eq!(m.targets().len(), 2);
    }

    #[test]
    fn a_sub_run_shares_its_parents_list() {
        let all: Targets = (0..6).map(NodeAddr).collect();
        let mid = all.sub(1..5);
        assert_eq!(*mid, [NodeAddr(1), NodeAddr(2), NodeAddr(3), NodeAddr(4)]);
        let inner = mid.sub(2..);
        assert_eq!(*inner, [NodeAddr(3), NodeAddr(4)]);
        assert_eq!(*mid.sub(..=0), [NodeAddr(1)]);
        assert!(mid.sub(4..).is_empty());
        assert!(Arc::ptr_eq(&inner.list, &all.list));
        // Equality is by targets, not by list or offset.
        assert_eq!(inner, vec![NodeAddr(3), NodeAddr(4)].into());
    }

    #[test]
    fn a_list_is_rewritten_only_while_no_other_run_holds_it() {
        let all: Targets = (0..6).map(NodeAddr).collect();
        let mut tail = all.sub(3..);
        assert!(!tail.rewrite([NodeAddr(9)].into_iter()), "`all` holds it");
        assert_eq!(*tail, [NodeAddr(3), NodeAddr(4), NodeAddr(5)]);
        drop(all);
        let list = Arc::as_ptr(&tail.list);
        assert!(tail.rewrite([NodeAddr(5), NodeAddr(3)].into_iter()));
        assert_eq!(*tail, [NodeAddr(5), NodeAddr(3)]);
        assert_eq!(Arc::as_ptr(&tail.list), list, "rewritten in place");
        let held = tail.clone();
        assert!(!tail.rewrite(std::iter::empty()), "`held` holds it");
        assert_eq!(*held, [NodeAddr(5), NodeAddr(3)]);
    }

    #[test]
    #[should_panic(expected = "sub-run out of bounds")]
    fn a_sub_run_stays_inside_its_parent() {
        let all: Targets = (0..6).map(NodeAddr).collect();
        let _ = all.sub(2..4).sub(1..3);
    }
}
