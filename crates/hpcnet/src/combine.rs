//! In-switch combining: the wire vocabulary of combinable frames.
//!
//! The HPC hardware was designed so multicast could live in the fabric
//! rather than at endpoints (§4.2 of the paper). This module extends that
//! idea one step along the lineage running from the NYU Ultracomputer's
//! fetch-and-add switches to modern in-network collectives: *combinable*
//! frames headed for the same destination merge inside each star coupler,
//! so the root of a reduction receives O(log n) merged frames instead of
//! O(n) individual ones.
//!
//! The fabric stays protocol-agnostic: the embedding software registers one
//! frame *kind* as combinable per group ([`crate::Fabric::comb_register_group`]),
//! and every combinable frame carries a fixed-width operand in the payload
//! layout defined here — `[op: u8][value: u64 BE][count: u32 BE]`, 13 bytes.
//! `count` is the number of original contributions folded into `value`, so
//! the receiving software can tell a partial combine (window expired before
//! the whole subtree arrived) from a complete one and accumulate partials
//! until the group total is reached.
//!
//! The frame `seq` identifies the combining equivalence class: frames with
//! equal `(dst, seq)` merge. The encoding packs `(group, sequence, attempt)`
//! — see [`enc_seq`] — so retransmission *attempts* never merge with stale
//! partials from a previous attempt (the combining analog of the channel
//! layer's dedup discipline: a lost partial is recovered by a fresh attempt
//! epoch, never by re-merging a frame that might already be counted).

use bytes::Bytes;

use crate::frame::Payload;

/// Wire size of a combinable operand payload.
pub const COMB_PAYLOAD_BYTES: u32 = 13;

/// The combining operations the switch ALU implements. All are associative
/// and commutative over `u64`, which is what makes the merged result a pure
/// function of the *set* of contributions, independent of arbitration
/// order — the determinism argument of DESIGN.md §16 rests on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombOp {
    /// Wrapping sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Fetch-and-add: merges exactly like [`CombOp::Sum`]; the software
    /// layer returns the group total. (The Ultracomputer's per-requester
    /// prefix decombination on the way down is not modeled — a documented
    /// simplification.)
    FetchAdd,
}

impl CombOp {
    /// Fold one contribution into an accumulator.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            CombOp::Sum | CombOp::FetchAdd => a.wrapping_add(b),
            CombOp::Min => a.min(b),
            CombOp::Max => a.max(b),
        }
    }

    /// The identity element (`apply(identity(), x) == x`).
    pub fn identity(self) -> u64 {
        match self {
            CombOp::Sum | CombOp::FetchAdd => 0,
            CombOp::Min => u64::MAX,
            CombOp::Max => 0,
        }
    }

    /// Wire code of the operation.
    pub fn code(self) -> u8 {
        match self {
            CombOp::Sum => 0,
            CombOp::Min => 1,
            CombOp::Max => 2,
            CombOp::FetchAdd => 3,
        }
    }

    /// Decode a wire code.
    pub(crate) fn from_code(c: u8) -> Option<CombOp> {
        match c {
            0 => Some(CombOp::Sum),
            1 => Some(CombOp::Min),
            2 => Some(CombOp::Max),
            3 => Some(CombOp::FetchAdd),
            _ => None,
        }
    }
}

/// Encode an operand payload. This is the *software* encoder (a member
/// building its contribution), so the 13-byte write is metered like any
/// other payload creation copy.
pub fn pack(op: CombOp, value: u64, count: u32) -> Payload {
    Payload::copy_from(&encode(op, value, count))
}

/// Encode an operand payload inside the switch (a combining-ALU register
/// write, not a software copy — not metered).
pub(crate) fn pack_hw(op: CombOp, value: u64, count: u32) -> Payload {
    Payload::Data(Bytes::copy_from_slice(&encode(op, value, count)))
}

fn encode(op: CombOp, value: u64, count: u32) -> [u8; COMB_PAYLOAD_BYTES as usize] {
    let mut b = [0u8; COMB_PAYLOAD_BYTES as usize];
    b[0] = op.code();
    b[1..9].copy_from_slice(&value.to_be_bytes());
    b[9..13].copy_from_slice(&count.to_be_bytes());
    b
}

/// Decode an operand payload. `None` for anything that is not a well-formed
/// 13-byte operand (synthetic payloads, wrong length, unknown op) — such a
/// frame is simply not combinable and forwards unmerged.
pub fn unpack(p: &Payload) -> Option<(CombOp, u64, u32)> {
    let Payload::Data(b) = p else { return None };
    if b.len() != COMB_PAYLOAD_BYTES as usize {
        return None;
    }
    let op = CombOp::from_code(b[0])?;
    let mut v = [0u8; 8];
    v.copy_from_slice(&b[1..9]);
    let mut c = [0u8; 4];
    c.copy_from_slice(&b[9..13]);
    Some((op, u64::from_be_bytes(v), u32::from_be_bytes(c)))
}

/// Maximum collective group id: the `seq` encoding gives groups 24 bits.
pub const MAX_GROUP: u32 = (1 << 24) - 1;

/// Pack `(group, sequence, attempt)` into a frame `seq`: the combining
/// equivalence class. Group 24 bits, per-group operation sequence 32 bits,
/// retransmission attempt 8 bits.
pub fn enc_seq(group: u32, cseq: u32, attempt: u8) -> u64 {
    assert!(group <= MAX_GROUP, "collective group id exceeds 24 bits");
    (u64::from(group) << 40) | (u64::from(cseq) << 8) | u64::from(attempt)
}

/// The group id of a combinable frame's `seq`.
pub fn seq_group(seq: u64) -> u32 {
    (seq >> 40) as u32
}

/// The per-group operation sequence number of a combinable frame's `seq`.
pub fn seq_cseq(seq: u64) -> u32 {
    (seq >> 8) as u32
}

/// The retransmission attempt of a combinable frame's `seq`.
pub fn seq_attempt(seq: u64) -> u8 {
    seq as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_ops() {
        for op in [CombOp::Sum, CombOp::Min, CombOp::Max, CombOp::FetchAdd] {
            let p = pack(op, 0xDEAD_BEEF_0123_4567, 42);
            assert_eq!(unpack(&p), Some((op, 0xDEAD_BEEF_0123_4567, 42)));
        }
    }

    #[test]
    fn seq_encoding_roundtrips() {
        let s = enc_seq(0xABCDEF, 0xFEED_0123, 0x7F);
        assert_eq!(seq_group(s), 0xABCDEF);
        assert_eq!(seq_cseq(s), 0xFEED_0123);
        assert_eq!(seq_attempt(s), 0x7F);
    }

    #[test]
    fn non_operand_payloads_are_not_combinable() {
        assert_eq!(unpack(&Payload::Synthetic(13)), None);
        assert_eq!(unpack(&Payload::copy_from(b"short")), None);
        let mut bad = encode(CombOp::Sum, 1, 1);
        bad[0] = 9; // unknown op
        assert_eq!(unpack(&Payload::copy_from(&bad)), None);
    }

    #[test]
    fn ops_fold_correctly() {
        assert_eq!(CombOp::Sum.apply(3, 4), 7);
        assert_eq!(CombOp::Min.apply(3, 4), 3);
        assert_eq!(CombOp::Max.apply(3, 4), 4);
        assert_eq!(CombOp::FetchAdd.apply(u64::MAX, 1), 0);
        for op in [CombOp::Sum, CombOp::Min, CombOp::Max, CombOp::FetchAdd] {
            assert_eq!(op.apply(op.identity(), 99), 99);
        }
    }
}
