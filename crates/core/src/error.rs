//! VORX error codes surfaced on the public API under fault injection.
//!
//! The 1988 system could largely pretend failures did not happen: the HPC
//! hardware never lost a frame and nodes did not crash mid-experiment. Under
//! the fault plane, every blocking primitive can instead fail, and these are
//! the codes it fails with. They follow the UNIX-y spirit of the original
//! host interface: a small fixed set of conditions, reported at the syscall
//! boundary instead of by panicking the simulated kernel.

use std::fmt;

/// Why a VORX operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VorxError {
    /// The peer end of the channel was closed.
    PeerClosed,
    /// This end of the channel was closed locally.
    LocalClosed,
    /// The peer's node crashed (detected by retry exhaustion or by the
    /// failure-detection sweep).
    PeerDown,
    /// The calling process's own node crashed while the operation was in
    /// flight; its kernel state is gone.
    NodeDown,
    /// The referenced channel does not exist on this node.
    UnknownChannel,
    /// No host runs a stub for the node: `create_stub` was never called
    /// for it, or its host crashed since and took the stub with it.
    NoStub,
    /// The host serving this node is unreachable.
    HostDown,
    /// The object manager did not answer within the retry budget.
    Unreachable,
    /// The peer's node is alive but unreachable: a network partition
    /// separates the two ends. Unlike [`VorxError::PeerDown`], no state was
    /// wiped — when the partition heals, the channel reconnects and resumes.
    Partitioned,
    /// A bounded kernel table is full: the node already holds
    /// [`MAX_CHANS_PER_NODE`](crate::calib::MAX_CHANS_PER_NODE) channels. The
    /// open was refused so the node degrades instead of growing without
    /// limit; retrying after existing channels close may succeed.
    ResourceExhausted,
}

impl fmt::Display for VorxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VorxError::PeerClosed => write!(f, "peer end closed"),
            VorxError::LocalClosed => write!(f, "local end closed"),
            VorxError::PeerDown => write!(f, "peer node is down"),
            VorxError::NodeDown => write!(f, "local node went down"),
            VorxError::UnknownChannel => write!(f, "unknown channel"),
            VorxError::NoStub => write!(f, "no host stub for this node"),
            VorxError::HostDown => write!(f, "host is down"),
            VorxError::Unreachable => write!(f, "object manager unreachable"),
            VorxError::Partitioned => write!(f, "peer unreachable (network partition)"),
            VorxError::ResourceExhausted => write!(f, "kernel resource budget exhausted"),
        }
    }
}

impl std::error::Error for VorxError {}

/// Result alias for fallible VORX operations.
pub type VorxResult<T> = Result<T, VorxError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        assert_eq!(VorxError::PeerDown.to_string(), "peer node is down");
        assert_eq!(
            VorxError::Unreachable.to_string(),
            "object manager unreachable"
        );
        assert_eq!(
            VorxError::Partitioned.to_string(),
            "peer unreachable (network partition)"
        );
        assert_eq!(
            VorxError::ResourceExhausted.to_string(),
            "kernel resource budget exhausted"
        );
    }
}
