//! Error type for the DCGN library.

use std::fmt;

/// Errors surfaced by DCGN operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DcgnError {
    /// A rank argument does not exist in the job.
    InvalidRank(usize),
    /// A slot index is outside the slots configured for the GPU.
    InvalidSlot {
        /// Slot requested by the kernel.
        slot: usize,
        /// Slots configured for the GPU.
        configured: usize,
    },
    /// The configuration is structurally invalid (e.g. zero ranks).
    InvalidConfig(String),
    /// A communication buffer did not match expectations (e.g. a receive
    /// buffer smaller than the incoming message).
    Truncated {
        /// Capacity of the receiving buffer.
        buffer: usize,
        /// Size of the matching message.
        message: usize,
    },
    /// A request argument was malformed (e.g. a scatter root supplying the
    /// wrong number of chunks, or reduce contributions of differing length).
    InvalidArgument(String),
    /// Ranks disagreed about which collective to execute.
    CollectiveMismatch {
        /// Collective already in progress on the node.
        in_progress: &'static str,
        /// Collective requested by the late rank.
        requested: &'static str,
    },
    /// A request was not completed within the runtime's request timeout —
    /// typically a receive nobody sent to, or a collective a peer never
    /// joined.  Not a runtime fault: the operation may still be matched
    /// later, but this rank stopped waiting for it.
    Timeout {
        /// DCGN rank that gave up waiting.
        rank: usize,
        /// The operation it was waiting on (`"irecv"`, `"barrier"`, …).
        op: &'static str,
        /// How long it waited.
        waited: std::time::Duration,
    },
    /// The runtime is shutting down and can no longer service requests.
    ShuttingDown,
    /// The underlying MPI substrate failed.
    Mpi(String),
    /// The underlying device simulator failed.
    Device(String),
    /// An internal invariant was violated (bug in DCGN itself).
    Internal(String),
}

impl fmt::Display for DcgnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcgnError::InvalidRank(r) => write!(f, "invalid DCGN rank {r}"),
            DcgnError::InvalidSlot { slot, configured } => {
                write!(f, "invalid slot {slot} (GPU has {configured} slots)")
            }
            DcgnError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DcgnError::Truncated { buffer, message } => write!(
                f,
                "receive buffer too small: {buffer} bytes for a {message}-byte message"
            ),
            DcgnError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            DcgnError::CollectiveMismatch {
                in_progress,
                requested,
            } => write!(
                f,
                "collective mismatch: node is executing {in_progress} but a rank requested {requested}"
            ),
            DcgnError::Timeout { rank, op, waited } => write!(
                f,
                "rank {rank} timed out after {waited:?} waiting for {op} completion"
            ),
            DcgnError::ShuttingDown => write!(f, "DCGN runtime is shutting down"),
            DcgnError::Mpi(msg) => write!(f, "MPI substrate error: {msg}"),
            DcgnError::Device(msg) => write!(f, "device error: {msg}"),
            DcgnError::Internal(msg) => write!(f, "internal DCGN error: {msg}"),
        }
    }
}

impl std::error::Error for DcgnError {}

impl From<dcgn_rmpi::RmpiError> for DcgnError {
    fn from(e: dcgn_rmpi::RmpiError) -> Self {
        match e {
            // Preserve the argument-error category: the comm thread's
            // collective engine contains InvalidArgument failures (failing
            // the joined ranks) instead of tearing the whole thread down.
            dcgn_rmpi::RmpiError::InvalidArgument(msg) => DcgnError::InvalidArgument(msg),
            // The exchange plans live in the substrate; their errors cross
            // over as the ones DCGN's collectives report.
            dcgn_rmpi::RmpiError::CollectiveMismatch {
                in_progress,
                requested,
            } => DcgnError::CollectiveMismatch {
                in_progress,
                requested,
            },
            dcgn_rmpi::RmpiError::Internal(msg) => DcgnError::Internal(msg),
            other => DcgnError::Mpi(other.to_string()),
        }
    }
}

impl From<dcgn_dpm::MemoryError> for DcgnError {
    fn from(e: dcgn_dpm::MemoryError) -> Self {
        DcgnError::Device(e.to_string())
    }
}

/// Result alias for DCGN operations.
pub type Result<T> = std::result::Result<T, DcgnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let errors: Vec<DcgnError> = vec![
            DcgnError::InvalidRank(3),
            DcgnError::InvalidSlot {
                slot: 9,
                configured: 2,
            },
            DcgnError::InvalidConfig("no nodes".into()),
            DcgnError::Truncated {
                buffer: 1,
                message: 2,
            },
            DcgnError::InvalidArgument("bad chunk count".into()),
            DcgnError::CollectiveMismatch {
                in_progress: "barrier",
                requested: "broadcast",
            },
            DcgnError::Timeout {
                rank: 4,
                op: "irecv",
                waited: std::time::Duration::from_secs(2),
            },
            DcgnError::ShuttingDown,
            DcgnError::Mpi("x".into()),
            DcgnError::Device("y".into()),
            DcgnError::Internal("z".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let mpi: DcgnError = dcgn_rmpi::RmpiError::InvalidRank(2).into();
        assert!(matches!(mpi, DcgnError::Mpi(_)));
        // Argument errors keep their category so the collective engine's
        // containment path can catch them.
        let arg: DcgnError = dcgn_rmpi::RmpiError::InvalidArgument("x".into()).into();
        assert!(matches!(arg, DcgnError::InvalidArgument(_)));
        let dev: DcgnError = dcgn_dpm::MemoryError::InvalidFree(0).into();
        assert!(matches!(dev, DcgnError::Device(_)));
    }
}
