//! The worker fleet's typed error.
//!
//! Every fallible layer has its own error enum close to its code
//! ([`pensieve_kvcache::CacheError`], [`pensieve_sim::TransferError`],
//! [`pensieve_sim::StorageReadError`], [`WorkerError`] here), and each
//! caller matches on the one its callee can return.

use std::fmt;

/// Error from the threaded tensor-parallel worker fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerError {
    /// A worker shard's channel disconnected — the thread crashed or was
    /// shut down. `shard` is the index when the send side detected it,
    /// `None` when detected on the shared response channel.
    ShardDisconnected {
        /// Index of the dead shard, if known.
        shard: Option<usize>,
    },
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::ShardDisconnected { shard: Some(i) } => {
                write!(f, "worker shard {i} disconnected")
            }
            WorkerError::ShardDisconnected { shard: None } => {
                write!(f, "a worker shard disconnected")
            }
        }
    }
}

impl std::error::Error for WorkerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let w = WorkerError::ShardDisconnected { shard: Some(2) };
        assert_eq!(w.to_string(), "worker shard 2 disconnected");
        let w = WorkerError::ShardDisconnected { shard: None };
        assert_eq!(w.to_string(), "a worker shard disconnected");
    }
}
