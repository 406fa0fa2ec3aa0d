//! Error types for the simulator.

use std::error::Error;
use std::fmt;

/// Errors produced while simulating a sharding plan.
///
/// The most important variant is [`SimError::OutOfMemory`]: the paper marks a
/// sharding algorithm as unable to scale ("-" cells in Table 1) whenever at
/// least one generated plan overflows a device's embedding-table memory
/// budget. This error carries enough context to attribute the failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A device was assigned more embedding-table bytes than it can hold.
    OutOfMemory {
        /// Index of the offending GPU device.
        device: usize,
        /// Bytes the plan tried to place on the device.
        required_bytes: u64,
        /// The device's embedding-table memory budget in bytes.
        budget_bytes: u64,
    },
    /// A table profile failed validation (zero dimension, non-positive
    /// pooling factor, dimension not divisible by the kernel lane width...).
    InvalidTable {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The evaluated plan had the wrong shape (e.g. no devices).
    InvalidPlan {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory {
                device,
                required_bytes,
                budget_bytes,
            } => write!(
                f,
                "device {device} out of memory: plan requires {required_bytes} bytes \
                 but budget is {budget_bytes} bytes"
            ),
            SimError::InvalidTable { reason } => write!(f, "invalid table profile: {reason}"),
            SimError::InvalidPlan { reason } => write!(f, "invalid sharding plan: {reason}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = SimError::OutOfMemory {
            device: 3,
            required_bytes: 10,
            budget_bytes: 5,
        };
        let msg = err.to_string();
        assert!(msg.contains("device 3"));
        assert!(msg.contains("10"));
        assert!(msg.contains("5"));
    }

    #[test]
    fn display_covers_every_variant() {
        let cases = [
            (
                SimError::OutOfMemory {
                    device: 1,
                    required_bytes: 2048,
                    budget_bytes: 1024,
                },
                "device 1 out of memory: plan requires 2048 bytes but budget is 1024 bytes",
            ),
            (
                SimError::InvalidTable {
                    reason: "dimension must be positive".into(),
                },
                "invalid table profile: dimension must be positive",
            ),
            (
                SimError::InvalidPlan {
                    reason: "no devices".into(),
                },
                "invalid sharding plan: no devices",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn debug_is_nonempty() {
        let err = SimError::InvalidPlan {
            reason: "empty".into(),
        };
        assert!(!format!("{err:?}").is_empty());
    }
}
