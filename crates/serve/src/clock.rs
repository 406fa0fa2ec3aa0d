//! Deadline clocks: wall time for production, a manual clock for tests.
//!
//! Admission control compares "how long has this request waited" against
//! its deadline. Behind a trait, the daemon runs on [`WallClock`] while
//! tests drive a [`ManualClock`] — deadlines expire exactly when the test
//! says so, with no sleeps and no flakiness (the same recorded-not-slept
//! discipline as the replicator's reconnect backoff).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic millisecond clock.
pub trait Clock: Send + Sync {
    /// Milliseconds since an arbitrary (fixed) origin.
    fn now_ms(&self) -> u64;
}

/// The production clock: milliseconds since construction.
#[derive(Debug)]
pub(crate) struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock anchored at now.
    pub(crate) fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// A test clock advanced explicitly; never moves on its own.
///
/// # Example
///
/// ```
/// use nshard_serve::{Clock, ManualClock};
///
/// let clock = ManualClock::new();
/// assert_eq!(clock.now_ms(), 0);
/// clock.advance_ms(250);
/// assert_eq!(clock.now_ms(), 250);
/// ```
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ms`.
    pub fn advance_ms(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_only_moves_when_told() {
        let c = ManualClock::new();
        assert_eq!(c.now_ms(), 0);
        c.advance_ms(10);
        c.advance_ms(5);
        assert_eq!(c.now_ms(), 15);
    }
}
