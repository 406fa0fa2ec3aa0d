//! Connection timeouts without per-tick bookkeeping: a lazy deadline
//! heap.
//!
//! Every connection has exactly **one** effective deadline at a time —
//! write-stalled connections use the write timeout, mid-request
//! connections the read timeout (the slow-loris defence), idle
//! keep-alive connections the idle timeout. Deadlines move constantly
//! (every byte of progress pushes them out), so instead of removing and
//! re-inserting heap entries on every read, the wheel is **lazy**: an
//! entry is `(deadline, token, generation)` and firing is provisional.
//! When an entry pops, the reactor compares its generation against the
//! connection's current one — stale entries (the deadline moved since)
//! are dropped and the *current* deadline re-armed. Each connection
//! keeps at most one live generation, so the heap stays O(connections)
//! amortized.
//!
//! The wheel is clock-agnostic (callers pass `now_ms`), so the timeout
//! tests in `tests/serve_net.rs` drive it with a manual clock and zero
//! sleeps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A provisional expiry out of [`TimerWheel::pop_due`]. The owner must
/// validate `generation` against the connection's current generation
/// before acting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expiry {
    /// The connection token the entry was armed for.
    pub token: usize,
    /// The arming generation; stale if the connection has re-armed since.
    pub generation: u64,
    /// The deadline that fired, ms.
    pub deadline_ms: u64,
}

/// The lazy deadline heap.
#[derive(Debug, Default)]
pub struct TimerWheel {
    // Min-heap on deadline: (Reverse(deadline), token, generation).
    heap: BinaryHeap<(Reverse<u64>, usize, u64)>,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms (or re-arms) a deadline for `token`. The caller bumps the
    /// connection's generation first; older entries for the same token
    /// become stale automatically.
    pub fn arm(&mut self, token: usize, generation: u64, deadline_ms: u64) {
        self.heap.push((Reverse(deadline_ms), token, generation));
    }

    /// When the next (possibly stale) entry fires, ms — the poll timeout
    /// bound. `None` when nothing is armed.
    pub(crate) fn next_deadline_ms(&self) -> Option<u64> {
        self.heap.peek().map(|&(Reverse(deadline), _, _)| deadline)
    }

    /// Pops every entry due at `now_ms`. Entries are *provisional*: the
    /// caller validates generations and re-arms moved deadlines.
    pub fn pop_due(&mut self, now_ms: u64) -> Vec<Expiry> {
        let mut due = Vec::new();
        while let Some(&(Reverse(deadline), token, generation)) = self.heap.peek() {
            if deadline > now_ms {
                break;
            }
            self.heap.pop();
            due.push(Expiry {
                token,
                generation,
                deadline_ms: deadline,
            });
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order() {
        let mut wheel = TimerWheel::new();
        wheel.arm(1, 0, 300);
        wheel.arm(2, 0, 100);
        wheel.arm(3, 0, 200);
        assert_eq!(wheel.next_deadline_ms(), Some(100));
        assert!(wheel.pop_due(99).is_empty());
        let due = wheel.pop_due(250);
        assert_eq!(
            due.iter().map(|e| e.token).collect::<Vec<_>>(),
            vec![2, 3],
            "only entries at or before now fire, earliest first"
        );
        assert_eq!(wheel.next_deadline_ms(), Some(300));
    }

    #[test]
    fn stale_generations_surface_for_the_caller_to_drop() {
        let mut wheel = TimerWheel::new();
        wheel.arm(7, 1, 100);
        // The connection made progress: deadline moved, generation bumped.
        wheel.arm(7, 2, 500);
        let due = wheel.pop_due(100);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].generation, 1, "the stale entry pops first");
        // Caller sees generation 1 != current 2 and ignores it; the live
        // entry is still armed.
        assert_eq!(wheel.next_deadline_ms(), Some(500));
    }
}
