//! The identical-request response cache and the key that scopes an entry
//! to the store generation that produced it.

use std::collections::{HashMap, VecDeque};

use nshard_nn::serialize::{fnv64, fnv64_extend};

use crate::http::HttpResponse;

use super::admission::JobKind;
use super::Service;

/// A bounded FIFO cache of full-budget `200` responses for byte-identical
/// request bodies, read once, at admission, and filled by the workers.
/// Correctness rests on the daemon's determinism contract — identical
/// bodies already yield byte-identical responses (plan ids are
/// content-addressed, adoption is idempotent, every request plans with
/// prediction caches of its own, and one bundle serves the daemon's whole
/// life) — so a hit only skips redundant search work, never changes an
/// answer. A replan entry folds the store's applied sequence into its key,
/// so a plan adoption invalidates it: a replan warm-started from a retired
/// incumbent is never replayed.
pub(super) struct ResponseCache {
    capacity: usize,
    map: HashMap<u64, HttpResponse>,
    order: VecDeque<u64>,
}

impl ResponseCache {
    pub(super) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
        }
    }

    pub(super) fn get(&self, key: u64) -> Option<HttpResponse> {
        self.map.get(&key).cloned()
    }

    pub(super) fn put(&mut self, key: u64, response: HttpResponse) {
        if self.map.contains_key(&key) {
            return;
        }
        if self.order.len() >= self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.map.remove(&evicted);
            }
        }
        self.order.push_back(key);
        self.map.insert(key, response);
    }
}

/// FNV-1a over the facts that determine a cached response.
pub(super) fn response_cache_key(kind: JobKind, generation: u64, body: &[u8]) -> u64 {
    let kind = match kind {
        JobKind::Plan => 1,
        JobKind::Replan => 2,
    };
    fnv64_extend(
        fnv64_extend(fnv64(&[kind]), &generation.to_le_bytes()),
        body,
    )
}

impl Service {
    /// Response-cache generation for `kind`: `0` for a plan, which no
    /// adoption changes, and the store's applied sequence for a replan (an
    /// adoption changes the incumbent a replan warm-starts from).
    pub(super) fn cache_generation(&self, kind: JobKind) -> u64 {
        match kind {
            JobKind::Plan => 0,
            JobKind::Replan => self.plans.applied_seq(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_cache_keys_do_not_move() {
        // The key has no degradation bit since degraded answers are no
        // longer cached; this input hashed to this value when it went.
        let key = response_cache_key(JobKind::Replan, 0x0102_0304_0506_0708, b"{\"task\":1}");
        assert_eq!(key, 0x6bc7_5e40_ab86_72a3);
    }
}
