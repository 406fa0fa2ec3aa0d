//! The deterministic request script one `serve_mixed` connection replays.
//!
//! Pure bookkeeping: which class each op belongs to and which of the
//! connection's earlier plan-misses it refers to. Bodies are built by the
//! workload from these indices.

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `POST /v1/plan` with a never-seen task: runs the engine.
    PlanMiss,
    /// `POST /v1/replan`, `adopt:false`, an earlier plan as incumbent.
    Replan,
    /// Re-POST of an earlier plan body: answered from the response cache.
    PlanHit,
    /// `GET /v1/plans/{id}`.
    Get,
    /// `POST /v1/observations`.
    Observe,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::PlanMiss,
        Class::Replan,
        Class::PlanHit,
        Class::Get,
        Class::Observe,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Class::PlanMiss => "miss",
            Class::Replan => "replan",
            Class::PlanHit => "hit",
            Class::Get => "get",
            Class::Observe => "observe",
        }
    }
}

/// One scripted op. `miss_index` counts this connection's plan-misses: the
/// miss an op creates (`PlanMiss`) or the earlier one it refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptOp {
    pub class: Class,
    pub miss_index: usize,
}

/// Ops per block and their order: 2 misses, 2 replans, 4 hits, 1 get and 1
/// observation, interleaved so that every op refers to a miss earlier in
/// the same connection — a closed-loop client has its reply by then.
pub const BLOCK: [Class; 10] = [
    Class::PlanMiss,
    Class::PlanHit,
    Class::Replan,
    Class::PlanHit,
    Class::Get,
    Class::PlanMiss,
    Class::PlanHit,
    Class::Replan,
    Class::PlanHit,
    Class::Observe,
];

/// A hit re-POSTs one of this many most recent plan bodies.
pub const HIT_WINDOW: usize = 64;

/// SplitMix64: the script's only randomness, so it depends on nothing but
/// the seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The script of `blocks` blocks for one connection.
pub fn script(blocks: usize, seed: u64) -> Vec<ScriptOp> {
    let mut rng = seed;
    let mut misses = 0usize;
    let mut ops = Vec::with_capacity(blocks * BLOCK.len());
    for _ in 0..blocks {
        for class in BLOCK {
            let miss_index = match class {
                Class::PlanMiss => {
                    misses += 1;
                    misses - 1
                }
                // The incumbent, the stored plan and the observed task are
                // the most recent miss.
                Class::Replan | Class::Get | Class::Observe => misses - 1,
                Class::PlanHit => {
                    let window = misses.min(HIT_WINDOW);
                    misses - 1 - (splitmix64(&mut rng) % window as u64) as usize
                }
            };
            ops.push(ScriptOp { class, miss_index });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_are_exactly_the_stated_mix() {
        let ops = script(37, 2023);
        assert_eq!(ops.len(), 370);
        let count = |c: Class| ops.iter().filter(|op| op.class == c).count();
        assert_eq!(count(Class::PlanMiss), 74);
        assert_eq!(count(Class::Replan), 74);
        assert_eq!(count(Class::PlanHit), 148);
        assert_eq!(count(Class::Get), 37);
        assert_eq!(count(Class::Observe), 37);
        // The same holds inside every block.
        for block in ops.chunks(BLOCK.len()) {
            assert_eq!(
                block.iter().filter(|o| o.class == Class::PlanHit).count(),
                4
            );
            assert_eq!(
                block.iter().filter(|o| o.class == Class::PlanMiss).count(),
                2
            );
        }
    }

    #[test]
    fn nothing_refers_to_a_miss_that_has_not_completed() {
        let ops = script(200, 7);
        let mut completed = 0usize;
        for op in &ops {
            match op.class {
                Class::PlanMiss => {
                    assert_eq!(op.miss_index, completed, "misses are numbered in order");
                    completed += 1;
                }
                _ => {
                    assert!(op.miss_index < completed, "refers to a finished miss");
                    assert!(
                        completed - 1 - op.miss_index < HIT_WINDOW,
                        "stays inside the hit window"
                    );
                }
            }
        }
        assert_eq!(completed, 400);
    }

    #[test]
    fn scripts_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(script(20, 5), script(20, 5));
        assert_ne!(script(20, 5), script(20, 6));
        // Hits reach back beyond the latest miss once there is history.
        assert!(script(20, 5)
            .iter()
            .any(|op| op.class == Class::PlanHit && op.miss_index + 2 < 40));
    }
}
