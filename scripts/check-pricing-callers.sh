#!/bin/sh
# One task->pricing translation (DESIGN.md §13): outside nshard-core a plan
# is priced through `nshard_core::estimate_for_task`, and a fleet is lowered
# to `DeviceScales` by exactly two callers (the search and that function).
#
# One planning stack (DESIGN.md §8): outside `online::stack` nothing under
# online/serve/learn builds an incremental planner or a fallback chain — the
# one exception is the daemon's greedy degraded chain in `serve::engine` —
# so "incremental, else the full chain" cannot be written a second time.
#
# One communication law (DESIGN.md §3, §13): nothing under crates/ is named
# `*_tiered` again, and the learner builds comm rows from
# `DevicePool::lowered_dims`, never from a raw `device_dims` sum.
#
# One local search (DESIGN.md §8): repair and the incremental planner live
# in `core::local` and edit plans only through `PlanDelta::apply`; one
# `SplitKind` halving (`plan::split_in_place`) serves split plans and
# deltas alike; the repair-only step type, the device remap and the online
# copy of the planner stay deleted.
#
# One ground truth (DESIGN.md §7): a fault plan lowers onto the cluster
# once, in `FaultyCluster::new`; the cluster, its fleet and the trace
# simulator never see a `FaultPlan`, the fault-threading evaluation path
# stays deleted (its copy lives only in the test-only `sim::reference`),
# and control-plane faults stay out of the simulator. The fallback chain
# checks a plan only through `FaultyCluster::verify` on its task's fleet;
# the verifier closure, the retry policy, the chain seed, the recorded
# backoff and the connection-config struct stay deleted (outside tests,
# which may spell an old record's fields).
#
# One record of adopted plans (DESIGN.md §9): the store module builds the
# daemon's one `PlanKv`, and the second representation's roads in — the
# replica insert, the boot re-log, the adopt-then-log pair and the store's
# own map — stay deleted.
#
# Same rule as count-lines.sh: each file is cut at its first `#[cfg(test)]`
# and lines starting with `//` are dropped.
set -eu
cd "$(dirname "$0")/.."

code() {
    find "$@" -name '*.rs' | sort | xargs awk '
        FNR == 1 { cut = 0 }
        /#\[cfg\(test\)\]/ { cut = 1 }
        cut || /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR ": " $0 }'
}

if code crates/online/src crates/serve/src crates/learn/src |
    grep -E '\.estimate_plan\(|estimate_plan_batch_scaled\('; then
    echo "error: price plans through nshard_core::estimate_for_task (lines above)" >&2
    exit 1
fi
lowerings=$(code crates/*/src | grep -v '^crates/cost/src/simulator.rs:' | grep -c 'from_pool(' || true)
if [ "$lowerings" -gt 2 ]; then
    echo "error: $lowerings callers of DeviceScales::from_pool, at most 2 allowed" >&2
    exit 1
fi

if grep -rn '_tiered' crates; then
    echo "error: one all-to-all law; lower the fleet instead of forking it (lines above)" >&2
    exit 1
fi
if code crates/learn/src | grep -E 'device_dims\('; then
    echo "error: learn builds comm rows from DevicePool::lowered_dims (lines above)" >&2
    exit 1
fi

if grep -n 'FaultPlan' crates/sim/src/cluster.rs crates/sim/src/devices.rs crates/sim/src/trace.rs; then
    echo "error: a fault plan is a fleet edit in FaultyCluster::new, not an evaluation input (lines above)" >&2
    exit 1
fi
if code crates/*/src | grep -E '_with_faults|degraded_comm|lowered_dims_under'; then
    echo "error: one evaluation path; lower faults onto the cluster instead (lines above)" >&2
    exit 1
fi
if grep -rnwE 'Partition|NodeCrash' crates; then
    echo "error: control-plane faults live with the replication harness, not under crates/ (lines above)" >&2
    exit 1
fi
if code crates/*/src | grep -E -e '\b(PlanVerifier|RetryPolicy|with_verifier|with_retry|total_backoff_ms|ConnConfig)\b' -e 'with_seed\('; then
    echo "error: a chain is set by its fallbacks and its faults, a connection by constants (lines above)" >&2
    exit 1
fi
if code crates/core/src/fallback.rs | grep -E 'check_memory|\.evaluate(_exact)?\(|first_over_budget|\.validate\('; then
    echo "error: the fallback chain checks memory only through FaultyCluster::verify (lines above)" >&2
    exit 1
fi

if code crates/serve/src | grep 'PlanKv::new(' | grep -v '^crates/serve/src/store.rs:'; then
    echo "error: only serve::store builds a PlanKv (lines above)" >&2
    exit 1
fi
if grep -rnE 'PlanStoreInner|insert_replica|boot_kv|log_adoption|adopt_and_log' crates/serve/src; then
    echo "error: a plan reaches the store through the one sequenced KV (lines above)" >&2
    exit 1
fi

halvings=$(code crates/*/src |
    grep -E 'SplitKind::[A-Za-z]+[[:space:]]*=>.*\.(split_columns|split_rows|replicate)\(' || true)
if printf '%s\n' "$halvings" | grep -v '^crates/core/src/plan.rs:' | grep . ||
    [ "$(printf '%s\n' "$halvings" | grep -c .)" -gt 3 ]; then
    echo "error: one SplitKind halving, plan::split_in_place (lines above)" >&2
    exit 1
fi
if grep -rnwE 'RepairStep|remapped_devices' crates src tests examples; then
    echo "error: repair records DeltaSteps and rejects a foreign device count (lines above)" >&2
    exit 1
fi
if [ -e crates/online/src/incremental.rs ]; then
    echo "error: the incremental planner lives in crates/core/src/local.rs" >&2
    exit 1
fi

stack=crates/online/src/stack.rs
planner=crates/core/src/local.rs
consumers="crates/online/src crates/serve/src crates/learn/src"
fail=0
# shellcheck disable=SC2086
if code $consumers crates/core/src | grep -E 'IncrementalPlanner::(new|default)\(' |
    grep -v -e "^$stack:" -e "^$planner:"; then
    echo "error: replan through nshard_online::PlanningStack (lines above)" >&2
    fail=1
fi
# shellcheck disable=SC2086
chains=$(code $consumers | grep 'FallbackChain::new(' | grep -v "^$stack:" || true)
degraded=$(printf '%s\n' "$chains" | grep -c '^crates/serve/src/engine.rs:' || true)
if [ "$degraded" -gt 1 ] ||
    printf '%s\n' "$chains" | grep -v '^crates/serve/src/engine.rs:' | grep -q .; then
    printf '%s\n' "$chains"
    echo "error: nshard_online::PlanningStack builds the NeuroShard chain; only" \
        "serve::engine's one degraded chain may stand beside it (lines above)" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "pricing callers ok ($lowerings fleet lowerings, $degraded chain beside the stack)"
