#!/bin/sh
# One task->pricing translation (DESIGN.md §13): outside nshard-core a plan
# is priced through `nshard_core::estimate_for_task`. One fleet, lowered
# once: a `DevicePool` holds its budgets and scales, so the second scales
# type (`DeviceScales`, `from_pool`) and the per-device lookups
# (`budget_of`, `compute_scale_of`, `bw_scale_of`, `has_uniform_*`) stay
# deleted.
#
# Special cases are values (DESIGN.md §6.5, §13): a uniform fleet is a
# `DevicePool` like any other, so non-test code holds one
# `Option<&DevicePool>` (the frozen `search_with_devices` door, which reads
# `None` as the one-node, class-1 fleet of its budgets); "w/o
# beam search" is `l = 0` and "w/o greedy grid search" is `m = 0`, so the
# two switches and the grid-off builder stay deleted; one set or one table
# is a batch of one, so the single-set and single-table pricing doors stay
# deleted.
#
# One planning stack (DESIGN.md §8): outside `online::stack` nothing under
# online/serve builds an incremental planner or calls a fallback chain
# (`shard_with_provenance`), and nothing under serve/src names the chain —
# the stack calls the full and the greedy chain — so "incremental, else a
# chain" cannot be written a second time.
#
# One door per planning job (DESIGN.md §6.5, §7): `NeuroShard::shard_with_stats`
# is the one entry to the beam search, a chain is one call over its stages
# (`shard_with_provenance`), and a search config has nothing to validate,
# so the bare beam type and its record, the fallback builder, the stored
# chain (`FallbackChain`), the config error and the fallible constructor
# stay deleted.
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
# One ground truth (DESIGN.md §7): a hostile fleet is a `DevicePool` on
# the task, never a second fleet beside it. The fault injector, its seeded
# transient failure and the chain's retry loop stay deleted (no new
# `TransientRetry` is written; old records still decode), as do the
# fault-threading evaluation path and control-plane faults in the
# simulator. The fallback chain checks a stage's plan with one `repair`
# call (a plan that fits comes back unchanged, and what comes back
# validates), so `core::fallback` builds no ground-truth `Cluster` and
# sorts no `SimError`: besides the stage loop, only `size_balanced_plan`
# calls `repair`. The verifier closure, the retry policy, the chain seed,
# the recorded backoff and the connection-config struct stay deleted
# (outside tests, which may spell an old record's fields).
#
# One daemon, one record of adopted plans (DESIGN.md §9):
# `serve::store::PlanStore` owns it, with one write path, and its only
# outside input is its own files at boot. Leader/follower replication stays
# deleted: its module (`serve/src/repl.rs`), driver, node config, failover
# provenance, stale-read header, `/v1/repl/*` routes and `not_leader`
# refusal. So do the wrapped KV and its module, the conditional-upsert enum
# and its error (all `MatchSeq` variants), the out-of-order op buffer, the
# pool's backoff builder, and the second representation's roads in — the
# replica insert, the boot re-log, the adopt-then-log pair and the store's
# own map.
#
# One connection table (DESIGN.md §9): the reactor keys each connection by
# a token it never reuses and reads deadlines off that table each turn;
# the timer heap and its module, the generation counter, the recycled-token
# list and the sharded metrics registry stay deleted. Each
# turn reads its `poll(2)` wait list off the same table: the epoll backend
# stays deleted, and `net::sys` keeps one unsafe block, the `poll` call.
#
# One prediction-cache lock per batch (DESIGN.md §6.5): `PredictionCache`
# stores into one `BatchMap` (one map behind one `RwLock`), resolved a batch
# at a time; the per-key mutex shards, their count and the per-key hit path
# stay deleted.
#
# A fit takes no pool (DESIGN.md §10): the three cost models fit side by
# side in the pre-train's two lanes, so the trainer, the compute fit and the
# comm model name neither `WorkPool` nor the deleted per-item fan-out.
#
# One climb builds its candidates serially (DESIGN.md §8): a pool lost
# 3-4x to serial construction at two threads, so `core::local` names no
# `WorkPool`.
#
# One gradient fold for every fit (DESIGN.md §10): `nn::fit` runs a
# mini-batch once and folds its 64-row groups in order into one
# accumulator, so the trainer's shard pass, its gradient slots and their
# pairwise tree reduction stay deleted.
#
# One artifact format with one owner (DESIGN.md §9): `nn::serialize` alone
# defines the FNV digest and the checksum frame; the single-MLP checkpoint,
# the model store and the field-less config shims stay deleted, and the
# continual learner (`nshard_online::learn`) does not depend on the daemon.
#
# The closed loop is an experiment (DESIGN.md §8, §12): `repro ext_online`
# runs it over one planning stack and hands each epoch straight to the
# continual learner (`nshard_online::learn`), so the online controller, the
# drift detector and their types (`crates/online/src/{controller,detect}.rs`),
# the provenance's replan attribution, the `nshard-learn` crate, the
# epoch-hook seam, the composable drift-model algebra (the standard trace
# is the one trace) and the off-by-default stall switches (the stall escape
# is part of the experiment's incremental strategy) stay deleted.
#
# No model store (DESIGN.md §12): nothing persists a model. A daemon serves
# the bundle it booted with and keeps no observation, so the runtime swap
# (`promote_model`, `swap_bundle`, the store's `write_model` and
# `MODEL_KEY`), the observation stage (`ObservationStage`,
# `OBSERVATION_VALUE_CAP`, `take_observations`, `observations_buffered`)
# and the model-version machinery (`start_model_version`, the
# `model_promotions` counter) stay deleted. The continual learner
# shadow-evaluates each candidate in memory and holds no files, so non-test
# code under online/src calls
# neither `write_checked(`, `read_checked(` nor `std::fs`; the lifecycle's
# checkpoint directory (`ModelLifecycle`, its `load_active`), the
# `FineTuner` struct (fine-tuning is the free `learn::fine_tune`) and the
# rollback counter nothing incremented (`note_model_rollback`,
# `nshard_serve_model_rollbacks_total`) stay deleted.
#
# The reproduction driver does not depend on the daemon (DESIGN.md §2):
# `nshard-bench` names no `nshard-serve`, and `repro` is its one binary —
# load tests are `#[test]`s and timing lives in `benchmark/`.
#
# One GEMM kernel, one MLP forward (DESIGN.md §11): every product
# `a · B` runs through `nn::gemm::PackedGemm` (the free `gemm_into` packs
# and calls it) and every MLP forward through `Mlp::forward_in`, so the
# scalar reference GEMM lives only in tests, `gemm.rs` tiles nowhere but
# `PackedGemm` and the weight-gradient kernel `at_b_into`, the allocating
# `Dense::forward` stays deleted, and so do the cost models' single-row
# `predict`s (one set is a batch of one).
#
# One replan record, charged once (DESIGN.md §8, §9):
# `nshard_core::replan_migration_bytes` decides what a replan moves — from
# the rebased incumbent, or every byte of the task when the incumbent no
# longer rebases. `PlanningStack::replan` returns it in its
# `ReplanOutcome`; `repro ext_online`'s full replans and the daemon's
# degraded replans call it; nothing under online/serve charges with the raw
# `migration_bytes(` a second way. The daemon's replan record, the
# controller's copy of the stack's route and the column-only plan
# constructor, applier and type stay deleted (a column-wise plan is a
# `SplitPlan` of column steps).
#
# One lock policy (DESIGN.md §9): every lock the daemon takes goes through
# `serve::sync`, which recovers a poisoned guard, so no acquisition under
# serve/src unwraps or expects a poison error.
#
# A daemon request owns its planning state (DESIGN.md §9): the engine
# holds the serving bundle, and each request builds its own planning stack,
# whose caches are dropped with the response. So non-test code under
# serve/src holds no `PlanningStack`, `NeuroShard` or `CostSimulator` as a
# struct field, and the long-lived cache's `cache_stats` stays deleted.
#
# A layer is plain data (DESIGN.md §11): `Dense` packs its panels when it
# is built, decoded or updated (`Dense::update`, the one mutation entry),
# and the kernel stores each activation once with its bias and ReLU. So
# non-test code under nn/src takes no `OnceLock` or `Mutex`, and the
# deleted `params_mut`, `add_row_bias` and `relu_inplace` stay deleted.
#
# Same rule as count-lines.sh: the test-only module files are skipped, each
# other file is cut at its first line that starts with `#[cfg(test)]`, and
# lines starting with `//` are dropped.
set -eu
cd "$(dirname "$0")/.."

# The test-only module files, as in count-lines.sh.
TEST_ONLY='crates/nn/src/reference.rs'

code() {
    find "$@" -name '*.rs' | grep -vxF "$TEST_ONLY" | sort | xargs awk '
        FNR == 1 { cut = 0 }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        cut || /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR ": " $0 }'
}

if code crates/online/src crates/serve/src |
    grep -E '\.estimate_plan\(|estimate_plan_batch_scaled\('; then
    echo "error: price plans through nshard_core::estimate_for_task (lines above)" >&2
    exit 1
fi
if code crates/*/src src | grep -E -e '\bDeviceScales\b' \
    -e '(from_pool|budget_of|compute_scale_of|bw_scale_of)\(' -e 'has_uniform_(compute|bandwidth)'; then
    echo "error: a DevicePool is the one fleet, lowered once; read its slices (lines above)" >&2
    exit 1
fi
if code crates/*/src src | grep -E -e 'device_compute_cost\(' \
    -e '\b(single_table_cost_batch|without_grid|use_beam|use_grid)\b'; then
    echo "error: l = 0 and m = 0 are the search ablations, and one set is a batch of one (lines above)" >&2
    exit 1
fi
optional_fleets=$(code crates/*/src src | grep -c 'Option<&DevicePool>' || true)
if [ "$optional_fleets" -gt 1 ]; then
    code crates/*/src src | grep 'Option<&DevicePool>'
    echo "error: $optional_fleets Option<&DevicePool> in non-test code; a uniform fleet is a pool," \
        "and only search_with_devices may take None (lines above)" >&2
    exit 1
fi

if grep -rn '_tiered' crates; then
    echo "error: one all-to-all law; lower the fleet instead of forking it (lines above)" >&2
    exit 1
fi
if code crates/online/src | grep -E 'device_dims\('; then
    echo "error: learn builds comm rows from DevicePool::lowered_dims (lines above)" >&2
    exit 1
fi

if code crates/*/src src | grep -E -e '\b(FaultPlan|FaultyCluster|with_faults|TransientFailure|is_transient)\b' \
    -e 'ProvenanceEvent::TransientRetry'; then
    echo "error: a hostile fleet is a DevicePool on the task; no fault injector, no transient retry (lines above)" >&2
    exit 1
fi
if code crates/*/src | grep -E '_with_faults|degraded_comm|lowered_dims_under'; then
    echo "error: one evaluation path; a hostile fleet is a DevicePool on the task (lines above)" >&2
    exit 1
fi
if grep -rnwE 'Partition|NodeCrash' crates; then
    echo "error: one daemon has no control plane to partition or crash (lines above)" >&2
    exit 1
fi
if code crates/*/src | grep -E -e '\b(PlanVerifier|RetryPolicy|with_verifier|with_retry|total_backoff_ms|ConnConfig)\b' -e 'with_seed\('; then
    echo "error: a chain is set by its fallbacks, a connection by constants (lines above)" >&2
    exit 1
fi
repairs=$(code crates/core/src/fallback.rs | grep -cE '\brepair\(' || true)
if code crates/core/src/fallback.rs |
    grep -E -e '\b(check_memory|cluster_for|Cluster|GpuSpec|SimError|first_over_budget)\b' \
        -e '\.evaluate(_exact)?\(|\.validate\(' ||
    [ "$repairs" -ne 2 ]; then
    echo "error: the fallback chain checks a plan only through repair, called in the stage" \
        "loop and in size_balanced_plan ($repairs calls found); it builds no ground-truth" \
        "cluster and never evaluates or validates (lines above)" >&2
    exit 1
fi

if code crates/*/src src | grep -wE 'PlanKv|MatchSeq|KvError|pending_len|Backoff' ||
    [ -e crates/serve/src/kv.rs ]; then
    echo "error: PlanStore is the one record of adopted plans; the wrapped KV, its" \
        "upsert conditions, the op buffer and the backoff builder stay deleted (lines above)" >&2
    exit 1
fi
if code crates/*/src src examples |
    grep -E 'Replicator|ReplicaConfig|FailoverAttribution|X-Nshard-Stale|/v1/repl/|not_leader' ||
    [ -e crates/serve/src/repl.rs ]; then
    echo "error: one daemon, no replication: the store boots from its own files (lines above)" >&2
    exit 1
fi
if grep -rnE 'PlanStoreInner|insert_replica|boot_kv|log_adoption|adopt_and_log' crates/serve/src; then
    echo "error: a plan reaches the store through the one sequenced KV (lines above)" >&2
    exit 1
fi
if grep -rnwE 'TimerWheel|timer_generation|free_tokens|REGISTRY_SHARDS' crates; then
    echo "error: one connection table and one metrics map; no timer heap (lines above)" >&2
    exit 1
fi
if [ -e crates/serve/src/net/timer.rs ]; then
    echo "error: connection deadlines are read off the reactor's table, not a net/timer.rs heap" >&2
    exit 1
fi
if grep -rn 'epoll' crates/serve/src; then
    echo "error: one readiness path, poll(2) on every platform (lines above)" >&2
    exit 1
fi
unsafe_blocks=$(code crates/serve/src/net/sys.rs | grep -c 'unsafe {' || true)
if [ "$unsafe_blocks" -gt 1 ]; then
    echo "error: net::sys holds $unsafe_blocks unsafe blocks; the poll call is the one allowed" >&2
    exit 1
fi

if code crates/*/src | grep -wE 'NUM_SHARDS|with_shards|record_hit' ||
    grep -nw 'Mutex' crates/cost/src/cache.rs; then
    echo "error: the prediction cache takes one lock per batch, not a shard lock per key (lines above)" >&2
    exit 1
fi

if code crates/nn/src/train.rs crates/cost/src/compute.rs crates/cost/src/comm_model.rs |
    grep -wE 'WorkPool|for_each_mut'; then
    echo "error: a fit takes no pool; models fit side by side in the pre-train's lanes (lines above)" >&2
    exit 1
fi
if code crates/core/src/local.rs | grep -w WorkPool; then
    echo "error: the incremental climb builds its candidates serially (lines above)" >&2
    exit 1
fi
if code crates/nn/src/train.rs | grep -E -e '\b(tree_reduce|ShardPass)\b' -e 'Vec<Gradients>'; then
    echo "error: a mini-batch is one pass and one in-order fold into one accumulator;" \
        "no shard slots or tree reduction (lines above)" >&2
    exit 1
fi

if code crates/*/src src | grep -w 'gemm_ref_into'; then
    echo "error: the scalar GEMM reference lives only in tests; PackedGemm is the one kernel (lines above)" >&2
    exit 1
fi
# A tile is an `[f32; NR]` accumulator or a `0..NR` loop; each top-level
# item of gemm.rs is named by its first line.
if code crates/nn/src/gemm.rs | awk '
    { line = $0; sub(/^[^:]*:[0-9]+: /, "", line) }
    line ~ /^(pub(\(crate\))? )?(fn|impl|struct|const|type)[ <]/ { item = line }
    line ~ /; NR\]|\.\.NR([^A-Za-z0-9_]|$)/ &&
        item !~ /^impl PackedGemm|fn (at_b_into|at_b_tile|fold_tile)[<(]/ { print; found = 1 }
    END { exit !found }'; then
    echo "error: gemm.rs tiles only in PackedGemm and at_b_into; a product a · B packs B (lines above)" >&2
    exit 1
fi
if code crates/nn/src/layer.rs | grep -E 'fn forward\('; then
    echo "error: Mlp::forward_in is the one MLP forward; Dense::forward stays deleted (lines above)" >&2
    exit 1
fi
if code crates/nn/src | grep -wE 'OnceLock|Mutex|params_mut|add_row_bias|relu_inplace'; then
    echo "error: a Dense layer is plain data, repacked by Dense::update, and the kernel stores" \
        "bias and ReLU with the product (lines above)" >&2
    exit 1
fi
if code crates/cost/src/compute.rs crates/cost/src/comm_model.rs | grep -E 'fn predict\('; then
    echo "error: one set is a batch of one; price through predict_batch (lines above)" >&2
    exit 1
fi

if grep -n 'nshard-serve' crates/online/Cargo.toml; then
    echo "error: nshard-online, and with it the continual learner, does not depend on the daemon (line above)" >&2
    exit 1
fi
if [ -e crates/learn ]; then
    echo "error: the continual learner is nshard_online::learn; crates/learn stays deleted" >&2
    exit 1
fi
if code crates/*/src src examples | grep -wE \
    'EpochHook|HookAction|NoopHook|DriftModel|DriftFactors|final_full_replan_on_stall|stall_improvement'; then
    echo "error: one online loop: the experiment calls its learner, the standard trace is the one" \
        "drift, and the stall escape is part of the incremental strategy (lines above)" >&2
    exit 1
fi
if [ -e crates/online/src/controller.rs ] || [ -e crates/online/src/detect.rs ]; then
    echo "error: the closed loop is repro ext_online (crates/bench/src/online.rs); the online" \
        "controller and the drift detector stay deleted" >&2
    exit 1
fi
if code crates/*/src src examples | grep -wE \
    'OnlineController|OnlineConfig|ReplanStrategy|ReplanHistory|DriftDetector|DriftThresholds|ReplanTrigger|ReplanAttribution|attributed_to_replan'; then
    echo "error: the closed loop is repro ext_online; its strategies and triggers are private to" \
        "it, and a plan's provenance carries no replan attribution (lines above)" >&2
    exit 1
fi
if code crates/online/src | grep -E 'write_checked\(|read_checked\(|std::fs([^A-Za-z0-9_]|$)'; then
    echo "error: the continual learner decides promotions in memory and holds no files;" \
        "nothing persists a model (lines above)" >&2
    exit 1
fi
if code crates/*/src src examples | grep -E \
    -e '\b(promote_model|swap_bundle|take_observations|observations_buffered)\b' \
    -e '\b(OBSERVATION_VALUE_CAP|ObservationStage|write_model|MODEL_KEY)\b' \
    -e 'start_model_version|model_promotions'; then
    echo "error: a daemon serves the bundle it booted with and keeps no observation; the" \
        "model swap, the observation stage and the model-version machinery stay deleted" \
        "(lines above)" >&2
    exit 1
fi
if code crates src examples |
    grep -E 'ModelLifecycle|FineTuner|load_active|note_model_rollback|model_rollbacks'; then
    echo "error: one model store: the lifecycle's checkpoint directory, FineTuner and the" \
        "rollback counter stay deleted; fine-tune with learn::fine_tune (lines above)" >&2
    exit 1
fi
if code crates/*/src | grep -v '^crates/nn/src/serialize.rs:' | grep -E \
    -e '\bfn fnv64' -e 'nshard-checksum' \
    -e '\bstruct (ModelStore|Checkpoint)\b' -e '\b(LifecycleConfig|RepairConfig)\b'; then
    echo "error: nn::serialize owns the one artifact format; the deleted store, checkpoint and config shims stay deleted (lines above)" >&2
    exit 1
fi

if grep -n 'nshard-serve' crates/bench/Cargo.toml; then
    echo "error: nshard-bench does not depend on the daemon (line above)" >&2
    exit 1
fi
if find crates/bench/src/bin -mindepth 1 ! -name repro.rs | grep .; then
    echo "error: repro is nshard-bench's one binary; load tests are #[test]s (paths above)" >&2
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

if code crates/online/src crates/serve/src | grep -E '(^|[^A-Za-z0-9_])migration_bytes\('; then
    echo "error: a replan is charged by nshard_core::replan_migration_bytes, read off the" \
        "stack's ReplanOutcome or called, never recomputed (lines above)" >&2
    exit 1
fi
if code crates/*/src src |
    grep -wE 'ReplanOutput|IncrementalFellBack|with_split_plan|apply_column_plan|ColumnPlan'; then
    echo "error: one replan record and one plan constructor; the deleted spellings stay" \
        "deleted (lines above)" >&2
    exit 1
fi
if code crates/serve/src | grep -v '^crates/serve/src/sync.rs:' |
    grep -E 'poisoned"|\.(lock|read|write)\(\)[[:space:]]*\.(expect|unwrap)\(|\.wait\([^)]*\)\.(expect|unwrap)\('; then
    echo "error: the daemon takes its locks through serve::sync, which recovers poisoned" \
        "guards (lines above)" >&2
    exit 1
fi

held='(PlanningStack|NeuroShard|CostSimulator)\b'
if code crates/serve/src | grep -E \
    -e "(:[0-9]+: +|\{ *)(pub(\((crate|super)\))? +)?[a-z_][a-z0-9_]*: *([A-Za-z_:]+<)*$held" \
    -e "struct [A-Za-z_]+(<[^>]*>)?\(.*\b$held" -e '\bcache_stats\b'; then
    echo "error: a daemon request builds its own planning stack; nothing under serve/src" \
        "keeps one, or a sharder or simulator, across requests (lines above)" >&2
    exit 1
fi

if code crates/*/src src examples |
    grep -E -e '\b(ConfigError|BeamSearch|BeamSearchResult|with_fallback|FallbackChain)\b' \
        -e 'NeuroShard::try_new'; then
    echo "error: NeuroShard::shard_with_stats is the one search, a chain is one call over" \
        "its stages, and a search config has nothing to validate (lines above)" >&2
    exit 1
fi

stack=crates/online/src/stack.rs
planner=crates/core/src/local.rs
consumers="crates/online/src crates/serve/src"
fail=0
# shellcheck disable=SC2086
if code $consumers crates/core/src | grep -E 'IncrementalPlanner::(new|default)\(' |
    grep -v -e "^$stack:" -e "^$planner:"; then
    echo "error: replan through nshard_online::PlanningStack (lines above)" >&2
    fail=1
fi
# shellcheck disable=SC2086
if code $consumers | grep -w 'shard_with_provenance' | grep -v "^$stack:" ||
    code crates/serve/src | grep -w 'shard_with_provenance'; then
    echo "error: nshard_online::PlanningStack calls the full and the greedy chain;" \
        "no other chain stands beside them (lines above)" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "pricing callers ok ($optional_fleets optional fleet)"
