//! Wire types of the JSON API.
//!
//! Requests are deserialized with hand-written impls so optional fields
//! (`deadline_ms`, `incumbent_id`, `adopt`) may simply be omitted — the
//! vendored serde derive requires every field to be present. Responses
//! use the derive; field order is declaration order, and the vendored
//! serializer is deterministic, so identical planning results serialize
//! to **byte-identical** response bodies (the property the 8-thread
//! integration test pins down). No timestamps or other request-scoped
//! entropy may ever enter these types.

use serde::value::Value;
use serde::{Deserialize, Serialize};

use nshard_core::{PlanProvenance, PlanSource, ShardingPlan};
use nshard_data::ShardingTask;

use crate::http::HttpResponse;

/// `POST /v1/plan` — plan a task from scratch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanRequest {
    /// The task to shard.
    pub task: ShardingTask,
    /// Per-request deadline in ms; defaults to 30 s. Expired in queue ⇒
    /// `503`; nearly expired ⇒ degraded (greedy) search.
    pub deadline_ms: Option<u64>,
    /// Store the plan on success (default `true`). Idempotent by plan id.
    pub adopt: bool,
}

impl Deserialize for PlanRequest {
    fn from_value(v: &Value) -> Result<Self, serde::de::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::de::Error::custom("plan request must be a JSON object"))?;
        Ok(Self {
            task: serde::__field(map, "task")?,
            deadline_ms: opt_field(map, "deadline_ms")?,
            adopt: opt_field(map, "adopt")?.unwrap_or(true),
        })
    }
}

/// `POST /v1/replan` — replan warm-started from a stored incumbent.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReplanRequest {
    /// The (drifted) task to shard.
    pub task: ShardingTask,
    /// Incumbent plan id; defaults to the most recently adopted plan.
    pub incumbent_id: Option<String>,
    /// Per-request deadline in ms (see [`PlanRequest::deadline_ms`]).
    pub deadline_ms: Option<u64>,
    /// Store the plan on success (default `true`).
    pub adopt: bool,
}

impl Deserialize for ReplanRequest {
    fn from_value(v: &Value) -> Result<Self, serde::de::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::de::Error::custom("replan request must be a JSON object"))?;
        Ok(Self {
            task: serde::__field(map, "task")?,
            incumbent_id: opt_field(map, "incumbent_id")?,
            deadline_ms: opt_field(map, "deadline_ms")?,
            adopt: opt_field(map, "adopt")?.unwrap_or(true),
        })
    }
}

/// Looks up an optional field: absent or `null` ⇒ `None`.
fn opt_field<T: Deserialize>(
    map: &[(String, Value)],
    key: &str,
) -> Result<Option<T>, serde::de::Error> {
    match map.iter().find(|(k, _)| k == key) {
        None | Some((_, Value::Null)) => Ok(None),
        Some((_, v)) => T::from_value(v)
            .map(Some)
            .map_err(|e| serde::de::Error::custom(format!("field `{key}`: {e}"))),
    }
}

/// Body of a successful `POST /v1/plan`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct PlanResponse {
    /// Content-addressed plan id.
    pub id: String,
    /// Store adoption version (`0` when `adopt` was `false`).
    pub version: u64,
    /// `true` when deadline pressure or chain downgrades degraded the
    /// search.
    pub degraded: bool,
    /// Short stable label of the accepting chain stage.
    pub source: String,
    /// Predicted embedding cost under the cost models, ms.
    pub predicted_ms: f64,
    /// The plan itself.
    pub plan: ShardingPlan,
    /// Full decision record.
    pub provenance: PlanProvenance,
}

/// Body of a successful `POST /v1/replan`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct ReplanResponse {
    /// Content-addressed plan id.
    pub id: String,
    /// Store adoption version (`0` when `adopt` was `false`).
    pub version: u64,
    /// `true` when the search was degraded (see [`PlanResponse::degraded`]).
    pub degraded: bool,
    /// Short stable label of the accepting stage.
    pub source: String,
    /// Predicted embedding cost, ms.
    pub predicted_ms: f64,
    /// Bytes that must move from the incumbent to adopt this plan.
    pub migration_bytes: u64,
    /// `true` when the warm-started incremental planner produced the plan.
    pub incremental: bool,
    /// Candidate plans scored by the incremental planner.
    pub evaluated_plans: u64,
    /// The plan itself.
    pub plan: ShardingPlan,
    /// Full decision record.
    pub provenance: PlanProvenance,
}

/// One ground-truth cost observation reported by a deployment —
/// `(model input features, predicted cost, observed cost)` for exactly
/// one of the three cost models. The serve daemon buffers these verbatim
/// (`POST /v1/observations`); the continual-learning loop drains them
/// with `Service::take_observations` and owns sampling and fine-tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationWire {
    /// Which cost model the sample feeds: `"compute"`, `"comm_forward"`
    /// or `"comm_backward"`.
    pub kind: String,
    /// Model input rows: per-table feature rows for `"compute"`, a single
    /// wrapped feature row for the comm kinds.
    pub features: Vec<Vec<f32>>,
    /// What the currently-served model predicted, ms.
    pub predicted_ms: f64,
    /// What the deployment actually measured, ms.
    pub observed_ms: f64,
}

/// `POST /v1/observations` — report a batch of ground-truth observations.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ObservationsRequest {
    /// The batch; empty batches are accepted (and ack `accepted: 0`).
    pub observations: Vec<ObservationWire>,
}

impl Deserialize for ObservationsRequest {
    fn from_value(v: &Value) -> Result<Self, serde::de::Error> {
        let map = v.as_map().ok_or_else(|| {
            serde::de::Error::custom("observations request must be a JSON object")
        })?;
        Ok(Self {
            observations: serde::__field(map, "observations")?,
        })
    }
}

/// Body of a successful `POST /v1/observations`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct ObservationsAck {
    /// Observations admitted into the buffer by this request.
    pub accepted: u64,
    /// Total observations currently buffered (after bounded eviction).
    pub buffered: u64,
    /// The model version the predictions were scored against (the
    /// engine's current version at ingest time).
    pub model_version: u64,
}

/// Body of every error response.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct ErrorBody {
    /// Short stable error kind (`"queue_full"`, `"deadline_expired"`,
    /// `"bad_request"`, `"not_found"`, `"infeasible"`, ...).
    pub error: String,
    /// Human-readable detail.
    pub detail: String,
}

/// An error response: `status` with an [`ErrorBody`] of `kind` and
/// `detail`, serialized with a hand-rolled fallback that cannot fail.
pub(crate) fn error_response(status: u16, kind: &str, detail: String) -> HttpResponse {
    let body = ErrorBody {
        error: kind.to_string(),
        detail,
    };
    HttpResponse::json(
        status,
        serde_json::to_string(&body)
            .unwrap_or_else(|_| "{\"error\":\"internal\",\"detail\":\"\"}".to_string()),
    )
}

/// Body of `GET /health`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct HealthResponse {
    /// Always `"ok"` when the daemon can respond at all.
    pub status: String,
    /// Number of adopted plans in the store.
    pub plans: u64,
    /// Number of worker threads draining the queue.
    pub workers: u64,
    /// Bounded queue capacity.
    pub queue_capacity: u64,
    /// This node's replication role (`"leader"`, `"follower"`,
    /// `"candidate"`).
    pub role: String,
    /// Version of the cost-model bundle currently serving predictions;
    /// starts at `1` and increments on every continual-learning
    /// promotion (or replicated model swap).
    pub model_version: u64,
}

/// Body of `GET /v1/repl/status` — a replica's replication facts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct ReplStatus {
    /// The node's configured name.
    pub node: String,
    /// Current role label.
    pub role: String,
    /// Sequence of the last applied mutation.
    pub applied_seq: u64,
    /// `true` when serving in degraded stale-read mode after a failover.
    pub stale: bool,
    /// Oldest sequence still in the retained op log.
    pub log_earliest: u64,
    /// Retained op-log length.
    pub log_len: u64,
    /// Plans materialized in the local store.
    pub plans: u64,
}

/// Short stable label for a [`PlanSource`], used in responses and metric
/// labels.
pub(crate) fn source_label(source: &PlanSource) -> String {
    match source {
        PlanSource::Primary { algorithm } => format!("primary:{algorithm}"),
        PlanSource::Repaired {
            algorithm,
            repair_steps,
        } => format!("repaired:{algorithm}:{repair_steps}"),
        PlanSource::Fallback { algorithm } => format!("fallback:{algorithm}"),
        PlanSource::SizeBalanced => "size_balanced".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_data::{TableConfig, TableId};

    fn task_json() -> String {
        let tables: Vec<TableConfig> = (0..2)
            .map(|i| TableConfig::new(TableId(i), 16, 1024, 4.0, 1.0))
            .collect();
        serde_json::to_string(&ShardingTask::new(tables, 2, 1 << 30, 256)).unwrap()
    }

    #[test]
    fn plan_request_defaults_optional_fields() {
        let body = format!("{{\"task\":{}}}", task_json());
        let req: PlanRequest = serde_json::from_str(&body).unwrap();
        assert_eq!(req.deadline_ms, None);
        assert!(req.adopt);
        assert_eq!(req.task.num_devices(), 2);
    }

    #[test]
    fn plan_request_honors_explicit_fields() {
        let body = format!(
            "{{\"task\":{},\"deadline_ms\":1500,\"adopt\":false}}",
            task_json()
        );
        let req: PlanRequest = serde_json::from_str(&body).unwrap();
        assert_eq!(req.deadline_ms, Some(1500));
        assert!(!req.adopt);
    }

    #[test]
    fn replan_request_parses_incumbent_id() {
        let body = format!("{{\"task\":{},\"incumbent_id\":\"abc123\"}}", task_json());
        let req: ReplanRequest = serde_json::from_str(&body).unwrap();
        assert_eq!(req.incumbent_id.as_deref(), Some("abc123"));
        assert!(req.adopt);
    }

    #[test]
    fn missing_task_is_an_error() {
        let err = serde_json::from_str::<PlanRequest>("{}").unwrap_err();
        assert!(err.to_string().contains("task"));
    }

    #[test]
    fn observations_request_round_trips() {
        let wire = ObservationWire {
            kind: "compute".into(),
            features: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            predicted_ms: 1.5,
            observed_ms: 2.0,
        };
        let body = format!(
            "{{\"observations\":[{}]}}",
            serde_json::to_string(&wire).unwrap()
        );
        let req: ObservationsRequest = serde_json::from_str(&body).unwrap();
        assert_eq!(req.observations, vec![wire]);
    }

    #[test]
    fn observations_request_requires_the_field() {
        let err = serde_json::from_str::<ObservationsRequest>("{}").unwrap_err();
        assert!(err.to_string().contains("observations"));
    }

    #[test]
    fn source_labels_are_stable() {
        assert_eq!(
            source_label(&PlanSource::Primary {
                algorithm: "neuroshard".into()
            }),
            "primary:neuroshard"
        );
        assert_eq!(source_label(&PlanSource::SizeBalanced), "size_balanced");
    }
}
