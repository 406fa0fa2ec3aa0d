//! Wire types of the JSON API.
//!
//! Requests and responses use the derive; a request's optional fields
//! (`deadline_ms`, `incumbent_id`, `adopt`) are `#[serde(default)]`
//! options, so omitting one and sending `null` both mean "not given".
//! Field order is declaration order, and the vendored serializer is
//! deterministic, so identical planning results serialize to
//! **byte-identical** response bodies (the property the 8-thread
//! integration test pins down). No timestamps or other request-scoped
//! entropy may ever enter these types.

use serde::{Deserialize, Serialize};

use nshard_core::{PlanProvenance, PlanSource, ShardingPlan};
use nshard_data::ShardingTask;
use nshard_online::learn::ObservationWire;

use crate::http::HttpResponse;

/// `POST /v1/plan` — plan a task from scratch.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct PlanRequest {
    /// The task to shard.
    pub task: ShardingTask,
    /// Per-request deadline in ms; defaults to 30 s. Expired in queue ⇒
    /// `503`; nearly expired ⇒ degraded (greedy) search.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Store the plan on success (`None` means `true`). Idempotent by
    /// plan id.
    #[serde(default)]
    pub adopt: Option<bool>,
}

/// `POST /v1/replan` — replan warm-started from a stored incumbent.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct ReplanRequest {
    /// The (drifted) task to shard.
    pub task: ShardingTask,
    /// Incumbent plan id; defaults to the most recently adopted plan.
    #[serde(default)]
    pub incumbent_id: Option<String>,
    /// Per-request deadline in ms (see [`PlanRequest::deadline_ms`]).
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Store the plan on success (`None` means `true`).
    #[serde(default)]
    pub adopt: Option<bool>,
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
    /// Bytes adopting this plan moves from the incumbent
    /// ([`nshard_core::replan_migration_bytes`]): the migration from the
    /// incumbent rebased onto the task, or every byte of the task when the
    /// incumbent no longer rebases onto it.
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

/// `POST /v1/observations` — report a batch of ground-truth observations.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct ObservationsRequest {
    /// The batch; empty batches are accepted (and ack `accepted: 0`).
    pub observations: Vec<ObservationWire>,
}

/// Body of a successful `POST /v1/observations`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct ObservationsAck {
    /// Observations in the request the serving models can read.
    pub accepted: u64,
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
        assert_eq!(req.adopt, None);
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
        assert_eq!(req.adopt, Some(false));
    }

    #[test]
    fn replan_request_parses_incumbent_id() {
        let body = format!("{{\"task\":{},\"incumbent_id\":\"abc123\"}}", task_json());
        let req: ReplanRequest = serde_json::from_str(&body).unwrap();
        assert_eq!(req.incumbent_id.as_deref(), Some("abc123"));
        assert_eq!(req.adopt, None);
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

    use serde::de::Error;
    use serde::value::Value;

    /// A decoded plan or replan request: task, incumbent id, deadline and
    /// whether to adopt.
    type Decoded = (ShardingTask, Option<String>, Option<u64>, bool);

    /// The hand-written decoders the derive replaced, kept as the wire
    /// reference: absent or `null` is `None`, `adopt` defaults to `true`.
    fn reference_decode(v: &Value, replan: bool) -> Result<Decoded, Error> {
        fn opt_field<T: Deserialize>(
            map: &[(String, Value)],
            key: &str,
        ) -> Result<Option<T>, Error> {
            match map.iter().find(|(k, _)| k == key) {
                None | Some((_, Value::Null)) => Ok(None),
                Some((_, v)) => T::from_value(v)
                    .map(Some)
                    .map_err(|e| Error::custom(format!("field `{key}`: {e}"))),
            }
        }
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("request must be a JSON object"))?;
        let incumbent_id = if replan {
            opt_field(map, "incumbent_id")?
        } else {
            None
        };
        Ok((
            serde::__field(map, "task")?,
            incumbent_id,
            opt_field(map, "deadline_ms")?,
            opt_field(map, "adopt")?.unwrap_or(true),
        ))
    }

    fn derived_decode(body: &str, replan: bool) -> Result<Decoded, serde_json::Error> {
        if replan {
            let r: ReplanRequest = serde_json::from_str(body)?;
            Ok((
                r.task,
                r.incumbent_id,
                r.deadline_ms,
                r.adopt.unwrap_or(true),
            ))
        } else {
            let r: PlanRequest = serde_json::from_str(body)?;
            Ok((r.task, None, r.deadline_ms, r.adopt.unwrap_or(true)))
        }
    }

    #[test]
    fn derived_request_decoders_accept_and_reject_as_the_hand_written_ones() {
        let task = task_json();
        let mut bodies = vec![
            "[]".to_string(),
            "\"plan\"".into(),
            "7".into(),
            "null".into(),
        ];
        for (field, explicit, wrong) in [
            ("deadline_ms", "1500", "\"soon\""),
            ("deadline_ms", "0", "-1"),
            ("incumbent_id", "\"abc123\"", "7"),
            ("adopt", "false", "\"yes\""),
            ("adopt", "true", "1"),
        ] {
            bodies.push(format!("{{\"task\":{task}}}"));
            for value in ["null", explicit, wrong] {
                bodies.push(format!("{{\"task\":{task},\"{field}\":{value}}}"));
            }
        }
        for replan in [false, true] {
            for body in &bodies {
                let want = reference_decode(&serde_json::parse_value(body).unwrap(), replan);
                let got = derived_decode(body, replan);
                assert_eq!(got.is_ok(), want.is_ok(), "{body}: {got:?} vs {want:?}");
                if let (Ok(got), Ok(want)) = (got, want) {
                    assert_eq!(got, want, "{body}");
                }
            }
        }
        let adopt_null = format!("{{\"task\":{task},\"adopt\":null}}");
        assert!(derived_decode(&adopt_null, false).unwrap().3);
        for body in ["[]", "\"observations\"", "null"] {
            assert!(serde_json::from_str::<ObservationsRequest>(body).is_err());
        }
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
