//! What a worker does with an admitted job: deadline check, degradation
//! decision, plan or replan through the engine, adoption into the store
//! (one sequenced write), the response body, and its response-cache entry.
//!
//! A worker that pops an already-expired job answers `503` without
//! searching, and a job whose remaining budget is below
//! [`DEGRADE_BELOW_MS`] takes the **degraded** (greedy) chain rather than
//! erroring — the fallback chain's discipline applied to deadlines.

use nshard_core::PlanSource;
use nshard_data::ShardingTask;
use nshard_online::ReplanRoute;

use crate::api::{
    error_response, source_label, PlanRequest, PlanResponse, ReplanRequest, ReplanResponse,
};
use crate::engine::PlanOutput;
use crate::http::HttpResponse;
use crate::store::StoreError;
use crate::sync;

use super::admission::{Job, JobKind};
use super::cache::response_cache_key;
use super::Service;

/// Deadline applied when a request does not carry one, ms.
const DEFAULT_DEADLINE_MS: u64 = 30_000;

/// Remaining-budget threshold below which a request takes the degraded
/// (greedy) chain instead of the full search, ms.
const DEGRADE_BELOW_MS: u64 = 250;

/// Parsed request body, by endpoint.
enum Parsed {
    Plan(PlanRequest),
    Replan(ReplanRequest),
}

impl Parsed {
    /// The task and the deadline the request names.
    fn task_and_deadline(&self) -> (&ShardingTask, Option<u64>) {
        match self {
            Parsed::Plan(request) => (&request.task, request.deadline_ms),
            Parsed::Replan(request) => (&request.task, request.deadline_ms),
        }
    }
}

impl Service {
    pub(super) fn process(&self, job: Job) {
        let started_ms = self.clock.now_ms();
        let response = self.respond(&job, started_ms);
        self.metrics.search_latency.observe(
            (self.clock.now_ms() - started_ms) as f64 + (started_ms - job.enqueued_ms) as f64,
        );
        self.metrics
            .count_request(job.kind.endpoint(), response.status);
        (job.on_response)(response);
    }

    /// Produces the response for one job: deadline check, degradation
    /// decision, parse, plan, adopt, serialize.
    fn respond(&self, job: &Job, now_ms: u64) -> HttpResponse {
        let body = String::from_utf8_lossy(&job.body);
        let parsed = match job.kind {
            JobKind::Plan => serde_json::from_str(&body).map(Parsed::Plan),
            JobKind::Replan => serde_json::from_str(&body).map(Parsed::Replan),
        };
        let parsed = match parsed {
            Ok(parsed) => parsed,
            Err(e) => {
                return error_response(400, "bad_request", format!("invalid request body: {e}"))
            }
        };
        let (task, deadline_ms) = parsed.task_and_deadline();
        let deadline_ms = deadline_ms.unwrap_or(DEFAULT_DEADLINE_MS);
        // A device count the models cannot price is the client's error:
        // answered here, ahead of deadline, cache and engine (which would
        // return it as a typed `Invalid`).
        if let Err(detail) = self.engine.check_device_count(task.num_devices()) {
            return error_response(400, "unsupported_device_count", detail);
        }

        let waited_ms = now_ms.saturating_sub(job.enqueued_ms);
        if waited_ms >= deadline_ms {
            self.metrics.count_rejection("deadline");
            return error_response(
                503,
                "deadline_expired",
                format!("request waited {waited_ms} ms against a {deadline_ms} ms deadline"),
            )
            .with_retry_after(1);
        }
        // Deadline-pressed: not enough budget left for a beam search, so
        // degrade to the greedy chain instead of erroring later.
        let degrade = deadline_ms - waited_ms < DEGRADE_BELOW_MS;

        // The cache was read at admission; a worker only fills it, and only
        // with a full-budget `200`, so a deadline-pressed answer is never
        // replayed. The generation is read before planning, as the entry
        // describes the store the request saw, and the entry is stored only
        // if that generation is still current once the answer has settled:
        // past an adoption (an adopting replan's own, say) no
        // request could read it, and it would only evict a live entry.
        let entry = self
            .response_cache
            .as_ref()
            .map(|cache| (cache, self.cache_generation(job.kind)));
        let response = match parsed {
            Parsed::Plan(request) => self.respond_plan(request, degrade),
            Parsed::Replan(request) => self.respond_replan(request, degrade),
        };
        if let Some((cache, generation)) = entry {
            let live = self.cache_generation(job.kind) == generation;
            if response.status == 200 && !degrade && live {
                let key = response_cache_key(job.kind, generation, &job.body);
                sync::lock(cache).put(key, response.clone());
            }
        }
        response
    }

    /// What both planning answers do with the engine's output: count the
    /// outcome and its prediction-cache lookups, and adopt it when asked. Returns the store version (`0`
    /// when not adopted), or the `500` a failed store write answers.
    fn settle(
        &self,
        task: ShardingTask,
        output: &PlanOutput,
        adopt: bool,
    ) -> Result<u64, HttpResponse> {
        self.metrics.cache_hits.add(output.cache.hits);
        self.metrics.cache_misses.add(output.cache.misses);
        if output.degraded {
            self.metrics.degraded.inc();
        }
        match &output.provenance.source {
            PlanSource::Repaired { .. } => self.metrics.repairs.inc(),
            PlanSource::Fallback { .. } | PlanSource::SizeBalanced => self.metrics.fallbacks.inc(),
            PlanSource::Primary { .. } => {}
        }
        if !adopt {
            return Ok(0);
        }
        let adopted = self.plans.adopt(
            &output.id,
            task,
            output.plan.clone(),
            output.provenance.clone(),
            output.predicted_ms,
            output.degraded,
        );
        adopted.map_err(|e| {
            if matches!(e, StoreError::Conflict(_)) {
                self.metrics.seq_conflicts.inc();
            }
            error_response(500, "store_failed", e.to_string())
        })
    }

    fn respond_plan(&self, request: PlanRequest, degrade: bool) -> HttpResponse {
        let output = match self.engine.plan(&request.task, degrade) {
            Ok(output) => output,
            Err(e) => return error_response(422, "infeasible", e.to_string()),
        };
        let version = match self.settle(request.task, &output, request.adopt.unwrap_or(true)) {
            Ok(version) => version,
            Err(response) => return response,
        };
        let body = PlanResponse {
            id: output.id,
            version,
            degraded: output.degraded,
            source: source_label(&output.provenance.source),
            predicted_ms: output.predicted_ms,
            plan: output.plan,
            provenance: output.provenance,
        };
        HttpResponse::json(200, serde_json::to_string(&body).unwrap_or_default())
    }

    fn respond_replan(&self, request: ReplanRequest, degrade: bool) -> HttpResponse {
        let incumbent = match &request.incumbent_id {
            Some(id) => self.plans.get(id),
            None => self.plans.latest(),
        };
        let Some(incumbent) = incumbent else {
            return error_response(
                404,
                "no_incumbent",
                match &request.incumbent_id {
                    Some(id) => format!("no stored plan with id {id}"),
                    None => "the store holds no plan to warm-start from".to_string(),
                },
            );
        };
        let (output, migration_bytes, route) =
            match self.engine.replan(&request.task, &incumbent.plan, degrade) {
                Ok(re) => re,
                Err(e) => return error_response(422, "infeasible", e.to_string()),
            };
        let version = match self.settle(request.task, &output, request.adopt.unwrap_or(true)) {
            Ok(version) => version,
            Err(response) => return response,
        };
        let evaluated_plans = match route {
            ReplanRoute::Incremental {
                evaluated_plans, ..
            } => Some(evaluated_plans as u64),
            ReplanRoute::FellBack { .. } => None,
        };
        let body = ReplanResponse {
            id: output.id,
            version,
            degraded: output.degraded,
            source: source_label(&output.provenance.source),
            predicted_ms: output.predicted_ms,
            migration_bytes,
            incremental: evaluated_plans.is_some(),
            evaluated_plans: evaluated_plans.unwrap_or(0),
            plan: output.plan,
            provenance: output.provenance,
        };
        HttpResponse::json(200, serde_json::to_string(&body).unwrap_or_default())
    }
}
