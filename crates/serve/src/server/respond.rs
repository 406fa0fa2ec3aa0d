//! What a worker does with an admitted job: deadline check, degradation
//! decision, response-cache lookup, plan or replan through the engine,
//! failover attribution, adoption into the store and the replication
//! log, and the response body.
//!
//! A worker that pops an already-expired job answers `503` without
//! searching, and a job whose remaining budget is below
//! [`DEGRADE_BELOW_MS`] takes the **degraded** (greedy) chain rather than
//! erroring — the `FallbackChain` discipline applied to deadlines.

use nshard_core::{PlanProvenance, PlanSource, ShardingPlan};
use nshard_data::ShardingTask;

use crate::api::{
    error_response, source_label, PlanRequest, PlanResponse, ReplanRequest, ReplanResponse,
};
use crate::http::HttpResponse;
use crate::store::StoreError;

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
    fn task(&self) -> &ShardingTask {
        match self {
            Parsed::Plan(request) => &request.task,
            Parsed::Replan(request) => &request.task,
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
        let parsed_deadline = match job.kind {
            JobKind::Plan => {
                serde_json::from_str::<PlanRequest>(&String::from_utf8_lossy(&job.body)).map(|r| {
                    let deadline = r.deadline_ms;
                    (Parsed::Plan(r), deadline)
                })
            }
            JobKind::Replan => serde_json::from_str::<ReplanRequest>(&String::from_utf8_lossy(
                &job.body,
            ))
            .map(|r| {
                let deadline = r.deadline_ms;
                (Parsed::Replan(r), deadline)
            }),
        };
        let (parsed, deadline_ms) = match parsed_deadline {
            Ok((parsed, deadline)) => (parsed, deadline.unwrap_or(DEFAULT_DEADLINE_MS)),
            Err(e) => {
                return error_response(400, "bad_request", format!("invalid request body: {e}"))
            }
        };
        // A device count the models cannot price is the client's error:
        // answered here, ahead of deadline, cache and engine (which would
        // return it as a typed `Invalid`).
        if let Err(detail) = self.engine.check_device_count(parsed.task().num_devices()) {
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

        // Cache lookup happens only after the deadline check: an expired
        // request answers 503 whether or not its twin is cached — the
        // shed/degrade semantics are identical with the cache on or off.
        let cache_key = self.response_cache.as_ref().map(|_| {
            response_cache_key(
                job.kind,
                degrade,
                self.cache_generation(job.kind),
                &job.body,
            )
        });
        if let (Some(cache), Some(key)) = (&self.response_cache, cache_key) {
            if let Some(hit) = cache.lock().expect("cache poisoned").get(key) {
                self.metrics.response_cache_hits.inc();
                return hit;
            }
            self.metrics.response_cache_misses.inc();
        }

        let response = match parsed {
            Parsed::Plan(request) => self.respond_plan(request, degrade),
            Parsed::Replan(request) => self.respond_replan(request, degrade),
        };
        if let (Some(cache), Some(key)) = (&self.response_cache, cache_key) {
            if response.status == 200 {
                cache
                    .lock()
                    .expect("cache poisoned")
                    .put(key, response.clone());
            }
        }
        response
    }

    /// Stamps failover attribution onto new plans produced after this
    /// node promoted itself — every plan records *which* node took over,
    /// at what sequence, and whether it was known stale.
    fn attribute_failover(&self, provenance: PlanProvenance) -> PlanProvenance {
        match self.role.promoted_at() {
            Some(at_seq) => provenance.attributed_to_failover(
                self.config.replica.node.clone(),
                at_seq,
                self.role.stale(),
            ),
            None => provenance,
        }
    }

    /// Adopts into the plan store and, when the adoption is new, appends
    /// it to the replication log.
    fn adopt_and_log(
        &self,
        id: &str,
        task: ShardingTask,
        plan: ShardingPlan,
        provenance: PlanProvenance,
        predicted_ms: f64,
        degraded: bool,
    ) -> Result<u64, StoreError> {
        let (stored, newly_adopted) =
            self.plans
                .adopt(id, task, plan, provenance, predicted_ms, degraded)?;
        if newly_adopted {
            self.log_adoption(&stored);
        }
        Ok(stored.version)
    }

    fn respond_plan(&self, request: PlanRequest, degrade: bool) -> HttpResponse {
        let output = match self.engine.plan(&request.task, degrade) {
            Ok(output) => output,
            Err(e) => return error_response(422, "infeasible", e.to_string()),
        };
        let provenance = self.attribute_failover(output.provenance);
        self.observe_outcome(&provenance, output.degraded);
        let version = if request.adopt {
            match self.adopt_and_log(
                &output.id,
                request.task,
                output.plan.clone(),
                provenance.clone(),
                output.predicted_ms,
                output.degraded,
            ) {
                Ok(version) => version,
                Err(e) => return error_response(500, "store_failed", e.to_string()),
            }
        } else {
            0
        };
        let body = PlanResponse {
            id: output.id,
            version,
            degraded: output.degraded,
            source: source_label(&provenance.source),
            predicted_ms: output.predicted_ms,
            plan: output.plan,
            provenance,
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
        let re = match self.engine.replan(&request.task, &incumbent.plan, degrade) {
            Ok(re) => re,
            Err(e) => return error_response(422, "infeasible", e.to_string()),
        };
        let provenance = self.attribute_failover(re.output.provenance.clone());
        self.observe_outcome(&provenance, re.output.degraded);
        let version = if request.adopt {
            match self.adopt_and_log(
                &re.output.id,
                request.task,
                re.output.plan.clone(),
                provenance.clone(),
                re.output.predicted_ms,
                re.output.degraded,
            ) {
                Ok(version) => version,
                Err(e) => return error_response(500, "store_failed", e.to_string()),
            }
        } else {
            0
        };
        let body = ReplanResponse {
            id: re.output.id,
            version,
            degraded: re.output.degraded,
            source: source_label(&provenance.source),
            predicted_ms: re.output.predicted_ms,
            migration_bytes: re.migration_bytes,
            incremental: re.incremental,
            evaluated_plans: re.evaluated_plans as u64,
            plan: re.output.plan,
            provenance,
        };
        HttpResponse::json(200, serde_json::to_string(&body).unwrap_or_default())
    }

    fn observe_outcome(&self, provenance: &PlanProvenance, degraded: bool) {
        if degraded {
            self.metrics.degraded.inc();
        }
        match &provenance.source {
            PlanSource::Repaired { .. } => self.metrics.repairs.inc(),
            PlanSource::Fallback { .. } | PlanSource::SizeBalanced => self.metrics.fallbacks.inc(),
            PlanSource::Primary { .. } => {}
        }
    }
}
