//! The route table and every handler answered inline on the calling
//! thread: health, metrics, plan fetches and observation ingest. Planning
//! POSTs go through admission ([`super::admission`]) to a worker
//! ([`super::respond`]).

use std::sync::Arc;

use nshard_online::learn::ObservationWire;

use crate::api::{error_response, HealthResponse, ObservationsAck, ObservationsRequest};
use crate::http::{HttpRequest, HttpResponse};
use crate::sync;

use super::admission::{JobKind, OnResponse, ResponseSlot, Routed};
use super::Service;

/// Most ground-truth observations the daemon buffers before evicting the
/// oldest — bounds memory under a reporting storm. The continual-learning
/// loop ([`Service::take_observations`]) owns prioritized sampling; the
/// daemon keeps only a bounded FIFO staging area.
const OBSERVATION_BUFFER_CAP: usize = 65_536;

impl Service {
    /// Answers a request end to end, blocking until a worker (or the
    /// caller's own [`Service::drain_one`]) produces the response.
    pub fn handle_blocking(&self, request: &HttpRequest) -> HttpResponse {
        match self.route(request) {
            Routed::Inline(response) => response,
            Routed::Queued(slot) => slot.wait(),
        }
    }

    /// Routes a request without a socket: GETs answered inline, planning
    /// POSTs admitted to the queue (the returned slot resolves when a
    /// worker finishes). Same dispatch as the reactor's `route_async`,
    /// with a slot-filling callback.
    pub fn route(&self, request: &HttpRequest) -> Routed {
        let slot = ResponseSlot::new();
        let filled = Arc::clone(&slot);
        match self.route_async(request, Box::new(move |response| filled.put(response))) {
            Some(response) => Routed::Inline(response),
            None => Routed::Queued(slot),
        }
    }

    /// Routes a request: inline answers return `Some(response)`
    /// immediately; planning POSTs are admitted with `on_response` as the
    /// delivery callback and return `None` (the callback fires from a
    /// worker thread when the job completes). Admission rejections
    /// (429/503) and response-cache hits come back inline, so the
    /// callback fires **only** for admitted jobs.
    pub(crate) fn route_async(
        &self,
        request: &HttpRequest,
        on_response: OnResponse,
    ) -> Option<HttpResponse> {
        let inline = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/health") => self.health(),
            ("GET", "/metrics") => HttpResponse::text(200, self.render_metrics()),
            ("GET", path) if path.starts_with("/v1/plans/") => {
                self.get_plan(&path["/v1/plans/".len()..])
            }
            ("POST", "/v1/plan") => {
                return self.admit(JobKind::Plan, request.body.clone(), on_response)
            }
            ("POST", "/v1/replan") => {
                return self.admit(JobKind::Replan, request.body.clone(), on_response)
            }
            ("POST", "/v1/observations") => self.ingest_observations(&request.body),
            ("POST", _) | ("GET", _) => {
                self.metrics.count_request("other", 404);
                error_response(
                    404,
                    "not_found",
                    format!("no route for {} {}", request.method, request.path),
                )
            }
            (method, _) => {
                self.metrics.count_request("other", 405);
                error_response(
                    405,
                    "method_not_allowed",
                    format!("method {method} not supported"),
                )
            }
        };
        Some(inline)
    }

    fn health(&self) -> HttpResponse {
        self.metrics.count_request("health", 200);
        let body = HealthResponse {
            status: "ok".into(),
            plans: self.plans.len() as u64,
            workers: self.workers as u64,
            queue_capacity: self.config.queue_capacity as u64,
            model_version: self.engine.model_version(),
        };
        HttpResponse::json(200, serde_json::to_string(&body).unwrap_or_default())
    }

    /// `POST /v1/observations`: buffers ground-truth cost observations
    /// for the continual-learning loop. Answered inline — ingest is a
    /// bounded buffer push, not a search — so observation storms cannot
    /// starve planning jobs of queue capacity.
    fn ingest_observations(&self, body: &[u8]) -> HttpResponse {
        let request =
            match serde_json::from_str::<ObservationsRequest>(&String::from_utf8_lossy(body)) {
                Ok(request) => request,
                Err(e) => {
                    self.metrics.count_request("observations", 400);
                    return error_response(
                        400,
                        "bad_request",
                        format!("invalid observations body: {e}"),
                    );
                }
            };
        let accepted = request.observations.len() as u64;
        let buffered = {
            let mut buffer = sync::lock(&self.observations);
            buffer.extend(request.observations);
            while buffer.len() > OBSERVATION_BUFFER_CAP {
                buffer.pop_front();
            }
            buffer.len() as u64
        };
        self.metrics.observations.add(accepted);
        self.metrics.count_request("observations", 200);
        let ack = ObservationsAck {
            accepted,
            buffered,
            model_version: self.engine.model_version(),
        };
        HttpResponse::json(200, serde_json::to_string(&ack).unwrap_or_default())
    }

    /// Drains every buffered ground-truth observation — the
    /// continual-learning loop's pull path.
    pub fn take_observations(&self) -> Vec<ObservationWire> {
        sync::lock(&self.observations).drain(..).collect()
    }

    /// Observations currently staged for the learning loop.
    pub fn observations_buffered(&self) -> usize {
        sync::lock(&self.observations).len()
    }

    /// `GET /v1/plans/{id}`.
    fn get_plan(&self, id: &str) -> HttpResponse {
        let Some(stored) = self.plans.get(id) else {
            self.metrics.count_request("plans_get", 404);
            return error_response(404, "not_found", format!("no stored plan with id {id}"));
        };
        self.metrics.count_request("plans_get", 200);
        HttpResponse::json(200, serde_json::to_string(&stored).unwrap_or_default())
    }

    /// Prometheus exposition of the daemon's one registry. The
    /// prediction-cache series carry a `model_version` label, one pair per
    /// model version that has served, so dashboards can attribute hit-rate
    /// and cost shifts to a promotion event.
    pub fn render_metrics(&self) -> String {
        self.metrics.registry.render()
    }
}
