//! The route table and every handler answered inline on the calling
//! thread: health, metrics, plan fetches and observation reports. Planning
//! POSTs go through admission ([`super::admission`]) to a worker
//! ([`super::respond`]).

use std::sync::Arc;

use crate::api::{error_response, HealthResponse, ObservationsAck, ObservationsRequest};
use crate::http::{HttpRequest, HttpResponse};

use super::admission::{JobKind, OnResponse, ResponseSlot, Routed};
use super::Service;

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
        };
        HttpResponse::json(200, serde_json::to_string(&body).unwrap_or_default())
    }

    /// `POST /v1/observations`: counts the ground-truth cost observations
    /// the serving models can read ([`ObservationWire::is_readable`]) into
    /// `accepted` and `nshard_serve_observations_total`, and keeps none of
    /// them — the daemon serves the bundle it booted with, and the
    /// continual learner runs offline. Answered inline, so observation
    /// storms cannot starve planning jobs of queue capacity.
    ///
    /// [`ObservationWire::is_readable`]: nshard_online::learn::ObservationWire::is_readable
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
        let devices = self.engine.num_devices();
        let accepted = request
            .observations
            .iter()
            .filter(|o| o.is_readable(devices))
            .count() as u64;
        self.metrics.observations.add(accepted);
        self.metrics.count_request("observations", 200);
        let ack = ObservationsAck { accepted };
        HttpResponse::json(200, serde_json::to_string(&ack).unwrap_or_default())
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

    /// Prometheus exposition of the daemon's one registry.
    pub fn render_metrics(&self) -> String {
        self.metrics.registry.render()
    }
}
