//! The route table and every handler answered inline on the calling
//! thread: health, metrics, plan fetches and observation ingest. Planning
//! POSTs go through admission ([`super::admission`]) to a worker
//! ([`super::respond`]).

use std::collections::VecDeque;
use std::sync::Arc;

use nshard_online::learn::ObservationWire;

use crate::api::{error_response, HealthResponse, ObservationsAck, ObservationsRequest};
use crate::http::{HttpRequest, HttpResponse};
use crate::sync;

use super::admission::{JobKind, OnResponse, ResponseSlot, Routed};
use super::Service;

/// Most feature values the daemon stages before evicting the oldest
/// observations — bounds memory under a reporting storm, whatever the
/// observations' shape: 65,536 one-row observations of up to 32 values (a
/// compute row is 8 wide, a comm row on 14 devices 31) fit. The
/// continual-learning loop ([`Service::take_observations`]) owns
/// prioritized sampling; the daemon keeps only a bounded FIFO staging
/// area.
const OBSERVATION_VALUE_CAP: usize = 65_536 * 32;

/// Feature values an observation carries.
fn values(observation: &ObservationWire) -> usize {
    observation.features.iter().map(Vec::len).sum()
}

/// The observations staged for the learning loop, oldest first, and the
/// feature values they hold.
#[derive(Default)]
pub(super) struct ObservationStage {
    observations: VecDeque<ObservationWire>,
    values: usize,
}

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

    /// `POST /v1/observations`: stages ground-truth cost observations for
    /// the continual-learning loop. Answered inline — ingest is a bounded
    /// buffer push, not a search — so observation storms cannot starve
    /// planning jobs of queue capacity. Only observations the serving
    /// models can read ([`ObservationWire::is_readable`]) and that fit the
    /// stage on their own are staged, and `accepted` counts them.
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
        let staged: Vec<ObservationWire> = request
            .observations
            .into_iter()
            .filter(|o| o.is_readable(devices) && values(o) <= OBSERVATION_VALUE_CAP)
            .collect();
        let accepted = staged.len() as u64;
        let buffered = {
            let mut stage = sync::lock(&self.observations);
            for observation in staged {
                stage.values += values(&observation);
                stage.observations.push_back(observation);
                while stage.values > OBSERVATION_VALUE_CAP {
                    let oldest = stage.observations.pop_front().expect("values are staged");
                    stage.values -= values(&oldest);
                }
            }
            stage.observations.len() as u64
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
        let mut stage = sync::lock(&self.observations);
        stage.values = 0;
        stage.observations.drain(..).collect()
    }

    /// Observations currently staged for the learning loop.
    pub fn observations_buffered(&self) -> usize {
        sync::lock(&self.observations).observations.len()
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
