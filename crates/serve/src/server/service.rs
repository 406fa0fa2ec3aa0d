//! [`Service`]: the state every request handler shares, its construction
//! and the model lifecycle's entry points. No planning state is shared:
//! the engine builds each request's planning stack, and a promotion
//! installs a bundle under the next model version.

use std::sync::{Arc, Mutex};

use nshard_cost::CostModelBundle;
use nshard_nn::serialize::{envelope_from_json, envelope_to_json};
use nshard_pool::resolve_threads;

use crate::clock::{Clock, WallClock};
use crate::engine::PlanningEngine;
use crate::metrics::ServiceMetrics;
use crate::store::{PlanStore, StoreError};

use super::admission::AdmissionQueue;
use super::cache::ResponseCache;
use super::routes::ObservationStage;
use super::ServeConfig;

/// The daemon's service layer: everything minus the TCP accept loop, so
/// tests can drive it synchronously ([`Service::drain_one`]) with a
/// manual clock and zero sleeps.
///
/// Its handlers are grouped by concern: routing and the inline endpoints
/// in `server::routes`, admission in `server::admission`, and the
/// worker's plan/replan responses in `server::respond`.
pub struct Service {
    pub(crate) config: ServeConfig,
    pub(crate) engine: PlanningEngine,
    pub(crate) plans: PlanStore,
    pub(super) clock: Arc<dyn Clock>,
    pub(super) queue: AdmissionQueue,
    pub(crate) metrics: ServiceMetrics,
    pub(super) workers: usize,
    pub(super) response_cache: Option<Mutex<ResponseCache>>,
    pub(super) observations: Mutex<ObservationStage>,
}

impl Service {
    /// Builds the service from a pre-trained bundle. With a `store_dir`,
    /// the service boots from the files there: their plans, and the
    /// promoted bundle `models/active` holds, which replaces `bundle`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when `store_dir` exists but cannot be opened or
    /// holds an unloadable plan.
    pub fn new(bundle: CostModelBundle, config: ServeConfig) -> Result<Self, StoreError> {
        Self::with_clock(bundle, config, Arc::new(WallClock::new()))
    }

    /// Same, with an explicit clock (tests inject a
    /// [`crate::clock::ManualClock`]).
    ///
    /// # Errors
    ///
    /// [`StoreError`] as for [`Service::new`].
    pub fn with_clock(
        bundle: CostModelBundle,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, StoreError> {
        let (plans, promoted) = PlanStore::open(config.store_dir.as_deref())?;
        let engine = PlanningEngine::new(bundle, config.search, config.incremental, 0);
        // A bundle promoted before the restart serves again, under the
        // next model version; one that does not decode is left unserved.
        if let Some(Ok(envelope)) = promoted.map(|json| envelope_from_json(&json)) {
            engine.swap_bundle(envelope.payload);
        }
        let metrics = ServiceMetrics::new();
        metrics.start_model_version(engine.model_version());
        metrics.store_quarantined.set(plans.quarantined() as u64);
        let queue = AdmissionQueue::new(config.queue_capacity, Arc::clone(&metrics.queue_depth));
        let workers = resolve_threads(config.workers);
        let response_cache = (config.response_cache_entries > 0)
            .then(|| Mutex::new(ResponseCache::new(config.response_cache_entries)));
        Ok(Self {
            config,
            engine,
            plans,
            clock,
            queue,
            metrics,
            workers,
            response_cache,
            observations: Mutex::default(),
        })
    }

    /// The plan store (tests and the demo inspect it directly).
    pub fn plans(&self) -> &PlanStore {
        &self.plans
    }

    /// The daemon configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The resolved worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The model version currently serving predictions.
    pub fn model_version(&self) -> u64 {
        self.engine.model_version()
    }

    /// Atomically promotes a fine-tuned cost-model bundle into the
    /// serving engine: the bundle is installed under one write lock and
    /// the model version bumped, so every request that starts after it
    /// plans with the new bundle, and the bundle is written to the store
    /// as `models/active`, one sequenced write (a failed save leaves it
    /// serving until the next restart). Returns the new model version.
    pub fn promote_model(&self, bundle: &CostModelBundle) -> u64 {
        let version = self.engine.swap_bundle(bundle.clone());
        self.metrics.model_promotions.inc();
        self.metrics.start_model_version(version);
        let _ = self
            .plans
            .write_model(envelope_to_json("cost-bundle", "nshard", bundle));
        version
    }
}
