//! [`Service`]: the state every request handler shares, its construction
//! and the model lifecycle's entry points.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use nshard_cost::CostModelBundle;
use nshard_online::ObservationWire;
use nshard_pool::resolve_threads;

use crate::clock::{Clock, WallClock};
use crate::engine::PlanningEngine;
use crate::metrics::ServiceMetrics;
use crate::repl::{Role, RoleCell};
use crate::store::{PlanStore, StoreError};

use super::admission::AdmissionQueue;
use super::cache::ResponseCache;
use super::ServeConfig;

/// The daemon's service layer: everything minus the TCP accept loop, so
/// tests can drive it synchronously ([`Service::drain_one`]) with a
/// manual clock and zero sleeps.
///
/// Its handlers are grouped by concern: routing and the inline endpoints
/// in `server::routes`, admission in `server::admission`, the worker's
/// plan/replan responses in `server::respond`, and the replication hooks
/// in [`crate::repl`].
pub struct Service {
    pub(crate) config: ServeConfig,
    pub(crate) engine: PlanningEngine,
    pub(crate) plans: PlanStore,
    pub(crate) role: RoleCell,
    pub(super) clock: Arc<dyn Clock>,
    pub(super) queue: AdmissionQueue,
    pub(crate) metrics: ServiceMetrics,
    pub(super) workers: usize,
    pub(super) response_cache: Option<Mutex<ResponseCache>>,
    pub(super) observations: Mutex<VecDeque<ObservationWire>>,
}

impl Service {
    /// Builds the service from a pre-trained bundle.
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
        // Reject dead configurations before they can panic deep inside
        // the engine: the typed [`nshard_core::ConfigError`] surfaces the
        // same way store corruption does — at construction, not at the
        // first request.
        config
            .search
            .validate()
            .map_err(StoreError::InvalidConfig)?;
        let (plans, boot) = PlanStore::open(config.store_dir.as_deref())?;
        let engine = PlanningEngine::new(bundle, config.search, config.incremental, config.seed);
        let metrics = ServiceMetrics::new();
        metrics.model_version.set(engine.model_version());
        metrics.store_quarantined.set(plans.quarantined() as u64);
        let queue = AdmissionQueue::new(config.queue_capacity, Arc::clone(&metrics.queue_depth));
        let workers = resolve_threads(config.workers);
        let role = RoleCell::new(if config.replica.follower {
            Role::Follower
        } else {
            Role::Leader
        });
        metrics.replica_role.set(role.role().gauge_value());
        let response_cache = (config.response_cache_entries > 0)
            .then(|| Mutex::new(ResponseCache::new(config.response_cache_entries)));
        let service = Self {
            config,
            engine,
            plans,
            role,
            clock,
            queue,
            metrics,
            workers,
            response_cache,
            observations: Mutex::new(VecDeque::new()),
        };
        // Boot is a catch-up from the store's own files.
        service.boot(boot);
        Ok(service)
    }

    /// The plan store, the record replication tails (tests and the demo
    /// inspect it directly).
    pub fn plans(&self) -> &PlanStore {
        &self.plans
    }

    /// This node's replication role cell.
    pub fn role(&self) -> &RoleCell {
        &self.role
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
    /// serving engine: the engine core (sharder, chains, incremental
    /// planner, prediction/encoding caches) is rebuilt and swapped under
    /// one write lock, and a leader replicates the bundle to followers.
    /// Returns the new model version.
    pub fn promote_model(&self, bundle: &CostModelBundle) -> u64 {
        let version = self.engine.swap_bundle(bundle.clone());
        self.metrics.model_promotions.inc();
        self.metrics.model_version.set(version);
        if self.role.is_leader() {
            self.log_model(bundle);
        }
        version
    }

    /// Records a shadow-evaluation rejection (the incumbent stays) in
    /// `/metrics` — the lifecycle calls this so rollbacks are observable.
    pub fn note_model_rollback(&self) {
        self.metrics.model_rollbacks.inc();
    }
}
