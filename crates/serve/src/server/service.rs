//! [`Service`]: the state every request handler shares, and its
//! construction. No planning state is shared: the engine builds each
//! request's planning stack around the bundle the daemon booted with.

use std::sync::{Arc, Mutex};

use nshard_cost::CostModelBundle;
use nshard_pool::resolve_threads;

use crate::clock::{Clock, WallClock};
use crate::engine::PlanningEngine;
use crate::metrics::ServiceMetrics;
use crate::store::{PlanStore, StoreError};

use super::admission::AdmissionQueue;
use super::cache::ResponseCache;
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
}

impl Service {
    /// Builds the service from a pre-trained bundle, which serves every
    /// request for the service's life. With a `store_dir`, the service
    /// boots with the plans stored there.
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
        let plans = PlanStore::open(config.store_dir.as_deref())?;
        let engine = PlanningEngine::new(bundle, config.search, config.incremental, 0);
        let metrics = ServiceMetrics::new();
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
}
