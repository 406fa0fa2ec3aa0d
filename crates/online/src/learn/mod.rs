//! Continual learning for the cost models.
//!
//! The paper pre-trains its neural cost models once and searches forever.
//! Production drifts: the workload the models were pre-trained on slowly
//! stops resembling the workload being served, and every prediction
//! inherits the gap. This module closes the *training* loop beside the
//! *planning* one ([`PlanningStack`](crate::PlanningStack)'s replans):
//!
//! * [`buffer`] — a bounded [`ObservationBuffer`] of
//!   [`ObservationWire`] records, `(model input, predicted, observed)`,
//!   with **error-weighted reservoir sampling**: samples the current
//!   models mispredict worst are kept preferentially, and a deterministic
//!   held-back validation slice never trains. Bit-deterministic per
//!   `(seed, insert sequence)` at any thread count.
//! * [`finetune`] — a conservative [`FineTuner`]: low learning rate,
//!   exact (bitwise) frozen-encoder option for the DeepSets compute
//!   model, frozen input layers for the comm MLPs — built on the same
//!   trainer as pre-training, in the same two lanes.
//! * [`lifecycle`] — a versioned [`ModelLifecycle`] writing
//!   checksum-framed checkpoints (`nshard_nn::serialize`): every
//!   candidate is shadow-evaluated (held-back validation MSE +
//!   train→search conformance probe) and atomically **promoted or rolled
//!   back**; a rejected candidate leaves the active checkpoint
//!   byte-identical.
//! * [`continual`] — the [`ContinualLearner`] tying it together, handed
//!   each epoch of an online loop as an [`EpochObservation`] through
//!   [`ContinualLearner::on_epoch`] (`repro ext_online` runs that loop):
//!   observe every epoch, fine-tune when the epoch drifted, hot-swap the
//!   serving models only on promotion. It also ingests
//!   observations drained from a serve daemon's `POST /v1/observations`
//!   buffer; this crate does not depend on the daemon.
//!
//! Everything is bit-deterministic per seed at any thread count — the
//! same contract as the rest of the workspace, extended to the learning
//! loop.

pub mod buffer;
pub mod continual;
pub mod finetune;
pub mod lifecycle;

pub use buffer::{
    BufferConfig, LearnDatasets, ObservationBuffer, ObservationKind, ObservationWire,
};
pub use continual::{ContinualConfig, ContinualLearner, EpochObservation};
pub use finetune::{FineTuneSettings, FineTuner};
pub use lifecycle::{ModelLifecycle, PromotionRecord};
