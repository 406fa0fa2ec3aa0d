//! Continual learning for the cost models.
//!
//! The paper pre-trains its neural cost models once and searches forever.
//! Production drifts: the workload the models were pre-trained on slowly
//! stops resembling the workload being served, and every prediction
//! inherits the gap. This module closes the *training* loop beside the
//! *planning* one ([`PlanningStack`](crate::PlanningStack)'s replans):
//!
//! * [`ObservationBuffer`] — a bounded buffer of [`ObservationWire`]
//!   records, `(model input, predicted, observed)`, with **error-weighted
//!   reservoir sampling**: samples the current models mispredict worst
//!   are kept preferentially, and a deterministic held-back validation
//!   slice never trains. Bit-deterministic per `(seed, insert sequence)`
//!   at any thread count.
//! * [`fine_tune`] — conservative fine-tuning: low learning rate, exact
//!   (bitwise) frozen-encoder option for the DeepSets compute model,
//!   frozen input layers for the comm MLPs — built on the same trainer
//!   as pre-training, in the same two lanes.
//! * [`ContinualLearner`] — ties it together, handed each epoch of an
//!   online loop as an [`EpochObservation`] through
//!   [`ContinualLearner::on_epoch`] (`repro ext_online` runs that loop):
//!   observe every epoch, fine-tune when the epoch drifted, and
//!   shadow-evaluate each candidate ([`ContinualLearner::propose`]:
//!   held-back validation MSE + train→search conformance probe) in
//!   memory, recording a [`PromotionRecord`]. Only a promoted candidate
//!   replaces the incumbent; a rejected one is dropped. The learner
//!   writes no file. It also ingests observations drained from a serve
//!   daemon's `POST /v1/observations` buffer; this crate does not depend
//!   on the daemon.
//!
//! Everything is bit-deterministic per seed at any thread count — the
//! same contract as the rest of the workspace, extended to the learning
//! loop.

mod buffer;
mod continual;
mod finetune;

pub use buffer::{
    BufferConfig, LearnDatasets, ObservationBuffer, ObservationKind, ObservationWire,
};
pub use continual::{ContinualConfig, ContinualLearner, EpochObservation, PromotionRecord};
pub use finetune::{fine_tune, FineTuneSettings};
