//! # livephase-engine
//!
//! The canonical **decision engine** for live phase-driven power
//! management: classify the elapsed interval, score and update the
//! per-process predictor, predict the next phase, translate it to an
//! operating point. One implementation, three consumers:
//!
//! * the **governor**'s [`Manager`] delegates every PMI decision here and
//!   keeps only simulated-CPU, interrupt-overhead and transition-latency
//!   concerns;
//! * the **serve** shards wrap an engine per session and drain their
//!   queues through the batched [`DecisionEngine::step_many`];
//! * the **experiment** harness scores predictor families through the
//!   same path it deploys them on.
//!
//! [`EngineConfig`] is the deployment context (platform, phase map,
//! translation table) validated at construction so the per-sample path
//! is panic-free; [`DecisionEngine`] is the pipeline itself. Decision
//! telemetry — latency, predictor hits/misses, DVFS transition pairs —
//! is recorded inside the engine, so every consumer is instrumented
//! identically without carrying its own handles.
//!
//! [`Manager`]: ../livephase_governor/struct.Manager.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The per-sample decision path must be panic-free: config validation at
// construction buys an unwrap-free hot path, and this keeps it that way.
// ci.sh runs clippy with -D warnings, turning any regression into an error.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod engine;
mod pids;
pub mod table;

pub use config::{EngineConfig, EngineConfigError};
pub use engine::{
    Decision, DecisionEngine, EngineMetrics, Sample, TransitionTracker, DEFAULT_MAX_PIDS,
};
pub use table::{TranslationTable, TranslationTableError};
