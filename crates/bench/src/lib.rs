//! # livephase-bench
//!
//! The calibrated gate harness that `livephase-cli bench` and ci.sh
//! run: a zero-dependency, in-process benchmark pipeline. [`calibrate`]
//! measures a fixed integer-hash and memory-walk kernel that imports
//! nothing from the workspace — once per invocation (cached in a
//! `OnceLock`); [`areas`] registers every hot path worth gating
//! (engine stepping, wire framing, histogram math, workload
//! generation, the tenants scheduler) and reports each as a **ratio to
//! that baseline**, so thresholds survive the trip between machines of
//! different speeds; [`stats`] supplies the robust median/p90/MAD
//! summaries; [`record`] emits the committed `BENCH_<area>.json`
//! trajectory; [`gate`] turns records into a pass/skip/fail verdict;
//! and [`profile`] renders the `timed_span!` telemetry as a hot-path
//! table.

pub mod areas;
pub mod calibrate;
pub mod compare;
pub mod gate;
pub mod profile;
pub mod record;
pub mod stats;

pub use areas::{find, registry, Area, DEFAULT_ITERS, DEFAULT_WARMUP};
pub use calibrate::{calibration, measure_calibration, Calibration};
pub use compare::{compare_dirs, AreaDelta, CompareReport};
pub use gate::{evaluate, GateConfig, GateOutcome};
pub use profile::{collect, render, ProfileRow};
pub use record::{git_rev, BenchRecord, Machine, SCHEMA};
pub use stats::Summary;
