//! # livephase-governor
//!
//! The dynamic power-management side of the MICRO 2006 paper: the PMI
//! handler flow of Figure 8, driving DVFS from live phase predictions.
//!
//! * [`table`] — the phase → DVFS look-up table (the paper's Table 2),
//!   re-exported from `livephase-engine`, where the shared decision
//!   pipeline lives;
//! * [`manager`] — the interval loop + interrupt handler that ties a
//!   workload (any streaming `IntervalSource`, or a buffered trace), the
//!   simulated CPU and one decision engine together. The systems compared
//!   in Section 6 are constructors: [`Manager::baseline`] (unmanaged,
//!   always full speed — the one run with no engine),
//!   [`Manager::reactive`] (respond to the *last observed* phase — the
//!   prior-work approach) and [`Manager::gpht_deployed`] (respond to the
//!   *predicted next* phase);
//! * [`policy`] — [`Policy`] overrides of the engine's decision (the
//!   Section 8 applications in [`thermal`]) and the perfect-knowledge
//!   [`Oracle`] predictor;
//! * [`session`] — shared-platform experiment sessions, per-interval
//!   observers, and the order-preserving parallel sweep primitive;
//! * [`conservative`] — Section 6.3: deriving alternative phase
//!   definitions that bound worst-case performance degradation;
//! * [`report`] — run summaries and baseline-normalized comparisons
//!   (EDP improvement, performance degradation, power/energy savings).
//!
//! ```
//! use livephase_governor::{manager::Manager, policy};
//! use livephase_pmsim::PlatformConfig;
//! use livephase_workloads::spec;
//!
//! let trace = spec::benchmark("applu_in").unwrap().with_length(60).generate(1);
//! let platform = PlatformConfig::pentium_m();
//! let baseline = Manager::baseline().run(&trace, &platform);
//! let managed = Manager::gpht_deployed().run(&trace, &platform);
//! let cmp = managed.compare_to(&baseline);
//! assert!(cmp.edp_improvement_pct() > 0.0, "GPHT-managed EDP improves");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod conservative;
pub mod estimate;
pub mod manager;
pub mod policy;
pub mod report;
pub mod session;
pub mod thermal;

pub use livephase_engine::table;

pub use conservative::ConservativeDerivation;
pub use estimate::PowerEstimator;
pub use manager::{AdaptiveSampling, Manager, ManagerConfig};
pub use policy::{Environment, Oracle, Policy};
pub use report::{IntervalLog, NormalizedComparison, RunReport};
pub use session::{par_map, IntervalObserver, Session};
pub use table::{TranslationTable, TranslationTableError};
pub use thermal::{PowerCap, ThermalAware};
