//! Setting overrides: environment-aware policies that rewrite the
//! engine's decision, and the perfect-knowledge oracle predictor.

use livephase_core::{PhaseId, PhaseMap, PhaseSample, Predictor};
use livephase_engine::Decision;
use livephase_workloads::WorkloadTrace;

/// Runtime feedback available to environment-aware policies at each PMI.
///
/// Plain power management needs only the engine's decision; thermal
/// management reads back platform state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    /// Junction temperature at the interrupt, when the manager tracks a
    /// thermal model.
    pub temperature_c: Option<f64>,
}

/// An override of the engine's decision, consulted once per PMI: the
/// engine has classified, scored, predicted and translated; the policy
/// picks the DVFS setting actually applied for the next interval.
///
/// This is where the paper's Section 8 applications differ from energy
/// management — thermal management and power capping reuse the
/// prediction machinery and change only the final translation step.
pub trait Policy {
    /// The DVFS setting index to apply for the next interval.
    fn decide(&mut self, decision: &Decision, env: &Environment) -> usize;

    /// Display name over the engine's predictor, e.g.
    /// `ThermalAware_65C(GPHT_8_128)`.
    fn name(&self, predictor: &str) -> String;
}

/// A perfect-knowledge upper bound: a predictor that replays the
/// workload's *actual* phase sequence, so every interval runs at the
/// setting its phase deserves.
///
/// Not implementable on a real system — it exists to measure how much of
/// the oracle headroom the GPHT captures (an ablation the paper's
/// framework invites but does not run).
#[derive(Debug, Clone)]
pub struct Oracle {
    phases: Vec<PhaseId>,
    /// Intervals observed so far; the prediction is the phase of the
    /// interval at this index.
    cursor: usize,
}

impl Oracle {
    /// Builds the oracle for a workload under a phase map.
    #[must_use]
    pub fn from_trace(trace: &WorkloadTrace, map: &PhaseMap) -> Self {
        let phases = trace.iter().map(|w| map.classify(w.mem_uop())).collect();
        Self { phases, cursor: 0 }
    }
}

impl Predictor for Oracle {
    fn observe(&mut self, _sample: PhaseSample) {
        self.cursor += 1;
    }

    fn predict(&self) -> PhaseId {
        // Past the end, hold the last known phase.
        self.phases
            .get(self.cursor)
            .or_else(|| self.phases.last())
            .copied()
            .unwrap_or(PhaseId::CPU_BOUND)
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }

    fn name(&self) -> String {
        "Oracle".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{Manager, ManagerConfig};
    use livephase_pmsim::PlatformConfig;
    use livephase_workloads::spec;

    #[test]
    fn oracle_predicts_perfectly() {
        let trace = spec::benchmark("applu_in")
            .unwrap()
            .with_length(120)
            .generate(3);
        let report = Manager::oracle_with(&trace, ManagerConfig::pentium_m())
            .run(&trace, &PlatformConfig::pentium_m());
        assert_eq!(report.policy, "Oracle");
        assert_eq!(
            report.prediction.correct, report.prediction.total,
            "the oracle never mispredicts"
        );
        // And it dominates GPHT on EDP for the same workload.
        let baseline = Manager::baseline().run(&trace, &PlatformConfig::pentium_m());
        let gpht = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());
        let oracle_edp = report.compare_to(&baseline).edp_improvement_pct();
        let gpht_edp = gpht.compare_to(&baseline).edp_improvement_pct();
        assert!(
            oracle_edp >= gpht_edp - 0.5,
            "oracle {oracle_edp:.1}% vs GPHT {gpht_edp:.1}%"
        );
    }

    #[test]
    fn oracle_replays_the_next_phase_and_holds_the_last() {
        let trace = spec::benchmark("applu_in")
            .unwrap()
            .with_length(30)
            .generate(3);
        let map = PhaseMap::pentium_m();
        let phases: Vec<PhaseId> = trace.iter().map(|w| map.classify(w.mem_uop())).collect();
        let mut oracle = Oracle::from_trace(&trace, &map);
        assert_eq!(oracle.predict(), phases[0]);
        let sample = PhaseSample::new(0.0, PhaseId::CPU_BOUND);
        for want in phases.iter().skip(1) {
            assert_eq!(oracle.next(sample), *want);
        }
        assert_eq!(oracle.next(sample), phases[29], "past the end");
        oracle.reset();
        assert_eq!(oracle.predict(), phases[0]);
    }
}
