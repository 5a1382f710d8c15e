//! The shard-local session layer: a thin adapter over the shared
//! [`DecisionEngine`] from `livephase-engine`.
//!
//! A [`SessionState`] is one client's decision engine — the exact
//! classify → predict → translate pipeline the in-process
//! `livephase_governor::Manager` delegates to, holding per-pid predictor
//! state and scoring. Because phase classification depends only on the
//! DVFS-invariant `mem_transactions / uops` ratio, a session fed the
//! counter stream an in-process run produces makes **bit-identical**
//! decisions to that run — the property the loopback integration tests
//! pin down.
//!
//! What remains serve-specific here is small by design: the
//! sample/decision shapes the shard loop batches through
//! [`SessionState::apply_batch`].

use livephase_core::PredictorSpecError;
use livephase_engine::DecisionEngine;

pub use livephase_engine::{Decision, EngineConfig, EngineConfigError, Sample};

/// One client's session on a shard: a pid-indexed family of predictors
/// plus per-pid scoring, wrapped around the shared [`DecisionEngine`].
#[derive(Debug)]
pub struct SessionState {
    engine: DecisionEngine,
}

impl SessionState {
    /// Creates a session in deployment context `config` whose per-pid
    /// predictors are built from `predictor_spec` (e.g. `gpht:8:128`).
    ///
    /// # Errors
    ///
    /// Returns the spec error if the predictor specification does not
    /// parse — checked here, once, so the decision path cannot fail.
    pub fn new(config: &EngineConfig, predictor_spec: &str) -> Result<Self, PredictorSpecError> {
        Ok(Self {
            engine: DecisionEngine::from_spec(config.clone(), predictor_spec)?,
        })
    }

    /// Ingests one sample and returns the decision for that pid's next
    /// interval.
    pub fn apply(&mut self, pid: u32, uops: u64, mem_transactions: u64) -> Decision {
        self.engine.step(&Sample {
            pid,
            uops,
            mem_transactions,
        })
    }

    /// Drains a queued batch of samples through the engine, appending one
    /// decision per sample to `out` in input order — the shard loop's hot
    /// path. Bit-identical to calling [`apply`](Self::apply) per sample,
    /// but per-pid state lookups are amortized over runs of samples.
    pub fn apply_batch(&mut self, samples: &[Sample], out: &mut Vec<Decision>) {
        self.engine.step_many(samples, out);
    }

    /// Number of pid streams with live predictor state.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.engine.processes()
    }

    /// Drops a terminated pid's state.
    pub fn retire(&mut self, pid: u32) -> bool {
        self.engine.retire(pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_core::{LastValue, PhaseMap, PhaseSample, Predictor};
    use livephase_governor::{Manager, TranslationTable};
    use livephase_pmsim::PlatformConfig;
    use livephase_workloads::{counter_samples, spec};

    #[test]
    fn bad_predictor_specs_are_rejected_once() {
        let config = EngineConfig::pentium_m();
        assert!(SessionState::new(&config, "gpht:0:128").is_err());
        assert!(SessionState::new(&config, "frobnicate").is_err());
        assert!(SessionState::new(&config, "gpht:8:128").is_ok());
    }

    #[test]
    fn session_decisions_match_the_in_process_manager() {
        let config = EngineConfig::pentium_m();
        let bench = spec::benchmark("applu_in").unwrap().with_length(80);
        let mut session = SessionState::new(&config, "gpht:8:128").unwrap();
        let decisions: Vec<u8> = counter_samples(bench.stream(42))
            .map(|s| session.apply(7, s.uops, s.mem_transactions).op_point)
            .collect();

        let report = Manager::gpht_deployed().run(bench.stream(42), &PlatformConfig::pentium_m());
        let expected = report.decision_trace();
        assert_eq!(decisions.len(), expected.len() + 1);
        for (i, (&got, &want)) in decisions.iter().zip(&expected).enumerate() {
            assert_eq!(usize::from(got), want, "decision {i} diverged");
        }
    }

    #[test]
    fn batched_sessions_match_sample_at_a_time_sessions() {
        let config = EngineConfig::pentium_m();
        let bench = spec::benchmark("applu_in").unwrap().with_length(80);
        let samples: Vec<Sample> = counter_samples(bench.stream(42))
            .map(|s| Sample {
                pid: 7,
                uops: s.uops,
                mem_transactions: s.mem_transactions,
            })
            .collect();

        let mut one = SessionState::new(&config, "gpht:8:128").unwrap();
        let expected: Vec<Decision> = samples
            .iter()
            .map(|s| one.apply(s.pid, s.uops, s.mem_transactions))
            .collect();

        let mut batched = SessionState::new(&config, "gpht:8:128").unwrap();
        let mut got = Vec::new();
        for chunk in samples.chunks(13) {
            batched.apply_batch(chunk, &mut got);
        }
        assert_eq!(got, expected, "batched decisions are bit-identical");
    }

    /// A custom-predictor session against an independent reference: the
    /// PMI flow written out as a loop over `Predictor::next` and
    /// `TranslationTable::setting_for`.
    #[test]
    fn custom_predictor_sessions_match_a_reference_loop() {
        let config = EngineConfig::pentium_m();
        let bench = spec::benchmark("crafty_in").unwrap().with_length(60);
        let mut session = SessionState::new(&config, "lastvalue").unwrap();
        let map = PhaseMap::pentium_m();
        let table = TranslationTable::pentium_m();
        let mut reference = LastValue::new();
        for (i, s) in counter_samples(bench.stream(5)).enumerate() {
            let got = session.apply(1, s.uops, s.mem_transactions).op_point;
            let rate = s.mem_transactions as f64 / s.uops as f64;
            let predicted = reference.next(PhaseSample::new(rate, map.classify(rate)));
            assert_eq!(
                usize::from(got),
                table.setting_for(predicted),
                "decision {i} diverged"
            );
        }
    }

    #[test]
    fn pids_are_isolated_within_a_session() {
        let config = EngineConfig::pentium_m();
        let mut session = SessionState::new(&config, "gpht:8:128").unwrap();
        // pid 1 alternates phases 1/6; pid 2 sits constant at phase 3.
        // 100M uops with 0 vs 4M memory transactions land in P1 and P6;
        // 1.2M lands in P3.
        for _ in 0..50 {
            let _ = session.apply(1, 100_000_000, 0);
            let _ = session.apply(1, 100_000_000, 4_000_000);
            let _ = session.apply(2, 100_000_000, 1_200_000);
        }
        assert_eq!(session.processes(), 2);
        // pid 1's GPHT anticipates the alternation; pid 2 stays put.
        let d1 = session.apply(1, 100_000_000, 0);
        assert_eq!(d1.op_point, 5, "after P1, pid 1 expects P6");
        let d2 = session.apply(2, 100_000_000, 1_200_000);
        assert_eq!(d2.op_point, 2, "pid 2 stays in P3");
        assert!(d2.confidence > 9_000, "constant stream predicts well");
        assert!(session.retire(1));
        assert_eq!(session.processes(), 1);
        assert!(!session.retire(1));
    }
}
