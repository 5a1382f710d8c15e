//! Textual specifications for predictors and policies.

use crate::args::CliError;
use livephase_core::Predictor;
use livephase_engine::{DecisionEngine, EngineConfig};
use livephase_governor::{ConservativeDerivation, Manager, ManagerConfig};
use livephase_workloads::WorkloadTrace;

/// Builds a predictor from a spec string such as `gpht:8:128`.
///
/// # Errors
///
/// Returns a [`CliError`] describing the accepted grammar on mismatch.
pub fn predictor(spec: &str) -> Result<Box<dyn Predictor>, CliError> {
    livephase_core::predictor_from_spec(spec).map_err(|e| CliError::new(e.to_string()))
}

/// Builds a manager from a policy name, for a given workload (the oracle
/// needs the trace up front).
///
/// # Errors
///
/// Returns a [`CliError`] listing the accepted names on mismatch.
pub fn manager(policy: &str, trace: &WorkloadTrace) -> Result<Manager, CliError> {
    match policy {
        "baseline" => Ok(Manager::baseline()),
        "reactive" => Ok(Manager::reactive()),
        "gpht" => Ok(Manager::gpht_deployed()),
        "oracle" => Ok(Manager::oracle_with(trace, ManagerConfig::pentium_m())),
        "conservative" => Ok(ConservativeDerivation::pentium_m().manager(0.05)),
        other => Err(CliError::new(format!(
            "unknown policy {other:?}; accepted: baseline | reactive | gpht | \
             oracle | conservative"
        ))),
    }
}

/// Builds a manager around an arbitrary predictor spec (used by `govern`
/// when `--predictor` is given alongside `--policy gpht`).
///
/// # Errors
///
/// Propagates predictor-spec errors.
pub fn proactive_manager(pred_spec: &str) -> Result<Manager, CliError> {
    let engine = DecisionEngine::from_spec(EngineConfig::pentium_m(), pred_spec)
        .map_err(|e| CliError::new(e.to_string()))?;
    Ok(Manager::with_engine(engine, ManagerConfig::pentium_m()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_workloads::spec as wspec;

    #[test]
    fn predictor_grammar() {
        for (input, name) in [
            ("lastvalue", "LastValue"),
            ("markov", "Markov1"),
            ("fixwindow:8", "FixWindow_8"),
            ("varwindow:128:0.005", "VarWindow_128_0.005"),
            ("gpht:8:128", "GPHT_8_128"),
            ("hashedgpht:8:1024", "HashedGPHT_8_1024"),
        ] {
            assert_eq!(predictor(input).unwrap().name(), name, "{input}");
        }
    }

    #[test]
    fn predictor_grammar_rejections() {
        for bad in [
            "",
            "gpht",
            "gpht:8",
            "gpht:0:128",
            "gpht:8:0",
            "fixwindow:0",
            "varwindow:8:-1",
            "nope:1",
            "gpht:a:b",
        ] {
            assert!(predictor(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn policy_names() {
        let trace = wspec::benchmark("swim_in")
            .unwrap()
            .with_length(5)
            .generate(1);
        for name in ["baseline", "reactive", "gpht", "oracle", "conservative"] {
            assert!(manager(name, &trace).is_ok(), "{name}");
        }
        assert!(manager("turbo", &trace).is_err());
    }

    #[test]
    fn proactive_manager_builds() {
        assert!(proactive_manager("markov").is_ok());
        assert!(proactive_manager("bogus").is_err());
    }
}
