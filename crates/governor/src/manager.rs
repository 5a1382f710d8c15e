//! The management loop: Figure 8 of the paper, as executable code.
//!
//! At every PMI the handler:
//!
//! 1. stops and reads the performance counters (done inside
//!    [`Cpu::run_to_pmi`]);
//! 2. translates the counter readings to the corresponding phase;
//! 3. updates the predictor state and predicts the next phase;
//! 4. translates the predicted phase to a DVFS setting and applies it if
//!    it differs from the current one;
//! 5. clears the interrupt, reinitializes and restarts the counters.
//!
//! Steps 2–4 — the *decision* — are not implemented here: they are the
//! [`DecisionEngine`] from `livephase-engine`, the same pipeline the
//! serve shards and the experiment harness run, making one decision per
//! PMI. The manager contributes what only an in-process run has: the
//! simulated CPU, the PMI cadence, handler and DVFS-transition overhead
//! accounting, thermal integration and adaptive sampling. An optional
//! [`Policy`] overrides the engine's decision with an environment-aware
//! setting (thermal management, power capping); the unmanaged baseline is
//! the one run with no engine at all.
//!
//! The handler's own execution cost (≈ 10 µs) and any DVFS transition
//! (≈ 50 µs) are charged to the simulated CPU, so overheads — invisible at
//! the paper's 100 ms sampling intervals, exactly as claimed — are
//! nevertheless accounted for honestly.
//!
//! [`DecisionEngine`]: livephase_engine::DecisionEngine

use crate::policy::{Environment, Oracle, Policy};
use crate::report::{IntervalLog, RunReport};
use crate::session::IntervalObserver;
use livephase_core::{DurationPredictor, DurationScheme, PhaseId, PredictionStats};
use livephase_engine::{DecisionEngine, EngineConfig, Sample, TransitionTracker};
use livephase_pmsim::cpu::{Cpu, PmiRecord};
use livephase_pmsim::trace::pport;
use livephase_pmsim::PlatformConfig;
use livephase_workloads::{IntervalSource, IntoIntervalSource, WorkloadTrace};

/// Handler-side configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// The run's phase map and phase → DVFS translation table: the
    /// engine decides in it, and the baseline classifies its logged
    /// intervals through it.
    pub engine: EngineConfig,
    /// Execution cost charged per PMI invocation, in seconds.
    pub handler_overhead_s: f64,
    /// When set, the manager integrates junction temperature over the run
    /// and exposes it to environment-aware policies (dynamic thermal
    /// management, Section 8 of the paper).
    pub thermal: Option<livephase_pmsim::ThermalModel>,
    /// When set, the handler stretches the PMI window through phases it
    /// predicts will persist — the application the companion
    /// duration-prediction work (ref \[14\]) targets. Fewer interrupts,
    /// same decisions, for long stable runs.
    pub adaptive_sampling: Option<AdaptiveSampling>,
}

/// Configuration of duration-guided adaptive sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveSampling {
    /// The base sampling window, in uops (the paper's 100 M).
    pub base_uops: u64,
    /// Longest window, as a multiple of the base (bounds the damage of a
    /// wrong duration prediction).
    pub max_multiplier: u64,
}

impl AdaptiveSampling {
    /// A conservative default: stretch at most 4x over the 100 M base.
    #[must_use]
    pub fn pentium_m() -> Self {
        Self {
            base_uops: 100_000_000,
            max_multiplier: 4,
        }
    }

    fn validate(&self) {
        assert!(self.base_uops > 0, "base window must be positive");
        assert!(self.max_multiplier >= 1, "multiplier must be at least 1");
    }
}

impl ManagerConfig {
    /// The deployed configuration: Table 1 phases over the Table 2
    /// mapping, 10 µs handler cost, no thermal tracking.
    #[must_use]
    pub fn pentium_m() -> Self {
        Self {
            engine: EngineConfig::pentium_m(),
            handler_overhead_s: 10e-6,
            thermal: None,
            adaptive_sampling: None,
        }
    }

    fn validate(&self) {
        assert!(
            self.handler_overhead_s.is_finite() && self.handler_overhead_s >= 0.0,
            "handler overhead must be finite and non-negative"
        );
        if let Some(a) = &self.adaptive_sampling {
            a.validate();
        }
    }
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self::pentium_m()
    }
}

/// The in-process run's pid for its single simulated process: engine
/// state is keyed by pid, and a manager-driven run has exactly one.
const RUN_PID: u32 = 0;

/// Drives a workload through the simulated CPU under a management policy.
pub struct Manager {
    /// The decision pipeline; `None` only for the unmanaged baseline.
    engine: Option<Box<DecisionEngine>>,
    /// Environment-aware override of the engine's decisions.
    policy: Option<Box<dyn Policy>>,
    config: ManagerConfig,
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager")
            .field("policy", &self.policy_name())
            .field("config", &self.config)
            .finish()
    }
}

impl Manager {
    /// Creates a manager that delegates every decision to `engine` — the
    /// same pipeline the serve shards run. The engine's configuration
    /// becomes the run's: it replaces `config.engine`, so one phase map
    /// and table govern the whole run.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn with_engine(engine: DecisionEngine, config: ManagerConfig) -> Self {
        config.validate();
        Self {
            config: ManagerConfig {
                engine: engine.config().clone(),
                ..config
            },
            engine: Some(Box::new(engine)),
            policy: None,
        }
    }

    /// Overrides every engine decision with `policy` (builder style): the
    /// engine still classifies, scores and predicts, and the policy picks
    /// the setting applied. The baseline makes no decision to override,
    /// so there the policy is never consulted.
    #[must_use]
    pub fn with_policy(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The unmanaged baseline system (always full speed).
    #[must_use]
    pub fn baseline() -> Self {
        Self::baseline_with(ManagerConfig::pentium_m())
    }

    /// The baseline system under a custom handler configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn baseline_with(config: ManagerConfig) -> Self {
        config.validate();
        Self {
            engine: None,
            policy: None,
            config,
        }
    }

    /// The reactive (last-value) manager of prior work, over the paper's
    /// Table 2 mapping: a last-value decision engine by another name.
    #[must_use]
    pub fn reactive() -> Self {
        Self::reactive_with(ManagerConfig::pentium_m())
    }

    /// The reactive manager under a custom handler configuration.
    #[must_use]
    pub fn reactive_with(config: ManagerConfig) -> Self {
        let engine = match DecisionEngine::from_spec(config.engine.clone(), "lastvalue") {
            Ok(engine) => engine.with_name("Reactive(LastValue)"),
            Err(_) => unreachable!("lastvalue is a valid predictor spec"),
        };
        Self::with_engine(engine, config)
    }

    /// The paper's deployed system: proactive GPHT(8, 128) management over
    /// the Table 2 mapping.
    #[must_use]
    pub fn gpht_deployed() -> Self {
        Self::gpht_deployed_with(ManagerConfig::pentium_m())
    }

    /// The deployed GPHT system under a custom handler configuration.
    #[must_use]
    pub fn gpht_deployed_with(config: ManagerConfig) -> Self {
        let engine = match DecisionEngine::from_spec(config.engine.clone(), "gpht:8:128") {
            Ok(engine) => engine,
            Err(_) => unreachable!("the deployed GPHT spec is valid"),
        };
        Self::with_engine(engine, config)
    }

    /// The perfect-knowledge bound for `trace`: an engine whose
    /// predictor is the [`Oracle`] replaying the trace's phases under
    /// `config`'s phase map.
    #[must_use]
    pub fn oracle_with(trace: &WorkloadTrace, config: ManagerConfig) -> Self {
        let oracle = Oracle::from_trace(trace, config.engine.phase_map());
        let engine = DecisionEngine::new(config.engine.clone(), move || Box::new(oracle.clone()))
            .with_name("Oracle");
        Self::with_engine(engine, config)
    }

    /// The policy's display name.
    #[must_use]
    pub fn policy_name(&self) -> String {
        match (&self.engine, &self.policy) {
            (None, _) => "Baseline".to_owned(),
            (Some(engine), None) => engine.name().to_owned(),
            (Some(engine), Some(policy)) => policy.name(engine.predictor_name()),
        }
    }

    /// Runs `workload` to completion on a fresh CPU sharing `platform`,
    /// returning the full run report.
    ///
    /// `workload` is anything that converts to an
    /// [`IntervalSource`]: a `&WorkloadTrace` (replayed from its buffer,
    /// exactly as before the streaming refactor) or any live source —
    /// intervals are pulled one at a time as the CPU consumes them, so a
    /// streamed run holds O(1) workload memory however long it is.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns a DVFS setting the platform does not
    /// have (a [`TranslationTable`] validated against the platform cannot).
    #[must_use]
    pub fn run(self, workload: impl IntoIntervalSource, platform: &PlatformConfig) -> RunReport {
        self.run_observed(workload, platform, &mut ())
    }

    /// [`run`](Self::run) with an [`IntervalObserver`] attached: the
    /// observer sees every logged interval as it happens (streaming DAQ
    /// logging, live thermal watchdogs) and the finished report.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run).
    #[must_use]
    pub fn run_observed(
        mut self,
        workload: impl IntoIntervalSource,
        platform: &PlatformConfig,
        observer: &mut impl IntervalObserver,
    ) -> RunReport {
        let mut source = workload.into_interval_source();
        let workload_name = source.name().to_owned();
        let mut cpu = Cpu::new(platform);
        let mut state = RunState {
            thermal: self.config.thermal.map(livephase_pmsim::ThermalState::new),
            ..RunState::default()
        };
        cpu.set_pport_bits(pport::APP_RUNNING);

        while let Some(pmi) = cpu.run_to_pmi_with(|| source.next_interval()) {
            self.handle_pmi(&mut cpu, &pmi, &mut state);
            if let Some(last) = state.intervals.last() {
                observer.on_interval(last);
            }
        }
        // A run that ends off the sampling grid leaves a partial interval:
        // log it (its Mem/Uop ratio is still meaningful) and score the
        // prediction that stood for it, without a policy action —
        // execution is over.
        if let Some(pmi) = cpu.flush_partial_interval() {
            let phase = self.classify(&pmi);
            let standing = self.engine.as_mut().and_then(|engine| {
                let standing = engine.pending(RUN_PID);
                let _ = engine.score_tail(RUN_PID, phase);
                standing
            });
            state.log_interval(&pmi, phase, standing);
            if let Some(last) = state.intervals.last() {
                observer.on_interval(last);
            }
        }
        cpu.set_pport_bits(0);

        let prediction = match &mut self.engine {
            Some(engine) => {
                if self.policy.is_some() {
                    // The override's applied transitions replace the
                    // engine's decided ones (see `RunState::transitions`).
                    engine.discard_transitions();
                }
                engine.flush_metrics();
                engine.stats()
            }
            None => PredictionStats::default(),
        };
        state.transitions.flush();
        let report = RunReport {
            workload: workload_name,
            policy: self.policy_name(),
            totals: cpu.totals(),
            prediction,
            intervals: state.intervals,
            dvfs_transitions: cpu.dvfs_transitions(),
            peak_temperature_c: state.thermal.as_ref().map(|t| t.peak_c()),
            final_temperature_c: state.thermal.as_ref().map(|t| t.temperature_c()),
            power_trace: if cpu.config().record_power_trace {
                Some(cpu.into_power_trace())
            } else {
                None
            },
        };
        observer.on_complete(&report);
        report
    }

    /// The phase of an elapsed interval under the run's phase map.
    fn classify(&self, pmi: &PmiRecord) -> PhaseId {
        self.config
            .engine
            .phase_map()
            .classify_rate(pmi.metrics.mem_uop())
    }

    /// One PMI invocation: classify, predict, act.
    fn handle_pmi(&mut self, cpu: &mut Cpu<'_>, pmi: &PmiRecord, state: &mut RunState) {
        // Integrate the thermal model through the elapsed interval.
        if let Some(thermal) = &mut state.thermal {
            let interval_power_w = if pmi.interval_seconds > 0.0 {
                pmi.interval_energy_j / pmi.interval_seconds
            } else {
                0.0
            };
            thermal.advance(interval_power_w, pmi.interval_seconds);
        }

        // Toggle the phase-marker bit so the DAQ can attribute samples.
        let toggled = cpu.pport_bits() ^ pport::PHASE_TOGGLE;
        cpu.set_pport_bits(toggled);

        let (phase, standing, setting) = match &mut self.engine {
            None => (self.classify(pmi), None, 0),
            Some(engine) => {
                let standing = engine.pending(RUN_PID);
                let decision = engine.step(&Sample {
                    pid: RUN_PID,
                    uops: pmi.metrics.uops_retired,
                    mem_transactions: pmi.metrics.mem_transactions,
                });
                let setting = match &mut self.policy {
                    None => usize::from(decision.op_point),
                    Some(policy) => {
                        let env = Environment {
                            temperature_c: state.thermal.as_ref().map(|t| t.temperature_c()),
                        };
                        let setting = policy.decide(&decision, &env);
                        state.transitions.record(pmi.dvfs_index, setting);
                        setting
                    }
                };
                (decision.phase, standing, setting)
            }
        };
        state.log_interval(pmi, phase, standing);

        cpu.service_pmi_overhead(self.config.handler_overhead_s);
        if cpu.set_dvfs(setting).is_err() {
            // lint:allow(no-panic-path): a policy returning an out-of-range
            // setting is a programming error that must not be masked; every
            // shipped policy clamps to the platform table
            panic!("policy must return a platform-valid DVFS setting, got {setting}");
        }

        // Duration-guided sampling: stretch the next PMI window while the
        // predictor expects the current phase to persist.
        if let Some(cfg) = &self.config.adaptive_sampling {
            let durations = state
                .durations
                .get_or_insert_with(|| DurationPredictor::new(DurationScheme::LastDuration));
            durations.observe(phase);
            let multiplier = durations
                .predicted_remaining()
                .unwrap_or(0)
                .clamp(1, cfg.max_multiplier);
            cpu.set_pmi_granularity(cfg.base_uops * multiplier);
        }
    }
}

/// Book-keeping across PMI invocations.
#[derive(Default)]
struct RunState {
    intervals: Vec<IntervalLog>,
    thermal: Option<livephase_pmsim::ThermalState>,
    durations: Option<DurationPredictor>,
    /// DVFS transitions applied by a policy override, flushed to the
    /// registry once at run end so the PMI path never formats a label.
    /// An override may apply a setting other than the engine's decision,
    /// so `governor_dvfs_transitions_total` counts these in place of the
    /// engine's own (decided) pairs; runs without an override leave this
    /// empty and the engine accounts for them.
    transitions: TransitionTracker,
}

impl RunState {
    /// Logs one elapsed interval, classified as `phase`, against the
    /// prediction that was standing when it began.
    fn log_interval(&mut self, pmi: &PmiRecord, phase: PhaseId, predicted: Option<PhaseId>) {
        self.intervals.push(IntervalLog {
            index: self.intervals.len(),
            mem_uop: pmi.metrics.mem_uop().get(),
            upc: pmi.metrics.upc().get(),
            phase,
            predicted,
            dvfs_index: pmi.dvfs_index,
            duration_s: pmi.interval_seconds,
            energy_j: pmi.interval_energy_j,
            instructions: pmi.metrics.instructions_retired,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TranslationTable;
    use livephase_core::{Gpht, GphtConfig, LastValue, PhaseMap, PhaseSample, Predictor};
    use livephase_workloads::spec;

    fn short_trace(name: &str, len: usize) -> WorkloadTrace {
        spec::benchmark(name).unwrap().with_length(len).generate(11)
    }

    #[test]
    fn baseline_never_switches() {
        let trace = short_trace("applu_in", 40);
        let r = Manager::baseline().run(&trace, &PlatformConfig::pentium_m());
        assert_eq!(r.dvfs_transitions, 0);
        assert_eq!(r.intervals.len(), 40);
        assert!(r.intervals.iter().all(|i| i.dvfs_index == 0));
        assert_eq!(r.policy, "Baseline");
    }

    #[test]
    fn managed_run_switches_and_saves_energy() {
        let trace = short_trace("applu_in", 80);
        let baseline = Manager::baseline().run(&trace, &PlatformConfig::pentium_m());
        let managed = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());
        assert!(managed.dvfs_transitions > 0);
        assert!(managed.totals.energy_j < baseline.totals.energy_j);
        assert!(managed.totals.time_s > baseline.totals.time_s);
        let c = managed.compare_to(&baseline);
        assert!(
            c.edp_improvement_pct() > 0.0,
            "EDP {}",
            c.edp_improvement_pct()
        );
    }

    #[test]
    fn prediction_stats_are_scored() {
        let trace = short_trace("crafty_in", 50);
        let r = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());
        assert_eq!(r.prediction.total, 49, "all but the first interval scored");
        assert!(
            r.prediction.accuracy() > 0.9,
            "stable workload predicts well"
        );
    }

    #[test]
    fn stable_workload_stays_mostly_at_one_setting() {
        let trace = short_trace("swim_in", 60);
        let r = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());
        // swim is phase 5 throughout: after the first decision the CPU
        // should sit at setting 4 nearly always.
        let at_4 = r.intervals.iter().filter(|i| i.dvfs_index == 4).count();
        assert!(
            at_4 > 50,
            "{at_4} of {} intervals at setting 4",
            r.intervals.len()
        );
    }

    #[test]
    fn partial_tail_interval_is_logged() {
        // 1.5 sampling intervals of work.
        let spec = spec::benchmark("crafty_in").unwrap().with_length(2);
        let mut trace_intervals = spec.generate(1).intervals().to_vec();
        let half = trace_intervals[1].split_at_uops(50_000_000).0;
        trace_intervals[1] = half;
        let trace = WorkloadTrace::new("partial", trace_intervals);
        let r = Manager::baseline().run(&trace, &PlatformConfig::pentium_m());
        assert_eq!(r.intervals.len(), 2);
        assert!(r.intervals[1].duration_s < r.intervals[0].duration_s);
    }

    #[test]
    fn power_trace_is_returned_when_recorded() {
        let trace = short_trace("crafty_in", 5);
        let platform = PlatformConfig::pentium_m().with_power_trace();
        let r = Manager::baseline().run(&trace, &platform);
        let pt = r.power_trace.expect("trace recorded");
        assert!((pt.total_energy_j() - r.totals.energy_j).abs() < 1e-9);
        assert!((pt.total_time_s() - r.totals.time_s).abs() < 1e-12);
    }

    #[test]
    fn reactive_and_proactive_differ_on_variable_workloads() {
        let trace = short_trace("applu_in", 200);
        let reactive = Manager::reactive().run(&trace, &PlatformConfig::pentium_m());
        let proactive = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());
        assert!(
            proactive.prediction.accuracy() > reactive.prediction.accuracy() + 0.1,
            "GPHT {} vs reactive {}",
            proactive.prediction.accuracy(),
            reactive.prediction.accuracy()
        );
    }

    /// The engine-backed managers against an independent reference: the
    /// paper's PMI flow written out as a loop over `Predictor::next` and
    /// `TranslationTable::setting_for` — same phases, decisions, scoring
    /// and standing predictions, interval for interval.
    #[test]
    fn engine_backed_managers_match_a_reference_loop() {
        let trace = short_trace("applu_in", 120);
        let platform = PlatformConfig::pentium_m();
        let map = PhaseMap::pentium_m();
        let table = TranslationTable::pentium_m();
        let cases: [(Manager, Box<dyn Predictor>, &str); 2] = [
            (
                Manager::reactive(),
                Box::new(LastValue::new()),
                "Reactive(LastValue)",
            ),
            (
                Manager::gpht_deployed(),
                Box::new(Gpht::new(GphtConfig::DEPLOYED)),
                "Proactive(GPHT_8_128)",
            ),
        ];
        for (manager, mut predictor, name) in cases {
            let report = manager.run(&trace, &platform);
            assert_eq!(report.policy, name);
            let mut standing = None;
            let mut correct = 0;
            let mut decisions = Vec::new();
            for interval in &report.intervals {
                let phase = map.classify(interval.mem_uop);
                assert_eq!(interval.phase, phase);
                assert_eq!(interval.predicted, standing);
                correct += u64::from(standing == Some(phase));
                let predicted = predictor.next(PhaseSample::new(interval.mem_uop, phase));
                decisions.push(table.setting_for(predicted));
                standing = Some(predicted);
            }
            // The last decision governs no interval.
            decisions.pop();
            assert_eq!(report.decision_trace(), decisions, "{name}");
            assert_eq!(report.prediction.total, trace.len() as u64 - 1);
            assert_eq!(report.prediction.correct, correct, "{name}");
        }
    }
}
