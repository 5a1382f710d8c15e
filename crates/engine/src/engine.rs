//! The decision engine: Figure 8's classify → update predictor → predict
//! → translate flow, factored into one batch-capable implementation.
//!
//! Three consumers used to carry their own copy of this loop — the
//! governor's PMI handler, the serve shards' session state, and the
//! streaming accuracy evaluation — each with its own per-pid predictor
//! map, scoring and telemetry. A [`DecisionEngine`] is that loop, once:
//!
//! * [`step`](DecisionEngine::step) ingests one counter [`Sample`] and
//!   returns the [`Decision`] for that pid's next interval;
//! * [`step_many`](DecisionEngine::step_many) drains a whole queue of
//!   samples through the same path, amortizing per-pid map lookups
//!   (consecutive samples for one pid resolve their state once) and
//!   output allocation — the serve shard loop's batching win.
//!
//! The module is pure compute plus lock-free telemetry — no sockets, no
//! threads, no clocks beyond decision-latency timing — so the decision
//! path stays unit-testable and benchmarkable in isolation. Phase
//! classification depends only on the DVFS-invariant
//! `mem_transactions / uops` ratio, which is why an engine fed the
//! counter stream of an in-process run makes **bit-identical** decisions
//! to that run (the equivalence tests pin this down).

use crate::config::EngineConfig;
use crate::pids::{BoxedPredictorFactory, PidState, PidTable};
use livephase_core::{
    predictor_from_spec, MemUopRate, PhaseId, PhaseSample, PredictionStats, Predictor,
    PredictorSpecError,
};
use livephase_telemetry::{Counter, Histogram};
use std::sync::Arc;
use std::time::{Duration, Instant}; // lint:allow(determinism): Instant feeds decision-latency telemetry only, never a decision input

/// One performance-counter reading: what the PMI handler stops and reads
/// at the end of a sampling interval, attributed to a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Process the interval belongs to.
    pub pid: u32,
    /// Micro-ops retired in the interval.
    pub uops: u64,
    /// Memory bus transactions in the interval (`BUS_TRAN_MEM`).
    pub mem_transactions: u64,
}

/// One computed decision: the engine's full output for a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Process the decision is for.
    pub pid: u32,
    /// Phase the elapsed interval was classified into.
    pub phase: PhaseId,
    /// Phase predicted for the next interval.
    pub predicted: PhaseId,
    /// Operating-point index to apply next (0 = fastest).
    pub op_point: u8,
    /// Running prediction accuracy of this pid's stream, in basis points
    /// (10 000 = every scored prediction so far was correct).
    pub confidence: u16,
}

/// Handles into the process-global registry for the decision hot path,
/// fetched once per engine; every record after that is a lock-free
/// atomic. These are the *governor-level* series — the same names
/// whether decisions come from an in-process run, a serve shard, or a
/// bare engine — so every consumer is instrumented identically.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    decisions_total: Arc<Counter>,
    decision_us: Arc<Histogram>,
    hits_total: Arc<Counter>,
    misses_total: Arc<Counter>,
    pids_evicted_total: Arc<Counter>,
}

impl EngineMetrics {
    /// Fetches (or creates) the governor-level instrument handles.
    #[must_use]
    pub fn new() -> Self {
        let reg = livephase_telemetry::global();
        Self {
            decisions_total: reg.counter(
                "governor_decisions_total",
                "DVFS decisions computed (in-process runs and serve shards).",
                &[],
            ),
            decision_us: reg.histogram(
                "governor_decision_us",
                "Per-interval decision latency in microseconds: batches are \
                 timed whole, single steps one in 64.",
                &[],
            ),
            hits_total: reg.counter(
                "governor_predictor_hits_total",
                "Scored intervals whose predicted phase was observed.",
                &[],
            ),
            misses_total: reg.counter(
                "governor_predictor_misses_total",
                "Scored intervals whose predicted phase was not observed.",
                &[],
            ),
            pids_evicted_total: reg.counter(
                "engine_pids_evicted_total",
                "Per-pid predictor states evicted by the LRU capacity bound.",
                &[],
            ),
        }
    }

    /// Records one per-pid state eviction.
    pub fn record_pid_evicted(&self) {
        self.pids_evicted_total.inc();
    }

    /// Records `n` decisions computed in `elapsed` total: the counter
    /// advances by `n` and the latency histogram receives `n` samples at
    /// the batch-amortized per-decision cost, with the whole batch time
    /// in its `_sum` (one [`Histogram::record_batch`]).
    pub fn record_decisions(&self, n: u64, elapsed: Duration) {
        if n == 0 {
            return;
        }
        self.decisions_total.add(n);
        self.decision_us.record_batch(elapsed.as_micros(), n);
    }

    /// Records one decision. Single-step timing is sampled
    /// ([`DecisionEngine::step`] reads the clock on one call in 64):
    /// the counter advances on every call, and a latency sample is added
    /// only when `elapsed` is `Some`.
    pub fn record_decision(&self, elapsed: Option<Duration>) {
        self.decisions_total.inc();
        if let Some(elapsed) = elapsed {
            self.decision_us.record_saturating(elapsed.as_micros());
        }
    }

    /// Records one scored prediction outcome.
    pub fn record_scored(&self, correct: bool) {
        if correct {
            self.hits_total.inc();
        } else {
            self.misses_total.inc();
        }
    }

    /// Records a whole run's scoring totals at once (used by paths that
    /// accumulate locally and flush at run end).
    pub fn record_scored_totals(&self, stats: PredictionStats) {
        // A single step scores at most one outcome: skip any add that
        // would be zero rather than pay its atomic.
        let misses = stats.mispredictions();
        if stats.correct > 0 {
            self.hits_total.add(stats.correct);
        }
        if misses > 0 {
            self.misses_total.add(misses);
        }
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Accumulates DVFS transitions by `(from, to)` operating-point pair and
/// flushes them to the process-global registry in one labeled burst —
/// label formatting happens at flush time, never on the decision path.
///
/// Stored as a dense `dim × dim` matrix (operating-point indices are
/// small — six on the Pentium M), so a record is one bounds check and
/// one add: no hashing on the per-decision path. The matrix grows on
/// demand if a platform has more settings.
#[derive(Debug, Default)]
pub struct TransitionTracker {
    dim: usize,
    counts: Vec<u64>,
}

impl TransitionTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decided operating point against the previous one; a
    /// no-op when the setting is unchanged.
    pub fn record(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        let needed = from.max(to) + 1;
        if needed > self.dim {
            self.grow(needed);
        }
        self.counts[from * self.dim + to] += 1; // lint:allow(no-panic-path): from, to < dim after grow; counts has dim*dim cells
    }

    /// Count recorded for one `(from, to)` pair since the last flush.
    #[must_use]
    pub fn count(&self, from: usize, to: usize) -> u64 {
        if from.max(to) < self.dim {
            self.counts[from * self.dim + to] // lint:allow(no-panic-path): from, to < dim checked on the line above
        } else {
            0
        }
    }

    /// Re-lays the matrix out at a larger dimension, preserving counts.
    fn grow(&mut self, needed: usize) {
        let new_dim = needed.max(self.dim * 2);
        let mut counts = vec![0u64; new_dim * new_dim];
        for from in 0..self.dim {
            for to in 0..self.dim {
                // lint:allow(no-panic-path): from, to < dim <= new_dim; both buffers are dim²-sized
                counts[from * new_dim + to] = self.counts[from * self.dim + to];
            }
        }
        self.dim = new_dim;
        self.counts = counts;
    }

    /// Drops the accumulated pairs unpublished.
    pub fn clear(&mut self) {
        self.counts.fill(0);
    }

    /// Pushes the accumulated pairs into the registry and clears them,
    /// so flushing twice never double-counts.
    pub fn flush(&mut self) {
        let reg = livephase_telemetry::global();
        for from in 0..self.dim {
            for to in 0..self.dim {
                let n = std::mem::take(&mut self.counts[from * self.dim + to]); // lint:allow(no-panic-path): from, to < dim by the loop bounds
                if n == 0 {
                    continue;
                }
                let from = from.to_string();
                let to = to.to_string();
                reg.counter(
                    "governor_dvfs_transitions_total",
                    "DVFS transitions by operating-point pair.",
                    &[("from", &from), ("to", &to)],
                )
                .add(n);
            }
        }
    }
}

impl Drop for TransitionTracker {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Default capacity of the per-pid state map: generous enough for every
/// scenario shipped today (the fleet stress tests run 10k+ pids) while
/// still bounding a long-lived serve shard against pid churn.
pub const DEFAULT_MAX_PIDS: usize = 65_536;

/// [`DecisionEngine::step`] times one call in this many. A clock pair
/// costs about as much as the decision it would time, so single steps
/// are sampled; batches ([`DecisionEngine::step_many`]) are timed whole.
const STEP_TIMING_PERIOD: u64 = 64;

/// The canonical decision pipeline: per-pid predictor family, prediction
/// scoring, and phase → operating-point translation behind one API.
pub struct DecisionEngine {
    config: EngineConfig,
    factory: BoxedPredictorFactory,
    pids: PidTable,
    /// Capacity bound on `pids`; least-recently-used streams are evicted
    /// (with their predictor history) once it is reached.
    max_pids: usize,
    name: String,
    /// Display name of the per-pid predictor, e.g. `GPHT_8_128`.
    predictor: String,
    metrics: EngineMetrics,
    transitions: TransitionTracker,
    /// `step` calls so far; the call at every multiple of
    /// [`STEP_TIMING_PERIOD`] is timed.
    steps: u64,
}

impl std::fmt::Debug for DecisionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionEngine")
            .field("name", &self.name)
            .field("platform", &self.config.platform())
            .field("processes", &self.pids.len())
            .finish()
    }
}

impl DecisionEngine {
    /// Creates an engine whose per-pid predictors are built by `factory`
    /// — a parsed spec, a confidence-gated GPHT, a trace oracle, or any
    /// other [`Predictor`]. The display name defaults to
    /// `Proactive(<predictor>)`, matching the governor's policy naming.
    pub fn new(
        config: EngineConfig,
        factory: impl Fn() -> Box<dyn Predictor> + Send + 'static,
    ) -> Self {
        let predictor = factory().name();
        Self {
            config,
            factory: Box::new(factory),
            pids: PidTable::new(),
            max_pids: DEFAULT_MAX_PIDS,
            name: format!("Proactive({predictor})"),
            predictor,
            metrics: EngineMetrics::new(),
            transitions: TransitionTracker::new(),
            steps: 0,
        }
    }

    /// Creates an engine whose per-pid predictors are built from
    /// `predictor_spec` (e.g. `gpht:8:128`).
    ///
    /// # Errors
    ///
    /// Returns the spec error if the predictor specification does not
    /// parse — checked here, once, so the per-pid factory cannot fail.
    pub fn from_spec(
        config: EngineConfig,
        predictor_spec: &str,
    ) -> Result<Self, PredictorSpecError> {
        predictor_from_spec(predictor_spec)?;
        let spec = predictor_spec.to_owned();
        Ok(Self::new(config, move || {
            match predictor_from_spec(&spec) {
                Ok(p) => p,
                // The spec parsed above and the grammar is deterministic, so a
                // re-parse cannot fail.
                Err(_) => unreachable!("predictor spec validated at engine construction"),
            }
        }))
    }

    /// Bounds the per-pid state map to `max_pids` streams (builder style);
    /// the least-recently-stepped stream is evicted — predictor history
    /// and scoring included — when a new pid arrives at capacity, and
    /// `engine_pids_evicted_total` counts each eviction. A bound of zero
    /// is treated as one (the engine always holds the stream it is
    /// deciding for).
    #[must_use]
    pub fn with_max_pids(mut self, max_pids: usize) -> Self {
        self.max_pids = max_pids.max(1);
        self
    }

    /// The capacity bound on concurrent per-pid streams.
    #[must_use]
    pub fn max_pids(&self) -> usize {
        self.max_pids
    }

    /// Overrides the display name used as the policy label in reports:
    /// the governor's `Manager::reactive` labels its last-value engine
    /// `Reactive(LastValue)` after the prior-work reactive system, and
    /// `Manager::oracle_with` labels the perfect-knowledge bound
    /// `Oracle`.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The engine's display name, used as the policy label in reports.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Display name of the per-pid predictor, e.g. `GPHT_8_128`.
    #[must_use]
    pub fn predictor_name(&self) -> &str {
        &self.predictor
    }

    /// The deployment context decisions are made in.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Ingests one sample and returns the decision for that pid's next
    /// interval — the PMI handler's steps 2–4: classify the observed
    /// rate, score and update the predictor, translate the prediction.
    ///
    /// Every call counts in `governor_decisions_total` and the scoring
    /// counters, but only one call in 64 (the first, then every 64th)
    /// reads the clock and records a `governor_decision_us` sample.
    pub fn step(&mut self, sample: &Sample) -> Decision {
        let timed = self.steps.is_multiple_of(STEP_TIMING_PERIOD);
        self.steps = self.steps.wrapping_add(1);
        let started = timed.then(Instant::now); // lint:allow(determinism): decision-latency histogram only
        let Self {
            config,
            factory,
            pids,
            max_pids,
            transitions,
            metrics,
            ..
        } = self;
        let mut scored = PredictionStats::default();
        let state = pids.touch(sample.pid, *max_pids, factory, || {
            metrics.record_pid_evicted();
        });
        let d = step_pid(config, transitions, state, sample, &mut scored);
        metrics.record_scored_totals(scored);
        metrics.record_decision(started.map(|t| t.elapsed()));
        d
    }

    /// Drains a batch of samples through the decision path, appending one
    /// decision per sample to `out` in input order.
    ///
    /// Equivalent to calling [`step`](Self::step) per sample — the
    /// equivalence tests assert bit-exactness — but runs of consecutive
    /// samples for the same pid resolve their predictor state with a
    /// single map lookup, `out` is grown once, and the scoring counters
    /// are published once per batch. This is the shard loop's hot path:
    /// a busy connection's queued samples are decided in one swing.
    pub fn step_many(&mut self, samples: &[Sample], out: &mut Vec<Decision>) {
        if samples.is_empty() {
            return;
        }
        let started = Instant::now(); // lint:allow(determinism): decision-latency histogram only
        out.reserve(samples.len());
        let Self {
            config,
            factory,
            pids,
            max_pids,
            transitions,
            metrics,
            ..
        } = self;
        let mut scored = PredictionStats::default();
        for run in samples.chunk_by(|a, b| a.pid == b.pid) {
            let Some(first) = run.first() else {
                continue;
            };
            let state = pids.touch(first.pid, *max_pids, factory, || {
                metrics.record_pid_evicted();
            });
            for sample in run {
                out.push(step_pid(config, transitions, state, sample, &mut scored));
            }
        }
        metrics.record_scored_totals(scored);
        metrics.record_decisions(samples.len() as u64, started.elapsed());
    }

    /// The prediction currently standing for `pid`, if any — what the
    /// next sample for that pid will be scored against.
    #[must_use]
    pub fn pending(&self, pid: u32) -> Option<PhaseId> {
        self.pids.get(pid).and_then(|s| s.scorer.pending())
    }

    /// Scores the standing prediction for `pid` against an observed
    /// phase **without** stepping the predictor or issuing a decision.
    ///
    /// This is the run-tail case: a workload that ends off the sampling
    /// grid leaves a partial interval whose phase is still meaningful
    /// for accuracy accounting, but execution is over and no decision
    /// will govern anything.
    pub fn score_tail(&mut self, pid: u32, observed: PhaseId) -> Option<bool> {
        let state = self.pids.get_mut(pid)?;
        let (_, correct) = state.scorer.score(observed)?;
        self.metrics.record_scored(correct);
        Some(correct)
    }

    /// Aggregate prediction statistics across every pid stream.
    #[must_use]
    pub fn stats(&self) -> PredictionStats {
        self.pids
            .states()
            .fold(PredictionStats::default(), |acc, s| {
                let st = s.scorer.stats();
                PredictionStats {
                    total: acc.total + st.total,
                    correct: acc.correct + st.correct,
                }
            })
    }

    /// Prediction statistics for one pid stream, if it exists.
    #[must_use]
    pub fn pid_stats(&self, pid: u32) -> Option<PredictionStats> {
        self.pids.get(pid).map(|s| s.scorer.stats())
    }

    /// Number of pid streams with live predictor state.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.pids.len()
    }

    /// Drops a terminated pid's state.
    pub fn retire(&mut self, pid: u32) -> bool {
        self.pids.remove(pid)
    }

    /// Clears all per-pid state (predictors, scoring, transition
    /// baselines); accumulated telemetry is left alone.
    pub fn reset(&mut self) {
        self.pids.clear();
    }

    /// Flushes label-formatted telemetry (the DVFS transition pairs).
    /// Also runs on drop; flushing is idempotent.
    pub fn flush_metrics(&mut self) {
        self.transitions.flush();
    }

    /// Drops the transition pairs recorded since the last flush without
    /// publishing them: for a caller that applies operating points other
    /// than the decided ones and accounts the applied transitions itself.
    pub fn discard_transitions(&mut self) {
        self.transitions.clear();
    }
}

/// One pid's classify → score → predict → translate step, tallying the
/// scored outcome into `scored` for the caller to publish. Free-standing
/// so `step_many` can hold the pid's state across a run of samples while
/// the engine's other fields stay borrowed.
fn step_pid(
    config: &EngineConfig,
    transitions: &mut TransitionTracker,
    state: &mut PidState,
    sample: &Sample,
    scored: &mut PredictionStats,
) -> Decision {
    let rate = MemUopRate::from_counts(sample.mem_transactions, sample.uops);
    let phase = config.phase_map().classify_rate(rate);
    if let Some((_, correct)) = state.scorer.score(phase) {
        scored.total += 1;
        scored.correct += u64::from(correct);
    }
    let predicted = state.predictor.next(PhaseSample { rate, phase });
    state.scorer.predict(predicted);
    let op_point = config.op_point_for(predicted);
    transitions.record(usize::from(state.last_op), usize::from(op_point));
    state.last_op = op_point;
    Decision {
        pid: sample.pid,
        phase,
        predicted,
        op_point,
        confidence: state.scorer.confidence_bp(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_core::CONFIDENCE_SCALE;

    fn engine(spec: &str) -> DecisionEngine {
        DecisionEngine::from_spec(EngineConfig::pentium_m(), spec).unwrap()
    }

    /// 100 M uops with these memory-transaction counts land in phases
    /// 1, 3 and 6 of the Table 1 map.
    const P1: Sample = Sample {
        pid: 1,
        uops: 100_000_000,
        mem_transactions: 0,
    };
    const P3: Sample = Sample {
        pid: 1,
        uops: 100_000_000,
        mem_transactions: 1_200_000,
    };
    const P6: Sample = Sample {
        pid: 1,
        uops: 100_000_000,
        mem_transactions: 4_000_000,
    };

    fn with_pid(s: Sample, pid: u32) -> Sample {
        Sample { pid, ..s }
    }

    #[test]
    fn bad_specs_are_rejected_once() {
        assert!(DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:0:128").is_err());
        assert!(DecisionEngine::from_spec(EngineConfig::pentium_m(), "frobnicate").is_err());
        assert!(DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:8:128").is_ok());
    }

    #[test]
    fn names_follow_the_policy_convention() {
        assert_eq!(engine("gpht:8:128").name(), "Proactive(GPHT_8_128)");
        assert_eq!(engine("gpht:8:128").predictor_name(), "GPHT_8_128");
        let custom = DecisionEngine::new(EngineConfig::pentium_m(), || {
            Box::new(livephase_core::LastValue::new())
        });
        assert_eq!(custom.name(), "Proactive(LastValue)");
        assert_eq!(
            engine("lastvalue").with_name("Reactive(LastValue)").name(),
            "Reactive(LastValue)"
        );
    }

    #[test]
    fn first_decision_has_full_confidence_and_no_score() {
        let mut e = engine("lastvalue");
        let d = e.step(&P3);
        assert_eq!(d.phase.get(), 3);
        assert_eq!(d.confidence, CONFIDENCE_SCALE, "nothing scored yet");
        assert_eq!(e.stats().total, 0);
        let d2 = e.step(&P3);
        assert_eq!(e.stats().total, 1);
        assert_eq!(e.stats().correct, 1, "last-value repeated the phase");
        assert_eq!(d2.confidence, CONFIDENCE_SCALE);
    }

    #[test]
    fn gpht_engine_anticipates_alternation() {
        let mut e = engine("gpht:8:128");
        for _ in 0..50 {
            let _ = e.step(&P1);
            let _ = e.step(&P6);
        }
        let d = e.step(&P1);
        assert_eq!(d.op_point, 5, "after P1, expects P6 next");
        assert_eq!(d.predicted.get(), 6);
        let d = e.step(&P6);
        assert_eq!(d.op_point, 0, "after P6, expects P1 next");
    }

    #[test]
    fn step_many_is_bit_exact_with_step() {
        // A mixed-pid stream with runs and alternations, so batching
        // exercises both the run-coalescing path and pid switches.
        let mut samples = Vec::new();
        for round in 0u32..40 {
            samples.push(with_pid(P1, 1));
            samples.push(with_pid(P6, 1));
            samples.push(with_pid(P3, 2));
            if round % 3 == 0 {
                samples.push(with_pid(P3, 2));
                samples.push(with_pid(P1, 3));
            }
        }

        let mut one = engine("gpht:8:128");
        let expected: Vec<Decision> = samples.iter().map(|s| one.step(s)).collect();

        let mut batched = engine("gpht:8:128");
        let mut got = Vec::new();
        // Split into uneven chunks to exercise batch boundaries.
        for chunk in samples.chunks(7) {
            batched.step_many(chunk, &mut got);
        }
        assert_eq!(got, expected, "step_many must equal step, bit for bit");
        assert_eq!(batched.stats(), one.stats());
        assert_eq!(batched.processes(), one.processes());
    }

    #[test]
    fn pids_are_isolated() {
        let mut e = engine("gpht:8:128");
        for _ in 0..50 {
            let _ = e.step(&with_pid(P1, 1));
            let _ = e.step(&with_pid(P6, 1));
            let _ = e.step(&with_pid(P3, 2));
        }
        assert_eq!(e.processes(), 2);
        let d1 = e.step(&with_pid(P1, 1));
        assert_eq!(d1.op_point, 5, "pid 1's GPHT anticipates the alternation");
        let d2 = e.step(&with_pid(P3, 2));
        assert_eq!(d2.op_point, 2, "pid 2 stays in P3");
        assert!(d2.confidence > 9_000, "constant stream predicts well");
        assert!(e.pid_stats(2).is_some());
        assert!(e.retire(1));
        assert_eq!(e.processes(), 1);
        assert!(!e.retire(1));
        assert_eq!(e.pending(1), None);
    }

    #[test]
    fn score_tail_scores_without_deciding() {
        let mut e = engine("lastvalue");
        let _ = e.step(&P3);
        assert_eq!(e.pending(1), Some(PhaseId::new(3)));
        assert_eq!(e.score_tail(1, PhaseId::new(3)), Some(true));
        assert_eq!(e.stats().total, 1);
        assert_eq!(e.pending(1), None, "tail scoring consumes the prediction");
        assert_eq!(e.score_tail(1, PhaseId::new(3)), None, "nothing standing");
        assert_eq!(e.score_tail(99, PhaseId::new(3)), None, "unknown pid");
    }

    #[test]
    fn reset_clears_per_pid_state() {
        let mut e = engine("gpht:8:128");
        let _ = e.step(&P3);
        let _ = e.step(&with_pid(P3, 2));
        e.reset();
        assert_eq!(e.processes(), 0);
        assert_eq!(e.stats(), PredictionStats::default());
    }

    #[test]
    fn lru_bound_evicts_least_recently_stepped_pid() {
        let mut e = engine("gpht:8:128").with_max_pids(2);
        assert_eq!(e.max_pids(), 2);
        let _ = e.step(&with_pid(P1, 1));
        let _ = e.step(&with_pid(P1, 2));
        // Touch pid 1 so pid 2 is the LRU victim.
        let _ = e.step(&with_pid(P1, 1));
        let _ = e.step(&with_pid(P1, 3));
        assert_eq!(e.processes(), 2);
        assert!(e.pid_stats(1).is_some(), "recently used pid survives");
        assert!(e.pid_stats(2).is_none(), "LRU pid was evicted");
        assert!(e.pid_stats(3).is_some());
        // A returning evicted pid starts from scratch (fresh predictor).
        let d = e.step(&with_pid(P3, 2));
        assert_eq!(d.confidence, CONFIDENCE_SCALE, "no scored history");
        assert!(e.pid_stats(1).is_none(), "pid 1 evicted in turn");
    }

    #[test]
    fn lru_bound_of_zero_still_holds_the_live_stream() {
        let mut e = engine("lastvalue").with_max_pids(0);
        assert_eq!(e.max_pids(), 1);
        let _ = e.step(&with_pid(P3, 1));
        let _ = e.step(&with_pid(P3, 2));
        assert_eq!(e.processes(), 1);
        assert!(e.pid_stats(2).is_some());
    }

    #[test]
    fn retire_and_reset_keep_the_lru_index_consistent() {
        let mut e = engine("lastvalue").with_max_pids(2);
        let _ = e.step(&with_pid(P3, 1));
        let _ = e.step(&with_pid(P3, 2));
        assert!(e.retire(1));
        // Capacity freed: two more pids fit without evicting pid 2's slot
        // twice (a stale index entry would make this under-count).
        let _ = e.step(&with_pid(P3, 3));
        assert_eq!(e.processes(), 2);
        assert!(e.pid_stats(2).is_some());
        e.reset();
        assert_eq!(e.processes(), 0);
        let _ = e.step(&with_pid(P3, 4));
        let _ = e.step(&with_pid(P3, 5));
        assert_eq!(e.processes(), 2);
    }

    #[test]
    fn eviction_is_bit_exact_for_surviving_streams() {
        // Streams for surviving pids must be unaffected by churn evicting
        // other pids around them.
        let mut churned = engine("gpht:8:128").with_max_pids(8);
        let mut solo = engine("gpht:8:128");
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for round in 0u32..60 {
            let s = if round % 2 == 0 {
                with_pid(P1, 7)
            } else {
                with_pid(P6, 7)
            };
            expected.push(solo.step(&s));
            got.push(churned.step(&s));
            // Churn: a parade of one-shot pids that evict each other but
            // never pid 7 (it is re-touched every round).
            let _ = churned.step(&with_pid(P3, 1000 + round));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn transitions_accumulate_and_flush() {
        let mut t = TransitionTracker::new();
        t.record(0, 0);
        t.record(0, 5);
        t.record(5, 2);
        t.record(0, 5);
        assert_eq!(t.count(0, 5), 2);
        assert_eq!(t.count(0, 0), 0, "no-op transitions dropped");
        assert_eq!(t.count(17, 3), 0, "never-seen pair");
        t.record(9, 2); // grows the matrix, preserving counts
        assert_eq!(t.count(0, 5), 2);
        assert_eq!(t.count(9, 2), 1);
        t.flush();
        assert_eq!(t.count(0, 5), 0, "flush drains");
        t.flush(); // idempotent on empty
        t.record(1, 2);
        t.clear();
        assert_eq!(t.count(1, 2), 0, "clear drops unpublished pairs");
    }
}
