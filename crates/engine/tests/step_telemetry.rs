//! Telemetry contract of the decision engine: every decision counts,
//! single steps are timed one in 64, batches are timed whole.
//!
//! The series live in the process-global registry, so this file holds a
//! single test: no other test in the binary can move them underneath it.

use livephase_engine::{DecisionEngine, EngineConfig, Sample};
use livephase_telemetry::{global, Counter, Histogram};
use std::sync::Arc;

struct Series {
    decisions: Arc<Counter>,
    decision_us: Arc<Histogram>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl Series {
    fn fetch() -> Self {
        let reg = global();
        Self {
            decisions: reg.counter("governor_decisions_total", "", &[]),
            decision_us: reg.histogram("governor_decision_us", "", &[]),
            hits: reg.counter("governor_predictor_hits_total", "", &[]),
            misses: reg.counter("governor_predictor_misses_total", "", &[]),
        }
    }

    /// (decisions, latency samples, scored outcomes) so far.
    fn read(&self) -> (u64, u64, u64) {
        (
            self.decisions.get(),
            self.decision_us.count(),
            self.hits.get() + self.misses.get(),
        )
    }
}

fn engine() -> DecisionEngine {
    DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:8:128").expect("valid spec")
}

/// `n` samples for one pid, alternating between two phases.
fn samples(pid: u32, n: u32) -> Vec<Sample> {
    (0..n)
        .map(|i| Sample {
            pid,
            uops: 100_000_000,
            mem_transactions: if i % 2 == 0 { 0 } else { 4_000_000 },
        })
        .collect()
}

#[test]
fn steps_count_every_decision_and_time_one_in_64() {
    let series = Series::fetch();

    // Each engine keeps its own step count: its first step is timed,
    // then every 64th.
    for (n, timed) in [(1, 1), (64, 1), (65, 2), (1000, 16)] {
        let mut e = engine();
        let before = series.read();
        for s in samples(7, n) {
            let _ = e.step(&s);
        }
        let after = series.read();
        let n = u64::from(n);
        assert_eq!(after.0 - before.0, n, "every step is a decision");
        assert_eq!(
            after.1 - before.1,
            timed,
            "{n} steps take ceil({n}/64) samples"
        );
        assert_eq!(
            after.2 - before.2,
            n - 1,
            "every step after the first is scored"
        );
    }

    // A batch is timed whole: one latency sample per decision.
    let mut e = engine();
    let mut out = Vec::new();
    let before = series.read();
    e.step_many(&samples(7, 500), &mut out);
    let after = series.read();
    assert_eq!(out.len(), 500);
    assert_eq!(after.0 - before.0, 500);
    assert_eq!(after.1 - before.1, 500);
    assert_eq!(after.2 - before.2, 499);
}
