//! The Global Phase History Table (GPHT) predictor — the paper's proposal.
//!
//! Structurally a software analogue of a two-level *global* branch
//! predictor (Yeh & Patt): a **Global Phase History Register** (GPHR) shift
//! register holds the last `gphr_depth` observed phases; its contents index
//! a **Pattern History Table** (PHT) that associates previously seen phase
//! patterns with the phase that followed them.
//!
//! Per Section 3 of the paper, each PMI the predictor:
//!
//! 1. shifts the newly observed phase into the GPHR;
//! 2. associatively compares the GPHR against the stored PHT tags;
//! 3. on a **match**, emits the stored next-phase prediction and, at the
//!    *next* sampling period, updates that entry's prediction with the
//!    actually observed phase;
//! 4. on a **mismatch**, falls back to last-value prediction (`GPHR[0]`)
//!    and inserts the current GPHR into the PHT, evicting the least
//!    recently used entry when the table is full (an `Age/Invalid` field
//!    tracks both validity and recency).
//!
//! With a PHT of one entry the predictor degenerates to last-value (nearly
//! 100 % tag mismatches), which the paper observes in Figure 5 and which is
//! enforced here by a property test.

use super::{PhaseSample, Predictor};
use crate::phase::PhaseId;
use std::collections::VecDeque;

/// Sizing of a [`Gpht`] predictor.
///
/// The paper's exploration settles on `gphr_depth = 8` and
/// `pht_entries = 128` for the deployed system (Figure 5 shows 128 entries
/// match the 1024-entry predictor almost exactly); the constants
/// [`GphtConfig::DEPLOYED`] and [`GphtConfig::REFERENCE`] capture the two
/// configurations used throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GphtConfig {
    /// Number of past phases held in the global phase history register.
    pub gphr_depth: usize,
    /// Number of pattern entries in the pattern history table.
    pub pht_entries: usize,
}

impl GphtConfig {
    /// The configuration deployed on the paper's real system: GPHR depth 8,
    /// 128 PHT entries.
    pub const DEPLOYED: GphtConfig = GphtConfig {
        gphr_depth: 8,
        pht_entries: 128,
    };

    /// The reference configuration used in the prediction study
    /// (Figures 2 and 4): GPHR depth 8, 1024 PHT entries.
    pub const REFERENCE: GphtConfig = GphtConfig {
        gphr_depth: 8,
        pht_entries: 1024,
    };

    fn validate(self) {
        assert!(self.gphr_depth >= 1, "GPHR depth must be at least 1");
        assert!(self.pht_entries >= 1, "PHT must have at least 1 entry");
    }
}

impl Default for GphtConfig {
    fn default() -> Self {
        Self::DEPLOYED
    }
}

/// A valid pattern-history-table row: a GPHR-pattern tag, the phase that is
/// predicted to follow it, and an age stamp for LRU replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PhtEntry {
    /// The phase pattern this row matches (most recent phase first).
    tag: Box<[PhaseId]>,
    /// The next-phase prediction associated with the tag.
    prediction: PhaseId,
    /// Logical timestamp of the last touch, for LRU replacement.
    age: u64,
}

/// The Global Phase History Table predictor.
///
/// ```
/// use livephase_core::{Gpht, GphtConfig, PhaseSample, PhaseId, Predictor};
///
/// let mut gpht = Gpht::new(GphtConfig::DEPLOYED);
/// // A short repeating pattern: 1 3 6 3, 1 3 6 3, ...
/// let pattern = [1u8, 3, 6, 3];
/// let mut correct = 0;
/// let mut total = 0;
/// let mut pred = gpht.predict();
/// for i in 0..400 {
///     let actual = PhaseId::new(pattern[i % 4]);
///     if i > 0 {
///         total += 1;
///         if pred == actual { correct += 1; }
///     }
///     pred = gpht.next(PhaseSample::new(0.01, actual));
/// }
/// // After warm-up the pattern is learned perfectly; last-value would be 0 %.
/// assert!(correct as f64 / total as f64 > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct Gpht {
    config: GphtConfig,
    /// Most recent phase at the front (`GPHR[0]`).
    gphr: VecDeque<PhaseId>,
    /// `None` = invalid row (the paper's `-1` age marker).
    pht: Vec<Option<PhtEntry>>,
    /// Logical clock driving LRU ages.
    tick: u64,
    /// Row used (matched or inserted) in the previous period, whose
    /// prediction is trained by the next observed phase.
    pending_update: Option<usize>,
    /// The prediction emitted for the upcoming interval.
    prediction: PhaseId,
    /// Running count of PHT tag hits (for diagnostics / ablations).
    hits: u64,
    /// Running count of PHT tag misses.
    misses: u64,
}

impl Gpht {
    /// Creates a GPHT predictor with the given sizing.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(config: GphtConfig) -> Self {
        config.validate();
        Self {
            config,
            gphr: VecDeque::with_capacity(config.gphr_depth),
            pht: vec![None; config.pht_entries],
            tick: 0,
            pending_update: None,
            prediction: PhaseId::CPU_BOUND,
            hits: 0,
            misses: 0,
        }
    }

    /// The sizing this predictor was built with.
    #[must_use]
    pub fn config(&self) -> GphtConfig {
        self.config
    }

    /// Number of currently valid PHT rows.
    #[must_use]
    pub fn valid_entries(&self) -> usize {
        self.pht.iter().filter(|e| e.is_some()).count()
    }

    /// PHT tag hits since construction or [`reset`](Predictor::reset).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// PHT tag misses since construction or [`reset`](Predictor::reset).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The current GPHR contents, most recent phase first.
    #[must_use]
    pub fn history(&self) -> Vec<PhaseId> {
        self.gphr.iter().copied().collect()
    }

    fn gphr_matches(&self, entry: &PhtEntry) -> bool {
        entry.tag.len() == self.gphr.len()
            && entry.tag.iter().zip(self.gphr.iter()).all(|(a, b)| a == b)
    }

    /// Index of the row to victimize: an invalid row if any, else the LRU.
    fn victim(&self) -> usize {
        let mut lru = 0;
        let mut lru_age = u64::MAX;
        for (i, row) in self.pht.iter().enumerate() {
            match row {
                None => return i,
                Some(e) => {
                    if e.age < lru_age {
                        lru_age = e.age;
                        lru = i;
                    }
                }
            }
        }
        lru
    }
}

impl Predictor for Gpht {
    fn observe(&mut self, sample: PhaseSample) {
        self.tick += 1;

        // (3)/(4): train the row used last period with the actual outcome.
        if let Some(i) = self.pending_update.take() {
            if let Some(entry) = self.pht.get_mut(i).and_then(Option::as_mut) {
                entry.prediction = sample.phase;
            }
        }

        // (1) Shift the observed phase into the GPHR.
        if self.gphr.len() == self.config.gphr_depth {
            self.gphr.pop_back();
        }
        self.gphr.push_front(sample.phase);

        if self.gphr.len() < self.config.gphr_depth {
            // Warm-up: no full pattern yet; behave as last-value and do not
            // pollute the PHT with short tags.
            self.prediction = sample.phase;
            return;
        }

        // (2) Associative tag search.
        let hit = self
            .pht
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|e| self.gphr_matches(e)));

        match hit {
            Some(i) => {
                self.hits += 1;
                if let Some(entry) = self.pht.get_mut(i).and_then(Option::as_mut) {
                    entry.age = self.tick;
                    self.prediction = entry.prediction;
                }
                self.pending_update = Some(i);
            }
            None => {
                self.misses += 1;
                // Fall back to last value and allocate the pattern.
                self.prediction = sample.phase;
                let i = self.victim();
                if let Some(slot) = self.pht.get_mut(i) {
                    *slot = Some(PhtEntry {
                        tag: self.gphr.iter().copied().collect(),
                        // Seed with last value until trained next period.
                        prediction: sample.phase,
                        age: self.tick,
                    });
                }
                self.pending_update = Some(i);
            }
        }
    }

    fn predict(&self) -> PhaseId {
        self.prediction
    }

    fn reset(&mut self) {
        self.gphr.clear();
        self.pht.iter_mut().for_each(|e| *e = None);
        self.tick = 0;
        self.pending_update = None;
        self.prediction = PhaseId::CPU_BOUND;
        self.hits = 0;
        self.misses = 0;
    }

    fn name(&self) -> String {
        format!(
            "GPHT_{}_{}",
            self.config.gphr_depth, self.config.pht_entries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u8) -> PhaseSample {
        PhaseSample::new(0.01, PhaseId::new(id))
    }

    /// Runs `seq` through `p` and returns accuracy of next-phase prediction.
    fn accuracy(p: &mut dyn Predictor, seq: &[u8]) -> f64 {
        let mut correct = 0usize;
        let mut pred = p.predict();
        for (i, &id) in seq.iter().enumerate() {
            let actual = PhaseId::new(id);
            if i > 0 && pred == actual {
                correct += 1;
            }
            pred = p.next(PhaseSample::new(0.01, actual));
        }
        correct as f64 / (seq.len() - 1) as f64
    }

    #[test]
    fn learns_periodic_pattern() {
        let mut g = Gpht::new(GphtConfig::DEPLOYED);
        let seq: Vec<u8> = [1u8, 2, 4, 6, 4, 2]
            .iter()
            .copied()
            .cycle()
            .take(600)
            .collect();
        let acc = accuracy(&mut g, &seq);
        assert!(
            acc > 0.95,
            "GPHT should learn a period-6 pattern, got {acc}"
        );
    }

    #[test]
    fn last_value_fails_same_pattern() {
        use super::super::last_value::LastValue;
        let mut lv = LastValue::new();
        let seq: Vec<u8> = [1u8, 2, 4, 6, 4, 2]
            .iter()
            .copied()
            .cycle()
            .take(600)
            .collect();
        let acc = accuracy(&mut lv, &seq);
        assert!(
            acc < 0.2,
            "last value cannot track a fully varying pattern: {acc}"
        );
    }

    #[test]
    fn constant_input_matches_last_value() {
        let mut g = Gpht::new(GphtConfig::DEPLOYED);
        let seq = vec![3u8; 100];
        assert!((accuracy(&mut g, &seq) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_entry_pht_degenerates_to_last_value() {
        use super::super::last_value::LastValue;
        let cfg = GphtConfig {
            gphr_depth: 8,
            pht_entries: 1,
        };
        let mut g = Gpht::new(cfg);
        let mut lv = LastValue::new();
        // A varied sequence where patterns rarely repeat back-to-back.
        let seq: Vec<u8> = (0..500).map(|i| 1 + ((i * 7 + i / 13) % 6) as u8).collect();
        for &id in &seq {
            let gp = g.next(s(id));
            let lp = lv.next(s(id));
            assert_eq!(gp, lp, "1-entry PHT must behave as last-value");
        }
    }

    #[test]
    fn capacity_is_respected_and_lru_evicts() {
        let cfg = GphtConfig {
            gphr_depth: 2,
            pht_entries: 4,
        };
        let mut g = Gpht::new(cfg);
        // Feed many distinct patterns.
        for i in 0..100u8 {
            g.observe(s(1 + (i % 6)));
        }
        assert!(g.valid_entries() <= 4);
    }

    #[test]
    fn hit_miss_accounting() {
        let mut g = Gpht::new(GphtConfig {
            gphr_depth: 2,
            pht_entries: 16,
        });
        for _ in 0..10 {
            g.observe(s(1));
        }
        // Constant stream: first full-GPHR step misses, rest hit.
        assert_eq!(g.misses(), 1);
        assert!(g.hits() >= 7);
    }

    #[test]
    fn prediction_is_trained_next_period() {
        let mut g = Gpht::new(GphtConfig {
            gphr_depth: 2,
            pht_entries: 16,
        });
        // Pattern [2,1] is always followed by 5: observe 1,2,5 cycling.
        for _ in 0..30 {
            for id in [1u8, 2, 5] {
                g.observe(s(id));
            }
        }
        // Bring GPHR to [2,1] again and check the trained prediction.
        g.observe(s(1));
        g.observe(s(2));
        assert_eq!(g.predict().get(), 5);
    }

    #[test]
    fn warmup_behaves_as_last_value() {
        let mut g = Gpht::new(GphtConfig {
            gphr_depth: 4,
            pht_entries: 16,
        });
        for id in [3u8, 5, 2] {
            let p = g.next(s(id));
            assert_eq!(p.get(), id, "during warm-up prediction = last observed");
        }
        assert_eq!(g.hits() + g.misses(), 0, "no PHT activity during warm-up");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut g = Gpht::new(GphtConfig::DEPLOYED);
        for i in 0..50u8 {
            g.observe(s(1 + (i % 6)));
        }
        g.reset();
        assert_eq!(g.valid_entries(), 0);
        assert_eq!(g.predict(), PhaseId::CPU_BOUND);
        assert_eq!(g.hits(), 0);
        assert_eq!(g.misses(), 0);
        assert!(g.history().is_empty());
    }

    #[test]
    fn name_encodes_config() {
        assert_eq!(Gpht::new(GphtConfig::REFERENCE).name(), "GPHT_8_1024");
    }

    #[test]
    #[should_panic(expected = "GPHR depth")]
    fn zero_depth_rejected() {
        let _ = Gpht::new(GphtConfig {
            gphr_depth: 0,
            pht_entries: 8,
        });
    }

    #[test]
    #[should_panic(expected = "PHT")]
    fn zero_entries_rejected() {
        let _ = Gpht::new(GphtConfig {
            gphr_depth: 8,
            pht_entries: 0,
        });
    }

    #[test]
    fn history_reports_most_recent_first() {
        let mut g = Gpht::new(GphtConfig {
            gphr_depth: 3,
            pht_entries: 8,
        });
        for id in [1u8, 2, 3, 4] {
            g.observe(s(id));
        }
        let h: Vec<u8> = g.history().iter().map(|p| p.get()).collect();
        assert_eq!(h, vec![4, 3, 2]);
    }
}
