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
//! 2. looks the GPHR up among the stored PHT tags — an exact match, as
//!    the paper's associative search, but through a hash index: a step
//!    hashes and compares `gphr_depth` bytes (O(depth), independent of
//!    the table size) and allocates nothing once the table is full;
//! 3. on a **match**, emits the stored next-phase prediction and, at the
//!    *next* sampling period, updates that entry's prediction with the
//!    actually observed phase;
//! 4. on a **mismatch**, falls back to last-value prediction (`GPHR[0]`)
//!    and inserts the current GPHR into the PHT, evicting the least
//!    recently used entry when the table is full (the paper's
//!    `Age/Invalid` field becomes fill-order row allocation plus an
//!    intrusive recency list whose tail is the victim).
//!
//! With a PHT of one entry the predictor degenerates to last-value (nearly
//! 100 % tag mismatches), which the paper observes in Figure 5 and which is
//! enforced here by a property test.

use super::{PhaseSample, Predictor};
use crate::phase::PhaseId;
use crate::recency::RecencyList;

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

/// Marks an empty index slot.
const NIL: u32 = u32::MAX;

/// The bookkeeping of one valid PHT row; its tag bytes live in
/// `Gpht::tags` at the same row index.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// The next-phase prediction associated with the tag.
    prediction: PhaseId,
    /// [`tag_hash`] of the row's tag, kept so eviction and index growth
    /// never rehash tag bytes.
    hash: u32,
}

/// One open-addressing index slot: a tag hash and the row holding that
/// tag, or `row == NIL` when the slot is empty.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    row: u32,
}

const EMPTY: Slot = Slot { hash: 0, row: NIL };

/// Hashes a GPHR pattern, eight phases per multiply (Fibonacci hashing).
/// The index takes its slot from the hash's *top* bits, the ones every
/// input byte reaches, so one code path serves every depth.
fn tag_hash(tag: &[u8]) -> u32 {
    let mut h = 0u64;
    for chunk in tag.chunks(8) {
        let mut word = [0u8; 8];
        for (w, &b) in word.iter_mut().zip(chunk) {
            *w = b;
        }
        h = (h.rotate_left(29) ^ u64::from_le_bytes(word)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    (h >> 32) as u32
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
    /// The GPHR, most recent phase first (`GPHR[0]`); only the first
    /// `filled` bytes hold phases.
    gphr: Box<[u8]>,
    filled: usize,
    /// Tags of the valid rows, `gphr_depth` bytes per row, rows in fill
    /// order (the order the paper's "first invalid row" picks).
    tags: Vec<u8>,
    rows: Vec<Row>,
    /// Open-addressing index from tag hash to row: linear probing,
    /// backward-shift deletion, at most half full.
    index: Vec<Slot>,
    /// `32 - log2(index.len())`: a hash's home slot is `hash >> shift`.
    shift: u32,
    /// Rows by last use; the LRU row is the victim once every row is
    /// valid (the paper's `Age` field, as a linked list).
    recency: RecencyList,
    /// Row used (matched or inserted) in the previous period, whose
    /// prediction is trained by the next observed phase.
    pending_update: Option<u32>,
    /// The prediction emitted for the upcoming interval.
    prediction: PhaseId,
    /// Running count of PHT tag hits (for diagnostics / ablations).
    hits: u64,
    /// Running count of PHT tag misses.
    misses: u64,
}

impl Gpht {
    /// Creates a GPHT predictor with the given sizing. Only the GPHR is
    /// allocated up front; PHT rows and the index grow as patterns are
    /// inserted, and once the table is full an insert reuses the
    /// evicted row's storage.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(config: GphtConfig) -> Self {
        config.validate();
        Self {
            config,
            gphr: vec![0; config.gphr_depth].into_boxed_slice(),
            filled: 0,
            tags: Vec::new(),
            rows: Vec::new(),
            index: Vec::new(),
            shift: 32,
            recency: RecencyList::new(),
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
        self.rows.len()
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
        self.gphr
            .iter()
            .take(self.filled)
            .map(|&p| PhaseId::new(p))
            .collect()
    }

    fn tag(&self, row: u32) -> Option<&[u8]> {
        let depth = self.config.gphr_depth;
        let start = row as usize * depth;
        self.tags.get(start..start + depth)
    }

    fn home(&self, hash: u32) -> usize {
        // `shift` is 32 only while the index is empty, and no probe
        // runs then; `checked_shr` keeps that case panic-free anyway.
        hash.checked_shr(self.shift).unwrap_or(0) as usize
    }

    /// Index positions in `hash`'s probe order, each visited once, so
    /// no probe loop can outlive a corrupted index.
    fn probe(&self, hash: u32) -> impl Iterator<Item = usize> {
        let mask = self.index.len().wrapping_sub(1);
        let home = self.home(hash);
        (0..self.index.len()).map(move |k| (home + k) & mask)
    }

    /// The row whose tag equals the GPHR, if any.
    fn lookup(&self, hash: u32) -> Option<u32> {
        for i in self.probe(hash) {
            let slot = self.index.get(i)?;
            if slot.row == NIL {
                return None;
            }
            if slot.hash == hash && self.tag(slot.row) == Some(&*self.gphr) {
                return Some(slot.row);
            }
        }
        None
    }

    fn index_insert(&mut self, slot: Slot) {
        let free = self
            .probe(slot.hash)
            .find(|&i| self.index.get(i).is_some_and(|s| s.row == NIL));
        if let Some(s) = free.and_then(|i| self.index.get_mut(i)) {
            *s = slot;
        }
    }

    /// Removes `row`'s slot, shifting later members of its probe run
    /// back so every lookup still finds its key without tombstones.
    fn index_remove(&mut self, row: u32, hash: u32) {
        let found = self
            .probe(hash)
            .map_while(|i| {
                self.index
                    .get(i)
                    .filter(|s| s.row != NIL)
                    .map(|s| (i, s.row))
            })
            .find(|&(_, r)| r == row);
        let Some((mut hole, _)) = found else {
            return;
        };
        let mask = self.index.len().wrapping_sub(1);
        let start = hole;
        for k in 1..self.index.len() {
            let j = (start + k) & mask;
            let Some(&slot) = self.index.get(j).filter(|s| s.row != NIL) else {
                break;
            };
            // Move the slot into the hole unless its home lies
            // cyclically in (hole, j]: then it must stay past its home.
            let home = self.home(slot.hash);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                if let Some(h) = self.index.get_mut(hole) {
                    *h = slot;
                }
                hole = j;
            }
        }
        if let Some(h) = self.index.get_mut(hole) {
            *h = EMPTY;
        }
    }

    /// Doubles the index while it would be more than half full with
    /// `rows` entries.
    fn reserve_index(&mut self, rows: usize) {
        if rows * 2 <= self.index.len() {
            return;
        }
        let len = (rows * 2).next_power_of_two();
        self.index = vec![EMPTY; len];
        self.shift = 32 - len.trailing_zeros();
        for r in 0..self.rows.len() {
            let hash = self.rows.get(r).map_or(0, |row| row.hash);
            self.index_insert(Slot {
                hash,
                row: r as u32,
            });
        }
    }

    /// Inserts the GPHR as a new pattern predicting `prediction`: into
    /// the next unused row while there is one, else over the LRU row.
    fn insert(&mut self, hash: u32, prediction: PhaseId) -> u32 {
        let row = Row { prediction, hash };
        let victim = if self.rows.len() < self.config.pht_entries {
            None
        } else {
            self.recency.lru()
        };
        let r = match victim {
            None => {
                self.reserve_index(self.rows.len() + 1);
                self.tags.extend_from_slice(&self.gphr);
                self.rows.push(row);
                (self.rows.len() - 1) as u32
            }
            Some(r) => {
                let old_hash = self.rows.get(r as usize).map_or(0, |v| v.hash);
                self.index_remove(r, old_hash);
                let depth = self.config.gphr_depth;
                let start = r as usize * depth;
                if let Some(tag) = self.tags.get_mut(start..start + depth) {
                    tag.copy_from_slice(&self.gphr);
                }
                if let Some(v) = self.rows.get_mut(r as usize) {
                    *v = row;
                }
                r
            }
        };
        self.index_insert(Slot { hash, row: r });
        self.recency.touch(r);
        r
    }
}

impl Predictor for Gpht {
    fn observe(&mut self, sample: PhaseSample) {
        // (3)/(4): train the row used last period with the actual outcome.
        if let Some(r) = self.pending_update.take() {
            if let Some(row) = self.rows.get_mut(r as usize) {
                row.prediction = sample.phase;
            }
        }

        // (1) Shift the observed phase into the GPHR.
        self.gphr.copy_within(..self.gphr.len() - 1, 1);
        if let Some(front) = self.gphr.first_mut() {
            *front = sample.phase.get();
        }
        if self.filled < self.config.gphr_depth {
            self.filled += 1;
        }
        if self.filled < self.config.gphr_depth {
            // Warm-up: no full pattern yet; behave as last-value and do not
            // pollute the PHT with short tags.
            self.prediction = sample.phase;
            return;
        }

        // (2) Exact indexed tag lookup.
        let hash = tag_hash(&self.gphr);
        match self.lookup(hash) {
            Some(r) => {
                self.hits += 1;
                self.recency.touch(r);
                if let Some(row) = self.rows.get(r as usize) {
                    self.prediction = row.prediction;
                }
                self.pending_update = Some(r);
            }
            None => {
                self.misses += 1;
                // Fall back to last value and allocate the pattern, seeded
                // with last value until trained next period.
                self.prediction = sample.phase;
                self.pending_update = Some(self.insert(hash, sample.phase));
            }
        }
    }

    fn predict(&self) -> PhaseId {
        self.prediction
    }

    fn reset(&mut self) {
        self.filled = 0;
        self.tags.clear();
        self.rows.clear();
        self.index.fill(EMPTY);
        self.recency.clear();
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
