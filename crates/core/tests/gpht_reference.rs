//! Reference-model tests for the indexed [`Gpht`].
//!
//! `ReferenceGpht` below is the original, obviously-correct table: a
//! linear associative scan over `Option` rows, with a logical clock for
//! LRU ages and a fresh boxed tag per insert. The production `Gpht`
//! replaces the scan with an exact hash index and the ages with an
//! intrusive recency list; these properties pin it to the reference on
//! every observable — prediction, hit and miss counts, valid rows and
//! the GPHR — after every single step.

use livephase_core::{Gpht, GphtConfig, PhaseId, PhaseSample, Predictor};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct RefEntry {
    tag: Box<[PhaseId]>,
    prediction: PhaseId,
    age: u64,
}

/// The linear-scan GPHT the indexed one must match bit for bit.
#[derive(Debug, Clone)]
struct ReferenceGpht {
    depth: usize,
    gphr: VecDeque<PhaseId>,
    pht: Vec<Option<RefEntry>>,
    tick: u64,
    pending_update: Option<usize>,
    prediction: PhaseId,
    hits: u64,
    misses: u64,
}

impl ReferenceGpht {
    fn new(config: GphtConfig) -> Self {
        Self {
            depth: config.gphr_depth,
            gphr: VecDeque::new(),
            pht: vec![None; config.pht_entries],
            tick: 0,
            pending_update: None,
            prediction: PhaseId::CPU_BOUND,
            hits: 0,
            misses: 0,
        }
    }

    fn valid_entries(&self) -> usize {
        self.pht.iter().filter(|e| e.is_some()).count()
    }

    fn history(&self) -> Vec<PhaseId> {
        self.gphr.iter().copied().collect()
    }

    /// An invalid row if any, else the row with the smallest age.
    fn victim(&self) -> usize {
        let mut lru = 0;
        let mut lru_age = u64::MAX;
        for (i, row) in self.pht.iter().enumerate() {
            match row {
                None => return i,
                Some(e) if e.age < lru_age => {
                    lru_age = e.age;
                    lru = i;
                }
                Some(_) => {}
            }
        }
        lru
    }

    fn observe(&mut self, phase: PhaseId) {
        self.tick += 1;
        if let Some(i) = self.pending_update.take() {
            if let Some(e) = self.pht[i].as_mut() {
                e.prediction = phase;
            }
        }
        if self.gphr.len() == self.depth {
            self.gphr.pop_back();
        }
        self.gphr.push_front(phase);
        if self.gphr.len() < self.depth {
            self.prediction = phase;
            return;
        }
        let hit = self.pht.iter().position(|slot| {
            slot.as_ref()
                .is_some_and(|e| e.tag.iter().eq(self.gphr.iter()))
        });
        match hit {
            Some(i) => {
                self.hits += 1;
                let e = self.pht[i].as_mut().expect("hit rows are valid");
                e.age = self.tick;
                self.prediction = e.prediction;
                self.pending_update = Some(i);
            }
            None => {
                self.misses += 1;
                self.prediction = phase;
                let i = self.victim();
                self.pht[i] = Some(RefEntry {
                    tag: self.gphr.iter().copied().collect(),
                    prediction: phase,
                    age: self.tick,
                });
                self.pending_update = Some(i);
            }
        }
    }

    fn reset(&mut self) {
        *self = Self::new(GphtConfig {
            gphr_depth: self.depth,
            pht_entries: self.pht.len(),
        });
    }
}

const DEPTHS: [usize; 7] = [1, 2, 3, 8, 9, 16, 32];
const ENTRIES: [usize; 5] = [1, 2, 3, 128, 1024];

/// Phase streams of four shapes: uniform over a random alphabet (small
/// alphabets hit, large ones miss and evict), a noisy periodic pattern
/// (hits interleaved with evictions of the noise patterns), a slow
/// random walk, and the full 1–255 range.
fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (
            1u8..=255,
            1u8..=255,
            proptest::collection::vec(0u8..=255, 0..1500)
        )
            .prop_map(|(alphabet, base, raw)| raw
                .into_iter()
                .map(|r| 1 + ((u32::from(base) + u32::from(r % alphabet)) % 255) as u8)
                .collect()),
        (
            proptest::collection::vec(1u8..=255, 1..24),
            proptest::collection::vec((0u8..=255, 1u8..=255), 0..1500)
        )
            .prop_map(|(period, noise)| noise
                .into_iter()
                .enumerate()
                .map(|(i, (roll, p))| if roll < 16 {
                    p
                } else {
                    period[i % period.len()]
                })
                .collect()),
        proptest::collection::vec(0u8..=2, 0..1500).prop_map(|steps| {
            let mut p = 128u8;
            steps
                .into_iter()
                .map(|s| {
                    p = p.saturating_add(s).saturating_sub(1).max(1);
                    p
                })
                .collect()
        }),
        proptest::collection::vec(1u8..=255, 0..1500),
    ]
}

fn assert_same(gpht: &Gpht, reference: &ReferenceGpht, step: usize) {
    assert_eq!(
        gpht.predict(),
        reference.prediction,
        "predict at step {step}"
    );
    assert_eq!(gpht.hits(), reference.hits, "hits at step {step}");
    assert_eq!(gpht.misses(), reference.misses, "misses at step {step}");
    assert_eq!(
        gpht.valid_entries(),
        reference.valid_entries(),
        "valid entries at step {step}"
    );
    assert_eq!(
        gpht.history(),
        reference.history(),
        "history at step {step}"
    );
}

proptest! {
    /// Every observable of the indexed table equals the linear-scan
    /// reference after every step, for every depth and table size.
    #[test]
    fn indexed_gpht_matches_linear_scan_reference(
        d in 0usize..DEPTHS.len(),
        e in 0usize..ENTRIES.len(),
        stream in arb_stream(),
    ) {
        let config = GphtConfig {
            gphr_depth: DEPTHS[d],
            pht_entries: ENTRIES[e],
        };
        let mut gpht = Gpht::new(config);
        let mut reference = ReferenceGpht::new(config);
        assert_same(&gpht, &reference, 0);
        for (step, &id) in stream.iter().enumerate() {
            let phase = PhaseId::new(id);
            gpht.observe(PhaseSample::new(0.01, phase));
            reference.observe(phase);
            assert_same(&gpht, &reference, step + 1);
        }
    }

    /// Small tables under many distinct patterns: nearly every step
    /// evicts, and resets mid-stream must leave no stale index entry.
    #[test]
    fn eviction_heavy_streams_with_resets_match_the_reference(
        d in 0usize..4,
        entries in 1usize..=5,
        stream in proptest::collection::vec(1u8..=12, 0..1200),
        resets in proptest::collection::vec(0usize..1200, 0..4),
    ) {
        let config = GphtConfig {
            gphr_depth: DEPTHS[d],
            pht_entries: entries,
        };
        let mut gpht = Gpht::new(config);
        let mut reference = ReferenceGpht::new(config);
        for (step, &id) in stream.iter().enumerate() {
            if resets.contains(&step) {
                gpht.reset();
                reference.reset();
                assert_same(&gpht, &reference, step);
            }
            let phase = PhaseId::new(id);
            gpht.observe(PhaseSample::new(0.01, phase));
            reference.observe(phase);
            assert_same(&gpht, &reference, step + 1);
        }
    }

    /// A clone continues exactly as the original does.
    #[test]
    fn clones_evolve_identically(
        stream in proptest::collection::vec(1u8..=6, 0..400),
        split in 0usize..400,
    ) {
        let mut a = Gpht::new(GphtConfig { gphr_depth: 3, pht_entries: 4 });
        let mut b = a.clone();
        for (i, &id) in stream.iter().enumerate() {
            if i == split {
                b = a.clone();
            }
            let s = PhaseSample::new(0.01, PhaseId::new(id));
            let pa = a.next(s);
            if i >= split {
                prop_assert_eq!(pa, b.next(s));
            }
        }
    }
}
