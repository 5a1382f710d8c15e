//! The engine's per-pid state table: a slab of states with a free list,
//! an FNV map from pid to slab slot, and a [`RecencyList`] over the slots
//! that picks the LRU victim in O(1).
//!
//! A pid switch costs one FNV probe and a few link writes; a new pid
//! reuses a freed slot when there is one. The victim is always the pid
//! stepped longest ago (`tests/fleet_stress.rs` and the reference model
//! in `tests/lru_reference.rs` pin the eviction order).

use livephase_core::{Predictor, RecencyList, StreamScorer};
use std::collections::HashMap;

/// FNV-1a for the pid → slot map: pids are small integers and the map
/// is looked up once per decision (once per *run* in `step_many`), so
/// the default SipHash's DoS hardening buys nothing here and costs a
/// measurable slice of the per-decision budget.
#[derive(Debug, Default, Clone)]
struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }
}

#[derive(Debug, Default, Clone)]
struct FnvBuild;

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

pub(crate) type BoxedPredictorFactory = Box<dyn Fn() -> Box<dyn Predictor> + Send>;

/// Everything the engine keeps per process: the predictor instance, the
/// streaming scorer, and the operating point last decided for it (for
/// transition accounting).
pub(crate) struct PidState {
    /// The process this state belongs to, for unmapping it on eviction.
    pid: u32,
    pub(crate) predictor: Box<dyn Predictor>,
    pub(crate) scorer: StreamScorer,
    /// Operating point of the previous decision; 0 (the fastest setting)
    /// initially, matching the simulated CPU's starting DVFS index.
    pub(crate) last_op: u8,
}

/// Live per-pid states, bounded by an LRU capacity.
pub(crate) struct PidTable {
    slots: HashMap<u32, u32, FnvBuild>,
    /// `None` marks a free slot (its index is on `free`).
    states: Vec<Option<PidState>>,
    free: Vec<u32>,
    recency: RecencyList,
}

impl PidTable {
    pub(crate) fn new() -> Self {
        Self {
            slots: HashMap::default(),
            states: Vec::new(),
            free: Vec::new(),
            recency: RecencyList::new(),
        }
    }

    /// Number of pids with live state.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn get(&self, pid: u32) -> Option<&PidState> {
        let &slot = self.slots.get(&pid)?;
        self.states.get(slot as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, pid: u32) -> Option<&mut PidState> {
        let &slot = self.slots.get(&pid)?;
        self.states.get_mut(slot as usize)?.as_mut()
    }

    /// Every live state, in slot order.
    pub(crate) fn states(&self) -> impl Iterator<Item = &PidState> {
        self.states.iter().flatten()
    }

    /// Resolves (creating with `factory` if needed) the state for `pid`
    /// and marks it most recently used. A new pid arriving at `max_pids`
    /// live pids first evicts least-recently-used ones; `on_evict` runs
    /// once per eviction.
    pub(crate) fn touch(
        &mut self,
        pid: u32,
        max_pids: usize,
        factory: &BoxedPredictorFactory,
        mut on_evict: impl FnMut(),
    ) -> &mut PidState {
        let slot = match self.slots.get(&pid) {
            Some(&slot) => slot,
            None => {
                while self.slots.len() >= max_pids.max(1) {
                    let victim = self.recency.lru().and_then(|lru| {
                        let state = self.states.get(lru as usize)?.as_ref()?;
                        Some(state.pid)
                    });
                    match victim {
                        Some(victim) if self.remove(victim) => on_evict(),
                        _ => break,
                    }
                }
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.states.push(None);
                    (self.states.len() - 1) as u32
                });
                self.slots.insert(pid, slot);
                slot
            }
        };
        self.recency.touch(slot);
        // lint:allow(no-panic-path): `slot` came from the map or the free
        // list, or was just pushed, so it is < states.len()
        self.states[slot as usize].get_or_insert_with(|| PidState {
            pid,
            predictor: factory(),
            scorer: StreamScorer::new(),
            last_op: 0,
        })
    }

    /// Drops `pid`'s state and frees its slot.
    pub(crate) fn remove(&mut self, pid: u32) -> bool {
        let Some(slot) = self.slots.remove(&pid) else {
            return false;
        };
        self.recency.remove(slot);
        if let Some(state) = self.states.get_mut(slot as usize) {
            *state = None;
        }
        self.free.push(slot);
        true
    }

    /// Drops every state.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.states.clear();
        self.free.clear();
        self.recency.clear();
    }
}
