//! Reference-model test for the engine's bounded per-pid state.
//!
//! `ReferenceEngine` is the original design: a map of per-pid streams
//! plus a `BTreeMap` recency index of monotonic stamps, whose first
//! entry is the eviction victim. Each stream is a solo engine holding
//! only that pid, so the reference's decisions are the pid's stream
//! decided in isolation. The slab-backed engine must agree with it on
//! every decision, `processes`, `pid_stats` and the eviction count under
//! any mix of `step`, `step_many`, `retire` and `reset`.
//!
//! The eviction count is read from the process-global
//! `engine_pids_evicted_total` counter, so this file holds a single test:
//! no other test in the binary can move the counter underneath it.

use livephase_engine::{Decision, DecisionEngine, EngineConfig, Sample};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

fn engine() -> DecisionEngine {
    DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:2:4").expect("valid spec")
}

struct ReferenceEngine {
    max_pids: usize,
    streams: HashMap<u32, (DecisionEngine, u64)>,
    lru: BTreeMap<u64, u32>,
    next_stamp: u64,
    evictions: u64,
}

impl ReferenceEngine {
    fn new(max_pids: usize) -> Self {
        Self {
            max_pids,
            streams: HashMap::new(),
            lru: BTreeMap::new(),
            next_stamp: 0,
            evictions: 0,
        }
    }

    fn step(&mut self, sample: &Sample) -> Decision {
        if !self.streams.contains_key(&sample.pid) {
            while self.streams.len() >= self.max_pids {
                let (&oldest, &victim) = self.lru.iter().next().expect("a live pid");
                self.lru.remove(&oldest);
                self.streams.remove(&victim);
                self.evictions += 1;
            }
        }
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        let (stream, old) = self
            .streams
            .entry(sample.pid)
            .or_insert_with(|| (engine(), 0));
        if *old != 0 {
            self.lru.remove(old);
        }
        *old = stamp;
        self.lru.insert(stamp, sample.pid);
        stream.step(sample)
    }

    fn retire(&mut self, pid: u32) -> bool {
        match self.streams.remove(&pid) {
            Some((_, stamp)) => {
                self.lru.remove(&stamp);
                true
            }
            None => false,
        }
    }

    fn reset(&mut self) {
        self.streams.clear();
        self.lru.clear();
    }
}

#[derive(Debug, Clone)]
enum Op {
    Step(Sample),
    StepMany(Vec<Sample>),
    Retire(u32),
    Reset,
}

/// Memory-transaction counts (per 100 M uops) that land in different
/// phases, so streams transition and their GPHTs hit and miss.
const MEM: [u64; 4] = [0, 1_200_000, 4_000_000, 9_000_000];

fn arb_sample(pids: u32) -> impl Strategy<Value = Sample> {
    (0..pids, 0usize..MEM.len()).prop_map(|(pid, m)| Sample {
        pid,
        uops: 100_000_000,
        mem_transactions: MEM[m],
    })
}

fn arb_op(pids: u32) -> impl Strategy<Value = Op> {
    (
        0u8..100,
        arb_sample(pids),
        proptest::collection::vec(arb_sample(pids), 0..40),
        0..pids,
    )
        .prop_map(|(roll, sample, batch, pid)| match roll {
            0..=44 => Op::Step(sample),
            45..=89 => Op::StepMany(batch),
            90..=98 => Op::Retire(pid),
            _ => Op::Reset,
        })
}

fn evictions() -> u64 {
    livephase_telemetry::global()
        .counter(
            "engine_pids_evicted_total",
            "Per-pid predictor states evicted by the LRU capacity bound.",
            &[],
        )
        .get()
}

const MAX_PIDS: [usize; 4] = [1, 2, 3, 17];

proptest! {
    #[test]
    fn slab_engine_matches_the_stamp_lru_reference(
        m in 0usize..MAX_PIDS.len(),
        extra_pids in 1u32..24,
        ops in proptest::collection::vec(arb_op(64), 0..120),
    ) {
        let max_pids = MAX_PIDS[m];
        // Pid range a little above capacity, so streams both survive and
        // return after eviction.
        let pids = max_pids as u32 + extra_pids;
        let mut subject = engine().with_max_pids(max_pids);
        let mut reference = ReferenceEngine::new(max_pids);
        let evicted_before = evictions();
        let mut got = Vec::new();
        for op in ops {
            match op {
                Op::Step(s) => {
                    let s = Sample { pid: s.pid % pids, ..s };
                    prop_assert_eq!(subject.step(&s), reference.step(&s));
                }
                Op::StepMany(batch) => {
                    let batch: Vec<Sample> = batch
                        .into_iter()
                        .map(|s| Sample { pid: s.pid % pids, ..s })
                        .collect();
                    got.clear();
                    subject.step_many(&batch, &mut got);
                    let want: Vec<Decision> = batch.iter().map(|s| reference.step(s)).collect();
                    prop_assert_eq!(&got, &want);
                }
                Op::Retire(pid) => {
                    let pid = pid % pids;
                    prop_assert_eq!(subject.retire(pid), reference.retire(pid));
                }
                Op::Reset => {
                    subject.reset();
                    reference.reset();
                }
            }
            prop_assert_eq!(subject.processes(), reference.streams.len());
            for pid in 0..pids {
                let want = reference.streams.get(&pid).and_then(|(e, _)| e.pid_stats(pid));
                prop_assert_eq!(subject.pid_stats(pid), want, "pid {}", pid);
            }
            prop_assert_eq!(evictions() - evicted_before, reference.evictions);
        }
    }
}
