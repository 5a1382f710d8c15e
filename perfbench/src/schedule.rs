//! The open-loop offered-load schedule of `serve_fleet`.
//!
//! Load is offered at a fixed ladder of total rates. Each rung is cut
//! into 1 ms ticks; at tick `k` the relay sends every sample due in
//! `(k - 1, k]` ms, and a sample's latency is timed from the tick it was
//! due. Samples alternate between the connections, and each connection
//! deals its samples round-robin over its pids starting at a seeded
//! offset, so the schedule is a pure function of the seed.

use std::time::Duration;

/// Offered total rates, samples/s, in the order they run.
pub const LADDER: [u64; 4] = [500_000, 1_000_000, 2_000_000, 3_000_000];

/// Index of the nominal rung in [`LADDER`].
pub const NOMINAL: usize = 1;

/// Relay flush period.
pub const TICK: Duration = Duration::from_millis(1);

/// Long-lived connections the load is spread over.
pub const CONNECTIONS: usize = 2;

/// Pids multiplexed on each connection.
pub const PIDS_PER_CONN: u32 = 256;

/// One rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Offered total rate, samples/s.
    pub rate: u64,
    /// Ticks the rung offers load for.
    pub ticks: u64,
}

impl Rung {
    /// Samples due in tick `k` (1-based): the integer rate × time
    /// staircase, so a rung sends exactly `rate × ticks × TICK` samples.
    pub fn due_in_tick(&self, k: u64) -> u64 {
        self.due_by(k) - self.due_by(k.saturating_sub(1))
    }

    fn due_by(&self, k: u64) -> u64 {
        let tick_ns = TICK.as_nanos();
        (u128::from(self.rate) * u128::from(k) * tick_ns / 1_000_000_000) as u64
    }

    /// Samples the whole rung sends.
    pub fn total(&self) -> u64 {
        self.due_by(self.ticks)
    }
}

/// Everything the fleet load sends, derived from the seed and run length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub rungs: Vec<Rung>,
    /// Per connection: the pid slot its first sample goes to.
    pub pid_offset: [u32; CONNECTIONS],
}

impl Plan {
    /// Splits `seconds` of offered load over the ladder: the nominal
    /// rung gets 40 % of the time, the others 20 % each.
    pub fn new(seed: u64, seconds: f64) -> Self {
        let ticks_total = (seconds / TICK.as_secs_f64()).max(LADDER.len() as f64 * 5.0);
        let rungs = LADDER
            .iter()
            .enumerate()
            .map(|(i, &rate)| {
                let share = if i == NOMINAL { 0.4 } else { 0.2 };
                Rung {
                    rate,
                    ticks: (ticks_total * share).round().max(1.0) as u64,
                }
            })
            .collect();
        let mix = splitmix(seed);
        Self {
            rungs,
            pid_offset: [
                (mix % u64::from(PIDS_PER_CONN)) as u32,
                ((mix >> 32) % u64::from(PIDS_PER_CONN)) as u32,
            ],
        }
    }

    /// Samples sent over the whole plan.
    pub fn total(&self) -> u64 {
        self.rungs.iter().map(Rung::total).sum()
    }

    /// Connection that global sample `g` travels on.
    pub fn conn_of(g: u64) -> usize {
        (g % CONNECTIONS as u64) as usize
    }

    /// Pid slot (0-based within the connection) of the `j`-th sample a
    /// connection sends.
    pub fn slot_of(&self, conn: usize, j: u64) -> u32 {
        ((j + u64::from(self.pid_offset[conn])) % u64::from(PIDS_PER_CONN)) as u32
    }

    /// How many samples each pid (connection-major) receives over the plan.
    pub fn per_pid_counts(&self) -> Vec<u64> {
        let total = self.total();
        let mut counts = vec![0u64; CONNECTIONS * PIDS_PER_CONN as usize];
        for conn in 0..CONNECTIONS {
            let sent =
                total / CONNECTIONS as u64 + u64::from((conn as u64) < total % CONNECTIONS as u64);
            let per = u64::from(PIDS_PER_CONN);
            for slot in 0..PIDS_PER_CONN {
                // Samples j < sent with (j + offset) % per == slot.
                let first = (u64::from(slot) + per - u64::from(self.pid_offset[conn])) % per;
                let n = if sent > first {
                    (sent - first).div_ceil(per)
                } else {
                    0
                };
                counts[conn * PIDS_PER_CONN as usize + slot as usize] = n;
            }
        }
        counts
    }
}

/// The splitmix64 finalizer: a well-mixed 64-bit function of `x`.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_a_pure_function_of_the_seed() {
        assert_eq!(Plan::new(7, 10.0), Plan::new(7, 10.0));
        let offsets: std::collections::BTreeSet<_> =
            (0..16).map(|s| Plan::new(s, 10.0).pid_offset).collect();
        assert!(offsets.len() > 8, "the seed moves the pid interleave");
        let p = Plan::new(3, 10.0);
        assert_eq!(p.rungs.iter().map(|r| r.rate).collect::<Vec<_>>(), LADDER);
        assert_eq!(p.rungs[NOMINAL].ticks, 4000);
        assert_eq!(p.rungs[0].ticks, 2000);
    }

    #[test]
    fn ticks_add_up_to_rate_times_time() {
        for rate in [1u64, 999, 500_000, 1_000_000, 3_000_000, 1_234_567] {
            let rung = Rung { rate, ticks: 1500 };
            let sum: u64 = (1..=rung.ticks).map(|k| rung.due_in_tick(k)).sum();
            assert_eq!(sum, rung.total());
            assert_eq!(rung.total(), rate * 1500 / 1000);
            // No tick ever bunches more than its share plus one.
            let per_tick = rate / 1000;
            assert!((1..=rung.ticks).all(|k| rung.due_in_tick(k) <= per_tick + 1));
        }
    }

    #[test]
    fn per_pid_counts_match_a_direct_deal() {
        let mut p = Plan::new(11, 0.02);
        p.rungs.truncate(1);
        p.rungs[0].rate = 1_000_003;
        let total = p.total();
        let mut direct = vec![0u64; CONNECTIONS * PIDS_PER_CONN as usize];
        let mut sent = [0u64; CONNECTIONS];
        for g in 0..total {
            let c = Plan::conn_of(g);
            let slot = p.slot_of(c, sent[c]);
            sent[c] += 1;
            direct[c * PIDS_PER_CONN as usize + slot as usize] += 1;
        }
        assert_eq!(p.per_pid_counts(), direct);
        assert_eq!(direct.iter().sum::<u64>(), total);
    }
}
