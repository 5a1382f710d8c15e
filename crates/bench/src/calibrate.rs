//! Machine calibration: the one wall-clock measurement everything else
//! is a ratio of.
//!
//! Hardcoded millisecond thresholds make a perf gate a liar on any
//! machine other than the one that wrote them. Instead the harness
//! measures a **fixed calibration kernel** once per invocation, and
//! every bench area reports its cost as a *ratio to that baseline*. A
//! fast machine shrinks both numerator and denominator; the ratio
//! survives the trip from a dev laptop to a loaded CI runner.
//!
//! The kernel imports nothing from the workspace: a fold of integer
//! hashes over a 256 KiB table, each step loading the word its hash
//! picks. That is the shape of a decision — hash, then a cache-resident
//! load — without being one, so speeding up the engine (or any other
//! area) moves that area's ratio instead of the baseline it is divided
//! by. The steps are independent loads written in the workspace's own
//! idiom (`.get()`, iterator folds), so the kernel slows down in an
//! unoptimized test build about as much as the code it is compared
//! with, and a debug build's ratios stay within the gate's headroom.
//!
//! The measurement is cached in a process-wide `OnceLock`, so a run
//! over many areas calibrates exactly once.

use crate::stats::Summary;
use std::sync::OnceLock;
use std::time::Instant;

/// Words in the kernel's table: 256 KiB, larger than L1 and within L2
/// on common cores, like the engine's per-pid working set.
pub const KERNEL_WORDS: usize = 1 << 15;
/// Hash-and-load steps in one calibration rep: about a millisecond on a
/// 2.7 GHz Xeon, long enough that clock granularity disappears and
/// short enough that warmup + reps stay well under the ~200 ms budget
/// the whole calibration is allowed.
pub const KERNEL_STEPS: u64 = 1 << 18;
/// Timed repetitions of the calibration kernel.
pub const CALIBRATION_REPS: usize = 15;
/// Untimed warmup repetitions before the timed ones.
pub const CALIBRATION_WARMUP: usize = 3;

/// The calibration result: the machine's baseline cost for the
/// calibration kernel, plus how noisy the measurement itself was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Median wall-clock nanoseconds for one calibration rep.
    pub baseline_ns: u64,
    /// MAD of the reps — the gate's variance sanity check reads
    /// `mad / median` from here via [`variance`](Self::variance).
    pub mad_ns: u64,
    /// Number of timed reps behind the numbers.
    pub reps: usize,
}

impl Calibration {
    /// Relative measurement noise (`mad / median`). Machines where this
    /// exceeds the gate's sanity bound get a loud skip instead of a
    /// meaningless verdict.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.baseline_ns == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.mad_ns as f64 / self.baseline_ns as f64
            }
        }
    }
}

/// The splitmix64 finalizer: a fixed, well-mixed integer hash.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The kernel's table: [`KERNEL_WORDS`] hashed words.
fn kernel_table() -> Vec<u64> {
    (0..KERNEL_WORDS as u64).map(mix).collect()
}

/// One calibration rep: [`KERNEL_STEPS`] steps, each hashing its step
/// number, loading the table word the hash picks and folding that
/// word's hash into the result.
fn kernel(table: &[u64], seed: u64) -> u64 {
    let mask = table.len().wrapping_sub(1);
    (0..KERNEL_STEPS).fold(seed, |acc, i| {
        let word = table
            .get(mix(i ^ seed) as usize & mask)
            .copied()
            .unwrap_or(i);
        acc.rotate_left(5) ^ mix(word)
    })
}

/// Runs the calibration kernel now, uncached. Exposed for tests and
/// for the variance measurement; production callers want
/// [`calibration`].
#[must_use]
pub fn measure_calibration() -> Calibration {
    let table = kernel_table();
    let mut seed = 0u64;
    let mut rep = || {
        seed = std::hint::black_box(kernel(&table, seed));
    };
    for _ in 0..CALIBRATION_WARMUP {
        rep();
    }
    let mut ns = Vec::with_capacity(CALIBRATION_REPS);
    for _ in 0..CALIBRATION_REPS {
        let started = Instant::now();
        rep();
        ns.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let summary = Summary::from_ns(&ns).expect("CALIBRATION_REPS > 0");
    Calibration {
        baseline_ns: summary.median_ns.max(1),
        mad_ns: summary.mad_ns,
        reps: summary.iterations,
    }
}

static CALIBRATION: OnceLock<Calibration> = OnceLock::new();

/// The process-wide calibration, measured on first use and cached: many
/// areas, one baseline.
pub fn calibration() -> &'static Calibration {
    CALIBRATION.get_or_init(|| {
        livephase_telemetry::timed_span!("bench::calibrate", "calibration", {
            measure_calibration()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_walks_the_table() {
        let table = kernel_table();
        assert_eq!(table.len(), KERNEL_WORDS);
        assert!(KERNEL_WORDS.is_power_of_two(), "the walk masks indices");
        assert_eq!(kernel(&table, 7), kernel(&table, 7));
        assert_ne!(kernel(&table, 7), kernel(&table, 8));
    }

    #[test]
    fn calibration_is_positive_and_cached() {
        let first = calibration();
        assert!(first.baseline_ns > 0);
        assert_eq!(first.reps, CALIBRATION_REPS);
        let second = calibration();
        assert!(
            std::ptr::eq(first, second),
            "OnceLock hands out the same measurement"
        );
    }
}
