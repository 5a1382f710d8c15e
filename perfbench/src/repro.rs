//! `repro_suite`: all 27 artifacts, each through `run(seed)` and `check`.
//!
//! The artifacts run at the published seed, the one their shape claims
//! are calibrated on; the run's seed draws the order they run in. The
//! traced run also counts the claims that fail at the run's own seed.

use crate::report::{fnv1a, median, Metric, Tally};
use crate::schedule::splitmix;
use crate::{os, sys, trace, Outcome};
use livephase_experiments as exp;
use std::time::{Duration, Instant};

/// An artifact's printable output and its shape-check violations.
type Artifact = fn(u64) -> (String, Vec<String>);

macro_rules! artifact {
    ($name:literal, $module:path) => {
        ($name, |seed| {
            use $module as m;
            let r = m::run(seed);
            (r.to_string(), m::check(&r))
        })
    };
}

/// Every published table and figure, ablation and extension.
pub const ARTIFACTS: [(&str, Artifact); 27] = [
    ("table1", |_| {
        let r = exp::table1::run();
        (r.to_string(), exp::table1::check(&r))
    }),
    ("table2", |_| {
        let r = exp::table2::run();
        (r.to_string(), exp::table2::check(&r))
    }),
    artifact!("fig02", exp::fig02),
    artifact!("fig03", exp::fig03),
    artifact!("fig04", exp::fig04),
    artifact!("fig05", exp::fig05),
    artifact!("fig06", exp::fig06),
    artifact!("fig07", exp::fig07),
    artifact!("fig10", exp::fig10),
    artifact!("fig11", exp::fig11),
    artifact!("fig12", exp::fig12),
    artifact!("fig13", exp::fig13),
    artifact!("gphr_depth", exp::ablations::gphr_depth),
    artifact!("upc_pitfall", exp::ablations::upc_pitfall),
    artifact!("oracle_gap", exp::ablations::oracle_gap),
    artifact!("overheads", exp::ablations::overheads),
    artifact!("granularity", exp::ablations::granularity),
    artifact!("selector", exp::ablations::selector),
    artifact!("pht_organization", exp::ablations::pht_organization),
    artifact!("confidence", exp::ablations::confidence),
    artifact!("family_tour", exp::ablations::family_tour),
    artifact!("dtm", exp::extensions::dtm),
    artifact!("power_cap", exp::extensions::power_cap),
    artifact!("multiprogram", exp::extensions::multiprogram),
    artifact!("duration", exp::extensions::duration),
    artifact!("adaptive_sampling", exp::extensions::adaptive_sampling),
    artifact!("tenants", exp::extensions::tenants),
];

/// The set-up: the benchmark registry generated at the seed, which every
/// artifact's sweeps draw from.
fn setup(seed: u64) -> u64 {
    trace::span("setup", || {
        let mut digest = 0u64;
        for b in livephase_workloads::spec::registry() {
            let t = trace::span("workloads.generate", || b.generate(seed));
            digest = fnv1a(digest, &(t.len() as u64).to_le_bytes());
        }
        digest
    })
}

/// The order a run executes the artifacts in: a permutation drawn from
/// the seed, so every seed checks that each artifact's output is the
/// same whatever ran before it.
pub fn order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ARTIFACTS.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (splitmix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// How many artifacts' shape claims fail when run at `seed` instead of
/// the published seed the claims were calibrated on. Informational: a
/// claim is a statistical statement about one seed's synthetic traces.
pub fn violations_at(seed: u64) -> usize {
    ARTIFACTS
        .iter()
        .filter(|(name, run)| {
            let (_, v) = trace::span(name, || run(seed));
            for x in &v {
                eprintln!("repro_suite: at seed {seed}: {name}: {x}");
            }
            !v.is_empty()
        })
        .count()
}

pub fn run(seed: u64, seconds: f64, setups: usize) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    for _ in 0..setups.max(1) {
        let c0 = os::thread_cpu_ns();
        std::hint::black_box(setup(seed));
        setup_s.push(sys::cpu_seconds_since(c0));
    }

    let order = order(seed);
    let budget = Duration::from_secs_f64(seconds);
    let cpu0 = os::process_cpu_ns();
    let t0 = Instant::now();
    let mut suites = Vec::new();
    let mut artifact_s = vec![Vec::new(); ARTIFACTS.len()];
    let mut digests: Vec<Option<u64>> = vec![None; ARTIFACTS.len()];
    while suites.is_empty() || t0.elapsed() < budget {
        let suite = Instant::now();
        for &i in &order {
            let (name, run) = ARTIFACTS[i];
            let started = Instant::now();
            let (text, violations) = trace::span(name, || run(exp::DEFAULT_SEED));
            artifact_s[i].push(started.elapsed().as_secs_f64());
            for v in &violations {
                eprintln!("repro_suite: {name}: shape violation: {v}");
            }
            // Every artifact's claims hold, and its output repeats exactly.
            let digest = fnv1a(0xcbf2_9ce4_8422_2325, text.as_bytes());
            tally.record(violations.is_empty() && *digests[i].get_or_insert(digest) == digest);
        }
        suites.push(suite.elapsed().as_secs_f64());
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu = os::process_cpu_ns() - cpu0;
    let per_suite = median(&suites);
    let mut layer: Vec<Metric> = ARTIFACTS
        .iter()
        .zip(&artifact_s)
        .map(|((name, _), s)| {
            Metric::new(format!("repro.artifact_ms.{name}"), median(s) * 1e3, "ms")
        })
        .collect();
    // One suite is the load generator's operation.
    let slowest_suite = suites.iter().copied().fold(0.0, f64::max);
    layer.extend(crate::loadgen(
        per_suite * 1e6,
        slowest_suite * 1e6,
        suites.len() as f64 / elapsed,
        0.0,
        cpu as f64 / 1e9 / elapsed,
    ));
    let slowest = ARTIFACTS
        .iter()
        .zip(&artifact_s)
        .map(|((name, _), s)| (median(s), *name))
        .fold((0.0, ""), |a, b| if b.0 > a.0 { b } else { a });
    Outcome {
        // Process CPU per suite, parallel sweeps included.
        cpu_ns_per_op: cpu as f64 / suites.len() as f64,
        setup_s: median(&setup_s),
        overhead_basis_ns: per_suite * 1e9,
        tally,
        layer,
        row: format!(
            "repro_s={per_suite:.4} suites={} slowest={}:{:.0}% digests={:016x}",
            suites.len(),
            slowest.1,
            100.0 * slowest.0 / per_suite.max(1e-9),
            digests
                .iter()
                .fold(0u64, |d, x| fnv1a(d, &x.unwrap_or(0).to_le_bytes()))
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_order_is_a_seeded_permutation() {
        let a = order(7);
        assert_eq!(a, order(7));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ARTIFACTS.len()).collect::<Vec<_>>());
        assert_ne!(a, order(8));
    }
}
