//! `tenants_cluster`: 64 tenants on 2 simulated cores under a binding
//! power cap, 8 of them noisy, water-fill arbitration, 1000 intervals.

use crate::report::{median, Metric, Tally};
use crate::schedule::splitmix;
use crate::{os, sys, trace, Outcome};
use livephase_tenants::{run_scenario, ArbiterPolicy, ScenarioSpec};
use std::time::{Duration, Instant};

pub const TENANTS: usize = 64;
pub const CORES: usize = 2;
pub const NOISY: usize = 8;
pub const INTERVALS: usize = 1000;

/// Watts for the whole cluster: below two cores at full speed, so the
/// arbiter has to deny, and above two cores at the slowest setting, so
/// the cap can be kept.
pub const BUDGET_W: f64 = 20.0;

/// Tenants checked against their solo-oracle runs: three regular ones
/// picked by the seed and the last (noisy) tenant.
pub const CHECKED: usize = 4;

pub fn spec(seed: u64) -> ScenarioSpec {
    let mut s = ScenarioSpec::new(TENANTS, CORES);
    s.noisy = NOISY;
    s.intervals = INTERVALS;
    s.budget_w = BUDGET_W;
    s.policy = ArbiterPolicy::WaterFill;
    s.seed = seed;
    s
}

pub fn checked_tenants(seed: u64) -> Vec<u32> {
    let regular = (TENANTS - NOISY) as u64;
    let mut out: Vec<u32> = (0..CHECKED as u64 - 1)
        .map(|i| (splitmix(seed.wrapping_add(i)) % regular) as u32)
        .collect();
    out.push(TENANTS as u32 - 1);
    out
}

/// Per checked tenant: (tenant, sample digest, decision digest) of its
/// solo run.
type SoloDigests = Vec<(u32, u64, u64)>;

fn setup(seed: u64) -> Result<(ScenarioSpec, SoloDigests), String> {
    trace::span("setup", || {
        let spec = spec(seed);
        spec.validate().map_err(|e| format!("{e:?}"))?;
        let digests = checked_tenants(seed)
            .into_iter()
            .map(|t| {
                let solo = trace::span("tenants.run_scenario", || run_scenario(&spec.solo(t)))
                    .map_err(|e| format!("{e:?}"))?;
                let r = solo.tenants.first().ok_or("solo run has no tenant")?;
                Ok((t, r.sample_digest, r.decision_digest))
            })
            .collect::<Result<_, String>>()?;
        Ok((spec, digests))
    })
}

pub fn run(seed: u64, seconds: f64, setups: usize) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..setups.max(1) {
        let c0 = os::thread_cpu_ns();
        match setup(seed) {
            Ok(r) => {
                setup_s.push(sys::cpu_seconds_since(c0));
                ready = Some(r);
            }
            Err(e) => {
                eprintln!("tenants_cluster: setup failed: {e}");
                tally.record(false);
                return Outcome {
                    tally,
                    ..Outcome::default()
                };
            }
        }
    }
    let Some((spec, solo)) = ready else {
        return Outcome::default();
    };

    let budget = Duration::from_secs_f64(seconds);
    let cpu0 = os::thread_cpu_ns();
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut cpu_per_interval = Vec::new();
    let mut intervals = 0u64;
    let mut first_digest = None;
    let mut last = None;
    while walls.is_empty() || t0.elapsed() < budget {
        let started = Instant::now();
        let cpu_before = os::thread_cpu_ns();
        let report = trace::span("tenants.run_scenario", || run_scenario(&spec));
        let cpu = os::thread_cpu_ns() - cpu_before;
        walls.push(started.elapsed().as_secs_f64());
        let Ok(report) = report else {
            tally.record(false);
            continue;
        };
        let run_intervals = report.tenants.iter().map(|t| t.intervals).sum::<u64>();
        intervals += run_intervals;
        cpu_per_interval.push(cpu as f64 / run_intervals.max(1) as f64);
        // The cap held, the run repeats itself exactly, and the checked
        // tenants match their solo oracles bit for bit.
        tally.record(report.cap_violation_s == 0.0 && report.budget_feasible);
        let digest = report.decision_digest();
        tally.record(*first_digest.get_or_insert(digest) == digest);
        for &(t, sample, decision) in &solo {
            let r = report.tenants.iter().find(|r| r.tenant == t);
            tally.record(
                r.is_some_and(|r| r.sample_digest == sample && r.decision_digest == decision),
            );
        }
        last = Some(report);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let own_cpu = os::thread_cpu_ns() - cpu0;
    let runs = walls.len() as f64;
    let per_run = median(&walls);
    let per_interval = intervals as f64 / runs;
    let (switches, denied) = last
        .as_ref()
        .map_or((0, 0), |r| (r.context_switches, r.denied_epochs()));
    let mut layer = vec![
        Metric::new("tenants.context_switches", switches as f64, "count"),
        Metric::new("tenants.denied_epochs", denied as f64, "count"),
    ];
    // One scenario run is the load generator's operation.
    let slowest = walls.iter().copied().fold(0.0, f64::max);
    layer.extend(crate::loadgen(
        per_run * 1e6,
        slowest * 1e6,
        intervals as f64 / elapsed,
        0.0,
        own_cpu as f64 / 1e9 / elapsed,
    ));
    Outcome {
        cpu_ns_per_op: median(&cpu_per_interval),
        setup_s: median(&setup_s),
        overhead_basis_ns: per_run * 1e9 / per_interval.max(1.0),
        tally,
        layer,
        row: format!(
            "tenant_intervals_per_s={:.0} run_p50_s={per_run:.4} runs={} \
             switches={switches} denied_epochs={denied} digest={:016x}",
            intervals as f64 / elapsed,
            walls.len(),
            first_digest.unwrap_or(0)
        ),
    }
}
