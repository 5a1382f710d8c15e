//! Telemetry contract of the arbiter: after every epoch, each
//! `tenants_arbiter_{grants,denials}_total{op}` series has advanced by
//! exactly the number of grants returned at that setting with that
//! verdict — on fresh arbitrations and on epochs answered from the memo
//! of the previous one.
//!
//! The series live in the process-global registry, so this file holds a
//! single test: no other test in the binary can move them underneath it.

use livephase_pmsim::PlatformConfig;
use livephase_telemetry::{global, Counter};
use livephase_tenants::{Arbiter, ArbiterPolicy, Grant, Request};
use std::sync::Arc;

/// `series[op][denied]`: the grant and denial counters per setting.
fn fetch(slowest: usize) -> Vec<[Arc<Counter>; 2]> {
    (0..=slowest)
        .map(|op| {
            let op = op.to_string();
            [
                global().counter("tenants_arbiter_grants_total", "", &[("op", &op)]),
                global().counter("tenants_arbiter_denials_total", "", &[("op", &op)]),
            ]
        })
        .collect()
}

fn read(series: &[[Arc<Counter>; 2]]) -> Vec<[u64; 2]> {
    series.iter().map(|s| [s[0].get(), s[1].get()]).collect()
}

/// 16 tenants on 2 cores; `salt` varies the requested settings.
fn requests(salt: u32) -> Vec<Request> {
    (0..16u32)
        .map(|tenant| Request {
            tenant,
            core: tenant as usize % 2,
            requested_op: ((tenant * 7 + salt * 3) % 6) as usize,
            priority: u8::from(tenant % 5 != 0),
        })
        .collect()
}

#[test]
fn outcome_series_advance_by_the_returned_grants() {
    let platform = PlatformConfig::pentium_m();
    let (a, b, c) = (requests(0), requests(1), requests(2));
    // Repeats of the previous epoch (memo hits) and of earlier ones.
    let epochs = [&a, &a, &b, &a, &c, &c, &c, &b, &a, &a];
    let mut seen = [0u64; 2];
    for policy in [ArbiterPolicy::Priority, ArbiterPolicy::WaterFill] {
        let mut arbiter = Arbiter::new(&platform, 15.0, policy, 2);
        let series = fetch(arbiter.slowest());
        for (epoch, reqs) in epochs.iter().enumerate() {
            let before = read(&series);
            let grants: Vec<Grant> = arbiter.arbitrate(reqs);
            let after = read(&series);
            let mut tally = vec![[0u64; 2]; series.len()];
            for g in &grants {
                tally[g.op][usize::from(g.denied)] += 1;
                seen[usize::from(g.denied)] += 1;
            }
            let delta: Vec<[u64; 2]> = after
                .iter()
                .zip(&before)
                .map(|(x, y)| [x[0] - y[0], x[1] - y[1]])
                .collect();
            assert_eq!(delta, tally, "{policy}, epoch {epoch}");
        }
    }
    assert!(
        seen[0] > 0 && seen[1] > 0,
        "the cap must both grant and deny: {seen:?}"
    );
}
