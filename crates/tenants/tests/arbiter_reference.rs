//! Reference-model tests for the level-count [`Arbiter`].
//!
//! `ReferenceArbiter` below is the original, obviously-correct arbiter:
//! every feasibility probe clones the grant vector and rescans all
//! requests for the per-core maxima, and water-fill searches the whole
//! request set for the worst-off tenant before each single-step
//! upgrade. Its `arbitrate`, `feasible_with` and `total_cost` are the
//! production code before the per-core level counts replaced them,
//! minus the telemetry. The production arbiter must match it bit for
//! bit: the same grants, the same floor verdict and the same running
//! grant/denial totals over successive epochs on one arbiter, for both
//! policies, under the analytic backend, two fitted learned ones and
//! two deliberately non-monotone cost tables. Epochs may repeat an
//! earlier epoch's requests, exactly (A, A, B, A) or with one field of
//! one request changed, so the production arbiter's memo of the last
//! epoch is exercised on its hits and on near misses.

use livephase_pmsim::{
    AnalyticModel, LinearModel, OperatingPointTable, PlatformConfig, PowerInput, PowerModel,
    PowerModelKind, TrainingRecord, TreeModel,
};
use livephase_tenants::{Arbiter, ArbiterPolicy, Grant, Request};
use proptest::prelude::*;

/// The clone-and-rescan arbiter the level-count one must match.
struct ReferenceArbiter {
    cost_w: Vec<f64>,
    budget_w: f64,
    policy: ArbiterPolicy,
    cores: usize,
    grants_total: u64,
    denials_total: u64,
}

impl ReferenceArbiter {
    fn new(platform: &PlatformConfig, budget_w: f64, policy: ArbiterPolicy, cores: usize) -> Self {
        let cost_w = platform
            .opp_table
            .iter()
            .map(|(_, opp)| platform.power.worst_case(opp))
            .collect();
        Self {
            cost_w,
            budget_w,
            policy,
            cores,
            grants_total: 0,
            denials_total: 0,
        }
    }

    fn cost_w(&self, op: usize) -> f64 {
        let last = self.cost_w.len().saturating_sub(1);
        self.cost_w.get(op.min(last)).copied().unwrap_or(0.0)
    }

    fn slowest(&self) -> usize {
        self.cost_w.len().saturating_sub(1)
    }

    fn floor_feasible(&self, requests: &[Request]) -> bool {
        let mut ops = Vec::new();
        ops.resize(requests.len(), self.slowest());
        self.total_cost(requests, &ops) <= self.budget_w + 1e-9
    }

    fn total_cost(&self, requests: &[Request], ops: &[usize]) -> f64 {
        let mut core_max = Vec::new();
        core_max.resize(self.cores.max(1), 0.0f64);
        for (i, req) in requests.iter().enumerate() {
            let op = ops.get(i).copied().unwrap_or_else(|| self.slowest());
            let cost = self.cost_w(op);
            let core = req.core.min(core_max.len().saturating_sub(1));
            if let Some(slot) = core_max.get_mut(core) {
                if cost > *slot {
                    *slot = cost;
                }
            }
        }
        core_max.iter().sum()
    }

    fn feasible_with(
        &self,
        requests: &[Request],
        ops: &[usize],
        i: usize,
        candidate: usize,
    ) -> bool {
        let mut trial = ops.to_vec();
        if let Some(slot) = trial.get_mut(i) {
            *slot = candidate;
        }
        self.total_cost(requests, &trial) <= self.budget_w + 1e-9
    }

    fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
        let slowest = self.slowest();
        let want: Vec<usize> = requests
            .iter()
            .map(|r| r.requested_op.min(slowest))
            .collect();
        let mut ops: Vec<usize> = Vec::new();
        ops.resize(requests.len(), slowest);

        match self.policy {
            ArbiterPolicy::Priority => {
                let mut order: Vec<usize> = (0..requests.len()).collect();
                order.sort_by(|&a, &b| {
                    let (pa, ta) = requests
                        .get(a)
                        .map_or((0, u32::MAX), |r| (r.priority, r.tenant));
                    let (pb, tb) = requests
                        .get(b)
                        .map_or((0, u32::MAX), |r| (r.priority, r.tenant));
                    pb.cmp(&pa).then(ta.cmp(&tb))
                });
                for &i in &order {
                    let target = want.get(i).copied().unwrap_or(slowest);
                    let current = ops.get(i).copied().unwrap_or(slowest);
                    // Fastest affordable setting no faster than requested.
                    for candidate in target..=current {
                        if self.feasible_with(requests, &ops, i, candidate) {
                            if let Some(slot) = ops.get_mut(i) {
                                *slot = candidate;
                            }
                            break;
                        }
                    }
                }
            }
            ArbiterPolicy::WaterFill => {
                let mut frozen = vec![false; requests.len()];
                loop {
                    // The worst-off upgradable tenant: slowest current
                    // grant, ties by tenant id.
                    let mut pick: Option<(usize, usize, u32)> = None;
                    for (i, req) in requests.iter().enumerate() {
                        if frozen.get(i).copied().unwrap_or(true) {
                            continue;
                        }
                        let current = ops.get(i).copied().unwrap_or(slowest);
                        let target = want.get(i).copied().unwrap_or(slowest);
                        if current <= target {
                            continue;
                        }
                        let better = match pick {
                            None => true,
                            Some((_, best_op, best_tenant)) => {
                                current > best_op
                                    || (current == best_op && req.tenant < best_tenant)
                            }
                        };
                        if better {
                            pick = Some((i, current, req.tenant));
                        }
                    }
                    let Some((i, current, _)) = pick else {
                        break;
                    };
                    let candidate = current.saturating_sub(1);
                    if self.feasible_with(requests, &ops, i, candidate) {
                        if let Some(slot) = ops.get_mut(i) {
                            *slot = candidate;
                        }
                    } else if let Some(slot) = frozen.get_mut(i) {
                        *slot = true;
                    }
                }
            }
        }

        let mut grants = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            let op = ops.get(i).copied().unwrap_or(slowest);
            let denied = op > want.get(i).copied().unwrap_or(slowest);
            if denied {
                self.denials_total += 1;
            } else {
                self.grants_total += 1;
            }
            grants.push(Grant {
                tenant: req.tenant,
                op,
                denied,
            });
        }
        grants
    }
}

/// The analytic model's output over a fixed feature sweep at every
/// operating point, as the bench's power-model area trains on.
fn power_training_records() -> Vec<TrainingRecord> {
    let truth = AnalyticModel::pentium_m();
    let table = OperatingPointTable::pentium_m();
    let mut out = Vec::new();
    for (_, opp) in table.iter() {
        for k in 0..8u32 {
            let cf = 0.15 + 0.1 * f64::from(k);
            let input = PowerInput::new(cf, 0.05 * (1.0 - cf), 0.5 + 1.5 * cf);
            out.push(TrainingRecord {
                opp,
                input,
                measured_w: truth.power(opp, &input),
            });
        }
    }
    out
}

fn platform(power: PowerModelKind) -> PlatformConfig {
    PlatformConfig {
        power,
        ..PlatformConfig::pentium_m()
    }
}

/// One epoch's raw requests: tenant, core, requested setting and
/// priority before they are folded into the case's ranges.
type RawEpoch = (u8, Vec<(u32, usize, usize, u8)>);

/// How an epoch's requests are made, a pick of an earlier epoch and of
/// one of its requests, and the raw requests: kinds 0 and 1 use the raw
/// requests, 2 repeats the picked earlier epoch exactly, and 3, 4 and 5
/// repeat it with the picked request's core, priority or requested
/// setting changed. The first epoch always uses its raw requests.
type Epoch = (u8, usize, usize, RawEpoch);

/// One case: cores, budget kind and fraction, per-core setting picks for
/// exact-boundary budgets, and a run of epochs.
type Case = (usize, u8, f64, Vec<usize>, Vec<Epoch>);

fn arb_case() -> impl Strategy<Value = Case> {
    let raw = (
        0u8..3,
        proptest::collection::vec((0u32..1000, 0usize..64, 0usize..64, 0u8..3), 0..=96),
    );
    let epoch = (0u8..6, 0usize..8, 0usize..96, raw);
    (
        1usize..=4,
        0u8..4,
        0.0f64..1.3,
        proptest::collection::vec(0usize..64, 4),
        proptest::collection::vec(epoch, 1..=8),
    )
}

/// The request vectors of a run of epochs (see [`Epoch`]).
fn epoch_requests(epochs: &[Epoch], cores: usize, slowest: usize) -> Vec<Vec<Request>> {
    let mut out: Vec<Vec<Request>> = Vec::new();
    for (kind, back, row, raw) in epochs {
        let reqs = match out.len().checked_sub(1 + back % out.len().max(1)) {
            Some(earlier) if *kind >= 2 => {
                let mut reqs = out[earlier].clone();
                let len = reqs.len();
                if let Some(r) = reqs.get_mut(row % len.max(1)) {
                    match kind {
                        3 => r.core = (r.core + 1) % (cores + 3),
                        4 => r.priority = (r.priority + 1) % 3,
                        5 => r.requested_op = (r.requested_op + 1) % (slowest + 3),
                        _ => {}
                    }
                }
                reqs
            }
            _ => requests(raw, cores, slowest),
        };
        out.push(reqs);
    }
    out
}

/// Requests for one epoch. Tenant ids are a shuffled permutation, drawn
/// from six values (many duplicates) or sparse; cores run to `cores + 2`
/// and settings to `slowest + 2`, past both clamps.
fn requests(raw: &RawEpoch, cores: usize, slowest: usize) -> Vec<Request> {
    let (ids, rows) = raw;
    rows.iter()
        .enumerate()
        .map(|(i, &(key, core, op, priority))| Request {
            tenant: match ids {
                0 => rows
                    .iter()
                    .enumerate()
                    .filter(|&(j, r)| (r.0, j) < (key, i))
                    .count() as u32,
                1 => key % 6,
                _ => key,
            },
            core: core % (cores + 3),
            requested_op: op % (slowest + 3),
            priority,
        })
        .collect()
}

/// The budget for a case: a fraction of all cores at the dearest
/// setting (below the all-slowest floor through above all-fastest), or
/// a sum of per-core setting costs exactly, or nudged onto and across
/// the `1e-9` slack.
fn budget(kind: u8, frac: f64, picks: &[usize], cores: usize, cost_w: &[f64]) -> f64 {
    let cost = |op: usize| cost_w.get(op % cost_w.len()).copied().unwrap_or(0.0);
    let dearest = cost_w.iter().copied().fold(0.0, f64::max);
    let exact: f64 = picks.iter().take(cores).map(|&op| cost(op)).sum();
    match kind {
        0 => frac * cores as f64 * dearest,
        1 => exact,
        2 => exact - 1e-9,
        _ if frac < 0.65 => exact + 1e-9,
        _ => exact - 2e-9,
    }
}

fn assert_matches_reference(power: PowerModelKind, case: &Case) {
    let (cores, kind, frac, picks, epochs) = case;
    let platform = platform(power);
    let cost_w: Vec<f64> = platform
        .opp_table
        .iter()
        .map(|(_, opp)| platform.power.worst_case(opp))
        .collect();
    let budget_w = budget(*kind, *frac, picks, *cores, &cost_w);
    for policy in [ArbiterPolicy::Priority, ArbiterPolicy::WaterFill] {
        let mut arbiter = Arbiter::new(&platform, budget_w, policy, *cores);
        let mut reference = ReferenceArbiter::new(&platform, budget_w, policy, *cores);
        let runs = epoch_requests(epochs, *cores, reference.slowest());
        for (epoch, reqs) in runs.iter().enumerate() {
            let context = format!("{policy}, {cores} cores, {budget_w} W, epoch {epoch}");
            assert_eq!(
                arbiter.floor_feasible(reqs),
                reference.floor_feasible(reqs),
                "floor verdict, {context}"
            );
            assert_eq!(
                arbiter.arbitrate(reqs),
                reference.arbitrate(reqs),
                "grants, {context}"
            );
            assert_eq!(arbiter.grants_total(), reference.grants_total, "{context}");
            assert_eq!(
                arbiter.denials_total(),
                reference.denials_total,
                "{context}"
            );
        }
    }
}

proptest! {
    #[test]
    fn analytic_grants_match_the_rescan_reference(case in arb_case()) {
        assert_matches_reference(PowerModelKind::Analytic(AnalyticModel::pentium_m()), &case);
    }

    #[test]
    fn linear_model_grants_match_the_rescan_reference(case in arb_case()) {
        let linear = LinearModel::fit(&power_training_records()).expect("the sweep is well-posed");
        assert_matches_reference(PowerModelKind::Linear(linear), &case);
    }

    #[test]
    fn tree_model_grants_match_the_rescan_reference(case in arb_case()) {
        let tree = TreeModel::fit(&power_training_records()).expect("the sweep is well-posed");
        assert_matches_reference(PowerModelKind::Tree(tree), &case);
    }

    /// A negative dynamic coefficient makes the cost rise from setting 0
    /// to 1 and then fall, and a small leakage one makes the fast
    /// settings cost less than nothing, so no match here can lean on
    /// costs falling with the index or staying positive.
    #[test]
    fn non_monotone_costs_match_the_rescan_reference(case in arb_case()) {
        for k_leak in [4.0, 2.0] {
            let model = AnalyticModel { k_dyn: -3.0, stall_activity: 0.35, k_leak };
            assert_matches_reference(PowerModelKind::Analytic(model), &case);
        }
    }
}
