//! The cluster power-cap arbiter.
//!
//! Once per scheduling epoch the arbiter collects one DVFS request per
//! live tenant (the operating point that tenant's own phase prediction
//! asked for) and hands back a *grant*: the fastest setting the tenant
//! may run at. Grants are floors on the operating-point index — a tenant
//! may always run slower than its grant (power falls monotonically with
//! the index), never faster — so the budget argument is local and
//! airtight:
//!
//! * a grant is costed at the power backend's declared
//!   [`worst_case`](livephase_pmsim::PowerModel::worst_case) for that
//!   setting — an upper bound on anything a tenant can actually draw
//!   there, for *any* backend in the model zoo (the analytic model's
//!   bound is full-activity power; learned models bound their clamped
//!   feature boxes);
//! * tenants are pinned to cores and a core runs one tenant at a time,
//!   so a core's instantaneous draw is bounded by the *maximum* grant
//!   cost among its tenants, not the sum;
//! * the arbiter admits only grant vectors whose summed per-core maxima
//!   fit the budget, so measured cluster power can never exceed it.
//!
//! # Costing
//!
//! The grant vector under arbitration is held as a `cores × settings`
//! table of grant counts (`Levels`). A feasibility probe moves one
//! grant between two cells of its core's row, prices the whole table
//! and undoes the move if it does not fit: O(cores × settings), no
//! allocation. A core's cost is the largest `cost_w` among the settings
//! with a nonzero count, starting from 0.0; the total sums the cores in
//! core order and is admitted when it is at most `budget_w + 1e-9`.
//! A core's maximum does not depend on the order its grants are
//! visited in, so the total is the same f64 a scan over the requests
//! gives, and nothing assumes costs fall with the index — learned
//! backends need not be monotone.
//!
//! # Policies
//!
//! Both start every grant at the slowest setting and only ever move a
//! grant faster, never past its request.
//!
//! * `priority` serves requests by their `priority` field, highest
//!   first (the cluster gives noisy tenants 0 and the rest 1), ties by
//!   tenant id, and gives each the fastest still-affordable setting —
//!   noisy neighbours are throttled first. Cost per epoch: one sort
//!   plus at most `settings` probes per request.
//! * `waterfill` repeatedly upgrades the worst-off tenant (slowest
//!   current grant, ties by lowest tenant id) by one step while the
//!   budget holds, converging to the most even feasible allocation.
//!   Cost per epoch: one sort plus at most `settings` visits and one
//!   probe per visit for each request — O(settings × tenants) probes.
//!   See [`Arbiter::arbitrate`] for why a level sweep makes the same
//!   picks as the worst-off-first loop.
//!
//! # The memo
//!
//! Phases are stable and recur, so a tenant's request rarely changes
//! from one epoch to the next, and most epochs hand the arbiter exactly
//! the previous epoch's request vector. The arbiter keeps the last
//! request slice, its grants and their outcome tally (grants and
//! denials per granted setting). When `arbitrate` receives an identical
//! slice — whole-[`Request`] equality, same order — it returns the
//! stored grants without running the policy: one slice comparison and
//! one copy of the grants, O(tenants) with no probe, against the
//! O(settings × tenants) probes of a fresh arbitration. The memo caches
//! a pure function of the requests because nothing the policy reads
//! (costs, budget, policy, core count) can change after
//! [`Arbiter::new`]; any setter added later must clear it.
//!
//! Telemetry is published from the tally, one counter add per nonzero
//! `(setting, denied)` cell, on hits and misses alike, so every series
//! advances exactly as if each request were counted on its own.

use livephase_pmsim::{PlatformConfig, PowerModel};
use livephase_telemetry::{Counter, Histogram};
use std::fmt;
use std::sync::Arc;

/// How the arbiter divides headroom among competing tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterPolicy {
    /// Grant in priority order, fastest affordable setting each.
    Priority,
    /// Upgrade the worst-off tenant one step at a time until the budget
    /// is exhausted.
    WaterFill,
}

impl ArbiterPolicy {
    /// Parses a policy name (`priority` | `waterfill`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "priority" => Some(Self::Priority),
            "waterfill" => Some(Self::WaterFill),
            _ => None,
        }
    }
}

impl fmt::Display for ArbiterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Priority => write!(f, "priority"),
            Self::WaterFill => write!(f, "waterfill"),
        }
    }
}

/// One tenant's per-epoch DVFS request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Requesting tenant.
    pub tenant: u32,
    /// Core the tenant is pinned to.
    pub core: usize,
    /// Operating-point index the tenant's prediction asked for
    /// (0 = fastest).
    pub requested_op: usize,
    /// Arbitration priority; higher wins under the `priority` policy.
    pub priority: u8,
}

/// One tenant's per-epoch grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The tenant granted.
    pub tenant: u32,
    /// The fastest operating-point index the tenant may run at this
    /// epoch (a floor: running at a higher index is always allowed).
    pub op: usize,
    /// Whether the grant is slower than what the tenant requested.
    pub denied: bool,
}

/// A grant vector as counts per core and setting: what a feasibility
/// probe prices (see the module docs).
#[derive(Debug, Default)]
struct Levels {
    /// Row length: settings per core.
    settings: usize,
    /// `counts[core * settings + op]`: grants at `op` on `core`.
    counts: Vec<usize>,
}

impl Levels {
    /// Reshapes the table for `cores` cores and settings `0..=slowest`,
    /// places every request at `slowest` and returns their slots.
    fn fill(&mut self, requests: &[Request], cores: usize, slowest: usize) -> Vec<Slot> {
        let last_core = cores.max(1) - 1;
        self.settings = slowest + 1;
        self.counts.clear();
        self.counts.resize((last_core + 1) * self.settings, 0);
        requests
            .iter()
            .map(|r| {
                let core = r.core.min(last_core);
                if let Some(n) = self.cell(core, slowest) {
                    *n += 1;
                }
                Slot {
                    core,
                    want: r.requested_op.min(slowest),
                    op: slowest,
                }
            })
            .collect()
    }

    fn cell(&mut self, core: usize, op: usize) -> Option<&mut usize> {
        self.counts.get_mut(core * self.settings + op)
    }

    /// Moves one grant on `core` from `from` to `to`.
    fn shift(&mut self, core: usize, from: usize, to: usize) {
        if let Some(n) = self.cell(core, from) {
            *n = n.saturating_sub(1);
        }
        if let Some(n) = self.cell(core, to) {
            *n += 1;
        }
    }

    /// Whether the summed per-core maxima of the grants' costs fit
    /// `budget_w`.
    fn fits(&self, cost_w: &[f64], budget_w: f64) -> bool {
        let core_max = |row: &[usize]| {
            let mut max = 0.0f64;
            for (_, &cost) in row.iter().zip(cost_w).filter(|&(&n, _)| n > 0) {
                if cost > max {
                    max = cost;
                }
            }
            max
        };
        let total: f64 = self.counts.chunks(self.settings.max(1)).map(core_max).sum();
        total <= budget_w + 1e-9
    }

    /// Moves one grant on `core` from `from` to `to` if the result fits
    /// `budget_w`; otherwise leaves the table as it was.
    fn try_shift(
        &mut self,
        cost_w: &[f64],
        budget_w: f64,
        core: usize,
        from: usize,
        to: usize,
    ) -> bool {
        self.shift(core, from, to);
        let fits = self.fits(cost_w, budget_w);
        if !fits {
            self.shift(core, to, from);
        }
        fits
    }
}

/// One request's place in the grant vector under arbitration.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The request's core, clamped to the arbiter's core count.
    core: usize,
    /// The requested setting, clamped to the slowest.
    want: usize,
    /// The setting granted so far.
    op: usize,
}

/// The per-epoch power-cap arbiter.
#[derive(Debug)]
pub struct Arbiter {
    /// `cost_w[op]`: worst-case watts one core can draw at setting `op`.
    cost_w: Vec<f64>,
    budget_w: f64,
    policy: ArbiterPolicy,
    cores: usize,
    /// The grant vector of the epoch being arbitrated, kept between
    /// epochs so its table is allocated once.
    levels: Levels,
    /// The last arbitrated epoch (see the module docs).
    memo: Memo,
    grants_total: u64,
    denials_total: u64,
    starvation_us: Arc<Histogram>,
    /// `outcomes[op][denied]`: the grant (`false`) or denial (`true`)
    /// counter for granted setting `op`, resolved from the registry on
    /// first use so only the series that occur are registered.
    outcomes: Vec<[Option<Arc<Counter>>; 2]>,
}

/// The last arbitrated epoch: its requests, its grants and their
/// outcome tally. Starts empty, which is the right answer for an empty
/// request slice.
#[derive(Debug, Default)]
struct Memo {
    requests: Vec<Request>,
    grants: Vec<Grant>,
    /// `tally[op][denied]`: grants at setting `op` that were at the
    /// requested setting (`false`) or slower (`true`).
    tally: Vec<[u64; 2]>,
}

impl Arbiter {
    /// Builds an arbiter for `cores` cores of `platform` under
    /// `budget_w` watts.
    #[must_use]
    pub fn new(
        platform: &PlatformConfig,
        budget_w: f64,
        policy: ArbiterPolicy,
        cores: usize,
    ) -> Self {
        let cost_w = platform
            .opp_table
            .iter()
            .map(|(_, opp)| platform.power.worst_case(opp))
            .collect();
        let starvation_us = livephase_telemetry::global().histogram(
            "tenants_arbiter_starvation_us",
            "Simulated microseconds tenants spent in denial streaks (granted slower than requested).",
            &[],
        );
        Self {
            cost_w,
            budget_w,
            policy,
            cores,
            levels: Levels::default(),
            memo: Memo::default(),
            grants_total: 0,
            denials_total: 0,
            starvation_us,
            outcomes: Vec::new(),
        }
    }

    /// The worst-case cost (watts) of running one core at `op`.
    #[must_use]
    pub fn cost_w(&self, op: usize) -> f64 {
        let last = self.cost_w.len().saturating_sub(1);
        self.cost_w.get(op.min(last)).copied().unwrap_or(0.0)
    }

    /// The slowest (highest-index) setting of the platform.
    #[must_use]
    pub fn slowest(&self) -> usize {
        self.cost_w.len().saturating_sub(1)
    }

    /// Whether even the all-slowest grant vector fits the budget for
    /// this request set — if not, the budget is infeasible and the cap
    /// cannot be guaranteed by DVFS alone.
    #[must_use]
    pub fn floor_feasible(&self, requests: &[Request]) -> bool {
        let mut levels = Levels::default();
        levels.fill(requests, self.cores, self.slowest());
        levels.fits(&self.cost_w, self.budget_w)
    }

    /// Arbitrates one epoch: returns one [`Grant`] per request, in
    /// request order. Deterministic: ties break by tenant id, then by
    /// position in `requests`.
    ///
    /// `waterfill` runs as a level sweep: from the slowest setting down
    /// to 1, it visits the requests in tenant-id order and moves each
    /// one still at this level and above its request down one step, or
    /// leaves it there for good when the move does not fit. That is
    /// the pick sequence of the direct loop, which upgrades the
    /// lowest-id tenant among the unfrozen ones at the highest occupied
    /// level: every grant starts at the slowest setting and only moves
    /// faster, so when the sweep reaches a level, every grant still
    /// upgradable sits at exactly that level, the ones it moves land one
    /// level below and wait for the next pass, and each probe sees the
    /// same grant vector the loop's would. A grant the sweep leaves
    /// behind never matches a later level, which is the loop's freeze.
    ///
    /// That sweep, or priority's sort and probes, runs only when the
    /// requests differ from the previous call's: O(settings × tenants)
    /// probes of O(cores × settings) each. An epoch whose requests equal
    /// the previous epoch's, field for field and in the same order, is
    /// answered from the memo instead — one O(tenants) comparison and
    /// one copy of the stored grants — and its outcomes are counted
    /// again all the same. The memo is sound only while the arbiter's
    /// configuration is fixed: any setter added later must clear it.
    pub fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
        if self.memo.requests != requests {
            self.run_policy(requests);
        }
        self.publish_outcomes();
        self.memo.grants.clone()
    }

    /// Arbitrates `requests` afresh into the memo.
    fn run_policy(&mut self, requests: &[Request]) {
        let slowest = self.slowest();
        let mut slots = self.levels.fill(requests, self.cores, slowest);
        let (levels, cost_w, budget_w) = (&mut self.levels, &self.cost_w, self.budget_w);

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
                    let Some(slot) = slots.get_mut(i) else {
                        continue;
                    };
                    // Fastest affordable setting no faster than requested.
                    for candidate in slot.want..=slot.op {
                        if levels.try_shift(cost_w, budget_w, slot.core, slot.op, candidate) {
                            slot.op = candidate;
                            break;
                        }
                    }
                }
            }
            ArbiterPolicy::WaterFill => {
                let mut order: Vec<(u32, usize)> = requests
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r.tenant, i))
                    .collect();
                order.sort_unstable();
                for level in (1..=slowest).rev() {
                    for &(_, i) in &order {
                        let Some(slot) = slots.get_mut(i) else {
                            continue;
                        };
                        if slot.op == level
                            && slot.want < level
                            && levels.try_shift(cost_w, budget_w, slot.core, level, level - 1)
                        {
                            slot.op = level - 1;
                        }
                    }
                }
            }
        }

        let memo = &mut self.memo;
        memo.requests.clear();
        memo.requests.extend_from_slice(requests);
        memo.grants.clear();
        memo.tally.clear();
        memo.tally.resize(slowest + 1, [0, 0]);
        for (req, slot) in requests.iter().zip(&slots) {
            let denied = slot.op > slot.want;
            if let Some(n) = memo
                .tally
                .get_mut(slot.op)
                .and_then(|c| c.get_mut(usize::from(denied)))
            {
                *n += 1;
            }
            memo.grants.push(Grant {
                tenant: req.tenant,
                op: slot.op,
                denied,
            });
        }
    }

    /// Counts the memo's grants and denials: one add per nonzero cell of
    /// its tally.
    fn publish_outcomes(&mut self) {
        for op in 0..self.memo.tally.len() {
            let cells = self.memo.tally.get(op).copied().unwrap_or_default();
            for (denied, n) in [false, true].into_iter().zip(cells) {
                if n > 0 {
                    self.record_outcomes(op, denied, n);
                }
            }
        }
    }

    /// Counts `n` grants or denials at granted setting `op`.
    fn record_outcomes(&mut self, op: usize, denied: bool, n: u64) {
        if denied {
            self.denials_total += n;
        } else {
            self.grants_total += n;
        }
        if self.outcomes.len() <= op {
            self.outcomes.resize(op + 1, [None, None]);
        }
        let Some(cell) = self
            .outcomes
            .get_mut(op)
            .and_then(|c| c.get_mut(usize::from(denied)))
        else {
            return;
        };
        cell.get_or_insert_with(|| {
            let op_label = op.to_string();
            if denied {
                livephase_telemetry::global().counter(
                    "tenants_arbiter_denials_total",
                    "Epoch requests granted slower than requested, by granted setting.",
                    &[("op", &op_label)],
                )
            } else {
                livephase_telemetry::global().counter(
                    "tenants_arbiter_grants_total",
                    "Epoch requests granted at the requested setting, by granted setting.",
                    &[("op", &op_label)],
                )
            }
        })
        .add(n);
    }

    /// Records the simulated length of one completed denial streak.
    pub fn record_starvation(&self, seconds: f64) {
        if seconds <= 0.0 {
            return;
        }
        let us = (seconds * 1e6).min(9.0e18) as u64;
        self.starvation_us.record(us);
    }

    /// Requests granted at the requested setting so far.
    #[must_use]
    pub fn grants_total(&self) -> u64 {
        self.grants_total
    }

    /// Requests granted slower than requested so far.
    #[must_use]
    pub fn denials_total(&self) -> u64 {
        self.denials_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_pmsim::PlatformConfig;

    fn requests(ops: &[(u32, usize, usize, u8)]) -> Vec<Request> {
        ops.iter()
            .map(|&(tenant, core, requested_op, priority)| Request {
                tenant,
                core,
                requested_op,
                priority,
            })
            .collect()
    }

    fn arbiter(budget_w: f64, policy: ArbiterPolicy, cores: usize) -> Arbiter {
        Arbiter::new(&PlatformConfig::pentium_m(), budget_w, policy, cores)
    }

    #[test]
    fn costs_fall_with_setting() {
        let a = arbiter(100.0, ArbiterPolicy::WaterFill, 1);
        for op in 1..=a.slowest() {
            assert!(a.cost_w(op) < a.cost_w(op - 1));
        }
    }

    #[test]
    fn generous_budget_grants_everything() {
        let mut a = arbiter(1000.0, ArbiterPolicy::Priority, 2);
        let reqs = requests(&[(0, 0, 0, 1), (1, 1, 2, 1), (2, 0, 1, 0)]);
        let grants = a.arbitrate(&reqs);
        assert!(grants.iter().all(|g| !g.denied));
        assert_eq!(
            grants.iter().map(|g| g.op).collect::<Vec<_>>(),
            vec![0, 2, 1]
        );
        assert_eq!(a.grants_total(), 3);
        assert_eq!(a.denials_total(), 0);
    }

    #[test]
    fn grants_never_exceed_budget() {
        for policy in [ArbiterPolicy::Priority, ArbiterPolicy::WaterFill] {
            let mut a = arbiter(18.0, policy, 2);
            let reqs = requests(&[(0, 0, 0, 1), (1, 1, 0, 1), (2, 0, 0, 0), (3, 1, 0, 0)]);
            let grants = a.arbitrate(&reqs);
            // Reconstruct the admitted cost and check it fits.
            let ops: Vec<usize> = grants.iter().map(|g| g.op).collect();
            let mut core_max = [0.0f64; 2];
            for (req, &op) in reqs.iter().zip(&ops) {
                core_max[req.core] = core_max[req.core].max(a.cost_w(op));
            }
            assert!(
                core_max.iter().sum::<f64>() <= 18.0 + 1e-9,
                "{policy}: grant vector exceeds the budget"
            );
            assert!(
                grants.iter().any(|g| g.denied),
                "{policy}: a tight budget must deny someone"
            );
        }
    }

    #[test]
    fn priority_throttles_low_priority_first() {
        // Budget fits one core at full speed plus one throttled core.
        let a_probe = arbiter(100.0, ArbiterPolicy::Priority, 1);
        let budget = a_probe.cost_w(0) + a_probe.cost_w(3);
        let mut a = arbiter(budget, ArbiterPolicy::Priority, 2);
        let reqs = requests(&[(0, 0, 0, 1), (1, 1, 0, 0)]);
        let grants = a.arbitrate(&reqs);
        assert_eq!(
            grants.first().map(|g| g.op),
            Some(0),
            "high priority runs fast"
        );
        assert!(
            grants.get(1).is_some_and(|g| g.op >= 3),
            "low priority throttled"
        );
    }

    #[test]
    fn waterfill_spreads_the_pain_evenly() {
        let a_probe = arbiter(100.0, ArbiterPolicy::WaterFill, 1);
        let budget = 2.0 * a_probe.cost_w(2);
        let mut a = arbiter(budget, ArbiterPolicy::WaterFill, 2);
        let reqs = requests(&[(0, 0, 0, 1), (1, 1, 0, 0)]);
        let grants = a.arbitrate(&reqs);
        let ops: Vec<usize> = grants.iter().map(|g| g.op).collect();
        assert_eq!(ops, vec![2, 2], "both tenants settle at the same level");
    }

    #[test]
    fn same_core_tenants_share_a_max_not_a_sum() {
        // Two tenants pinned to one core cost max(), so both can run
        // fast under a budget that could not carry two cores.
        let a_probe = arbiter(100.0, ArbiterPolicy::WaterFill, 1);
        let budget = a_probe.cost_w(0) * 1.1;
        let mut a = arbiter(budget, ArbiterPolicy::WaterFill, 1);
        let reqs = requests(&[(0, 0, 0, 1), (1, 0, 0, 1)]);
        let grants = a.arbitrate(&reqs);
        assert!(grants.iter().all(|g| g.op == 0 && !g.denied));
    }

    #[test]
    fn infeasible_floor_is_detected() {
        let a = arbiter(0.5, ArbiterPolicy::WaterFill, 2);
        let reqs = requests(&[(0, 0, 0, 1), (1, 1, 0, 1)]);
        assert!(!a.floor_feasible(&reqs));
        let generous = arbiter(100.0, ArbiterPolicy::WaterFill, 2);
        assert!(generous.floor_feasible(&reqs));
    }

    #[test]
    fn policy_names_round_trip() {
        assert_eq!(
            ArbiterPolicy::parse("priority"),
            Some(ArbiterPolicy::Priority)
        );
        assert_eq!(
            ArbiterPolicy::parse("waterfill"),
            Some(ArbiterPolicy::WaterFill)
        );
        assert_eq!(ArbiterPolicy::parse("nope"), None);
        assert_eq!(ArbiterPolicy::Priority.to_string(), "priority");
        assert_eq!(ArbiterPolicy::WaterFill.to_string(), "waterfill");
    }
}
