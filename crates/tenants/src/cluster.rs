//! The cluster runner: a deterministic round-robin credit scheduler
//! multiplexing M tenant vCPUs onto K simulated cores.
//!
//! Execution proceeds in *epochs*. Each epoch the arbiter converts the
//! tenants' standing DVFS requests into per-tenant grants under the watt
//! budget, then every core runs each of its resident tenants for one
//! credit quantum (`quantum_uops × weight` micro-ops). A context switch
//! is a [`VcpuContext`] save/restore, so each tenant's PMC/TSC deltas —
//! and therefore its Mem/Uop stream, phase classifications, and
//! decisions — are bit-for-bit identical to a solo run of the same trace
//! no matter how the cluster slices it.
//!
//! Tenants are pinned to core `tenant % K` and a core runs one tenant at
//! a time, so the arbiter's per-core worst-case accounting (see
//! [`crate::arbiter`]) upper-bounds what the cluster can actually draw;
//! the runner measures per-epoch power from the simulator's own
//! energy/time deltas and reports any time spent above the budget
//! (expected: none).

use crate::arbiter::{Arbiter, Grant, Request};
use crate::report::{fnv1a, ClusterReport, TenantReport, DIGEST_SEED};
use crate::scenario::{ScenarioError, ScenarioSpec};
use livephase_engine::{DecisionEngine, EngineConfig, Sample};
use livephase_pmsim::{Cpu, IntervalWork, PlatformConfig, PmiRecord, VcpuContext};

/// Tolerance on the measured-power budget comparison: measurement is a
/// ratio of accumulated f64 sums, so give it a whisker of slack.
const BUDGET_EPS_W: f64 = 1e-6;

/// Publishes a finished run's scheduler telemetry: the context-switch
/// and per-tenant interval counters advance once per run, not once per
/// event, so the epoch loop touches no shared counter.
fn publish_run_metrics(tenants: &[TenantRun], switches: u64, core_seconds: f64) {
    let reg = livephase_telemetry::global();
    reg.counter(
        "tenants_context_switches_total",
        "vCPU context switches performed by the tenant scheduler.",
        &[],
    )
    .add(switches);
    let switch_rate = reg.gauge(
        "tenants_switch_rate",
        "Context switches per simulated core-second, last completed run.",
        &[],
    );
    if core_seconds > 0.0 {
        switch_rate.set((switches as f64 / core_seconds) as i64);
    }
    for tenant in tenants {
        reg.counter(
            "tenants_intervals_total",
            "Sampling intervals completed, per tenant.",
            &[("tenant", &tenant.id.to_string())],
        )
        .add(tenant.intervals);
    }
}

/// One tenant's live scheduling state.
struct TenantRun {
    id: u32,
    benchmark: String,
    noisy: bool,
    weight: u64,
    core: usize,
    ctx: VcpuContext,
    work: Vec<IntervalWork>,
    cursor: usize,
    carry: Option<IntervalWork>,
    /// Operating point the tenant's latest decision requested.
    requested_op: usize,
    /// This epoch's arbiter grant (a floor on the op index).
    grant: usize,
    /// Whether this epoch's grant was slower than requested.
    denied_now: bool,
    time_s: f64,
    energy_j: f64,
    intervals: u64,
    denied_epochs: u64,
    /// Own-execution seconds accrued during the current denial streak.
    streak_s: f64,
    decision_digest: u64,
    sample_digest: u64,
}

impl TenantRun {
    fn has_work(&self) -> bool {
        self.carry.is_some() || self.cursor < self.work.len()
    }

    /// Takes the next work chunk, capped at `credit` micro-ops; the
    /// remainder of a split chunk is carried to the tenant's next
    /// quantum.
    fn take_chunk(&mut self, credit: u64) -> Option<IntervalWork> {
        if credit == 0 {
            return None;
        }
        let chunk = match self.carry.take() {
            Some(c) => c,
            None => {
                let c = self.work.get(self.cursor).copied()?;
                self.cursor += 1;
                c
            }
        };
        if chunk.uops > credit {
            // `credit >= 1` and `credit < chunk.uops`, so the split
            // preconditions hold.
            let (first, rest) = chunk.split_at_uops(credit);
            self.carry = rest;
            Some(first)
        } else {
            Some(chunk)
        }
    }
}

/// Sets the core's operating point; indices are always valid here
/// (decision op-points and arbiter grants are both platform-table
/// indices), so a rejection is a construction-time impossibility.
fn apply_op(cpu: &mut Cpu<'_>, op: usize) {
    if cpu.set_dvfs(op).is_err() {
        unreachable!("operating point indices come from the validated platform table");
    }
}

/// Handles one PMI for the loaded tenant: digest the sample, step the
/// shared engine under the tenant's pid, digest the decision, and apply
/// the decided operating point clamped by this epoch's grant.
fn step_decision(
    engine: &mut DecisionEngine,
    cpu: &mut Cpu<'_>,
    tenant: &mut TenantRun,
    record: &PmiRecord,
) {
    let uops = record.metrics.uops_retired;
    if uops == 0 {
        return;
    }
    let mem = record.metrics.mem_transactions;
    tenant.sample_digest = fnv1a(tenant.sample_digest, &uops.to_le_bytes());
    tenant.sample_digest = fnv1a(tenant.sample_digest, &mem.to_le_bytes());
    let decision = engine.step(&Sample {
        pid: tenant.id,
        uops,
        mem_transactions: mem,
    });
    tenant.decision_digest = fnv1a(
        tenant.decision_digest,
        &[
            decision.phase.get(),
            decision.predicted.get(),
            decision.op_point,
        ],
    );
    tenant.decision_digest = fnv1a(tenant.decision_digest, &decision.confidence.to_le_bytes());
    tenant.intervals += 1;
    tenant.requested_op = usize::from(decision.op_point);
    apply_op(cpu, tenant.requested_op.max(tenant.grant));
}

/// Runs a scenario to completion and reports per-tenant and cluster
/// outcomes. Pure: the report is a deterministic function of the spec.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the spec fails validation or names
/// an unknown benchmark or predictor.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ClusterReport, ScenarioError> {
    spec.validate()?;
    let platform = PlatformConfig {
        power: spec.power.clone(),
        ..PlatformConfig::pentium_m()
    };
    let mut engine = DecisionEngine::from_spec(EngineConfig::pentium_m(), &spec.predictor)
        .map_err(|e| ScenarioError::BadPredictor(e.to_string()))?;
    let mut arbiter = Arbiter::new(&platform, spec.budget_w, spec.policy, spec.cores);

    let mut tenants = Vec::with_capacity(spec.tenants);
    for id in 0..u32::try_from(spec.tenants).unwrap_or(u32::MAX) {
        let trace = spec.tenant_trace(id)?;
        let (benchmark, work) = trace.into_parts();
        tenants.push(TenantRun {
            id,
            benchmark,
            noisy: spec.is_noisy(id),
            weight: spec.tenant_weight(id),
            core: spec.core_of(id),
            ctx: VcpuContext::new(platform.pmi_granularity_uops),
            work,
            cursor: 0,
            carry: None,
            requested_op: 0,
            grant: 0,
            denied_now: false,
            time_s: 0.0,
            energy_j: 0.0,
            intervals: 0,
            denied_epochs: 0,
            streak_s: 0.0,
            decision_digest: DIGEST_SEED,
            sample_digest: DIGEST_SEED,
        });
    }

    let mut core_members: Vec<Vec<usize>> = vec![Vec::new(); spec.cores];
    for (i, tenant) in tenants.iter().enumerate() {
        if let Some(members) = core_members.get_mut(tenant.core) {
            members.push(i);
        }
    }
    let mut cpus: Vec<Cpu<'_>> = (0..spec.cores).map(|_| Cpu::new(&platform)).collect();
    let mut loaded: Vec<Option<u32>> = vec![None; spec.cores];

    let mut epochs = 0u64;
    let mut switches = 0u64;
    let mut cap_violation_s = 0.0f64;
    let mut peak_epoch_power_w = 0.0f64;
    let mut budget_feasible = true;

    while tenants.iter().any(TenantRun::has_work) {
        // 1. Collect requests from live tenants and arbitrate.
        let mut requests = Vec::new();
        let mut request_owner = Vec::new();
        for (i, tenant) in tenants.iter().enumerate() {
            if !tenant.has_work() {
                continue;
            }
            requests.push(Request {
                tenant: tenant.id,
                core: tenant.core,
                requested_op: tenant.requested_op,
                priority: if tenant.noisy { 0 } else { 1 },
            });
            request_owner.push(i);
        }
        if epochs == 0 {
            budget_feasible = arbiter.floor_feasible(&requests);
        }
        let grants: Vec<Grant> = arbiter.arbitrate(&requests);
        for (k, grant) in grants.iter().enumerate() {
            let Some(&owner) = request_owner.get(k) else {
                continue;
            };
            if let Some(tenant) = tenants.get_mut(owner) {
                tenant.grant = grant.op;
                tenant.denied_now = grant.denied;
            }
        }

        // 2. Schedule: every core runs its residents for one quantum.
        let epoch_marks: Vec<_> = cpus.iter().map(Cpu::totals).collect();
        for (core_idx, members) in core_members.iter().enumerate() {
            let Some(cpu) = cpus.get_mut(core_idx) else {
                continue;
            };
            for &i in members {
                let Some(tenant) = tenants.get_mut(i) else {
                    continue;
                };
                if !tenant.has_work() {
                    continue;
                }
                let previous = loaded.get(core_idx).copied().flatten();
                if previous != Some(tenant.id) {
                    switches += 1;
                    if let Some(slot) = loaded.get_mut(core_idx) {
                        *slot = Some(tenant.id);
                    }
                }
                cpu.load_vcpu(&tenant.ctx);
                let quantum_start = cpu.totals();
                // The incoming tenant pays for any DVFS transition its
                // effective operating point requires.
                apply_op(cpu, tenant.requested_op.max(tenant.grant));
                let mut credit = spec.quantum_uops.saturating_mul(tenant.weight).max(1);
                while credit > 0 && tenant.has_work() {
                    let Some(chunk) = tenant.take_chunk(credit) else {
                        break;
                    };
                    credit = credit.saturating_sub(chunk.uops);
                    cpu.push_work(chunk);
                    while let Some(record) = cpu.run_to_pmi() {
                        step_decision(&mut engine, cpu, tenant, &record);
                    }
                }
                if !tenant.has_work() {
                    // Off-grid tail of the tenant's trace, if any.
                    if let Some(record) = cpu.flush_partial_interval() {
                        step_decision(&mut engine, cpu, tenant, &record);
                    }
                }
                let quantum_end = cpu.totals();
                let dt = quantum_end.time_s - quantum_start.time_s;
                tenant.time_s += dt;
                tenant.energy_j += quantum_end.energy_j - quantum_start.energy_j;
                if tenant.denied_now {
                    tenant.denied_epochs += 1;
                    tenant.streak_s += dt;
                } else if tenant.streak_s > 0.0 {
                    arbiter.record_starvation(tenant.streak_s);
                    tenant.streak_s = 0.0;
                }
                cpu.store_vcpu(&mut tenant.ctx);
            }
        }
        epochs += 1;

        // 3. Measure the epoch's cluster power against the budget.
        let mut cluster_w = 0.0f64;
        let mut epoch_duration_s = 0.0f64;
        for (cpu, mark) in cpus.iter().zip(&epoch_marks) {
            let now = cpu.totals();
            let dt = now.time_s - mark.time_s;
            if dt > 0.0 {
                cluster_w += (now.energy_j - mark.energy_j) / dt;
                epoch_duration_s = epoch_duration_s.max(dt);
            }
        }
        peak_epoch_power_w = peak_epoch_power_w.max(cluster_w);
        if cluster_w > spec.budget_w + BUDGET_EPS_W {
            cap_violation_s += epoch_duration_s;
        }
    }

    // Close out any denial streak still open at run end.
    for tenant in &mut tenants {
        if tenant.streak_s > 0.0 {
            arbiter.record_starvation(tenant.streak_s);
            tenant.streak_s = 0.0;
        }
    }
    let core_seconds: f64 = cpus.iter().map(|c| c.totals().time_s).sum();
    publish_run_metrics(&tenants, switches, core_seconds);
    let total_time_s = cpus
        .iter()
        .map(|c| c.totals().time_s)
        .fold(0.0f64, f64::max);
    engine.flush_metrics();

    let reports = tenants
        .iter()
        .map(|tenant| {
            let stats = engine.pid_stats(tenant.id).unwrap_or_default();
            TenantReport {
                tenant: tenant.id,
                benchmark: tenant.benchmark.clone(),
                noisy: tenant.noisy,
                core: tenant.core,
                intervals: tenant.intervals,
                time_s: tenant.time_s,
                energy_j: tenant.energy_j,
                scored: stats.total,
                correct: stats.correct,
                denied_epochs: tenant.denied_epochs,
                decision_digest: tenant.decision_digest,
                sample_digest: tenant.sample_digest,
            }
        })
        .collect();
    Ok(ClusterReport {
        tenants: reports,
        cores: spec.cores,
        budget_w: spec.budget_w,
        policy: spec.policy.to_string(),
        epochs,
        context_switches: switches,
        cap_violation_s,
        peak_epoch_power_w,
        budget_feasible,
        total_time_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;

    #[test]
    fn a_small_cluster_runs_to_completion() {
        let mut spec = ScenarioSpec::new(4, 2);
        spec.intervals = 6;
        let report = run_scenario(&spec).unwrap();
        assert_eq!(report.tenants.len(), 4);
        assert!(report.epochs > 0);
        assert!(
            report.context_switches >= 4,
            "every tenant loaded at least once"
        );
        for t in &report.tenants {
            assert_eq!(t.intervals, 6, "tenant {} completed its trace", t.tenant);
            assert!(t.time_s > 0.0);
            assert!(t.energy_j > 0.0);
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = ScenarioSpec::new(0, 2);
        assert!(run_scenario(&spec).is_err());
        spec = ScenarioSpec::new(2, 1);
        spec.predictor = "frobnicate".to_owned();
        assert!(matches!(
            run_scenario(&spec),
            Err(ScenarioError::BadPredictor(_))
        ));
    }

    #[test]
    fn take_chunk_preserves_uop_totals() {
        let work = vec![
            IntervalWork::new(1_000_000, 800_000, 10_000, 0.7, 3.0),
            IntervalWork::new(500_000, 400_000, 20_000, 0.7, 3.0),
        ];
        let mut t = TenantRun {
            id: 0,
            benchmark: "x".into(),
            noisy: false,
            weight: 1,
            core: 0,
            ctx: VcpuContext::new(1_000_000),
            work,
            cursor: 0,
            carry: None,
            requested_op: 0,
            grant: 0,
            denied_now: false,
            time_s: 0.0,
            energy_j: 0.0,
            intervals: 0,
            denied_epochs: 0,
            streak_s: 0.0,
            decision_digest: DIGEST_SEED,
            sample_digest: DIGEST_SEED,
        };
        let mut uops = 0u64;
        let mut mem = 0u64;
        while let Some(chunk) = t.take_chunk(300_000) {
            assert!(chunk.uops <= 300_000);
            uops += chunk.uops;
            mem += chunk.mem_transactions;
        }
        assert_eq!(uops, 1_500_000, "splitting loses no uops");
        assert_eq!(mem, 30_000, "splitting loses no mem transactions");
        assert!(!t.has_work());
        assert!(t.take_chunk(0).is_none());
    }
}
