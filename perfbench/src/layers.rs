//! The traced run's layer replays: each layer's public functions driven
//! on the workload's own generated inputs, timed layer by layer.

use crate::report::{Metric, Tally};
use crate::repro::ARTIFACTS;
use crate::serve::{pid_streams, PREDICTOR};
use crate::{serve, tenants, trace, Outcome};
use livephase_core::{Gpht, GphtConfig, PhaseMap, PhaseSample, Predictor};
use livephase_daq::DaqSystem;
use livephase_engine::{Decision, DecisionEngine, EngineConfig, Sample};
use livephase_governor::Manager;
use livephase_pmsim::{AnalyticModel, Cpu, PlatformConfig, PowerInput, PowerModel};
use livephase_serve::wire::{encode_into, Frame, FrameDecoder};
use livephase_serve::SessionState;
use livephase_telemetry::Histogram;
use livephase_tenants::{Arbiter, ArbiterPolicy, Request};
use livephase_workloads::{counter_samples, spec, CounterSample, WorkloadTrace};
use std::hint::black_box;
use std::time::Instant;

/// Metrics that only some workloads produce natively; the others report
/// the layer's zero activity (no server, no scenario, no artifacts).
const NATIVE: [(&str, &str); 12] = [
    ("server.shard_skew", "ratio"),
    ("server.sustained_rate", "1/s"),
    ("server.saturation_rate", "1/s"),
    ("telemetry.scrape_coverage", "ratio"),
    ("tenants.context_switches", "count"),
    ("tenants.denied_epochs", "count"),
    ("loadgen.p50_latency_us", "us"),
    ("loadgen.p99_latency_us", "us"),
    ("loadgen.throughput_per_s", "1/s"),
    ("loadgen.late_max_us", "us"),
    ("loadgen.cpu_frac", "ratio"),
    ("repro.violations_at_seed", "count"),
];

/// Metrics every workload's replays produce.
const REPLAYED: [(&str, &str); 17] = [
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("server.session_new_ns", "ns"),
    ("engine.ns_per_decision.interleaved", "ns"),
    ("engine.ns_per_decision.grouped", "ns"),
    ("engine.pid_lookup_ns", "ns"),
    ("engine.new_pid_ns", "ns"),
    ("core.gpht_ns_per_step", "ns"),
    ("core.pht_hit_rate", "ratio"),
    ("telemetry.record_ns", "ns"),
    ("tenants.arbitrate_ns_per_epoch", "ns"),
    ("tenants.grant_rate", "ratio"),
    ("pmsim.cpu_ns_per_interval", "ns"),
    ("pmsim.power_eval_ns", "ns"),
    ("workloads.gen_ns_per_interval", "ns"),
    ("governor.manager_ns_per_interval", "ns"),
    ("daq.measure_ns_per_sample", "ns"),
];

/// Every per-layer metric name, in report order.
pub fn per_layer_names() -> Vec<String> {
    REPLAYED
        .iter()
        .chain(NATIVE.iter())
        .map(|(n, _)| (*n).to_owned())
        .chain(
            ARTIFACTS
                .iter()
                .map(|(a, _)| format!("repro.artifact_ms.{a}")),
        )
        .chain(std::iter::once("trace.overhead_frac".to_owned()))
        .collect()
}

/// What the replays measured.
#[derive(Debug, Default)]
pub struct Replays {
    pub metrics: Vec<Metric>,
    /// Workload-specific figures the replays add to the native ones.
    pub native: Vec<Metric>,
    pub tally: Tally,
}

/// The workload's inputs as the replays see them: per-pid counter
/// streams, how many samples one drained batch holds, and the interval
/// traces behind them.
struct Inputs {
    streams: Vec<Vec<CounterSample>>,
    batch: usize,
    traces: Vec<WorkloadTrace>,
}

/// Interval traces the simulator replays use: 8 of the workload's own.
const TRACES: usize = 8;

fn inputs(workload: &str, seed: u64) -> Inputs {
    let registry_traces = |seed: u64| -> Vec<WorkloadTrace> {
        spec::registry()
            .iter()
            .take(TRACES)
            .map(|b| b.clone().with_length(1000).generate(seed))
            .collect()
    };
    match workload {
        "serve_fleet" => Inputs {
            // One connection's 256 pids, drained in the 500-sample
            // batches one nominal-rate tick delivers.
            streams: pid_streams(seed, 256),
            batch: 500,
            traces: registry_traces(seed),
        },
        "serve_churn" => {
            let (pool, _) = serve::churn_pool(seed);
            Inputs {
                streams: pool.chunks(16).map(<[_]>::to_vec).collect(),
                batch: serve::CHURN_PIDS as usize,
                traces: registry_traces(seed),
            }
        }
        "tenants_cluster" => {
            let spec = tenants::spec(seed);
            let traces: Vec<WorkloadTrace> = (0..tenants::TENANTS as u32)
                .filter_map(|t| spec.tenant_trace(t).ok())
                .collect();
            Inputs {
                streams: traces
                    .iter()
                    .map(|t| counter_samples(t).collect())
                    .collect(),
                batch: tenants::TENANTS,
                traces: traces.into_iter().take(TRACES).collect(),
            }
        }
        _ => {
            let traces: Vec<WorkloadTrace> = spec::registry()
                .iter()
                .map(|b| b.clone().with_length(1000).generate(seed))
                .collect();
            Inputs {
                streams: traces
                    .iter()
                    .map(|t| counter_samples(t).collect())
                    .collect(),
                // Artifacts replay one benchmark's stream at a time.
                batch: 1000,
                traces: traces.into_iter().take(TRACES).collect(),
            }
        }
    }
}

fn per(ns: u128, n: usize) -> f64 {
    ns as f64 / n.max(1) as f64
}

/// Samples dealt round-robin over the streams: what a shard drains when
/// every pid of a connection is live.
fn interleaved(streams: &[Vec<CounterSample>], total: usize) -> Vec<Sample> {
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(total);
    'deal: for i in 0..longest {
        for (p, s) in streams.iter().enumerate() {
            if let Some(c) = s.get(i) {
                out.push(Sample {
                    pid: p as u32 + 1,
                    uops: c.uops,
                    mem_transactions: c.mem_transactions,
                });
                if out.len() == total {
                    break 'deal;
                }
            }
        }
    }
    out
}

fn engine() -> DecisionEngine {
    DecisionEngine::from_spec(EngineConfig::pentium_m(), PREDICTOR)
        .expect("the deployed predictor spec parses")
}

/// ns per decision of `step_many` over `batches`, after one untimed
/// pass that creates every pid's state.
fn time_batches(batches: &[Vec<Sample>]) -> (f64, Vec<Decision>) {
    let mut e = engine();
    let mut out = Vec::new();
    for b in batches {
        e.step_many(b, &mut out);
    }
    let warm = out.clone();
    out.clear();
    let t = Instant::now();
    for b in batches {
        e.step_many(b, &mut out);
    }
    let n: usize = batches.iter().map(Vec::len).sum();
    black_box(out.len());
    (per(t.elapsed().as_nanos(), n), warm)
}

/// Runs every layer replay on `workload`'s inputs.
pub fn replay(workload: &str, seed: u64) -> Replays {
    let mut r = Replays::default();
    if workload == "repro_suite" {
        let n = trace::span("repro.replay", || crate::repro::violations_at(seed));
        r.native
            .push(Metric::new("repro.violations_at_seed", n as f64, "count"));
    }
    let inp = trace::span("replay.inputs", || inputs(workload, seed));
    let m = |name: &str, value: f64| {
        let unit = REPLAYED
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("ns", |(_, u)| *u);
        Metric::new(name, value, unit)
    };
    let samples = interleaved(&inp.streams, 200_000);

    // wire: the workload's samples and their decisions as frames.
    trace::span("wire.replay", || {
        let frames: Vec<Frame> = samples
            .iter()
            .take(100_000)
            .flat_map(|s| {
                [
                    Frame::Sample {
                        pid: s.pid,
                        uops: s.uops,
                        mem_trans: s.mem_transactions,
                        tsc_delta: s.uops,
                    },
                    Frame::Decision {
                        pid: s.pid,
                        op_point: (s.mem_transactions % 6) as u8,
                        confidence: (s.uops % 10_000) as u16,
                    },
                ]
            })
            .collect();
        let mut bytes = Vec::with_capacity(frames.len() * 40);
        let t = Instant::now();
        for f in &frames {
            encode_into(f, &mut bytes);
        }
        r.metrics.push(m(
            "wire.encode_ns_per_frame",
            per(t.elapsed().as_nanos(), frames.len()),
        ));
        let t = Instant::now();
        let mut decoder = FrameDecoder::new();
        let mut decoded = 0usize;
        for chunk in bytes.chunks(64 * 1024) {
            decoder.feed(chunk);
            while let Ok(Some(f)) = decoder.next_frame() {
                decoded += 1;
                black_box(f);
            }
        }
        r.metrics.push(m(
            "wire.decode_ns_per_frame",
            per(t.elapsed().as_nanos(), decoded),
        ));
        r.tally.record(decoded == frames.len());
    });

    // server: session creation, what every Hello costs the shard.
    trace::span("server.replay", || {
        let config = EngineConfig::pentium_m();
        let n = 2000;
        let t = Instant::now();
        for _ in 0..n {
            black_box(SessionState::new(&config, PREDICTOR).is_ok());
        }
        r.metrics
            .push(m("server.session_new_ns", per(t.elapsed().as_nanos(), n)));
    });

    // engine: the workload's batches interleaved, then grouped by pid.
    trace::span("engine.replay", || {
        let batches: Vec<Vec<Sample>> = samples
            .chunks(inp.batch.max(1))
            .map(<[_]>::to_vec)
            .collect();
        let (inter, inter_out) = time_batches(&batches);
        let grouped: Vec<Vec<Sample>> = batches
            .iter()
            .map(|b| {
                let mut g = b.clone();
                g.sort_by_key(|s| s.pid);
                g
            })
            .collect();
        let (group, group_out) = time_batches(&grouped);
        // Per pid, grouping must not change any decision.
        let mut a: Vec<_> = inter_out
            .iter()
            .map(|d| (d.pid, d.op_point, d.confidence))
            .collect();
        let mut b: Vec<_> = group_out
            .iter()
            .map(|d| (d.pid, d.op_point, d.confidence))
            .collect();
        a.sort_by_key(|x| x.0);
        b.sort_by_key(|x| x.0);
        r.tally.record(a == b);
        r.metrics
            .push(m("engine.ns_per_decision.interleaved", inter));
        r.metrics.push(m("engine.ns_per_decision.grouped", group));
        r.metrics.push(m("engine.pid_lookup_ns", inter - group));
        // Every sample a fresh pid: state creation on the decision path.
        let fresh: Vec<Sample> = samples
            .iter()
            .take(50_000)
            .enumerate()
            .map(|(i, s)| Sample {
                pid: i as u32 + 1,
                ..*s
            })
            .collect();
        let mut e = engine();
        let mut out = Vec::with_capacity(fresh.len());
        let t = Instant::now();
        for b in fresh.chunks(256) {
            e.step_many(b, &mut out);
        }
        r.metrics.push(m(
            "engine.new_pid_ns",
            per(t.elapsed().as_nanos(), fresh.len()),
        ));
    });

    // core: the GPHT alone over each pid's classified phase stream.
    trace::span("core.replay", || {
        let map = PhaseMap::pentium_m();
        let phased: Vec<Vec<PhaseSample>> = inp
            .streams
            .iter()
            .map(|s| {
                s.iter()
                    .map(|c| {
                        let rate = c.mem_transactions as f64 / c.uops.max(1) as f64;
                        PhaseSample::new(rate, map.classify(rate))
                    })
                    .collect()
            })
            .collect();
        let (mut hits, mut lookups, mut steps) = (0u64, 0u64, 0usize);
        let t = Instant::now();
        for stream in &phased {
            let mut g = Gpht::new(GphtConfig::DEPLOYED);
            for &s in stream {
                black_box(g.next(s));
            }
            hits += g.hits();
            lookups += g.hits() + g.misses();
            steps += stream.len();
        }
        r.metrics.push(m(
            "core.gpht_ns_per_step",
            per(t.elapsed().as_nanos(), steps),
        ));
        r.metrics
            .push(m("core.pht_hit_rate", hits as f64 / lookups.max(1) as f64));
    });

    // telemetry: recording the workload's memory-transaction counts.
    trace::span("telemetry.replay", || {
        let h = Histogram::new();
        let t = Instant::now();
        for s in &samples {
            h.record(s.mem_transactions);
        }
        r.metrics.push(m(
            "telemetry.record_ns",
            per(t.elapsed().as_nanos(), samples.len()),
        ));
        r.tally.record(h.count() == samples.len() as u64);
    });

    // tenants: the arbiter over per-epoch requests built from the
    // workload's streams, one tenant per stream.
    trace::span("tenants.replay", || {
        let config = EngineConfig::pentium_m();
        let map = config.phase_map().clone();
        let mut arbiter = Arbiter::new(
            &PlatformConfig::pentium_m(),
            tenants::BUDGET_W,
            ArbiterPolicy::WaterFill,
            tenants::CORES,
        );
        let epochs = inp
            .streams
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .min(1000);
        let requests: Vec<Vec<Request>> = (0..epochs)
            .map(|e| {
                inp.streams
                    .iter()
                    .take(tenants::TENANTS)
                    .enumerate()
                    .filter_map(|(t, s)| {
                        let c = s.get(e)?;
                        let phase = map.classify(c.mem_transactions as f64 / c.uops.max(1) as f64);
                        Some(Request {
                            tenant: t as u32,
                            core: t % tenants::CORES,
                            requested_op: usize::from(config.op_point_for(phase)),
                            priority: 1,
                        })
                    })
                    .collect()
            })
            .collect();
        let t = Instant::now();
        for reqs in &requests {
            black_box(arbiter.arbitrate(reqs));
        }
        r.metrics.push(m(
            "tenants.arbitrate_ns_per_epoch",
            per(t.elapsed().as_nanos(), requests.len()),
        ));
        // Grants and denials are disjoint: a denial is a grant slower
        // than requested.
        let (granted, denied) = (arbiter.grants_total(), arbiter.denials_total());
        r.metrics.push(m(
            "tenants.grant_rate",
            granted as f64 / (granted + denied).max(1) as f64,
        ));
    });

    // workloads, pmsim, governor and daq over interval traces.
    let platform = PlatformConfig::pentium_m();
    trace::span("workloads.replay", || {
        let specs: Vec<_> = inp
            .traces
            .iter()
            .filter_map(|t| spec::benchmark(t.name()))
            .collect();
        let t = Instant::now();
        let mut n = 0usize;
        for s in &specs {
            n += black_box(s.clone().with_length(1000).generate(seed)).len();
        }
        r.metrics.push(m(
            "workloads.gen_ns_per_interval",
            per(t.elapsed().as_nanos(), n),
        ));
    });
    let mut power_inputs = Vec::new();
    trace::span("pmsim.replay", || {
        let t = Instant::now();
        let mut pmis = 0usize;
        for tr in &inp.traces {
            let mut cpu = Cpu::new(&platform);
            for w in tr.iter() {
                cpu.push_work(*w);
                while let Some(rec) = cpu.run_to_pmi() {
                    pmis += 1;
                    power_inputs.push(PowerInput::from_counters(
                        rec.metrics.mem_uop().get(),
                        rec.metrics.upc().get(),
                    ));
                }
            }
        }
        r.metrics.push(m(
            "pmsim.cpu_ns_per_interval",
            per(t.elapsed().as_nanos(), pmis),
        ));
        let model = AnalyticModel::pentium_m();
        let t = Instant::now();
        let mut acc = 0.0;
        let mut evals = 0usize;
        for input in &power_inputs {
            for (_, opp) in platform.opp_table.iter() {
                acc += model.power(opp, input);
                evals += 1;
            }
        }
        black_box(acc);
        r.metrics
            .push(m("pmsim.power_eval_ns", per(t.elapsed().as_nanos(), evals)));
    });
    trace::span("governor.replay", || {
        let t = Instant::now();
        let mut n = 0usize;
        for tr in &inp.traces {
            let report = Manager::gpht_deployed().run(tr, &platform);
            n += tr.len();
            black_box(report);
        }
        r.metrics.push(m(
            "governor.manager_ns_per_interval",
            per(t.elapsed().as_nanos(), n),
        ));
    });
    trace::span("daq.replay", || {
        let traced = PlatformConfig::pentium_m().with_power_trace();
        let mut cpu = Cpu::new(&traced);
        if let Some(tr) = inp.traces.first() {
            for w in tr.iter() {
                cpu.push_work(*w);
                while cpu.run_to_pmi().is_some() {}
            }
        }
        let power = cpu.into_power_trace();
        let t = Instant::now();
        let log = DaqSystem::pentium_m(seed).measure(&power);
        let taken = log.samples_taken() as usize;
        r.metrics.push(m(
            "daq.measure_ns_per_sample",
            per(t.elapsed().as_nanos(), taken),
        ));
        r.tally.record(taken > 0);
    });
    r
}

/// The traced run's full per-layer report, in [`per_layer_names`] order.
pub fn assemble(traced: &Outcome, replays: &Replays) -> Vec<Metric> {
    let found = |name: &str, from: &[&[Metric]]| {
        from.iter()
            .flat_map(|m| m.iter())
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let mut out: Vec<Metric> = REPLAYED
        .iter()
        .map(|&(name, unit)| Metric::new(name, found(name, &[&replays.metrics]), unit))
        .collect();
    for (name, unit) in NATIVE {
        out.push(Metric::new(
            name,
            found(name, &[&traced.layer, &replays.native]),
            unit,
        ));
    }
    for (a, _) in ARTIFACTS {
        let name = format!("repro.artifact_ms.{a}");
        let v = found(&name, &[&traced.layer]);
        out.push(Metric::new(name, v, "ms"));
    }
    out
}
