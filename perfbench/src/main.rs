//! The livephase benchmark: one command, four workloads, end-to-end
//! metrics untraced and per-layer metrics from a separate traced run.
//!
//! ```text
//! livephase-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result; a human-readable
//! row and the machine settings go to standard error. See `README.md`
//! in this directory for each workload's purpose and each metric's unit.

mod layers;
mod os;
mod report;
mod repro;
mod schedule;
mod serve;
mod sys;
mod tenants;
mod trace;

use report::{Metric, Tally};
use serve::RungResult;
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics every untraced run prints, with their units.
///
/// The program's CPU time per operation is the gated cost. Wall-clock
/// figures swing with the host: on a 2-vCPU VM on a shared host, steal
/// time ranged from 1 % to 30 % between runs. So they are printed in the
/// row and reported per layer as the load generator's view
/// (`loadgen.*`), not gated.
pub const END_TO_END: [(&str, &str); 4] = [
    ("cpu_ns_per_op", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "ratio"),
];

/// The workloads, in the order the documentation lists them.
pub const WORKLOADS: [&str; 4] = [
    "serve_fleet",
    "serve_churn",
    "tenants_cluster",
    "repro_suite",
];

/// Set-ups per run; `setup_s` is their median. A fleet set-up computes
/// the oracle for every sample the ladder sends (15 million in 10 s), so
/// it repeats fewer times than the millisecond set-ups of the others.
const FLEET_SETUPS: usize = 3;
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

/// One workload run boiled down to the end-to-end figures.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub cpu_ns_per_op: f64,
    pub setup_s: f64,
    /// The cost the tracing overhead is judged on: load-generator CPU
    /// per operation for the loopback workloads, wall time per operation
    /// otherwise.
    pub overhead_basis_ns: f64,
    pub tally: Tally,
    /// Workload-specific figures for the per-layer report.
    pub layer: Vec<Metric>,
    /// The row printed for people, with the names the issue tracker uses.
    pub row: String,
}

fn run_workload(name: &str, seed: u64, seconds: f64) -> Outcome {
    match name {
        "serve_fleet" => fleet_outcome(seed, seconds),
        "serve_churn" => churn_outcome(seed, seconds),
        "tenants_cluster" => tenants::run(seed, seconds, SETUPS),
        _ => repro::run(seed, seconds, SETUPS),
    }
}

/// The load generator's wall-clock view of a run: the latency of one
/// operation (median and p99), operations per second, how late the
/// generator ran and how busy its thread was.
pub fn loadgen(
    p50_us: f64,
    p99_us: f64,
    per_s: f64,
    late_max_us: f64,
    cpu_frac: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("loadgen.p50_latency_us", p50_us, "us"),
        Metric::new("loadgen.p99_latency_us", p99_us, "us"),
        Metric::new("loadgen.throughput_per_s", per_s, "1/s"),
        Metric::new("loadgen.late_max_us", late_max_us, "us"),
        Metric::new("loadgen.cpu_frac", cpu_frac, "ratio"),
    ]
}

fn fleet_outcome(seed: u64, seconds: f64) -> Outcome {
    let r = serve::run_fleet(seed, seconds, FLEET_SETUPS);
    let nominal = r.nominal();
    let decisions: u64 = r.rungs.iter().map(|x| x.answered).sum();
    let ladder: Vec<String> = r
        .rungs
        .iter()
        .map(|x| format!("{:.2}M/s p50 {:.0}us", x.achieved() / 1e6, x.p50_us))
        .collect();
    let mut layer = vec![
        Metric::new("server.shard_skew", r.shard_skew, "ratio"),
        Metric::new("server.sustained_rate", r.sustained_rate(), "1/s"),
        Metric::new(
            "server.saturation_rate",
            r.rungs.last().map_or(0.0, RungResult::achieved),
            "1/s",
        ),
        Metric::new("telemetry.scrape_coverage", r.scrape_coverage, "ratio"),
    ];
    layer.extend(loadgen(
        nominal.p50_us,
        nominal.p99_us,
        nominal.achieved(),
        r.late_max_us,
        r.gen_cpu_ns as f64 / 1e9 / r.wall_s.max(1e-9),
    ));
    Outcome {
        cpu_ns_per_op: r.cpu_ns_per_decision(),
        setup_s: report::median(&r.setup_s),
        overhead_basis_ns: r.gen_cpu_ns as f64 / decisions.max(1) as f64,
        tally: r.tally,
        layer,
        row: format!(
            "decision_p50_us={:.1} server_cpu_ns_per_decision={:.0} sustained_rate={:.0} \
             shards={:?} ladder=[{}]",
            nominal.p50_us,
            r.cpu_ns_per_decision(),
            r.sustained_rate(),
            r.shards,
            ladder.join(", ")
        ),
    }
}

fn churn_outcome(seed: u64, seconds: f64) -> Outcome {
    let mut r = serve::run_churn(seed, seconds, SETUPS);
    let p50 = f64::from(report::quantile_u32(&mut r.handshake_us, 0.5));
    let p99 = f64::from(report::quantile_u32(&mut r.handshake_us, 0.99));
    let sessions_per_s = r.sessions as f64 / r.elapsed_s.max(1e-9);
    let cpu = report::median(&r.cpu_ns_per_decision);
    let mut layer = vec![
        Metric::new("server.shard_skew", r.shard_skew, "ratio"),
        Metric::new("telemetry.scrape_coverage", r.scrape_coverage, "ratio"),
    ];
    layer.extend(loadgen(
        p50,
        p99,
        sessions_per_s,
        0.0,
        r.gen_cpu_ns as f64 / 1e9 / r.elapsed_s.max(1e-9),
    ));
    Outcome {
        cpu_ns_per_op: cpu,
        setup_s: report::median(&r.setup_s),
        overhead_basis_ns: r.gen_cpu_ns as f64 / r.sessions.max(1) as f64,
        tally: r.tally,
        layer,
        row: format!(
            "sessions_per_s={sessions_per_s:.1} handshake_p50_us={p50:.1} \
             server_cpu_ns_per_decision={cpu:.0} sessions_by_shard={:?}",
            r.shards
        ),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: livephase-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let env = sys::environment();
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        env.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let (outcome, metrics) = if args.traced {
        traced_run(&args)
    } else {
        let o = run_workload(&args.workload, args.seed, args.seconds);
        let values = [
            o.cpu_ns_per_op,
            o.setup_s,
            sys::peak_rss_mb(),
            1.0 - o.tally.failed_frac(),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, v, unit))
            .collect();
        (o, metrics)
    };
    eprintln!(
        "{}: {} setup_s={:.4} peak_rss_mb={:.1} failed_frac={} attempted={}",
        args.workload,
        outcome.row,
        outcome.setup_s,
        sys::peak_rss_mb(),
        outcome.tally.failed_frac(),
        outcome.tally.attempted
    );
    for m in &metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    match report::render(outcome.tally.correct(), outcome.tally, &metrics) {
        Ok(line) => {
            println!("{line}");
            if outcome.tally.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// The traced run: the workload once untraced and once with spans, then
/// the layer replays on the workload's own inputs. Spans go to
/// `out/spans-<workload>-<seed>.jsonl` in the benchmark's directory.
fn traced_run(args: &Args) -> (Outcome, Vec<Metric>) {
    let half = args.seconds / 2.0;
    let plain = run_workload(&args.workload, args.seed, half);
    trace::enable();
    let started = Instant::now();
    let mut traced = trace::span("workload", || run_workload(&args.workload, args.seed, half));
    let replays = trace::span("replay", || layers::replay(&args.workload, args.seed));
    eprintln!(
        "traced body and replays took {:.2} s",
        started.elapsed().as_secs_f64()
    );
    let spans = trace::take();
    write_spans(args, &spans);

    let mut metrics = layers::assemble(&traced, &replays);
    let overhead = traced.overhead_basis_ns / plain.overhead_basis_ns.max(1e-9) - 1.0;
    metrics.push(Metric::new("trace.overhead_frac", overhead, "ratio"));
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    if names != layers::per_layer_names() {
        eprintln!("error: the traced run's metrics differ from the declared per-layer set");
        traced.tally.record(false);
    }
    for (name, t) in trace::totals(&spans) {
        eprintln!(
            "  span {:<32} n={:<8} total={:>10.3}ms self={:>10.3}ms",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    traced.tally.merge(plain.tally);
    traced.tally.merge(replays.tally);
    traced.row = format!("{} trace_overhead_frac={overhead:.4}", traced.row);
    (traced, metrics)
}

fn write_spans(args: &Args, spans: &[trace::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace::to_jsonl(spans)));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}
