//! The two loopback workloads: `serve_fleet` (open loop, two long-lived
//! connections multiplexing 256 pids each) and `serve_churn` (closed
//! loop, one short session at a time over 256 fresh pids).
//!
//! Both drive an in-process server from this one thread through
//! nonblocking [`ConnDriver`]s and check every served decision against
//! an in-process [`DecisionEngine`] oracle computed before timing starts.

use crate::os::{self, reset_on_close, Ticker};
use crate::report::{median, quantile_u32, Tally};
use crate::schedule::{splitmix, Plan, CONNECTIONS, NOMINAL, PIDS_PER_CONN, TICK};
use crate::{sys, trace};
use livephase_engine::{Decision, DecisionEngine, EngineConfig, Sample};
use livephase_serve::client::ConnDriver;
use livephase_serve::reactor::{Epoll, Events, Interest};
use livephase_serve::{spawn, Frame, ServerConfig, ServerHandle};
use livephase_workloads::{counter_samples, spec, CounterSample};
use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

/// Predictor every session asks for: the deployed GPHT.
pub const PREDICTOR: &str = "gpht:8:128";

/// Intervals in each pid's stream; longer runs cycle through it.
pub const STREAM_LEN: usize = 1024;

/// Shard threads' name prefix, for CPU accounting.
const SHARD_THREADS: &str = "serve-shard-";

/// Ticks per latency window; a rung's p50 is the median of its windows'.
const WINDOW_TICKS: u64 = 250;

/// Latencies kept per window (every k-th decision's).
const LATENCIES_PER_WINDOW: u64 = 8192;

/// Outstanding samples past which the client sheds offered load (about
/// 25 ms of the top rung), so an overloaded rung's queue stays bounded.
const BACKLOG_CAP: u64 = 75_000;

/// Token of the tick timer in the generator's epoll set.
const TIMER_TOKEN: u64 = u64::MAX;

/// How long a handshake, a drain or a goodbye may take before the
/// outstanding work counts as failed.
const PATIENCE: Duration = Duration::from_secs(10);

/// A served decision as compared with the oracle: op point and confidence.
fn pack(op_point: u8, confidence: u16) -> u32 {
    u32::from(op_point) | (u32::from(confidence) << 8)
}

/// `count` samples for pid `pid` cycling over `stream`.
fn cycled(pid: u32, stream: &[CounterSample], count: u64) -> Vec<Sample> {
    (0..count as usize)
        .map(|i| {
            let s = stream[i % stream.len()];
            Sample {
                pid,
                uops: s.uops,
                mem_transactions: s.mem_transactions,
            }
        })
        .collect()
}

/// One seeded registry stream per pid: pid slot `i` replays benchmark
/// `i mod 33` from its own seed.
pub fn pid_streams(seed: u64, pids: usize) -> Vec<Vec<CounterSample>> {
    trace::span("workloads.generate", || {
        let registry = spec::registry();
        (0..pids)
            .map(|i| {
                let bench = registry[i % registry.len()].clone().with_length(STREAM_LEN);
                counter_samples(bench.stream(splitmix(seed ^ (i as u64 + 1)))).collect()
            })
            .collect()
    })
}

/// The oracle: each pid's stream through its own engine.
fn oracle(streams: &[Vec<CounterSample>], counts: &[u64]) -> Vec<Vec<u32>> {
    trace::span("engine.oracle", || {
        let config = EngineConfig::pentium_m();
        let mut out = Vec::new();
        streams
            .iter()
            .zip(counts)
            .enumerate()
            .map(|(i, (stream, &n))| {
                let pid = i as u32 + 1;
                let mut engine = DecisionEngine::from_spec(config.clone(), PREDICTOR)
                    .expect("the deployed predictor spec parses");
                out.clear();
                engine.step_many(&cycled(pid, stream, n), &mut out);
                out.iter()
                    .map(|d: &Decision| pack(d.op_point, d.confidence))
                    .collect()
            })
            .collect()
    })
}

/// One client connection driven from the generator's epoll loop.
struct Link {
    drv: ConnDriver,
    token: u64,
    shard: Option<u32>,
    writing: bool,
    closed: bool,
    /// Ticks whose samples still await decisions: (due ns, outstanding).
    inflight: VecDeque<(u64, u64)>,
}

impl Link {
    fn connect(epoll: &Epoll, addr: std::net::SocketAddr, token: u64) -> io::Result<Self> {
        let platform = EngineConfig::pentium_m();
        let drv = trace::span("serve.connect", || {
            ConnDriver::connect(addr, token + 1, platform.platform(), PREDICTOR)
        })?;
        epoll.add(drv.as_raw_fd(), Interest::Read, token)?;
        let mut link = Self {
            drv,
            token,
            shard: None,
            writing: false,
            closed: false,
            inflight: VecDeque::new(),
        };
        link.sync(epoll);
        Ok(link)
    }

    /// Pushes queued bytes and asks for writability only while some remain.
    fn flush(&mut self, epoll: &Epoll) {
        trace::span("serve.client_flush", || self.drv.flush());
        self.sync(epoll);
    }

    fn sync(&mut self, epoll: &Epoll) {
        let want = self.drv.pending() > 0;
        if want != self.writing {
            let interest = if want {
                Interest::ReadWrite
            } else {
                Interest::Read
            };
            if epoll
                .modify(self.drv.as_raw_fd(), interest, self.token)
                .is_ok()
            {
                self.writing = want;
            }
        }
    }

    fn outstanding(&self) -> u64 {
        self.inflight.iter().map(|&(_, n)| n).sum()
    }
}

/// What one readable wake-up delivered.
enum Got {
    Decision { pid: u32, packed: u32 },
    HelloAck(u32),
    Metrics(String),
    Failed,
}

/// Reads everything the socket holds and decodes it.
fn drain(link: &mut Link, scratch: &mut [u8], out: &mut Vec<Got>) {
    trace::span("wire.client_read", || link.drv.fill(scratch));
    trace::span("wire.client_decode", || loop {
        match link.drv.next_frame() {
            Ok(Some(Frame::Decision {
                pid,
                op_point,
                confidence,
            })) => out.push(Got::Decision {
                pid,
                packed: pack(op_point, confidence),
            }),
            Ok(Some(Frame::HelloAck { shard, .. })) => out.push(Got::HelloAck(shard)),
            Ok(Some(Frame::Metrics { text })) => out.push(Got::Metrics(text)),
            Ok(Some(_)) | Err(_) => {
                out.push(Got::Failed);
                break;
            }
            Ok(None) => break,
        }
    });
    if link.drv.peer_gone() {
        link.closed = true;
    }
}

/// The deployed server shape: 2 shards, every other setting default.
fn spawn_server() -> io::Result<ServerHandle> {
    trace::span("serve.spawn", || {
        spawn(ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        })
    })
}

/// Sends `Goodbye` on every link and waits for the server's FIN, which
/// follows the last decision; the links then close with a reset, so
/// thousands of sessions leave no TIME_WAIT sockets to slow later ones.
fn goodbye(epoll: &Epoll, links: &mut [Link], events: &mut Events, scratch: &mut [u8]) -> bool {
    for l in links.iter_mut() {
        l.drv.queue(&Frame::Goodbye);
        l.flush(epoll);
    }
    await_close(epoll, links, events, scratch)
}

/// Waits for the server to close every link after its `Goodbye`.
fn await_close(epoll: &Epoll, links: &mut [Link], events: &mut Events, scratch: &mut [u8]) -> bool {
    let deadline = Instant::now() + PATIENCE;
    let mut junk = Vec::new();
    while links.iter().any(|l| !l.closed) && Instant::now() < deadline {
        if epoll.wait(events, Some(Duration::from_millis(50))).is_err() {
            break;
        }
        for ev in events.iter() {
            if let Some(l) = links.iter_mut().find(|l| l.token == ev.token) {
                if ev.writable {
                    l.flush(epoll);
                }
                if ev.readable || ev.hangup {
                    drain(l, scratch, &mut junk);
                }
            }
        }
    }
    for l in links.iter() {
        let _ = epoll.delete(l.drv.as_raw_fd());
        if l.closed {
            let _ = reset_on_close(l.drv.as_raw_fd());
        }
    }
    links.iter().all(|l| l.closed)
}

/// Waits until every link has its `HelloAck`.
fn handshake(epoll: &Epoll, links: &mut [Link], events: &mut Events, scratch: &mut [u8]) -> bool {
    let deadline = Instant::now() + PATIENCE;
    let mut got = Vec::new();
    while links.iter().any(|l| l.shard.is_none() && !l.closed) && Instant::now() < deadline {
        if epoll.wait(events, Some(Duration::from_millis(20))).is_err() {
            return false;
        }
        for ev in events.iter() {
            if let Some(l) = links.iter_mut().find(|l| l.token == ev.token) {
                if ev.writable {
                    l.flush(epoll);
                }
                got.clear();
                drain(l, scratch, &mut got);
                for g in &got {
                    match g {
                        Got::HelloAck(shard) => l.shard = Some(*shard),
                        _ => l.closed = true,
                    }
                }
            }
        }
    }
    links.iter().all(|l| l.shard.is_some())
}

/// Metrics read from a scrape: per-shard samples and the decision-time sum.
#[derive(Debug, Default, Clone)]
struct Scrape {
    shard_samples: Vec<u64>,
    decision_us_sum: u64,
}

fn parse_scrape(text: &str) -> Scrape {
    let mut s = Scrape::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("serve_shard_samples_total{shard=\"") {
            if let Some((idx, v)) = rest.split_once("\"} ") {
                if let (Ok(i), Ok(v)) = (idx.parse::<usize>(), v.trim().parse::<u64>()) {
                    if s.shard_samples.len() <= i {
                        s.shard_samples.resize(i + 1, 0);
                    }
                    s.shard_samples[i] = v;
                }
            }
        } else if let Some(rest) = line.strip_prefix("serve_shard_decision_us_sum{") {
            if let Some((_, v)) = rest.split_once("} ") {
                s.decision_us_sum += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    s
}

/// Requests a scrape on `link` and waits for it.
fn scrape(
    epoll: &Epoll,
    link: &mut Link,
    events: &mut Events,
    scratch: &mut [u8],
) -> Option<Scrape> {
    link.drv.queue(&Frame::MetricsRequest);
    link.flush(epoll);
    let deadline = Instant::now() + PATIENCE;
    let mut got = Vec::new();
    while Instant::now() < deadline && !link.closed {
        epoll.wait(events, Some(Duration::from_millis(20))).ok()?;
        if events.iter().any(|e| e.writable) {
            link.flush(epoll);
        }
        got.clear();
        drain(link, scratch, &mut got);
        for g in got.drain(..) {
            if let Got::Metrics(text) = g {
                return Some(parse_scrape(&text));
            }
        }
    }
    None
}

/// Scrapes over a short session of its own.
fn scrape_once(
    epoll: &Epoll,
    addr: std::net::SocketAddr,
    events: &mut Events,
    scratch: &mut [u8],
) -> Option<Scrape> {
    let mut link = Link::connect(epoll, addr, 1 << 40).ok()?;
    let links = std::slice::from_mut(&mut link);
    if !handshake(epoll, links, events, scratch) {
        return None;
    }
    let s = scrape(epoll, &mut link, events, scratch);
    goodbye(epoll, std::slice::from_mut(&mut link), events, scratch);
    s
}

impl Scrape {
    /// Shard skew (`max / mean` of per-shard samples, 1 is balanced) and
    /// scrape coverage (the scraped decision-time sum over `shard_cpu_ns`)
    /// between an earlier scrape and this one.
    fn since(&self, before: &Scrape, shard_cpu_ns: u64) -> (f64, f64) {
        let per_shard: Vec<u64> = self
            .shard_samples
            .iter()
            .enumerate()
            .map(|(i, &v)| v - before.shard_samples.get(i).copied().unwrap_or(0))
            .collect();
        let total: u64 = per_shard.iter().sum();
        let max = per_shard.iter().copied().max().unwrap_or(0);
        let skew = if total == 0 {
            0.0
        } else {
            max as f64 * per_shard.len() as f64 / total as f64
        };
        let sum_ns = (self.decision_us_sum - before.decision_us_sum) as f64 * 1e3;
        (skew, sum_ns / shard_cpu_ns.max(1) as f64)
    }
}

/// Connection pairs tried before the fleet settles for a split one.
/// The shards race for accepts on one cloned listener and put a pair on
/// one shard about half the time; the fleet drives the first pair the
/// race co-locates, so the placement it produces stays visible and a
/// balancing fix shows as a gain.
const PLACEMENT_TRIES: usize = 16;

/// A ready fleet: server, inputs, oracle and handshaken connections.
struct Fleet {
    server: ServerHandle,
    epoll: Epoll,
    links: Vec<Link>,
    streams: Vec<Vec<CounterSample>>,
    oracle: Vec<Vec<u32>>,
}

fn fleet_setup(seed: u64, plan: &Plan) -> io::Result<Fleet> {
    trace::span("setup", || {
        let server = spawn_server()?;
        let streams = pid_streams(seed, CONNECTIONS * PIDS_PER_CONN as usize);
        let oracle = oracle(&streams, &plan.per_pid_counts());
        let epoll = Epoll::new()?;
        let mut events = Events::with_capacity(64);
        let mut scratch = vec![0u8; 64 * 1024];
        let mut tries = 0;
        let links = loop {
            tries += 1;
            let mut links = (0..CONNECTIONS as u64)
                .map(|t| Link::connect(&epoll, server.local_addr(), t))
                .collect::<io::Result<Vec<_>>>()?;
            if !handshake(&epoll, &mut links, &mut events, &mut scratch) {
                return Err(io::Error::other("handshake did not complete"));
            }
            let colocated = links.windows(2).all(|w| w[0].shard == w[1].shard);
            if colocated || tries == PLACEMENT_TRIES {
                break links;
            }
            goodbye(&epoll, &mut links, &mut events, &mut scratch);
        };
        Ok(Fleet {
            server,
            epoll,
            links,
            streams,
            oracle,
        })
    })
}

/// One rung's outcome.
#[derive(Debug, Clone, Default)]
pub struct RungResult {
    pub offered: u64,
    pub sent: u64,
    pub answered: u64,
    pub elapsed_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub shard_cpu_ns: u64,
}

impl RungResult {
    pub fn achieved(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.answered as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Achieved at least 99 % of offered with a p50 within 2 ms.
    pub fn sustained(&self) -> bool {
        self.answered == self.sent
            && self.achieved() >= 0.99 * self.offered as f64
            && self.p50_us <= 2000.0
    }
}

/// Everything one `serve_fleet` run measured.
#[derive(Debug, Clone, Default)]
pub struct FleetResult {
    pub setup_s: Vec<f64>,
    pub rungs: Vec<RungResult>,
    pub shards: Vec<u32>,
    pub late_max_us: f64,
    pub gen_cpu_ns: u64,
    pub wall_s: f64,
    pub shard_skew: f64,
    pub scrape_coverage: f64,
    pub tally: Tally,
}

impl FleetResult {
    pub fn sustained_rate(&self) -> f64 {
        self.rungs
            .iter()
            .filter(|r| r.sustained())
            .map(|r| r.offered as f64)
            .fold(0.0, f64::max)
    }

    pub fn nominal(&self) -> RungResult {
        self.rungs.get(NOMINAL).cloned().unwrap_or_default()
    }

    pub fn cpu_ns_per_decision(&self) -> f64 {
        let n = self.nominal();
        n.shard_cpu_ns as f64 / n.answered.max(1) as f64
    }
}

/// Runs `serve_fleet`: `setups` full set-ups (the last one is driven),
/// then the offered-load ladder over `seconds`.
pub fn run_fleet(seed: u64, seconds: f64, setups: usize) -> FleetResult {
    let plan = Plan::new(seed, seconds);
    let mut res = FleetResult::default();
    let mut fleet = None;
    for _ in 0..setups.max(1) {
        if let Some(old) = fleet.take() {
            close_fleet(old, &mut res.tally);
        }
        let c0 = os::thread_cpu_ns();
        match fleet_setup(seed, &plan) {
            Ok(f) => {
                res.setup_s.push(sys::cpu_seconds_since(c0));
                fleet = Some(f);
            }
            Err(e) => {
                eprintln!("serve_fleet: setup failed: {e}");
                res.tally.record(false);
                return res;
            }
        }
    }
    let Some(mut fleet) = fleet else {
        return res;
    };
    res.shards = fleet.links.iter().filter_map(|l| l.shard).collect();
    drive_fleet(&mut fleet, &plan, &mut res);
    close_fleet(fleet, &mut res.tally);
    res
}

fn close_fleet(mut fleet: Fleet, tally: &mut Tally) {
    let mut events = Events::with_capacity(64);
    let mut scratch = vec![0u8; 64 * 1024];
    let closed = goodbye(&fleet.epoll, &mut fleet.links, &mut events, &mut scratch);
    tally.record(closed);
    drop(fleet.links);
    trace::span("serve.shutdown", || fleet.server.shutdown());
}

fn drive_fleet(fleet: &mut Fleet, plan: &Plan, res: &mut FleetResult) {
    let Fleet {
        epoll,
        links,
        streams,
        oracle,
        ..
    } = fleet;
    let mut events = Events::with_capacity(64);
    let mut scratch = vec![0u8; 256 * 1024];
    let mut got = Vec::with_capacity(8192);
    let pids = streams.len();
    let mut pid_sent = vec![0u64; pids];
    let mut pid_rx = vec![0u64; pids];
    let mut conn_sent = [0u64; CONNECTIONS];
    let mut global = 0u64;
    let mut divergent = 0u64;
    let mut failed_frames = 0u64;

    let before = scrape(epoll, &mut links[0], &mut events, &mut scratch).unwrap_or_default();
    let Ok(mut ticker) = Ticker::start(TICK) else {
        res.tally.record(false);
        return;
    };
    if epoll.add(ticker.fd(), Interest::Read, TIMER_TOKEN).is_err() {
        res.tally.record(false);
        return;
    }
    let epoch = Instant::now();
    let now_ns = || u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let gen_cpu0 = os::thread_cpu_ns();
    let tick_ns = TICK.as_nanos() as u64;
    let mut next_tick_ns = tick_ns;
    let mut late_max_ns = 0u64;

    for rung in &plan.rungs {
        let windows = rung.ticks.div_ceil(WINDOW_TICKS) as usize;
        let mut lat: Vec<Vec<u32>> = vec![Vec::new(); windows.max(1)];
        // Every `stride`-th decision's latency is kept, so memory does not
        // grow with the rate a rung achieves.
        let per_window = rung.rate * WINDOW_TICKS * tick_ns / 1_000_000_000;
        let stride = (per_window / LATENCIES_PER_WINDOW).max(1);
        let cpu0 = sys::threads_cpu_ns(SHARD_THREADS);
        let start_ns = next_tick_ns - tick_ns;
        let mut k = 1u64;
        let mut last_answer_ns = start_ns;
        let mut answered = 0u64;
        let sent_before = global;
        let drain_deadline = start_ns + rung.ticks * tick_ns + PATIENCE.as_nanos() as u64;
        loop {
            let now = now_ns();
            if k <= rung.ticks && now >= next_tick_ns {
                // Relay every sample due by this tick, stamped with it.
                late_max_ns = late_max_ns.max(now - next_tick_ns);
                let backlog: u64 = links.iter().map(Link::outstanding).sum();
                // Past the backlog cap the client sheds the tick's load
                // instead of queueing it without bound.
                let n = if backlog > BACKLOG_CAP {
                    0
                } else {
                    rung.due_in_tick(k)
                };
                let mut per_conn = [0u64; CONNECTIONS];
                trace::span("wire.encode", || {
                    for _ in 0..n {
                        let c = Plan::conn_of(global);
                        let slot = plan.slot_of(c, conn_sent[c]);
                        let p = c * PIDS_PER_CONN as usize + slot as usize;
                        let s = streams[p][(pid_sent[p] % STREAM_LEN as u64) as usize];
                        links[c].drv.queue(&Frame::Sample {
                            pid: p as u32 + 1,
                            uops: s.uops,
                            mem_trans: s.mem_transactions,
                            tsc_delta: s.core_cycles,
                        });
                        pid_sent[p] += 1;
                        conn_sent[c] += 1;
                        per_conn[c] += 1;
                        global += 1;
                    }
                });
                for (c, link) in links.iter_mut().enumerate() {
                    if per_conn[c] > 0 {
                        link.inflight.push_back((next_tick_ns, per_conn[c]));
                        link.flush(epoll);
                    }
                }
                k += 1;
                next_tick_ns += tick_ns;
                continue;
            }
            let outstanding: u64 = links.iter().map(Link::outstanding).sum();
            if k > rung.ticks && outstanding == 0 {
                break;
            }
            if now > drain_deadline || links.iter().any(|l| l.closed) {
                break;
            }
            if trace::span("serve.client_wait", || {
                epoll.wait(&mut events, Some(Duration::from_millis(100)))
            })
            .is_err()
            {
                break;
            }
            for ev in events.iter() {
                if ev.token == TIMER_TOKEN {
                    ticker.expirations();
                    continue;
                }
                let Some(link) = links.iter_mut().find(|l| l.token == ev.token) else {
                    continue;
                };
                if ev.writable {
                    link.flush(epoll);
                }
                if !(ev.readable || ev.hangup) {
                    continue;
                }
                got.clear();
                drain(link, &mut scratch, &mut got);
                let at = now_ns();
                for g in &got {
                    let Got::Decision { pid, packed } = *g else {
                        failed_frames += 1;
                        continue;
                    };
                    let Some((due, left)) = link.inflight.front_mut() else {
                        failed_frames += 1;
                        continue;
                    };
                    if answered.is_multiple_of(stride) {
                        let w = ((*due - start_ns) / (WINDOW_TICKS * tick_ns)) as usize;
                        if let Some(v) = lat.get_mut(w.min(windows.saturating_sub(1))) {
                            v.push(u32::try_from(at.saturating_sub(*due)).unwrap_or(u32::MAX));
                        }
                    }
                    *left -= 1;
                    if *left == 0 {
                        link.inflight.pop_front();
                    }
                    answered += 1;
                    last_answer_ns = at;
                    let p = (pid as usize).wrapping_sub(1);
                    let want = oracle.get(p).and_then(|o| o.get(pid_rx[p] as usize));
                    if want != Some(&packed) {
                        divergent += 1;
                    }
                    if let Some(r) = pid_rx.get_mut(p) {
                        *r += 1;
                    }
                }
            }
        }
        // Anything still unanswered counts as failed; drop it so the next
        // rung starts clean.
        for l in links.iter_mut() {
            l.inflight.clear();
        }
        let sent = global - sent_before;
        let cpu = sys::threads_cpu_ns(SHARD_THREADS) - cpu0;
        let elapsed_s = (last_answer_ns - start_ns) as f64 / 1e9;
        // The median of per-window medians, so one stalled window moves
        // the figure by one rank, not by its whole backlog.
        let p50s: Vec<f64> = lat
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| f64::from(quantile_u32(w, 0.5)) / 1e3)
            .collect();
        let p50 = median(&p50s);
        let mut all: Vec<u32> = lat.concat();
        let p99 = f64::from(quantile_u32(&mut all, 0.99)) / 1e3;
        res.tally.record_many(sent, sent - answered.min(sent));
        res.rungs.push(RungResult {
            offered: rung.rate,
            sent,
            answered,
            elapsed_s,
            p50_us: p50,
            p99_us: p99,
            shard_cpu_ns: cpu,
        });
        if links.iter().any(|l| l.closed) {
            break;
        }
        // The next rung starts at the next tick after the drain.
        next_tick_ns = (now_ns() / tick_ns + 1) * tick_ns + tick_ns;
    }
    res.wall_s = now_ns() as f64 / 1e9;
    res.gen_cpu_ns = os::thread_cpu_ns() - gen_cpu0;
    res.late_max_us = late_max_ns as f64 / 1e3;
    let _ = epoll.delete(ticker.fd());
    res.tally
        .record_many(divergent + failed_frames, divergent + failed_frames);
    if let Some(after) = scrape(epoll, &mut links[0], &mut events, &mut scratch) {
        let shard_cpu_ns = res.rungs.iter().map(|r| r.shard_cpu_ns).sum();
        (res.shard_skew, res.scrape_coverage) = after.since(&before, shard_cpu_ns);
    } else {
        res.tally.record(false);
    }
}

/// Samples each churn session sends: one for each of 256 fresh pids.
pub const CHURN_PIDS: u32 = 256;

/// Distinct sample contents churn sessions draw from.
const CHURN_POOL: usize = 4096;

/// Everything one `serve_churn` run measured.
#[derive(Debug, Clone, Default)]
pub struct ChurnResult {
    pub setup_s: Vec<f64>,
    pub sessions: u64,
    pub elapsed_s: f64,
    pub handshake_us: Vec<u32>,
    pub decisions: u64,
    pub shard_cpu_ns: u64,
    /// Shard CPU per decision in each whole second of the run.
    pub cpu_ns_per_decision: Vec<f64>,
    pub gen_cpu_ns: u64,
    pub shards: [u64; 2],
    pub shard_skew: f64,
    pub scrape_coverage: f64,
    pub tally: Tally,
}

/// The churn sample pool and each sample's decision as the first sample
/// of a fresh pid.
pub fn churn_pool(seed: u64) -> (Vec<CounterSample>, Vec<u32>) {
    let streams = pid_streams(seed, CHURN_POOL / 256);
    let pool: Vec<CounterSample> = streams
        .into_iter()
        .flat_map(|s| s.into_iter().take(256))
        .collect();
    let oracle = trace::span("engine.oracle", || {
        let mut engine = DecisionEngine::from_spec(EngineConfig::pentium_m(), PREDICTOR)
            .expect("the deployed predictor spec parses");
        pool.iter()
            .enumerate()
            .map(|(i, s)| {
                let d = engine.step(&Sample {
                    pid: i as u32 + 1,
                    uops: s.uops,
                    mem_transactions: s.mem_transactions,
                });
                pack(d.op_point, d.confidence)
            })
            .collect()
    });
    (pool, oracle)
}

/// Runs `serve_churn` for `seconds` after `setups` set-ups.
pub fn run_churn(seed: u64, seconds: f64, setups: usize) -> ChurnResult {
    let mut res = ChurnResult::default();
    let mut ready: Option<(ServerHandle, Vec<CounterSample>, Vec<u32>)> = None;
    for _ in 0..setups.max(1) {
        if let Some((server, _, _)) = ready.take() {
            server.shutdown();
        }
        let c0 = os::thread_cpu_ns();
        let built = trace::span("setup", || -> io::Result<_> {
            let server = spawn_server()?;
            let (pool, oracle) = churn_pool(seed);
            Ok((server, pool, oracle))
        });
        match built {
            Ok(b) => {
                res.setup_s.push(sys::cpu_seconds_since(c0));
                ready = Some(b);
            }
            Err(e) => {
                eprintln!("serve_churn: setup failed: {e}");
                res.tally.record(false);
                return res;
            }
        }
    }
    let Some((server, pool, oracle)) = ready else {
        return res;
    };
    let Ok(epoll) = Epoll::new() else {
        res.tally.record(false);
        return res;
    };
    let mut events = Events::with_capacity(16);
    let mut scratch = vec![0u8; 64 * 1024];
    let mut got = Vec::with_capacity(512);
    let addr = server.local_addr();
    let offset = (splitmix(seed) % CHURN_POOL as u64) as usize;

    let before = scrape_once(&epoll, addr, &mut events, &mut scratch);

    let cpu0 = sys::threads_cpu_ns(SHARD_THREADS);
    let gen0 = os::thread_cpu_ns();
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut session = 0u64;
    let mut window = (Duration::from_secs(1), cpu0, 0u64);
    while t0.elapsed() < budget {
        if t0.elapsed() >= window.0 {
            let cpu = sys::threads_cpu_ns(SHARD_THREADS);
            let decided = res.decisions - window.2;
            if decided > 0 {
                res.cpu_ns_per_decision
                    .push((cpu - window.1) as f64 / decided as f64);
            }
            window = (window.0 + Duration::from_secs(1), cpu, res.decisions);
        }
        let base = session * u64::from(CHURN_PIDS);
        session += 1;
        let started = Instant::now();
        let mut link = match Link::connect(&epoll, addr, session) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("serve_churn: connect failed: {e}");
                res.tally.record(false);
                continue;
            }
        };
        let mut ok = handshake(
            &epoll,
            std::slice::from_mut(&mut link),
            &mut events,
            &mut scratch,
        );
        res.handshake_us
            .push(u32::try_from(started.elapsed().as_micros()).unwrap_or(u32::MAX));
        if let Some(shard) = link.shard {
            res.shards[(shard as usize).min(1)] += 1;
        }
        if ok {
            trace::span("wire.encode", || {
                for i in 0..u64::from(CHURN_PIDS) {
                    let s = pool[((base + i) as usize + offset) % CHURN_POOL];
                    link.drv.queue(&Frame::Sample {
                        pid: (base + i) as u32 + 1,
                        uops: s.uops,
                        mem_trans: s.mem_transactions,
                        tsc_delta: s.core_cycles,
                    });
                }
                // The session ends with its samples: the server answers
                // them all, then closes.
                link.drv.queue(&Frame::Goodbye);
            });
            link.flush(&epoll);
            let mut answered = 0u64;
            let deadline = Instant::now() + PATIENCE;
            while answered < u64::from(CHURN_PIDS) && !link.closed && Instant::now() < deadline {
                if epoll
                    .wait(&mut events, Some(Duration::from_millis(20)))
                    .is_err()
                {
                    break;
                }
                if events.iter().any(|e| e.writable) {
                    link.flush(&epoll);
                }
                got.clear();
                drain(&mut link, &mut scratch, &mut got);
                for g in &got {
                    let Got::Decision { pid, packed } = *g else {
                        ok = false;
                        continue;
                    };
                    let i = u64::from(pid).wrapping_sub(1).wrapping_sub(base);
                    let want = oracle.get(((base + i) as usize + offset) % CHURN_POOL);
                    ok &= i < u64::from(CHURN_PIDS) && want == Some(&packed);
                    answered += 1;
                }
            }
            ok &= answered == u64::from(CHURN_PIDS);
            res.decisions += answered;
        }
        ok &= if link.shard.is_some() {
            await_close(
                &epoll,
                std::slice::from_mut(&mut link),
                &mut events,
                &mut scratch,
            )
        } else {
            goodbye(
                &epoll,
                std::slice::from_mut(&mut link),
                &mut events,
                &mut scratch,
            )
        };
        res.tally.record(ok);
        if ok {
            res.sessions += 1;
        }
    }
    res.elapsed_s = t0.elapsed().as_secs_f64();
    res.shard_cpu_ns = sys::threads_cpu_ns(SHARD_THREADS) - cpu0;
    if res.cpu_ns_per_decision.is_empty() {
        res.cpu_ns_per_decision
            .push(res.shard_cpu_ns as f64 / res.decisions.max(1) as f64);
    }
    res.gen_cpu_ns = os::thread_cpu_ns() - gen0;
    let after = scrape_once(&epoll, addr, &mut events, &mut scratch);
    if let (Some(before), Some(after)) = (before, after) {
        (res.shard_skew, res.scrape_coverage) = after.since(&before, res.shard_cpu_ns);
    } else {
        res.tally.record(false);
    }
    trace::span("serve.shutdown", || server.shutdown());
    res
}
