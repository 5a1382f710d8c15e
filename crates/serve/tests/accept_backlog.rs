//! Accept-queue overflow regression: a connect wave of 1024 sessions
//! against a 2-shard server must not overflow the listen backlog.
//!
//! The standard library listens with a backlog of 128 while the load
//! generator keeps up to 256 connects in flight, so before the server
//! widened its backlog to `somaxconn` the kernel dropped SYNs past the
//! queue and each dropped connect stalled a full second on retransmit.
//! The kernel counts every such drop in `TcpExt ListenOverflows`
//! (`/proc/net/netstat`); this test asserts the counter does not move.
//!
//! The counter is per network namespace, so this binary holds this one
//! test: nothing else in the process connects while it runs.

use livephase_serve::loadgen::{self, LoadGenConfig};
use livephase_serve::server::{spawn, ServerConfig};
use std::time::Duration;

const CONNS: usize = 1024;

/// `TcpExt ListenOverflows` from `/proc/net/netstat`, or `None` where
/// the file or the field is absent. The file pairs a header line of
/// field names with a line of values for each protocol.
fn listen_overflows() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/netstat").ok()?;
    let mut tcp_ext = text.lines().filter(|l| l.starts_with("TcpExt:"));
    let names = tcp_ext.next()?.split_whitespace();
    let values = tcp_ext.next()?.split_whitespace();
    names
        .zip(values)
        .find(|(name, _)| *name == "ListenOverflows")
        .and_then(|(_, value)| value.parse().ok())
}

/// The soft limit on open files, from `/proc/self/limits`.
fn open_file_limit() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = text.lines().find(|l| l.starts_with("Max open files"))?;
    let soft = line.split_whitespace().nth(3)?;
    if soft == "unlimited" {
        return Some(u64::MAX);
    }
    soft.parse().ok()
}

#[test]
fn a_1024_connection_wave_never_overflows_the_accept_queue() {
    let Some(before) = listen_overflows() else {
        println!("SKIP: /proc/net/netstat has no TcpExt ListenOverflows field");
        return;
    };
    // Both ends of every connection live in this process.
    let needed = 2 * CONNS as u64 + 128;
    match open_file_limit() {
        Some(limit) if limit >= needed => {}
        limit => {
            println!("SKIP: open-file limit {limit:?} is below the {needed} this test holds");
            return;
        }
    }

    let handle = spawn(ServerConfig {
        shards: 2,
        max_conns: CONNS + 64,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let report = loadgen::run(&LoadGenConfig {
        addr: handle.local_addr().to_string(),
        connections: Some(CONNS),
        benchmarks: vec!["swim_in".into()],
        length: 4,
        window: 16,
        timeout: Duration::from_secs(30),
        ..LoadGenConfig::default()
    })
    .expect("many-connection load generation succeeds");
    let summary = handle.shutdown();
    let after = listen_overflows().expect("the field was readable before the run");

    assert_eq!(
        report.peak_connections, CONNS,
        "every session is held open at once"
    );
    assert!(report.all_exact(), "every stream is bit-exact");
    assert_eq!(summary.accepted, CONNS as u64);
    assert_eq!(
        after, before,
        "the connect wave overflowed the listen backlog (ListenOverflows moved)"
    );
}
