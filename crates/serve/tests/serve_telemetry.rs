//! Telemetry contract of the serve path: the batch-timed histograms
//! still count one entry per frame decoded and per decision made.
//!
//! The series live in the process-global registry, so this file holds a
//! single test: no other test in the binary can move them underneath it.

use livephase_serve::client::Client;
use livephase_serve::server::{spawn, ServerConfig};
use std::time::Duration;

/// `_count` of the histogram family `name`, summed over its label sets.
fn count(name: &str) -> u64 {
    let mut total = 0;
    livephase_telemetry::global().visit_histograms(|family, _, h| {
        if family == name {
            total += h.count();
        }
    });
    total
}

const FAMILIES: [&str; 4] = [
    "serve_frame_decode_us",
    "serve_shard_decision_us",
    "serve_frame_encode_us",
    "governor_decision_us",
];

#[test]
fn one_session_counts_its_frames_and_decisions_exactly() {
    const K: u32 = 300;
    let handle = spawn(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let before = FAMILIES.map(count);

    let mut client = Client::connect(
        handle.local_addr(),
        1,
        "pentium_m",
        "gpht:8:128",
        Duration::from_secs(5),
    )
    .expect("handshake");
    for i in 0..K {
        let mem = if i % 3 == 0 { 4_000_000 } else { 0 };
        client
            .queue_sample(i % 5, 100_000_000, mem, 0)
            .expect("queue sample");
    }
    client.flush().expect("flush");
    for _ in 0..K {
        client.read_decision().expect("decision");
    }
    // The Stats reply is queued after the walk that decoded its request
    // was recorded, so every frame sent is counted once it arrives.
    client.stats().expect("stats");
    let after = FAMILIES.map(count);
    client.goodbye().expect("goodbye");
    handle.shutdown();

    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let k = u64::from(K);
    assert_eq!(
        delta[0],
        k + 2,
        "Hello, {K} samples and StatsRequest decoded"
    );
    assert_eq!(delta[1], k, "one shard decision entry per sample");
    assert_eq!(delta[2], k, "one encode entry per decision");
    assert_eq!(delta[3], k, "the shard's step_many times every decision");
}
