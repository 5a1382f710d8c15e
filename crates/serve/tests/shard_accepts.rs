//! Per-shard accept accounting: `serve_shard_accepted_total{shard}`
//! moves by exactly the connections each shard admitted, as named by the
//! shard index in every `HelloAck`.
//!
//! The series live in the process-global registry, so this file holds a
//! single test: no other test in the binary can move them underneath it.

use livephase_serve::client::Client;
use livephase_serve::server::{spawn, ServerConfig};
use std::time::Duration;

const SHARDS: usize = 2;

/// The accept counter of every shard, in shard order.
fn accepted() -> [u64; SHARDS] {
    std::array::from_fn(|shard| {
        livephase_telemetry::global()
            .counter(
                "serve_shard_accepted_total",
                "",
                &[("shard", &shard.to_string())],
            )
            .get()
    })
}

#[test]
fn each_shard_counts_the_connections_it_acknowledged() {
    const CONNS: u32 = 64;
    let handle = spawn(ServerConfig {
        shards: SHARDS,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let before = accepted();

    let mut acked = [0u64; SHARDS];
    let mut clients = Vec::new();
    for client_id in 0..u64::from(CONNS) {
        let client = Client::connect(
            handle.local_addr(),
            client_id,
            "pentium_m",
            "gpht:8:128",
            Duration::from_secs(5),
        )
        .expect("handshake");
        let shard = usize::try_from(client.shard()).expect("shard index fits usize");
        assert!(shard < SHARDS, "HelloAck names shard {shard} of {SHARDS}");
        acked[shard] += 1;
        clients.push(client);
    }
    let after = accepted();
    for client in clients {
        client.goodbye().expect("goodbye");
    }
    handle.shutdown();

    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(
        delta, acked,
        "accepts per shard against HelloAcks per shard"
    );
    assert_eq!(delta.iter().sum::<u64>(), u64::from(CONNS));
}
