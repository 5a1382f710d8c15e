//! Phase monitoring and prediction as a network service.
//!
//! The paper's deployment runs the phase predictor inside the kernel of
//! the machine it manages. This crate is the other deployment shape: a
//! long-running TCP daemon that accepts counter samples from many
//! machines (or many processes) and returns DVFS decisions — phase
//! prediction as infrastructure rather than a kernel module.
//!
//! The crate stacks four layers, std-only (no async runtime, no
//! networking dependencies):
//!
//! - [`wire`] — the versioned, length-prefixed binary frame protocol:
//!   `Hello`/`HelloAck` handshake, `Sample` → `Decision` streaming,
//!   `Stats`, explicit `Error` frames.
//! - [`engine`] — the shard-local session layer: per-client
//!   [`SessionState`](engine::SessionState), a thin adapter over the
//!   shared `livephase-engine` decision pipeline (bit-identical to the
//!   in-process manager's decision path) with batched queue draining.
//! - [`server`] — the sharded daemon: N shard owner threads exclusively
//!   holding predictor state, timeouts, a `max_conns` accept gate,
//!   poison-one-connection error handling and flag-based draining
//!   shutdown. Connections are driven by a nonblocking epoll **reactor**
//!   (the [`reactor`] syscall layer plus the private `conn` and `shard`
//!   modules) — one readiness loop per shard thread owning thousands of
//!   sockets, bounded outbound queues with slow-consumer shedding, idle
//!   reaping on a coarse tick.
//! - [`client`] / [`loadgen`] — the blocking client and the
//!   `serve-bench` load generator, which replays the synthetic SPEC
//!   workloads over M connections and checks served decisions bit-exactly
//!   against an in-process oracle run.

// `unsafe` is denied crate-wide and allowed back in exactly one place:
// the `reactor` syscall module, the workspace's sanctioned unsafe
// island (livephase-lint's safety-comment rule pins that scoping).
#![deny(unsafe_code)]
#![warn(missing_docs)]
// The decision path must not panic on malformed input: sessions are the
// failure domain, so serving code is held unwrap/expect-free outside tests.
// ci.sh runs clippy with -D warnings, turning any regression into an error.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub(crate) mod conn;
pub mod engine;
pub mod loadgen;
pub mod reactor;
pub mod server;
pub(crate) mod shard;
pub mod wire;

pub use client::{Client, ClientError, ServedDecision};
pub use engine::{Decision, EngineConfig, EngineConfigError, Sample, SessionState};
pub use loadgen::{Agreement, LoadGenConfig, LoadGenError, LoadReport};
pub use server::{spawn, ServerConfig, ServerHandle, ServerSummary};
pub use wire::{ErrorCode, Frame, StatsSnapshot, MAX_FRAME_BYTES, PROTOCOL_VERSION};
