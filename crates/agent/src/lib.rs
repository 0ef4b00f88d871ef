//! The Pingmesh Agent.
//!
//! "Every server runs a Pingmesh Agent. Its task is simple: downloads
//! pinglist from the Pingmesh Controller; pings the servers in the
//! pinglist; then uploads the ping result to DSA." (§3.4) — and yet "the
//! Pingmesh Agent is one of the most challenging part to implement"
//! because it must be **fail-closed** and almost free:
//!
//! * hard-coded floor on the probe interval and cap on the payload size
//!   ([`guard`]),
//! * stop probing after 3 consecutive controller failures or when the
//!   controller serves no pinglist (while still *answering* probes),
//! * bounded in-memory results with retry-then-discard upload semantics
//!   and a capped local log ([`buffer`]),
//! * deterministic spreading of probes over time ([`scheduler`]) and a
//!   fresh ephemeral source port per probe,
//! * exported perf counters (P50/P99/drop rate) for the fast PA pipeline.
//!
//! One state machine, two drivers. [`AgentFleet`] holds every agent
//! transition — poll handling, the probe schedule, buffering and the
//! upload cycle — as flat per-agent arrays. The discrete-event
//! simulation drives one fleet per shard, feeding it simulated network
//! outcomes; the real-socket agent (`pingmesh-realmode`'s `RealAgent`)
//! drives a fleet of one, feeding it the outcomes of the tokio TCP/HTTP
//! prober in [`real`] — the analogue of the paper's purpose-built IOCP
//! network library.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod config;
pub mod guard;
pub mod real;
pub mod scheduler;
pub mod soa;

pub use buffer::ResultBuffer;
pub use config::AgentConfig;
pub use guard::SafetyGuard;
pub use soa::{AgentFleet, AgentView, ControllerPollOutcome};
