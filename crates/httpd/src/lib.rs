//! # capnet-httpd — the HTTP serving plane
//!
//! Where the `iperf` crate reproduces the paper's bulk-transfer
//! measurement, this crate opens the scenario class the ROADMAP's north
//! star actually names: **heavy traffic from many short-lived
//! connections**. Two poll-mode applications run over the `ff_*` API
//! inside cVMs, exactly like the iperf pair:
//!
//! * [`server::HttpServerApp`] — an HTTP/1.1 static server on
//!   `ff_socket`/`ff_bind`/`ff_listen`/`ff_accept`/`ff_read`/`ff_write`
//!   and `ff_epoll`: a small route table, keep-alive with pipelined
//!   request parsing, per-client token-bucket rate limiting and bounded
//!   connection lifetimes;
//! * [`fleet::FleetApp`] — an **open-loop** client fleet: seeded Poisson
//!   connection arrivals, heavy-tailed think times, and a configurable
//!   churn mix (close-per-request vs keep-alive), so one leaf node
//!   stands in for thousands of users.
//!
//! The workload deliberately stresses stack paths bulk transfer never
//! touches: listen-backlog overflow under accept bursts, 2MSL TIME_WAIT
//! recycling, ephemeral-port exhaustion, and listener readiness at
//! many-socket `ff_epoll` scale.
//!
//! Determinism contract: every draw comes from a [`simkern::rng::SimRng`]
//! seeded by the scenario, and the exponential sampler in [`fleet`] uses
//! only IEEE-exact arithmetic (no libm), so a run is a pure function of
//! its configuration and byte-identical at any worker count.

pub mod fleet;
pub mod http;
pub mod server;

pub use fleet::{FleetApp, FleetConfig, FleetReport};
pub use fstack::StepOutcome;
pub use server::{HttpServerApp, HttpServerConfig, HttpServerReport};

/// The default HTTP serving port for the scenarios.
pub const HTTPD_PORT: u16 = 8080;
