//! # iperf — the bandwidth-measurement application (iperf3 analog)
//!
//! The paper ports iperf3 onto the `ff_*` API ("we initially ported iperf3
//! to work with the F-Stack API. Next, we replaced the select function, with
//! the epoll mechanism") and uses it in server (receiver) and client
//! (sender) modes to measure the maximum achievable TCP bandwidth for
//! Table II. This crate rebuilds that application against
//! [`fstack::FStack`]:
//!
//! * [`server::ServerApp`] — listen/accept/read loop over `ff_epoll`;
//! * [`client::ClientApp`] — connect + keep-the-pipe-full write loop;
//! * [`report`] — interval and summary bandwidth accounting, including the
//!   efficiency metric the paper reports (bandwidth ÷ 1 Gbit/s).
//!
//! The apps are poll-mode: the scenario driver calls `step` once per
//! F-Stack main-loop iteration (paper §III.B's "user-defined function").
//! Each step reports how many `ff_*` calls it made so the driver can charge
//! the per-call isolation costs of the active scenario (trampolines in
//! Scenario 1; cross-cVM wrappers plus the service mutex in Scenario 2).

pub mod client;
pub mod report;
pub mod server;

pub use client::ClientApp;
pub use fstack::StepOutcome;
pub use report::{BandwidthReport, IntervalReport};
pub use server::ServerApp;

/// The default iperf3 control/data port.
pub const IPERF_PORT: u16 = 5201;
