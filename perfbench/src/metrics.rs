//! The metric catalogue (every name the benchmark prints, with its unit)
//! and the result line. `tests/derive.rs` checks the catalogue against
//! `BENCHMARK.json` and the name charset.

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("host_s_per_sim_s", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_goodput_mbit_s", "Mbit/s"),
];

/// Per-layer counts and ratios read from the timed runs.
pub const COUNTS: [(&str, &str); 46] = [
    ("simkern.events", "count"),
    ("simkern.events_per_host_s", "1/s"),
    ("netsim.loop_polls", "count"),
    ("netsim.idle_poll_ratio", "ratio"),
    ("netsim.parks", "count"),
    ("netsim.wakes", "count"),
    ("netsim.timer_wakes", "count"),
    ("netsim.stale_wake_ratio", "ratio"),
    ("updk.deliveries", "count"),
    ("updk.switch_hops", "count"),
    ("updk.switch.forwarded", "count"),
    ("updk.switch.flooded", "count"),
    ("updk.switch.dropped", "count"),
    ("updk.port.alloc_failures", "count"),
    ("updk.framebuf.fresh", "count"),
    ("updk.framebuf.fresh_ratio", "ratio"),
    ("fstack.frames_in", "count"),
    ("fstack.frames_out", "count"),
    ("fstack.tcp_in", "count"),
    ("fstack.drops", "count"),
    ("fstack.rsts_out", "count"),
    ("fstack.listen_drops", "count"),
    ("fstack.conn_timeouts", "count"),
    ("intravisor.mutex_acquisitions", "count"),
    ("intravisor.mutex_contentions", "count"),
    ("httpd.conns_started", "count"),
    ("httpd.requests_ok", "count"),
    ("httpd.shed", "count"),
    ("httpd.refused", "count"),
    ("httpd.sim_req_per_s", "1/s"),
    ("httpd.sim_req_p50_us", "us"),
    ("httpd.sim_req_p999_us", "us"),
    ("httpd.sim_req_fail_ratio", "ratio"),
    ("parallel.workers_used", "count"),
    ("parallel.rounds", "count"),
    ("parallel.empty_round_ratio", "ratio"),
    ("parallel.xshard_frames", "count"),
    ("parallel.rehome_bytes", "B"),
    ("host.allocs", "count"),
    ("host.alloc_bytes", "B"),
    ("host.allocs_per_delivery", "ratio"),
    ("host.calib_mem_ms", "ms"),
    ("host.calib_cpu_ms", "ms"),
    ("host.calib_rendezvous_ms", "ms"),
    ("host.wall_s_per_sim_s", "s/s"),
    ("host.wall_setup_s", "s"),
];

/// The rig's traced layers, each reported as `trace.<layer>.ns_per_call`
/// and `trace.<layer>.ns_per_sim_s`.
pub const TRACE_LAYERS: [&str; 14] = [
    "simkern",
    "updk.switch",
    "updk.nic_deliver",
    "updk.nic_rx",
    "updk.nic_tx",
    "fstack.input",
    "fstack.poll_tx",
    "fstack.timer",
    "intravisor.mutex",
    "iperf.client_incl",
    "iperf.server_incl",
    "httpd.server_incl",
    "httpd.fleet_incl",
    "cheri.copy",
];

/// Whole-rig figures reported beside the layers.
pub const TRACE_TOTALS: [(&str, &str); 2] = [
    ("trace.netsim.residual_ns_per_sim_s", "ns/s"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        COUNTS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for layer in TRACE_LAYERS {
        all.push((format!("trace.{layer}.ns_per_call"), "ns"));
        all.push((format!("trace.{layer}.ns_per_sim_s"), "ns/s"));
    }
    all.extend(TRACE_TOTALS.iter().map(|&(n, u)| (n.to_string(), u)));
    all
}

/// The result line: `correct`, `attempted`, `failed` and every metric as
/// `{"value": …, "unit": …}`. A non-finite value (never expected) prints
/// as 0 so the line stays valid JSON.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
