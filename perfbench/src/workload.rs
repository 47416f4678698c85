//! The four workloads, built through `capnet`'s public `NetSim` API so
//! set-up (`NetSim::new` → topology → apps) and the run are timed apart,
//! and the outcome flattened into a record of named values.

use crate::alloc_count;
use crate::derive;
use capnet::netsim::{AppSched, IsolationProfile, NetSim};
use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use capnet::topology::build_star;
use capnet::{CapnetError, SimOutcome};
use capnet_httpd::{FleetConfig, FleetReport, HttpServerConfig, HTTPD_PORT};
use simkern::{CostModel, SimDuration};
use std::net::Ipv4Addr;
use std::time::Instant;
use updk::nic::NicModel;

/// The seed whose trace digests are recorded in [`recorded_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// Application buffer each iperf/httpd app stages `ff_read`/`ff_write`
/// through (`NetSim`'s per-app carve): the size of one capability-checked
/// copy.
pub const APP_BUF: usize = 16 * 1024;

/// Extra simulated time `ScenarioSpec` adds after the traffic
/// window for handshakes and FIN/TIME_WAIT drains.
const DRAIN: SimDuration = SimDuration::from_millis(30);

/// The paper testbed's addresses (`ScenarioSpec::paper`, port 0).
const DUT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// iperf service ports: the paper testbed's and the star's first.
const PAPER_PORT: u16 = 5201;
const STAR_PORT: u16 = 5301;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scenario 4 (app, F-Stack, DPDK and proxy each in a cVM), DUT as
    /// iperf server, one flow over one cable.
    PaperS4Bulk,
    /// 128 leaves each sending one iperf flow into the hub, one engine.
    Star128Bulk,
    /// The same spec sharded over two workers.
    Star128BulkW2,
    /// 16 leaves each running a close-per-request HTTP fleet at 4000
    /// connections per simulated second against one hub server.
    Star16HttpChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperS4Bulk,
        Workload::Star128Bulk,
        Workload::Star128BulkW2,
        Workload::Star16HttpChurn,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperS4Bulk => "paper_s4_bulk",
            Workload::Star128Bulk => "star128_bulk",
            Workload::Star128BulkW2 => "star128_bulk_w2",
            Workload::Star16HttpChurn => "star16_http_churn",
        }
    }

    /// The traffic window: iperf send time, or the fleets' open window.
    pub fn traffic(self) -> SimDuration {
        match self {
            Workload::PaperS4Bulk => SimDuration::from_millis(400),
            Workload::Star128Bulk | Workload::Star128BulkW2 => SimDuration::from_millis(370),
            Workload::Star16HttpChurn => SimDuration::from_millis(500),
        }
    }

    /// The simulated horizon `NetSim::run` is asked for.
    pub fn horizon(self) -> SimDuration {
        self.traffic() + DRAIN
    }

    /// `true` for the HTTP workload.
    pub fn is_http(self) -> bool {
        self == Workload::Star16HttpChurn
    }

    /// Star leaves (0 for the paper's two-host cable).
    pub fn leaves(self) -> usize {
        match self {
            Workload::PaperS4Bulk => 0,
            Workload::Star128Bulk | Workload::Star128BulkW2 => 128,
            Workload::Star16HttpChurn => 16,
        }
    }

    /// Requested shard count.
    pub fn workers(self) -> usize {
        if self == Workload::Star128BulkW2 {
            2
        } else {
            1
        }
    }

    /// The fleet every leaf runs in the HTTP workload.
    pub fn fleet(self, hub: Ipv4Addr) -> FleetConfig {
        FleetConfig {
            target: (hub, HTTPD_PORT),
            open_for: self.traffic(),
            rate_per_sec: 4000,
            keep_alive_per_mille: 0,
            think_ns: 0,
            ..FleetConfig::default()
        }
    }

    /// The Scenario 4 DUT's isolation charges, as `ScenarioSpec::paper`
    /// derives them: three compartment crossings plus the service mutex
    /// fast path on every `ff_*` call.
    pub fn s4_profile(costs: &CostModel) -> IsolationProfile {
        IsolationProfile {
            per_ff_call_ns: 3 * costs.xcall_ns + costs.mutex_fast_ns,
            s2_service: true,
        }
    }
}

/// The trace digest recorded for `w` at [`DEFAULT_SEED`].
pub fn recorded_digest(w: Workload) -> u64 {
    match w {
        Workload::PaperS4Bulk => 0x6313_170c_9961_d4b8,
        Workload::Star128Bulk | Workload::Star128BulkW2 => 0x5295_510c_04e0_896d,
        Workload::Star16HttpChurn => 0x7436_0729_2152_df7e,
    }
}

/// Builds `w` at `seed`, ready to run: the part `setup_s` times.
///
/// # Errors
///
/// Wiring and app-installation failures.
pub fn build(w: Workload, seed: u64) -> Result<NetSim, CapnetError> {
    let costs = CostModel::morello();
    let mut sim = NetSim::new(costs.clone());
    sim.set_seed(seed);
    if w == Workload::PaperS4Bulk {
        // The construction order of `ScenarioSpec::paper(Scenario4,
        // Server)`; the reference check proves the two agree.
        sim.set_app_sched(AppSched::RoundRobin);
        let dut_dev = sim.add_dev(NicModel::Dual82576)?;
        let peer_dev = sim.add_dev(NicModel::Host)?;
        sim.link(dut_dev, 0, peer_dev, 0)?;
        let dut = sim.add_node("cVM1", dut_dev, 0, DUT_IP, Workload::s4_profile(&costs))?;
        let peer = sim.add_node("host1", peer_dev, 0, PEER_IP, IsolationProfile::default())?;
        sim.add_server(dut, "cVM1", PAPER_PORT)?;
        sim.add_client(
            peer,
            "host1-tx0",
            (DUT_IP, PAPER_PORT),
            w.traffic(),
            SimDuration::ZERO,
        )?;
        return Ok(sim);
    }
    sim.set_workers(w.workers());
    let star = build_star(&mut sim, w.leaves())?;
    if w.is_http() {
        sim.add_http_server(
            star.hub,
            "hub-httpd",
            HTTPD_PORT,
            HttpServerConfig::default(),
        )?;
        for (i, &leaf) in star.leaves.iter().enumerate() {
            sim.add_http_fleet(leaf, format!("leaf-fleet{i}"), w.fleet(star.hub_ip))?;
        }
    } else {
        for (i, &leaf) in star.leaves.iter().enumerate() {
            let port = STAR_PORT + i as u16;
            sim.add_server(star.hub, format!("hub-rx{i}"), port)?;
            sim.add_client(
                leaf,
                format!("leaf-tx{i}"),
                (star.hub_ip, port),
                w.traffic(),
                SimDuration::ZERO,
            )?;
        }
    }
    Ok(sim)
}

/// The paper workload as users run it: `ScenarioSpec::paper(Scenario4,
/// Server)` at the benchmark's traffic window and seed.
///
/// # Errors
///
/// As [`ScenarioSpec::run`].
pub fn paper_reference(seed: u64) -> Result<SimOutcome, CapnetError> {
    ScenarioSpec::paper(ScenarioKind::Scenario4, TrafficMode::Server)
        .duration(Workload::PaperS4Bulk.traffic())
        .seed(seed)
        .run()
}

/// One timed build-and-run, with the host-side measurements around it.
#[derive(Debug)]
pub struct Timed {
    /// Wall seconds from `NetSim::new` to the last app installed.
    pub setup_s: f64,
    /// Wall seconds of `NetSim::run` (including dropping the world).
    pub run_s: f64,
    /// What the run produced.
    pub outcome: SimOutcome,
    /// Heap allocations (and bytes) during set-up plus run, and during
    /// the run alone; zero unless counting was enabled.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Allocations during the run alone.
    pub run_allocs: u64,
    /// This thread's frame-buffer pool counters over set-up plus run.
    pub pool: updk::framebuf::PoolStats,
}

/// Builds and runs `w` once at `seed`, timing set-up and run apart.
///
/// # Errors
///
/// Build failures and `NetSim::run` errors.
pub fn timed_run(w: Workload, seed: u64) -> Result<Timed, CapnetError> {
    let pool0 = updk::framebuf::pool_stats();
    let a0 = alloc_count::snapshot();
    let t0 = Instant::now();
    let sim = build(w, seed)?;
    let t1 = Instant::now();
    let a1 = alloc_count::snapshot();
    let outcome = sim.run(w.horizon())?;
    let t2 = Instant::now();
    let a2 = alloc_count::snapshot();
    let pool2 = updk::framebuf::pool_stats();
    Ok(Timed {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        outcome,
        allocs: a2.0 - a0.0,
        alloc_bytes: a2.1 - a0.1,
        run_allocs: a2.0 - a1.0,
        pool: updk::framebuf::PoolStats {
            fresh: pool2.fresh - pool0.fresh,
            reused: pool2.reused - pool0.reused,
            recycled: pool2.recycled - pool0.recycled,
        },
    })
}

/// Percentile the HTTP tail latency is reported at, and the samples that
/// must lie beyond it for the figure to count.
pub const TAIL_P: f64 = 0.999;
pub const MIN_BEYOND: usize = 10;

/// Flattens the deterministic part of an outcome: the digest, the
/// simulation's own results (`sim.*`) and every counter the per-layer
/// metrics read. Two runs of the same spec at the same seed must agree
/// on all of it, at any worker count; [`execution_record`] holds what may differ.
pub fn outcome_record(w: Workload, out: &SimOutcome) -> Vec<(String, f64)> {
    let mut r: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| r.push((k.to_string(), v));
    let horizon_s = out.horizon.as_nanos() as f64 / 1e9;
    put("sim.horizon_s", horizon_s);
    put("trace.frames", out.trace.frames as f64);
    put("trace.bytes", out.trace.bytes as f64);
    put("events", out.events as f64);
    let c = out.counters;
    put("counters.loop_polls", c.loop_polls as f64);
    put("counters.idle_polls", c.idle_polls as f64);
    put("counters.deliveries", c.deliveries as f64);
    put("counters.switch_hops", c.switch_hops as f64);
    put("counters.timer_wakes", c.timer_wakes as f64);
    put("counters.stale_wakes", c.stale_wakes as f64);
    put("counters.parks", c.parks as f64);
    put("counters.wakes", c.wakes as f64);
    put("counters.boxed_events", c.boxed_events as f64);
    let payload: u64 = if w.is_http() {
        out.http_servers.iter().map(|s| s.bytes_out).sum()
    } else {
        out.servers.iter().map(|s| s.bytes).sum()
    };
    put("sim.payload_bytes", payload as f64);
    put("sim.goodput_mbit_s", payload as f64 * 8.0 / horizon_s / 1e6);
    let fleet = FleetReport::aggregate("fleet", &out.http_fleets);
    put("sim.conns_started", fleet.conns_started as f64);
    put("sim.requests_ok", fleet.requests_ok as f64);
    put("sim.refused", fleet.refused as f64);
    put("sim.shed", fleet.shed as f64);
    put(
        "sim.req_per_s",
        fleet.requests_per_sec(out.horizon - simkern::SimTime::ZERO),
    );
    put("sim.req_p50_us", fleet.percentile_ns(0.5) as f64 / 1e3);
    let tail = derive::percentile_with_min_beyond(&fleet.latencies_ns, TAIL_P, MIN_BEYOND);
    put(
        "sim.req_p999_supported",
        f64::from(u8::from(tail.is_some())),
    );
    put("sim.req_p999_us", tail.unwrap_or(0) as f64 / 1e3);
    put(
        "sim.req_fail_ratio",
        derive::req_fail_ratio(fleet.conns_started, fleet.requests_ok),
    );
    let sw = out.switch_stats.iter().fold([0u64; 4], |a, s| {
        [
            a[0] + s.forwarded,
            a[1] + s.flooded,
            a[2] + s.dropped,
            a[3] + s.ingress,
        ]
    });
    put("switch.forwarded", sw[0] as f64);
    put("switch.flooded", sw[1] as f64);
    put("switch.dropped", sw[2] as f64);
    put("switch.ingress", sw[3] as f64);
    let alloc_failures: u64 = out.port_stats.iter().map(|(_, p)| p.alloc_failures).sum();
    put("port.alloc_failures", alloc_failures as f64);
    let st = out.stack_stats.iter().fold([0u64; 7], |a, (_, s)| {
        [
            a[0] + s.frames_in,
            a[1] + s.frames_out,
            a[2] + s.tcp_in,
            a[3] + s.drops,
            a[4] + s.rsts_out,
            a[5] + s.listen_drops,
            a[6] + s.conn_timeouts,
        ]
    });
    for (k, v) in [
        "stack.frames_in",
        "stack.frames_out",
        "stack.tcp_in",
        "stack.drops",
        "stack.rsts_out",
        "stack.listen_drops",
        "stack.conn_timeouts",
    ]
    .into_iter()
    .zip(st)
    {
        put(k, v as f64);
    }
    let (acq, cont) = out.mutex_stats.map_or((0, 0), |(a, c, _)| (a, c));
    put("mutex.acquisitions", acq as f64);
    put("mutex.contentions", cont as f64);
    r
}

/// How the run executed (shards, rendezvous rounds): values that
/// legitimately differ across worker counts.
pub fn execution_record(out: &SimOutcome) -> Vec<(String, f64)> {
    vec![
        ("exec.workers".to_string(), out.workers as f64),
        ("exec.rounds".to_string(), out.rounds.rounds as f64),
        (
            "exec.empty_rounds".to_string(),
            out.rounds.empty_rounds as f64,
        ),
        (
            "exec.xshard_frames".to_string(),
            out.rounds.xshard_frames as f64,
        ),
        (
            "exec.rehome_bytes".to_string(),
            out.rounds.rehome_bytes as f64,
        ),
    ]
}
