//! The HTTP serving plane under churn — the stack paths bulk transfer
//! never exercises:
//!
//! * an accept **burst into a full listen backlog** sheds SYNs at the
//!   listener (BSD semantics: counted, no RST, **no TCB allocated**) and
//!   leaves no stuck state behind once the burst drains;
//! * **close-per-request churn** across thousands of sequential
//!   connections cycles ephemeral ports through TIME_WAIT quarantine
//!   without exhausting the socket table;
//! * the open-loop fleet scenario is **byte-identical at workers=1/2/4**
//!   (the sharding determinism contract extends to the new workload).

mod testutil;

use capnet::scenario::ScenarioSpec;
use capnet_httpd::{FleetConfig, HttpServerConfig};
use chos::fdtable::Fd;
use fstack::socket::SockType;
use simkern::time::SimDuration;
use testutil::{Side, TwoHost};

const PORT: u16 = 8080;

/// A burst of 10 simultaneous SYNs into a listener whose backlog holds 3:
/// exactly 3 connections establish, every excess SYN is dropped *and
/// counted* without allocating a TCB, and after the burst drains the
/// server's socket table is back to just the listener.
#[test]
fn accept_burst_overflows_backlog_without_stuck_tcbs() {
    let mut net = TwoHost::new(0xACCE57);
    let lfd = net.stack(Side::B).ff_socket(SockType::Stream).unwrap();
    net.stack(Side::B).ff_bind(lfd, PORT).unwrap();
    net.stack(Side::B).ff_listen(lfd, 3).unwrap();

    // Launch the whole burst in one instant; nobody accepts yet.
    let mut cfds: Vec<Fd> = Vec::new();
    for _ in 0..10 {
        let fd = net.stack(Side::A).ff_socket(SockType::Stream).unwrap();
        let now = net.now;
        net.stack(Side::A)
            .ff_connect(fd, (testutil::IP_B, PORT), now)
            .unwrap();
        cfds.push(fd);
    }
    for _ in 0..2_000 {
        net.tick();
    }

    let (incomplete, ready) = net.stack(Side::B).listen_queue_depths(lfd).unwrap();
    assert_eq!(
        incomplete + ready,
        3,
        "the combined accept queue is capped at the backlog"
    );
    let drops = net.stack(Side::B).stats().listen_drops;
    assert!(
        drops >= 7,
        "7 of 10 SYNs (plus their retransmissions) must be shed, got {drops}"
    );
    // The hardening under test: a shed SYN allocates nothing, so the
    // server holds exactly the listener plus the 3 queued connections.
    assert_eq!(
        net.stack(Side::B).socket_count(),
        1 + 3,
        "no TCB allocated for dropped SYNs"
    );

    // Drain the queue: every queued connection is acceptable, then EAGAIN.
    let mut accepted = Vec::new();
    for _ in 0..3 {
        accepted.push(net.stack(Side::B).ff_accept(lfd).unwrap());
    }
    assert!(net.stack(Side::B).ff_accept(lfd).is_err());
    assert_eq!(net.stack(Side::B).listen_queue_depths(lfd), Some((0, 0)));

    // Tear everything down (both sides, including the never-established
    // clients) and run far past 2 MSL: nothing may linger server-side.
    for &fd in &cfds {
        let _ = net.stack(Side::A).ff_close(fd);
    }
    for &fd in &accepted {
        let _ = net.stack(Side::B).ff_close(fd);
    }
    for _ in 0..60_000 {
        net.tick();
    }
    assert_eq!(
        net.stack(Side::B).socket_count(),
        1,
        "only the listener survives the churn"
    );
    assert_eq!(net.stack(Side::A).socket_count(), 0, "client table drained");
}

/// Close-per-request churn: two fleets drive thousands of sequential
/// connections through one hub server. Every connection is actively
/// closed by the client, so the leaves cycle ephemeral ports through
/// TIME_WAIT quarantine — the run must neither exhaust the port range
/// nor wedge the server's socket table.
#[test]
fn time_wait_churn_over_thousands_of_connections() {
    let out = ScenarioSpec::star(2)
        .duration(SimDuration::from_millis(200))
        .seed(0xC0FFEE)
        .http(
            HttpServerConfig::default(),
            FleetConfig {
                rate_per_sec: 8_000,
                keep_alive_per_mille: 0, // pure close-per-request churn
                think_ns: 0,
                max_open: 512,
                ..FleetConfig::default()
            },
        )
        .run()
        .unwrap();

    let started: u64 = out.http_fleets.iter().map(|f| f.conns_started).sum();
    let completed: u64 = out.http_fleets.iter().map(|f| f.conns_completed).sum();
    let ok: u64 = out.http_fleets.iter().map(|f| f.requests_ok).sum();
    assert!(started >= 2_000, "churn volume: {started} connections");
    assert!(
        completed as f64 >= started as f64 * 0.95,
        "nearly every connection must run to completion ({completed}/{started})"
    );
    assert_eq!(ok, completed, "close-per-request: one 200 per connection");
    let exhausted: u64 = out.http_fleets.iter().map(|f| f.addr_exhausted).sum();
    assert_eq!(
        exhausted, 0,
        "8 k/s churn stays inside the 20 001-port ephemeral range"
    );
    // The server accepted every completed connection and leaked none of
    // its counters into error paths.
    assert_eq!(out.http_servers.len(), 1);
    let srv = &out.http_servers[0];
    assert!(srv.accepted >= completed);
    assert_eq!(srv.ok, ok);
    // The hub's stack saw real listen pressure accounting (drops are
    // allowed under burst alignment, but must be counted, not wedged).
    let (_, hub_stats) = out
        .stack_stats
        .iter()
        .find(|(name, _)| name == "hub")
        .expect("hub stack stats present");
    assert_eq!(hub_stats.listen_drops, 0, "backlog 64 absorbs this rate");
}

/// The determinism contract extends to the serving plane: the same spec
/// sharded over 1, 2 and 4 workers produces byte-identical delivery
/// digests and identical fleet populations.
#[test]
fn httpd_digest_identical_at_any_worker_count() {
    let spec = || {
        ScenarioSpec::star(4)
            .duration(SimDuration::from_millis(80))
            .seed(0xD16E57)
            .http(
                HttpServerConfig::default(),
                FleetConfig {
                    rate_per_sec: 3_000,
                    keep_alive_per_mille: 500,
                    requests_per_conn: 4,
                    ..FleetConfig::default()
                },
            )
    };
    let base = spec().workers(1).run().unwrap();
    assert!(base.trace.frames > 0, "the scenario moved traffic");
    let ok: u64 = base.http_fleets.iter().map(|f| f.requests_ok).sum();
    assert!(ok > 0, "keep-alive mix completed requests");
    assert_eq!(
        base.trace.digest, 0x62bc3bfaf30eca8f,
        "the keep-alive churn star drifted off its pinned digest"
    );
    for workers in [2, 4] {
        // Adaptive selection off: a 4-leaf star would collapse back to
        // one engine, and this test exists to drive the sharded path.
        let out = spec()
            .workers(workers)
            .adaptive_workers(false)
            .run()
            .unwrap();
        assert!(out.workers > 1, "workers={workers}: plan stayed sharded");
        assert_eq!(
            out.trace.digest, base.trace.digest,
            "workers={workers} digest diverged"
        );
        assert_eq!(out.trace.frames, base.trace.frames);
        for (a, b) in base.http_fleets.iter().zip(&out.http_fleets) {
            assert_eq!(a, b, "workers={workers} fleet report diverged");
        }
    }
}
